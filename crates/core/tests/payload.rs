//! Zero-copy payload plane: the run-buffer path must be observationally
//! identical to the copying baseline (`zero_copy: false`), and the
//! [`RunReport::payload_copies`] meter must show the promised reduction.
//!
//! The copy-accounting convention (see `CopyMeter`): every site that moves
//! payload bytes into a different buffer counts — framing, receive-side
//! absorb, deframer refill, fan-out duplication, consumer drain — while
//! `Arc` handovers are free. On the in-memory fabric a baseline bulk p2p
//! element is copied 4× (frame, absorb, refill, drain) and a zero-copy one
//! 2× (wrap, drain), so the meter must drop by at least 2×.

use smi::env::SmiCtx;
use smi::prelude::*;

type Prog<T> = Box<dyn FnOnce(SmiCtx) -> T + Send>;

fn params_with(zero_copy: bool, scheme: CollectiveScheme) -> RuntimeParams {
    RuntimeParams {
        zero_copy,
        collective_scheme: scheme,
        ..Default::default()
    }
}

/// Bulk p2p over a bus: returns (received stream, payload_copies).
fn run_bulk_p2p(ranks: usize, n: u64, zero_copy: bool) -> (Vec<i32>, u64) {
    let topo = Topology::bus(ranks);
    let src = 0usize;
    let dst = ranks - 1;
    let metas: Vec<ProgramMeta> = (0..ranks)
        .map(|r| {
            let mut m = ProgramMeta::new();
            if r == src {
                m = m.with(OpSpec::send(0, Datatype::Int));
            }
            if r == dst {
                m = m.with(OpSpec::recv(0, Datatype::Int));
            }
            m
        })
        .collect();
    let programs: Vec<Prog<Vec<i32>>> = (0..ranks)
        .map(|r| {
            let b: Prog<Vec<i32>> = if r == src {
                Box::new(move |ctx| {
                    let mut ch = ctx.open_send_channel::<i32>(n, dst, 0).unwrap();
                    let data: Vec<i32> = (0..n as i32).map(|i| i * 3 - 1).collect();
                    ch.push_slice(&data).unwrap();
                    Vec::new()
                })
            } else if r == dst {
                Box::new(move |ctx| {
                    let mut ch = ctx.open_recv_channel::<i32>(n, src, 0).unwrap();
                    let mut buf = vec![0i32; n as usize];
                    ch.pop_slice(&mut buf).unwrap();
                    buf
                })
            } else {
                Box::new(|_ctx| Vec::new())
            };
            b
        })
        .collect();
    let report = run_mpmd(
        &topo,
        metas,
        programs,
        params_with(zero_copy, CollectiveScheme::Linear),
    )
    .unwrap();
    assert_eq!(report.transport.2, 0, "unroutable packets");
    let got = report.results.into_iter().nth(dst).unwrap();
    (got, report.payload_copies)
}

#[test]
fn p2p_zero_copy_matches_baseline() {
    // Odd count: the tail crosses the partial-final-packet path.
    let n = 10_007u64;
    let (zc, _) = run_bulk_p2p(4, n, true);
    let (base, _) = run_bulk_p2p(4, n, false);
    let want: Vec<i32> = (0..n as i32).map(|i| i * 3 - 1).collect();
    assert_eq!(zc, want);
    assert_eq!(base, want);
}

/// Bulk p2p across a real socket boundary (2 ranks / 2 processes over
/// uds): returns (received stream, payload_copies).
fn run_bulk_p2p_uds(n: u64) -> (Vec<i32>, u64) {
    let topo = Topology::bus(2);
    let plan = ProcessPlan::split(&topo, TransportBackend::Uds, 2);
    let metas = vec![
        ProgramMeta::new().with(OpSpec::send(0, Datatype::Int)),
        ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int)),
    ];
    let programs: Vec<Prog<Vec<i32>>> = vec![
        Box::new(move |ctx| {
            let mut ch = ctx.open_send_channel::<i32>(n, 1, 0).unwrap();
            let data: Vec<i32> = (0..n as i32).map(|i| i * 3 - 1).collect();
            ch.push_slice(&data).unwrap();
            Vec::new()
        }),
        Box::new(move |ctx| {
            let mut ch = ctx.open_recv_channel::<i32>(n, 0, 0).unwrap();
            let mut buf = vec![0i32; n as usize];
            ch.pop_slice(&mut buf).unwrap();
            buf
        }),
    ];
    let params = RuntimeParams {
        zero_copy: true,
        ..Default::default()
    };
    let report = run_split_mpmd(&plan, metas, programs, params).unwrap();
    let got = report.results.into_iter().nth(1).unwrap();
    (got, report.payload_copies)
}

#[test]
fn socket_boundary_costs_at_most_one_copy_per_element_when_pooled() {
    // Whole packets only (7 i32s each), so the accounting is exact: the
    // in-memory zero-copy run costs 2 copies per element byte (wrap +
    // drain). Crossing a socket may add at most ~1 more — the single
    // encode into the pooled send buffer; the receive side decodes run
    // payloads as views borrowing the pooled block, copy-free.
    let n = 7_000u64;
    let bytes = n * 4;
    let (want, inmem) = run_bulk_p2p(2, n, true);
    let (pooled_got, pooled) = run_bulk_p2p_uds(n);
    assert_eq!(pooled_got, want);
    eprintln!(
        "copies/elem: inmem={:.2} socket={:.2}",
        inmem as f64 / bytes as f64,
        pooled as f64 / bytes as f64
    );
    let pooled_extra = pooled.saturating_sub(inmem);
    assert!(
        pooled_extra <= bytes + bytes / 4,
        "pooled socket boundary added {pooled_extra} copied bytes for          {bytes} payload bytes: expected ≤ ~1 copy per element"
    );
}

#[test]
fn p2p_copies_halve_under_zero_copy() {
    // 8-rank bulk p2p, count a multiple of the 7-int packet capacity so
    // every element rides a whole packet: baseline charges 4 copies per
    // element byte, zero-copy 2 — the ISSUE's ≥2× acceptance bar.
    let n = 7_000u64;
    let (_, zc_copies) = run_bulk_p2p(8, n, true);
    let (_, base_copies) = run_bulk_p2p(8, n, false);
    assert!(zc_copies > 0, "meter not wired");
    assert!(
        base_copies >= 2 * zc_copies,
        "baseline copied {base_copies} B, zero-copy {zc_copies} B: expected ≥2× reduction"
    );
}

/// All four collectives, bulk APIs, returning every rank's buffers plus the
/// run's payload_copies meter.
type CollOut = (Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>);

fn run_all_collectives(
    ranks: usize,
    n: u64,
    root: usize,
    zero_copy: bool,
    scheme: CollectiveScheme,
) -> (Vec<CollOut>, u64) {
    let topo = Topology::bus(ranks);
    let meta = ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
        .with(OpSpec::scatter(2, Datatype::Int))
        .with(OpSpec::gather(3, Datatype::Int));
    let report = run_spmd(
        &topo,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let rank = comm.rank() as i32;
            let members = comm.size() as u64;
            let mut b = ctx.open_bcast_channel::<i32>(n, 0, root, &comm).unwrap();
            let mut bbuf: Vec<i32> = if comm.rank() == root {
                (0..n as i32).map(|i| i * 5 - 3).collect()
            } else {
                vec![0; n as usize]
            };
            b.bcast_slice(&mut bbuf).unwrap();
            drop(b);
            let mut r = ctx.open_reduce_channel::<i32>(n, 1, root, &comm).unwrap();
            let contrib: Vec<i32> = (0..n as i32).map(|i| i * 7 + rank).collect();
            let mut rbuf = vec![0i32; n as usize];
            r.reduce_slice(&contrib, &mut rbuf).unwrap();
            drop(r);
            let mut s = ctx.open_scatter_channel::<i32>(n, 2, root, &comm).unwrap();
            if comm.rank() == root {
                let src: Vec<i32> = (0..(n * members) as i32).map(|i| i * 2 + 1).collect();
                s.push_slice(&src).unwrap();
            }
            let mut sbuf = vec![0i32; n as usize];
            s.pop_slice(&mut sbuf).unwrap();
            drop(s);
            let mut g = ctx.open_gather_channel::<i32>(n, 3, root, &comm).unwrap();
            let gsrc: Vec<i32> = (0..n as i32).map(|i| rank * 1000 + i).collect();
            g.push_slice(&gsrc).unwrap();
            let mut gbuf = if comm.rank() == root {
                vec![0i32; (n * members) as usize]
            } else {
                Vec::new()
            };
            if comm.rank() == root {
                g.pop_slice(&mut gbuf).unwrap();
            }
            (bbuf, rbuf, sbuf, gbuf)
        },
        params_with(zero_copy, scheme),
    )
    .unwrap();
    assert_eq!(report.transport.2, 0, "unroutable packets");
    (report.results, report.payload_copies)
}

#[test]
fn collectives_zero_copy_equivalent_to_baseline() {
    // The property across schemes and cluster sizes: every rank's output
    // under zero_copy: true equals the copying baseline's bit for bit (and
    // both match the analytically expected streams).
    for scheme in [CollectiveScheme::Linear, CollectiveScheme::Tree] {
        for ranks in [2usize, 5, 8] {
            let n = 45u64; // not a multiple of the 7-int packet capacity
            let root = ranks / 2;
            let (zc, _) = run_all_collectives(ranks, n, root, true, scheme);
            let (base, _) = run_all_collectives(ranks, n, root, false, scheme);
            let want_bcast: Vec<i32> = (0..n as i32).map(|i| i * 5 - 3).collect();
            let want_reduce: Vec<i32> = (0..n as i32)
                .map(|i| (0..ranks as i32).map(|r| i * 7 + r).sum())
                .collect();
            let want_gather: Vec<i32> = (0..ranks as i32)
                .flat_map(|r| (0..n as i32).map(move |i| r * 1000 + i))
                .collect();
            for (rank, (z, b)) in zc.iter().zip(base.iter()).enumerate() {
                assert_eq!(z, b, "{scheme:?} ranks={ranks} rank {rank}");
                assert_eq!(z.0, want_bcast, "{scheme:?} ranks={ranks} bcast {rank}");
                let off = rank as i32 * n as i32;
                let want_scatter: Vec<i32> = (0..n as i32).map(|i| (off + i) * 2 + 1).collect();
                assert_eq!(z.2, want_scatter, "{scheme:?} ranks={ranks} scatter {rank}");
                if rank == root {
                    assert_eq!(z.1, want_reduce, "{scheme:?} ranks={ranks} reduce root");
                    assert_eq!(z.3, want_gather, "{scheme:?} ranks={ranks} gather root");
                }
            }
        }
    }
}

#[test]
fn tree_bcast_copies_halve_under_zero_copy() {
    // 8-rank tree bcast with a packet-aligned bulk stream: interior nodes
    // re-fan-out `Arc` handles instead of duplicating packets, so the
    // meter must drop ≥2× against the copying baseline.
    let topo = Topology::bus(8);
    let n = 7_000u64;
    let run = |zero_copy: bool| -> u64 {
        let meta = ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Int));
        let report = run_spmd(
            &topo,
            meta,
            move |ctx: SmiCtx| {
                let comm = ctx.world();
                let mut b = ctx.open_bcast_channel::<i32>(n, 0, 0, &comm).unwrap();
                let mut buf: Vec<i32> = if comm.rank() == 0 {
                    (0..n as i32).collect()
                } else {
                    vec![0; n as usize]
                };
                b.bcast_slice(&mut buf).unwrap();
                let want: Vec<i32> = (0..n as i32).collect();
                assert_eq!(buf, want, "rank {}", comm.rank());
            },
            params_with(zero_copy, CollectiveScheme::Tree),
        )
        .unwrap();
        report.payload_copies
    };
    let zc = run(true);
    let base = run(false);
    assert!(zc > 0, "meter not wired");
    assert!(
        base >= 2 * zc,
        "tree bcast baseline copied {base} B, zero-copy {zc} B: expected ≥2× reduction"
    );
}

#[test]
fn gather_grant_ahead_pipelines_without_reorder_bugs() {
    // Pipelined multi-window grants: with grant_ahead > 1 children send
    // ahead of the merge cursor and the root/interior stashes early
    // packets per child. The gathered stream must stay in communicator
    // order for serial (1) and deep (4) grant windows, on both schemes.
    for scheme in [CollectiveScheme::Linear, CollectiveScheme::Tree] {
        for ahead in [1usize, 2, 4] {
            let ranks = 8usize;
            let n = 39u64;
            let root = 0usize;
            let topo = Topology::bus(ranks);
            let meta = ProgramMeta::new().with(OpSpec::gather(0, Datatype::Int));
            let params = RuntimeParams {
                gather_grant_ahead: ahead,
                collective_scheme: scheme,
                ..Default::default()
            };
            let report = run_spmd(
                &topo,
                meta,
                move |ctx: SmiCtx| {
                    let comm = ctx.world();
                    let rank = comm.rank() as i32;
                    let mut g = ctx.open_gather_channel::<i32>(n, 0, root, &comm).unwrap();
                    let src: Vec<i32> = (0..n as i32).map(|i| rank * 1000 + i).collect();
                    g.push_slice(&src).unwrap();
                    if comm.rank() == root {
                        let mut out = vec![0i32; n as usize * comm.size()];
                        g.pop_slice(&mut out).unwrap();
                        out
                    } else {
                        Vec::new()
                    }
                },
                params,
            )
            .unwrap();
            let want: Vec<i32> = (0..ranks as i32)
                .flat_map(|r| (0..n as i32).map(move |i| r * 1000 + i))
                .collect();
            assert_eq!(report.results[root], want, "{scheme:?} grant_ahead={ahead}");
        }
    }
}
