//! Property tests of the thread-based runtime: arbitrary message contents,
//! sizes, datatypes, topologies and buffer configurations must deliver
//! bit-exact, in-order data.

use proptest::prelude::*;
use smi::env::SmiCtx;
use smi::prelude::*;

type Prog<T> = Box<dyn FnOnce(SmiCtx) -> T + Send>;

/// Send arbitrary f64 payloads between a random pair of ranks on a random
/// built-in topology; the receiver must see the exact bit pattern.
fn roundtrip(
    topo: &Topology,
    src: usize,
    dst: usize,
    payload: Vec<f64>,
    params: RuntimeParams,
    protocol: Protocol,
) -> Vec<f64> {
    let n = payload.len() as u64;
    let metas: Vec<ProgramMeta> = (0..topo.num_ranks())
        .map(|r| {
            let mut m = ProgramMeta::new();
            if r == src {
                m = m.with(OpSpec::send(0, Datatype::Double));
            }
            if r == dst {
                m = m.with(OpSpec::recv(0, Datatype::Double));
            }
            m
        })
        .collect();
    let programs: Vec<Prog<Vec<f64>>> = (0..topo.num_ranks())
        .map(|r| {
            let b: Prog<Vec<f64>> = if r == src {
                let payload = payload.clone();
                Box::new(move |ctx| {
                    let mut ch = ctx
                        .open_send_channel_with::<f64>(n, dst, 0, protocol)
                        .unwrap();
                    for v in &payload {
                        ch.push(v).unwrap();
                    }
                    Vec::new()
                })
            } else if r == dst {
                Box::new(move |ctx| {
                    let mut ch = ctx
                        .open_recv_channel_with::<f64>(n, src, 0, protocol)
                        .unwrap();
                    (0..n).map(|_| ch.pop().unwrap()).collect()
                })
            } else {
                Box::new(|_| Vec::new())
            };
            b
        })
        .collect();
    run_mpmd(topo, metas, programs, params)
        .unwrap()
        .results
        .swap_remove(dst)
}

fn topo_of(pick: u8) -> Topology {
    match pick % 4 {
        0 => Topology::bus(3),
        1 => Topology::bus(5),
        2 => Topology::torus2d(2, 2),
        _ => Topology::torus2d(2, 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary payloads arrive bit-exact (NaNs included) over eager
    /// channels on assorted topologies.
    #[test]
    fn payload_bits_preserved(
        payload in prop::collection::vec(any::<f64>(), 1..300),
        topo_pick in any::<u8>(),
        src_pick in any::<u8>(),
        dst_pick in any::<u8>(),
    ) {
        let topo = topo_of(topo_pick);
        let n = topo.num_ranks();
        let src = src_pick as usize % n;
        let dst = dst_pick as usize % n;
        prop_assume!(src != dst);
        let got = roundtrip(&topo, src, dst, payload.clone(),
            RuntimeParams::default(), Protocol::Eager);
        let a: Vec<u64> = payload.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// Credit-mode channels deliver identically for any window size.
    #[test]
    fn credit_windows_deliver(
        payload in prop::collection::vec(any::<f64>(), 1..200),
        window in 1u64..64,
    ) {
        let topo = Topology::bus(3);
        let got = roundtrip(&topo, 0, 2, payload.clone(),
            RuntimeParams::default(), Protocol::Credit { window });
        prop_assert_eq!(got.len(), payload.len());
        let a: Vec<u64> = payload.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// Tight buffers never affect correctness, only timing.
    #[test]
    fn tight_buffers_correct(payload in prop::collection::vec(any::<f64>(), 1..150)) {
        let topo = Topology::bus(4);
        let got = roundtrip(&topo, 0, 3, payload.clone(),
            RuntimeParams::tight(), Protocol::Eager);
        let a: Vec<u64> = payload.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// For every collective, the bulk `*_slice` path (applied in arbitrary
    /// chunk sizes) produces exactly the stream the element-at-a-time loop
    /// produces: one cluster run drives both variants of each collective on
    /// separate ports and compares their outputs.
    #[test]
    fn collective_slices_match_element_loops(
        count in 1u64..40,
        root in 0usize..4,
        chunk in 1usize..17,
        seed in any::<i16>(),
    ) {
        let topo = Topology::torus2d(2, 2);
        let meta = ProgramMeta::new()
            .with(OpSpec::bcast(0, Datatype::Int))
            .with(OpSpec::bcast(1, Datatype::Int))
            .with(OpSpec::reduce(2, Datatype::Int, ReduceOp::Add))
            .with(OpSpec::reduce(3, Datatype::Int, ReduceOp::Add))
            .with(OpSpec::scatter(4, Datatype::Int))
            .with(OpSpec::scatter(5, Datatype::Int))
            .with(OpSpec::gather(6, Datatype::Int))
            .with(OpSpec::gather(7, Datatype::Int));
        let seed = seed as i32;
        let report = run_spmd(
            &topo,
            meta,
            move |ctx: SmiCtx| {
                let comm = ctx.world();
                let rank = comm.rank() as i32;
                let n = count as usize;
                let is_root = comm.rank() == root;
                // --- bcast, element loop then chunked slices ---
                let src: Vec<i32> = (0..count as i32).map(|i| seed ^ (i * 3)).collect();
                let mut b_elem = if is_root { src.clone() } else { vec![0; n] };
                let mut ch = ctx.open_bcast_channel::<i32>(count, 0, root, &comm).unwrap();
                for v in b_elem.iter_mut() {
                    ch.bcast(v).unwrap();
                }
                drop(ch);
                let mut b_slice = if is_root { src.clone() } else { vec![0; n] };
                let mut ch = ctx.open_bcast_channel::<i32>(count, 1, root, &comm).unwrap();
                let mut off = 0;
                while off < n {
                    let end = (off + chunk).min(n);
                    ch.bcast_slice(&mut b_slice[off..end]).unwrap();
                    off = end;
                }
                drop(ch);
                // --- reduce ---
                let contrib: Vec<i32> = (0..count as i32)
                    .map(|i| seed.wrapping_add(i * 13 + rank))
                    .collect();
                let mut r_elem = Vec::new();
                let mut ch = ctx.open_reduce_channel::<i32>(count, 2, root, &comm).unwrap();
                for v in &contrib {
                    if let Some(x) = ch.reduce(v).unwrap() {
                        r_elem.push(x);
                    }
                }
                drop(ch);
                let mut r_slice = vec![0i32; n];
                let mut ch = ctx.open_reduce_channel::<i32>(count, 3, root, &comm).unwrap();
                let mut off = 0;
                while off < n {
                    let end = (off + chunk).min(n);
                    ch.reduce_slice(&contrib[off..end], &mut r_slice[off..end]).unwrap();
                    off = end;
                }
                drop(ch);
                if !is_root {
                    r_slice = Vec::new();
                }
                // --- scatter ---
                let ssrc: Vec<i32> = (0..(count * 4) as i32).map(|i| seed ^ (i * 7)).collect();
                let mut ch = ctx.open_scatter_channel::<i32>(count, 4, root, &comm).unwrap();
                if is_root {
                    for v in &ssrc {
                        ch.push(v).unwrap();
                    }
                }
                let s_elem: Vec<i32> = (0..count).map(|_| ch.pop().unwrap()).collect();
                drop(ch);
                let mut ch = ctx.open_scatter_channel::<i32>(count, 5, root, &comm).unwrap();
                if is_root {
                    let mut off = 0;
                    while off < ssrc.len() {
                        let end = (off + chunk).min(ssrc.len());
                        ch.push_slice(&ssrc[off..end]).unwrap();
                        off = end;
                    }
                }
                let mut s_slice = vec![0i32; n];
                let mut off = 0;
                while off < n {
                    let end = (off + chunk).min(n);
                    ch.pop_slice(&mut s_slice[off..end]).unwrap();
                    off = end;
                }
                drop(ch);
                // --- gather ---
                let gsrc: Vec<i32> = (0..count as i32)
                    .map(|i| seed.wrapping_mul(rank + 2).wrapping_add(i))
                    .collect();
                let mut ch = ctx.open_gather_channel::<i32>(count, 6, root, &comm).unwrap();
                for v in &gsrc {
                    ch.push(v).unwrap();
                }
                let g_elem: Vec<i32> = if is_root {
                    (0..count * 4).map(|_| ch.pop().unwrap()).collect()
                } else {
                    Vec::new()
                };
                drop(ch);
                let mut ch = ctx.open_gather_channel::<i32>(count, 7, root, &comm).unwrap();
                let mut off = 0;
                while off < n {
                    let end = (off + chunk).min(n);
                    ch.push_slice(&gsrc[off..end]).unwrap();
                    off = end;
                }
                let mut g_slice = if is_root { vec![0i32; n * 4] } else { Vec::new() };
                let mut off = 0;
                while off < g_slice.len() {
                    let end = (off + chunk).min(g_slice.len());
                    ch.pop_slice(&mut g_slice[off..end]).unwrap();
                    off = end;
                }
                drop(ch);
                (b_elem, b_slice, r_elem, r_slice, s_elem, s_slice, g_elem, g_slice)
            },
            RuntimeParams::default(),
        )
        .unwrap();
        for (rank, (be, bs, re, rs, se, ss, ge, gs)) in report.results.iter().enumerate() {
            prop_assert_eq!(be, bs, "bcast rank {}", rank);
            prop_assert_eq!(re, rs, "reduce rank {}", rank);
            prop_assert_eq!(se, ss, "scatter rank {}", rank);
            prop_assert_eq!(ge, gs, "gather rank {}", rank);
        }
    }

    /// Reduce over random contributions matches the serial fold for all ops.
    #[test]
    fn reduce_matches_serial_fold(
        count in 1u64..80,
        root in 0usize..4,
        op_pick in 0usize..3,
        seed in any::<i32>(),
    ) {
        let op = ReduceOp::ALL[op_pick];
        let topo = Topology::torus2d(2, 2);
        let meta = ProgramMeta::new().with(OpSpec::reduce(0, Datatype::Int, op));
        let report = run_spmd(
            &topo,
            meta,
            move |ctx: SmiCtx| {
                let comm = ctx.world();
                let rank = comm.rank() as i32;
                let mut ch = ctx.open_reduce_channel::<i32>(count, 0, root, &comm).unwrap();
                let mut out = Vec::new();
                for i in 0..count as i32 {
                    let contrib = seed.wrapping_mul(rank + 1).wrapping_add(i * 37);
                    if let Some(v) = ch.reduce(&contrib).unwrap() {
                        out.push(v);
                    }
                }
                out
            },
            RuntimeParams::default(),
        )
        .unwrap();
        let want: Vec<i32> = (0..count as i32)
            .map(|i| {
                (0..4)
                    .map(|rank| seed.wrapping_mul(rank + 1).wrapping_add(i * 37))
                    .reduce(|a, b| op.apply(a, b))
                    .unwrap()
            })
            .collect();
        prop_assert_eq!(&report.results[root], &want);
        for (r, res) in report.results.iter().enumerate() {
            if r != root {
                prop_assert!(res.is_empty());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tree ≡ linear scheme equivalence
// ---------------------------------------------------------------------------

/// Run all four collectives under one scheme and return per-rank
/// `(bcast, reduce@root, scatter slice, gather@root)`.
#[allow(clippy::type_complexity)]
fn all_collectives(
    ranks: usize,
    root: usize,
    count: u64,
    scheme: smi::CollectiveScheme,
) -> Vec<(Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>)> {
    let topo = Topology::bus(ranks);
    let plan = ProcessPlan::split(&topo, TransportBackend::InMem, 1);
    all_collectives_split(&plan, root, count, scheme)
}

/// Same collective suite, but over a process plan: the cluster is split
/// into OS-thread groups joined by the plan's transport backend.
#[allow(clippy::type_complexity)]
fn all_collectives_split(
    plan: &ProcessPlan,
    root: usize,
    count: u64,
    scheme: smi::CollectiveScheme,
) -> Vec<(Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>)> {
    let params = RuntimeParams {
        collective_scheme: scheme,
        reduce_credits: 32, // several windows at moderate counts
        ..Default::default()
    };
    let meta = ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
        .with(OpSpec::scatter(2, Datatype::Int))
        .with(OpSpec::gather(3, Datatype::Int));
    run_split_spmd(
        plan,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let rank = comm.rank();
            let n = comm.size();
            let is_root = rank == root;
            let mut bcast: Vec<i32> = if is_root {
                (0..count as i32).map(|i| i * 13 - 7).collect()
            } else {
                vec![0; count as usize]
            };
            let mut ch = ctx
                .open_bcast_channel::<i32>(count, 0, root, &comm)
                .unwrap();
            ch.bcast_slice(&mut bcast).unwrap();
            drop(ch);
            let contrib: Vec<i32> = (0..count as i32).map(|i| i * 3 + rank as i32).collect();
            let mut reduce = vec![0i32; count as usize];
            let mut ch = ctx
                .open_reduce_channel::<i32>(count, 1, root, &comm)
                .unwrap();
            ch.reduce_slice(&contrib, &mut reduce).unwrap();
            drop(ch);
            if !is_root {
                reduce.clear();
            }
            let mut ch = ctx
                .open_scatter_channel::<i32>(count, 2, root, &comm)
                .unwrap();
            if is_root {
                let src: Vec<i32> = (0..(count * n as u64) as i32).map(|i| i * 5 - 9).collect();
                ch.push_slice(&src).unwrap();
            }
            let mut mine = vec![0i32; count as usize];
            ch.pop_slice(&mut mine).unwrap();
            drop(ch);
            let mut ch = ctx
                .open_gather_channel::<i32>(count, 3, root, &comm)
                .unwrap();
            let own: Vec<i32> = (0..count as i32).map(|i| rank as i32 * 1000 + i).collect();
            ch.push_slice(&own).unwrap();
            let gathered = if is_root {
                let mut all = vec![0i32; (count * n as u64) as usize];
                ch.pop_slice(&mut all).unwrap();
                all
            } else {
                Vec::new()
            };
            (bcast, reduce, mine, gathered)
        },
        params,
    )
    .unwrap()
    .results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tree scheme produces results identical to the linear scheme for
    /// all four collectives, across random rank counts (2..=33, including
    /// non-powers-of-two), roots, and payload lengths.
    #[test]
    fn tree_scheme_matches_linear(
        ranks_pick in any::<u8>(),
        root_pick in any::<u8>(),
        count in 1u64..40,
    ) {
        let ranks = 2 + (ranks_pick as usize % 32); // 2..=33
        let root = root_pick as usize % ranks;
        let lin = all_collectives(ranks, root, count, smi::CollectiveScheme::Linear);
        let tree = all_collectives(ranks, root, count, smi::CollectiveScheme::Tree);
        prop_assert_eq!(&lin, &tree, "ranks={} root={} count={}", ranks, root, count);
        // And both match the expected data, not just each other.
        let n = ranks;
        for (rank, (bcast, reduce, mine, gathered)) in tree.iter().enumerate() {
            let want_bcast: Vec<i32> = (0..count as i32).map(|i| i * 13 - 7).collect();
            prop_assert_eq!(bcast, &want_bcast);
            let want_scatter: Vec<i32> = (0..count as i32)
                .map(|i| (rank as i32 * count as i32 + i) * 5 - 9)
                .collect();
            prop_assert_eq!(mine, &want_scatter);
            if rank == root {
                let want_reduce: Vec<i32> = (0..count as i32)
                    .map(|i| (0..n as i32).map(|r| i * 3 + r).sum())
                    .collect();
                prop_assert_eq!(reduce, &want_reduce);
                let want_gather: Vec<i32> = (0..n as i32)
                    .flat_map(|r| (0..count as i32).map(move |i| r * 1000 + i))
                    .collect();
                prop_assert_eq!(gathered, &want_gather);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-backend equivalence: in-memory ≡ Unix-domain sockets
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Splitting the cluster across OS-process-style groups joined by real
    /// Unix-domain sockets changes nothing observable: all four collectives
    /// deliver exactly the in-memory results for random rank counts (2..=8),
    /// roots, payload lengths, partitions and schemes.
    #[test]
    fn unix_socket_backend_matches_in_memory(
        ranks_pick in any::<u8>(),
        root_pick in any::<u8>(),
        nproc_pick in any::<u8>(),
        count in 1u64..24,
        tree in any::<bool>(),
    ) {
        let ranks = 2 + (ranks_pick as usize % 7); // 2..=8
        let root = root_pick as usize % ranks;
        let nproc = 2 + (nproc_pick as usize % (ranks - 1)); // 2..=ranks
        let scheme = if tree {
            smi::CollectiveScheme::Tree
        } else {
            smi::CollectiveScheme::Linear
        };
        let topo = Topology::bus(ranks);
        let plan = ProcessPlan::split(&topo, TransportBackend::Uds, nproc);
        let inmem = all_collectives(ranks, root, count, scheme);
        let uds = all_collectives_split(&plan, root, count, scheme);
        prop_assert_eq!(
            &inmem, &uds,
            "ranks={} root={} nproc={} count={} scheme={:?}",
            ranks, root, nproc, count, scheme
        );
    }
}

// ---------------------------------------------------------------------------
// Socket-plane equivalence: tcp/uds ≡ inmem
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The socket path (v3 vectored frames, encode-buffer slab, cork,
    /// zero-copy receive decode) is result-invariant: all four collectives
    /// deliver bit-identical results over sockets and on the in-memory
    /// plane, for random rank counts (2..=8), roots, payload lengths,
    /// partitions, schemes and both socket backends.
    #[test]
    fn socket_matches_in_memory(
        ranks_pick in any::<u8>(),
        root_pick in any::<u8>(),
        nproc_pick in any::<u8>(),
        count in 1u64..24,
        tree in any::<bool>(),
        tcp in any::<bool>(),
    ) {
        let ranks = 2 + (ranks_pick as usize % 7); // 2..=8
        let root = root_pick as usize % ranks;
        let nproc = 2 + (nproc_pick as usize % (ranks - 1)); // 2..=ranks
        let scheme = if tree {
            smi::CollectiveScheme::Tree
        } else {
            smi::CollectiveScheme::Linear
        };
        let backend = if tcp {
            TransportBackend::Tcp
        } else {
            TransportBackend::Uds
        };
        let topo = Topology::bus(ranks);
        let plan = ProcessPlan::split(&topo, backend, nproc);
        let inmem = all_collectives(ranks, root, count, scheme);
        let socket = all_collectives_split(&plan, root, count, scheme);
        prop_assert_eq!(
            &inmem, &socket,
            "socket != inmem: ranks={} root={} nproc={} count={} scheme={:?} backend={}",
            ranks, root, nproc, count, scheme, backend
        );
    }
}

// ---------------------------------------------------------------------------
// Reduce run path ≡ serial reference
// ---------------------------------------------------------------------------

/// Contribution of `rank` at element `i`. Integer-valued and small, so an
/// `f32` sum is exact in any fold order: the result cannot depend on the
/// order in which a combiner folds its children.
fn reduce_value(rank: usize, i: u64) -> i32 {
    ((rank as i64 * 7919 + i as i64 * 104_729) % 2001) as i32 - 1000
}

/// The root's reduce output when every member contributes
/// `conv(reduce_value(rank, i))`, fed to `reduce_slice` in `chunk`-element
/// slices so framer tails and runs interleave.
#[allow(clippy::too_many_arguments)]
fn reduce_root<T: smi_wire::reduce::SmiNumeric>(
    plan: &ProcessPlan,
    root: usize,
    count: u64,
    chunk: usize,
    op: ReduceOp,
    scheme: smi::CollectiveScheme,
    params: RuntimeParams,
    conv: fn(i32) -> T,
) -> Vec<T> {
    let params = RuntimeParams {
        collective_scheme: scheme,
        ..params
    };
    let meta = ProgramMeta::new().with(OpSpec::reduce(0, T::DATATYPE, op));
    let mut results = run_split_spmd(
        plan,
        meta,
        move |ctx: SmiCtx| {
            let comm = ctx.world();
            let rank = comm.rank();
            let contrib: Vec<T> = (0..count).map(|i| conv(reduce_value(rank, i))).collect();
            let mut out = contrib.clone();
            let mut ch = ctx.open_reduce_channel::<T>(count, 0, root, &comm).unwrap();
            let mut off = 0;
            while off < contrib.len() {
                let end = (off + chunk).min(contrib.len());
                ch.reduce_slice(&contrib[off..end], &mut out[off..end])
                    .unwrap();
                off = end;
            }
            out
        },
        params,
    )
    .unwrap()
    .results;
    results.swap_remove(root)
}

/// The serial reference: each element folded over ranks `0..ranks` from
/// the operator's first operand.
fn reduce_reference<T: smi_wire::reduce::SmiNumeric>(
    ranks: usize,
    count: u64,
    op: ReduceOp,
    conv: fn(i32) -> T,
) -> Vec<T> {
    (0..count)
        .map(|i| {
            (0..ranks)
                .map(|r| conv(reduce_value(r, i)))
                .reduce(|a, b| op.apply(a, b))
                .unwrap()
        })
        .collect()
}

/// Run one reduce configuration in memory and over Unix-domain sockets
/// (two groups) and compare both, bit for bit, with the serial reference.
#[allow(clippy::too_many_arguments)]
fn check_reduce_equivalence<T: smi_wire::reduce::SmiNumeric>(
    ranks: usize,
    root: usize,
    count: u64,
    chunk: usize,
    op: ReduceOp,
    scheme: smi::CollectiveScheme,
    params: RuntimeParams,
    conv: fn(i32) -> T,
    bits: fn(&T) -> u32,
) -> Result<(), TestCaseError> {
    let topo = Topology::bus(ranks);
    let want: Vec<u32> = reduce_reference(ranks, count, op, conv)
        .iter()
        .map(bits)
        .collect();
    for (backend, nproc) in [(TransportBackend::InMem, 1), (TransportBackend::Uds, 2)] {
        let plan = ProcessPlan::split(&topo, backend, nproc);
        let got: Vec<u32> =
            reduce_root(&plan, root, count, chunk, op, scheme, params.clone(), conv)
                .iter()
                .map(bits)
                .collect();
        prop_assert_eq!(
            got,
            want.clone(),
            "{:?} {:?} on {} ranks={} root={} count={} chunk={} credits={} burst={}",
            T::DATATYPE,
            op,
            backend,
            ranks,
            root,
            count,
            chunk,
            params.reduce_credits,
            params.burst_packets
        );
    }
    Ok(())
}

/// Credit windows the equivalence suite sweeps: below a packet (framer
/// only), exactly one `i32`/`f32` packet, several packets, and the tight
/// configuration (4 credits, one-packet bursts, one-deep FIFOs).
fn reduce_params(pick: u8) -> RuntimeParams {
    match pick % 5 {
        0 => RuntimeParams {
            reduce_credits: 1,
            ..Default::default()
        },
        1 => RuntimeParams {
            reduce_credits: 4,
            ..Default::default()
        },
        2 => RuntimeParams {
            reduce_credits: 7,
            ..Default::default()
        },
        3 => RuntimeParams {
            reduce_credits: 32,
            ..Default::default()
        },
        _ => RuntimeParams::tight(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Reduce contributions travel as runs, framer tails and partial
    /// window-end packets; whichever mix a configuration produces, the
    /// root's output is bit-identical to the serial fold for `i32` and
    /// `f32`, every operator, linear and tree schemes, in memory and over
    /// Unix-domain sockets, at counts that are not multiples of the packet
    /// size or the window.
    #[test]
    fn reduce_runs_match_serial_fold(
        ranks in 3usize..7,
        root_pick in any::<u8>(),
        count in 1u64..300,
        chunk in 1usize..64,
        op_pick in 0usize..3,
        float in any::<bool>(),
        tree in any::<bool>(),
        params_pick in any::<u8>(),
    ) {
        let root = root_pick as usize % ranks;
        let op = ReduceOp::ALL[op_pick];
        let scheme = if tree {
            smi::CollectiveScheme::Tree
        } else {
            smi::CollectiveScheme::Linear
        };
        let params = reduce_params(params_pick);
        if float {
            check_reduce_equivalence(
                ranks, root, count, chunk, op, scheme, params, |v| v as f32, |v| v.to_bits(),
            )?;
        } else {
            check_reduce_equivalence(
                ranks, root, count, chunk, op, scheme, params, |v| v, |v| *v as u32,
            )?;
        }
    }
}

/// Deterministic corner of the suite: every type × operator × scheme at a
/// count that ends mid-packet and mid-window, with a window of exactly one
/// packet and with the tight configuration.
#[test]
fn reduce_runs_match_serial_fold_matrix() {
    let schemes = [smi::CollectiveScheme::Linear, smi::CollectiveScheme::Tree];
    for op in ReduceOp::ALL {
        for scheme in schemes {
            for params in [reduce_params(2), reduce_params(4)] {
                check_reduce_equivalence(
                    5,
                    1,
                    123,
                    50,
                    op,
                    scheme,
                    params.clone(),
                    |v| v,
                    |v| *v as u32,
                )
                .unwrap();
                check_reduce_equivalence(
                    5,
                    1,
                    123,
                    50,
                    op,
                    scheme,
                    params,
                    |v| v as f32,
                    |v| v.to_bits(),
                )
                .unwrap();
            }
        }
    }
}
