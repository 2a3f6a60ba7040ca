//! Multi-process-style split-runner tests: the cluster is partitioned into
//! groups joined by real socket transports (Unix-domain or TCP), and every
//! observable result must be identical to the single-group in-memory run.

use smi::env::SmiCtx;
use smi::prelude::*;

/// Run all four rooted collectives over `plan` and return per-rank
/// `(bcast, reduce@root, scatter slice, gather@root)`.
#[allow(clippy::type_complexity)]
fn collective_suite(
    plan: &ProcessPlan,
    root: usize,
    count: u64,
    scheme: CollectiveScheme,
) -> Vec<(Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>)> {
    let params = RuntimeParams {
        collective_scheme: scheme,
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
                (0..count as i32).map(|i| i * 11 - 3).collect()
            } else {
                vec![0; count as usize]
            };
            let mut ch = ctx
                .open_bcast_channel::<i32>(count, 0, root, &comm)
                .unwrap();
            ch.bcast_slice(&mut bcast).unwrap();
            drop(ch);
            let contrib: Vec<i32> = (0..count as i32).map(|i| i * 7 + rank as i32).collect();
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

/// The acceptance matrix: the full collective suite over every backend,
/// every scheme, and 2- and 4-way process splits matches the in-memory
/// single-group run bit for bit.
#[test]
fn collective_suite_identical_across_backends_and_splits() {
    let topo = Topology::bus(4);
    let count = 48;
    for scheme in [CollectiveScheme::Linear, CollectiveScheme::Tree] {
        for root in [0, 3] {
            let reference = collective_suite(
                &ProcessPlan::split(&topo, TransportBackend::InMem, 1),
                root,
                count,
                scheme,
            );
            for backend in [TransportBackend::Uds, TransportBackend::Tcp] {
                for nproc in [2, 4] {
                    let plan = ProcessPlan::split(&topo, backend, nproc);
                    let got = collective_suite(&plan, root, count, scheme);
                    assert_eq!(
                        reference, got,
                        "backend={backend} nproc={nproc} scheme={scheme:?} root={root}"
                    );
                }
            }
        }
    }
}

/// The socket path (vectored v3 frames, cork, zero-copy receive decode) is
/// result-invariant: socket ≡ inmem for all four collectives across
/// uds/tcp and 2–8 ranks.
#[test]
fn socket_and_inmem_identical_across_rank_counts() {
    let count = 40;
    for (ranks, nproc, root) in [(2usize, 2usize, 0usize), (3, 3, 1), (5, 2, 2), (8, 4, 7)] {
        let topo = Topology::bus(ranks);
        let scheme = if ranks % 2 == 0 {
            CollectiveScheme::Tree
        } else {
            CollectiveScheme::Linear
        };
        let reference = collective_suite(
            &ProcessPlan::split(&topo, TransportBackend::InMem, 1),
            root,
            count,
            scheme,
        );
        for backend in [TransportBackend::Uds, TransportBackend::Tcp] {
            let plan = ProcessPlan::split(&topo, backend, nproc);
            let got = collective_suite(&plan, root, count, scheme);
            assert_eq!(
                reference, got,
                "backend={backend} ranks={ranks} nproc={nproc}"
            );
        }
    }
}

/// Uneven partitions (5 ranks over 2 processes: 3 + 2) work too.
#[test]
fn uneven_rank_partition_matches_in_memory() {
    let topo = Topology::bus(5);
    let reference = collective_suite(
        &ProcessPlan::split(&topo, TransportBackend::InMem, 1),
        2,
        32,
        CollectiveScheme::Tree,
    );
    let plan = ProcessPlan::split(&topo, TransportBackend::Uds, 2);
    assert_eq!(plan.rank_sets(), vec![vec![0, 1, 2], vec![3, 4]]);
    let got = collective_suite(&plan, 2, 32, CollectiveScheme::Tree);
    assert_eq!(reference, got);
}

/// MPMD point-to-point across the process boundary: distinct programs per
/// rank, results slotted by world rank.
#[test]
fn split_mpmd_point_to_point_crosses_boundary() {
    let topo = Topology::bus(4);
    let n = 300u64;
    // Pair up (0 -> 2) and (1 -> 3); with the contiguous [0,1]/[2,3] split
    // every byte crosses the socket.
    let metas: Vec<ProgramMeta> = (0..4)
        .map(|r| {
            if r < 2 {
                ProgramMeta::new().with(OpSpec::send(0, Datatype::Int))
            } else {
                ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int))
            }
        })
        .collect();
    let programs: Vec<Box<dyn FnOnce(SmiCtx) -> Vec<i32> + Send>> = (0..4usize)
        .map(|r| {
            let b: Box<dyn FnOnce(SmiCtx) -> Vec<i32> + Send> = if r < 2 {
                Box::new(move |ctx: SmiCtx| {
                    let mut ch = ctx.open_send_channel::<i32>(n, r + 2, 0).unwrap();
                    let data: Vec<i32> = (0..n as i32).map(|i| i * 3 + r as i32).collect();
                    ch.push_slice(&data).unwrap();
                    Vec::new()
                })
            } else {
                Box::new(move |ctx: SmiCtx| {
                    let mut ch = ctx.open_recv_channel::<i32>(n, r - 2, 0).unwrap();
                    let mut buf = vec![0i32; n as usize];
                    ch.pop_slice(&mut buf).unwrap();
                    buf
                })
            };
            b
        })
        .collect();
    let plan = ProcessPlan::split(&topo, TransportBackend::Uds, 2);
    let report = run_split_mpmd(&plan, metas, programs, RuntimeParams::default()).unwrap();
    for r in [2usize, 3] {
        let want: Vec<i32> = (0..n as i32).map(|i| i * 3 + (r - 2) as i32).collect();
        assert_eq!(report.results[r], want, "rank {r}");
    }
}

struct SliceSend {
    ch: Option<SendChannel<i32>>,
    data: Vec<i32>,
    off: usize,
}

impl RankTask for SliceSend {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open");
        let before = self.off;
        if self.off < self.data.len() {
            self.off += ch.try_push_slice(&self.data[self.off..])?;
        }
        if self.off == self.data.len() && ch.try_flush()? && ch.fully_sent() {
            self.ch = None;
            return Ok(TaskStatus::Done);
        }
        Ok(if self.off > before {
            TaskStatus::Progress
        } else {
            TaskStatus::Pending
        })
    }
}

struct SliceRecv {
    ch: Option<RecvChannel<i32>>,
    buf: Vec<i32>,
    filled: usize,
    out: std::sync::Arc<parking_lot::Mutex<Vec<Vec<i32>>>>,
    rank: usize,
}

impl RankTask for SliceRecv {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open");
        let moved = ch.try_pop_slice(&mut self.buf[self.filled..])?;
        self.filled += moved;
        if self.filled == self.buf.len() {
            self.ch = None;
            self.out.lock()[self.rank] = std::mem::take(&mut self.buf);
            return Ok(TaskStatus::Done);
        }
        Ok(if moved > 0 {
            TaskStatus::Progress
        } else {
            TaskStatus::Pending
        })
    }
}

/// The cooperative task plane streams across socket transports: one rank
/// per group, so every packet of both directed pairs rides a socket pump.
#[test]
fn split_task_plane_streams_across_sockets() {
    let topo = Topology::bus(4);
    let n = 400u64;
    let metas: Vec<ProgramMeta> = (0..4)
        .map(|r| {
            if r % 2 == 0 {
                ProgramMeta::new().with(OpSpec::send(0, Datatype::Int))
            } else {
                ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int))
            }
        })
        .collect();
    let out = std::sync::Arc::new(parking_lot::Mutex::new(vec![Vec::new(); 4]));
    let factories: Vec<TaskFactory> = (0..4usize)
        .map(|r| {
            let out = out.clone();
            let f: TaskFactory = if r % 2 == 0 {
                Box::new(move |ctx: SmiCtx| {
                    let ch = ctx.open_send_channel::<i32>(n, r + 1, 0)?;
                    Ok(Box::new(SliceSend {
                        ch: Some(ch),
                        data: (0..n as i32).map(|i| i * 2 + r as i32).collect(),
                        off: 0,
                    }) as Box<dyn RankTask>)
                })
            } else {
                Box::new(move |ctx: SmiCtx| {
                    let ch = ctx.open_recv_channel::<i32>(n, r - 1, 0)?;
                    Ok(Box::new(SliceRecv {
                        ch: Some(ch),
                        buf: vec![0; n as usize],
                        filled: 0,
                        out,
                        rank: r,
                    }) as Box<dyn RankTask>)
                })
            };
            f
        })
        .collect();
    // One rank per process: all four ranks talk through sockets.
    let plan = ProcessPlan::split(&topo, TransportBackend::Uds, 4);
    let report = run_split_mpmd_tasks(&plan, metas, factories, RuntimeParams::default()).unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r}: {res:?}");
    }
    let collected = std::mem::take(&mut *out.lock());
    for r in [1usize, 3] {
        let want: Vec<i32> = (0..n as i32).map(|i| i * 2 + (r - 1) as i32).collect();
        assert_eq!(collected[r], want, "rank {r}");
    }
}

/// A plan round-trips through its JSON description and still runs.
#[test]
fn plan_json_roundtrip_still_runs() {
    let topo = Topology::ring(4);
    let plan = ProcessPlan::split(&topo, TransportBackend::Uds, 2);
    let again = ProcessPlan::from_json(&plan.to_json()).unwrap();
    assert_eq!(again.rank_sets(), plan.rank_sets());
    let got = collective_suite(&again, 1, 16, CollectiveScheme::Linear);
    let reference = collective_suite(
        &ProcessPlan::split(&topo, TransportBackend::InMem, 1),
        1,
        16,
        CollectiveScheme::Linear,
    );
    assert_eq!(reference, got);
}
