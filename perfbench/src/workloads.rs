//! The four workloads: their shapes, seed-generated inputs, rank programs
//! and output checks. Why each one exists is recorded in README.md.

use std::sync::Arc;

use smi::prelude::*;
use smi::{ProcessPlan, TransportBackend};

use crate::probe::{Layer, Probe, Program, RankRunner, RepShared};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory `bus(256)`, 128 disjoint neighbour pairs `2i → 2i+1`.
    PairsBus256,
    /// `bus(4)` split into two UDS-joined groups, pairs `0→2` and `1→3`.
    P2pUds,
    /// The same split plan, linear `Add` reduce rooted at rank 0.
    ReduceUds,
    /// In-memory `torus2d(8, 8)`, tree broadcast from rank 0.
    BcastTreeTorus64,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::PairsBus256,
        Workload::P2pUds,
        Workload::ReduceUds,
        Workload::BcastTreeTorus64,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairsBus256 => "pairs_bus256",
            Workload::P2pUds => "p2p_uds",
            Workload::ReduceUds => "reduce_uds",
            Workload::BcastTreeTorus64 => "bcast_tree_torus64",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Elements per pair on `pairs_bus256`.
const PAIRS_ELEMS: usize = 64 << 10;
/// Elements per pair on `p2p_uds`.
const UDS_P2P_ELEMS: usize = 4 << 20;
/// Elements reduced on `reduce_uds`.
const UDS_REDUCE_ELEMS: usize = 1 << 20;
/// Elements broadcast on `bcast_tree_torus64`.
const BCAST_ELEMS: usize = 256 << 10;

/// Contributions to the reduce are below this, so the 4-rank sum of one
/// element stays far from `i32::MAX`.
const REDUCE_VALUE_LIMIT: u64 = 1 << 12;

/// Where and how a workload's cluster runs.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The cluster topology.
    pub topo: Topology,
    /// The process split for socket workloads (`None`: one in-memory fabric).
    pub plan: Option<ProcessPlan>,
    /// Runtime knobs.
    pub params: RuntimeParams,
    /// Executor workers per group, as configured.
    pub workers_per_group: usize,
    /// Groups joined by sockets (1 for in-memory).
    pub groups: usize,
    /// Elements delivered per run, once per receiving rank.
    pub delivered: u64,
}

impl Setup {
    /// The fixed shape of `workload`.
    pub fn new(workload: Workload) -> Setup {
        let default_workers = RuntimeParams::default().resolved_workers();
        let uds = |topo: &Topology| {
            let plan = ProcessPlan::split(topo, TransportBackend::Uds, 2);
            let params = RuntimeParams {
                transport_workers: 1,
                ..Default::default()
            };
            (Some(plan), params, 1, 2)
        };
        let (topo, delivered) = match workload {
            Workload::PairsBus256 => (Topology::bus(256), 128 * PAIRS_ELEMS as u64),
            Workload::P2pUds => (Topology::bus(4), 2 * UDS_P2P_ELEMS as u64),
            Workload::ReduceUds => (Topology::bus(4), UDS_REDUCE_ELEMS as u64),
            Workload::BcastTreeTorus64 => (Topology::torus2d(8, 8), 63 * BCAST_ELEMS as u64),
        };
        let (plan, params, workers_per_group, groups) = match workload {
            Workload::PairsBus256 => (None, RuntimeParams::default(), default_workers, 1),
            Workload::P2pUds | Workload::ReduceUds => uds(&topo),
            // One worker: with two, run-to-run spread on a 2-core host was
            // several times larger (see README.md, "Workloads").
            Workload::BcastTreeTorus64 => (
                None,
                RuntimeParams {
                    collective_scheme: CollectiveScheme::Tree,
                    transport_workers: 1,
                    ..Default::default()
                },
                1,
                1,
            ),
        };
        Setup {
            workload,
            topo,
            plan,
            params,
            workers_per_group,
            groups,
            delivered,
        }
    }

    /// Ranks in the cluster.
    pub fn ranks(&self) -> usize {
        self.topo.num_ranks()
    }

    /// The per-rank op metadata the code generator sees.
    pub fn metas(&self) -> Vec<ProgramMeta> {
        let sender = || ProgramMeta::new().with(OpSpec::send(0, Datatype::Int));
        let receiver = || ProgramMeta::new().with(OpSpec::recv(0, Datatype::Int));
        (0..self.ranks())
            .map(|r| match self.workload {
                Workload::PairsBus256 if r % 2 == 0 => sender(),
                Workload::P2pUds if r < 2 => sender(),
                Workload::PairsBus256 | Workload::P2pUds => receiver(),
                Workload::ReduceUds => {
                    ProgramMeta::new().with(OpSpec::reduce(0, Datatype::Int, ReduceOp::Add))
                }
                Workload::BcastTreeTorus64 => {
                    ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Int))
                }
            })
            .collect()
    }
}

/// One run's seed-generated inputs and the outputs they must produce.
pub struct Inputs {
    /// Data each rank sends or contributes (`None`: the rank only receives).
    pub send: Vec<Option<Arc<Vec<i32>>>>,
    /// What each receiving rank must end up holding.
    pub expect: Vec<Option<Arc<Vec<i32>>>>,
}

/// SplitMix64: a small, seedable generator (the benchmark draws payloads
/// from it so every seed names one exact input).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn stream(seed: u64, rep: u64, id: u64, n: usize, limit: Option<u64>) -> Arc<Vec<i32>> {
    let mut g = SplitMix(seed ^ rep.wrapping_mul(0xA24B_AED4_963E_E407) ^ (id << 48));
    g.next();
    Arc::new(
        (0..n)
            .map(|_| match limit {
                Some(l) => (g.next() % l) as i32,
                None => g.next() as i32,
            })
            .collect(),
    )
}

impl Inputs {
    /// The inputs of repetition `rep` under `seed`. Every repetition gets
    /// fresh values, so a stale buffer from an earlier run cannot pass the
    /// output check.
    pub fn generate(setup: &Setup, seed: u64, rep: u64) -> Inputs {
        let n = setup.ranks();
        let mut send = vec![None; n];
        let mut expect = vec![None; n];
        match setup.workload {
            Workload::PairsBus256 | Workload::P2pUds => {
                let (elems, pairs): (usize, Vec<(usize, usize)>) = match setup.workload {
                    Workload::PairsBus256 => (
                        PAIRS_ELEMS,
                        (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect(),
                    ),
                    _ => (UDS_P2P_ELEMS, vec![(0, 2), (1, 3)]),
                };
                for (src, dst) in pairs {
                    let data = stream(seed, rep, src as u64, elems, None);
                    send[src] = Some(data.clone());
                    expect[dst] = Some(data);
                }
            }
            Workload::ReduceUds => {
                let contribs: Vec<Arc<Vec<i32>>> = (0..n)
                    .map(|r| {
                        stream(
                            seed,
                            rep,
                            r as u64,
                            UDS_REDUCE_ELEMS,
                            Some(REDUCE_VALUE_LIMIT),
                        )
                    })
                    .collect();
                let sum = (0..UDS_REDUCE_ELEMS)
                    .map(|i| contribs.iter().map(|c| c[i]).sum())
                    .collect();
                expect[0] = Some(Arc::new(sum));
                send = contribs.into_iter().map(Some).collect();
            }
            Workload::BcastTreeTorus64 => {
                let data = stream(seed, rep, 0, BCAST_ELEMS, None);
                send[0] = Some(data.clone());
                for e in expect.iter_mut().skip(1) {
                    *e = Some(data.clone());
                }
            }
        }
        Inputs { send, expect }
    }
}

/// Build the task factories of one run. `buffers` supplies each receiving
/// rank's output buffer (recycled across runs so the timed region does not
/// fault in fresh pages); received buffers come back through `shared`.
pub fn factories(
    setup: &Setup,
    inputs: &Inputs,
    buffers: &mut Vec<Vec<i32>>,
    shared: &Arc<RepShared>,
    trace: bool,
) -> Vec<TaskFactory> {
    let n = setup.ranks();
    let mut take_buf = |len: usize| {
        let mut b = buffers.pop().unwrap_or_default();
        b.resize(len, 0);
        b
    };
    (0..n)
        .map(|rank| {
            let shared = shared.clone();
            let send = inputs.send[rank].clone();
            let expect_len = inputs.expect[rank].as_ref().map(|e| e.len());
            let workload = setup.workload;
            let out = match (workload, expect_len) {
                (Workload::BcastTreeTorus64, None) => {
                    // The root broadcasts from a mutable copy of its data.
                    let data = send.as_ref().expect("bcast root has data");
                    let mut b = take_buf(data.len());
                    b.copy_from_slice(data);
                    b
                }
                (_, Some(len)) => take_buf(len),
                (_, None) => Vec::new(),
            };
            Box::new(move |ctx: SmiCtx| {
                RankRunner::enter(rank, trace, shared, move |probe| {
                    open_program(workload, &ctx, probe, send, out)
                })
            }) as TaskFactory
        })
        .collect()
}

fn open_program(
    workload: Workload,
    ctx: &SmiCtx,
    probe: &mut Probe,
    send: Option<Arc<Vec<i32>>>,
    out: Vec<i32>,
) -> Result<Box<dyn Program>, SmiError> {
    let rank = ctx.rank();
    Ok(match workload {
        Workload::PairsBus256 | Workload::P2pUds => {
            let peer = match workload {
                Workload::PairsBus256 => rank ^ 1,
                _ => (rank + 2) % 4,
            };
            match send {
                Some(data) => {
                    let len = data.len() as u64;
                    let ch = probe.open(Layer::Channel, || {
                        ctx.open_send_channel::<i32>(len, peer, 0)
                    })?;
                    Box::new(Sender {
                        ch: Some(ch),
                        data,
                        off: 0,
                    })
                }
                None => {
                    let len = out.len() as u64;
                    let ch = probe.open(Layer::Channel, || {
                        ctx.open_recv_channel::<i32>(len, peer, 0)
                    })?;
                    Box::new(Receiver {
                        ch: Some(ch),
                        buf: out,
                        filled: 0,
                    })
                }
            }
        }
        Workload::ReduceUds => {
            let contrib = send.expect("every rank contributes");
            let len = contrib.len() as u64;
            let comm = ctx.world();
            let ch = probe.open(Layer::Collective, || {
                ctx.open_reduce_channel_poll::<i32>(len, 0, 0, &comm)
            })?;
            Box::new(Reduce {
                ch: Some(ch),
                contrib,
                out,
                off: 0,
            })
        }
        Workload::BcastTreeTorus64 => {
            let len = out.len() as u64;
            let comm = ctx.world();
            let ch = probe.open(Layer::Collective, || {
                ctx.open_bcast_channel_poll::<i32>(len, 0, 0, &comm)
            })?;
            Box::new(Bcast {
                ch: Some(ch),
                buf: out,
                off: 0,
                root: rank == 0,
            })
        }
    })
}

fn status(moved: bool) -> TaskStatus {
    if moved {
        TaskStatus::Progress
    } else {
        TaskStatus::Pending
    }
}

struct Sender {
    ch: Option<SendChannel<i32>>,
    data: Arc<Vec<i32>>,
    off: usize,
}

impl Program for Sender {
    fn step(&mut self, probe: &mut Probe) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open until done");
        let before = self.off;
        if self.off < self.data.len() {
            self.off += probe.data(|| ch.try_push_slice(&self.data[self.off..]))?;
        }
        if self.off == self.data.len() && probe.flush(|| ch.try_flush())? && ch.fully_sent() {
            self.ch = None;
            return Ok(TaskStatus::Done);
        }
        Ok(status(self.off > before))
    }

    fn into_output(self: Box<Self>) -> Option<Vec<i32>> {
        None
    }
}

struct Receiver {
    ch: Option<RecvChannel<i32>>,
    buf: Vec<i32>,
    filled: usize,
}

impl Program for Receiver {
    fn step(&mut self, probe: &mut Probe) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open until done");
        let moved = probe.data(|| ch.try_pop_slice(&mut self.buf[self.filled..]))?;
        self.filled += moved;
        if self.filled == self.buf.len() {
            self.ch = None;
            return Ok(TaskStatus::Done);
        }
        Ok(status(moved > 0))
    }

    fn into_output(self: Box<Self>) -> Option<Vec<i32>> {
        Some(self.buf)
    }
}

struct Reduce {
    ch: Option<ReduceChannel<i32>>,
    contrib: Arc<Vec<i32>>,
    /// Results at the root; empty elsewhere.
    out: Vec<i32>,
    off: usize,
}

impl Program for Reduce {
    fn step(&mut self, probe: &mut Probe) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open until done");
        let mut moved = 0;
        if self.off < self.contrib.len() {
            let snd = &self.contrib[self.off..];
            let out: &mut [i32] = if self.out.is_empty() {
                &mut []
            } else {
                &mut self.out[self.off..]
            };
            moved = probe.data(|| ch.try_reduce_slice(snd, out))?;
            self.off += moved;
        }
        if self.off == self.contrib.len() && ch.poll()? == CollectiveState::Done {
            self.ch = None;
            return Ok(TaskStatus::Done);
        }
        Ok(status(moved > 0))
    }

    fn into_output(self: Box<Self>) -> Option<Vec<i32>> {
        (!self.out.is_empty()).then_some(self.out)
    }
}

struct Bcast {
    ch: Option<BcastChannel<i32>>,
    buf: Vec<i32>,
    off: usize,
    root: bool,
}

impl Program for Bcast {
    fn step(&mut self, probe: &mut Probe) -> Result<TaskStatus, SmiError> {
        let ch = self.ch.as_mut().expect("open until done");
        let mut moved = 0;
        if self.off < self.buf.len() {
            moved = probe.data(|| ch.try_bcast_slice(&mut self.buf[self.off..]))?;
            self.off += moved;
        }
        if self.off == self.buf.len() && ch.poll()? == CollectiveState::Done {
            self.ch = None;
            return Ok(TaskStatus::Done);
        }
        Ok(status(moved > 0))
    }

    fn into_output(self: Box<Self>) -> Option<Vec<i32>> {
        (!self.root).then_some(self.buf)
    }
}
