//! Per-layer metrics and spans of one traced run, derived from the
//! benchmark's own stamps around its calls into each layer and from the
//! counters the runner's `RunReport` returns.

use smi::{WireSnapshot, WorkerStats};

use crate::probe::{Layer, Probe};
use crate::stats::{ratio, self_time, Interval, Phases};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("codegen.design_s", "s"),
    ("topology.routing_s", "s"),
    ("env.wiring_spawn_s", "s"),
    ("env.teardown_s", "s"),
    ("runner.self_s", "s"),
    ("task.wait_s", "s"),
    ("task.self_s", "s"),
    ("task.polls", "count"),
    ("task.pending_ratio", "ratio"),
    ("channel.calls", "count"),
    ("channel.busy_s", "s"),
    ("channel.useful_ratio", "ratio"),
    ("collective.handshake_s", "s"),
    ("collective.busy_s", "s"),
    ("collective.useful_ratio", "ratio"),
    ("executor.polls", "count"),
    ("executor.progress", "count"),
    ("executor.productive_ratio", "ratio"),
    ("executor.parks", "count"),
    ("executor.steals", "count"),
    ("transport.cks_forwards_per_elem", "1/elem"),
    ("transport.ckr_forwards_per_elem", "1/elem"),
    ("transport.unroutable", "count"),
    ("payload.copies_per_elem", "copies/elem"),
    ("socket.send_bytes_per_syscall", "B"),
    ("socket.send_syscalls_per_melem", "1/Melem"),
    ("socket.recv_syscalls_per_melem", "1/Melem"),
    ("socket.wire_bytes_per_elem", "B/elem"),
    ("socket.pool_hit_ratio", "ratio"),
    ("socket.corked_frames", "count"),
    ("socket.reconnects_healed", "count"),
    ("threads_spawned", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The counters a runner call returned (its `RunReport` minus results).
#[derive(Debug, Clone)]
pub struct Counters {
    /// `(cks_forwards, ckr_forwards, unroutable)`.
    pub transport: (u64, u64, u64),
    /// Payload bytes copied end to end.
    pub payload_copies: u64,
    /// Socket-plane counters.
    pub wire: WireSnapshot,
    /// OS threads the runtime spawned.
    pub threads_spawned: usize,
    /// Socket reconnects that healed.
    pub reconnects_healed: usize,
    /// Executor counters, per worker.
    pub workers: Vec<WorkerStats>,
}

/// What a traced run recorded beside the runner call.
#[derive(Debug, Clone)]
pub struct RepTrace {
    /// `ClusterDesign::mpmd` + `validate_collectives` on the workload.
    pub design: Interval,
    /// `RoutingPlan::compute` on the workload's topology.
    pub routing: Interval,
    /// The runner call.
    pub runner: Interval,
    /// One probe per finished rank program.
    pub probes: Vec<Probe>,
}

/// One span of a trace.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id, unique within the run.
    pub id: usize,
    /// Parent span id (`None` for the run's root).
    pub parent: Option<usize>,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// World rank, for per-rank spans.
    pub rank: Option<usize>,
    /// Start stamp (ns).
    pub start: u64,
    /// End stamp (ns).
    pub end: u64,
    /// Time covered: `end - start` for a contiguous span, the summed call
    /// time for a span that aggregates one rank's calls.
    pub busy: u64,
    /// Calls the span stands for.
    pub count: u64,
}

/// The span tree of one traced run: `run` → {`codegen.design`,
/// `topology.routing`, `runner`}; `runner` → `rank` per rank program;
/// `rank` → its `open` calls and `task.poll` (aggregated); `task.poll` →
/// `channel.data` or `collective.data` (aggregated).
pub fn spans(t: &RepTrace) -> Vec<Span> {
    let mut out = Vec::new();
    let mut push = |parent: Option<usize>,
                    name: &'static str,
                    rank: Option<usize>,
                    iv: Interval,
                    busy: u64,
                    count: u64| {
        let id = out.len();
        out.push(Span {
            id,
            parent,
            name,
            rank,
            start: iv.start,
            end: iv.end,
            busy,
            count,
        });
        id
    };
    let whole = Interval {
        start: t.design.start.min(t.routing.start),
        end: t.runner.end,
    };
    let root = push(None, "run", None, whole, whole.len(), 1);
    push(
        Some(root),
        "codegen.design",
        None,
        t.design,
        t.design.len(),
        1,
    );
    push(
        Some(root),
        "topology.routing",
        None,
        t.routing,
        t.routing.len(),
        1,
    );
    let runner = push(Some(root), "runner", None, t.runner, t.runner.len(), 1);
    for p in &t.probes {
        let iv = Interval {
            start: p.entry_ns,
            end: p.done_ns,
        };
        let rank = push(Some(runner), "rank", Some(p.rank), iv, iv.len(), 1);
        for o in &p.opens {
            push(Some(rank), "open", Some(p.rank), *o, o.len(), 1);
        }
        let poll = push(
            Some(rank),
            "task.poll",
            Some(p.rank),
            iv,
            p.poll_busy_ns,
            p.polls,
        );
        if p.data.calls > 0 {
            let name = match p.layer {
                Some(Layer::Collective) => "collective.data",
                _ => "channel.data",
            };
            let data = Interval {
                start: p.data.first_ns,
                end: p.data.last_ns,
            };
            push(
                Some(poll),
                name,
                Some(p.rank),
                data,
                p.data.busy_ns,
                p.data.calls,
            );
        }
    }
    out
}

/// Per-layer values of one traced run, in [`PER_LAYER`] order except
/// `trace.overhead_ratio`, which compares runs and is added by the caller.
pub fn values(
    t: &RepTrace,
    phases: &Phases,
    c: &Counters,
    delivered: u64,
) -> Vec<(&'static str, f64)> {
    let s = |ns: u64| ns as f64 / 1e9;
    let design_s = s(t.design.len());
    let routing_s = s(t.routing.len());
    let ranks: Vec<Interval> = t
        .probes
        .iter()
        .map(|p| Interval {
            start: p.entry_ns,
            end: p.done_ns,
        })
        .collect();
    let runner_self = self_time(t.runner, &ranks, 0);
    let task_wait: u64 = t
        .probes
        .iter()
        .zip(&ranks)
        .map(|(p, iv)| self_time(*iv, &p.opens, p.poll_busy_ns))
        .sum();
    let task_self: u64 = t
        .probes
        .iter()
        .map(|p| {
            let poll = Interval {
                start: 0,
                end: p.poll_busy_ns,
            };
            self_time(poll, &[], p.data.busy_ns)
        })
        .sum();
    let polls: u64 = t.probes.iter().map(|p| p.polls).sum();
    let pending: u64 = t.probes.iter().map(|p| p.pending).sum();

    let layer = |l: Layer| t.probes.iter().filter(move |p| p.layer == Some(l));
    let calls = |l: Layer| layer(l).map(|p| p.data.calls).sum::<u64>();
    let useful = |l: Layer| layer(l).map(|p| p.data.useful).sum::<u64>();
    let busy = |l: Layer| s(layer(l).map(|p| p.data.busy_ns).sum());
    let handshakes: Vec<f64> = layer(Layer::Collective)
        .filter_map(|p| Some(s(p.first_moved_ns? - p.opens.first()?.start)))
        .collect();
    let handshake_s = ratio(handshakes.iter().sum(), handshakes.len() as f64);

    let ex = |f: fn(&WorkerStats) -> u64| c.workers.iter().map(f).sum::<u64>() as f64;
    let elems = delivered as f64;
    let melems = elems / 1e6;
    let w = &c.wire;
    let (cks, ckr, unroutable) = c.transport;
    vec![
        ("codegen.design_s", design_s),
        ("topology.routing_s", routing_s),
        ("env.wiring_spawn_s", phases.setup_s - design_s - routing_s),
        ("env.teardown_s", phases.teardown_s),
        ("runner.self_s", s(runner_self)),
        ("task.wait_s", s(task_wait)),
        ("task.self_s", s(task_self)),
        ("task.polls", polls as f64),
        ("task.pending_ratio", ratio(pending as f64, polls as f64)),
        ("channel.calls", calls(Layer::Channel) as f64),
        ("channel.busy_s", busy(Layer::Channel)),
        (
            "channel.useful_ratio",
            ratio(useful(Layer::Channel) as f64, calls(Layer::Channel) as f64),
        ),
        ("collective.handshake_s", handshake_s),
        ("collective.busy_s", busy(Layer::Collective)),
        (
            "collective.useful_ratio",
            ratio(
                useful(Layer::Collective) as f64,
                calls(Layer::Collective) as f64,
            ),
        ),
        ("executor.polls", ex(|w| w.polls)),
        ("executor.progress", ex(|w| w.progress)),
        (
            "executor.productive_ratio",
            ratio(ex(|w| w.progress), ex(|w| w.polls)),
        ),
        ("executor.parks", ex(|w| w.parks)),
        ("executor.steals", ex(|w| w.steals)),
        ("transport.cks_forwards_per_elem", ratio(cks as f64, elems)),
        ("transport.ckr_forwards_per_elem", ratio(ckr as f64, elems)),
        ("transport.unroutable", unroutable as f64),
        (
            "payload.copies_per_elem",
            ratio(c.payload_copies as f64, elems * 4.0),
        ),
        (
            "socket.send_bytes_per_syscall",
            ratio(w.send_bytes as f64, w.send_syscalls as f64),
        ),
        (
            "socket.send_syscalls_per_melem",
            ratio(w.send_syscalls as f64, melems),
        ),
        (
            "socket.recv_syscalls_per_melem",
            ratio(w.recv_syscalls as f64, melems),
        ),
        (
            "socket.wire_bytes_per_elem",
            ratio(w.send_bytes as f64, elems),
        ),
        (
            "socket.pool_hit_ratio",
            ratio(w.pool_hits as f64, (w.pool_hits + w.pool_misses) as f64),
        ),
        ("socket.corked_frames", w.corked_frames as f64),
        ("socket.reconnects_healed", c.reconnects_healed as f64),
        ("threads_spawned", c.threads_spawned as f64),
    ]
}
