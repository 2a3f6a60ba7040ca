//! Measurement from outside the runtime: the benchmark's own `RankTask`
//! wrapper stamps rank entry and completion, counts polls, and — when
//! tracing — times every call the rank program makes into the channel or
//! collective layer. Nothing here reaches into `smi`'s internals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use smi::{RankTask, SmiError, TaskStatus};

use crate::stats::Interval;

/// Nanoseconds since the first call in this process: the one clock every
/// stamp and span uses.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Which layer a rank program's data calls go to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Point-to-point channels: `try_push_slice`, `try_pop_slice`,
    /// `try_flush`.
    Channel,
    /// Collective channels: `try_bcast_slice`, `try_reduce_slice`.
    Collective,
}

/// Calls into one layer, aggregated per rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallAgg {
    /// Calls made.
    pub calls: u64,
    /// Calls that moved at least one element.
    pub useful: u64,
    /// Summed time inside the calls (ns).
    pub busy_ns: u64,
    /// Start of the first call.
    pub first_ns: u64,
    /// End of the last call.
    pub last_ns: u64,
}

impl CallAgg {
    fn record(&mut self, start: u64, end: u64, useful: bool) {
        if self.calls == 0 {
            self.first_ns = start;
        }
        self.calls += 1;
        self.useful += u64::from(useful);
        self.busy_ns += end - start;
        self.last_ns = end;
    }
}

/// What one rank program did, as seen from its wrapper.
#[derive(Debug, Clone)]
pub struct Probe {
    /// World rank.
    pub rank: usize,
    trace: bool,
    /// When the task factory started (rank program entered).
    pub entry_ns: u64,
    /// When the rank program returned `Done` or an error.
    pub done_ns: u64,
    /// Polls of the rank task.
    pub polls: u64,
    /// Polls that returned `Pending`.
    pub pending: u64,
    /// Time inside `poll` (ns, traced runs only).
    pub poll_busy_ns: u64,
    /// Channel / collective open calls (traced runs only).
    pub opens: Vec<Interval>,
    /// The layer the data calls went to, once known.
    pub layer: Option<Layer>,
    /// Data calls (traced runs only).
    pub data: CallAgg,
    /// End of the first data call that moved an element (traced runs only).
    pub first_moved_ns: Option<u64>,
}

impl Probe {
    fn new(rank: usize, trace: bool, entry_ns: u64) -> Probe {
        Probe {
            rank,
            trace,
            entry_ns,
            done_ns: entry_ns,
            polls: 0,
            pending: 0,
            poll_busy_ns: 0,
            opens: Vec::new(),
            layer: None,
            data: CallAgg::default(),
            first_moved_ns: None,
        }
    }

    /// Open a channel of `layer` through `f`, recording the call as a span.
    pub fn open<C>(
        &mut self,
        layer: Layer,
        f: impl FnOnce() -> Result<C, SmiError>,
    ) -> Result<C, SmiError> {
        self.layer = Some(layer);
        if !self.trace {
            return f();
        }
        let start = now_ns();
        let r = f();
        self.opens.push(Interval {
            start,
            end: now_ns(),
        });
        r
    }

    /// A data call returning elements moved; useful when it moved any.
    pub fn data(&mut self, f: impl FnOnce() -> Result<usize, SmiError>) -> Result<usize, SmiError> {
        if !self.trace {
            return f();
        }
        let start = now_ns();
        let r = f();
        let end = now_ns();
        let moved = matches!(r, Ok(n) if n > 0);
        self.data.record(start, end, moved);
        if moved && self.first_moved_ns.is_none() {
            self.first_moved_ns = Some(end);
        }
        r
    }

    /// A `try_flush` call; useful when it left nothing staged.
    pub fn flush(&mut self, f: impl FnOnce() -> Result<bool, SmiError>) -> Result<bool, SmiError> {
        if !self.trace {
            return f();
        }
        let start = now_ns();
        let r = f();
        self.data.record(start, now_ns(), matches!(r, Ok(true)));
        r
    }
}

/// A rank program's logic, stepped by [`RankRunner`].
pub trait Program: Send {
    /// One cooperative step. Data calls go through `probe`.
    fn step(&mut self, probe: &mut Probe) -> Result<TaskStatus, SmiError>;
    /// The received elements, for ranks whose output is checked.
    fn into_output(self: Box<Self>) -> Option<Vec<i32>>;
}

/// What the rank programs of one runner call leave behind.
pub struct RepShared {
    /// Earliest rank entry stamp (`u64::MAX` until a rank enters).
    pub first_entry: AtomicU64,
    /// Latest rank completion stamp.
    pub last_done: AtomicU64,
    /// Received output per world rank.
    pub outputs: Mutex<Vec<Option<Vec<i32>>>>,
    /// Probes of finished ranks.
    pub probes: Mutex<Vec<Probe>>,
}

impl RepShared {
    /// Fresh state for a run of `ranks` rank programs.
    pub fn new(ranks: usize) -> Arc<RepShared> {
        Arc::new(RepShared {
            first_entry: AtomicU64::new(u64::MAX),
            last_done: AtomicU64::new(0),
            outputs: Mutex::new(vec![None; ranks]),
            probes: Mutex::new(Vec::with_capacity(ranks)),
        })
    }
}

/// The benchmark's `RankTask` wrapper around one [`Program`].
pub struct RankRunner {
    prog: Option<Box<dyn Program>>,
    probe: Probe,
    shared: Arc<RepShared>,
}

impl RankRunner {
    /// Enter a rank program: stamp the entry, then let `open` build the
    /// program (its channel opens go through the probe).
    pub fn enter(
        rank: usize,
        trace: bool,
        shared: Arc<RepShared>,
        open: impl FnOnce(&mut Probe) -> Result<Box<dyn Program>, SmiError>,
    ) -> Result<Box<dyn RankTask>, SmiError> {
        let entry = now_ns();
        shared.first_entry.fetch_min(entry, Ordering::Relaxed);
        let mut probe = Probe::new(rank, trace, entry);
        match open(&mut probe) {
            Ok(prog) => Ok(Box::new(RankRunner {
                prog: Some(prog),
                probe,
                shared,
            })),
            Err(e) => {
                finish(&shared, probe, None);
                Err(e)
            }
        }
    }
}

impl RankTask for RankRunner {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let start = self.probe.trace.then(now_ns);
        let prog = self.prog.as_mut().expect("polled after completion");
        let res = prog.step(&mut self.probe);
        self.probe.polls += 1;
        self.probe.pending += u64::from(matches!(res, Ok(TaskStatus::Pending)));
        if let Some(start) = start {
            self.probe.poll_busy_ns += now_ns() - start;
        }
        if matches!(res, Ok(TaskStatus::Done) | Err(_)) {
            let output =
                self.prog
                    .take()
                    .and_then(|p| if res.is_ok() { p.into_output() } else { None });
            finish(&self.shared, self.probe.clone(), output);
        }
        res
    }
}

fn finish(shared: &RepShared, mut probe: Probe, output: Option<Vec<i32>>) {
    probe.done_ns = now_ns();
    shared.last_done.fetch_max(probe.done_ns, Ordering::Relaxed);
    let rank = probe.rank;
    shared.outputs.lock().expect("no rank panicked")[rank] = output;
    if probe.trace {
        shared.probes.lock().expect("no rank panicked").push(probe);
    }
}
