//! perfbench — the repository's benchmark: one named workload of the SMI
//! task plane, repeated for a fixed time, every output checked against
//! its seed-generated reference.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics (medians over the
//! run's repetitions); with `--trace 1` it alternates untraced and traced
//! repetitions and reports the per-layer metrics of the traced ones, plus
//! the tracing overhead between the two. The last line of standard output
//! is one JSON object; the lines before it print every metric by name and
//! unit with its sample count, and the host facts. The full record,
//! including the spans of a traced run, goes to
//! `.bench_out/<workload>-seed<n>-trace<t>.json`. See README.md.

mod host;
mod layers;
mod probe;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use smi::{run_mpmd_tasks, run_split_mpmd_tasks};
use smi_codegen::ClusterDesign;
use smi_topology::RoutingPlan;

use host::HostFacts;
use layers::{Counters, RepTrace};
use probe::{now_ns, RepShared};
use stats::{median, split_phases, tail_percentile, Interval, Phases};
use workloads::{Inputs, Setup, Workload};

/// Every end-to-end metric, with its unit, in report order.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("stream_melem_s", "Melem/s"),
    ("peak_rss_mb", "MB"),
];

/// Measured repetitions a run makes even when `--seconds` is spent.
const MIN_REPS: usize = 3;

/// Child processes that each run the workload once to measure its peak
/// resident memory; `peak_rss_mb` is their median. A child starts from a
/// clean heap, so the figure does not drift with how many repetitions the
/// parent fitted into its time. One run's peak can depend on the schedule
/// (on `p2p_uds` most runs peak near 70 MB and about one in four at up to
/// 175 MB), so the median needs enough probes to stay in the common mode.
const RSS_PROBES: u64 = 15;

/// Results, spans and socket files live here, inside the checkout.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: pairs_bus256, p2p_uds, reduce_uds, bcast_tree_torus64";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a peak-memory probe child: run repetition `n` once, print
    /// `<attempted> <failed> <peak MB>` and exit.
    rss_probe: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let mut get = |k: &str| kv.remove(k).ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let args = Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not '{t}'")),
        },
        rss_probe: match get("--rss-probe") {
            Ok(n) => Some(n.parse().map_err(|e| format!("--rss-probe: {e}"))?),
            Err(_) => None,
        },
    };
    match kv.keys().next() {
        Some(k) => Err(format!("unknown argument {k}")),
        None => Ok(args),
    }
}

/// One runner call and what it left behind.
struct Rep {
    phases: Phases,
    attempted: usize,
    failed: usize,
    counters: Option<Counters>,
    trace: Option<RepTrace>,
}

/// Run the workload once. `buffers` recycles receive buffers across runs.
fn run_rep(setup: &Setup, seed: u64, rep: u64, trace: bool, buffers: &mut Vec<Vec<i32>>) -> Rep {
    let ranks = setup.ranks();
    let inputs = Inputs::generate(setup, seed, rep);
    let shared = RepShared::new(ranks);
    let metas = setup.metas();
    // The traced run times the codegen and routing layers by calling them
    // on the workload's inputs, as the runner does inside its setup.
    let pre = trace.then(|| {
        let d0 = now_ns();
        let design = ClusterDesign::mpmd(&metas, &setup.topo)
            .and_then(|d| d.validate_collectives().map(|()| d));
        let d1 = now_ns();
        let plan = RoutingPlan::compute(&setup.topo);
        let d2 = now_ns();
        black_box((design.is_ok(), plan.is_ok()));
        drop((design, plan));
        (
            Interval { start: d0, end: d1 },
            Interval { start: d1, end: d2 },
        )
    });
    let factories = workloads::factories(setup, &inputs, buffers, &shared, trace);
    let params = setup.params.clone();
    let call = now_ns();
    let result = match &setup.plan {
        Some(plan) => run_split_mpmd_tasks(plan, metas, factories, params),
        None => run_mpmd_tasks(&setup.topo, metas, factories, params),
    };
    let ret = now_ns();
    let phases = split_phases(
        call,
        shared
            .first_entry
            .load(std::sync::atomic::Ordering::Relaxed),
        shared.last_done.load(std::sync::atomic::Ordering::Relaxed),
        ret,
    );
    let outputs = std::mem::take(&mut *shared.outputs.lock().expect("ranks finished"));
    let mut failed = 0;
    let counters = match result {
        Err(e) => {
            eprintln!("perfbench: run {rep}: launch error: {e}");
            failed = ranks;
            None
        }
        Ok(report) => {
            for (r, res) in report.results.iter().enumerate() {
                let verdict = match (res, &inputs.expect[r]) {
                    (Err(e), _) => Err(format!("{e}")),
                    (Ok(()), Some(want)) if outputs[r].as_deref() != Some(&want[..]) => {
                        Err("output differs from the reference".to_string())
                    }
                    (Ok(()), _) => Ok(()),
                };
                if let Err(why) = verdict {
                    if failed == 0 {
                        eprintln!("perfbench: run {rep}: rank {r} failed: {why}");
                    }
                    failed += 1;
                }
            }
            Some(Counters {
                transport: report.transport,
                payload_copies: report.payload_copies,
                wire: report.wire_stats,
                threads_spawned: report.threads_spawned,
                reconnects_healed: report.reconnects_healed,
                workers: report.worker_stats,
            })
        }
    };
    buffers.extend(outputs.into_iter().flatten());
    let trace = pre.map(|(design, routing)| RepTrace {
        design,
        routing,
        runner: Interval {
            start: call,
            end: ret,
        },
        probes: std::mem::take(&mut *shared.probes.lock().expect("ranks finished")),
    });
    Rep {
        phases,
        attempted: ranks,
        failed,
        counters,
        trace,
    }
}

/// A metric's samples over the run's repetitions (or probes).
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
}

impl Metric {
    fn value(&self) -> f64 {
        median(&self.samples).unwrap_or(0.0)
    }

    /// One human-readable line: median, tail and sample count.
    fn line(&self) -> String {
        let tail = match tail_percentile(&self.samples) {
            Some((p, v)) => format!("p{p} {v:.6}"),
            None => "tail: too few samples".to_string(),
        };
        format!(
            "{:<34} {:>14.6} {:<12} median of n={}, {tail}",
            self.name,
            self.value(),
            self.unit,
            self.samples.len()
        )
    }

    fn json(&self) -> String {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            self.name,
            json_num(self.value()),
            self.unit
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Run [`RSS_PROBES`] peak-memory probe children one after another.
/// Returns `(attempted, failed, peak MB of each child that ran)`.
fn probe_rss(args: &Args) -> (usize, usize, Vec<f64>) {
    let (mut attempted, mut failed, mut peaks) = (0, 0, Vec::new());
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return (1, 1, peaks);
        }
    };
    for i in 0..RSS_PROBES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .args(["--rss-probe", &i.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let fields: Option<Vec<f64>> = out.as_ref().ok().filter(|o| o.status.success()).map(|o| {
            String::from_utf8_lossy(&o.stdout)
                .split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        });
        match fields.as_deref() {
            Some(&[a, f, mb]) => {
                attempted += a as usize;
                failed += f as usize;
                peaks.push(mb);
            }
            _ => {
                eprintln!("perfbench: peak-memory probe {i} failed: {out:?}");
                attempted += 1;
                failed += 1;
            }
        }
    }
    (attempted, failed, peaks)
}

fn end_to_end(setup: &Setup, reps: &[&Rep], peaks: Vec<f64>) -> Vec<Metric> {
    let ok: Vec<&&Rep> = reps.iter().filter(|r| r.failed == 0).collect();
    let pick = |f: &dyn Fn(&Rep) -> f64| ok.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let samples = [
        pick(&|r| r.phases.wall_s),
        pick(&|r| r.phases.setup_s),
        pick(&|r| stats::ratio(setup.delivered as f64 / 1e6, r.phases.stream_s)),
        peaks,
    ];
    END_TO_END
        .iter()
        .zip(samples)
        .map(|(&(name, unit), samples)| Metric {
            name,
            unit,
            samples,
        })
        .collect()
}

fn per_layer(setup: &Setup, untraced: &[&Rep], traced: &[&Rep]) -> Vec<Metric> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in traced.iter().filter(|r| r.failed == 0) {
        let (Some(t), Some(c)) = (&rep.trace, &rep.counters) else {
            continue;
        };
        for (name, v) in layers::values(t, &rep.phases, c, setup.delivered) {
            by_name.entry(name).or_default().push(v);
        }
    }
    let wall = |reps: &[&Rep]| {
        let walls: Vec<f64> = reps
            .iter()
            .filter(|r| r.failed == 0)
            .map(|r| r.phases.wall_s)
            .collect();
        median(&walls).unwrap_or(0.0)
    };
    by_name.insert(
        "trace.overhead_ratio",
        vec![stats::ratio(wall(traced), wall(untraced))],
    );
    layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            samples: by_name.remove(name).unwrap_or_default(),
        })
        .collect()
}

/// A known number, or `null`.
fn opt(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |x| x.to_string())
}

/// What carried the workload's cross-group traffic.
fn socket_link(setup: &Setup) -> &'static str {
    if setup.plan.is_some() {
        "unix-domain sockets over host loopback (no real network link)"
    } else {
        "none (in-memory fabric)"
    }
}

/// Whether the counts a deterministic program makes repeated exactly over
/// the run's successful repetitions: one verdict per count.
fn repeat_check(reps: &[Rep]) -> Vec<String> {
    let counters: Vec<&Counters> = reps
        .iter()
        .filter(|r| r.failed == 0)
        .filter_map(|r| r.counters.as_ref())
        .collect();
    type Count = fn(&Counters) -> u64;
    let counts: [(&str, Count); 3] = [
        ("payload_copies", |c| c.payload_copies),
        ("cks_forwards", |c| c.transport.0),
        ("ckr_forwards", |c| c.transport.1),
    ];
    counts
        .iter()
        .map(|(name, get)| {
            let lo = counters.iter().map(|c| get(c)).min().unwrap_or(0);
            let hi = counters.iter().map(|c| get(c)).max().unwrap_or(0);
            let n = counters.len();
            if lo == hi {
                format!("{name}={lo} exact over {n} runs")
            } else {
                format!("{name} varies {lo}..{hi} over {n} runs")
            }
        })
        .collect()
}

/// The run's full record: host facts, metrics, repeat check, and (traced)
/// spans.
fn record(
    args: &Args,
    setup: &Setup,
    host: &HostFacts,
    metrics: &[Metric],
    repeat: &[String],
    reps: &[Rep],
) -> String {
    let link = socket_link(setup);
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"host\": {{\"nproc\": {}, \"available_parallelism\": {}, \"l2_kib\": {}, \"l3_kib\": {}, \
         \"socket_link\": \"{link}\", \"groups\": {}, \"workers_per_group\": {}}},\n  \"metrics\": [\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.available_parallelism,
        opt(host.l2_kib),
        opt(host.l3_kib),
        setup.groups,
        setup.workers_per_group,
    );
    for (i, m) in metrics.iter().enumerate() {
        let tail = tail_percentile(&m.samples).map_or("null".to_string(), |(p, v)| {
            format!("[{p}, {}]", json_num(v))
        });
        let samples: Vec<String> = m.samples.iter().map(|&v| json_num(v)).collect();
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"median\": {}, \"n\": {}, \"tail\": {tail}, \"samples\": [{}]}}{}",
            m.name,
            m.unit,
            json_num(m.value()),
            m.samples.len(),
            samples.join(", "),
            if i + 1 < metrics.len() { "," } else { "" }
        );
    }
    let repeat: Vec<String> = repeat.iter().map(|r| format!("\"{r}\"")).collect();
    let _ = write!(
        s,
        "  ],\n  \"repeat\": [{}],\n  \"spans\": [\n",
        repeat.join(", ")
    );
    let mut first = true;
    for (trace_id, rep) in reps.iter().enumerate() {
        let Some(t) = &rep.trace else { continue };
        for sp in layers::spans(t) {
            let _ = write!(
                s,
                "{}    {{\"trace\": {trace_id}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"rank\": {}, \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"count\": {}}}",
                if first { "" } else { ",\n" },
                sp.id,
                opt(sp.parent.map(|p| p as u64)),
                sp.name,
                opt(sp.rank.map(|r| r as u64)),
                sp.start,
                sp.end,
                sp.busy,
                sp.count
            );
            first = false;
        }
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Unix-domain socket files go inside the checkout too: the runtime
    // binds them under the temp dir. A relative path keeps them within the
    // 108-byte socket path limit however deep the checkout sits.
    let sock_dir = Path::new(OUT_DIR).join("sock");
    if let Err(e) = std::fs::create_dir_all(&sock_dir) {
        eprintln!("perfbench: cannot create {}: {e}", sock_dir.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &sock_dir);

    let setup = Setup::new(args.workload);
    let mut buffers = Vec::new();
    if let Some(rep) = args.rss_probe {
        let r = run_rep(&setup, args.seed, rep, false, &mut buffers);
        println!("{} {} {}", r.attempted, r.failed, host::peak_rss_mb());
        return;
    }
    let host = HostFacts::probe();
    // Linux carries the parent's resident high-water mark into a spawned
    // child's `ru_maxrss`, so the probes run before this process has
    // allocated anything of note.
    let (mut attempted, mut failed, peaks) = if args.trace {
        (0, 0, Vec::new())
    } else {
        probe_rss(&args)
    };

    // Warm-up: lazy set-up (allocator arenas, page faults in the recycled
    // buffers) finishes before timing starts. Its outputs are checked too.
    let mut reps = vec![run_rep(&setup, args.seed, 0, false, &mut buffers)];
    let warm = reps.len();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline || reps.len() - warm < MIN_REPS * (1 + usize::from(args.trace))
    {
        let i = reps.len();
        // Traced runs alternate with untraced ones so both see the same
        // host conditions; the difference is the tracing overhead.
        let traced = args.trace && (i - warm) % 2 == 1;
        reps.push(run_rep(&setup, args.seed, i as u64, traced, &mut buffers));
    }

    let measured: Vec<&Rep> = reps[warm..].iter().collect();
    let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) =
        measured.iter().partition(|r| r.trace.is_some());
    attempted += reps.iter().map(|r| r.attempted).sum::<usize>();
    failed += reps.iter().map(|r| r.failed).sum::<usize>();
    let metrics = if args.trace {
        per_layer(&setup, &untraced, &traced)
    } else {
        end_to_end(&setup, &untraced, peaks)
    };

    // Limits the run must keep besides its outputs: no unroutable packet,
    // and no more threads than the workload configured.
    let threads_cap = setup.workers_per_group * setup.groups;
    let mut breaches = Vec::new();
    for c in reps.iter().filter_map(|r| r.counters.as_ref()) {
        if c.transport.2 != 0 {
            breaches.push(format!("{} unroutable packets", c.transport.2));
        }
        if c.threads_spawned > threads_cap {
            breaches.push(format!(
                "{} threads spawned, over the {threads_cap} configured",
                c.threads_spawned
            ));
        }
    }
    breaches.dedup();
    for b in &breaches {
        eprintln!("perfbench: {b}");
    }
    let correct = failed == 0 && breaches.is_empty();
    let repeat = repeat_check(&reps);

    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(
        &path,
        record(&args, &setup, &host, &metrics, &repeat, &reps),
    ) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }

    println!(
        "host: nproc={} available_parallelism={} l2_kib={} l3_kib={} socket_link=\"{}\" seed={} groups={} workers_per_group={}",
        host.nproc,
        host.available_parallelism,
        opt(host.l2_kib),
        opt(host.l3_kib),
        socket_link(&setup),
        args.seed,
        setup.groups,
        setup.workers_per_group,
    );
    println!(
        "workload: {} ranks={} delivered_elems_per_run={} runs={} (+{warm} warm-up) record={}",
        args.workload.name(),
        setup.ranks(),
        setup.delivered,
        measured.len(),
        path.display()
    );
    println!("repeat: {}", repeat.join(", "));
    for m in &metrics {
        println!("{}", m.line());
    }
    println!(
        "{:<34} {:>14.6} {:<12} {failed} of {attempted} rank programs",
        "failed_ratio",
        stats::ratio(failed as f64, attempted as f64),
        "ratio"
    );
    let body: Vec<String> = metrics.iter().map(Metric::json).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
