//! The repository benchmark: host cost of running the simulator's job
//! matrices, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cell-tcp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times the untraced matrix and prints the end-to-end
//! metrics; `--trace 1` runs the traced matrix and prints the
//! per-layer metrics. Both check the outputs (see `README.md`) and end
//! with one JSON line: `correct`, `attempted`, `failed`, `metrics`.

mod matrix;
mod meter;
mod probes;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use airtime_obs::prof::{alloc_stats, set_alloc_counting};
use airtime_obs::CountingAlloc;

use matrix::{Matrix, Outputs, Traced};
use workloads::Workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-up repetitions before the first matrix and after each one;
/// `setup_s` is the median over all of them.
const SETUP_BATCH: usize = 11;
/// Fewest matrix repetitions a run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload '{value}'; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds: '{value}' is not a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process so far, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A workload's scenario, parsed and expanded, with the times each
/// set-up repetition took.
struct Setup {
    workload: Workload,
    text: String,
    file: String,
    doc: airtime_scenario::toml::Doc,
    matrix: Matrix,
    parse: Vec<f64>,
    expand: Vec<f64>,
    total: Vec<f64>,
}

impl Setup {
    fn new(workload: Workload, seed: u64) -> Result<Setup, String> {
        let text = workload.scenario(seed);
        let file = workload.file();
        let doc = airtime_scenario::parse_text(&text, &file).map_err(|e| e.to_string())?;
        let matrix = Matrix::expand(workload, &doc, &file)?;
        let mut setup = Setup {
            workload,
            text,
            file,
            doc,
            matrix,
            parse: Vec::new(),
            expand: Vec::new(),
            total: Vec::new(),
        };
        setup.time_batch()?;
        Ok(setup)
    }

    /// Parses and expands the scenario [`SETUP_BATCH`] more times. A run
    /// calls this between matrix repetitions, so the set-up medians
    /// sample the whole run, not only its first milliseconds.
    fn time_batch(&mut self) -> Result<(), String> {
        for _ in 0..SETUP_BATCH {
            let t0 = Instant::now();
            let doc =
                airtime_scenario::parse_text(&self.text, &self.file).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            Matrix::expand(self.workload, &doc, &self.file)?;
            let t2 = Instant::now();
            self.parse.push((t1 - t0).as_secs_f64());
            self.expand.push((t2 - t1).as_secs_f64());
            self.total.push((t2 - t0).as_secs_f64());
        }
        Ok(())
    }
}

/// One timed untraced repetition: `(wall seconds, outputs)`, or `None`
/// outputs when the engine panicked or refused the scenario.
fn untraced_rep(setup: &Setup, threads: usize) -> (f64, Option<Outputs>) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        matrix::run_untraced(setup.workload, &setup.doc, &setup.file, threads)
    }));
    match out {
        Ok(Ok((wall, o))) => (wall, Some(o)),
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            (t0.elapsed().as_secs_f64(), None)
        }
        Err(_) => (t0.elapsed().as_secs_f64(), None),
    }
}

/// Failure accounting for one run.
struct Verdict {
    attempted: usize,
    failed: usize,
    correct: bool,
}

/// A job fails when it panics, when its own checks fail (no goodput,
/// or a topology ledger that does not conserve airtime), or when its
/// row differs between the 1-worker, the pool and the traced run. The
/// run is correct when no job failed and every emitted report — each
/// timed repetition, the pool's and the traced rebuild — has one
/// digest.
fn judge(
    jobs: usize,
    base: Option<&Outputs>,
    others: &[Option<&Outputs>],
    traced: &Traced,
) -> Verdict {
    let mut failed = vec![false; jobs];
    for (i, f) in failed.iter_mut().enumerate() {
        *f = traced.panicked[i];
    }
    let mut agree = base.is_some();
    if let Some(base) = base {
        for (i, f) in failed.iter_mut().enumerate() {
            *f |= !base.sane[i];
        }
        for other in others.iter().chain([&traced.outputs.as_ref()]) {
            match other {
                Some(o) => {
                    agree &= o.report == base.report;
                    for (i, f) in failed.iter_mut().enumerate() {
                        *f |= o.jobs.get(i) != base.jobs.get(i);
                    }
                }
                None => agree = false,
            }
        }
    }
    let mut failed = failed.iter().filter(|&&f| f).count();
    if !agree && failed == 0 {
        // The engine failed without the traced rebuild pinning a job.
        failed = jobs;
    }
    Verdict {
        attempted: jobs,
        failed,
        correct: agree && failed == 0,
    }
}

fn metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    let value = if value.is_finite() { value } else { 0.0 };
    out.push(format!(
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    ));
}

fn result_line(v: &Verdict, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct,
        v.attempted,
        v.failed,
        metrics.join(", ")
    )
}

fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_digest(w: Workload, seed: u64, base: Option<&Outputs>) {
    match base {
        Some(o) => println!(
            "{} seed {seed}: report digest {:016x} over {} jobs",
            w.name(),
            o.report,
            o.jobs.len()
        ),
        None => println!("{} seed {seed}: no report", w.name()),
    }
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let mut setup = Setup::new(w, args.seed)?;
    let jobs = setup.matrix.len();

    let (mut walls, mut allocs, mut bytes, mut reps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let a0 = alloc_stats();
        let (wall, out) = untraced_rep(&setup, 1);
        let a = alloc_stats().since(a0);
        walls.push(wall);
        allocs.push(a.allocs as f64);
        bytes.push(a.bytes as f64 / (1024.0 * 1024.0));
        let failed = out.is_none();
        reps.push(out);
        if failed {
            break;
        }
        setup.time_batch()?;
    }
    let peak = peak_rss_mb()?;
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    eprintln!(
        "{}: {} repetitions, wall min {:.4} s, median {:.4} s, max {:.4} s",
        w.name(),
        walls.len(),
        sorted[0],
        median(&walls),
        sorted[sorted.len() - 1]
    );

    let (_, pool) = untraced_rep(&setup, pool_threads());
    let traced = matrix::run_traced(&setup.matrix);
    let base = reps[0].as_ref();
    let mut others: Vec<Option<&Outputs>> = reps[1..].iter().map(Option::as_ref).collect();
    others.push(pool.as_ref());
    let verdict = judge(jobs, base, &others, &traced);
    print_digest(w, args.seed, base);

    let mut m = Vec::new();
    metric(&mut m, "setup_s", median(&setup.total), "s");
    metric(&mut m, "wall_s", median(&walls), "s");
    metric(&mut m, "allocs", median(&allocs), "count");
    metric(&mut m, "alloc_mb", median(&bytes), "MiB");
    metric(&mut m, "peak_rss_mb", peak, "MiB");
    Ok(result_line(&verdict, &m))
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let mut setup = Setup::new(w, args.seed)?;
    let jobs = setup.matrix.len();

    // The ratios below gate nothing; three repetitions each keep a
    // cold first run from skewing them.
    let (mut walls_1, mut walls_n, mut outs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..MIN_REPS {
        let (wall, out) = untraced_rep(&setup, 1);
        walls_1.push(wall);
        outs.push(out);
        let (wall, out) = untraced_rep(&setup, pool_threads());
        walls_n.push(wall);
        outs.push(out);
    }
    let (wall_1, wall_n) = (median(&walls_1), median(&walls_n));

    let mut runs: Vec<Traced> = Vec::new();
    let started = Instant::now();
    while runs.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        runs.push(matrix::run_traced(&setup.matrix));
        setup.time_batch()?;
    }
    let (events, single_high) = matrix::queue_depth_pass(&setup.matrix);

    let first = &runs[0];
    let base = outs[0].as_ref();
    let others: Vec<Option<&Outputs>> = outs[1..]
        .iter()
        .map(Option::as_ref)
        .chain(runs[1..].iter().map(|r| r.outputs.as_ref()))
        .collect();
    let mut verdict = judge(jobs, base, &others, first);
    print_digest(w, args.seed, base);

    // Every traced run must see the same dispatches, and exactly as
    // many as the event loops report.
    let dispatches = |r: &Traced| -> Vec<(&str, u64)> {
        r.meter
            .labels()
            .iter()
            .map(|(l, c)| (*l, c.dispatches))
            .collect()
    };
    let loop_events = events + first.topo.events;
    for r in &runs {
        if dispatches(r) != dispatches(first) || r.meter.total_dispatches() != loop_events {
            eprintln!(
                "perfbench: traced dispatches {} differ from the event loops' {loop_events}",
                r.meter.total_dispatches()
            );
            verdict.correct = false;
        }
    }
    eprintln!(
        "{:<22}{:>12}{:>12}{:>12}{:>12}",
        "label", "dispatches", "busy_s", "hook_s", "allocs"
    );
    for (label, c) in first.meter.labels() {
        eprintln!(
            "{label:<22}{:>12}{:>12.4}{:>12.4}{:>12}",
            c.dispatches,
            c.busy_ns as f64 * 1e-9,
            c.hook_ns as f64 * 1e-9,
            c.allocs
        );
    }

    let layers: Vec<_> = runs
        .iter()
        .map(|r| r.meter.layer_totals(&r.topo.step_ns))
        .collect::<Result<_, _>>()?;
    let med = |f: &dyn Fn(usize) -> f64| median(&(0..runs.len()).map(f).collect::<Vec<_>>());
    let l0 = &layers[0];
    let meter = &first.meter;
    let s = 1e-9;
    let high = single_high.max(first.topo.queue_high_water);
    let rates = setup.matrix.probe_rates();

    let mut m = Vec::new();
    metric(
        &mut m,
        "sim.dispatches",
        meter.total_dispatches() as f64,
        "count",
    );
    metric(&mut m, "sim.queue_high_water", high as f64, "count");
    metric(
        &mut m,
        "sim.wheel_ns_per_op",
        probes::wheel_ns_per_op(high, args.seed),
        "ns",
    );
    metric(&mut m, "mac.dispatches", l0.mac.dispatches as f64, "count");
    metric(
        &mut m,
        "mac.busy_s",
        med(&|i| layers[i].mac.busy_ns as f64 * s),
        "s",
    );
    metric(&mut m, "mac.allocs", l0.mac.allocs as f64, "count");
    metric(
        &mut m,
        "mac.useful_ratio",
        ratio(
            meter.tx_attempts as f64,
            meter.dispatches("mac.access_resolved") as f64,
        ),
        "ratio",
    );
    metric(&mut m, "net.dispatches", l0.net.dispatches as f64, "count");
    metric(
        &mut m,
        "net.busy_s",
        med(&|i| layers[i].net.busy_ns as f64 * s),
        "s",
    );
    metric(&mut m, "net.allocs", l0.net.allocs as f64, "count");
    metric(
        &mut m,
        "net.rto_useful_ratio",
        ratio(
            meter.rto_timeouts as f64,
            meter.dispatches("tcp.rto") as f64,
        ),
        "ratio",
    );
    metric(
        &mut m,
        "sched.dispatches",
        l0.sched.dispatches as f64,
        "count",
    );
    metric(
        &mut m,
        "sched.busy_s",
        med(&|i| layers[i].sched.busy_ns as f64 * s),
        "s",
    );
    metric(
        &mut m,
        "sched.decisions",
        meter.sched_decisions as f64,
        "count",
    );
    metric(
        &mut m,
        "sched.ns_per_decision",
        probes::sched_ns_per_decision(&setup.matrix.families(), &rates),
        "ns",
    );
    metric(
        &mut m,
        "wlan.dispatches",
        l0.wlan.dispatches as f64,
        "count",
    );
    metric(
        &mut m,
        "wlan.busy_s",
        med(&|i| layers[i].wlan.busy_ns as f64 * s),
        "s",
    );
    metric(&mut m, "wlan.allocs", l0.wlan.allocs as f64, "count");
    metric(&mut m, "obs.hook_calls", meter.hook_calls as f64, "count");
    metric(
        &mut m,
        "obs.busy_s",
        med(&|i| runs[i].meter.hook_ns as f64 * s),
        "s",
    );
    metric(&mut m, "obs.allocs", meter.hook_allocs as f64, "count");
    metric(
        &mut m,
        "topo.drain_s",
        med(&|i| runs[i].topo.drain_ns as f64 * s),
        "s",
    );
    metric(
        &mut m,
        "topo.mirror_s",
        med(&|i| runs[i].topo.mirror_ns as f64 * s),
        "s",
    );
    metric(
        &mut m,
        "topo.management_s",
        med(&|i| runs[i].topo.management_ns as f64 * s),
        "s",
    );
    metric(&mut m, "topo.handoffs", first.topo.handoffs as f64, "count");
    metric(&mut m, "scenario.parse_s", median(&setup.parse), "s");
    metric(&mut m, "scenario.expand_s", median(&setup.expand), "s");
    metric(
        &mut m,
        "scenario.aggregate_s",
        med(&|i| runs[i].aggregate_s),
        "s",
    );
    metric(&mut m, "scenario.emit_s", med(&|i| runs[i].emit_s), "s");
    metric(
        &mut m,
        "scenario.pool_speedup",
        ratio(wall_1, wall_n),
        "ratio",
    );
    metric(
        &mut m,
        "trace.overhead",
        ratio(med(&|i| runs[i].wall_s), wall_1),
        "ratio",
    );
    Ok(result_line(&verdict, &m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    set_alloc_counting(true);
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
