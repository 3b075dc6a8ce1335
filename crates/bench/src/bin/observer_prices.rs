//! What each observer costs the host on a cell-tcp-shaped matrix: the
//! 28-job scheduler zoo (7 families × rate mixes 11,1 and 11,5.5,2,1 ×
//! down/up, greedy TCP, 30 s with a 3 s warm-up, seed 1) on one thread,
//! under one observer at a time. Prints the median wall time over five
//! repetitions and the bytes one matrix allocates (exact per seed).
//!
//! ```text
//! cargo run --release -p airtime-bench --bin observer_prices
//! ```
//!
//! Every row but the last builds its observer afresh per job, as a
//! one-off `airtime-cli run` does. The last is the rig `sweep` and
//! `tournament` attach: one span collector, capacity-0 recorder and
//! summary scratch buffer per worker, reset between jobs.

use std::hint::black_box;
use std::time::Instant;

use airtime_bench::Output;
use airtime_obs::prof::{alloc_stats, set_alloc_counting};
use airtime_obs::{
    AirtimeLedger, ChromeTraceObserver, CountingAlloc, FlightRecorder, MetricsRegistry,
    NullObserver, SpanCollector, TeeObserver,
};
use airtime_phy::DataRate::{B1, B11, B2, B5_5};
use airtime_sched::FAMILIES;
use airtime_sim::SimDuration;
use airtime_wlan::{run_observed, run_profiled, scenarios, Direction, NetworkConfig};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const REPS: usize = 5;

fn matrix() -> Vec<NetworkConfig> {
    let mut jobs = Vec::new();
    for family in FAMILIES {
        for mix in [&[B11, B1][..], &[B11, B5_5, B2, B1][..]] {
            for dir in [Direction::Downlink, Direction::Uplink] {
                let mut cfg = scenarios::tcp_stations(mix, dir, (family.default_kind)());
                cfg.duration = SimDuration::from_secs(30);
                cfg.warmup = SimDuration::from_secs(3);
                cfg.seed = 1;
                jobs.push(cfg);
            }
        }
    }
    jobs
}

/// Runs the whole matrix once under one kind of observer, rolling up
/// each job the way its consumer would.
type Matrix = fn(&[NetworkConfig]);

fn none(jobs: &[NetworkConfig]) {
    for cfg in jobs {
        black_box(run_observed(cfg, &mut NullObserver));
    }
}

fn metrics(jobs: &[NetworkConfig]) {
    for cfg in jobs {
        let mut reg = MetricsRegistry::new();
        black_box(run_profiled(cfg, &mut NullObserver, &mut reg));
        black_box(reg.snapshot_count());
    }
}

fn ledger(jobs: &[NetworkConfig]) {
    for cfg in jobs {
        let mut obs = AirtimeLedger::new();
        black_box(run_observed(cfg, &mut obs));
        black_box(obs.audit());
    }
}

fn spans(jobs: &[NetworkConfig]) {
    for cfg in jobs {
        let mut obs = SpanCollector::new();
        black_box(run_observed(cfg, &mut obs));
        black_box(obs.summary());
    }
}

fn chrome_trace(jobs: &[NetworkConfig]) {
    for cfg in jobs {
        let mut obs = ChromeTraceObserver::new("cell");
        black_box(run_observed(cfg, &mut obs));
        black_box(obs.into_trace());
    }
}

fn recorder(jobs: &[NetworkConfig]) {
    for cfg in jobs {
        let mut obs = FlightRecorder::new().with_capacity(0);
        black_box(run_observed(cfg, &mut obs));
        black_box(obs.fingerprint());
    }
}

fn shipped_rig(jobs: &[NetworkConfig]) {
    let mut obs = TeeObserver::new(SpanCollector::new(), FlightRecorder::new().with_capacity(0));
    let mut scratch = Vec::new();
    for cfg in jobs {
        obs.a.reset();
        obs.b.reset();
        black_box(run_observed(cfg, &mut obs));
        black_box((obs.a.summary_in(&mut scratch), obs.b.fingerprint()));
    }
}

fn main() {
    let mut out = Output::from_args("Observer prices on the cell-tcp-shaped zoo matrix (28 jobs)");
    let jobs = matrix();
    let observers: [(&str, Matrix); 7] = [
        ("none", none),
        ("metrics registry", metrics),
        ("airtime ledger", ledger),
        ("span collector", spans),
        ("Chrome trace", chrome_trace),
        ("flight recorder (capacity 0)", recorder),
        ("spans + recorder, reused rig", shipped_rig),
    ];
    let mut walls = vec![Vec::new(); observers.len()];
    let mut bytes = vec![0u64; observers.len()];
    // Interleave the observers within each repetition, so host drift
    // lands on all of them alike.
    for _ in 0..REPS {
        for (i, (_, run)) in observers.iter().enumerate() {
            let before = alloc_stats();
            set_alloc_counting(true);
            let started = Instant::now();
            run(&jobs);
            walls[i].push(started.elapsed().as_secs_f64());
            set_alloc_counting(false);
            bytes[i] = alloc_stats().since(before).bytes;
        }
    }
    let rows: Vec<Vec<String>> = observers
        .iter()
        .zip(walls.iter_mut().zip(&bytes))
        .map(|((name, _), (w, &b))| {
            w.sort_by(f64::total_cmp);
            vec![
                name.to_string(),
                format!("{:.3}", w[REPS / 2]),
                format!("{:.2}", b as f64 / (1024.0 * 1024.0)),
            ]
        })
        .collect();
    out.table("", &["observer", "wall_s", "alloc_mb"], &rows);
    out.note("wall_s: median of 5 one-thread matrix runs; alloc_mb: MiB one matrix allocates");
    out.finish();
}
