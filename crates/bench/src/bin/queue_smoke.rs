//! Event-queue bench smoke: the pinned TBR-heavy Figure-9-class cell
//! under both queue backends and both tick modes.
//!
//! Run from CI after the functional suites. Writes `BENCH_pr4.json`
//! (override with `--json <path>`) with per-combination wall time,
//! events/sec, and the `sched.tick` dispatch share, then enforces the
//! PR-4 regression gates:
//!
//! 1. all four combinations produce a bit-identical [`Report`] and a
//!    conserving airtime-ledger audit;
//! 2. tick coalescing cuts `sched.tick` dispatches by at least 2×;
//! 3. the new default (timer wheel, coalesced ticks) is not slower
//!    than the old behaviour (binary heap, dense ticks) on this cell
//!    (10% noise allowance, best-of-3 walls, reps interleaved across
//!    combos so host drift doesn't bias one side).

use std::process::exit;

use airtime_bench::print_table;
use airtime_obs::json::Obj;
use airtime_obs::{AirtimeLedger, MetricsRegistry, NullObserver};
use airtime_phy::DataRate::{B1, B11, B2, B5_5};
use airtime_sim::{QueueBackend, SimDuration};
use airtime_wlan::{
    run_observed, run_profiled, scenarios, Direction, NetworkConfig, SchedulerKind,
};

const REPS: usize = 3;

fn cell() -> NetworkConfig {
    let mut cfg = scenarios::tcp_stations(
        &[B11, B5_5, B2, B1],
        Direction::Downlink,
        SchedulerKind::tbr(),
    );
    cfg.duration = SimDuration::from_secs(20);
    cfg.warmup = SimDuration::from_secs(2);
    cfg
}

struct ComboResult {
    name: &'static str,
    backend: &'static str,
    coalesce: bool,
    wall_s: f64,
    events: u64,
    sched_ticks: u64,
    tick_dispatch_us: f64,
    report: String,
    conserved: bool,
}

fn new_combo(name: &'static str, backend: QueueBackend, coalesce: bool) -> ComboResult {
    ComboResult {
        name,
        backend: match backend {
            QueueBackend::Heap => "heap",
            QueueBackend::Wheel => "wheel",
        },
        coalesce,
        wall_s: f64::INFINITY,
        events: 0,
        sched_ticks: 0,
        tick_dispatch_us: 0.0,
        report: String::new(),
        conserved: false,
    }
}

fn combo_cfg(c: &ComboResult) -> NetworkConfig {
    let mut cfg = cell();
    cfg.queue_backend = match c.backend {
        "heap" => QueueBackend::Heap,
        _ => QueueBackend::Wheel,
    };
    cfg.coalesce_ticks = c.coalesce;
    cfg
}

/// One timed rep of a combo, folded into its best-of-REPS state.
fn measure_rep(c: &mut ComboResult) {
    let cfg = combo_cfg(c);
    let mut reg = MetricsRegistry::new();
    let r = run_profiled(&cfg, &mut NullObserver, &mut reg).0;
    let wall = reg.gauge_value("profile.wall_s").expect("profile.wall_s");
    if wall < c.wall_s {
        c.wall_s = wall;
        c.tick_dispatch_us = reg
            .gauge_value("profile.dispatch_us.sched.tick")
            .unwrap_or(0.0);
    }
    c.events = reg.counter_value("sim.events").expect("sim.events");
    c.sched_ticks = reg.counter_value("profile.events.sched.tick").unwrap_or(0);
    c.report = format!("{r:?}");
}

fn audit_combo(c: &mut ComboResult) {
    let cfg = combo_cfg(c);
    let mut ledger = AirtimeLedger::new();
    let _ = run_observed(&cfg, &mut ledger);
    c.conserved = ledger.audit().conserved;
}

fn main() {
    let mut json_path = String::from("BENCH_pr4.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => match args.next() {
                Some(p) => json_path = p,
                None => {
                    eprintln!("error: --json needs a path");
                    exit(2);
                }
            },
            other => {
                eprintln!("error: unknown option '{other}' (only --json <path>)");
                exit(2);
            }
        }
    }

    println!("Event-queue smoke: fig9-class TBR cell (11/5.5/2/1M downlink TCP, 20 s)\n");
    let mut combos = [
        new_combo("heap/dense", QueueBackend::Heap, false),
        new_combo("heap/coalesced", QueueBackend::Heap, true),
        new_combo("wheel/dense", QueueBackend::Wheel, false),
        new_combo("wheel/coalesced", QueueBackend::Wheel, true),
    ];
    // Interleave reps across combos (A/B/A/B rather than A/A/B/B) so
    // slow drift in the host — thermal throttling, a noisy neighbour
    // spinning up mid-run — lands on every combo roughly equally
    // instead of biasing whichever combo ran last. Best-of-REPS per
    // combo is unchanged.
    for _rep in 0..REPS {
        for c in combos.iter_mut() {
            measure_rep(c);
        }
    }
    for c in combos.iter_mut() {
        audit_combo(c);
    }
    let combos = combos;

    let rows: Vec<Vec<String>> = combos
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{:.3}", c.wall_s),
                format!("{:.0}", c.events as f64 / c.wall_s),
                c.sched_ticks.to_string(),
                format!("{:.1}%", 100.0 * c.sched_ticks as f64 / c.events as f64),
                if c.conserved { "ok" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "combo",
            "wall_s",
            "events/s",
            "sched.ticks",
            "tick share",
            "audit",
        ],
        &rows,
    );

    // --- Gates ------------------------------------------------------
    let mut failures = Vec::new();

    let reference = &combos[0];
    for c in &combos[1..] {
        if c.report != reference.report {
            failures.push(format!("report mismatch: {} vs {}", c.name, reference.name));
        }
    }
    for c in &combos {
        if !c.conserved {
            failures.push(format!("ledger audit failed under {}", c.name));
        }
    }

    let dense_ticks = combos[2].sched_ticks;
    let lazy_ticks = combos[3].sched_ticks;
    let tick_reduction = dense_ticks as f64 / (lazy_ticks.max(1)) as f64;
    if tick_reduction < 2.0 {
        failures.push(format!(
            "coalescing cut sched.tick dispatches only {tick_reduction:.2}x (need >= 2x)"
        ));
    }

    // New default vs old behaviour: this is the regression the gate
    // protects against. Same-mode wheel-vs-heap ratios are recorded in
    // the JSON but not gated — on this cell the pending set stays tiny,
    // so both backends are in the noise against each other.
    let old_wall = combos[0].wall_s; // heap/dense
    let new_wall = combos[3].wall_s; // wheel/coalesced
    let wall_ratio = new_wall / old_wall;
    if wall_ratio > 1.10 {
        failures.push(format!(
            "wheel+coalescing slower than heap+dense: {new_wall:.3}s vs {old_wall:.3}s \
             ({wall_ratio:.2}x)"
        ));
    }

    println!();
    println!(
        "sched.tick reduction: {tick_reduction:.1}x ({dense_ticks} dense -> {lazy_ticks} lazy)"
    );
    println!(
        "new-default/old-default wall ratio: {wall_ratio:.3} (best-of-{REPS}, \
         wheel+coalesced vs heap+dense)"
    );

    // --- JSON mirror ------------------------------------------------
    let mut combo_json = Vec::new();
    for c in &combos {
        combo_json.push(
            Obj::new()
                .str("combo", c.name)
                .str("backend", c.backend)
                .bool("coalesce", c.coalesce)
                .f64("wall_s", c.wall_s)
                .u64("events", c.events)
                .f64("events_per_sec", c.events as f64 / c.wall_s)
                .u64("sched_ticks", c.sched_ticks)
                .f64("sched_tick_share", c.sched_ticks as f64 / c.events as f64)
                .f64("sched_tick_dispatch_us", c.tick_dispatch_us)
                .bool("audit_conserved", c.conserved)
                .finish(),
        );
    }
    let json = Obj::new()
        .str("bench", "queue_smoke")
        .str("cell", "fig9-class/tcp_down/tbr 11M+5.5M+2M+1M 20s")
        .raw("combos", &format!("[{}]", combo_json.join(",")))
        .f64("sched_tick_reduction", tick_reduction)
        .f64("new_vs_old_default_wall_ratio", wall_ratio)
        .bool(
            "reports_identical",
            failures.iter().all(|f| !f.starts_with("report")),
        )
        .bool("pass", failures.is_empty())
        .finish();
    if let Err(e) = std::fs::write(&json_path, json + "\n") {
        eprintln!("error: writing {json_path}: {e}");
        exit(1);
    }
    println!("wrote {json_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        exit(1);
    }
    println!("all gates passed");
}
