//! End-to-end tests of the scenario engine: the shipped example files
//! parse, compile and expand to the matrices their bench-binary
//! counterparts hard-code, and a sweep's emitted documents are
//! byte-identical regardless of worker-thread count.

use std::path::{Path, PathBuf};

use airtime_phy::DataRate;
use airtime_scenario::toml::Value;
use airtime_scenario::{compile, emit, expand, load, run_sweep, run_sweep_text, CheckOutcome};
use airtime_sched::TbrConfig;
use airtime_sim::SimDuration;
use airtime_wlan::{scenarios, Direction, NetworkConfig, SchedulerKind, Transport};

fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(name)
}

#[test]
fn fig2_example_matches_the_bench_binary_setup() {
    let path = example("fig2_dcf_anomaly.toml");
    let doc = load(&path).unwrap();
    let spec = compile(&doc, "fig2").unwrap();
    // The `fig2_dcf_anomaly` binary runs `measure(uploaders(..))`:
    // 60 s after a 5 s warm-up, seed 1, FIFO, two fixed 11M links.
    assert_eq!(spec.cfg.duration, SimDuration::from_secs(60));
    assert_eq!(spec.cfg.warmup, SimDuration::from_secs(5));
    assert_eq!(spec.cfg.seed, 1);
    assert!(matches!(spec.cfg.scheduler, SchedulerKind::Fifo));
    assert_eq!(spec.cfg.stations.len(), 2);
    assert_eq!(spec.rate_labels, ["11M", "11M"]);

    let (axes, jobs) = expand(&doc, "fig2").unwrap();
    assert_eq!(axes.len(), 1);
    assert_eq!(axes[0].name, "station.1.rate");
    assert_eq!(jobs.len(), 2);
    assert_eq!(jobs[1].spec.rate_labels, ["11M", "1M"]);
}

#[test]
fn fig9_example_expands_to_the_binary_loop_nest() {
    let doc = load(&example("fig9_mixed_rate.toml")).unwrap();
    let (axes, jobs) = expand(&doc, "fig9").unwrap();
    let names: Vec<&str> = axes.iter().map(|a| a.name.as_str()).collect();
    assert_eq!(names, ["direction", "station.1.rate", "scheduler"]);
    assert_eq!(jobs.len(), 12);
    // Row-major: direction slowest, scheduler fastest — the binary's
    // `for direction { for slow { normal; tbr } }` order.
    let coord =
        |i: usize| -> Vec<&str> { jobs[i].coords.iter().map(|(_, v)| v.as_str()).collect() };
    assert_eq!(coord(0), ["down", "5.5", "rr"]);
    assert_eq!(coord(1), ["down", "5.5", "tbr"]);
    assert_eq!(coord(5), ["down", "1", "tbr"]);
    assert_eq!(coord(6), ["up", "5.5", "rr"]);
    assert_eq!(coord(11), ["up", "1", "tbr"]);
}

/// Shortens both configs identically and checks that running them
/// yields bit-identical results — the scenario file is the same
/// experiment as the binary's hard-coded config, seed for seed.
fn assert_runs_agree(name: &str, mut from_toml: NetworkConfig, mut from_binary: NetworkConfig) {
    for cfg in [&mut from_toml, &mut from_binary] {
        cfg.duration = SimDuration::from_secs(3);
        cfg.warmup = SimDuration::from_secs(1);
    }
    let a = airtime_wlan::run(&from_toml);
    let b = airtime_wlan::run(&from_binary);
    assert_eq!(a.total_goodput_mbps, b.total_goodput_mbps, "{name}");
    assert_eq!(a.mac.attempts, b.mac.attempts, "{name}");
    assert_eq!(a.mac.collision_events, b.mac.collision_events, "{name}");
    assert_eq!(a.flows.len(), b.flows.len(), "{name}");
    for (fa, fb) in a.flows.iter().zip(&b.flows) {
        assert_eq!(fa.goodput_mbps, fb.goodput_mbps, "{name}");
    }
    for (na, nb) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(na.occupancy_share, nb.occupancy_share, "{name}");
    }
}

#[test]
fn table3_example_agrees_with_the_bench_binary_seed_for_seed() {
    let doc = load(&example("table3_four_nodes.toml")).unwrap();
    let (axes, jobs) = expand(&doc, "table3").unwrap();
    assert_eq!(axes.len(), 1);
    assert_eq!(axes[0].name, "scheduler");
    assert_eq!(jobs.len(), 2);
    assert_eq!(jobs[0].spec.rate_labels, ["1M", "2M", "11M", "11M"]);
    // The binary runs `measure(four_node_mix(..))`: 60 s, 5 s warm-up.
    assert_eq!(jobs[0].spec.cfg.duration, SimDuration::from_secs(60));
    assert_eq!(jobs[0].spec.cfg.warmup, SimDuration::from_secs(5));
    for (job, sched) in jobs
        .into_iter()
        .zip([SchedulerKind::Fifo, SchedulerKind::tbr()])
    {
        assert_runs_agree(
            &format!("table3/{:?}", sched),
            job.spec.cfg,
            scenarios::four_node_mix(sched),
        );
    }
}

#[test]
fn fig4_example_agrees_with_the_bench_binary_seed_for_seed() {
    let doc = load(&example("fig4_updown_baseline.toml")).unwrap();
    let (axes, jobs) = expand(&doc, "fig4").unwrap();
    // The binary nests `for transport { for direction }`; the sweep's
    // row-major order must match: transport slowest, direction fastest.
    let names: Vec<&str> = axes.iter().map(|a| a.name.as_str()).collect();
    assert_eq!(names, ["station.0.transport", "direction"]);
    assert_eq!(jobs.len(), 4);
    let nest = [
        (Transport::Udp, Direction::Uplink),
        (Transport::Udp, Direction::Downlink),
        (Transport::Tcp, Direction::Uplink),
        (Transport::Tcp, Direction::Downlink),
    ];
    for (job, (transport, direction)) in jobs.into_iter().zip(nest) {
        assert_eq!(job.spec.cfg.stations.len(), 3);
        assert_runs_agree(
            &format!("fig4/{transport:?}/{direction:?}"),
            job.spec.cfg,
            scenarios::updown_baseline(3, transport, direction, SchedulerKind::RoundRobin),
        );
    }
}

#[test]
fn table4_example_rate_limits_the_second_uploader() {
    let doc = load(&example("table4_bottleneck.toml")).unwrap();
    let (_, jobs) = expand(&doc, "table4").unwrap();
    assert_eq!(jobs.len(), 2);
    let cfg = &jobs[0].spec.cfg;
    assert_eq!(cfg.stations[1].flows[0].rate_limit_bps, Some(2_100_000.0));
    assert_eq!(cfg.stations[0].flows[0].rate_limit_bps, None);
}

/// The acceptance property: because each job's seed travels inside its
/// config and results land in matrix order, the emitted JSON and CSV
/// are byte-identical whether the pool runs 1 thread or 4.
#[test]
fn emitted_documents_are_identical_across_thread_counts() {
    let text = r#"
name = "determinism"
seed = 7
duration_s = 3
warmup_s = 1
direction = "up"

[scheduler]
kind = "rr"

[[station]]
rate = "11"

[[station]]
rate = "2"

[sweep]
scheduler = ["rr", "tbr"]
seed = [7, 8]
"#;
    let one = run_sweep_text(text, "det.toml", 1).unwrap();
    let four = run_sweep_text(text, "det.toml", 4).unwrap();
    assert_eq!(one.stats.threads_used(), 1);
    // 4 workers were spawned and between them completed every job (how
    // many each grabbed is a scheduling race — on a loaded or
    // single-core host an early worker may drain several).
    assert_eq!(four.stats.threads, 4);
    assert_eq!(four.stats.per_thread_jobs.iter().sum::<usize>(), 4);
    assert_eq!(one.cells.len(), 4);

    let json = |o: &airtime_scenario::SweepOutcome| emit::to_json(&o.name, &o.axes, &o.cells);
    let csv = |o: &airtime_scenario::SweepOutcome| emit::to_csv(&o.name, &o.axes, &o.cells);
    assert_eq!(json(&one), json(&four));
    assert_eq!(csv(&one), csv(&four));
    // And the documents carry no worker accounting to leak through.
    assert!(!json(&one).contains("thread"));
}

#[test]
fn ablation_bucket_depth_example_agrees_with_the_bench_binary() {
    let doc = load(&example("ablation_bucket_depth.toml")).unwrap();
    let (axes, jobs) = expand(&doc, "bucket").unwrap();
    assert_eq!(axes[0].name, "scheduler.bucket_ms");
    assert_eq!(jobs.len(), 6);
    // Job 2 is the 20 ms bucket; the binary builds the same TbrConfig
    // by hand (initial grant clamped to the 5 ms default).
    let tc = TbrConfig {
        bucket: SimDuration::from_millis(20),
        initial_tokens: SimDuration::from_millis(5),
        ..TbrConfig::default()
    };
    assert_runs_agree(
        "ablation/bucket=20ms",
        jobs[2].spec.cfg.clone(),
        scenarios::downloaders(&[DataRate::B11, DataRate::B1], SchedulerKind::Tbr(tc)),
    );
}

#[test]
fn ablation_fill_period_example_agrees_with_the_bench_binary() {
    let doc = load(&example("ablation_fill_period.toml")).unwrap();
    let (_, jobs) = expand(&doc, "fill").unwrap();
    assert_eq!(jobs.len(), 6);
    // Job 2 is the 2 ms fill period.
    let tc = TbrConfig {
        fill_period: SimDuration::from_micros(2_000),
        ..TbrConfig::default()
    };
    assert_runs_agree(
        "ablation/fill=2ms",
        jobs[2].spec.cfg.clone(),
        scenarios::downloaders(&[DataRate::B11, DataRate::B1], SchedulerKind::Tbr(tc)),
    );
}

#[test]
fn ablation_adjust_period_example_agrees_with_the_bench_binary() {
    let doc = load(&example("ablation_adjust_period.toml")).unwrap();
    let (_, jobs) = expand(&doc, "adjust").unwrap();
    assert_eq!(jobs.len(), 6);
    // Job 1 is the 500 ms adjust period on the Table 4 workload.
    let tc = TbrConfig {
        adjust_period: SimDuration::from_millis(500),
        ..TbrConfig::default()
    };
    assert_runs_agree(
        "ablation/adjust=500ms",
        jobs[1].spec.cfg.clone(),
        scenarios::bottleneck_table4(SchedulerKind::Tbr(tc)),
    );
}

#[test]
fn ablation_retry_info_example_agrees_with_the_bench_binary() {
    let doc = load(&example("ablation_retry_info.toml")).unwrap();
    let (axes, jobs) = expand(&doc, "retry").unwrap();
    let names: Vec<&str> = axes.iter().map(|a| a.name.as_str()).collect();
    assert_eq!(names, ["station.1.fer", "uplink_retry_info"]);
    assert_eq!(jobs.len(), 4);
    // Job 3 is the binary's "exact retry info, 20% loss" row.
    assert!(jobs[3].spec.cfg.uplink_retry_info);
    let mut cfg = scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::tbr());
    cfg.uplink_retry_info = true;
    cfg.stations[1].link = airtime_wlan::LinkSpec::Fixed {
        rate: DataRate::B1,
        fer: 0.2,
    };
    assert_runs_agree(
        "ablation/retry=exact/fer=0.2",
        jobs[3].spec.cfg.clone(),
        cfg,
    );
}

#[test]
fn ablation_scheduler_family_example_agrees_with_the_bench_binary() {
    let doc = load(&example("ablation_scheduler_family.toml")).unwrap();
    let (_, jobs) = expand(&doc, "family").unwrap();
    assert_eq!(jobs.len(), 7); // the whole registry, fifo..maxmin
    for (i, sched) in [(0, SchedulerKind::Fifo), (3, SchedulerKind::tbr())] {
        assert_runs_agree(
            &format!("ablation/family/{sched:?}"),
            jobs[i].spec.cfg.clone(),
            scenarios::downloaders(&[DataRate::B11, DataRate::B1], sched),
        );
    }
}

#[test]
fn mixed_rate_grid_jain_and_baseline_columns_split_by_family() {
    // Shortened uplink-only slice of the grid: the time-fair
    // disciplines equalise airtime, the throughput-fair ones equalise
    // goodput, and each family passes its own baseline check.
    let mut doc = load(&example("mixed_rate_grid.toml")).unwrap();
    doc.set_path("duration_s", Value::Int(6), 0).unwrap();
    doc.set_path("warmup_s", Value::Int(1), 0).unwrap();
    doc.set_path(
        "sweep.direction",
        Value::Array(vec![Value::Str("down".into())]),
        0,
    )
    .unwrap();
    let out = run_sweep(&doc, "grid.toml", 4).unwrap();
    assert_eq!(out.cells.len(), 3); // rr, tbr, txop
    for c in &out.cells {
        assert_eq!(c.stations.len(), 8);
        let family = &c.coords[1].1;
        let time_fair = family == "tbr" || family == "txop";
        if time_fair {
            assert!(
                c.jain_airtime > 0.97,
                "{family}: jain_airtime {}",
                c.jain_airtime
            );
        } else {
            assert!(
                c.jain_throughput > 0.97,
                "{family}: jain_throughput {}",
                c.jain_throughput
            );
        }
        assert!(
            matches!(c.check, CheckOutcome::Pass),
            "{family}: {:?}",
            c.check
        );
        assert!(c.roam.is_none());
    }
    // Time-based fairness lifts the aggregate (the paper's headline).
    assert!(out.cells[1].total_mbps > 1.5 * out.cells[0].total_mbps);
}

#[test]
fn roam_example_sweeps_deterministically_across_thread_counts() {
    let doc = load(&example("roam_three_cells.toml")).unwrap();
    let one = run_sweep(&doc, "roam.toml", 1).unwrap();
    let four = run_sweep(&doc, "roam.toml", 4).unwrap();
    let json = |o: &airtime_scenario::SweepOutcome| emit::to_json(&o.name, &o.axes, &o.cells);
    let csv = |o: &airtime_scenario::SweepOutcome| emit::to_csv(&o.name, &o.axes, &o.cells);
    assert_eq!(json(&one), json(&four));
    assert_eq!(csv(&one), csv(&four));

    assert_eq!(one.cells.len(), 2); // rr, tbr
    for c in &one.cells {
        let roam = c.roam.as_ref().expect("topology cell");
        assert_eq!(roam.handoffs, 2, "{:?}", c.coords);
        assert_eq!(roam.drops, 0);
        assert_eq!(roam.outage_s, 0.0);
        assert!(roam.audits_pass, "worst {} ns", roam.worst_audit_error_ns);
        assert_eq!(roam.cell_mbps.len(), 3);
        assert!(roam.cell_mbps.iter().all(|&m| m > 0.0));
    }
    assert!(!one.audit_failure);
    // The CSV grew the roaming columns.
    let text = csv(&one);
    assert!(text
        .lines()
        .nth(1)
        .unwrap()
        .contains("handoffs,drops,outage_s,audit,cell0_mbps"));
    // TBR beats round-robin in aggregate while the 1M walker roams
    // through: the per-cell regulator contains the anomaly per cell.
    assert!(one.cells[1].total_mbps > one.cells[0].total_mbps);
}

#[test]
fn short_fig2_sweep_shows_the_anomaly_and_passes_its_checks() {
    // The example at reduced length: the 11v11 cell still clearly
    // outruns the 11v1 cell, and FIFO's throughput-fairness check
    // passes in both.
    let text = r#"
name = "fig2-short"
seed = 1
duration_s = 8
warmup_s = 1
direction = "up"

[scheduler]
kind = "fifo"

[[station]]
rate = "11"

[[station]]
rate = "11"

[sweep]
"station.1.rate" = ["11", "1"]
"#;
    let out = run_sweep_text(text, "fig2-short.toml", 2).unwrap();
    assert_eq!(out.cells.len(), 2);
    assert!(out.cells[0].total_mbps > 1.8 * out.cells[1].total_mbps);
    for c in &out.cells {
        assert!(
            matches!(c.check, CheckOutcome::Pass),
            "cell {}: {:?}",
            c.index,
            c.check
        );
    }
    assert_eq!(out.failed_cells(), 0);
    assert!(!out.strict_failure);
}
