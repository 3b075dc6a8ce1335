//! Ablations over TBR's design parameters (DESIGN.md §5): bucket depth,
//! fill period, adjustment period, uplink retry information, and the
//! scheduler family comparison. Run with
//! `cargo run -p airtime-bench --bin ablations --release`.

use airtime_bench::{mbps, measure_quick, pct, Output};
use airtime_phy::DataRate;
use airtime_sched::TbrConfig;
use airtime_sim::SimDuration;
use airtime_wlan::{scenarios, SchedulerKind};

fn main() {
    let mut out = Output::from_args("Ablations over TBR's design parameters");
    bucket_depth(&mut out);
    fill_period(&mut out);
    adjust_period(&mut out);
    retry_info(&mut out);
    scheduler_family(&mut out);
    out.finish();
}

/// 1vs11 downlink: bucket depth trades short-term burstiness against
/// long-term fairness precision (paper §4.5).
fn bucket_depth(out: &mut Output) {
    let mut rows = Vec::new();
    for ms in [2, 5, 10, 20, 50, 100, 250] {
        let bucket = SimDuration::from_millis(ms);
        let tc = TbrConfig {
            bucket,
            initial_tokens: bucket.min(SimDuration::from_millis(5)),
            ..TbrConfig::default()
        };
        let r = measure_quick(scenarios::downloaders(
            &[DataRate::B11, DataRate::B1],
            SchedulerKind::Tbr(tc),
        ));
        rows.push(vec![
            format!("{ms} ms"),
            mbps(r.total_goodput_mbps),
            pct(r.nodes[0].occupancy_share),
            pct(r.utilization),
        ]);
    }
    out.table(
        "Ablation: TBR bucket depth (1vs11 downlink)",
        &["bucket", "total Mb/s", "T(11M node)", "utilization"],
        &rows,
    );
}

/// Fill-event granularity: finer ticks cost events, coarser ticks delay
/// unblocking.
fn fill_period(out: &mut Output) {
    let mut rows = Vec::new();
    for us in [500, 1_000, 2_000, 5_000, 10_000, 50_000] {
        let tc = TbrConfig {
            fill_period: SimDuration::from_micros(us),
            ..TbrConfig::default()
        };
        let r = measure_quick(scenarios::downloaders(
            &[DataRate::B11, DataRate::B1],
            SchedulerKind::Tbr(tc),
        ));
        rows.push(vec![
            format!("{:.1} ms", us as f64 / 1000.0),
            mbps(r.total_goodput_mbps),
            pct(r.nodes[0].occupancy_share),
            pct(r.utilization),
        ]);
    }
    out.table(
        "Ablation: FILLEVENT period (1vs11 downlink)",
        &["fill period", "total Mb/s", "T(11M node)", "utilization"],
        &rows,
    );
}

/// ADJUSTRATEEVENT period: responsiveness of the Table 4 reallocation.
fn adjust_period(out: &mut Output) {
    let mut rows = Vec::new();
    for ms in [250, 500, 1_000, 2_000, 5_000, 1_000_000] {
        let tc = TbrConfig {
            adjust_period: SimDuration::from_millis(ms),
            ..TbrConfig::default()
        };
        let r = measure_quick(scenarios::bottleneck_table4(SchedulerKind::Tbr(tc)));
        rows.push(vec![
            if ms >= 1_000_000 {
                "off".to_string()
            } else {
                format!("{ms} ms")
            },
            mbps(r.flows[0].goodput_mbps),
            mbps(r.flows[1].goodput_mbps),
            mbps(r.total_goodput_mbps),
        ]);
    }
    out.table(
        "Ablation: ADJUSTRATEEVENT period (Table 4 scenario)",
        &["adjust period", "n1 (greedy)", "n2 (2.1M cap)", "total"],
        &rows,
    );
    out.note("(in this scenario n2's unused share is small enough that token");
    out.note("binding alone keeps n1 within ~2% of the stock AP, so the sweep is");
    out.note("flat; the adjuster matters when a client is grossly idle — see the");
    out.note("trickle-demand unit tests and the utilization column of the bucket");
    out.note("sweep)");
    println!();
}

/// The paper's §4.2/§4.4 point: without uplink retry counts TBR slightly
/// under-charges lossy slow uplinks.
fn retry_info(out: &mut Output) {
    let mut rows = Vec::new();
    for (label, retry_info, estimator, fer) in [
        ("single-attempt estimate, 1% loss", false, false, 0.01),
        ("exact retry info, 1% loss", true, false, 0.01),
        ("single-attempt estimate, 20% loss", false, false, 0.20),
        ("sec-4.2 loss heuristic, 20% loss", false, true, 0.20),
        ("exact retry info, 20% loss", true, false, 0.20),
    ] {
        let mut cfg = scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::tbr());
        cfg.uplink_retry_info = retry_info;
        cfg.uplink_loss_estimator = estimator;
        cfg.stations[1].link = airtime_wlan::LinkSpec::Fixed {
            rate: DataRate::B1,
            fer,
        };
        let r = measure_quick(cfg);
        rows.push(vec![
            label.to_string(),
            mbps(r.flows[0].goodput_mbps),
            mbps(r.flows[1].goodput_mbps),
            pct(r.nodes[1].occupancy_share),
        ]);
    }
    out.table(
        "Ablation: uplink retry information (1vs11 uplink, lossy slow node)",
        &["accounting", "R(11M)", "R(1M lossy)", "T(1M lossy)"],
        &rows,
    );
    out.note("(the estimate leaves retransmission airtime unbilled, biasing the");
    out.note("lossy slow node — the bias the paper observed in its prototype)");
    println!();
}

/// Every registry family on the same mixed-rate downlink workload,
/// plus the TBR+RED buffer variant.
fn scheduler_family(out: &mut Output) {
    let mut rows = Vec::new();
    let tbr_red = TbrConfig {
        buffer: airtime_core::BufferPolicy::Red(airtime_core::RedConfig::default()),
        ..TbrConfig::default()
    };
    // The registry is the row source, so a family added to
    // `airtime-sched` shows up here without touching this binary.
    let mut entries: Vec<(String, SchedulerKind)> = airtime_sched::FAMILIES
        .iter()
        .map(|f| {
            let kind = SchedulerKind::from_family(f.name).expect("registry names resolve");
            (f.name.to_string(), kind)
        })
        .collect();
    entries.push(("tbr+red".to_string(), SchedulerKind::Tbr(tbr_red)));
    for (label, sched) in entries {
        let r = measure_quick(scenarios::downloaders(
            &[DataRate::B11, DataRate::B1],
            sched.clone(),
        ));
        let time_fair = airtime_sched::FAMILIES
            .iter()
            .find(|f| f.name == sched.family())
            .is_some_and(|f| f.time_fair);
        rows.push(vec![
            label,
            if time_fair { "time" } else { "thpt" }.to_string(),
            mbps(r.flows[0].goodput_mbps),
            mbps(r.flows[1].goodput_mbps),
            mbps(r.total_goodput_mbps),
            pct(r.nodes[0].occupancy_share),
        ]);
    }
    out.table(
        "Ablation: scheduler family (1vs11 downlink)",
        &["scheduler", "fair", "R(11M)", "R(1M)", "total", "T(11M)"],
        &rows,
    );
    out.note("(the throughput-fair families split goodput evenly and the total");
    out.note("collapses toward the slow rate; the time-fair families split the");
    out.note("medium evenly and lift the total — rows come from the");
    out.note("airtime-sched family registry)");
}
