//! End-to-end reproduction checks: each test asserts the *shape* of one
//! of the paper's experimental findings on shortened runs (the bench
//! binaries run the full-length versions and print the actual tables).

use airtime_phy::DataRate;
use airtime_sim::SimDuration;
use airtime_wlan::{run, scenarios, Direction, NetworkConfig, SchedulerKind, Transport};

fn shortened(mut cfg: NetworkConfig, secs: u64) -> NetworkConfig {
    cfg.duration = SimDuration::from_secs(secs);
    cfg.warmup = SimDuration::from_secs(3);
    cfg
}

#[test]
fn table2_baseline_throughput_near_paper() {
    // γ(11, 1500, 2) measured 5.189 in the paper; the simulator should
    // land within ~10%.
    let cfg = shortened(
        scenarios::uploaders(&[DataRate::B11, DataRate::B11], SchedulerKind::Fifo),
        15,
    );
    let r = run(&cfg);
    assert!(
        (4.7..5.7).contains(&r.total_goodput_mbps),
        "γ(11) = {}",
        r.total_goodput_mbps
    );
    // And the two equal nodes split it evenly.
    let ratio = r.flows[0].goodput_mbps / r.flows[1].goodput_mbps;
    assert!((0.9..1.1).contains(&ratio), "split {ratio}");
}

#[test]
fn figure2_anomaly_uplink() {
    // 1 vs 11 Mbit/s uploads on a stock AP: equal throughputs around
    // 0.65–0.75 Mbit/s, aggregate collapsed under 1.6, and the slow
    // node holding ≥6× the fast node's channel time.
    let cfg = shortened(
        scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::Fifo),
        15,
    );
    let r = run(&cfg);
    let fast = r.flows[0].goodput_mbps;
    let slow = r.flows[1].goodput_mbps;
    assert!((fast / slow - 1.0).abs() < 0.15, "fast {fast} slow {slow}");
    assert!(r.total_goodput_mbps < 1.6, "total {}", r.total_goodput_mbps);
    let occ_ratio = r.nodes[1].occupancy_share / r.nodes[0].occupancy_share;
    assert!(
        (5.5..8.5).contains(&occ_ratio),
        "occupancy ratio {occ_ratio}"
    );
}

#[test]
fn figure9a_tbr_downlink_gains() {
    // Downlink 1 vs 11: TBR roughly doubles aggregate throughput
    // (the paper reports +103%) and equalises channel time.
    let normal = run(&shortened(
        scenarios::downloaders(&[DataRate::B11, DataRate::B1], SchedulerKind::RoundRobin),
        15,
    ));
    let tbr = run(&shortened(
        scenarios::downloaders(&[DataRate::B11, DataRate::B1], SchedulerKind::tbr()),
        15,
    ));
    let gain = tbr.total_goodput_mbps / normal.total_goodput_mbps - 1.0;
    assert!((0.75..1.35).contains(&gain), "downlink TBR gain {gain}");
    // Equal long-term channel occupancy (±8 points).
    assert!(
        (tbr.nodes[0].occupancy_share - 0.5).abs() < 0.08,
        "occupancy {:?}",
        tbr.nodes
            .iter()
            .map(|n| n.occupancy_share)
            .collect::<Vec<_>>()
    );
    // Eq 12: each node's throughput ≈ γᵢ/2.
    assert!(
        (tbr.flows[0].goodput_mbps - 5.189 / 2.0).abs() < 0.5,
        "fast {}",
        tbr.flows[0].goodput_mbps
    );
    assert!(
        (tbr.flows[1].goodput_mbps - 0.806 / 2.0).abs() < 0.15,
        "slow {}",
        tbr.flows[1].goodput_mbps
    );
}

#[test]
fn figure9b_tbr_uplink_gains() {
    // Uplink 1 vs 11: TBR throttles the slow node through its acks
    // alone (no client modification) and roughly doubles the aggregate.
    let normal = run(&shortened(
        scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::Fifo),
        20,
    ));
    let tbr = run(&shortened(
        scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::tbr()),
        20,
    ));
    let gain = tbr.total_goodput_mbps / normal.total_goodput_mbps - 1.0;
    assert!((0.6..1.4).contains(&gain), "uplink TBR gain {gain}");
    assert!(
        tbr.flows[0].goodput_mbps > 3.0 * normal.flows[0].goodput_mbps * 0.8,
        "fast node should be liberated: {} vs {}",
        tbr.flows[0].goodput_mbps,
        normal.flows[0].goodput_mbps
    );
}

#[test]
fn figure8_tbr_overhead_negligible_at_equal_rates() {
    for direction in [Direction::Uplink, Direction::Downlink] {
        let normal = run(&shortened(
            scenarios::tcp_stations(
                &[DataRate::B11, DataRate::B11],
                direction,
                SchedulerKind::RoundRobin,
            ),
            12,
        ));
        let tbr = run(&shortened(
            scenarios::tcp_stations(
                &[DataRate::B11, DataRate::B11],
                direction,
                SchedulerKind::tbr(),
            ),
            12,
        ));
        let rel =
            (tbr.total_goodput_mbps - normal.total_goodput_mbps).abs() / normal.total_goodput_mbps;
        assert!(rel < 0.06, "{direction:?}: TBR overhead {rel}");
    }
}

#[test]
fn figure4_udp_vs_tcp_up_vs_down() {
    let mut totals = std::collections::HashMap::new();
    for transport in [Transport::Udp, Transport::Tcp] {
        for direction in [Direction::Uplink, Direction::Downlink] {
            let cfg = shortened(
                scenarios::updown_baseline(3, transport, direction, SchedulerKind::RoundRobin),
                12,
            );
            let r = run(&cfg);
            // Equal splits among the three 11 Mbit/s nodes.
            for f in &r.flows {
                let frac = f.goodput_mbps / r.total_goodput_mbps;
                assert!(
                    (frac - 1.0 / 3.0).abs() < 0.04,
                    "{transport:?}/{direction:?}: share {frac}"
                );
            }
            totals.insert((transport, direction), r.total_goodput_mbps);
        }
    }
    // UDP beats TCP (ack airtime), uplink beats downlink (the solo AP
    // sender pays post-transmission backoff) — the paper's Figure 4.
    for d in [Direction::Uplink, Direction::Downlink] {
        assert!(totals[&(Transport::Udp, d)] > totals[&(Transport::Tcp, d)]);
    }
    for t in [Transport::Udp, Transport::Tcp] {
        assert!(totals[&(t, Direction::Uplink)] > totals[&(t, Direction::Downlink)]);
    }
    // Absolute levels roughly as measured (±20%).
    assert!((5.4..7.2).contains(&totals[&(Transport::Udp, Direction::Uplink)]));
    assert!((4.2..6.0).contains(&totals[&(Transport::Tcp, Direction::Downlink)]));
}

#[test]
fn table4_maxmin_rate_adjustment() {
    // n2 app-limited to 2.1 Mbit/s: TBR must not cap n1 at half the
    // channel — the adjuster reassigns the unused share (within 3%
    // of the stock AP's split, as in the paper's Table 4).
    let normal = run(&shortened(
        scenarios::bottleneck_table4(SchedulerKind::Fifo),
        15,
    ));
    let tbr = run(&shortened(
        scenarios::bottleneck_table4(SchedulerKind::tbr()),
        15,
    ));
    assert!(
        (tbr.flows[1].goodput_mbps - 2.1).abs() < 0.1,
        "n2 {}",
        tbr.flows[1].goodput_mbps
    );
    let rel = (tbr.flows[0].goodput_mbps - normal.flows[0].goodput_mbps).abs()
        / normal.flows[0].goodput_mbps;
    assert!(rel < 0.03, "n1 differs by {rel}");
    let rel_total =
        (tbr.total_goodput_mbps - normal.total_goodput_mbps).abs() / normal.total_goodput_mbps;
    assert!(rel_total < 0.03, "total differs by {rel_total}");
}

#[test]
fn table3_four_node_mix_under_both_schedulers() {
    let normal = run(&shortened(
        scenarios::four_node_mix(SchedulerKind::Fifo),
        20,
    ));
    // RF: all four roughly equal.
    let mean = normal.total_goodput_mbps / 4.0;
    for f in &normal.flows {
        assert!(
            (f.goodput_mbps / mean - 1.0).abs() < 0.25,
            "RF node {} got {}",
            f.flow,
            f.goodput_mbps
        );
    }
    let tbr = run(&shortened(
        scenarios::four_node_mix(SchedulerKind::tbr()),
        20,
    ));
    // TF: aggregate materially higher; 11M nodes well above 2M above 1M.
    assert!(
        tbr.total_goodput_mbps > 1.5 * normal.total_goodput_mbps,
        "TF {} vs RF {}",
        tbr.total_goodput_mbps,
        normal.total_goodput_mbps
    );
    assert!(tbr.flows[2].goodput_mbps > 2.0 * tbr.flows[1].goodput_mbps);
    assert!(tbr.flows[1].goodput_mbps > 1.2 * tbr.flows[0].goodput_mbps);
}

#[test]
fn exp1_rate_diversity_from_rate_adaptation() {
    let mut cfg = scenarios::exp1_office(SchedulerKind::RoundRobin);
    cfg.duration = SimDuration::from_secs(20);
    cfg.warmup = SimDuration::from_secs(2);
    let r = run(&cfg);
    let trace = r.trace.as_ref().expect("trace requested");
    let fracs = airtime_trace::bytes_by_rate(trace);
    let get = |rate| {
        fracs
            .iter()
            .find(|(x, _)| *x == rate)
            .map(|(_, f)| *f)
            .unwrap_or(0.0)
    };
    // The paper's EXP-1: the lowest rate dominates (they report >50%;
    // we assert the dominant-share shape robustly).
    assert!(
        get(DataRate::B1) > 0.40,
        "1M fraction {}",
        get(DataRate::B1)
    );
    assert!(
        get(DataRate::B11) > 0.2,
        "11M fraction {}",
        get(DataRate::B11)
    );
    assert!(
        get(DataRate::B11) < 0.55,
        "rate diversity must be substantial: 11M {}",
        get(DataRate::B11)
    );
    // Round-robin AP: equal goodput per receiver despite rate spread.
    let mean = r.total_goodput_mbps / 4.0;
    for f in &r.flows {
        assert!((f.goodput_mbps / mean - 1.0).abs() < 0.15);
    }
}

#[test]
fn task_model_avg_better_final_equal() {
    // Table 1's task-model row: AvgTaskTime improves under TF,
    // FinalTaskTime is (nearly) unchanged.
    let rf = run(&scenarios::task_model(
        &[DataRate::B11, DataRate::B1],
        3_000_000,
        SchedulerKind::RoundRobin,
    ));
    let tf = run(&scenarios::task_model(
        &[DataRate::B11, DataRate::B1],
        3_000_000,
        SchedulerKind::tbr(),
    ));
    let rf_avg = rf.avg_task_time().expect("RF tasks complete").as_secs_f64();
    let tf_avg = tf.avg_task_time().expect("TF tasks complete").as_secs_f64();
    let rf_final = rf.final_task_time().unwrap().as_secs_f64();
    let tf_final = tf.final_task_time().unwrap().as_secs_f64();
    assert!(tf_avg < 0.75 * rf_avg, "avg: tf {tf_avg} rf {rf_avg}");
    assert!(
        (tf_final - rf_final).abs() / rf_final < 0.1,
        "final: tf {tf_final} rf {rf_final}"
    );
    // Under RF the two equal tasks complete nearly together.
    let rf_times: Vec<f64> = rf
        .flows
        .iter()
        .map(|f| f.completion.unwrap().as_secs_f64())
        .collect();
    assert!((rf_times[0] - rf_times[1]).abs() / rf_final < 0.15);
    // Under TF the fast node finishes far earlier.
    let tf_times: Vec<f64> = tf
        .flows
        .iter()
        .map(|f| f.completion.unwrap().as_secs_f64())
        .collect();
    assert!(tf_times[0] < 0.45 * tf_times[1], "tf times {tf_times:?}");
}

#[test]
fn uplink_udp_needs_client_cooperation() {
    // §4.1: without client cooperation TBR cannot regulate uplink UDP
    // (nothing of the flow's traffic passes the AP queues); with the
    // notification-bit extension it can.
    let base = |coop: bool| {
        let mut cfg =
            scenarios::updown_baseline(2, Transport::Udp, Direction::Uplink, SchedulerKind::tbr());
        cfg.stations[1].link = airtime_wlan::LinkSpec::Fixed {
            rate: DataRate::B1,
            fer: 0.01,
        };
        cfg.client_cooperation = coop;
        shortened(cfg, 12)
    };
    let uncooperative = run(&base(false));
    let cooperative = run(&base(true));
    assert!(
        uncooperative.nodes[1].occupancy_share > 0.8,
        "unregulated slow node should hog: {}",
        uncooperative.nodes[1].occupancy_share
    );
    assert!(
        cooperative.nodes[1].occupancy_share < 0.68,
        "cooperating slow node should be held near half: {}",
        cooperative.nodes[1].occupancy_share
    );
    assert!(cooperative.total_goodput_mbps > 1.7 * uncooperative.total_goodput_mbps);
}

#[test]
fn mixed_bg_cell_motivation() {
    // §1/§7: an 802.11g node in a b/g cell is dragged to the slowest
    // node's throughput under DCF; TBR restores most of its advantage.
    let normal = run(&shortened(
        scenarios::mixed_bg(SchedulerKind::RoundRobin),
        12,
    ));
    let tbr = run(&shortened(scenarios::mixed_bg(SchedulerKind::tbr()), 12));
    let g_normal = normal.flows[0].goodput_mbps;
    let b1_normal = normal.flows[2].goodput_mbps;
    assert!(
        (g_normal / b1_normal - 1.0).abs() < 0.2,
        "g {g_normal} vs b1 {b1_normal} should be equal under DCF"
    );
    assert!(
        tbr.flows[0].goodput_mbps > 3.0 * g_normal,
        "TBR should liberate the g node: {} vs {}",
        tbr.flows[0].goodput_mbps,
        g_normal
    );
    assert!(tbr.total_goodput_mbps > 2.0 * normal.total_goodput_mbps);
}

#[test]
fn runs_are_deterministic() {
    let cfg = shortened(
        scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::tbr()),
        8,
    );
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.flows[0].goodput_bytes, b.flows[0].goodput_bytes);
    assert_eq!(a.flows[1].goodput_bytes, b.flows[1].goodput_bytes);
    assert_eq!(a.mac.attempts, b.mac.attempts);
    let mut c = cfg.clone();
    c.seed = 999;
    let d = run(&c);
    assert_ne!(a.mac.attempts, d.mac.attempts);
}

#[test]
fn txop_grants_equal_airtime_downlink() {
    // The §4.5 802.11e-style alternative: TXOP channel-time grants
    // achieve the same downlink liberation as TBR.
    let txop = run(&shortened(
        scenarios::downloaders(&[DataRate::B11, DataRate::B1], SchedulerKind::txop()),
        15,
    ));
    assert!(
        (txop.nodes[0].occupancy_share - 0.5).abs() < 0.08,
        "occupancy {:?}",
        txop.nodes
            .iter()
            .map(|n| n.occupancy_share)
            .collect::<Vec<_>>()
    );
    assert!(
        txop.total_goodput_mbps > 2.5,
        "total {}",
        txop.total_goodput_mbps
    );
    // And it costs nothing at equal rates.
    let equal = run(&shortened(
        scenarios::downloaders(&[DataRate::B11, DataRate::B11], SchedulerKind::txop()),
        12,
    ));
    assert!((equal.total_goodput_mbps - 5.1).abs() < 0.4);
}

#[test]
fn tbr_with_red_buffering_still_time_fair() {
    // §4.1: TBR works with any buffering scheme. Swap drop-tail for
    // RED and check the 1vs11 downlink result still holds.
    use airtime_core::{BufferPolicy, RedConfig};
    use airtime_sched::TbrConfig;
    let tc = TbrConfig {
        buffer: BufferPolicy::Red(RedConfig::default()),
        ..TbrConfig::default()
    };
    let red = run(&shortened(
        scenarios::downloaders(&[DataRate::B11, DataRate::B1], SchedulerKind::Tbr(tc)),
        15,
    ));
    assert!(
        (red.nodes[0].occupancy_share - 0.5).abs() < 0.08,
        "occupancy {:?}",
        red.nodes
            .iter()
            .map(|n| n.occupancy_share)
            .collect::<Vec<_>>()
    );
    assert!(
        red.total_goodput_mbps > 2.5,
        "total {}",
        red.total_goodput_mbps
    );
    // RED actually dropped early (it is doing something).
    assert!(red.sched_drops > 0, "expected early drops under RED");
}

#[test]
fn short_term_fairness_improves_with_smaller_bucket() {
    // §4.5: the bucket bounds burst length; a smaller bucket gives
    // better short-term airtime fairness. Measured with the Koksal-
    // style windowed Jain index over the frame trace.
    use airtime_sched::TbrConfig;
    use airtime_sim::SimDuration as D;
    // The measurement window must exceed the burst a large bucket can
    // produce (a 300 ms bucket lets the 1M node hold ~23 consecutive
    // 13 ms frames), or monopolised windows are skipped as single-user.
    let jain_for = |bucket_ms: u64| {
        let tc = TbrConfig {
            bucket: D::from_millis(bucket_ms),
            initial_tokens: D::from_millis(bucket_ms.min(5)),
            ..TbrConfig::default()
        };
        let mut cfg =
            scenarios::downloaders(&[DataRate::B11, DataRate::B1], SchedulerKind::Tbr(tc));
        cfg.record_trace = true;
        let r = run(&shortened(cfg, 15));
        let tl = airtime_trace::airtime_fairness_timeline(
            r.trace.as_ref().unwrap(),
            D::from_millis(750),
        );
        let vals: Vec<f64> = tl.into_iter().flatten().collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let small = jain_for(5);
    let large = jain_for(300);
    // Under steady saturation the slow node lives in token deficit and
    // rarely gets to burst a full bucket, so the effect is directional
    // but small; on/off traffic widens it (§4.5).
    assert!(
        small > large + 0.002,
        "short-term fairness should improve with a smaller bucket: {small} vs {large}"
    );
}

#[test]
fn drr_scheduler_runs_and_is_throughput_fair() {
    let cfg = shortened(
        scenarios::downloaders(&[DataRate::B11, DataRate::B1], SchedulerKind::Drr),
        12,
    );
    let r = run(&cfg);
    let ratio = r.flows[0].goodput_mbps / r.flows[1].goodput_mbps;
    assert!((0.8..1.25).contains(&ratio), "DRR split {ratio}");
    assert!(
        r.total_goodput_mbps < 1.7,
        "throughput-fair collapse expected"
    );
}

#[test]
fn uplink_loss_estimator_narrows_accounting_bias() {
    // §4.2: without retry info TBR under-bills lossy slow uplinks; the
    // proposed downlink-loss heuristic should recover most of the gap
    // to exact accounting.
    let occ_slow = |retry_info: bool, estimator: bool| {
        let mut cfg = scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::tbr());
        cfg.uplink_retry_info = retry_info;
        cfg.uplink_loss_estimator = estimator;
        cfg.stations[1].link = airtime_wlan::LinkSpec::Fixed {
            rate: DataRate::B1,
            fer: 0.25,
        };
        run(&shortened(cfg, 15)).nodes[1].occupancy_share
    };
    let naive = occ_slow(false, false);
    let heuristic = occ_slow(false, true);
    let exact = occ_slow(true, false);
    assert!(
        naive > exact + 0.03,
        "the bias must exist to be fixed: naive {naive} exact {exact}"
    );
    assert!(
        heuristic < naive - 0.02,
        "estimator should reduce the slow node's excess share: {heuristic} vs {naive}"
    );
    assert!(
        (heuristic - exact).abs() < (naive - exact).abs(),
        "estimator should land closer to exact: {heuristic} vs naive {naive}, exact {exact}"
    );
}

#[test]
fn per_flow_regulation_splits_by_flow_count() {
    // §4.5: regulate flows instead of stations. Station A runs two
    // downlink TCP flows, station B one, all at 11 Mbit/s. Per-station
    // TBR gives the stations equal airtime; per-flow TBR gives station
    // A two thirds.
    use airtime_wlan::{FlowSpec, LinkSpec, NetworkConfig, Regulate, StationConfig};
    let build = |regulate| {
        let mk = |nflows: usize| StationConfig {
            link: LinkSpec::Fixed {
                rate: DataRate::B11,
                fer: 0.01,
            },
            flows: vec![FlowSpec::tcp(Direction::Downlink); nflows],
            weight: 1.0,
        };
        let mut cfg = NetworkConfig::new(vec![mk(2), mk(1)], SchedulerKind::tbr());
        cfg.regulate = regulate;
        shortened(cfg, 15)
    };
    let per_station = run(&build(Regulate::PerStation));
    let per_flow = run(&build(Regulate::PerFlow));
    let share_a = |r: &airtime_wlan::Report| r.nodes[0].occupancy_share;
    assert!(
        (share_a(&per_station) - 0.5).abs() < 0.06,
        "per-station share {}",
        share_a(&per_station)
    );
    assert!(
        (share_a(&per_flow) - 2.0 / 3.0).abs() < 0.06,
        "per-flow share {}",
        share_a(&per_flow)
    );
    // Within station A, the two flows split evenly either way.
    let fa = per_flow.flows[0].goodput_mbps;
    let fb = per_flow.flows[1].goodput_mbps;
    assert!(
        (fa / fb - 1.0).abs() < 0.15,
        "intra-station split {fa}/{fb}"
    );
}

#[test]
fn latency_baseline_property_under_tf() {
    // §2.1: "The same statement can be made for other performance
    // measures such as per-packet latency." Under TBR, the slow node's
    // downlink packet latency in a mixed cell matches its latency in an
    // all-slow cell; under a stock AP the fast node's latency balloons.
    let p50 = |rates: &[DataRate], sched: SchedulerKind, flow: usize| {
        let r = run(&shortened(scenarios::downloaders(rates, sched), 15));
        r.flows[flow].latency_p50_ms.expect("data delivered")
    };
    let slow_mixed = p50(&[DataRate::B11, DataRate::B1], SchedulerKind::tbr(), 1);
    let slow_own = p50(&[DataRate::B1, DataRate::B1], SchedulerKind::tbr(), 1);
    let rel = (slow_mixed - slow_own).abs() / slow_own;
    assert!(
        rel < 0.30,
        "slow node latency should match its own-kind cell: {slow_mixed} vs {slow_own}"
    );
    // And the anomaly in latency form: the fast node's latency under a
    // stock AP in a mixed cell is far worse than under TBR.
    let fast_rf = p50(&[DataRate::B11, DataRate::B1], SchedulerKind::RoundRobin, 0);
    let fast_tf = p50(&[DataRate::B11, DataRate::B1], SchedulerKind::tbr(), 0);
    assert!(
        fast_rf > 2.0 * fast_tf,
        "stock AP should inflate the fast node's latency: {fast_rf} vs {fast_tf}"
    );
}

#[test]
fn mixed_updown_directions_similar_results() {
    // §5: "We also ran experiments involving mixed up-link and
    // down-link TCP flows and found similar results (not shown here)."
    // Fast node downloads while the slow node uploads; TBR still
    // roughly doubles the aggregate and the airtime split approaches
    // equal shares.
    use airtime_wlan::StationConfig;
    let build = |sched| {
        let stations = vec![
            StationConfig::tcp_at(DataRate::B11, Direction::Downlink),
            StationConfig::tcp_at(DataRate::B1, Direction::Uplink),
        ];
        shortened(NetworkConfig::new(stations, sched), 20)
    };
    let normal = run(&build(SchedulerKind::Fifo));
    let tbr = run(&build(SchedulerKind::tbr()));
    let gain = tbr.total_goodput_mbps / normal.total_goodput_mbps - 1.0;
    assert!(
        (0.5..1.5).contains(&gain),
        "mixed-direction TBR gain {gain}"
    );
    assert!(
        tbr.nodes[0].occupancy_share > 0.35,
        "fast node's share {}",
        tbr.nodes[0].occupancy_share
    );
}

#[test]
fn hotspot_short_flows_expose_tbr_responsiveness_gap() {
    // §4.5: "congestion in hotspot access networks may be caused by
    // many short-lived flows ... We plan to ... make TBR responsive for
    // very short-lived flows as well." Our measurement confirms the
    // concern is real: with sparse, staggered 50 kB tasks, a lone
    // active flow only holds its 1/n token rate until ADJUSTRATEEVENT
    // reacts, so mean completion time regresses vs a stock AP — and a
    // faster adjustment period recovers part of the gap, which is the
    // paper's proposed direction.
    use airtime_sched::TbrConfig;
    use airtime_sim::SimDuration as D;
    let mk = |sched| {
        scenarios::hotspot_short_flows(
            &[DataRate::B11, DataRate::B11, DataRate::B1],
            50_000,
            6,
            D::from_millis(700),
            sched,
        )
    };
    let rf = run(&mk(SchedulerKind::RoundRobin));
    let tf_slow_adjust = run(&mk(SchedulerKind::tbr()));
    let tf_fast_adjust = run(&mk(SchedulerKind::Tbr(TbrConfig {
        adjust_period: D::from_millis(100),
        ..TbrConfig::default()
    })));
    for (label, r) in [
        ("RF", &rf),
        ("TF", &tf_slow_adjust),
        ("TF-fast", &tf_fast_adjust),
    ] {
        for f in &r.flows {
            assert!(
                f.completion.is_some(),
                "{label}: flow {} never completed",
                f.flow
            );
        }
    }
    let rf_avg = rf.avg_task_time().unwrap().as_secs_f64();
    let tf_avg = tf_slow_adjust.avg_task_time().unwrap().as_secs_f64();
    let tf_fast = tf_fast_adjust.avg_task_time().unwrap().as_secs_f64();
    assert!(
        tf_avg > rf_avg,
        "the responsiveness gap should be measurable: tf {tf_avg} vs rf {rf_avg}"
    );
    assert!(
        tf_fast < tf_avg,
        "faster adjustment should narrow the gap: {tf_fast} vs {tf_avg}"
    );
}
