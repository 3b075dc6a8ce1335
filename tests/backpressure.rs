//! Back-pressure on saturated UDP downlink: a shortened 32-station cell
//! of the benchmark's cell-udp-dense mix (11/5.5/2/1 Mbit/s, 100-packet
//! AP buffer, so 3 packets per station queue) over every scheduler
//! family.
//!
//! A saturating source asks `ApScheduler::would_accept` before it
//! generates a datagram, so a full drop-tail queue costs no offer and
//! no drop. These tests pin what that must and must not change:
//!
//! - under drop-tail the AP drops nothing;
//! - every report, `sched_drops` aside, is what the engine reported
//!   when each loop step still offered one doomed datagram per full
//!   queue;
//! - the sources whose drops change state — a paced source (the offer
//!   spends limiter tokens), a bounded task (it spends task bytes) and
//!   a RED pool (the drop resets RED's history) — still offer into a
//!   full queue, but only when their flow is touched (its queue
//!   drained, a pacing timer fired), never once per loop step;
//! - so each of those source kinds reports the same under both queue
//!   backends and both tick modes, over every family it runs under;
//! - a RED drop into an empty queue, which no dequeue will follow,
//!   does not leave its source waiting forever.

use airtime::core::{BufferPolicy, RedConfig};
use airtime::sched::{MaxMinConfig, PfConfig, TbrConfig, TxopConfig};
use airtime::sim::QueueBackend;
use airtime::wlan::{run, NetworkConfig, Report, SchedulerKind};

const SCENARIO: &str = "\
name = \"backpressure\"
seed = 1
duration_s = 3
warmup_s = 1
direction = \"down\"
station_count = 32

[scheduler]
kind = \"fifo\"

[[station]]
rate = \"11\"
transport = \"udp\"

[[station]]
rate = \"5.5\"
transport = \"udp\"

[[station]]
rate = \"2\"
transport = \"udp\"

[[station]]
rate = \"1\"
transport = \"udp\"

[sweep]
scheduler = [\"fifo\", \"rr\", \"drr\", \"tbr\", \"txop\", \"pf\", \"maxmin\"]
";

/// FNV-1a digest over the Debug rendering of the seven family reports
/// with `sched_drops` zeroed, in sweep order. Taken while every loop
/// step still offered one doomed datagram per full queue.
const FAMILY_DIGEST: u64 = 0xab3b_a767_f15b_0905;

/// `(row, sched_drops, report digest)` of the rows that keep offering
/// into a full queue. The paced row was taken with the engine that
/// pumped every flow after every dispatch; a paced source offers only
/// when its pacing timer fires, so it reads the same now. The bounded
/// and RED rows were taken once a full queue's source offered only
/// when touched (they read 31,312 and 46,288 drops while every loop
/// step offered).
const KEPT: [(&str, u64, u64); 3] = [
    ("paced", 7_496, 0xadb4_7408_8046_d579),
    ("bounded", 975, 0x4057_d93e_33ec_c313),
    ("red", 1_435, 0x0cbe_1275_609a_ab14),
];

/// The sweep's seven cells, one per family, as `(family, config)`.
fn family_cells() -> Vec<(String, NetworkConfig)> {
    let doc = airtime::scenario::parse_text(SCENARIO, "backpressure.toml").unwrap();
    let (_, jobs) = airtime::scenario::expand(&doc, "backpressure.toml").unwrap();
    assert_eq!(jobs.len(), 7);
    jobs.into_iter()
        .map(|j| (j.coords[0].1.clone(), j.spec.cfg))
        .collect()
}

/// The cells whose offers into a full queue change state: the rr cell
/// with paced sources, the rr cell with bounded tasks, and a tbr cell
/// over a RED pool.
fn kept_cells() -> Vec<(&'static str, NetworkConfig)> {
    let cells = family_cells();
    let cell = |family: &str| {
        let (_, cfg) = cells.iter().find(|(f, _)| f == family).unwrap();
        cfg.clone()
    };
    vec![
        ("paced", paced(cell("rr"))),
        ("bounded", bounded(cell("rr"))),
        ("red", over_red(cell("tbr")).unwrap()),
    ]
}

/// 32 × 1 Mbit/s outruns the cell, so every queue fills and stays
/// full.
fn paced(cfg: NetworkConfig) -> NetworkConfig {
    with_flows(cfg, &|f| f.rate_limit_bps = Some(1e6))
}

/// 32 × 50 MB outruns the 3 s cell just as well.
fn bounded(cfg: NetworkConfig) -> NetworkConfig {
    with_flows(cfg, &|f| f.task_bytes = Some(50_000_000))
}

/// Applies `edit` to every flow of `cfg`.
fn with_flows(
    mut cfg: NetworkConfig,
    edit: &dyn Fn(&mut airtime::wlan::FlowSpec),
) -> NetworkConfig {
    cfg.stations
        .iter_mut()
        .flat_map(|s| s.flows.iter_mut())
        .for_each(edit);
    cfg
}

/// `cfg` over a RED pool, or `None` for a family whose pool takes no
/// buffer policy (fifo, rr, drr are drop-tail only).
fn over_red(mut cfg: NetworkConfig) -> Option<NetworkConfig> {
    let buffer = BufferPolicy::Red(RedConfig::default());
    cfg.scheduler = match cfg.scheduler {
        SchedulerKind::Tbr(c) => SchedulerKind::Tbr(TbrConfig { buffer, ..c }),
        SchedulerKind::Txop(c) => SchedulerKind::Txop(TxopConfig { buffer, ..c }),
        SchedulerKind::Pf(c) => SchedulerKind::Pf(PfConfig { buffer, ..c }),
        SchedulerKind::MaxMin(c) => SchedulerKind::MaxMin(MaxMinConfig { buffer, ..c }),
        SchedulerKind::Fifo | SchedulerKind::RoundRobin | SchedulerKind::Drr => return None,
    };
    Some(cfg)
}

fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest(report: &Report) -> u64 {
    fnv1a(FNV_OFFSET, format!("{report:?}").as_bytes())
}

#[test]
fn saturated_drop_tail_queues_take_no_doomed_offer() {
    let mut family_digest = FNV_OFFSET;
    for (family, cfg) in family_cells() {
        let mut report = run(&cfg);
        assert_eq!(
            report.sched_drops, 0,
            "{family}: a saturating source offered into a full drop-tail queue"
        );
        assert!(report.total_goodput_mbps > 1.0, "{family}: cell idle");
        report.sched_drops = 0;
        family_digest = fnv1a(family_digest, format!("{report:?}").as_bytes());
    }
    assert_eq!(
        family_digest, FAMILY_DIGEST,
        "family reports moved: {family_digest:#018x}"
    );
}

#[test]
fn paced_bounded_and_red_sources_still_offer_into_a_full_queue() {
    for ((row, cfg), (pinned_row, drops, report_digest)) in kept_cells().into_iter().zip(KEPT) {
        assert_eq!(row, pinned_row);
        let report = run(&cfg);
        assert!(report.sched_drops > 0, "{row}: its queues never filled");
        assert_eq!(
            (report.sched_drops, digest(&report)),
            (drops, report_digest),
            "{row}: report moved (digest {:#018x})",
            digest(&report)
        );
    }
}

#[test]
fn every_source_kind_reports_the_same_under_every_backend_and_tick_mode() {
    let mut cells = Vec::new();
    for (family, cfg) in family_cells() {
        cells.push((format!("paced {family}"), paced(cfg.clone())));
        cells.push((format!("bounded {family}"), bounded(cfg.clone())));
        if let Some(red) = over_red(cfg) {
            cells.push((format!("red {family}"), red));
        }
    }
    assert_eq!(cells.len(), 18);
    for (label, cfg) in cells {
        let mut reference = None;
        for backend in [QueueBackend::Heap, QueueBackend::Wheel] {
            for coalesce in [false, true] {
                let mut combo = cfg.clone();
                combo.queue_backend = backend;
                combo.coalesce_ticks = coalesce;
                let report = format!("{:?}", run(&combo));
                let reference = reference.get_or_insert_with(|| report.clone());
                assert!(
                    *reference == report,
                    "{label}: report diverged under {backend:?}, coalesce {coalesce}"
                );
            }
        }
    }
}

/// A RED pool drops early, so unlike drop-tail it can drop an offer
/// into an empty queue, where no dequeue will come to wake the source.
/// With a slow average (the classic weight 0.002) the average lags a
/// draining queue by hundreds of arrivals; a source that waited to be
/// woken after such a drop would never offer again.
#[test]
fn an_early_drop_into_an_empty_queue_does_not_strand_its_source() {
    use airtime::phy::DataRate;
    use airtime::sim::SimDuration;
    use airtime::wlan::{Direction, FlowSpec, LinkSpec, StationConfig};
    let station = |rate| StationConfig {
        link: LinkSpec::Fixed { rate, fer: 0.01 },
        flows: vec![FlowSpec::udp(Direction::Downlink)],
        weight: 1.0,
    };
    let mut cfg = NetworkConfig::new(
        vec![station(DataRate::B11), station(DataRate::B1)],
        SchedulerKind::Tbr(TbrConfig {
            buffer: BufferPolicy::Red(RedConfig {
                weight: 0.002,
                ..RedConfig::default()
            }),
            ..TbrConfig::default()
        }),
    );
    cfg.duration = SimDuration::from_secs(6);
    cfg.warmup = SimDuration::from_secs(1);
    let report = run(&cfg);
    let mbps: Vec<f64> = report.flows.iter().map(|f| f.goodput_mbps).collect();
    // TBR splits the air evenly: about 3 and 0.46 Mbit/s.
    assert!(
        mbps[0] > 2.5 && mbps[1] > 0.4,
        "a source stalled behind an early drop: {mbps:?} Mbit/s"
    );
}
