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
//!   full queue, and report exactly what they reported then, drops
//!   included.

use airtime::core::{BufferPolicy, RedConfig};
use airtime::sched::TbrConfig;
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

/// `(row, sched_drops, report digest)` of the rows that must keep
/// offering into a full queue, taken with the same engine.
const KEPT: [(&str, u64, u64); 3] = [
    ("paced", 7_496, 0xadb4_7408_8046_d579),
    ("bounded", 31_312, 0x05f5_9784_eab8_db92),
    ("red", 46_288, 0x985a_277e_9d2d_6e9b),
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
    let with_flows = |mut cfg: NetworkConfig, edit: &dyn Fn(&mut airtime::wlan::FlowSpec)| {
        cfg.stations
            .iter_mut()
            .flat_map(|s| s.flows.iter_mut())
            .for_each(edit);
        cfg
    };
    // 32 × 1 Mbit/s and 32 × 50 MB both outrun the cell, so every queue
    // fills and stays full.
    let paced = with_flows(cell("rr"), &|f| f.rate_limit_bps = Some(1e6));
    let bounded = with_flows(cell("rr"), &|f| f.task_bytes = Some(50_000_000));
    let mut red = cell("tbr");
    red.scheduler = SchedulerKind::Tbr(TbrConfig {
        buffer: BufferPolicy::Red(RedConfig::default()),
        ..TbrConfig::default()
    });
    vec![("paced", paced), ("bounded", bounded), ("red", red)]
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
