//! The cell engine pumps a flow only when something its pump reads may
//! have changed (see the settle contract on `wlan::Sim::step`). Each
//! cell below leans on one of the marks that contract lists, and its
//! report is pinned to the digest the engine produced when it still
//! pumped every flow after every dispatch:
//!
//! - under fifo every key reads the one shared queue, so a dequeue of
//!   any key must wake every flow — here a paced flow 0 whose tokens
//!   wait for room behind saturating flows;
//! - greedy and application-limited TCP, downlink and uplink, woken by
//!   acks, retransmission timers and pacing `Pump` events;
//! - paced UDP uplink that outruns its station's share, so its
//!   interface queue fills and only a pop from it makes room.

use airtime::phy::DataRate;
use airtime::sim::SimDuration;
use airtime::wlan::{
    run, Direction, FlowSpec, LinkSpec, NetworkConfig, Report, SchedulerKind, StationConfig,
};

fn station(rate: DataRate, flow: FlowSpec) -> StationConfig {
    StationConfig {
        link: LinkSpec::Fixed { rate, fer: 0.01 },
        flows: vec![flow],
        weight: 1.0,
    }
}

fn paced(mut flow: FlowSpec, bps: f64) -> FlowSpec {
    flow.rate_limit_bps = Some(bps);
    flow
}

fn cell(stations: Vec<StationConfig>, scheduler: SchedulerKind) -> NetworkConfig {
    let mut cfg = NetworkConfig::new(stations, scheduler);
    cfg.duration = SimDuration::from_secs(6);
    cfg.warmup = SimDuration::from_secs(1);
    cfg
}

/// The pinned cells, as `(label, config)`.
fn cells() -> Vec<(&'static str, NetworkConfig)> {
    use DataRate::{B1, B11, B2, B5_5};
    use Direction::{Downlink, Uplink};
    let udp_down = FlowSpec::udp(Downlink);
    let tcp_down = FlowSpec::tcp(Downlink);
    let tcp_up = FlowSpec::tcp(Uplink);
    vec![
        (
            "fifo, paced flow 0 ahead of saturating flows",
            cell(
                vec![
                    station(B11, paced(udp_down.clone(), 1.5e6)),
                    station(B11, udp_down.clone()),
                    station(B5_5, udp_down.clone()),
                    station(B2, udp_down.clone()),
                    station(B1, udp_down),
                ],
                SchedulerKind::Fifo,
            ),
        ),
        (
            "tbr, greedy and app-limited tcp down",
            cell(
                vec![
                    station(B11, tcp_down.clone()),
                    station(B11, paced(tcp_down.clone(), 0.6e6)),
                    station(B1, tcp_down.clone()),
                ],
                SchedulerKind::tbr(),
            ),
        ),
        (
            "rr, greedy and app-limited tcp up",
            cell(
                vec![
                    station(B11, tcp_up.clone()),
                    station(B11, paced(tcp_up.clone(), 0.5e6)),
                    station(B2, tcp_up),
                ],
                SchedulerKind::RoundRobin,
            ),
        ),
        (
            "fifo, tcp both ways with an app-limited uploader",
            cell(
                vec![
                    station(B11, tcp_down),
                    station(B5_5, paced(FlowSpec::tcp(Uplink), 0.3e6)),
                    station(B1, FlowSpec::tcp(Uplink)),
                ],
                SchedulerKind::Fifo,
            ),
        ),
        ("tbr, paced udp up beyond each station's share", {
            let mut cfg = cell(
                vec![
                    station(B11, paced(FlowSpec::udp(Uplink), 4e6)),
                    station(B2, paced(FlowSpec::udp(Uplink), 4e6)),
                    station(B1, paced(FlowSpec::udp(Uplink), 0.3e6)),
                ],
                SchedulerKind::tbr(),
            );
            // Two-packet interface queues: the MAC idles unless a pop
            // refills the queue at once.
            cfg.client_queue_cap = 2;
            cfg
        }),
    ]
}

/// FNV-1a digests of each cell's Debug-rendered report, in `cells()`
/// order, taken while the engine pumped every flow after every
/// dispatch.
const PINNED: [u64; 5] = [
    0x34cc_c99b_e1d4_38a7,
    0x6110_bcec_ac38_010f,
    0x7159_af7e_e566_0edb,
    0xdf0e_3061_8795_2a1b,
    0xb40b_255c_c19b_dfc9,
];

fn digest(report: &Report) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn pumping_only_touched_flows_reports_what_pumping_every_flow_did() {
    let mut moved = Vec::new();
    for ((label, cfg), pinned) in cells().into_iter().zip(PINNED) {
        let report = run(&cfg);
        assert!(
            report.flows[..2].iter().all(|f| f.goodput_bytes > 0),
            "{label}: the first two flows must both deliver"
        );
        let got = digest(&report);
        if got != pinned {
            let mbps: Vec<String> = report
                .flows
                .iter()
                .map(|f| format!("{:.3}", f.goodput_mbps))
                .collect();
            moved.push(format!(
                "{label}: digest {got:#018x}, goodput [{}] Mb/s",
                mbps.join(", ")
            ));
        }
    }
    assert!(moved.is_empty(), "reports moved:\n{}", moved.join("\n"));
}
