//! Co-channel topology regression: four APs on channels 1/6/1/6 with
//! crossing walkers (`examples/scenarios/cochannel_walkers.toml`, the
//! layout of the benchmark's topo-cochannel workload).
//!
//! Carrier sense between same-channel cells is the topology engine's
//! hottest path: every exchange is mirrored into the neighbour cell as
//! a defer. These tests pin what the mirror must not change — the
//! reports, under every queue backend and tick mode, and per-cell
//! airtime conservation — and what it must cost: at most one expiry
//! timer per mirrored window, so `mac.defer_expired` never outnumbers
//! `mac.tx_end`.

use airtime::obs::{AirtimeLedger, NullObserver};
use airtime::sim::QueueBackend;
use airtime::topo::{run_topology, run_topology_profiled, TopoReport, TopologyConfig};

const SCENARIO: &str = include_str!("../examples/scenarios/cochannel_walkers.toml");

/// FNV-1a digest over the Debug rendering of every job's report, in
/// matrix order. Taken with one `set_defer` per station, so it also
/// shows that the cell-wide defer left these reports unchanged.
const GOLDEN_DIGEST: u64 = 0x9e05_ad2d_7963_83ba;

/// The scenario's sweep matrix (rr/tbr × up/down), as topology configs.
fn jobs() -> Vec<(String, TopologyConfig)> {
    let doc = airtime::scenario::parse_text(SCENARIO, "cochannel_walkers.toml").unwrap();
    let (_, jobs) = airtime::scenario::expand(&doc, "cochannel_walkers.toml").unwrap();
    assert_eq!(jobs.len(), 4);
    jobs.into_iter()
        .map(|j| {
            let label: Vec<String> = j.coords.iter().map(|(_, v)| v.clone()).collect();
            let topo = j.spec.topo.expect("the scenario declares [[cells]]");
            (label.join("/"), topo)
        })
        .collect()
}

fn plain_run(topo: &TopologyConfig) -> TopoReport {
    let mut obs = vec![NullObserver; topo.cells.len()];
    run_topology(topo, &mut obs)
}

fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn cochannel_reports_are_pinned_and_combo_independent() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for (label, topo) in jobs() {
        let reference = format!("{:?}", plain_run(&topo));
        for backend in [QueueBackend::Heap, QueueBackend::Wheel] {
            for coalesce in [false, true] {
                let mut combo = topo.clone();
                combo.base.queue_backend = backend;
                combo.base.coalesce_ticks = coalesce;
                assert!(
                    format!("{:?}", plain_run(&combo)) == reference,
                    "{label}: report diverged under {backend:?}, coalesce {coalesce}"
                );
            }
        }
        digest = fnv1a(digest, reference.as_bytes());
    }
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "co-channel report digest moved: {digest:#018x}"
    );
}

#[test]
fn cochannel_cells_conserve_airtime() {
    for (label, topo) in jobs() {
        let mut ledgers = vec![AirtimeLedger::new(); topo.cells.len()];
        let report = run_topology(&topo, &mut ledgers);
        assert!(
            report.roaming.handoffs.len() >= 2,
            "{label}: both walkers must hand off"
        );
        for (c, ledger) in ledgers.iter().enumerate() {
            let audit = ledger.audit();
            assert!(audit.conserved, "{label}: cell {c} audit failed:\n{audit}");
        }
    }
}

#[test]
fn one_expiry_timer_per_mirrored_window() {
    for (label, topo) in jobs() {
        let mut obs = vec![NullObserver; topo.cells.len()];
        let (_, profile) = run_topology_profiled(&topo, &mut obs);
        let count = |name: &str| {
            profile
                .labels
                .iter()
                .find(|(l, _)| *l == name)
                .map_or(0, |(_, h)| h.count())
        };
        let (expiries, tx_ends) = (count("mac.defer_expired"), count("mac.tx_end"));
        assert!(tx_ends > 1000, "{label}: only {tx_ends} exchanges");
        assert!(
            expiries <= tx_ends,
            "{label}: {expiries} defer expiries against {tx_ends} exchanges"
        );
    }
}
