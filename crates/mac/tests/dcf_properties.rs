//! Randomized DCF invariants: over random station counts, rates, frame
//! sizes and loss rates, the MAC must conserve airtime, never deliver
//! more than it attempts, and replay identically per seed.

use airtime_mac::{DcfConfig, DcfWorld, Frame, MacEffect, MacEvent, NodeId};
use airtime_phy::{DataRate, LinkErrorModel, Phy80211b};
use airtime_sim::{EventQueue, SimRng, SimTime};

const AP: NodeId = NodeId(0);

#[derive(Clone, Debug)]
struct Station {
    rate: DataRate,
    bytes: u64,
    fer: f64,
}

fn random_station(rng: &mut SimRng) -> Station {
    Station {
        rate: DataRate::ALL_B[rng.below(DataRate::ALL_B.len() as u64) as usize],
        bytes: rng.range_inclusive(100, 1499),
        fer: rng.unit() * 0.6,
    }
}

fn random_cell(rng: &mut SimRng, max_n: u64) -> Vec<Station> {
    let n = rng.range_inclusive(1, max_n);
    (0..n).map(|_| random_station(rng)).collect()
}

/// Runs a saturated cell for one simulated second; returns
/// (delivered, attempts, collisions, Σ client occupancy ns, wall ns,
/// busy ns).
fn run_cell(stations: &[Station], seed: u64) -> (u64, u64, u64, u64, u64, u64) {
    let n = stations.len();
    let mut links = vec![LinkErrorModel::Perfect];
    links.extend(stations.iter().map(|s| LinkErrorModel::FixedFer(s.fer)));
    let mut world = DcfWorld::new(
        DcfConfig {
            phy: Phy80211b::default(),
            ap: AP,
            retry_rate_fallback: false,
            rts_threshold: None,
        },
        links,
        SimRng::new(seed),
    );
    let mut queue: EventQueue<MacEvent> = EventQueue::new();
    let end = SimTime::from_secs(1);
    let mut handle = 0u64;
    let mut now = SimTime::ZERO;
    let mut top_up = |world: &mut DcfWorld, queue: &mut EventQueue<MacEvent>, now: SimTime| {
        for (i, st) in stations.iter().enumerate() {
            let node = NodeId(i + 1);
            if world.can_accept(node) {
                let frame = Frame {
                    src: node,
                    dst: AP,
                    msdu_bytes: st.bytes,
                    rate: st.rate,
                    handle,
                };
                handle += 1;
                let mut fx = Vec::new();
                if world.offer_frame(now, frame, &mut fx).is_ok() {
                    for e in fx {
                        if let MacEffect::Schedule { at, event } = e {
                            queue.schedule(at, event);
                        }
                    }
                }
            }
        }
    };
    top_up(&mut world, &mut queue, now);
    while let Some((t, ev)) = queue.pop() {
        if t > end {
            break;
        }
        now = t;
        let mut fx = Vec::new();
        world.handle(t, ev, &mut fx);
        for e in fx {
            if let MacEffect::Schedule { at, event } = e {
                queue.schedule(at, event);
            }
        }
        top_up(&mut world, &mut queue, now);
    }
    let stats = world.stats();
    let occ: u64 = (1..=n).map(|i| world.occupancy(NodeId(i)).as_nanos()).sum();
    (
        stats.delivered,
        stats.attempts,
        stats.collision_events,
        occ,
        now.as_nanos().max(1),
        world.busy_time().as_nanos(),
    )
}

#[test]
fn dcf_invariants_hold() {
    let mut gen = SimRng::new(0xDCF0);
    for case in 0..24 {
        let stations = random_cell(&mut gen, 4);
        let seed = gen.below(1000);
        let (delivered, attempts, collisions, occ, wall, busy) = run_cell(&stations, seed);
        assert!(
            delivered <= attempts,
            "case {case}: delivered {delivered} > attempts {attempts}"
        );
        assert!(attempts > 0, "case {case}: a saturated cell must transmit");
        // Busy time never exceeds wall time.
        assert!(busy <= wall + 1, "case {case}: busy {busy} > wall {wall}");
        // Client occupancy = busy + per-attempt DIFS accounting: it can
        // exceed medium busy time by exactly the DIFS charged per
        // attempt (plus one in-flight frame of slack).
        // Colliding attempts are each charged their own span while the
        // medium is busy only for the longest one (documented in the
        // MAC), so allow one exchange of slack per collision event.
        let slack = 20_000_000u64 * (collisions + 1);
        let difs_total = attempts * 50_000;
        assert!(
            occ <= busy + difs_total + slack,
            "case {case}: occ {occ} busy {busy} difs {difs_total} collisions {collisions}"
        );
        // A saturated channel does real work. (High loss rates escalate
        // the contention window, so "mostly busy" is not guaranteed —
        // a 60%-loss station legitimately spends most of its time in
        // backoff.)
        assert!(busy * 10 >= wall, "case {case}: busy {busy} wall {wall}");
    }
}

#[test]
fn dcf_is_deterministic_per_seed() {
    let mut gen = SimRng::new(0xDCF1);
    for case in 0..12 {
        let stations = random_cell(&mut gen, 3);
        let seed = gen.below(100);
        let a = run_cell(&stations, seed);
        let b = run_cell(&stations, seed);
        assert_eq!(a, b, "case {case} not reproducible");
    }
}
