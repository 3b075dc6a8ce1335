//! Differential tests for the DCF world, each pairing two worlds that
//! must look the same from outside:
//!
//! - the cell-wide defer: a world that applies every co-channel busy
//!   window with one `DcfWorld::defer_all` call must behave exactly
//!   like a world that loops `set_defer` over every node;
//! - stations that never get a frame are invisible: a world with such
//!   stations appended — never offered a frame nor given a defer of
//!   their own, though every cell-wide defer covers them — must behave
//!   exactly like the world without them.
//!
//! Both worlds replay the same seeded random stream of frame offers,
//! per-station defers and cell-wide defers, each delivering its own due
//! events in time order. Everything the embedder can see except the
//! timer events themselves — attempts, deliveries, final outcomes,
//! backoff draws, airtime slices, the instants the medium turns busy,
//! and the closing statistics — must match. (A cell-wide defer may arm
//! an expiry timer in only one of the worlds: only there did some
//! station's defer grow.)

use airtime_mac::{DcfConfig, DcfWorld, Frame, MacEffect, MacEvent, NodeId};
use airtime_phy::{DataRate, LinkErrorModel, Phy80211b};
use airtime_sim::{EventQueue, SimDuration, SimRng, SimTime};

const AP: NodeId = NodeId(0);

/// Who offers frames in a case.
#[derive(Clone, Copy, Debug)]
enum Traffic {
    /// Only the AP: the downlink case, where the AP is the sole
    /// contender whenever a defer lands.
    Downlink,
    /// Only clients.
    Uplink,
    /// AP and clients alike.
    Mixed,
}

/// One world plus its timeline and everything it emitted.
struct Lane {
    world: DcfWorld,
    queue: EventQueue<MacEvent>,
    fx: Vec<MacEffect>,
    /// Every effect but `Schedule`, stamped with the time it was
    /// emitted.
    log: Vec<(SimTime, MacEffect)>,
    /// `(start, end)` of every busy period, recorded when it begins.
    accesses: Vec<(SimTime, SimTime)>,
    defer_expiries: u64,
}

impl Lane {
    fn new(links: &[LinkErrorModel], seed: u64) -> Self {
        let config = DcfConfig {
            phy: Phy80211b::default(),
            ap: AP,
            retry_rate_fallback: false,
            rts_threshold: None,
        };
        let mut world = DcfWorld::new(config, links.to_vec(), SimRng::new(seed));
        world.set_emit_backoff(true);
        world.set_emit_airtime(true);
        Lane {
            world,
            queue: EventQueue::new(),
            fx: Vec::new(),
            log: Vec::new(),
            accesses: Vec::new(),
            defer_expiries: 0,
        }
    }

    /// Runs `op` against the world and applies what it emitted at `now`.
    fn with(&mut self, now: SimTime, op: impl FnOnce(&mut DcfWorld, &mut Vec<MacEffect>)) {
        let was_busy = self.world.busy_until();
        op(&mut self.world, &mut self.fx);
        for e in self.fx.drain(..) {
            match e {
                MacEffect::Schedule { at, event } => self.queue.schedule(at, event),
                other => self.log.push((now, other)),
            }
        }
        if let (None, Some(end)) = (was_busy, self.world.busy_until()) {
            self.accesses.push((now, end));
        }
    }

    /// Delivers every due event before `t` (and at `t` when
    /// `inclusive`), earliest first.
    fn deliver_until(&mut self, t: SimTime, inclusive: bool) {
        while let Some(at) = self.queue.peek_time() {
            if at > t || (at == t && !inclusive) {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            if matches!(ev, MacEvent::DeferExpired { .. }) {
                self.defer_expiries += 1;
            }
            self.with(now, |w, fx| w.handle(now, ev, fx));
        }
    }
}

/// Replays one random case on both worlds and asserts they agree.
/// Returns `(cell-wide windows applied, expiry dispatches of the
/// defer_all world, expiry dispatches of the looping world)`.
fn run_case(case: u64, traffic: Traffic) -> (u64, u64, u64) {
    let mut gen = SimRng::new(0xDEF0_0000 + case);
    let n = gen.range_inclusive(2, 6) as usize;
    let mut links = vec![LinkErrorModel::Perfect];
    for _ in 1..n {
        links.push(if gen.chance(0.5) {
            LinkErrorModel::Perfect
        } else {
            LinkErrorModel::FixedFer(gen.unit() * 0.4)
        });
    }
    let seed = gen.below(1 << 32);
    let mut cellwide = Lane::new(&links, seed);
    let mut looping = Lane::new(&links, seed);

    let mut now = SimTime::ZERO;
    let mut handle = 0u64;
    let mut windows = 0u64;
    for _ in 0..400 {
        // Sometimes several operations share one instant.
        if !gen.chance(0.2) {
            now += SimDuration::from_micros(gen.below(600));
        }
        let inclusive = gen.chance(0.5);
        cellwide.deliver_until(now, inclusive);
        looping.deliver_until(now, inclusive);
        match gen.below(10) {
            0..=4 => {
                let src = match traffic {
                    Traffic::Downlink => 0,
                    Traffic::Uplink => gen.range_inclusive(1, n as u64 - 1) as usize,
                    Traffic::Mixed => gen.below(n as u64) as usize,
                };
                let src = NodeId(src);
                let accepts = cellwide.world.can_accept(src);
                assert_eq!(
                    accepts,
                    looping.world.can_accept(src),
                    "case {case}: can_accept({src:?}) diverged at {now}"
                );
                if !accepts {
                    continue;
                }
                let dst = if src == AP {
                    NodeId(gen.range_inclusive(1, n as u64 - 1) as usize)
                } else {
                    AP
                };
                let frame = Frame {
                    src,
                    dst,
                    msdu_bytes: gen.range_inclusive(40, 1500),
                    rate: DataRate::ALL_B[gen.below(DataRate::ALL_B.len() as u64) as usize],
                    handle,
                };
                handle += 1;
                for lane in [&mut cellwide, &mut looping] {
                    lane.with(now, |w, fx| {
                        w.offer_frame(now, frame, fx).expect("MAC accepts");
                    });
                }
            }
            5 | 6 => {
                let node = NodeId(gen.below(n as u64) as usize);
                let until = now + SimDuration::from_micros(gen.below(4000));
                for lane in [&mut cellwide, &mut looping] {
                    lane.with(now, |w, fx| w.set_defer(now, node, until, fx));
                }
            }
            _ => {
                // A co-channel busy window; occasionally already over.
                let until = now + SimDuration::from_micros(gen.below(3000));
                windows += 1;
                cellwide.with(now, |w, fx| w.defer_all(now, until, fx));
                looping.with(now, |w, fx| {
                    for node in 0..n {
                        w.set_defer(now, NodeId(node), until, fx);
                    }
                });
            }
        }
    }
    let end = now + SimDuration::from_millis(50);
    assert_agree(
        &format!("case {case} ({traffic:?})"),
        [&mut cellwide, &mut looping],
        n,
        end,
    );
    (windows, cellwide.defer_expiries, looping.defer_expiries)
}

/// Drains both lanes up to `end`, closes their airtime timelines, and
/// asserts they agree on everything but timer events, over stations
/// `0..n`.
fn assert_agree(label: &str, [a, b]: [&mut Lane; 2], n: usize, end: SimTime) {
    for lane in [&mut *a, &mut *b] {
        lane.deliver_until(end, true);
        lane.with(end, |w, fx| w.drain_airtime_tail(end, fx));
    }
    assert!(
        a.log == b.log,
        "{label}: effect streams diverge at entry {} of {}/{}",
        a.log
            .iter()
            .zip(&b.log)
            .position(|(x, y)| x != y)
            .unwrap_or(a.log.len().min(b.log.len())),
        a.log.len(),
        b.log.len()
    );
    assert_eq!(a.accesses, b.accesses, "{label}: access times diverge");
    let stats = |lane: &Lane| {
        let s = lane.world.stats();
        [
            s.attempts,
            s.collision_events,
            s.retries,
            s.delivered,
            s.dropped,
        ]
    };
    assert_eq!(stats(a), stats(b), "{label}: MAC statistics diverge");
    assert_eq!(a.world.busy_time(), b.world.busy_time());
    for i in 0..n {
        assert_eq!(a.world.occupancy(NodeId(i)), b.world.occupancy(NodeId(i)));
    }
    assert!(
        !a.log.is_empty(),
        "{label}: the stream must exercise the MAC"
    );
}

/// Replays one random case on a world of `n` stations and on the same
/// world with 1–24 stations appended that never get a frame, and
/// asserts they agree. Returns how many effects it compared.
fn run_dormant_case(case: u64, traffic: Traffic) -> usize {
    let mut gen = SimRng::new(0xD0A4_0000 + case);
    let n = gen.range_inclusive(2, 6) as usize;
    let extra = gen.range_inclusive(1, 24) as usize;
    let link = |gen: &mut SimRng| {
        if gen.chance(0.5) {
            LinkErrorModel::Perfect
        } else {
            LinkErrorModel::FixedFer(gen.unit() * 0.4)
        }
    };
    let mut links = vec![LinkErrorModel::Perfect];
    for _ in 1..n {
        links.push(link(&mut gen));
    }
    let mut wide_links = links.clone();
    for _ in 0..extra {
        wide_links.push(link(&mut gen));
    }
    let seed = gen.below(1 << 32);
    let mut narrow = Lane::new(&links, seed);
    let mut wide = Lane::new(&wide_links, seed);

    let mut now = SimTime::ZERO;
    let mut handle = 0u64;
    for _ in 0..400 {
        if !gen.chance(0.2) {
            now += SimDuration::from_micros(gen.below(600));
        }
        let inclusive = gen.chance(0.5);
        narrow.deliver_until(now, inclusive);
        wide.deliver_until(now, inclusive);
        match gen.below(10) {
            0..=4 => {
                let src = match traffic {
                    Traffic::Downlink => AP,
                    Traffic::Uplink => NodeId(gen.range_inclusive(1, n as u64 - 1) as usize),
                    Traffic::Mixed => NodeId(gen.below(n as u64) as usize),
                };
                let accepts = narrow.world.can_accept(src);
                assert_eq!(accepts, wide.world.can_accept(src), "case {case}");
                if !accepts {
                    continue;
                }
                // The AP only ever sends to the first n stations.
                let dst = if src == AP {
                    NodeId(gen.range_inclusive(1, n as u64 - 1) as usize)
                } else {
                    AP
                };
                let frame = Frame {
                    src,
                    dst,
                    msdu_bytes: gen.range_inclusive(40, 1500),
                    rate: DataRate::ALL_B[gen.below(DataRate::ALL_B.len() as u64) as usize],
                    handle,
                };
                handle += 1;
                for lane in [&mut narrow, &mut wide] {
                    lane.with(now, |w, fx| {
                        w.offer_frame(now, frame, fx).expect("MAC accepts");
                    });
                }
            }
            5 | 6 => {
                let node = NodeId(gen.below(n as u64) as usize);
                let until = now + SimDuration::from_micros(gen.below(4000));
                for lane in [&mut narrow, &mut wide] {
                    lane.with(now, |w, fx| w.set_defer(now, node, until, fx));
                }
            }
            _ => {
                let until = now + SimDuration::from_micros(gen.below(3000));
                for lane in [&mut narrow, &mut wide] {
                    lane.with(now, |w, fx| w.defer_all(now, until, fx));
                }
            }
        }
    }
    let end = now + SimDuration::from_millis(50);
    let label = format!("case {case} ({traffic:?}, {n} + {extra} stations)");
    assert_agree(&label, [&mut narrow, &mut wide], n, end);
    for i in n..n + extra {
        assert!(wide.world.occupancy(NodeId(i)).is_zero(), "{label}");
    }
    narrow.log.len()
}

#[test]
fn defer_all_matches_a_set_defer_loop() {
    let mut windows = 0;
    let mut fewer = 0;
    for case in 0..240 {
        let traffic = [Traffic::Downlink, Traffic::Uplink, Traffic::Mixed][case as usize % 3];
        let (w, cellwide, looping) = run_case(case, traffic);
        windows += w;
        assert!(cellwide <= looping, "case {case}: more expiry timers");
        if cellwide < looping {
            fewer += 1;
        }
    }
    assert!(windows > 10_000, "only {windows} cell-wide windows");
    assert!(
        fewer > 200,
        "the cell-wide timer saved dispatches in only {fewer} cases"
    );
}

#[test]
fn appended_stations_without_frames_change_no_effect() {
    let traffic = [Traffic::Downlink, Traffic::Uplink, Traffic::Mixed];
    let compared: usize = (0..240)
        .map(|case| run_dormant_case(case, traffic[case as usize % 3]))
        .sum();
    assert!(compared > 20_000, "only {compared} effects compared");
}

#[test]
fn a_cell_wide_defer_arms_one_timer_and_no_access() {
    let links = vec![LinkErrorModel::Perfect; 4];
    let mut lane = Lane::new(&links, 3);
    let now = SimTime::from_millis(1);
    for src in 1..4 {
        let frame = Frame {
            src: NodeId(src),
            dst: AP,
            msdu_bytes: 1500,
            rate: DataRate::B11,
            handle: src as u64,
        };
        lane.with(now, |w, fx| w.offer_frame(now, frame, fx).expect("idle"));
    }
    let until = SimTime::from_millis(3);
    let mut fx = Vec::new();
    lane.world.defer_all(now, until, &mut fx);
    assert_eq!(
        fx,
        vec![MacEffect::Schedule {
            at: until,
            event: MacEvent::DeferExpired { node: None },
        }]
    );
    // Every node is already deferred that long: nothing to arm.
    fx.clear();
    lane.world.defer_all(now, SimTime::from_millis(2), &mut fx);
    assert!(fx.is_empty());
}
