//! Allocation budget of the steady-state event loop and of the
//! observation rig on the shipped `tournament`/`sweep` path.
//!
//! The MAC, transport and scheduler hand their effects back through
//! buffers the event loop owns and reuses, the timer wheel recycles its
//! buckets, and the capacity-0 flight recorder hashes in place — so once
//! a run has warmed up, dispatching an event allocates nothing. Across
//! jobs, each pool worker resets one observation rig instead of building
//! a new one, so the frame-span samples (the bulk of an observed run's
//! bytes) reuse the buffers the first job grew and observer bytes do not
//! scale with the job count. This test counts allocations with the
//! process-global [`CountingAlloc`] and pins both properties. The
//! counters are process-wide, hence this file holds a single `#[test]`
//! (no sibling test can allocate concurrently).

use airtime::obs::prof::{alloc_stats, set_alloc_counting};
use airtime::obs::{
    AllocStats, CountingAlloc, EventRecord, FlightRecorder, Observer, SpanCollector, TeeObserver,
};
use airtime::phy::DataRate::{B1, B11, B2, B5_5};
use airtime::scenario::tournament::{compile_tournament, expand_tournament};
use airtime::scenario::{compile, parse_text, run_tournament};
use airtime::sim::{SimDuration, SimRng, SimTime, TimerWheel};
use airtime::wlan::{run_observed, scenarios, Direction, SchedulerKind};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations made while `f` runs.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let before = alloc_stats();
    set_alloc_counting(true);
    let r = f();
    set_alloc_counting(false);
    (r, alloc_stats().since(before))
}

/// Counts the event loop's dispatches (allocation-free).
struct Dispatches(u64);

impl Observer for Dispatches {
    fn on_dispatch(&mut self, _t: SimTime, _seq: u64, _label: &'static str) {
        self.0 += 1;
    }
}

/// Counts frame spans (allocation-free).
struct Spans(u64);

impl Observer for Spans {
    fn on_frame_span(&mut self, _rec: EventRecord) {
        self.0 += 1;
    }
}

/// What the observation rig and the row roll-up may allocate per frame
/// span, over running the same jobs unobserved.
const RIG_BYTES_PER_SPAN: f64 = 32.0;

/// A slice of the scheduler zoo: 12 greedy-TCP jobs.
const ZOO_SLICE: &str = "name = \"zoo-slice\"
seed = 1
duration_s = 10
warmup_s = 1

[tournament]
families = [\"fifo\", \"tbr\", \"pf\"]
rate_mixes = [\"11,1\", \"11,5.5,2,1\"]
directions = [\"down\", \"up\"]
";

/// One pop+schedule cycle of a wheel held at constant depth: the next
/// timer lands a mixed horizon after the popped one — mostly within the
/// L0 span (MAC slots and frames), some on L1 (wired delays, delayed
/// ACKs), a few on L2 (retransmission timeouts).
fn cycle(q: &mut TimerWheel<u64>, rng: &mut SimRng) {
    let (t, tag) = q.pop().expect("wheel is kept non-empty");
    let offset_ns = match rng.below(20) {
        0..=13 => 1 + rng.below(200_000),
        14..=18 => rng.below(60_000_000),
        _ => rng.below(2_000_000_000),
    };
    q.schedule(t + SimDuration::from_nanos(offset_ns), tag);
}

#[test]
fn steady_state_event_loop_stays_within_its_allocation_budget() {
    // The timer wheel alone: 300 pending timers, as in a busy cell
    // (cell-tcp's queue high water is 297). Buckets grow until they
    // have seen the largest slot loads of the mix; random loads set new
    // highs ever more rarely, so the warm-up is long. (With 300 k
    // warm-up cycles, 6 of 8 seeds still grew a bucket once or twice
    // in the measured window; with 1 M, none did.)
    let mut q = TimerWheel::new();
    let mut rng = SimRng::new(13);
    for tag in 0..300u64 {
        q.schedule(SimTime::from_nanos(rng.below(5_000_000)), tag);
    }
    for _ in 0..1_000_000 {
        cycle(&mut q, &mut rng);
    }
    let ((), wheel) = count_allocs(|| {
        for _ in 0..100_000 {
            cycle(&mut q, &mut rng);
        }
    });
    assert_eq!(q.len(), 300);
    assert_eq!(
        wheel.allocs, 0,
        "timer wheel allocated {} times ({} bytes) in steady state",
        wheel.allocs, wheel.bytes
    );

    // A fig9-class TBR cell (11/5.5/2/1 Mbit/s downlink TCP) under the
    // tournament's observation rig: frame-span collection plus a
    // fingerprint-only flight recorder. The budget covers set-up and
    // warm-up growth too, so it bounds the whole run (about 750
    // allocations over 55 k dispatches).
    let mut cfg = scenarios::tcp_stations(
        &[B11, B5_5, B2, B1],
        Direction::Downlink,
        SchedulerKind::tbr(),
    );
    cfg.duration = SimDuration::from_secs(40);
    cfg.warmup = SimDuration::from_secs(1);
    let mut obs = TeeObserver::new(
        TeeObserver::new(SpanCollector::new(), FlightRecorder::new().with_capacity(0)),
        Dispatches(0),
    );
    let (report, cell) = count_allocs(|| run_observed(&cfg, &mut obs));
    let dispatches = obs.b.0;
    assert!(report.total_goodput_mbps > 0.0);
    assert!(
        dispatches > 40_000,
        "cell too small: {dispatches} dispatches"
    );
    let per_event = cell.allocs as f64 / dispatches as f64;
    assert!(
        per_event < 0.05,
        "{} allocations ({} bytes) over {dispatches} dispatches: {per_event:.4} per event",
        cell.allocs,
        cell.bytes
    );

    // The shipped tournament path on one worker, run twice: the first
    // pass pays one-time process set-up. Over the same jobs run
    // unobserved, the second pass may add only a few bytes per frame
    // span (about 10 here, nearly all of it the first job growing the
    // rig's buffers). Building a fresh span collector per job — sample
    // vectors grown from empty, then cloned for the quantiles — cost
    // about 110.
    let doc = parse_text(ZOO_SLICE, "zoo-slice.toml").expect("slice parses");
    let first = run_tournament(&doc, "zoo-slice.toml", 1).expect("slice runs");
    let (second, pass) = count_allocs(|| run_tournament(&doc, "zoo-slice.toml", 1).unwrap());
    assert_eq!(format!("{:?}", first.rows), format!("{:?}", second.rows));
    let base = compile(&doc, "zoo-slice.toml").unwrap();
    let slice = compile_tournament(&doc, &base).unwrap().unwrap();
    let (spans, plain) = count_allocs(|| {
        expand_tournament(&base, &slice)
            .iter()
            .map(|job| {
                let mut count = Spans(0);
                run_observed(&job.spec.cfg, &mut count);
                count.0
            })
            .sum::<u64>()
    });
    assert!(spans > 20_000, "slice too small: {spans} frame spans");
    let rig_bytes = pass.bytes.saturating_sub(plain.bytes);
    let per_span = rig_bytes as f64 / spans as f64;
    assert!(
        per_span < RIG_BYTES_PER_SPAN,
        "observed pass allocated {} bytes, unobserved {}: {rig_bytes} over {spans} frame spans, \
         {per_span:.1} per span",
        pass.bytes,
        plain.bytes
    );
}
