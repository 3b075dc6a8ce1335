//! Differential property test: the timer wheel and the binary heap are
//! observationally identical under randomized workloads.
//!
//! Both backends receive the exact same schedule/pop trace — tens of
//! thousands of events across every time horizon (sub-µs to minutes),
//! dense same-timestamp bursts, and interleaved pops that drag the
//! cursor forward mid-stream — and must agree on every pop, length and
//! counter along the way.

use airtime_sim::{EventQueue, SimRng, SimTime, Timeline, TimerWheel};

/// Drives both backends through one randomized trace and asserts
/// lockstep agreement.
fn differential_trace(seed: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut wheel: TimerWheel<u64> = TimerWheel::new();

    let mut now_ns = 0u64;
    let mut tag = 0u64;
    let mut scheduled = 0usize;
    let mut last_t = SimTime::ZERO;

    let schedule_batch = |heap: &mut EventQueue<u64>,
                          wheel: &mut TimerWheel<u64>,
                          rng: &mut SimRng,
                          now_ns: u64,
                          tag: &mut u64| {
        // Pick a horizon class so every wheel level and the overflow
        // heap see traffic, then a burst size (dense same-timestamp
        // bursts are the determinism-sensitive case).
        let offset = match rng.below(10) {
            0..=3 => rng.below(1_000),                       // within the cur slot
            4..=6 => rng.below(260_000),                     // L0 span
            7 => rng.below(60_000_000),                      // L1 span
            8 => rng.below(15_000_000_000),                  // L2 span
            _ => 17_200_000_000 + rng.below(60_000_000_000), // overflow
        };
        let t = SimTime::from_nanos(now_ns + offset);
        let burst = 1 + rng.below(8);
        for _ in 0..burst {
            heap.schedule(t, *tag);
            Timeline::schedule(wheel, t, *tag);
            *tag += 1;
        }
        burst as usize
    };

    for _ in 0..ops {
        if rng.chance(0.6) {
            scheduled += schedule_batch(&mut heap, &mut wheel, &mut rng, now_ns, &mut tag);
        } else {
            let a = heap.pop();
            let b = Timeline::pop(&mut wheel);
            assert_eq!(a, b, "pop mismatch at now={now_ns}");
            if let Some((t, _)) = a {
                assert!(t >= last_t, "time went backwards");
                last_t = t;
                now_ns = t.as_nanos();
            }
        }
        assert_eq!(heap.len(), Timeline::len(&wheel));
        assert_eq!(heap.events_processed(), wheel.events_processed());
    }
    assert!(scheduled >= 10_000, "trace too small: {scheduled} events");

    // Drain both completely: the tails must agree too.
    loop {
        let a = heap.pop();
        let b = Timeline::pop(&mut wheel);
        assert_eq!(a, b, "drain mismatch");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(heap.high_water(), wheel.high_water());
}

#[test]
fn wheel_matches_heap_on_randomized_traces() {
    for seed in [1, 2, 42, 0xDEAD_BEEF] {
        differential_trace(seed, 12_000);
    }
}

#[test]
fn wheel_matches_heap_on_a_pure_same_timestamp_storm() {
    // Thousands of events on a handful of timestamps, popped in bulk:
    // FIFO within a timestamp is the entire ordering signal.
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let times = [
        SimTime::from_micros(10),
        SimTime::from_micros(10),
        SimTime::from_millis(3),
        SimTime::from_secs(1),
        SimTime::from_secs(30),
    ];
    let mut tag = 0u64;
    for round in 0..2_000u64 {
        let t = times[(round % times.len() as u64) as usize];
        for _ in 0..5 {
            heap.schedule(t, tag);
            Timeline::schedule(&mut wheel, t, tag);
            tag += 1;
        }
    }
    loop {
        let a = heap.pop();
        let b = Timeline::pop(&mut wheel);
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    assert_eq!(heap.events_processed(), 10_000);
    assert_eq!(wheel.events_processed(), 10_000);
}

#[test]
fn wheel_matches_heap_after_clear_reuse() {
    let mut heap: EventQueue<u32> = EventQueue::new();
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    for q in [0, 1] {
        // Second iteration reuses both queues after clear(): counters
        // restart, FIFO stability persists.
        for i in 0..50 {
            let t = SimTime::from_micros(u64::from(i % 7));
            heap.schedule(t, i);
            Timeline::schedule(&mut wheel, t, i);
        }
        for _ in 0..20 {
            assert_eq!(heap.pop(), Timeline::pop(&mut wheel));
        }
        assert_eq!(heap.events_processed(), 20);
        assert_eq!(wheel.events_processed(), 20);
        heap.clear();
        Timeline::clear(&mut wheel);
        assert_eq!(heap.events_processed(), 0);
        assert_eq!(wheel.events_processed(), 0);
        assert_eq!(heap.high_water(), 0);
        assert_eq!(wheel.high_water(), 0);
        let _ = q;
    }
}

/// Drives both backends through a trace built to recycle wheel buckets
/// hard: every schedule lands on L1, L2 or overflow horizons (with some
/// L0 traffic mixed in), pops come in batches deep enough to cascade
/// every level many times over, and `clear()` hits both queues
/// mid-stream while all levels hold entries. Emptied buckets go back to
/// per-level spare pools and are handed to the next slot that needs
/// storage, so a recycled bucket that still carried an entry (a stale
/// pop the heap never makes) or lost its `(time, seq)` order (a
/// FIFO swap on a shared timestamp) breaks lockstep.
fn recycling_trace(seed: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut now_ns = 0u64;
    let mut tag = 0u64;
    let mut clears = 0;
    let mut popped = 0u64;
    for _ in 0..ops {
        match rng.below(100) {
            0 => {
                heap.clear();
                Timeline::clear(&mut wheel);
                now_ns = 0;
                clears += 1;
            }
            1..=40 => {
                let offset = match rng.below(8) {
                    0..=1 => 262_144 + rng.below(60_000_000),        // L1 span
                    2..=4 => 67_108_864 + rng.below(15_000_000_000), // L2 span
                    5..=6 => 17_179_869_184 + rng.below(60_000_000_000), // overflow
                    _ => rng.below(260_000),                         // L0 span
                };
                let t = now_ns + offset;
                // A burst on one slot: shared timestamps (the FIFO
                // signal) plus a few distinct times inside it.
                for _ in 0..1 + rng.below(12) {
                    let at = SimTime::from_nanos(t + rng.below(4) * 100);
                    heap.schedule(at, tag);
                    Timeline::schedule(&mut wheel, at, tag);
                    tag += 1;
                }
            }
            _ => {
                for _ in 0..1 + rng.below(24) {
                    let a = heap.pop();
                    let b = Timeline::pop(&mut wheel);
                    assert_eq!(a, b, "pop mismatch at now={now_ns} after {clears} clears");
                    match a {
                        Some((t, _)) => {
                            now_ns = t.as_nanos();
                            popped += 1;
                        }
                        None => break,
                    }
                    assert_eq!(heap.last_seq(), Timeline::last_seq(&wheel));
                }
            }
        }
        assert_eq!(heap.len(), Timeline::len(&wheel));
        assert_eq!(heap.events_processed(), wheel.events_processed());
    }
    assert!(clears >= 3, "trace cleared only {clears} times");
    assert!(popped >= 20_000, "trace popped only {popped} events");
    loop {
        let a = heap.pop();
        let b = Timeline::pop(&mut wheel);
        assert_eq!(a, b, "drain mismatch");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn wheel_matches_heap_through_bucket_recycling_and_clears() {
    for seed in [3, 17, 0xC0FFEE] {
        recycling_trace(seed, 20_000);
    }
}
