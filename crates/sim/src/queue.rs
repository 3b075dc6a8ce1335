//! A stable, deterministic event queue.
//!
//! Events popped from a [`Timeline`] come out in timestamp order; events
//! with equal timestamps come out in the order they were scheduled. The
//! stable tie-break matters: MAC simulations routinely schedule several
//! events for the same nanosecond, and an unstable order would make runs
//! non-reproducible across platforms or standard-library versions.
//!
//! Two backends implement the contract:
//!
//! - [`EventQueue`]: a binary heap — O(log n) everywhere, the reference
//!   implementation.
//! - [`TimerWheel`]: a hierarchical timer
//!   wheel — O(1) amortised scheduling for the near future, which is
//!   where simulation traffic lives.
//!
//! [`AnyQueue`] selects between them at runtime so experiment configs
//! can pin a backend, and differential tests can drive both.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;
use crate::wheel::TimerWheel;

pub(crate) struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // (time, seq) first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The determinism contract every event-queue backend honours.
///
/// `pop` returns pending events earliest `(time, seq)` first: strictly
/// by timestamp, and FIFO (schedule order) among events that share a
/// timestamp. `peek_time` takes `&mut self` because a wheel backend may
/// need to advance its cursor to locate the earliest pending event.
pub trait Timeline<E> {
    /// Schedules `event` to fire at `time`.
    fn schedule(&mut self, time: SimTime, event: E);
    /// Removes and returns the earliest event, or `None` if empty.
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// The timestamp of the earliest pending event, if any.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total number of events popped since creation.
    fn events_processed(&self) -> u64;
    /// Sequence stamp of the most recently popped event (the schedule
    /// ordinal assigned by this queue; ties at one timestamp pop in
    /// ascending `seq`). This is the flight recorder's hook into the
    /// queue: the stamp is already carried by every entry, so exposing
    /// it costs one word store per pop whether or not a recorder is
    /// attached. Zero before the first pop.
    fn last_seq(&self) -> u64;
    /// The largest number of events ever pending at once.
    fn high_water(&self) -> usize;
    /// Discards all pending events and resets the progress counters
    /// (`events_processed`, `high_water`). Sequence numbers keep
    /// counting so FIFO stability survives a clear.
    fn clear(&mut self);
}

/// Which [`Timeline`] backend an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueBackend {
    /// The reference `BinaryHeap` queue ([`EventQueue`]).
    Heap,
    /// The hierarchical timer wheel ([`TimerWheel`]).
    Wheel,
}

/// A runtime-selected event-queue backend.
///
/// Both variants honour the [`Timeline`] contract exactly, so any run is
/// bit-for-bit identical across backends; the wheel is simply faster on
/// event-dense workloads.
// One long-lived queue exists per run, so the size gap between the
// boxed-nothing heap and the slot-array wheel is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum AnyQueue<E> {
    /// Binary-heap backend.
    Heap(EventQueue<E>),
    /// Timer-wheel backend.
    Wheel(TimerWheel<E>),
}

impl<E> AnyQueue<E> {
    /// Creates an empty queue on the requested backend.
    pub fn new(backend: QueueBackend) -> Self {
        match backend {
            QueueBackend::Heap => AnyQueue::Heap(EventQueue::new()),
            QueueBackend::Wheel => AnyQueue::Wheel(TimerWheel::new()),
        }
    }

    /// The backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self {
            AnyQueue::Heap(_) => QueueBackend::Heap,
            AnyQueue::Wheel(_) => QueueBackend::Wheel,
        }
    }
}

impl<E> Timeline<E> for AnyQueue<E> {
    fn schedule(&mut self, time: SimTime, event: E) {
        match self {
            AnyQueue::Heap(q) => q.schedule(time, event),
            AnyQueue::Wheel(q) => q.schedule(time, event),
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            AnyQueue::Heap(q) => q.pop(),
            AnyQueue::Wheel(q) => q.pop(),
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            AnyQueue::Heap(q) => q.peek_time(),
            AnyQueue::Wheel(q) => q.peek_time(),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyQueue::Heap(q) => q.len(),
            AnyQueue::Wheel(q) => q.len(),
        }
    }

    fn events_processed(&self) -> u64 {
        match self {
            AnyQueue::Heap(q) => q.events_processed(),
            AnyQueue::Wheel(q) => q.events_processed(),
        }
    }

    fn last_seq(&self) -> u64 {
        match self {
            AnyQueue::Heap(q) => q.last_seq(),
            AnyQueue::Wheel(q) => q.last_seq(),
        }
    }

    fn high_water(&self) -> usize {
        match self {
            AnyQueue::Heap(q) => q.high_water(),
            AnyQueue::Wheel(q) => q.high_water(),
        }
    }

    fn clear(&mut self) {
        match self {
            AnyQueue::Heap(q) => q.clear(),
            AnyQueue::Wheel(q) => q.clear(),
        }
    }
}

/// A deterministic priority queue of timestamped events.
///
/// # Examples
///
/// ```
/// use airtime_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(10), 'b');
/// q.schedule(SimTime::from_micros(10), 'c'); // same time, scheduled later
/// q.schedule(SimTime::from_micros(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
    last_seq: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            last_seq: 0,
            high_water: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        if self.heap.len() > self.high_water {
            self.high_water = self.heap.len();
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.popped += 1;
            self.last_seq = e.seq;
            (e.time, e.event)
        })
    }

    /// Sequence stamp of the most recently popped event (see
    /// [`Timeline::last_seq`]).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped since creation (a progress metric and
    /// a handy runaway-simulation guard).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// The largest number of events ever pending at once — the queue's
    /// high-water mark. Useful for sizing and for spotting scenarios
    /// whose pending-event population grows without bound.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Discards all pending events and resets the progress counters, so
    /// a reused queue reports its own run's `events_processed` and
    /// high-water mark rather than the previous run's. `next_seq` keeps
    /// counting: sequence numbers only ever need to be monotonic, and a
    /// fresh-from-zero restart would be indistinguishable anyway, but
    /// monotonicity is the invariant FIFO stability rests on.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.popped = 0;
        self.last_seq = 0;
        self.high_water = 0;
    }
}

impl<E> Timeline<E> for EventQueue<E> {
    fn schedule(&mut self, time: SimTime, event: E) {
        EventQueue::schedule(self, time, event);
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    fn events_processed(&self) -> u64 {
        EventQueue::events_processed(self)
    }

    fn last_seq(&self) -> u64 {
        EventQueue::last_seq(self)
    }

    fn high_water(&self) -> usize {
        EventQueue::high_water(self)
    }

    fn clear(&mut self) {
        EventQueue::clear(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            let (pt, e) = q.pop().unwrap();
            assert_eq!(pt, t);
            assert_eq!(e, i);
        }
    }

    #[test]
    fn peek_len_and_counter() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_micros(5), ());
        q.schedule(SimTime::from_micros(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        q.pop();
        assert_eq!(q.events_processed(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn high_water_tracks_peak_len() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        for i in 0..10 {
            q.schedule(SimTime::from_micros(i), i);
        }
        for _ in 0..10 {
            q.pop();
        }
        q.schedule(SimTime::ZERO, 0);
        assert_eq!(q.high_water(), 10);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_resets_counters_but_not_fifo_stability() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.schedule(SimTime::from_micros(i), i);
        }
        q.pop();
        q.pop();
        assert_eq!(q.events_processed(), 2);
        assert_eq!(q.high_water(), 8);

        q.clear();
        // A reused queue starts its accounting from scratch.
        assert_eq!(q.events_processed(), 0);
        assert_eq!(q.high_water(), 0);
        assert!(q.is_empty());

        // ...but sequence numbers stay monotonic: same-timestamp events
        // scheduled after the clear still come out FIFO.
        let t = SimTime::from_micros(1);
        for i in 100..110 {
            q.schedule(t, i);
        }
        for i in 100..110 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert_eq!(q.events_processed(), 10);
        assert_eq!(q.high_water(), 10);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let mut t = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for round in 0..50u64 {
            q.schedule(t + SimDuration::from_micros(round % 7), round);
            if round % 3 == 0 {
                if let Some((pt, _)) = q.pop() {
                    assert!(pt >= last);
                    last = pt;
                    t = pt;
                }
            }
        }
        while let Some((pt, _)) = q.pop() {
            assert!(pt >= last);
            last = pt;
        }
    }

    #[test]
    fn any_queue_backends_agree_on_a_small_trace() {
        let mut heap = AnyQueue::new(QueueBackend::Heap);
        let mut wheel = AnyQueue::new(QueueBackend::Wheel);
        assert_eq!(heap.backend(), QueueBackend::Heap);
        assert_eq!(wheel.backend(), QueueBackend::Wheel);
        let times = [5u64, 3, 3, 900_000, 12, 3, 70_000_000, 5];
        for (i, &us) in times.iter().enumerate() {
            heap.schedule(SimTime::from_micros(us), i);
            wheel.schedule(SimTime::from_micros(us), i);
        }
        assert_eq!(heap.len(), wheel.len());
        while let Some(a) = heap.pop() {
            assert_eq!(Some(a), wheel.pop());
        }
        assert!(wheel.pop().is_none());
        assert_eq!(heap.events_processed(), wheel.events_processed());
    }
}
