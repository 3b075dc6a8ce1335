//! A hierarchical timer wheel implementing the [`Timeline`] contract.
//!
//! [`TimerWheel`] stores pending events in three wheels of 256 slots
//! each, plus an overflow heap for the far future:
//!
//! | level | slot width          | span per wheel |
//! |-------|---------------------|----------------|
//! | L0    | 2^10 ns ≈ 1 µs      | ≈ 262 µs       |
//! | L1    | 2^18 ns ≈ 262 µs    | ≈ 67 ms        |
//! | L2    | 2^26 ns ≈ 67 ms     | ≈ 17.2 s       |
//! | heap  | —                   | everything beyond |
//!
//! Scheduling an event is O(1): shift the timestamp to find its slot.
//! Popping drains one L0 slot at a time into a small sorted bucket
//! (`cur`); when a wheel runs dry the next coarser slot cascades down,
//! and when all wheels are dry the overflow heap refills L2. Because
//! simulation workloads schedule overwhelmingly into the near future
//! (MAC slot times, frame durations, microsecond timeouts), almost
//! every event takes the O(1) L0 path, versus O(log n) for every
//! `BinaryHeap` operation.
//!
//! # Bucket recycling
//!
//! A drained slot leaves an empty `Vec` behind with no capacity; the
//! drained bucket itself, once emptied (popped out as `cur`, or
//! cascaded into a finer level), goes back to its level's `spare`
//! pool (`cur` belongs to L0). A push into a slot without capacity
//! takes a bucket from that pool before it would allocate. The number
//! of live buckets therefore tracks the number of *occupied* slots,
//! not the number of slots ever touched, and a wheel at a steady
//! pending load allocates nothing once its buckets have grown to size.
//!
//! The pools are per level because bucket sizes differ by level: the
//! L2 slot for the next 67 ms window collects every timer that lands
//! past the current L1 span, often hundreds, while most L0 slots hold
//! one or two. A single shared pool would hand that large bucket to an
//! L0 slot after each cascade and regrow a small one for the next L2
//! window from scratch, every window.
//!
//! # Determinism
//!
//! The wheel honours the exact [`Timeline`] contract — global
//! `(time, seq)` order, FIFO on equal timestamps — by construction:
//!
//! - Every pending event outside `cur` lives in a slot strictly after
//!   the cursor slot, so its timestamp is strictly greater than every
//!   timestamp `cur` can hold. The global minimum is therefore always
//!   in `cur`.
//! - `cur` itself is kept sorted by `(time, seq)` — buckets are sorted
//!   when drained, and events scheduled at or behind the cursor (legal,
//!   if unusual, for a simulation) are insertion-sorted into it — so
//!   pops come out in exact heap order even under pathological
//!   schedules into the past.
//!
//! The differential property test in `tests/queue_differential.rs`
//! drives both backends with tens of thousands of randomized schedules
//! (dense same-timestamp bursts included) and asserts identical pop
//! sequences.

use std::collections::BinaryHeap;

use crate::queue::{Entry, Timeline};
use crate::time::SimTime;

/// log2 of the L0 slot width in nanoseconds (2^10 ns ≈ 1 µs).
const L0_SHIFT: u32 = 10;
/// log2 of the slot count per wheel.
const SLOT_BITS: u32 = 8;
/// Slots per wheel.
const SLOTS: usize = 1 << SLOT_BITS;
/// log2 of the L1 slot width.
const L1_SHIFT: u32 = L0_SHIFT + SLOT_BITS;
/// log2 of the L2 slot width.
const L2_SHIFT: u32 = L1_SHIFT + SLOT_BITS;
/// log2 of the span covered by all three wheels; timestamps whose
/// high bits differ from the cursor's by more than this go to the
/// overflow heap.
const TOP_SHIFT: u32 = L2_SHIFT + SLOT_BITS;

/// The entries of one slot. Emptied buckets are recycled through
/// their level's spare pool (see the module docs).
type Bucket<E> = Vec<Entry<E>>;

/// One wheel level: 256 buckets plus an occupancy bitmap so empty
/// stretches scan at 64 slots per instruction.
struct Level<E> {
    slots: Vec<Bucket<E>>,
    bits: [u64; 4],
    /// Nanosecond timestamp of slot 0 of the span this level currently
    /// covers (always a multiple of the level's full span).
    base: u64,
    /// Next slot index to scan; slots before it have been drained or
    /// cascaded. Within the active span, occupied slots are always at
    /// or after `pos`, because events behind the cursor are routed to
    /// `cur` (L0) or a finer level (L1/L2) instead.
    pos: usize,
    /// Emptied buckets with capacity, waiting for a slot to need one.
    spare: Vec<Bucket<E>>,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            bits: [0; 4],
            base: 0,
            pos: 1,
            spare: Vec::new(),
        }
    }

    /// Files `e` under `slot`, taking a recycled bucket from the
    /// spare pool when the slot has no storage of its own.
    fn push(&mut self, slot: usize, e: Entry<E>) {
        self.bits[slot >> 6] |= 1 << (slot & 63);
        let bucket = &mut self.slots[slot];
        if bucket.capacity() == 0 {
            if let Some(b) = self.spare.pop() {
                *bucket = b;
            }
        }
        bucket.push(e);
    }

    /// Index of the first occupied slot at or after `pos`, if any.
    fn next_occupied(&self) -> Option<usize> {
        if self.pos >= SLOTS {
            return None;
        }
        let mut w = self.pos >> 6;
        let mut word = self.bits[w] & (!0u64 << (self.pos & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == 4 {
                return None;
            }
            word = self.bits[w];
        }
    }

    /// Removes and returns the contents of `slot` (leaving it without
    /// storage), advancing `pos` past it.
    fn drain(&mut self, slot: usize) -> Bucket<E> {
        self.bits[slot >> 6] &= !(1 << (slot & 63));
        self.pos = slot + 1;
        std::mem::take(&mut self.slots[slot])
    }

    /// Returns an emptied bucket to the spare pool (buckets that never
    /// allocated are not worth keeping).
    fn recycle(&mut self, bucket: Bucket<E>) {
        debug_assert!(bucket.is_empty(), "recycled bucket still holds entries");
        if bucket.capacity() > 0 {
            self.spare.push(bucket);
        }
    }

    /// Empties every slot, returning their buckets to the spare pool.
    fn reset(&mut self) {
        for s in &mut self.slots {
            if s.capacity() > 0 {
                s.clear();
                self.spare.push(std::mem::take(s));
            }
        }
        self.bits = [0; 4];
        self.base = 0;
        self.pos = 1;
    }
}

/// A hierarchical timer wheel honouring the [`Timeline`] determinism
/// contract (see the module docs for the layout and the argument).
///
/// # Examples
///
/// ```
/// use airtime_sim::{SimTime, TimerWheel, Timeline};
///
/// let mut q = TimerWheel::new();
/// q.schedule(SimTime::from_micros(10), 'b');
/// q.schedule(SimTime::from_micros(10), 'c'); // same time, scheduled later
/// q.schedule(SimTime::from_micros(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct TimerWheel<E> {
    /// The drained bucket currently being popped, sorted by
    /// `(time, seq)` *descending* so `pop` is `Vec::pop`.
    cur: Bucket<E>,
    /// Absolute index (`time >> L0_SHIFT`) of the L0 slot `cur` was
    /// drained from. Schedules at or behind this slot insertion-sort
    /// into `cur`; everything later takes a wheel slot.
    cur_slot: u64,
    l0: Level<E>,
    l1: Level<E>,
    l2: Level<E>,
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
    last_seq: u64,
    len: usize,
    high_water: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            cur: Vec::new(),
            cur_slot: 0,
            l0: Level::new(),
            l1: Level::new(),
            l2: Level::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            last_seq: 0,
            len: 0,
            high_water: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Entry { time, seq, event });
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
    }

    fn insert(&mut self, e: Entry<E>) {
        let t = e.time.as_nanos();
        if t >> L0_SHIFT <= self.cur_slot {
            // At or behind the cursor's slot: joins the sorted current
            // bucket at its `(time, seq)` rank (descending order, so
            // earlier entries sit nearer the tail).
            let key = (e.time, e.seq);
            let idx = self.cur.partition_point(|x| (x.time, x.seq) > key);
            self.cur.insert(idx, e);
        } else if t >> L1_SHIFT == self.l0.base >> L1_SHIFT {
            let slot = (t >> L0_SHIFT) as usize & (SLOTS - 1);
            self.l0.push(slot, e);
        } else if t >> L2_SHIFT == self.l1.base >> L2_SHIFT {
            let slot = (t >> L1_SHIFT) as usize & (SLOTS - 1);
            self.l1.push(slot, e);
        } else if t >> TOP_SHIFT == self.l2.base >> TOP_SHIFT {
            let slot = (t >> L2_SHIFT) as usize & (SLOTS - 1);
            self.l2.push(slot, e);
        } else {
            self.overflow.push(e);
        }
    }

    /// Refills `cur` from the next occupied bucket: scan L0, cascading
    /// an L1/L2 slot (or an overflow span) down whenever the finer
    /// levels run dry. Returns `false` when nothing is pending.
    ///
    /// Level bases are only rewritten here, and `insert` can never run
    /// mid-advance, so the span checks in `insert` always see a
    /// consistent (cursor-current) set of bases.
    fn advance(&mut self) -> bool {
        debug_assert!(self.cur.is_empty());
        loop {
            if let Some(i) = self.l0.next_occupied() {
                let mut bucket = self.l0.drain(i);
                bucket.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                let spent = std::mem::replace(&mut self.cur, bucket);
                self.l0.recycle(spent);
                self.cur_slot = (self.l0.base >> L0_SHIFT) + i as u64;
                return true;
            }
            if let Some(i) = self.l1.next_occupied() {
                self.l0.base = self.l1.base + ((i as u64) << L1_SHIFT);
                self.l0.pos = 0;
                let mut bucket = self.l1.drain(i);
                for e in bucket.drain(..) {
                    let slot = (e.time.as_nanos() >> L0_SHIFT) as usize & (SLOTS - 1);
                    self.l0.push(slot, e);
                }
                self.l1.recycle(bucket);
                continue;
            }
            if let Some(i) = self.l2.next_occupied() {
                self.l1.base = self.l2.base + ((i as u64) << L2_SHIFT);
                self.l1.pos = 0;
                let mut bucket = self.l2.drain(i);
                for e in bucket.drain(..) {
                    let slot = (e.time.as_nanos() >> L1_SHIFT) as usize & (SLOTS - 1);
                    self.l1.push(slot, e);
                }
                self.l2.recycle(bucket);
                continue;
            }
            let Some(head) = self.overflow.peek() else {
                return false;
            };
            let span = head.time.as_nanos() >> TOP_SHIFT;
            self.l2.base = span << TOP_SHIFT;
            self.l2.pos = 0;
            while self
                .overflow
                .peek()
                .is_some_and(|e| e.time.as_nanos() >> TOP_SHIFT == span)
            {
                let e = self.overflow.pop().expect("peeked");
                let slot = (e.time.as_nanos() >> L2_SHIFT) as usize & (SLOTS - 1);
                self.l2.push(slot, e);
            }
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.cur.is_empty() && !self.advance() {
            return None;
        }
        let e = self.cur.pop().expect("advance filled cur");
        self.popped += 1;
        self.last_seq = e.seq;
        self.len -= 1;
        Some((e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any. Takes
    /// `&mut self` because locating it may advance the cursor.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.cur.is_empty() && !self.advance() {
            return None;
        }
        self.cur.last().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped since creation.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Sequence stamp of the most recently popped event (zero before
    /// the first pop). See [`Timeline::last_seq`].
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The largest number of events ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Discards all pending events, resets the progress counters and
    /// rewinds the cursor to time zero. `next_seq` keeps counting so
    /// FIFO stability survives a clear (mirrors [`EventQueue::clear`]).
    ///
    /// [`EventQueue::clear`]: crate::queue::EventQueue::clear
    pub fn clear(&mut self) {
        self.cur.clear();
        self.cur_slot = 0;
        self.l0.reset();
        self.l1.reset();
        self.l2.reset();
        self.overflow.clear();
        self.popped = 0;
        self.last_seq = 0;
        self.len = 0;
        self.high_water = 0;
    }
}

impl<E> Timeline<E> for TimerWheel<E> {
    fn schedule(&mut self, time: SimTime, event: E) {
        TimerWheel::schedule(self, time, event);
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        TimerWheel::pop(self)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        TimerWheel::peek_time(self)
    }

    fn len(&self) -> usize {
        TimerWheel::len(self)
    }

    fn events_processed(&self) -> u64 {
        TimerWheel::events_processed(self)
    }

    fn last_seq(&self) -> u64 {
        TimerWheel::last_seq(self)
    }

    fn high_water(&self) -> usize {
        TimerWheel::high_water(self)
    }

    fn clear(&mut self) {
        TimerWheel::clear(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order_across_all_levels() {
        let mut q = TimerWheel::new();
        // One event per storage tier: cur-adjacent, L0, L1, L2, overflow.
        let times = [
            SimTime::from_nanos(500),
            SimTime::from_micros(50),
            SimTime::from_millis(5),
            SimTime::from_secs(2),
            SimTime::from_secs(40),
        ];
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule(t, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.pop().is_none());
        assert_eq!(q.events_processed(), 5);
        assert_eq!(q.high_water(), 5);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = TimerWheel::new();
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
    fn equal_times_are_fifo_across_bucket_and_cursor() {
        let mut q = TimerWheel::new();
        let t = SimTime::from_micros(90);
        // First two arrive while the slot is still a wheel bucket...
        q.schedule(t, 0);
        q.schedule(t, 1);
        // ...pop drains that bucket into `cur`...
        assert_eq!(q.pop(), Some((t, 0)));
        // ...and late arrivals for the same timestamp insertion-sort
        // into `cur` behind their elders.
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedules_behind_the_cursor_pop_in_exact_order() {
        let mut q = TimerWheel::new();
        q.schedule(SimTime::from_secs(10), "far");
        // Peeking advances the cursor deep into the future...
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        // ...but earlier schedules still pop first, in time order.
        q.schedule(SimTime::from_micros(8), "b");
        q.schedule(SimTime::from_micros(3), "a");
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(8), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "far")));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = TimerWheel::new();
        let mut t = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for round in 0..5000u64 {
            // Mixed horizons keep all levels busy while popping.
            let jump = match round % 5 {
                0 => SimDuration::from_nanos(round % 900),
                1 => SimDuration::from_micros(round % 200),
                2 => SimDuration::from_millis(round % 50),
                3 => SimDuration::from_secs(round % 3),
                _ => SimDuration::from_secs(20 + round % 40),
            };
            q.schedule(t + jump, round);
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
        assert_eq!(q.len(), 0);
        assert_eq!(q.events_processed(), 5000);
    }

    #[test]
    fn clear_resets_counters_and_rewinds_the_cursor() {
        let mut q = TimerWheel::new();
        q.schedule(SimTime::from_secs(30), 1);
        assert!(q.peek_time().is_some()); // cursor now far in the future
        q.schedule(SimTime::from_micros(2), 2);
        q.pop();
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.events_processed(), 0);
        assert_eq!(q.high_water(), 0);
        // After a clear the wheel accepts near-zero times on the fast
        // path again, and FIFO stability still holds.
        let t = SimTime::from_nanos(100);
        q.schedule(t, 10);
        q.schedule(t, 11);
        assert_eq!(q.pop(), Some((t, 10)));
        assert_eq!(q.pop(), Some((t, 11)));
    }

    #[test]
    fn dense_buckets_spanning_slot_boundaries_stay_sorted() {
        let mut q = TimerWheel::new();
        // 4096 events packed into a few adjacent L0 slots, scheduled in
        // reverse, with duplicates.
        for (n, ns) in (0..4096u64).rev().enumerate() {
            q.schedule(SimTime::from_nanos(3000 + ns), n as u64);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!((t, 0) >= (last.0, 0));
            last = (t, 0);
            count += 1;
        }
        assert_eq!(count, 4096);
    }
}
