//! The throughput-fair baselines.
//!
//! The paper's Exp-Normal configuration is a stock AP: one shared
//! drop-tail interface queue ([`FifoScheduler`]). Commodity APs of the
//! era effectively served clients round-robin ([`RoundRobinScheduler`],
//! §2.4: "the AP queuing scheme … usually transmits to wireless clients
//! in a round-robin manner"), and the wired-style fair-queuing baseline
//! the paper cites is Deficit Round Robin ([`DrrScheduler`], their
//! reference \[24\]). All of these are *throughput-based* fair: with equal
//! packet sizes they equalise packets (hence bytes) per client, letting
//! slow clients hog airtime. The time-based alternative is
//! [`crate::TbrScheduler`].

use airtime_core::{ApScheduler, ClientId, EnqueueOutcome, QueuePool, QueuedPacket};
use airtime_sim::SimTime;

// ---------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------

/// A stock AP's single shared drop-tail queue (the paper's Exp-Normal:
/// "the kernel interface queue (with the maximum size of 110) is used to
/// store packets").
pub struct FifoScheduler {
    /// One slot holding every client's packets, with the whole budget.
    pool: QueuePool,
}

impl FifoScheduler {
    /// Creates a FIFO with the given packet capacity.
    pub fn new(capacity: usize) -> Self {
        let mut pool = QueuePool::new(capacity);
        // The one shared slot; its key is never looked up.
        pool.add_client(ClientId(0));
        FifoScheduler { pool }
    }
}

impl Default for FifoScheduler {
    /// The paper's 110-packet kernel interface queue.
    fn default() -> Self {
        FifoScheduler::new(110)
    }
}

impl ApScheduler for FifoScheduler {
    fn on_associate(&mut self, _client: ClientId, _now: SimTime) {}

    fn on_disassociate(&mut self, client: ClientId, _now: SimTime) -> Vec<QueuedPacket> {
        // A real kernel interface queue would let these frames age out;
        // scanning them away models the driver flush on DEAUTH.
        let mut flushed = Vec::new();
        self.pool.queues[0].retain(|p| {
            if p.client == client {
                flushed.push(*p);
                false
            } else {
                true
            }
        });
        flushed
    }

    fn enqueue(&mut self, pkt: QueuedPacket, _now: SimTime) -> EnqueueOutcome {
        if !self.would_accept(pkt.client) {
            self.pool.note_drop();
            EnqueueOutcome::Dropped
        } else {
            self.pool.queues[0].push_back(pkt);
            EnqueueOutcome::Accepted
        }
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<QueuedPacket> {
        self.pool.queues[0].pop_front()
    }

    fn pool(&self) -> &QueuePool {
        &self.pool
    }

    /// Every client shares the one queue, so each sees its occupancy.
    fn queue_len(&self, _client: ClientId) -> usize {
        self.backlog()
    }

    /// Every client's offer meets the one shared drop-tail queue.
    fn would_accept(&self, _client: ClientId) -> bool {
        self.pool.queues[0].len() < self.pool.per_queue_cap()
    }
}

// ---------------------------------------------------------------------
// Round robin
// ---------------------------------------------------------------------

/// Packet-granularity round robin over per-client queues — equal
/// *transmission opportunities* per client, i.e. the downlink analogue
/// of DCF's fairness notion.
pub struct RoundRobinScheduler {
    pool: QueuePool,
    next: usize,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler with a shared buffer budget.
    pub fn new(total_budget: usize) -> Self {
        RoundRobinScheduler {
            pool: QueuePool::new(total_budget),
            next: 0,
        }
    }
}

impl Default for RoundRobinScheduler {
    fn default() -> Self {
        RoundRobinScheduler::new(100)
    }
}

impl ApScheduler for RoundRobinScheduler {
    fn on_associate(&mut self, client: ClientId, _now: SimTime) {
        self.pool.add_client(client);
    }

    fn on_disassociate(&mut self, client: ClientId, _now: SimTime) -> Vec<QueuedPacket> {
        self.pool.flush_client(client)
    }

    fn enqueue(&mut self, pkt: QueuedPacket, _now: SimTime) -> EnqueueOutcome {
        self.pool.enqueue(pkt)
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<QueuedPacket> {
        let n = self.pool.len();
        for k in 0..n {
            let i = (self.next + k) % n;
            if let Some(pkt) = self.pool.queues[i].pop_front() {
                self.next = (i + 1) % n;
                return Some(pkt);
            }
        }
        None
    }

    fn pool(&self) -> &QueuePool {
        &self.pool
    }
}

// ---------------------------------------------------------------------
// Deficit round robin
// ---------------------------------------------------------------------

/// Deficit Round Robin (Shreedhar & Varghese) — byte-granularity
/// throughput fairness even with mixed packet sizes. Still
/// throughput-based: it equalises *bytes*, not channel time, so a slow
/// client's bytes cost the cell far more airtime.
pub struct DrrScheduler {
    pool: QueuePool,
    deficits: Vec<u64>,
    quantum: u64,
    /// Per-client QoS weights scaling the quantum (the weighted-DRR
    /// extension, so weighted scenarios compare across families).
    weights: Vec<f64>,
    next: usize,
    /// Queue currently being drained within its round's deficit.
    in_service: Option<usize>,
}

impl DrrScheduler {
    /// Creates a DRR scheduler with the given buffer budget and byte
    /// quantum (use at least the MTU so every round can send).
    pub fn new(total_budget: usize, quantum: u64) -> Self {
        DrrScheduler {
            pool: QueuePool::new(total_budget),
            deficits: Vec::new(),
            quantum: quantum.max(1),
            weights: Vec::new(),
            next: 0,
            in_service: None,
        }
    }

    /// The byte grant slot `i` receives per round visit.
    fn quantum_of(&self, i: usize) -> u64 {
        let w = self.weights.get(i).copied().unwrap_or(1.0);
        ((self.quantum as f64 * w).round() as u64).max(1)
    }

    fn serve(&mut self, i: usize) -> Option<QueuedPacket> {
        let front = *self.pool.queues[i].front()?;
        if self.deficits[i] < front.bytes {
            return None;
        }
        self.deficits[i] -= front.bytes;
        let pkt = self.pool.queues[i].pop_front();
        if self.pool.queues[i].is_empty() {
            // An emptied queue forfeits its deficit (standard DRR).
            self.deficits[i] = 0;
            self.in_service = None;
        } else {
            self.in_service = Some(i);
        }
        pkt
    }
}

impl Default for DrrScheduler {
    fn default() -> Self {
        DrrScheduler::new(100, 1500)
    }
}

impl ApScheduler for DrrScheduler {
    fn on_associate(&mut self, client: ClientId, now: SimTime) {
        // Registration without an explicit weight keeps (or defaults
        // to) weight 1.0 — plain DRR.
        let weight = self
            .pool
            .slot_of(client)
            .and_then(|i| self.weights.get(i).copied())
            .unwrap_or(1.0);
        self.on_associate_weighted(client, weight, now);
    }

    /// Associates `client` with a QoS weight: each visit grants
    /// `weight × quantum` bytes, so long-term byte shares follow the
    /// weights (classic weighted DRR). Weight 1.0 is plain DRR.
    fn on_associate_weighted(&mut self, client: ClientId, weight: f64, _now: SimTime) {
        assert!(weight > 0.0, "weight must be positive");
        let slot = self.pool.add_client(client);
        while slot >= self.deficits.len() {
            self.deficits.push(0);
            self.weights.push(1.0);
        }
        self.weights[slot] = weight;
    }

    fn on_disassociate(&mut self, client: ClientId, _now: SimTime) -> Vec<QueuedPacket> {
        let flushed = self.pool.flush_client(client);
        if let Some(slot) = self.pool.slot_of(client) {
            self.deficits[slot] = 0;
            self.weights[slot] = 1.0;
            if self.in_service == Some(slot) {
                self.in_service = None;
            }
        }
        flushed
    }

    fn enqueue(&mut self, pkt: QueuedPacket, _now: SimTime) -> EnqueueOutcome {
        let slot = self.pool.add_client(pkt.client);
        while slot >= self.deficits.len() {
            self.deficits.push(0);
            self.weights.push(1.0);
        }
        self.pool.enqueue(pkt)
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<QueuedPacket> {
        let n = self.pool.len();
        if n == 0 || self.pool.backlog() == 0 {
            return None;
        }
        // Continue draining the queue whose round is in progress.
        if let Some(i) = self.in_service {
            if let Some(pkt) = self.serve(i) {
                return Some(pkt);
            }
            // Deficit exhausted: its round is over.
            self.in_service = None;
            self.next = (i + 1) % n;
        }
        // Walk the round, granting each backlogged queue its quantum as
        // it is visited; a packet larger than quantum + deficit carries
        // the deficit to the next round. Two sweeps guarantee progress
        // for any front packet ≤ 2 quanta; the quantum is sized ≥ MTU so
        // one sweep normally suffices.
        for _ in 0..2 * n {
            let i = self.next;
            self.next = (i + 1) % n;
            if self.pool.queues[i].is_empty() {
                self.deficits[i] = 0;
                continue;
            }
            self.deficits[i] += self.quantum_of(i);
            if let Some(pkt) = self.serve(i) {
                return Some(pkt);
            }
        }
        None
    }

    fn pool(&self) -> &QueuePool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(client: usize, handle: u64, bytes: u64) -> QueuedPacket {
        QueuedPacket {
            client: ClientId(client),
            handle,
            bytes,
        }
    }

    #[test]
    fn fifo_is_first_in_first_out_and_droptail() {
        let mut f = FifoScheduler::new(2);
        let now = SimTime::ZERO;
        assert_eq!(f.enqueue(pkt(0, 1, 100), now), EnqueueOutcome::Accepted);
        assert_eq!(f.enqueue(pkt(1, 2, 100), now), EnqueueOutcome::Accepted);
        assert_eq!(f.enqueue(pkt(0, 3, 100), now), EnqueueOutcome::Dropped);
        assert_eq!(f.drops(), 1);
        assert_eq!(f.backlog(), 2);
        assert!(f.has_eligible(now));
        assert_eq!(f.dequeue(now).unwrap().handle, 1);
        assert_eq!(f.dequeue(now).unwrap().handle, 2);
        assert!(f.dequeue(now).is_none());
    }

    #[test]
    fn rr_and_drr_rotate_in_first_registration_order_for_huge_ids() {
        let order = [usize::MAX, 5, 1 << 40, 0];
        let now = SimTime::ZERO;
        let rr: Box<dyn ApScheduler> = Box::new(RoundRobinScheduler::new(100));
        let drr: Box<dyn ApScheduler> = Box::new(DrrScheduler::new(100, 1500));
        for mut s in [rr, drr] {
            for round in 0..2 {
                for (i, &c) in order.iter().enumerate() {
                    let handle = (round * order.len() + i) as u64;
                    assert_eq!(
                        s.enqueue(pkt(c, handle, 1500), now),
                        EnqueueOutcome::Accepted
                    );
                }
            }
            let served: Vec<usize> = std::iter::from_fn(|| s.dequeue(now))
                .map(|p| p.client.index())
                .collect();
            assert_eq!(served, [order, order].concat());
        }
    }

    #[test]
    fn drr_weight_scales_byte_share() {
        // Weight 2 vs 1: over many rounds the heavy client should move
        // ~2× the bytes of the light one (equal packet sizes, both
        // saturated).
        let mut s = DrrScheduler::new(1000, 1500);
        let now = SimTime::ZERO;
        s.on_associate_weighted(ClientId(0), 2.0, now);
        s.on_associate_weighted(ClientId(1), 1.0, now);
        let mut served = [0u64; 2];
        let mut h = 0;
        for _ in 0..300 {
            for c in 0..2 {
                while s.queue_len(ClientId(c)) < 8 {
                    s.enqueue(pkt(c, h, 1500), now);
                    h += 1;
                }
            }
            let p = s.dequeue(now).expect("saturated");
            served[p.client.index()] += p.bytes;
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (1.8..2.2).contains(&ratio),
            "weighted byte ratio {ratio}, served {served:?}"
        );
    }

    #[test]
    fn drr_weight_default_is_plain_drr() {
        // on_associate (no weight) must behave exactly like weight 1.0.
        let mut a = DrrScheduler::new(100, 1500);
        let mut b = DrrScheduler::new(100, 1500);
        let now = SimTime::ZERO;
        for c in 0..2 {
            a.on_associate(ClientId(c), now);
            b.on_associate_weighted(ClientId(c), 1.0, now);
        }
        for h in 0..6 {
            a.enqueue(pkt((h % 2) as usize, h, 700), now);
            b.enqueue(pkt((h % 2) as usize, h, 700), now);
        }
        for _ in 0..6 {
            assert_eq!(
                a.dequeue(now).map(|p| p.handle),
                b.dequeue(now).map(|p| p.handle)
            );
        }
    }

    #[test]
    fn rr_alternates_between_backlogged_clients() {
        let mut s = RoundRobinScheduler::new(100);
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        for h in 0..4 {
            s.enqueue(pkt(0, h, 1500), now);
            s.enqueue(pkt(1, 100 + h, 1500), now);
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(now).map(|p| p.handle))
            .take(4)
            .collect();
        assert_eq!(order, vec![0, 100, 1, 101]);
    }

    #[test]
    fn rr_skips_empty_queues() {
        let mut s = RoundRobinScheduler::new(100);
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        s.on_associate(ClientId(2), now);
        s.enqueue(pkt(2, 9, 500), now);
        assert_eq!(s.dequeue(now).unwrap().handle, 9);
        assert!(s.dequeue(now).is_none());
    }

    #[test]
    fn pool_splits_budget_per_client() {
        let mut s = RoundRobinScheduler::new(10);
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        // 10 / 2 = 5 per queue.
        for h in 0..5 {
            assert_eq!(s.enqueue(pkt(0, h, 100), now), EnqueueOutcome::Accepted);
        }
        assert_eq!(s.enqueue(pkt(0, 99, 100), now), EnqueueOutcome::Dropped);
        assert_eq!(s.enqueue(pkt(1, 50, 100), now), EnqueueOutcome::Accepted);
    }

    #[test]
    fn drr_equalises_bytes_with_mixed_packet_sizes() {
        let mut s = DrrScheduler::new(1000, 1500);
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        // Client 0 sends 1500-byte packets, client 1 sends 500-byte.
        for h in 0..200 {
            s.enqueue(pkt(0, h, 1500), now);
            s.enqueue(pkt(1, 1000 + 3 * h, 500), now);
            s.enqueue(pkt(1, 1001 + 3 * h, 500), now);
            s.enqueue(pkt(1, 1002 + 3 * h, 500), now);
        }
        let mut bytes = [0u64; 2];
        for _ in 0..120 {
            let p = s.dequeue(now).expect("backlogged");
            bytes[p.client.index()] += p.bytes;
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((0.8..1.25).contains(&ratio), "byte ratio {ratio}");
    }

    #[test]
    fn drr_returns_none_when_empty() {
        let mut s = DrrScheduler::default();
        s.on_associate(ClientId(0), SimTime::ZERO);
        assert!(s.dequeue(SimTime::ZERO).is_none());
        assert!(!s.has_eligible(SimTime::ZERO));
    }

    #[test]
    fn fifo_disassociate_flushes_only_that_client() {
        let mut f = FifoScheduler::new(10);
        let now = SimTime::ZERO;
        f.enqueue(pkt(0, 1, 100), now);
        f.enqueue(pkt(1, 2, 100), now);
        f.enqueue(pkt(0, 3, 100), now);
        let flushed = f.on_disassociate(ClientId(0), now);
        assert_eq!(
            flushed.iter().map(|p| p.handle).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(f.backlog(), 1);
        assert_eq!(f.dequeue(now).unwrap().handle, 2);
    }

    #[test]
    fn rr_disassociate_keeps_rotation_stable() {
        let mut s = RoundRobinScheduler::new(100);
        let now = SimTime::ZERO;
        for c in 0..3 {
            s.on_associate(ClientId(c), now);
            s.enqueue(pkt(c, c as u64, 1500), now);
        }
        let flushed = s.on_disassociate(ClientId(1), now);
        assert_eq!(flushed.len(), 1);
        assert_eq!(s.queue_len(ClientId(1)), 0);
        // Remaining clients still drain in slot order.
        assert_eq!(s.dequeue(now).unwrap().handle, 0);
        assert_eq!(s.dequeue(now).unwrap().handle, 2);
        assert!(s.dequeue(now).is_none());
    }

    #[test]
    fn drr_disassociate_clears_deficit_and_service() {
        let mut s = DrrScheduler::new(1000, 1500);
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        for h in 0..3 {
            s.enqueue(pkt(0, h, 500), now);
            s.enqueue(pkt(1, 10 + h, 500), now);
        }
        // Put client 0 mid-round, then drop it.
        let first = s.dequeue(now).unwrap();
        assert_eq!(first.client, ClientId(0));
        let flushed = s.on_disassociate(ClientId(0), now);
        assert_eq!(flushed.len(), 2);
        // Only client 1's packets remain, served in order.
        for h in 10..13 {
            assert_eq!(s.dequeue(now).unwrap().handle, h);
        }
        assert!(s.dequeue(now).is_none());
    }

    #[test]
    fn drr_single_queue_drains_in_order() {
        let mut s = DrrScheduler::new(100, 1500);
        let now = SimTime::ZERO;
        for h in 0..5 {
            s.enqueue(pkt(0, h, 1500), now);
        }
        for h in 0..5 {
            assert_eq!(s.dequeue(now).unwrap().handle, h);
        }
        assert!(s.dequeue(now).is_none());
    }
}
