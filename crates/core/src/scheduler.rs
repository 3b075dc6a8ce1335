//! The AP scheduler contract every family implements, and the
//! per-client queue pool the families share. The families themselves
//! live in `airtime-sched`.
//!
//! A family differs from another only in which packet it releases next
//! and what service state it keeps; the buffering is common. So
//! [`ApScheduler`] asks a family for its association, enqueue and
//! dequeue rules plus its [`QueuePool`], and reads backlog, per-client
//! queue lengths and drop counts from the pool.

use airtime_sim::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

use crate::buffer::{BufferPolicy, RedState};

/// Identifier of an associated client station, as the AP driver sees it
/// (the real implementation keys on the 6-byte MAC address; an index is
/// isomorphic and cheaper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub usize);

impl ClientId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A packet queued at the AP for downlink transmission to `client`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueuedPacket {
    /// Destination client (for uplink TCP flows this is the client whose
    /// acks these are — the regulated entity either way).
    pub client: ClientId,
    /// Opaque upper-layer cookie.
    pub handle: u64,
    /// Size on the wire in bytes.
    pub bytes: u64,
}

/// Result of offering a packet to the scheduler's buffers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnqueueOutcome {
    /// Buffered.
    Accepted,
    /// Rejected by the drop-tail policy (buffer full).
    Dropped,
}

/// An AP packet-scheduling discipline.
///
/// The paper's event names map onto this trait as follows:
/// ASSOCIATEEVENT → [`on_associate`](ApScheduler::on_associate),
/// APPTXEVENT → [`enqueue`](ApScheduler::enqueue),
/// MACTXEVENT → [`dequeue`](ApScheduler::dequeue),
/// COMPLETEEVENT → [`on_complete`](ApScheduler::on_complete),
/// FILLEVENT/ADJUSTRATEEVENT → [`on_tick`](ApScheduler::on_tick)
/// (driven at [`tick_period`](ApScheduler::tick_period)).
///
/// A family supplies only what it varies: association, enqueue and
/// dequeue, and the [`QueuePool`] its packets wait in. Every other hook
/// has a default a family overrides only when it behaves differently:
/// no completion feedback, no timer, eligibility as "anything
/// buffered", and backlog, queue lengths and drops read from the pool.
pub trait ApScheduler {
    /// A client joined the cell.
    fn on_associate(&mut self, client: ClientId, now: SimTime);

    /// A client joined the cell with a QoS weight (1.0 = equal share).
    /// Disciplines without weighted shares ignore the weight.
    fn on_associate_weighted(&mut self, client: ClientId, weight: f64, now: SimTime) {
        let _ = weight;
        self.on_associate(client, now);
    }

    /// The client's channel-time token balance in (possibly negative)
    /// nanoseconds, for token-regulated disciplines; `None` otherwise.
    fn token_balance_ns(&self, _client: ClientId) -> Option<f64> {
        None
    }

    /// The client's token fill rate as a fraction of wall-clock time,
    /// for token-regulated disciplines; `None` otherwise.
    fn token_fill_rate(&self, _client: ClientId) -> Option<f64> {
        None
    }

    /// A client left the cell (roamed away or timed out). Flushes the
    /// client's buffered packets and returns them so the embedder can
    /// close their lifecycles; any per-client service state (token
    /// balance, deficit, grant carry) is dropped — a station that comes
    /// back re-registers from scratch via
    /// [`on_associate`](ApScheduler::on_associate). The default keeps
    /// every packet, as a discipline that cannot tell whose packets are
    /// whose would.
    fn on_disassociate(&mut self, _client: ClientId, _now: SimTime) -> Vec<QueuedPacket> {
        Vec::new()
    }

    /// The network layer has a packet for `client` (APPTXEVENT).
    fn enqueue(&mut self, pkt: QueuedPacket, now: SimTime) -> EnqueueOutcome;

    /// The MAC is ready for a frame (MACTXEVENT): pick one, if any
    /// client is currently eligible.
    fn dequeue(&mut self, now: SimTime) -> Option<QueuedPacket>;

    /// A frame exchange involving `client` finished, consuming `airtime`
    /// of channel occupancy (COMPLETEEVENT). `sent_by_ap` distinguishes
    /// downlink from uplink frames; both debit the same client.
    fn on_complete(
        &mut self,
        _client: ClientId,
        _airtime: SimDuration,
        _sent_by_ap: bool,
        _now: SimTime,
    ) {
    }

    /// Periodic maintenance (token refill, rate adjustment).
    fn on_tick(&mut self, _now: SimTime) {}

    /// How often [`on_tick`](ApScheduler::on_tick) must run; `None` for
    /// disciplines that need no timer.
    fn tick_period(&self) -> Option<SimDuration> {
        None
    }

    /// True when the scheduler replays its periodic `on_tick` work
    /// lazily — catching internal state up on every entry point with
    /// arithmetic identical to dense ticking — so the driver may skip
    /// idle ticks entirely and consult [`next_wake`] only when the
    /// scheduler is blocked.
    ///
    /// [`next_wake`]: ApScheduler::next_wake
    fn coalescible(&self) -> bool {
        false
    }

    /// When the scheduler is blocked (backlog but nothing eligible),
    /// the instant by which it wants to be consulted again. Estimates
    /// must be conservative: an early wake is a harmless no-op, a late
    /// one would change behaviour relative to dense ticking. `None`
    /// when no wake-up is needed.
    fn next_wake(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// The queues this discipline's packets wait in.
    fn pool(&self) -> &QueuePool;

    /// Total packets currently buffered.
    fn backlog(&self) -> usize {
        self.pool().backlog()
    }

    /// Packets currently buffered for `client` (for disciplines with a
    /// single shared queue, the shared occupancy). Lets traffic sources
    /// apply upstream back-pressure instead of blind-feeding a full
    /// buffer.
    fn queue_len(&self, client: ClientId) -> usize {
        let pool = self.pool();
        pool.slot_of(client).map_or(0, |i| pool.queues[i].len())
    }

    /// True when [`dequeue`](ApScheduler::dequeue) would return a packet.
    fn has_eligible(&self, _now: SimTime) -> bool {
        self.backlog() > 0
    }

    /// Packets dropped by the buffer policy so far.
    fn drops(&self) -> u64 {
        self.pool().drops()
    }
}

/// Per-client drop-tail queues with a shared total budget, as in the
/// paper's §4.4: an AP with total buffer x serves n clients with n
/// queues of x/n packets each.
pub struct QueuePool {
    /// One FIFO per registered client, in slot order.
    pub queues: Vec<VecDeque<QueuedPacket>>,
    /// Slot → client mapping (append-only).
    pub clients: Vec<ClientId>,
    total_budget: usize,
    drops: u64,
    policy: BufferPolicy,
    red: Vec<RedState>,
    rng: SimRng,
}

impl QueuePool {
    pub fn new(total_budget: usize) -> Self {
        Self::with_policy(total_budget, BufferPolicy::DropTail)
    }

    pub fn with_policy(total_budget: usize, policy: BufferPolicy) -> Self {
        QueuePool {
            queues: Vec::new(),
            clients: Vec::new(),
            total_budget: total_budget.max(1),
            drops: 0,
            policy,
            red: Vec::new(),
            // Deterministic: the pool's RED randomness is part of the
            // scheduler's state, seeded the same every run.
            rng: SimRng::new(0x52ED_0BFF),
        }
    }

    pub fn slot_of(&self, client: ClientId) -> Option<usize> {
        self.clients.iter().position(|&c| c == client)
    }

    pub fn add_client(&mut self, client: ClientId) -> usize {
        match self.slot_of(client) {
            Some(i) => i,
            None => {
                self.clients.push(client);
                self.queues.push(VecDeque::new());
                self.red.push(RedState::default());
                self.queues.len() - 1
            }
        }
    }

    pub fn per_queue_cap(&self) -> usize {
        (self.total_budget / self.queues.len().max(1)).max(1)
    }

    pub fn enqueue(&mut self, pkt: QueuedPacket) -> EnqueueOutcome {
        let slot = self.add_client(pkt.client);
        let cap = self.per_queue_cap();
        let len = self.queues[slot].len();
        if self.red[slot].should_drop(&self.policy, len, cap, &mut self.rng) {
            self.drops += 1;
            EnqueueOutcome::Dropped
        } else {
            self.queues[slot].push_back(pkt);
            EnqueueOutcome::Accepted
        }
    }

    /// Drains and returns every packet buffered for `client`. The slot
    /// itself persists (slots are append-only so RR/DRR rotation
    /// indices stay stable across association churn); only its contents
    /// and RED history go.
    pub fn flush_client(&mut self, client: ClientId) -> Vec<QueuedPacket> {
        match self.slot_of(client) {
            Some(i) => {
                self.red[i] = RedState::default();
                self.queues[i].drain(..).collect()
            }
            None => Vec::new(),
        }
    }

    /// Counts a drop decided outside the pool's own buffer policy
    /// (e.g. traffic addressed to a disassociated client).
    pub fn note_drop(&mut self) {
        self.drops += 1;
    }

    pub fn backlog(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    pub fn drops(&self) -> u64 {
        self.drops
    }

    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// True when no client slot has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }
}
