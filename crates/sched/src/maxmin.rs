//! Max-min fair scheduling by airtime waterfilling.
//!
//! The allocation target comes from [`airtime_core::waterfill_airtime`]:
//! raise a common water level τ and give every client the throughput
//! `x_i = min(demand_i, w_i·τ)` subject to the channel-time constraint
//! `Σ x_i / r_i ≤ 1`, where `r_i` is the client's achievable rate. For
//! saturated multi-rate cells this *equalises throughput* — every
//! client drains at the rate the slowest constraint allows — which is
//! exactly the throughput-fair baseline the paper measures FIFO/DRR
//! against, but computed in closed form rather than emerging from
//! per-packet accounting.
//!
//! The scheduler realises the target with a credit loop:
//!
//! 1. On every service decision, re-waterfill over the *backlogged*
//!    clients (demand = achievable rate when backlogged, 0 otherwise)
//!    and accrue `credit_i += x_i · Δt` bits since the last decision.
//! 2. Serve the backlogged client with the most credit (rotating
//!    tie-break) and debit the packet's bits.
//!
//! Credits are capped at a short burst window so a client that was
//! starved by the MAC cannot bank unbounded service, and may go
//! negative so the loop stays **work-conserving**: whenever anything is
//! backlogged, something is served.
//!
//! Achievable rates are measured, not configured: like the PF
//! contender, each AP transmission's `bytes × 8 / airtime` feeds an
//! EWMA per client (new clients start from a nominal estimate until the
//! first sample lands). All state changes live in event hooks — no
//! timer ticks — so dense and coalesced tick modes are bit-identical by
//! construction.

use airtime_core::{
    waterfill_airtime, ApScheduler, BufferPolicy, ClientId, EnqueueOutcome, QueuePool, QueuedPacket,
};
use airtime_sim::{SimDuration, SimTime};

/// Nominal achievable-rate estimate (bit/s) for a client the AP has not
/// yet observed transmitting — roughly 802.11b's 11 Mbit/s of MAC-layer
/// goodput. Replaced by measurement after the first completed exchange.
const NOMINAL_RATE: f64 = 1.0e7;

/// Burst window for banked credit, seconds: a client can owe or be owed
/// at most this much of its waterfilled share.
const CREDIT_CAP_SECS: f64 = 0.25;

/// Tunables for [`MaxMinScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct MaxMinConfig {
    /// EWMA weight for the measured achievable rate `r_i` (0 < α ≤ 1).
    pub rate_ewma: f64,
    /// Total packet buffer split across client queues (§4.4).
    pub total_buffer: usize,
    /// Queue drop policy.
    pub buffer: BufferPolicy,
}

impl Default for MaxMinConfig {
    fn default() -> Self {
        MaxMinConfig {
            rate_ewma: 0.2,
            total_buffer: 100,
            buffer: BufferPolicy::DropTail,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct MmState {
    /// QoS weight (scales the water level share).
    weight: f64,
    /// Measured achievable rate `r_i`, bit/s (EWMA; [`NOMINAL_RATE`]
    /// until the first sample).
    rate: f64,
    /// Completed downlink exchanges observed.
    samples: u64,
    /// Bytes of the most recent AP transmission awaiting completion.
    pending_bytes: u64,
    /// Banked service, bits. Negative = served ahead of its share.
    credit: f64,
    active: bool,
}

impl MmState {
    fn fresh(weight: f64) -> Self {
        MmState {
            weight,
            rate: NOMINAL_RATE,
            samples: 0,
            pending_bytes: 0,
            credit: 0.0,
            active: true,
        }
    }
}

/// Max-min (waterfilling) AP scheduler.
pub struct MaxMinScheduler {
    config: MaxMinConfig,
    pool: QueuePool,
    states: Vec<MmState>,
    /// Instant of the last credit accrual.
    last_accrual: SimTime,
    /// Rotating tie-break origin for equal credits.
    next: usize,
    /// Waterfilling inputs and outputs, kept between decisions so
    /// `accrue` allocates nothing in steady state.
    scratch: Waterfill,
}

/// Reusable per-slot buffers for one waterfilling pass.
#[derive(Default)]
struct Waterfill {
    demands: Vec<f64>,
    rates: Vec<f64>,
    weights: Vec<f64>,
    targets: Vec<f64>,
    saturated: Vec<bool>,
}

impl MaxMinScheduler {
    /// Creates an empty max-min scheduler.
    pub fn new(config: MaxMinConfig) -> Self {
        assert!(
            config.rate_ewma > 0.0 && config.rate_ewma <= 1.0,
            "rate_ewma must be in (0, 1]"
        );
        MaxMinScheduler {
            pool: QueuePool::with_policy(config.total_buffer, config.buffer),
            config,
            states: Vec::new(),
            last_accrual: SimTime::ZERO,
            next: 0,
            scratch: Waterfill::default(),
        }
    }

    /// The client's current achievable-rate estimate `r_i`, bit/s
    /// (`None` before the first completed downlink exchange).
    pub fn achievable_rate(&self, client: ClientId) -> Option<f64> {
        self.pool
            .slot_of(client)
            .filter(|&i| self.states[i].samples > 0)
            .map(|i| self.states[i].rate)
    }

    fn register(&mut self, client: ClientId, weight: f64) {
        let slot = self.pool.add_client(client);
        if slot >= self.states.len() {
            self.states.push(MmState::fresh(weight));
        } else if !self.states[slot].active {
            // Re-association starts clean: banked credit and stale rate
            // history belong to the previous visit.
            self.states[slot] = MmState::fresh(weight);
        } else {
            self.states[slot].weight = weight;
        }
    }

    /// Waterfills the current backlog picture and banks `Δt` worth of
    /// each client's target throughput as credit.
    fn accrue(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_accrual).as_secs_f64();
        self.last_accrual = now;
        if dt <= 0.0 {
            return;
        }
        let w = &mut self.scratch;
        w.demands.clear();
        w.rates.clear();
        w.weights.clear();
        let mut any = false;
        for (i, s) in self.states.iter().enumerate() {
            let rate = s.rate.max(1.0);
            w.rates.push(rate);
            // A departed slot has zero demand, so its (positive) weight
            // never binds; a zero weight would fail the waterfill.
            w.weights.push(s.weight);
            // Saturated demand: a backlogged client wants all the rate
            // its link can carry; the water level trims it.
            let backlogged = s.active && !self.pool.queues[i].is_empty();
            w.demands.push(if backlogged { rate } else { 0.0 });
            any |= backlogged;
        }
        if !any {
            return;
        }
        waterfill_airtime(
            &w.demands,
            &w.rates,
            &w.weights,
            &mut w.targets,
            &mut w.saturated,
        );
        for (s, &target) in self.states.iter_mut().zip(&w.targets) {
            let cap = CREDIT_CAP_SECS * target.max(s.rate);
            s.credit = (s.credit + target * dt).min(cap);
        }
    }
}

impl ApScheduler for MaxMinScheduler {
    fn on_associate(&mut self, client: ClientId, _now: SimTime) {
        let weight = self
            .pool
            .slot_of(client)
            .filter(|&i| self.states[i].active)
            .map(|i| self.states[i].weight)
            .unwrap_or(1.0);
        self.register(client, weight);
    }

    fn on_associate_weighted(&mut self, client: ClientId, weight: f64, _now: SimTime) {
        assert!(weight > 0.0, "weight must be positive");
        self.register(client, weight);
    }

    fn on_disassociate(&mut self, client: ClientId, _now: SimTime) -> Vec<QueuedPacket> {
        let flushed = self.pool.flush_client(client);
        if let Some(slot) = self.pool.slot_of(client) {
            self.states[slot].active = false;
            self.states[slot].pending_bytes = 0;
            self.states[slot].credit = 0.0;
        }
        flushed
    }

    fn enqueue(&mut self, pkt: QueuedPacket, now: SimTime) -> EnqueueOutcome {
        self.on_associate(pkt.client, now);
        self.pool.enqueue(pkt)
    }

    fn dequeue(&mut self, now: SimTime) -> Option<QueuedPacket> {
        if self.pool.backlog() == 0 {
            return None;
        }
        self.accrue(now);
        let n = self.pool.len();
        // Work-conserving argmax: credits may be negative, but as long
        // as anything is backlogged something gets served.
        let mut best: Option<(usize, f64)> = None;
        for k in 0..n {
            let i = (self.next + k) % n;
            if !self.states[i].active || self.pool.queues[i].is_empty() {
                continue;
            }
            let c = self.states[i].credit;
            if best.is_none_or(|(_, bc)| c > bc) {
                best = Some((i, c));
            }
        }
        let (i, _) = best?;
        let pkt = self.pool.queues[i].pop_front()?;
        self.states[i].credit -= pkt.bytes as f64 * 8.0;
        self.states[i].pending_bytes = pkt.bytes;
        self.next = (i + 1) % n;
        Some(pkt)
    }

    fn on_complete(
        &mut self,
        client: ClientId,
        airtime: SimDuration,
        sent_by_ap: bool,
        _now: SimTime,
    ) {
        // Only the AP's own transmissions carry a rate sample the
        // scheduler can attribute (mirrors the PF contender and TXOP).
        if !sent_by_ap {
            return;
        }
        let Some(slot) = self.pool.slot_of(client) else {
            return;
        };
        let secs = airtime.as_secs_f64();
        let bytes = self.states[slot].pending_bytes;
        if secs > 0.0 && bytes > 0 {
            let sample = bytes as f64 * 8.0 / secs;
            let a = self.config.rate_ewma;
            let s = &mut self.states[slot];
            s.rate = if s.samples == 0 {
                sample
            } else {
                (1.0 - a) * s.rate + a * sample
            };
            s.samples += 1;
            s.pending_bytes = 0;
        }
    }

    fn pool(&self) -> &QueuePool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AIRTIME_11M: SimDuration = SimDuration::from_micros(1617);
    const AIRTIME_1M: SimDuration = SimDuration::from_micros(12_854);

    fn pkt(client: usize, handle: u64) -> QueuedPacket {
        QueuedPacket {
            client: ClientId(client),
            handle,
            bytes: 1500,
        }
    }

    /// Saturated synthetic channel: greedy backlog per client, serve
    /// until `span` of channel time has elapsed.
    fn drive(
        costs: &[SimDuration],
        weights: &[f64],
        span: SimDuration,
    ) -> (Vec<SimDuration>, Vec<u64>) {
        let mut s = MaxMinScheduler::new(MaxMinConfig::default());
        let n = costs.len();
        let mut now = SimTime::ZERO;
        for (c, &w) in weights.iter().enumerate() {
            s.on_associate_weighted(ClientId(c), w, now);
        }
        let end = SimTime::ZERO + span;
        let mut airtime = vec![SimDuration::ZERO; n];
        let mut frames = vec![0u64; n];
        let mut h = 0;
        while now < end {
            for c in 0..n {
                while s.queue_len(ClientId(c)) < 10 {
                    s.enqueue(pkt(c, h), now);
                    h += 1;
                }
            }
            let p = s.dequeue(now).expect("work-conserving under backlog");
            let cost = costs[p.client.index()];
            now += cost;
            airtime[p.client.index()] += cost;
            frames[p.client.index()] += 1;
            s.on_complete(p.client, cost, true, now);
        }
        (airtime, frames)
    }

    #[test]
    fn equal_rates_split_evenly() {
        let (_, frames) = drive(
            &[AIRTIME_11M, AIRTIME_11M],
            &[1.0, 1.0],
            SimDuration::from_secs(10),
        );
        let ratio = frames[0] as f64 / frames[1] as f64;
        assert!((0.95..1.05).contains(&ratio), "frame ratio {ratio}");
    }

    #[test]
    fn saturated_mixed_rates_equalize_throughput() {
        // Saturated max-min over a multi-rate cell is throughput-fair:
        // both clients drain equal bits, so the 1 Mbit/s client eats
        // ~8× the airtime of the 11 Mbit/s one.
        let (airtime, frames) = drive(
            &[AIRTIME_11M, AIRTIME_1M],
            &[1.0, 1.0],
            SimDuration::from_secs(30),
        );
        let fr = frames[0] as f64 / frames[1] as f64;
        assert!((0.9..1.1).contains(&fr), "frame ratio {fr}");
        assert!(
            airtime[1].as_secs_f64() > 5.0 * airtime[0].as_secs_f64(),
            "slow client should dominate airtime: {airtime:?}"
        );
    }

    #[test]
    fn weights_tilt_throughput() {
        let (_, frames) = drive(
            &[AIRTIME_11M, AIRTIME_11M],
            &[2.0, 1.0],
            SimDuration::from_secs(20),
        );
        let ratio = frames[0] as f64 / frames[1] as f64;
        assert!(
            (1.6..2.4).contains(&ratio),
            "weight-2 client should move ~2x the frames, got {ratio}"
        );
    }

    #[test]
    fn idle_client_banks_no_credit() {
        let mut s = MaxMinScheduler::new(MaxMinConfig::default());
        let mut now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        // Client 0 saturates alone for a second; client 1 stays idle.
        let mut h = 0;
        for _ in 0..100 {
            while s.queue_len(ClientId(0)) < 4 {
                s.enqueue(pkt(0, h), now);
                h += 1;
            }
            let p = s.dequeue(now).unwrap();
            now += AIRTIME_11M;
            s.on_complete(p.client, AIRTIME_11M, true, now);
        }
        // When client 1 finally shows up it competes from (near) zero
        // credit — no stockpile from its idle period.
        s.enqueue(pkt(1, h), now);
        let banked = s.states[1].credit;
        assert!(
            banked <= 1.0,
            "idle client must not bank credit, has {banked} bits"
        );
    }

    #[test]
    fn uplink_completions_are_ignored() {
        let mut s = MaxMinScheduler::new(MaxMinConfig::default());
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_complete(ClientId(0), AIRTIME_1M, false, now);
        assert_eq!(s.achievable_rate(ClientId(0)), None);
    }

    #[test]
    fn work_conserving_and_tick_free() {
        let mut s = MaxMinScheduler::new(MaxMinConfig::default());
        let now = SimTime::ZERO;
        s.enqueue(pkt(0, 1), now);
        assert!(s.has_eligible(now));
        assert!(s.dequeue(now).is_some());
        assert_eq!(s.tick_period(), None);
    }

    #[test]
    fn reassociation_resets_state() {
        let mut s = MaxMinScheduler::new(MaxMinConfig::default());
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.enqueue(pkt(0, 1), now);
        let p = s.dequeue(now).unwrap();
        s.on_complete(p.client, AIRTIME_11M, true, now);
        assert!(s.achievable_rate(ClientId(0)).is_some());
        s.on_disassociate(ClientId(0), now);
        s.on_associate(ClientId(0), now);
        assert_eq!(s.achievable_rate(ClientId(0)), None);
        assert_eq!(s.states[0].credit, 0.0);
    }
}
