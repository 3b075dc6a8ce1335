//! Proportional-fair downlink scheduling (the cellular classic).
//!
//! Patras et al. derive proportional-fair allocations for multi-rate
//! Wi-Fi; the mechanism itself is the canonical cellular PF loop (the
//! SNIPPETS.md 4G exemplar): serve the backlogged client maximising
//!
//! ```text
//!     priority_i = weight_i × R_i / T_i
//! ```
//!
//! where `R_i` is the client's *instantaneous achievable rate* and
//! `T_i` its **β-EWMA average allocated rate**, updated after every
//! service opportunity:
//!
//! ```text
//!     T_i ← (1 − β_eff)·T_i + β_eff·(served ? R_i : 0)
//! ```
//!
//! Cellular PF updates once per TTI, and because TTIs all last the same
//! time, averaging *per opportunity* equals averaging *per unit time*.
//! 802.11 exchanges do not: an 11 Mbit/s frame occupies ~1.6 ms, a
//! 1 Mbit/s frame ~12.9 ms. Averaging per opportunity would converge to
//! frame fairness (each client wins half the opportunities) — exactly
//! the throughput-fair anomaly the paper diagnoses. So the update is
//! time-weighted: `β_eff = 1 − (1 − β)^(Δt / 1 ms)` treats a Δt-long
//! exchange as Δt worth of 1 ms slots, making `T_i` a true *time*
//! average. The equilibrium is then `priority_i = w_i / airtime_share_i`
//! and equalising priorities equalises airtime — PF lands on the
//! paper's time-fair side of the ledger.
//!
//! Serving a client raises its average and lowers its future priority;
//! an unserved client's average decays toward zero and its priority
//! climbs until it wins — the argmax maximises `Σ log(throughput)`
//! long-term. A station the AP has never observed transmitting gets
//! infinite priority (it must be sampled before it can be compared),
//! with ties broken round-robin so cold starts stay fair.
//!
//! Embedded at an AP, `R_i` is not a channel-quality report: the
//! scheduler *measures* it as `bytes × 8 / airtime` of each completed
//! downlink exchange (the same COMPLETEEVENT feedback TBR debits tokens
//! with), lightly smoothed. Like TXOP grants, PF paces only what
//! the AP itself transmits — for uplink TCP the paced entities are the
//! acks, which throttle the sender by ack-clocking.
//!
//! Every update happens inside an event hook ([`PfScheduler::dequeue`]
//! / [`PfScheduler::on_complete`]): there are no timer ticks, so dense
//! and coalesced tick modes follow bit-identical trajectories and the
//! repo's determinism contract holds by construction.

use airtime_core::{ApScheduler, BufferPolicy, ClientId, EnqueueOutcome, QueuePool, QueuedPacket};
use airtime_sim::{SimDuration, SimTime};

/// Reference slot length for the time-weighted averaging step: β is
/// interpreted as "per 1 ms of channel time".
const REF_SLOT_SECS: f64 = 1.0e-3;

/// EWMA weight for the `R_i` *measurement* smoother. Decoupled from β:
/// β sets the fairness horizon (how long past allocations count), while
/// this only damps per-frame airtime jitter in the rate estimate.
const RATE_SMOOTH: f64 = 0.1;

/// Tunables for [`PfScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct PfConfig {
    /// EWMA weight β for the average allocated rate `T_i`, per 1 ms of
    /// channel time (0 < β ≤ 1). The fairness horizon is t_c ≈ 1/β ms:
    /// the classic choice t_c = 1000 slots gives β = 0.001 (≈ 1 s),
    /// which is the default. Larger β tracks faster but drifts toward
    /// per-frame fairness once the horizon nears a slow frame's ~13 ms
    /// airtime.
    pub beta: f64,
    /// Total packet buffer split across client queues (§4.4).
    pub total_buffer: usize,
    /// Queue drop policy.
    pub buffer: BufferPolicy,
}

impl Default for PfConfig {
    fn default() -> Self {
        PfConfig {
            beta: 0.001,
            total_buffer: 100,
            buffer: BufferPolicy::DropTail,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct PfState {
    /// QoS weight (1.0 = equal share).
    weight: f64,
    /// Measured instantaneous achievable rate `R_i`, bit/s (β-EWMA of
    /// `bytes × 8 / airtime` over completed downlink exchanges).
    inst: f64,
    /// β-EWMA average allocated rate `T_i`, bit/s.
    avg: f64,
    /// Completed downlink exchanges observed (0 = never sampled, which
    /// grants infinite priority until the first measurement lands).
    samples: u64,
    /// Bytes of the most recent AP transmission to this client, awaiting
    /// its COMPLETEEVENT so `R_i` can be sampled.
    pending_bytes: u64,
    active: bool,
}

impl PfState {
    fn fresh(weight: f64) -> Self {
        PfState {
            weight,
            inst: 0.0,
            avg: 0.0,
            samples: 0,
            pending_bytes: 0,
            active: true,
        }
    }
}

/// Proportional-fair AP scheduler.
pub struct PfScheduler {
    config: PfConfig,
    pool: QueuePool,
    states: Vec<PfState>,
    /// Rotating tie-break origin (cold-start clients share infinite
    /// priority; steady-state f64 ties are rare but must stay fair).
    next: usize,
}

impl PfScheduler {
    /// Creates an empty proportional-fair scheduler.
    pub fn new(config: PfConfig) -> Self {
        assert!(
            config.beta > 0.0 && config.beta <= 1.0,
            "beta must be in (0, 1]"
        );
        PfScheduler {
            pool: QueuePool::with_policy(config.total_buffer, config.buffer),
            config,
            states: Vec::new(),
            next: 0,
        }
    }

    /// The client's current β-EWMA average allocated rate `T_i`, bit/s.
    pub fn average_rate(&self, client: ClientId) -> Option<f64> {
        self.pool.slot_of(client).map(|i| self.states[i].avg)
    }

    /// The client's measured instantaneous rate `R_i`, bit/s (`None`
    /// before the first completed downlink exchange).
    pub fn instantaneous_rate(&self, client: ClientId) -> Option<f64> {
        self.pool
            .slot_of(client)
            .filter(|&i| self.states[i].samples > 0)
            .map(|i| self.states[i].inst)
    }

    fn register(&mut self, client: ClientId, weight: f64) {
        let slot = self.pool.add_client(client);
        if slot >= self.states.len() {
            self.states.push(PfState::fresh(weight));
        } else if !self.states[slot].active {
            // Re-association starts from scratch: stale rate history
            // would mis-rank the client against the current cell.
            self.states[slot] = PfState::fresh(weight);
        } else {
            self.states[slot].weight = weight;
        }
    }

    /// The PF metric for slot `i`, or `None` when it cannot compete
    /// (inactive or empty queue). `f64::INFINITY` marks a never-sampled
    /// client that must be scheduled to be measured.
    fn priority(&self, i: usize) -> Option<f64> {
        let s = &self.states[i];
        if !s.active || self.pool.queues[i].is_empty() {
            return None;
        }
        if s.samples == 0 {
            return Some(f64::INFINITY);
        }
        // avg can only be 0 here if every allocation decayed away
        // entirely (β = 1 and an unserved stretch); treat as maximal
        // urgency like a cold start.
        if s.avg <= 0.0 {
            return Some(f64::INFINITY);
        }
        Some(s.weight * s.inst / s.avg)
    }
}

impl ApScheduler for PfScheduler {
    fn on_associate(&mut self, client: ClientId, _now: SimTime) {
        // Keep an existing weight on redundant registration.
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
        }
        flushed
    }

    fn enqueue(&mut self, pkt: QueuedPacket, now: SimTime) -> EnqueueOutcome {
        self.on_associate(pkt.client, now);
        self.pool.enqueue(pkt)
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<QueuedPacket> {
        let n = self.pool.len();
        if n == 0 || self.pool.backlog() == 0 {
            return None;
        }
        // Argmax of the PF metric; scanning from the rotating origin
        // makes equal priorities take turns (strict `>` keeps the first
        // maximum found in scan order).
        let mut best: Option<(usize, f64)> = None;
        for k in 0..n {
            let i = (self.next + k) % n;
            if let Some(p) = self.priority(i) {
                if best.is_none_or(|(_, bp)| p > bp) {
                    best = Some((i, p));
                }
            }
        }
        let (i, _) = best?;
        let pkt = self.pool.queues[i].pop_front()?;
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
        // PF paces only the AP's own transmissions (like TXOP grants);
        // uplink exchanges carry no allocation to account.
        if !sent_by_ap {
            return;
        }
        let Some(slot) = self.pool.slot_of(client) else {
            return;
        };
        let beta = self.config.beta;
        let secs = airtime.as_secs_f64();
        let bytes = self.states[slot].pending_bytes;
        // Sample R_i from the exchange the AP just completed. A late
        // completion for a client with no recorded transmission (e.g.
        // a frame already committed to the MAC when the client
        // disassociated and re-associated) contributes no sample.
        if secs > 0.0 && bytes > 0 {
            let sample = bytes as f64 * 8.0 / secs;
            let s = &mut self.states[slot];
            s.inst = if s.samples == 0 {
                sample
            } else {
                (1.0 - RATE_SMOOTH) * s.inst + RATE_SMOOTH * sample
            };
            s.samples += 1;
            s.pending_bytes = 0;
        }
        // The PF averaging step: every active client's T_i moves — the
        // served one toward its achieved rate, the rest toward zero.
        // Time-weighted (see module docs): a Δt-long exchange counts as
        // Δt / 1 ms equal slots, so T_i averages over channel time, not
        // over variable-length opportunities.
        let beta_eff = 1.0 - (1.0 - beta).powf(secs / REF_SLOT_SECS);
        let served_rate = {
            let s = &self.states[slot];
            if secs > 0.0 {
                s.inst
            } else {
                0.0
            }
        };
        for (i, s) in self.states.iter_mut().enumerate() {
            if !s.active {
                continue;
            }
            let allocated = if i == slot { served_rate } else { 0.0 };
            s.avg = (1.0 - beta_eff) * s.avg + beta_eff * allocated;
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

    /// Saturated synthetic channel: per-client frame airtimes, greedy
    /// backlog, serve until `span` of channel time has elapsed.
    fn drive(costs: &[SimDuration], span: SimDuration) -> (Vec<SimDuration>, Vec<u64>) {
        let mut s = PfScheduler::new(PfConfig::default());
        let n = costs.len();
        let mut now = SimTime::ZERO;
        for c in 0..n {
            s.on_associate(ClientId(c), now);
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
    fn equal_rates_degenerate_to_equal_service() {
        let (_, frames) = drive(&[AIRTIME_11M, AIRTIME_11M], SimDuration::from_secs(10));
        let ratio = frames[0] as f64 / frames[1] as f64;
        assert!((0.95..1.05).contains(&ratio), "frame ratio {ratio}");
    }

    #[test]
    fn mixed_rates_yield_equal_airtime_shares() {
        // The PF equilibrium for two saturated clients on a
        // time-shared channel is equal *time* shares: each client's
        // priority R_i/T_i settles where time fractions equalise, so
        // the fast client moves ~8× the frames of the 1M one.
        let (airtime, frames) = drive(&[AIRTIME_11M, AIRTIME_1M], SimDuration::from_secs(30));
        let ratio = airtime[0].as_secs_f64() / airtime[1].as_secs_f64();
        assert!((0.85..1.15).contains(&ratio), "airtime ratio {ratio}");
        assert!(
            frames[0] > 5 * frames[1],
            "fast client should move far more frames: {frames:?}"
        );
    }

    #[test]
    fn weight_tilts_airtime() {
        let mut s = PfScheduler::new(PfConfig::default());
        let now = SimTime::ZERO;
        s.on_associate_weighted(ClientId(0), 2.0, now);
        s.on_associate_weighted(ClientId(1), 1.0, now);
        let costs = [AIRTIME_11M, AIRTIME_11M];
        let mut served = [SimDuration::ZERO; 2];
        let mut t = SimTime::ZERO;
        let mut h = 0;
        while t < SimTime::ZERO + SimDuration::from_secs(20) {
            for c in 0..2 {
                while s.queue_len(ClientId(c)) < 10 {
                    s.enqueue(pkt(c, h), t);
                    h += 1;
                }
            }
            let p = s.dequeue(t).unwrap();
            let cost = costs[p.client.index()];
            t += cost;
            served[p.client.index()] += cost;
            s.on_complete(p.client, cost, true, t);
        }
        let ratio = served[0].as_secs_f64() / served[1].as_secs_f64();
        assert!(ratio > 1.5, "weight-2 client got ratio {ratio}");
    }

    #[test]
    fn cold_start_samples_every_client_before_ranking() {
        let mut s = PfScheduler::new(PfConfig::default());
        let now = SimTime::ZERO;
        for c in 0..3 {
            s.on_associate(ClientId(c), now);
            s.enqueue(pkt(c, c as u64), now);
        }
        let mut first: Vec<usize> = Vec::new();
        for _ in 0..3 {
            let p = s.dequeue(now).unwrap();
            first.push(p.client.index());
            s.on_complete(p.client, AIRTIME_11M, true, now);
        }
        first.sort_unstable();
        assert_eq!(first, vec![0, 1, 2], "each client sampled once first");
    }

    #[test]
    fn uplink_completions_are_ignored() {
        let mut s = PfScheduler::new(PfConfig::default());
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_complete(ClientId(0), AIRTIME_1M, false, now);
        assert_eq!(s.average_rate(ClientId(0)), Some(0.0));
        assert_eq!(s.instantaneous_rate(ClientId(0)), None);
    }

    #[test]
    fn work_conserving_and_tick_free() {
        let mut s = PfScheduler::new(PfConfig::default());
        let now = SimTime::ZERO;
        s.enqueue(pkt(0, 1), now);
        assert!(s.has_eligible(now));
        assert!(s.dequeue(now).is_some());
        assert_eq!(s.tick_period(), None);
    }

    #[test]
    fn reassociation_resets_rate_history() {
        let mut s = PfScheduler::new(PfConfig::default());
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.enqueue(pkt(0, 1), now);
        let p = s.dequeue(now).unwrap();
        s.on_complete(p.client, AIRTIME_11M, true, now);
        assert!(s.instantaneous_rate(ClientId(0)).is_some());
        s.on_disassociate(ClientId(0), now);
        s.on_associate(ClientId(0), now);
        assert_eq!(s.instantaneous_rate(ClientId(0)), None);
    }
}
