//! TBR — the Time-based Regulator (§4 of the paper).
//!
//! TBR runs at the AP, above the MAC and below the network layer, and
//! regulates packet release so that every competing client receives an
//! equal (or weighted) long-term share of *channel occupancy time*. It
//! is a leaky/token bucket per client whose token unit is **channel time
//! in microseconds**, not bytes — that single design choice is what
//! turns throughput-based fairness into time-based fairness:
//!
//! - **ASSOCIATEEVENT** ([`TbrScheduler::on_associate`]): create the
//!   client's queue, initialise `tokens`, `bucket` and `rate`.
//! - **FILLEVENT** (inside [`TbrScheduler::on_tick`]): add
//!   `elapsed × rateᵢ` tokens, capped at `bucketᵢ`.
//! - **APPTXEVENT** ([`TbrScheduler::enqueue`]): queue a packet on its
//!   client's queue (any buffer policy works; drop-tail here, §4.4).
//! - **MACTXEVENT** ([`TbrScheduler::dequeue`]): when the MAC can take a
//!   frame, pick round-robin among queues that are non-empty *and* have
//!   positive tokens. Round-robin choice only affects short-term
//!   fairness, not correctness (§4.1).
//! - **COMPLETEEVENT** ([`TbrScheduler::on_complete`]): debit the
//!   client's tokens by the exchange's measured channel occupancy —
//!   including retransmissions, and for *both* uplink and downlink
//!   frames, since the AP is only a facilitator (§2.2).
//! - **ADJUSTRATEEVENT** (inside [`TbrScheduler::on_tick`]): keep the
//!   channel fully utilised without violating max-min fairness by
//!   moving rate from the most under-utilising client (half its excess
//!   at a time) to the clients that consumed their full allocation
//!   (§4.3, Figure 7).
//!
//! Uplink TCP needs no client cooperation: the acks of an uplink flow
//! are downlink packets through these queues, so exhausted tokens stall
//! the acks and ack-clocking throttles the sender. Uplink UDP requires
//! the optional client-side defer (the notification-bit mechanism of
//! §4.1), which `airtime-wlan` implements as an extension.

use airtime_sim::{SimDuration, SimTime};

use airtime_core::{ApScheduler, BufferPolicy, ClientId, EnqueueOutcome, QueuePool, QueuedPacket};

/// Tunables for [`TbrScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct TbrConfig {
    /// FILLEVENT period (token refill granularity).
    pub fill_period: SimDuration,
    /// ADJUSTRATEEVENT period.
    pub adjust_period: SimDuration,
    /// Bucket depth: the maximum burst of channel time a client can
    /// accumulate (§4.5 discusses its short-term-fairness impact).
    pub bucket: SimDuration,
    /// Token balance at association (the paper's `T_init`).
    pub initial_tokens: SimDuration,
    /// `R_th`: a client whose unused fraction of its rate exceeds this
    /// is considered under-utilising by the rate adjuster.
    pub excess_threshold: f64,
    /// A client only donates rate if its queue was empty for more than
    /// `1 − demand_threshold` of the adjustment window. This guards the
    /// adjuster against misreading scheduling friction (token-bucket
    /// caps, contention gaps) of a fully backlogged client as lack of
    /// demand, which would otherwise drift rates away from fair shares.
    pub demand_threshold: f64,
    /// Rate floor: adjustment never pushes a client below this share,
    /// so a returning client can always ramp back up.
    pub min_rate: f64,
    /// A client must look under-demanding for this many consecutive
    /// adjustment windows before it donates rate. TCP traffic through a
    /// binding token gate is bursty (acks pile up and release together),
    /// so single-window excess alternates; genuine low demand (an
    /// application-limited sender) persists across windows.
    pub donation_streak: u32,
    /// Per-adjustment relaxation of every rate toward its weighted fair
    /// share. Donations taken on the basis of a transient (e.g. a
    /// client that looked idle while DCF starved it) heal instead of
    /// compounding; persistent genuine under-demand keeps winning
    /// because fresh donations outpace the relaxation.
    pub restitution: f64,
    /// Total packet buffer split evenly across client queues (§4.4).
    pub total_buffer: usize,
    /// Drop policy for those queues (§4.1: "TBR works with any
    /// buffering scheme").
    pub buffer: BufferPolicy,
}

impl Default for TbrConfig {
    fn default() -> Self {
        TbrConfig {
            fill_period: SimDuration::from_millis(2),
            adjust_period: SimDuration::from_secs(1),
            bucket: SimDuration::from_millis(20),
            initial_tokens: SimDuration::from_millis(5),
            excess_threshold: 0.10,
            demand_threshold: 0.5,
            min_rate: 0.02,
            donation_streak: 2,
            restitution: 0.1,
            total_buffer: 100,
            buffer: BufferPolicy::DropTail,
        }
    }
}

struct ClientState {
    /// Channel-time balance in nanoseconds (may be negative).
    tokens: f64,
    /// Token refill rate as a fraction of wall-clock time.
    rate: f64,
    /// QoS weight (1.0 = equal share).
    weight: f64,
    /// Channel time consumed since `start` (the paper's `actualᵢ`).
    actual: f64,
    start: SimTime,
    /// Accumulated wall time with a non-empty queue since `start`.
    demand_time: f64,
    /// When the queue last became non-empty, if it is now.
    backlog_since: Option<SimTime>,
    /// Consecutive adjustment windows this client looked under-demanding.
    low_demand_streak: u32,
    /// Smoothed share of consumed airtime across adjustment windows.
    usage_ewma: Option<f64>,
    /// False after DISASSOCIATEEVENT: the slot persists (pool slots are
    /// append-only) but the client holds no rate, receives no fills and
    /// is excluded from adjustment until it re-associates.
    active: bool,
}

impl ClientState {
    /// A client registering from scratch: `tokens` of balance, no rate
    /// until the next `reset_rates`, no usage history.
    fn fresh(weight: f64, tokens: f64, now: SimTime) -> Self {
        ClientState {
            tokens,
            rate: 0.0,
            weight,
            actual: 0.0,
            start: now,
            demand_time: 0.0,
            backlog_since: None,
            low_demand_streak: 0,
            usage_ewma: None,
            active: true,
        }
    }
}

/// The Time-based Regulator.
pub struct TbrScheduler {
    config: TbrConfig,
    pool: QueuePool,
    states: Vec<ClientState>,
    next_rr: usize,
    last_fill: SimTime,
    last_adjust: SimTime,
    /// The next FILLEVENT grid instant (multiples of `fill_period`)
    /// that has not been replayed yet. See [`TbrScheduler::catch_up`].
    next_grid: SimTime,
    /// Total channel time debited, per client (measurement).
    debited: Vec<f64>,
}

impl TbrScheduler {
    /// Creates an empty regulator.
    pub fn new(config: TbrConfig) -> Self {
        assert!(
            !config.fill_period.is_zero(),
            "fill_period must be positive"
        );
        TbrScheduler {
            pool: QueuePool::with_policy(config.total_buffer, config.buffer),
            config,
            states: Vec::new(),
            next_rr: 0,
            last_fill: SimTime::ZERO,
            last_adjust: SimTime::ZERO,
            next_grid: SimTime::ZERO + config.fill_period,
            debited: Vec::new(),
        }
    }

    /// Replays every FILLEVENT/ADJUSTRATEEVENT grid instant up to
    /// `now`, exactly as a dense tick timer would have fired them.
    ///
    /// This is what makes tick coalescing safe: fills and adjustments
    /// always execute at the same timestamps — multiples of
    /// `fill_period` — whether a timer event drove them eagerly or an
    /// enqueue/dequeue/complete arrived after an idle stretch. Since
    /// `f64` addition is not associative, replaying the *same instants*
    /// (rather than one analytically equivalent lump fill) is the only
    /// way the coalesced trajectory stays bit-for-bit identical to the
    /// dense one. Every entry point calls this first, so token and rate
    /// state is a pure function of the consult-time sequence.
    fn catch_up(&mut self, now: SimTime) {
        while self.next_grid <= now {
            let g = self.next_grid;
            self.fill(g);
            if g.saturating_since(self.last_adjust) >= self.config.adjust_period {
                self.last_adjust = g;
                self.adjust_rates(g);
            }
            self.next_grid = g + self.config.fill_period;
        }
    }

    /// Resets every rate to its weighted fair share (membership or
    /// weight changed).
    fn reset_rates(&mut self, now: SimTime) {
        let total_w: f64 = self
            .states
            .iter()
            .filter(|s| s.active)
            .map(|s| s.weight)
            .sum();
        for s in &mut self.states {
            s.rate = if s.active { s.weight / total_w } else { 0.0 };
            s.actual = 0.0;
            s.start = now;
        }
    }

    /// Total channel time ever debited to a client.
    pub fn debited_of(&self, client: ClientId) -> Option<SimDuration> {
        self.pool
            .slot_of(client)
            .map(|i| SimDuration::from_nanos(self.debited[i].max(0.0) as u64))
    }

    fn fill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_fill).as_nanos() as f64;
        if elapsed <= 0.0 {
            return;
        }
        self.last_fill = now;
        let cap = self.config.bucket.as_nanos() as f64;
        for s in &mut self.states {
            if s.active {
                s.tokens = (s.tokens + elapsed * s.rate).min(cap);
            }
        }
    }

    fn adjust_rates(&mut self, now: SimTime) {
        // Only current members participate; disassociated slots hold no
        // rate and must neither donate nor receive. With every slot
        // active (the single-cell case) the index vector is the
        // identity and the arithmetic below is unchanged term-for-term.
        let act: Vec<usize> = (0..self.states.len())
            .filter(|&i| self.states[i].active)
            .collect();
        let n = act.len();
        let total_actual: f64 = act.iter().map(|&i| self.states[i].actual).sum();
        let span_ns = act
            .first()
            .map(|&i| now.saturating_since(self.states[i].start).as_nanos() as f64)
            .unwrap_or(0.0);
        // Only adjust when the window carried meaningful traffic.
        let measurable = span_ns > 0.0 && total_actual / span_ns > 0.2;
        if n >= 2 && measurable {
            // The paper's §4.3 compares each client's rate with its
            // achieved usage. We normalise usage by the *total consumed
            // airtime* rather than wall time: a regulated cell never
            // consumes 100% of wall time (backoff, gating gaps), so a
            // wall-time comparison makes every client — including ones
            // starved by contention — look under-demanding and sends
            // the adjuster into a donation spiral. Against consumed
            // airtime, Σ usage = Σ rate = 1 and a fair cell measures
            // zero excess everywhere.
            let mut excesses = vec![0.0f64; n];
            let mut demand_fracs = vec![0.0f64; n];
            for (i, &si) in act.iter().enumerate() {
                let s = &mut self.states[si];
                let span = now.saturating_since(s.start).as_nanos() as f64;
                // Smooth the usage share across windows: TCP through a
                // binding gate is bursty, and reacting to one quiet
                // window would slowly siphon rate away from a client
                // that is merely oscillating.
                let w = s.actual / total_actual;
                let smoothed = match s.usage_ewma {
                    Some(prev) => 0.5 * prev + 0.5 * w,
                    None => w,
                };
                s.usage_ewma = Some(smoothed);
                excesses[i] = s.rate - smoothed;
                let mut demand = s.demand_time;
                if let Some(since) = s.backlog_since {
                    demand += now.saturating_since(since).as_nanos() as f64;
                }
                demand_fracs[i] = if span > 0.0 { demand / span } else { 1.0 };
            }
            let th = self.config.excess_threshold;
            let full: Vec<usize> = (0..n).filter(|&i| excesses[i] <= th).collect();
            // Donors must have spare rate, demonstrably little demand
            // (a backlogged client that fell short of its rate is
            // experiencing scheduling friction, not low demand), and a
            // *persistent* record of it across adjustment windows.
            for i in 0..n {
                let looks_idle = excesses[i] > th && demand_fracs[i] < self.config.demand_threshold;
                if looks_idle {
                    self.states[act[i]].low_demand_streak += 1;
                } else {
                    self.states[act[i]].low_demand_streak = 0;
                }
            }
            let under: Vec<usize> = (0..n)
                .filter(|&i| self.states[act[i]].low_demand_streak >= self.config.donation_streak)
                .collect();
            if !full.is_empty() && !under.is_empty() {
                // Donate half the maximal excess, respecting the floor.
                let m = *under
                    .iter()
                    .max_by(|&&a, &&b| excesses[a].total_cmp(&excesses[b]))
                    .expect("non-empty under set");
                let mut donation = excesses[m] / 2.0;
                donation = donation.min(self.states[act[m]].rate - self.config.min_rate);
                if donation > 0.0 {
                    self.states[act[m]].rate -= donation;
                    let each = donation / full.len() as f64;
                    for &j in &full {
                        self.states[act[j]].rate += each;
                    }
                }
            }
        }
        // Restitution: relax every rate toward its weighted fair share.
        // Sum-preserving because both the rates and the fair shares sum
        // to one.
        let total_w: f64 = act.iter().map(|&i| self.states[i].weight).sum();
        let k = self.config.restitution.clamp(0.0, 1.0);
        for &i in &act {
            let s = &mut self.states[i];
            let fair = s.weight / total_w;
            s.rate += k * (fair - s.rate);
        }
        for &i in &act {
            let s = &mut self.states[i];
            s.actual = 0.0;
            s.start = now;
            s.demand_time = 0.0;
            if s.backlog_since.is_some() {
                s.backlog_since = Some(now);
            }
        }
    }
}

impl ApScheduler for TbrScheduler {
    fn on_associate(&mut self, client: ClientId, now: SimTime) {
        // Idempotent while associated: re-association keeps any
        // explicitly set weight. A disassociated slot re-registers from
        // scratch with the default weight.
        match self.pool.slot_of(client) {
            Some(slot) if self.states[slot].active => {}
            _ => self.on_associate_weighted(client, 1.0, now),
        }
    }

    /// Associates `client` with a QoS weight (the §4.5 extension: the
    /// desired share need not be equal). Weight 1.0 is the paper's
    /// default equal share.
    fn on_associate_weighted(&mut self, client: ClientId, weight: f64, now: SimTime) {
        assert!(weight > 0.0, "weight must be positive");
        // Replay outstanding grid instants under the *old* membership
        // before it changes — otherwise a coalesced-mode catch-up after
        // this call would fill pre-association instants at the new
        // rates and diverge from the dense trajectory.
        self.catch_up(now);
        let slot = self.pool.add_client(client);
        let fresh = ClientState::fresh(weight, self.config.initial_tokens.as_nanos() as f64, now);
        if slot >= self.states.len() {
            self.states.push(fresh);
            self.debited.push(0.0);
        } else if !self.states[slot].active {
            // Re-association after a disassociation: the client
            // registers from scratch — fresh initial tokens, no memory
            // of its previous stint (debt was settled by leaving; usage
            // history would poison the adjuster's EWMA).
            self.states[slot] = fresh;
        } else {
            self.states[slot].weight = weight;
        }
        self.reset_rates(now);
    }

    /// Current token balance of a client in (possibly negative)
    /// nanoseconds of channel time.
    fn token_balance_ns(&self, client: ClientId) -> Option<f64> {
        self.pool.slot_of(client).map(|i| self.states[i].tokens)
    }

    /// The current token-refill rate (share of channel time) of a
    /// client, as set by fair share plus rate adjustment.
    fn token_fill_rate(&self, client: ClientId) -> Option<f64> {
        self.pool.slot_of(client).map(|i| self.states[i].rate)
    }

    /// Disassociates `client`: flushes its queue, drops its token
    /// balance (positive or negative — the account closes with the
    /// association, §4.2 keys accounts on the association lifetime) and
    /// redistributes its rate among the remaining members.
    fn on_disassociate(&mut self, client: ClientId, now: SimTime) -> Vec<QueuedPacket> {
        self.catch_up(now);
        let Some(slot) = self.pool.slot_of(client) else {
            return Vec::new();
        };
        let flushed = self.pool.flush_client(client);
        self.states[slot] = ClientState {
            active: false,
            ..ClientState::fresh(1.0, 0.0, now)
        };
        self.reset_rates(now);
        flushed
    }

    fn enqueue(&mut self, pkt: QueuedPacket, now: SimTime) -> EnqueueOutcome {
        self.catch_up(now);
        if self.pool.slot_of(pkt.client).is_none() {
            self.on_associate(pkt.client, now);
        }
        let slot = self.pool.slot_of(pkt.client).expect("associated above");
        if !self.states[slot].active {
            // Traffic addressed to a station that roamed away; without
            // an association there is no queue to hold it.
            self.pool.note_drop();
            return EnqueueOutcome::Dropped;
        }
        let was_empty = self.pool.queues[slot].is_empty();
        let outcome = self.pool.enqueue(pkt);
        if was_empty
            && outcome == EnqueueOutcome::Accepted
            && self.states[slot].backlog_since.is_none()
        {
            self.states[slot].backlog_since = Some(now);
        }
        outcome
    }

    fn dequeue(&mut self, now: SimTime) -> Option<QueuedPacket> {
        self.catch_up(now);
        self.fill(now);
        let n = self.pool.len();
        for k in 0..n {
            let i = (self.next_rr + k) % n;
            if self.states[i].tokens > 0.0 {
                if let Some(pkt) = self.pool.queues[i].pop_front() {
                    self.next_rr = (i + 1) % n;
                    if self.pool.queues[i].is_empty() {
                        if let Some(since) = self.states[i].backlog_since.take() {
                            self.states[i].demand_time +=
                                now.saturating_since(since).as_nanos() as f64;
                        }
                    }
                    return Some(pkt);
                }
            }
        }
        None
    }

    fn on_complete(
        &mut self,
        client: ClientId,
        airtime: SimDuration,
        _sent_by_ap: bool,
        now: SimTime,
    ) {
        // Catch up first: at a timestamp shared with a grid instant,
        // the debit must land after the grid's fill/adjust in *every*
        // drive mode, or dense and coalesced runs would diverge on the
        // tick-event-vs-completion-event pop order.
        self.catch_up(now);
        let slot = match self.pool.slot_of(client) {
            Some(s) => s,
            None => {
                // First sign of life from this client was an uplink
                // frame: associate it on the fly.
                self.on_associate(client, now);
                self.pool.slot_of(client).expect("just associated")
            }
        };
        let t = airtime.as_nanos() as f64;
        let s = &mut self.states[slot];
        if !s.active {
            // A frame already at the MAC when its station disassociated
            // completes against a closed account; nothing to debit.
            return;
        }
        // Debt is never forgiven: a client that consumed more channel
        // time than its allocation stays silent until the deficit is
        // repaid — that *is* the regulation. (An earlier draft clamped
        // the deficit, which quietly subsidised slow clients whose
        // single exchange exceeded the clamp.)
        s.tokens -= t;
        s.actual += t;
        self.debited[slot] += t;
    }

    fn on_tick(&mut self, now: SimTime) {
        self.catch_up(now);
        self.fill(now);
        if now.saturating_since(self.last_adjust) >= self.config.adjust_period {
            self.last_adjust = now;
            self.adjust_rates(now);
        }
    }

    fn tick_period(&self) -> Option<SimDuration> {
        Some(self.config.fill_period)
    }

    fn coalescible(&self) -> bool {
        true
    }

    fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        let p = self.config.fill_period.as_nanos();
        // First grid index strictly after `now` that has not been
        // replayed (callers catch up before asking, making these equal;
        // the max guards a stale call).
        let first_k = (self.next_grid.as_nanos() / p).max(now.as_nanos() / p + 1);
        let last_fill = self.last_fill.as_nanos() as f64;
        let mut k_min: Option<u64> = None;
        for (i, s) in self.states.iter().enumerate() {
            if self.pool.queues[i].is_empty() || s.tokens > 0.0 {
                continue;
            }
            // Tokens are as-of `last_fill`; project the refill forward
            // to the grid instant where the balance crosses zero, then
            // wake two grid steps early — the stepwise replay and this
            // analytic estimate can disagree by float rounding, and an
            // early wake is a no-op while a late one changes behaviour.
            let k = if s.rate > 0.0 {
                let cross = last_fill + (-s.tokens) / s.rate;
                let k = (cross / p as f64).ceil();
                if k.is_finite() && k >= 0.0 && k < (u64::MAX / p) as f64 {
                    (k as u64).saturating_sub(2).max(first_k)
                } else {
                    u64::MAX / p
                }
            } else {
                // No refill until the next rate adjustment.
                u64::MAX / p
            };
            k_min = Some(k_min.map_or(k, |m: u64| m.min(k)));
        }
        let k = k_min?;
        // Rates can change at the next ADJUSTRATEEVENT; never sleep
        // past it.
        let adjust_due = self.last_adjust + self.config.adjust_period;
        let k_adjust = adjust_due.as_nanos().div_ceil(p).max(first_k);
        Some(SimTime::from_nanos(k.min(k_adjust).saturating_mul(p)))
    }

    fn pool(&self) -> &QueuePool {
        &self.pool
    }

    fn has_eligible(&self, _now: SimTime) -> bool {
        // Tokens refill lazily in `dequeue`, so a queue blocked on
        // tokens counts as eligible only if a fill "now" would unblock
        // it; callers that get `true` here but `None` from `dequeue`
        // should retry at the next tick.
        (0..self.pool.len()).any(|i| !self.pool.queues[i].is_empty() && self.states[i].tokens > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::RoundRobinScheduler;

    const AIRTIME_11M: SimDuration = SimDuration::from_micros(1617); // 1500 B at 11 Mbit/s
    const AIRTIME_1M: SimDuration = SimDuration::from_micros(12_854); // 1500 B at 1 Mbit/s

    fn pkt(client: usize, bytes: u64) -> QueuedPacket {
        QueuedPacket {
            client: ClientId(client),
            handle: 0,
            bytes,
        }
    }

    /// Drives a scheduler over a synthetic saturated channel where each
    /// client's packets cost a fixed airtime; returns per-client
    /// (packets, airtime) after `span`.
    fn drive_saturated<S: ApScheduler>(
        sched: &mut S,
        costs: &[SimDuration],
        span: SimDuration,
    ) -> (Vec<u64>, Vec<SimDuration>) {
        let n = costs.len();
        let mut now = SimTime::ZERO;
        for c in 0..n {
            sched.on_associate(ClientId(c), now);
        }
        let end = SimTime::ZERO + span;
        let tick = sched.tick_period().unwrap_or(SimDuration::from_millis(2));
        let mut next_tick = SimTime::ZERO + tick;
        let mut packets = vec![0u64; n];
        let mut airtime = vec![SimDuration::ZERO; n];
        while now < end {
            // Keep every queue topped up (saturation).
            for c in 0..n {
                while sched.backlog() < 50 * n {
                    let before = sched.backlog();
                    sched.enqueue(pkt(c, 1500), now);
                    if sched.backlog() == before {
                        break; // queue full
                    }
                }
            }
            match sched.dequeue(now) {
                Some(p) => {
                    let c = p.client.index();
                    let cost = costs[c];
                    now += cost;
                    packets[c] += 1;
                    airtime[c] += cost;
                    sched.on_complete(p.client, cost, true, now);
                }
                None => {
                    now = next_tick.max(now);
                }
            }
            while next_tick <= now {
                sched.on_tick(next_tick);
                next_tick += tick;
            }
        }
        (packets, airtime)
    }

    #[test]
    fn equal_rates_equal_everything() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let (packets, airtime) = drive_saturated(
            &mut tbr,
            &[AIRTIME_11M, AIRTIME_11M],
            SimDuration::from_secs(20),
        );
        let pr = packets[0] as f64 / packets[1] as f64;
        assert!((0.95..1.05).contains(&pr), "packet ratio {pr}");
        let ar = airtime[0].as_secs_f64() / airtime[1].as_secs_f64();
        assert!((0.95..1.05).contains(&ar), "airtime ratio {ar}");
    }

    #[test]
    fn mixed_rates_equal_airtime_unequal_packets() {
        // The core claim: 11 Mbit/s vs 1 Mbit/s clients receive equal
        // channel-time shares, so packet counts differ by the airtime
        // ratio (≈7.95).
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let (packets, airtime) = drive_saturated(
            &mut tbr,
            &[AIRTIME_11M, AIRTIME_1M],
            SimDuration::from_secs(30),
        );
        let shares = airtime_core::airtime_shares(&airtime);
        assert!(
            (shares[0] - 0.5).abs() < 0.03,
            "airtime share {shares:?} should be ~50/50"
        );
        let pr = packets[0] as f64 / packets[1] as f64;
        let expected = AIRTIME_1M.as_secs_f64() / AIRTIME_11M.as_secs_f64();
        assert!(
            (pr / expected - 1.0).abs() < 0.1,
            "packet ratio {pr} vs expected {expected}"
        );
    }

    #[test]
    fn disassociate_flushes_and_redistributes_rate() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        tbr.on_associate(ClientId(2), now);
        for h in 0..4 {
            tbr.enqueue(
                QueuedPacket {
                    client: ClientId(1),
                    handle: h,
                    bytes: 1500,
                },
                now,
            );
        }
        assert!((tbr.token_fill_rate(ClientId(1)).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        let flushed = tbr.on_disassociate(ClientId(1), now);
        assert_eq!(flushed.len(), 4);
        assert_eq!(tbr.queue_len(ClientId(1)), 0);
        // The departed client's share moves to the remaining members.
        assert_eq!(tbr.token_fill_rate(ClientId(1)), Some(0.0));
        assert!((tbr.token_fill_rate(ClientId(0)).unwrap() - 0.5).abs() < 1e-12);
        assert!((tbr.token_fill_rate(ClientId(2)).unwrap() - 0.5).abs() < 1e-12);
        // Traffic for a gone station has nowhere to go.
        let before = tbr.drops();
        assert_eq!(
            tbr.enqueue(
                QueuedPacket {
                    client: ClientId(1),
                    handle: 99,
                    bytes: 1500
                },
                now
            ),
            EnqueueOutcome::Dropped
        );
        assert_eq!(tbr.drops(), before + 1);
    }

    #[test]
    fn reassociation_re_registers_fresh_tokens() {
        let cfg = TbrConfig::default();
        let mut tbr = TbrScheduler::new(cfg);
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        // Burn client 1 deep into debt, then roam it away and back.
        tbr.on_complete(ClientId(1), SimDuration::from_millis(50), true, now);
        assert!(tbr.token_balance_ns(ClientId(1)).unwrap() < 0.0);
        tbr.on_disassociate(ClientId(1), now);
        assert_eq!(tbr.token_balance_ns(ClientId(1)), Some(0.0));
        let later = now + SimDuration::from_secs(2);
        tbr.on_associate(ClientId(1), later);
        // Fresh registration: initial tokens, fair split restored.
        let init = cfg.initial_tokens.as_nanos() as f64;
        assert_eq!(tbr.token_balance_ns(ClientId(1)), Some(init));
        assert!((tbr.token_fill_rate(ClientId(0)).unwrap() - 0.5).abs() < 1e-12);
        assert!((tbr.token_fill_rate(ClientId(1)).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn departed_member_is_excluded_from_fills_and_adjustment() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        tbr.on_disassociate(ClientId(1), now);
        // Drive well past several adjustment windows with only client 0
        // consuming; rates must stay a one-member allocation throughout.
        let mut t = now;
        for _ in 0..2_000 {
            t += SimDuration::from_millis(2);
            tbr.on_tick(t);
            tbr.on_complete(ClientId(0), SimDuration::from_micros(1617), true, t);
        }
        assert!((tbr.token_fill_rate(ClientId(0)).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(tbr.token_fill_rate(ClientId(1)), Some(0.0));
        assert_eq!(tbr.token_balance_ns(ClientId(1)), Some(0.0));
    }

    #[test]
    fn round_robin_contrast_equal_packets_skewed_airtime() {
        // The throughput-fair baseline on the same workload: packets
        // equalise, airtime collapses onto the slow client.
        let mut rr = RoundRobinScheduler::new(100);
        let (packets, airtime) = drive_saturated(
            &mut rr,
            &[AIRTIME_11M, AIRTIME_1M],
            SimDuration::from_secs(30),
        );
        let pr = packets[0] as f64 / packets[1] as f64;
        assert!((0.95..1.05).contains(&pr), "packet ratio {pr}");
        let shares = airtime_core::airtime_shares(&airtime);
        assert!(
            shares[1] > 0.85,
            "slow client should hog airtime: {shares:?}"
        );
    }

    #[test]
    fn baseline_property_slow_client_unharmed_by_tbr() {
        // Under TBR the slow client gets half the channel time — the
        // same as it would competing against another slow client. Its
        // packet rate must therefore match the all-slow cell.
        let span = SimDuration::from_secs(30);
        let mut tbr_mixed = TbrScheduler::new(TbrConfig::default());
        let (p_mixed, _) = drive_saturated(&mut tbr_mixed, &[AIRTIME_11M, AIRTIME_1M], span);
        let mut tbr_slow = TbrScheduler::new(TbrConfig::default());
        let (p_slow, _) = drive_saturated(&mut tbr_slow, &[AIRTIME_1M, AIRTIME_1M], span);
        let ratio = p_mixed[1] as f64 / p_slow[1] as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "slow client throughput changed: {ratio} ({} vs {})",
            p_mixed[1],
            p_slow[1]
        );
    }

    #[test]
    fn tokens_gate_release() {
        let mut tbr = TbrScheduler::new(TbrConfig {
            initial_tokens: SimDuration::from_micros(1),
            ..TbrConfig::default()
        });
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        tbr.enqueue(pkt(0, 1500), now);
        // Draining client 0's tokens blocks its queue...
        let p = tbr.dequeue(now).expect("tiny positive balance releases");
        tbr.on_complete(p.client, AIRTIME_1M, true, now);
        tbr.enqueue(pkt(0, 1500), now);
        assert!(tbr.dequeue(now).is_none(), "negative balance must block");
        assert!(!tbr.has_eligible(now));
        // ...until the 12.85 ms debt is repaid at a refill rate of
        // 0.5: just under 26 ms of wall time.
        let later = SimTime::from_millis(27);
        tbr.on_tick(later);
        assert!(
            tbr.has_eligible(later),
            "tokens={:?}",
            tbr.token_balance_ns(ClientId(0))
        );
        assert!(tbr.dequeue(later).is_some());
    }

    #[test]
    fn uplink_completions_also_debit() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        let before = tbr.token_balance_ns(ClientId(0)).unwrap();
        tbr.on_complete(ClientId(0), AIRTIME_11M, false, now);
        let after = tbr.token_balance_ns(ClientId(0)).unwrap();
        assert!((before - after - AIRTIME_11M.as_nanos() as f64).abs() < 1.0);
        assert_eq!(tbr.debited_of(ClientId(0)).unwrap(), AIRTIME_11M);
    }

    #[test]
    fn unknown_uplink_client_is_auto_associated() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        tbr.on_complete(ClientId(5), AIRTIME_11M, false, SimTime::ZERO);
        assert!(tbr.token_fill_rate(ClientId(5)).is_some());
    }

    #[test]
    fn adjust_rate_reallocates_unused_share() {
        // Client 1 has demand for only a trickle; client 0 is saturated.
        // After a few ADJUSTRATEEVENTs client 0's rate should grow well
        // past its initial 0.5 (§4.3 / Table 4 behaviour).
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let mut now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        let tick = tbr.tick_period().unwrap();
        let mut next_tick = now + tick;
        let end = SimTime::from_secs(10);
        let mut trickle_due = now;
        while now < end {
            if now >= trickle_due {
                tbr.enqueue(pkt(1, 1500), now);
                trickle_due = now + SimDuration::from_millis(50);
            }
            while tbr.backlog() < 20 {
                tbr.enqueue(pkt(0, 1500), now);
            }
            match tbr.dequeue(now) {
                Some(p) => {
                    now += AIRTIME_11M;
                    tbr.on_complete(p.client, AIRTIME_11M, true, now);
                }
                None => now = next_tick.max(now),
            }
            while next_tick <= now {
                tbr.on_tick(next_tick);
                next_tick += tick;
            }
        }
        let r0 = tbr.token_fill_rate(ClientId(0)).unwrap();
        let r1 = tbr.token_fill_rate(ClientId(1)).unwrap();
        assert!(r0 > 0.8, "saturated client rate {r0}");
        assert!(r1 >= TbrConfig::default().min_rate - 1e-9);
        assert!((r0 + r1 - 1.0).abs() < 1e-6, "rates must sum to 1");
    }

    #[test]
    fn weighted_shares_follow_weights() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let now = SimTime::ZERO;
        tbr.on_associate_weighted(ClientId(0), 2.0, now);
        tbr.on_associate_weighted(ClientId(1), 1.0, now);
        assert!((tbr.token_fill_rate(ClientId(0)).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((tbr.token_fill_rate(ClientId(1)).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        // And the served airtime follows ≈2:1 on a saturated channel.
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        tbr.on_associate_weighted(ClientId(0), 2.0, now);
        tbr.on_associate_weighted(ClientId(1), 1.0, now);
        // Disable adjustment interference by equalising demand.
        let (_, airtime) = drive_saturated(
            &mut tbr,
            &[AIRTIME_11M, AIRTIME_11M],
            SimDuration::from_secs(20),
        );
        let ratio = airtime[0].as_secs_f64() / airtime[1].as_secs_f64();
        assert!((1.8..2.2).contains(&ratio), "airtime ratio {ratio}");
    }

    #[test]
    fn rates_always_sum_to_one() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let mut now = SimTime::ZERO;
        for c in 0..5 {
            tbr.on_associate(ClientId(c), now);
        }
        // Hammer the adjuster with lopsided usage.
        for round in 0..50 {
            now += SimDuration::from_millis(200);
            tbr.on_complete(
                ClientId(round % 2),
                SimDuration::from_millis(150),
                true,
                now,
            );
            tbr.on_tick(now);
        }
        let total: f64 = (0..5)
            .map(|c| tbr.token_fill_rate(ClientId(c)).unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-6, "rates sum to {total}");
        for c in 0..5 {
            assert!(
                tbr.token_fill_rate(ClientId(c)).unwrap() >= TbrConfig::default().min_rate - 1e-9
            );
        }
    }

    #[test]
    fn late_association_renormalizes_rates() {
        // ASSOCIATEEVENT mid-run: a third client joining resets every
        // rate to the (new) fair share — the paper's initialisation
        // semantics.
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        tbr.on_associate(ClientId(0), SimTime::ZERO);
        tbr.on_associate(ClientId(1), SimTime::ZERO);
        // Perturb rates via usage so the reset is observable.
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration::from_millis(500);
            tbr.on_complete(ClientId(0), SimDuration::from_millis(400), true, now);
            tbr.on_tick(now);
        }
        tbr.on_associate(ClientId(2), now);
        for c in 0..3 {
            let r = tbr.token_fill_rate(ClientId(c)).unwrap();
            assert!((r - 1.0 / 3.0).abs() < 1e-9, "client {c} rate {r}");
        }
    }

    #[test]
    fn lazy_catch_up_is_bitwise_identical_to_dense_ticking() {
        // Two regulators see the same consult sequence; one also gets a
        // dense `on_tick` at every fill-period grid instant, the other
        // relies on entry-point catch-up alone. Because catch-up
        // replays fills and adjustments at the exact grid timestamps,
        // token and rate state must agree *bit for bit* — not merely
        // within tolerance — at every consult.
        let mk = || {
            let mut t = TbrScheduler::new(TbrConfig::default());
            t.on_associate(ClientId(0), SimTime::ZERO);
            t.on_associate(ClientId(1), SimTime::ZERO);
            t
        };
        let mut dense = mk();
        let mut lazy = mk();
        let tick = dense.tick_period().unwrap();
        let mut next_tick = SimTime::ZERO + tick;
        // Irregular consult times: sub-tick jitter, multi-tick stalls,
        // and idle gaps spanning the 1 s adjustment boundary.
        let mut now = SimTime::ZERO;
        let gaps_us = [
            150u64, 3_900, 12, 800_000, 40, 2_500_000, 7, 133, 600_000, 90_000,
        ];
        for (i, &gap) in gaps_us.iter().cycle().take(60).enumerate() {
            now += SimDuration::from_micros(gap);
            while next_tick <= now {
                dense.on_tick(next_tick);
                next_tick += tick;
            }
            match i % 3 {
                0 => {
                    dense.enqueue(pkt(i % 2, 1500), now);
                    lazy.enqueue(pkt(i % 2, 1500), now);
                }
                1 => {
                    let a = dense.dequeue(now);
                    let b = lazy.dequeue(now);
                    assert_eq!(a, b, "dequeue diverged at consult {i}");
                    if let Some(p) = a {
                        dense.on_complete(p.client, AIRTIME_11M, true, now);
                        lazy.on_complete(p.client, AIRTIME_11M, true, now);
                    }
                }
                _ => {
                    dense.on_complete(ClientId(i % 2), AIRTIME_1M, false, now);
                    lazy.on_complete(ClientId(i % 2), AIRTIME_1M, false, now);
                }
            }
            for c in 0..2 {
                let td = dense.token_balance_ns(ClientId(c)).unwrap();
                let tl = lazy.token_balance_ns(ClientId(c)).unwrap();
                assert_eq!(
                    td.to_bits(),
                    tl.to_bits(),
                    "tokens diverged at consult {i}: {td} vs {tl}"
                );
                let rd = dense.token_fill_rate(ClientId(c)).unwrap();
                let rl = lazy.token_fill_rate(ClientId(c)).unwrap();
                assert_eq!(
                    rd.to_bits(),
                    rl.to_bits(),
                    "rates diverged at consult {i}: {rd} vs {rl}"
                );
            }
        }
    }

    #[test]
    fn next_wake_is_conservative_and_grid_aligned() {
        let mut tbr = TbrScheduler::new(TbrConfig {
            initial_tokens: SimDuration::from_micros(1),
            ..TbrConfig::default()
        });
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        assert!(tbr.coalescible());
        // Unblocked (no backlog): no wake needed.
        assert_eq!(tbr.next_wake(now), None);
        tbr.enqueue(pkt(0, 1500), now);
        let p = tbr.dequeue(now).expect("initial tokens release");
        tbr.on_complete(p.client, AIRTIME_1M, true, now);
        tbr.enqueue(pkt(0, 1500), now);
        assert!(tbr.dequeue(now).is_none(), "negative balance blocks");
        // Blocked: the wake must be a future fill-grid instant, and at
        // or before the instant the stepwise refill actually unblocks
        // the client (~26 ms at rate 0.5 for a 12.85 ms debt).
        let wake = tbr.next_wake(now).expect("blocked queue wants a wake");
        let period = TbrConfig::default().fill_period.as_nanos();
        assert!(wake > now);
        assert_eq!(wake.as_nanos() % period, 0, "wake lands on the grid");
        assert!(wake <= SimTime::from_millis(26), "wake {wake:?} too late");
        // Driving ticks from the wake onward unblocks within two grid
        // steps (the conservative margin).
        let mut t = wake;
        let mut unblocked = false;
        for _ in 0..3 {
            tbr.on_tick(t);
            if tbr.has_eligible(t) {
                unblocked = true;
                break;
            }
            t += TbrConfig::default().fill_period;
        }
        assert!(unblocked, "wake estimate missed the unblock instant");
    }

    #[test]
    fn plain_reassociation_preserves_weights() {
        // `drive_saturated` re-associates clients with the plain call;
        // an explicitly set weight must survive it.
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        tbr.on_associate_weighted(ClientId(0), 3.0, SimTime::ZERO);
        tbr.on_associate_weighted(ClientId(1), 1.0, SimTime::ZERO);
        tbr.on_associate(ClientId(0), SimTime::ZERO);
        assert!((tbr.token_fill_rate(ClientId(0)).unwrap() - 0.75).abs() < 1e-12);
        assert!((tbr.token_fill_rate(ClientId(1)).unwrap() - 0.25).abs() < 1e-12);
    }
}
