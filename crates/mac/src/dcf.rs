//! The DCF contention state machine.
//!
//! # Model
//!
//! All stations share one collision domain. Contention follows DCF:
//! a station with a frame waits for the medium to be idle for DIFS, then
//! counts down a slotted backoff; the countdown freezes while the medium
//! is busy and resumes after the next DIFS-idle period. A station whose
//! frame arrives while the medium has been idle long enough transmits
//! immediately (backoff 0). After every transmission — successful or not
//! — the sender draws a post-transmission backoff, which is what keeps a
//! solo saturated sender from monopolising the air back-to-back (the
//! effect the paper points to in Figure 4's downlink-vs-uplink gap).
//!
//! Two stations whose countdowns expire on the same slot collide; both
//! double their contention windows and retry. Frame corruption is drawn
//! per attempt from the client link's [`LinkErrorModel`]. A corrupted
//! data frame or lost ACK looks the same to the sender (no ACK), so both
//! trigger a retransmission; a frame whose ACK was lost is conservatively
//! treated as undelivered (real receivers dedup retransmissions — the
//! probability is small enough not to matter at the paper's <2% loss).
//!
//! # Timing simplifications (documented deviations)
//!
//! - Propagation delay is zero (one-room cell; the paper's own occupancy
//!   definition lumps it into the exchange).
//! - A failed exchange occupies the medium for the same span as a
//!   successful one (data + SIFS + ACK): the sender's ACK-timeout is of
//!   that order, and EIFS deferral by third parties is folded into it.
//! - Backoff left over when a station goes idle does not decay until its
//!   next frame; saturated senders (the paper's regime) are unaffected.

use airtime_phy::{LinkErrorModel, Phy80211b};
use airtime_sim::{SimDuration, SimRng, SimTime};

use crate::frame::{Frame, FrameOutcome, NodeId};

/// Static configuration for a [`DcfWorld`].
#[derive(Clone, Copy, Debug)]
pub struct DcfConfig {
    /// PHY timing/contention parameters.
    pub phy: Phy80211b,
    /// Which station is the access point (for airtime attribution).
    pub ap: NodeId,
    /// Multi-rate retry chains: step the rate down one notch every two
    /// failed attempts of the same frame, as real rate-adaptive cards
    /// do. Leave off for the paper's manually-pinned-rate experiments.
    pub retry_rate_fallback: bool,
    /// Protect data frames whose on-air size exceeds this with an
    /// RTS/CTS handshake (`None` = never, the 2004 default). Protected
    /// collisions waste only the short RTS instead of the whole frame.
    pub rts_threshold: Option<u64>,
}

/// Events the embedding simulator must deliver back to [`DcfWorld::handle`]
/// at the requested times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacEvent {
    /// A scheduled contention resolution point. Stale generations are
    /// ignored, so the embedder never needs to cancel events.
    AccessResolved {
        /// Generation stamp; compared against the world's current one.
        generation: u64,
    },
    /// End of the current medium-busy period.
    TxEnd,
    /// A transmission deferral has expired.
    DeferExpired {
        /// The station whose [`DcfWorld::set_defer`] timer fired, or
        /// `None` for the one timer of a cell-wide
        /// [`DcfWorld::defer_all`] window.
        node: Option<NodeId>,
    },
}

/// Outputs of the MAC state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacEffect {
    /// Deliver `event` back to [`DcfWorld::handle`] at time `at`.
    Schedule {
        /// Due time.
        at: SimTime,
        /// Event to deliver.
        event: MacEvent,
    },
    /// A frame arrived intact at its destination (receiver side).
    Delivered {
        /// The delivered frame.
        frame: Frame,
    },
    /// The sender is done with a frame: it was acked or dropped.
    /// `airtime_total` is the channel occupancy consumed by *all*
    /// attempts of this frame — the quantity TBR debits (§4.2).
    TxFinal {
        /// The frame in question.
        frame: Frame,
        /// Delivered or dropped.
        outcome: FrameOutcome,
        /// Occupancy across every attempt, including failures.
        airtime_total: SimDuration,
    },
    /// One transmission attempt finished (rate-control feedback and
    /// on-air trace hook; fires for every attempt, not just the last).
    Attempt {
        /// The frame being attempted.
        frame: Frame,
        /// True when this attempt was acked.
        success: bool,
        /// True when the attempt failed because of a slot collision.
        collision: bool,
        /// Channel occupancy of this single attempt.
        airtime: SimDuration,
        /// How many earlier attempts this frame already consumed (0 for
        /// a first transmission).
        retry: u32,
    },
    /// A station drew a fresh backoff counter. Only emitted when the
    /// embedder opted in via [`DcfWorld::set_emit_backoff`]; the draw
    /// itself happens (and consumes randomness) either way, so opting
    /// in never perturbs the run.
    BackoffDrawn {
        /// The station that drew.
        node: NodeId,
        /// Slots drawn, uniform in `[0, cw]`.
        slots: u32,
        /// The contention window used for the draw.
        cw: u32,
    },
    /// One exclusive slice of the medium timeline. Only emitted when
    /// the embedder opted in via [`DcfWorld::set_emit_airtime`]; the
    /// accounting is effect-only (no RNG, no state the contention
    /// machine reads back), so opting in never perturbs the run.
    ///
    /// Slices of one DCF cycle are emitted together when the cycle's
    /// transmission ends, in chronological order, and consecutive
    /// cycles tile wall time exactly — the conservation invariant the
    /// obs-layer auditor checks.
    AirtimeSlice {
        /// When the slice began.
        start: SimTime,
        /// How long it lasted.
        dur: SimDuration,
        /// Billed client's node index. Idle and collision time carry
        /// the AP's index here: the AP never owns occupancy (§2.2), so
        /// its id doubles as "the cell itself".
        client: usize,
        /// What the time was spent on.
        kind: SliceKind,
    },
}

/// What a [`MacEffect::AirtimeSlice`] was spent on (mirrors the obs
/// crate's `AirtimeCategory`; the MAC stays observation-free).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceKind {
    /// MPDU payload bits on the air.
    DataTx,
    /// ACK frames.
    Ack,
    /// Fixed MAC overhead: DIFS, SIFS, preambles, RTS/CTS.
    MacOverhead,
    /// Contention countdown while at least one station has traffic.
    Backoff,
    /// Busy time destroyed by simultaneous transmissions.
    Collision,
    /// Nobody had traffic pending.
    Idle,
}

struct Station {
    pending: Option<Frame>,
    /// Remaining backoff slots, measured from the world's `anchor` while
    /// a countdown is active. `Some` whenever a frame is pending; may
    /// carry a post-transmission backoff between frames.
    backoff: Option<u32>,
    cw: u32,
    retries: u32,
    defer_until: Option<SimTime>,
    airtime_this_frame: SimDuration,
}

#[derive(Clone, Copy)]
struct InFlight {
    frame: Frame,
    data_lost: bool,
    ack_lost: bool,
    /// Busy span of a clean exchange.
    span: SimDuration,
    /// Busy span if this attempt collides (shorter under RTS/CTS).
    collision_span: SimDuration,
    airtime: SimDuration,
}

/// Aggregate MAC statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MacStats {
    /// Transmission attempts started.
    pub attempts: u64,
    /// Attempts that ended in a slot collision.
    pub collision_events: u64,
    /// Attempts that were retransmissions (retry index ≥ 1).
    pub retries: u64,
    /// Frames delivered (acked).
    pub delivered: u64,
    /// Frames dropped at the retry limit.
    pub dropped: u64,
}

/// The shared-medium DCF world: all stations plus the channel.
pub struct DcfWorld {
    config: DcfConfig,
    links: Vec<LinkErrorModel>,
    stations: Vec<Station>,
    rng: SimRng,
    /// When the medium last became idle.
    idle_start: SimTime,
    /// End of the current busy period, if transmitting.
    busy_until: Option<SimTime>,
    /// Slot-grid origin of the active countdown.
    anchor: SimTime,
    countdown_active: bool,
    generation: u64,
    in_flight: Vec<InFlight>,
    occupancy: Vec<SimDuration>,
    busy_accum: SimDuration,
    stats: MacStats,
    emit_backoff: bool,
    emit_airtime: bool,
    /// When the current idle period first had a contender (the boundary
    /// between `Idle` and `Backoff`/`MacOverhead` ledger time).
    contention_since: Option<SimTime>,
    /// Ledger slices of the in-progress DCF cycle, captured at channel
    /// access and emitted when its transmission ends.
    pending_slices: Vec<(SimTime, SimDuration, usize, SliceKind)>,
}

impl DcfWorld {
    /// Creates a world of `links.len()` stations. `links[i]` describes
    /// the radio link between station `i` and the AP (the AP's own entry
    /// is unused).
    ///
    /// # Panics
    ///
    /// Panics if the AP index is out of range.
    pub fn new(config: DcfConfig, links: Vec<LinkErrorModel>, rng: SimRng) -> Self {
        assert!(config.ap.index() < links.len(), "AP index out of range");
        let n = links.len();
        let cw_min = config.phy.cw_min;
        DcfWorld {
            config,
            links,
            stations: (0..n)
                .map(|_| Station {
                    pending: None,
                    backoff: None,
                    cw: cw_min,
                    retries: 0,
                    defer_until: None,
                    airtime_this_frame: SimDuration::ZERO,
                })
                .collect(),
            rng,
            idle_start: SimTime::ZERO,
            busy_until: None,
            anchor: SimTime::ZERO,
            countdown_active: false,
            generation: 0,
            in_flight: Vec::new(),
            occupancy: vec![SimDuration::ZERO; n],
            busy_accum: SimDuration::ZERO,
            stats: MacStats::default(),
            emit_backoff: false,
            emit_airtime: false,
            contention_since: None,
            pending_slices: Vec::new(),
        }
    }

    /// Opts in to [`MacEffect::BackoffDrawn`] effects. Off by default;
    /// turning it on changes only the effect stream, never the backoff
    /// draws themselves.
    pub fn set_emit_backoff(&mut self, on: bool) {
        self.emit_backoff = on;
    }

    /// Opts in to [`MacEffect::AirtimeSlice`] effects. Off by default;
    /// like backoff emission, the flag only adds effects — it touches
    /// neither the RNG stream nor any state the contention machine
    /// reads, so observed runs stay bit-identical.
    pub fn set_emit_airtime(&mut self, on: bool) {
        self.emit_airtime = on;
    }

    /// Number of stations (including the AP).
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// True when station `node`'s MAC can take a new frame.
    pub fn can_accept(&self, node: NodeId) -> bool {
        self.stations[node.index()].pending.is_none()
    }

    /// Replaces the error model of `node`'s link (e.g. mobility).
    pub fn set_link(&mut self, node: NodeId, link: LinkErrorModel) {
        self.links[node.index()] = link;
    }

    /// Channel occupancy attributed to client `node` so far — the
    /// paper's T(i) numerator.
    pub fn occupancy(&self, node: NodeId) -> SimDuration {
        self.occupancy[node.index()]
    }

    /// Total time the medium has been busy.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_accum
    }

    /// End of the current busy period, if an exchange is on the air.
    /// Multi-cell drivers mirror this into co-channel neighbours as a
    /// defer window (carrier sense across cells).
    pub fn busy_until(&self) -> Option<SimTime> {
        self.busy_until
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// Hands a frame to the MAC of `frame.src`, appending the resulting
    /// effects to `effects`.
    ///
    /// Returns `Err(frame)` (unchanged, with nothing appended) if that
    /// MAC is still working on a previous frame; check
    /// [`DcfWorld::can_accept`] first.
    pub fn offer_frame(
        &mut self,
        now: SimTime,
        frame: Frame,
        effects: &mut Vec<MacEffect>,
    ) -> Result<(), Frame> {
        let idx = frame.src.index();
        assert!(idx < self.stations.len(), "unknown source station");
        assert!(
            frame.dst.index() < self.stations.len(),
            "unknown destination"
        );
        if self.stations[idx].pending.is_some() {
            return Err(frame);
        }
        let medium_busy = self.is_busy(now);
        let needs_backoff = self.stations[idx].backoff.is_none();
        if needs_backoff {
            // No carried post-transmission backoff: immediate access when
            // the medium is idle, fresh draw when it is busy.
            let b = if medium_busy {
                let cw = self.stations[idx].cw;
                let b = self.draw_backoff(cw);
                if self.emit_backoff {
                    effects.push(MacEffect::BackoffDrawn {
                        node: frame.src,
                        slots: b,
                        cw,
                    });
                }
                b
            } else {
                0
            };
            self.stations[idx].backoff = Some(b);
        }
        let st = &mut self.stations[idx];
        st.pending = Some(frame);
        st.retries = 0;
        st.airtime_this_frame = SimDuration::ZERO;
        self.reschedule_access(now, effects);
        Ok(())
    }

    /// Forbids `node` from starting new transmissions until `until`
    /// (TBR client-cooperation, §4.1 of the paper; also how a
    /// multi-cell driver imposes a co-channel neighbour's busy period).
    /// Appends the timer event the embedder must schedule to `effects`.
    /// A defer can only be extended: a request ending before an
    /// already-set defer is a no-op (the pending expiry timer stays
    /// valid).
    pub fn set_defer(
        &mut self,
        now: SimTime,
        node: NodeId,
        until: SimTime,
        effects: &mut Vec<MacEffect>,
    ) {
        if until <= now {
            return;
        }
        if self.stations[node.index()]
            .defer_until
            .is_some_and(|t| t >= until)
        {
            return;
        }
        self.stations[node.index()].defer_until = Some(until);
        effects.push(MacEffect::Schedule {
            at: until,
            event: MacEvent::DeferExpired { node: Some(node) },
        });
        self.reschedule_access(now, effects);
    }

    /// Forbids every station from starting new transmissions until
    /// `until` — how a multi-cell driver imposes a co-channel
    /// neighbour's busy period. Leaves every station and the countdown
    /// exactly as calling [`DcfWorld::set_defer`] for each node in
    /// index order would, but appends one expiry timer for the whole
    /// window (none when no station's defer grows) and no access
    /// resolution: with everybody deferred, nobody contends.
    pub fn defer_all(&mut self, now: SimTime, until: SimTime, effects: &mut Vec<MacEffect>) {
        if until <= now {
            return;
        }
        let extends = |st: &Station| st.defer_until.is_none_or(|t| t < until);
        let Some(first) = self.stations.iter().position(extends) else {
            return;
        };
        // The per-node loop reschedules after each new defer. Only its
        // first round can still see a contender — anyone but `first` —
        // and when it does it credits the countdown slots elapsed since
        // `anchor` before the later rounds stop the countdown.
        let credit = !self.is_busy(now)
            && (0..self.stations.len()).any(|i| i != first && self.is_contender(i, now));
        for st in &mut self.stations {
            if extends(st) {
                st.defer_until = Some(until);
            }
        }
        effects.push(MacEffect::Schedule {
            at: until,
            event: MacEvent::DeferExpired { node: None },
        });
        if credit {
            self.advance_countdown(now);
        }
        self.reschedule_access(now, effects);
    }

    /// Delivers a due event, appending its effects to `effects`.
    pub fn handle(&mut self, now: SimTime, event: MacEvent, effects: &mut Vec<MacEffect>) {
        match event {
            MacEvent::AccessResolved { generation } => {
                if generation == self.generation && self.busy_until.is_none() {
                    self.on_access(now, effects);
                }
            }
            MacEvent::TxEnd => self.on_tx_end(now, effects),
            MacEvent::DeferExpired { node: Some(node) } => {
                let st = &mut self.stations[node.index()];
                if st.defer_until.is_some_and(|t| t <= now) {
                    st.defer_until = None;
                    self.reschedule_access(now, effects);
                }
            }
            MacEvent::DeferExpired { node: None } => {
                // An expired defer no longer blocks contention at `now`
                // (see `is_contender`), so clearing them all and
                // rescheduling once ends where one timer per node would.
                let mut cleared = false;
                for st in &mut self.stations {
                    if st.defer_until.is_some_and(|t| t <= now) {
                        st.defer_until = None;
                        cleared = true;
                    }
                }
                if cleared {
                    self.reschedule_access(now, effects);
                }
            }
        }
    }

    fn draw_backoff(&mut self, cw: u32) -> u32 {
        self.rng.below(cw as u64 + 1) as u32
    }

    fn is_contender(&self, idx: usize, now: SimTime) -> bool {
        let st = &self.stations[idx];
        st.pending.is_some() && st.defer_until.is_none_or(|t| now >= t)
    }

    /// The client side of an AP↔station exchange, for occupancy
    /// attribution (§2.2: the AP is a facilitator; its transmissions
    /// count against the destination client).
    fn client_of(&self, frame: &Frame) -> usize {
        if frame.src == self.config.ap {
            frame.dst.index()
        } else {
            frame.src.index()
        }
    }

    fn slot(&self) -> SimDuration {
        self.config.phy.slot
    }

    fn is_busy(&self, now: SimTime) -> bool {
        self.busy_until.is_some_and(|t| now < t)
    }

    /// Recomputes and schedules the next contention-resolution point.
    fn reschedule_access(&mut self, now: SimTime, effects: &mut Vec<MacEffect>) {
        if self.is_busy(now) {
            return; // TxEnd will reschedule.
        }
        self.generation += 1; // Invalidate any previously scheduled access.
        if !(0..self.stations.len()).any(|i| self.is_contender(i, now)) {
            self.countdown_active = false;
            self.contention_since = None;
            return;
        }
        self.advance_countdown(now);
        let slot = self.slot();
        let min_b = (0..self.stations.len())
            .filter(|&i| self.is_contender(i, now))
            .map(|i| self.stations[i].backoff.unwrap_or(0))
            .min()
            .expect("a contender exists");
        effects.push(MacEffect::Schedule {
            at: self.anchor + slot * min_b as u64,
            event: MacEvent::AccessResolved {
                generation: self.generation,
            },
        });
    }

    /// Moves the countdown to the next slot boundary at or after `now`:
    /// starts it there, or credits every carried backoff with the slots
    /// elapsed since `anchor`. Idempotent for a fixed `now`.
    fn advance_countdown(&mut self, now: SimTime) {
        if self.contention_since.is_none() {
            self.contention_since = Some(now);
        }
        let slot = self.slot();
        let base = self.idle_start + self.config.phy.difs();
        // Next slot boundary ≥ max(now, base) on the grid anchored at base.
        let start = now.max(base);
        let offset_ns = start.saturating_since(base).as_nanos();
        let k = offset_ns.div_ceil(slot.as_nanos());
        let new_anchor = base + slot * k;
        if self.countdown_active {
            if new_anchor > self.anchor {
                let elapsed = (new_anchor - self.anchor) / slot;
                for st in &mut self.stations {
                    if let Some(b) = st.backoff.as_mut() {
                        *b = b.saturating_sub(elapsed as u32);
                    }
                }
                self.anchor = new_anchor;
            }
        } else {
            self.anchor = new_anchor;
            self.countdown_active = true;
        }
    }

    /// Contention resolved: the minimum countdown expired at `now`.
    fn on_access(&mut self, now: SimTime, effects: &mut Vec<MacEffect>) {
        let slot = self.slot();
        let elapsed = (now.saturating_since(self.anchor) / slot) as u32;
        for st in &mut self.stations {
            if let Some(b) = st.backoff.as_mut() {
                *b = b.saturating_sub(elapsed);
            }
        }
        self.anchor = now;
        self.countdown_active = false;

        let is_winner =
            |w: &Self, i: usize| w.is_contender(i, now) && w.stations[i].backoff == Some(0);
        if !(0..self.stations.len()).any(|i| is_winner(self, i)) {
            // Stale state (e.g. the minimum-backoff station was deferred
            // in the meantime); recompute.
            self.reschedule_access(now, effects);
            return;
        }

        let phy = self.config.phy;
        debug_assert!(self.in_flight.is_empty(), "previous cycle not drained");
        for w in 0..self.stations.len() {
            // A winner's own draw consumes only its own backoff, so the
            // test for later stations is unaffected by earlier winners.
            if !is_winner(self, w) {
                continue;
            }
            if self.stations[w].retries > 0 {
                self.stats.retries += 1;
            }
            let mut frame = self.stations[w].pending.expect("contender has a frame");
            if self.config.retry_rate_fallback {
                // Multi-rate retry chain: r, r, r−1, r−1, r−2, …
                for _ in 0..(self.stations[w].retries / 2) {
                    match frame.rate.step_down() {
                        Some(down) => frame.rate = down,
                        None => break,
                    }
                }
            }
            let client = self.client_of(&frame);
            let link = self.links[client];
            let on_air_bytes = frame.msdu_bytes + airtime_phy::timing::MAC_DATA_OVERHEAD_BYTES;
            let data_lost = {
                let fer = link.data_fer(frame.rate, on_air_bytes);
                self.rng.chance(fer)
            };
            let ack_lost = !data_lost && {
                let fer = link.ack_fer(frame.rate);
                self.rng.chance(fer)
            };
            let on_air = frame.msdu_bytes + airtime_phy::timing::MAC_DATA_OVERHEAD_BYTES;
            let protected = self.config.rts_threshold.is_some_and(|th| on_air > th);
            let handshake = if protected {
                phy.rts_cts_overhead(frame.rate)
            } else {
                SimDuration::ZERO
            };
            let data_dur = phy.data_tx_time_default(frame.msdu_bytes, frame.rate);
            let ack_dur = phy.ack_tx_time(frame.rate);
            let span = handshake + data_dur + phy.sifs + ack_dur;
            // A protected frame that collides wastes only its RTS (plus
            // the CTS timeout ≈ SIFS + CTS); unprotected collisions
            // burn the whole data frame.
            let collision_span = if protected {
                phy.rts_tx_time(frame.rate) + phy.sifs + phy.cts_tx_time(frame.rate)
            } else {
                span
            };
            self.in_flight.push(InFlight {
                frame,
                data_lost,
                ack_lost,
                span,
                collision_span,
                airtime: SimDuration::ZERO, // filled below
            });
            self.stations[w].backoff = None; // consumed
        }
        self.stats.attempts += self.in_flight.len() as u64;
        let collided = self.in_flight.len() > 1;
        if collided {
            self.stats.collision_events += 1;
        }
        let mut busy_span = SimDuration::ZERO;
        for tx in &mut self.in_flight {
            let effective = if collided { tx.collision_span } else { tx.span };
            busy_span = busy_span.max(effective);
            // Per-attempt occupancy: DIFS + the attempt's air (§2.3).
            tx.airtime = phy.difs() + effective;
        }
        let end = now + busy_span;
        self.busy_until = Some(end);
        self.busy_accum += busy_span;
        if self.emit_airtime {
            self.capture_cycle_slices(now, busy_span, collided);
        }
        self.contention_since = None;
        effects.push(MacEffect::Schedule {
            at: end,
            event: MacEvent::TxEnd,
        });
    }

    /// Captures the ledger slices of the cycle that just won access:
    /// the idle/contention gap `[idle_start, now]` plus the busy period
    /// `[now, now + busy_span]`, split chronologically so consecutive
    /// cycles tile wall time exactly. Emission waits until the cycle's
    /// TxEnd (everything is then in the past).
    fn capture_cycle_slices(&mut self, now: SimTime, busy_span: SimDuration, collided: bool) {
        let cell = self.config.ap.index();
        let push = |slices: &mut Vec<(SimTime, SimDuration, usize, SliceKind)>,
                    start: SimTime,
                    dur: SimDuration,
                    client: usize,
                    kind: SliceKind| {
            if !dur.is_zero() {
                slices.push((start, dur, client, kind));
            }
        };
        let mut slices = std::mem::take(&mut self.pending_slices);
        debug_assert!(slices.is_empty(), "previous cycle not drained");

        // The gap: idle until somebody had traffic, then DIFS deferral,
        // then backoff countdown. The DIFS/backoff boundary inside the
        // active part is attribution (conservation holds regardless of
        // where it falls); DIFS-first matches the DCF sequence.
        let active_from = match self.contention_since {
            Some(c) => c.clamp(self.idle_start, now),
            None => now,
        };
        let idle_dur = active_from.saturating_since(self.idle_start);
        push(
            &mut slices,
            self.idle_start,
            idle_dur,
            cell,
            SliceKind::Idle,
        );
        let active = now.saturating_since(active_from);
        let difs_part = active.min(self.config.phy.difs());
        let backoff_part = active - difs_part;
        // A single winner owns its access time; colliding winners
        // overlap, so the cell absorbs it.
        let owner = if collided {
            cell
        } else {
            self.client_of(&self.in_flight[0].frame)
        };
        push(
            &mut slices,
            active_from,
            difs_part,
            owner,
            SliceKind::MacOverhead,
        );
        push(
            &mut slices,
            active_from + difs_part,
            backoff_part,
            owner,
            SliceKind::Backoff,
        );

        // The busy period. A clean exchange splits into its on-air
        // parts (they sum to busy_span exactly); a collision destroys
        // the whole busy period, which nobody owns.
        if collided {
            push(&mut slices, now, busy_span, cell, SliceKind::Collision);
        } else {
            let phy = self.config.phy;
            let frame = self.in_flight[0].frame;
            let on_air = frame.msdu_bytes + airtime_phy::timing::MAC_DATA_OVERHEAD_BYTES;
            let protected = self.config.rts_threshold.is_some_and(|th| on_air > th);
            let handshake = if protected {
                phy.rts_cts_overhead(frame.rate)
            } else {
                SimDuration::ZERO
            };
            let data_dur = phy.data_tx_time_default(frame.msdu_bytes, frame.rate);
            let ack_dur = phy.ack_tx_time(frame.rate);
            debug_assert_eq!(handshake + data_dur + phy.sifs + ack_dur, busy_span);
            let mut t = now;
            push(&mut slices, t, handshake, owner, SliceKind::MacOverhead);
            t += handshake;
            push(&mut slices, t, data_dur, owner, SliceKind::DataTx);
            t += data_dur;
            push(&mut slices, t, phy.sifs, owner, SliceKind::MacOverhead);
            t += phy.sifs;
            push(&mut slices, t, ack_dur, owner, SliceKind::Ack);
        }
        self.pending_slices = slices;
    }

    /// Emits the ledger slices covering everything not yet accounted
    /// for, up to `end`: the in-progress busy period clipped at `end`,
    /// or the trailing idle/contention gap. Call once when the run
    /// ends so the timeline tiles `[0, end]` exactly. The slices are
    /// appended to `effects`.
    pub fn drain_airtime_tail(&mut self, end: SimTime, effects: &mut Vec<MacEffect>) {
        if !self.emit_airtime {
            return;
        }
        if !self.pending_slices.is_empty() {
            // Mid-transmission: the captured cycle runs past `end`.
            for (start, dur, client, kind) in self.pending_slices.drain(..) {
                if start >= end {
                    continue;
                }
                let dur = dur.min(end.saturating_since(start));
                effects.push(MacEffect::AirtimeSlice {
                    start,
                    dur,
                    client,
                    kind,
                });
            }
        } else if end > self.idle_start {
            // Idle tail; unfinished contention counts as cell backoff
            // (no winner exists to own it).
            let cell = self.config.ap.index();
            let active_from = match self.contention_since {
                Some(c) => c.clamp(self.idle_start, end),
                None => end,
            };
            let idle_dur = active_from.saturating_since(self.idle_start);
            if !idle_dur.is_zero() {
                effects.push(MacEffect::AirtimeSlice {
                    start: self.idle_start,
                    dur: idle_dur,
                    client: cell,
                    kind: SliceKind::Idle,
                });
            }
            let active = end.saturating_since(active_from);
            if !active.is_zero() {
                effects.push(MacEffect::AirtimeSlice {
                    start: active_from,
                    dur: active,
                    client: cell,
                    kind: SliceKind::Backoff,
                });
            }
        }
    }

    fn on_tx_end(&mut self, now: SimTime, effects: &mut Vec<MacEffect>) {
        self.busy_until = None;
        self.idle_start = now;
        if self.emit_airtime {
            for (start, dur, client, kind) in self.pending_slices.drain(..) {
                effects.push(MacEffect::AirtimeSlice {
                    start,
                    dur,
                    client,
                    kind,
                });
            }
        }
        let collision = self.in_flight.len() > 1;
        // Indexed, because settling a frame needs `&mut self`; nothing
        // below touches `in_flight`, which is cleared afterwards.
        for k in 0..self.in_flight.len() {
            let tx = self.in_flight[k];
            let client = self.client_of(&tx.frame);
            self.occupancy[client] += tx.airtime;
            let idx = tx.frame.src.index();
            self.stations[idx].airtime_this_frame += tx.airtime;
            let success = !collision && !tx.data_lost && !tx.ack_lost;
            effects.push(MacEffect::Attempt {
                frame: tx.frame,
                success,
                collision,
                airtime: tx.airtime,
                retry: self.stations[idx].retries,
            });
            if success {
                self.stats.delivered += 1;
                effects.push(MacEffect::Delivered { frame: tx.frame });
                let total = self.stations[idx].airtime_this_frame;
                effects.push(MacEffect::TxFinal {
                    frame: tx.frame,
                    outcome: FrameOutcome::Delivered,
                    airtime_total: total,
                });
                self.finish_frame(idx, effects);
            } else {
                let st = &mut self.stations[idx];
                st.retries += 1;
                if st.retries >= self.config.phy.retry_limit {
                    self.stats.dropped += 1;
                    let total = st.airtime_this_frame;
                    effects.push(MacEffect::TxFinal {
                        frame: tx.frame,
                        outcome: FrameOutcome::Dropped,
                        airtime_total: total,
                    });
                    self.finish_frame(idx, effects);
                } else {
                    st.cw = self.config.phy.cw_after(st.retries);
                    let cw = st.cw;
                    let b = self.draw_backoff(cw);
                    if self.emit_backoff {
                        effects.push(MacEffect::BackoffDrawn {
                            node: tx.frame.src,
                            slots: b,
                            cw,
                        });
                    }
                    self.stations[idx].backoff = Some(b);
                }
            }
        }
        self.in_flight.clear();
        self.reschedule_access(now, effects);
    }

    /// Resets sender state after a frame's final outcome and draws the
    /// mandatory post-transmission backoff.
    fn finish_frame(&mut self, idx: usize, effects: &mut Vec<MacEffect>) {
        let cw_min = self.config.phy.cw_min;
        let b = self.draw_backoff(cw_min);
        if self.emit_backoff {
            effects.push(MacEffect::BackoffDrawn {
                node: NodeId(idx),
                slots: b,
                cw: cw_min,
            });
        }
        let st = &mut self.stations[idx];
        st.pending = None;
        st.retries = 0;
        st.cw = cw_min;
        st.backoff = Some(b);
        st.airtime_this_frame = SimDuration::ZERO;
    }
}
