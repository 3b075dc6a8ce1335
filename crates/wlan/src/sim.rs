//! The experiment engine: event loop gluing MAC, transport and the AP
//! scheduler together.
//!
//! Topology (the paper's testbed): every client station exchanges
//! packets with wired hosts through the AP. Uplink data crosses the air
//! then the wired backbone; the returning acks cross the backbone and
//! then *queue at the AP* — which is exactly where TBR regulates them,
//! throttling uplink TCP without touching the clients (§4.1).
//!
//! ```text
//!  client ── DCF air ── AP ══ wired (delay) ══ host
//!                       │
//!                [ApScheduler: FIFO / RR / DRR / TBR]
//! ```

use std::collections::{HashMap, VecDeque};

use airtime_core::{ApScheduler, ClientId, EnqueueOutcome, QueuedPacket};
use airtime_mac::{
    DcfConfig, DcfWorld, Frame, FrameOutcome, MacEffect, MacEvent, NodeId, SliceKind,
};
use airtime_net::{
    FlowId, Packet, PacketKind, RateLimiter, ReceiverEffect, SenderEffect, TcpReceiver, TcpSender,
    UdpConfig, UdpSource,
};
use airtime_obs::{
    AirtimeCategory, CounterId, EventRecord, GaugeId, HistId, MacPhase, MetricsRegistry,
    NullObserver, Observer, QueueSite, RunPhase, TcpPhase, TokenCause,
};
use airtime_phy::{Arf, DataRate, LinkErrorModel};
use airtime_sim::{
    AnyQueue, Histogram, LoopProfiler, RateMeter, SimDuration, SimRng, SimTime, Timeline,
};
use airtime_trace::{FrameRecord, Trace};

use crate::config::{
    Direction, FlowSpec, LinkSpec, NetworkConfig, Regulate, SchedulerKind, Transport,
};
use crate::report::{FlowReport, NodeReport, Report};

const AP: NodeId = NodeId(0);

#[derive(Clone, Copy, Debug)]
enum Event {
    Mac(MacEvent),
    /// A packet finished crossing the wire towards the AP.
    WiredToAp(Packet),
    /// A packet finished crossing the wire towards its wired host.
    WiredToHost(Packet),
    RtoFired {
        flow: usize,
        generation: u64,
        /// Flow incarnation stamp: a handoff re-creates the flow's
        /// transport state, and timers armed by the previous
        /// incarnation must not fire into the new one (their
        /// generation counters restart and can collide).
        epoch: u64,
    },
    DelAckFired {
        flow: usize,
        generation: u64,
        epoch: u64,
    },
    SchedTick,
    Pump {
        flow: usize,
    },
    StartFlow {
        flow: usize,
    },
    WarmupDone,
}

struct FlowRt {
    station: usize,
    transport: Transport,
    direction: Direction,
    start: SimTime,
    started: bool,
    /// Incarnation counter, bumped whenever a handoff tears the flow's
    /// transport state down. Timer events stamped with an older epoch
    /// are stale and ignored. Always 0 in single-cell runs.
    epoch: u64,
    tcp_tx: Option<TcpSender>,
    tcp_rx: Option<TcpReceiver>,
    udp: Option<UdpSource>,
    meter: RateMeter,
    metered_bytes: u64,
    completion: Option<SimDuration>,
    /// Queueing + air latency of delivered data packets, milliseconds.
    latency: Histogram,
    /// Guards against scheduling redundant Pump events.
    pump_pending: bool,
}

/// Lifecycle of one MAC-level frame, tracked from queue entry to the
/// MAC's final verdict and emitted as an [`EventRecord::FrameSpan`].
/// Only populated when the observer is active.
struct SpanTrack {
    station: u64,
    bytes: u64,
    enqueue: SimTime,
    release: SimTime,
    first_tx: Option<SimTime>,
    attempts: u64,
}

/// How often the metrics registry snapshots its counters and gauges
/// into the exported time-series.
const METRICS_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Metric handles plus snapshot/profiling state, present only when the
/// caller supplied a [`MetricsRegistry`].
struct Instr<'m> {
    reg: &'m mut MetricsRegistry,
    next_snapshot: SimTime,
    next_lap: SimTime,
    profiler: LoopProfiler,
    // Counters mirrored from cumulative simulator state at snapshots.
    attempts: CounterId,
    collisions: CounterId,
    retries: CounterId,
    delivered: CounterId,
    dropped: CounterId,
    sched_drops: CounterId,
    events: CounterId,
    tcp_retransmits: CounterId,
    tcp_timeouts: CounterId,
    queue_len: GaugeId,
    queue_high_water: GaugeId,
    // Per-station airtime shares, indexed by station.
    shares: Vec<GaugeId>,
    // Per-scheduler-key TBR token balances (empty for non-TBR runs).
    tokens: Vec<GaugeId>,
    attempt_airtime: HistId,
    /// Event-queue depth sampled at every dispatch.
    queue_depth: HistId,
}

struct Sim<'c, O: Observer> {
    cfg: &'c NetworkConfig,
    obs: &'c mut O,
    instr: Option<Instr<'c>>,
    now: SimTime,
    queue: AnyQueue<Event>,
    mac: DcfWorld,
    /// The pluggable AP discipline (any `airtime-sched` family).
    sched: Box<dyn ApScheduler>,
    /// True when `SchedTick` self-reschedules at every `tick_period`
    /// (the scheduler needs a timer but cannot catch up lazily, or the
    /// config disabled coalescing).
    dense_ticks: bool,
    /// The earliest coalesced wake-up currently sitting in the event
    /// queue, if any — avoids flooding the queue with duplicate wakes.
    pending_wake: Option<SimTime>,
    flows: Vec<FlowRt>,
    /// Per-station uplink interface queues (packet, arrival time).
    client_q: Vec<VecDeque<(Packet, SimTime)>>,
    arf: Vec<Option<Arf>>,
    fixed_rate: Vec<DataRate>,
    /// Frame handle → (packet, time it entered the AP/client queue),
    /// for frames in the MAC or AP queues.
    in_transit: HashMap<u64, (Packet, SimTime)>,
    /// Frame handle → lifecycle span, from MAC offer to TxFinal.
    /// Empty unless the observer is active.
    spans: HashMap<u64, SpanTrack>,
    next_handle: u64,
    occupancy_at_warmup: Vec<SimDuration>,
    busy_at_warmup: SimDuration,
    trace: Option<Trace>,
    /// EWMA of observed downlink attempt-failure rate per node (the
    /// §4.2 loss estimator's input).
    fer_est: Vec<f64>,
    /// Reusable effect buffers. Each is taken out for one MAC or
    /// transport call plus the application of its effects, then put
    /// back, so the steady-state loop allocates none of them; an
    /// application that re-enters (see [`Sim::with_mac`]) simply runs
    /// on a buffer of its own.
    mac_fx: Vec<MacEffect>,
    sender_fx: Vec<SenderEffect>,
    receiver_fx: Vec<ReceiverEffect>,
}

/// Runs one experiment to completion.
///
/// # Panics
///
/// Panics on malformed configs (no stations, zero duration, warm-up
/// longer than the run).
pub fn run(cfg: &NetworkConfig) -> Report {
    run_observed(cfg, &mut NullObserver)
}

/// Like [`run`], but streams structured events into `obs`. With a
/// [`NullObserver`] this is exactly [`run`] (the hooks monomorphise
/// away and the RNG stream is untouched either way). Observers never
/// touch simulation state, so with any observer — a
/// [`FlightRecorder`](airtime_obs::FlightRecorder) folding the causal
/// event stream into fingerprints included — the report is
/// byte-identical to [`run`]'s; pinned by a test, relied on by
/// `verify-determinism`.
///
/// The caller owns the observer's lifecycle: call `obs.finish()`
/// afterwards to flush buffers and surface any write error.
///
/// # Panics
///
/// Same as [`run`].
pub fn run_observed<O: Observer>(cfg: &NetworkConfig, obs: &mut O) -> Report {
    run_cell(cfg, obs, None).0
}

/// The host-side profile of one completed run, as captured by the
/// event loop itself. Everything in here describes the *host* (wall
/// time, dispatch costs, queue pressure); the paired [`Report`] is
/// byte-identical to an unprofiled run's.
#[derive(Clone, Debug)]
pub struct RunProfile {
    /// Per-label counts, cumulative times, and dispatch-time
    /// distributions, plus wall-clock laps per simulated second.
    pub profiler: LoopProfiler,
    /// Events dispatched by the loop.
    pub events: u64,
    /// Deepest the event queue ever got.
    pub queue_high_water: u64,
}

/// Like [`run_observed`], plus counters/gauges/histograms in `metrics`
/// snapshotted every 100 ms of simulated time, and the run's host-side
/// [`RunProfile`] — the `profile` command's entry point.
///
/// # Panics
///
/// Same as [`run`].
pub fn run_profiled<O: Observer>(
    cfg: &NetworkConfig,
    obs: &mut O,
    metrics: &mut MetricsRegistry,
) -> (Report, RunProfile) {
    let (report, profile) = run_cell(cfg, obs, Some(metrics));
    (report, profile.expect("metrics registry supplied"))
}

/// The single-cell run: every station associated from t = 0, stepped
/// until the next event would fall past the end.
fn run_cell<O: Observer>(
    cfg: &NetworkConfig,
    obs: &mut O,
    metrics: Option<&mut MetricsRegistry>,
) -> (Report, Option<RunProfile>) {
    let everyone = vec![true; cfg.stations.len()];
    let mut sim = Sim::start(cfg, obs, metrics, &everyone);
    let end = SimTime::ZERO + cfg.duration;
    // Peek before popping: an event beyond `end` stays in the queue, so
    // `events_processed` counts exactly the dispatched events and the
    // profiler/queue-depth accounting agrees with it.
    while sim.queue.peek_time().is_some_and(|t| t <= end) {
        sim.step();
    }
    sim.finish(end)
}

/// Static label for the profiler's per-event-type counts.
fn event_label(ev: &Event) -> &'static str {
    match ev {
        Event::Mac(MacEvent::AccessResolved { .. }) => "mac.access_resolved",
        Event::Mac(MacEvent::TxEnd) => "mac.tx_end",
        Event::Mac(MacEvent::DeferExpired { .. }) => "mac.defer_expired",
        Event::WiredToAp(_) => "wired_to_ap",
        Event::WiredToHost(_) => "wired_to_host",
        Event::RtoFired { .. } => "tcp.rto",
        Event::DelAckFired { .. } => "tcp.delack",
        Event::SchedTick => "sched.tick",
        Event::Pump { .. } => "pump",
        Event::StartFlow { .. } => "start_flow",
        Event::WarmupDone => "warmup_done",
    }
}

impl<'c, O: Observer> Sim<'c, O> {
    /// Builds the engine with station `i` associated iff `active[i]`
    /// and seeds its timeline: the warm-up mark, the first dense tick,
    /// and the start of every associated station's flows. Inactive
    /// stations hold no scheduler slot and start no flows until
    /// [`Sim::associate_station`].
    fn start(
        cfg: &'c NetworkConfig,
        obs: &'c mut O,
        metrics: Option<&'c mut MetricsRegistry>,
        active: &[bool],
    ) -> Self {
        assert!(!cfg.stations.is_empty(), "need at least one station");
        assert!(!cfg.duration.is_zero(), "duration must be positive");
        assert!(cfg.warmup < cfg.duration, "warm-up must precede the end");
        let n = cfg.stations.len();
        let mut links = vec![LinkErrorModel::Perfect; n + 1];
        let mut arf = vec![None; n + 1];
        let mut fixed_rate = vec![DataRate::B11; n + 1];
        for (i, st) in cfg.stations.iter().enumerate() {
            let node = i + 1;
            match &st.link {
                LinkSpec::Fixed { rate, fer } => {
                    links[node] = LinkErrorModel::FixedFer(*fer);
                    fixed_rate[node] = *rate;
                }
                LinkSpec::Path {
                    distance_ft,
                    walls,
                    shadow_db,
                    initial_rate,
                } => {
                    links[node] = cfg.path_loss.link(
                        airtime_phy::pathloss::feet_to_metres(*distance_ft),
                        walls,
                        *shadow_db,
                    );
                    arf[node] = Some(Arf::new(cfg.arf, *initial_rate, SimTime::ZERO));
                }
            }
        }
        let rng = SimRng::new(cfg.seed);
        let mut mac = DcfWorld::new(
            DcfConfig {
                phy: cfg.phy,
                ap: AP,
                retry_rate_fallback: cfg.retry_rate_fallback,
                rts_threshold: cfg.rts_threshold,
            },
            links,
            rng.substream(1),
        );
        // Backoff draws happen either way; these only control whether
        // the MAC reports them as effects — neither touches the RNG.
        mac.set_emit_backoff(obs.active());
        mac.set_emit_airtime(obs.active());
        let mut sched = cfg.scheduler.build();
        // Build flow runtimes.
        let warmup_end = SimTime::ZERO + cfg.warmup;
        let mut flows = Vec::new();
        for (i, st) in cfg.stations.iter().enumerate() {
            for spec in &st.flows {
                let (tcp_tx, tcp_rx, udp) = transports(FlowId(flows.len()), spec, cfg);
                flows.push(FlowRt {
                    station: i,
                    transport: spec.transport,
                    direction: spec.direction,
                    start: spec.start,
                    started: false,
                    epoch: 0,
                    tcp_tx,
                    tcp_rx,
                    udp,
                    meter: RateMeter::new(warmup_end),
                    metered_bytes: 0,
                    completion: None,
                    latency: Histogram::new(0.0, 2_000.0, 400),
                    pump_pending: false,
                });
            }
        }
        // A topology driver may start some stations unassociated (they
        // roam in later); single-cell runs associate everyone at t=0.
        match cfg.regulate {
            Regulate::PerStation => {
                for (i, st) in cfg.stations.iter().enumerate() {
                    if active[i] {
                        sched.on_associate_weighted(ClientId(i), st.weight, SimTime::ZERO);
                    }
                }
            }
            Regulate::PerFlow => {
                for (f, rt) in flows.iter().enumerate() {
                    if active[rt.station] {
                        let weight = cfg.stations[rt.station].weight;
                        sched.on_associate_weighted(ClientId(f), weight, SimTime::ZERO);
                    }
                }
            }
        }
        let key_count = match cfg.regulate {
            Regulate::PerStation => n,
            Regulate::PerFlow => flows.len(),
        };
        let is_tbr = matches!(cfg.scheduler, SchedulerKind::Tbr(_));
        let instr = metrics.map(|reg| {
            reg.set_meta("seed", &cfg.seed.to_string());
            reg.set_meta("scheduler", &format!("{:?}", cfg.scheduler));
            reg.set_meta("stations", &n.to_string());
            reg.set_meta("duration_s", &format!("{}", cfg.duration.as_secs_f64()));
            let shares = (0..n)
                .map(|s| reg.gauge(&format!("station.{s}.airtime_share")))
                .collect();
            let tokens = if is_tbr {
                (0..key_count)
                    .map(|k| reg.gauge(&format!("tbr.{k}.tokens_us")))
                    .collect()
            } else {
                Vec::new()
            };
            Instr {
                next_snapshot: SimTime::ZERO + METRICS_PERIOD,
                next_lap: SimTime::from_secs(1),
                profiler: LoopProfiler::new(),
                attempts: reg.counter("mac.attempts"),
                collisions: reg.counter("mac.collisions"),
                retries: reg.counter("mac.retries"),
                delivered: reg.counter("mac.delivered"),
                dropped: reg.counter("mac.dropped"),
                sched_drops: reg.counter("sched.drops"),
                events: reg.counter("sim.events"),
                tcp_retransmits: reg.counter("tcp.retransmits"),
                tcp_timeouts: reg.counter("tcp.timeouts"),
                queue_len: reg.gauge("sim.queue_len"),
                queue_high_water: reg.gauge("sim.queue_high_water"),
                shares,
                tokens,
                attempt_airtime: reg.histogram("mac.attempt_airtime_us", 0.0, 20_000.0, 100),
                queue_depth: reg.histogram("sim.queue_depth", 0.0, 512.0, 128),
                reg,
            }
        });
        let dense_ticks =
            sched.tick_period().is_some() && !(cfg.coalesce_ticks && sched.coalescible());
        let mut queue = AnyQueue::new(cfg.queue_backend);
        queue.schedule(warmup_end, Event::WarmupDone);
        if dense_ticks {
            if let Some(p) = sched.tick_period() {
                queue.schedule(SimTime::ZERO + p, Event::SchedTick);
            }
        }
        for (f, rt) in flows.iter().enumerate() {
            if active[rt.station] {
                queue.schedule(rt.start, Event::StartFlow { flow: f });
            }
        }
        Sim {
            cfg,
            obs,
            instr,
            now: SimTime::ZERO,
            queue,
            dense_ticks,
            pending_wake: None,
            mac,
            sched,
            flows,
            client_q: vec![VecDeque::new(); n + 1],
            arf,
            fixed_rate,
            in_transit: HashMap::new(),
            spans: HashMap::new(),
            next_handle: 0,
            occupancy_at_warmup: vec![SimDuration::ZERO; n + 1],
            busy_at_warmup: SimDuration::ZERO,
            trace: cfg.record_trace.then(|| Trace::new(cfg.duration)),
            fer_est: vec![0.0; n + 1],
            mac_fx: Vec::new(),
            sender_fx: Vec::new(),
            receiver_fx: Vec::new(),
        }
    }

    /// Dispatches the earliest pending event, then settles the cell
    /// around it: traffic pumps, MAC feeding, the scheduler's wake-up.
    /// Returns the event's time and profiler label; `None` when the
    /// timeline is drained.
    fn step(&mut self) -> Option<(SimTime, &'static str)> {
        let (t, ev) = self.queue.pop()?;
        self.now = t;
        let label = event_label(&ev);
        if self.obs.active() {
            self.obs.on_dispatch(t, self.queue.last_seq(), label);
        }
        let t0 = self.instr.as_mut().map(|instr| {
            instr
                .reg
                .observe(instr.queue_depth, self.queue.len() as f64);
            std::time::Instant::now()
        });
        self.dispatch(ev);
        self.pump_all();
        self.kick_all();
        self.ensure_sched_wake();
        if let Some(t0) = t0 {
            if let Some(instr) = self.instr.as_mut() {
                instr.profiler.count_timed(label, t0.elapsed());
            }
            self.advance_instr();
        }
        Some((t, label))
    }

    /// Ends the run at `end` and produces its report, plus the
    /// host-side profile when metrics were attached. Brings the
    /// scheduler's periodic state up to `end` in every drive mode, so
    /// reported rates never depend on whether the trailing idle stretch
    /// carried tick events, and closes the airtime timeline so traces
    /// audit on their own.
    fn finish(mut self, end: SimTime) -> (Report, Option<RunProfile>) {
        self.now = end;
        self.sched.on_tick(end);
        self.finish_airtime(end);
        self.finish_instr();
        let events = self.queue.events_processed();
        let queue_high_water = self.queue.high_water() as u64;
        let profile = self.instr.take().map(|i| RunProfile {
            profiler: i.profiler,
            events,
            queue_high_water,
        });
        (self.report(), profile)
    }

    /// The scheduler key a packet of `flow` is regulated under.
    fn reg_key(&self, flow: usize) -> ClientId {
        match self.cfg.regulate {
            Regulate::PerStation => ClientId(self.flows[flow].station),
            Regulate::PerFlow => ClientId(flow),
        }
    }

    /// The station index behind a scheduler key.
    fn station_of_key(&self, key: ClientId) -> usize {
        match self.cfg.regulate {
            Regulate::PerStation => key.index(),
            Regulate::PerFlow => self.flows[key.index()].station,
        }
    }

    fn rate_of(&self, node: usize) -> DataRate {
        match &self.arf[node] {
            Some(a) => a.current_rate(),
            None => self.fixed_rate[node],
        }
    }

    fn new_handle(&mut self, pkt: Packet, born: SimTime) -> u64 {
        let h = self.next_handle;
        self.next_handle += 1;
        self.in_transit.insert(h, (pkt, born));
        h
    }

    /// Number of scheduler keys (stations or flows, per `cfg.regulate`).
    fn key_count(&self) -> usize {
        match self.cfg.regulate {
            Regulate::PerStation => self.cfg.stations.len(),
            Regulate::PerFlow => self.flows.len(),
        }
    }

    // -- instrumentation -------------------------------------------------
    //
    // Everything below reads simulator state but never mutates it (and
    // never touches the RNG), so instrumented runs follow exactly the
    // same trajectory as plain ones.

    /// Takes any due metric snapshots and wall-clock laps.
    fn advance_instr(&mut self) {
        let now = self.now;
        if let Some(instr) = self.instr.as_mut() {
            while now >= instr.next_lap {
                instr.profiler.lap();
                instr.next_lap += SimDuration::from_secs(1);
            }
        }
        while self.instr.as_ref().is_some_and(|i| now >= i.next_snapshot) {
            let at = self.instr.as_ref().unwrap().next_snapshot;
            self.mirror_metrics();
            let instr = self.instr.as_mut().unwrap();
            instr.reg.snapshot(at);
            instr.next_snapshot = at + METRICS_PERIOD;
        }
    }

    /// Copies cumulative simulator state into the registry's counters
    /// and gauges.
    fn mirror_metrics(&mut self) {
        if self.instr.is_none() {
            return;
        }
        let stats = self.mac.stats();
        let sched_drops = self.sched.drops();
        let qlen = self.queue.len();
        let qhw = self.queue.high_water();
        let events = self.queue.events_processed();
        let (mut retransmits, mut timeouts) = (0u64, 0u64);
        for f in &self.flows {
            if let Some(tx) = f.tcp_tx.as_ref() {
                let (_, r, t) = tx.stats();
                retransmits += r;
                timeouts += t;
            }
        }
        let n = self.cfg.stations.len();
        // Warm-up airtime is excluded once WarmupDone has latched the
        // baseline, matching the report's occupancy shares.
        let occ: Vec<f64> = (0..n)
            .map(|st| {
                let node = st + 1;
                self.mac
                    .occupancy(NodeId(node))
                    .saturating_sub(self.occupancy_at_warmup[node])
                    .as_secs_f64()
            })
            .collect();
        let occ_total: f64 = occ.iter().sum();
        let token_count = self.instr.as_ref().map_or(0, |i| i.tokens.len());
        let token_vals: Vec<f64> = (0..token_count)
            .map(|k| self.sched.token_balance_ns(ClientId(k)).unwrap_or(0.0) / 1e3)
            .collect();
        let instr = self.instr.as_mut().expect("checked above");
        instr.reg.set_counter(instr.attempts, stats.attempts);
        instr
            .reg
            .set_counter(instr.collisions, stats.collision_events);
        instr.reg.set_counter(instr.retries, stats.retries);
        instr.reg.set_counter(instr.delivered, stats.delivered);
        instr.reg.set_counter(instr.dropped, stats.dropped);
        instr.reg.set_counter(instr.sched_drops, sched_drops);
        instr.reg.set_counter(instr.events, events);
        instr.reg.set_counter(instr.tcp_retransmits, retransmits);
        instr.reg.set_counter(instr.tcp_timeouts, timeouts);
        instr.reg.set(instr.queue_len, qlen as f64);
        instr.reg.set(instr.queue_high_water, qhw as f64);
        for (&id, &o) in instr.shares.iter().zip(&occ) {
            let share = if occ_total > 0.0 { o / occ_total } else { 0.0 };
            instr.reg.set(id, share);
        }
        for (&id, &v) in instr.tokens.iter().zip(&token_vals) {
            instr.reg.set(id, v);
        }
    }

    /// Final snapshot plus the event-loop profile.
    fn finish_instr(&mut self) {
        if self.instr.is_none() {
            return;
        }
        self.mirror_metrics();
        let end = self.now;
        let events = self.queue.events_processed();
        let instr = self.instr.as_mut().expect("checked above");
        instr.reg.snapshot(end);
        let counts: Vec<(&'static str, u64)> = instr.profiler.counts();
        for (label, n) in counts {
            let id = instr.reg.counter(&format!("profile.events.{label}"));
            instr.reg.set_counter(id, n);
        }
        let times: Vec<(&'static str, std::time::Duration)> = instr.profiler.times();
        for (label, d) in times {
            let id = instr.reg.gauge(&format!("profile.dispatch_us.{label}"));
            instr.reg.set(id, d.as_secs_f64() * 1e6);
        }
        // Distribution gauges ride alongside the totals above; the
        // pre-existing names keep their exact values, so older readers
        // see byte-identical fields.
        let dists: Vec<(&'static str, airtime_sim::NsHist)> = instr.profiler.dists();
        for (label, h) in dists {
            for (stat, v) in [
                ("p50", h.quantile_ns(0.50)),
                ("p95", h.quantile_ns(0.95)),
                ("p99", h.quantile_ns(0.99)),
                ("min", h.min_ns()),
                ("max", h.max_ns()),
            ] {
                let id = instr
                    .reg
                    .gauge(&format!("profile.dispatch_{stat}_ns.{label}"));
                instr.reg.set(id, v.unwrap_or(0) as f64);
            }
        }
        let wall = instr.profiler.wall_total().as_secs_f64();
        let id = instr.reg.gauge("profile.wall_s");
        instr.reg.set(id, wall);
        if let Some(per_lap) = instr.profiler.secs_per_lap() {
            let id = instr.reg.gauge("profile.wall_per_sim_s");
            instr.reg.set(id, per_lap);
        }
        let id = instr.reg.gauge("profile.events_per_wall_s");
        let rate = if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        };
        instr.reg.set(id, rate);
    }

    /// Emits the airtime timeline's tail — the in-progress cycle (or
    /// trailing idle/contention stretch) clipped at `end` — plus the
    /// end-of-run mark, so that a trace audits on its own: the slices
    /// tile `[0, end]` exactly.
    fn finish_airtime(&mut self, end: SimTime) {
        if !self.obs.active() {
            return;
        }
        self.with_mac(|mac, fx| mac.drain_airtime_tail(end, fx));
        self.obs.on_run_mark(EventRecord::RunMark {
            t: end,
            phase: RunPhase::End,
        });
    }

    // -- observer emission helpers ---------------------------------------

    fn emit_ap_queue(&mut self, key: ClientId) {
        if self.obs.active() {
            let len = self.sched.queue_len(key) as u64;
            self.obs.on_queue_change(EventRecord::QueueChange {
                t: self.now,
                site: QueueSite::Ap,
                key: key.index() as u64,
                len,
            });
        }
    }

    fn emit_client_queue(&mut self, node: usize) {
        if self.obs.active() {
            self.obs.on_queue_change(EventRecord::QueueChange {
                t: self.now,
                site: QueueSite::Client,
                key: node as u64,
                len: self.client_q[node].len() as u64,
            });
        }
    }

    fn emit_tokens(&mut self, key: ClientId, cause: TokenCause) {
        if self.obs.active() {
            if let (Some(tokens), Some(rate)) = (
                self.sched.token_balance_ns(key),
                self.sched.token_fill_rate(key),
            ) {
                self.obs.on_token_update(EventRecord::TokenUpdate {
                    t: self.now,
                    client: key.index() as u64,
                    tokens_us: tokens / 1e3,
                    rate,
                    cause,
                });
            }
        }
    }

    fn emit_tcp(&mut self, flow: usize, phase: TcpPhase) {
        if self.obs.active() {
            if let Some(tx) = self.flows[flow].tcp_tx.as_ref() {
                self.obs.on_tcp_event(EventRecord::Tcp {
                    t: self.now,
                    flow: flow as u64,
                    phase,
                    cwnd: tx.cwnd(),
                    flight: tx.flight(),
                });
            }
        }
    }

    // -- event dispatch ------------------------------------------------

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Mac(me) => {
                let now = self.now;
                self.with_mac(|mac, fx| mac.handle(now, me, fx));
            }
            Event::WiredToAp(pkt) => self.on_wired_to_ap(pkt),
            Event::WiredToHost(pkt) => self.deliver(pkt),
            Event::RtoFired {
                flow,
                generation,
                epoch,
            } => {
                if epoch != self.flows[flow].epoch {
                    return; // armed by a pre-handoff incarnation
                }
                let now = self.now;
                let mut fx = std::mem::take(&mut self.sender_fx);
                let fired = match self.flows[flow].tcp_tx.as_mut() {
                    Some(tx) => {
                        let before = tx.stats().2;
                        tx.on_rto_fired(now, generation, &mut fx);
                        tx.stats().2 > before
                    }
                    None => false,
                };
                if fired {
                    self.emit_tcp(flow, TcpPhase::Rto);
                }
                self.apply_sender_effects(flow, &mut fx);
                self.sender_fx = fx;
            }
            Event::DelAckFired {
                flow,
                generation,
                epoch,
            } => {
                if epoch != self.flows[flow].epoch {
                    return;
                }
                let mut fx = std::mem::take(&mut self.receiver_fx);
                if let Some(rx) = self.flows[flow].tcp_rx.as_mut() {
                    rx.on_delack_fired(generation, &mut fx);
                }
                self.apply_receiver_effects(flow, &mut fx);
                self.receiver_fx = fx;
            }
            Event::SchedTick => {
                if self.pending_wake.is_some_and(|w| w <= self.now) {
                    self.pending_wake = None;
                }
                self.sched.on_tick(self.now);
                if self.obs.active() {
                    for k in 0..self.key_count() {
                        self.emit_tokens(ClientId(k), TokenCause::Fill);
                    }
                }
                // Dense mode keeps the classic self-rescheduling chain;
                // coalesced mode only wakes when `ensure_sched_wake`
                // asks for it.
                if self.dense_ticks {
                    if let Some(p) = self.sched.tick_period() {
                        self.queue.schedule(self.now + p, Event::SchedTick);
                    }
                }
            }
            Event::Pump { flow } => {
                self.flows[flow].pump_pending = false;
                // pump_all (called after dispatch) does the work.
            }
            Event::StartFlow { flow } => {
                self.flows[flow].started = true;
            }
            Event::WarmupDone => {
                for node in 0..self.client_q.len() {
                    self.occupancy_at_warmup[node] = self.mac.occupancy(NodeId(node));
                }
                self.busy_at_warmup = self.mac.busy_time();
                // In-stream warm-up mark: ledger readers latch their
                // measurement window at exactly the point the report's
                // occupancy baseline is taken.
                if self.obs.active() {
                    self.obs.on_run_mark(EventRecord::RunMark {
                        t: self.now,
                        phase: RunPhase::Warmup,
                    });
                }
            }
        }
    }

    /// Runs `f` against the MAC with the reusable effect buffer, then
    /// applies what it wrote. The buffer stays out of `self` for the
    /// whole application, so a nested call — the client-cooperation
    /// `set_defer` inside [`Sim::on_tx_final`] — takes an empty buffer
    /// of its own and cannot disturb the batch being applied.
    fn with_mac(&mut self, f: impl FnOnce(&mut DcfWorld, &mut Vec<MacEffect>)) {
        let mut fx = std::mem::take(&mut self.mac_fx);
        f(&mut self.mac, &mut fx);
        self.apply_mac_effects(&mut fx);
        self.mac_fx = fx;
    }

    /// Applies and drains `effects`.
    fn apply_mac_effects(&mut self, effects: &mut Vec<MacEffect>) {
        if self.obs.active() {
            // One collision record per busy period: the MAC reports a
            // colliding attempt for each involved station in the same
            // effects batch.
            let mut stations = 0u64;
            let mut max_air = SimDuration::ZERO;
            for e in effects.iter() {
                if let MacEffect::Attempt {
                    collision: true,
                    airtime,
                    ..
                } = e
                {
                    stations += 1;
                    max_air = max_air.max(*airtime);
                }
            }
            if stations >= 2 {
                self.obs.on_collision(EventRecord::Collision {
                    t: self.now,
                    stations,
                    airtime: max_air,
                });
            }
        }
        for e in effects.drain(..) {
            match e {
                MacEffect::Schedule { at, event } => self.queue.schedule(at, Event::Mac(event)),
                MacEffect::BackoffDrawn { node, slots, cw } => {
                    if self.obs.active() {
                        self.obs.on_backoff(EventRecord::Backoff {
                            t: self.now,
                            node: node.index() as u64,
                            slots: slots as u64,
                            cw: cw as u64,
                        });
                    }
                }
                MacEffect::AirtimeSlice {
                    start,
                    dur,
                    client,
                    kind,
                } => {
                    if self.obs.active() {
                        let category = match kind {
                            SliceKind::DataTx => AirtimeCategory::DataTx,
                            SliceKind::Ack => AirtimeCategory::Ack,
                            SliceKind::MacOverhead => AirtimeCategory::MacOverhead,
                            SliceKind::Backoff => AirtimeCategory::Backoff,
                            SliceKind::Collision => AirtimeCategory::Collision,
                            SliceKind::Idle => AirtimeCategory::Idle,
                        };
                        self.obs.on_airtime_slice(EventRecord::AirtimeSlice {
                            t: self.now,
                            start,
                            dur,
                            station: client as u64,
                            category,
                        });
                    }
                }
                MacEffect::Attempt {
                    frame,
                    success,
                    collision,
                    airtime,
                    retry,
                } => {
                    let node = client_node(&frame);
                    if self.obs.active() {
                        self.obs.on_tx_attempt(EventRecord::TxAttempt {
                            t: self.now,
                            node: frame.src.index() as u64,
                            client: node as u64,
                            bytes: frame.msdu_bytes,
                            rate_mbps: frame.rate.mbps(),
                            success,
                            retry: retry as u64,
                            airtime,
                        });
                        if let Some(s) = self.spans.get_mut(&frame.handle) {
                            s.attempts += 1;
                            s.first_tx.get_or_insert(self.now);
                        }
                    }
                    if let Some(instr) = self.instr.as_mut() {
                        instr
                            .reg
                            .observe(instr.attempt_airtime, airtime.as_secs_f64() * 1e6);
                    }
                    if frame.src == AP && !collision {
                        // Downlink attempts reveal the link's loss rate
                        // (collisions are contention, not channel loss).
                        let fail = if success { 0.0 } else { 1.0 };
                        self.fer_est[node] = 0.95 * self.fer_est[node] + 0.05 * fail;
                    }
                    if let Some(a) = self.arf[node].as_mut() {
                        if success {
                            a.on_success(self.now);
                        } else {
                            a.on_failure(self.now);
                        }
                    }
                    if let Some(tr) = self.trace.as_mut() {
                        tr.push(FrameRecord {
                            at: self.now,
                            user: node - 1,
                            rate: frame.rate,
                            bytes: frame.msdu_bytes + airtime_phy::timing::MAC_DATA_OVERHEAD_BYTES,
                            downlink: frame.src == AP,
                        });
                    }
                }
                MacEffect::Delivered { frame } => self.on_delivered(frame),
                MacEffect::TxFinal {
                    frame,
                    outcome,
                    airtime_total,
                } => {
                    if self.obs.active() {
                        let phase = match outcome {
                            FrameOutcome::Delivered => MacPhase::TxEnd,
                            FrameOutcome::Dropped => MacPhase::Drop,
                        };
                        self.obs.on_mac_event(EventRecord::Mac {
                            t: self.now,
                            phase,
                            node: frame.src.index() as u64,
                        });
                        if let Some(s) = self.spans.remove(&frame.handle) {
                            self.obs.on_frame_span(EventRecord::FrameSpan {
                                t: self.now,
                                station: s.station,
                                bytes: s.bytes,
                                enqueue: s.enqueue,
                                release: s.release,
                                first_tx: s.first_tx.unwrap_or(s.release),
                                attempts: s.attempts,
                                airtime: airtime_total,
                                delivered: matches!(outcome, FrameOutcome::Delivered),
                            });
                        }
                    }
                    self.on_tx_final(frame, outcome, airtime_total)
                }
            }
        }
    }

    /// A frame reached its destination MAC intact.
    fn on_delivered(&mut self, frame: Frame) {
        let (pkt, born) = match self.in_transit.get(&frame.handle) {
            Some(p) => *p,
            None => return,
        };
        if pkt.is_data() && self.now >= SimTime::ZERO + self.cfg.warmup {
            let ms = self.now.saturating_since(born).as_secs_f64() * 1e3;
            self.flows[pkt.flow.index()].latency.record(ms);
        }
        if frame.dst == AP {
            // Uplink: forward across the backbone.
            self.queue
                .schedule(self.now + self.cfg.wired_delay, Event::WiredToHost(pkt));
        } else {
            // Downlink: hand to the client-side endpoint.
            self.deliver(pkt);
        }
    }

    /// The sender-side MAC finished with a frame (acked or dropped).
    fn on_tx_final(&mut self, frame: Frame, _outcome: FrameOutcome, airtime_total: SimDuration) {
        let pkt = self.in_transit.remove(&frame.handle);
        let node = client_node(&frame);
        let sent_by_ap = frame.src == AP;
        let key = match (self.cfg.regulate, pkt) {
            (Regulate::PerFlow, Some((p, _))) => self.reg_key(p.flow.index()),
            _ => ClientId(node - 1),
        };
        // COMPLETEEVENT: uplink airtime may have to be estimated when
        // the MAC header carries no retry count (§4.2 / §4.4).
        let airtime = if sent_by_ap || self.cfg.uplink_retry_info {
            airtime_total
        } else {
            let base = self.cfg.phy.exchange_time(frame.msdu_bytes, frame.rate);
            if self.cfg.uplink_loss_estimator {
                // §4.2 heuristic: expected attempts ≈ 1/(1−p̂) under
                // geometric retransmission with the link's estimated
                // loss rate.
                let p = self.fer_est[node].min(0.9);
                base.mul_f64(1.0 / (1.0 - p))
            } else {
                base
            }
        };
        self.sched.on_complete(key, airtime, sent_by_ap, self.now);
        self.emit_tokens(key, TokenCause::Debit);
        // Optional §4.1 client cooperation: a client with a negative
        // balance is told (via the piggybacked notification bit) to
        // defer for the time its deficit takes to refill.
        if self.cfg.client_cooperation && !sent_by_ap {
            if let (Some(tokens), Some(rate)) = (
                self.sched.token_balance_ns(key),
                self.sched.token_fill_rate(key),
            ) {
                if tokens < 0.0 && rate > 0.0 {
                    let wait_ns = (-tokens / rate) as u64;
                    let until = self.now + SimDuration::from_nanos(wait_ns);
                    let now = self.now;
                    self.with_mac(|mac, fx| mac.set_defer(now, NodeId(node), until, fx));
                }
            }
        }
    }

    fn on_wired_to_ap(&mut self, pkt: Packet) {
        // Queue at the AP for its destination client (APPTXEVENT).
        let key = self.reg_key(pkt.flow.index());
        let handle = self.new_handle(pkt, self.now);
        let q = QueuedPacket {
            client: key,
            handle,
            bytes: pkt.bytes,
        };
        if self.sched.enqueue(q, self.now) == EnqueueOutcome::Dropped {
            self.in_transit.remove(&handle);
        } else {
            self.emit_ap_queue(key);
        }
    }

    /// A packet reached its transport endpoint: the wired host (uplink
    /// data, downlink acks) or the client (downlink data, uplink acks).
    fn deliver(&mut self, pkt: Packet) {
        let flow = pkt.flow.index();
        match pkt.kind {
            PacketKind::TcpData { seq } => {
                let now = self.now;
                let mut fx = std::mem::take(&mut self.receiver_fx);
                if let Some(rx) = self.flows[flow].tcp_rx.as_mut() {
                    rx.on_data(now, seq, &mut fx);
                }
                self.meter_tcp_goodput(flow);
                self.apply_receiver_effects(flow, &mut fx);
                self.receiver_fx = fx;
            }
            PacketKind::TcpAck { ack_seq } => {
                let now = self.now;
                let mut fx = std::mem::take(&mut self.sender_fx);
                if let Some(tx) = self.flows[flow].tcp_tx.as_mut() {
                    tx.on_ack(now, ack_seq, &mut fx);
                }
                self.emit_tcp(flow, TcpPhase::Ack);
                self.apply_sender_effects(flow, &mut fx);
                self.sender_fx = fx;
            }
            PacketKind::UdpData { .. } => {
                let now = self.now;
                self.flows[flow].meter.record(now, pkt.bytes);
            }
        }
    }

    fn meter_tcp_goodput(&mut self, flow: usize) {
        let now = self.now;
        let f = &mut self.flows[flow];
        if let Some(rx) = f.tcp_rx.as_ref() {
            let total = rx.goodput_bytes();
            let delta = total.saturating_sub(f.metered_bytes);
            if delta > 0 {
                f.metered_bytes = total;
                f.meter.record(now, delta);
            }
        }
    }

    /// Applies and drains `effects`.
    fn apply_sender_effects(&mut self, flow: usize, effects: &mut Vec<SenderEffect>) {
        for e in effects.drain(..) {
            match e {
                SenderEffect::ArmRto { at, generation } => {
                    let epoch = self.flows[flow].epoch;
                    self.queue.schedule(
                        at,
                        Event::RtoFired {
                            flow,
                            generation,
                            epoch,
                        },
                    );
                }
                SenderEffect::Complete => {
                    let started = self.flows[flow].start;
                    self.flows[flow].completion = Some(self.now.saturating_since(started));
                    self.emit_tcp(flow, TcpPhase::Done);
                }
            }
        }
    }

    /// Applies and drains `effects`.
    fn apply_receiver_effects(&mut self, flow: usize, effects: &mut Vec<ReceiverEffect>) {
        for e in effects.drain(..) {
            match e {
                ReceiverEffect::SendAck { ack_seq } => {
                    let f = &self.flows[flow];
                    let ack = f
                        .tcp_rx
                        .as_ref()
                        .expect("acks only from TCP receivers")
                        .ack_packet(ack_seq);
                    match f.direction {
                        // Downlink data → client-side receiver → ack goes
                        // up over the air.
                        Direction::Downlink => {
                            let node = f.station + 1;
                            if self.client_q[node].len() < self.cfg.client_queue_cap {
                                self.client_q[node].push_back((ack, self.now));
                                self.emit_client_queue(node);
                            }
                        }
                        // Uplink data → host-side receiver → ack crosses
                        // the wire and queues at the AP.
                        Direction::Uplink => {
                            self.queue
                                .schedule(self.now + self.cfg.wired_delay, Event::WiredToAp(ack));
                        }
                    }
                }
                ReceiverEffect::ArmDelAck { at, generation } => {
                    let epoch = self.flows[flow].epoch;
                    self.queue.schedule(
                        at,
                        Event::DelAckFired {
                            flow,
                            generation,
                            epoch,
                        },
                    );
                }
            }
        }
    }

    // -- traffic pumping and MAC feeding --------------------------------

    fn pump_all(&mut self) {
        for flow in 0..self.flows.len() {
            if !self.flows[flow].started {
                continue;
            }
            match (self.flows[flow].transport, self.flows[flow].direction) {
                (Transport::Tcp, Direction::Uplink) => self.pump_tcp_uplink(flow),
                (Transport::Tcp, Direction::Downlink) => self.pump_tcp_downlink(flow),
                (Transport::Udp, Direction::Uplink) => self.pump_udp_uplink(flow),
                (Transport::Udp, Direction::Downlink) => self.pump_udp_downlink(flow),
            }
        }
    }

    fn schedule_pump(&mut self, flow: usize, at: SimTime) {
        if !self.flows[flow].pump_pending {
            self.flows[flow].pump_pending = true;
            self.queue.schedule(at, Event::Pump { flow });
        }
    }

    fn pump_tcp_uplink(&mut self, flow: usize) {
        let node = self.flows[flow].station + 1;
        let now = self.now;
        let mut fx = std::mem::take(&mut self.sender_fx);
        let mut pushed = false;
        while self.client_q[node].len() < self.cfg.client_queue_cap {
            let pkt = match self.flows[flow].tcp_tx.as_mut() {
                Some(tx) => tx.poll_packet(now, &mut fx),
                None => None,
            };
            match pkt {
                Some(p) => {
                    self.client_q[node].push_back((p, now));
                    pushed = true;
                }
                None => break,
            }
        }
        if pushed {
            self.emit_client_queue(node);
        }
        self.apply_sender_effects(flow, &mut fx);
        self.sender_fx = fx;
        if let Some(at) = self.flows[flow]
            .tcp_tx
            .as_ref()
            .and_then(|tx| tx.next_app_ready(now))
        {
            self.schedule_pump(flow, at);
        }
    }

    fn pump_tcp_downlink(&mut self, flow: usize) {
        let now = self.now;
        let mut fx = std::mem::take(&mut self.sender_fx);
        loop {
            let pkt = match self.flows[flow].tcp_tx.as_mut() {
                Some(tx) => tx.poll_packet(now, &mut fx),
                None => None,
            };
            match pkt {
                Some(p) => {
                    self.queue
                        .schedule(now + self.cfg.wired_delay, Event::WiredToAp(p));
                }
                None => break,
            }
        }
        self.apply_sender_effects(flow, &mut fx);
        self.sender_fx = fx;
        if let Some(at) = self.flows[flow]
            .tcp_tx
            .as_ref()
            .and_then(|tx| tx.next_app_ready(now))
        {
            self.schedule_pump(flow, at);
        }
    }

    fn pump_udp_uplink(&mut self, flow: usize) {
        let node = self.flows[flow].station + 1;
        let now = self.now;
        let mut pushed = false;
        while self.client_q[node].len() < self.cfg.client_queue_cap {
            let pkt = match self.flows[flow].udp.as_mut() {
                Some(u) => u.poll_packet(now),
                None => None,
            };
            match pkt {
                Some(p) => {
                    self.client_q[node].push_back((p, now));
                    pushed = true;
                }
                None => break,
            }
        }
        if pushed {
            self.emit_client_queue(node);
        }
        if let Some(at) = self.flows[flow]
            .udp
            .as_ref()
            .and_then(|u| u.next_ready(now))
        {
            self.schedule_pump(flow, at);
        }
    }

    fn pump_udp_downlink(&mut self, flow: usize) {
        let key = self.reg_key(flow);
        let now = self.now;
        // Back-pressure: keep the AP queue for this client primed but
        // never blind-feed a full buffer (a saturating source would
        // otherwise generate unbounded work).
        let mut pushed = false;
        while self.sched.queue_len(key) < 40 {
            let pkt = match self.flows[flow].udp.as_mut() {
                Some(u) => u.poll_packet(now),
                None => None,
            };
            match pkt {
                Some(p) => {
                    let handle = self.new_handle(p, now);
                    let q = QueuedPacket {
                        client: key,
                        handle,
                        bytes: p.bytes,
                    };
                    if self.sched.enqueue(q, now) == EnqueueOutcome::Dropped {
                        // Queue full (its cap may be below our priming
                        // level): stop generating until it drains.
                        self.in_transit.remove(&handle);
                        break;
                    }
                    pushed = true;
                }
                None => break,
            }
        }
        if pushed {
            self.emit_ap_queue(key);
        }
        if let Some(at) = self.flows[flow]
            .udp
            .as_ref()
            .and_then(|u| u.next_ready(now))
        {
            self.schedule_pump(flow, at);
        }
    }

    fn kick_all(&mut self) {
        // AP: MACTXEVENT — feed one frame whenever the AP MAC is idle.
        if self.mac.can_accept(AP) {
            if let Some(q) = self.sched.dequeue(self.now) {
                if self.obs.active() {
                    self.obs.on_sched_decision(EventRecord::SchedDecision {
                        t: self.now,
                        client: q.client.index() as u64,
                        bytes: q.bytes,
                        queue_len: self.sched.queue_len(q.client) as u64,
                    });
                }
                let station = self.station_of_key(q.client);
                let node = station + 1;
                if self.obs.active() {
                    let enqueue = self
                        .in_transit
                        .get(&q.handle)
                        .map_or(self.now, |&(_, born)| born);
                    self.spans.insert(
                        q.handle,
                        SpanTrack {
                            station: node as u64,
                            bytes: q.bytes,
                            enqueue,
                            release: self.now,
                            first_tx: None,
                            attempts: 0,
                        },
                    );
                }
                let frame = Frame {
                    src: AP,
                    dst: NodeId(node),
                    msdu_bytes: q.bytes,
                    rate: self.rate_of(node),
                    handle: q.handle,
                };
                let now = self.now;
                self.with_mac(|mac, fx| mac.offer_frame(now, frame, fx).expect("AP MAC was idle"));
            }
        }
        // Clients: head of interface queue.
        for node in 1..self.client_q.len() {
            if self.mac.can_accept(NodeId(node)) {
                if let Some((pkt, born)) = self.client_q[node].pop_front() {
                    self.emit_client_queue(node);
                    let handle = self.new_handle(pkt, born);
                    if self.obs.active() {
                        self.spans.insert(
                            handle,
                            SpanTrack {
                                station: node as u64,
                                bytes: pkt.bytes,
                                enqueue: born,
                                release: self.now,
                                first_tx: None,
                                attempts: 0,
                            },
                        );
                    }
                    let frame = Frame {
                        src: NodeId(node),
                        dst: AP,
                        msdu_bytes: pkt.bytes,
                        rate: self.rate_of(node),
                        handle,
                    };
                    let now = self.now;
                    self.with_mac(|mac, fx| {
                        mac.offer_frame(now, frame, fx)
                            .expect("client MAC was idle")
                    });
                }
            }
        }
    }

    /// In coalesced-tick mode: if the scheduler is blocked (backlogged
    /// but nothing eligible — a TBR queue waiting on tokens), make sure
    /// a `SchedTick` wake-up sits in the event queue at the scheduler's
    /// requested instant. Runs after every dispatch; a no-op in dense
    /// mode, when the scheduler needs no timer, or when traffic will
    /// consult the scheduler anyway.
    fn ensure_sched_wake(&mut self) {
        if self.dense_ticks || self.sched.tick_period().is_none() {
            return;
        }
        if self.sched.backlog() == 0 || self.sched.has_eligible(self.now) {
            return;
        }
        let Some(at) = self.sched.next_wake(self.now) else {
            return;
        };
        if self.pending_wake.is_none_or(|w| at < w) {
            self.queue.schedule(at, Event::SchedTick);
            self.pending_wake = Some(at);
        }
    }

    // -- association lifecycle (multi-cell topology support) -------------

    /// Scheduler keys owned by `station` under the configured
    /// regulation granularity.
    fn keys_of_station(&self, station: usize) -> Vec<ClientId> {
        match self.cfg.regulate {
            Regulate::PerStation => vec![ClientId(station)],
            Regulate::PerFlow => self
                .flows
                .iter()
                .enumerate()
                .filter(|(_, f)| f.station == station)
                .map(|(i, _)| ClientId(i))
                .collect(),
        }
    }

    /// Replaces a flow's transport state with a fresh incarnation
    /// starting at `now` (a roaming client reconnects at its new AP;
    /// TCP state does not survive the handoff). Goodput and latency
    /// accounting are cumulative across incarnations.
    fn rebuild_flow(&mut self, flow: usize, spec: &FlowSpec, now: SimTime) {
        let (tcp_tx, tcp_rx, udp) = transports(FlowId(flow), spec, self.cfg);
        let f = &mut self.flows[flow];
        f.start = now;
        f.started = true;
        f.tcp_tx = tcp_tx;
        f.tcp_rx = tcp_rx;
        f.udp = udp;
        f.metered_bytes = 0;
        f.completion = None;
    }

    /// Registers `station` with the AP scheduler and starts fresh
    /// transport incarnations for its flows. `now` must be at or after
    /// every event this cell has dispatched.
    fn associate_station(&mut self, station: usize, now: SimTime) {
        self.now = now;
        let weight = self.cfg.stations[station].weight;
        for key in self.keys_of_station(station) {
            self.sched.on_associate_weighted(key, weight, now);
        }
        let cfg = self.cfg;
        let mut flow = 0;
        for (s, st) in cfg.stations.iter().enumerate() {
            for spec in &st.flows {
                if s == station {
                    self.rebuild_flow(flow, spec, now);
                }
                flow += 1;
            }
        }
        // The association happens between events on the shared
        // timeline, so prime traffic and the MAC here rather than
        // waiting for this cell's next dispatch.
        self.pump_all();
        self.kick_all();
        self.ensure_sched_wake();
    }

    /// Removes `station` from the AP scheduler: flushes its AP-side
    /// queues (the flushed frames never reached the MAC and simply
    /// vanish from the in-transit map), clears its uplink interface
    /// queue and tears its transport state down. A frame already
    /// committed to the MAC completes its exchange — the radio does
    /// not recall it; the scheduler ignores the late completion debit.
    fn disassociate_station(&mut self, station: usize, now: SimTime) {
        self.now = now;
        for key in self.keys_of_station(station) {
            for q in self.sched.on_disassociate(key, now) {
                self.in_transit.remove(&q.handle);
            }
            self.emit_ap_queue(key);
        }
        let node = station + 1;
        if !self.client_q[node].is_empty() {
            self.client_q[node].clear();
            self.emit_client_queue(node);
        }
        for f in self.flows.iter_mut() {
            if f.station == station {
                f.epoch += 1;
                f.started = false;
                f.tcp_tx = None;
                f.tcp_rx = None;
                f.udp = None;
                f.pump_pending = false;
            }
        }
    }

    // -- results ---------------------------------------------------------

    fn report(mut self) -> Report {
        let end = self.now;
        let mut flow_reports = Vec::new();
        for (i, f) in self.flows.iter().enumerate() {
            let (retransmits, timeouts) = match f.tcp_tx.as_ref() {
                Some(tx) => {
                    let (_, r, t) = tx.stats();
                    (r, t)
                }
                None => (0, 0),
            };
            flow_reports.push(FlowReport {
                flow: i,
                station: f.station,
                transport: f.transport,
                direction: f.direction,
                goodput_mbps: f.meter.mbps(end),
                goodput_bytes: f.meter.bytes(),
                completion: f.completion,
                retransmits,
                timeouts,
                latency_p50_ms: f.latency.quantile(0.5),
                latency_p95_ms: f.latency.quantile(0.95),
            });
        }
        let n = self.cfg.stations.len();
        let mut node_occ = Vec::with_capacity(n);
        for st in 0..n {
            let node = st + 1;
            let occ = self
                .mac
                .occupancy(NodeId(node))
                .saturating_sub(self.occupancy_at_warmup[node]);
            node_occ.push(occ);
        }
        let total_occ: f64 = node_occ.iter().map(|d| d.as_secs_f64()).sum();
        let nodes: Vec<NodeReport> = (0..n)
            .map(|st| {
                let goodput: f64 = flow_reports
                    .iter()
                    .filter(|f| f.station == st)
                    .map(|f| f.goodput_mbps)
                    .sum();
                NodeReport {
                    station: st,
                    occupancy: node_occ[st],
                    occupancy_share: if total_occ > 0.0 {
                        node_occ[st].as_secs_f64() / total_occ
                    } else {
                        0.0
                    },
                    goodput_mbps: goodput,
                }
            })
            .collect();
        let total: f64 = flow_reports.iter().map(|f| f.goodput_mbps).sum();
        let measured_span = end.saturating_since(SimTime::ZERO + self.cfg.warmup);
        let busy = self.mac.busy_time().saturating_sub(self.busy_at_warmup);
        let tbr_rates = matches!(self.cfg.scheduler, SchedulerKind::Tbr(_)).then(|| {
            (0..self.key_count())
                .map(|k| self.sched.token_fill_rate(ClientId(k)).unwrap_or(0.0))
                .collect()
        });
        Report {
            flows: flow_reports,
            nodes,
            total_goodput_mbps: total,
            mac: self.mac.stats(),
            sched_drops: self.sched.drops(),
            utilization: if measured_span.is_zero() {
                0.0
            } else {
                busy.as_secs_f64() / measured_span.as_secs_f64()
            },
            end,
            trace: self.trace.take(),
            tbr_rates,
        }
    }
}

/// A fresh transport incarnation for flow `id`: TCP sender/receiver
/// or a UDP source, per `spec`.
fn transports(
    id: FlowId,
    spec: &FlowSpec,
    cfg: &NetworkConfig,
) -> (Option<TcpSender>, Option<TcpReceiver>, Option<UdpSource>) {
    match spec.transport {
        Transport::Tcp => {
            let limiter = spec
                .rate_limit_bps
                .map(|bps| RateLimiter::new(bps, 2 * cfg.tcp.mss));
            (
                Some(TcpSender::new(
                    id,
                    cfg.tcp.clone(),
                    spec.task_bytes,
                    limiter,
                )),
                Some(TcpReceiver::new(id, cfg.tcp.clone())),
                None,
            )
        }
        Transport::Udp => (
            None,
            None,
            Some(UdpSource::new(
                id,
                UdpConfig {
                    datagram_bytes: 1500,
                    rate_bps: spec.rate_limit_bps,
                    task_bytes: spec.task_bytes,
                },
            )),
        ),
    }
}

/// The client side of an AP↔station frame.
fn client_node(frame: &Frame) -> usize {
    if frame.src == AP {
        frame.dst.index()
    } else {
        frame.src.index()
    }
}

/// One cell of a multi-AP topology, exposed as a steppable simulation.
///
/// The single-cell run ([`run`]) steps one engine until its end; a
/// multi-cell driver instead interleaves several cells on one shared
/// timeline, always stepping the cell holding the globally-earliest
/// event. `CellSim` exposes that same engine's start, step and finish
/// for the purpose, and adds the association lifecycle a roaming
/// station needs — flush-and-leave at the old AP, fresh registration
/// (and fresh transport incarnations) at the new one — plus the
/// busy-window hooks a driver uses to couple co-channel cells through
/// carrier sense.
///
/// Ordering contract: mutating calls (`associate`, `disassociate`,
/// `defer_all`, `step`) must be non-decreasing in time. A driver that
/// only touches a cell when the shared timeline has caught up with it
/// (every already-dispatched event of this cell is at or before `now`)
/// satisfies this by construction.
pub struct CellSim<'c, O: Observer> {
    sim: Sim<'c, O>,
    associated: Vec<bool>,
}

impl<'c, O: Observer> CellSim<'c, O> {
    /// Builds a cell over `cfg` with an initial association mask
    /// (`active[i]` — station `i` starts associated here). Inactive
    /// stations hold no scheduler slot and start no flows until
    /// [`CellSim::associate`].
    ///
    /// # Panics
    ///
    /// Panics on malformed configs (as [`run`]) or when the mask
    /// length disagrees with the station count.
    pub fn new(cfg: &'c NetworkConfig, obs: &'c mut O, active: &[bool]) -> Self {
        assert_eq!(
            active.len(),
            cfg.stations.len(),
            "association mask must cover every station"
        );
        CellSim {
            sim: Sim::start(cfg, obs, None, active),
            associated: active.to_vec(),
        }
    }

    /// Time of this cell's earliest pending event. Takes `&mut self`
    /// because the wheel backend may cascade timers to answer.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.sim.queue.peek_time()
    }

    /// Time of the last dispatched event (the cell's local clock).
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// Dispatches exactly one event — the earliest pending — and
    /// returns its time and profiler label (so a driver can attribute
    /// the step's host cost per event type); `None` when the cell is
    /// drained.
    pub fn step(&mut self) -> Option<(SimTime, &'static str)> {
        self.sim.step()
    }

    /// Events dispatched by this cell's loop so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.queue.events_processed()
    }

    /// Deepest this cell's event queue has ever been.
    pub fn queue_high_water(&self) -> u64 {
        self.sim.queue.high_water() as u64
    }

    /// Ends the run at `end`: brings the scheduler's periodic state up
    /// to the boundary, closes the airtime timeline so per-cell traces
    /// audit on their own, and produces the cell's report.
    pub fn finish(self, end: SimTime) -> Report {
        self.sim.finish(end).0
    }

    /// True while `station` holds an association at this AP.
    pub fn is_associated(&self, station: usize) -> bool {
        self.associated[station]
    }

    /// Associates `station` at `now`: fresh scheduler registration
    /// (under TBR: initial tokens, recomputed rate shares) and fresh
    /// transport incarnations for its flows. No-op when already
    /// associated.
    pub fn associate(&mut self, station: usize, now: SimTime) {
        if self.associated[station] {
            return;
        }
        self.associated[station] = true;
        self.sim.associate_station(station, now);
    }

    /// Disassociates `station` at `now`, flushing its queues and
    /// stopping its flows (see the engine-side notes on frames already
    /// committed to the MAC). No-op when not associated.
    pub fn disassociate(&mut self, station: usize, now: SimTime) {
        if !self.associated[station] {
            return;
        }
        self.associated[station] = false;
        self.sim.disassociate_station(station, now);
    }

    /// Feeds an association change into this cell's observer lane —
    /// the topology engine calls it on every handoff/drop so flight-
    /// recorder fingerprints capture roaming causality. Gated on
    /// `active()`: with a `NullObserver` the call folds away.
    pub fn observe_handoff(
        &mut self,
        t: SimTime,
        station: u64,
        from: Option<u64>,
        to: Option<u64>,
    ) {
        if self.sim.obs.active() {
            self.sim.obs.on_handoff(t, station, from, to);
        }
    }

    /// Replaces `station`'s channel error model (mobility: path loss
    /// follows position).
    pub fn set_station_link(&mut self, station: usize, link: LinkErrorModel) {
        self.sim.mac.set_link(NodeId(station + 1), link);
    }

    /// Pins `station`'s PHY rate, for drivers that select rates from
    /// RSSI instead of per-cell ARF. Ignored while the station runs
    /// ARF (a `Path` link with automatic rate control).
    pub fn set_station_rate(&mut self, station: usize, rate: DataRate) {
        self.sim.fixed_rate[station + 1] = rate;
    }

    /// End of this cell's current busy period, if its medium is busy.
    pub fn busy_until(&self) -> Option<SimTime> {
        self.sim.mac.busy_until()
    }

    /// Imposes an external busy window on every node of this cell —
    /// co-channel carrier sense: a same-channel neighbour's exchange
    /// defers this whole cell until it ends. One MAC call per window
    /// ([`DcfWorld::defer_all`]): it arms a single expiry timer for the
    /// whole cell, and none when every node is already deferred at
    /// least that long. Shrinking a window is impossible by design.
    pub fn defer_all(&mut self, now: SimTime, until: SimTime) {
        self.sim.now = now;
        self.sim.with_mac(|mac, fx| mac.defer_all(now, until, fx));
    }

    /// Cumulative goodput bytes delivered to/from `station` across all
    /// its flow incarnations in this cell. Drivers difference this at
    /// handoff boundaries for pre/post-handoff roaming throughput.
    pub fn station_goodput_bytes(&self, station: usize) -> u64 {
        self.sim
            .flows
            .iter()
            .filter(|f| f.station == station)
            .map(|f| f.meter.bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_labels_are_exhaustive_and_unique() {
        // One instance per `Event` variant. Adding a variant breaks the
        // exhaustive match in `event_label` at compile time; this test
        // catches the remaining drift mode — two variants silently
        // sharing a profiler label.
        let pkt = Packet {
            flow: FlowId(0),
            kind: PacketKind::UdpData { seq: 0 },
            bytes: 1500,
        };
        let variants = [
            Event::Mac(MacEvent::AccessResolved { generation: 0 }),
            Event::Mac(MacEvent::TxEnd),
            Event::Mac(MacEvent::DeferExpired {
                node: Some(NodeId(1)),
            }),
            Event::WiredToAp(pkt),
            Event::WiredToHost(pkt),
            Event::RtoFired {
                flow: 0,
                generation: 0,
                epoch: 0,
            },
            Event::DelAckFired {
                flow: 0,
                generation: 0,
                epoch: 0,
            },
            Event::SchedTick,
            Event::Pump { flow: 0 },
            Event::StartFlow { flow: 0 },
            Event::WarmupDone,
        ];
        let labels: Vec<&'static str> = variants.iter().map(event_label).collect();
        for (i, a) in labels.iter().enumerate() {
            assert!(!a.is_empty(), "empty label for variant {i}");
            for (j, b) in labels.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "variants {i} and {j} share the label {a:?}");
            }
        }
    }

    /// The steppable facade must follow the exact trajectory of the
    /// closed-loop engine when driven over the same span: same popped
    /// events, same RNG draws, bit-identical report. Multi-cell runs
    /// rest on this equivalence.
    #[test]
    fn cell_facade_reproduces_the_single_cell_engine() {
        use crate::scenarios;
        for fam in airtime_sched::FAMILIES {
            for direction in [Direction::Uplink, Direction::Downlink] {
                let sched = SchedulerKind::from_family(fam.name).expect("registry family");
                let mut cfg =
                    scenarios::tcp_stations(&[DataRate::B11, DataRate::B1], direction, sched);
                cfg.duration = SimDuration::from_secs(5);
                let direct = format!("{:?}", run(&cfg));
                let mut obs = NullObserver;
                let mut cell = CellSim::new(&cfg, &mut obs, &[true, true]);
                let end = SimTime::ZERO + cfg.duration;
                while cell.peek_time().is_some_and(|t| t <= end) {
                    cell.step();
                }
                let stepped = format!("{:?}", cell.finish(end));
                assert!(
                    direct == stepped,
                    "report diverged under {} {direction:?}",
                    fam.name
                );
            }
        }
    }
}
