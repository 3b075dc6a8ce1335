//! The traced run's timing observer and the label → layer map.
//!
//! [`TimedObserver`] wraps the observer a job already attaches and
//! forwards every hook to it. All wrappers of one traced run share one
//! [`Meter`] (one clock), so a topology's per-cell observers split a
//! single timeline. Each `on_dispatch` closes the previous step and
//! opens a new one under the dispatched event's label; each forwarded
//! hook is timed, and its time and allocations are taken out of the
//! step and charged to the observer layer instead.

use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::time::Instant;

use airtime_obs::prof::alloc_stats;
use airtime_obs::{AllocStats, EventRecord, Observer, TcpPhase};
use airtime_sim::SimTime;

/// The simulator layer a dispatched event's handler belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// DCF MAC (`airtime-mac`).
    Mac,
    /// Transport timers (`airtime-net`).
    Net,
    /// AP scheduler ticks (`airtime-sched`).
    Sched,
    /// Cell plumbing: wired links, pumps, flow starts (`airtime-wlan`).
    Wlan,
}

/// Pseudo-label for the time between a job's start and its first
/// dispatch: building the cell and scheduling the first events.
pub const RUN_SETUP: &str = "run.setup";

/// Every label a traced run may see, with its layer. A label missing
/// here makes [`Meter::layer_totals`] fail rather than guess.
pub const LABELS: &[(&str, Layer)] = &[
    ("mac.access_resolved", Layer::Mac),
    ("mac.tx_end", Layer::Mac),
    ("mac.defer_expired", Layer::Mac),
    ("tcp.rto", Layer::Net),
    ("tcp.delack", Layer::Net),
    ("sched.tick", Layer::Sched),
    ("wired_to_ap", Layer::Wlan),
    ("wired_to_host", Layer::Wlan),
    ("pump", Layer::Wlan),
    ("start_flow", Layer::Wlan),
    ("warmup_done", Layer::Wlan),
    (RUN_SETUP, Layer::Wlan),
];

/// The layer of `label`, or `None` when the map does not know it.
pub fn layer_of(label: &str) -> Option<Layer> {
    LABELS
        .iter()
        .find(|(l, _)| *l == label)
        .map(|&(_, layer)| layer)
}

/// What one label's (or layer's) steps cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cost {
    /// Events dispatched.
    pub dispatches: u64,
    /// Host nanoseconds in the steps, forwarded hooks excluded.
    pub busy_ns: u64,
    /// Allocations in the steps, forwarded hooks excluded.
    pub allocs: u64,
    /// Host nanoseconds of forwarded hooks that ran during the steps.
    pub hook_ns: u64,
}

/// Per-layer totals folded from the per-label costs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    pub mac: Cost,
    pub net: Cost,
    pub sched: Cost,
    pub wlan: Cost,
}

impl LayerTotals {
    fn slot(&mut self, layer: Layer) -> &mut Cost {
        match layer {
            Layer::Mac => &mut self.mac,
            Layer::Net => &mut self.net,
            Layer::Sched => &mut self.sched,
            Layer::Wlan => &mut self.wlan,
        }
    }
}

/// The shared clock and accumulators of one traced run.
#[derive(Debug)]
pub struct Meter {
    labels: Vec<(&'static str, Cost)>,
    current: usize,
    mark: Instant,
    alloc_mark: AllocStats,
    /// Forwarded hook calls (including `on_dispatch`).
    pub hook_calls: u64,
    /// Host nanoseconds inside forwarded hooks.
    pub hook_ns: u64,
    /// Allocations inside forwarded hooks.
    pub hook_allocs: u64,
    /// MAC transmission attempts seen (`on_tx_attempt`).
    pub tx_attempts: u64,
    /// TCP retransmission timeouts that fired for real.
    pub rto_timeouts: u64,
    /// AP scheduler decisions seen (`on_sched_decision`).
    pub sched_decisions: u64,
}

impl Default for Meter {
    fn default() -> Self {
        Meter {
            labels: vec![(RUN_SETUP, Cost::default())],
            current: 0,
            mark: Instant::now(),
            alloc_mark: alloc_stats(),
            hook_calls: 0,
            hook_ns: 0,
            hook_allocs: 0,
            tx_attempts: 0,
            rto_timeouts: 0,
            sched_decisions: 0,
        }
    }
}

impl Meter {
    /// A fresh meter behind the handle the wrappers share.
    pub fn shared() -> Rc<RefCell<Meter>> {
        Rc::new(RefCell::new(Meter::default()))
    }

    /// Charges the time and allocations since the mark to the current
    /// label.
    fn close(&mut self, now: Instant, allocs: AllocStats) {
        let cost = &mut self.labels[self.current].1;
        cost.busy_ns += now.duration_since(self.mark).as_nanos() as u64;
        cost.allocs += allocs.since(self.alloc_mark).allocs;
    }

    fn open(&mut self, label: &'static str) {
        self.current = match self.labels.iter().position(|(l, _)| *l == label) {
            Some(i) => i,
            None => {
                self.labels.push((label, Cost::default()));
                self.labels.len() - 1
            }
        };
    }

    fn resume(&mut self, t0: Instant, a0: AllocStats) {
        let (t1, a1) = (Instant::now(), alloc_stats());
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.hook_calls += 1;
        self.hook_ns += ns;
        self.hook_allocs += a1.since(a0).allocs;
        self.labels[self.current].1.hook_ns += ns;
        self.mark = t1;
        self.alloc_mark = a1;
    }

    /// Starts a job: time until its first dispatch is [`RUN_SETUP`].
    pub fn begin_job(&mut self) {
        self.open(RUN_SETUP);
        self.mark = Instant::now();
        self.alloc_mark = alloc_stats();
    }

    /// Ends a job, charging its tail to the last label dispatched.
    pub fn end_job(&mut self) {
        self.close(Instant::now(), alloc_stats());
    }

    /// Per-label costs, in first-seen order.
    pub fn labels(&self) -> &[(&'static str, Cost)] {
        &self.labels
    }

    /// Dispatches seen under `label`.
    pub fn dispatches(&self, label: &str) -> u64 {
        self.labels
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, c)| c.dispatches)
    }

    /// Total dispatches seen.
    pub fn total_dispatches(&self) -> u64 {
        self.labels.iter().map(|(_, c)| c.dispatches).sum()
    }

    /// Folds the label costs into layers. Where `step_ns` names a
    /// label, its busy time is that step time minus the hooks that ran
    /// in it: the topology engine times its own steps, which leaves out
    /// the engine work that falls between two dispatches.
    pub fn layer_totals(&self, step_ns: &[(&str, u64)]) -> Result<LayerTotals, String> {
        let mut out = LayerTotals::default();
        for &(label, cost) in &self.labels {
            let layer = layer_of(label)
                .ok_or_else(|| format!("label '{label}' has no layer in meter::LABELS"))?;
            let busy = step_ns
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(cost.busy_ns, |&(_, ns)| ns.saturating_sub(cost.hook_ns));
            let slot = out.slot(layer);
            slot.dispatches += cost.dispatches;
            slot.busy_ns += busy;
            slot.allocs += cost.allocs;
            slot.hook_ns += cost.hook_ns;
        }
        Ok(out)
    }
}

/// Forwards every hook to `inner`, timing it on the shared [`Meter`].
pub struct TimedObserver<O> {
    /// The observer the job attaches anyway.
    pub inner: O,
    meter: Rc<RefCell<Meter>>,
}

impl<O: Observer> TimedObserver<O> {
    /// Wraps `inner`, reporting to `meter`.
    pub fn new(inner: O, meter: Rc<RefCell<Meter>>) -> Self {
        TimedObserver { inner, meter }
    }

    fn hook(&mut self, f: impl FnOnce(&mut O)) {
        let (t0, a0) = (Instant::now(), alloc_stats());
        self.meter.borrow_mut().close(t0, a0);
        f(&mut self.inner);
        self.meter.borrow_mut().resume(t0, a0);
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn active(&self) -> bool {
        true
    }

    fn on_mac_event(&mut self, rec: EventRecord) {
        self.hook(|o| o.on_mac_event(rec));
    }

    fn on_tx_attempt(&mut self, rec: EventRecord) {
        self.meter.borrow_mut().tx_attempts += 1;
        self.hook(|o| o.on_tx_attempt(rec));
    }

    fn on_collision(&mut self, rec: EventRecord) {
        self.hook(|o| o.on_collision(rec));
    }

    fn on_backoff(&mut self, rec: EventRecord) {
        self.hook(|o| o.on_backoff(rec));
    }

    fn on_sched_decision(&mut self, rec: EventRecord) {
        self.meter.borrow_mut().sched_decisions += 1;
        self.hook(|o| o.on_sched_decision(rec));
    }

    fn on_token_update(&mut self, rec: EventRecord) {
        self.hook(|o| o.on_token_update(rec));
    }

    fn on_tcp_event(&mut self, rec: EventRecord) {
        if let EventRecord::Tcp {
            phase: TcpPhase::Rto,
            ..
        } = rec
        {
            self.meter.borrow_mut().rto_timeouts += 1;
        }
        self.hook(|o| o.on_tcp_event(rec));
    }

    fn on_queue_change(&mut self, rec: EventRecord) {
        self.hook(|o| o.on_queue_change(rec));
    }

    fn on_airtime_slice(&mut self, rec: EventRecord) {
        self.hook(|o| o.on_airtime_slice(rec));
    }

    fn on_frame_span(&mut self, rec: EventRecord) {
        self.hook(|o| o.on_frame_span(rec));
    }

    fn on_run_mark(&mut self, rec: EventRecord) {
        self.hook(|o| o.on_run_mark(rec));
    }

    fn on_dispatch(&mut self, t: SimTime, seq: u64, label: &'static str) {
        let (t0, a0) = (Instant::now(), alloc_stats());
        {
            let mut m = self.meter.borrow_mut();
            m.close(t0, a0);
            m.open(label);
            let i = m.current;
            m.labels[i].1.dispatches += 1;
        }
        self.inner.on_dispatch(t, seq, label);
        self.meter.borrow_mut().resume(t0, a0);
    }

    fn on_handoff(&mut self, t: SimTime, station: u64, from: Option<u64>, to: Option<u64>) {
        self.hook(|o| o.on_handoff(t, station, from, to));
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        for (i, (a, _)) in LABELS.iter().enumerate() {
            assert!(
                LABELS[i + 1..].iter().all(|(b, _)| a != b),
                "label '{a}' listed twice"
            );
        }
    }

    #[test]
    fn an_unmapped_label_fails_loudly() {
        let meter = Meter::shared();
        let mut obs = TimedObserver::new(airtime_obs::NullObserver, meter.clone());
        meter.borrow_mut().begin_job();
        obs.on_dispatch(SimTime::ZERO, 0, "mac.tx_end");
        obs.on_dispatch(SimTime::ZERO, 1, "no.such_label");
        meter.borrow_mut().end_job();
        let err = meter.borrow().layer_totals(&[]).unwrap_err();
        assert!(err.contains("no.such_label"), "{err}");
    }

    #[test]
    fn hooks_are_taken_out_of_the_step() {
        let meter = Meter::shared();
        let mut obs = TimedObserver::new(airtime_obs::NullObserver, meter.clone());
        meter.borrow_mut().begin_job();
        obs.on_dispatch(SimTime::ZERO, 0, "tcp.rto");
        obs.on_tcp_event(EventRecord::Tcp {
            t: SimTime::ZERO,
            flow: 0,
            phase: TcpPhase::Rto,
            cwnd: 1.0,
            flight: 0,
        });
        meter.borrow_mut().end_job();
        let m = meter.borrow();
        assert_eq!(m.hook_calls, 2);
        assert_eq!(m.rto_timeouts, 1);
        assert_eq!(m.dispatches("tcp.rto"), 1);
        let t = m.layer_totals(&[]).unwrap();
        assert_eq!(t.net.dispatches, 1);
        assert_eq!(t.net.hook_ns, m.hook_ns);
        // An engine-timed step loses the hooks that ran inside it.
        let timed = m.layer_totals(&[("tcp.rto", m.hook_ns + 5)]).unwrap();
        assert_eq!(timed.net.busy_ns, 5);
    }
}
