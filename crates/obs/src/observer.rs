//! The [`Observer`] trait and its stock implementations.
//!
//! The simulator is generic over `O: Observer`, so with
//! [`NullObserver`] every hook monomorphises to an empty inline body
//! guarded by `active() == false` — the instrumented and plain builds
//! run the same machine code on the hot path. [`JsonlObserver`] streams
//! records to a buffered file; [`MemoryObserver`] collects them in a
//! `Vec` for tests and in-process analysis.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use airtime_sim::SimTime;

use crate::event::EventRecord;

/// Receives structured events from the simulator.
///
/// All hooks have empty default bodies, so an implementation only
/// overrides what it cares about. Emission sites must check
/// [`Observer::active`] before doing *any* work to build a record —
/// that keeps record construction entirely off the uninstrumented hot
/// path:
///
/// ```ignore
/// if obs.active() {
///     obs.on_collision(EventRecord::Collision { .. });
/// }
/// ```
pub trait Observer {
    /// Whether this observer wants events at all. Emission sites gate
    /// record construction on this; `NullObserver` returns `false` and
    /// the whole branch folds away under monomorphisation.
    fn active(&self) -> bool {
        true
    }

    /// Whether this observer reads the fine-grained records: backoff
    /// draws ([`on_backoff`](Observer::on_backoff)), airtime slices
    /// ([`on_airtime_slice`](Observer::on_airtime_slice)) and token
    /// updates ([`on_token_update`](Observer::on_token_update)). When
    /// it returns `false` the simulator neither builds those records
    /// nor asks the MAC and scheduler for what they hold. Defaults to
    /// [`active`](Observer::active); an observer that ignores all three
    /// hooks returns `false`.
    fn wants_detail(&self) -> bool {
        self.active()
    }

    /// A coarse MAC lifecycle marker ([`EventRecord::Mac`]).
    fn on_mac_event(&mut self, _rec: EventRecord) {}

    /// A transmission attempt resolved ([`EventRecord::TxAttempt`]).
    fn on_tx_attempt(&mut self, _rec: EventRecord) {}

    /// A slot-level collision ([`EventRecord::Collision`]).
    fn on_collision(&mut self, _rec: EventRecord) {}

    /// A station drew a backoff counter ([`EventRecord::Backoff`]).
    fn on_backoff(&mut self, _rec: EventRecord) {}

    /// The AP scheduler dequeued a packet
    /// ([`EventRecord::SchedDecision`]).
    fn on_sched_decision(&mut self, _rec: EventRecord) {}

    /// A TBR token balance changed ([`EventRecord::TokenUpdate`]).
    fn on_token_update(&mut self, _rec: EventRecord) {}

    /// A TCP flow progressed ([`EventRecord::Tcp`]).
    fn on_tcp_event(&mut self, _rec: EventRecord) {}

    /// A queue changed length ([`EventRecord::QueueChange`]).
    fn on_queue_change(&mut self, _rec: EventRecord) {}

    /// One exclusive medium-timeline slice
    /// ([`EventRecord::AirtimeSlice`]).
    fn on_airtime_slice(&mut self, _rec: EventRecord) {}

    /// A frame finished its MAC lifecycle
    /// ([`EventRecord::FrameSpan`]).
    fn on_frame_span(&mut self, _rec: EventRecord) {}

    /// A run boundary passed ([`EventRecord::RunMark`]).
    fn on_run_mark(&mut self, _rec: EventRecord) {}

    /// The event loop dispatched the event stamped `(t, seq)` whose
    /// handler is named `label`. This is the flight recorder's spine:
    /// the `(time, seq)` pair is the queue's total order, so a stream
    /// of these uniquely identifies an execution. Deliberately *not* an
    /// [`EventRecord`] — no allocation, no wire format, just three
    /// words — so the emission site stays cheap even when a recorder
    /// is attached.
    fn on_dispatch(&mut self, _t: SimTime, _seq: u64, _label: &'static str) {}

    /// A station changed cell association: `from`/`to` are cell ids
    /// (`None` = unassociated). Emitted by the topology engine on
    /// every handoff or drop so per-cell fingerprints capture roaming
    /// causality.
    fn on_handoff(&mut self, _t: SimTime, _station: u64, _from: Option<u64>, _to: Option<u64>) {}

    /// Flushes any buffered output. Called once when the run ends.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The do-nothing observer: `active()` is `false` and every hook is an
/// inlined no-op, so instrumentation costs nothing when unused.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline(always)]
    fn active(&self) -> bool {
        false
    }
}

/// Streams every record to a JSONL file through a large buffered
/// writer.
#[derive(Debug)]
pub struct JsonlObserver<W: Write> {
    out: W,
    records: u64,
    error: Option<io::Error>,
}

impl JsonlObserver<BufWriter<File>> {
    /// Creates (truncating) `path` and returns an observer writing to
    /// it through a 256 KiB buffer.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(BufWriter::with_capacity(256 * 1024, file)))
    }
}

impl<W: Write> JsonlObserver<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlObserver {
            out,
            records: 0,
            error: None,
        }
    }

    /// How many records have been written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn write(&mut self, rec: EventRecord) {
        if self.error.is_some() {
            return;
        }
        let mut line = rec.to_json_line();
        line.push('\n');
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            // Remember the first error; finish() reports it. Dropping
            // subsequent records beats aborting a long simulation.
            self.error = Some(e);
            return;
        }
        self.records += 1;
    }

    /// Consumes the observer and returns the inner writer (flushed).
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        Ok(self.out)
    }
}

impl<W: Write> Observer for JsonlObserver<W> {
    fn on_mac_event(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn on_tx_attempt(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn on_collision(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn on_backoff(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn on_sched_decision(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn on_token_update(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn on_tcp_event(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn on_queue_change(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn on_airtime_slice(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn on_frame_span(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn on_run_mark(&mut self, rec: EventRecord) {
        self.write(rec);
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()?;
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Collects every record in memory, preserving emission order.
#[derive(Debug, Default)]
pub struct MemoryObserver {
    /// The records, in emission order.
    pub events: Vec<EventRecord>,
}

impl MemoryObserver {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for MemoryObserver {
    fn on_mac_event(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }

    fn on_tx_attempt(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }

    fn on_collision(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }

    fn on_backoff(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }

    fn on_sched_decision(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }

    fn on_token_update(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }

    fn on_tcp_event(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }

    fn on_queue_change(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }

    fn on_airtime_slice(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }

    fn on_frame_span(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }

    fn on_run_mark(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }
}

/// Fans every event out to two observers (for `run --events --ledger`,
/// where the trace file and the in-process ledger both want the
/// stream). Active when either side is.
#[derive(Debug, Default)]
pub struct TeeObserver<A, B> {
    /// First receiver.
    pub a: A,
    /// Second receiver.
    pub b: B,
}

impl<A: Observer, B: Observer> TeeObserver<A, B> {
    /// Pairs two observers.
    pub fn new(a: A, b: B) -> Self {
        TeeObserver { a, b }
    }
}

macro_rules! tee_forward {
    ($($hook:ident),*) => {
        $(fn $hook(&mut self, rec: EventRecord) {
            self.a.$hook(rec.clone());
            self.b.$hook(rec);
        })*
    };
}

impl<A: Observer, B: Observer> Observer for TeeObserver<A, B> {
    fn active(&self) -> bool {
        self.a.active() || self.b.active()
    }

    fn wants_detail(&self) -> bool {
        self.a.wants_detail() || self.b.wants_detail()
    }

    tee_forward!(
        on_mac_event,
        on_tx_attempt,
        on_collision,
        on_backoff,
        on_sched_decision,
        on_token_update,
        on_tcp_event,
        on_queue_change,
        on_airtime_slice,
        on_frame_span,
        on_run_mark
    );

    fn on_dispatch(&mut self, t: SimTime, seq: u64, label: &'static str) {
        self.a.on_dispatch(t, seq, label);
        self.b.on_dispatch(t, seq, label);
    }

    fn on_handoff(&mut self, t: SimTime, station: u64, from: Option<u64>, to: Option<u64>) {
        self.a.on_handoff(t, station, from, to);
        self.b.on_handoff(t, station, from, to);
    }

    fn finish(&mut self) -> io::Result<()> {
        let ra = self.a.finish();
        let rb = self.b.finish();
        ra.and(rb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{parse_line, MacPhase};
    use airtime_sim::SimTime;

    fn sample(i: u64) -> EventRecord {
        EventRecord::Mac {
            t: SimTime::from_micros(i),
            phase: MacPhase::TxStart,
            node: i,
        }
    }

    #[test]
    fn null_observer_is_inactive() {
        let mut o = NullObserver;
        assert!(!o.active());
        o.on_collision(sample(1));
        assert!(o.finish().is_ok());
    }

    #[test]
    fn jsonl_observer_streams_lines() {
        let mut o = JsonlObserver::new(Vec::new());
        assert!(o.active());
        o.on_mac_event(sample(1));
        o.on_tx_attempt(sample(2));
        assert_eq!(o.records(), 2);
        let buf = o.into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(parse_line(lines[0]).unwrap(), sample(1));
        assert_eq!(parse_line(lines[1]).unwrap(), sample(2));
    }

    #[test]
    fn memory_observer_preserves_order() {
        let mut o = MemoryObserver::new();
        for i in 0..5 {
            o.on_backoff(sample(i));
        }
        assert_eq!(o.events.len(), 5);
        assert_eq!(o.events[3], sample(3));
    }

    #[test]
    fn tee_observer_feeds_both_sides() {
        let mut o = TeeObserver::new(MemoryObserver::new(), MemoryObserver::new());
        assert!(o.active());
        o.on_mac_event(sample(1));
        o.on_airtime_slice(sample(2));
        assert_eq!(o.a.events, o.b.events);
        assert_eq!(o.a.events.len(), 2);
        assert!(o.finish().is_ok());
        let inactive = TeeObserver::new(NullObserver, NullObserver);
        assert!(!inactive.active());
    }

    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_surface_in_finish() {
        let mut o = JsonlObserver::new(FailingWriter);
        o.on_mac_event(sample(1));
        o.on_mac_event(sample(2));
        assert_eq!(o.records(), 0);
        assert!(o.finish().is_err());
        // The error is reported once, then cleared.
        assert!(o.finish().is_ok());
    }
}
