//! Per-frame lifecycle span rollups: where did a frame's latency go?
//!
//! Each [`EventRecord::FrameSpan`] carries the timestamps of one
//! frame's life (enqueue → scheduler release → first attempt →
//! completion) plus its total channel occupancy. [`SpanCollector`]
//! decomposes that into three delays and reports per-station
//! percentiles:
//!
//! - **queueing** = release − enqueue: time spent waiting in the send
//!   queue behind other frames (the AP scheduler's domain);
//! - **contention** = completion − release − airtime: time the MAC
//!   spent backing off and retrying beyond the air transmissions
//!   themselves;
//! - **head-of-line** = first_tx − release: how long the frame's first
//!   channel access took, the delay it imposed on everything queued
//!   behind it.
//!
//! This is the mechanism behind the paper's §4.4 delay results: a slow
//! station under packet fairness inflates everyone's head-of-line
//! delay, while time-based fairness bounds it.
//!
//! [`SpanCollector`] implements [`Observer`] so it can watch a live
//! run, and rebuilds from a trace file for `inspect --spans` (feed it
//! through [`crate::inspect::scan_file`]). Like the ledger, it resets
//! at the warm-up [`EventRecord::RunMark`].
//!
//! The collector is built to be reused: [`SpanCollector::reset`] (and
//! the warm-up mark) clears the samples but keeps their buffers, and
//! [`SpanCollector::summary_in`] groups each delay column by station
//! in one caller-owned scratch buffer and selects the three
//! nearest-rank elements there, instead of cloning and sorting every
//! sample vector. Queueing and head-of-line delays are kept as integer
//! nanoseconds — the ns → ms conversion is monotone, so the selected
//! element converts to exactly the value a sort of the converted
//! samples would pick.

use std::fmt;

use airtime_sim::{SimDuration, SimTime, StationSlots};

use crate::csv::Csv;
use crate::event::{EventRecord, RunPhase};
use crate::observer::Observer;

/// The percentiles every delay column reports.
pub const PERCENTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// The 1-based nearest rank of quantile `q` in `n > 0` samples.
fn nearest_rank(q: f64, n: usize) -> usize {
    let q = q.clamp(0.0, 1.0);
    ((q * n as f64).ceil() as usize).max(1)
}

/// Exact nearest-rank percentile of a sorted sample; `None` when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(q, sorted.len()) - 1])
}

/// The [`PERCENTILES`] of `xs` by nearest rank, selected in place
/// (`xs` ends up partially ordered); `None` when empty.
fn select_percentiles(xs: &mut [u64]) -> Option<[u64; 3]> {
    if xs.is_empty() {
        return None;
    }
    let mut out = [0; 3];
    // Everything below `lo` is already at its sorted position or
    // below; the ranks ascend, so each selection narrows the slice.
    let mut lo = 0;
    for (o, &q) in out.iter_mut().zip(PERCENTILES.iter()) {
        let k = nearest_rank(q, xs.len()) - 1;
        if k >= lo {
            xs[lo..].select_nth_unstable(k - lo);
            lo = k + 1;
        }
        *o = xs[k];
    }
    Some(out)
}

/// An unsigned key whose order is [`f64::total_cmp`]'s order, so f64
/// samples share the integer selection path. Invertible.
fn f64_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`f64_key`].
fn f64_from_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Integer nanoseconds as milliseconds, by the same expression a
/// duration's `as_secs_f64() * 1e3` uses.
fn ns_to_ms(ns: u64) -> f64 {
    SimDuration::from_nanos(ns).as_secs_f64() * 1e3
}

/// One station's counters since the last reset.
#[derive(Clone, Copy, Debug, Default)]
struct StationAcc {
    frames: u64,
    delivered: u64,
    attempts: u64,
}

/// Converts each [`Samples`] column back to milliseconds.
const TO_MS: [fn(u64) -> f64; 3] = [ns_to_ms, f64_from_key, ns_to_ms];

/// Every span's delays since the last reset, in arrival order, one
/// column per delay. One shared set of columns (rather than one per
/// station) keeps a reused collector's memory at the largest run's
/// span count, not the sum of each station's largest.
#[derive(Clone, Debug, Default)]
struct Samples {
    /// The slot of the station each span belongs to.
    slot: Vec<u32>,
    /// Queueing (ns), contention (ms as [`f64_key`]s: unlike the other
    /// two it is a difference of two f64 conversions, not a function
    /// of one integer) and head-of-line (ns) delays.
    delays: [Vec<u64>; 3],
}

/// One station's delay breakdown, percentiles in milliseconds.
#[derive(Clone, Debug)]
pub struct StationDelays {
    /// Client id.
    pub station: u64,
    /// Frames that completed (delivered or dropped).
    pub frames: u64,
    /// Frames that were ACKed.
    pub delivered: u64,
    /// Mean transmission attempts per frame.
    pub mean_attempts: f64,
    /// Queueing delay `[p50, p95, p99]`, ms.
    pub queueing_ms: [f64; 3],
    /// Contention delay `[p50, p95, p99]`, ms.
    pub contention_ms: [f64; 3],
    /// Head-of-line delay `[p50, p95, p99]`, ms.
    pub hol_ms: [f64; 3],
}

/// Collects frame spans and rolls them up per station.
#[derive(Clone, Debug, Default)]
pub struct SpanCollector {
    slots: StationSlots,
    /// Counters per slot.
    accs: Vec<StationAcc>,
    samples: Samples,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every span, keeping the sample buffers for the next run.
    pub fn reset(&mut self) {
        self.accs.fill(StationAcc::default());
        self.samples.slot.clear();
        self.samples.delays.iter_mut().for_each(Vec::clear);
    }

    /// Feeds one record; everything but `frame_span` and the warm-up
    /// `run_mark` is ignored.
    pub fn record(&mut self, rec: &EventRecord) {
        match *rec {
            EventRecord::FrameSpan {
                t,
                station,
                enqueue,
                release,
                first_tx,
                attempts,
                airtime,
                delivered,
                ..
            } => self.on_span(
                t, station, enqueue, release, first_tx, attempts, airtime, delivered,
            ),
            EventRecord::RunMark {
                phase: RunPhase::Warmup,
                ..
            } => self.reset(),
            _ => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_span(
        &mut self,
        t: SimTime,
        station: u64,
        enqueue: SimTime,
        release: SimTime,
        first_tx: SimTime,
        attempts: u64,
        airtime: SimDuration,
        delivered: bool,
    ) {
        let (slot, new) = self.slots.slot(station);
        if new {
            self.accs.push(StationAcc::default());
        }
        let acc = &mut self.accs[slot];
        acc.frames += 1;
        if delivered {
            acc.delivered += 1;
        }
        acc.attempts += attempts;
        let contention = t.saturating_since(release).as_secs_f64() - airtime.as_secs_f64();
        let [queueing, contention_keys, hol] = &mut self.samples.delays;
        self.samples.slot.push(slot as u32);
        queueing.push(release.saturating_since(enqueue).as_nanos());
        contention_keys.push(f64_key(contention.max(0.0) * 1e3));
        hol.push(first_tx.saturating_since(release).as_nanos());
    }

    /// Spans accumulated since the last warm-up mark.
    pub fn total(&self) -> u64 {
        self.samples.slot.len() as u64
    }

    /// Per-station rollups, in station id order: every station with a
    /// span since the last reset.
    pub fn summary(&self) -> Vec<StationDelays> {
        self.summary_in(&mut Vec::new())
    }

    /// [`SpanCollector::summary`], working in `scratch` (its contents
    /// are overwritten; it grows to [`SpanCollector::total`] entries), so
    /// a caller summarising many runs reuses one buffer.
    pub fn summary_in(&self, scratch: &mut Vec<u64>) -> Vec<StationDelays> {
        let mut live: Vec<(u64, usize)> = self
            .slots
            .ids()
            .iter()
            .enumerate()
            .filter(|&(slot, _)| self.accs[slot].frames > 0)
            .map(|(slot, &station)| (station, slot))
            .collect();
        live.sort_unstable();
        // Each live station's segment of the scratch buffer, in the
        // summary's station order.
        let mut start = vec![0; self.accs.len()];
        let mut end = 0;
        for &(_, slot) in &live {
            start[slot] = end;
            end += self.accs[slot].frames as usize;
        }
        let mut delays = vec![[[0.0; 3]; 3]; live.len()];
        scratch.resize(end, 0);
        for (m, (column, to_ms)) in self.samples.delays.iter().zip(TO_MS).enumerate() {
            // Group the column by station (a counting sort on slot),
            // then select within each station's segment.
            let mut next = start.clone();
            for (&slot, &x) in self.samples.slot.iter().zip(column) {
                let i = &mut next[slot as usize];
                scratch[*i] = x;
                *i += 1;
            }
            for (d, &(_, slot)) in delays.iter_mut().zip(&live) {
                let segment = &mut scratch[start[slot]..next[slot]];
                d[m] = select_percentiles(segment).map_or([0.0; 3], |ks| ks.map(to_ms));
            }
        }
        live.iter()
            .zip(delays)
            .map(|(&(station, slot), [queueing_ms, contention_ms, hol_ms])| {
                let a = self.accs[slot];
                StationDelays {
                    station,
                    frames: a.frames,
                    delivered: a.delivered,
                    mean_attempts: a.attempts as f64 / a.frames as f64,
                    queueing_ms,
                    contention_ms,
                    hol_ms,
                }
            })
            .collect()
    }

    /// The rollup as a CSV document (schema `airtime-spans` v1).
    pub fn to_csv(&self) -> String {
        let mut csv = Csv::new(
            "airtime-spans",
            1,
            &[
                "station",
                "frames",
                "delivered",
                "mean_attempts",
                "queueing_p50_ms",
                "queueing_p95_ms",
                "queueing_p99_ms",
                "contention_p50_ms",
                "contention_p95_ms",
                "contention_p99_ms",
                "hol_p50_ms",
                "hol_p95_ms",
                "hol_p99_ms",
            ],
        );
        for d in self.summary() {
            let mut row = vec![
                d.station.to_string(),
                d.frames.to_string(),
                d.delivered.to_string(),
                crate::json::num(d.mean_attempts),
            ];
            for group in [&d.queueing_ms, &d.contention_ms, &d.hol_ms] {
                row.extend(group.iter().map(|&v| crate::json::num(v)));
            }
            csv.row(&row);
        }
        csv.finish()
    }
}

impl Observer for SpanCollector {
    fn wants_detail(&self) -> bool {
        false
    }

    fn on_frame_span(&mut self, rec: EventRecord) {
        self.record(&rec);
    }

    fn on_run_mark(&mut self, rec: EventRecord) {
        self.record(&rec);
    }
}

impl fmt::Display for SpanCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let summary = self.summary();
        writeln!(f, "frame spans: {}", self.total())?;
        if summary.is_empty() {
            return Ok(());
        }
        writeln!(
            f,
            "  {:>7}  {:>7}  {:>5}  {:>21}  {:>21}  {:>21}",
            "station",
            "frames",
            "att",
            "queueing p50/95/99 ms",
            "contention p50/95/99",
            "head-of-line p50/95/99"
        )?;
        for d in summary {
            writeln!(
                f,
                "  {:>7}  {:>7}  {:>5.2}  {:>6.2} {:>6.2} {:>6.2}  {:>6.2} {:>6.2} {:>6.2}  {:>6.2} {:>6.2} {:>6.2}",
                d.station,
                d.frames,
                d.mean_attempts,
                d.queueing_ms[0],
                d.queueing_ms[1],
                d.queueing_ms[2],
                d.contention_ms[0],
                d.contention_ms[1],
                d.contention_ms[2],
                d.hol_ms[0],
                d.hol_ms[1],
                d.hol_ms[2],
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airtime_sim::SimDuration;

    fn span(station: u64, enqueue_us: u64, release_us: u64, done_us: u64) -> EventRecord {
        EventRecord::FrameSpan {
            t: SimTime::from_micros(done_us),
            station,
            bytes: 1500,
            enqueue: SimTime::from_micros(enqueue_us),
            release: SimTime::from_micros(release_us),
            first_tx: SimTime::from_micros(release_us + 500),
            attempts: 2,
            airtime: SimDuration::from_micros(1000),
            delivered: true,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), Some(2.0));
        assert_eq!(percentile(&xs, 0.95), Some(4.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn delays_decompose() {
        let mut c = SpanCollector::new();
        // queueing 2 ms, contention 8 − 1 (airtime) = 7 ms, hol 0.5 ms.
        c.record(&span(1, 1000, 3000, 11_000));
        let s = c.summary();
        assert_eq!(s.len(), 1);
        let d = &s[0];
        assert_eq!(d.frames, 1);
        assert_eq!(d.delivered, 1);
        assert!((d.mean_attempts - 2.0).abs() < 1e-12);
        assert!((d.queueing_ms[0] - 2.0).abs() < 1e-9);
        assert!((d.contention_ms[0] - 7.0).abs() < 1e-9);
        assert!((d.hol_ms[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn warmup_mark_resets() {
        let mut c = SpanCollector::new();
        c.record(&span(1, 0, 0, 2000));
        c.record(&EventRecord::RunMark {
            t: SimTime::from_micros(5000),
            phase: RunPhase::Warmup,
        });
        c.record(&span(2, 6000, 6000, 8000));
        assert_eq!(c.total(), 1);
        assert_eq!(c.summary()[0].station, 2);
    }

    #[test]
    fn csv_has_schema_and_one_row_per_station() {
        let mut c = SpanCollector::new();
        c.record(&span(2, 0, 1000, 5000));
        c.record(&span(1, 0, 2000, 9000));
        let csv = c.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# schema: airtime-spans v1; columns: 13");
        assert!(lines[1].starts_with("station,frames,delivered,mean_attempts,queueing_p50_ms"));
        assert!(lines[2].starts_with("1,1,1,2,"));
        assert!(lines[3].starts_with("2,1,1,2,"));
    }

    #[test]
    fn display_renders() {
        let mut c = SpanCollector::new();
        c.record(&span(1, 0, 1000, 5000));
        let text = c.to_string();
        assert!(text.contains("frame spans: 1"));
        assert!(text.contains("queueing"));
    }

    /// The collector as it was before sample buffers were reused and
    /// quantiles selected in place: f64 ms samples, cleared at the
    /// warm-up mark, cloned and fully sorted by `summary`.
    #[derive(Default)]
    struct Reference {
        accs: Vec<RefAcc>,
    }

    #[derive(Clone)]
    struct RefAcc {
        station: u64,
        frames: u64,
        delivered: u64,
        attempts: u64,
        /// Queueing, contention, head-of-line samples, ms.
        ms: [Vec<f64>; 3],
    }

    impl Reference {
        fn record(&mut self, rec: &EventRecord) {
            match *rec {
                EventRecord::FrameSpan {
                    t,
                    station,
                    enqueue,
                    release,
                    first_tx,
                    attempts,
                    airtime,
                    delivered,
                    ..
                } => {
                    let i = match self.accs.iter().position(|a| a.station == station) {
                        Some(i) => i,
                        None => {
                            self.accs.push(RefAcc {
                                station,
                                frames: 0,
                                delivered: 0,
                                attempts: 0,
                                ms: Default::default(),
                            });
                            self.accs.len() - 1
                        }
                    };
                    let a = &mut self.accs[i];
                    a.frames += 1;
                    a.delivered += delivered as u64;
                    a.attempts += attempts;
                    let ms = 1e3;
                    a.ms[0].push(release.saturating_since(enqueue).as_secs_f64() * ms);
                    let c = t.saturating_since(release).as_secs_f64() - airtime.as_secs_f64();
                    a.ms[1].push(c.max(0.0) * ms);
                    a.ms[2].push(first_tx.saturating_since(release).as_secs_f64() * ms);
                }
                EventRecord::RunMark {
                    phase: RunPhase::Warmup,
                    ..
                } => self.accs.clear(),
                _ => {}
            }
        }

        fn summary(&self) -> Vec<StationDelays> {
            let mut accs = self.accs.clone();
            accs.sort_by_key(|a| a.station);
            accs.into_iter()
                .map(|mut a| {
                    let mut triple = |i: usize| {
                        a.ms[i].sort_by(f64::total_cmp);
                        PERCENTILES.map(|q| percentile(&a.ms[i], q).unwrap_or(0.0))
                    };
                    StationDelays {
                        station: a.station,
                        frames: a.frames,
                        delivered: a.delivered,
                        mean_attempts: a.attempts as f64 / a.frames as f64,
                        queueing_ms: triple(0),
                        contention_ms: triple(1),
                        hol_ms: triple(2),
                    }
                })
                .collect()
        }
    }

    /// Bit-exact rendering of a summary, for comparisons.
    fn bits(s: &[StationDelays]) -> Vec<Vec<u64>> {
        s.iter()
            .map(|d| {
                let mut row = vec![d.station, d.frames, d.delivered, d.mean_attempts.to_bits()];
                for g in [d.queueing_ms, d.contention_ms, d.hol_ms] {
                    row.extend(g.map(f64::to_bits));
                }
                row
            })
            .collect()
    }

    /// A random span stream: few distinct delays (many ties), airtime
    /// often longer than completion − release (contention clamped to
    /// 0), a huge station id beside small ones, warm-up marks mid-way.
    fn stream(rng: &mut airtime_sim::SimRng) -> Vec<EventRecord> {
        let n = rng.below(400) as usize;
        let stations = [1, 2, 3, 9, u64::MAX - 1];
        let mut t_us = 0;
        (0..n)
            .map(|_| {
                t_us += rng.below(3);
                if rng.chance(0.01) {
                    return EventRecord::RunMark {
                        t: SimTime::from_micros(t_us),
                        phase: RunPhase::Warmup,
                    };
                }
                let grid = |rng: &mut airtime_sim::SimRng| {
                    if rng.chance(0.5) {
                        rng.below(4) * 250
                    } else {
                        rng.below(20_000)
                    }
                };
                let enqueue = SimTime::from_nanos(t_us * 1000);
                let release = enqueue + SimDuration::from_nanos(grid(rng) * 1000 + rng.below(3));
                let first_tx = release + SimDuration::from_nanos(grid(rng) * 100);
                let done = first_tx + SimDuration::from_nanos(grid(rng) * 100);
                EventRecord::FrameSpan {
                    t: done,
                    station: stations[rng.below(stations.len() as u64) as usize],
                    bytes: 1500,
                    enqueue,
                    release,
                    first_tx,
                    attempts: 1 + rng.below(4),
                    airtime: SimDuration::from_nanos(grid(rng) * 150),
                    delivered: rng.chance(0.9),
                }
            })
            .collect()
    }

    #[test]
    fn selected_quantiles_equal_the_clone_and_sort_reference_bit_for_bit() {
        let mut rng = airtime_sim::SimRng::new(7);
        let mut reused = SpanCollector::new();
        let mut scratch = Vec::new();
        for _ in 0..200 {
            let events = stream(&mut rng);
            let mut fresh = SpanCollector::new();
            let mut reference = Reference::default();
            for e in &events {
                fresh.record(e);
                reference.record(e);
            }
            let want = bits(&reference.summary());
            assert_eq!(bits(&fresh.summary()), want);
            // A collector reused across streams, reset in between and
            // summarised in a scratch buffer that earlier streams left
            // dirty, reports exactly what a fresh one does.
            reused.reset();
            for e in &events {
                reused.record(e);
            }
            assert_eq!(bits(&reused.summary_in(&mut scratch)), want);
            assert_eq!(bits(&reused.summary_in(&mut scratch)), want);
            assert_eq!(reused.total(), fresh.total());
        }
    }

    #[test]
    fn f64_keys_order_like_total_cmp_and_invert() {
        let xs = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            7.25,
            f64::INFINITY,
        ];
        for a in xs {
            assert_eq!(f64_from_key(f64_key(a)).to_bits(), a.to_bits());
            for b in xs {
                assert_eq!(f64_key(a).cmp(&f64_key(b)), a.total_cmp(&b));
            }
        }
    }
}
