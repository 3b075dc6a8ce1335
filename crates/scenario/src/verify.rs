//! The `verify-determinism` driver: runs a scenario's base
//! configuration under every `{queue backend} × {tick mode}` combo
//! with a flight recorder attached, compares the fingerprint
//! checkpoint streams, and — on a mismatch — bisects to the first
//! divergent checkpoint, re-runs both sides recording only that
//! window, and pins the exact first divergent `(time, seq, label)`.
//!
//! For scenarios with a `[sweep]` section it additionally executes the
//! whole matrix at 1 thread and at N threads and compares the per-cell
//! fingerprint columns, so a thread-count divergence names the exact
//! matrix cell instead of "the documents differ".
//!
//! The synthetic-divergence hook ([`VerifyOptions::inject`]) perturbs
//! one recorded event in one named combo, deterministically
//! manufacturing the failure mode the machinery exists to catch —
//! that's both the integration test and the worked example in the
//! docs.

use std::fmt::Write as _;

use airtime_obs::{
    first_divergent_checkpoint, first_divergent_event, fp_hex, Checkpoint, FlightRecorder,
    RecordedEvent, DEFAULT_CHECKPOINT_INTERVAL,
};
use airtime_sim::QueueBackend;
use airtime_topo::TopologyConfig;
use airtime_wlan::NetworkConfig;

use crate::spec::ScenarioSpec;
use crate::{combine_fps, run_sweep, toml::Doc, ScenarioError};

/// Every `(backend, tick-mode)` combination the config can express,
/// heap/dense first (the reference implementation).
pub const COMBOS: [(&str, QueueBackend, bool); 4] = [
    ("heap/dense", QueueBackend::Heap, false),
    ("heap/coalesced", QueueBackend::Heap, true),
    ("wheel/dense", QueueBackend::Wheel, false),
    ("wheel/coalesced", QueueBackend::Wheel, true),
];

/// Knobs for [`verify_determinism`].
#[derive(Clone, Debug)]
pub struct VerifyOptions {
    /// Events per fingerprint checkpoint.
    pub interval: u64,
    /// Thread count for the sweep-matrix comparison (vs 1).
    pub threads: usize,
    /// Test hook: `(combo name, stream index)` — perturb that event in
    /// that combo's recording, manufacturing a synthetic divergence.
    pub inject: Option<(String, u64)>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            interval: DEFAULT_CHECKPOINT_INTERVAL,
            threads: 4,
            inject: None,
        }
    }
}

/// One localized determinism break.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The combo that disagreed with the reference.
    pub combo: String,
    /// The reference combo it was compared against.
    pub reference: String,
    /// Radio-cell lane the divergence was found in (topology runs).
    pub cell: Option<u64>,
    /// Ordinal of the first divergent checkpoint.
    pub checkpoint: usize,
    /// Stream-index window `[a, b)` the checkpoint covers.
    pub window: (u64, u64),
    /// The reference combo's event at the first differing position
    /// (`None` = its stream ended first).
    pub expected: Option<RecordedEvent>,
    /// The divergent combo's event at that position.
    pub actual: Option<RecordedEvent>,
}

impl Divergence {
    /// The structured event-level diff `verify-determinism` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "determinism divergence: {} vs {}{}",
            self.combo,
            self.reference,
            match self.cell {
                Some(c) => format!(" (cell {c} lane)"),
                None => String::new(),
            }
        );
        let _ = writeln!(
            out,
            "  first divergent checkpoint: #{} (events {}..{})",
            self.checkpoint, self.window.0, self.window.1
        );
        match (&self.expected, &self.actual) {
            (Some(e), Some(a)) => {
                let _ = writeln!(out, "  first divergent event:");
                let _ = writeln!(out, "    {:<16} {}", self.reference, e.render());
                let _ = writeln!(out, "    {:<16} {}", self.combo, a.render());
            }
            (Some(e), None) => {
                let _ = writeln!(
                    out,
                    "  {} stream ended before the reference's event:",
                    self.combo
                );
                let _ = writeln!(out, "    {:<16} {}", self.reference, e.render());
            }
            (None, Some(a)) => {
                let _ = writeln!(out, "  extra event only in {}:", self.combo);
                let _ = writeln!(out, "    {:<16} {}", self.combo, a.render());
            }
            (None, None) => {
                let _ = writeln!(
                    out,
                    "  (window re-run did not reproduce an event-level difference; \
                     checkpoint fingerprints still disagree)"
                );
            }
        }
        out
    }
}

/// What one combo pass produced: per-lane checkpoint streams (a single
/// lane for single-cell scenarios) and the folded final fingerprint.
struct ComboRun {
    lanes: Vec<Vec<Checkpoint>>,
    lane_events: Vec<u64>,
    fp: u64,
}

/// The full verification verdict.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// Scenario name from the file.
    pub name: String,
    /// Combo names that were executed, reference first.
    pub combos: Vec<String>,
    /// Canonical events folded by the reference combo (all lanes).
    pub events: u64,
    /// The reference combo's folded fingerprint, 16 hex digits.
    pub fp: String,
    /// Localized breaks, empty when everything agreed.
    pub divergences: Vec<Divergence>,
    /// Sweep-matrix cells whose fingerprint differed between 1 thread
    /// and N threads: `(cell index, fp@1, fp@N)`.
    pub sweep_mismatches: Vec<(usize, String, String)>,
    /// Whether the sweep-matrix comparison ran (scenario had a sweep).
    pub swept: bool,
}

impl VerifyOutcome {
    /// True when every combo and every sweep cell agreed.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty() && self.sweep_mismatches.is_empty()
    }
}

fn injected_index(opts: &VerifyOptions, combo: &str) -> Option<u64> {
    opts.inject
        .as_ref()
        .filter(|(name, _)| name == combo)
        .map(|&(_, idx)| idx)
}

fn single_cfg(base: &NetworkConfig, backend: QueueBackend, coalesce: bool) -> NetworkConfig {
    let mut cfg = base.clone();
    cfg.queue_backend = backend;
    cfg.coalesce_ticks = coalesce;
    cfg
}

fn topo_cfg(base: &TopologyConfig, backend: QueueBackend, coalesce: bool) -> TopologyConfig {
    let mut topo = base.clone();
    topo.base.queue_backend = backend;
    topo.base.coalesce_ticks = coalesce;
    topo
}

/// Runs one combo end to end, fingerprint-only.
fn run_combo(
    spec: &ScenarioSpec,
    combo: &str,
    backend: QueueBackend,
    coalesce: bool,
    opts: &VerifyOptions,
) -> ComboRun {
    let inject = injected_index(opts, combo);
    let lane = |cell: Option<u64>| {
        let mut rec = FlightRecorder::new()
            .with_interval(opts.interval)
            .with_capacity(0);
        if let Some(c) = cell {
            rec = rec.for_cell(c);
        }
        // The injection names a global stream index; in topology runs
        // it lands in cell 0's lane (the reference lane for tests).
        if let Some(idx) = inject {
            if cell.unwrap_or(0) == 0 {
                rec = rec.with_injected_divergence(idx);
            }
        }
        rec
    };
    match &spec.topo {
        None => {
            let mut rec = lane(None);
            airtime_wlan::run_observed(&single_cfg(&spec.cfg, backend, coalesce), &mut rec);
            ComboRun {
                fp: rec.fingerprint(),
                lane_events: vec![rec.events()],
                lanes: vec![rec.checkpoints().to_vec()],
            }
        }
        Some(topo) => {
            let topo = topo_cfg(topo, backend, coalesce);
            let mut obs: Vec<_> = (0..topo.cells.len())
                .map(|c| lane(Some(c as u64)))
                .collect();
            airtime_topo::run_topology(&topo, &mut obs);
            ComboRun {
                fp: combine_fps(obs.iter().map(|r| r.fingerprint())),
                lane_events: obs.iter().map(|r| r.events()).collect(),
                lanes: obs.iter().map(|r| r.checkpoints().to_vec()).collect(),
            }
        }
    }
}

/// Re-runs the reference and the divergent combo recording only
/// `[a, b)` of one lane, and returns the first differing event pair.
#[allow(clippy::too_many_arguments)]
fn pin_divergence(
    spec: &ScenarioSpec,
    reference: (&str, QueueBackend, bool),
    combo: (&str, QueueBackend, bool),
    lane_cell: Option<u64>,
    a: u64,
    b: u64,
    opts: &VerifyOptions,
) -> (Option<RecordedEvent>, Option<RecordedEvent>) {
    let capture = |name: &str, backend: QueueBackend, coalesce: bool| -> Vec<RecordedEvent> {
        let inject = injected_index(opts, name);
        let windowed = |cell: Option<u64>| {
            let mut rec = FlightRecorder::new()
                .with_interval(opts.interval)
                .with_window(a, b);
            if let Some(c) = cell {
                rec = rec.for_cell(c);
            }
            if let Some(idx) = inject {
                if cell.unwrap_or(0) == 0 {
                    rec = rec.with_injected_divergence(idx);
                }
            }
            rec
        };
        match &spec.topo {
            None => {
                let mut rec = windowed(None);
                airtime_wlan::run_observed(&single_cfg(&spec.cfg, backend, coalesce), &mut rec);
                rec.ring().cloned().collect()
            }
            Some(topo) => {
                let topo = topo_cfg(topo, backend, coalesce);
                let mut obs: Vec<_> = (0..topo.cells.len())
                    .map(|c| windowed(Some(c as u64)))
                    .collect();
                airtime_topo::run_topology(&topo, &mut obs);
                let lane = lane_cell.unwrap_or(0) as usize;
                obs.get(lane)
                    .map(|r| r.ring().cloned().collect())
                    .unwrap_or_default()
            }
        }
    };
    let expected = capture(reference.0, reference.1, reference.2);
    let actual = capture(combo.0, combo.1, combo.2);
    match first_divergent_event(&expected, &actual) {
        Some((e, a)) => (e.cloned(), a.cloned()),
        None => (None, None),
    }
}

/// Verifies a compiled scenario's determinism across all four
/// backend × tick-mode combos (base configuration), localizing any
/// break to the exact first divergent event. `doc` additionally
/// enables the sweep-matrix thread comparison when the scenario
/// declares a `[sweep]`.
pub fn verify_determinism(
    spec: &ScenarioSpec,
    doc: Option<&Doc>,
    file: &str,
    opts: &VerifyOptions,
) -> Result<VerifyOutcome, ScenarioError> {
    let reference = COMBOS[0];
    let ref_run = run_combo(spec, reference.0, reference.1, reference.2, opts);
    let mut divergences = Vec::new();
    for &combo in &COMBOS[1..] {
        let run = run_combo(spec, combo.0, combo.1, combo.2, opts);
        for (lane, (cps_ref, cps)) in ref_run.lanes.iter().zip(run.lanes.iter()).enumerate() {
            let lane_cell = spec.topo.as_ref().map(|_| lane as u64);
            let tail_diverges =
                cps_ref == cps && ref_run.lane_events[lane] != run.lane_events[lane];
            let cp = match first_divergent_checkpoint(cps_ref, cps) {
                Some(cp) => cp,
                // All full checkpoints match but the partial tail
                // (fewer than `interval` events) differs in length:
                // the break is after the last checkpoint.
                None if tail_diverges => cps_ref.len(),
                None => continue,
            };
            let a = (cp as u64) * opts.interval;
            let b = a + opts.interval;
            let (expected, actual) = pin_divergence(spec, reference, combo, lane_cell, a, b, opts);
            divergences.push(Divergence {
                combo: combo.0.to_string(),
                reference: reference.0.to_string(),
                cell: lane_cell,
                checkpoint: cp,
                window: (a, b),
                expected,
                actual,
            });
        }
        // Lanes all matched checkpoint-by-checkpoint but the folded
        // fingerprints still differ (partial-tail divergence inside
        // the last incomplete window on some lane).
        if run.fp != ref_run.fp && !divergences.iter().any(|d| d.combo == combo.0) {
            for (lane, _) in ref_run.lanes.iter().enumerate() {
                let lane_cell = spec.topo.as_ref().map(|_| lane as u64);
                let a = ref_run.lanes[lane].len() as u64 * opts.interval;
                let b = a + opts.interval;
                let (expected, actual) =
                    pin_divergence(spec, reference, combo, lane_cell, a, b, opts);
                if expected.is_some() || actual.is_some() {
                    divergences.push(Divergence {
                        combo: combo.0.to_string(),
                        reference: reference.0.to_string(),
                        cell: lane_cell,
                        checkpoint: ref_run.lanes[lane].len(),
                        window: (a, b),
                        expected,
                        actual,
                    });
                    break;
                }
            }
        }
    }
    // Sweep-matrix comparison: 1 thread vs N, per-cell fingerprints.
    let mut sweep_mismatches = Vec::new();
    let mut swept = false;
    if let Some(doc) = doc {
        let (axes, _) = crate::expand(doc, file)?;
        if !axes.is_empty() && opts.inject.is_none() {
            swept = true;
            let lo = run_sweep(doc, file, 1)?;
            let hi = run_sweep(doc, file, opts.threads.max(2))?;
            for (c1, cn) in lo.cells.iter().zip(hi.cells.iter()) {
                let f1 = c1.fp.clone().unwrap_or_default();
                let fn_ = cn.fp.clone().unwrap_or_default();
                if f1 != fn_ {
                    sweep_mismatches.push((c1.index, f1, fn_));
                }
            }
        }
    }
    Ok(VerifyOutcome {
        name: spec.name.clone(),
        combos: COMBOS.iter().map(|c| c.0.to_string()).collect(),
        events: ref_run.lane_events.iter().sum(),
        fp: fp_hex(ref_run.fp),
        divergences,
        sweep_mismatches,
        swept,
    })
}
