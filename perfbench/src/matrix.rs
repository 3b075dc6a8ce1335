//! Running a workload's job matrix, untraced and traced.
//!
//! The untraced run goes through the engine's own entry points
//! (`run_tournament` / `run_sweep`) and emitters, exactly as
//! `airtime-cli tournament` and `airtime-cli sweep` do. The traced run
//! repeats each job with the same observers the engine attaches, each
//! wrapped in a [`TimedObserver`], and rebuilds the same report from
//! public parts, so the two can be compared byte for byte.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use airtime_obs::{fp_hex, AirtimeLedger, FlightRecorder, SpanCollector, TeeObserver};
use airtime_scenario::toml::Doc;
use airtime_scenario::tournament::{self, TournamentJob, TournamentOutcome, TournamentRow};
use airtime_scenario::{
    aggregate, combine_fps, emit, Axis, CheckOutcome, Job, PoolStats, TournamentStation,
};

use crate::meter::{Meter, TimedObserver};
use crate::workloads::{Runner, Workload};

/// 64-bit FNV-1a over `bytes`: the report and job digests.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |acc, &b| {
        (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a run of the matrix produced, reduced to what gets compared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outputs {
    /// Digest of the emitted JSON and CSV documents.
    pub report: u64,
    /// Digest of each job's row, in matrix order.
    pub jobs: Vec<u64>,
    /// Whether each job's own checks held: positive finite goodput,
    /// and for topology jobs a conserving airtime ledger in every cell.
    pub sane: Vec<bool>,
}

/// The JSON and CSV documents `airtime-cli tournament` writes.
fn tournament_text(out: &TournamentOutcome) -> String {
    tournament::to_json(out) + &tournament::to_csv(out)
}

/// The JSON and CSV documents `airtime-cli sweep` writes.
fn sweep_text(name: &str, axes: &[Axis], cells: &[aggregate::Cell]) -> String {
    emit::to_json(name, axes, cells) + &emit::to_csv(name, axes, cells)
}

fn digest<R: std::fmt::Debug>(text: &str, rows: &[R], sane: impl Fn(&R) -> bool) -> Outputs {
    Outputs {
        report: fnv(text.as_bytes()),
        jobs: rows
            .iter()
            .map(|r| fnv(format!("{r:?}").as_bytes()))
            .collect(),
        sane: rows.iter().map(sane).collect(),
    }
}

fn row_sane(r: &TournamentRow) -> bool {
    r.total_mbps.is_finite() && r.total_mbps > 0.0
}

fn cell_sane(c: &aggregate::Cell) -> bool {
    c.total_mbps.is_finite() && c.total_mbps > 0.0 && c.roam.as_ref().is_none_or(|r| r.audits_pass)
}

/// Runs the matrix through the engine on `threads` workers and emits
/// it, which is what a user of `tournament` / `sweep` waits for.
/// Returns the seconds that took, and the outputs digested afterwards.
pub fn run_untraced(
    w: Workload,
    doc: &Doc,
    file: &str,
    threads: usize,
) -> Result<(f64, Outputs), String> {
    let t0 = Instant::now();
    match w.runner() {
        Runner::Tournament => {
            let out =
                airtime_scenario::run_tournament(doc, file, threads).map_err(|e| e.to_string())?;
            let text = tournament_text(&out);
            let wall = t0.elapsed().as_secs_f64();
            Ok((wall, digest(&text, &out.rows, row_sane)))
        }
        Runner::Sweep => {
            let out = airtime_scenario::run_sweep(doc, file, threads).map_err(|e| e.to_string())?;
            let text = sweep_text(&out.name, &out.axes, &out.cells);
            let wall = t0.elapsed().as_secs_f64();
            Ok((wall, digest(&text, &out.cells, cell_sane)))
        }
    }
}

/// The compiled job matrix of a workload.
pub enum Matrix {
    /// Tournament jobs.
    Tournament(Vec<TournamentJob>),
    /// Sweep axes and jobs.
    Sweep(Vec<Axis>, Vec<Job>),
}

impl Matrix {
    /// Compiles and expands `doc` the way the engine entry points do.
    pub fn expand(w: Workload, doc: &Doc, file: &str) -> Result<Matrix, String> {
        match w.runner() {
            Runner::Tournament => {
                let base = airtime_scenario::compile(doc, file).map_err(|e| e.to_string())?;
                let t = tournament::compile_tournament(doc, &base)
                    .map_err(|e| format!("{file}:{}: {}", e.line, e.msg))?
                    .ok_or_else(|| format!("{file}: no [tournament] section"))?;
                Ok(Matrix::Tournament(tournament::expand_tournament(&base, &t)))
            }
            Runner::Sweep => {
                let (axes, jobs) =
                    airtime_scenario::expand(doc, file).map_err(|e| e.to_string())?;
                Ok(Matrix::Sweep(axes, jobs))
            }
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        match self {
            Matrix::Tournament(jobs) => jobs.len(),
            Matrix::Sweep(_, jobs) => jobs.len(),
        }
    }

    /// Station link rates (Mbit/s) of the largest tournament cell or the
    /// first sweep job, for sizing probes.
    pub fn probe_rates(&self) -> Vec<f64> {
        let cfg = match self {
            Matrix::Tournament(jobs) => jobs
                .iter()
                .map(|j| &j.spec.cfg)
                .max_by_key(|c| c.stations.len()),
            Matrix::Sweep(_, jobs) => jobs.first().map(|j| &j.spec.cfg),
        };
        cfg.map(|cfg| {
            cfg.stations
                .iter()
                .filter_map(|s| match &s.link {
                    airtime_wlan::LinkSpec::Fixed { rate, .. } => Some(rate.mbps()),
                    airtime_wlan::LinkSpec::Path { .. } => None,
                })
                .collect()
        })
        .unwrap_or_default()
    }

    /// The single-cell configurations, for the queue-depth pass.
    pub fn single_cell_configs(&self) -> Vec<&airtime_wlan::NetworkConfig> {
        match self {
            Matrix::Tournament(jobs) => jobs.iter().map(|j| &j.spec.cfg).collect(),
            Matrix::Sweep(_, jobs) => jobs
                .iter()
                .filter(|j| j.spec.topo.is_none())
                .map(|j| &j.spec.cfg)
                .collect(),
        }
    }

    /// Scheduler families the matrix runs, in first-seen order.
    pub fn families(&self) -> Vec<airtime_sched::SchedulerKind> {
        let kinds = match self {
            Matrix::Tournament(jobs) => jobs
                .iter()
                .map(|j| &j.spec.cfg.scheduler)
                .collect::<Vec<_>>(),
            Matrix::Sweep(_, jobs) => jobs.iter().map(|j| &j.spec.cfg.scheduler).collect(),
        };
        let mut out: Vec<airtime_sched::SchedulerKind> = Vec::new();
        for k in kinds {
            if out.iter().all(|o| o.family() != k.family()) {
                out.push(k.clone());
            }
        }
        out
    }
}

/// What the topology engine reported about its own work.
#[derive(Clone, Debug, Default)]
pub struct TopoCost {
    /// Engine self time in the drain loop: picking the next cell,
    /// outside steps and mirroring.
    pub drain_ns: u64,
    /// Mirroring busy windows into co-channel cells.
    pub mirror_ns: u64,
    /// Management ticks: mobility, links, association.
    pub management_ns: u64,
    /// Handoffs over all jobs.
    pub handoffs: u64,
    /// Each label's step time as the topology engine measured it.
    pub step_ns: Vec<(&'static str, u64)>,
    /// Deepest any cell's event queue got.
    pub queue_high_water: u64,
    /// Events the topology engine dispatched.
    pub events: u64,
}

/// A traced run of the matrix.
pub struct Traced {
    /// The comparable outputs; `None` when a job panicked.
    pub outputs: Option<Outputs>,
    /// Jobs that panicked.
    pub panicked: Vec<bool>,
    /// The shared meter after the last job.
    pub meter: Meter,
    /// Topology engine costs (all zero on single-cell workloads).
    pub topo: TopoCost,
    /// Host seconds building rows from reports.
    pub aggregate_s: f64,
    /// Host seconds emitting the documents.
    pub emit_s: f64,
    /// Host seconds for the whole traced run.
    pub wall_s: f64,
}

type CellObs = TimedObserver<TeeObserver<SpanCollector, FlightRecorder>>;

/// Runs one single-cell job under the rig `run_sweep` and
/// `run_tournament` attach, timed on `meter`.
fn run_cell(
    meter: &Rc<RefCell<Meter>>,
    cfg: &airtime_wlan::NetworkConfig,
) -> (airtime_wlan::Report, CellObs) {
    let mut obs = TimedObserver::new(
        TeeObserver::new(SpanCollector::new(), FlightRecorder::new().with_capacity(0)),
        meter.clone(),
    );
    meter.borrow_mut().begin_job();
    let report = airtime_wlan::run_observed(cfg, &mut obs);
    meter.borrow_mut().end_job();
    (report, obs)
}

fn tournament_row(
    job: &TournamentJob,
    report: &airtime_wlan::Report,
    obs: &CellObs,
) -> TournamentRow {
    let delays = obs.inner.a.summary();
    let cell = aggregate::aggregate(job.index, Vec::new(), &job.spec, report, &delays);
    let stations = cell
        .stations
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let d = delays.iter().find(|d| d.station == (i + 1) as u64);
            TournamentStation {
                rate: s.rate.clone(),
                goodput_mbps: s.goodput_mbps,
                airtime_share: s.airtime_share,
                delay_ms: d.map(|d| d.queueing_ms).unwrap_or([0.0; 3]),
            }
        })
        .collect();
    TournamentRow {
        index: job.index,
        family: job.family.clone(),
        mix: job.mix.clone(),
        direction: job.direction.clone(),
        stations,
        total_mbps: cell.total_mbps,
        utilization: cell.utilization,
        jain_throughput: cell.jain_throughput,
        jain_airtime: cell.jain_airtime,
        check: cell.check,
        fp: fp_hex(obs.inner.b.fingerprint()),
    }
}

/// Labels in first-seen order, deduplicated.
fn distinct<'a>(items: impl Iterator<Item = &'a String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for s in items {
        if !out.contains(s) {
            out.push(s.clone());
        }
    }
    out
}

fn merge_steps(into: &mut Vec<(&'static str, u64)>, label: &'static str, ns: u64) {
    match into.iter_mut().find(|(l, _)| *l == label) {
        Some((_, total)) => *total += ns,
        None => into.push((label, ns)),
    }
}

/// Runs every job once with timing observers attached, on the calling
/// thread, and rebuilds the report the engine would emit.
pub fn run_traced(matrix: &Matrix) -> Traced {
    let started = Instant::now();
    let meter = Meter::shared();
    let mut topo = TopoCost::default();
    let mut aggregate_ns = 0u64;
    let mut panicked = vec![false; matrix.len()];
    let outputs = match matrix {
        Matrix::Tournament(jobs) => {
            let mut rows = Vec::new();
            for job in jobs {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let (report, obs) = run_cell(&meter, &job.spec.cfg);
                    let t0 = Instant::now();
                    let row = tournament_row(job, &report, &obs);
                    aggregate_ns += t0.elapsed().as_nanos() as u64;
                    row
                }));
                match run {
                    Ok(row) => rows.push(row),
                    Err(_) => panicked[job.index] = true,
                }
            }
            (rows.len() == jobs.len()).then(|| {
                let strict = jobs.first().is_some_and(|j| j.spec.check.strict);
                let out = TournamentOutcome {
                    name: jobs
                        .first()
                        .map_or_else(String::new, |j| j.spec.name.clone()),
                    families: distinct(jobs.iter().map(|j| &j.family)),
                    mixes: distinct(jobs.iter().map(|j| &j.mix)),
                    directions: distinct(jobs.iter().map(|j| &j.direction)),
                    strict_failure: strict
                        && rows
                            .iter()
                            .any(|r| matches!(r.check, CheckOutcome::Fail(_))),
                    rows,
                    stats: PoolStats {
                        threads: 1,
                        per_thread_jobs: vec![jobs.len()],
                    },
                };
                let t0 = Instant::now();
                let text = tournament_text(&out);
                let emit = t0.elapsed();
                (digest(&text, &out.rows, row_sane), emit)
            })
        }
        Matrix::Sweep(axes, jobs) => {
            let mut cells = Vec::new();
            for job in jobs {
                let run = catch_unwind(AssertUnwindSafe(|| match &job.spec.topo {
                    None => {
                        let (report, obs) = run_cell(&meter, &job.spec.cfg);
                        let t0 = Instant::now();
                        let mut cell = aggregate::aggregate(
                            job.index,
                            job.coords.clone(),
                            &job.spec,
                            &report,
                            &obs.inner.a.summary(),
                        );
                        cell.fp = Some(fp_hex(obs.inner.b.fingerprint()));
                        aggregate_ns += t0.elapsed().as_nanos() as u64;
                        cell
                    }
                    Some(tc) => {
                        // The rig `run_sweep` attaches per radio cell.
                        let mut obs: Vec<_> = (0..tc.cells.len())
                            .map(|c| {
                                TimedObserver::new(
                                    TeeObserver::new(
                                        TeeObserver::new(
                                            SpanCollector::new(),
                                            AirtimeLedger::new(),
                                        ),
                                        FlightRecorder::new().with_capacity(0).for_cell(c as u64),
                                    ),
                                    meter.clone(),
                                )
                            })
                            .collect();
                        meter.borrow_mut().begin_job();
                        let (tr, profile) = airtime_topo::run_topology_profiled(tc, &mut obs);
                        meter.borrow_mut().end_job();
                        fold_topo_profile(&mut topo, &profile);
                        let t0 = Instant::now();
                        let delays: Vec<_> = obs.iter().map(|o| o.inner.a.a.summary()).collect();
                        let audits: Vec<_> = obs.iter().map(|o| o.inner.a.b.audit()).collect();
                        let mut cell = aggregate::aggregate_topology(
                            job.index,
                            job.coords.clone(),
                            &job.spec,
                            &tr,
                            &delays,
                            &audits,
                        );
                        cell.fp = Some(fp_hex(combine_fps(
                            obs.iter().map(|o| o.inner.b.fingerprint()),
                        )));
                        aggregate_ns += t0.elapsed().as_nanos() as u64;
                        topo.handoffs += cell.roam.as_ref().map_or(0, |r| r.handoffs);
                        cell
                    }
                }));
                match run {
                    Ok(cell) => cells.push(cell),
                    Err(_) => panicked[job.index] = true,
                }
            }
            (cells.len() == jobs.len()).then(|| {
                let name = jobs
                    .first()
                    .map_or_else(|| "scenario".to_string(), |j| j.spec.name.clone());
                let t0 = Instant::now();
                let text = sweep_text(&name, axes, &cells);
                let emit = t0.elapsed();
                (digest(&text, &cells, cell_sane), emit)
            })
        }
    };
    let (outputs, emit_s) = match outputs {
        Some((o, d)) => (Some(o), d.as_secs_f64()),
        None => (None, 0.0),
    };
    let meter = Rc::try_unwrap(meter)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| std::mem::take(&mut *rc.borrow_mut()));
    Traced {
        outputs,
        panicked,
        meter,
        topo,
        aggregate_s: aggregate_ns as f64 * 1e-9,
        emit_s,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

fn fold_topo_profile(topo: &mut TopoCost, profile: &airtime_topo::TopoProfile) {
    let phase = |path: &str| {
        profile
            .phases
            .iter()
            .find(|(p, _)| p == path)
            .map_or(0, |(_, h)| h.total_ns())
    };
    let steps: u64 = profile.labels.iter().map(|(_, h)| h.total_ns()).sum();
    let mirror = phase("drain/mirror");
    topo.drain_ns += phase("drain").saturating_sub(mirror + steps);
    topo.mirror_ns += mirror;
    topo.management_ns += phase("management");
    topo.events += profile.events;
    for (label, h) in &profile.labels {
        merge_steps(&mut topo.step_ns, label, h.total_ns());
    }
    let high = profile
        .cells
        .iter()
        .map(|c| c.queue_high_water)
        .max()
        .unwrap_or(0);
    topo.queue_high_water = topo.queue_high_water.max(high);
}

/// Runs each single-cell job once through the event loop's own
/// profiler and returns `(events, deepest queue)` over all of them.
pub fn queue_depth_pass(matrix: &Matrix) -> (u64, u64) {
    let mut events = 0;
    let mut high = 0;
    for cfg in matrix.single_cell_configs() {
        let mut reg = airtime_obs::MetricsRegistry::new();
        let (_, profile) =
            airtime_wlan::run_profiled(cfg, &mut airtime_obs::NullObserver, &mut reg);
        events += profile.events;
        high = high.max(profile.queue_high_water);
    }
    (events, high)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    /// Each workload's matrix, simulating 3 s per job.
    fn short(w: Workload) -> (Doc, Matrix) {
        let file = w.file();
        let doc = airtime_scenario::parse_text(&w.scenario_for(7, 3), &file).unwrap();
        let matrix = Matrix::expand(w, &doc, &file).unwrap();
        (doc, matrix)
    }

    #[test]
    fn a_traced_run_reproduces_the_engine_report() {
        for w in ALL {
            let (doc, matrix) = short(w);
            let (_, untraced) = run_untraced(w, &doc, &w.file(), 1).unwrap();
            assert!(untraced.sane.iter().all(|&ok| ok), "{}", w.name());
            let traced = run_traced(&matrix);
            assert!(traced.panicked.iter().all(|&p| !p), "{}", w.name());
            assert_eq!(traced.outputs, Some(untraced), "{}", w.name());
        }
    }

    #[test]
    fn workloads_stress_what_they_were_chosen_for() {
        for w in ALL {
            let traced = run_traced(&short(w).1);
            let m = &traced.meter;
            // Every label the run saw has a layer.
            let layers = m
                .layer_totals(&traced.topo.step_ns)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let access = m.dispatches("mac.access_resolved") as f64;
            let tx_end = m.dispatches("mac.tx_end") as f64;
            assert!(tx_end > 0.0, "{}", w.name());
            match w {
                Workload::CellTcp => {
                    assert!(layers.net.dispatches > 0);
                    assert!(m.dispatches("tcp.rto") > 10 * m.rto_timeouts);
                }
                Workload::CellUdpDense => {
                    assert_eq!(layers.net.dispatches, 0);
                    assert!(access / tx_end < 1.1, "{access} / {tx_end}");
                }
                Workload::TopoCochannel => {
                    assert!(access / tx_end > 10.0, "{access} / {tx_end}");
                }
            }
            let topo = w == Workload::TopoCochannel;
            assert_eq!(traced.topo.events > 0, topo, "{}", w.name());
            assert_eq!(traced.topo.mirror_ns > 0, topo, "{}", w.name());
        }
    }
}
