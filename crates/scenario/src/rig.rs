//! The observation rig every sweep and tournament job attaches.
//!
//! A single-cell job runs under a [`SpanCollector`] (the per-station
//! queueing, contention and head-of-line delay columns) teed with a
//! capacity-0 [`FlightRecorder`] (the `fp` column). A topology job runs
//! one lane per radio cell, which adds that cell's [`AirtimeLedger`].
//! Observation is effect-only — the RNG stream is untouched — so
//! observed runs stay byte-identical to unobserved ones.
//!
//! Each pool worker keeps one [`Rig`] for all the jobs it runs and
//! resets it per job instead of building a new one, so the sample and
//! checkpoint buffers grown by the first jobs serve the rest. A reset
//! observer reports exactly what a freshly built one would.

use airtime_obs::{
    AirtimeLedger, AuditReport, FlightRecorder, SpanCollector, StationDelays, TeeObserver,
};
use airtime_topo::{TopoReport, TopologyConfig};
use airtime_wlan::{NetworkConfig, Report};

/// A single-cell job's observers.
type CellObs = TeeObserver<SpanCollector, FlightRecorder>;

/// One radio cell's lane in a topology job.
type LaneObs = TeeObserver<TeeObserver<SpanCollector, AirtimeLedger>, FlightRecorder>;

/// What a topology job's lanes saw: each cell's span rollup and ledger
/// audit, and the lanes' fingerprints folded into one.
pub struct LaneResults {
    /// Per-cell span rollups, in cell order.
    pub delays: Vec<Vec<StationDelays>>,
    /// Per-cell airtime-ledger audits, in cell order.
    pub audits: Vec<AuditReport>,
    /// The lane fingerprints folded by [`crate::combine_fps`].
    pub fp: u64,
}

/// One worker's observers, reused across jobs.
#[derive(Debug)]
pub struct Rig {
    cell: CellObs,
    /// Lane `c` records cell `c`; grown to the largest cell count seen.
    lanes: Vec<LaneObs>,
    /// Where every span summary groups its samples
    /// ([`SpanCollector::summary_in`]): one buffer for all the rig's
    /// collectors, sized to the largest run.
    scratch: Vec<u64>,
}

impl Default for Rig {
    fn default() -> Self {
        Rig {
            cell: TeeObserver::new(SpanCollector::new(), FlightRecorder::new().with_capacity(0)),
            lanes: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl Rig {
    /// Runs one cell under the reset single-cell observers: its report,
    /// span rollup and fingerprint.
    pub fn run_cell(&mut self, cfg: &NetworkConfig) -> (Report, Vec<StationDelays>, u64) {
        self.cell.a.reset();
        self.cell.b.reset();
        let report = airtime_wlan::run_observed(cfg, &mut self.cell);
        let delays = self.cell.a.summary_in(&mut self.scratch);
        (report, delays, self.cell.b.fingerprint())
    }

    /// Runs a topology under one reset lane per radio cell.
    pub fn run_topology(&mut self, topo: &TopologyConfig) -> (TopoReport, LaneResults) {
        let n = topo.cells.len();
        while self.lanes.len() < n {
            let c = self.lanes.len() as u64;
            self.lanes.push(TeeObserver::new(
                TeeObserver::new(SpanCollector::new(), AirtimeLedger::new()),
                FlightRecorder::new().with_capacity(0).for_cell(c),
            ));
        }
        let lanes = &mut self.lanes[..n];
        for lane in lanes.iter_mut() {
            lane.a.a.reset();
            lane.a.b.reset();
            lane.b.reset();
        }
        let report = airtime_topo::run_topology(topo, lanes);
        let results = LaneResults {
            delays: lanes
                .iter()
                .map(|l| l.a.a.summary_in(&mut self.scratch))
                .collect(),
            audits: lanes.iter().map(|l| l.a.b.audit()).collect(),
            fp: crate::combine_fps(lanes.iter().map(|l| l.b.fingerprint())),
        };
        (report, results)
    }
}
