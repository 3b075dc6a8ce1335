//! The lockstep multiplexer: one shared timeline over N per-cell
//! engines.
//!
//! Each cell runs the unmodified single-cell event loop through the
//! [`CellSim`] facade; this driver always steps the cell holding the
//! globally-earliest event (ties to the lowest cell id), so the
//! interleaving is a pure function of the configuration — the same
//! determinism contract as a single cell, extended across cells.
//!
//! Two couplings cross cell boundaries:
//!
//! - **Co-channel carrier sense.** Whenever a cell's medium turns
//!   busy, the driver mirrors the busy window into every other cell on
//!   the same channel as a defer (`CellSim::defer_all`), so co-channel
//!   cells contend for one shared medium while distinct channels run
//!   as independent DCF domains. Each window is mirrored once per
//!   neighbour and costs that neighbour one cell-wide MAC defer: a
//!   single expiry timer, whatever the station count, and no access
//!   resolution (nobody in a deferred cell contends). Exchanges
//!   *starting* in the same slot in two co-channel cells do not
//!   collide with each other — the mirror is one event behind — a
//!   deliberate simplification over a full shared-medium model.
//! - **Roaming.** On a fixed management tick the driver moves mobile
//!   stations along their waypoint paths, refreshes their path-loss
//!   links, and applies the RSSI/hysteresis association policy:
//!   disassociate (flushing the old AP's queues), then associate with
//!   fresh scheduler registration and fresh transport incarnations at
//!   the new AP.

use std::time::Instant;

use airtime_obs::{Observer, PhaseProfiler};
use airtime_sim::{NsHist, SimDuration, SimTime};
use airtime_wlan::{CellSim, NetworkConfig};

use crate::config::{AssocDecision, TopologyConfig};
use crate::report::{HandoffRecord, RoamingReport, TopoReport, Visit};

/// Host-side stats for one cell's lane of a profiled topology run.
#[derive(Clone, Debug)]
pub struct CellLaneProfile {
    /// Events this cell dispatched.
    pub events: u64,
    /// Host cost of this cell's dispatches.
    pub dispatch: NsHist,
    /// Deepest this cell's event queue ever got.
    pub queue_high_water: u64,
}

/// The host-side profile of one topology run: where the driver's wall
/// time went, per event label and per cell lane. Purely observational
/// — the paired [`TopoReport`] is byte-identical to an unprofiled
/// run's.
#[derive(Clone, Debug)]
pub struct TopoProfile {
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Total events dispatched across all cells.
    pub events: u64,
    /// Dispatch-cost distributions per event label, all cells merged.
    pub labels: Vec<(&'static str, NsHist)>,
    /// Driver phases (`drain`, `drain/mirror`, `management`) as
    /// hierarchical paths.
    pub phases: Vec<(String, NsHist)>,
    /// Per-cell lane stats, index-aligned with the topology's cells.
    pub cells: Vec<CellLaneProfile>,
}

/// Host-side measurement state threaded through a profiled run.
struct TopoProbe {
    started: Instant,
    phases: PhaseProfiler,
    labels: Vec<(&'static str, NsHist)>,
    per_cell: Vec<NsHist>,
}

impl TopoProbe {
    fn new(n_cells: usize) -> Self {
        TopoProbe {
            started: Instant::now(),
            phases: PhaseProfiler::new(true),
            labels: Vec::new(),
            per_cell: vec![NsHist::new(); n_cells],
        }
    }

    fn record(&mut self, cell: usize, label: &'static str, cost: std::time::Duration) {
        self.per_cell[cell].record(cost);
        match self.labels.iter_mut().find(|(l, _)| *l == label) {
            Some((_, h)) => h.record(cost),
            None => {
                let mut h = NsHist::new();
                h.record(cost);
                self.labels.push((label, h));
            }
        }
    }
}

/// Runs a topology with one observer per cell (index-aligned).
/// Observers see each cell's own event stream — per-cell airtime
/// ledgers audit against that cell's own timeline.
///
/// # Panics
///
/// Panics on invalid topologies (see [`TopologyConfig::validate`])
/// and when `obs.len() != topo.cells.len()`.
pub fn run_topology<O: Observer>(topo: &TopologyConfig, obs: &mut [O]) -> TopoReport {
    run_topology_inner(topo, obs, None).0
}

/// Like [`run_topology`], but measures the driver as it runs and
/// returns the host-side [`TopoProfile`] alongside the report.
///
/// # Panics
///
/// Same as [`run_topology`].
pub fn run_topology_profiled<O: Observer>(
    topo: &TopologyConfig,
    obs: &mut [O],
) -> (TopoReport, TopoProfile) {
    let n_cells = topo.cells.len();
    let mut probe = TopoProbe::new(n_cells);
    let (report, cells) = run_topology_inner(topo, obs, Some(&mut probe));
    let events: u64 = cells.iter().map(|(e, _)| e).sum();
    let profile = TopoProfile {
        wall_s: probe.started.elapsed().as_secs_f64(),
        events,
        labels: probe.labels,
        phases: probe.phases.flatten(),
        cells: cells
            .into_iter()
            .zip(probe.per_cell)
            .map(|((events, queue_high_water), dispatch)| CellLaneProfile {
                events,
                dispatch,
                queue_high_water,
            })
            .collect(),
    };
    (report, profile)
}

/// The shared driver. Returns the report plus each cell's
/// `(events_processed, queue_high_water)` — read before the cells are
/// consumed, so the profiled wrapper can build lane stats.
fn run_topology_inner<O: Observer>(
    topo: &TopologyConfig,
    obs: &mut [O],
    mut probe: Option<&mut TopoProbe>,
) -> (TopoReport, Vec<(u64, u64)>) {
    topo.validate();
    assert_eq!(
        obs.len(),
        topo.cells.len(),
        "one observer per cell, index-aligned"
    );
    let n_cells = topo.cells.len();
    let n_st = topo.base.stations.len();
    let end = SimTime::ZERO + topo.base.duration;

    // Initial positions and association state.
    let pos0: Vec<_> = topo
        .placements
        .iter()
        .map(|p| p.position_at(SimDuration::ZERO))
        .collect();
    let mut current: Vec<Option<usize>> = (0..n_st)
        .map(|s| {
            let rssi: Vec<f64> = (0..n_cells).map(|c| topo.rssi_dbm(pos0[s], c)).collect();
            match topo.decide(None, &rssi) {
                AssocDecision::Join(c) => Some(c),
                _ => None,
            }
        })
        .collect();

    // Per-cell configs: the shared template, with this cell's initial
    // per-station rates and a deterministically split RNG stream.
    let cfgs: Vec<NetworkConfig> = (0..n_cells)
        .map(|c| {
            let mut cfg = topo.base.clone();
            cfg.seed = topo
                .base
                .seed
                .wrapping_add((c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for (s, st) in cfg.stations.iter_mut().enumerate() {
                let rate = topo.rate_towards(pos0[s], c, topo.placements[s].rate);
                st.link = airtime_wlan::LinkSpec::Fixed { rate, fer: 0.0 };
            }
            cfg
        })
        .collect();

    let mut cells: Vec<CellSim<'_, O>> = cfgs
        .iter()
        .zip(obs.iter_mut())
        .enumerate()
        .map(|(c, (cfg, o))| {
            let mask: Vec<bool> = (0..n_st).map(|s| current[s] == Some(c)).collect();
            CellSim::new(cfg, o, &mask)
        })
        .collect();

    // Replace the placeholder error models with distance-driven ones
    // for every initially-associated station.
    for s in 0..n_st {
        if let Some(c) = current[s] {
            let d = pos0[s].distance_ft(topo.cells[c].position);
            cells[c].set_station_link(s, topo.link_at(d));
        }
    }

    let mut roaming = RoamingReport {
        outage: vec![SimDuration::ZERO; n_st],
        ..RoamingReport::default()
    };
    let mut visit_start: Vec<SimTime> = vec![SimTime::ZERO; n_st];
    let mut bytes_at_join: Vec<u64> = vec![0; n_st];
    // Latest busy-window end already mirrored into each cell, so a
    // long exchange is imposed on a neighbour once, not once per
    // neighbour event.
    let mut imposed: Vec<SimTime> = vec![SimTime::ZERO; n_cells];

    let mut next_tick = SimTime::ZERO + topo.assoc_tick;
    loop {
        let boundary = next_tick.min(end);
        // Drain events up to the boundary, always the globally
        // earliest first.
        if let Some(p) = probe.as_deref_mut() {
            p.phases.enter("drain");
        }
        loop {
            let mut best: Option<(SimTime, usize)> = None;
            for (i, cell) in cells.iter_mut().enumerate() {
                if let Some(t) = cell.peek_time() {
                    if t <= boundary && best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, i));
                    }
                }
            }
            let Some((t, i)) = best else { break };
            // One branch on the unprofiled path; when profiling, time
            // the step and bill it to the label and the cell's lane.
            match probe.as_deref_mut() {
                None => {
                    cells[i].step();
                }
                Some(p) => {
                    let t0 = Instant::now();
                    let label = cells[i].step().map(|(_, l)| l);
                    let cost = t0.elapsed();
                    if let Some(label) = label {
                        p.record(i, label, cost);
                    }
                }
            }
            // Mirror a newly started busy window into co-channel
            // neighbours.
            if let Some(busy_end) = cells[i].busy_until() {
                if let Some(p) = probe.as_deref_mut() {
                    p.phases.enter("mirror");
                }
                for j in 0..n_cells {
                    if j != i
                        && topo.cells[j].channel == topo.cells[i].channel
                        && busy_end > imposed[j]
                    {
                        imposed[j] = busy_end;
                        cells[j].defer_all(t, busy_end);
                    }
                }
                if let Some(p) = probe.as_deref_mut() {
                    p.phases.exit();
                }
            }
        }
        if let Some(p) = probe.as_deref_mut() {
            p.phases.exit();
        }
        if next_tick > end {
            break;
        }
        if let Some(p) = probe.as_deref_mut() {
            p.phases.enter("management");
        }
        management_tick(
            topo,
            &mut cells,
            next_tick,
            &mut current,
            &mut visit_start,
            &mut bytes_at_join,
            &mut roaming,
        );
        if let Some(p) = probe.as_deref_mut() {
            p.phases.exit();
        }
        next_tick += topo.assoc_tick;
    }

    // Close the books: stations still associated get their final
    // visit interval.
    for s in 0..n_st {
        if let Some(c) = current[s] {
            let bytes = cells[c]
                .station_goodput_bytes(s)
                .saturating_sub(bytes_at_join[s]);
            roaming.visits.push(Visit {
                station: s,
                cell: c,
                from: visit_start[s],
                to: end,
                goodput_bytes: bytes,
            });
        }
    }
    let lane_stats: Vec<(u64, u64)> = cells
        .iter()
        .map(|c| (c.events_processed(), c.queue_high_water()))
        .collect();
    let reports = cells.into_iter().map(|c| c.finish(end)).collect();
    (
        TopoReport {
            cells: reports,
            roaming,
            end,
        },
        lane_stats,
    )
}

/// One management-plane tick at `now`: mobility, link refresh,
/// association policy.
#[allow(clippy::too_many_arguments)]
fn management_tick<O: Observer>(
    topo: &TopologyConfig,
    cells: &mut [CellSim<'_, O>],
    now: SimTime,
    current: &mut [Option<usize>],
    visit_start: &mut [SimTime],
    bytes_at_join: &mut [u64],
    roaming: &mut RoamingReport,
) {
    let n_cells = topo.cells.len();
    let elapsed = now.saturating_since(SimTime::ZERO);
    for s in 0..current.len() {
        let placement = &topo.placements[s];
        let moved = placement.mobility.is_some();
        let p = placement.position_at(elapsed);
        let rssi: Vec<f64> = (0..n_cells).map(|c| topo.rssi_dbm(p, c)).collect();
        // A moving station's channel to its serving AP degrades (or
        // improves) continuously; refresh the link model and, under
        // automatic rate selection, the PHY rate.
        if moved {
            if let Some(c) = current[s] {
                let d = p.distance_ft(topo.cells[c].position);
                cells[c].set_station_link(s, topo.link_at(d));
                cells[c].set_station_rate(s, topo.rate_towards(p, c, placement.rate));
            }
        }
        match topo.decide(current[s], &rssi) {
            AssocDecision::Stay => {}
            AssocDecision::Join(to) => {
                let from = current[s];
                if let Some(c) = from {
                    let bytes = cells[c]
                        .station_goodput_bytes(s)
                        .saturating_sub(bytes_at_join[s]);
                    roaming.visits.push(Visit {
                        station: s,
                        cell: c,
                        from: visit_start[s],
                        to: now,
                        goodput_bytes: bytes,
                    });
                    cells[c].disassociate(s, now);
                }
                let d = p.distance_ft(topo.cells[to].position);
                cells[to].set_station_link(s, topo.link_at(d));
                cells[to].set_station_rate(s, topo.rate_towards(p, to, placement.rate));
                cells[to].associate(s, now);
                // Both lanes see the move: the losing cell records the
                // departure, the gaining cell the arrival, so either
                // side's fingerprint alone localizes a roaming
                // divergence.
                if let Some(c) = from {
                    cells[c].observe_handoff(now, s as u64, Some(c as u64), Some(to as u64));
                }
                cells[to].observe_handoff(now, s as u64, from.map(|c| c as u64), Some(to as u64));
                roaming.handoffs.push(HandoffRecord {
                    at: now,
                    station: s,
                    from,
                    to: Some(to),
                    serving_rssi_dbm: from.map(|c| rssi[c]),
                    target_rssi_dbm: Some(rssi[to]),
                });
                current[s] = Some(to);
                visit_start[s] = now;
                bytes_at_join[s] = cells[to].station_goodput_bytes(s);
            }
            AssocDecision::Drop => {
                let c = current[s].expect("Drop only from an association");
                let bytes = cells[c]
                    .station_goodput_bytes(s)
                    .saturating_sub(bytes_at_join[s]);
                roaming.visits.push(Visit {
                    station: s,
                    cell: c,
                    from: visit_start[s],
                    to: now,
                    goodput_bytes: bytes,
                });
                cells[c].disassociate(s, now);
                cells[c].observe_handoff(now, s as u64, Some(c as u64), None);
                roaming.handoffs.push(HandoffRecord {
                    at: now,
                    station: s,
                    from: Some(c),
                    to: None,
                    serving_rssi_dbm: Some(rssi[c]),
                    target_rssi_dbm: None,
                });
                current[s] = None;
            }
        }
        if current[s].is_none() {
            roaming.outage[s] += topo.assoc_tick;
        }
    }
}
