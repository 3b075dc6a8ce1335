//! Compiling a parsed scenario document into a runnable
//! [`NetworkConfig`].
//!
//! The compiler is strict: every key is checked against the schema for
//! its section and unknown keys are errors naming the line and the
//! accepted alternatives — a typo in a scenario file fails fast instead
//! of silently running the default experiment.
//!
//! The format, by section (all keys optional unless noted):
//!
//! ```toml
//! name = "fig2-dcf-anomaly"   # document name (defaults to "scenario")
//! seed = 1                    # master RNG seed
//! duration_s = 60             # simulated seconds (int or float)
//! warmup_s = 5                # measurement warm-up to discard
//! direction = "up"            # default flow direction: up | down
//! station_count = 4           # replicate declared stations cyclically
//!
//! [scheduler]
//! kind = "tbr"                # fifo | rr | drr | tbr | txop | pf | maxmin
//! bucket_ms = 20              # TBR/TXOP parameter tables, see below
//!
//! [[station]]                 # at least one station is required
//! rate = "11"                 # fixed-rate link: Mbit/s from the
//!                             # 802.11b/g set ("5.5" needs quotes)
//! fer = 0.01                  # flat frame error rate
//! weight = 1.0                # QoS weight (tbr, drr, pf, maxmin)
//! transport = "tcp"           # tcp | udp (one implicit flow)
//! # … or a geometry link:
//! # distance_ft = 26
//! # walls = ["thin_wood", "thick"]
//! # shadow_db = 33.8
//! # initial_rate = "11"
//!
//! [[station.flow]]            # explicit flows override the implicit one
//! transport = "tcp"
//! direction = "down"
//! start_s = 1.5
//! task_bytes = 1000000
//! rate_limit_bps = 2100000.0
//!
//! [check]
//! property = "auto"           # auto | airtime_fair | throughput_fair | none
//! tolerance = 0.15
//! strict = false              # non-zero exit when a cell fails
//!
//! [sweep]                     # see crate::sweep
//! scheduler = ["rr", "tbr"]
//! "station.1.rate" = ["5.5", "2", "1"]
//! ```
//!
//! Declaring one or more `[[cells]]` tables turns the scenario into a
//! multi-cell topology run (`airtime-topo`): stations gain positions
//! and optional waypoint mobility, and the sweep's per-job engine
//! becomes the lockstep multi-cell driver with roaming metrics and
//! per-cell airtime audits.
//!
//! ```toml
//! [topology]                  # optional; requires [[cells]]
//! hysteresis_db = 6.0         # handoff margin
//! min_rssi_dbm = -94.0        # association floor (default: rate set's)
//! assoc_tick_ms = 100         # management-plane cadence
//! rate_set = "b"              # b | g | a (floor + auto-rate table)
//!
//! [[cells]]                   # one per AP
//! x_ft = 0.0
//! y_ft = 0.0
//! channel = 1                 # same channel => shared medium
//!
//! [[station]]                 # stations gain placement keys
//! rate = "11"
//! x_ft = 0.0
//! y_ft = 10.0
//! auto_rate = false           # true: re-pick rate from RSSI each tick
//!
//! [[station.mobility]]        # at most one per station
//! speed_fps = 15.0
//! x_ft = [0.0, 300.0]         # waypoint coordinates, pairwise
//! y_ft = [10.0, 10.0]
//! ```

use airtime_phy::{DataRate, RateSet, Wall};
use airtime_sched::{MaxMinConfig, PfConfig, TbrConfig, TxopConfig};
use airtime_sim::{SimDuration, SimTime};
use airtime_topo::{CellSpec, Placement, Point, RatePolicy, TopologyConfig, WaypointPath};
use airtime_wlan::{
    Direction, FlowSpec, LinkSpec, NetworkConfig, Regulate, SchedulerKind, StationConfig, Transport,
};

use crate::toml::{Doc, Entry, Table, Value};

/// A compile failure with its source line (mirrors
/// [`crate::toml::ParseError`] so the CLI prints both the same way).
pub type CompileError = crate::toml::ParseError;

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        line,
        msg: msg.into(),
    })
}

/// Which baseline property a sweep cell is checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckProperty {
    /// Pick by scheduler: time-based disciplines (TBR, TXOP) must share
    /// *airtime* evenly; packet-based ones (FIFO, RR, DRR) share
    /// *throughput* evenly (the DCF anomaly, Figure 2).
    Auto,
    /// Max deviation of any station's airtime share from `1/n` must be
    /// within tolerance.
    AirtimeFair,
    /// Jain's index of per-station goodput must be at least
    /// `1 − tolerance`.
    ThroughputFair,
    /// No check; cells report `skip`.
    None,
}

/// The `[check]` section.
#[derive(Clone, Copy, Debug)]
pub struct CheckSpec {
    /// Property to verify per cell.
    pub property: CheckProperty,
    /// Allowed deviation (see [`CheckProperty`]).
    pub tolerance: f64,
    /// When true, a failing cell makes the sweep exit non-zero.
    pub strict: bool,
}

impl Default for CheckSpec {
    fn default() -> Self {
        CheckSpec {
            property: CheckProperty::Auto,
            tolerance: 0.15,
            strict: false,
        }
    }
}

/// A compiled scenario: everything one job needs to run and label
/// itself.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Document name.
    pub name: String,
    /// The runnable configuration.
    pub cfg: NetworkConfig,
    /// Baseline-property check settings.
    pub check: CheckSpec,
    /// Display label per station (`11M`, `5.5M`, or `path` for
    /// geometry links).
    pub rate_labels: Vec<String>,
    /// Multi-cell topology, when the scenario declares `[[cells]]`
    /// tables. `topo.base` is a clone of `cfg` — the sweep engine runs
    /// the topology driver instead of the single-cell engine.
    pub topo: Option<TopologyConfig>,
}

// ---- typed accessors ----------------------------------------------------

fn want_str(e: &Entry) -> Result<&str, CompileError> {
    e.value.as_str().ok_or_else(|| CompileError {
        line: e.line,
        msg: format!(
            "key '{}' expects a string, got {}",
            e.key,
            e.value.type_name()
        ),
    })
}

fn want_f64(e: &Entry) -> Result<f64, CompileError> {
    e.value.as_f64().ok_or_else(|| CompileError {
        line: e.line,
        msg: format!(
            "key '{}' expects a number, got {}",
            e.key,
            e.value.type_name()
        ),
    })
}

fn want_u64(e: &Entry) -> Result<u64, CompileError> {
    match e.value.as_i64() {
        Some(i) if i >= 0 => Ok(i as u64),
        _ => err(
            e.line,
            format!(
                "key '{}' expects a non-negative integer, got {}",
                e.key,
                e.value.type_name()
            ),
        ),
    }
}

fn want_bool(e: &Entry) -> Result<bool, CompileError> {
    e.value.as_bool().ok_or_else(|| CompileError {
        line: e.line,
        msg: format!(
            "key '{}' expects true or false, got {}",
            e.key,
            e.value.type_name()
        ),
    })
}

/// The longest simulated span, in seconds, that a scenario key or
/// `airtime-cli run --secs` accepts: one day. The largest shipped preset
/// runs 60 s; without a ceiling a typo such as `duration_s = 1e300`
/// would run without bound.
pub const MAX_DURATION_S: u64 = 86_400;

fn duration_secs(e: &Entry) -> Result<SimDuration, CompileError> {
    let s = want_f64(e)?;
    if s < 0.0 || !s.is_finite() {
        return err(e.line, format!("key '{}' expects seconds >= 0", e.key));
    }
    if s > MAX_DURATION_S as f64 {
        return err(
            e.line,
            format!("key '{}' expects at most {MAX_DURATION_S} seconds", e.key),
        );
    }
    Ok(SimDuration::from_nanos((s * 1e9).round() as u64))
}

fn duration_millis(e: &Entry) -> Result<SimDuration, CompileError> {
    let ms = want_f64(e)?;
    if ms < 0.0 || !ms.is_finite() {
        return err(e.line, format!("key '{}' expects milliseconds >= 0", e.key));
    }
    Ok(SimDuration::from_nanos((ms * 1e6).round() as u64))
}

/// A period in milliseconds that must be positive: a zero fill period
/// would never advance TBR's refill grid, and a zero TXOP grant would
/// never let a frame out.
fn period_millis(e: &Entry) -> Result<SimDuration, CompileError> {
    let d = duration_millis(e)?;
    if d.is_zero() {
        return err(e.line, format!("key '{}' expects milliseconds > 0", e.key));
    }
    Ok(d)
}

/// Parses a data rate given as a string (`"11"`, `"5.5"`, `"54"`) or a
/// bare number (`11`, `5.5`).
pub fn parse_rate(e: &Entry) -> Result<DataRate, CompileError> {
    let tok = match &e.value {
        Value::Str(s) => s.trim().trim_end_matches('M').to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        other => {
            return err(
                e.line,
                format!(
                    "key '{}' expects a rate in Mbit/s, got {}",
                    e.key,
                    other.type_name()
                ),
            )
        }
    };
    match rate_from_token(&tok) {
        Some(rate) => Ok(rate),
        None => err(
            e.line,
            format!(
                "unknown rate '{tok}'; expected one of 1, 2, 5.5, 11, 6, 9, 12, 18, 24, 36, 48, 54"
            ),
        ),
    }
}

/// Maps a bare rate token (`"11"`, `"5.5"`, with or without a trailing
/// `M`) to its [`DataRate`]; `None` for anything unrecognised.
pub fn rate_from_token(tok: &str) -> Option<DataRate> {
    match tok.trim().trim_end_matches('M') {
        "1" => Some(DataRate::B1),
        "2" => Some(DataRate::B2),
        "5.5" => Some(DataRate::B5_5),
        "11" => Some(DataRate::B11),
        "6" => Some(DataRate::G6),
        "9" => Some(DataRate::G9),
        "12" => Some(DataRate::G12),
        "18" => Some(DataRate::G18),
        "24" => Some(DataRate::G24),
        "36" => Some(DataRate::G36),
        "48" => Some(DataRate::G48),
        "54" => Some(DataRate::G54),
        _ => None,
    }
}

fn parse_direction(e: &Entry) -> Result<Direction, CompileError> {
    match want_str(e)? {
        "up" | "uplink" => Ok(Direction::Uplink),
        "down" | "downlink" => Ok(Direction::Downlink),
        other => err(
            e.line,
            format!("unknown direction '{other}'; expected up or down"),
        ),
    }
}

fn parse_transport(e: &Entry) -> Result<Transport, CompileError> {
    match want_str(e)? {
        "tcp" => Ok(Transport::Tcp),
        "udp" => Ok(Transport::Udp),
        other => err(
            e.line,
            format!("unknown transport '{other}'; expected tcp or udp"),
        ),
    }
}

pub(crate) fn check_keys(
    table: &Table,
    section: &str,
    allowed: &[&str],
) -> Result<(), CompileError> {
    for e in &table.entries {
        if !allowed.contains(&e.key.as_str()) {
            return err(
                e.line,
                format!(
                    "unknown key '{}' in [{}]; expected one of: {}",
                    e.key,
                    section,
                    allowed.join(", ")
                ),
            );
        }
    }
    Ok(())
}

// ---- sections -----------------------------------------------------------

const ROOT_KEYS: &[&str] = &[
    "name",
    "seed",
    "duration_s",
    "warmup_s",
    "direction",
    "station_count",
    "wired_delay_ms",
    "client_queue_cap",
    "uplink_retry_info",
    "uplink_loss_estimator",
    "client_cooperation",
    "retry_rate_fallback",
    "record_trace",
    "rts_threshold",
    "regulate",
];

const STATION_KEYS: &[&str] = &[
    "rate",
    "fer",
    "weight",
    "count",
    "distance_ft",
    "walls",
    "shadow_db",
    "initial_rate",
    "transport",
    "direction",
    "start_s",
    "task_bytes",
    "rate_limit_bps",
    "x_ft",
    "y_ft",
    "auto_rate",
];

/// Station keys that only mean something in a `[[cells]]` topology.
const PLACEMENT_KEYS: &[&str] = &["x_ft", "y_ft", "auto_rate"];

const TOPOLOGY_KEYS: &[&str] = &["hysteresis_db", "min_rssi_dbm", "assoc_tick_ms", "rate_set"];

const CELLS_KEYS: &[&str] = &["x_ft", "y_ft", "channel"];

const MOBILITY_KEYS: &[&str] = &["speed_fps", "x_ft", "y_ft"];

const FLOW_KEYS: &[&str] = &[
    "transport",
    "direction",
    "start_s",
    "task_bytes",
    "rate_limit_bps",
];

const SCHEDULER_KEYS: &[&str] = &[
    "kind",
    "fill_period_ms",
    "adjust_period_ms",
    "bucket_ms",
    "initial_tokens_ms",
    "excess_threshold",
    "demand_threshold",
    "min_rate",
    "donation_streak",
    "restitution",
    "total_buffer",
    "quantum_ms",
    "beta",
    "rate_ewma",
];

const CHECK_KEYS: &[&str] = &["property", "tolerance", "strict"];

fn compile_scheduler(doc: &Doc) -> Result<SchedulerKind, CompileError> {
    let Some(t) = doc.table("scheduler") else {
        return Ok(SchedulerKind::tbr());
    };
    check_keys(t, "scheduler", SCHEDULER_KEYS)?;
    let kind = match t.get("kind") {
        Some(e) => want_str(e)?.to_string(),
        None => "tbr".to_string(),
    };
    let kind_line = t.get("kind").map(|e| e.line).unwrap_or(t.line);
    // Parameters that only make sense for one discipline are rejected
    // elsewhere, so a `[sweep]` over `scheduler.kind` can keep a TBR
    // parameter table alongside — the parameters simply don't apply to
    // the fifo/rr/drr cells.
    match kind.as_str() {
        "fifo" => Ok(SchedulerKind::Fifo),
        "rr" => Ok(SchedulerKind::RoundRobin),
        "drr" => Ok(SchedulerKind::Drr),
        "tbr" => {
            let mut c = TbrConfig::default();
            if let Some(e) = t.get("fill_period_ms") {
                c.fill_period = period_millis(e)?;
            }
            if let Some(e) = t.get("adjust_period_ms") {
                c.adjust_period = duration_millis(e)?;
            }
            if let Some(e) = t.get("bucket_ms") {
                c.bucket = duration_millis(e)?;
            }
            if let Some(e) = t.get("initial_tokens_ms") {
                c.initial_tokens = duration_millis(e)?;
            }
            if let Some(e) = t.get("excess_threshold") {
                c.excess_threshold = want_f64(e)?;
            }
            if let Some(e) = t.get("demand_threshold") {
                c.demand_threshold = want_f64(e)?;
            }
            if let Some(e) = t.get("min_rate") {
                c.min_rate = want_f64(e)?;
            }
            if let Some(e) = t.get("donation_streak") {
                c.donation_streak = want_u64(e)? as u32;
            }
            if let Some(e) = t.get("restitution") {
                c.restitution = want_f64(e)?;
            }
            if let Some(e) = t.get("total_buffer") {
                c.total_buffer = want_u64(e)? as usize;
            }
            Ok(SchedulerKind::Tbr(c))
        }
        "txop" => {
            let mut c = TxopConfig::default();
            if let Some(e) = t.get("quantum_ms") {
                c.quantum = period_millis(e)?;
            }
            if let Some(e) = t.get("total_buffer") {
                c.total_buffer = want_u64(e)? as usize;
            }
            Ok(SchedulerKind::Txop(c))
        }
        "pf" => {
            let mut c = PfConfig::default();
            if let Some(e) = t.get("beta") {
                c.beta = want_f64(e)?;
                if !(c.beta > 0.0 && c.beta <= 1.0) {
                    return err(e.line, "beta must be in (0, 1]".to_string());
                }
            }
            if let Some(e) = t.get("total_buffer") {
                c.total_buffer = want_u64(e)? as usize;
            }
            Ok(SchedulerKind::Pf(c))
        }
        "maxmin" => {
            let mut c = MaxMinConfig::default();
            if let Some(e) = t.get("rate_ewma") {
                c.rate_ewma = want_f64(e)?;
                if !(c.rate_ewma > 0.0 && c.rate_ewma <= 1.0) {
                    return err(e.line, "rate_ewma must be in (0, 1]".to_string());
                }
            }
            if let Some(e) = t.get("total_buffer") {
                c.total_buffer = want_u64(e)? as usize;
            }
            Ok(SchedulerKind::MaxMin(c))
        }
        other => err(
            kind_line,
            format!(
                "unknown scheduler '{other}'; expected one of {}",
                airtime_sched::family_names()
            ),
        ),
    }
}

fn compile_flow(t: &Table, default_direction: Direction) -> Result<FlowSpec, CompileError> {
    check_keys(t, "station.flow", FLOW_KEYS)?;
    let mut flow = FlowSpec {
        transport: Transport::Tcp,
        direction: default_direction,
        start: SimTime::ZERO,
        task_bytes: None,
        rate_limit_bps: None,
    };
    if let Some(e) = t.get("transport") {
        flow.transport = parse_transport(e)?;
    }
    if let Some(e) = t.get("direction") {
        flow.direction = parse_direction(e)?;
    }
    if let Some(e) = t.get("start_s") {
        flow.start = SimTime::ZERO + duration_secs(e)?;
    }
    if let Some(e) = t.get("task_bytes") {
        flow.task_bytes = Some(want_u64(e)?);
    }
    if let Some(e) = t.get("rate_limit_bps") {
        flow.rate_limit_bps = Some(want_f64(e)?);
    }
    Ok(flow)
}

/// A station's spatial declaration, kept separate from the
/// [`StationConfig`] until we know whether the scenario is a topology
/// (`[[cells]]` present) at all.
#[derive(Clone, Debug)]
struct PlacementDecl {
    x: f64,
    y: f64,
    auto_rate: bool,
    mobility: Option<WaypointPath>,
    /// Line of the first placement key used, if any — so a placement
    /// key in a single-cell scenario can be rejected with its own line.
    used_at: Option<usize>,
}

fn compile_placement(doc: &Doc, t: &Table, idx: usize) -> Result<PlacementDecl, CompileError> {
    let mut decl = PlacementDecl {
        x: 0.0,
        y: 10.0,
        auto_rate: false,
        mobility: None,
        used_at: None,
    };
    for key in PLACEMENT_KEYS {
        if let Some(e) = t.get(key) {
            decl.used_at.get_or_insert(e.line);
        }
    }
    if let Some(e) = t.get("x_ft") {
        decl.x = want_f64(e)?;
    }
    if let Some(e) = t.get("y_ft") {
        decl.y = want_f64(e)?;
    }
    if let Some(e) = t.get("auto_rate") {
        decl.auto_rate = want_bool(e)?;
    }
    let mobility_tables = doc.sub_tables("station", idx, "mobility");
    if mobility_tables.len() > 1 {
        return err(
            mobility_tables[1].line,
            "a station has at most one [[station.mobility]] table",
        );
    }
    if let Some(mt) = mobility_tables.first() {
        check_keys(mt, "station.mobility", MOBILITY_KEYS)?;
        decl.used_at.get_or_insert(mt.line);
        let coords = |key: &str| -> Result<Vec<f64>, CompileError> {
            let Some(e) = mt.get(key) else {
                return err(
                    mt.line,
                    format!("[[station.mobility]] needs '{key}' (waypoint coordinates)"),
                );
            };
            let Some(xs) = e.value.as_array() else {
                return err(
                    e.line,
                    format!(
                        "key '{key}' expects an array of numbers, got {}",
                        e.value.type_name()
                    ),
                );
            };
            let mut out = Vec::with_capacity(xs.len());
            for x in xs {
                match x.as_f64() {
                    Some(v) if v.is_finite() => out.push(v),
                    _ => {
                        return err(
                            e.line,
                            format!("key '{key}' expects finite numbers, found '{x}'"),
                        )
                    }
                }
            }
            Ok(out)
        };
        let xs = coords("x_ft")?;
        let ys = coords("y_ft")?;
        if xs.len() != ys.len() || xs.is_empty() {
            return err(
                mt.line,
                format!(
                    "'x_ft' and 'y_ft' must be non-empty and pairwise ({} vs {} waypoints)",
                    xs.len(),
                    ys.len()
                ),
            );
        }
        let speed = match mt.get("speed_fps") {
            Some(e) => {
                let s = want_f64(e)?;
                if s <= 0.0 || !s.is_finite() {
                    return err(e.line, "key 'speed_fps' expects a positive speed");
                }
                s
            }
            None => return err(mt.line, "[[station.mobility]] needs 'speed_fps'"),
        };
        let waypoints: Vec<Point> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| Point::new(x, y))
            .collect();
        decl.x = waypoints[0].x_ft;
        decl.y = waypoints[0].y_ft;
        decl.mobility = Some(WaypointPath::new(waypoints, speed));
    }
    Ok(decl)
}

fn compile_station(
    doc: &Doc,
    t: &Table,
    idx: usize,
    default_direction: Direction,
) -> Result<(StationConfig, PlacementDecl, usize), CompileError> {
    check_keys(t, "station", STATION_KEYS)?;

    let geometry = t.get("distance_ft").is_some();
    let link = if geometry {
        for bad in ["rate", "fer"] {
            if let Some(e) = t.get(bad) {
                return err(
                    e.line,
                    format!("'{bad}' conflicts with 'distance_ft'; a station link is either fixed-rate (rate/fer) or geometry (distance_ft/walls/shadow_db/initial_rate)"),
                );
            }
        }
        let distance_ft = want_f64(t.get("distance_ft").unwrap())?;
        let mut walls = Vec::new();
        if let Some(e) = t.get("walls") {
            let Some(xs) = e.value.as_array() else {
                return err(
                    e.line,
                    format!("key 'walls' expects an array, got {}", e.value.type_name()),
                );
            };
            for x in xs {
                match x.as_str() {
                    Some("thin_wood") => walls.push(Wall::ThinWood),
                    Some("thick") => walls.push(Wall::Thick),
                    _ => {
                        return err(
                            e.line,
                            format!("unknown wall '{x}'; expected thin_wood or thick"),
                        )
                    }
                }
            }
        }
        let shadow_db = match t.get("shadow_db") {
            Some(e) => want_f64(e)?,
            None => 0.0,
        };
        let initial_rate = match t.get("initial_rate") {
            Some(e) => parse_rate(e)?,
            None => DataRate::B11,
        };
        LinkSpec::Path {
            distance_ft,
            walls,
            shadow_db,
            initial_rate,
        }
    } else {
        for bad in ["walls", "shadow_db", "initial_rate"] {
            if let Some(e) = t.get(bad) {
                return err(
                    e.line,
                    format!("'{bad}' requires 'distance_ft' (geometry links only)"),
                );
            }
        }
        let rate = match t.get("rate") {
            Some(e) => parse_rate(e)?,
            None => {
                return err(
                    t.line,
                    "station needs either 'rate' (fixed link) or 'distance_ft' (geometry link)",
                )
            }
        };
        let fer = match t.get("fer") {
            Some(e) => {
                let f = want_f64(e)?;
                if !(0.0..1.0).contains(&f) {
                    return err(e.line, "key 'fer' expects a fraction in [0, 1)");
                }
                f
            }
            None => 0.01,
        };
        LinkSpec::Fixed { rate, fer }
    };

    let weight = match t.get("weight") {
        Some(e) => {
            let w = want_f64(e)?;
            if w <= 0.0 {
                return err(e.line, "key 'weight' expects a positive number");
            }
            w
        }
        None => 1.0,
    };

    let flow_tables = doc.sub_tables("station", idx, "flow");
    let flows = if flow_tables.is_empty() {
        let mut d = default_direction;
        if let Some(e) = t.get("direction") {
            d = parse_direction(e)?;
        }
        let mut flow = FlowSpec {
            transport: Transport::Tcp,
            direction: d,
            start: SimTime::ZERO,
            task_bytes: None,
            rate_limit_bps: None,
        };
        if let Some(e) = t.get("transport") {
            flow.transport = parse_transport(e)?;
        }
        if let Some(e) = t.get("start_s") {
            flow.start = SimTime::ZERO + duration_secs(e)?;
        }
        if let Some(e) = t.get("task_bytes") {
            flow.task_bytes = Some(want_u64(e)?);
        }
        if let Some(e) = t.get("rate_limit_bps") {
            flow.rate_limit_bps = Some(want_f64(e)?);
        }
        vec![flow]
    } else {
        for bad in ["transport", "start_s", "task_bytes", "rate_limit_bps"] {
            if let Some(e) = t.get(bad) {
                return err(
                    e.line,
                    format!("station key '{bad}' conflicts with explicit [[station.flow]] tables"),
                );
            }
        }
        let mut d = default_direction;
        if let Some(e) = t.get("direction") {
            d = parse_direction(e)?;
        }
        let mut flows = Vec::new();
        for ft in flow_tables {
            flows.push(compile_flow(ft, d)?);
        }
        flows
    };

    let count = match t.get("count") {
        Some(e) => {
            let c = want_u64(e)? as usize;
            if c == 0 {
                return err(e.line, "key 'count' expects at least 1");
            }
            c
        }
        None => 1,
    };

    Ok((
        StationConfig {
            link,
            flows,
            weight,
        },
        compile_placement(doc, t, idx)?,
        count,
    ))
}

/// The rate a placement pins to when `auto_rate` is off: the station's
/// declared link rate (geometry links pin their initial rate).
fn pinned_rate(link: &LinkSpec) -> DataRate {
    match link {
        LinkSpec::Fixed { rate, .. } => *rate,
        LinkSpec::Path { initial_rate, .. } => *initial_rate,
    }
}

fn parse_rate_set(e: &Entry) -> Result<RateSet, CompileError> {
    match want_str(e)? {
        "b" => Ok(RateSet::B),
        "g" => Ok(RateSet::G),
        "a" => Ok(RateSet::A),
        other => err(
            e.line,
            format!("unknown rate_set '{other}'; expected b, g, or a"),
        ),
    }
}

/// Compiles `[[cells]]` + `[topology]` into a [`TopologyConfig`], or
/// `None` for a single-cell scenario. `cfg` must be the finished
/// template (it is cloned into `topo.base`).
fn compile_topology(
    doc: &Doc,
    cfg: &NetworkConfig,
    placements: &[PlacementDecl],
) -> Result<Option<TopologyConfig>, CompileError> {
    let cell_tables = doc.array_tables("cells");
    if cell_tables.is_empty() {
        if let Some(t) = doc.table("topology") {
            return err(t.line, "[topology] requires at least one [[cells]] table");
        }
        if let Some(line) = placements.iter().find_map(|p| p.used_at) {
            return err(
                line,
                "station placement (x_ft/y_ft/auto_rate/[[station.mobility]]) requires [[cells]] tables",
            );
        }
        return Ok(None);
    }

    let mut cells = Vec::with_capacity(cell_tables.len());
    for t in &cell_tables {
        check_keys(t, "cells", CELLS_KEYS)?;
        let x = match t.get("x_ft") {
            Some(e) => want_f64(e)?,
            None => 0.0,
        };
        let y = match t.get("y_ft") {
            Some(e) => want_f64(e)?,
            None => 0.0,
        };
        let channel = match t.get("channel") {
            Some(e) => {
                let c = want_u64(e)?;
                if c == 0 || c > 255 {
                    return err(e.line, "key 'channel' expects a channel number in 1..=255");
                }
                c as u8
            }
            None => 1,
        };
        cells.push(CellSpec {
            position: Point::new(x, y),
            channel,
        });
    }

    let mut rate_set = RateSet::B;
    let mut hysteresis_db = 6.0;
    let mut min_rssi_dbm = None;
    let mut assoc_tick = SimDuration::from_millis(100);
    if let Some(t) = doc.table("topology") {
        check_keys(t, "topology", TOPOLOGY_KEYS)?;
        if let Some(e) = t.get("rate_set") {
            rate_set = parse_rate_set(e)?;
        }
        if let Some(e) = t.get("hysteresis_db") {
            let h = want_f64(e)?;
            if h < 0.0 || !h.is_finite() {
                return err(e.line, "key 'hysteresis_db' expects a non-negative margin");
            }
            hysteresis_db = h;
        }
        if let Some(e) = t.get("min_rssi_dbm") {
            let m = want_f64(e)?;
            if !m.is_finite() {
                return err(e.line, "key 'min_rssi_dbm' expects a finite dBm value");
            }
            min_rssi_dbm = Some(m);
        }
        if let Some(e) = t.get("assoc_tick_ms") {
            let tick = duration_millis(e)?;
            if tick.is_zero() {
                return err(e.line, "key 'assoc_tick_ms' expects a positive period");
            }
            assoc_tick = tick;
        }
    }

    let placements = placements
        .iter()
        .zip(&cfg.stations)
        .map(|(d, st)| Placement {
            position: Point::new(d.x, d.y),
            mobility: d.mobility.clone(),
            rate: if d.auto_rate {
                RatePolicy::Auto
            } else {
                RatePolicy::Pinned(pinned_rate(&st.link))
            },
        })
        .collect();

    Ok(Some(TopologyConfig {
        base: cfg.clone(),
        cells,
        placements,
        rate_set,
        hysteresis_db,
        min_rssi_dbm: min_rssi_dbm.unwrap_or_else(|| rate_set.association_floor_dbm()),
        assoc_tick,
    }))
}

fn compile_check(doc: &Doc) -> Result<CheckSpec, CompileError> {
    let Some(t) = doc.table("check") else {
        return Ok(CheckSpec::default());
    };
    check_keys(t, "check", CHECK_KEYS)?;
    let mut check = CheckSpec::default();
    if let Some(e) = t.get("property") {
        check.property = match want_str(e)? {
            "auto" => CheckProperty::Auto,
            "airtime_fair" => CheckProperty::AirtimeFair,
            "throughput_fair" => CheckProperty::ThroughputFair,
            "none" => CheckProperty::None,
            other => {
                return err(
                    e.line,
                    format!(
                        "unknown property '{other}'; expected auto, airtime_fair, throughput_fair, or none"
                    ),
                )
            }
        };
    }
    if let Some(e) = t.get("tolerance") {
        let tol = want_f64(e)?;
        if !(0.0..=1.0).contains(&tol) {
            return err(e.line, "key 'tolerance' expects a fraction in [0, 1]");
        }
        check.tolerance = tol;
    }
    if let Some(e) = t.get("strict") {
        check.strict = want_bool(e)?;
    }
    Ok(check)
}

/// Section names the compiler understands; anything else in a header is
/// an error.
const KNOWN_TABLES: &[&str] = &[
    "scheduler",
    "check",
    "sweep",
    "station",
    "topology",
    "cells",
    "tournament",
];

/// Compiles a parsed document into a [`ScenarioSpec`]. The `[sweep]`
/// table, if any, is ignored here — [`crate::sweep::expand`] consumes
/// it before compiling each job.
pub fn compile(doc: &Doc) -> Result<ScenarioSpec, CompileError> {
    for t in &doc.tables {
        if !KNOWN_TABLES.contains(&t.path[0].as_str()) {
            return err(
                t.line,
                format!(
                    "unknown section [{}]; expected one of: {}",
                    t.path.join("."),
                    KNOWN_TABLES.join(", ")
                ),
            );
        }
        if t.path.len() > 2
            || (t.path.len() == 2
                && (t.path[0] != "station" || (t.path[1] != "flow" && t.path[1] != "mobility")))
        {
            return err(
                t.line,
                format!(
                    "unknown section [{}]; nested tables are only [[station.flow]] and [[station.mobility]]",
                    t.path.join(".")
                ),
            );
        }
        if (t.path[0] == "station" || t.path[0] == "cells") && t.path.len() == 1 && !t.array {
            let name = &t.path[0];
            return err(
                t.line,
                format!("{name} tables are declared as [[{name}]] (double brackets)"),
            );
        }
    }

    let root = Table {
        path: Vec::new(),
        array: false,
        line: 1,
        entries: doc.root.clone(),
    };
    check_keys(&root, "root", ROOT_KEYS)?;

    let name = match doc.get("name") {
        Some(e) => want_str(e)?.to_string(),
        None => "scenario".to_string(),
    };
    let default_direction = match doc.get("direction") {
        Some(e) => parse_direction(e)?,
        None => Direction::Uplink,
    };

    let station_tables = doc.array_tables("station");
    // A [tournament] scenario populates its stations from the rate
    // mixes, so the base file may legitimately declare none.
    if station_tables.is_empty() && doc.table("tournament").is_none() {
        return err(
            1,
            "scenario declares no [[station]] tables; at least one is required",
        );
    }
    let mut stations = Vec::new();
    let mut placements = Vec::new();
    for (i, t) in station_tables.iter().enumerate() {
        let (st, place, count) = compile_station(doc, t, i, default_direction)?;
        for _ in 0..count {
            stations.push(st.clone());
            placements.push(place.clone());
        }
    }
    if let Some(e) = doc.get("station_count") {
        let n = want_u64(e)? as usize;
        if n == 0 {
            return err(e.line, "key 'station_count' expects at least 1");
        }
        // Replicate the declared list cyclically to exactly n stations
        // (so a sweep over station_count grows a homogeneous or
        // repeating-pattern cell). Placements replicate in lockstep.
        let declared = stations.clone();
        let declared_places = placements.clone();
        stations = (0..n)
            .map(|i| declared[i % declared.len()].clone())
            .collect();
        placements = (0..n)
            .map(|i| declared_places[i % declared_places.len()].clone())
            .collect();
    }

    let scheduler = compile_scheduler(doc)?;
    let mut cfg = NetworkConfig::new(stations, scheduler);

    if let Some(e) = doc.get("seed") {
        cfg.seed = want_u64(e)?;
    }
    if let Some(e) = doc.get("duration_s") {
        cfg.duration = duration_secs(e)?;
        if cfg.duration.is_zero() {
            return err(e.line, "key 'duration_s' expects a positive duration");
        }
    }
    if let Some(e) = doc.get("warmup_s") {
        cfg.warmup = duration_secs(e)?;
    }
    if cfg.warmup >= cfg.duration {
        return match (doc.get("warmup_s"), doc.get("duration_s")) {
            (Some(e), _) => err(e.line, "warmup_s must be smaller than duration_s"),
            (None, d) => err(
                d.map_or(1, |e| e.line),
                format!(
                    "duration_s must exceed the default warm-up of {} s (or set warmup_s)",
                    cfg.warmup.as_secs_f64()
                ),
            ),
        };
    }
    if let Some(e) = doc.get("wired_delay_ms") {
        cfg.wired_delay = duration_millis(e)?;
    }
    if let Some(e) = doc.get("client_queue_cap") {
        cfg.client_queue_cap = want_u64(e)? as usize;
    }
    if let Some(e) = doc.get("uplink_retry_info") {
        cfg.uplink_retry_info = want_bool(e)?;
    }
    if let Some(e) = doc.get("uplink_loss_estimator") {
        cfg.uplink_loss_estimator = want_bool(e)?;
    }
    if let Some(e) = doc.get("client_cooperation") {
        cfg.client_cooperation = want_bool(e)?;
    }
    if let Some(e) = doc.get("retry_rate_fallback") {
        cfg.retry_rate_fallback = want_bool(e)?;
    }
    if let Some(e) = doc.get("record_trace") {
        cfg.record_trace = want_bool(e)?;
    }
    if let Some(e) = doc.get("rts_threshold") {
        cfg.rts_threshold = Some(want_u64(e)?);
    }
    if let Some(e) = doc.get("regulate") {
        cfg.regulate = match want_str(e)? {
            "station" => Regulate::PerStation,
            "flow" => Regulate::PerFlow,
            other => {
                return err(
                    e.line,
                    format!("unknown regulate '{other}'; expected station or flow"),
                )
            }
        };
    }
    // Geometry links need the multi-rate retry chain the real EXP-1
    // cards used; switch it on automatically like scenarios::exp1_office.
    if cfg
        .stations
        .iter()
        .any(|s| matches!(s.link, LinkSpec::Path { .. }))
    {
        cfg.retry_rate_fallback = true;
    }

    let rate_labels = cfg
        .stations
        .iter()
        .map(|s| match &s.link {
            LinkSpec::Fixed { rate, .. } => rate.to_string(),
            LinkSpec::Path { .. } => "path".to_string(),
        })
        .collect();

    let check = compile_check(doc)?;
    let topo = compile_topology(doc, &cfg, &placements)?;

    Ok(ScenarioSpec {
        name,
        cfg,
        check,
        rate_labels,
        topo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml::parse;

    fn compile_text(text: &str) -> Result<ScenarioSpec, CompileError> {
        compile(&parse(text).unwrap())
    }

    #[test]
    fn minimal_scenario_compiles_with_defaults() {
        let spec = compile_text("[[station]]\nrate = \"11\"\n").unwrap();
        assert_eq!(spec.name, "scenario");
        assert_eq!(spec.cfg.stations.len(), 1);
        assert!(matches!(spec.cfg.scheduler, SchedulerKind::Tbr(_)));
        assert_eq!(spec.rate_labels, vec!["11M"]);
        assert_eq!(spec.cfg.seed, 1);
    }

    #[test]
    fn full_scenario_compiles() {
        let spec = compile_text(
            r#"
name = "demo"
seed = 9
duration_s = 12.5
warmup_s = 2
direction = "down"

[scheduler]
kind = "tbr"
bucket_ms = 10
fill_period_ms = 1

[[station]]
rate = "11"
weight = 2.0

[[station]]
rate = "5.5"
fer = 0.02
transport = "udp"
direction = "up"

[check]
property = "airtime_fair"
tolerance = 0.1
strict = true
"#,
        )
        .unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.cfg.seed, 9);
        assert_eq!(spec.cfg.duration.as_secs_f64(), 12.5);
        assert_eq!(spec.cfg.stations[0].weight, 2.0);
        assert_eq!(spec.cfg.stations[1].flows[0].transport, Transport::Udp);
        assert_eq!(spec.cfg.stations[1].flows[0].direction, Direction::Uplink);
        assert_eq!(spec.cfg.stations[0].flows[0].direction, Direction::Downlink);
        match &spec.cfg.scheduler {
            SchedulerKind::Tbr(c) => {
                assert_eq!(c.bucket, SimDuration::from_millis(10));
                assert_eq!(c.fill_period, SimDuration::from_millis(1));
            }
            other => panic!("wrong scheduler {other:?}"),
        }
        assert_eq!(spec.check.property, CheckProperty::AirtimeFair);
        assert!(spec.check.strict);
    }

    #[test]
    fn pf_and_maxmin_schedulers_compile() {
        let spec = compile_text(
            "[scheduler]\nkind = \"pf\"\nbeta = 0.01\ntotal_buffer = 200\n[[station]]\nrate = \"11\"\n",
        )
        .unwrap();
        match &spec.cfg.scheduler {
            SchedulerKind::Pf(c) => {
                assert_eq!(c.beta, 0.01);
                assert_eq!(c.total_buffer, 200);
            }
            other => panic!("wrong scheduler {other:?}"),
        }
        let spec = compile_text(
            "[scheduler]\nkind = \"maxmin\"\nrate_ewma = 0.5\n[[station]]\nrate = \"11\"\n",
        )
        .unwrap();
        match &spec.cfg.scheduler {
            SchedulerKind::MaxMin(c) => assert_eq!(c.rate_ewma, 0.5),
            other => panic!("wrong scheduler {other:?}"),
        }
        // Out-of-range tunables are rejected with the offending line.
        let e =
            compile_text("[scheduler]\nkind = \"pf\"\nbeta = 1.5\n[[station]]\nrate = \"11\"\n")
                .unwrap_err();
        assert!(e.msg.contains("beta must be in (0, 1]"), "{}", e.msg);
        assert_eq!(e.line, 3);
        // The unknown-family diagnostic lists the whole registry.
        let e =
            compile_text("[scheduler]\nkind = \"lifo\"\n[[station]]\nrate = \"11\"\n").unwrap_err();
        assert!(
            e.msg
                .contains("expected one of fifo, rr, drr, tbr, txop, pf, maxmin"),
            "{}",
            e.msg
        );
        assert_eq!(e.line, 2);
    }

    #[test]
    fn explicit_flows_and_station_count() {
        let spec = compile_text(
            r#"
station_count = 3
[[station]]
rate = "11"
[[station.flow]]
transport = "tcp"
task_bytes = 1000
[[station.flow]]
transport = "udp"
direction = "down"
"#,
        )
        .unwrap();
        assert_eq!(spec.cfg.stations.len(), 3);
        assert_eq!(spec.cfg.stations[0].flows.len(), 2);
        assert_eq!(spec.cfg.stations[0].flows[0].task_bytes, Some(1000));
        assert_eq!(spec.cfg.stations[2].flows[1].transport, Transport::Udp);
    }

    #[test]
    fn geometry_links_compile() {
        let spec = compile_text(
            "[[station]]\ndistance_ft = 26\nwalls = [\"thin_wood\", \"thick\"]\nshadow_db = 3.0\n",
        )
        .unwrap();
        assert!(matches!(spec.cfg.stations[0].link, LinkSpec::Path { .. }));
        assert!(spec.cfg.retry_rate_fallback);
        assert_eq!(spec.rate_labels, vec!["path"]);
    }

    #[test]
    fn topology_scenario_compiles() {
        let spec = compile_text(
            r#"
duration_s = 10
[topology]
hysteresis_db = 4.0
assoc_tick_ms = 50
rate_set = "b"

[[cells]]
x_ft = 0
y_ft = 0
channel = 1

[[cells]]
x_ft = 150
channel = 6

[[station]]
rate = "11"
x_ft = 0
y_ft = 10

[[station]]
rate = "1"
auto_rate = true
[[station.mobility]]
speed_fps = 15
x_ft = [0, 300]
y_ft = [10, 10]
"#,
        )
        .unwrap();
        let topo = spec.topo.expect("topology");
        assert_eq!(topo.cells.len(), 2);
        assert_eq!(topo.cells[1].position.x_ft, 150.0);
        assert_eq!(topo.cells[1].channel, 6);
        assert_eq!(topo.hysteresis_db, 4.0);
        assert_eq!(topo.assoc_tick, SimDuration::from_millis(50));
        assert_eq!(topo.placements.len(), 2);
        assert_eq!(
            topo.placements[0].rate,
            airtime_topo::RatePolicy::Pinned(DataRate::B11)
        );
        assert_eq!(topo.placements[1].rate, airtime_topo::RatePolicy::Auto);
        let path = topo.placements[1].mobility.as_ref().expect("mobility");
        assert_eq!(path.waypoints.len(), 2);
        assert_eq!(topo.base.stations.len(), spec.cfg.stations.len());
        topo.validate();
    }

    #[test]
    fn placements_replicate_with_station_count() {
        let spec = compile_text(
            r#"
station_count = 4
[[cells]]
channel = 1
[[station]]
rate = "11"
x_ft = 30
[[station]]
rate = "1"
x_ft = 60
"#,
        )
        .unwrap();
        let topo = spec.topo.unwrap();
        assert_eq!(topo.placements.len(), 4);
        assert_eq!(topo.placements[0].position.x_ft, 30.0);
        assert_eq!(topo.placements[1].position.x_ft, 60.0);
        assert_eq!(topo.placements[2].position.x_ft, 30.0);
        assert_eq!(topo.placements[3].position.x_ft, 60.0);
    }

    #[test]
    fn single_cell_scenarios_have_no_topology() {
        let spec = compile_text("[[station]]\nrate = \"11\"\n").unwrap();
        assert!(spec.topo.is_none());
    }

    #[test]
    fn topology_rejections() {
        for (text, needle) in [
            (
                "[topology]\nhysteresis_db = 6\n[[station]]\nrate = \"11\"\n",
                "requires at least one [[cells]]",
            ),
            (
                "[[station]]\nrate = \"11\"\nx_ft = 5\n",
                "requires [[cells]]",
            ),
            (
                "[cells]\nchannel = 1\n[[station]]\nrate = \"11\"\n",
                "double brackets",
            ),
            (
                "[[cells]]\nchannel = 0\n[[station]]\nrate = \"11\"\n",
                "channel number in 1..=255",
            ),
            (
                "[[cells]]\nchannel = 1\n[topology]\nrate_set = \"n\"\n[[station]]\nrate = \"11\"\n",
                "unknown rate_set 'n'",
            ),
            (
                "[[cells]]\nchannel = 1\n[[station]]\nrate = \"11\"\n[[station.mobility]]\nspeed_fps = 5\nx_ft = [0, 10]\ny_ft = [0]\n",
                "pairwise",
            ),
            (
                "[[cells]]\nchannel = 1\n[[station]]\nrate = \"11\"\n[[station.mobility]]\nx_ft = [0]\ny_ft = [0]\n",
                "needs 'speed_fps'",
            ),
            (
                "[[cells]]\nchannel = 1\nbogus = 1\n[[station]]\nrate = \"11\"\n",
                "unknown key 'bogus'",
            ),
        ] {
            let e = compile_text(text).unwrap_err();
            assert!(e.msg.contains(needle), "for {text:?}: got '{e}'");
        }
    }

    #[test]
    fn rejection_messages_name_line_and_expectation() {
        for (text, needle) in [
            ("[[station]]\nrate = \"7\"\n", "unknown rate '7'"),
            (
                "[[station]]\nrate = \"11\"\nbogus = 1\n",
                "unknown key 'bogus'",
            ),
            (
                "bogus = 1\n[[station]]\nrate = \"11\"\n",
                "unknown key 'bogus'",
            ),
            ("[typo]\nx = 1\n", "unknown section [typo]"),
            (
                "duration_s = 5\nwarmup_s = 5\n[[station]]\nrate = \"11\"\n",
                "warmup_s must be smaller",
            ),
            (
                "duration_s = 2\n[[station]]\nrate = \"11\"\n",
                "duration_s must exceed the default warm-up of 3 s",
            ),
            (
                "[[station]]\nrate = \"11\"\nfer = 1.5\n",
                "fraction in [0, 1)",
            ),
            (
                "[[station]]\nrate = \"11\"\nweight = 0\n",
                "positive number",
            ),
            (
                "[scheduler]\nkind = \"lifo\"\n[[station]]\nrate = \"11\"\n",
                "unknown scheduler 'lifo'",
            ),
            ("x = 1\n", "unknown key 'x'"),
            (
                "duration_s = 1e300\n[[station]]\nrate = \"11\"\n",
                "at most 86400 seconds",
            ),
            ("[station]\nrate = \"11\"\n", "double brackets"),
            (
                "[scheduler]\nfill_period_ms = 0\n[[station]]\nrate = \"11\"\n",
                "'fill_period_ms' expects milliseconds > 0",
            ),
            (
                "[scheduler]\nkind = \"txop\"\nquantum_ms = 0\n[[station]]\nrate = \"11\"\n",
                "'quantum_ms' expects milliseconds > 0",
            ),
            (
                "[[station]]\nrate = \"11\"\ndistance_ft = 4\n",
                "conflicts with 'distance_ft'",
            ),
        ] {
            let e = compile_text(text).unwrap_err();
            assert!(e.msg.contains(needle), "for {text:?}: got '{e}'");
            assert!(e.line >= 1);
        }
        let e = compile_text("").unwrap_err();
        assert!(e.msg.contains("no [[station]]"), "{e}");
        // An omitted warm-up is blamed on the duration that it outlasts.
        let e = compile_text("seed = 1\nduration_s = 3\n[[station]]\nrate = \"11\"\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
    }
}
