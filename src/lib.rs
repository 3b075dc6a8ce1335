//! # Airtime — time-based fairness for multi-rate WLANs
//!
//! A from-scratch Rust reproduction of *Tan & Guttag, "Time-based
//! Fairness Improves Performance in Multi-rate WLANs"* (USENIX ATC
//! 2004): the **TBR** (Time-based Regulator) airtime scheduler, the
//! analytic fairness framework of the paper's §2, and the complete
//! 802.11b/g testbed it was evaluated on — rebuilt as a deterministic
//! discrete-event simulator.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `airtime-sim` | event queue, simulated time, RNG, statistics |
//! | [`phy`] | `airtime-phy` | 802.11b/g rates, frame airtime math, path loss, BER, ARF/AARF |
//! | [`mac`] | `airtime-mac` | DCF CSMA/CA, collisions, retries, airtime accounting |
//! | [`net`] | `airtime-net` | ack-clocked TCP Reno/NewReno, UDP, rate limiting |
//! | [`core`] | `airtime-core` | the `ApScheduler` contract, per-client queue pool, buffer policies, fairness metrics |
//! | [`sched`] | `airtime-sched` | every scheduler family (**TBR**, FIFO/RR/DRR, TXOP, PF, max-min) and the family registry |
//! | [`model`] | `airtime-model` | Equations 4–13, γ models, Bianchi, task model |
//! | [`trace`] | `airtime-trace` | trace synthesis + Figure 1/5 analyses |
//! | [`wlan`] | `airtime-wlan` | the integrated experiment engine and scenarios |
//! | [`obs`] | `airtime-obs` | structured event tracing, metrics registry, JSONL/CSV tools |
//! | [`topo`] | `airtime-topo` | multi-cell topologies: AP placement, mobility, association/handoff |
//! | [`scenario`] | `airtime-scenario` | declarative scenario files, sweeps, parallel execution |
//! | [`bench`](mod@bench) | `airtime-bench` | paper table/figure binaries and their shared output sink |
//!
//! # Quickstart
//!
//! ```
//! use airtime::wlan::{run, scenarios, SchedulerKind};
//! use airtime::phy::DataRate;
//! use airtime::sim::SimDuration;
//!
//! // Two uploaders, 11 vs 1 Mbit/s, on a stock AP — the multi-rate
//! // anomaly — then the same cell with TBR.
//! let mut normal = scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::Fifo);
//! normal.duration = SimDuration::from_secs(10);
//! let mut fair = normal.clone();
//! fair.scheduler = SchedulerKind::tbr();
//!
//! let before = run(&normal);
//! let after = run(&fair);
//! assert!(after.total_goodput_mbps > 1.5 * before.total_goodput_mbps);
//! ```

pub use airtime_bench as bench;
pub use airtime_core as core;
pub use airtime_mac as mac;
pub use airtime_model as model;
pub use airtime_net as net;
pub use airtime_obs as obs;
pub use airtime_phy as phy;
pub use airtime_scenario as scenario;
pub use airtime_sched as sched;
pub use airtime_sim as sim;
pub use airtime_topo as topo;
pub use airtime_trace as trace;
pub use airtime_wlan as wlan;
