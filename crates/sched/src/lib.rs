//! `airtime-sched` — the pluggable AP fairness-policy subsystem.
//!
//! The paper argues *time-based* regulation (TBR) beats throughput
//! fairness in multi-rate cells, but TBR is one point in the policy
//! space. This crate turns the AP scheduler into a first-class
//! subsystem so contenders can be compared side by side:
//!
//! - [`ApScheduler`] — the one trait every
//!   discipline implements (from `airtime-core`): the paper's event
//!   hooks (associate / enqueue / select / on-tx-complete / tick
//!   coalescing) plus defaulted weighted association and token-state
//!   introspection, so embedders never downcast to a concrete type.
//! - [`SchedulerKind`] — plain-data configuration naming a family and
//!   its tunables; [`SchedulerKind::build`] constructs the boxed
//!   discipline.
//! - [`FAMILIES`] — the single registry of family names shared by the
//!   scenario compiler, the CLI, the tournament runner and the bench
//!   binaries (one list, no drift).
//!
//! Every family lives here. The paper's own disciplines:
//!
//! - [`FifoScheduler`], [`RoundRobinScheduler`], [`DrrScheduler`] — the
//!   throughput-fair baselines ([`baseline`]);
//! - [`TbrScheduler`] — the Time-based Regulator ([`tbr`]);
//! - [`TxopScheduler`] — 802.11e-style channel-time grants ([`txop`]).
//!
//! And two contenders from the literature retrieved in PAPERS.md:
//!
//! - [`PfScheduler`] — proportional fair (Patras et al.; the classic
//!   cellular argmax of `instantaneous rate / β-EWMA average rate`).
//! - [`MaxMinScheduler`] — max-min throughput fairness via
//!   water-filling over per-station *achievable* rates (Leith et al.),
//!   built on [`airtime_core::waterfill_airtime`].
//!
//! Both contenders are tick-free: every state update happens inside an
//! event hook, so dense and coalesced tick modes are trivially
//! bit-identical and the determinism contract holds by construction.

pub mod baseline;
pub mod maxmin;
pub mod pf;
pub mod tbr;
pub mod txop;

use airtime_core::ApScheduler;
pub use baseline::{DrrScheduler, FifoScheduler, RoundRobinScheduler};
pub use maxmin::{MaxMinConfig, MaxMinScheduler};
pub use pf::{PfConfig, PfScheduler};
pub use tbr::{TbrConfig, TbrScheduler};
pub use txop::{TxopConfig, TxopScheduler};

/// Which queue discipline the AP's transmit path runs — plain data; two
/// runs of the same kind are bit-identical.
#[derive(Clone, Debug)]
pub enum SchedulerKind {
    /// Single shared drop-tail queue (stock AP, the paper's Exp-Normal
    /// kernel interface queue).
    Fifo,
    /// Per-client round robin (common AP behaviour, §2.4).
    RoundRobin,
    /// Deficit Round Robin (wired-style fair queuing, citation \[24\]),
    /// weight-aware: each visit grants `weight × quantum` bytes.
    Drr,
    /// The paper's Time-based Regulator (Exp-TBR).
    Tbr(TbrConfig),
    /// TXOP-style channel-time grants (the §4.5 802.11e integration;
    /// downlink-only regulation).
    Txop(TxopConfig),
    /// Proportional fair: serve the backlogged client maximising
    /// `weight × instantaneous rate / β-EWMA average rate`.
    Pf(PfConfig),
    /// Max-min throughput fairness by water-filling one unit of airtime
    /// over per-station achievable rates.
    MaxMin(MaxMinConfig),
}

impl SchedulerKind {
    /// The default Exp-TBR configuration.
    pub fn tbr() -> Self {
        SchedulerKind::Tbr(TbrConfig::default())
    }

    /// The default TXOP-grant configuration.
    pub fn txop() -> Self {
        SchedulerKind::Txop(TxopConfig::default())
    }

    /// The default proportional-fair configuration.
    pub fn pf() -> Self {
        SchedulerKind::Pf(PfConfig::default())
    }

    /// The default max-min waterfilling configuration.
    pub fn maxmin() -> Self {
        SchedulerKind::MaxMin(MaxMinConfig::default())
    }

    /// The family name this kind belongs to (a [`FAMILIES`] entry).
    pub fn family(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::RoundRobin => "rr",
            SchedulerKind::Drr => "drr",
            SchedulerKind::Tbr(_) => "tbr",
            SchedulerKind::Txop(_) => "txop",
            SchedulerKind::Pf(_) => "pf",
            SchedulerKind::MaxMin(_) => "maxmin",
        }
    }

    /// The default configuration of the named family, or `None` for an
    /// unknown name. The accepted names are exactly [`FAMILIES`].
    pub fn from_family(name: &str) -> Option<Self> {
        FAMILIES
            .iter()
            .find(|f| f.name == name)
            .map(|f| (f.default_kind)())
    }

    /// Constructs the discipline this kind describes.
    pub fn build(&self) -> Box<dyn ApScheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(FifoScheduler::default()),
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::default()),
            SchedulerKind::Drr => Box::new(DrrScheduler::default()),
            SchedulerKind::Tbr(c) => Box::new(TbrScheduler::new(*c)),
            SchedulerKind::Txop(c) => Box::new(TxopScheduler::new(*c)),
            SchedulerKind::Pf(c) => Box::new(PfScheduler::new(*c)),
            SchedulerKind::MaxMin(c) => Box::new(MaxMinScheduler::new(*c)),
        }
    }
}

/// One entry of the scheduler-family registry.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    /// The name scenario files, the CLI and the tournament use.
    pub name: &'static str,
    /// One-line description for help text and docs.
    pub summary: &'static str,
    /// Whether the family targets equal *airtime* shares (vs equal
    /// throughput) for saturated equal-weight clients — what the
    /// baseline-property check asserts.
    pub time_fair: bool,
    /// Builds the family's default configuration.
    pub default_kind: fn() -> SchedulerKind,
}

/// Every scheduler family, in canonical order. This is the single
/// source of truth: the scenario compiler, `airtime-cli --sched`, the
/// `[tournament]` runner and the ablation bench all enumerate it.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "fifo",
        summary: "single shared drop-tail queue (stock AP)",
        time_fair: false,
        default_kind: || SchedulerKind::Fifo,
    },
    Family {
        name: "rr",
        summary: "per-client packet round robin",
        time_fair: false,
        default_kind: || SchedulerKind::RoundRobin,
    },
    Family {
        name: "drr",
        summary: "deficit round robin, weight-aware byte fairness",
        time_fair: false,
        default_kind: || SchedulerKind::Drr,
    },
    Family {
        name: "tbr",
        summary: "time-based regulator (the paper's Exp-TBR)",
        time_fair: true,
        default_kind: SchedulerKind::tbr,
    },
    Family {
        name: "txop",
        summary: "802.11e TXOP-style channel-time grants",
        time_fair: true,
        default_kind: SchedulerKind::txop,
    },
    Family {
        name: "pf",
        summary: "proportional fair (argmax rate / beta-EWMA average)",
        time_fair: true,
        default_kind: SchedulerKind::pf,
    },
    Family {
        name: "maxmin",
        summary: "max-min waterfilling over achievable rates",
        time_fair: false,
        default_kind: SchedulerKind::maxmin,
    },
];

/// The comma-separated family list for diagnostics
/// (`"fifo, rr, drr, tbr, txop, pf, maxmin"`).
pub fn family_names() -> String {
    FAMILIES
        .iter()
        .map(|f| f.name)
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use airtime_core::{ClientId, EnqueueOutcome, QueuedPacket};
    use airtime_sim::{SimDuration, SimTime};

    #[test]
    fn registry_round_trips_through_kind() {
        for fam in FAMILIES {
            let kind = SchedulerKind::from_family(fam.name)
                .unwrap_or_else(|| panic!("registry family '{}' has no kind", fam.name));
            assert_eq!(kind.family(), fam.name);
            // Every registered family constructs a live discipline.
            let mut s = kind.build();
            s.on_associate(ClientId(0), SimTime::ZERO);
            assert_eq!(s.backlog(), 0);
        }
        assert!(SchedulerKind::from_family("lifo").is_none());
    }

    #[test]
    fn family_names_lists_all() {
        let names = family_names();
        for fam in FAMILIES {
            assert!(names.contains(fam.name));
        }
        assert_eq!(names, "fifo, rr, drr, tbr, txop, pf, maxmin");
    }

    #[test]
    fn weighted_associate_reaches_every_family() {
        // The trait-level weighted associate must be accepted by every
        // family (unweighted ones ignore the weight).
        for fam in FAMILIES {
            let mut s = SchedulerKind::from_family(fam.name).unwrap().build();
            s.on_associate_weighted(ClientId(0), 2.0, SimTime::ZERO);
            s.on_associate_weighted(ClientId(1), 1.0, SimTime::ZERO);
            let now = SimTime::ZERO;
            s.enqueue(
                QueuedPacket {
                    client: ClientId(0),
                    handle: 1,
                    bytes: 1500,
                },
                now,
            );
            assert!(s.backlog() > 0);
        }
    }

    #[test]
    fn every_family_keeps_the_queue_contract() {
        // Three clients offered more than any family's buffer budget,
        // then one disassociation and a full drain. A model of what was
        // accepted checks every answer the embedder relies on.
        let airtime = SimDuration::from_micros(1617);
        for fam in FAMILIES {
            let name = fam.name;
            let mut s = SchedulerKind::from_family(name).unwrap().build();
            let mut now = SimTime::ZERO;
            let clients = [ClientId(0), ClientId(1), ClientId(2)];
            for &c in &clients {
                s.on_associate(c, now);
            }
            // Token families may hold a backlog while nothing is eligible.
            let token_family = s.token_balance_ns(ClientId(0)).is_some();
            let shared_queue = name == "fifo";
            let check_lengths = |s: &dyn ApScheduler| {
                let lens: Vec<usize> = clients.iter().map(|&c| s.queue_len(c)).collect();
                if shared_queue {
                    assert!(lens.iter().all(|&l| l == s.backlog()), "{name}: {lens:?}");
                } else {
                    assert_eq!(s.backlog(), lens.iter().sum::<usize>(), "{name}");
                }
            };

            let mut buffered: Vec<Vec<u64>> = vec![Vec::new(); clients.len()];
            let mut rejected = 0;
            for h in 0..150u64 {
                let c = (h % 3) as usize;
                let pkt = QueuedPacket {
                    client: clients[c],
                    handle: h,
                    bytes: 1500,
                };
                match s.enqueue(pkt, now) {
                    EnqueueOutcome::Accepted => buffered[c].push(h),
                    EnqueueOutcome::Dropped => rejected += 1,
                }
            }
            assert!(rejected > 0, "{name}: 150 packets fit the buffer");
            assert_eq!(s.drops(), rejected, "{name}: drops vs rejections");
            check_lengths(s.as_ref());

            let before = s.backlog();
            let mut flushed: Vec<u64> = s
                .on_disassociate(clients[1], now)
                .iter()
                .map(|p| {
                    assert_eq!(p.client, clients[1], "{name}: flushed a stranger");
                    p.handle
                })
                .collect();
            flushed.sort_unstable();
            assert_eq!(flushed, buffered[1], "{name}: flushed packets");
            assert_eq!(s.backlog(), before - flushed.len(), "{name}: backlog");
            buffered[1].clear();
            check_lengths(s.as_ref());

            for _ in 0..10_000 {
                if s.backlog() == 0 {
                    break;
                }
                let eligible = s.has_eligible(now);
                let got = s.dequeue(now);
                if !token_family {
                    assert_eq!(eligible, got.is_some(), "{name}: has_eligible");
                }
                match got {
                    Some(p) => {
                        let model = &mut buffered[p.client.index()];
                        let at = model.iter().position(|&h| h == p.handle);
                        model.remove(at.expect("dequeued a packet never accepted"));
                        now += airtime;
                        s.on_complete(p.client, airtime, true, now);
                    }
                    None => {
                        // Blocked on tokens: let the refill timer run.
                        now += s.tick_period().expect("a blocked family ticks");
                        s.on_tick(now);
                    }
                }
                check_lengths(s.as_ref());
            }
            assert_eq!(s.backlog(), 0, "{name}: drain stalled");
            assert!(buffered.iter().all(Vec::is_empty), "{name}: lost packets");
            assert!(!s.has_eligible(now), "{name}: eligible when empty");
            assert!(s.dequeue(now).is_none(), "{name}: dequeued from nothing");
        }
    }

    #[test]
    fn token_introspection_is_tbr_only() {
        let now = SimTime::ZERO;
        for fam in FAMILIES {
            let mut s = SchedulerKind::from_family(fam.name).unwrap().build();
            s.on_associate(ClientId(0), now);
            let has_tokens = s.token_balance_ns(ClientId(0)).is_some();
            assert_eq!(has_tokens, fam.name == "tbr", "family {}", fam.name);
        }
        // And the boxed TBR balance matches the concrete scheduler's.
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        tbr.on_associate_weighted(ClientId(0), 1.0, now);
        let mut boxed = SchedulerKind::tbr().build();
        boxed.on_associate_weighted(ClientId(0), 1.0, now);
        assert_eq!(
            tbr.token_balance_ns(ClientId(0)),
            boxed.token_balance_ns(ClientId(0))
        );
        assert_eq!(
            tbr.token_balance_ns(ClientId(0)),
            Some(TbrConfig::default().initial_tokens.as_nanos() as f64)
        );
    }
}
