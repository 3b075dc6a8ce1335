//! A PCF-style polled MAC — no contention at all.
//!
//! The paper claims TBR "works in conjunction with any MAC protocol"
//! and specifically that with a polling MAC "no explicit communication
//! is necessary since TBR can dictate which node gets polled" (§4.1).
//! [`PolledWorld`] makes that claim testable: the AP is the only
//! initiator; it either transmits a downlink frame or polls one
//! station, which answers with its head-of-queue uplink frame (or a
//! short null frame). Transactions are SIFS-separated as in a
//! contention-free period; there is no backoff and there are no
//! collisions.
//!
//! The *choice* of what to do next — which station to poll, which
//! downlink frame to send — belongs entirely to the embedder, which is
//! exactly where an airtime scheduler slots in. The
//! `polled_tbr` integration test drives this world from a
//! [`airtime-sched` TBR](../airtime_sched/tbr/index.html)-style token state
//! and demonstrates time-based fairness without DCF.
//!
//! Losses: a corrupted data frame is reported as a failed attempt and
//! the frame is dropped (upper layers recover); the polled MAC does
//! not retry internally. This keeps the model minimal — the claim
//! under test is about scheduling, not loss recovery.

use airtime_phy::LinkErrorModel;
use airtime_sim::{SimDuration, SimRng, SimTime};

use crate::dcf::{MacEffect, MacEvent};
use crate::frame::{Frame, FrameOutcome, NodeId};

/// Size of a CF-POLL frame in bytes.
pub const POLL_FRAME_BYTES: u64 = 20;

/// Size of a null (no data) response in bytes.
pub const NULL_FRAME_BYTES: u64 = 14;

/// Configuration for a [`PolledWorld`].
#[derive(Clone, Copy, Debug)]
pub struct PolledConfig {
    /// PHY timing parameters (SIFS and frame airtime math).
    pub phy: airtime_phy::Phy80211b,
    /// The polling AP.
    pub ap: NodeId,
}

/// The contention-free polled medium.
pub struct PolledWorld {
    config: PolledConfig,
    links: Vec<LinkErrorModel>,
    /// One pending uplink frame per station, released when polled.
    uplink: Vec<Option<Frame>>,
    rng: SimRng,
    busy_until: Option<SimTime>,
    in_flight: Option<(Frame, bool, SimDuration)>,
    occupancy: Vec<SimDuration>,
    busy_accum: SimDuration,
}

impl PolledWorld {
    /// Creates a polled world of `links.len()` stations.
    ///
    /// # Panics
    ///
    /// Panics if the AP index is out of range.
    pub fn new(config: PolledConfig, links: Vec<LinkErrorModel>, rng: SimRng) -> Self {
        assert!(config.ap.index() < links.len(), "AP index out of range");
        let n = links.len();
        PolledWorld {
            config,
            links,
            uplink: (0..n).map(|_| None).collect(),
            rng,
            busy_until: None,
            in_flight: None,
            occupancy: vec![SimDuration::ZERO; n],
            busy_accum: SimDuration::ZERO,
        }
    }

    /// True when the medium is free for the AP's next action.
    pub fn is_idle(&self, now: SimTime) -> bool {
        self.busy_until.is_none_or(|t| now >= t)
    }

    /// Station `node` stages its next uplink frame, to be released at
    /// the AP's next poll. Returns false (frame refused) if one is
    /// already staged.
    pub fn stage_uplink(&mut self, frame: Frame) -> bool {
        let slot = frame.src.index();
        if self.uplink[slot].is_some() {
            return false;
        }
        self.uplink[slot] = Some(frame);
        true
    }

    /// True when `node` has a staged uplink frame awaiting a poll.
    pub fn has_uplink(&self, node: NodeId) -> bool {
        self.uplink[node.index()].is_some()
    }

    /// Channel occupancy attributed to client `node` so far.
    pub fn occupancy(&self, node: NodeId) -> SimDuration {
        self.occupancy[node.index()]
    }

    /// Total medium busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_accum
    }

    /// AP transmits a downlink `frame` (must be idle).
    ///
    /// # Panics
    ///
    /// Panics if the medium is busy or the frame is not from the AP.
    pub fn send_downlink(&mut self, now: SimTime, frame: Frame) -> Vec<MacEffect> {
        assert!(self.is_idle(now), "medium busy");
        assert_eq!(
            frame.src, self.config.ap,
            "downlink frames come from the AP"
        );
        let phy = self.config.phy;
        let span = phy.data_tx_time_default(frame.msdu_bytes, frame.rate)
            + phy.sifs
            + phy.ack_tx_time(frame.rate)
            + phy.sifs;
        self.begin(now, frame, span, frame.dst.index())
    }

    /// AP polls `node` (must be idle). If the station has a staged
    /// frame it is transmitted; otherwise a short null response is
    /// sent. Either way the poll's airtime is charged to the client.
    ///
    /// # Panics
    ///
    /// Panics if the medium is busy or `node` is the AP itself.
    pub fn poll(&mut self, now: SimTime, node: NodeId) -> Vec<MacEffect> {
        assert!(self.is_idle(now), "medium busy");
        assert_ne!(node, self.config.ap, "the AP does not poll itself");
        let phy = self.config.phy;
        let slot = node.index();
        match self.uplink[slot].take() {
            Some(frame) => {
                let span = phy.rts_tx_time(frame.rate) // poll ≈ short control frame
                    + phy.sifs
                    + phy.data_tx_time_default(frame.msdu_bytes, frame.rate)
                    + phy.sifs
                    + phy.ack_tx_time(frame.rate)
                    + phy.sifs;
                self.begin(now, frame, span, slot)
            }
            None => {
                // Poll + null response: pure overhead, charged to the
                // polled client (it consumed the poll opportunity).
                let rate = airtime_phy::DataRate::B2;
                let span = phy.rts_tx_time(rate) + phy.sifs + phy.ack_tx_time(rate) + phy.sifs;
                self.occupancy[slot] += span;
                self.busy_accum += span;
                let end = now + span;
                self.busy_until = Some(end);
                vec![MacEffect::Schedule {
                    at: end,
                    event: MacEvent::TxEnd,
                }]
            }
        }
    }

    fn begin(
        &mut self,
        now: SimTime,
        frame: Frame,
        span: SimDuration,
        client: usize,
    ) -> Vec<MacEffect> {
        let link = self.links[client];
        let on_air = frame.msdu_bytes + airtime_phy::timing::MAC_DATA_OVERHEAD_BYTES;
        let lost = self.rng.chance(link.data_fer(frame.rate, on_air));
        self.occupancy[client] += span;
        self.busy_accum += span;
        let end = now + span;
        self.busy_until = Some(end);
        self.in_flight = Some((frame, lost, span));
        vec![MacEffect::Schedule {
            at: end,
            event: MacEvent::TxEnd,
        }]
    }

    /// Delivers a due event (only [`MacEvent::TxEnd`] is meaningful).
    pub fn handle(&mut self, now: SimTime, event: MacEvent) -> Vec<MacEffect> {
        let mut effects = Vec::new();
        if event == MacEvent::TxEnd {
            self.busy_until = None;
            if let Some((frame, lost, span)) = self.in_flight.take() {
                let _ = now;
                effects.push(MacEffect::Attempt {
                    frame,
                    success: !lost,
                    collision: false,
                    airtime: span,
                    retry: 0,
                });
                if lost {
                    effects.push(MacEffect::TxFinal {
                        frame,
                        outcome: FrameOutcome::Dropped,
                        airtime_total: span,
                    });
                } else {
                    effects.push(MacEffect::Delivered { frame });
                    effects.push(MacEffect::TxFinal {
                        frame,
                        outcome: FrameOutcome::Delivered,
                        airtime_total: span,
                    });
                }
            }
        }
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airtime_phy::{DataRate, Phy80211b};

    const AP: NodeId = NodeId(0);

    fn world(n: usize) -> PolledWorld {
        PolledWorld::new(
            PolledConfig {
                phy: Phy80211b::default(),
                ap: AP,
            },
            vec![LinkErrorModel::Perfect; n],
            SimRng::new(5),
        )
    }

    fn frame(src: usize, dst: usize, rate: DataRate) -> Frame {
        Frame {
            src: NodeId(src),
            dst: NodeId(dst),
            msdu_bytes: 1500,
            rate,
            handle: 0,
        }
    }

    #[test]
    fn downlink_transaction_delivers_and_charges_client() {
        let mut w = world(2);
        let fx = w.send_downlink(SimTime::ZERO, frame(0, 1, DataRate::B11));
        let end = match fx[0] {
            MacEffect::Schedule { at, .. } => at,
            _ => panic!("expected schedule"),
        };
        assert!(!w.is_idle(SimTime::ZERO));
        let fx = w.handle(end, MacEvent::TxEnd);
        assert!(w.is_idle(end));
        assert!(matches!(fx[1], MacEffect::Delivered { .. }));
        assert!(w.occupancy(NodeId(1)) > SimDuration::ZERO);
        assert_eq!(w.occupancy(AP), SimDuration::ZERO);
    }

    #[test]
    fn poll_releases_staged_uplink_frame() {
        let mut w = world(2);
        assert!(w.stage_uplink(frame(1, 0, DataRate::B1)));
        assert!(!w.stage_uplink(frame(1, 0, DataRate::B1)), "one at a time");
        assert!(w.has_uplink(NodeId(1)));
        let fx = w.poll(SimTime::ZERO, NodeId(1));
        let end = match fx[0] {
            MacEffect::Schedule { at, .. } => at,
            _ => panic!("expected schedule"),
        };
        let fx = w.handle(end, MacEvent::TxEnd);
        assert!(matches!(fx[1], MacEffect::Delivered { frame } if frame.src == NodeId(1)));
        assert!(!w.has_uplink(NodeId(1)));
    }

    #[test]
    fn polling_an_empty_station_costs_a_null_exchange() {
        let mut w = world(2);
        let before = w.occupancy(NodeId(1));
        let fx = w.poll(SimTime::ZERO, NodeId(1));
        assert_eq!(fx.len(), 1);
        assert!(w.occupancy(NodeId(1)) > before);
        // Null exchange is short: well under a data transaction.
        assert!(w.occupancy(NodeId(1)) < SimDuration::from_micros(1200));
    }

    #[test]
    fn no_collisions_ever() {
        // The medium refuses concurrent initiations by construction.
        let mut w = world(3);
        let _ = w.send_downlink(SimTime::ZERO, frame(0, 1, DataRate::B11));
        assert!(!w.is_idle(SimTime::ZERO));
    }

    #[test]
    fn lossy_transaction_reports_drop() {
        let mut w = PolledWorld::new(
            PolledConfig {
                phy: Phy80211b::default(),
                ap: AP,
            },
            vec![LinkErrorModel::Perfect, LinkErrorModel::FixedFer(1.0)],
            SimRng::new(5),
        );
        let fx = w.send_downlink(SimTime::ZERO, frame(0, 1, DataRate::B11));
        let end = match fx[0] {
            MacEffect::Schedule { at, .. } => at,
            _ => panic!(),
        };
        let fx = w.handle(end, MacEvent::TxEnd);
        assert!(matches!(
            fx[1],
            MacEffect::TxFinal {
                outcome: FrameOutcome::Dropped,
                ..
            }
        ));
        // Failed airtime still charged (§2.3).
        assert!(w.occupancy(NodeId(1)) > SimDuration::ZERO);
    }
}
