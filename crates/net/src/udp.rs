//! UDP datagram sources.
//!
//! Figure 4 of the paper compares UDP and TCP throughput for three
//! competing nodes; UDP senders there run "at the saturation rate", i.e.
//! they always have another datagram ready. [`UdpSource`] models both
//! that saturating mode and a token-bucket-paced mode (used by the EXP-1
//! wired sender and by trace generation).

use airtime_sim::SimTime;

use crate::limit::RateLimiter;
use crate::packet::{FlowId, Packet, PacketKind};

/// Configuration of a UDP source.
#[derive(Clone, Debug)]
pub struct UdpConfig {
    /// Datagram size on the wire, headers included.
    pub datagram_bytes: u64,
    /// `None` = saturating source; `Some(bps)` = paced at that bit rate.
    pub rate_bps: Option<f64>,
    /// Total bytes to send (`None` = unbounded).
    pub task_bytes: Option<u64>,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            datagram_bytes: 1500,
            rate_bps: None,
            task_bytes: None,
        }
    }
}

/// A UDP sender: no congestion control, no acknowledgements.
#[derive(Debug)]
pub struct UdpSource {
    flow: FlowId,
    config: UdpConfig,
    limiter: Option<RateLimiter>,
    next_seq: u64,
    sent_bytes: u64,
}

impl UdpSource {
    /// Creates a source for `flow`.
    pub fn new(flow: FlowId, config: UdpConfig) -> Self {
        let limiter = config
            .rate_bps
            .map(|bps| RateLimiter::new(bps, config.datagram_bytes * 2));
        UdpSource {
            flow,
            config,
            limiter,
            next_seq: 0,
            sent_bytes: 0,
        }
    }

    /// The flow this source belongs to.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Bytes emitted so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// True once a bounded source has emitted its full task.
    pub fn is_exhausted(&self) -> bool {
        self.config.task_bytes.is_some_and(|t| self.sent_bytes >= t)
    }

    /// True for an unpaced, unbounded source: it always has another
    /// datagram, and emitting one spends neither pacing tokens nor task
    /// bytes, so a datagram it does not emit is not missed.
    pub fn is_saturating(&self) -> bool {
        self.limiter.is_none() && self.config.task_bytes.is_none()
    }

    /// Emits the next datagram if pacing (and the task budget) allows.
    pub fn poll_packet(&mut self, now: SimTime) -> Option<Packet> {
        if self.is_exhausted() {
            return None;
        }
        if let Some(lim) = self.limiter.as_mut() {
            if !lim.try_consume(now, self.config.datagram_bytes) {
                return None;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_bytes += self.config.datagram_bytes;
        Some(Packet {
            flow: self.flow,
            kind: PacketKind::UdpData { seq },
            bytes: self.config.datagram_bytes,
        })
    }

    /// When pacing will next release a datagram; `None` when not
    /// pacing-blocked (saturating source, or tokens available).
    pub fn next_ready(&self, now: SimTime) -> Option<SimTime> {
        if self.is_exhausted() {
            return None;
        }
        let lim = self.limiter.as_ref()?;
        let at = lim.ready_at(now, self.config.datagram_bytes);
        (at > now).then_some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_source_always_ready() {
        let mut s = UdpSource::new(FlowId(0), UdpConfig::default());
        for i in 0..100 {
            let p = s.poll_packet(SimTime::ZERO).unwrap();
            assert_eq!(p.kind, PacketKind::UdpData { seq: i });
            assert_eq!(p.bytes, 1500);
        }
        assert_eq!(s.next_ready(SimTime::ZERO), None);
        assert_eq!(s.sent_bytes(), 150_000);
    }

    #[test]
    fn paced_source_respects_rate() {
        let mut s = UdpSource::new(
            FlowId(0),
            UdpConfig {
                rate_bps: Some(1_200_000.0), // 100 × 1500 B per second
                ..UdpConfig::default()
            },
        );
        let mut now = SimTime::ZERO;
        let mut sent = 0;
        while now < SimTime::from_secs(2) {
            if s.poll_packet(now).is_some() {
                sent += 1;
            } else {
                now = s.next_ready(now).expect("pacing-blocked");
            }
        }
        // 2 s at 100 pkt/s plus the 2-packet initial burst.
        assert!((200..=203).contains(&sent), "sent={sent}");
    }

    #[test]
    fn task_bound_exhausts() {
        let mut s = UdpSource::new(
            FlowId(1),
            UdpConfig {
                task_bytes: Some(4500),
                ..UdpConfig::default()
            },
        );
        assert!(s.poll_packet(SimTime::ZERO).is_some());
        assert!(s.poll_packet(SimTime::ZERO).is_some());
        assert!(s.poll_packet(SimTime::ZERO).is_some());
        assert!(s.is_exhausted());
        assert!(s.poll_packet(SimTime::ZERO).is_none());
        assert_eq!(s.next_ready(SimTime::ZERO), None);
    }
}
