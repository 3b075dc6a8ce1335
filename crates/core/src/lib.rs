//! The AP scheduler contract and the queue core every family shares.
//!
//! The paper's primary contribution, **TBR, the Time-based Regulator**
//! (§4), is one packet-release policy over per-client AP queues; the
//! throughput-fair baselines it is compared against, and the zoo's
//! contenders, are others over the same queues. This crate holds what
//! they have in common, independent of the MAC simulator:
//!
//! - [`ApScheduler`] — the one trait every discipline implements, with
//!   the paper's event hooks (associate / app-tx / mac-tx / complete /
//!   fill) and the [`ClientId`], [`QueuedPacket`] and
//!   [`EnqueueOutcome`] types it speaks;
//! - [`QueuePool`] — per-client drop-tail queues sharing one buffer
//!   budget (§4.4), with the [`BufferPolicy`] (drop-tail or RED) of
//!   [`buffer`];
//! - [`fairness`] — the measurement helpers (airtime/throughput gaps,
//!   Jain index, reference max-min allocation, airtime waterfilling).
//!
//! The families themselves — FIFO, RR, DRR, TBR, TXOP, PF and max-min —
//! live in `airtime-sched`, next to the registry that names them.
//!
//! # Examples
//!
//! ```
//! use airtime_core::{ClientId, EnqueueOutcome, QueuePool, QueuedPacket};
//!
//! // A 4-packet budget split over two clients: 2 packets each.
//! let mut pool = QueuePool::new(4);
//! pool.add_client(ClientId(0));
//! pool.add_client(ClientId(1));
//! let pkt = |handle| QueuedPacket { client: ClientId(0), handle, bytes: 1500 };
//! assert_eq!(pool.enqueue(pkt(1)), EnqueueOutcome::Accepted);
//! assert_eq!(pool.enqueue(pkt(2)), EnqueueOutcome::Accepted);
//! assert_eq!(pool.enqueue(pkt(3)), EnqueueOutcome::Dropped);
//! assert_eq!((pool.backlog(), pool.drops()), (2, 1));
//! ```

pub mod buffer;
pub mod fairness;
pub mod scheduler;

pub use buffer::{BufferPolicy, RedConfig};
pub use fairness::{airtime_shares, max_min_allocation, throughput_gap, waterfill_airtime};
pub use scheduler::{ApScheduler, ClientId, EnqueueOutcome, QueuePool, QueuedPacket};
