//! Micro-benchmarks of the hot paths: TBR's per-packet operations (the
//! code that would run inside a real AP driver at line rate), the DCF
//! world's event processing, and the event queue itself.

use std::hint::black_box;

use airtime_bench::harness::Group;
use airtime_core::{ApScheduler, ClientId, QueuedPacket};
use airtime_mac::{DcfConfig, DcfWorld, Frame, MacEffect, NodeId};
use airtime_phy::{DataRate, LinkErrorModel, Phy80211b};
use airtime_sched::{TbrConfig, TbrScheduler};
use airtime_sim::{EventQueue, SimDuration, SimRng, SimTime};

fn bench_tbr_ops() {
    let mut g = Group::new("tbr");
    {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let now = SimTime::from_secs(1);
        for i in 0..8 {
            tbr.on_associate(ClientId(i), SimTime::ZERO);
        }
        let airtime = SimDuration::from_micros(1617);
        let mut i = 0u64;
        g.bench("enqueue_dequeue_complete_cycle", || {
            let client = ClientId((i % 8) as usize);
            tbr.enqueue(
                QueuedPacket {
                    client,
                    handle: i,
                    bytes: 1500,
                },
                now,
            );
            if let Some(p) = tbr.dequeue(now) {
                tbr.on_complete(p.client, airtime, true, now);
            }
            i += 1;
            black_box(&tbr);
        });
    }
    {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        for i in 0..32 {
            tbr.on_associate(ClientId(i), SimTime::ZERO);
        }
        let mut t = SimTime::ZERO;
        g.bench("fill_tick_32_clients", || {
            t += SimDuration::from_millis(2);
            tbr.on_tick(t);
            black_box(&tbr);
        });
    }
    g.finish();
}

fn bench_dcf() {
    let mut g = Group::new("dcf");
    g.bench("saturated_two_station_second", || {
        let mut world = DcfWorld::new(
            DcfConfig {
                phy: Phy80211b::default(),
                ap: NodeId(0),
                retry_rate_fallback: false,
                rts_threshold: None,
            },
            vec![LinkErrorModel::Perfect; 3],
            SimRng::new(7),
        );
        let mut queue = EventQueue::new();
        let mut handle = 0u64;
        let mut offer = |world: &mut DcfWorld, queue: &mut EventQueue<_>, now, src| {
            let frame = Frame {
                src,
                dst: NodeId(0),
                msdu_bytes: 1500,
                rate: DataRate::B11,
                handle,
            };
            handle += 1;
            let mut fx = Vec::new();
            if world.offer_frame(now, frame, &mut fx).is_ok() {
                for e in fx {
                    if let MacEffect::Schedule { at, event } = e {
                        queue.schedule(at, event);
                    }
                }
            }
        };
        offer(&mut world, &mut queue, SimTime::ZERO, NodeId(1));
        offer(&mut world, &mut queue, SimTime::ZERO, NodeId(2));
        let end = SimTime::from_secs(1);
        while let Some((t, ev)) = queue.pop() {
            if t > end {
                break;
            }
            let mut fx = Vec::new();
            world.handle(t, ev, &mut fx);
            for e in fx {
                if let MacEffect::Schedule { at, event } = e {
                    queue.schedule(at, event);
                }
            }
            for n in [NodeId(1), NodeId(2)] {
                if world.can_accept(n) {
                    offer(&mut world, &mut queue, t, n);
                }
            }
        }
        black_box(world.stats());
    });
    g.finish();
}

fn bench_event_queue() {
    let mut g = Group::new("event_queue");
    g.bench("schedule_pop_1k", || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(SimTime::from_micros((i * 7919) % 10_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        black_box(acc);
    });
    g.finish();
}

fn main() {
    bench_tbr_ops();
    bench_dcf();
    bench_event_queue();
}
