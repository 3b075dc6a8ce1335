//! QoS with weighted airtime shares (the paper's §4.5 extension).
//!
//! ```text
//! cargo run --release --example hotspot_qos
//! ```
//!
//! A hotspot operator sells two service tiers. Three stations download
//! at 11 Mbit/s; the premium one is given twice the airtime weight of
//! the other two. TBR's token rates follow the weights, so the premium
//! client gets ~2× the throughput of each standard client without any
//! change to the clients themselves.

use airtime::core::{ApScheduler, ClientId, QueuedPacket};
use airtime::sched::{TbrConfig, TbrScheduler};
use airtime::sim::{SimDuration, SimTime};

fn main() {
    // Drive the regulator directly over a synthetic saturated channel —
    // the same object the simulated AP embeds, usable standalone, which
    // is the point: TBR is a driver-level component, not a simulator
    // artifact.
    let mut tbr = TbrScheduler::new(TbrConfig::default());
    let now = SimTime::ZERO;
    tbr.on_associate_weighted(ClientId(0), 2.0, now); // premium
    tbr.on_associate_weighted(ClientId(1), 1.0, now);
    tbr.on_associate_weighted(ClientId(2), 1.0, now);

    let frame_airtime = SimDuration::from_micros(1617); // 1500 B at 11M
    let tick = tbr.tick_period().expect("TBR is tick-driven");
    let mut t = SimTime::ZERO;
    let mut next_tick = t + tick;
    let mut served = [0u64; 3];
    let end = SimTime::from_secs(30);
    let mut handle = 0;
    while t < end {
        for c in 0..3 {
            while tbr.queue_len(ClientId(c)) < 10 {
                tbr.enqueue(
                    QueuedPacket {
                        client: ClientId(c),
                        handle,
                        bytes: 1500,
                    },
                    t,
                );
                handle += 1;
            }
        }
        match tbr.dequeue(t) {
            Some(p) => {
                t += frame_airtime;
                served[p.client.index()] += 1;
                tbr.on_complete(p.client, frame_airtime, true, t);
            }
            None => t = next_tick.max(t),
        }
        while next_tick <= t {
            tbr.on_tick(next_tick);
            next_tick += tick;
        }
    }

    println!("weighted airtime shares over {:.0} s:", end.as_secs_f64());
    let total: u64 = served.iter().sum();
    for (c, s) in served.iter().enumerate() {
        let weight = if c == 0 { 2.0 } else { 1.0 };
        println!(
            "  client {c} (weight {weight}): {s} frames  = {:.1}% of airtime  ({:.2} Mbit/s)",
            *s as f64 / total as f64 * 100.0,
            *s as f64 * 1500.0 * 8.0 / end.as_secs_f64() / 1e6
        );
    }
    let ratio = served[0] as f64 / served[1] as f64;
    println!("premium / standard ratio: {ratio:.2} (target 2.0)");
}
