//! Layer probes that drive one public API in a tight loop.
//!
//! The traced run attributes each step to one layer, but the timeline
//! and the scheduler do their work inside other layers' steps. These
//! probes measure them on their own, sized from the workload: the
//! wheel at the deepest queue the workload reached, the scheduler at
//! the workload's families, station count and link rates.

use std::hint::black_box;
use std::time::Instant;

use airtime_core::{ClientId, QueuedPacket};
use airtime_sched::SchedulerKind;
use airtime_sim::{SimDuration, SimRng, SimTime, TimerWheel};

/// Holds (one pop plus one schedule) per wheel probe repetition.
const WHEEL_HOLDS: u64 = 400_000;
/// Decisions per family per scheduler probe repetition.
const SCHED_DECISIONS: u64 = 100_000;
/// Repetitions of each probe; the median is reported.
const REPS: usize = 3;

/// Frame size the scheduler probe completes, bytes.
const FRAME_BYTES: u64 = 1500;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// A delay drawn from the horizons the simulator schedules at: MAC
/// slots and frames, wired hops and pumps, transport timers.
fn horizon(rng: &mut SimRng) -> SimDuration {
    let us = match rng.below(10) {
        0..=5 => rng.range_inclusive(10, 2_000),
        6..=8 => rng.range_inclusive(1_000, 20_000),
        _ => rng.range_inclusive(200_000, 1_000_000),
    };
    SimDuration::from_micros(us)
}

/// Host nanoseconds per hold on a [`TimerWheel`] kept `depth` deep.
pub fn wheel_ns_per_op(depth: u64, seed: u64) -> f64 {
    let depth = depth.max(1);
    let samples = (0..REPS)
        .map(|rep| {
            let mut rng = SimRng::new(seed).substream(rep as u64);
            let mut wheel = TimerWheel::new();
            for i in 0..depth {
                wheel.schedule(SimTime::ZERO + horizon(&mut rng), i);
            }
            let t0 = Instant::now();
            for _ in 0..WHEEL_HOLDS {
                let (now, ev) = wheel.pop().expect("the wheel is never empty");
                wheel.schedule(now + horizon(&mut rng), black_box(ev));
            }
            t0.elapsed().as_nanos() as f64 / WHEEL_HOLDS as f64
        })
        .collect();
    median(samples)
}

/// Host nanoseconds per enqueue + dequeue + complete, averaged over
/// `families`, each serving saturated clients at `rates_mbps`.
pub fn sched_ns_per_decision(families: &[SchedulerKind], rates_mbps: &[f64]) -> f64 {
    if families.is_empty() || rates_mbps.is_empty() {
        return 0.0;
    }
    let per_family: Vec<f64> = families
        .iter()
        .map(|kind| median((0..REPS).map(|_| sched_run(kind, rates_mbps)).collect()))
        .collect();
    per_family.iter().sum::<f64>() / per_family.len() as f64
}

fn sched_run(kind: &SchedulerKind, rates_mbps: &[f64]) -> f64 {
    let mut sched = kind.build();
    let mut now = SimTime::ZERO;
    let airtime: Vec<SimDuration> = rates_mbps
        .iter()
        .map(|r| SimDuration::from_secs_f64((FRAME_BYTES * 8) as f64 / (r * 1e6)))
        .collect();
    let clients: Vec<ClientId> = (1..=rates_mbps.len()).map(ClientId).collect();
    for &c in &clients {
        sched.on_associate(c, now);
    }
    let mut handle = 0u64;
    let mut packet = |client: ClientId| {
        handle += 1;
        QueuedPacket {
            client,
            handle,
            bytes: FRAME_BYTES,
        }
    };
    for _ in 0..4 {
        for &c in &clients {
            sched.enqueue(packet(c), now);
        }
    }
    let tick = sched.tick_period().filter(|_| !sched.coalescible());
    let mut next_tick = tick.map(|p| SimTime::ZERO + p);
    let mut decisions = 0;
    let t0 = Instant::now();
    while decisions < SCHED_DECISIONS {
        while let (Some(at), Some(p)) = (next_tick, tick) {
            if at > now {
                break;
            }
            sched.on_tick(at);
            next_tick = Some(at + p);
        }
        match sched.dequeue(now) {
            Some(pkt) => {
                let air = airtime[pkt.client.index() - 1];
                now += air;
                sched.on_complete(pkt.client, air, true, now);
                sched.enqueue(packet(black_box(pkt).client), now);
                decisions += 1;
            }
            None => {
                let wake = sched
                    .next_wake(now)
                    .unwrap_or(now + SimDuration::from_millis(1));
                now = wake.max(now + SimDuration::from_micros(1));
            }
        }
    }
    t0.elapsed().as_nanos() as f64 / decisions as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_something() {
        assert!(wheel_ns_per_op(64, 1) > 0.0);
        let kinds = [
            SchedulerKind::Fifo,
            SchedulerKind::tbr(),
            SchedulerKind::maxmin(),
        ];
        assert!(sched_ns_per_decision(&kinds, &[11.0, 1.0]) > 0.0);
        assert_eq!(sched_ns_per_decision(&[], &[11.0]), 0.0);
    }
}
