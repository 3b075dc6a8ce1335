//! A minimal wall-clock benchmarking harness.
//!
//! The container this workspace builds in has no access to crates.io,
//! so the benches cannot use Criterion. This module provides the small
//! subset actually needed: named groups, auto-calibrated iteration
//! counts, and a mean/min report per benchmark. Usage mirrors the old
//! Criterion code closely enough that the bench files read the same:
//!
//! ```no_run
//! use airtime_bench::harness::Group;
//!
//! let mut g = Group::new("event_queue");
//! g.bench("noop", || {});
//! g.finish();
//! ```

use std::time::{Duration, Instant};

/// Target measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(400);
/// Warm-up time per benchmark.
const WARMUP: Duration = Duration::from_millis(100);

/// A named group of benchmarks, printed as an aligned block.
pub struct Group {
    name: String,
    rows: Vec<(String, Duration, Duration, u64)>,
}

impl Group {
    /// Starts a new group.
    pub fn new(name: &str) -> Self {
        Group {
            name: name.to_string(),
            rows: Vec::new(),
        }
    }

    /// Times `f`, auto-calibrating the iteration count to fill roughly
    /// 400 ms of wall time (minimum 5 iterations).
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) {
        // Warm up and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARMUP || warm_iters < 1 {
            f();
            warm_iters += 1;
        }
        let est = warm_start.elapsed() / warm_iters.max(1) as u32;
        let iters = if est.is_zero() {
            10_000
        } else {
            (TARGET.as_nanos() / est.as_nanos().max(1)).clamp(5, 10_000_000) as u64
        };
        let mut min = Duration::MAX;
        let start = Instant::now();
        for _ in 0..iters {
            let t0 = Instant::now();
            f();
            min = min.min(t0.elapsed());
        }
        let total = start.elapsed();
        self.rows
            .push((name.to_string(), total / iters as u32, min, iters));
    }

    /// Prints the group's results.
    pub fn finish(self) {
        println!("{}", self.name);
        let width = self
            .rows
            .iter()
            .map(|(n, ..)| n.len())
            .max()
            .unwrap_or(0)
            .max(4);
        for (name, mean, min, iters) in &self.rows {
            println!(
                "  {name:<width$}  mean {:>12}  min {:>12}  ({iters} iters)",
                fmt_ns(*mean),
                fmt_ns(*min),
            );
        }
        println!();
    }
}

fn fmt_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut g = Group::new("t");
        let mut n = 0u64;
        g.bench("count", || n += 1);
        assert_eq!(g.rows.len(), 1);
        assert!(g.rows[0].3 >= 5);
        g.finish();
        assert!(n > 0);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_ns(Duration::from_micros(5)), "5.000 µs");
        assert_eq!(fmt_ns(Duration::from_millis(5)), "5.000 ms");
        assert_eq!(fmt_ns(Duration::from_secs(5)), "5.000 s");
    }
}
