//! A std-thread worker pool for embarrassingly parallel job matrices.
//!
//! No rayon, no channels: a shared atomic cursor hands out job indices,
//! each worker writes its result into the slot for that index, and the
//! caller gets results back in matrix order regardless of which worker
//! finished first. Simulation jobs carry their own RNG seed in their
//! config, so a job's result is a pure function of the job — thread
//! count can never change the numbers, only the wall time.
//!
//! Each worker also owns one piece of state `S`, built with `Default`
//! when the worker starts and lent to every job it runs, so a job can
//! reuse the buffers an earlier job on the same worker grew (the
//! engines keep their observation [`crate::Rig`] there). Jobs must
//! reset what they borrow: a result that depended on which jobs ran
//! before it on the same worker would break the guarantee above.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How the work was spread, for the CLI's summary line.
#[derive(Clone, Debug)]
pub struct PoolStats {
    /// Worker threads spawned.
    pub threads: usize,
    /// Jobs completed by each worker (sums to the job count).
    pub per_thread_jobs: Vec<usize>,
}

impl PoolStats {
    /// Number of workers that completed at least one job.
    pub fn threads_used(&self) -> usize {
        self.per_thread_jobs.iter().filter(|&&n| n > 0).count()
    }
}

/// Runs `f` over every job on `threads` workers, returning results in
/// job order; `f` gets its worker's state, the job index and the job.
/// `threads` is clamped to `[1, jobs.len()]`; with one thread
/// everything runs on the calling thread (no spawn overhead — and no
/// way for thread scheduling to reorder anything).
pub fn run_parallel<J, R, S, F>(jobs: &[J], threads: usize, f: F) -> (Vec<R>, PoolStats)
where
    J: Sync,
    R: Send,
    S: Default,
    F: Fn(&mut S, usize, &J) -> R + Sync,
{
    let threads = threads.clamp(1, jobs.len().max(1));
    if threads <= 1 {
        let mut state = S::default();
        let results = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| f(&mut state, i, j))
            .collect();
        return (
            results,
            PoolStats {
                threads: 1,
                per_thread_jobs: vec![jobs.len()],
            },
        );
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..jobs.len()).map(|_| Mutex::new(None)).collect();
    let counts: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let cursor = &cursor;
            let slots = &slots;
            let counts = &counts;
            let f = &f;
            scope.spawn(move || {
                let mut state = S::default();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let r = f(&mut state, i, &jobs[i]);
                    *slots[i].lock().unwrap() = Some(r);
                    counts[w].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker skipped a job"))
        .collect();
    (
        results,
        PoolStats {
            threads,
            per_thread_jobs: counts.into_iter().map(|c| c.into_inner()).collect(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<u64> = (0..40).collect();
        for threads in [1, 2, 4, 9] {
            let (results, stats) = run_parallel(&jobs, threads, |_: &mut (), i, &j| {
                // Stagger completion order.
                std::thread::sleep(std::time::Duration::from_micros((40 - j) * 10));
                (i as u64) * 1000 + j
            });
            assert_eq!(results.len(), 40);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(*r, (i as u64) * 1000 + i as u64);
            }
            assert_eq!(stats.per_thread_jobs.iter().sum::<usize>(), 40);
            assert!(stats.threads <= threads.max(1));
        }
    }

    #[test]
    fn empty_and_single_job() {
        let (r, stats) = run_parallel(&Vec::<u8>::new(), 8, |_: &mut (), _, _| 0u8);
        assert!(r.is_empty());
        assert_eq!(stats.threads, 1);
        let (r, _) = run_parallel(&[7u8], 8, |_: &mut (), i, &j| (i, j));
        assert_eq!(r, vec![(0, 7)]);
    }

    #[test]
    fn each_worker_keeps_one_state_across_its_jobs() {
        let jobs = vec![0u8; 30];
        for threads in [1, 3] {
            // Each job sees how many jobs its worker ran before it.
            let (seen, stats) = run_parallel(&jobs, threads, |ran: &mut usize, _, _| {
                *ran += 1;
                *ran
            });
            let mut seen = seen;
            seen.sort_unstable();
            let mut want: Vec<usize> = stats.per_thread_jobs.iter().flat_map(|&n| 1..=n).collect();
            want.sort_unstable();
            assert_eq!(seen, want);
        }
    }
}
