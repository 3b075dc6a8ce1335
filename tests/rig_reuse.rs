//! Reusing one observation rig across a worker's jobs leaks nothing
//! from one job into the next.
//!
//! Each pool worker keeps one [`Rig`] and resets it per job. This test
//! runs the scheduler zoo and a two-job co-channel sweep slice on one
//! rig, in matrix order and in reverse, and requires every row —
//! delay percentiles and `fp` fingerprint included — to equal the same
//! job run alone on a freshly built rig. The reversed pass puts the
//! largest jobs (and the four-lane topology) before the small ones, so
//! buffers always arrive at a job already grown by another.

use std::path::Path;

use airtime::scenario::tournament::{compile_tournament, expand_tournament};
use airtime::scenario::{self, run_sweep_job, run_tournament_job, Job, Rig};

enum AnyJob {
    Tournament(scenario::tournament::TournamentJob),
    Sweep(Job),
}

/// The job's full result, rendered exactly (`Debug` prints every float
/// in its shortest round-trip form).
fn run(rig: &mut Rig, job: &AnyJob) -> String {
    match job {
        AnyJob::Tournament(j) => format!("{:?}", run_tournament_job(rig, j)),
        AnyJob::Sweep(j) => format!("{:?}", run_sweep_job(rig, j)),
    }
}

fn load(name: &str) -> scenario::toml::Doc {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios")
        .join(name);
    scenario::load(&path).expect("example scenario parses")
}

#[test]
fn a_reused_rig_reports_what_a_fresh_one_does_in_either_job_order() {
    let zoo = load("tournament_zoo.toml");
    let base = scenario::compile(&zoo, "tournament_zoo.toml").unwrap();
    let tspec = compile_tournament(&zoo, &base).unwrap().unwrap();
    let mut jobs: Vec<AnyJob> = expand_tournament(&base, &tspec)
        .into_iter()
        .map(AnyJob::Tournament)
        .collect();
    let (_, sweep) = scenario::expand(&load("cochannel_walkers.toml"), "cochannel_walkers.toml")
        .expect("co-channel sweep expands");
    // rr/up and tbr/down: both directions, both families.
    let (first, last) = (sweep[0].clone(), sweep[sweep.len() - 1].clone());
    jobs.push(AnyJob::Sweep(first));
    jobs.push(AnyJob::Sweep(last));

    let alone: Vec<String> = jobs.iter().map(|j| run(&mut Rig::default(), j)).collect();
    let mut rig = Rig::default();
    for (i, job) in jobs.iter().enumerate() {
        assert_eq!(run(&mut rig, job), alone[i], "job {i} in matrix order");
    }
    let mut rig = Rig::default();
    for (i, job) in jobs.iter().enumerate().rev() {
        assert_eq!(run(&mut rig, job), alone[i], "job {i} in reversed order");
    }
}
