//! Self-test of the benchmark: a tiny version of every workload, timed and
//! traced, checked against the properties the full benchmark relies on.

use std::sync::Mutex;
use std::time::Duration;

use ugrapher_perfbench::stats::nproc;
use ugrapher_perfbench::{run, Outcome, RunConfig, Sizing, Workload};

/// The tests time the program and check the thread budget, so they run
/// one at a time even under the parallel test harness.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = run(&RunConfig {
        workload,
        seed: 7,
        seconds: Duration::from_secs(1),
        trace,
        sizing: Sizing::tiny(),
    });
    assert!(
        out.problems.is_empty(),
        "{}: {:?}",
        workload.name(),
        out.problems
    );
    assert_eq!(out.failed, 0, "{}", workload.name());
    out
}

fn get(out: &Outcome, name: &str) -> f64 {
    out.value(name)
        .or_else(|| out.diagnostic(name))
        .unwrap_or_else(|| panic!("{name} missing"))
}

fn check_timed(workload: Workload) -> Outcome {
    let first = tiny(workload, false);
    assert!(
        get(&first, "samples_beyond_tail") >= 10.0,
        "{}: fewer than ten samples beyond the tail rank",
        workload.name()
    );
    assert!(get(&first, "compute_threads") <= nproc() as f64);
    assert_eq!(get(&first, "success_frac"), 1.0);
    // Simulated time is a pure function of the inputs.
    let second = tiny(workload, false);
    assert_eq!(
        get(&first, "sim_time_ms").to_bits(),
        get(&second, "sim_time_ms").to_bits(),
        "{}: sim_time_ms differs between runs",
        workload.name()
    );
    first
}

fn check_traced(workload: Workload) -> Outcome {
    let out = tiny(workload, true);
    let coverage = get(&out, "obs.stage_coverage");
    assert!(
        coverage >= 0.9,
        "{}: traced stages cover only {coverage:.3} of the untraced time they split",
        workload.name()
    );
    assert!(get(&out, "compute_threads") <= nproc() as f64);
    out
}

#[test]
fn serve_warm_hits_every_time() {
    let timed = check_timed(Workload::ServeWarm);
    assert_eq!(get(&timed, "timed_hit_rate"), 1.0);
    let traced = check_traced(Workload::ServeWarm);
    assert_eq!(get(&traced, "cache.hit_rate"), 1.0);
    assert_eq!(get(&traced, "tune.candidates"), 0.0);
}

#[test]
fn serve_cold_misses_every_time() {
    let timed = check_timed(Workload::ServeCold);
    assert_eq!(get(&timed, "timed_hit_rate"), 0.0);
    let traced = check_traced(Workload::ServeCold);
    assert_eq!(get(&traced, "cache.hit_rate"), 0.0);
    assert!(get(&traced, "tune.candidates") > 0.0);
}

#[test]
fn gnn_infer_runs_every_model() {
    check_timed(Workload::GnnInfer);
    let traced = check_traced(Workload::GnnInfer);
    assert!(get(&traced, "gnn.ops_per_pass") > 0.0);
}
