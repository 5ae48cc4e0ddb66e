//! Cross-crate checks for the static analyzer through the umbrella crate:
//! the `ugrapher::analyze` re-exports must compose with the graph, core and
//! sim crates exactly as the README advertises.

use ugrapher::analyze::{analyze_static, audit_plan, cross_check, lint_ir, IrFinding};
use ugrapher::core::abstraction::OpInfo;
use ugrapher::core::ir::{AccessPattern, DeterminismClass, Stmt, UpdateKind};
use ugrapher::core::plan::KernelPlan;
use ugrapher::core::schedule::{ParallelInfo, Strategy};
use ugrapher::graph::generate::uniform_random;
use ugrapher::sim::DeviceConfig;

const FEAT: usize = 8;

#[test]
fn readme_analyze_snippet_holds() {
    let graph = uniform_random(100, 800, 42);
    let op = OpInfo::aggregation_sum();
    let schedule = ParallelInfo::basic(Strategy::ThreadEdge);

    let report = analyze_static(&graph, op, schedule, FEAT).expect("static analysis succeeds");
    assert!(report.race.needs_atomic);
    assert!(report.race.witness.is_some());
    assert!(report.is_clean());
    assert!(report.bounds.num_accesses() >= 2);
    assert_eq!(
        report.determinism.class,
        DeterminismClass::AtomicOrderDependent
    );

    let check = cross_check(&graph, op, schedule, FEAT, &DeviceConfig::v100())
        .expect("dynamic cross-check succeeds");
    assert!(check.observed_conflicts());
}

#[test]
fn static_verdict_matches_dynamic_oracle_across_strategies() {
    let graph = uniform_random(80, 600, 7);
    let op = OpInfo::aggregation_max();
    for strategy in Strategy::ALL {
        let schedule = ParallelInfo::basic(strategy);
        let report = analyze_static(&graph, op, schedule, FEAT).expect("static analysis succeeds");
        let check = cross_check(&graph, op, schedule, FEAT, &DeviceConfig::v100())
            .expect("dynamic cross-check succeeds");
        assert_eq!(
            report.race.witness.is_some(),
            check.observed_conflicts(),
            "witness/conflict disagreement under {schedule}"
        );
    }
}

#[test]
fn tampered_plan_is_rejected_by_audit() {
    let graph = uniform_random(60, 400, 3);
    let schedule = ParallelInfo::basic(Strategy::WarpEdge);
    let plan = KernelPlan::generate(
        OpInfo::aggregation_sum(),
        schedule,
        graph.num_vertices(),
        graph.num_edges(),
        FEAT,
    )
    .expect("plan generation succeeds");
    let mut report = audit_plan(&graph, &plan).expect("audit succeeds");
    assert!(report.codegen.is_empty());
    assert!(report.ir.store().update.is_atomic());

    // Simulate a lowering that dropped the atomic update.
    if let Some(Stmt::Store(store)) = report.ir.body.last_mut() {
        store.update = UpdateKind::Accumulate;
    }
    assert!(
        lint_ir(&report.ir).contains(&IrFinding::AtomicContradiction {
            verdict_atomic: true,
            body_atomic: false,
        })
    );
}

#[test]
fn ir_verifier_passes_surface_through_the_report() {
    let graph = uniform_random(100, 800, 5);
    let op = OpInfo::aggregation_sum();

    // Edge-parallel sum: atomic, order-dependent, gathered input.
    let report = analyze_static(&graph, op, ParallelInfo::basic(Strategy::ThreadEdge), FEAT)
        .expect("static analysis succeeds");
    assert!(report.bounds.num_accesses() >= 2, "every access is proved");
    assert_eq!(
        report.determinism.class,
        DeterminismClass::AtomicOrderDependent
    );
    assert!(report.ir.store().update.is_atomic());
    assert_eq!(report.access.a, Some(AccessPattern::Gather));
    assert!(
        report.cuda.contains("atomicAdd"),
        "report IR renders the CUDA"
    );

    // Vertex-parallel sum: sequential reduction, no atomics anywhere.
    let report = analyze_static(
        &graph,
        op,
        ParallelInfo::basic(Strategy::ThreadVertex),
        FEAT,
    )
    .expect("static analysis succeeds");
    assert_eq!(report.determinism.class, DeterminismClass::Sequential);
    assert!(report.determinism.class.bitwise_deterministic());
    assert!(!report.ir.store().update.is_atomic());
    assert!(!report.cuda.contains("atomicAdd(") && !report.cuda.contains("atomicCAS("));
}

#[test]
fn quick_sweep_labels_every_combo_and_exports_json() {
    use ugrapher::analyze::{analyze_registry, SweepConfig};
    let cfg = SweepConfig::quick();
    let report = analyze_registry(&DeviceConfig::v100(), &cfg);
    assert!(report.is_clean(), "findings: {:?}", report.findings);
    assert_eq!(report.bounds_proved, report.combos_checked);
    assert_eq!(report.determinism.total(), report.combos_checked);
    assert_ne!(report.trace_id, 0);
    let json = report.to_json();
    let v = ugrapher::util::json::parse(&json).expect("report JSON parses");
    assert_eq!(
        v.field("bounds_proved").unwrap().as_f64().unwrap() as usize,
        report.combos_checked
    );
    assert!(v.field("clean").unwrap().as_bool().unwrap());
    // Verifier-pass outcomes land in the process-wide metrics registry
    // (counters are cumulative, so only lower-bound them).
    use ugrapher::obs::{metrics, MetricsRegistry};
    let m = MetricsRegistry::global();
    let pass = |v: &str| m.counter(&metrics::labeled(metrics::ANALYZE_VERIFIER, "pass", v));
    assert!(pass("bounds-ok") >= report.bounds_proved as u64);
    assert!(pass("race-ok") >= report.bounds_proved as u64);
    assert!(pass("dynamic-ok") >= report.combos_checked as u64);
    let class = |v: &str| m.counter(&metrics::labeled(metrics::ANALYZE_DETERMINISM, "class", v));
    assert!(class("sequential") >= report.determinism.sequential as u64);
    assert!(class("atomic-order-dependent") >= report.determinism.atomic_order_dependent as u64);
}
