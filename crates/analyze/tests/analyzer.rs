//! Integration tests for the analyzer: the full registry sweep (reduced
//! configuration) plus the tricky cases called out in the design notes —
//! `mean` gather over zero-in-degree vertices, float max/min CAS-loop
//! emission under warp-edge, and edge-output operators never needing
//! atomics.

use ugrapher_analyze::{analyze_registry, analyze_static, cross_check, SweepConfig};
use ugrapher_core::abstraction::{registry, OpInfo, TensorType};
use ugrapher_core::exec::{execute, OpOperands};
use ugrapher_core::schedule::{ParallelInfo, Strategy};
use ugrapher_graph::generate::uniform_random;
use ugrapher_graph::Graph;
use ugrapher_sim::DeviceConfig;
use ugrapher_tensor::Tensor2;

/// The acceptance gate in miniature: every Table 4 registry operator under
/// all four strategies (× grouping/tiling variants) must pass the static
/// pass and the dynamic write-set cross-check with zero findings.
#[test]
fn registry_sweep_is_clean_on_quick_config() {
    let report = analyze_registry(&DeviceConfig::v100(), &SweepConfig::quick());
    assert!(report.is_clean(), "sweep findings: {:#?}", report.findings);
    let cfg = SweepConfig::quick();
    let variants = cfg.groupings.len() * cfg.tilings.len();
    assert_eq!(
        report.combos_checked,
        registry::all_valid_ops().len() * Strategy::ALL.len() * variants
    );
    // Racing schedules exist (edge-parallel reductions at small grouping)
    // and every one of their witnesses was confirmed by the trace.
    assert!(report.static_witnesses > 0);
    assert_eq!(report.static_witnesses, report.dynamic_conflicts);
}

/// `mean` on a graph with zero-in-degree vertices: the analyzer accepts
/// the triple under every strategy, the cross-check agrees with the
/// verdict, and the functional result is an all-zero row (not NaN from a
/// 0/0 division).
#[test]
fn mean_gather_handles_zero_in_degree_vertices() {
    // Vertex 0 receives every edge; vertices 2.. receive none.
    let n = 10usize;
    let src: Vec<u32> = (1..n as u32).collect();
    let dst = vec![0u32; n - 1];
    let g = Graph::from_edges(n, src, dst).unwrap();
    let op = OpInfo::aggregation_mean();
    let d = DeviceConfig::v100();
    for strategy in Strategy::ALL {
        let p = ParallelInfo::basic(strategy);
        let rep = analyze_static(&g, op, p, 4).unwrap();
        assert!(rep.codegen.is_empty(), "{strategy:?}: {:?}", rep.codegen);
        cross_check(&g, op, p, 4, &d).unwrap();
    }
    let x = Tensor2::from_fn(n, 4, |r, _| r as f32);
    let out = execute(&g, &op, &OpOperands::single(&x)).unwrap();
    // Mean over the 9 in-neighbors {1..9} of vertex 0 is 5.
    assert_eq!(out.row(0), &[5.0; 4]);
    for v in 1..n {
        assert_eq!(out.row(v), &[0.0; 4], "isolated vertex {v} must be zero");
        assert!(out.row(v).iter().all(|x| x.is_finite()));
    }
}

/// Float max/min under warp-edge need the compare-and-swap loop: the
/// emitted source must contain it, the lint must accept it as the atomic
/// form, and the trace must show contended-but-protected words.
#[test]
fn float_max_min_use_cas_loop_under_warp_edge() {
    let g = uniform_random(80, 640, 21); // mean degree 8: witnesses exist
    let d = DeviceConfig::v100();
    for op in [OpInfo::aggregation_max(), aggregation_min()] {
        let p = ParallelInfo::basic(Strategy::WarpEdge);
        let rep = analyze_static(&g, op, p, 8).unwrap();
        assert!(rep.race.needs_atomic);
        assert!(rep.cuda.contains("atomicCAS"), "{op:?}");
        assert!(rep.cuda.contains("__float_as_int"), "{op:?}");
        assert!(
            !rep.cuda.contains("atomicAdd"),
            "{op:?}: max/min must not emit atomicAdd"
        );
        assert!(rep.codegen.is_empty(), "{op:?}: {:?}", rep.codegen);
        let cc = cross_check(&g, op, p, 8, &d).unwrap();
        assert!(cc.observed_conflicts(), "{op:?}: witness must reproduce");
    }
}

fn aggregation_min() -> OpInfo {
    OpInfo {
        gather_op: ugrapher_core::abstraction::GatherOp::Min,
        ..OpInfo::aggregation_max()
    }
}

/// Every edge-output (C = Edge) registry operator: never atomic under any
/// strategy, statically and dynamically.
#[test]
fn edge_output_operators_never_need_atomics() {
    let g = uniform_random(60, 480, 22);
    let d = DeviceConfig::v100();
    for op in registry::all_valid_ops()
        .into_iter()
        .filter(|o| o.c == TensorType::Edge)
    {
        for strategy in Strategy::ALL {
            let p = ParallelInfo::basic(strategy);
            let rep = analyze_static(&g, op, p, 4).unwrap();
            assert!(!rep.race.needs_atomic, "{op:?} {strategy:?}");
            assert!(rep.race.witness.is_none(), "{op:?} {strategy:?}");
            assert!(!rep.ir.store().update.is_atomic(), "{op:?} {strategy:?}");
            let body = rep.cuda.split("__global__").nth(1).unwrap();
            assert!(!body.contains("atomic"), "{op:?} {strategy:?}");
            let cc = cross_check(&g, op, p, 4, &d).unwrap();
            assert!(!cc.observed_conflicts(), "{op:?} {strategy:?}");
        }
    }
}
