//! Adversarial inputs against the hardened execution pipeline.
//!
//! Every case here feeds the public API something hostile — degenerate
//! graphs, poisoned tensors, illegal schedules, faulty simulators — and
//! asserts the same contract throughout: a typed [`CoreError`] or a
//! correct result, never a panic, and valid inputs always agree with the
//! functional executor.

use std::sync::mpsc::RecvTimeoutError;

use ugrapher::core::abstraction::{registry, OpInfo, TensorType};
use ugrapher::core::api::{uGrapher, GraphTensor, OpArgs, Runtime};
use ugrapher::core::cache::PlanCache;
use ugrapher::core::exec::{execute, Fidelity, OpOperands};
use ugrapher::core::schedule::{ParallelInfo, Strategy};
use ugrapher::core::tune::TuneBudget;
use ugrapher::core::CoreError;
use ugrapher::graph::generate::uniform_random;
use ugrapher::graph::{Coo, Graph};
use ugrapher::obs::Recorder;
use ugrapher::sim::{Access, DeviceConfig, Fault, FaultInjector, LaunchConfig};
use ugrapher::tensor::Tensor2;

const STRATEGIES: [Strategy; 4] = [
    Strategy::ThreadVertex,
    Strategy::ThreadEdge,
    Strategy::WarpVertex,
    Strategy::WarpEdge,
];

/// The adversarial graph zoo: `(name, graph)`.
fn hostile_graphs() -> Vec<(&'static str, Graph)> {
    let coo = |nv, src: Vec<u32>, dst: Vec<u32>| {
        Graph::from_coo(&Coo::new(nv, src, dst).expect("test edges are in bounds"))
    };
    let mut star_src = Vec::new();
    let mut star_dst = Vec::new();
    for v in 1..64u32 {
        // Every spoke feeds the hub and the hub feeds every spoke:
        // one vertex carries essentially all edges.
        star_src.push(v);
        star_dst.push(0);
        star_src.push(0);
        star_dst.push(v);
    }
    vec![
        ("empty graph", coo(0, vec![], vec![])),
        ("single vertex, no edges", coo(1, vec![], vec![])),
        ("single vertex, self-loop", coo(1, vec![0], vec![0])),
        (
            "self-loops everywhere",
            coo(5, vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3, 4]),
        ),
        (
            "duplicate parallel edges",
            coo(3, vec![0, 0, 0, 0, 1], vec![1, 1, 1, 1, 2]),
        ),
        ("extreme skew (star hub)", coo(64, star_src, star_dst)),
        ("isolated tail vertices", coo(10, vec![0, 1], vec![1, 0])),
    ]
}

/// An operand tensor matching `t` for `graph`, with deterministic non-zero
/// values.
fn tensor_for(t: TensorType, graph: &Graph, feat: usize, salt: usize) -> Option<Tensor2> {
    let rows = match t {
        TensorType::SrcV | TensorType::DstV => graph.num_vertices(),
        TensorType::Edge => graph.num_edges(),
        TensorType::Null => return None,
    };
    Some(Tensor2::from_fn(rows, feat, |r, c| {
        ((r * 31 + c * 7 + salt * 13) % 17) as f32 * 0.25 + 0.5
    }))
}

fn run_case(
    rt: &Runtime,
    graph: &Graph,
    op: &OpInfo,
    feat: usize,
    schedule: ParallelInfo,
    context: &str,
) {
    let a = tensor_for(op.a, graph, feat, 1);
    let b = tensor_for(op.b, graph, feat, 2);
    let operands = match (&a, &b) {
        (Some(a), Some(b)) => OpOperands::pair(a, b),
        (Some(a), None) => OpOperands::single(a),
        _ => return,
    };
    let args = OpArgs { op: *op, operands };
    let gt = GraphTensor::new(graph);
    match rt.run(&gt, &args, Some(schedule)) {
        Ok(res) => {
            // A run that succeeds must agree with the functional executor.
            let reference = execute(graph, op, &operands)
                .unwrap_or_else(|e| panic!("{context}: executor rejected what run accepted: {e}"));
            assert_eq!(res.output, reference, "{context}: output diverges");
        }
        Err(e) => {
            // A run that fails must fail with a *typed input* error; the
            // panic shield variant means a bug slipped through.
            assert!(
                e.is_input_error(),
                "{context}: expected input error, got {e:?}"
            );
        }
    }
}

#[test]
fn hostile_graphs_never_panic_and_match_the_executor() {
    let rt = Runtime::new(DeviceConfig::v100());
    for (name, graph) in hostile_graphs() {
        assert!(
            graph.validate().is_ok(),
            "{name}: constructor produced an invalid graph"
        );
        for strategy in STRATEGIES {
            for schedule in [
                ParallelInfo::basic(strategy),
                ParallelInfo {
                    strategy,
                    grouping: 64,
                    tiling: 64,
                },
            ] {
                run_case(
                    &rt,
                    &graph,
                    &OpInfo::aggregation_sum(),
                    4,
                    schedule,
                    &format!("{name} / {strategy:?} / {schedule:?}"),
                );
            }
        }
    }
}

#[test]
fn every_valid_op_on_hostile_graphs_is_safe() {
    let rt = Runtime::new(DeviceConfig::v100());
    for (name, graph) in hostile_graphs() {
        for op in registry::all_valid_ops() {
            run_case(
                &rt,
                &graph,
                &op,
                3,
                ParallelInfo::basic(Strategy::ThreadEdge),
                &format!("{name} / {op:?}"),
            );
        }
    }
}

#[test]
fn nan_features_are_typed_errors_under_every_strategy() {
    let g = uniform_random(40, 160, 21);
    let gt = GraphTensor::new(&g);
    let rt = Runtime::new(DeviceConfig::v100());
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut x = Tensor2::full(40, 4, 1.0);
        x[(13, 1)] = poison;
        for strategy in STRATEGIES {
            let err = rt
                .run(
                    &gt,
                    &OpArgs::fused(OpInfo::aggregation_sum(), &x),
                    Some(ParallelInfo::basic(strategy)),
                )
                .unwrap_err();
            assert!(
                matches!(err, CoreError::TensorInvalid { .. }),
                "{poison} under {strategy:?}: {err:?}"
            );
        }
    }
}

#[test]
fn zero_feature_dim_is_a_typed_error_under_every_strategy() {
    let g = uniform_random(20, 60, 22);
    let gt = GraphTensor::new(&g);
    let rt = Runtime::new(DeviceConfig::v100());
    let x = Tensor2::zeros(20, 0);
    for strategy in STRATEGIES {
        let err = rt
            .run(
                &gt,
                &OpArgs::fused(OpInfo::aggregation_sum(), &x),
                Some(ParallelInfo::basic(strategy)),
            )
            .unwrap_err();
        assert!(err.is_input_error(), "{strategy:?}: {err:?}");
    }
}

/// A zero-width operand beside a one-column partner is not a broadcast:
/// it is rejected as a typed feature mismatch by the executor, and by the
/// runtime before any schedule is tuned, measured or cached.
#[test]
fn zero_width_operand_beside_one_column_is_rejected_before_tuning() {
    let g = uniform_random(20, 60, 24);
    let gt = GraphTensor::new(&g);
    let cache = PlanCache::shared(PlanCache::DEFAULT_CAPACITY);
    let mut builder = Recorder::builder();
    let ring = builder.ring(4096);
    let rt = Runtime::new(DeviceConfig::v100())
        .with_recorder(builder.build())
        .with_plan_cache(cache.clone());
    let op = OpInfo::message_creation_add();
    for (a_cols, b_cols) in [(0, 1), (1, 0)] {
        let a = Tensor2::zeros(20, a_cols);
        let b = Tensor2::zeros(20, b_cols);
        let zero_width = |err: &CoreError| {
            matches!(
                err,
                CoreError::FeatureMismatch {
                    expected: 1,
                    found: 0
                }
            )
        };
        let err = execute(&g, &op, &OpOperands::pair(&a, &b)).unwrap_err();
        assert!(zero_width(&err), "({a_cols}, {b_cols}) execute: {err:?}");
        let err = rt.run(&gt, &OpArgs::binary(op, &a, &b), None).unwrap_err();
        assert!(zero_width(&err), "({a_cols}, {b_cols}) run: {err:?}");
        let spans = ring.snapshot();
        assert!(
            spans
                .iter()
                .all(|s| !s.name.starts_with("tune.") && s.name != "sim.kernel"),
            "({a_cols}, {b_cols}): {:?}",
            spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
        assert_eq!(cache.stats().entries, 0, "({a_cols}, {b_cols})");
    }
}

#[test]
fn illegal_schedules_are_rejected_not_executed() {
    let g = uniform_random(30, 120, 23);
    let gt = GraphTensor::new(&g);
    let x = Tensor2::full(30, 4, 1.0);
    let rt = Runtime::new(DeviceConfig::v100());
    for (grouping, tiling) in [(0, 1), (1, 0), (0, 0)] {
        let bad = ParallelInfo {
            strategy: Strategy::WarpVertex,
            grouping,
            tiling,
        };
        let err = rt
            .run(
                &gt,
                &OpArgs::fused(OpInfo::aggregation_sum(), &x),
                Some(bad),
            )
            .unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidSchedule { .. }),
            "G={grouping} T={tiling}: {err:?}"
        );
    }
    // Off-grid but non-zero knobs are legal: they run and stay correct.
    for (grouping, tiling) in [(3, 1), (1, 999)] {
        let odd = ParallelInfo {
            strategy: Strategy::WarpVertex,
            grouping,
            tiling,
        };
        let res = rt
            .run(
                &gt,
                &OpArgs::fused(OpInfo::aggregation_sum(), &x),
                Some(odd),
            )
            .unwrap();
        for v in 0..30 {
            assert_eq!(res.output[(v, 0)], g.in_degree(v) as f32);
        }
    }
}

#[test]
fn auto_tuning_survives_hostile_graphs_with_a_tight_budget() {
    let rt = Runtime::new(DeviceConfig::v100())
        .with_search_space(ParallelInfo::basics())
        .with_tune_budget(TuneBudget::max_candidates(1));
    for (name, graph) in hostile_graphs() {
        let x = Tensor2::full(graph.num_vertices(), 4, 1.0);
        let gt = GraphTensor::new(&graph);
        match rt.run(&gt, &OpArgs::fused(OpInfo::aggregation_sum(), &x), None) {
            Ok(res) => {
                let reference =
                    execute(&graph, &OpInfo::aggregation_sum(), &OpOperands::single(&x)).unwrap();
                assert_eq!(res.output, reference, "{name}");
            }
            Err(e) => assert!(e.is_input_error(), "{name}: {e:?}"),
        }
    }
}

#[test]
fn fault_injected_devices_fail_typed_or_simulate_sanely() {
    let base = DeviceConfig::v100();
    // A perturbation that zeroes the device is a typed error, not a panic
    // or a division-by-zero later.
    assert!(FaultInjector::new()
        .with(Fault::PerturbDevice { factor: 0.0 })
        .device(&base)
        .is_err());
    assert!(FaultInjector::new()
        .with(Fault::AtomicStorm { multiplier: 0.5 })
        .instrument(&base, LaunchConfig::new(2, 128))
        .is_err());

    // Corrupting injectors still produce finite, bounded reports.
    let injectors = [
        FaultInjector::new(),
        FaultInjector::new().with(Fault::TruncateTrace { keep_events: 3 }),
        FaultInjector::new().with(Fault::ZeroCaches),
        FaultInjector::new().with(Fault::AtomicStorm { multiplier: 64.0 }),
        FaultInjector::new()
            .with(Fault::TruncateTrace { keep_events: 1 })
            .with(Fault::ZeroCaches)
            .with(Fault::PerturbDevice { factor: 0.5 }),
    ];
    for (i, inj) in injectors.iter().enumerate() {
        let mut sim = inj.instrument(&base, LaunchConfig::new(4, 256)).unwrap();
        for b in 0..4 {
            sim.begin_block(b);
            sim.load(Access {
                bases: &[4096 * u64::from(b)],
                bytes: 128,
            });
            sim.atomic(
                Access {
                    bases: &[64],
                    bytes: 4,
                },
                [u64::from(b)],
            );
            sim.compute(10.0);
            sim.end_block();
        }
        let report = sim.finish();
        assert!(
            report.time_ms.is_finite() && report.time_ms >= 0.0,
            "injector {i}: bad time {}",
            report.time_ms
        );
    }
}

#[test]
fn zero_sm_device_is_rejected_before_measuring() {
    // A device without SMs used to reach the simulator: full fidelity
    // divided by zero (caught as an untyped internal error) and sampled
    // fidelity spun forever looking for a stride coprime with zero. Each
    // case runs on its own thread so a regression fails instead of hanging.
    let mut device = DeviceConfig::v100();
    device.num_sms = 0;
    for fidelity in [Fidelity::Full, Fidelity::Auto] {
        let rt = Runtime::new(device.clone()).with_fidelity(fidelity);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let g = uniform_random(40, 160, 25);
            let x = Tensor2::full(40, 4, 1.0);
            let schedule = ParallelInfo::basic(Strategy::ThreadEdge);
            let run = rt.run(
                &GraphTensor::new(&g),
                &OpArgs::fused(OpInfo::aggregation_sum(), &x),
                Some(schedule),
            );
            let measured = rt.measure_only(&g, &OpInfo::aggregation_sum(), 4, schedule);
            tx.send((run.map(|_| ()), measured.map(|_| ())))
                .expect("the test thread is waiting");
        });
        let received = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(
            !matches!(received, Err(RecvTimeoutError::Timeout)),
            "{fidelity:?}: a zero-SM device did not finish"
        );
        worker.join().expect("the worker does not panic");
        let (run, measured) = received.expect("the worker sent its results");
        for (what, result) in [("run", run), ("measure_only", measured)] {
            assert!(
                matches!(result, Err(CoreError::DeviceInvalid { .. })),
                "{fidelity:?} {what}: expected DeviceInvalid, got {result:?}"
            );
        }
    }
}

#[test]
fn default_entry_point_is_shielded() {
    // The free-function entry point routes through the panic shield and
    // the full validation stack: a hostile call mixes several problems and
    // still comes back as a typed error.
    let g = uniform_random(10, 30, 24);
    let mut x = Tensor2::full(10, 2, 1.0);
    x[(9, 1)] = f32::NAN;
    let err = uGrapher(
        &GraphTensor::new(&g),
        &OpArgs::fused(OpInfo::aggregation_sum(), &x),
        Some(ParallelInfo {
            strategy: Strategy::ThreadVertex,
            grouping: 0,
            tiling: 0,
        }),
    )
    .unwrap_err();
    assert!(err.is_input_error(), "{err:?}");
    assert!(!matches!(err, CoreError::Internal { .. }));
}
