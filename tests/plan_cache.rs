//! Plan-cache reuse through the public `Runtime` API: a hit returns the
//! report its entry was measured with, which must equal a fresh simulation
//! bit for bit, while the output is always computed from the operands the
//! caller passed; one cache shared across devices never replays another
//! device's schedule or report; and a GNN backend tunes each graph, not
//! each graph size.

use std::sync::Arc;

use ugrapher::core::abstraction::{OpInfo, TensorType};
use ugrapher::core::api::{GraphTensor, OpArgs, Runtime, UGrapherResult};
use ugrapher::core::cache::PlanCache;
use ugrapher::core::exec::{execute, Fidelity, OpOperands};
use ugrapher::core::schedule::{ParallelInfo, Strategy};
use ugrapher::gnn::{GraphOpBackend, ModelKind, OpSite, OpSiteKind, UGrapherBackend};
use ugrapher::graph::generate::{uniform_random, DegreeModel, GraphSpec};
use ugrapher::graph::Graph;
use ugrapher::sim::{DeviceConfig, Fault, FaultInjector};
use ugrapher::tensor::Tensor2;

const FEAT: usize = 8;

/// A power-law hub, an edgeless graph, one vertex with a self-loop, and a
/// multigraph with parallel edges.
fn graphs() -> Vec<(&'static str, Graph)> {
    let hub = GraphSpec {
        num_vertices: 400,
        num_edges: 2400,
        degree_model: DegreeModel::PowerLaw { alpha: 2.0 },
        locality: 0.2,
        seed: 11,
    }
    .build();
    let multi = Graph::from_edges(
        6,
        vec![0, 0, 0, 2, 2, 1, 3, 5],
        vec![1, 1, 1, 1, 1, 3, 3, 4],
    )
    .expect("valid multigraph");
    vec![
        ("hub", hub),
        (
            "edgeless",
            Graph::from_edges(64, vec![], vec![]).expect("valid edgeless graph"),
        ),
        (
            "self-loop",
            Graph::from_edges(1, vec![0], vec![0]).expect("valid self-loop"),
        ),
        ("multi", multi),
    ]
}

/// Aggregation sum and max, weighted aggregation with a scalar and a
/// full-width B, message creation, and an edge-output copy. The second
/// field is the column count of B (`0` when B is `Null`).
fn ops() -> Vec<(OpInfo, usize)> {
    vec![
        (OpInfo::aggregation_sum(), 0),
        (OpInfo::aggregation_max(), 0),
        (OpInfo::weighted_aggregation_sum(), 1),
        (OpInfo::weighted_aggregation_sum(), FEAT),
        (OpInfo::message_creation_add(), FEAT),
        (OpInfo::message_creation_copy_src(), 0),
    ]
}

/// The four basic strategies plus one grouped and one tiled variant.
fn schedules() -> Vec<ParallelInfo> {
    let mut s = ParallelInfo::basics();
    s.push(ParallelInfo::new(Strategy::WarpEdge, 8, 1));
    s.push(ParallelInfo::new(Strategy::ThreadVertex, 1, 4));
    s
}

/// A seeded operand of type `ty` with `cols` columns on graph `g`.
fn operand(g: &Graph, ty: TensorType, cols: usize, seed: usize) -> Tensor2 {
    let rows = match ty {
        TensorType::Edge => g.num_edges(),
        _ => g.num_vertices(),
    };
    Tensor2::from_fn(rows, cols, |r, c| {
        ((r * 7 + c * 3 + seed) % 11) as f32 - 5.0
    })
}

/// Operands A (and B, if the operator has one) for `op`, seeded by `seed`.
fn operands(g: &Graph, op: &OpInfo, b_cols: usize, seed: usize) -> (Tensor2, Option<Tensor2>) {
    let a = operand(g, op.a, FEAT, seed);
    let b = (op.b != TensorType::Null).then(|| operand(g, op.b, b_cols, seed + 5));
    (a, b)
}

fn args<'a>(op: OpInfo, a: &'a Tensor2, b: Option<&'a Tensor2>) -> OpArgs<'a> {
    match b {
        Some(b) => OpArgs::binary(op, a, b),
        None => OpArgs::fused(op, a),
    }
}

fn output_bits(t: &Tensor2) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts that `got` carries exactly what `want` (from a cache-less
/// runtime) does: schedule, report bits, output bits, downgrades and
/// determinism class.
fn assert_same(got: &UGrapherResult, want: &UGrapherResult, what: &str) {
    assert_eq!(got.schedule, want.schedule, "{what}: schedule");
    assert_eq!(got.report.bits(), want.report.bits(), "{what}: report");
    assert_eq!(
        output_bits(&got.output),
        output_bits(&want.output),
        "{what}: output"
    );
    assert_eq!(
        got.robustness.downgrades, want.robustness.downgrades,
        "{what}: downgrades"
    );
    assert_eq!(
        got.robustness.determinism, want.robustness.determinism,
        "{what}: determinism"
    );
}

/// A hit's report is bitwise-equal to a fresh simulation on every device,
/// fidelity, operator, schedule and graph of the matrix, and a hit on new
/// feature values of the same shape returns the new output with the same
/// report: outputs are never memoized.
#[test]
fn hit_report_is_bitwise_equal_to_a_fresh_simulation() {
    let graphs = graphs();
    let mut changed_outputs = 0;
    for device in [DeviceConfig::v100(), DeviceConfig::a100()] {
        for fidelity in [Fidelity::Full, Fidelity::Auto] {
            let fresh = Runtime::new(device.clone()).with_fidelity(fidelity);
            let cached = fresh
                .clone()
                .with_plan_cache(PlanCache::shared(PlanCache::DEFAULT_CAPACITY));
            for (name, g) in &graphs {
                let gt = GraphTensor::new(g);
                for (op, b_cols) in ops() {
                    let (a1, b1) = operands(g, &op, b_cols, 0);
                    let (a2, b2) = operands(g, &op, b_cols, 1);
                    let first = args(op, &a1, b1.as_ref());
                    let second = args(op, &a2, b2.as_ref());
                    for p in schedules() {
                        let what = format!(
                            "{} {fidelity:?} {name} {} B{b_cols} {}",
                            device.name,
                            op.label(),
                            p.label()
                        );
                        let want = fresh.run(&gt, &first, Some(p)).expect(&what);
                        let miss = cached.run(&gt, &first, Some(p)).expect(&what);
                        assert!(!miss.plan_cache_hit, "{what}: first run misses");
                        assert_same(&miss, &want, &what);
                        let hit = cached.run(&gt, &first, Some(p)).expect(&what);
                        assert!(hit.plan_cache_hit, "{what}: repeat run hits");
                        assert_same(&hit, &want, &what);

                        let new_values = cached.run(&gt, &second, Some(p)).expect(&what);
                        assert!(new_values.plan_cache_hit, "{what}: same shape hits");
                        assert_eq!(
                            new_values.report.bits(),
                            want.report.bits(),
                            "{what}: report of a hit on new values"
                        );
                        let reference = execute(g, &op, &second.operands).expect(&what);
                        assert_eq!(
                            output_bits(&new_values.output),
                            output_bits(&reference),
                            "{what}: a hit computes the output from its own operands"
                        );
                        if new_values.output != hit.output {
                            changed_outputs += 1;
                        }
                    }
                }
            }
            let stats = cached.plan_cache().expect("cache installed").stats();
            assert_eq!(stats.misses as usize, stats.entries, "one miss per entry");
            assert_eq!(stats.hits, 2 * stats.misses, "two hits per entry");
        }
    }
    assert!(
        changed_outputs > 0,
        "the second operands must change outputs"
    );
}

/// One cache shared by runtimes on V100, A100 and a perturbed V100 returns
/// on each device exactly what a cache-less runtime on that device does:
/// an entry compiled on another device is a miss, recompiled and replaced.
/// Each runtime runs twice in a row, so every second run is a hit, and the
/// cache's hit count equals the number of results flagged as hits.
#[test]
fn shared_cache_never_replays_another_devices_work() {
    let perturbed = FaultInjector::new()
        .with(Fault::PerturbDevice { factor: 0.5 })
        .device(&DeviceConfig::v100())
        .expect("a halved V100 is a valid device");
    let devices = [DeviceConfig::v100(), DeviceConfig::a100(), perturbed];
    let cache = PlanCache::shared(PlanCache::DEFAULT_CAPACITY);
    let runtime = |device: &DeviceConfig| {
        Runtime::new(device.clone()).with_search_space(ParallelInfo::basics())
    };
    let shared: Vec<Runtime> = devices
        .iter()
        .map(|d| runtime(d).with_plan_cache(Arc::clone(&cache)))
        .collect();
    let fresh: Vec<Runtime> = devices.iter().map(runtime).collect();

    let graphs = graphs();
    let (name, g) = &graphs[0];
    let gt = GraphTensor::new(g);
    let x = operand(g, TensorType::SrcV, FEAT, 0);
    let w = operand(g, TensorType::Edge, 1, 3);
    let requests = [
        (OpArgs::fused(OpInfo::aggregation_sum(), &x), None),
        (
            OpArgs::binary(OpInfo::weighted_aggregation_sum(), &x, &w),
            Some(ParallelInfo::basic(Strategy::WarpEdge)),
        ),
    ];
    let mut flagged_hits = 0;
    for round in 0..2 {
        for (i, device) in devices.iter().enumerate() {
            for (args, parallel) in &requests {
                let want = fresh[i].run(&gt, args, *parallel).unwrap();
                for repeat in 0..2 {
                    let got = shared[i].run(&gt, args, *parallel).unwrap();
                    let what = format!(
                        "round {round} {} {name} {} {parallel:?} repeat {repeat}",
                        device.name,
                        args.op.label()
                    );
                    assert_eq!(got.plan_cache_hit, repeat == 1, "{what}: hit flag");
                    assert_same(&got, &want, &what);
                    flagged_hits += u64::from(got.plan_cache_hit);
                }
            }
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.hits, flagged_hits);
    assert_eq!(stats.misses, flagged_hits, "every first run recompiles");
    assert_eq!(
        stats.entries,
        requests.len(),
        "entries are replaced in place"
    );
}

/// Two graphs of equal size whose degree structure calls for different
/// schedules: a shared `UGrapherBackend` runs the second under the schedule
/// tuned for it, so its report equals a fresh backend's bit for bit.
#[test]
fn backend_tunes_each_graph_not_each_graph_size() {
    const V: usize = 2000;
    const E: usize = 16_000;
    const WIDE: usize = 32;
    let uniform = uniform_random(V, E, 3);
    // Every edge lands on vertex 0: one hub with all 16000 in-edges.
    let star = Graph::from_edges(V, (0..E).map(|e| (e % V) as u32).collect(), vec![0; E])
        .expect("valid star");
    let x = Tensor2::from_fn(V, WIDE, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
    let site = OpSite::new(ModelKind::Gcn, 1, OpSiteKind::Aggregation);
    let op = OpInfo::aggregation_sum();
    let run = |backend: &UGrapherBackend, g: &Graph| {
        backend
            .run_op(g, &site, &op, &OpOperands::single(&x))
            .expect("valid aggregation")
    };
    let tuned = |g: &Graph| {
        UGrapherBackend::quick(DeviceConfig::v100())
            .schedule_for(&GraphTensor::new(g), &site, &op, WIDE, (false, false))
            .expect("valid aggregation")
    };
    assert_ne!(
        tuned(&uniform),
        tuned(&star),
        "the two graphs must call for different schedules"
    );

    let (want_output, want_report) = run(&UGrapherBackend::quick(DeviceConfig::v100()), &star);
    let shared = UGrapherBackend::quick(DeviceConfig::v100());
    run(&shared, &uniform);
    let (output, report) = run(&shared, &star);
    assert_eq!(report.bits(), want_report.bits(), "star report");
    assert_eq!(
        output_bits(&output),
        output_bits(&want_output),
        "star output"
    );
}

/// An auto-tuned miss reports what simulating its chosen schedule afresh
/// reports. Under `Fidelity::Auto`, the tuner's fidelity, the miss reuses
/// grid search's report of the winner; under `Full` it measures again, and
/// the chosen kernel is large enough that the two fidelities differ.
#[test]
fn tuned_miss_reports_a_fresh_simulation_of_its_schedule() {
    let g = uniform_random(4000, 16000, 5);
    let gt = GraphTensor::new(&g);
    let x = Tensor2::full(g.num_vertices(), 32, 1.0);
    let args = OpArgs::fused(OpInfo::aggregation_sum(), &x);
    // Two pairs of twins at feat 32: T64 clamps to T32's kernel.
    let space = vec![
        ParallelInfo::new(Strategy::WarpVertex, 1, 64),
        ParallelInfo::new(Strategy::WarpVertex, 1, 32),
        ParallelInfo::new(Strategy::WarpEdge, 2, 64),
        ParallelInfo::new(Strategy::WarpEdge, 2, 32),
    ];
    let mut reports = Vec::new();
    for fidelity in [Fidelity::Auto, Fidelity::Full] {
        let rt = Runtime::new(DeviceConfig::v100()).with_fidelity(fidelity);
        let tuned = rt
            .clone()
            .with_search_space(space.clone())
            .run(&gt, &args, None)
            .expect("tuned run");
        assert_eq!(
            tuned.schedule.tiling, 64,
            "the first of two twins wins a tie"
        );
        let fresh = rt.run(&gt, &args, Some(tuned.schedule)).expect("fresh run");
        assert_eq!(
            tuned.report.bits(),
            fresh.report.bits(),
            "{fidelity:?}: tuned report"
        );
        reports.push(tuned.report);
    }
    assert_ne!(
        reports[0].bits(),
        reports[1].bits(),
        "Auto and Full must differ here for the Full case to show a fresh measurement"
    );
}
