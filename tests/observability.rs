//! Integration tests for the observability layer: span accounting of a
//! budgeted grid search through the public `Runtime` API, trace-id joins,
//! and the zero-cost-when-disabled contract.

use ugrapher::core::abstraction::OpInfo;
use ugrapher::core::api::{GraphTensor, OpArgs, Runtime};
use ugrapher::core::cache::PlanCache;
use ugrapher::core::schedule::ParallelInfo;
use ugrapher::core::tune::TuneBudget;
use ugrapher::graph::generate::uniform_random;
use ugrapher::graph::Graph;
use ugrapher::obs::{AttrValue, Recorder, RingHandle, Span, SpanKind};
use ugrapher::sim::DeviceConfig;
use ugrapher::tensor::Tensor2;

const FEAT: usize = 8;

fn setup() -> (Graph, Tensor2) {
    let g = uniform_random(200, 1200, 3);
    let x = Tensor2::from_fn(g.num_vertices(), FEAT, |r, c| ((r + 2 * c) % 5) as f32);
    (g, x)
}

fn ring_recorder() -> (Recorder, RingHandle) {
    let mut b = Recorder::builder();
    let ring = b.ring(4096);
    (b.build(), ring)
}

fn named<'a>(spans: &'a [Span], name: &str) -> Vec<&'a Span> {
    spans.iter().filter(|s| s.name == name).collect()
}

/// Satellite (c): a grid search under `TuneBudget::max_candidates(N)`
/// records exactly N `tune.candidate` spans, and the schedule attribute of
/// the `tune.choose` / `ugrapher.run` spans matches the schedule the
/// result reports.
#[test]
fn budgeted_search_records_exactly_budget_many_candidate_spans() {
    let (g, x) = setup();
    let graph = GraphTensor::new(&g);
    let (rec, ring) = ring_recorder();
    let budget = 3;
    let space = ParallelInfo::basics();
    assert!(budget < space.len(), "budget must actually truncate");
    let rt = Runtime::new(DeviceConfig::v100())
        .with_recorder(rec)
        .with_search_space(space)
        .with_tune_budget(TuneBudget::max_candidates(budget));
    let args = OpArgs::fused(OpInfo::aggregation_sum(), &x);
    let res = rt.run(&graph, &args, None).expect("run succeeds");

    let spans = ring.snapshot();
    let candidates = named(&spans, "tune.candidate");
    assert_eq!(
        candidates.len(),
        budget,
        "one span per measured candidate, stopped by the budget"
    );
    let labels: Vec<String> = candidates
        .iter()
        .map(|s| s.attr_str("schedule").expect("candidate has schedule attr"))
        .collect();
    assert!(
        labels.contains(&res.schedule.label()),
        "chosen schedule {} must be among the measured candidates {labels:?}",
        res.schedule.label()
    );

    // The choose and run spans both report the schedule the result carries.
    let choose = named(&spans, "tune.choose");
    assert_eq!(choose.len(), 1);
    assert_eq!(
        choose[0].attr_str("schedule"),
        Some(res.schedule.label()),
        "tune.choose schedule attr matches UGrapherResult"
    );
    let run = named(&spans, "ugrapher.run");
    assert_eq!(run.len(), 1);
    assert_eq!(run[0].attr_str("schedule"), Some(res.schedule.label()));
    assert_eq!(run[0].attr("ok"), Some(&AttrValue::Bool(true)));

    // The truncated search is reported as a downgrade, not an error.
    assert!(
        res.robustness.degraded(),
        "budget truncation records a downgrade"
    );
}

/// Every span of one `Runtime::run` carries the result's trace id, so a
/// trace can be joined back to the invocation after the fact.
#[test]
fn all_spans_of_a_run_share_the_results_trace_id() {
    let (g, x) = setup();
    let graph = GraphTensor::new(&g);
    let (rec, ring) = ring_recorder();
    let rt = Runtime::new(DeviceConfig::v100())
        .with_recorder(rec)
        .with_search_space(ParallelInfo::basics());
    let args = OpArgs::fused(OpInfo::aggregation_sum(), &x);
    let res = rt.run(&graph, &args, None).expect("run succeeds");

    assert_ne!(res.trace_id, 0, "trace ids are non-zero even untraced");
    assert_eq!(res.robustness.trace_id, res.trace_id);
    let spans = ring.snapshot();
    assert!(!spans.is_empty());
    for span in &spans {
        assert_eq!(
            span.trace_id, res.trace_id,
            "span {} must join the run's trace",
            span.name
        );
    }
    // The full stack is represented: runtime, tuner, exec, and kernels.
    for name in [
        "ugrapher.run",
        "tune.choose",
        "tune.candidate",
        "exec.functional",
        "sim.kernel",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "expected a {name} span in {:?}",
            spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }
    // Kernel spans carry the SimReport metric set as attributes.
    let kernel = named(&spans, "sim.kernel");
    for attr in ["schedule", "time_ms", "dram_bytes", "achieved_occupancy"] {
        assert!(
            kernel[0].attr(attr).is_some(),
            "sim.kernel span missing {attr}"
        );
    }
}

/// An explicit-schedule run emits no tuner spans and still stamps its
/// schedule and trace id.
#[test]
fn explicit_schedule_skips_tuner_spans() {
    let (g, x) = setup();
    let graph = GraphTensor::new(&g);
    let (rec, ring) = ring_recorder();
    let rt = Runtime::new(DeviceConfig::v100()).with_recorder(rec);
    let args = OpArgs::fused(OpInfo::aggregation_sum(), &x);
    let schedule = ParallelInfo::basics()[0];
    let res = rt.run(&graph, &args, Some(schedule)).expect("run succeeds");

    assert_eq!(res.schedule, schedule);
    let spans = ring.snapshot();
    assert!(named(&spans, "tune.candidate").is_empty());
    assert!(named(&spans, "tune.choose").is_empty());
    let run = named(&spans, "ugrapher.run");
    assert_eq!(run.len(), 1);
    assert_eq!(
        run[0].attr("explicit_schedule"),
        Some(&AttrValue::Bool(true))
    );
    assert_eq!(run[0].kind, SpanKind::Runtime);
    // Exactly one kernel measurement: the executed schedule itself.
    assert_eq!(named(&spans, "sim.kernel").len(), 1);
}

/// A plan-cache miss simulates its kernel once; a hit reuses the entry's
/// report, so its `ugrapher.run` span says `plan_cache_hit = true` and no
/// `sim.kernel` span is emitted: kernel spans count real simulations only.
#[test]
fn plan_cache_hit_emits_no_kernel_span() {
    let (g, x) = setup();
    let graph = GraphTensor::new(&g);
    let (rec, ring) = ring_recorder();
    let rt = Runtime::new(DeviceConfig::v100())
        .with_recorder(rec)
        .with_plan_cache(PlanCache::shared(PlanCache::DEFAULT_CAPACITY));
    let args = OpArgs::fused(OpInfo::aggregation_sum(), &x);
    let schedule = Some(ParallelInfo::basics()[1]);

    for hit in [false, true] {
        let res = rt.run(&graph, &args, schedule).expect("run succeeds");
        assert_eq!(res.plan_cache_hit, hit);
        let spans = ring.snapshot();
        let run = named(&spans, "ugrapher.run");
        assert_eq!(run.len(), 1);
        assert_eq!(run[0].attr("plan_cache_hit"), Some(&AttrValue::Bool(hit)));
        assert_eq!(
            named(&spans, "sim.kernel").len(),
            usize::from(!hit),
            "a miss simulates once, a hit never"
        );
        assert_eq!(named(&spans, "exec.functional").len(), 1);
        ring.clear();
    }
}

/// The disabled recorder changes nothing about the computation: identical
/// output, schedule, and report as a traced run.
#[test]
fn disabled_recorder_is_behavior_preserving() {
    let (g, x) = setup();
    let graph = GraphTensor::new(&g);
    let args = OpArgs::fused(OpInfo::aggregation_sum(), &x);
    let (rec, ring) = ring_recorder();
    let traced = Runtime::new(DeviceConfig::v100())
        .with_recorder(rec)
        .with_search_space(ParallelInfo::basics())
        .run(&graph, &args, None)
        .expect("traced run");
    let silent = Runtime::new(DeviceConfig::v100())
        .with_recorder(Recorder::disabled())
        .with_search_space(ParallelInfo::basics())
        .run(&graph, &args, None)
        .expect("silent run");

    assert!(!ring.snapshot().is_empty(), "traced run recorded spans");
    assert_eq!(traced.schedule, silent.schedule);
    assert_eq!(traced.report, silent.report);
    assert_eq!(traced.output.as_slice(), silent.output.as_slice());
    assert_ne!(traced.trace_id, silent.trace_id, "ids stay unique");
}
