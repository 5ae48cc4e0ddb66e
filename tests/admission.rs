//! Admission facts are computed once per `Graph` value and kept in the
//! graph: every wrap, clone, thread and serve request that shares the value
//! sees exactly what the raw, un-memoised functions compute, and results
//! are bit-identical to requests on freshly built copies.

use std::sync::{Arc, Barrier};

use ugrapher::core::abstraction::OpInfo;
use ugrapher::core::api::{GraphTensor, Runtime};
use ugrapher::core::schedule::ParallelInfo;
use ugrapher::graph::generate::{DegreeModel, GraphSpec};
use ugrapher::graph::{Coo, DegreeStats, Graph};
use ugrapher::serve::{ServeConfig, ServeEngine, ServeRequest};
use ugrapher::sim::DeviceConfig;
use ugrapher::tensor::Tensor2;

const FEAT: usize = 8;

fn hub_graph() -> Graph {
    GraphSpec {
        num_vertices: 300,
        num_edges: 1800,
        degree_model: DegreeModel::PowerLaw { alpha: 2.0 },
        locality: 0.3,
        seed: 17,
    }
    .build()
}

/// What one admission reports: stats, fingerprint and verdict.
fn facts(gt: &GraphTensor<'_>) -> (DegreeStats, u64, Option<String>) {
    (
        *gt.stats(),
        gt.fingerprint(),
        gt.validation_error().map(str::to_owned),
    )
}

/// The same three facts from the raw functions.
fn raw_facts(g: &Graph) -> (DegreeStats, u64, Option<String>) {
    (
        g.degree_stats(),
        g.structural_fingerprint(),
        g.validate().err().map(|e| e.to_string()),
    )
}

#[test]
fn repeated_admission_matches_the_raw_functions() {
    let g = hub_graph();
    let want = raw_facts(&g);
    assert_eq!(want.2, None);
    for _ in 0..5 {
        assert_eq!(facts(&GraphTensor::new(&g)), want);
    }
    assert_eq!(raw_facts(&g), want, "raw functions are not memoised");
}

#[test]
fn clones_with_and_without_a_memo_equal_a_fresh_build() {
    let g = hub_graph();
    let empty_clone = g.clone();
    GraphTensor::new(&g);
    let filled_clone = g.clone();
    let fresh = Graph::from_coo(&g.to_coo());
    assert_eq!(filled_clone, fresh);
    assert_eq!(empty_clone, fresh);
    assert_eq!(g, fresh);
    let want = raw_facts(&fresh);
    for clone in [&filled_clone, &empty_clone] {
        assert_eq!(facts(&GraphTensor::new(clone)), want);
    }
    assert_eq!(format!("{filled_clone:?}"), format!("{fresh:?}"));
}

#[test]
fn concurrent_first_admissions_agree() {
    let g = Arc::new(hub_graph());
    let want = raw_facts(&g);
    let barrier = Barrier::new(8);
    let seen: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (g, barrier) = (Arc::clone(&g), &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    facts(&GraphTensor::new(&g))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("admission must not panic"))
            .collect()
    });
    for f in seen {
        assert_eq!(f, want);
    }
}

/// 50 requests: each alternates operator and schedule, with operands
/// seeded by its index.
fn request(graph: Arc<Graph>, i: usize) -> ServeRequest {
    let (nv, ne) = (graph.num_vertices(), graph.num_edges());
    let x = Arc::new(Tensor2::from_fn(nv, FEAT, |r, c| {
        ((r * 7 + c * 3 + i) % 11) as f32 * 0.25 - 1.0
    }));
    let schedule = ParallelInfo::basics()[i % 4];
    let req = if i.is_multiple_of(2) {
        ServeRequest::fused(graph, OpInfo::aggregation_sum(), x)
    } else {
        let w = Arc::new(Tensor2::from_fn(ne, 1, |r, _| ((r + i) % 5) as f32 * 0.5));
        ServeRequest::binary(graph, OpInfo::weighted_aggregation_sum(), x, w)
    };
    req.with_schedule(schedule)
}

#[test]
fn shared_graph_requests_match_fresh_copies_bitwise() {
    let start = || ServeEngine::start(Runtime::new(DeviceConfig::v100()), ServeConfig::default());
    let (shared_engine, fresh_engine) = (start(), start());
    let shared = Arc::new(hub_graph());
    let coo: Coo = shared.to_coo();
    for i in 0..50 {
        let got = shared_engine
            .run_sync(request(Arc::clone(&shared), i))
            .expect("shared-graph request");
        let want = fresh_engine
            .run_sync(request(Arc::new(Graph::from_coo(&coo)), i))
            .expect("fresh-copy request");
        let (got, want) = (got.result, want.result);
        let bits = |t: &Tensor2| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.output), bits(&want.output), "request {i}: output");
        assert_eq!(got.report.bits(), want.report.bits(), "request {i}: report");
        assert_eq!(got.schedule, want.schedule, "request {i}: schedule");
        assert_eq!(got.plan_cache_hit, want.plan_cache_hit, "request {i}");
        assert_eq!(
            got.robustness.downgrades, want.robustness.downgrades,
            "request {i}: downgrades"
        );
    }
}
