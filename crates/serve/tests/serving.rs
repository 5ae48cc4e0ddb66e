//! Integration tests for the serving engine: saturation shedding, plan
//! cache invalidation on graph mutation, and determinism of concurrent
//! cache hits.

use std::sync::Arc;
use std::time::Duration;

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::api::Runtime;
use ugrapher_core::cache::PlanKey;
use ugrapher_core::codegen_cuda::emit_cuda;
use ugrapher_core::ir::DeterminismClass;
use ugrapher_core::schedule::{ParallelInfo, Strategy};
use ugrapher_graph::generate::uniform_random;
use ugrapher_graph::Graph;
use ugrapher_serve::{ServeConfig, ServeEngine, ServeError, ServeRequest};
use ugrapher_sim::DeviceConfig;
use ugrapher_tensor::Tensor2;

const FEAT: usize = 8;

fn engine(config: ServeConfig) -> ServeEngine {
    ServeEngine::start(Runtime::new(DeviceConfig::v100()), config)
}

fn request(graph: &Arc<Graph>) -> ServeRequest {
    let x = Arc::new(Tensor2::full(graph.num_vertices(), FEAT, 1.0));
    ServeRequest::fused(Arc::clone(graph), OpInfo::aggregation_sum(), x)
}

/// Saturation: queue capacity 1 and eight concurrent submitters hammering
/// a single worker. Excess load must shed with a typed error — never a
/// panic, never a deadlock — and the engine must keep serving afterwards.
#[test]
fn saturation_sheds_with_typed_error() {
    let engine = engine(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let graph = Arc::new(uniform_random(300, 1500, 11));
    // Auto-tuned (no explicit schedule): the first miss runs the full
    // grid search, keeping the lone worker busy while submitters flood.
    let req = request(&graph);

    let mut served = 0usize;
    let mut shed = 0usize;
    std::thread::scope(|scope| {
        let outcomes: Vec<_> = (0..8)
            .map(|_| {
                let req = req.clone();
                let engine = &engine;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for _ in 0..4 {
                        local.push(match engine.submit(req.clone()) {
                            Ok(pending) => pending.wait(),
                            Err(e) => Err(e),
                        });
                    }
                    local
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().expect("submitter must not panic"))
            .collect();
        for outcome in outcomes {
            match outcome {
                Ok(resp) => {
                    served += 1;
                    assert!(resp.total_ms >= resp.queue_ms);
                }
                Err(ServeError::Overloaded { queue_capacity }) => {
                    shed += 1;
                    assert_eq!(queue_capacity, 1);
                }
                Err(other) => panic!("unexpected verdict under saturation: {other:?}"),
            }
        }
    });
    assert!(served >= 1, "at least the head-of-line request is served");
    assert!(
        shed >= 1,
        "32 submissions against a capacity-1 queue must shed some load \
         (served {served}, shed {shed})"
    );
    // The engine survives saturation.
    assert!(engine.run_sync(request(&graph)).is_ok());
}

/// Cache invalidation: a mutated graph (one extra edge — changed nnz, same
/// vertex count) must miss the plan cache, and explicit invalidation must
/// drop the stale entries.
#[test]
fn mutated_graph_misses_the_plan_cache() {
    let engine = engine(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut src: Vec<u32> = vec![0, 1, 2, 3, 4, 5];
    let mut dst: Vec<u32> = vec![1, 2, 3, 4, 5, 0];
    let g1 = Arc::new(Graph::from_edges(16, src.clone(), dst.clone()).expect("valid graph"));
    src.push(7);
    dst.push(3);
    let g2 = Arc::new(Graph::from_edges(16, src, dst).expect("valid graph"));
    assert_eq!(g1.num_vertices(), g2.num_vertices());
    assert_ne!(g1.num_edges(), g2.num_edges());
    assert_ne!(g1.structural_fingerprint(), g2.structural_fingerprint());

    let sched = ParallelInfo::basic(Strategy::ThreadVertex);
    let cold = engine
        .run_sync(request(&g1).with_schedule(sched))
        .expect("cold request");
    assert!(!cold.result.plan_cache_hit);
    let warm = engine
        .run_sync(request(&g1).with_schedule(sched))
        .expect("warm request");
    assert!(warm.result.plan_cache_hit, "same graph version hits");

    let mutated = engine
        .run_sync(request(&g2).with_schedule(sched))
        .expect("mutated-graph request");
    assert!(
        !mutated.result.plan_cache_hit,
        "changed nnz with the same vertex count must be a miss"
    );

    // Explicit invalidation of g1's version drops its entry; the next g1
    // request recompiles.
    assert_eq!(
        engine
            .plan_cache()
            .invalidate_graph(g1.structural_fingerprint()),
        1
    );
    let recompiled = engine
        .run_sync(request(&g1).with_schedule(sched))
        .expect("post-invalidation request");
    assert!(!recompiled.result.plan_cache_hit);

    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.invalidations, 1);
}

/// Concurrent cache hits must be deterministic: every hit of a
/// Sequential-determinism kernel returns bitwise-identical results, and
/// the cached IR emits byte-identical CUDA from every thread.
#[test]
fn concurrent_hits_are_bitwise_deterministic() {
    let engine = engine(ServeConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    let graph = Arc::new(uniform_random(200, 1000, 13));
    // Thread-vertex aggregation lowers to a sequential (atomic-free)
    // reduction — the class that guarantees bitwise-identical replays.
    let sched = ParallelInfo::basic(Strategy::ThreadVertex);
    let warmup = engine
        .run_sync(request(&graph).with_schedule(sched))
        .expect("warmup");
    assert_eq!(
        warmup.result.robustness.determinism,
        Some(DeterminismClass::Sequential)
    );
    let baseline = warmup.result.output.clone();

    let key = PlanKey {
        op: OpInfo::aggregation_sum(),
        explicit: Some(sched),
        graph_fingerprint: graph.structural_fingerprint(),
        feat: FEAT,
        scalars: (false, false),
    };
    let baseline_cuda = emit_cuda(
        &engine
            .plan_cache()
            .get(&key)
            .expect("warmup populated the cache")
            .plan,
    )
    .expect("cached plans emit");

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let graph = Arc::clone(&graph);
                let engine = &engine;
                scope.spawn(move || {
                    let resp = engine
                        .run_sync(request(&graph).with_schedule(sched))
                        .expect("warm request");
                    let cuda = emit_cuda(
                        &engine
                            .plan_cache()
                            .get(&key)
                            .expect("entry stays resident")
                            .plan,
                    )
                    .expect("cached plans emit");
                    (resp, cuda)
                })
            })
            .collect();
        for handle in handles {
            let (resp, cuda) = handle.join().expect("no panic under concurrency");
            assert!(resp.result.plan_cache_hit, "post-warmup requests hit");
            assert_eq!(
                resp.result.output, baseline,
                "Sequential kernels replay bitwise-identically"
            );
            assert_eq!(cuda, baseline_cuda, "cached plan emits byte-identical CUDA");
        }
    });

    let stats = engine.cache_stats();
    assert!(stats.hits >= 8, "every concurrent request hit: {stats:?}");
}

/// A request whose deadline expires while it waits behind slow work is
/// dropped without executing and reports the miss as a typed error.
#[test]
fn queued_request_past_deadline_is_shed() {
    let engine = engine(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    });
    let graph = Arc::new(uniform_random(300, 1500, 17));
    // Head-of-line: auto-tuned miss, occupies the only worker.
    let slow = engine.submit(request(&graph)).expect("admitted");
    // Queued behind it with an impossible deadline.
    let doomed = engine
        .submit(request(&graph).with_deadline(Duration::from_nanos(1)))
        .expect("admitted");
    assert!(slow.wait().is_ok());
    match doomed.wait() {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}
