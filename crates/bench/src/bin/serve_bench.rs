//! Serving benchmark: drives mixed GCN/GAT/SAGE operator workloads from
//! the dataset registry through the `ugrapher-serve` engine and reports
//! throughput, latency percentiles and compiled-plan-cache effectiveness.
//!
//! Two phases per run:
//!
//! * **cold** — one request per (dataset, model flavor) key against an
//!   empty cache; every request pays auto-tuning, plan generation and IR
//!   lowering;
//! * **warm** — many rounds of the same request mix; every request hits
//!   the shared plan cache and pays only execution.
//!
//! Results land in `results/BENCH_serving.json`. `--smoke` (or
//! `UGRAPHER_QUICK=1`) shrinks datasets and rounds for CI.

// Benchmark driver: exiting on a broken invariant is the right behaviour.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use std::time::Instant;

use ugrapher_bench::{eval_datasets, print_table, quick, results_dir, scale};
use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::api::Runtime;
use ugrapher_graph::datasets::{by_abbrev, Scale};
use ugrapher_serve::{ServeConfig, ServeEngine, ServeRequest};
use ugrapher_sim::DeviceConfig;
use ugrapher_tensor::Tensor2;
use ugrapher_util::json::Value;

const FEAT: usize = 32;
/// Warm rounds per key: 19 hits after 1 miss puts the floor at 95% hit
/// rate even before requests repeat across rounds.
const WARM_ROUNDS: usize = 19;
const SMOKE_WARM_ROUNDS: usize = 19;

/// One model-flavored operator request: the graph operator that dominates
/// the model's message-passing step.
fn flavors() -> Vec<(&'static str, OpInfo)> {
    vec![
        // GCN: edge-weighted aggregation (normalized adjacency).
        ("gcn", OpInfo::weighted_aggregation_sum()),
        // GAT: attention message creation (u_add_v into an edge tensor).
        ("gat", OpInfo::message_creation_add()),
        // GraphSAGE: mean aggregation of neighbor features.
        ("sage", OpInfo::aggregation_mean()),
    ]
}

struct Workload {
    dataset: &'static str,
    flavor: &'static str,
    request: ServeRequest,
}

fn build_workloads(smoke: bool) -> Vec<Workload> {
    let datasets: Vec<&'static str> = if smoke {
        vec!["CO", "PR"]
    } else {
        eval_datasets()
    };
    let graph_scale = if smoke { Scale::Ratio(0.01) } else { scale() };
    let mut workloads = Vec::new();
    for abbrev in datasets {
        let graph = Arc::new(by_abbrev(abbrev).unwrap().build(graph_scale));
        let x = Arc::new(Tensor2::from_fn(graph.num_vertices(), FEAT, |r, c| {
            ((r * 31 + c * 7) % 23) as f32 * 0.03
        }));
        let w = Arc::new(Tensor2::from_fn(graph.num_edges(), 1, |r, _| {
            1.0 / (1.0 + (r % 7) as f32)
        }));
        for (flavor, op) in flavors() {
            let request = match flavor {
                "gcn" => {
                    ServeRequest::binary(Arc::clone(&graph), op, Arc::clone(&x), Arc::clone(&w))
                }
                "gat" => {
                    ServeRequest::binary(Arc::clone(&graph), op, Arc::clone(&x), Arc::clone(&x))
                }
                _ => ServeRequest::fused(Arc::clone(&graph), op, Arc::clone(&x)),
            };
            workloads.push(Workload {
                dataset: abbrev,
                flavor,
                request,
            });
        }
    }
    workloads
}

/// Submits every workload once and waits for all replies; returns the
/// wall time in ms and the per-request latencies.
fn run_round(engine: &ServeEngine, workloads: &[Workload]) -> (f64, Vec<f64>, usize) {
    let t0 = Instant::now();
    let pending: Vec<_> = workloads
        .iter()
        .map(|w| (w.dataset, w.flavor, engine.submit(w.request.clone())))
        .collect();
    let mut latencies = Vec::new();
    let mut hits = 0usize;
    for (dataset, flavor, p) in pending {
        match p.and_then(|p| p.wait()) {
            Ok(resp) => {
                latencies.push(resp.total_ms);
                if resp.result.plan_cache_hit {
                    hits += 1;
                }
            }
            Err(e) => panic!("{dataset}/{flavor} request failed: {e}"),
        }
    }
    (t0.elapsed().as_secs_f64() * 1e3, latencies, hits)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = quick() || std::env::args().any(|a| a == "--smoke");
    let warm_rounds = if smoke {
        SMOKE_WARM_ROUNDS
    } else {
        WARM_ROUNDS
    };
    let workloads = build_workloads(smoke);
    let keys = workloads.len();

    let engine = ServeEngine::start(
        Runtime::new(DeviceConfig::v100()),
        ServeConfig {
            queue_capacity: (keys * 2).max(64),
            ..ServeConfig::default()
        },
    );

    // Cold: every key is a miss, paying auto-tuning + plan generation +
    // IR lowering.
    let (cold_ms, cold_latencies, cold_hits) = run_round(&engine, &workloads);
    assert_eq!(cold_hits, 0, "cold phase must not hit the cache");
    let cold_rps = keys as f64 / (cold_ms / 1e3);

    // Warm: the same mix, every request a cache hit.
    let t0 = Instant::now();
    let mut warm_latencies = Vec::new();
    let mut warm_hits = 0usize;
    for _ in 0..warm_rounds {
        let (_, latencies, hits) = run_round(&engine, &workloads);
        warm_latencies.extend(latencies);
        warm_hits += hits;
    }
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_requests = keys * warm_rounds;
    let warm_rps = warm_requests as f64 / (warm_ms / 1e3);
    assert_eq!(warm_hits, warm_requests, "warm phase must hit every time");

    warm_latencies.sort_by(|a, b| a.total_cmp(b));
    let mut cold_sorted = cold_latencies.clone();
    cold_sorted.sort_by(|a, b| a.total_cmp(b));

    let stats = engine.cache_stats();
    let hit_rate = stats.hit_rate();
    let speedup = warm_rps / cold_rps;

    let mut rows = Vec::new();
    for w in &workloads {
        rows.push(vec![w.dataset.to_owned(), w.flavor.to_owned()]);
    }
    print_table(
        "Serving workload mix (one key per row)",
        &["dataset", "model"],
        &rows,
    );
    print_table(
        "Serving throughput and latency",
        &["phase", "requests", "rps", "p50 ms", "p99 ms"],
        &[
            vec![
                "cold".to_owned(),
                keys.to_string(),
                format!("{cold_rps:.1}"),
                format!("{:.3}", percentile(&cold_sorted, 0.50)),
                format!("{:.3}", percentile(&cold_sorted, 0.99)),
            ],
            vec![
                "warm".to_owned(),
                warm_requests.to_string(),
                format!("{warm_rps:.1}"),
                format!("{:.3}", percentile(&warm_latencies, 0.50)),
                format!("{:.3}", percentile(&warm_latencies, 0.99)),
            ],
        ],
    );
    println!(
        "\nwarm/cold speedup: {speedup:.1}x   cache hit rate: {:.1}% ({} hits / {} lookups)",
        hit_rate * 100.0,
        stats.hits,
        stats.hits + stats.misses
    );

    let json = Value::obj(vec![
        ("smoke", Value::Bool(smoke)),
        (
            "datasets",
            Value::Arr(
                workloads
                    .iter()
                    .map(|w| Value::Str(format!("{}/{}", w.dataset, w.flavor)))
                    .collect(),
            ),
        ),
        ("feat", Value::Num(FEAT as f64)),
        ("warm_rounds", Value::Num(warm_rounds as f64)),
        (
            "cold",
            Value::obj(vec![
                ("requests", Value::Num(keys as f64)),
                ("wall_ms", Value::Num(cold_ms)),
                ("throughput_rps", Value::Num(cold_rps)),
                ("p50_ms", Value::Num(percentile(&cold_sorted, 0.50))),
                ("p99_ms", Value::Num(percentile(&cold_sorted, 0.99))),
            ]),
        ),
        (
            "warm",
            Value::obj(vec![
                ("requests", Value::Num(warm_requests as f64)),
                ("wall_ms", Value::Num(warm_ms)),
                ("throughput_rps", Value::Num(warm_rps)),
                ("p50_ms", Value::Num(percentile(&warm_latencies, 0.50))),
                ("p99_ms", Value::Num(percentile(&warm_latencies, 0.99))),
            ]),
        ),
        ("warm_over_cold_speedup", Value::Num(speedup)),
        (
            "cache",
            Value::obj(vec![
                ("hits", Value::Num(stats.hits as f64)),
                ("misses", Value::Num(stats.misses as f64)),
                ("hit_rate", Value::Num(hit_rate)),
                ("entries", Value::Num(stats.entries as f64)),
                ("evictions", Value::Num(stats.evictions as f64)),
            ]),
        ),
    ]);
    let path = results_dir().join("BENCH_serving.json");
    std::fs::write(&path, json.to_string_compact()).expect("can write BENCH_serving.json");
    println!("[saved results/BENCH_serving.json]");

    assert!(
        hit_rate >= 0.90,
        "cache hit rate {hit_rate:.3} below the 0.90 acceptance bar"
    );
    assert!(
        speedup >= 5.0,
        "warm throughput only {speedup:.1}x cold; acceptance bar is 5x"
    );
}
