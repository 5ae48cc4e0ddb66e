//! Seeded workload inputs: graphs, operand tensors and request lists.
//!
//! Everything here is a pure function of the `--seed` argument and the
//! [`Sizing`]. Graph *sizes* follow fixed geometric ladders, so the cost mix
//! of a workload is the same for every seed; the seed chooses graph
//! structure, feature values and request order.

use std::sync::Arc;
use std::time::Instant;

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_gnn::{ModelConfig, ModelKind};
use ugrapher_graph::datasets::{by_abbrev, catalog, DatasetInfo};
use ugrapher_graph::generate::{DegreeModel, GraphSpec};
use ugrapher_graph::Graph;
use ugrapher_serve::ServeRequest;
use ugrapher_tensor::Tensor2;
use ugrapher_util::rng::StdRng;

/// Feature width of every serve request.
pub const SERVE_FEAT: usize = 32;
/// Input feature width of every GNN forward pass.
pub const GNN_FEAT: usize = 32;
/// Output classes of every GNN forward pass.
pub const GNN_CLASSES: usize = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serving steady state: every timed request is a plan-cache hit.
    ServeWarm,
    /// Time to first result: every request is a new graph and auto-tunes.
    ServeCold,
    /// Repeated full GNN forward passes through the library API.
    GnnInfer,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ServeWarm, Workload::ServeCold, Workload::GnnInfer];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve-warm",
            Workload::ServeCold => "serve-cold",
            Workload::GnnInfer => "gnn-infer",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big each workload is. [`Sizing::full`] is the benchmark;
/// [`Sizing::tiny`] is the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// serve-warm: distinct graphs (each served with three operators).
    pub warm_graphs: usize,
    /// serve-warm: smallest and largest edge count of the ladder.
    pub warm_edges: (usize, usize),
    /// serve-cold: requests (each a new graph) in one pass.
    pub cold_requests: usize,
    /// serve-cold: smallest and largest vertex count of the ladder.
    pub cold_vertices: (usize, usize),
    /// gnn-infer: distinct graphs per model.
    pub gnn_graphs: usize,
    /// gnn-infer: smallest and largest edge count of the ladder.
    pub gnn_edges: (usize, usize),
}

impl Sizing {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            warm_graphs: 80,
            warm_edges: (1_500, 40_000),
            cold_requests: 16,
            cold_vertices: (120, 360),
            gnn_graphs: 24,
            gnn_edges: (1_000, 20_000),
        }
    }

    /// A small version of every workload, for the self-test.
    pub fn tiny() -> Self {
        Self {
            warm_graphs: 12,
            warm_edges: (3_000, 12_000),
            cold_requests: 12,
            cold_vertices: (64, 128),
            gnn_graphs: 3,
            gnn_edges: (1_000, 4_000),
        }
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `i`-th of `n` points on a geometric ladder from `lo` to `hi`.
fn ladder(lo: usize, hi: usize, i: usize, n: usize) -> usize {
    if n <= 1 {
        return lo;
    }
    let t = i as f64 / (n - 1) as f64;
    (lo as f64 * (hi as f64 / lo as f64).powf(t)).round() as usize
}

/// A graph shaped like `dataset` (same mean in-degree, in-degree spread and
/// locality) with `num_edges` edges.
fn dataset_like(dataset: &DatasetInfo, num_edges: usize, seed: u64) -> Graph {
    let mean_degree = dataset.num_edges as f64 / dataset.num_vertices as f64;
    let num_vertices = ((num_edges as f64 / mean_degree).round() as usize).max(32);
    GraphSpec {
        num_vertices,
        num_edges: num_edges.max(num_vertices),
        degree_model: DegreeModel::TargetStd {
            std: dataset.std_nnz,
        },
        locality: dataset.locality,
        seed,
    }
    .build()
}

/// Seeded values in `[-1, 1)`.
fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor2 {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor2::from_fn(rows, cols, |_, _| rng.random::<f32>() * 2.0 - 1.0)
}

/// Seeded values in `[0.1, 1.1)` (edge weights).
fn positive_tensor(rows: usize, cols: usize, seed: u64) -> Tensor2 {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor2::from_fn(rows, cols, |_, _| rng.random::<f32>() + 0.1)
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// The inputs of a serve workload.
#[derive(Debug)]
pub struct ServeInputs {
    /// Every distinct request key.
    pub keys: Vec<ServeRequest>,
    /// One pass of the request list, as indices into `keys`.
    pub list: Vec<usize>,
    /// Wall time spent generating graphs, ms.
    pub graph_build_ms: f64,
}

/// Request `k` on `graph`: the graph operators of `serve_bench`'s three
/// model flavors in turn — GCN's edge-weighted aggregation, GAT's attention
/// message creation, GraphSAGE's mean aggregation — with seeded operands.
fn serve_request(k: usize, graph: &Arc<Graph>, seed: u64) -> ServeRequest {
    let nv = graph.num_vertices();
    let x = Arc::new(random_tensor(nv, SERVE_FEAT, mix(seed, 1)));
    let graph = Arc::clone(graph);
    match k % 3 {
        0 => {
            let w = Arc::new(positive_tensor(graph.num_edges(), 1, mix(seed, 2)));
            ServeRequest::binary(graph, OpInfo::weighted_aggregation_sum(), x, w)
        }
        1 => {
            let y = Arc::new(random_tensor(nv, SERVE_FEAT, mix(seed, 3)));
            ServeRequest::binary(graph, OpInfo::message_creation_add(), x, y)
        }
        _ => ServeRequest::fused(graph, OpInfo::aggregation_mean(), x),
    }
}

/// serve-warm: `warm_graphs` dataset-shaped graphs on an edge-count ladder,
/// each under the three operators, pinned round-robin to the four basic
/// strategies. One pass sends every key once, in seeded order.
pub fn serve_warm(seed: u64, sizing: &Sizing) -> ServeInputs {
    let datasets = catalog();
    let basics = ParallelInfo::basics();
    let n = sizing.warm_graphs;
    let started = Instant::now();
    let graphs: Vec<Arc<Graph>> = (0..n)
        .map(|i| {
            let (lo, hi) = sizing.warm_edges;
            let dataset = &datasets[i % datasets.len()];
            Arc::new(dataset_like(
                dataset,
                ladder(lo, hi, i, n),
                mix(seed, 100 + i as u64),
            ))
        })
        .collect();
    let graph_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let keys: Vec<ServeRequest> = (0..n * 3)
        .map(|k| {
            serve_request(k, &graphs[k / 3], mix(seed, 10_000 + k as u64))
                .with_schedule(basics[k % basics.len()])
        })
        .collect();
    let mut list: Vec<usize> = (0..keys.len()).collect();
    shuffle(&mut list, mix(seed, 7));
    ServeInputs {
        keys,
        list,
        graph_build_ms,
    }
}

/// serve-cold: `cold_requests` small CO/PR-shaped graphs on a vertex-count
/// ladder, operators round-robin, every request auto-tuned. Each key is
/// sent once per pass, in seeded order.
pub fn serve_cold(seed: u64, sizing: &Sizing) -> ServeInputs {
    let shapes = [
        by_abbrev("CO").expect("CO is in the catalog"),
        by_abbrev("PR").expect("PR is in the catalog"),
    ];
    let n = sizing.cold_requests;
    let mut graph_build_ms = 0.0;
    let keys: Vec<ServeRequest> = (0..n)
        .map(|i| {
            let shape = &shapes[i % shapes.len()];
            let (lo, hi) = sizing.cold_vertices;
            let mean_degree = shape.num_edges as f64 / shape.num_vertices as f64;
            let edges = (ladder(lo, hi, i, n) as f64 * mean_degree).round() as usize;
            let started = Instant::now();
            let graph = Arc::new(dataset_like(shape, edges, mix(seed, 200 + i as u64)));
            graph_build_ms += started.elapsed().as_secs_f64() * 1e3;
            serve_request(i, &graph, mix(seed, 20_000 + i as u64))
        })
        .collect();
    let mut list: Vec<usize> = (0..keys.len()).collect();
    shuffle(&mut list, mix(seed, 8));
    ServeInputs {
        keys,
        list,
        graph_build_ms,
    }
}

/// The four models of gnn-infer, each with the factor its graphs' edge
/// counts are scaled by. GAT and GIN passes cost several times a GCN pass
/// on the same graph, so they run on proportionally smaller graphs: the
/// four models' latency ranges then coincide, and no percentile falls on a
/// gap between a cheap and a dear model.
pub const GNN_MODELS: [(ModelKind, f64); 4] = [
    (ModelKind::Gcn, 1.0),
    (ModelKind::SageMean, 1.0),
    (ModelKind::Gin, 0.2),
    (ModelKind::Gat, 0.125),
];

/// One (graph, model) forward pass of gnn-infer.
#[derive(Debug, Clone)]
pub struct GnnPair {
    /// Index into [`GnnInputs::graphs`].
    pub graph: usize,
    /// The model, in its paper-default configuration.
    pub model: ModelConfig,
}

/// The inputs of gnn-infer.
#[derive(Debug)]
pub struct GnnInputs {
    /// Graphs with their input features.
    pub graphs: Vec<(Graph, Tensor2)>,
    /// Every distinct (graph, model) pair.
    pub pairs: Vec<GnnPair>,
    /// One pass of the request list, as indices into `pairs`.
    pub list: Vec<usize>,
    /// Wall time spent generating graphs, ms.
    pub graph_build_ms: f64,
}

/// gnn-infer: for each model, `gnn_graphs` dataset-shaped graphs on an
/// edge-count ladder scaled by the model's factor in [`GNN_MODELS`].
pub fn gnn_infer(seed: u64, sizing: &Sizing) -> GnnInputs {
    let shapes: Vec<DatasetInfo> = ["CO", "CI", "PU", "PR", "CA", "DD"]
        .iter()
        .map(|a| by_abbrev(a).expect("dataset is in the catalog"))
        .collect();
    let n = sizing.gnn_graphs;
    let (lo, hi) = sizing.gnn_edges;
    let mut graphs = Vec::with_capacity(n * GNN_MODELS.len());
    let mut pairs = Vec::with_capacity(n * GNN_MODELS.len());
    let started = Instant::now();
    for (kind, scale) in GNN_MODELS {
        for i in 0..n {
            let g = graphs.len();
            let edges = (ladder(lo, hi, i, n) as f64 * scale).round() as usize;
            let shape = &shapes[i % shapes.len()];
            graphs.push(dataset_like(shape, edges, mix(seed, 300 + g as u64)));
            pairs.push(GnnPair {
                graph: g,
                model: ModelConfig::paper_default(kind),
            });
        }
    }
    let graph_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let graphs: Vec<(Graph, Tensor2)> = graphs
        .into_iter()
        .enumerate()
        .map(|(g, graph)| {
            let x = random_tensor(graph.num_vertices(), GNN_FEAT, mix(seed, 30_000 + g as u64));
            (graph, x)
        })
        .collect();
    let mut list: Vec<usize> = (0..pairs.len()).collect();
    shuffle(&mut list, mix(seed, 9));
    GnnInputs {
        graphs,
        pairs,
        list,
        graph_build_ms,
    }
}
