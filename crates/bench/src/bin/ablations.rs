//! Ablations of the simulator's design choices (DESIGN.md §5): each knob is
//! disabled in the device model and the strategy rankings re-measured, to
//! show which mechanism produces which paper phenomenon.
//!
//! 1. **Atomic serialization** — zero `atomic_serial_cycles`: edge-parallel
//!    strategies lose their work-efficiency penalty on hub-heavy graphs.
//! 2. **Latency hiding** — huge `mlp_per_warp`: occupancy stops mattering,
//!    deflating warp strategies' advantage on small graphs.
//! 3. **L2 capacity** — V100 with the A100's 40 MB L2: locality-driven
//!    strategy differences between the GPUs shrink (Table 9 discussion).

// Benchmark driver: exiting on a broken invariant is the right behaviour.
#![allow(clippy::unwrap_used)]

use ugrapher_bench::{print_table, scale};
use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::exec::MeasureOptions;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::tune::{grid_search_budgeted, TuneBudget};
use ugrapher_graph::datasets::by_abbrev;
use ugrapher_sim::DeviceConfig;

fn rank(device: DeviceConfig, abbrev: &str, feat: usize) -> Vec<String> {
    let graph = by_abbrev(abbrev).unwrap().build(scale());
    let options = MeasureOptions::auto(device);
    let mut all = grid_search_budgeted(
        &graph,
        &OpInfo::aggregation_sum(),
        feat,
        (false, false),
        &options,
        &ParallelInfo::basics(),
        TuneBudget::unlimited(),
    )
    .expect("valid op")
    .all;
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    all.into_iter()
        .map(|(p, t)| format!("{}:{:.4}", p.strategy.label(), t))
        .collect()
}

fn main() {
    let baseline = DeviceConfig::v100();

    let mut no_atomics = baseline.clone();
    no_atomics.atomic_serial_cycles = 0.0;
    no_atomics.name = "V100-noAtomicSerial".into();

    let mut no_latency = baseline.clone();
    no_latency.mlp_per_warp = 1e6;
    no_latency.name = "V100-noLatencyHiding".into();

    let mut big_l2 = baseline.clone();
    big_l2.l2_bytes = DeviceConfig::a100().l2_bytes;
    big_l2.name = "V100-bigL2".into();

    let configs = [baseline.clone(), no_atomics, no_latency, big_l2];
    for abbrev in ["SB", "CO", "YE"] {
        let mut rows = Vec::new();
        for device in &configs {
            let ranking = rank(device.clone(), abbrev, 32);
            rows.push(vec![device.name.clone(), ranking.join("  ")]);
        }
        print_table(
            &format!("Ablation: basic-strategy ranking on {abbrev} (aggregation-sum, feature 32)"),
            &["device model", "strategies fastest -> slowest (label:ms)"],
            &rows,
        );
    }
    println!(
        "\nexpectations:\n\
         - without atomic serialization, edge strategies improve on hub-heavy SB;\n\
         - without latency-hiding coupling, small-graph (CO) strategy gaps shrink;\n\
         - a 40 MB L2 narrows locality-driven gaps on large graphs (YE)."
    );

    predictor_feature_ablation(baseline);
}

/// Table 7 ablation: does the predictor need the operator-info features?
fn predictor_feature_ablation(device: DeviceConfig) {
    use ugrapher_core::tune::{Predictor, PredictorConfig};

    let mut with_op = PredictorConfig::quick(device.clone());
    with_op.num_graphs = 10;
    with_op.ops = vec![
        OpInfo::aggregation_sum(),
        OpInfo::weighted_aggregation_sum(),
        OpInfo::message_creation_add(),
    ];
    let mut graph_only = with_op.clone();
    graph_only.use_op_features = false;

    let p_with = Predictor::train(&with_op);
    let p_without = Predictor::train(&graph_only);

    let options = MeasureOptions::auto(device);
    let mut rows = Vec::new();
    for abbrev in ["PU", "AR"] {
        let graph = by_abbrev(abbrev).unwrap().build(scale());
        let stats = graph.degree_stats();
        for op in &with_op.ops {
            let truth = grid_search_budgeted(
                &graph,
                op,
                16,
                (false, false),
                &options,
                &ParallelInfo::basics(),
                TuneBudget::unlimited(),
            )
            .unwrap();
            let gap = |p: &Predictor| {
                let chosen = p.choose(&stats, op, 16).expect("valid op");
                truth.time_of(&chosen).expect("within space") / truth.best_time_ms
            };
            rows.push(vec![
                abbrev.to_owned(),
                format!("{:?}/{:?}", op.edge_op, op.gather_op),
                format!("{:.2}x", gap(&p_with)),
                format!("{:.2}x", gap(&p_without)),
            ]);
        }
    }
    print_table(
        "Ablation: predictor features — graph+op (Table 7) vs graph-only",
        &[
            "dataset",
            "operator",
            "gap with op features",
            "gap graph-only",
        ],
        &rows,
    );
    println!(
        "\nexpectation: without operator features the model must give every\n\
         operator on a graph the same schedule, so gaps grow on mixed workloads."
    );
}
