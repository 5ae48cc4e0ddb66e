//! Fig. 12: predictor vs grid search for the first layer of GCN on V100.
//!
//! Trains the GBDT schedule predictor on random graphs (paper §5.4), then
//! compares the latency of its chosen schedule against the grid-search
//! optimum for GCN L1's weighted aggregation on each dataset. The paper's
//! claim: the predictor achieves performance close to grid search.

// Benchmark driver: exiting on a broken invariant is the right behaviour.
#![allow(clippy::unwrap_used)]

use std::time::Instant;

use ugrapher_bench::{eval_datasets, print_table, quick, save_json, scale};
use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::exec::MeasureOptions;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::tune::{grid_search_budgeted, Predictor, PredictorConfig, TuneBudget};
use ugrapher_graph::datasets::by_abbrev;
use ugrapher_sim::DeviceConfig;

fn main() {
    let device = DeviceConfig::v100();

    // Training configuration: the paper trains on 128 random graphs; quick
    // mode shrinks that for smoke runs.
    let mut config = PredictorConfig::paper(device.clone());
    if quick() {
        config.num_graphs = 8;
        config.feat_dims = vec![16];
        config.schedules = ParallelInfo::basics();
    } else {
        // Keep training tractable on the harness machine while preserving
        // the paper's structure (many graphs x ops x schedules).
        config.num_graphs = 12;
        config.vertex_range = (256, 8_000);
        config.feat_dims = vec![16];
        config.ops = vec![
            OpInfo::aggregation_sum(),
            OpInfo::weighted_aggregation_sum(),
            OpInfo::aggregation_max(),
            OpInfo::message_creation_add(),
        ];
    }
    let t0 = Instant::now();
    let predictor = Predictor::train(&config);
    println!(
        "trained on {} random graphs x {} ops x {} feature dims x {} schedules in {:.1?}",
        config.num_graphs,
        config.ops.len(),
        config.feat_dims.len(),
        config.schedules.len(),
        t0.elapsed()
    );

    // GCN L1: weighted aggregation with a scalar edge weight, feature =
    // hidden size 16.
    let op = OpInfo::weighted_aggregation_sum();
    let feat = 16;
    let options = MeasureOptions::auto(device);

    let mut rows = Vec::new();
    let mut gaps = Vec::new();
    for abbrev in eval_datasets() {
        let graph = by_abbrev(abbrev).unwrap().build(scale());
        let truth = grid_search_budgeted(
            &graph,
            &op,
            feat,
            (false, true),
            &options,
            &config.schedules,
            TuneBudget::unlimited(),
        )
        .expect("GCN L1 op is valid");
        let chosen = predictor
            .choose(&graph.degree_stats(), &op, feat)
            .expect("predictor covers this op");
        let chosen_time = truth.time_of(&chosen).expect("chosen is in the space");
        let gap = chosen_time / truth.best_time_ms;
        gaps.push(gap);
        rows.push(vec![
            abbrev.to_owned(),
            format!("{:.4}", truth.best_time_ms),
            truth.best.label(),
            format!("{:.4}", chosen_time),
            chosen.label(),
            format!("{:.2}x", gap),
        ]);
    }
    print_table(
        "Fig. 12: grid search vs predictor, GCN layer 1 (V100)",
        &[
            "dataset",
            "grid ms",
            "grid sched",
            "pred ms",
            "pred sched",
            "gap",
        ],
        &rows,
    );
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    println!("\nmean predictor gap: {mean_gap:.2}x (paper: close to 1.0)");
    save_json("fig12", &rows);
}
