//! Table 9: the grid-search-optimal schedule of seven named graph
//! operators, per dataset, on both GPUs — printed in the paper's
//! `(strategy)-(grouping)-(tiling)` label format (e.g. `TE_G4_T32`).
//!
//! Paper findings to look for: thread-edge dominates GAT_L1_MsgC
//! everywhere; large balanced graphs pick vertex strategies (locality over
//! parallelism); the two GPUs agree on strategy more often than on the
//! fine-grained knobs.

// Benchmark driver: exiting on a broken invariant is the right behaviour.
#![allow(clippy::unwrap_used)]

use ugrapher_bench::{eval_datasets, print_table, save_json, scale};
use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::exec::MeasureOptions;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::tune::{grid_search_budgeted, TuneBudget};
use ugrapher_graph::datasets::by_abbrev;
use ugrapher_sim::DeviceConfig;

/// (label, operator, feature dim, (a_scalar, b_scalar)).
fn named_ops(input_feat: usize) -> Vec<(&'static str, OpInfo, usize, (bool, bool))> {
    vec![
        (
            "GAT_L1_MsgC",
            OpInfo::message_creation_add(),
            8,
            (false, false),
        ),
        (
            "GAT_L1_Aggr",
            OpInfo::weighted_aggregation_sum(),
            8,
            (false, true),
        ),
        (
            "GIN_L1_Aggr",
            OpInfo::aggregation_sum(),
            input_feat,
            (false, false),
        ),
        ("GIN_L2_Aggr", OpInfo::aggregation_sum(), 64, (false, false)),
        ("GIN_L5_Aggr", OpInfo::aggregation_sum(), 64, (false, false)),
        (
            "SageMax_L1_Aggr",
            OpInfo::aggregation_max(),
            input_feat,
            (false, false),
        ),
        (
            "SageMax_L2_Aggr",
            OpInfo::aggregation_max(),
            16,
            (false, false),
        ),
    ]
}

fn main() {
    let space = ParallelInfo::space();
    let mut json_rows: Vec<Vec<String>> = Vec::new();
    for device in [DeviceConfig::v100(), DeviceConfig::a100()] {
        let options = MeasureOptions::auto(device.clone());
        let mut rows = Vec::new();
        for abbrev in eval_datasets() {
            let info = by_abbrev(abbrev).unwrap();
            let graph = info.build(scale());
            let input_feat = info.feature_dim.min(256);
            let mut row = vec![abbrev.to_owned()];
            for (_, op, feat, scalars) in named_ops(input_feat) {
                let best = grid_search_budgeted(
                    &graph,
                    &op,
                    feat,
                    scalars,
                    &options,
                    &space,
                    TuneBudget::unlimited(),
                )
                .expect("named ops are valid")
                .best;
                row.push(best.label());
            }
            rows.push(row.clone());
            let mut jr = vec![device.name.clone()];
            jr.extend(row);
            json_rows.push(jr);
        }
        let labels: Vec<&str> = named_ops(64).iter().map(|(l, _, _, _)| *l).collect();
        let headers: Vec<&str> = std::iter::once("dataset").chain(labels).collect();
        print_table(
            &format!(
                "Table 9: optimal schedules per operator and dataset ({})",
                device.name
            ),
            &headers,
            &rows,
        );
    }
    save_json("tbl09", &json_rows);
    println!(
        "\nnotes: GIN L2 and L5 share a hidden size in our model, so their optima\n\
         coincide deterministically (the paper's differ only by measurement noise)."
    );
}
