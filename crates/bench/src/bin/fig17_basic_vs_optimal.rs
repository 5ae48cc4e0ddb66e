//! Fig. 17: basic strategies (no grouping, no tiling) vs the tuned optimum.
//! Left: GAT layer-1 message creation; right: GIN layer-1 aggregation.
//! Values are normalized time (optimum = 1.0); the paper shows large gaps,
//! motivating the fine-grained knobs.

// Benchmark driver: exiting on a broken invariant is the right behaviour.
#![allow(clippy::unwrap_used)]

use ugrapher_bench::{eval_datasets, print_table, scale};
use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::exec::MeasureOptions;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::tune::{grid_search_budgeted, TuneBudget};
use ugrapher_graph::datasets::by_abbrev;
use ugrapher_sim::DeviceConfig;

fn main() {
    let options = MeasureOptions::auto(DeviceConfig::v100());
    let cases = [
        ("GAT_L1_MsgC", OpInfo::message_creation_add(), 8usize),
        ("GIN_L1_Aggr", OpInfo::aggregation_sum(), 64),
    ];
    let space = ParallelInfo::space();
    let basics = ParallelInfo::basics();

    for (name, op, feat) in cases {
        let mut rows = Vec::new();
        for abbrev in eval_datasets() {
            let graph = by_abbrev(abbrev).unwrap().build(scale());
            let full = grid_search_budgeted(
                &graph,
                &op,
                feat,
                (false, false),
                &options,
                &space,
                TuneBudget::unlimited(),
            )
            .expect("operator is valid");
            let mut row = vec![abbrev.to_owned()];
            for b in &basics {
                let t = full.time_of(b).expect("basics are inside the space");
                row.push(format!("{:.2}", t / full.best_time_ms));
            }
            row.push(full.best.label());
            rows.push(row);
        }
        print_table(
            &format!("Fig. 17: basic strategies vs tuned optimum, {name} (V100; optimum = 1.0)"),
            &["dataset", "TV", "TE", "WV", "WE", "optimal"],
            &rows,
        );
    }
    println!(
        "\npaper claim: basic strategies alone leave a large gap to the optimum;\n\
         grouping and tiling knobs are necessary."
    );
}
