//! Fig. 7: the optimal basic strategy for *aggregation-sum* varies across
//! datasets and feature sizes (8 vs 16). Prints normalized execution time
//! (1.0 = fastest per dataset), as the paper's bars.

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
    let basics = ParallelInfo::basics();
    let op = OpInfo::aggregation_sum();

    for feat in [8usize, 16] {
        let mut rows = Vec::new();
        let mut winners = std::collections::BTreeMap::<String, usize>::new();
        for abbrev in eval_datasets() {
            let graph = by_abbrev(abbrev).unwrap().build(scale());
            let res = grid_search_budgeted(
                &graph,
                &op,
                feat,
                (false, false),
                &options,
                &basics,
                TuneBudget::unlimited(),
            )
            .expect("aggregation-sum is valid");
            let mut row = vec![abbrev.to_owned()];
            for p in &basics {
                let t = res.time_of(p).expect("all basics measured");
                row.push(format!("{:.2}", t / res.best_time_ms));
            }
            row.push(res.best.strategy.label().to_owned());
            *winners
                .entry(res.best.strategy.label().to_owned())
                .or_insert(0) += 1;
            rows.push(row);
        }
        print_table(
            &format!("Fig. 7: normalized time of basic strategies, feature size {feat} (V100)"),
            &["dataset", "TV", "TE", "WV", "WE", "best"],
            &rows,
        );
        println!("winning strategies at feature {feat}: {winners:?}");
    }
    println!(
        "\npaper claim: different strategies win on different datasets, and the\n\
         winner can flip between feature sizes 8 and 16."
    );
}
