//! Adaptive schedule selection: grid search vs the learned predictor,
//! plus budgeted tuning.
//!
//! Reproduces the paper's §5.4 workflow at example scale: train a GBDT on
//! random graphs, then compare its schedule choices against exhaustive grid
//! search on unseen Table 3 stand-ins (the Fig. 12 validation). The final
//! section shows [`TuneBudget`]: capping a search at the first few
//! candidates of its list, accepting the best-so-far schedule, and reading
//! [`TuneResult::budget_exhausted`] off the result.
//!
//! [`TuneResult::budget_exhausted`]: ugrapher::core::tune::TuneResult::budget_exhausted
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example adaptive_tuning
//! ```

// Example code: unwrap keeps the walkthrough focused on the API.
#![allow(clippy::unwrap_used)]

use std::time::Instant;

use ugrapher::core::abstraction::OpInfo;
use ugrapher::core::exec::MeasureOptions;
use ugrapher::core::schedule::ParallelInfo;
use ugrapher::core::tune::{grid_search_budgeted, Predictor, PredictorConfig, TuneBudget};
use ugrapher::graph::datasets::{by_abbrev, Scale};
use ugrapher::sim::DeviceConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceConfig::v100();

    // Train on random graphs (the paper uses 128; we use a lighter config
    // so the example finishes in seconds).
    let mut config = PredictorConfig::quick(device.clone());
    config.num_graphs = 16;
    config.ops = vec![
        OpInfo::aggregation_sum(),
        OpInfo::weighted_aggregation_sum(),
    ];
    let t0 = Instant::now();
    let predictor = Predictor::train(&config);
    println!("predictor trained in {:.1?}", t0.elapsed());

    // Prediction overhead (§7.4: must be well under 0.2 ms).
    let probe = by_abbrev("CO").unwrap().build(Scale::Tiny);
    let stats = probe.degree_stats();
    let t0 = Instant::now();
    let n = 1000;
    for _ in 0..n {
        let _ = predictor.choose(&stats, &OpInfo::aggregation_sum(), 16)?;
    }
    println!(
        "prediction latency: {:.4} ms per call (paper bound: 0.2 ms)",
        t0.elapsed().as_secs_f64() * 1e3 / n as f64
    );

    // Validate against grid search on held-out datasets.
    let options = MeasureOptions::auto(device);
    println!(
        "\n{:<6} {:>12} {:>12} {:>8}",
        "data", "grid(ms)", "pred(ms)", "gap"
    );
    for abbrev in ["CO", "PU", "PR", "AR"] {
        let graph = by_abbrev(abbrev).unwrap().build(Scale::Ratio(0.05));
        let op = OpInfo::aggregation_sum();
        let truth = grid_search_budgeted(
            &graph,
            &op,
            16,
            (false, false),
            &options,
            &ParallelInfo::space(),
            TuneBudget::unlimited(),
        )?;
        let chosen = predictor.choose(&graph.degree_stats(), &op, 16)?;
        let chosen_time = truth
            .time_of(&chosen)
            .expect("predictor chooses within the search space");
        println!(
            "{:<6} {:>12.4} {:>12.4} {:>7.2}x  (grid: {}, predictor: {})",
            abbrev,
            truth.best_time_ms,
            chosen_time,
            chosen_time / truth.best_time_ms,
            truth.best.label(),
            chosen.label(),
        );
    }

    // Budgeted tuning: cap the search at the first 8 candidates of the
    // 196-point space. It still returns the best schedule among those it
    // measured, and says that the list was cut short.
    println!("\nbudgeted grid search (max 8 of 196 candidates):");
    let graph = by_abbrev("CO").unwrap().build(Scale::Ratio(0.05));
    for budget in [TuneBudget::unlimited(), TuneBudget::max_candidates(8)] {
        let t0 = Instant::now();
        let res = grid_search_budgeted(
            &graph,
            &OpInfo::aggregation_sum(),
            16,
            (false, false),
            &options,
            &ParallelInfo::space(),
            budget,
        )?;
        println!(
            "  budget {:?}: chose {} ({:.4} ms) after {} candidates in {:.1?}, budget_exhausted = {}",
            budget.max_candidates,
            res.best.label(),
            res.best_time_ms,
            res.evaluated(),
            t0.elapsed(),
            res.budget_exhausted
        );
    }
    Ok(())
}
