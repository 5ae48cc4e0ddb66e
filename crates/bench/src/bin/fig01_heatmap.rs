//! Fig. 1: normalized-latency heatmap of DGL, PyG, GNNAdvisor and uGrapher
//! across models (x) and datasets (y) on the V100. For every (model,
//! dataset) cell the fastest system is 1.00; the paper's claim is that
//! uGrapher is at (or near) 1.00 almost everywhere while every baseline
//! has regions far from it.
//!
//! Reuses the cached Fig. 13 sweep.

// Benchmark driver: exiting on a broken invariant is the right behaviour.
#![allow(clippy::unwrap_used)]

use ugrapher_bench::print_table;
use ugrapher_bench::sweep::sweep_cached;

fn main() {
    let sweep = sweep_cached();
    let device = "V100";
    let models = sweep.distinct(|c| &c.model);
    let datasets = sweep.distinct(|c| &c.dataset);
    let systems = sweep.distinct(|c| &c.system);

    let mut win_counts: std::collections::BTreeMap<String, usize> = Default::default();
    let mut near_optimal_ugrapher = 0usize;
    let mut total_cells = 0usize;

    for system in &systems {
        let mut rows = Vec::new();
        for dataset in &datasets {
            let mut row = vec![dataset.clone()];
            for model in &models {
                let best = systems
                    .iter()
                    .filter_map(|s| sweep.time(device, model, dataset, s))
                    .fold(f64::INFINITY, f64::min);
                match sweep.time(device, model, dataset, system) {
                    Some(t) if best.is_finite() => {
                        row.push(format!("{:.2}", t / best));
                    }
                    _ => row.push("-".to_owned()),
                }
            }
            rows.push(row);
        }
        let headers: Vec<&str> = std::iter::once("dataset")
            .chain(models.iter().map(|m| m.as_str()))
            .collect();
        print_table(
            &format!("Fig. 1: normalized latency of {system} (V100; 1.00 = fastest system)"),
            &headers,
            &rows,
        );
    }

    for dataset in &datasets {
        for model in &models {
            let times: Vec<(String, f64)> = systems
                .iter()
                .filter_map(|s| {
                    sweep
                        .time(device, model, dataset, s)
                        .map(|t| (s.clone(), t))
                })
                .collect();
            let Some((winner, best)) = times
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .cloned()
            else {
                continue;
            };
            *win_counts.entry(winner).or_insert(0) += 1;
            total_cells += 1;
            if let Some(ug) = sweep.time(device, model, dataset, "ugrapher") {
                if ug <= best * 1.10 {
                    near_optimal_ugrapher += 1;
                }
            }
        }
    }
    println!("\nfastest-system counts (V100): {win_counts:?}");
    println!(
        "uGrapher within 10% of the best system in {near_optimal_ugrapher}/{total_cells} cells\n\
         (paper: optimal in almost all scenarios, near-optimal in the rest)"
    );
}
