//! Budgeted random search.
//!
//! Grid search measures all 196 schedules; the predictor is instant but
//! approximate. Random search sits between: measure a fixed budget of
//! uniformly drawn schedules (always including the four basics as anchors)
//! and return the best seen. Useful when the operator is exotic enough
//! that the trained predictor cannot be trusted but a full sweep is too
//! slow — and as a baseline to quantify how much exhaustive search
//! actually buys.

use ugrapher_util::rng::StdRng;

use ugrapher_graph::Graph;

use crate::abstraction::OpInfo;
use crate::exec::MeasureOptions;
use crate::schedule::ParallelInfo;
use crate::tune::{grid_search_shaped, TuneResult};
use crate::CoreError;

/// Searches `budget` randomly drawn schedules (plus the four basic
/// anchors), returning the best found. A zero budget searches only the
/// anchors.
///
/// # Errors
///
/// Returns [`CoreError`] if the operator is invalid or `feat == 0`.
pub fn random_search(
    graph: &Graph,
    op: &OpInfo,
    feat: usize,
    scalars: (bool, bool),
    options: &MeasureOptions,
    budget: usize,
    seed: u64,
) -> Result<TuneResult, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = ParallelInfo::space();
    let mut candidates = ParallelInfo::basics();
    while candidates.len() < budget + 4 {
        let pick = space[rng.random_range(0..space.len())];
        if !candidates.contains(&pick) {
            candidates.push(pick);
        }
        if candidates.len() >= space.len() {
            break;
        }
    }
    grid_search_shaped(graph, op, feat, scalars, options, &candidates)
}

#[cfg(test)]
mod tests {
    use super::*;

    use ugrapher_graph::generate::uniform_random;
    use ugrapher_sim::DeviceConfig;

    fn options() -> MeasureOptions {
        MeasureOptions::auto(DeviceConfig::v100())
    }

    #[test]
    fn random_search_never_beats_grid_and_never_loses_to_basics() {
        let g = uniform_random(600, 4200, 31);
        let op = OpInfo::aggregation_sum();
        let rs = random_search(&g, &op, 16, (false, false), &options(), 24, 1).unwrap();
        let grid = grid_search_shaped(
            &g,
            &op,
            16,
            (false, false),
            &options(),
            &ParallelInfo::space(),
        )
        .unwrap();
        let basics = grid_search_shaped(
            &g,
            &op,
            16,
            (false, false),
            &options(),
            &ParallelInfo::basics(),
        )
        .unwrap();
        assert!(grid.best_time_ms <= rs.best_time_ms + 1e-12);
        assert!(rs.best_time_ms <= basics.best_time_ms + 1e-12);
        // Budget respected: 4 anchors + 24 draws.
        assert!(rs.all.len() <= 28);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let g = uniform_random(300, 1500, 32);
        let op = OpInfo::aggregation_max();
        let a = random_search(&g, &op, 8, (false, false), &options(), 8, 9).unwrap();
        let b = random_search(&g, &op, 8, (false, false), &options(), 8, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_budget_searches_only_the_anchors() {
        let g = uniform_random(200, 900, 34);
        let op = OpInfo::aggregation_sum();
        let rs = random_search(&g, &op, 8, (false, false), &options(), 0, 5).unwrap();
        let basics = grid_search_shaped(
            &g,
            &op,
            8,
            (false, false),
            &options(),
            &ParallelInfo::basics(),
        )
        .unwrap();
        assert_eq!(rs, basics);
    }

    #[test]
    fn budget_larger_than_space_terminates() {
        let g = uniform_random(100, 400, 33);
        let op = OpInfo::aggregation_sum();
        let r = random_search(&g, &op, 8, (false, false), &options(), 10_000, 3).unwrap();
        assert!(r.all.len() <= ParallelInfo::space().len());
    }
}
