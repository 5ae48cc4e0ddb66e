//! Random search's candidate list.
//!
//! Grid search measures all 196 schedules; the predictor is instant but
//! approximate. Random search sits between: measure a fixed budget of
//! uniformly drawn schedules (always including the four basics as anchors)
//! and keep the best seen. Useful when the operator is exotic enough that
//! the trained predictor cannot be trusted but a full sweep is too slow —
//! and as a baseline to quantify how much exhaustive search actually buys.
//! The list is measured like any other, by
//! [`crate::tune::grid_search_budgeted`].

use ugrapher_util::rng::StdRng;

use crate::schedule::ParallelInfo;

/// The four basic anchors followed by `budget` distinct schedules drawn
/// uniformly from [`ParallelInfo::space`] with a `seed`-ed generator, stopping
/// early once the whole space is listed. A zero budget lists only the
/// anchors.
pub fn random_candidates(budget: usize, seed: u64) -> Vec<ParallelInfo> {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = ParallelInfo::space();
    let mut candidates = ParallelInfo::basics();
    let len = budget.saturating_add(candidates.len()).min(space.len());
    while candidates.len() < len {
        let pick = space[rng.random_range(0..space.len())];
        if !candidates.contains(&pick) {
            candidates.push(pick);
        }
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    use ugrapher_graph::generate::uniform_random;
    use ugrapher_sim::DeviceConfig;

    use crate::abstraction::OpInfo;
    use crate::exec::MeasureOptions;
    use crate::tune::{grid_search_budgeted, TuneBudget, TuneResult};

    fn search(candidates: &[ParallelInfo]) -> TuneResult {
        let g = uniform_random(600, 4200, 31);
        grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            16,
            (false, false),
            &MeasureOptions::auto(DeviceConfig::v100()),
            candidates,
            TuneBudget::unlimited(),
        )
        .unwrap()
    }

    #[test]
    fn random_search_never_beats_grid_and_never_loses_to_basics() {
        let rs = search(&random_candidates(24, 1));
        let grid = search(&ParallelInfo::space());
        let basics = search(&ParallelInfo::basics());
        assert!(grid.best_time_ms <= rs.best_time_ms + 1e-12);
        assert!(rs.best_time_ms <= basics.best_time_ms + 1e-12);
    }

    #[test]
    fn deterministic_for_a_seed() {
        assert_eq!(random_candidates(8, 9), random_candidates(8, 9));
    }

    #[test]
    fn zero_budget_lists_only_the_anchors() {
        assert_eq!(random_candidates(0, 5), ParallelInfo::basics());
    }

    #[test]
    fn budget_bounds_the_length_and_draws_are_distinct() {
        // 4 anchors + 24 draws.
        let list = random_candidates(24, 1);
        assert_eq!(list.len(), 28);
        assert_eq!(list[..4], ParallelInfo::basics()[..]);
        for (i, p) in list.iter().enumerate() {
            assert!(!list[..i].contains(p), "{p} listed twice");
        }
        let space = ParallelInfo::space();
        assert!(list.iter().all(|p| space.contains(p)));
    }

    #[test]
    fn budget_larger_than_space_lists_the_whole_space() {
        let space = ParallelInfo::space();
        for budget in [10_000, usize::MAX - 3, usize::MAX] {
            let mut list = random_candidates(budget, 3);
            assert_eq!(list.len(), space.len(), "budget {budget}");
            list.sort_by_key(|p| space.iter().position(|q| q == p));
            assert_eq!(list, space, "budget {budget}");
        }
    }
}
