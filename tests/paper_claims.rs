//! Qualitative claims of the paper, checked end-to-end on the simulator at
//! reduced scale. These are the *shape* properties the reproduction must
//! preserve (DESIGN.md §2): who wins where, and why.

use ugrapher::core::abstraction::OpInfo;
use ugrapher::core::api::Runtime;
use ugrapher::core::exec::{Fidelity, MeasureOptions};
use ugrapher::core::schedule::{ParallelInfo, Strategy};
use ugrapher::core::tune::{grid_search_budgeted, TuneBudget};
use ugrapher::graph::datasets::{by_abbrev, Scale};
use ugrapher::sim::DeviceConfig;

const SCALE: Scale = Scale::Ratio(0.03);

fn options() -> MeasureOptions {
    MeasureOptions::auto(DeviceConfig::v100())
}

/// Fig. 7 / §4.3: the optimal basic strategy differs across datasets and
/// feature sizes — no single fixed strategy wins everywhere.
#[test]
fn no_single_basic_strategy_wins_everywhere() {
    let mut winners = std::collections::HashSet::new();
    for abbrev in ["CI", "PR", "AR", "SB", "TW"] {
        for feat in [8usize, 16] {
            let graph = by_abbrev(abbrev).unwrap().build(SCALE);
            let res = grid_search_budgeted(
                &graph,
                &OpInfo::aggregation_sum(),
                feat,
                (false, false),
                &options(),
                &ParallelInfo::basics(),
                TuneBudget::unlimited(),
            )
            .unwrap();
            winners.insert(res.best.strategy);
        }
    }
    assert!(
        winners.len() >= 2,
        "expected multiple optimal strategies across datasets, got {winners:?}"
    );
}

/// §2.2 / Fig. 3: under DGL's fixed kernel, degree-imbalanced graphs achieve
/// lower occupancy than balanced ones.
#[test]
fn imbalanced_graphs_get_lower_occupancy_under_fixed_kernels() {
    let rt = Runtime::new(DeviceConfig::v100());
    let occ = |abbrev: &str| {
        let g = by_abbrev(abbrev).unwrap().build(SCALE);
        rt.measure_only(
            &g,
            &OpInfo::aggregation_sum(),
            32,
            ParallelInfo::basic(Strategy::WarpVertex),
        )
        .unwrap()
        .achieved_occupancy
    };
    // AR and SB are the paper's imbalance examples, PR and DD the balanced
    // ones (Fig. 3).
    let imbalanced = (occ("AR") + occ("SB")) / 2.0;
    let balanced = (occ("PR") + occ("DD")) / 2.0;
    assert!(
        imbalanced < balanced,
        "imbalanced occ {imbalanced} !< balanced occ {balanced}"
    );
}

/// §2.2 / Fig. 3: small graphs get lower SM efficiency (not enough blocks)
/// but higher L2 hit rates (working set fits) than large graphs.
#[test]
fn small_graphs_low_sm_efficiency_high_cache_hit() {
    let rt = Runtime::new(DeviceConfig::v100()).with_fidelity(Fidelity::Full);
    let metrics = |abbrev: &str, scale: Scale| {
        let g = by_abbrev(abbrev).unwrap().build(scale);
        let r = rt
            .measure_only(
                &g,
                &OpInfo::aggregation_sum(),
                32,
                ParallelInfo::basic(Strategy::WarpVertex),
            )
            .unwrap();
        (r.sm_efficiency, r.l2_hit_rate)
    };
    // CO/CI are the paper's small graphs; SW/OV its large ones. Keep small
    // graphs at full size (they are tiny) and scale the large ones down.
    let (sm_small, l2_small) = metrics("CO", Scale::Full);
    let (sm_large, l2_large) = metrics("SW", Scale::Ratio(0.05));
    assert!(
        sm_small < sm_large,
        "small-graph SM efficiency {sm_small} !< large-graph {sm_large}"
    );
    assert!(
        l2_small > l2_large,
        "small-graph L2 hit {l2_small} !> large-graph {l2_large}"
    );
}

/// Fig. 17: fine-grained knobs matter — the tuned optimum beats the best
/// basic strategy for at least some (operator, dataset) pairs.
#[test]
fn knobs_beat_basic_strategies_somewhere() {
    let mut improved = false;
    for abbrev in ["AR", "TW", "PU"] {
        let graph = by_abbrev(abbrev).unwrap().build(SCALE);
        let op = OpInfo::aggregation_sum();
        let basic = grid_search_budgeted(
            &graph,
            &op,
            32,
            (false, false),
            &options(),
            &ParallelInfo::basics(),
            TuneBudget::unlimited(),
        )
        .unwrap()
        .best_time_ms;
        let full = grid_search_budgeted(
            &graph,
            &op,
            32,
            (false, false),
            &options(),
            &ParallelInfo::space(),
            TuneBudget::unlimited(),
        )
        .unwrap()
        .best_time_ms;
        assert!(full <= basic + 1e-12, "full space contains the basics");
        if full < basic * 0.95 {
            improved = true;
        }
    }
    assert!(improved, "grouping/tiling never improved on basics");
}

/// Table 6: thread-edge needs atomics (work-efficiency loss), vertex
/// strategies do not; warp strategies launch more parallelism.
#[test]
fn tradeoff_table_directions_hold() {
    let g = by_abbrev("PU").unwrap().build(SCALE);
    let rt = Runtime::new(DeviceConfig::v100());
    let run = |s: Strategy| {
        rt.measure_only(&g, &OpInfo::aggregation_sum(), 32, ParallelInfo::basic(s))
            .unwrap()
    };
    let tv = run(Strategy::ThreadVertex);
    let te = run(Strategy::ThreadEdge);
    let wv = run(Strategy::WarpVertex);
    let we = run(Strategy::WarpEdge);

    // Work-efficiency: only edge-parallel reductions pay atomics.
    assert_eq!(tv.atomic_ops, 0.0);
    assert_eq!(wv.atomic_ops, 0.0);
    assert!(te.atomic_ops > 0.0);
    assert!(we.atomic_ops > 0.0);

    // Parallelism: warp variants launch more concurrent work than their
    // thread counterparts (more warps for the same items).
    assert!(wv.achieved_occupancy >= tv.achieved_occupancy);
    assert!(we.achieved_occupancy >= te.achieved_occupancy);
}

/// §7.3: the V100 (fewer SMs) favors vertex/locality strategies at least as
/// often as the A100, which has more SMs to feed.
#[test]
fn devices_can_prefer_different_schedules() {
    let mut differs = false;
    for abbrev in ["CO", "PR", "AR", "TW"] {
        let graph = by_abbrev(abbrev).unwrap().build(SCALE);
        let op = OpInfo::aggregation_sum();
        let on = |device: DeviceConfig| {
            grid_search_budgeted(
                &graph,
                &op,
                16,
                (false, false),
                &MeasureOptions::auto(device),
                &ParallelInfo::space(),
                TuneBudget::unlimited(),
            )
            .unwrap()
            .best
        };
        if on(DeviceConfig::v100()) != on(DeviceConfig::a100()) {
            differs = true;
            break;
        }
    }
    assert!(
        differs,
        "V100 and A100 chose identical schedules everywhere"
    );
}
