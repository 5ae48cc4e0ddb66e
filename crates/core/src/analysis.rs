//! Static analysis of `(operator, schedule)` pairs — the paper's §5.2
//! atomic-requirement pass promoted to a first-class, shared analysis.
//!
//! This module is the *only* implementation of the atomics rule and of
//! schedule legality. Lowering ([`crate::lower::lower`]) maps the race
//! verdict onto the kernel's store, where everything downstream reads it.
//! The module provides:
//!
//! * [`race_verdict`] symbolically derives the output **write-set per
//!   parallel work item** for any strategy × grouping × tiling combination
//!   and decides whether two items can write the same output element
//!   (Table 4 tensor types decide whether `c_idx` is per-destination or
//!   per-edge);
//! * [`race_witness`] specializes the verdict to a concrete graph shape,
//!   producing two work items and the destination row they share — or
//!   `None` when this particular graph cannot race under the schedule
//!   (e.g. the grouping is so large that one item owns every edge);
//! * [`check_context`] is the single legality gate (operator Table 4
//!   rules, schedule knobs, feature dimension) that plan generation, grid
//!   search and the predictor all call before proposing or executing a
//!   candidate;
//! * [`lint_schedule`] reports warning-level findings (clamped tiling,
//!   degenerate grouping) that are legal but wasteful.
//!
//! The `ugrapher-analyze` crate builds its three analysis passes and the
//! dynamic sim cross-check on top of these primitives.

use ugrapher_graph::Graph;

use crate::abstraction::{OpInfo, TensorType};
use crate::schedule::ParallelInfo;
use crate::CoreError;

/// How the output index `c_idx` of paper Fig. 5 is derived from the
/// iteration variables, per the Table 4 output tensor type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteIndex {
    /// `C[dst]` — one row per destination vertex; all in-edges of a
    /// destination reduce into the same row.
    PerDst,
    /// `C[eid]` — one row per edge; every edge owns its row exclusively.
    PerEdge,
    /// `C[src]` — one row per source vertex. No legal Table 4 operator
    /// writes per-source (reductions run over in-edges), but the write-set
    /// model is total so the analyzer can classify malformed operators
    /// instead of crashing on them.
    PerSrc,
}

impl WriteIndex {
    /// The write index of an output tensor type, if it has one.
    pub fn of(c: TensorType) -> Option<WriteIndex> {
        match c {
            TensorType::DstV => Some(WriteIndex::PerDst),
            TensorType::Edge => Some(WriteIndex::PerEdge),
            TensorType::SrcV => Some(WriteIndex::PerSrc),
            TensorType::Null => None,
        }
    }
}

/// The outcome of the static race analysis for one `(operator, schedule)`
/// pair, independent of any concrete graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceVerdict {
    /// Two parallel work items can write the same output element; the
    /// generated kernel must use atomic updates.
    pub needs_atomic: bool,
    /// Human-readable derivation of the verdict.
    pub reason: &'static str,
}

/// Derives the output write-set per parallel work item and decides whether
/// the schedule can race on the output.
///
/// The derivation, by case:
///
/// * **Vertex strategies** — work item `(tile t, group g)` owns destination
///   vertices `[g·G, (g+1)·G)` and feature slice `t`. Per-destination
///   outputs partition by construction; per-edge outputs partition too,
///   because every edge has exactly one destination. Never a race.
/// * **Edge strategies, per-edge output** — item `(t, g)` owns edge
///   positions `[g·G, (g+1)·G)` and writes rows `eid(pos)`, a bijection on
///   positions. Never a race.
/// * **Edge strategies, per-destination reduction** — item `(t, g)` writes
///   rows `{dst(slot) : slot ∈ [g·G, (g+1)·G)}`. Destinations with edges on
///   both sides of a group boundary are written by two items: a race.
/// * **Copy gathers** — each output element is written at most once per
///   owning item; no read-modify-write, no race (and the emitter has no
///   atomic form for them).
pub fn race_verdict(op: &OpInfo, parallel: &ParallelInfo) -> RaceVerdict {
    let Some(widx) = WriteIndex::of(op.c) else {
        return RaceVerdict {
            needs_atomic: false,
            reason: "operator has no output tensor; nothing is written",
        };
    };
    if !op.gather_op.is_reduction() {
        return RaceVerdict {
            needs_atomic: false,
            reason: "copy gather: each output element is written by exactly one item",
        };
    }
    if !parallel.strategy.is_edge_parallel() {
        return RaceVerdict {
            needs_atomic: false,
            reason: "vertex-parallel items own disjoint destination rows",
        };
    }
    match widx {
        WriteIndex::PerEdge => RaceVerdict {
            needs_atomic: false,
            reason: "per-edge output rows partition across edge-parallel items",
        },
        // Per-src would reduce over out-edges of a source shared by items;
        // same argument as per-dst, kept for totality on malformed ops.
        WriteIndex::PerDst | WriteIndex::PerSrc => RaceVerdict {
            needs_atomic: true,
            reason: "edge-parallel reduction: items sharing a destination write the same row",
        },
    }
}

/// Two concrete work items that write the same output row on `graph`.
///
/// `item_a` / `item_b` are V/E group indices (`slot / grouping`) of the
/// first feature tile; the race exists on every tile, but tile 0 is the
/// canonical witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceWitness {
    /// The destination vertex whose output row both items write.
    pub dst: usize,
    /// The lower work item (group index).
    pub item_a: usize,
    /// The higher work item (group index).
    pub item_b: usize,
    /// An edge slot of `dst` owned by `item_a`.
    pub slot_a: usize,
    /// An edge slot of `dst` owned by `item_b`.
    pub slot_b: usize,
}

/// Specializes [`race_verdict`] to a concrete graph: finds two work items
/// that write the same output row, or proves that this graph cannot race
/// under this schedule.
///
/// Edge-parallel reductions iterate edges in destination-sorted (CSR) slot
/// order and flush one store per same-destination run (see
/// `exec::trace`), so two items share a destination exactly when that
/// destination's contiguous slot range crosses a `grouping` boundary.
pub fn race_witness(graph: &Graph, op: &OpInfo, parallel: &ParallelInfo) -> Option<RaceWitness> {
    if !race_verdict(op, parallel).needs_atomic {
        return None;
    }
    let grp = parallel.grouping.max(1);
    for dst in 0..graph.num_vertices() {
        let s0 = graph.in_ptr()[dst];
        let s1 = graph.in_ptr()[dst + 1];
        if s1 == s0 {
            continue;
        }
        let (item_a, item_b) = (s0 / grp, (s1 - 1) / grp);
        if item_a != item_b {
            return Some(RaceWitness {
                dst,
                item_a,
                item_b,
                slot_a: s0,
                slot_b: s1 - 1,
            });
        }
    }
    None
}

/// The single legality gate for an `(operator, schedule, feature-dim)`
/// context: Table 4 operator rules, schedule knobs, non-empty feature
/// dimension. Plan generation, grid search and the predictor all call
/// this instead of keeping their own scattered checks.
///
/// # Errors
///
/// Returns [`CoreError::InvalidOperator`] for illegal operators,
/// [`CoreError::InvalidSchedule`] for zero knobs, and
/// [`CoreError::FeatureMismatch`] for `feat == 0`.
pub fn check_context(op: &OpInfo, parallel: &ParallelInfo, feat: usize) -> Result<(), CoreError> {
    op.validate()?;
    parallel.validate()?;
    if feat == 0 {
        return Err(CoreError::FeatureMismatch {
            expected: 1,
            found: 0,
        });
    }
    Ok(())
}

/// A warning-level schedule finding: legal, but wasteful or degenerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleLint {
    /// The requested feature tiling exceeds the feature dimension; the
    /// plan clamps it, so every knob value above `feat` produces the same
    /// kernel (wasted tuning candidates).
    TilingExceedsFeat {
        /// Requested tiling knob.
        tiling: usize,
        /// Actual feature dimension.
        feat: usize,
    },
    /// The grouping knob is at least the number of work units, so a single
    /// work item owns all of them — the schedule degenerates to serial
    /// execution over that loop.
    GroupingExceedsWork {
        /// Requested grouping knob.
        grouping: usize,
        /// Vertices (vertex strategies) or edges (edge strategies).
        work_units: usize,
    },
}

impl std::fmt::Display for ScheduleLint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleLint::TilingExceedsFeat { tiling, feat } => write!(
                f,
                "tiling {tiling} exceeds feature dimension {feat}; clamped (redundant candidate)"
            ),
            ScheduleLint::GroupingExceedsWork {
                grouping,
                work_units,
            } => write!(
                f,
                "grouping {grouping} >= {work_units} work units; one item owns all work"
            ),
        }
    }
}

/// Reports warning-level schedule findings for a concrete graph shape.
/// An empty result means the schedule exercises real parallelism and no
/// knob is silently clamped.
pub fn lint_schedule(
    parallel: &ParallelInfo,
    feat: usize,
    num_vertices: usize,
    num_edges: usize,
) -> Vec<ScheduleLint> {
    let mut lints = Vec::new();
    if parallel.tiling > feat && feat > 0 {
        lints.push(ScheduleLint::TilingExceedsFeat {
            tiling: parallel.tiling,
            feat,
        });
    }
    let work_units = if parallel.strategy.is_edge_parallel() {
        num_edges
    } else {
        num_vertices
    };
    if work_units > 0 && parallel.grouping >= work_units && parallel.grouping > 1 {
        lints.push(ScheduleLint::GroupingExceedsWork {
            grouping: parallel.grouping,
            work_units,
        });
    }
    lints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::{registry, GatherOp};
    use crate::schedule::Strategy;
    use ugrapher_graph::generate::uniform_random;

    /// The pre-refactor inline rule from `KernelPlan::generate`, pinned
    /// verbatim: the new shared analysis must agree with it on every legal
    /// operator × strategy (the dedup regression test).
    fn legacy_rule(op: &OpInfo, parallel: &ParallelInfo) -> bool {
        op.c == TensorType::DstV
            && op.gather_op.is_reduction()
            && parallel.strategy.is_edge_parallel()
    }

    #[test]
    fn verdict_agrees_with_legacy_rule_on_entire_registry() {
        for op in registry::all_valid_ops() {
            for strategy in Strategy::ALL {
                for (g, t) in [(1, 1), (4, 2), (64, 64)] {
                    let p = ParallelInfo::new(strategy, g, t);
                    assert_eq!(
                        race_verdict(&op, &p).needs_atomic,
                        legacy_rule(&op, &p),
                        "{op:?} under {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn edge_outputs_never_race() {
        for op in registry::all_valid_ops()
            .iter()
            .filter(|o| o.c == TensorType::Edge)
        {
            for strategy in Strategy::ALL {
                let v = race_verdict(op, &ParallelInfo::basic(strategy));
                assert!(!v.needs_atomic, "{op:?} under {strategy:?}: {}", v.reason);
            }
        }
    }

    #[test]
    fn witness_found_when_destination_spans_items() {
        let g = uniform_random(100, 800, 3); // mean in-degree 8 >> 1
        let op = OpInfo::aggregation_sum();
        let p = ParallelInfo::basic(Strategy::ThreadEdge);
        let w = race_witness(&g, &op, &p).expect("dense graph must race under G=1");
        assert_ne!(w.item_a, w.item_b);
        assert!(g.in_degree(w.dst) >= 2);
        // The two slots really belong to the witness destination.
        assert!(g.in_ptr()[w.dst] <= w.slot_a && w.slot_b < g.in_ptr()[w.dst + 1]);
    }

    #[test]
    fn witness_absent_when_one_item_owns_everything() {
        let g = uniform_random(50, 60, 4);
        let op = OpInfo::aggregation_sum();
        // Grouping 64 covers all 60 edges: a single work item, no race on
        // this graph even though the shape-generic verdict is atomic.
        let p = ParallelInfo::new(Strategy::ThreadEdge, 64, 1);
        assert!(race_verdict(&op, &p).needs_atomic);
        assert!(race_witness(&g, &op, &p).is_none());
    }

    #[test]
    fn witness_none_for_non_racing_schedules() {
        let g = uniform_random(80, 400, 5);
        assert!(race_witness(
            &g,
            &OpInfo::aggregation_sum(),
            &ParallelInfo::basic(Strategy::WarpVertex)
        )
        .is_none());
        assert!(race_witness(
            &g,
            &OpInfo::message_creation_add(),
            &ParallelInfo::basic(Strategy::ThreadEdge)
        )
        .is_none());
    }

    #[test]
    fn check_context_rejects_each_bad_input() {
        let op = OpInfo::aggregation_sum();
        let ok = ParallelInfo::basic(Strategy::ThreadEdge);
        assert!(check_context(&op, &ok, 8).is_ok());
        let bad_schedule = ParallelInfo {
            strategy: Strategy::ThreadEdge,
            grouping: 0,
            tiling: 1,
        };
        assert!(matches!(
            check_context(&op, &bad_schedule, 8),
            Err(CoreError::InvalidSchedule { .. })
        ));
        assert!(matches!(
            check_context(&op, &ok, 0),
            Err(CoreError::FeatureMismatch { .. })
        ));
        let bad_op = OpInfo {
            edge_op: crate::abstraction::EdgeOp::Mul,
            gather_op: GatherOp::Sum,
            a: TensorType::SrcV,
            b: TensorType::Null,
            c: TensorType::DstV,
        };
        assert!(matches!(
            check_context(&bad_op, &ok, 8),
            Err(CoreError::InvalidOperator { .. })
        ));
    }

    #[test]
    fn lints_flag_clamped_and_degenerate_knobs() {
        let p = ParallelInfo::new(Strategy::ThreadEdge, 64, 64);
        let lints = lint_schedule(&p, 8, 40, 50);
        assert!(lints
            .iter()
            .any(|l| matches!(l, ScheduleLint::TilingExceedsFeat { .. })));
        assert!(lints
            .iter()
            .any(|l| matches!(l, ScheduleLint::GroupingExceedsWork { .. })));
        assert!(lint_schedule(&ParallelInfo::basic(Strategy::ThreadEdge), 8, 40, 50).is_empty());
        for l in &lints {
            assert!(!l.to_string().is_empty());
        }
    }
}
