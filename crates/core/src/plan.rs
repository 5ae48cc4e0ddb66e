//! Kernel plan generation — the scheduling half of the paper's CUDA code
//! generator (§5.2).
//!
//! A [`KernelPlan`] records what was *decided* for one kernel: the
//! operator, the schedule, the feature width and scalar-operand flags, and
//! the launch geometry derived from them (groups, tiles, items, grid shape
//! and the per-thread register estimate that feeds the occupancy model).
//! What the kernel *does* — the generator's two passes, NULL-op fusion and
//! atomic analysis — is derived once, by [`crate::lower::lower`], into the
//! typed [`crate::ir::KernelIr`].

use crate::abstraction::OpInfo;
use crate::analysis;
use crate::costs;
use crate::schedule::ParallelInfo;
use crate::CoreError;

/// A fully scheduled graph-operator kernel, ready to execute or trace.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPlan {
    /// The operator semantics.
    pub op: OpInfo,
    /// The schedule.
    pub parallel: ParallelInfo,
    /// Destination-vertex groups (vertex strategies) or edge groups (edge
    /// strategies).
    pub num_groups: usize,
    /// Effective number of feature tiles (requested tiling clamped to the
    /// feature dimension).
    pub tile_count: usize,
    /// Features per tile.
    pub tile_size: usize,
    /// Total work items (`num_groups * tile_count`); one item is one thread
    /// (thread strategies) or one warp (warp strategies).
    pub num_items: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Grid size in blocks.
    pub grid_blocks: usize,
    /// Estimated registers per thread (drives occupancy).
    pub regs_per_thread: usize,
    /// Feature dimension of the operator's tensors.
    pub feat: usize,
    /// Operand A is a one-column scalar broadcast (one value per row).
    pub a_scalar: bool,
    /// Operand B is a one-column scalar broadcast.
    pub b_scalar: bool,
}

impl KernelPlan {
    /// Generates a plan for `op` under `parallel` on a graph with the given
    /// vertex/edge counts and feature dimension.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOperator`] if `op` fails validation,
    /// [`CoreError::InvalidSchedule`] if `parallel` has a zero knob, or
    /// [`CoreError::FeatureMismatch`] if `feat == 0`.
    pub fn generate(
        op: OpInfo,
        parallel: ParallelInfo,
        num_vertices: usize,
        num_edges: usize,
        feat: usize,
    ) -> Result<Self, CoreError> {
        analysis::check_context(&op, &parallel, feat)?;

        // Schedule shape. The requested tiling is clamped to the feature
        // dimension, then re-derived from the tile size so that
        // `tile_count * tile_size` covers `feat` without overshooting by a
        // whole tile (e.g. feat 12 with tiling 8 becomes 6 tiles of 2).
        let tile_size = feat.div_ceil(parallel.tiling.min(feat).max(1));
        let tile_count = feat.div_ceil(tile_size);
        let work_units = if parallel.strategy.is_edge_parallel() {
            num_edges
        } else {
            num_vertices
        };
        let num_groups = work_units.div_ceil(parallel.grouping).max(1);
        let num_items = num_groups * tile_count;

        let threads_per_block = costs::THREADS_PER_BLOCK;
        let warp = 32;
        let grid_blocks = if parallel.strategy.is_warp_per_item() {
            let warps_per_block = threads_per_block / warp;
            num_items.div_ceil(warps_per_block).max(1)
        } else {
            num_items.div_ceil(threads_per_block).max(1)
        };

        // Register estimate: thread-per-item strategies keep the whole
        // feature tile in registers (vertex strategies accumulate there),
        // warp strategies split the tile over 32 lanes.
        let accum_regs = if parallel.strategy.is_warp_per_item() {
            tile_size.div_ceil(warp)
        } else {
            tile_size
        };
        let regs_per_thread = (costs::BASE_REGS_PER_THREAD + accum_regs).min(255);

        Ok(Self {
            op,
            parallel,
            num_groups,
            tile_count,
            tile_size,
            num_items,
            threads_per_block,
            grid_blocks,
            regs_per_thread,
            feat,
            a_scalar: false,
            b_scalar: false,
        })
    }

    /// Marks operands as one-column scalar broadcasts (see
    /// [`crate::exec::execute`]); scalar operands load 4 bytes per edge
    /// instead of a full feature tile.
    pub fn with_scalar_operands(mut self, a_scalar: bool, b_scalar: bool) -> Self {
        self.a_scalar = a_scalar;
        self.b_scalar = b_scalar;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::TensorType;
    use crate::lower::lower;
    use crate::schedule::Strategy;

    fn plan(op: OpInfo, p: ParallelInfo) -> KernelPlan {
        KernelPlan::generate(op, p, 1000, 5000, 32).unwrap()
    }

    #[test]
    fn atomic_analysis_matches_strategy() {
        let atomic = |op, s| {
            let p = plan(op, ParallelInfo::basic(s));
            lower(&p).unwrap().store().update.is_atomic()
        };
        let agg = OpInfo::aggregation_sum();
        assert!(!atomic(agg, Strategy::ThreadVertex));
        assert!(!atomic(agg, Strategy::WarpVertex));
        assert!(atomic(agg, Strategy::ThreadEdge));
        assert!(atomic(agg, Strategy::WarpEdge));
        // Message creation never needs atomics: each edge is written once.
        let msg = OpInfo::message_creation_add();
        assert!(!atomic(msg, Strategy::ThreadEdge));
        assert!(!atomic(msg, Strategy::WarpEdge));
    }

    #[test]
    fn grouping_reduces_items() {
        let base = plan(
            OpInfo::aggregation_sum(),
            ParallelInfo::new(Strategy::ThreadEdge, 1, 1),
        );
        let grouped = plan(
            OpInfo::aggregation_sum(),
            ParallelInfo::new(Strategy::ThreadEdge, 4, 1),
        );
        assert_eq!(base.num_items, 5000);
        assert_eq!(grouped.num_items, 1250);
        assert!(grouped.grid_blocks < base.grid_blocks);
    }

    #[test]
    fn tiling_multiplies_items_and_shrinks_tiles() {
        let tiled = plan(
            OpInfo::aggregation_sum(),
            ParallelInfo::new(Strategy::ThreadVertex, 1, 4),
        );
        assert_eq!(tiled.tile_count, 4);
        assert_eq!(tiled.tile_size, 8);
        assert_eq!(tiled.num_items, 4000);
    }

    #[test]
    fn tiling_clamped_to_feature_dim() {
        let p = KernelPlan::generate(
            OpInfo::aggregation_sum(),
            ParallelInfo::new(Strategy::ThreadVertex, 1, 64),
            100,
            500,
            8,
        )
        .unwrap();
        assert_eq!(p.tile_count, 8);
        assert_eq!(p.tile_size, 1);
    }

    #[test]
    fn warp_items_need_fewer_blocks() {
        let tv = plan(
            OpInfo::aggregation_sum(),
            ParallelInfo::basic(Strategy::ThreadVertex),
        );
        let wv = plan(
            OpInfo::aggregation_sum(),
            ParallelInfo::basic(Strategy::WarpVertex),
        );
        // Same items, but warp strategies pack 8 per block vs 256.
        assert_eq!(tv.num_items, wv.num_items);
        assert!(wv.grid_blocks > tv.grid_blocks);
    }

    #[test]
    fn register_pressure_grows_with_tile_size() {
        let big_tile = plan(
            OpInfo::aggregation_sum(),
            ParallelInfo::new(Strategy::ThreadVertex, 1, 1),
        );
        let small_tile = plan(
            OpInfo::aggregation_sum(),
            ParallelInfo::new(Strategy::ThreadVertex, 1, 8),
        );
        assert!(big_tile.regs_per_thread > small_tile.regs_per_thread);
    }

    #[test]
    fn zero_feat_rejected() {
        assert!(matches!(
            KernelPlan::generate(
                OpInfo::aggregation_sum(),
                ParallelInfo::basic(Strategy::ThreadEdge),
                10,
                10,
                0
            ),
            Err(CoreError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn zero_knob_schedule_rejected_not_div_by_zero() {
        let bad = ParallelInfo {
            strategy: Strategy::ThreadEdge,
            grouping: 0,
            tiling: 1,
        };
        assert!(matches!(
            KernelPlan::generate(OpInfo::aggregation_sum(), bad, 10, 10, 4),
            Err(CoreError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn invalid_op_rejected() {
        let bad = OpInfo {
            edge_op: crate::abstraction::EdgeOp::Mul,
            gather_op: crate::abstraction::GatherOp::Sum,
            a: TensorType::SrcV,
            b: TensorType::Null,
            c: TensorType::DstV,
        };
        assert!(
            KernelPlan::generate(bad, ParallelInfo::basic(Strategy::ThreadEdge), 10, 10, 4)
                .is_err()
        );
    }
}
