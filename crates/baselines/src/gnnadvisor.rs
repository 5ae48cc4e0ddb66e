//! GNNAdvisor-style backend.
//!
//! GNNAdvisor (OSDI'21) accelerates GNN aggregation with a warp-centric
//! kernel over fixed-size *neighbour groups* plus feature-dimension workers
//! — in uGrapher terms, a warp-edge strategy with a fixed V/E grouping and
//! fixed feature tiling (paper Table 5 classifies it exactly that way). The
//! parameters are input-independent defaults, and only GCN and GIN are
//! supported (paper §6). Node renumbering is disabled for fair comparison,
//! as the paper does; the Fig. 19 study applies renumbering to all systems
//! equally via `ugrapher_graph::reorder`.

use ugrapher_core::abstraction::{OpCategory, OpInfo};
use ugrapher_core::api::Runtime;
use ugrapher_core::exec::OpOperands;
use ugrapher_core::schedule::{ParallelInfo, Strategy};
use ugrapher_core::CoreError;
use ugrapher_graph::Graph;
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;

use ugrapher_gnn::{GraphOpBackend, ModelKind, OpSite};

use crate::util::run_fixed;

/// GNNAdvisor's default neighbour-group size.
const NEIGHBOR_GROUP: usize = 16;
/// GNNAdvisor's default dimension-worker tiling.
const DIM_TILING: usize = 2;

/// GNNAdvisor's fixed warp-centric kernel strategy (see module docs).
#[derive(Debug, Clone)]
pub struct GnnAdvisorBackend {
    runtime: Runtime,
}

impl GnnAdvisorBackend {
    /// Creates a GNNAdvisor-style backend for the given device.
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            runtime: Runtime::new(device),
        }
    }

    /// The fixed schedule GNNAdvisor uses.
    pub fn strategy_for(op: &OpInfo) -> ParallelInfo {
        match op.category() {
            OpCategory::MessageAggregation | OpCategory::FusedAggregation => {
                ParallelInfo::new(Strategy::WarpEdge, NEIGHBOR_GROUP, DIM_TILING)
            }
            // GNNAdvisor has no dedicated SDDMM kernel; edge outputs fall
            // back to a plain thread-per-edge loop.
            OpCategory::MessageCreation => ParallelInfo::basic(Strategy::ThreadEdge),
        }
    }
}

impl GraphOpBackend for GnnAdvisorBackend {
    fn name(&self) -> &'static str {
        "gnnadvisor"
    }

    fn device(&self) -> &DeviceConfig {
        self.runtime.device()
    }

    fn supports(&self, model: ModelKind) -> bool {
        matches!(model, ModelKind::Gcn | ModelKind::Gin)
    }

    fn run_op(
        &self,
        graph: &Graph,
        _site: &OpSite,
        op: &OpInfo,
        operands: &OpOperands<'_>,
    ) -> Result<(Tensor2, SimReport), CoreError> {
        run_fixed(&self.runtime, graph, *op, operands, Self::strategy_for(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrapher_gnn::{run_inference, GnnError, ModelConfig, OpSiteKind};
    use ugrapher_graph::generate::uniform_random;

    #[test]
    fn supports_only_gcn_and_gin() {
        let b = GnnAdvisorBackend::new(DeviceConfig::v100());
        assert!(b.supports(ModelKind::Gcn));
        assert!(b.supports(ModelKind::Gin));
        assert!(!b.supports(ModelKind::Gat));
        assert!(!b.supports(ModelKind::SageMax));
    }

    #[test]
    fn unsupported_model_errors_cleanly() {
        let g = uniform_random(50, 250, 7);
        let x = Tensor2::full(50, 8, 1.0);
        let b = GnnAdvisorBackend::new(DeviceConfig::v100());
        let err =
            run_inference(&ModelConfig::paper_default(ModelKind::Gat), &g, &x, 3, &b).unwrap_err();
        assert!(matches!(err, GnnError::UnsupportedModel { .. }));
    }

    #[test]
    fn aggregation_uses_grouped_warp_edge() {
        let p = GnnAdvisorBackend::strategy_for(&OpInfo::aggregation_sum());
        assert_eq!(p.strategy, Strategy::WarpEdge);
        assert_eq!(p.grouping, NEIGHBOR_GROUP);
    }

    #[test]
    fn runs_gcn_correctly() {
        let g = uniform_random(90, 500, 8);
        let x = Tensor2::full(90, 8, 0.5);
        let b = GnnAdvisorBackend::new(DeviceConfig::v100());
        let site = OpSite::new(ModelKind::Gcn, 1, OpSiteKind::Aggregation);
        let (out, rep) = b
            .run_op(
                &g,
                &site,
                &OpInfo::aggregation_sum(),
                &OpOperands::single(&x),
            )
            .unwrap();
        for v in 0..90 {
            assert_eq!(out[(v, 0)], 0.5 * g.in_degree(v) as f32);
        }
        assert!(rep.atomic_ops > 0.0, "warp-edge reductions are atomic");
    }
}
