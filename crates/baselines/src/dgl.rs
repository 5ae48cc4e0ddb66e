//! DGL-style backend: static handwritten kernels.
//!
//! DGL dispatches every reduction-style graph operator (its SpMM path) to
//! one fixed kernel — a warp-per-destination-vertex CSR traversal with
//! lanes across the feature dimension — and every message-creation
//! operator (its SDDMM path) to a fixed thread-per-edge kernel. The
//! strategies never adapt to the input graph, the operator weight, or the
//! feature size, which is precisely the inefficiency paper §2.2 measures
//! (Fig. 3).

use ugrapher_core::abstraction::{OpCategory, OpInfo};
use ugrapher_core::api::Runtime;
use ugrapher_core::exec::OpOperands;
use ugrapher_core::schedule::{ParallelInfo, Strategy};
use ugrapher_core::CoreError;
use ugrapher_graph::Graph;
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;

use ugrapher_gnn::{GraphOpBackend, OpSite};

use crate::util::run_fixed;

/// DGL's static kernel strategy (see module docs).
#[derive(Debug, Clone)]
pub struct DglBackend {
    runtime: Runtime,
}

impl DglBackend {
    /// Creates a DGL-style backend for the given device.
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            runtime: Runtime::new(device),
        }
    }

    /// The fixed schedule DGL uses for an operator class.
    pub fn strategy_for(op: &OpInfo) -> ParallelInfo {
        match op.category() {
            // SpMM-like: warp per destination row, lanes over features.
            OpCategory::MessageAggregation | OpCategory::FusedAggregation => {
                ParallelInfo::basic(Strategy::WarpVertex)
            }
            // SDDMM-like: one thread per edge.
            OpCategory::MessageCreation => ParallelInfo::basic(Strategy::ThreadEdge),
        }
    }
}

impl GraphOpBackend for DglBackend {
    fn name(&self) -> &'static str {
        "dgl"
    }

    fn device(&self) -> &DeviceConfig {
        self.runtime.device()
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
    use ugrapher_gnn::{ModelKind, OpSiteKind};
    use ugrapher_graph::generate::uniform_random;

    #[test]
    fn fixed_strategies_by_category() {
        assert_eq!(
            DglBackend::strategy_for(&OpInfo::aggregation_sum()).strategy,
            Strategy::WarpVertex
        );
        assert_eq!(
            DglBackend::strategy_for(&OpInfo::message_creation_add()).strategy,
            Strategy::ThreadEdge
        );
    }

    #[test]
    fn runs_operators_correctly() {
        let g = uniform_random(100, 600, 5);
        let x = Tensor2::full(100, 8, 1.0);
        let backend = DglBackend::new(DeviceConfig::v100());
        let site = OpSite::new(ModelKind::Gcn, 1, OpSiteKind::Aggregation);
        let (out, report) = backend
            .run_op(
                &g,
                &site,
                &OpInfo::aggregation_sum(),
                &OpOperands::single(&x),
            )
            .unwrap();
        for v in 0..100 {
            assert_eq!(out[(v, 0)], g.in_degree(v) as f32);
        }
        assert!(report.time_ms > 0.0);
    }

    #[test]
    fn supports_all_models() {
        let backend = DglBackend::new(DeviceConfig::v100());
        for m in ModelKind::ALL {
            assert!(backend.supports(m));
        }
    }
}
