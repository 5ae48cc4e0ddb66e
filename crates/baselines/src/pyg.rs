//! PyG-style backend: gather–scatter execution.
//!
//! PyTorch-Geometric lowers message passing onto generic tensor primitives:
//! it *materialises* per-edge message tensors with `index_select`
//! (gather), applies edge-wise arithmetic as ordinary element-wise kernels,
//! and reduces with `scatter`. Compared to a fused kernel this costs extra
//! kernel launches and a full write + read of every intermediate edge
//! tensor — the redundant data movement paper §7.2 credits for uGrapher's
//! larger speedups over PyG.
//!
//! Every stage is itself a graph operator in the unified abstraction
//! (gathers are `copy_u`/`copy_v` message creations, the reduce is an
//! edge-to-vertex aggregation), all run thread-per-edge as PyG's scatter
//! kernels are.

use ugrapher_core::abstraction::{EdgeOp, GatherOp, OpCategory, OpInfo, TensorType};
use ugrapher_core::api::Runtime;
use ugrapher_core::exec::OpOperands;
use ugrapher_core::schedule::{ParallelInfo, Strategy};
use ugrapher_core::CoreError;
use ugrapher_graph::Graph;
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;

use ugrapher_gnn::{GraphOpBackend, OpSite};

use crate::util::run_fixed;

/// A required operand, or a typed [`CoreError::BadOperand`] instead of a
/// panic when the caller omitted it.
fn required(
    operand: Option<&Tensor2>,
    which: char,
    tensor_type: TensorType,
) -> Result<&Tensor2, CoreError> {
    operand.ok_or_else(|| CoreError::BadOperand {
        operand: which,
        tensor_type,
        reason: "operand tensor not supplied".to_owned(),
    })
}

/// PyG's gather–scatter strategy (see module docs).
#[derive(Debug, Clone)]
pub struct PygBackend {
    runtime: Runtime,
}

impl PygBackend {
    /// Creates a PyG-style backend for the given device.
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            runtime: Runtime::new(device),
        }
    }

    /// PyG's kernels are all edge-parallel scatter/gather loops.
    fn strategy() -> ParallelInfo {
        ParallelInfo::basic(Strategy::ThreadEdge)
    }

    /// Gathers one vertex operand onto edges (`index_select`).
    fn gather(
        &self,
        graph: &Graph,
        source: TensorType,
        tensor: &Tensor2,
    ) -> Result<(Tensor2, SimReport), CoreError> {
        let (edge_op, a, b, operands) = match source {
            TensorType::SrcV => (
                EdgeOp::CopyLhs,
                TensorType::SrcV,
                TensorType::Null,
                OpOperands::single(tensor),
            ),
            TensorType::DstV => (
                EdgeOp::CopyRhs,
                TensorType::Null,
                TensorType::DstV,
                OpOperands {
                    a: None,
                    b: Some(tensor),
                },
            ),
            other => unreachable!("gather of {other:?}"),
        };
        let op = OpInfo::new(edge_op, GatherOp::CopyRhs, a, b, TensorType::Edge)?;
        run_fixed(&self.runtime, graph, op, &operands, Self::strategy())
    }

    /// Edge-wise combination of two materialised edge tensors.
    fn edge_combine(
        &self,
        graph: &Graph,
        edge_op: EdgeOp,
        lhs: &Tensor2,
        rhs: &Tensor2,
    ) -> Result<(Tensor2, SimReport), CoreError> {
        let op = OpInfo::new(
            edge_op,
            GatherOp::CopyRhs,
            TensorType::Edge,
            TensorType::Edge,
            TensorType::Edge,
        )?;
        run_fixed(
            &self.runtime,
            graph,
            op,
            &OpOperands::pair(lhs, rhs),
            Self::strategy(),
        )
    }

    /// Scatter-reduce of a materialised edge tensor into vertices.
    fn scatter(
        &self,
        graph: &Graph,
        gather_op: GatherOp,
        messages: &Tensor2,
    ) -> Result<(Tensor2, SimReport), CoreError> {
        let op = OpInfo::new(
            EdgeOp::CopyLhs,
            gather_op,
            TensorType::Edge,
            TensorType::Null,
            TensorType::DstV,
        )?;
        run_fixed(
            &self.runtime,
            graph,
            op,
            &OpOperands::single(messages),
            Self::strategy(),
        )
    }

    /// Materialises the edge-stage result of `op` (everything before the
    /// reduction), returning the per-edge tensor and the kernel reports.
    fn materialize_messages(
        &self,
        graph: &Graph,
        op: &OpInfo,
        operands: &OpOperands<'_>,
        reports: &mut Vec<SimReport>,
    ) -> Result<Tensor2, CoreError> {
        // Gather each vertex operand onto edges; edge operands are already
        // edge tensors.
        let lhs: Option<Tensor2> = match op.a {
            TensorType::SrcV | TensorType::DstV => {
                let (t, r) = self.gather(graph, op.a, required(operands.a, 'A', op.a)?)?;
                reports.push(r);
                Some(t)
            }
            TensorType::Edge => Some(required(operands.a, 'A', op.a)?.clone()),
            TensorType::Null => None,
        };
        let rhs: Option<Tensor2> = match op.b {
            TensorType::SrcV | TensorType::DstV => {
                let (t, r) = self.gather(graph, op.b, required(operands.b, 'B', op.b)?)?;
                reports.push(r);
                Some(t)
            }
            TensorType::Edge => Some(required(operands.b, 'B', op.b)?.clone()),
            TensorType::Null => None,
        };
        match (lhs, rhs) {
            (Some(l), Some(r_t)) if !op.edge_op.is_copy() => {
                let (t, r) = self.edge_combine(graph, op.edge_op, &l, &r_t)?;
                reports.push(r);
                Ok(t)
            }
            (Some(l), _) if op.edge_op.uses_a() => Ok(l),
            (_, Some(r_t)) => Ok(r_t),
            _ => Err(CoreError::InvalidOperator {
                op: *op,
                reason: "operator has no usable operand".to_owned(),
            }),
        }
    }
}

impl GraphOpBackend for PygBackend {
    fn name(&self) -> &'static str {
        "pyg"
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
        op.validate()?;
        let mut reports = Vec::new();

        let output = match op.category() {
            OpCategory::MessageCreation => {
                // The materialised messages *are* the output.
                let msgs = self.materialize_messages(graph, op, operands, &mut reports)?;
                // A pure gather still needed at least one kernel; if the
                // operator was a plain copy of an edge tensor the gather
                // list may be empty — PyG would still launch a copy kernel.
                if reports.is_empty() {
                    let copy = OpInfo::new(
                        EdgeOp::CopyLhs,
                        GatherOp::CopyRhs,
                        TensorType::Edge,
                        TensorType::Null,
                        TensorType::Edge,
                    )?;
                    let (copied, r) = run_fixed(
                        &self.runtime,
                        graph,
                        copy,
                        &OpOperands::single(&msgs),
                        Self::strategy(),
                    )?;
                    reports.push(r);
                    copied
                } else {
                    msgs
                }
            }
            OpCategory::MessageAggregation | OpCategory::FusedAggregation => {
                let gather_op = op.gather_op;
                let msgs = self.materialize_messages(graph, op, operands, &mut reports)?;
                let (out, r) = self.scatter(graph, gather_op, &msgs)?;
                reports.push(r);
                out
            }
        };
        Ok((output, SimReport::merge_all(reports.iter())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrapher_core::exec::execute;
    use ugrapher_gnn::{ModelKind, OpSiteKind};
    use ugrapher_graph::generate::uniform_random;

    fn site() -> OpSite {
        OpSite::new(ModelKind::Gcn, 1, OpSiteKind::Aggregation)
    }

    #[test]
    fn matches_reference_semantics_for_fused_aggregation() {
        let g = uniform_random(80, 500, 2);
        let x = Tensor2::from_fn(80, 6, |r, c| ((r + c) % 9) as f32);
        let w = Tensor2::from_fn(500, 6, |r, _| (r % 4) as f32 * 0.5);
        let op = OpInfo::weighted_aggregation_sum();
        let operands = OpOperands::pair(&x, &w);
        let backend = PygBackend::new(DeviceConfig::v100());
        let (out, report) = backend.run_op(&g, &site(), &op, &operands).unwrap();
        let reference = execute(&g, &op, &operands).unwrap();
        assert!(out.approx_eq(&reference, 1e-4).unwrap());
        // Gather + combine + scatter = 3 kernels.
        assert_eq!(report.kernels, 3);
    }

    #[test]
    fn simple_copy_aggregation_uses_two_kernels() {
        let g = uniform_random(80, 500, 3);
        let x = Tensor2::full(80, 4, 1.0);
        let backend = PygBackend::new(DeviceConfig::v100());
        let (out, report) = backend
            .run_op(
                &g,
                &site(),
                &OpInfo::aggregation_sum(),
                &OpOperands::single(&x),
            )
            .unwrap();
        assert_eq!(report.kernels, 2, "gather + scatter");
        for v in 0..80 {
            assert_eq!(out[(v, 0)], g.in_degree(v) as f32);
        }
    }

    #[test]
    fn message_creation_gathers_both_sides() {
        let g = uniform_random(60, 300, 4);
        let x = Tensor2::from_fn(60, 4, |r, _| r as f32);
        let op = OpInfo::message_creation_add();
        let operands = OpOperands::pair(&x, &x);
        let backend = PygBackend::new(DeviceConfig::v100());
        let (out, report) = backend.run_op(&g, &site(), &op, &operands).unwrap();
        assert_eq!(report.kernels, 3, "two gathers + combine");
        let reference = execute(&g, &op, &operands).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn pyg_moves_more_data_than_a_fused_kernel() {
        let g = uniform_random(500, 5000, 5);
        let x = Tensor2::full(500, 32, 1.0);
        let op = OpInfo::aggregation_sum();
        let operands = OpOperands::single(&x);
        let pyg = PygBackend::new(DeviceConfig::v100());
        let (_, pyg_report) = pyg.run_op(&g, &site(), &op, &operands).unwrap();
        let fused = crate::DglBackend::new(DeviceConfig::v100());
        let (_, fused_report) = fused.run_op(&g, &site(), &op, &operands).unwrap();
        assert!(
            pyg_report.l1_transactions + pyg_report.l2_transactions
                > fused_report.l1_transactions + fused_report.l2_transactions,
            "materialisation must add traffic"
        );
    }
}
