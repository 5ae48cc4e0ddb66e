//! Lowering: [`KernelPlan`] → [`KernelIr`].
//!
//! This is the only place the code generator's two passes (paper §5.2)
//! run. Pass 1 (**fusion**) removes the copy stages: a copy edge op stores
//! its operand directly instead of materialising an edge temporary, and a
//! copy gather overwrites the output instead of reducing into it. Pass 2
//! (**atomic analysis**) maps the shared race verdict
//! ([`analysis::race_verdict`]) onto the store's [`UpdateKind`]. The CUDA
//! emitter, the simulator's trace walker and the `ugrapher-analyze`
//! verifier passes all read the result instead of re-deriving it.

use crate::abstraction::{EdgeOp, GatherOp, TensorType};
use crate::analysis;
use crate::ir::{provenance_of, KernelIr, Load, Loop, OperandBuf, Stmt, Store, UpdateKind, Value};
use crate::plan::KernelPlan;
use crate::CoreError;

/// Lowers a kernel plan into the typed IR, running the fusion and atomic
/// passes.
///
/// # Errors
///
/// Returns [`CoreError::Internal`] if the plan's operator has a `Null`
/// output, which plan generation rejects.
pub fn lower(plan: &KernelPlan) -> Result<KernelIr, CoreError> {
    let strategy = plan.parallel.strategy;

    let operand = |buf: OperandBuf, tensor: TensorType, scalar: bool| -> Value {
        match provenance_of(tensor, strategy) {
            Some(row) => Value::Load(Load {
                buf,
                tensor,
                row,
                feature_indexed: !scalar,
            }),
            None => Value::Zero,
        }
    };
    let a = operand(OperandBuf::A, plan.op.a, plan.a_scalar);
    let b = operand(OperandBuf::B, plan.op.b, plan.b_scalar);

    // Pass 1, edge stage: a copy edge op stores the operand value
    // directly; anything else materialises the edge temporary through the
    // device function.
    let mut body = Vec::with_capacity(2);
    let value = match plan.op.edge_op {
        EdgeOp::CopyLhs => a,
        EdgeOp::CopyRhs => b,
        op => {
            body.push(Stmt::DefineEdgeTmp { op, a, b });
            Value::EdgeTmp
        }
    };

    // Pass 1, gather stage (copies overwrite), and pass 2 (atomics).
    let atomic = analysis::race_verdict(&plan.op, &plan.parallel).needs_atomic;
    let update = match (plan.op.gather_op, atomic) {
        (GatherOp::CopyLhs | GatherOp::CopyRhs, _) => UpdateKind::Assign,
        (GatherOp::Sum | GatherOp::Mean, false) => UpdateKind::Accumulate,
        (GatherOp::Sum | GatherOp::Mean, true) => UpdateKind::AtomicAdd,
        (GatherOp::Max, false) => UpdateKind::MaxInPlace,
        (GatherOp::Max, true) => UpdateKind::AtomicCasMax,
        (GatherOp::Min, false) => UpdateKind::MinInPlace,
        (GatherOp::Min, true) => UpdateKind::AtomicCasMin,
    };

    body.push(Stmt::Store(Store {
        tensor: plan.op.c,
        row: provenance_of(plan.op.c, strategy).ok_or_else(|| CoreError::Internal {
            reason: "operator with Null output survived plan validation".to_owned(),
        })?,
        value,
        update,
    }));

    let feature = Loop::Feature {
        stride: if strategy.is_warp_per_item() { 32 } else { 1 },
    };
    let loops = if strategy.is_edge_parallel() {
        vec![Loop::EdgeGroup, feature]
    } else {
        vec![Loop::DstGroup, Loop::CsrSlots, feature]
    };

    Ok(KernelIr {
        op: plan.op,
        parallel: plan.parallel,
        loops,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::OpInfo;
    use crate::ir::Provenance;
    use crate::schedule::{ParallelInfo, Strategy};

    fn plan(op: OpInfo, strategy: Strategy) -> KernelPlan {
        KernelPlan::generate(op, ParallelInfo::basic(strategy), 1000, 4000, 32).unwrap()
    }

    #[test]
    fn loop_nests_follow_strategy_family() {
        let ir = lower(&plan(OpInfo::aggregation_sum(), Strategy::ThreadVertex)).unwrap();
        assert_eq!(
            ir.loops,
            vec![Loop::DstGroup, Loop::CsrSlots, Loop::Feature { stride: 1 }]
        );
        let ir = lower(&plan(OpInfo::aggregation_sum(), Strategy::WarpEdge)).unwrap();
        assert_eq!(
            ir.loops,
            vec![Loop::EdgeGroup, Loop::Feature { stride: 32 }]
        );
    }

    #[test]
    fn fusion_is_replayed_in_the_statement_list() {
        // Copy edge op: single store statement reading A directly.
        let ir = lower(&plan(OpInfo::aggregation_sum(), Strategy::ThreadEdge)).unwrap();
        assert_eq!(ir.body.len(), 1);
        assert!(matches!(
            ir.store().value,
            Value::Load(Load {
                buf: OperandBuf::A,
                ..
            })
        ));
        assert_eq!(
            ir.arith_per_element(),
            1.0,
            "the sum is the only arithmetic"
        );
        // Real edge op: edge temporary materialised, store reads it.
        let ir = lower(&plan(
            OpInfo::weighted_aggregation_sum(),
            Strategy::ThreadEdge,
        ))
        .unwrap();
        assert_eq!(ir.body.len(), 2);
        assert!(matches!(ir.body[0], Stmt::DefineEdgeTmp { .. }));
        assert_eq!(ir.store().value, Value::EdgeTmp);
        assert_eq!(ir.arith_per_element(), 2.0);
        // Copy gather: the store assigns, so only the edge stage computes.
        let ir = lower(&plan(OpInfo::message_creation_add(), Strategy::ThreadEdge)).unwrap();
        assert_eq!(ir.store().update, UpdateKind::Assign);
        assert_eq!(ir.arith_per_element(), 1.0);
    }

    #[test]
    fn store_provenance_tracks_output_tensor_and_strategy() {
        let ir = lower(&plan(OpInfo::aggregation_sum(), Strategy::ThreadVertex)).unwrap();
        assert_eq!(ir.store().row, Provenance::DstPartition);
        let ir = lower(&plan(OpInfo::aggregation_sum(), Strategy::ThreadEdge)).unwrap();
        assert_eq!(ir.store().row, Provenance::DstIndirect);
        let ir = lower(&plan(OpInfo::message_creation_add(), Strategy::ThreadEdge)).unwrap();
        assert_eq!(ir.store().row, Provenance::EidIndirect);
        assert_eq!(ir.store().update, UpdateKind::Assign);
    }

    #[test]
    fn atomic_update_forms_mirror_pass_two() {
        assert_eq!(
            lower(&plan(OpInfo::aggregation_sum(), Strategy::ThreadEdge))
                .unwrap()
                .store()
                .update,
            UpdateKind::AtomicAdd
        );
        assert_eq!(
            lower(&plan(OpInfo::aggregation_max(), Strategy::WarpEdge))
                .unwrap()
                .store()
                .update,
            UpdateKind::AtomicCasMax
        );
        assert_eq!(
            lower(&plan(OpInfo::aggregation_max(), Strategy::WarpVertex))
                .unwrap()
                .store()
                .update,
            UpdateKind::MaxInPlace
        );
    }

    #[test]
    fn scalar_flags_clear_feature_indexing() {
        let p = plan(OpInfo::weighted_aggregation_sum(), Strategy::ThreadEdge)
            .with_scalar_operands(false, true);
        let ir = lower(&p).unwrap();
        let loads = ir.loads();
        let b = loads.iter().find(|l| l.buf == OperandBuf::B).unwrap();
        assert!(!b.feature_indexed);
        let a = loads.iter().find(|l| l.buf == OperandBuf::A).unwrap();
        assert!(a.feature_indexed);
    }
}
