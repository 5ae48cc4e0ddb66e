//! Verifier pass 2: the determinism classifier.
//!
//! Labels each lowered `(operator, schedule)` kernel by whether repeated
//! executions produce bitwise-identical output. The classification is a
//! function of the store's update form alone:
//!
//! * exclusive writes and single-owner sequential reductions walk each
//!   destination's CSR slot range in a fixed order — **bitwise
//!   deterministic**;
//! * atomic CAS float max/min interleave, but max/min over finite floats
//!   is insensitive to update order — **bitwise deterministic** despite
//!   the contention;
//! * atomic float sum/mean (`atomicAdd`) is the one order-*dependent*
//!   case: float addition is non-associative, so the bitwise result
//!   depends on the interleaving the hardware schedules.
//!
//! The label is surfaced on
//! [`RobustnessReport`](ugrapher_core::robustness::RobustnessReport) by
//! the runtime and counted per class in the sweep's metrics.

use ugrapher_core::ir::{classify_determinism, DeterminismClass, KernelIr, UpdateKind};

/// The classifier's outcome for one lowered kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterminismReport {
    /// The class (see [`DeterminismClass`]).
    pub class: DeterminismClass,
    /// The derivation: which update form produced the label.
    pub reason: String,
}

impl std::fmt::Display for DeterminismReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.class.label(), self.reason)
    }
}

/// Classifies a lowered kernel, with the derivation spelled out.
pub fn classify(ir: &KernelIr) -> DeterminismReport {
    let update = ir.store().update;
    let class = classify_determinism(ir);
    let reason = match update {
        UpdateKind::Assign => {
            "exclusive overwrite: each output element has exactly one writer".to_owned()
        }
        UpdateKind::Accumulate | UpdateKind::MaxInPlace | UpdateKind::MinInPlace => {
            "single-owner reduction in fixed CSR slot order".to_owned()
        }
        UpdateKind::AtomicCasMax | UpdateKind::AtomicCasMin => {
            "atomic CAS max/min: contended, but max/min is order-insensitive on finite floats"
                .to_owned()
        }
        UpdateKind::AtomicAdd => {
            "atomicAdd of floats: non-associative addition under hardware-scheduled interleaving"
                .to_owned()
        }
    };
    DeterminismReport { class, reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrapher_core::abstraction::{OpInfo, TensorType};
    use ugrapher_core::exec::{execute, OpOperands};
    use ugrapher_core::lower::lower;
    use ugrapher_core::plan::KernelPlan;
    use ugrapher_core::schedule::{ParallelInfo, Strategy};
    use ugrapher_graph::Graph;
    use ugrapher_tensor::Tensor2;

    fn ir(op: OpInfo, strategy: Strategy, nv: usize, ne: usize) -> KernelIr {
        let plan = KernelPlan::generate(op, ParallelInfo::basic(strategy), nv, ne, 8).unwrap();
        lower(&plan).unwrap()
    }

    /// A graph where vertex 0 has zero in-degree (all edges point at 1/2).
    fn graph_with_isolated_dst() -> Graph {
        Graph::from_edges(4, vec![0, 0, 3, 3], vec![1, 2, 1, 2]).unwrap()
    }

    #[test]
    fn mean_over_zero_in_degree_vertices_is_classified_and_stable() {
        let g = graph_with_isolated_dst();
        assert_eq!(g.in_degree(0), 0, "vertex 0 must be isolated");
        let mean = OpInfo::aggregation_mean();
        // Vertex-parallel mean: sequential single-owner reduction even
        // when some destinations have nothing to average over.
        let k = ir(
            mean,
            Strategy::ThreadVertex,
            g.num_vertices(),
            g.num_edges(),
        );
        let rep = classify(&k);
        assert_eq!(rep.class, DeterminismClass::Sequential);
        assert!(rep.class.bitwise_deterministic());
        // Edge-parallel mean races through atomicAdd: order-dependent.
        let k = ir(mean, Strategy::ThreadEdge, g.num_vertices(), g.num_edges());
        assert_eq!(classify(&k).class, DeterminismClass::AtomicOrderDependent);
        // The zero-in-degree row itself is well-defined (0, not NaN), and
        // repeated functional evaluations are bitwise identical.
        let x = Tensor2::from_fn(4, 8, |r, c| (r * 8 + c) as f32 + 0.5);
        let a = execute(&g, &mean, &OpOperands::single(&x)).unwrap();
        let b = execute(&g, &mean, &OpOperands::single(&x)).unwrap();
        assert_eq!(a.row(0), &[0.0; 8], "empty mean is zero, not NaN");
        assert!(a
            .row(1)
            .iter()
            .zip(b.row(1))
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn float_max_min_cas_under_warp_edge_is_order_insensitive() {
        let k = ir(OpInfo::aggregation_max(), Strategy::WarpEdge, 300, 2400);
        let rep = classify(&k);
        assert_eq!(rep.class, DeterminismClass::AtomicOrderInsensitive);
        assert!(
            rep.class.bitwise_deterministic(),
            "CAS max/min is contended yet bitwise stable"
        );
        assert!(rep.reason.contains("order-insensitive"));
        assert_eq!(k.store().update, UpdateKind::AtomicCasMax);
        // Min gathers exist in the registry; classify them too.
        let min_op = ugrapher_core::abstraction::registry::all_valid_ops()
            .into_iter()
            .find(|o| {
                o.gather_op == ugrapher_core::abstraction::GatherOp::Min && o.c == TensorType::DstV
            })
            .expect("registry has a min reduction");
        let k = ir(min_op, Strategy::WarpEdge, 300, 2400);
        assert_eq!(k.store().update, UpdateKind::AtomicCasMin);
        assert_eq!(classify(&k).class, DeterminismClass::AtomicOrderInsensitive);
    }

    #[test]
    fn edge_output_operators_are_never_atomic_and_always_deterministic() {
        for op in ugrapher_core::abstraction::registry::all_valid_ops()
            .into_iter()
            .filter(|o| o.c == TensorType::Edge)
        {
            for strategy in Strategy::ALL {
                let k = ir(op, strategy, 300, 2400);
                assert!(
                    !k.store().update.is_atomic(),
                    "{op:?} {strategy:?}: edge rows have exactly one writer"
                );
                assert_eq!(classify(&k).class, DeterminismClass::Sequential);
            }
        }
    }

    #[test]
    fn every_registry_combo_gets_a_label() {
        for op in ugrapher_core::abstraction::registry::all_valid_ops() {
            for strategy in Strategy::ALL {
                let k = ir(op, strategy, 300, 2400);
                let rep = classify(&k);
                assert!(!rep.reason.is_empty());
                // Order-dependence appears only with atomics.
                if rep.class == DeterminismClass::AtomicOrderDependent {
                    assert!(k.store().update.is_atomic());
                }
            }
        }
    }
}
