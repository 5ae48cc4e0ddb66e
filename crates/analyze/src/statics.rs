//! The static analysis pass: race verdict with a concrete witness,
//! legality gate, schedule lints, and the IR verifier passes (bounds
//! proof, determinism classification, access patterns, IR lint) for one
//! `(operator, schedule, graph-shape)` triple.

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::analysis::{self, RaceWitness, ScheduleLint};
use ugrapher_core::codegen_cuda::emit_ir;
use ugrapher_core::ir::{KernelIr, OperandPatterns};
use ugrapher_core::lower::lower;
use ugrapher_core::plan::KernelPlan;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_graph::Graph;

use crate::bounds::{check_bounds, BoundsProof};
use crate::determinism::{classify, DeterminismReport};
use crate::error::AnalyzeError;
use crate::irlint::{lint_ir, IrFinding};

/// The analyzer's race verdict: the shape-generic atomic requirement plus,
/// when the schedule can race, two concrete work items of the given graph
/// that write the same output row (or `None` when this particular graph
/// cannot exhibit the race — e.g. the grouping is so large that one item
/// owns every edge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceVerdict {
    /// Two parallel work items can write the same output element; the
    /// kernel must use atomic updates.
    pub needs_atomic: bool,
    /// Human-readable derivation of the verdict.
    pub reason: &'static str,
    /// A concrete pair of racing work items on the analyzed graph, when
    /// one exists.
    pub witness: Option<RaceWitness>,
}

impl RaceVerdict {
    /// Derives the verdict and searches the graph for a witness.
    pub fn derive(graph: &Graph, op: &OpInfo, parallel: &ParallelInfo) -> Self {
        let v = analysis::race_verdict(op, parallel);
        RaceVerdict {
            needs_atomic: v.needs_atomic,
            reason: v.reason,
            witness: analysis::race_witness(graph, op, parallel),
        }
    }
}

/// Everything the static pass derives about one triple.
#[derive(Debug, Clone)]
pub struct StaticReport {
    /// The generated (or audited) kernel plan.
    pub plan: KernelPlan,
    /// The race verdict with its concrete-graph witness.
    pub race: RaceVerdict,
    /// Warning-level schedule findings (clamped tiling, degenerate
    /// grouping); legal but wasteful.
    pub schedule_lints: Vec<ScheduleLint>,
    /// The typed kernel IR the plan lowered to — the emitter renders
    /// [`StaticReport::cuda`] from exactly this value.
    pub ir: KernelIr,
    /// The discharged symbolic bounds proof for every load/store.
    pub bounds: BoundsProof,
    /// The determinism classification of the lowered kernel.
    pub determinism: DeterminismReport,
    /// Per-operand memory-access-pattern classification.
    pub access: OperandPatterns,
    /// IR lint findings (residual NULL loads, unused operands, atomic
    /// contradictions).
    pub codegen: Vec<IrFinding>,
    /// The CUDA translation unit rendered from [`StaticReport::plan`] and
    /// [`StaticReport::ir`].
    pub cuda: String,
}

impl StaticReport {
    /// `true` when no lint fired; the race verdict itself (atomic or not)
    /// is a property, not a finding.
    pub fn is_clean(&self) -> bool {
        self.schedule_lints.is_empty() && self.codegen.is_empty()
    }

    /// Converts lint findings into a hard error (used by CI, which fails
    /// on any finding).
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError::Codegen`] if any IR lint fired.
    pub fn expect_clean_codegen(&self) -> Result<(), AnalyzeError> {
        if self.codegen.is_empty() {
            Ok(())
        } else {
            Err(AnalyzeError::Codegen {
                op: self.plan.op,
                schedule: self.plan.parallel,
                findings: self.codegen.clone(),
            })
        }
    }
}

/// Statically analyzes an `(operator, schedule, graph-shape)` triple
/// *before* execution: legality gate, plan generation, then
/// [`audit_plan`].
///
/// # Errors
///
/// Returns [`AnalyzeError::Illegal`] when the triple fails the legality
/// gate and [`AnalyzeError::OutOfBounds`] when the symbolic bounds proof
/// fails.
pub fn analyze_static(
    graph: &Graph,
    op: OpInfo,
    parallel: ParallelInfo,
    feat: usize,
) -> Result<StaticReport, AnalyzeError> {
    analysis::check_context(&op, &parallel, feat)?;
    let plan = KernelPlan::generate(op, parallel, graph.num_vertices(), graph.num_edges(), feat)?;
    audit_plan(graph, &plan)
}

/// Lowers an already-built [`KernelPlan`] and runs every static check on
/// the result: the race verdict with its witness on `graph`, schedule
/// lints, the bounds proof, determinism classification, access patterns
/// and the IR lint (whose [`IrFinding::AtomicContradiction`] flags a store
/// whose atomicity disagrees with the race verdict). The CUDA in the report
/// is rendered from the same plan and IR.
///
/// # Errors
///
/// Returns [`AnalyzeError::OutOfBounds`] when an access cannot be proved
/// in-bounds, and [`AnalyzeError::Illegal`] when lowering rejects the
/// plan.
pub fn audit_plan(graph: &Graph, plan: &KernelPlan) -> Result<StaticReport, AnalyzeError> {
    let race = RaceVerdict::derive(graph, &plan.op, &plan.parallel);
    let schedule_lints = analysis::lint_schedule(
        &plan.parallel,
        plan.feat,
        graph.num_vertices(),
        graph.num_edges(),
    );
    let ir = lower(plan)?;
    let bounds = check_bounds(&ir).map_err(|violation| AnalyzeError::OutOfBounds {
        op: plan.op,
        schedule: plan.parallel,
        violation,
    })?;
    let determinism = classify(&ir);
    let access = ir.operand_patterns();
    let codegen = lint_ir(&ir);
    let cuda = emit_ir(plan, &ir);
    Ok(StaticReport {
        plan: plan.clone(),
        race,
        schedule_lints,
        ir,
        bounds,
        determinism,
        access,
        codegen,
        cuda,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrapher_core::ir::DeterminismClass;
    use ugrapher_core::schedule::Strategy;
    use ugrapher_core::CoreError;
    use ugrapher_graph::generate::uniform_random;

    #[test]
    fn clean_triple_produces_clean_report() {
        let g = uniform_random(200, 1600, 1);
        let rep = analyze_static(
            &g,
            OpInfo::aggregation_sum(),
            ParallelInfo::basic(Strategy::ThreadEdge),
            8,
        )
        .unwrap();
        assert!(rep.is_clean());
        assert!(rep.race.needs_atomic);
        assert!(rep.race.witness.is_some(), "dense graph must witness");
        rep.expect_clean_codegen().unwrap();
        // The verifier passes populated the report.
        assert!(rep.bounds.num_accesses() >= 2);
        assert_eq!(
            rep.determinism.class,
            DeterminismClass::AtomicOrderDependent
        );
        assert!(rep.ir.store().update.is_atomic());
        assert!(rep.cuda.contains("atomicAdd"));
    }

    #[test]
    fn illegal_triples_are_typed_errors() {
        let g = uniform_random(100, 400, 3);
        let err = analyze_static(
            &g,
            OpInfo::aggregation_sum(),
            ParallelInfo {
                strategy: Strategy::ThreadEdge,
                grouping: 0,
                tiling: 1,
            },
            8,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            AnalyzeError::Illegal {
                source: CoreError::InvalidSchedule { .. }
            }
        ));
    }

    #[test]
    fn degenerate_knobs_surface_as_schedule_lints() {
        let g = uniform_random(40, 50, 4);
        let rep = analyze_static(
            &g,
            OpInfo::aggregation_sum(),
            ParallelInfo::new(Strategy::ThreadEdge, 64, 64),
            8,
        )
        .unwrap();
        assert!(!rep.is_clean());
        assert_eq!(rep.schedule_lints.len(), 2, "{:?}", rep.schedule_lints);
        assert!(rep.codegen.is_empty(), "codegen itself is consistent");
    }

    #[test]
    fn report_carries_access_patterns() {
        use ugrapher_core::ir::AccessPattern;
        let g = uniform_random(100, 800, 9);
        let rep = analyze_static(
            &g,
            OpInfo::aggregation_sum(),
            ParallelInfo::basic(Strategy::WarpEdge),
            8,
        )
        .unwrap();
        assert_eq!(rep.access.a, Some(AccessPattern::Coalesced));
        assert_eq!(rep.access.c, AccessPattern::Coalesced);
        let rep = analyze_static(
            &g,
            OpInfo::aggregation_sum(),
            ParallelInfo::basic(Strategy::ThreadEdge),
            8,
        )
        .unwrap();
        assert_eq!(rep.access.a, Some(AccessPattern::Gather));
    }
}
