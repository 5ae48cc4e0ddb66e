//! Verifier pass 3: the IR lint.
//!
//! The successor of the retired text-based CUDA lint, which audited the
//! emitted *string* and could silently drift from the emitter; this pass
//! audits the typed IR the emitter renders from, so the two cannot
//! disagree about what the kernel contains. Three properties are checked:
//!
//! * **no residual NULL loads** — pass-1 fusion must eliminate every
//!   [`Value::Zero`] placeholder; one surviving into the statement list
//!   would render as a `0.0f` load;
//! * **no unused operand buffers** — an operand the operator declares
//!   (`A`/`B` non-`Null`) must be loaded somewhere in the body;
//! * **atomics match the race verdict** — the store's update form is
//!   atomic if and only if the write-set race analysis says the schedule
//!   can race.

use ugrapher_core::abstraction::TensorType;
use ugrapher_core::analysis::race_verdict;
use ugrapher_core::ir::{KernelIr, OperandBuf, Stmt, Value};

/// One IR lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrFinding {
    /// The statement list still contains the `0.0f` placeholder of a
    /// `Null` operand — pass-1 fusion should have removed the stage.
    ResidualNullLoad {
        /// How many placeholder values survived.
        occurrences: usize,
    },
    /// The operator declares this operand, but no statement loads its
    /// buffer.
    UnusedOperandBuffer {
        /// `"A"` or `"B"`.
        operand: &'static str,
    },
    /// The store's update form contradicts the race verdict.
    AtomicContradiction {
        /// What the race analysis requires.
        verdict_atomic: bool,
        /// Whether the store uses an atomic update form.
        body_atomic: bool,
    },
    /// The statement list has no output store to audit.
    MissingStore,
}

impl std::fmt::Display for IrFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrFinding::ResidualNullLoad { occurrences } => write!(
                f,
                "{occurrences} residual NULL-operand load(s) (0.0f) survived fusion"
            ),
            IrFinding::UnusedOperandBuffer { operand } => write!(
                f,
                "operand buffer {operand} is declared by the operator but never read by the kernel"
            ),
            IrFinding::AtomicContradiction {
                verdict_atomic,
                body_atomic,
            } => write!(
                f,
                "race verdict requires atomics={verdict_atomic} but kernel body has atomics={body_atomic}"
            ),
            IrFinding::MissingStore => write!(f, "kernel IR contains no output store"),
        }
    }
}

/// Lints a lowered kernel IR. Returns every finding; an empty vector means
/// the IR is consistent with the operator declaration and the race
/// verdict.
pub fn lint_ir(ir: &KernelIr) -> Vec<IrFinding> {
    let mut findings = Vec::new();

    let values: Vec<&Value> = ir
        .body
        .iter()
        .flat_map(|s| match s {
            Stmt::DefineEdgeTmp { a, b, .. } => vec![a, b],
            Stmt::Store(st) => vec![&st.value],
        })
        .collect();

    let occurrences = values.iter().filter(|v| matches!(v, Value::Zero)).count();
    if occurrences > 0 {
        findings.push(IrFinding::ResidualNullLoad { occurrences });
    }

    for (operand, buf, ttype) in [("A", OperandBuf::A, ir.op.a), ("B", OperandBuf::B, ir.op.b)] {
        let loaded = values
            .iter()
            .any(|v| matches!(v, Value::Load(l) if l.buf == buf));
        if ttype != TensorType::Null && !loaded {
            findings.push(IrFinding::UnusedOperandBuffer { operand });
        }
    }

    let Some(Stmt::Store(store)) = ir.body.iter().find(|s| matches!(s, Stmt::Store(_))) else {
        findings.push(IrFinding::MissingStore);
        return findings;
    };
    let body_atomic = store.update.is_atomic();
    let verdict_atomic = race_verdict(&ir.op, &ir.parallel).needs_atomic;
    if body_atomic != verdict_atomic {
        findings.push(IrFinding::AtomicContradiction {
            verdict_atomic,
            body_atomic,
        });
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrapher_core::abstraction::OpInfo;
    use ugrapher_core::ir::UpdateKind;
    use ugrapher_core::lower::lower;
    use ugrapher_core::plan::KernelPlan;
    use ugrapher_core::schedule::{ParallelInfo, Strategy};

    fn ir(op: OpInfo, strategy: Strategy) -> KernelIr {
        let plan = KernelPlan::generate(op, ParallelInfo::basic(strategy), 500, 2000, 16).unwrap();
        lower(&plan).unwrap()
    }

    #[test]
    fn freshly_lowered_registry_is_clean() {
        for op in ugrapher_core::abstraction::registry::all_valid_ops() {
            for strategy in Strategy::ALL {
                assert_eq!(lint_ir(&ir(op, strategy)), vec![], "{op:?} {strategy:?}");
            }
        }
    }

    #[test]
    fn stripped_atomics_are_flagged() {
        let mut k = ir(OpInfo::aggregation_sum(), Strategy::ThreadEdge);
        if let Stmt::Store(s) = k.body.last_mut().unwrap() {
            s.update = UpdateKind::Accumulate;
        }
        assert!(lint_ir(&k).contains(&IrFinding::AtomicContradiction {
            verdict_atomic: true,
            body_atomic: false,
        }));
    }

    #[test]
    fn spurious_atomics_are_flagged() {
        for (op, update) in [
            (OpInfo::aggregation_sum(), UpdateKind::AtomicAdd),
            (OpInfo::aggregation_max(), UpdateKind::AtomicCasMax),
        ] {
            let mut k = ir(op, Strategy::ThreadVertex);
            if let Stmt::Store(s) = k.body.last_mut().unwrap() {
                s.update = update;
            }
            assert!(
                lint_ir(&k).contains(&IrFinding::AtomicContradiction {
                    verdict_atomic: false,
                    body_atomic: true,
                }),
                "{update:?}"
            );
        }
    }

    #[test]
    fn degraded_operand_load_is_both_findings() {
        // Simulate the lowering bug the text lint used to catch: the A
        // load degraded to the NULL placeholder.
        let mut k = ir(OpInfo::aggregation_sum(), Strategy::ThreadEdge);
        if let Stmt::Store(s) = k.body.last_mut().unwrap() {
            s.value = Value::Zero;
        }
        let findings = lint_ir(&k);
        assert!(findings
            .iter()
            .any(|f| matches!(f, IrFinding::ResidualNullLoad { .. })));
        assert!(findings.contains(&IrFinding::UnusedOperandBuffer { operand: "A" }));
    }

    #[test]
    fn missing_store_is_flagged() {
        let mut k = ir(OpInfo::aggregation_sum(), Strategy::ThreadVertex);
        k.body.retain(|s| !matches!(s, Stmt::Store(_)));
        assert!(lint_ir(&k).contains(&IrFinding::MissingStore));
    }
}
