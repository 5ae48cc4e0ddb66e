//! The analyzer's typed failure modes.

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::CoreError;

use crate::bounds::BoundsViolation;
use crate::irlint::IrFinding;

/// A hard analysis failure: the triple is illegal, the lowered IR fails
/// its lint, an access cannot be proved in-bounds, or the dynamic
/// write-set trace refutes the static verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeError {
    /// The `(operator, schedule, graph-shape)` triple failed the legality
    /// gate (illegal operator, zero schedule knob, empty feature dim) or
    /// plan generation / IR lowering rejected it.
    Illegal {
        /// The underlying core error.
        source: CoreError,
    },
    /// The lowered kernel IR contradicts the analysis (residual NULL
    /// loads, missing operand reads, atomics that contradict the verdict).
    Codegen {
        /// The operator whose IR was linted.
        op: OpInfo,
        /// The schedule whose IR was linted.
        schedule: ParallelInfo,
        /// Every finding, in statement order.
        findings: Vec<IrFinding>,
    },
    /// The symbolic bounds checker could not prove every load/store of the
    /// lowered kernel in-bounds for graphs passing `Graph::validate`.
    OutOfBounds {
        /// The operator whose kernel failed the proof.
        op: OpInfo,
        /// The schedule whose kernel failed the proof.
        schedule: ParallelInfo,
        /// The failed obligation with its concrete witness index
        /// expression.
        violation: BoundsViolation,
    },
    /// The simulated write-set trace disagrees with the static verdict:
    /// either conflicts appeared where the witness analysis proved none can,
    /// a predicted witness produced no observed conflict, or a contended
    /// word carried a non-atomic write.
    DynamicMismatch {
        /// The operator under test.
        op: OpInfo,
        /// The schedule under test.
        schedule: ParallelInfo,
        /// Whether the static analysis produced a concrete race witness.
        static_witness: bool,
        /// Output words written by two or more work items.
        contended: usize,
        /// Contended words with at least one non-atomic write.
        unprotected: usize,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Illegal { source } => write!(f, "illegal analysis input: {source}"),
            AnalyzeError::Codegen {
                op,
                schedule,
                findings,
            } => {
                write!(
                    f,
                    "IR lint failed for {op:?} under {schedule}: {} finding(s):",
                    findings.len()
                )?;
                for finding in findings {
                    write!(f, " [{finding}]")?;
                }
                Ok(())
            }
            AnalyzeError::OutOfBounds {
                op,
                schedule,
                violation,
            } => write!(
                f,
                "bounds proof failed for {op:?} under {schedule}: {violation}"
            ),
            AnalyzeError::DynamicMismatch {
                op,
                schedule,
                static_witness,
                contended,
                unprotected,
            } => write!(
                f,
                "dynamic cross-check failed for {op:?} under {schedule}: static witness={}, \
                 observed {contended} contended word(s), {unprotected} unprotected",
                if *static_witness { "yes" } else { "none" },
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalyzeError::Illegal { source } => Some(source),
            _ => None,
        }
    }
}

impl From<CoreError> for AnalyzeError {
    fn from(source: CoreError) -> Self {
        AnalyzeError::Illegal { source }
    }
}
