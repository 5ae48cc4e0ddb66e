use std::error::Error;
use std::fmt;

use crate::abstraction::{OpInfo, TensorType};

/// Errors produced by operator validation, tuning and execution.
///
/// This is the single error type every public `ugrapher-core` entry point
/// returns. The variants form a small taxonomy (documented in DESIGN.md):
///
/// * **caller input** — [`InvalidOperator`](CoreError::InvalidOperator),
///   [`BadOperand`](CoreError::BadOperand),
///   [`FeatureMismatch`](CoreError::FeatureMismatch),
///   [`GraphInvalid`](CoreError::GraphInvalid),
///   [`TensorInvalid`](CoreError::TensorInvalid),
///   [`InvalidSchedule`](CoreError::InvalidSchedule),
///   [`DeviceInvalid`](CoreError::DeviceInvalid) — the request itself is
///   malformed; fix the inputs and retry.
/// * **tuning** — [`TuningFailed`](CoreError::TuningFailed),
///   [`BudgetExceeded`](CoreError::BudgetExceeded) — schedule selection
///   could not complete; execution with an explicit schedule still works.
/// * **shield** — [`Internal`](CoreError::Internal) — a bug inside the
///   library was caught by the panic shield instead of aborting the
///   process; report it, and retry with different inputs if possible.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The `(edge_op, gather_op, A, B, C)` combination is not a legal graph
    /// operator under the Table 4 rules.
    InvalidOperator {
        /// The rejected operator.
        op: OpInfo,
        /// Why it was rejected.
        reason: String,
    },
    /// A tensor operand required by the operator was not supplied, or has
    /// the wrong number of rows for its [`TensorType`].
    BadOperand {
        /// Which operand (`'A'`, `'B'` or `'C'`).
        operand: char,
        /// Its declared type.
        tensor_type: TensorType,
        /// What went wrong.
        reason: String,
    },
    /// Operand feature dimensions disagree.
    FeatureMismatch {
        /// Feature dimension of the first non-null operand.
        expected: usize,
        /// The mismatching dimension found.
        found: usize,
    },
    /// The input graph fails structural validation (non-monotone CSR
    /// pointers, out-of-bounds endpoints, broken edge-id bijection, ...).
    GraphInvalid {
        /// What the validator found.
        reason: String,
    },
    /// An operand tensor is malformed (e.g. contains NaN or infinity).
    TensorInvalid {
        /// What the validator found.
        reason: String,
    },
    /// A [`ParallelInfo`](crate::schedule::ParallelInfo) is not a legal
    /// schedule (zero knobs, or out of the supported space).
    InvalidSchedule {
        /// What the validator found.
        reason: String,
    },
    /// The simulated device configuration is unusable (zero SMs, zero
    /// clock, ...).
    DeviceInvalid {
        /// What the validator found.
        reason: String,
    },
    /// Schedule selection failed outright (no candidates, every candidate
    /// illegal, predictor unusable with no viable fallback).
    TuningFailed {
        /// Why tuning could not produce a schedule.
        reason: String,
    },
    /// A [`TuneBudget`](crate::tune::TuneBudget) admitted zero
    /// candidates, so there is no best-so-far to return.
    BudgetExceeded {
        /// Which budget and how many candidates it cut.
        reason: String,
    },
    /// A bug inside the library reached the panic shield. The process
    /// survives; the payload is preserved for diagnosis.
    Internal {
        /// The captured panic message or invariant violation.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidOperator { op, reason } => {
                write!(f, "invalid graph operator {op:?}: {reason}")
            }
            CoreError::BadOperand {
                operand,
                tensor_type,
                reason,
            } => write!(f, "bad operand {operand} ({tensor_type:?}): {reason}"),
            CoreError::FeatureMismatch { expected, found } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, found {found}"
                )
            }
            CoreError::GraphInvalid { reason } => write!(f, "invalid graph: {reason}"),
            CoreError::TensorInvalid { reason } => write!(f, "invalid tensor: {reason}"),
            CoreError::InvalidSchedule { reason } => write!(f, "invalid schedule: {reason}"),
            CoreError::DeviceInvalid { reason } => write!(f, "invalid device config: {reason}"),
            CoreError::TuningFailed { reason } => write!(f, "tuning failed: {reason}"),
            CoreError::BudgetExceeded { reason } => write!(f, "tuning budget exceeded: {reason}"),
            CoreError::Internal { reason } => {
                write!(f, "internal error (caught by panic shield): {reason}")
            }
        }
    }
}

impl Error for CoreError {}

impl From<ugrapher_graph::GraphError> for CoreError {
    fn from(e: ugrapher_graph::GraphError) -> Self {
        CoreError::GraphInvalid {
            reason: e.to_string(),
        }
    }
}

impl From<ugrapher_tensor::TensorError> for CoreError {
    fn from(e: ugrapher_tensor::TensorError) -> Self {
        CoreError::TensorInvalid {
            reason: e.to_string(),
        }
    }
}

impl From<ugrapher_sim::SimError> for CoreError {
    fn from(e: ugrapher_sim::SimError) -> Self {
        CoreError::DeviceInvalid {
            reason: e.to_string(),
        }
    }
}

impl CoreError {
    /// Build an [`Internal`](CoreError::Internal) error from a caught panic
    /// payload, preserving string messages.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let reason = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        CoreError::Internal { reason }
    }

    /// `true` for variants caused by the caller's inputs (as opposed to
    /// tuning degradation or internal bugs).
    pub fn is_input_error(&self) -> bool {
        matches!(
            self,
            CoreError::InvalidOperator { .. }
                | CoreError::BadOperand { .. }
                | CoreError::FeatureMismatch { .. }
                | CoreError::GraphInvalid { .. }
                | CoreError::TensorInvalid { .. }
                | CoreError::InvalidSchedule { .. }
                | CoreError::DeviceInvalid { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::OpInfo;

    #[test]
    fn display_is_nonempty() {
        let cases = [
            CoreError::InvalidOperator {
                op: OpInfo::aggregation_sum(),
                reason: "test".into(),
            },
            CoreError::GraphInvalid {
                reason: "test".into(),
            },
            CoreError::TensorInvalid {
                reason: "test".into(),
            },
            CoreError::InvalidSchedule {
                reason: "test".into(),
            },
            CoreError::DeviceInvalid {
                reason: "test".into(),
            },
            CoreError::TuningFailed {
                reason: "test".into(),
            },
            CoreError::BudgetExceeded {
                reason: "test".into(),
            },
            CoreError::Internal {
                reason: "test".into(),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn from_panic_preserves_message() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom".to_string());
        let e = CoreError::from_panic(payload);
        assert_eq!(
            e,
            CoreError::Internal {
                reason: "boom".into()
            }
        );
        assert!(!e.is_input_error());
    }

    #[test]
    fn graph_error_converts() {
        let ge = ugrapher_graph::GraphError::VertexOutOfBounds {
            vertex: 9,
            num_vertices: 3,
        };
        let ce: CoreError = ge.into();
        assert!(matches!(ce, CoreError::GraphInvalid { .. }));
        assert!(ce.is_input_error());
    }
}
