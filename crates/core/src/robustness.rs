//! Degradation tracking for the hardened execution pipeline.
//!
//! Schedule selection has a fallback chain — trained predictor, then grid
//! search over the configured search space, then a safe default schedule —
//! and each step may silently degrade quality but must never abort a run
//! that can still produce a correct result. A [`RobustnessReport`] makes
//! those downgrades visible: every fallback taken is recorded as a
//! [`Downgrade`], and callers that care (benchmark harnesses, CI) can
//! assert on [`RobustnessReport::degraded`] while interactive users just
//! read the log.
//!
//! The report also carries the [`DeterminismClass`] of the executed
//! kernel, derived from its lowered IR: whether repeated runs are
//! bitwise-identical (sequential reductions, copies, CAS max/min) or
//! reduction-order-dependent (atomic float sum/mean). Callers that need
//! bitwise reproducibility can assert on
//! [`RobustnessReport::bitwise_deterministic`] and re-run with a
//! vertex-parallel schedule when it fails.

use crate::ir::DeterminismClass;

/// One recorded fallback event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Downgrade {
    /// The stage that failed (`"predictor"`, `"grid-search"`,
    /// `"tune-illegal"`).
    pub stage: &'static str,
    /// What the pipeline used instead.
    pub fallback: &'static str,
    /// Why the stage could not be used as-is.
    pub reason: String,
}

impl std::fmt::Display for Downgrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}: {}", self.stage, self.fallback, self.reason)
    }
}

/// The downgrades accumulated while serving one request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RobustnessReport {
    /// Fallbacks taken, in the order they occurred.
    pub downgrades: Vec<Downgrade>,
    /// Trace id of the request this report belongs to (`0` until the
    /// runtime stamps it; joins the report to emitted spans).
    pub trace_id: u64,
    /// Determinism classification of the executed kernel, derived from
    /// its lowered IR (`None` until the runtime stamps it — e.g. on
    /// requests that fail before a plan exists).
    pub determinism: Option<DeterminismClass>,
}

impl RobustnessReport {
    /// A report with no recorded downgrades.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any fallback was taken.
    pub fn degraded(&self) -> bool {
        !self.downgrades.is_empty()
    }

    /// Whether repeated executions of the served request produce
    /// bitwise-identical output. `false` when the kernel's reduction is
    /// order-dependent *or* when no classification was stamped (absence
    /// of proof is not proof).
    pub fn bitwise_deterministic(&self) -> bool {
        self.determinism
            .is_some_and(|class| class.bitwise_deterministic())
    }

    /// Records one fallback event. Also bumps the process-wide fallback
    /// counter (`ugrapher_fallbacks_total{stage=...}`).
    pub fn record(
        &mut self,
        stage: &'static str,
        fallback: &'static str,
        reason: impl Into<String>,
    ) {
        ugrapher_obs::MetricsRegistry::global().inc_labeled(
            ugrapher_obs::metrics::FALLBACKS,
            "stage",
            stage,
        );
        self.downgrades.push(Downgrade {
            stage,
            fallback,
            reason: reason.into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_tracks_downgrades_in_order() {
        let mut r = RobustnessReport::new();
        assert!(!r.degraded());
        r.record("predictor", "grid-search", "non-finite score");
        r.record("grid-search", "default schedule", "budget exhausted");
        assert!(r.degraded());
        assert_eq!(r.downgrades.len(), 2);
        assert_eq!(r.downgrades[0].stage, "predictor");
        assert!(r.downgrades[1].to_string().contains("default schedule"));
    }

    #[test]
    fn determinism_defaults_to_unstamped_and_unproven() {
        let mut r = RobustnessReport::new();
        assert_eq!(r.determinism, None);
        assert!(!r.bitwise_deterministic(), "unstamped is not a guarantee");
        r.determinism = Some(DeterminismClass::Sequential);
        assert!(r.bitwise_deterministic());
        r.determinism = Some(DeterminismClass::AtomicOrderInsensitive);
        assert!(r.bitwise_deterministic(), "CAS max/min commutes bitwise");
        r.determinism = Some(DeterminismClass::AtomicOrderDependent);
        assert!(!r.bitwise_deterministic());
    }
}
