//! Exhaustive schedule search, optionally under a tuning budget.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ugrapher_graph::Graph;
use ugrapher_obs::{metrics, MetricsRegistry, SpanKind};

use crate::abstraction::OpInfo;
use crate::exec::{measure, MeasureOptions};
use crate::plan::KernelPlan;
use crate::schedule::ParallelInfo;
use crate::CoreError;

/// Limits on how much work a tuning pass may do before returning its
/// best-so-far (FeatGraph-style budgeted search; needed to keep tuning
/// usable on a serving path).
///
/// The default ([`TuneBudget::unlimited`]) imposes no limit, matching the
/// paper's offline exhaustive search. Either limit may be set
/// independently; a search that is cut short still returns the best
/// schedule among those it measured and flags the result via
/// [`TuneResult::budget_exhausted`]. Only a budget so tight that *zero*
/// candidates were measured is an error ([`CoreError::BudgetExceeded`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneBudget {
    /// Stop starting new measurements once this much wall-clock time has
    /// elapsed.
    pub wall_clock: Option<Duration>,
    /// Measure at most this many candidate schedules.
    pub max_candidates: Option<usize>,
}

impl TuneBudget {
    /// No limits: the search runs to completion.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limit the number of candidates measured.
    pub fn max_candidates(n: usize) -> Self {
        Self {
            wall_clock: None,
            max_candidates: Some(n),
        }
    }

    /// Limit the wall-clock time spent measuring.
    pub fn wall_clock(limit: Duration) -> Self {
        Self {
            wall_clock: Some(limit),
            max_candidates: None,
        }
    }

    /// Sets the wall-clock limit on an existing budget.
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.wall_clock = Some(limit);
        self
    }
}

/// Outcome of a grid search.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// The fastest schedule found.
    pub best: ParallelInfo,
    /// Its simulated time in milliseconds.
    pub best_time_ms: f64,
    /// Every `(schedule, time_ms)` pair measured, in search order.
    pub all: Vec<(ParallelInfo, f64)>,
    /// `true` if a [`TuneBudget`] stopped the search before every
    /// candidate was measured; `best` is then best-so-far, not the proven
    /// optimum. Candidates whose plan generation failed do **not** count
    /// as exhaustion — they are tallied in [`TuneResult::illegal`] — so
    /// this flag is `true` exactly when the wall-clock deadline tripped or
    /// `max_candidates` cut the candidate list short.
    pub budget_exhausted: bool,
    /// Candidates skipped because their kernel plan failed to generate
    /// (illegal schedule for this operator/graph). They are excluded from
    /// [`TuneResult::all`] and are *not* budget exhaustion.
    pub illegal: usize,
}

impl TuneResult {
    /// Time of a specific schedule, if it was part of the search.
    pub fn time_of(&self, schedule: &ParallelInfo) -> Option<f64> {
        self.all
            .iter()
            .find(|(p, _)| p == schedule)
            .map(|(_, t)| *t)
    }

    /// Number of candidates actually measured.
    pub fn evaluated(&self) -> usize {
        self.all.len()
    }
}

/// Searches the full [`ParallelInfo::space`] for the fastest schedule.
///
/// # Errors
///
/// Returns [`CoreError`] if the operator is invalid or `feat == 0`.
pub fn grid_search(
    graph: &Graph,
    op: &OpInfo,
    feat: usize,
    options: &MeasureOptions,
) -> Result<TuneResult, CoreError> {
    grid_search_space(graph, op, feat, options, &ParallelInfo::space())
}

/// Searches an explicit list of candidate schedules, in parallel across
/// worker threads.
///
/// # Errors
///
/// Returns [`CoreError`] if the operator is invalid, `feat == 0`, or
/// `candidates` is empty.
pub fn grid_search_space(
    graph: &Graph,
    op: &OpInfo,
    feat: usize,
    options: &MeasureOptions,
    candidates: &[ParallelInfo],
) -> Result<TuneResult, CoreError> {
    grid_search_shaped(graph, op, feat, (false, false), options, candidates)
}

/// [`grid_search_space`] with explicit operand shapes: `scalars` marks
/// operands that are one-column broadcasts, so candidate kernels are costed
/// exactly as they will run (a scalar edge weight moves 4 bytes per edge,
/// not a feature tile — enough to flip the optimum).
///
/// # Errors
///
/// Returns [`CoreError`] if the operator is invalid, `feat == 0`, or
/// `candidates` is empty.
pub fn grid_search_shaped(
    graph: &Graph,
    op: &OpInfo,
    feat: usize,
    scalars: (bool, bool),
    options: &MeasureOptions,
    candidates: &[ParallelInfo],
) -> Result<TuneResult, CoreError> {
    grid_search_budgeted(
        graph,
        op,
        feat,
        scalars,
        options,
        candidates,
        TuneBudget::unlimited(),
    )
}

/// [`grid_search_shaped`] under a [`TuneBudget`]: the search stops starting
/// new measurements once the budget is exhausted and returns the best
/// schedule among those measured so far.
///
/// With only `max_candidates` set, the measured prefix is deterministic
/// (the first N candidates in list order); a wall-clock limit makes the
/// cut-off point timing-dependent by nature.
///
/// # Errors
///
/// Returns [`CoreError`] if the operator is invalid, `feat == 0`,
/// `candidates` is empty ([`CoreError::TuningFailed`]), the device config
/// is unusable ([`CoreError::DeviceInvalid`]), or the budget expired before
/// a single candidate was measured ([`CoreError::BudgetExceeded`]).
#[allow(clippy::too_many_arguments)]
pub fn grid_search_budgeted(
    graph: &Graph,
    op: &OpInfo,
    feat: usize,
    scalars: (bool, bool),
    options: &MeasureOptions,
    candidates: &[ParallelInfo],
    budget: TuneBudget,
) -> Result<TuneResult, CoreError> {
    if candidates.is_empty() {
        return Err(CoreError::TuningFailed {
            reason: "empty candidate schedule list".to_owned(),
        });
    }
    options.device.validate()?;
    // Operator and feature-dimension legality gate up front, so caller
    // errors surface as typed `Err` before any work starts. Candidate
    // schedules are deliberately *not* pre-validated here: each one is
    // checked during per-plan generation, so a broken candidate anywhere
    // in the list (first included) is tallied in `illegal` instead of
    // failing the whole search.
    op.validate()?;
    if feat == 0 {
        return Err(CoreError::FeatureMismatch {
            expected: 1,
            found: 0,
        });
    }

    let limit = budget
        .max_candidates
        .unwrap_or(candidates.len())
        .min(candidates.len());
    let deadline = budget.wall_clock.map(|d| Instant::now() + d);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(limit.max(1));
    // Workers claim candidate indices from a shared counter; a budget trip
    // sets the stop flag so in-flight measurements finish but no new ones
    // start.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // Set only when the wall-clock deadline fires; distinguishes a genuine
    // budget trip from candidates lost to plan-generation errors.
    let deadline_tripped = AtomicBool::new(false);
    let illegal = AtomicUsize::new(0);
    let measured: Mutex<Vec<(usize, ParallelInfo, f64)>> = Mutex::new(Vec::new());
    let first_error: Mutex<Option<CoreError>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, ParallelInfo, f64)> = Vec::new();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Some(deadline) = deadline {
                        if Instant::now() >= deadline {
                            deadline_tripped.store(true, Ordering::Relaxed);
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= limit {
                        break;
                    }
                    let p = candidates[i];
                    match KernelPlan::generate(
                        *op,
                        p,
                        graph.num_vertices(),
                        graph.num_edges(),
                        feat,
                    ) {
                        Ok(plan) => {
                            let plan = plan.with_scalar_operands(scalars.0, scalars.1);
                            let mut span = options.recorder.span_traced(
                                "tune.candidate",
                                SpanKind::Tune,
                                options.trace_id,
                            );
                            let time_ms = measure(graph, &plan, options).time_ms;
                            if span.is_enabled() {
                                span.attr("schedule", p.label())
                                    .attr("candidate_index", i)
                                    .attr("measured_time_ms", time_ms);
                            }
                            drop(span);
                            MetricsRegistry::global().inc(metrics::TUNING_EVALUATIONS);
                            local.push((i, p, time_ms));
                        }
                        Err(e) => {
                            illegal.fetch_add(1, Ordering::Relaxed);
                            let mut slot = first_error.lock().unwrap_or_else(|e| e.into_inner());
                            slot.get_or_insert(e);
                        }
                    }
                }
                measured
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(local);
            });
        }
    });

    let mut rows = measured.into_inner().unwrap_or_else(|e| e.into_inner());
    rows.sort_by_key(|(i, _, _)| *i);
    // Exhaustion means the *budget* cut the search short: the wall-clock
    // deadline fired, or `max_candidates` excluded part of the candidate
    // list. Candidates lost to plan-generation errors are counted in
    // `illegal` instead (reporting them as exhaustion would make an
    // unbudgeted search with one broken candidate look budget-limited).
    let deadline_tripped = deadline_tripped.load(Ordering::Relaxed);
    let illegal = illegal.load(Ordering::Relaxed);
    let budget_exhausted = deadline_tripped || limit < candidates.len();
    let all: Vec<(ParallelInfo, f64)> = rows.into_iter().map(|(_, p, t)| (p, t)).collect();

    if all.is_empty() {
        let pending = first_error.into_inner().unwrap_or_else(|e| e.into_inner());
        return Err(empty_search_error(
            deadline_tripped,
            pending,
            &budget,
            candidates.len(),
        ));
    }

    let (best, best_time_ms) = all
        .iter()
        .cloned()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("all is non-empty");
    Ok(TuneResult {
        best,
        best_time_ms,
        all,
        budget_exhausted,
        illegal,
    })
}

/// The error for a search that measured nothing, picking the verdict that
/// actually happened: a wall-clock deadline trip is [`CoreError::BudgetExceeded`]
/// even when an earlier candidate was illegal (the pending error is cited,
/// not promoted — the deadline, not the broken candidate, ended the
/// search); with no deadline trip, a pending plan-generation error means
/// every *attempted* candidate was illegal ([`CoreError::TuningFailed`]);
/// otherwise the budget admitted zero candidates ([`CoreError::BudgetExceeded`]).
fn empty_search_error(
    deadline_tripped: bool,
    pending: Option<CoreError>,
    budget: &TuneBudget,
    num_candidates: usize,
) -> CoreError {
    if deadline_tripped {
        let note = match pending {
            Some(e) => format!(" (an earlier candidate was also illegal: {e})"),
            None => String::new(),
        };
        return CoreError::BudgetExceeded {
            reason: format!(
                "wall-clock budget {budget:?} expired before any of {num_candidates} candidates was measured{note}"
            ),
        };
    }
    if let Some(e) = pending {
        return CoreError::TuningFailed {
            reason: format!("no legal candidate schedule: {e}"),
        };
    }
    CoreError::BudgetExceeded {
        reason: format!(
            "budget {budget:?} expired before any of {num_candidates} candidates was measured"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::schedule::Strategy;
    use ugrapher_graph::generate::uniform_random;
    use ugrapher_sim::DeviceConfig;

    fn options() -> MeasureOptions {
        MeasureOptions::auto(DeviceConfig::v100())
    }

    #[test]
    fn finds_minimum_of_searched_space() {
        let g = uniform_random(400, 2000, 1);
        let res = grid_search_space(
            &g,
            &OpInfo::aggregation_sum(),
            16,
            &options(),
            &ParallelInfo::basics(),
        )
        .unwrap();
        assert_eq!(res.all.len(), 4);
        assert!(!res.budget_exhausted);
        let min = res
            .all
            .iter()
            .map(|(_, t)| *t)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(res.best_time_ms, min);
        assert_eq!(res.time_of(&res.best), Some(res.best_time_ms));
    }

    #[test]
    fn full_space_search_covers_everything() {
        let g = uniform_random(200, 1000, 2);
        let res = grid_search(&g, &OpInfo::aggregation_sum(), 8, &options()).unwrap();
        assert_eq!(res.all.len(), ParallelInfo::space().len());
        assert!(!res.budget_exhausted);
    }

    #[test]
    fn empty_candidates_rejected() {
        let g = uniform_random(50, 200, 3);
        let err =
            grid_search_space(&g, &OpInfo::aggregation_sum(), 8, &options(), &[]).unwrap_err();
        assert!(matches!(err, CoreError::TuningFailed { .. }));
    }

    #[test]
    fn deterministic_results() {
        let g = uniform_random(300, 1500, 4);
        let a = grid_search_space(
            &g,
            &OpInfo::aggregation_max(),
            8,
            &options(),
            &ParallelInfo::basics(),
        )
        .unwrap();
        let b = grid_search_space(
            &g,
            &OpInfo::aggregation_max(),
            8,
            &options(),
            &ParallelInfo::basics(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn candidate_budget_measures_exact_prefix() {
        let g = uniform_random(200, 1000, 5);
        let space = ParallelInfo::space();
        let res = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &space,
            TuneBudget::max_candidates(10),
        )
        .unwrap();
        assert_eq!(res.evaluated(), 10);
        assert!(res.budget_exhausted);
        // The measured prefix is deterministic: the first 10 candidates.
        let measured: Vec<ParallelInfo> = res.all.iter().map(|(p, _)| *p).collect();
        assert_eq!(measured, space[..10].to_vec());
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let g = uniform_random(150, 700, 6);
        let unbudgeted = grid_search_space(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            &options(),
            &ParallelInfo::basics(),
        )
        .unwrap();
        let budgeted = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &ParallelInfo::basics(),
            TuneBudget::max_candidates(1000).with_wall_clock(Duration::from_secs(600)),
        )
        .unwrap();
        assert_eq!(budgeted.best, unbudgeted.best);
        assert_eq!(budgeted.all, unbudgeted.all);
        assert!(!budgeted.budget_exhausted);
    }

    #[test]
    fn zero_candidate_budget_is_budget_exceeded() {
        let g = uniform_random(100, 500, 7);
        let err = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &ParallelInfo::basics(),
            TuneBudget::max_candidates(0),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
    }

    #[test]
    fn illegal_candidate_is_not_budget_exhaustion() {
        // Regression: an unbudgeted search containing one candidate whose
        // plan generation errors used to set `budget_exhausted` (because
        // fewer rows than `limit` were measured). The loss must be tallied
        // as `illegal`, not misreported as a budget trip.
        let g = uniform_random(120, 600, 21);
        let bad = ParallelInfo {
            strategy: Strategy::ThreadEdge,
            grouping: 0, // fails KernelPlan::generate with InvalidSchedule
            tiling: 1,
        };
        let candidates = [
            ParallelInfo::basic(Strategy::ThreadVertex),
            bad,
            ParallelInfo::basic(Strategy::WarpVertex),
        ];
        let res = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &candidates,
            TuneBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(res.evaluated(), 2, "both legal candidates measured");
        assert_eq!(res.illegal, 1, "the broken candidate is tallied");
        assert!(
            !res.budget_exhausted,
            "no budget was set, so nothing can be exhausted"
        );
        // A genuine candidate budget on the same list still reports
        // exhaustion (and the illegal candidate independently).
        let res = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &candidates,
            TuneBudget::max_candidates(2),
        )
        .unwrap();
        assert!(res.budget_exhausted);
        assert_eq!(res.illegal, 1);
        assert_eq!(res.evaluated(), 1);
    }

    #[test]
    fn all_candidates_illegal_is_tuning_failed() {
        let g = uniform_random(60, 240, 22);
        let bad = ParallelInfo {
            strategy: Strategy::ThreadVertex,
            grouping: 0,
            tiling: 1,
        };
        let err = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &[bad, bad],
            TuneBudget::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::TuningFailed { .. }), "{err:?}");
    }

    #[test]
    fn zero_deadline_is_budget_exceeded_not_tuning_failed() {
        // A deadline that fires immediately stops workers before any
        // candidate is claimed: the verdict is BudgetExceeded even though
        // the list contains an illegal candidate.
        let g = uniform_random(60, 240, 23);
        let bad = ParallelInfo {
            strategy: Strategy::ThreadVertex,
            grouping: 0,
            tiling: 1,
        };
        let err = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &[bad, ParallelInfo::basic(Strategy::ThreadVertex)],
            TuneBudget::wall_clock(Duration::ZERO),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }), "{err:?}");
    }

    #[test]
    fn empty_search_verdict_prefers_deadline_over_pending_error() {
        // The deadline-with-pending-illegal-candidate interleaving cannot
        // be forced deterministically through the worker pool, so the
        // verdict function is exercised directly: a deadline trip with an
        // earlier illegal candidate is BudgetExceeded (citing the pending
        // error), not "no legal candidate".
        let pending = CoreError::InvalidSchedule {
            reason: "TV: grouping must be >= 1".to_owned(),
        };
        let err = empty_search_error(
            true,
            Some(pending),
            &TuneBudget::wall_clock(Duration::from_millis(1)),
            10,
        );
        match err {
            CoreError::BudgetExceeded { reason } => {
                assert!(reason.contains("grouping must be >= 1"), "{reason}");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // Without a deadline trip, the pending error wins.
        assert!(matches!(
            empty_search_error(
                false,
                Some(CoreError::InvalidSchedule {
                    reason: "x".to_owned()
                }),
                &TuneBudget::unlimited(),
                10,
            ),
            CoreError::TuningFailed { .. }
        ));
        // Neither: the budget admitted zero candidates.
        assert!(matches!(
            empty_search_error(false, None, &TuneBudget::max_candidates(0), 10),
            CoreError::BudgetExceeded { .. }
        ));
    }

    #[test]
    fn invalid_device_is_typed_error() {
        let g = uniform_random(100, 500, 8);
        let mut opts = options();
        opts.device.num_sms = 0;
        let err = grid_search_space(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            &opts,
            &ParallelInfo::basics(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DeviceInvalid { .. }));
    }
}
