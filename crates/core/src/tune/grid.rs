//! The schedule search: a candidate list measured on the simulator,
//! optionally under a tuning budget.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ugrapher_graph::Graph;
use ugrapher_obs::{metrics, MetricsRegistry, SpanKind};
use ugrapher_sim::SimReport;

use crate::abstraction::OpInfo;
use crate::exec::{measure, MeasureOptions};
use crate::plan::KernelPlan;
use crate::schedule::ParallelInfo;
use crate::CoreError;

/// A limit on how many candidates a search may cover before returning its
/// best-so-far (FeatGraph-style budgeted search): a prefix of the list.
///
/// The default ([`TuneBudget::unlimited`]) imposes no limit, matching the
/// paper's offline exhaustive search. A cheaper search is equally a shorter
/// candidate list, which is how a [`crate::api::Runtime`] is made cheaper to
/// tune ([`crate::api::Runtime::with_search_space`]). A search that is cut
/// short still returns the best schedule among those it measured and flags
/// the result via [`TuneResult::budget_exhausted`]. Only a budget of *zero*
/// candidates is an error ([`CoreError::BudgetExceeded`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneBudget {
    /// Search at most this many candidate schedules: a prefix of the list.
    pub max_candidates: Option<usize>,
}

impl TuneBudget {
    /// No limit: the search runs to completion.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limit the number of candidates measured.
    pub fn max_candidates(n: usize) -> Self {
        Self {
            max_candidates: Some(n),
        }
    }
}

/// Outcome of a grid search.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// The fastest schedule found (the first in list order on a tie).
    pub best: ParallelInfo,
    /// Its simulated time in milliseconds.
    pub best_time_ms: f64,
    /// The winner's full simulated report, measured under the search's
    /// [`MeasureOptions`]; [`crate::api::Runtime`] reuses it instead of
    /// simulating the chosen plan again.
    pub best_report: SimReport,
    /// Every `(schedule, time_ms)` pair the search covered, in list order.
    /// A candidate that compiles to the same kernel as an earlier one (see
    /// [`grid_search_budgeted`]) carries that kernel's time.
    pub all: Vec<(ParallelInfo, f64)>,
    /// `true` if a [`TuneBudget`] stopped the search before every
    /// candidate was covered; `best` is then best-so-far, not the proven
    /// optimum. Candidates whose plan generation failed do **not** count
    /// as exhaustion — they are tallied in [`TuneResult::illegal`] — so
    /// this flag is `true` exactly when `max_candidates` cut the candidate
    /// list short.
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

    /// Number of candidates the search covered (with a time in
    /// [`TuneResult::all`]).
    pub fn evaluated(&self) -> usize {
        self.all.len()
    }
}

/// The schedule search: measures a list of candidate schedules on the
/// simulator, in parallel across worker threads, and returns the fastest.
///
/// Every tuner is a candidate list handed to this search (see
/// [`crate::tune`]). `scalars` marks operands that are one-column
/// broadcasts, so candidate kernels are costed exactly as they will run (a
/// scalar edge weight moves 4 bytes per edge, not a feature tile — enough
/// to flip the optimum).
/// Under a [`TuneBudget`] the search covers the first `max_candidates`
/// candidates in list order and returns the best schedule among them.
///
/// Each distinct kernel is simulated once: candidates whose plans differ
/// only in a tiling knob clamped to the same tile size are twins, and the
/// first of them in list order is measured for all (one `tune.candidate`
/// span and one `TUNING_EVALUATIONS` count per measured kernel). The
/// result — `all`, `best`, the first-minimum tie-break, `illegal` and
/// `budget_exhausted` — is what measuring every candidate would give.
///
/// # Errors
///
/// Returns [`CoreError`] if the operator is invalid, `feat == 0`,
/// `candidates` is empty or every covered candidate is illegal
/// ([`CoreError::TuningFailed`]), the device config is unusable
/// ([`CoreError::DeviceInvalid`]), or the budget admits zero candidates
/// ([`CoreError::BudgetExceeded`]).
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

    // Every candidate in the prefix is planned up front (microseconds);
    // only the first plan of each distinct kernel is measured.
    let plans: Vec<Result<KernelPlan, CoreError>> = candidates[..limit]
        .iter()
        .map(|&p| {
            KernelPlan::generate(*op, p, graph.num_vertices(), graph.num_edges(), feat)
                .map(|plan| plan.with_scalar_operands(scalars.0, scalars.1))
        })
        .collect();
    let first = first_of_kernel(plans.iter().map(|p| p.as_ref().ok()));
    let kernels: Vec<(usize, &KernelPlan)> = plans
        .iter()
        .enumerate()
        .filter_map(|(i, plan)| {
            plan.as_ref()
                .ok()
                .filter(|_| first[i] == Some(i))
                .map(|p| (i, p))
        })
        .collect();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(kernels.len().max(1));
    // Workers claim kernels in list order from a shared counter until none
    // are left.
    let next = AtomicUsize::new(0);
    let measured: Mutex<Vec<(usize, SimReport)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, SimReport)> = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(i, plan)) = kernels.get(k) else {
                        break;
                    };
                    let mut span = options.recorder.span_traced(
                        "tune.candidate",
                        SpanKind::Tune,
                        options.trace_id,
                    );
                    let report = measure(graph, plan, options);
                    if span.is_enabled() {
                        span.attr("schedule", candidates[i].label())
                            .attr("candidate_index", i)
                            .attr("measured_time_ms", report.time_ms);
                    }
                    drop(span);
                    MetricsRegistry::global().inc(metrics::TUNING_EVALUATIONS);
                    local.push((k, report));
                }
                measured
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(local);
            });
        }
    });

    let mut reports: Vec<Option<SimReport>> = vec![None; limit];
    for (k, report) in measured.into_inner().unwrap_or_else(|e| e.into_inner()) {
        reports[kernels[k].0] = Some(report);
    }
    // Exhaustion means `max_candidates` excluded part of the candidate
    // list. Candidates lost to plan-generation errors are counted in
    // `illegal` instead (reporting them as exhaustion would make an
    // unbudgeted search with one broken candidate look budget-limited).
    let budget_exhausted = limit < candidates.len();
    let mut illegal = 0;
    let mut pending = None;
    let mut all = Vec::with_capacity(limit);
    let mut best: Option<(ParallelInfo, f64, usize)> = None;
    for (i, plan) in plans.into_iter().enumerate() {
        if let Err(e) = plan {
            illegal += 1;
            pending.get_or_insert(e);
            continue;
        }
        let kernel = first[i].expect("a generated plan has a kernel");
        let time_ms = reports[kernel]
            .as_ref()
            .expect("every kernel is measured")
            .time_ms;
        all.push((candidates[i], time_ms));
        // Strictly less, so the first minimum in list order wins.
        if best.is_none_or(|(_, t, _)| time_ms.total_cmp(&t).is_lt()) {
            best = Some((candidates[i], time_ms, kernel));
        }
    }
    let Some((best, best_time_ms, kernel)) = best else {
        return Err(empty_search_error(pending, &budget, candidates.len()));
    };
    Ok(TuneResult {
        best,
        best_time_ms,
        best_report: reports[kernel]
            .take()
            .expect("the winner's kernel is measured"),
        all,
        budget_exhausted,
        illegal,
    })
}

/// For each plan, the index of the first plan in the list that compiles to
/// the same kernel (its own index for the first of its kind), or `None`
/// for a candidate whose plan failed to generate.
///
/// Two plans are the same kernel when they agree on everything but the
/// tiling knob: operator, feature width, scalar flags, strategy, grouping
/// and the *effective* tile size. `KernelPlan::generate` clamps tiling to
/// the feature width, so at feat 32 a `T64` candidate is its `T32`
/// sibling's twin, with the same trace and a bit-identical [`SimReport`];
/// a search measures the first of each kind and gives its twins that time.
fn first_of_kernel<'a>(
    plans: impl IntoIterator<Item = Option<&'a KernelPlan>>,
) -> Vec<Option<usize>> {
    let mut seen = HashMap::new();
    plans
        .into_iter()
        .enumerate()
        .map(|(i, plan)| {
            plan.map(|p| {
                let key = (
                    p.op,
                    p.feat,
                    p.a_scalar,
                    p.b_scalar,
                    p.parallel.strategy,
                    p.parallel.grouping,
                    p.tile_size,
                );
                *seen.entry(key).or_insert(i)
            })
        })
        .collect()
}

/// The error for a search that measured nothing: a pending plan-generation
/// error means every covered candidate was illegal
/// ([`CoreError::TuningFailed`]); otherwise the budget admitted zero
/// candidates ([`CoreError::BudgetExceeded`]).
fn empty_search_error(
    pending: Option<CoreError>,
    budget: &TuneBudget,
    num_candidates: usize,
) -> CoreError {
    if let Some(e) = pending {
        return CoreError::TuningFailed {
            reason: format!("no legal candidate schedule: {e}"),
        };
    }
    CoreError::BudgetExceeded {
        reason: format!("budget {budget:?} admits none of {num_candidates} candidates"),
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
        let res = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            16,
            (false, false),
            &options(),
            &ParallelInfo::basics(),
            TuneBudget::unlimited(),
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
        let res = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &ParallelInfo::space(),
            TuneBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(res.all.len(), ParallelInfo::space().len());
        assert!(!res.budget_exhausted);
    }

    #[test]
    fn empty_candidates_rejected() {
        let g = uniform_random(50, 200, 3);
        let err = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &[],
            TuneBudget::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::TuningFailed { .. }));
    }

    #[test]
    fn deterministic_results() {
        let g = uniform_random(300, 1500, 4);
        let a = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_max(),
            8,
            (false, false),
            &options(),
            &ParallelInfo::basics(),
            TuneBudget::unlimited(),
        )
        .unwrap();
        let b = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_max(),
            8,
            (false, false),
            &options(),
            &ParallelInfo::basics(),
            TuneBudget::unlimited(),
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
        let unbudgeted = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &ParallelInfo::basics(),
            TuneBudget::unlimited(),
        )
        .unwrap();
        let budgeted = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &options(),
            &ParallelInfo::basics(),
            TuneBudget::max_candidates(1000),
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

    /// Reports for every candidate, each generated and measured on its own:
    /// the measure-everything search the deduplicated one must match.
    fn measure_each(
        g: &Graph,
        op: &OpInfo,
        feat: usize,
        scalars: (bool, bool),
        candidates: &[ParallelInfo],
    ) -> Vec<Result<SimReport, CoreError>> {
        candidates
            .iter()
            .map(|&p| {
                let plan = KernelPlan::generate(*op, p, g.num_vertices(), g.num_edges(), feat)?
                    .with_scalar_operands(scalars.0, scalars.1);
                Ok(measure(g, &plan, &options()))
            })
            .collect()
    }

    /// What a search measuring every candidate returns for the first
    /// `limit` candidates, given their reports.
    fn measured_everything(
        reports: &[Result<SimReport, CoreError>],
        candidates: &[ParallelInfo],
        limit: usize,
    ) -> Result<TuneResult, CoreError> {
        let mut illegal = 0;
        let mut pending = None;
        let mut rows = Vec::new();
        for (p, r) in candidates.iter().zip(reports).take(limit) {
            match r {
                Ok(r) => rows.push((*p, r)),
                Err(e) => {
                    illegal += 1;
                    pending.get_or_insert(e.clone());
                }
            }
        }
        let budget = TuneBudget::max_candidates(limit);
        let Some(&(best, report)) = rows
            .iter()
            .min_by(|a, b| a.1.time_ms.total_cmp(&b.1.time_ms))
        else {
            return Err(empty_search_error(pending, &budget, candidates.len()));
        };
        Ok(TuneResult {
            best,
            best_time_ms: report.time_ms,
            best_report: report.clone(),
            all: rows.iter().map(|(p, r)| (*p, r.time_ms)).collect(),
            budget_exhausted: limit < candidates.len(),
            illegal,
        })
    }

    fn shuffled(mut list: Vec<ParallelInfo>, seed: u64) -> Vec<ParallelInfo> {
        let mut rng = ugrapher_util::rng::StdRng::seed_from_u64(seed);
        for i in (1..list.len()).rev() {
            list.swap(i, rng.random_range(0..=i));
        }
        list
    }

    #[test]
    fn deduplicated_search_equals_measuring_every_candidate() {
        let graphs = [
            uniform_random(60, 300, 41),
            ugrapher_graph::generate::GraphSpec {
                num_vertices: 90,
                num_edges: 540,
                degree_model: ugrapher_graph::generate::DegreeModel::PowerLaw { alpha: 2.0 },
                locality: 0.3,
                seed: 42,
            }
            .build(),
        ];
        let bad = ParallelInfo {
            strategy: Strategy::WarpEdge,
            grouping: 4,
            tiling: 0,
        };
        let op = OpInfo::weighted_aggregation_sum();
        for (gi, g) in graphs.iter().enumerate() {
            for feat in [1, 8, 12, 16, 32, 64] {
                for (order, seed) in [("space", None), ("shuffled", Some(feat as u64))] {
                    let mut candidates = ParallelInfo::space();
                    candidates.insert(5, bad);
                    if let Some(seed) = seed {
                        candidates = shuffled(candidates, seed + gi as u64);
                    }
                    let scalars = (false, feat % 2 == 0);
                    let reports = measure_each(g, &op, feat, scalars, &candidates);
                    for limit in [None, Some(0), Some(1), Some(40), Some(150)] {
                        let what = format!("graph {gi} feat {feat} {order} limit {limit:?}");
                        let budget = TuneBudget {
                            max_candidates: limit,
                        };
                        let got = grid_search_budgeted(
                            g,
                            &op,
                            feat,
                            scalars,
                            &options(),
                            &candidates,
                            budget,
                        );
                        let want = measured_everything(
                            &reports,
                            &candidates,
                            limit.unwrap_or(candidates.len()),
                        );
                        assert_eq!(got, want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn twins_measure_once_and_share_the_kernel() {
        // At feat 32 the tiling knob 64 clamps to 32 tiles: 28 of the 196
        // candidates are twins, so 168 kernels are measured.
        let g = uniform_random(120, 600, 43);
        let space = ParallelInfo::space();
        let plans: Vec<KernelPlan> = space
            .iter()
            .map(|&p| KernelPlan::generate(OpInfo::aggregation_sum(), p, 120, 600, 32).unwrap())
            .collect();
        let first = first_of_kernel(plans.iter().map(Some));
        let twins: Vec<usize> = (0..space.len()).filter(|&i| first[i] != Some(i)).collect();
        assert_eq!(twins.len(), 28);
        for &i in &twins {
            let f = first[i].unwrap();
            assert_eq!(space[i].tiling, 64);
            assert_eq!(space[f].tiling, 32);
            // A twin is its first plan with another tiling knob.
            let mut plan = plans[i].clone();
            plan.parallel.tiling = plans[f].parallel.tiling;
            assert_eq!(plan, plans[f]);
        }
        let mut builder = ugrapher_obs::Recorder::builder();
        let ring = builder.ring(1024);
        let rec = builder.build();
        let res = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            32,
            (false, false),
            &options().with_recorder(rec),
            &space,
            TuneBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(res.evaluated(), 196);
        let spans = ring.snapshot();
        assert_eq!(
            spans.iter().filter(|s| s.name == "tune.candidate").count(),
            168
        );
        assert_eq!(spans.iter().filter(|s| s.name == "sim.kernel").count(), 168);
        for &i in &twins {
            assert_eq!(res.all[i].1, res.all[first[i].unwrap()].1);
        }
    }

    #[test]
    fn invalid_device_is_typed_error() {
        let g = uniform_random(100, 500, 8);
        let mut opts = options();
        opts.device.num_sms = 0;
        let err = grid_search_budgeted(
            &g,
            &OpInfo::aggregation_sum(),
            8,
            (false, false),
            &opts,
            &ParallelInfo::basics(),
            TuneBudget::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DeviceInvalid { .. }));
    }
}
