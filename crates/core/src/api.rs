//! The unified `uGrapher` API (paper §5.1, Fig. 9).
//!
//! ```text
//! op_info       = [edge_op, gather_op, Tensor_A, A_Type, Tensor_B, B_Type,
//!                  Tensor_C, C_Type]
//! parallel_info = [parallel_strategy, Grouping_Param, Tiling_Param]
//! uGrapher(Graph_Tensor, op_info, parallel_info)
//! ```
//!
//! In this reproduction, `op_info` is an [`OpArgs`] (an [`OpInfo`] plus the
//! operand tensors), `parallel_info` is an optional
//! [`ParallelInfo`], and omitting it triggers automatic schedule selection
//! exactly as the paper describes ("when users do not specify any
//! parallelization strategy, our interface performs an automatic tuning to
//! find the optimal strategy").
//!
//! # Hardening
//!
//! Every public entry point is defensive:
//!
//! * inputs are validated up front — graph structure
//!   ([`ugrapher_graph::Graph::validate`]), operand finiteness
//!   ([`Tensor2::validate_finite`]), operator legality and explicit
//!   schedules — and rejected with a typed [`CoreError`];
//! * a graph is admitted once per [`Graph`] value: its validation
//!   verdict, structural fingerprint and degree statistics are computed on
//!   first use and kept in the graph ([`Graph::admission`]), so repeat
//!   requests and op sites on one graph pay for them once, while operands
//!   are checked on every call because they change per request;
//! * automatic schedule selection degrades gracefully (predictor →
//!   grid search over the search space → a safe default), recording every
//!   fallback in the returned [`RobustnessReport`];
//! * a panic shield converts any library bug that would otherwise abort
//!   the caller into [`CoreError::Internal`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ugrapher_graph::{DegreeStats, Graph};
use ugrapher_obs::{metrics, MetricsRegistry, Recorder, SpanKind};
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;

use crate::abstraction::OpInfo;
use crate::cache::{CachedPlan, PlanCache, PlanKey};
use crate::exec::{functional, measure, Fidelity, MeasureOptions, OpOperands};
use crate::plan::KernelPlan;
use crate::robustness::RobustnessReport;
use crate::schedule::{ParallelInfo, Strategy};
use crate::tune::{grid_search_budgeted, Predictor, TuneBudget};
use crate::CoreError;

/// The graph operand of the uGrapher API: a borrow of a [`Graph`] whose
/// admission facts (degree statistics — the predictor's graph features —,
/// the [`Graph::validate`] verdict and the structural fingerprint) have
/// been computed.
///
/// The facts live in the graph's own memo ([`Graph::admission`]), so they
/// are computed once per `Graph` value however many tensors, requests or
/// op sites wrap it. [`Runtime::run`] refuses structurally broken graphs
/// instead of indexing out of bounds deep inside a kernel.
#[derive(Debug, Clone)]
pub struct GraphTensor<'a> {
    graph: &'a Graph,
}

impl<'a> GraphTensor<'a> {
    /// Wraps a graph, computing its admission facts unless an earlier
    /// wrap of the same value already did.
    pub fn new(graph: &'a Graph) -> Self {
        graph.admission();
        Self { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The graph's degree statistics.
    pub fn stats(&self) -> &DegreeStats {
        self.graph.admission().stats()
    }

    /// The [`Graph::validate`] failure, if the graph is broken.
    pub fn validation_error(&self) -> Option<&str> {
        self.graph.admission().validation_error()
    }

    /// The graph's [`Graph::structural_fingerprint`] — the graph-version
    /// component of [`crate::cache::PlanKey`].
    pub fn fingerprint(&self) -> u64 {
        self.graph.admission().fingerprint()
    }
}

/// The paper's `op_info` argument: operator semantics plus operand tensors.
#[derive(Debug, Clone, Copy)]
pub struct OpArgs<'a> {
    /// Operator semantics (edge op, gather op, operand types).
    pub op: OpInfo,
    /// Operand tensors matching the operator's A/B types.
    pub operands: OpOperands<'a>,
}

impl<'a> OpArgs<'a> {
    /// A unary operator (B is Null), e.g. fused aggregation over vertex
    /// features.
    pub fn fused(op: OpInfo, a: &'a Tensor2) -> Self {
        Self {
            op,
            operands: OpOperands::single(a),
        }
    }

    /// A binary operator with both operands.
    pub fn binary(op: OpInfo, a: &'a Tensor2, b: &'a Tensor2) -> Self {
        Self {
            op,
            operands: OpOperands::pair(a, b),
        }
    }
}

/// The result of one uGrapher invocation.
#[derive(Debug, Clone)]
pub struct UGrapherResult {
    /// The output tensor (edge or destination-vertex embedding).
    pub output: Tensor2,
    /// Simulated performance of the chosen kernel.
    pub report: SimReport,
    /// The schedule that was executed (chosen automatically if the caller
    /// passed `None`).
    pub schedule: ParallelInfo,
    /// Fallbacks taken during schedule selection. Empty when the first
    /// choice (explicit schedule, predictor, or complete grid search)
    /// succeeded.
    pub robustness: RobustnessReport,
    /// Request id stamped on every span this invocation emitted (see
    /// [`ugrapher_obs`]). Non-zero even when tracing is disabled, so log
    /// lines and traces can be joined after the fact.
    pub trace_id: u64,
    /// `true` when this invocation was served from the runtime's
    /// [`PlanCache`]: the schedule, plan, determinism class, downgrades and
    /// `report` all came from the entry, and only the functional execution
    /// that produced `output` ran. `report` is then the one measured on the
    /// miss that filled the entry, on the same device and fidelity, so it is
    /// bitwise-equal to a fresh simulation; no `sim.kernel` span is emitted.
    /// Always `false` on a runtime without a cache.
    pub plan_cache_hit: bool,
}

/// An execution context: target device plus optional trained predictor.
#[derive(Debug, Clone)]
pub struct Runtime {
    device: DeviceConfig,
    fidelity: Fidelity,
    predictor: Option<Predictor>,
    search_space: Vec<ParallelInfo>,
    recorder: Recorder,
    plan_cache: Option<Arc<PlanCache>>,
}

impl Runtime {
    /// A runtime for the given device, using grid search for auto-tuning.
    /// Spans go to the process-global recorder (disabled unless installed
    /// via [`ugrapher_obs::install`] / [`ugrapher_obs::init_from_env`]).
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            device,
            fidelity: Fidelity::Auto,
            predictor: None,
            search_space: ParallelInfo::space(),
            recorder: Recorder::global(),
            plan_cache: None,
        }
    }

    /// Installs a compiled-plan cache: repeat requests with the same
    /// operator, graph version and operand shape skip schedule selection,
    /// plan generation, determinism classification and simulation (see
    /// [`PlanCache`]). Entries compiled by a runtime on another device or
    /// fidelity are misses, so one cache can be shared across devices.
    /// Share one cache across runtime clones (e.g. serving workers) by
    /// cloning the [`Arc`].
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// The installed compiled-plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// Restricts grid-search auto-tuning to the given candidate schedules
    /// (the full [`ParallelInfo::space`] by default): a shorter list, e.g.
    /// the four basic strategies, is a cheaper search.
    pub fn with_search_space(mut self, candidates: Vec<ParallelInfo>) -> Self {
        self.search_space = candidates;
        self
    }

    /// Installs a trained predictor; auto-tuning then uses it instead of
    /// grid search (falling back to grid search if it misbehaves).
    pub fn with_predictor(mut self, predictor: Predictor) -> Self {
        self.predictor = Some(predictor);
        self
    }

    /// Sets the trace fidelity used for measurement.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Routes this runtime's spans (`"ugrapher.run"`, `"tune.candidate"`,
    /// `"sim.kernel"`, …) to an explicit recorder instead of the
    /// process-global one. Useful for capturing an isolated trace in tests.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The device this runtime simulates.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// The schedule-selection fallback chain: predictor → grid search over
    /// the search space → thread-vertex default. Each downgrade is recorded
    /// in `report`. When grid search picked the schedule, its winning
    /// [`SimReport`] (measured at [`Fidelity::Auto`] on this device) comes
    /// along.
    ///
    /// Caller-input errors (invalid operator, unusable device) propagate;
    /// tuning-stage failures degrade to the next stage instead.
    fn choose_with_fallback(
        &self,
        graph: &GraphTensor<'_>,
        op: &OpInfo,
        feat: usize,
        scalars: (bool, bool),
        report: &mut RobustnessReport,
        trace_id: u64,
    ) -> Result<(ParallelInfo, Option<SimReport>), CoreError> {
        let mut span = self
            .recorder
            .span_traced("tune.choose", SpanKind::Tune, trace_id);
        let result = self.choose_with_fallback_inner(graph, op, feat, scalars, report, trace_id);
        if span.is_enabled() {
            span.attr("op", op.label()).attr("feat", feat);
            if let Ok((s, _)) = &result {
                span.attr("schedule", s.label());
            }
            span.attr("downgrades", report.downgrades.len());
        }
        result
    }

    fn choose_with_fallback_inner(
        &self,
        graph: &GraphTensor<'_>,
        op: &OpInfo,
        feat: usize,
        scalars: (bool, bool),
        report: &mut RobustnessReport,
        trace_id: u64,
    ) -> Result<(ParallelInfo, Option<SimReport>), CoreError> {
        op.validate()?;
        if let Some(p) = &self.predictor {
            match p.choose_traced(graph.stats(), op, feat, &self.recorder, trace_id) {
                Ok(s) => return Ok((s, None)),
                Err(e @ CoreError::InvalidOperator { .. }) => return Err(e),
                // A predictor that scores non-finitely or emits an illegal
                // schedule is a degraded model, not a caller error.
                Err(e) => report.record("predictor", "grid-search", e.to_string()),
            }
        }
        let options = MeasureOptions::auto(self.device.clone())
            .with_recorder(self.recorder.clone())
            .with_trace_id(trace_id);
        match grid_search_budgeted(
            graph.graph(),
            op,
            feat,
            scalars,
            &options,
            &self.search_space,
            TuneBudget::unlimited(),
        ) {
            Ok(res) => {
                if res.illegal > 0 {
                    report.record(
                        "tune-illegal",
                        "best legal schedule",
                        format!(
                            "{} of {} candidate plans failed generation",
                            res.illegal,
                            self.search_space.len()
                        ),
                    );
                }
                Ok((res.best, Some(res.best_report)))
            }
            Err(e @ (CoreError::InvalidOperator { .. } | CoreError::DeviceInvalid { .. })) => {
                Err(e)
            }
            Err(e) => {
                report.record("grid-search", "thread-vertex default", e.to_string());
                Ok((ParallelInfo::basic(Strategy::ThreadVertex), None))
            }
        }
    }

    /// Executes one graph operator: functional evaluation plus simulated
    /// performance measurement under the chosen schedule.
    ///
    /// Inputs are fully validated first (graph structure, operand shapes
    /// and finiteness, operator legality, explicit schedule), and a panic
    /// shield converts any internal bug into [`CoreError::Internal`]
    /// instead of aborting the caller.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on invalid operators, mismatched or
    /// non-finite operands, broken graphs, illegal explicit schedules, or
    /// an internal panic, and [`CoreError::DeviceInvalid`] before any
    /// tuning or measurement if the runtime's device fails
    /// [`DeviceConfig::validate`].
    pub fn run(
        &self,
        graph: &GraphTensor<'_>,
        args: &OpArgs<'_>,
        parallel: Option<ParallelInfo>,
    ) -> Result<UGrapherResult, CoreError> {
        self.run_with_trace_id(graph, args, parallel, ugrapher_obs::next_trace_id())
    }

    /// [`Runtime::run`] under a caller-supplied trace id, so an outer
    /// request context (e.g. the `ugrapher-serve` engine) can join its own
    /// spans with everything this invocation emits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Runtime::run`].
    pub fn run_with_trace_id(
        &self,
        graph: &GraphTensor<'_>,
        args: &OpArgs<'_>,
        parallel: Option<ParallelInfo>,
        trace_id: u64,
    ) -> Result<UGrapherResult, CoreError> {
        shielded(|| self.run_inner(graph, args, parallel, trace_id))
    }

    fn run_inner(
        &self,
        graph: &GraphTensor<'_>,
        args: &OpArgs<'_>,
        parallel: Option<ParallelInfo>,
        trace_id: u64,
    ) -> Result<UGrapherResult, CoreError> {
        let mut span = self
            .recorder
            .span_traced("ugrapher.run", SpanKind::Runtime, trace_id);
        let result = self.run_traced(graph, args, parallel, trace_id);
        if span.is_enabled() {
            span.attr("op", args.op.label())
                .attr("explicit_schedule", parallel.is_some())
                .attr("ok", result.is_ok());
            if let Ok(res) = &result {
                span.attr("schedule", res.schedule.label())
                    .attr("time_ms", res.report.time_ms)
                    .attr("downgrades", res.robustness.downgrades.len())
                    .attr("plan_cache_hit", res.plan_cache_hit);
            }
        }
        let reg = MetricsRegistry::global();
        reg.inc(metrics::RUNS);
        if let Ok(res) = &result {
            reg.observe(metrics::RUN_TIME_MS, res.report.time_ms);
        }
        result
    }

    /// Rejects an unusable device or a structurally broken graph before
    /// anything is tuned or measured on them.
    fn check_context(&self, graph: &GraphTensor<'_>) -> Result<(), CoreError> {
        self.device.validate()?;
        match graph.validation_error() {
            Some(reason) => Err(CoreError::GraphInvalid {
                reason: reason.to_owned(),
            }),
            None => Ok(()),
        }
    }

    fn run_traced(
        &self,
        graph: &GraphTensor<'_>,
        args: &OpArgs<'_>,
        parallel: Option<ParallelInfo>,
        trace_id: u64,
    ) -> Result<UGrapherResult, CoreError> {
        self.check_context(graph)?;
        for (name, t) in [('A', args.operands.a), ('B', args.operands.b)] {
            if let Some(t) = t {
                t.validate_finite().map_err(|e| CoreError::TensorInvalid {
                    reason: format!("operand {name}: {e}"),
                })?;
            }
        }
        let feat = functional::check_shapes(graph.graph(), &args.op, &args.operands)?;
        let scalar = |t: Option<&Tensor2>| t.is_some_and(|t| t.cols() == 1) && feat > 1;
        let scalars = (scalar(args.operands.a), scalar(args.operands.b));
        // Only the functional execution on the caller's operands runs on
        // both paths of the cache step; a hit replays everything else from
        // the entry.
        let (entry, plan_cache_hit) =
            self.lookup_or_compile(graph, &args.op, parallel, feat, scalars, trace_id)?;
        let robustness = RobustnessReport {
            downgrades: entry.downgrades.clone(),
            trace_id,
            determinism: Some(entry.determinism),
        };
        let output = functional::execute_traced(
            graph.graph(),
            &args.op,
            &args.operands,
            &self.recorder,
            trace_id,
        )?;
        Ok(UGrapherResult {
            output,
            report: entry.report.clone(),
            schedule: entry.schedule,
            robustness,
            trace_id,
            plan_cache_hit,
        })
    }

    /// The compiled-plan entry [`Runtime::run`] executes for `op` on
    /// `graph` with operands `feat` columns wide (`scalars`: A and B are
    /// one-column broadcasts), under `explicit` or, for `None`, the
    /// auto-tuned schedule. A [`PlanCache`] hit returns the stored entry;
    /// a miss lints or tunes the schedule, plans and measures it, and
    /// inserts the entry when a cache is installed. The flag is `true` on a
    /// hit. Spans carry `trace_id`.
    ///
    /// Downgrades are recorded (and the fallback metrics bumped) once, on
    /// the miss; a hit replays them from the entry. Shielded against
    /// internal panics like [`Runtime::run`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the device or the graph is invalid, the
    /// operator or an explicit schedule is illegal, `feat == 0`, every
    /// tuning stage failed, or an internal panic was caught.
    pub fn compiled_plan(
        &self,
        graph: &GraphTensor<'_>,
        op: &OpInfo,
        explicit: Option<ParallelInfo>,
        feat: usize,
        scalars: (bool, bool),
        trace_id: u64,
    ) -> Result<(Arc<CachedPlan>, bool), CoreError> {
        shielded(|| self.lookup_or_compile(graph, op, explicit, feat, scalars, trace_id))
    }

    fn lookup_or_compile(
        &self,
        graph: &GraphTensor<'_>,
        op: &OpInfo,
        explicit: Option<ParallelInfo>,
        feat: usize,
        scalars: (bool, bool),
        trace_id: u64,
    ) -> Result<(Arc<CachedPlan>, bool), CoreError> {
        let key = PlanKey {
            op: *op,
            explicit,
            graph_fingerprint: graph.fingerprint(),
            feat,
            scalars,
        };
        let cache = self.plan_cache.as_ref();
        if let Some(entry) = cache.and_then(|c| c.get_for(&key, &self.device, self.fidelity)) {
            return Ok((entry, true));
        }
        let entry = self.compile(graph, &key, trace_id)?;
        let entry = match cache {
            Some(c) => c.insert(key, entry),
            None => Arc::new(entry),
        };
        Ok((entry, false))
    }

    /// Everything a plan-cache miss derives for `key`: the schedule
    /// (explicit and linted, or tuned), the plan, its determinism class, its
    /// downgrades, and its simulated report on this runtime's device and
    /// fidelity. Grid search measures at [`Fidelity::Auto`], so under that
    /// fidelity (the default) its winner's report is this report and the
    /// chosen plan is not simulated again.
    fn compile(
        &self,
        graph: &GraphTensor<'_>,
        key: &PlanKey,
        trace_id: u64,
    ) -> Result<CachedPlan, CoreError> {
        self.check_context(graph)?;
        let mut robustness = RobustnessReport::new();
        let PlanKey {
            op,
            explicit,
            feat,
            scalars,
            ..
        } = *key;
        let (schedule, tuned_report) = match explicit {
            Some(p) => {
                let p = p.validated()?;
                // Explicit schedules are honoured as given, but degenerate
                // knobs (clamped tiling, single-item grouping) are surfaced
                // in the robustness report rather than silently absorbed.
                for lint in crate::analysis::lint_schedule(
                    &p,
                    feat,
                    graph.graph().num_vertices(),
                    graph.graph().num_edges(),
                ) {
                    robustness.record("schedule-lint", "executed as requested", lint.to_string());
                }
                (p, None)
            }
            None => {
                self.choose_with_fallback(graph, &op, feat, scalars, &mut robustness, trace_id)?
            }
        };
        let plan = KernelPlan::generate(
            op,
            schedule,
            graph.graph().num_vertices(),
            graph.graph().num_edges(),
            feat,
        )?
        .with_scalar_operands(scalars.0, scalars.1);
        let determinism = crate::ir::classify_determinism(&crate::lower::lower(&plan)?);
        let report = match tuned_report {
            Some(report) if self.fidelity == Fidelity::Auto => report,
            _ => measure(
                graph.graph(),
                &plan,
                &MeasureOptions::new(self.device.clone())
                    .with_fidelity(self.fidelity)
                    .with_recorder(self.recorder.clone())
                    .with_trace_id(trace_id),
            ),
        };
        Ok(CachedPlan {
            schedule,
            plan,
            determinism,
            downgrades: robustness.downgrades,
            report,
            device: self.device.clone(),
            fidelity: self.fidelity,
        })
    }

    /// Measures a schedule without producing outputs (used by tuners and
    /// benchmarks). Shielded against internal panics like [`Runtime::run`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the device or the graph is invalid, the
    /// operator or schedule is illegal, `feat == 0`, or an internal panic
    /// was caught.
    pub fn measure_only(
        &self,
        graph: &Graph,
        op: &OpInfo,
        feat: usize,
        parallel: ParallelInfo,
    ) -> Result<SimReport, CoreError> {
        shielded(|| self.measure_only_inner(graph, op, feat, parallel))
    }

    fn measure_only_inner(
        &self,
        graph: &Graph,
        op: &OpInfo,
        feat: usize,
        parallel: ParallelInfo,
    ) -> Result<SimReport, CoreError> {
        let trace_id = ugrapher_obs::next_trace_id();
        let mut span =
            self.recorder
                .span_traced("ugrapher.measure_only", SpanKind::Runtime, trace_id);
        self.device.validate()?;
        graph.admission().validation()?;
        let plan =
            KernelPlan::generate(*op, parallel, graph.num_vertices(), graph.num_edges(), feat)?;
        let report = measure(
            graph,
            &plan,
            &MeasureOptions::new(self.device.clone())
                .with_fidelity(self.fidelity)
                .with_recorder(self.recorder.clone())
                .with_trace_id(trace_id),
        );
        if span.is_enabled() {
            span.attr("op", op.label())
                .attr("schedule", parallel.label())
                .attr("time_ms", report.time_ms);
        }
        Ok(report)
    }
}

/// Runs `f`, turning a panic into [`CoreError::Internal`]: the shield
/// around every public [`Runtime`] entry point that tunes, plans or
/// measures.
fn shielded<T>(f: impl FnOnce() -> Result<T, CoreError>) -> Result<T, CoreError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| Err(CoreError::from_panic(payload)))
}

/// The paper's three-argument entry point (Fig. 9), on a default V100
/// runtime. Passing `None` for `parallel_info` triggers auto-tuning.
///
/// # Errors
///
/// Returns [`CoreError`] on invalid operators or mismatched operands.
///
/// # Example
///
/// ```
/// use ugrapher_core::abstraction::OpInfo;
/// use ugrapher_core::api::{uGrapher, GraphTensor, OpArgs};
/// use ugrapher_core::schedule::{ParallelInfo, Strategy};
/// use ugrapher_graph::generate::ring;
/// use ugrapher_tensor::Tensor2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = ring(64);
/// let x = Tensor2::full(64, 4, 2.0);
/// let result = uGrapher(
///     &GraphTensor::new(&graph),
///     &OpArgs::fused(OpInfo::aggregation_sum(), &x),
///     Some(ParallelInfo::basic(Strategy::WarpEdge)),
/// )?;
/// assert_eq!(result.output[(5, 0)], 2.0);
/// # Ok(())
/// # }
/// ```
#[allow(non_snake_case)]
pub fn uGrapher(
    graph_tensor: &GraphTensor<'_>,
    op_info: &OpArgs<'_>,
    parallel_info: Option<ParallelInfo>,
) -> Result<UGrapherResult, CoreError> {
    Runtime::new(DeviceConfig::v100()).run(graph_tensor, op_info, parallel_info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Strategy;
    use ugrapher_graph::generate::uniform_random;

    #[test]
    fn shield_turns_a_panic_into_an_internal_error() {
        let err = shielded(|| -> Result<(), CoreError> { panic!("tuner bug") }).unwrap_err();
        assert_eq!(
            err,
            CoreError::Internal {
                reason: "tuner bug".into()
            }
        );
        assert_eq!(shielded(|| Ok::<_, CoreError>(7)), Ok(7));
        let typed = CoreError::TuningFailed {
            reason: "no legal candidate".into(),
        };
        assert_eq!(shielded(|| Err::<(), _>(typed.clone())), Err(typed));
    }

    #[test]
    fn run_with_explicit_schedule() {
        let g = uniform_random(100, 500, 1);
        let x = Tensor2::full(100, 8, 1.0);
        let gt = GraphTensor::new(&g);
        let rt = Runtime::new(DeviceConfig::v100());
        let res = rt
            .run(
                &gt,
                &OpArgs::fused(OpInfo::aggregation_sum(), &x),
                Some(ParallelInfo::basic(Strategy::ThreadEdge)),
            )
            .unwrap();
        assert_eq!(res.schedule, ParallelInfo::basic(Strategy::ThreadEdge));
        assert!(res.report.time_ms > 0.0);
        assert!(!res.robustness.degraded());
        // Edge-parallel float sum: stamped as reduction-order-dependent.
        assert_eq!(
            res.robustness.determinism,
            Some(crate::ir::DeterminismClass::AtomicOrderDependent)
        );
        assert!(!res.robustness.bitwise_deterministic());
        // Every vertex's output is its in-degree (features are all 1).
        for v in 0..100 {
            assert_eq!(res.output[(v, 0)], g.in_degree(v) as f32);
        }
    }

    #[test]
    fn vertex_parallel_runs_are_stamped_bitwise_deterministic() {
        let g = uniform_random(100, 500, 1);
        let x = Tensor2::full(100, 8, 1.0);
        let res = Runtime::new(DeviceConfig::v100())
            .run(
                &GraphTensor::new(&g),
                &OpArgs::fused(OpInfo::aggregation_sum(), &x),
                Some(ParallelInfo::basic(Strategy::ThreadVertex)),
            )
            .unwrap();
        assert_eq!(
            res.robustness.determinism,
            Some(crate::ir::DeterminismClass::Sequential)
        );
        assert!(res.robustness.bitwise_deterministic());
    }

    #[test]
    fn output_is_schedule_independent() {
        let g = uniform_random(150, 900, 2);
        let x = Tensor2::from_fn(150, 4, |r, c| ((r * 7 + c) % 13) as f32);
        let gt = GraphTensor::new(&g);
        let rt = Runtime::new(DeviceConfig::v100());
        let args = OpArgs::fused(OpInfo::aggregation_max(), &x);
        let mut outputs = Vec::new();
        for p in ParallelInfo::basics() {
            outputs.push(rt.run(&gt, &args, Some(p)).unwrap().output);
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
    }

    #[test]
    fn auto_tuning_picks_a_valid_schedule() {
        let g = uniform_random(200, 1000, 3);
        let x = Tensor2::full(200, 8, 1.0);
        let res = uGrapher(
            &GraphTensor::new(&g),
            &OpArgs::fused(OpInfo::aggregation_sum(), &x),
            None,
        )
        .unwrap();
        assert!(ParallelInfo::space().contains(&res.schedule));
        assert!(!res.robustness.degraded());
    }

    #[test]
    fn binary_op_through_api() {
        let g = uniform_random(80, 400, 4);
        let x = Tensor2::full(80, 8, 3.0);
        let w = Tensor2::full(400, 8, 0.5);
        let res = uGrapher(
            &GraphTensor::new(&g),
            &OpArgs::binary(OpInfo::weighted_aggregation_sum(), &x, &w),
            Some(ParallelInfo::basic(Strategy::WarpVertex)),
        )
        .unwrap();
        for v in 0..80 {
            assert_eq!(res.output[(v, 0)], 1.5 * g.in_degree(v) as f32);
        }
    }

    #[test]
    fn scalar_edge_weights_broadcast() {
        // GCN-style: per-edge scalar weight multiplying a full feature row.
        let g = uniform_random(60, 300, 9);
        let x = Tensor2::full(60, 8, 2.0);
        let w = Tensor2::full(300, 1, 0.25);
        let res = uGrapher(
            &GraphTensor::new(&g),
            &OpArgs::binary(OpInfo::weighted_aggregation_sum(), &x, &w),
            Some(ParallelInfo::basic(Strategy::ThreadEdge)),
        )
        .unwrap();
        assert_eq!(res.output.cols(), 8);
        for v in 0..60 {
            assert_eq!(res.output[(v, 3)], 0.5 * g.in_degree(v) as f32);
        }
        // Scalar operand moves less data than a full-width one.
        let wide = Tensor2::full(300, 8, 0.25);
        let res_wide = uGrapher(
            &GraphTensor::new(&g),
            &OpArgs::binary(OpInfo::weighted_aggregation_sum(), &x, &wide),
            Some(ParallelInfo::basic(Strategy::ThreadEdge)),
        )
        .unwrap();
        assert!(res.report.l1_transactions < res_wide.report.l1_transactions);
        assert_eq!(res.output, res_wide.output);
    }

    #[test]
    fn mismatched_operands_error() {
        let g = uniform_random(50, 250, 5);
        let wrong = Tensor2::full(49, 8, 1.0);
        let err = uGrapher(
            &GraphTensor::new(&g),
            &OpArgs::fused(OpInfo::aggregation_sum(), &wrong),
            Some(ParallelInfo::basic(Strategy::ThreadVertex)),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadOperand { .. }));
    }

    #[test]
    fn measure_only_matches_run_report_shape() {
        let g = uniform_random(120, 600, 6);
        let rt = Runtime::new(DeviceConfig::a100());
        let r = rt
            .measure_only(
                &g,
                &OpInfo::aggregation_sum(),
                16,
                ParallelInfo::basic(Strategy::WarpEdge),
            )
            .unwrap();
        assert!(r.time_ms > 0.0);
        assert!(r.atomic_ops > 0.0);
    }

    #[test]
    fn nan_operand_is_a_typed_error() {
        let g = uniform_random(40, 200, 7);
        let mut x = Tensor2::full(40, 4, 1.0);
        x[(17, 2)] = f32::NAN;
        let err = uGrapher(
            &GraphTensor::new(&g),
            &OpArgs::fused(OpInfo::aggregation_sum(), &x),
            Some(ParallelInfo::basic(Strategy::ThreadVertex)),
        )
        .unwrap_err();
        match err {
            CoreError::TensorInvalid { reason } => {
                assert!(reason.contains("operand A"), "{reason}");
                assert!(reason.contains("(17, 2)"), "{reason}");
            }
            other => panic!("expected TensorInvalid, got {other:?}"),
        }
    }

    #[test]
    fn illegal_explicit_schedule_is_rejected() {
        let g = uniform_random(30, 90, 8);
        let x = Tensor2::full(30, 4, 1.0);
        let bad = ParallelInfo {
            strategy: Strategy::ThreadVertex,
            grouping: 0,
            tiling: 0,
        };
        let err = uGrapher(
            &GraphTensor::new(&g),
            &OpArgs::fused(OpInfo::aggregation_sum(), &x),
            Some(bad),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidSchedule { .. }), "{err:?}");
    }

    #[test]
    fn empty_search_space_falls_back_to_default_schedule() {
        let g = uniform_random(64, 256, 11);
        let x = Tensor2::full(64, 4, 1.0);
        let rt = Runtime::new(DeviceConfig::v100()).with_search_space(Vec::new());
        let res = rt
            .run(
                &GraphTensor::new(&g),
                &OpArgs::fused(OpInfo::aggregation_sum(), &x),
                None,
            )
            .unwrap();
        assert_eq!(res.schedule, ParallelInfo::basic(Strategy::ThreadVertex));
        assert!(res.robustness.degraded());
        assert_eq!(res.robustness.downgrades[0].stage, "grid-search");
    }

    #[test]
    fn explicit_degenerate_schedule_is_linted_in_robustness_report() {
        let g = uniform_random(40, 50, 12);
        let x = Tensor2::full(40, 4, 1.0);
        let rt = Runtime::new(DeviceConfig::v100());
        // Tiling 64 clamps against feat 4; grouping 64 >= 50 edges.
        let res = rt
            .run(
                &GraphTensor::new(&g),
                &OpArgs::fused(OpInfo::aggregation_sum(), &x),
                Some(ParallelInfo::new(Strategy::ThreadEdge, 64, 64)),
            )
            .unwrap();
        assert!(res.robustness.degraded());
        assert_eq!(res.robustness.downgrades.len(), 2);
        assert!(res
            .robustness
            .downgrades
            .iter()
            .all(|d| d.stage == "schedule-lint"));
        // The schedule is still executed as requested, correctly.
        for v in 0..40 {
            assert_eq!(res.output[(v, 0)], g.in_degree(v) as f32);
        }
        // A clean explicit schedule records nothing.
        let clean = rt
            .run(
                &GraphTensor::new(&g),
                &OpArgs::fused(OpInfo::aggregation_sum(), &x),
                Some(ParallelInfo::basic(Strategy::ThreadEdge)),
            )
            .unwrap();
        assert!(!clean.robustness.degraded());
    }
}
