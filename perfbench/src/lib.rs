//! End-to-end and per-layer benchmark of uGrapher.
//!
//! Three closed-loop workloads (see `README.md` in this directory):
//!
//! * `serve-warm` — the serving steady state, every timed request a
//!   compiled-plan cache hit ([`serve`]);
//! * `serve-cold` — time to first result on never-seen graphs, every
//!   request auto-tuned ([`serve`]);
//! * `gnn-infer` — repeated full GNN forward passes through the library
//!   API, no serve engine and no plan cache ([`gnn`]).
//!
//! A run with `trace = false` measures the end-to-end metrics with tracing
//! off. A run with `trace = true` replays one pass of the same request list
//! untraced, then again split into the public calls of each layer with a
//! timer around each, and reports the per-layer metrics.

pub mod gnn;
pub mod inputs;
pub mod reference;
pub mod serve;
pub mod stats;

use std::time::{Duration, Instant};

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::api::GraphTensor;
use ugrapher_core::exec::{execute, measure, Fidelity, MeasureOptions, OpOperands};
use ugrapher_core::ir::classify_determinism;
use ugrapher_core::lower::lower;
use ugrapher_core::plan::KernelPlan;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::CoreError;
use ugrapher_graph::Graph;
use ugrapher_obs::{Recorder, RingHandle};
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;
use ugrapher_util::json::Value;

pub use inputs::{Sizing, Workload};

/// What one benchmark run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement time of a timed run.
    pub seconds: Duration,
    /// `true` for the per-layer traced replay instead of the timed run.
    pub trace: bool,
    /// Workload sizes.
    pub sizing: Sizing,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted (timed passes, or the replayed pass when traced).
    pub attempted: usize,
    /// Requests that failed, were shed, or returned a wrong output.
    pub failed: usize,
    /// Every correctness or determinism violation seen; empty when correct.
    pub problems: Vec<String>,
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Noise diagnostics and run facts, recorded but never compared.
    pub diagnostics: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends a diagnostic.
    pub fn note(&mut self, key: &'static str, value: impl Into<f64>) {
        self.diagnostics.push((key, Value::Num(value.into())));
    }

    /// Looks a metric up by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Looks a numeric diagnostic up by key.
    pub fn diagnostic(&self, key: &str) -> Option<f64> {
        self.diagnostics
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_f64())
    }

    /// Records a violation (at most a few are kept verbatim).
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 16 {
            self.problems.push(what);
        } else if self.problems.len() == 16 {
            self.problems.push("further problems suppressed".to_owned());
        }
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Value::obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", Value::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.problems.is_empty())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }

    /// The diagnostics line printed before the result line.
    pub fn diagnostics_json(&self) -> Value {
        let mut entries = self.diagnostics.clone();
        entries.push((
            "problems",
            Value::Arr(self.problems.iter().cloned().map(Value::Str).collect()),
        ));
        Value::obj(entries)
    }
}

/// Runs one workload as configured.
pub fn run(config: &RunConfig) -> Outcome {
    let ticks = stats::CpuTicks::now();
    let mut outcome = match config.workload {
        Workload::ServeWarm | Workload::ServeCold => serve::run(config),
        Workload::GnnInfer => gnn::run(config),
    };
    outcome.note(
        "host_steal_share",
        stats::CpuTicks::now().steal_share_since(&ticks),
    );
    outcome.note("nproc", stats::nproc() as f64);
    outcome
}

/// Complete set-ups of a timed run; `setup_s` is the median of their times.
const SETUP_REPS: usize = 5;

/// Builds a workload's set-up: [`SETUP_REPS`] times for a timed run (once
/// for a traced one), dropping each before building the next. Returns the
/// last set-up and the median build time in seconds.
pub fn set_up<T>(config: &RunConfig, mut build: impl FnMut() -> T) -> (T, f64) {
    let reps = if config.trace { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let started = Instant::now();
        built = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (
        built.expect("at least one set-up ran"),
        stats::median(&times),
    )
}

/// The `SimReport` fields the determinism guard compares, as exact bits.
pub fn sim_bits(r: &SimReport) -> [u64; 8] {
    [
        r.time_ms.to_bits(),
        r.kernels as u64,
        r.sm_efficiency.to_bits(),
        r.achieved_occupancy.to_bits(),
        r.l2_hit_rate.to_bits(),
        r.dram_bytes.to_bits(),
        r.atomic_ops.to_bits(),
        r.compute_cycles.to_bits(),
    ]
}

/// Simulated totals of one pass over a request list. Summed in list order,
/// so two passes over the same list agree bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTally {
    /// Simulated device time, ms.
    pub time_ms: f64,
    /// DRAM bytes of the executed kernels.
    pub dram_bytes: f64,
    /// Atomic updates of the executed kernels.
    pub atomic_ops: f64,
    /// Sum of per-kernel SM efficiency (divide by `kernels`).
    pub sm_efficiency: f64,
    /// Executed kernels.
    pub kernels: usize,
}

impl SimTally {
    /// Adds one executed kernel (or merged kernel sequence).
    pub fn add(&mut self, r: &SimReport) {
        self.time_ms += r.time_ms;
        self.dram_bytes += r.dram_bytes;
        self.atomic_ops += r.atomic_ops;
        self.sm_efficiency += r.sm_efficiency;
        self.kernels += 1;
    }

    /// Exact bit patterns, for the determinism guard.
    pub fn bits(&self) -> [u64; 5] {
        [
            self.time_ms.to_bits(),
            self.dram_bytes.to_bits(),
            self.atomic_ops.to_bits(),
            self.sm_efficiency.to_bits(),
            self.kernels as u64,
        ]
    }
}

/// Summed times of a traced replay, one field per public call it times.
#[derive(Debug, Default)]
pub struct Stages {
    /// `GraphTensor::new` + `Tensor2::validate_finite`, ms.
    pub admit_ms: f64,
    /// `PlanCache::get`, µs.
    pub lookup_us: f64,
    /// Schedule choice, ms: `grid_search_budgeted` on a serve miss without
    /// a pinned schedule, `UGrapherBackend::schedule_for` on gnn-infer.
    pub choose_ms: f64,
    /// Tuner candidates measured (`tune.candidate` spans).
    pub candidates: usize,
    /// Summed duration of the `tune.candidate` spans, ms.
    pub candidate_ms: f64,
    /// Tuner candidates whose plan could not be generated.
    pub illegal: usize,
    /// `KernelPlan::generate` + `lower::lower` + determinism class, µs.
    pub compile_us: f64,
    /// `exec::execute`, ms.
    pub functional_ms: f64,
    /// `exec::measure` of the executed plan, ms.
    pub measure_ms: f64,
    /// Simulator calls, tuner candidates included (`sim.kernel` spans).
    pub measures: usize,
}

impl Stages {
    /// Summed time of every stage, ms.
    fn covered_ms(&self) -> f64 {
        self.admit_ms
            + self.lookup_us / 1e3
            + self.choose_ms
            + self.compile_us / 1e3
            + self.functional_ms
            + self.measure_ms
    }
}

/// Where [`split_op`] gets the compiled plan of an op.
pub enum Planned {
    /// A plan found in a cache: nothing to compile.
    Cached(ParallelInfo, KernelPlan),
    /// A schedule to compile now.
    Schedule(ParallelInfo),
}

/// Runs one graph operator as the public calls `Runtime::run` makes, with
/// a timer around each, adding the times into `st`: admission
/// (`GraphTensor::new` and validation), the caller's `plan_for` (cache
/// lookup or schedule choice, which times itself), `KernelPlan::generate` +
/// `lower::lower` unless the plan was cached, `exec::execute` and
/// `exec::measure`. Tuner and simulator spans recorded through `recorder`
/// are counted from `ring` and cleared. `plan_for` gets the admitted graph,
/// the feature width and the scalar-operand flags.
///
/// # Errors
///
/// An invalid graph, non-finite operand, or failed schedule choice,
/// plan generation, lowering or execution.
pub fn split_op(
    graph: &Graph,
    op: &OpInfo,
    operands: &OpOperands<'_>,
    device: &DeviceConfig,
    (recorder, ring): (&Recorder, &RingHandle),
    st: &mut Stages,
    plan_for: impl FnOnce(
        &GraphTensor<'_>,
        usize,
        (bool, bool),
        &mut Stages,
    ) -> Result<Planned, CoreError>,
) -> Result<(Tensor2, SimReport, ParallelInfo), CoreError> {
    let t = Instant::now();
    let gt = GraphTensor::new(graph);
    if let Some(reason) = gt.validation_error() {
        return Err(CoreError::GraphInvalid {
            reason: reason.to_owned(),
        });
    }
    for t in [operands.a, operands.b].into_iter().flatten() {
        t.validate_finite().map_err(|e| CoreError::TensorInvalid {
            reason: e.to_string(),
        })?;
    }
    st.admit_ms += t.elapsed().as_secs_f64() * 1e3;

    let feat = [operands.a, operands.b]
        .into_iter()
        .flatten()
        .map(|t| t.cols())
        .max()
        .unwrap_or(1);
    let scalar = |t: Option<&Tensor2>| t.is_some_and(|t| t.cols() == 1) && feat > 1;
    let scalars = (scalar(operands.a), scalar(operands.b));
    let (schedule, plan) = match plan_for(&gt, feat, scalars, st)? {
        Planned::Cached(schedule, plan) => (schedule, plan),
        Planned::Schedule(schedule) => {
            let t = Instant::now();
            let plan =
                KernelPlan::generate(*op, schedule, graph.num_vertices(), graph.num_edges(), feat)?
                    .with_scalar_operands(scalars.0, scalars.1);
            let ir = lower(&plan)?;
            std::hint::black_box(classify_determinism(&ir));
            st.compile_us += t.elapsed().as_secs_f64() * 1e6;
            (schedule, plan)
        }
    };

    let t = Instant::now();
    let output = execute(graph, op, operands)?;
    st.functional_ms += t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let report = measure(
        graph,
        &plan,
        &MeasureOptions::new(device.clone())
            .with_fidelity(Fidelity::Auto)
            .with_recorder(recorder.clone()),
    );
    st.measure_ms += t.elapsed().as_secs_f64() * 1e3;

    for span in ring.snapshot() {
        match span.name {
            "tune.candidate" => {
                st.candidates += 1;
                st.candidate_ms += span.dur_ns as f64 / 1e6;
            }
            "sim.kernel" => st.measures += 1,
            _ => {}
        }
    }
    ring.clear();
    Ok((output, report, schedule))
}

/// A ring [`Recorder`] for [`split_op`], large enough for one request's
/// spans.
pub fn span_ring() -> (Recorder, RingHandle) {
    let mut builder = Recorder::builder();
    let ring = builder.ring(8192);
    (builder.build(), ring)
}

/// Everything a traced run measures. Layers a workload does not use stay 0.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Requests in the replayed pass.
    pub requests: usize,
    /// Summed untraced service time, ms: the base of every `*_share`.
    pub service_ms: f64,
    /// Untraced time inside the calls the split replay reproduces, ms: the
    /// service time on the serve workloads, the time inside
    /// `GraphOpBackend::run_op` on gnn-infer. The base of
    /// `obs.stage_coverage`.
    pub split_base_ms: f64,
    /// Summed time requests waited in the serve queue, ms.
    pub queue_ms: f64,
    /// Requests shed by the serve engine.
    pub shed: usize,
    /// Plan-cache lookups, hits and evictions of the untraced requests.
    pub cache: (u64, u64, u64),
    /// Stage times of the split replay.
    pub stages: Stages,
    /// Simulated totals of the untraced requests.
    pub sim: SimTally,
    /// Time inside `GraphOpBackend::run_op`, ms.
    pub graph_op_ms: f64,
    /// gnn-infer host time outside graph operators, ms.
    pub dense_ms: f64,
    /// Graph operators run.
    pub graph_ops: usize,
    /// Graph generation time of one set-up, ms.
    pub graph_build_ms: f64,
    /// Set-up time, s.
    pub setup_s: f64,
    /// Wall time of the untraced and of the traced requests, s.
    pub wall_s: (f64, f64),
}

impl LayerReport {
    /// Appends every per-layer metric.
    pub fn report(&self, out: &mut Outcome) {
        let st = &self.stages;
        let per = |x: f64| x / self.requests.max(1) as f64;
        let share = |x: f64| {
            if self.service_ms > 0.0 {
                x / self.service_ms
            } else {
                0.0
            }
        };
        let (lookups, hits, evictions) = self.cache;
        let candidate_ms = if st.candidates > 0 {
            st.candidate_ms / st.candidates as f64
        } else {
            0.0
        };
        out.metric("serve.queue_ms", per(self.queue_ms), "ms");
        out.metric("serve.service_ms", per(self.service_ms), "ms");
        out.metric("serve.shed", self.shed as f64, "count");
        out.metric(
            "cache.hit_rate",
            hits as f64 / lookups.max(1) as f64,
            "frac",
        );
        out.metric("cache.misses", (lookups - hits) as f64, "count");
        out.metric("cache.evictions", evictions as f64, "count");
        out.metric("cache.lookup_us", per(st.lookup_us), "us");
        out.metric("cache.lookup_share", share(st.lookup_us / 1e3), "frac");
        out.metric("api.admit_ms", per(st.admit_ms), "ms");
        out.metric("api.admit_share", share(st.admit_ms), "frac");
        out.metric("tune.choose_ms", per(st.choose_ms), "ms");
        out.metric("tune.choose_share", share(st.choose_ms), "frac");
        out.metric("tune.candidates", per(st.candidates as f64), "count");
        out.metric("tune.candidate_ms", candidate_ms, "ms");
        out.metric("tune.illegal", per(st.illegal as f64), "count");
        out.metric("plan.compile_us", per(st.compile_us), "us");
        out.metric("plan.compile_share", share(st.compile_us / 1e3), "frac");
        out.metric("exec.functional_ms", per(st.functional_ms), "ms");
        out.metric("exec.functional_share", share(st.functional_ms), "frac");
        out.metric("sim.measure_ms", per(st.measure_ms), "ms");
        out.metric("sim.measure_share", share(st.measure_ms), "frac");
        out.metric("sim.measures", per(st.measures as f64), "count");
        out.metric("sim.dram_bytes", per(self.sim.dram_bytes), "bytes");
        out.metric("sim.atomic_ops", per(self.sim.atomic_ops), "count");
        out.metric(
            "sim.sm_efficiency",
            self.sim.sm_efficiency / self.sim.kernels.max(1) as f64,
            "frac",
        );
        out.metric("gnn.graph_op_ms", per(self.graph_op_ms), "ms");
        out.metric("gnn.graph_op_share", share(self.graph_op_ms), "frac");
        out.metric("gnn.dense_ms", per(self.dense_ms), "ms");
        out.metric("gnn.dense_share", share(self.dense_ms), "frac");
        out.metric("gnn.ops_per_pass", per(self.graph_ops as f64), "count");
        out.metric("graph.build_ms", self.graph_build_ms, "ms");
        out.metric(
            "graph.build_share",
            self.graph_build_ms / 1e3 / self.setup_s,
            "frac",
        );
        out.metric(
            "obs.trace_overhead_frac",
            self.wall_s.1 / self.wall_s.0,
            "frac",
        );
        out.metric(
            "obs.stage_coverage",
            st.covered_ms() / self.split_base_ms,
            "frac",
        );
    }
}

/// Checks that every pass produced the same simulated totals as the first.
fn check_passes_agree(out: &mut Outcome, tallies: &[SimTally], what: &str) {
    if let Some(first) = tallies.first() {
        for (i, t) in tallies.iter().enumerate().skip(1) {
            if t.bits() != first.bits() {
                out.problem(format!(
                    "{what}: simulated totals of pass {i} differ from pass 0 ({:?} vs {:?})",
                    t, first
                ));
            }
        }
    }
}

/// Fewest latency samples a timed run collects, whatever `--seconds` says.
/// Fixes each workload's tail percentile.
const MIN_SAMPLES: usize = 60;

/// The timed run: whole passes of a `pass_len`-request list until
/// `config.seconds` have elapsed and at least [`MIN_SAMPLES`] requests were
/// sent, then the seven end-to-end metrics. `pass` sends one pass and
/// returns its per-request latencies (ms) and simulated totals; it counts
/// its own failures in `out.failed`.
pub fn timed_passes(
    config: &RunConfig,
    pass_len: usize,
    setup_s: f64,
    out: &mut Outcome,
    mut pass: impl FnMut(&mut Outcome) -> (Vec<f64>, SimTally),
) {
    let min_passes = MIN_SAMPLES.div_ceil(pass_len.max(1));
    let tail_rank = stats::tail_rank(min_passes * pass_len);
    let ticks = stats::CpuTicks::now();
    let deadline = Instant::now() + config.seconds;
    let mut latencies = Vec::new();
    let mut tallies = Vec::new();
    let mut pass_rps = Vec::new();
    while tallies.len() < min_passes || Instant::now() < deadline {
        let started = Instant::now();
        let (lat, sim) = pass(out);
        pass_rps.push(pass_len as f64 / started.elapsed().as_secs_f64());
        out.attempted += pass_len;
        latencies.extend(lat);
        tallies.push(sim);
    }
    check_passes_agree(out, &tallies, config.workload.name());
    latencies.sort_by(f64::total_cmp);
    let n = latencies.len();
    let attempted = out.attempted.max(1) as f64;
    out.metric("latency_p50_ms", stats::percentile(&latencies, 50), "ms");
    out.metric(
        "latency_tail_ms",
        stats::percentile(&latencies, tail_rank),
        "ms",
    );
    // Median over passes, so a burst of host steal during one pass does
    // not move the figure.
    out.metric("throughput_rps", stats::median(&pass_rps), "1/s");
    out.metric("sim_time_ms", tallies[0].time_ms, "ms");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.metric("success_frac", 1.0 - out.failed as f64 / attempted, "frac");
    out.note(
        "timed_steal_share",
        stats::CpuTicks::now().steal_share_since(&ticks),
    );
    out.note("passes", tallies.len() as f64);
    out.note("tail_rank", tail_rank);
    out.note("latency_samples", n as f64);
    out.note("samples_beyond_tail", stats::beyond(n, tail_rank) as f64);
}
