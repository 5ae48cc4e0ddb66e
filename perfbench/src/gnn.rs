//! The gnn-infer workload: repeated full forward passes through
//! `ugrapher_gnn::run_inference`, and its per-layer traced replay.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::exec::OpOperands;
use ugrapher_core::CoreError;
use ugrapher_gnn::{
    run_inference, GnnError, GraphOpBackend, InferenceResult, OpSite, UGrapherBackend,
};
use ugrapher_graph::Graph;
use ugrapher_obs::{Recorder, RingHandle};
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;

use crate::inputs::{self, GnnInputs, Sizing, GNN_CLASSES};
use crate::reference::{fingerprint, fnv1a, interpret, same_values};
use crate::{
    set_up, sim_bits, span_ring, split_op, timed_passes, LayerReport, Outcome, Planned, RunConfig,
    SimTally, Stages,
};

/// A built gnn-infer workload: inputs plus a backend whose schedules were
/// chosen during set-up.
pub struct GnnSetup {
    /// Workload inputs.
    pub inputs: GnnInputs,
    /// The backend under test (grid search over the four basic strategies,
    /// one schedule per op site and graph shape, fixed after set-up).
    pub backend: UGrapherBackend,
}

/// Builds inputs and fixes every op site's schedule with one forward pass
/// per (graph, model) pair.
///
/// # Errors
///
/// Propagates any inference failure.
pub fn setup(seed: u64, sizing: &Sizing) -> Result<GnnSetup, GnnError> {
    let inputs = inputs::gnn_infer(seed, sizing);
    let backend = UGrapherBackend::quick(DeviceConfig::v100());
    for i in 0..inputs.pairs.len() {
        forward(&inputs, i, &backend)?;
    }
    Ok(GnnSetup { inputs, backend })
}

fn forward(
    inputs: &GnnInputs,
    pair: usize,
    backend: &dyn GraphOpBackend,
) -> Result<InferenceResult, GnnError> {
    let p = &inputs.pairs[pair];
    let (graph, x) = &inputs.graphs[p.graph];
    run_inference(&p.model, graph, x, GNN_CLASSES, backend)
}

/// Simulated totals of one forward pass, in op order.
fn tally(result: &InferenceResult, into: &mut SimTally) {
    for (_, r) in &result.graph_ops {
        into.add(r);
    }
    into.time_ms += result.gemm_ms + result.elementwise_ms;
}

/// Exact fingerprint of every simulated number a forward pass reports.
fn sim_fingerprint(result: &InferenceResult) -> u64 {
    fnv1a(
        result
            .graph_ops
            .iter()
            .flat_map(|(_, r)| sim_bits(r))
            .chain([result.gemm_ms.to_bits(), result.elementwise_ms.to_bits()]),
    )
}

/// Delegates to the backend under test and checks every op-site output
/// against the reference interpreter.
struct Verifying<'a> {
    inner: &'a UGrapherBackend,
    problems: RefCell<Vec<String>>,
    ops: Cell<usize>,
}

impl GraphOpBackend for Verifying<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> &DeviceConfig {
        self.inner.device()
    }

    fn run_op(
        &self,
        graph: &Graph,
        site: &OpSite,
        op: &OpInfo,
        operands: &OpOperands<'_>,
    ) -> Result<(Tensor2, SimReport), CoreError> {
        let result = self.inner.run_op(graph, site, op, operands)?;
        let want = interpret(graph, op, operands.a, operands.b);
        if !same_values(&result.0, &want) {
            self.problems.borrow_mut().push(format!(
                "{site}: output differs from the reference interpreter"
            ));
        }
        self.ops.set(self.ops.get() + 1);
        Ok(result)
    }
}

/// Times every call into the backend under test.
struct Timing<'a> {
    inner: &'a UGrapherBackend,
    ms: Cell<f64>,
    ops: Cell<usize>,
}

impl GraphOpBackend for Timing<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> &DeviceConfig {
        self.inner.device()
    }

    fn run_op(
        &self,
        graph: &Graph,
        site: &OpSite,
        op: &OpInfo,
        operands: &OpOperands<'_>,
    ) -> Result<(Tensor2, SimReport), CoreError> {
        let t = Instant::now();
        let result = self.inner.run_op(graph, site, op, operands);
        self.ms.set(self.ms.get() + t.elapsed().as_secs_f64() * 1e3);
        self.ops.set(self.ops.get() + 1);
        result
    }
}

/// Runs each op as the public calls `UGrapherBackend::run_op` makes, with
/// a timer around each (see [`split_op`]); the schedule comes from the
/// backend's `schedule_for`, fixed during set-up.
struct Split<'a> {
    inner: &'a UGrapherBackend,
    stages: RefCell<Stages>,
    spans: (Recorder, RingHandle),
}

impl GraphOpBackend for Split<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> &DeviceConfig {
        self.inner.device()
    }

    fn run_op(
        &self,
        graph: &Graph,
        site: &OpSite,
        op: &OpInfo,
        operands: &OpOperands<'_>,
    ) -> Result<(Tensor2, SimReport), CoreError> {
        let (recorder, ring) = &self.spans;
        split_op(
            graph,
            op,
            operands,
            self.inner.device(),
            (recorder, ring),
            &mut self.stages.borrow_mut(),
            |gt, feat, scalars, st| {
                let t = Instant::now();
                let schedule = self.inner.schedule_for(gt, site, op, feat, scalars)?;
                st.choose_ms += t.elapsed().as_secs_f64() * 1e3;
                Ok(Planned::Schedule(schedule))
            },
        )
        .map(|(output, report, _)| (output, report))
    }
}

/// What every forward pass of a pair must reproduce.
struct Verified {
    output: u64,
    sim: u64,
}

/// Runs gnn-infer.
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (built, setup_s) = set_up(config, || setup(config.seed, &config.sizing));
    let s = match built {
        Ok(s) => s,
        Err(e) => {
            out.problem(format!("set-up failed: {e}"));
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    out.note("compute_threads", 1.0);
    out.note("distinct_keys", s.inputs.pairs.len() as f64);
    out.note("requests_per_pass", s.inputs.list.len() as f64);

    // Verification pass (untimed): every op-site output against the
    // reference interpreter; each pair's output and simulated numbers
    // become what timed passes must reproduce bitwise.
    let verifying = Verifying {
        inner: &s.backend,
        problems: RefCell::new(Vec::new()),
        ops: Cell::new(0),
    };
    let mut verified = Vec::with_capacity(s.inputs.pairs.len());
    for i in 0..s.inputs.pairs.len() {
        match forward(&s.inputs, i, &verifying) {
            Ok(r) => verified.push(Some(Verified {
                output: fingerprint(&r.output),
                sim: sim_fingerprint(&r),
            })),
            Err(e) => {
                out.problem(format!("verification pass: pair {i} failed: {e}"));
                verified.push(None);
            }
        }
    }
    for p in verifying.problems.into_inner() {
        out.problem(format!("verification pass: {p}"));
    }
    out.note("verified_op_sites", verifying.ops.get() as f64);

    if config.trace {
        traced(&s, &verified, setup_s, &mut out);
    } else {
        timed(config, &s, &verified, setup_s, &mut out);
    }
    out
}

/// Checks one forward pass against its verified fingerprints.
fn check(verified: &[Option<Verified>], pair: usize, r: &InferenceResult) -> Result<(), String> {
    let Some(v) = &verified[pair] else {
        return Err(format!("pair {pair}: no verified output"));
    };
    if fingerprint(&r.output) != v.output {
        return Err(format!(
            "pair {pair}: output differs bitwise from the verified output"
        ));
    }
    if sim_fingerprint(r) != v.sim {
        return Err(format!(
            "pair {pair}: simulated reports differ from the verified pass"
        ));
    }
    Ok(())
}

/// One forward pass of `pair` through `backend`, checked against its
/// verified fingerprints; returns its latency in ms. A failure or a wrong
/// output counts in `out.failed`.
fn send(
    s: &GnnSetup,
    pair: usize,
    backend: &dyn GraphOpBackend,
    verified: &[Option<Verified>],
    sim: &mut SimTally,
    out: &mut Outcome,
) -> f64 {
    let t = Instant::now();
    let result = forward(&s.inputs, pair, backend);
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(r) => {
            tally(&r, sim);
            if let Err(e) = check(verified, pair, &r) {
                out.failed += 1;
                out.problem(e);
            }
        }
        Err(e) => {
            out.failed += 1;
            out.problem(format!("pair {pair} failed: {e}"));
        }
    }
    latency_ms
}

fn timed(
    config: &RunConfig,
    s: &GnnSetup,
    verified: &[Option<Verified>],
    setup_s: f64,
    out: &mut Outcome,
) {
    timed_passes(config, s.inputs.list.len(), setup_s, out, |out| {
        let mut sim = SimTally::default();
        let latencies = s
            .inputs
            .list
            .iter()
            .map(|&pair| send(s, pair, &s.backend, verified, &mut sim, out))
            .collect();
        (latencies, sim)
    });
}

/// The traced run: one pass of the request list, each forward pass sent
/// three times — untraced, through the [`Timing`] decorator and through
/// the [`Split`] replay — in rotating order, so that drift and warm caches
/// favour no side.
fn traced(s: &GnnSetup, verified: &[Option<Verified>], setup_s: f64, out: &mut Outcome) {
    let n = s.inputs.list.len();
    let timing = Timing {
        inner: &s.backend,
        ms: Cell::new(0.0),
        ops: Cell::new(0),
    };
    let split = Split {
        inner: &s.backend,
        stages: RefCell::new(Stages::default()),
        spans: span_ring(),
    };
    let backends: [&dyn GraphOpBackend; 3] = [&s.backend, &timing, &split];
    let mut wall_ms = [0.0; 3];
    let mut sims = [SimTally::default(); 3];
    for (i, &pair) in s.inputs.list.iter().enumerate() {
        for k in 0..3 {
            let side = (i + k) % 3;
            wall_ms[side] += send(s, pair, backends[side], verified, &mut sims[side], out);
        }
    }
    let [service_ms, timing_ms, split_ms] = wall_ms;
    for (what, t) in [("timing", sims[1]), ("split", sims[2])] {
        if t.bits() != sims[0].bits() {
            out.problem(format!(
                "simulated totals of the {what} replay differ from the untraced one"
            ));
        }
    }
    out.attempted = 3 * n;
    // Coverage compares the split's per-op stages with the time the
    // untraced backend spends inside `run_op`; dense host work is reported
    // on its own and covered by neither.
    LayerReport {
        requests: n,
        service_ms,
        split_base_ms: timing.ms.get(),
        stages: split.stages.into_inner(),
        sim: sims[0],
        graph_op_ms: timing.ms.get(),
        dense_ms: timing_ms - timing.ms.get(),
        graph_ops: timing.ops.get(),
        graph_build_ms: s.inputs.graph_build_ms,
        setup_s,
        wall_s: (service_ms, split_ms),
        ..LayerReport::default()
    }
    .report(out);
}
