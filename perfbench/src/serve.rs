//! The serve-warm and serve-cold workloads: closed-loop requests through
//! `ugrapher_serve::ServeEngine`, and their per-layer traced replay.

use std::sync::mpsc;
use std::time::Instant;

use ugrapher_core::api::{Runtime, UGrapherResult};
use ugrapher_core::cache::{PlanCache, PlanKey};
use ugrapher_core::exec::{MeasureOptions, OpOperands};
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::tune::{grid_search_budgeted, TuneBudget};
use ugrapher_core::CoreError;
use ugrapher_obs::{Recorder, RingHandle};
use ugrapher_serve::{ServeConfig, ServeEngine, ServeError, ServeRequest};
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;

use crate::inputs::{self, ServeInputs, Sizing, Workload};
use crate::reference::{fingerprint, interpret, same_values};
use crate::stats::nproc;
use crate::{
    set_up, sim_bits, span_ring, split_op, timed_passes, LayerReport, Outcome, Planned, RunConfig,
    SimTally, Stages,
};

/// Serving workers. One on serve-cold, because each miss already fans its
/// grid search out to every core. One on serve-warm too: on a shared
/// two-core host, a second busy worker doubled the run-to-run spread of
/// latency and throughput.
pub const WORKERS: usize = 1;

/// Threads one request's auto-tuning runs on (`grid_search_budgeted`
/// uses every core, capped at the 196 candidates).
pub fn tuner_fanout(workload: Workload) -> usize {
    match workload {
        Workload::ServeCold => nproc().min(ParallelInfo::space().len()),
        _ => 1,
    }
}

fn device() -> DeviceConfig {
    DeviceConfig::v100()
}

/// A built serve workload: inputs plus a started engine.
pub struct ServeSetup {
    /// Workload inputs.
    pub inputs: ServeInputs,
    /// The engine under test.
    pub engine: ServeEngine,
    /// Set-up requests that failed.
    pub setup_errors: Vec<String>,
}

/// Builds inputs, starts the engine and sends the set-up requests:
/// serve-warm fills the plan cache with every key; serve-cold sends its
/// first key once, so that lazy start-up work is not charged to the first
/// timed request, then forgets the plan.
pub fn setup(workload: Workload, seed: u64, sizing: &Sizing) -> ServeSetup {
    let inputs = match workload {
        Workload::ServeCold => inputs::serve_cold(seed, sizing),
        _ => inputs::serve_warm(seed, sizing),
    };
    let engine = ServeEngine::start(
        Runtime::new(device()),
        ServeConfig {
            workers: WORKERS,
            queue_capacity: 64,
            default_deadline: None,
            plan_cache_capacity: PlanCache::DEFAULT_CAPACITY.max(inputs.keys.len()),
        },
    );
    let keys = match workload {
        Workload::ServeCold => 1,
        _ => inputs.keys.len(),
    };
    let setup_errors = (0..keys)
        .filter_map(|key| {
            let reply = engine.run_sync(inputs.keys[key].clone());
            reply
                .err()
                .map(|e| format!("set-up request for key {key} failed: {e}"))
        })
        .collect();
    if workload == Workload::ServeCold {
        engine.plan_cache().clear();
    }
    ServeSetup {
        inputs,
        engine,
        setup_errors,
    }
}

/// What a key's output must be.
enum Expect {
    /// Not yet seen: compare by value against the reference interpreter,
    /// evaluated when the first output arrives.
    Pending,
    /// Not yet seen: compare by value against this reference output.
    Reference(Tensor2),
    /// Verified once: later outputs must have this exact fingerprint.
    Verified(u64),
}

fn reference_output(r: &ServeRequest) -> Tensor2 {
    interpret(&r.graph, &r.op, r.a.as_deref(), r.b.as_deref())
}

/// Per-key expectations: output, simulated report and schedule.
struct Checker {
    expect: Vec<Expect>,
    sim: Vec<Option<[u64; 8]>>,
    schedule: Vec<Option<ParallelInfo>>,
}

impl Checker {
    /// Expectations for every key. With `precompute`, reference outputs
    /// are evaluated now, so that first outputs seen inside a timed pass
    /// cost only a comparison; otherwise each is evaluated on first use.
    fn new(inputs: &ServeInputs, precompute: bool) -> Self {
        let expect = inputs
            .keys
            .iter()
            .map(|k| match precompute {
                true => Expect::Reference(reference_output(k)),
                false => Expect::Pending,
            })
            .collect();
        let n = inputs.keys.len();
        Self {
            expect,
            sim: vec![None; n],
            schedule: vec![None; n],
        }
    }

    /// Checks one result of `key`; the first result of a key is compared
    /// with the reference, later ones bitwise with the first.
    fn check(
        &mut self,
        key: usize,
        request: &ServeRequest,
        output: &Tensor2,
        report: &SimReport,
        schedule: ParallelInfo,
    ) -> Result<(), String> {
        if matches!(self.expect[key], Expect::Pending) {
            self.expect[key] = Expect::Reference(reference_output(request));
        }
        match &self.expect[key] {
            Expect::Pending => unreachable!("pending expectations were resolved above"),
            Expect::Reference(want) => {
                if !same_values(output, want) {
                    return Err(format!(
                        "key {key}: output differs from the reference interpreter"
                    ));
                }
                self.expect[key] = Expect::Verified(fingerprint(output));
            }
            Expect::Verified(fp) => {
                if fingerprint(output) != *fp {
                    return Err(format!(
                        "key {key}: output differs bitwise from the verified output"
                    ));
                }
            }
        }
        let bits = sim_bits(report);
        match self.sim[key] {
            None => self.sim[key] = Some(bits),
            Some(b) if b != bits => {
                return Err(format!(
                    "key {key}: SimReport differs from an earlier run of the same key"
                ))
            }
            Some(_) => {}
        }
        match self.schedule[key] {
            None => self.schedule[key] = Some(schedule),
            Some(s) if s != schedule => {
                return Err(format!(
                    "key {key}: schedule {} differs from {}",
                    schedule.label(),
                    s.label()
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn check_result(
        &mut self,
        key: usize,
        request: &ServeRequest,
        r: &UGrapherResult,
    ) -> Result<(), String> {
        self.check(key, request, &r.output, &r.report, r.schedule)
    }
}

/// Engine replies of one pass.
#[derive(Default)]
struct PassLog {
    /// Admission-to-completion latency of each served request, ms.
    latencies_ms: Vec<f64>,
    /// Summed time requests waited in the queue, ms.
    queue_ms: f64,
    /// Summed time workers spent on requests, ms.
    service_ms: f64,
    /// Simulated totals of the served requests.
    tally: SimTally,
    /// Requests answered from the plan cache.
    hits: usize,
    /// Requests shed by admission control or deadlines.
    shed: usize,
}

/// Sends one request, blocks for the reply, checks it and logs it; a
/// failure or a wrong output counts in `out.failed`. Returns the wall time
/// from sending to the reply, checks excluded, in seconds.
fn serve_one(
    s: &ServeSetup,
    key: usize,
    checker: &mut Checker,
    log: &mut PassLog,
    out: &mut Outcome,
) -> f64 {
    let request = &s.inputs.keys[key];
    let started = Instant::now();
    let reply = s.engine.run_sync(request.clone());
    let wall_s = started.elapsed().as_secs_f64();
    match reply {
        Ok(resp) => {
            if let Err(e) = checker.check_result(key, request, &resp.result) {
                out.failed += 1;
                out.problem(e);
            }
            log.latencies_ms.push(resp.total_ms);
            log.queue_ms += resp.queue_ms;
            log.service_ms += resp.total_ms - resp.queue_ms;
            log.tally.add(&resp.result.report);
            log.hits += usize::from(resp.result.plan_cache_hit);
        }
        Err(e) => {
            out.failed += 1;
            if matches!(
                e,
                ServeError::Overloaded { .. } | ServeError::DeadlineExceeded { .. }
            ) {
                log.shed += 1;
            }
            out.problem(format!("key {key}: request failed: {e}"));
        }
    }
    wall_s
}

/// Runs serve-warm or serve-cold.
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) = set_up(config, || {
        setup(config.workload, config.seed, &config.sizing)
    });
    for e in &s.setup_errors {
        out.problem(e.clone());
    }

    // Verification (untimed). serve-warm: one pass over every key, each
    // output checked against the reference interpreter. serve-cold: the
    // reference outputs are computed now and checked as results arrive.
    let cold = config.workload == Workload::ServeCold;
    let mut checker = Checker::new(&s.inputs, cold);
    if !cold {
        let mut verify = Outcome::default();
        for key in 0..s.inputs.keys.len() {
            serve_one(&s, key, &mut checker, &mut PassLog::default(), &mut verify);
        }
        for p in verify.problems {
            out.problem(format!("verification pass: {p}"));
        }
    }

    let threads = WORKERS * tuner_fanout(config.workload);
    out.note("compute_threads", threads as f64);
    out.note("serve_workers", WORKERS as f64);
    out.note("distinct_keys", s.inputs.keys.len() as f64);
    out.note("requests_per_pass", s.inputs.list.len() as f64);
    if threads > nproc() {
        out.problem(format!(
            "thread budget: {threads} compute threads on {} cores",
            nproc()
        ));
    }

    if config.trace {
        traced(config, &s, &mut checker, setup_s, &mut out);
    } else {
        timed(config, &s, &mut checker, setup_s, &mut out);
    }
    out
}

fn timed(
    config: &RunConfig,
    s: &ServeSetup,
    checker: &mut Checker,
    setup_s: f64,
    out: &mut Outcome,
) {
    let (mut hits, mut served) = (0usize, 0usize);
    timed_passes(config, s.inputs.list.len(), setup_s, out, |out| {
        if config.workload == Workload::ServeCold {
            // Every pass must meet its graphs for the first time.
            s.engine.plan_cache().clear();
        }
        let mut log = PassLog::default();
        for &key in &s.inputs.list {
            serve_one(s, key, checker, &mut log, out);
        }
        hits += log.hits;
        served += log.latencies_ms.len();
        (log.latencies_ms, log.tally)
    });
    out.note("timed_hit_rate", hits as f64 / served.max(1) as f64);
}

/// Replays one request as the engine's public calls, each timed: the
/// engine's plan-cache lookup, then on a miss the pinned schedule or a
/// timed `grid_search_budgeted`, around [`split_op`].
fn split_request(
    request: &ServeRequest,
    cache: &PlanCache,
    spans: (&Recorder, &RingHandle),
    st: &mut Stages,
) -> Result<(Tensor2, SimReport, ParallelInfo), CoreError> {
    let graph = request.graph.as_ref();
    let operands = OpOperands {
        a: request.a.as_deref(),
        b: request.b.as_deref(),
    };
    split_op(
        graph,
        &request.op,
        &operands,
        &device(),
        spans,
        st,
        |gt, feat, scalars, st| {
            let key = PlanKey {
                op: request.op,
                explicit: request.parallel,
                graph_fingerprint: gt.fingerprint(),
                feat,
                scalars,
            };
            let t = Instant::now();
            let cached = cache.get(&key);
            st.lookup_us += t.elapsed().as_secs_f64() * 1e6;
            if let Some(c) = cached {
                return Ok(Planned::Cached(c.schedule, c.plan.clone()));
            }
            if let Some(p) = request.parallel {
                return Ok(Planned::Schedule(p));
            }
            let t = Instant::now();
            let tuned = grid_search_budgeted(
                graph,
                &request.op,
                feat,
                scalars,
                &MeasureOptions::auto(device()).with_recorder(spans.0.clone()),
                &ParallelInfo::space(),
                TuneBudget::unlimited(),
            )?;
            st.choose_ms += t.elapsed().as_secs_f64() * 1e3;
            st.illegal += tuned.illegal;
            Ok(Planned::Schedule(tuned.best))
        },
    )
}

/// The traced run: one pass of the request list, each request sent once
/// untraced through the engine and once split into public calls, in
/// alternating order so that drift and warm caches favour neither side.
/// The split replay runs on a thread of its own, handed each request over
/// a channel as the engine's worker is, so both sides pay the same
/// cross-thread hand-off.
fn traced(
    config: &RunConfig,
    s: &ServeSetup,
    checker: &mut Checker,
    setup_s: f64,
    out: &mut Outcome,
) {
    let n = s.inputs.list.len();
    let cold = config.workload == Workload::ServeCold;
    if cold {
        s.engine.plan_cache().clear();
    }
    // serve-warm looks plans up in the engine's filled cache; serve-cold in
    // an empty one of its own.
    let own_cache = PlanCache::new(PlanCache::DEFAULT_CAPACITY);
    let cache: &PlanCache = if cold {
        &own_cache
    } else {
        s.engine.plan_cache()
    };

    let mut log = PassLog::default();
    let mut tally = SimTally::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut lookups, mut evictions) = (0u64, 0u64);
    let st = std::thread::scope(|scope| {
        let (to_replayer, jobs) = mpsc::channel::<usize>();
        let (to_main, replies) = mpsc::channel();
        let replayer = scope.spawn(move || {
            let (recorder, ring) = span_ring();
            let mut st = Stages::default();
            for key in jobs {
                let reply = split_request(&s.inputs.keys[key], cache, (&recorder, &ring), &mut st);
                if to_main.send(reply).is_err() {
                    break;
                }
            }
            st
        });
        for (i, &key) in s.inputs.list.iter().enumerate() {
            let request = &s.inputs.keys[key];
            for engine_side in [i % 2 == 0, i % 2 == 1] {
                if engine_side {
                    let before = s.engine.cache_stats();
                    untraced_s += serve_one(s, key, checker, &mut log, out);
                    let after = s.engine.cache_stats();
                    lookups += (after.hits + after.misses) - (before.hits + before.misses);
                    evictions += after.evictions - before.evictions;
                    continue;
                }
                let started = Instant::now();
                to_replayer
                    .send(key)
                    .expect("the replay thread outlives the request loop");
                match replies
                    .recv()
                    .expect("the replay thread answers every request")
                {
                    Ok((output, report, schedule)) => {
                        traced_s += started.elapsed().as_secs_f64();
                        tally.add(&report);
                        if let Err(e) = checker.check(key, request, &output, &report, schedule) {
                            out.failed += 1;
                            out.problem(format!("traced replay: {e}"));
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problem(format!("traced replay: key {key} failed: {e}"));
                    }
                }
            }
        }
        drop(to_replayer);
        replayer.join().expect("the replay thread does not panic")
    });
    if tally.bits() != log.tally.bits() {
        out.problem(format!(
            "simulated totals differ between the traced and untraced replay ({tally:?} vs {:?})",
            log.tally
        ));
    }
    out.attempted = 2 * n;

    LayerReport {
        requests: n,
        service_ms: log.service_ms,
        split_base_ms: log.service_ms,
        queue_ms: log.queue_ms,
        shed: log.shed,
        cache: (lookups, log.hits as u64, evictions),
        stages: st,
        sim: log.tally,
        graph_build_ms: s.inputs.graph_build_ms,
        setup_s,
        wall_s: (untraced_s, traced_s),
        ..LayerReport::default()
    }
    .report(out);
}
