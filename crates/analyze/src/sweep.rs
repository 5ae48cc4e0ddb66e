//! The registry sweep: run the full analysis — static pass, IR verifier
//! passes, plus dynamic cross-check — over every legal Table 4 operator
//! under all four parallelization strategies and a set of grouping/tiling
//! variants.
//!
//! This is the CI driver behind `analyze-registry`: a clean sweep proves
//! that every lowered store's atomicity agrees with the static race
//! verdict *and* the sim-trace write-log oracle on the whole operator
//! space, that every load/store carries a discharged bounds proof, that
//! every combination has a determinism label, and that no schedule or IR
//! lint fires on any combination the tuner would legitimately propose.
//!
//! Each sweep runs under an `analyze.sweep` span stamped with a fresh
//! trace id (also recorded on the [`SweepReport`]), and per-combo verifier
//! outcomes are counted in the process-wide metrics registry
//! (`ugrapher_analyze_verifier_total{pass=...}`,
//! `ugrapher_analyze_determinism_total{class=...}`).

use ugrapher_core::abstraction::{registry, OpInfo};
use ugrapher_core::ir::DeterminismClass;
use ugrapher_core::schedule::{ParallelInfo, Strategy};
use ugrapher_graph::generate::uniform_random;
use ugrapher_graph::Graph;
use ugrapher_sim::DeviceConfig;
use ugrapher_util::json::Value;

use crate::dynamic::cross_check_plan;
use crate::error::AnalyzeError;
use crate::irlint::IrFinding;
use crate::statics::analyze_static;

/// Shape of the sweep: the synthetic graph the analyses run on and the
/// schedule-knob variants each operator × strategy is checked under.
///
/// The feature dimension must be a power of two so every tiling knob
/// divides it evenly and the dynamic write-set is word-exact (see
/// [`ugrapher_core::exec::collect_writes`]).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Vertices of the synthetic graph.
    pub num_vertices: usize,
    /// Edges of the synthetic graph.
    pub num_edges: usize,
    /// Generator seed (the sweep is fully deterministic).
    pub seed: u64,
    /// Feature dimension (power of two).
    pub feat: usize,
    /// V/E grouping knob variants.
    pub groupings: Vec<usize>,
    /// Feature tiling knob variants.
    pub tilings: Vec<usize>,
}

impl SweepConfig {
    /// The CI configuration: a graph dense enough that every racing
    /// schedule has a witness, with grouping/tiling variants spanning the
    /// knob range without triggering degenerate-knob lints.
    pub fn full() -> Self {
        SweepConfig {
            num_vertices: 300,
            num_edges: 2400,
            seed: 11,
            feat: 8,
            groupings: vec![1, 4, 64],
            tilings: vec![1, 2, 8],
        }
    }

    /// A reduced configuration for test suites: same operator × strategy
    /// coverage, smaller graph and fewer knob variants.
    pub fn quick() -> Self {
        SweepConfig {
            num_vertices: 40,
            num_edges: 200,
            seed: 7,
            feat: 4,
            groupings: vec![1, 8],
            tilings: vec![1, 4],
        }
    }

    /// The synthetic graph this configuration analyzes.
    pub fn graph(&self) -> Graph {
        uniform_random(self.num_vertices, self.num_edges, self.seed)
    }
}

/// One failed combination of the sweep.
#[derive(Debug, Clone)]
pub struct SweepFinding {
    /// The operator that failed.
    pub op: OpInfo,
    /// The schedule that failed.
    pub schedule: ParallelInfo,
    /// What went wrong (analysis error or lint text).
    pub detail: String,
}

impl std::fmt::Display for SweepFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} under {}: {}", self.op, self.schedule, self.detail)
    }
}

/// Per-class tallies of the determinism labels the sweep assigned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeterminismCounts {
    /// Bitwise-deterministic sequential kernels.
    pub sequential: usize,
    /// Contended but order-insensitive (atomic CAS max/min) kernels.
    pub atomic_order_insensitive: usize,
    /// Reduction-order-dependent (atomic float sum/mean) kernels.
    pub atomic_order_dependent: usize,
}

impl DeterminismCounts {
    fn record(&mut self, class: DeterminismClass) {
        match class {
            DeterminismClass::Sequential => self.sequential += 1,
            DeterminismClass::AtomicOrderInsensitive => self.atomic_order_insensitive += 1,
            DeterminismClass::AtomicOrderDependent => self.atomic_order_dependent += 1,
        }
    }

    /// Total labels assigned (must equal the combos that passed the static
    /// pass).
    pub fn total(&self) -> usize {
        self.sequential + self.atomic_order_insensitive + self.atomic_order_dependent
    }
}

/// The outcome of one registry sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Combinations analyzed (operators × strategies × knob variants).
    pub combos_checked: usize,
    /// Combinations whose static analysis found a concrete race witness.
    pub static_witnesses: usize,
    /// Combinations whose simulated trace observed contended words.
    pub dynamic_conflicts: usize,
    /// Combinations whose every load/store carries a discharged symbolic
    /// bounds proof.
    pub bounds_proved: usize,
    /// Determinism labels assigned, tallied per class.
    pub determinism: DeterminismCounts,
    /// Every failure: atomic mismatches, bounds violations, legality
    /// findings, IR lints, dynamic mismatches.
    pub findings: Vec<SweepFinding>,
    /// Trace id of the `analyze.sweep` span this report was produced
    /// under (joins the sweep to end-to-end traces).
    pub trace_id: u64,
}

impl SweepReport {
    /// `true` when no combination produced a finding.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Machine-readable JSON rendering (compact, deterministic key order)
    /// for `analyze-registry --json` and downstream CI tooling.
    pub fn to_json(&self) -> String {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Value::obj(vec![
                    ("op", Value::Str(format!("{:?}", f.op))),
                    ("schedule", Value::Str(f.schedule.to_string())),
                    ("detail", Value::Str(f.detail.clone())),
                ])
            })
            .collect();
        Value::obj(vec![
            ("combos_checked", Value::Num(self.combos_checked as f64)),
            ("static_witnesses", Value::Num(self.static_witnesses as f64)),
            (
                "dynamic_conflicts",
                Value::Num(self.dynamic_conflicts as f64),
            ),
            ("bounds_proved", Value::Num(self.bounds_proved as f64)),
            (
                "determinism",
                Value::obj(vec![
                    ("sequential", Value::Num(self.determinism.sequential as f64)),
                    (
                        "atomic_order_insensitive",
                        Value::Num(self.determinism.atomic_order_insensitive as f64),
                    ),
                    (
                        "atomic_order_dependent",
                        Value::Num(self.determinism.atomic_order_dependent as f64),
                    ),
                ]),
            ),
            ("clean", Value::Bool(self.is_clean())),
            ("findings", Value::Arr(findings)),
            ("trace_id", Value::Num(self.trace_id as f64)),
        ])
        .to_string_compact()
    }
}

/// The per-combo analysis outcome, accumulated into the [`SweepReport`]
/// in combo order after the parallel phase.
struct ComboOutcome {
    findings: Vec<SweepFinding>,
    bounds_proved: bool,
    determinism: Option<DeterminismClass>,
    static_witness: bool,
    dynamic_conflict: bool,
}

/// Runs the full analysis stack on one (operator, schedule) combination.
/// Bumps the per-pass verifier and determinism metrics (thread-safe;
/// counts are order-independent and therefore deterministic even under a
/// parallel sweep).
fn analyze_combo(
    graph: &Graph,
    device: &DeviceConfig,
    feat: usize,
    op: OpInfo,
    parallel: ParallelInfo,
) -> ComboOutcome {
    let metrics = ugrapher_obs::MetricsRegistry::global();
    let verifier = |pass: &str| {
        metrics.inc_labeled(ugrapher_obs::metrics::ANALYZE_VERIFIER, "pass", pass);
    };
    let fail = |detail: String| SweepFinding {
        op,
        schedule: parallel,
        detail,
    };
    let mut outcome = ComboOutcome {
        findings: Vec::new(),
        bounds_proved: false,
        determinism: None,
        static_witness: false,
        dynamic_conflict: false,
    };
    let stat = match analyze_static(graph, op, parallel, feat) {
        Ok(stat) => stat,
        Err(e) => {
            if let AnalyzeError::OutOfBounds { .. } = e {
                verifier("bounds-violation");
            }
            outcome.findings.push(fail(e.to_string()));
            return outcome;
        }
    };
    // Static pass succeeded: the bounds proof discharged. The IR lint says
    // whether the store's atomicity agrees with the race verdict.
    verifier("bounds-ok");
    let race_ok = !stat
        .codegen
        .iter()
        .any(|f| matches!(f, IrFinding::AtomicContradiction { .. }));
    verifier(if race_ok { "race-ok" } else { "race-mismatch" });
    outcome.bounds_proved = true;
    outcome.determinism = Some(stat.determinism.class);
    metrics.inc_labeled(
        ugrapher_obs::metrics::ANALYZE_DETERMINISM,
        "class",
        stat.determinism.class.label(),
    );
    for lint in &stat.schedule_lints {
        outcome
            .findings
            .push(fail(format!("schedule lint: {lint}")));
    }
    verifier(if stat.codegen.is_empty() {
        "lint-ok"
    } else {
        "lint-finding"
    });
    for finding in &stat.codegen {
        outcome.findings.push(fail(format!("IR lint: {finding}")));
    }
    outcome.static_witness = stat.race.witness.is_some();
    match cross_check_plan(graph, &stat.plan, device) {
        Ok(cc) => {
            verifier("dynamic-ok");
            outcome.dynamic_conflict = cc.observed_conflicts();
        }
        Err(e) => {
            verifier("dynamic-mismatch");
            outcome.findings.push(fail(e.to_string()));
        }
    }
    outcome
}

/// Sweeps the full operator registry × [`Strategy::ALL`] × knob variants,
/// running the static pass, the IR verifier passes and the dynamic
/// cross-check on each combination and collecting every finding.
///
/// Combinations are analyzed on a scoped worker pool (they are mutually
/// independent); the report is folded in combo-enumeration order, so the
/// findings list, all counters and the `--json` rendering are
/// byte-deterministic regardless of worker interleaving.
pub fn analyze_registry(device: &DeviceConfig, cfg: &SweepConfig) -> SweepReport {
    analyze_registry_with_progress(device, cfg, None)
}

/// [`analyze_registry`] with a progress hook: `progress` is invoked after
/// every combination with the number checked so far (in this sweep,
/// monotonically increasing; completion order across workers is not
/// combo order). Each combination also bumps the process-wide
/// `ugrapher_analyze_combos_total` counter, which is what the
/// `analyze-registry --progress` flag reports.
pub fn analyze_registry_with_progress(
    device: &DeviceConfig,
    cfg: &SweepConfig,
    progress: Option<&mut (dyn FnMut(usize) + Send)>,
) -> SweepReport {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let trace_id = ugrapher_obs::next_trace_id();
    let mut span = ugrapher_obs::global().span_traced(
        "analyze.sweep",
        ugrapher_obs::SpanKind::Analyze,
        trace_id,
    );
    let metrics = ugrapher_obs::MetricsRegistry::global();
    let graph = cfg.graph();

    // Enumerate the combo space up front so workers claim indices and the
    // fold below can restore enumeration order.
    let mut combos: Vec<(OpInfo, ParallelInfo)> = Vec::new();
    for op in registry::all_valid_ops() {
        for strategy in Strategy::ALL {
            for &grouping in &cfg.groupings {
                for &tiling in &cfg.tilings {
                    combos.push((op, ParallelInfo::new(strategy, grouping, tiling)));
                }
            }
        }
    }

    let has_progress = progress.is_some();
    let progress = Mutex::new(progress);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<(usize, ComboOutcome)>> = Mutex::new(Vec::with_capacity(combos.len()));
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(combos.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, ComboOutcome)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= combos.len() {
                        break;
                    }
                    let (op, parallel) = combos[i];
                    metrics.inc(ugrapher_obs::metrics::ANALYZE_COMBOS);
                    local.push((i, analyze_combo(&graph, device, cfg.feat, op, parallel)));
                    if has_progress {
                        // fetch_add under the lock keeps the reported
                        // counts monotonic across workers.
                        let mut hook = progress.lock().unwrap_or_else(|e| e.into_inner());
                        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if let Some(hook) = hook.as_deref_mut() {
                            hook(n);
                        }
                    }
                }
                outcomes
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(local);
            });
        }
    });

    let mut rows = outcomes.into_inner().unwrap_or_else(|e| e.into_inner());
    rows.sort_by_key(|(i, _)| *i);
    let mut report = SweepReport {
        trace_id,
        ..SweepReport::default()
    };
    for (_, outcome) in rows {
        report.combos_checked += 1;
        if outcome.bounds_proved {
            report.bounds_proved += 1;
        }
        if let Some(class) = outcome.determinism {
            report.determinism.record(class);
        }
        if outcome.static_witness {
            report.static_witnesses += 1;
        }
        if outcome.dynamic_conflict {
            report.dynamic_conflicts += 1;
        }
        report.findings.extend(outcome.findings);
    }
    if span.is_enabled() {
        span.attr("combos", report.combos_checked)
            .attr("findings", report.findings.len())
            .attr("bounds_proved", report.bounds_proved)
            .attr("determinism_labels", report.determinism.total());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_configs_avoid_degenerate_knobs() {
        for cfg in [SweepConfig::full(), SweepConfig::quick()] {
            assert!(cfg.feat.is_power_of_two());
            for &t in &cfg.tilings {
                assert!(t <= cfg.feat, "tiling {t} would clamp against {}", cfg.feat);
            }
            for &g in &cfg.groupings {
                assert!(g < cfg.num_vertices && g < cfg.num_edges);
            }
        }
    }

    #[test]
    fn report_json_round_trips() {
        let mut report = SweepReport {
            combos_checked: 3,
            static_witnesses: 1,
            dynamic_conflicts: 1,
            bounds_proved: 3,
            trace_id: 42,
            ..SweepReport::default()
        };
        report.determinism.record(DeterminismClass::Sequential);
        report
            .determinism
            .record(DeterminismClass::AtomicOrderDependent);
        let v = ugrapher_util::json::parse(&report.to_json()).unwrap();
        assert_eq!(v.field("combos_checked").unwrap().as_f64().unwrap(), 3.0);
        assert_eq!(v.field("bounds_proved").unwrap().as_f64().unwrap(), 3.0);
        assert!(v.field("clean").unwrap().as_bool().unwrap());
        assert_eq!(v.field("trace_id").unwrap().as_f64().unwrap(), 42.0);
        let d = v.field("determinism").unwrap();
        assert_eq!(d.field("sequential").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(
            d.field("atomic_order_dependent").unwrap().as_f64().unwrap(),
            1.0
        );
        assert_eq!(v.field("findings").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn findings_serialize_with_context() {
        let report = SweepReport {
            combos_checked: 1,
            findings: vec![SweepFinding {
                op: ugrapher_core::abstraction::OpInfo::aggregation_sum(),
                schedule: ParallelInfo::basic(Strategy::ThreadEdge),
                detail: "synthetic \"finding\"".to_owned(),
            }],
            ..SweepReport::default()
        };
        let v = ugrapher_util::json::parse(&report.to_json()).unwrap();
        assert!(!v.field("clean").unwrap().as_bool().unwrap());
        let f = &v.field("findings").unwrap().as_arr().unwrap()[0];
        assert!(f
            .field("detail")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("finding"));
        assert!(f
            .field("schedule")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("TE"));
    }
}
