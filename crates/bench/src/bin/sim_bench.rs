//! Simulator throughput benchmark: host time of `exec::measure` over the
//! golden matrix of `crates/core/tests/sim_golden.rs`, plus one
//! 196-candidate `grid_search_budgeted` on a 240-vertex graph, with the
//! number of distinct kernels it simulated (`measured`: 168 at feat 32,
//! where tiling 64 clamps to tiling 32's kernel), and one plan-cache miss
//! of a fresh `Runtime` (`Runtime::compiled_plan`, auto-tuned over the
//! same 196 candidates) on that graph, with the kernels it ran to their
//! report (`measured`) and stopped once they could not win (`stopped`).
//!
//! Usage: `sim_bench [--smoke] [--slot <name>] [--fresh]`. A run replaces
//! one slot of `results/BENCH_sim.json` and keeps the others, so the file
//! holds `before` (measured on the parent commit's simulator) and `after`
//! side by side, plus their ratio. `--slot` defaults to `after`; `--smoke`
//! runs a single repetition of a trimmed matrix into the `smoke` slot,
//! which CI checks for shape only (no wall-clock threshold).
//!
//! Each run also appends its two headline figures to the slot's `runs`
//! list (`--fresh` starts the list anew), and the ratio compares the
//! medians over runs: drift between processes minutes apart can exceed
//! one run's quartile band. Record at least three alternating `before` /
//! `after` runs, the first of each with `--fresh`.
//!
//! Each matrix cell is one (device, schedule, graph) triple; its figure is
//! the median over repetitions of the mean host µs per `measure` call
//! across the cell's three operators × two fidelities, stored with the
//! lower and upper quartile over repetitions (`<figure>_q1`,
//! `<figure>_q3`), as are the grid search's and the runtime miss's. Devices form the
//! outer loop, as in a process that targets one GPU, and one untimed pass
//! per cell runs first, so lazily built per-thread state is warm.

// Benchmark driver: exiting on a broken invariant is the right behaviour.
#![allow(clippy::unwrap_used)]

use std::time::Instant;

use ugrapher_bench::{mean_quartiles, print_table, quartiles, save_slot, with_quartiles, SlotArgs};
use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::api::{GraphTensor, Runtime};
use ugrapher_core::exec::{measure, Fidelity, MeasureOptions};
use ugrapher_core::plan::KernelPlan;
use ugrapher_core::schedule::{ParallelInfo, Strategy};
use ugrapher_core::tune::{grid_search_budgeted, TuneBudget};
use ugrapher_graph::generate::{DegreeModel, GraphSpec};
use ugrapher_graph::Graph;
use ugrapher_obs::{metrics, MetricsRegistry};
use ugrapher_sim::DeviceConfig;
use ugrapher_util::json::Value;

const FEAT: usize = 32;
const REPS: usize = 7;
const GRID_REPS: usize = 5;

fn spec(nv: usize, ne: usize, degree_model: DegreeModel, locality: f64, seed: u64) -> Graph {
    GraphSpec {
        num_vertices: nv,
        num_edges: ne,
        degree_model,
        locality,
        seed,
    }
    .build()
}

/// The golden test's graphs, by name.
fn graphs(smoke: bool) -> Vec<(&'static str, Graph)> {
    let mut g = vec![
        (
            "skewed",
            spec(300, 1200, DegreeModel::TargetStd { std: 4.0 }, 0.5, 7),
        ),
        (
            "hub",
            spec(400, 2400, DegreeModel::PowerLaw { alpha: 2.0 }, 0.2, 11),
        ),
        ("large", spec(3000, 30000, DegreeModel::NearRegular, 0.8, 3)),
        ("edgeless", spec(64, 0, DegreeModel::NearRegular, 0.0, 1)),
        ("single", spec(1, 3, DegreeModel::NearRegular, 0.0, 5)),
    ];
    if smoke {
        g.retain(|(name, _)| *name != "large");
    }
    g
}

fn schedules() -> Vec<ParallelInfo> {
    let mut s = ParallelInfo::basics();
    s.push(ParallelInfo::new(Strategy::WarpEdge, 8, 1));
    s.push(ParallelInfo::new(Strategy::ThreadVertex, 1, 4));
    s
}

fn ops() -> Vec<(OpInfo, (bool, bool))> {
    vec![
        (OpInfo::aggregation_sum(), (false, false)),
        (OpInfo::message_creation_add(), (false, false)),
        (OpInfo::weighted_aggregation_sum(), (false, true)),
    ]
}

/// Host µs per `measure` for one cell: every op × fidelity once.
fn time_cell(g: &Graph, p: ParallelInfo, options: &[MeasureOptions]) -> f64 {
    let plans: Vec<KernelPlan> = ops()
        .into_iter()
        .map(|(op, (a, b))| {
            KernelPlan::generate(op, p, g.num_vertices(), g.num_edges(), FEAT)
                .unwrap()
                .with_scalar_operands(a, b)
        })
        .collect();
    let t0 = Instant::now();
    for o in options {
        for plan in &plans {
            std::hint::black_box(measure(g, plan, o));
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / (options.len() * plans.len()) as f64
}

/// The grid-search graph, the quartiles of its host ms, and the kernels one
/// search simulated (read off the `TUNING_EVALUATIONS` counter).
fn grid_search_ms(reps: usize) -> (Graph, [f64; 3], u64) {
    let g = spec(240, 1440, DegreeModel::TargetStd { std: 3.0 }, 0.5, 240);
    let space = ParallelInfo::space();
    assert_eq!(space.len(), 196);
    let options = MeasureOptions::auto(DeviceConfig::v100());
    let op = OpInfo::weighted_aggregation_sum();
    let run = || {
        let t0 = Instant::now();
        let r = grid_search_budgeted(
            &g,
            &op,
            FEAT,
            (false, true),
            &options,
            &space,
            TuneBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(r.all.len() + r.illegal, 196);
        t0.elapsed().as_secs_f64() * 1e3
    };
    let evaluations = || MetricsRegistry::global().counter(metrics::TUNING_EVALUATIONS);
    let before = evaluations();
    run();
    let measured = evaluations() - before;
    let ms = quartiles((0..reps).map(|_| run()).collect());
    (g, ms, measured)
}

/// The quartiles of host ms for one plan-cache miss of a fresh `Runtime`
/// on `g`, and the kernels one miss ran to their report (read off
/// `KERNELS_LAUNCHED`) and stopped early (the rest of its
/// `TUNING_EVALUATIONS`).
fn runtime_miss_ms(g: &Graph, reps: usize) -> ([f64; 3], u64, u64) {
    let graph = GraphTensor::new(g);
    let op = OpInfo::weighted_aggregation_sum();
    let run = || {
        let rt = Runtime::new(DeviceConfig::v100());
        let t0 = Instant::now();
        let (entry, hit) = rt
            .compiled_plan(&graph, &op, None, FEAT, (false, true), 0)
            .unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(!hit, "a runtime without a plan cache always misses");
        std::hint::black_box(entry);
        ms
    };
    let counter = |name| MetricsRegistry::global().counter(name);
    let (evaluations, launched) = (
        counter(metrics::TUNING_EVALUATIONS),
        counter(metrics::KERNELS_LAUNCHED),
    );
    run();
    let measured = counter(metrics::KERNELS_LAUNCHED) - launched;
    let stopped = counter(metrics::TUNING_EVALUATIONS) - evaluations - measured;
    let ms = quartiles((0..reps).map(|_| run()).collect());
    (ms, measured, stopped)
}

fn main() {
    let SlotArgs { smoke, slot, fresh } = SlotArgs::from_env();
    let (reps, grid_reps) = if smoke { (1, 1) } else { (REPS, GRID_REPS) };

    let graphs = graphs(smoke);
    let schedules = schedules();

    let mut cells = Vec::new();
    let mut rows = Vec::new();
    let mut cell_quartiles = Vec::new();
    for device in [DeviceConfig::v100(), DeviceConfig::a100()] {
        let options = [Fidelity::Full, Fidelity::Auto]
            .map(|f| MeasureOptions::new(device.clone()).with_fidelity(f));
        for (name, g) in &graphs {
            for &p in &schedules {
                time_cell(g, p, &options);
                let us = quartiles((0..reps).map(|_| time_cell(g, p, &options)).collect());
                cell_quartiles.push(us);
                rows.push(vec![
                    device.name.clone(),
                    p.label(),
                    name.to_string(),
                    g.num_vertices().to_string(),
                    g.num_edges().to_string(),
                    format!("{:.1}", us[1]),
                ]);
                cells.push(with_quartiles(
                    Value::obj(vec![
                        ("device", Value::Str(device.name.clone())),
                        ("schedule", Value::Str(p.label())),
                        ("graph", Value::Str(name.to_string())),
                        ("vertices", Value::Num(g.num_vertices() as f64)),
                        ("edges", Value::Num(g.num_edges() as f64)),
                    ]),
                    "measure_us",
                    us,
                ));
            }
        }
    }
    let mean_us = mean_quartiles(&cell_quartiles);
    let (grid_graph, grid_ms, grid_measured) = grid_search_ms(grid_reps);
    let (miss_ms, miss_measured, miss_stopped) = runtime_miss_ms(&grid_graph, grid_reps);

    print_table(
        &format!("exec::measure host time ({slot})"),
        &["device", "schedule", "graph", "|V|", "|E|", "us/measure"],
        &rows,
    );
    println!("mean over cells: {:.1} us/measure", mean_us[1]);
    println!(
        "grid_search_budgeted, 196 candidates ({grid_measured} kernels measured), |V|={} |E|={}: {:.1} ms",
        grid_graph.num_vertices(),
        grid_graph.num_edges(),
        grid_ms[1]
    );
    println!(
        "Runtime::compiled_plan miss, 196 candidates ({miss_measured} kernels measured, \
         {miss_stopped} stopped): {:.1} ms",
        miss_ms[1]
    );

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = Value::obj(vec![
        ("smoke", Value::Bool(smoke)),
        ("reps", Value::Num(reps as f64)),
        ("host_threads", Value::Num(threads as f64)),
        ("cells", Value::Arr(cells)),
        (
            "grid_search",
            with_quartiles(
                Value::obj(vec![
                    ("candidates", Value::Num(196.0)),
                    ("measured", Value::Num(grid_measured as f64)),
                    ("vertices", Value::Num(grid_graph.num_vertices() as f64)),
                    ("edges", Value::Num(grid_graph.num_edges() as f64)),
                ]),
                "ms",
                grid_ms,
            ),
        ),
        (
            "runtime_miss",
            with_quartiles(
                Value::obj(vec![
                    ("candidates", Value::Num(196.0)),
                    ("measured", Value::Num(miss_measured as f64)),
                    ("stopped", Value::Num(miss_stopped as f64)),
                    ("vertices", Value::Num(grid_graph.num_vertices() as f64)),
                    ("edges", Value::Num(grid_graph.num_edges() as f64)),
                ]),
                "ms",
                miss_ms,
            ),
        ),
    ]);
    let run = with_quartiles(run, "mean_measure_us", mean_us);

    save_slot(
        "BENCH_sim",
        &slot,
        run,
        &[
            ("mean_measure_us", &["mean_measure_us"]),
            ("grid_search_ms", &["grid_search", "ms"]),
            ("runtime_miss_ms", &["runtime_miss", "ms"]),
        ],
        fresh,
    );
}
