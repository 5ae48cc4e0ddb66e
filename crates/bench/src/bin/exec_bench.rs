//! Functional-executor, admission and dense-GEMM benchmark: host time of
//! `exec::execute` for the serve workload's three operators plus max
//! aggregation, and of request admission (`GraphTensor::new` plus two
//! `Tensor2::validate_finite` calls), on three graph sizes at feature
//! width 32; and of `ugrapher_tensor::gemm` at the layer shapes of the
//! gnn-infer workload's models (dense lhs for a first layer, ReLU'd lhs,
//! about half zeros, after an activation), plus one cell whose rhs holds an
//! infinity, which runs the zero-skip kernels. Each slot records the
//! instruction-set tier the host kernels ran at (`host_isa`). Admission is
//! timed twice:
//! `first_admit_us` wraps a graph whose admission memo is still empty (a
//! never-admitted clone per call), `admit_us` wraps the same graph again
//! and again, as repeat requests and op sites do.
//!
//! Usage: `exec_bench [--smoke] [--slot <name>] [--fresh]`. A run replaces
//! one slot of `results/BENCH_exec.json` and keeps the others, so the file
//! holds `before` (measured on the parent commit) and `after` side by
//! side, plus their ratio. `--slot` defaults to `after`; `--smoke` runs one
//! short repetition without the largest graph into the `smoke` slot, which
//! CI checks for shape only (no wall-clock threshold).
//!
//! Each run also appends its headline means to the slot's `runs` list
//! (`--fresh` starts the list anew), and the ratio compares the medians
//! over runs: drift between processes minutes apart can exceed one run's
//! quartile band. Record at least three alternating `before` / `after`
//! runs, the first of each with `--fresh`.
//!
//! Each figure is the median over repetitions of the mean host µs per
//! call, stored with the lower and upper quartile over repetitions
//! (`<figure>_q1`, `<figure>_q3`); a repetition repeats the call until it
//! has run for a fixed time, after one untimed warm-up call. Admission is
//! also split into its un-memoised parts (fingerprint, structural
//! validation, degree statistics, one finite check) so the cost of each
//! check is on record.

// Benchmark driver: exiting on a broken invariant is the right behaviour.
#![allow(clippy::unwrap_used)]

use std::hint::black_box;
use std::time::{Duration, Instant};

use ugrapher_bench::{mean_quartiles, print_table, quartiles, save_slot, with_quartiles, SlotArgs};
use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::api::GraphTensor;
use ugrapher_core::exec::{execute, OpOperands};
use ugrapher_graph::generate::{DegreeModel, GraphSpec};
use ugrapher_graph::Graph;
use ugrapher_tensor::{gemm, HostIsa, Tensor2};
use ugrapher_util::json::Value;
use ugrapher_util::rng::StdRng;

const FEAT: usize = 32;
const REPS: usize = 7;

/// The gnn-infer layer shapes `(m, k, n, relu, finite)`, with `m` a
/// typical vertex count: GCN and SAGE-mean project 32 input features to 16
/// and, after a ReLU, 16 to 8 classes; GIN and GAT, on graphs about a fifth
/// the size, run 32 to 64, 64 to 64 and 64 to 8. The last cell repeats
/// 64 to 64 with one infinity in the rhs, which keeps the zero skip.
const GEMM_SHAPES: [(usize, usize, usize, bool, bool); 6] = [
    (5000, 32, 16, false, true),
    (5000, 16, 8, true, true),
    (1000, 32, 64, false, true),
    (1000, 64, 64, true, true),
    (1000, 64, 8, true, true),
    (1000, 64, 64, true, false),
];

/// The benchmark's graphs, by name: serve-sized small and medium graphs
/// and one larger one.
fn graphs(smoke: bool) -> Vec<(&'static str, Graph)> {
    let sizes: &[(&str, usize, usize)] = if smoke {
        &[("small", 500, 2_000), ("medium", 3_000, 12_000)]
    } else {
        &[
            ("small", 500, 2_000),
            ("medium", 3_000, 12_000),
            ("large", 16_000, 128_000),
        ]
    };
    sizes
        .iter()
        .map(|&(name, nv, ne)| {
            let g = GraphSpec {
                num_vertices: nv,
                num_edges: ne,
                degree_model: DegreeModel::TargetStd { std: 4.0 },
                locality: 0.5,
                seed: ne as u64,
            }
            .build();
            (name, g)
        })
        .collect()
}

/// Seeded values in `[-1, 1)`.
fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor2 {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor2::from_fn(rows, cols, |_, _| rng.random::<f32>() * 2.0 - 1.0)
}

/// Quartiles over `reps` repetitions of the mean µs per `f()` call. A
/// repetition repeats the call for at least `min_time`.
fn time_us(reps: usize, min_time: Duration, mut f: impl FnMut()) -> [f64; 3] {
    f();
    let mut rep = || {
        let (t0, mut calls) = (Instant::now(), 0u32);
        while calls == 0 || t0.elapsed() < min_time {
            f();
            calls += 1;
        }
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
    };
    quartiles((0..reps).map(|_| rep()).collect())
}

/// [`time_us`] for `f(&input)` where each call gets its own `make()`,
/// built and dropped outside the timed span.
fn time_fresh_us<T>(
    reps: usize,
    min_time: Duration,
    mut make: impl FnMut() -> T,
    mut f: impl FnMut(&T),
) -> [f64; 3] {
    f(&make());
    let mut rep = || {
        let (mut timed, mut calls) = (Duration::ZERO, 0u32);
        while calls == 0 || timed < min_time {
            let input = make();
            let t0 = Instant::now();
            f(&input);
            timed += t0.elapsed();
            drop(input);
            calls += 1;
        }
        timed.as_secs_f64() * 1e6 / f64::from(calls)
    };
    quartiles((0..reps).map(|_| rep()).collect())
}

fn main() {
    let SlotArgs { smoke, slot, fresh } = SlotArgs::from_env();
    let (reps, min_time) = if smoke {
        (1, Duration::from_millis(2))
    } else {
        (REPS, Duration::from_millis(40))
    };

    let mut exec_cells = Vec::new();
    let mut admit_cells = Vec::new();
    let mut exec_rows = Vec::new();
    let mut admit_rows = Vec::new();
    let mut exec_quartiles = Vec::new();
    let mut first_admit_quartiles = Vec::new();
    let mut admit_quartiles = Vec::new();
    for (name, g) in graphs(smoke) {
        // Never admitted, so each of its clones starts with an empty memo.
        let pristine = g.clone();
        let (nv, ne) = (g.num_vertices(), g.num_edges());
        let x = tensor(nv, FEAT, 1);
        let y = tensor(nv, FEAT, 2);
        let w = tensor(ne, 1, 3).map(|v| v.abs() + 0.1);
        let ops = [
            (
                "weighted_sum",
                OpInfo::weighted_aggregation_sum(),
                OpOperands::pair(&x, &w),
            ),
            (
                "message_add",
                OpInfo::message_creation_add(),
                OpOperands::pair(&x, &y),
            ),
            ("mean", OpInfo::aggregation_mean(), OpOperands::single(&x)),
            ("max", OpInfo::aggregation_max(), OpOperands::single(&x)),
        ];
        for (label, op, operands) in ops {
            let us = time_us(reps, min_time, || {
                black_box(execute(black_box(&g), &op, &operands).unwrap());
            });
            exec_rows.push(vec![
                name.to_owned(),
                nv.to_string(),
                ne.to_string(),
                label.to_owned(),
                format!("{:.1}", us[1]),
            ]);
            exec_quartiles.push(us);
            exec_cells.push(with_quartiles(
                Value::obj(vec![
                    ("graph", Value::Str(name.to_owned())),
                    ("vertices", Value::Num(nv as f64)),
                    ("edges", Value::Num(ne as f64)),
                    ("op", Value::Str(label.to_owned())),
                ]),
                "execute_us",
                us,
            ));
        }

        let admit = |g: &Graph| {
            let gt = GraphTensor::new(black_box(g));
            assert!(gt.validation_error().is_none());
            black_box(gt);
            black_box(&x).validate_finite().unwrap();
            black_box(&y).validate_finite().unwrap();
        };
        let first_admit_us = time_fresh_us(reps, min_time, || pristine.clone(), admit);
        let admit_us = time_us(reps, min_time, || admit(&g));
        let fingerprint_us = time_us(reps, min_time, || {
            black_box(black_box(&g).structural_fingerprint());
        });
        let validate_us = time_us(reps, min_time, || {
            black_box(&g).validate().unwrap();
        });
        let stats_us = time_us(reps, min_time, || {
            black_box(black_box(&g).degree_stats());
        });
        let finite_us = time_us(reps, min_time, || {
            black_box(&x).validate_finite().unwrap();
        });
        let figures = [
            ("first_admit_us", first_admit_us),
            ("admit_us", admit_us),
            ("fingerprint_us", fingerprint_us),
            ("validate_us", validate_us),
            ("degree_stats_us", stats_us),
            ("finite_us", finite_us),
        ];
        let mut row = vec![name.to_owned(), nv.to_string(), ne.to_string()];
        row.extend(figures.iter().map(|(_, q)| format!("{:.1}", q[1])));
        admit_rows.push(row);
        first_admit_quartiles.push(first_admit_us);
        admit_quartiles.push(admit_us);
        admit_cells.push(figures.into_iter().fold(
            Value::obj(vec![
                ("graph", Value::Str(name.to_owned())),
                ("vertices", Value::Num(nv as f64)),
                ("edges", Value::Num(ne as f64)),
            ]),
            |cell, (key, q)| with_quartiles(cell, key, q),
        ));
    }

    let mut gemm_cells = Vec::new();
    let mut gemm_rows = Vec::new();
    let mut gemm_quartiles = Vec::new();
    for (seed, &(m, k, n, relu, finite)) in (10..).zip(&GEMM_SHAPES) {
        let lhs = tensor(m, k, seed);
        let a = if relu { lhs.relu() } else { lhs };
        let mut b = tensor(k, n, seed + 100);
        if !finite {
            b.as_mut_slice()[0] = f32::INFINITY;
        }
        let us = time_us(reps, min_time, || {
            black_box(gemm(black_box(&a), black_box(&b)).unwrap());
        });
        let kind = if relu { "relu" } else { "dense" };
        let rhs = if finite { "finite" } else { "nonfinite" };
        gemm_rows.push(vec![
            m.to_string(),
            k.to_string(),
            n.to_string(),
            kind.to_owned(),
            rhs.to_owned(),
            format!("{:.1}", us[1]),
        ]);
        gemm_quartiles.push(us);
        gemm_cells.push(with_quartiles(
            Value::obj(vec![
                ("m", Value::Num(m as f64)),
                ("k", Value::Num(k as f64)),
                ("n", Value::Num(n as f64)),
                ("lhs", Value::Str(kind.to_owned())),
                ("rhs", Value::Str(rhs.to_owned())),
            ]),
            "gemm_us",
            us,
        ));
    }

    print_table(
        &format!("exec::execute host time, feat {FEAT} ({slot})"),
        &["graph", "|V|", "|E|", "op", "us/execute"],
        &exec_rows,
    );
    print_table(
        &format!("admission host time ({slot})"),
        &[
            "graph",
            "|V|",
            "|E|",
            "first admit us",
            "admit us",
            "fingerprint",
            "validate",
            "degree stats",
            "finite x1",
        ],
        &admit_rows,
    );
    print_table(
        &format!("gemm host time ({slot})"),
        &["m", "k", "n", "lhs", "rhs", "us/gemm"],
        &gemm_rows,
    );
    let mean_execute_us = mean_quartiles(&exec_quartiles);
    let mean_first_admit_us = mean_quartiles(&first_admit_quartiles);
    let mean_admit_us = mean_quartiles(&admit_quartiles);
    let mean_gemm_us = mean_quartiles(&gemm_quartiles);
    let host_isa = HostIsa::detect().name();
    println!(
        "mean over cells: {:.1} us/execute, {:.1} us/first admission, {:.1} us/admission, \
         {:.1} us/gemm; host kernels at {host_isa}",
        mean_execute_us[1], mean_first_admit_us[1], mean_admit_us[1], mean_gemm_us[1]
    );

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = Value::obj(vec![
        ("smoke", Value::Bool(smoke)),
        ("reps", Value::Num(reps as f64)),
        ("host_threads", Value::Num(threads as f64)),
        ("host_isa", Value::Str(host_isa.to_owned())),
        ("feat", Value::Num(FEAT as f64)),
        ("execute", Value::Arr(exec_cells)),
        ("admit", Value::Arr(admit_cells)),
        ("gemm", Value::Arr(gemm_cells)),
    ]);
    let run = with_quartiles(run, "mean_execute_us", mean_execute_us);
    let run = with_quartiles(run, "mean_first_admit_us", mean_first_admit_us);
    let run = with_quartiles(run, "mean_admit_us", mean_admit_us);
    let run = with_quartiles(run, "mean_gemm_us", mean_gemm_us);
    save_slot(
        "BENCH_exec",
        &slot,
        run,
        &[
            ("mean_execute_us", &["mean_execute_us"]),
            ("mean_first_admit_us", &["mean_first_admit_us"]),
            ("mean_admit_us", &["mean_admit_us"]),
            ("mean_gemm_us", &["mean_gemm_us"]),
        ],
        fresh,
    );
}
