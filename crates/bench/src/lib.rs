//! # ugrapher-bench
//!
//! The benchmark harness: one binary per table/figure of the paper's
//! evaluation (see DESIGN.md §4 for the full index), plus Criterion
//! micro-benches. Every binary prints the same rows/series the paper
//! reports; EXPERIMENTS.md records paper-vs-measured for each.
//!
//! ## Scale control
//!
//! Real Table 3 datasets reach 4.9 M edges; the default harness scale is
//! `UGRAPHER_SCALE=0.05` (5% of paper size, same degree statistics), which
//! keeps the full suite in the minutes range. Set `UGRAPHER_SCALE=full` (or
//! any ratio like `0.25`) to change it. `UGRAPHER_QUICK=1` shrinks dataset
//! lists for smoke runs.

use std::io::Write;
use std::path::PathBuf;

use ugrapher_util::json::{self, FromJson, ToJson, Value};

use ugrapher_baselines::{DglBackend, GnnAdvisorBackend, PygBackend};
use ugrapher_gnn::{run_inference, GraphOpBackend, ModelConfig, ModelKind, UGrapherBackend};
use ugrapher_graph::datasets::{DatasetInfo, Scale};
use ugrapher_graph::Graph;
use ugrapher_sim::DeviceConfig;
use ugrapher_tensor::Tensor2;

pub mod sweep;

/// The dataset scale selected by `UGRAPHER_SCALE` (default `0.05`).
pub fn scale() -> Scale {
    match std::env::var("UGRAPHER_SCALE").ok().as_deref() {
        Some("full") | Some("FULL") => Scale::Full,
        Some(s) => Scale::Ratio(s.parse().unwrap_or(0.05)),
        None => Scale::Ratio(0.05),
    }
}

/// Whether `UGRAPHER_QUICK=1` smoke mode is on.
pub fn quick() -> bool {
    std::env::var("UGRAPHER_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The evaluation dataset abbreviations (paper Table 9 uses nine; quick
/// mode trims to four).
pub fn eval_datasets() -> Vec<&'static str> {
    if quick() {
        vec!["CO", "PR", "AR", "TW"]
    } else {
        ugrapher_graph::datasets::groups::EVAL_NINE.to_vec()
    }
}

/// Builds a dataset's graph and an input feature tensor at harness scale.
/// Feature dimensions are capped at 256 so the functional pass on scaled
/// citation graphs (cora's 1433 features) stays cheap; the cap is recorded
/// in EXPERIMENTS.md.
pub fn load(dataset: &DatasetInfo) -> (Graph, Tensor2) {
    let graph = dataset.build(scale());
    let feat = dataset.feature_dim.min(256);
    let x = Tensor2::from_fn(graph.num_vertices(), feat, |r, c| {
        ((r * 31 + c * 7) % 23) as f32 * 0.03
    });
    (graph, x)
}

/// The four systems of the comparison, in the paper's order.
pub fn backends(device: &DeviceConfig) -> Vec<Box<dyn GraphOpBackend>> {
    vec![
        Box::new(DglBackend::new(device.clone())),
        Box::new(PygBackend::new(device.clone())),
        Box::new(GnnAdvisorBackend::new(device.clone())),
        Box::new(UGrapherBackend::new(device.clone())),
    ]
}

/// Runs one (model, dataset, backend) cell of the Fig. 13 sweep, returning
/// total inference time in ms, or `None` if the backend does not support
/// the model (GNNAdvisor beyond GCN/GIN — the paper's missing bars) or the
/// run failed. A failure is reported on stderr and rendered as a missing
/// bar instead of aborting the whole sweep.
pub fn end_to_end_ms(
    kind: ModelKind,
    graph: &Graph,
    x: &Tensor2,
    num_classes: usize,
    backend: &dyn GraphOpBackend,
) -> Option<f64> {
    if !backend.supports(kind) {
        return None;
    }
    let model = ModelConfig::paper_default(kind);
    match run_inference(&model, graph, x, num_classes, backend) {
        Ok(res) => Some(res.total_ms()),
        Err(e) => {
            eprintln!("[skipped] {} on {kind:?} failed: {e}", backend.name());
            None
        }
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!(
                "{:>w$}  ",
                cell,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Directory where figure binaries persist their JSON results
/// (`results/`, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("can create results dir");
    dir
}

/// Saves a serializable result under `results/<name>.json`.
pub fn save_json<T: ToJson>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("can create results file");
    let json = ugrapher_util::json::to_string(value);
    f.write_all(json.as_bytes())
        .expect("can write results file");
    println!("[saved results/{name}.json]");
}

/// The lower quartile, median and upper quartile of `xs`: the sorted
/// samples at ranks `n / 4`, `n / 2` (the upper median for an even count)
/// and `3n / 4`. `NaN`s when empty.
pub fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    [n / 4, n / 2, 3 * n / 4].map(|i| xs.get(i).copied().unwrap_or(f64::NAN))
}

/// The element-wise mean of per-cell quartiles: a band that holds the mean
/// over cells whenever every cell lies within its own quartiles.
pub fn mean_quartiles(cells: &[[f64; 3]]) -> [f64; 3] {
    let n = cells.len() as f64;
    [0, 1, 2].map(|i| cells.iter().map(|q| q[i]).sum::<f64>() / n)
}

/// Object `obj` with `key` set to the median of `q` and `key_q1` /
/// `key_q3` to its lower and upper quartile.
pub fn with_quartiles(mut obj: Value, key: &str, [q1, median, q3]: [f64; 3]) -> Value {
    if let Value::Obj(m) = &mut obj {
        m.insert(key.to_owned(), Value::Num(median));
        m.insert(format!("{key}_q1"), Value::Num(q1));
        m.insert(format!("{key}_q3"), Value::Num(q3));
    }
    obj
}

/// The command line of a slot-writing benchmark binary:
/// `[--smoke] [--slot <name>] [--fresh]`.
pub struct SlotArgs {
    /// `--smoke`: a short run, for shape checks only.
    pub smoke: bool,
    /// The slot to write: `--slot`, else `smoke` or `after`.
    pub slot: String,
    /// `--fresh`: start the slot's `runs` list anew.
    pub fresh: bool,
}

impl SlotArgs {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics if `--slot` is not followed by a name.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let smoke = args.iter().any(|a| a == "--smoke");
        let slot = match args.iter().position(|a| a == "--slot") {
            Some(i) => args.get(i + 1).expect("--slot needs a name").clone(),
            None if smoke => "smoke".to_owned(),
            None => "after".to_owned(),
        };
        let fresh = args.iter().any(|a| a == "--fresh");
        Self { smoke, slot, fresh }
    }
}

/// Replaces slot `slot` of `results/<name>.json` with `run`, keeping the
/// other slots, so one file holds `before` runs (measured on the parent
/// commit) beside `after` runs and a `smoke` run.
///
/// Each figure in `ratios` (a result key and its path inside a run) is
/// also appended, with its quartiles where the run has them (the path's
/// last key suffixed `_q1` / `_q3`, as written by [`with_quartiles`]), to
/// the slot's `runs` list, which the new slot carries over from the one it
/// replaces unless `fresh`. Drift between process runs minutes apart can
/// exceed one run's spread, so a comparison should rest on several
/// alternating `before` / `after` runs. When both slots' runs hold every
/// figure, `after_over_before` stores, per figure, the median over the
/// `after` runs' medians divided by the same over `before`, and
/// `iqr_overlap` whether the two slots' bands overlap; a slot's band runs
/// from its runs' lowest lower quartile to their highest upper quartile,
/// so it spans both the spread within runs and the drift between them. A
/// ratio whose bands overlap is not a measured change.
pub fn save_slot(name: &str, slot: &str, mut run: Value, ratios: &[(&str, &[&str])], fresh: bool) {
    let path = results_dir().join(format!("{name}.json"));
    let mut doc = match std::fs::read_to_string(&path).ok().map(|s| json::parse(&s)) {
        Some(Ok(Value::Obj(m))) => m,
        _ => Default::default(),
    };
    let runs_of = |slot: &Value| slot.get("runs")?.as_arr().map(<[Value]>::to_vec);
    let mut runs = match doc.get(slot).and_then(runs_of) {
        Some(runs) if !fresh => runs,
        _ => Vec::new(),
    };
    runs.push(run_figures(&run, ratios));
    if let Value::Obj(m) = &mut run {
        m.insert("runs".to_owned(), Value::Arr(runs));
    }
    doc.insert(slot.to_owned(), run);
    let slot_runs = |slot| doc.get(slot).and_then(runs_of).unwrap_or_default();
    let (before, after) = (slot_runs("before"), slot_runs("after"));
    let ratios: Option<Vec<(&str, f64, Option<bool>)>> = ratios
        .iter()
        .map(|&(key, _)| {
            let (ratio, overlap) = compare_runs(&before, &after, key)?;
            Some((key, ratio, overlap))
        })
        .collect();
    if let Some(ratios) = ratios {
        let shown: Vec<String> = ratios
            .iter()
            .map(|(k, r, overlap)| {
                let spread = match overlap {
                    Some(true) => "bands overlap",
                    Some(false) => "bands disjoint",
                    None => "no IQR",
                };
                format!("{k} {r:.3}x ({spread})")
            })
            .collect();
        println!(
            "after/before over {} before and {} after runs: {}",
            before.len(),
            after.len(),
            shown.join(", ")
        );
        let obj = ratios.iter().map(|&(k, r, _)| (k, Value::Num(r))).collect();
        doc.insert("after_over_before".to_owned(), Value::obj(obj));
        let overlaps = ratios
            .iter()
            .filter_map(|&(k, _, o)| Some((k, Value::Bool(o?))))
            .collect();
        doc.insert("iqr_overlap".to_owned(), Value::obj(overlaps));
    }
    std::fs::write(&path, Value::Obj(doc).to_string_compact())
        .unwrap_or_else(|e| panic!("can write {}: {e}", path.display()));
    println!("[saved results/{name}.json]");
}

/// The `ratios` figures of one run, keyed by ratio name: each median, with
/// its `_q1` / `_q3` quartiles where the run has them.
fn run_figures(run: &Value, ratios: &[(&str, &[&str])]) -> Value {
    let mut figures = std::collections::BTreeMap::new();
    for &(key, path) in ratios {
        let Some((last, parents)) = path.split_last() else {
            continue;
        };
        let Some(obj) = parents.iter().try_fold(run, |v, k| v.get(k)) else {
            continue;
        };
        for suffix in ["", "_q1", "_q3"] {
            if let Some(v) = obj.get(&format!("{last}{suffix}")) {
                figures.insert(format!("{key}{suffix}"), v.clone());
            }
        }
    }
    Value::Obj(figures)
}

/// Figure `key` over two slots' `runs` lists: the median of the `after`
/// runs' medians over the same for `before`, and, where every run has
/// quartiles, whether the slots' bands overlap (a band runs from the
/// lowest lower quartile to the highest upper quartile of a slot's runs).
/// `None` unless both lists are non-empty and every run has the figure.
fn compare_runs(before: &[Value], after: &[Value], key: &str) -> Option<(f64, Option<bool>)> {
    let over = |runs: &[Value], key: &str| -> Option<Vec<f64>> {
        if runs.is_empty() {
            return None;
        }
        runs.iter().map(|r| r.get(key)?.as_f64()).collect()
    };
    let median = |runs| Some(quartiles(over(runs, key)?)[1]);
    let ratio = median(after)? / median(before)?;
    let band = |runs| {
        let q1 = over(runs, &format!("{key}_q1"))?;
        let q3 = over(runs, &format!("{key}_q3"))?;
        Some((
            q1.into_iter().fold(f64::INFINITY, f64::min),
            q3.into_iter().fold(f64::NEG_INFINITY, f64::max),
        ))
    };
    let overlap = band(before)
        .zip(band(after))
        .map(|((b1, b3), (a1, a3))| a1 <= b3 && b1 <= a3);
    Some((ratio, overlap))
}

/// Loads a previously saved result, if present and parseable.
pub fn load_json<T: FromJson>(name: &str) -> Option<T> {
    let path = results_dir().join(format!("{name}.json"));
    let data = std::fs::read_to_string(path).ok()?;
    ugrapher_util::json::from_str(&data).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_by_rank() {
        assert_eq!(
            quartiles(vec![7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]),
            [2.0, 4.0, 6.0]
        );
        assert_eq!(quartiles(vec![3.0]), [3.0; 3]);
        assert!(quartiles(Vec::new()).iter().all(|q| q.is_nan()));
        assert_eq!(
            mean_quartiles(&[[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]),
            [2.0, 3.0, 4.0]
        );
    }

    fn figure(median: f64, q1: f64, q3: f64) -> Value {
        with_quartiles(Value::obj(vec![]), "t", [q1, median, q3])
    }

    #[test]
    fn runs_compare_by_median_and_pooled_band() {
        let before = [
            figure(10.0, 9.0, 11.0),
            figure(14.0, 13.0, 15.0),
            figure(12.0, 11.5, 12.5),
        ];
        let after = [figure(6.0, 5.5, 6.5), figure(7.0, 6.0, 8.0)];
        // Upper median of the after runs (7) over the median of before (12).
        let (ratio, overlap) = compare_runs(&before, &after, "t").unwrap();
        assert!((ratio - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!(overlap, Some(false));
        // A before run whose band reaches into the after band overlaps.
        let drifted = [figure(10.0, 7.5, 11.0)];
        assert_eq!(compare_runs(&drifted, &after, "t").unwrap().1, Some(true));
        assert!(compare_runs(&[], &after, "t").is_none());
        assert!(compare_runs(&before, &after, "missing").is_none());
        let bare = [Value::obj(vec![("t", Value::Num(8.0))])];
        assert_eq!(compare_runs(&bare, &after, "t").unwrap().1, None);
    }

    #[test]
    fn run_figures_follow_the_ratio_paths() {
        let run = Value::obj(vec![("grid", figure(3.0, 2.0, 4.0))]);
        let got = run_figures(&run, &[("grid_t", &["grid", "t"]), ("absent", &["x"])]);
        assert_eq!(
            got,
            with_quartiles(Value::obj(vec![]), "grid_t", [2.0, 3.0, 4.0])
        );
    }

    #[test]
    fn eval_dataset_abbrevs_resolve() {
        for a in eval_datasets() {
            assert!(ugrapher_graph::datasets::by_abbrev(a).is_some());
        }
    }

    #[test]
    fn backends_come_in_paper_order() {
        let b = backends(&DeviceConfig::v100());
        let names: Vec<_> = b.iter().map(|x| x.name()).collect();
        assert_eq!(names, vec!["dgl", "pyg", "gnnadvisor", "ugrapher"]);
    }
}
