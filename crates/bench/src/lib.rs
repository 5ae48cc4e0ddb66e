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

/// Replaces slot `slot` of `results/<name>.json` with `run`, keeping the
/// other slots, so one file holds a `before` run (measured on the parent
/// commit) beside the `after` run and a `smoke` run. When both `before`
/// and `after` hold every figure in `ratios` (a result key and its path
/// inside a run), their `after / before` ratios are stored under
/// `after_over_before` and printed. Where both slots also hold the figure's
/// quartiles (the path's last key suffixed `_q1` / `_q3`, as written by
/// [`with_quartiles`]), whether the two interquartile ranges overlap is
/// stored under `iqr_overlap` and printed beside the ratio: a ratio whose
/// ranges overlap is within the runs' own spread, not a measured change.
pub fn save_slot(name: &str, slot: &str, run: Value, ratios: &[(&str, &[&str])]) {
    let path = results_dir().join(format!("{name}.json"));
    let mut doc = match std::fs::read_to_string(&path).ok().map(|s| json::parse(&s)) {
        Some(Ok(Value::Obj(m))) => m,
        _ => Default::default(),
    };
    doc.insert(slot.to_owned(), run);
    let at = |slot: &str, path: &[&str], suffix: &str| {
        let (last, parents) = path.split_last()?;
        parents
            .iter()
            .try_fold(doc.get(slot)?, |v, k| v.get(k))?
            .get(&format!("{last}{suffix}"))?
            .as_f64()
    };
    let ratios: Option<Vec<(&str, f64, Option<bool>)>> = ratios
        .iter()
        .map(|&(key, path)| {
            let ratio = at("after", path, "")? / at("before", path, "")?;
            let band = |slot| Some((at(slot, path, "_q1")?, at(slot, path, "_q3")?));
            let overlap = band("before")
                .zip(band("after"))
                .map(|((b1, b3), (a1, a3))| a1 <= b3 && b1 <= a3);
            Some((key, ratio, overlap))
        })
        .collect();
    if let Some(ratios) = ratios {
        let shown: Vec<String> = ratios
            .iter()
            .map(|(k, r, overlap)| {
                let spread = match overlap {
                    Some(true) => "IQRs overlap",
                    Some(false) => "IQRs disjoint",
                    None => "no IQR",
                };
                format!("{k} {r:.3}x ({spread})")
            })
            .collect();
        println!("after/before: {}", shown.join(", "));
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
