//! The shared end-to-end sweep behind Figs. 1, 13, 14, 15 and 19: every
//! (device, model, dataset, system) cell's inference time.

use ugrapher_util::json::{FromJson, JsonError, ToJson, Value};

use ugrapher_gnn::ModelKind;
use ugrapher_graph::datasets::by_abbrev;
use ugrapher_sim::DeviceConfig;

use crate::{backends, end_to_end_ms, load};

/// One measured cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Device name ("V100" / "A100").
    pub device: String,
    /// Model label ("GCN", "SMax", ...).
    pub model: String,
    /// Dataset abbreviation ("CO", "SB", ...).
    pub dataset: String,
    /// System name ("dgl", "pyg", "gnnadvisor", "ugrapher").
    pub system: String,
    /// End-to-end inference time in ms; `None` where the system does not
    /// support the model (the paper's missing bars).
    pub time_ms: Option<f64>,
}

/// The full sweep result, persisted as `results/sweep.json` so the figure
/// binaries that aggregate it (Figs. 1, 14, 15) don't re-measure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepResult {
    /// All measured cells.
    pub cells: Vec<SweepCell>,
}

impl SweepResult {
    /// Looks up one cell's time.
    pub fn time(&self, device: &str, model: &str, dataset: &str, system: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| {
                c.device == device && c.model == model && c.dataset == dataset && c.system == system
            })
            .and_then(|c| c.time_ms)
    }

    /// Distinct values of a field, in first-seen order.
    pub fn distinct(&self, field: impl Fn(&SweepCell) -> &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for c in &self.cells {
            let v = field(c);
            if !out.iter().any(|x| x == v) {
                out.push(v.to_owned());
            }
        }
        out
    }

    /// Speedups of `ugrapher` over `system` for every supported
    /// (model, dataset) pair on a device.
    pub fn speedups_over(&self, device: &str, system: &str) -> Vec<f64> {
        let mut out = Vec::new();
        for c in &self.cells {
            if c.device != device || c.system != system {
                continue;
            }
            if let (Some(base), Some(ours)) = (
                c.time_ms,
                self.time(device, &c.model, &c.dataset, "ugrapher"),
            ) {
                out.push(base / ours);
            }
        }
        out
    }
}

impl ToJson for SweepCell {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("device", self.device.to_json()),
            ("model", self.model.to_json()),
            ("dataset", self.dataset.to_json()),
            ("system", self.system.to_json()),
            ("time_ms", self.time_ms.to_json()),
        ])
    }
}

impl FromJson for SweepCell {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(SweepCell {
            device: String::from_json(v.field("device")?)?,
            model: String::from_json(v.field("model")?)?,
            dataset: String::from_json(v.field("dataset")?)?,
            system: String::from_json(v.field("system")?)?,
            time_ms: Option::<f64>::from_json(v.field("time_ms")?)?,
        })
    }
}

impl ToJson for SweepResult {
    fn to_json(&self) -> Value {
        Value::obj(vec![("cells", self.cells.to_json())])
    }
}

impl FromJson for SweepResult {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(SweepResult {
            cells: Vec::<SweepCell>::from_json(v.field("cells")?)?,
        })
    }
}

/// Runs the sweep over the given devices, models and datasets.
pub fn run_sweep(devices: &[DeviceConfig], models: &[ModelKind], datasets: &[&str]) -> SweepResult {
    let mut cells = Vec::new();
    for device in devices {
        let systems = backends(device);
        for abbrev in datasets {
            let info = by_abbrev(abbrev).unwrap_or_else(|| panic!("unknown dataset {abbrev}"));
            let (graph, x) = load(&info);
            eprintln!(
                "[sweep] {} / {} ({} vertices, {} edges)",
                device.name,
                info.name,
                graph.num_vertices(),
                graph.num_edges()
            );
            for &kind in models {
                for backend in &systems {
                    let time_ms =
                        end_to_end_ms(kind, &graph, &x, info.num_classes, backend.as_ref());
                    cells.push(SweepCell {
                        device: device.name.clone(),
                        model: kind.label().to_owned(),
                        dataset: (*abbrev).to_owned(),
                        system: backend.name().to_owned(),
                        time_ms,
                    });
                }
            }
        }
    }
    SweepResult { cells }
}

/// The devices, models and datasets of the full sweep.
fn sweep_axes() -> ([DeviceConfig; 2], [ModelKind; 6], Vec<&'static str>) {
    (
        [DeviceConfig::v100(), DeviceConfig::a100()],
        ModelKind::ALL,
        crate::eval_datasets(),
    )
}

/// Whether `cached` still matches the code: the smallest evaluation
/// dataset's cells are re-measured and must equal the cached ones bitwise.
/// A cache written by older code, or at another `UGRAPHER_SCALE`, fails.
pub fn sweep_is_current(cached: &SweepResult) -> bool {
    let (devices, models, datasets) = sweep_axes();
    let Some(smallest) = datasets
        .iter()
        .copied()
        .min_by_key(|a| by_abbrev(a).map_or(usize::MAX, |d| d.num_vertices))
    else {
        return true;
    };
    let key = |c: &SweepCell| {
        (
            c.device.clone(),
            c.model.clone(),
            c.system.clone(),
            c.time_ms.map(f64::to_bits),
        )
    };
    let fresh = run_sweep(&devices, &models, &[smallest]);
    let stale = cached.cells.iter().filter(|c| c.dataset == smallest);
    fresh.cells.iter().map(key).eq(stale.map(key))
}

/// Loads the cached sweep if present and current (see
/// [`sweep_is_current`]), otherwise runs and caches it.
pub fn sweep_cached() -> SweepResult {
    if let Some(s) = crate::load_json::<SweepResult>("sweep") {
        if !s.cells.is_empty() {
            if sweep_is_current(&s) {
                eprintln!(
                    "[sweep] using cached results/sweep.json ({} cells)",
                    s.cells.len()
                );
                return s;
            }
            eprintln!("[sweep] results/sweep.json is stale; re-running the sweep");
        }
    }
    let (devices, models, datasets) = sweep_axes();
    let result = run_sweep(&devices, &models, &datasets);
    crate::save_json("sweep", &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_result_lookup() {
        let r = SweepResult {
            cells: vec![
                SweepCell {
                    device: "V100".into(),
                    model: "GCN".into(),
                    dataset: "CO".into(),
                    system: "dgl".into(),
                    time_ms: Some(2.0),
                },
                SweepCell {
                    device: "V100".into(),
                    model: "GCN".into(),
                    dataset: "CO".into(),
                    system: "ugrapher".into(),
                    time_ms: Some(1.0),
                },
            ],
        };
        assert_eq!(r.time("V100", "GCN", "CO", "dgl"), Some(2.0));
        assert_eq!(r.time("V100", "GCN", "CO", "pyg"), None);
        assert_eq!(r.speedups_over("V100", "dgl"), vec![2.0]);
        assert_eq!(r.distinct(|c| &c.system), vec!["dgl", "ugrapher"]);
    }

    #[test]
    fn tiny_sweep_runs() {
        std::env::set_var("UGRAPHER_SCALE", "0.002");
        let r = run_sweep(&[DeviceConfig::v100()], &[ModelKind::Gcn], &["CO"]);
        std::env::remove_var("UGRAPHER_SCALE");
        assert_eq!(r.cells.len(), 4);
        // GNNAdvisor supports GCN; all four systems report a time.
        assert!(r.cells.iter().all(|c| c.time_ms.is_some()));
    }
}
