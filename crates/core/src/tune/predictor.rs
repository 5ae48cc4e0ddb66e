//! The learned schedule predictor (paper §5.4).

use ugrapher_util::json::{FromJson, JsonError, ToJson, Value};
use ugrapher_util::rng::StdRng;

use ugrapher_gbdt::{Gbdt, GbdtParams, TrainSet};
use ugrapher_graph::generate::{DegreeModel, GraphSpec};
use ugrapher_graph::{DegreeStats, Graph};
use ugrapher_sim::DeviceConfig;

use ugrapher_obs::{Recorder, SpanKind};

use crate::abstraction::OpInfo;
use crate::exec::MeasureOptions;
use crate::schedule::ParallelInfo;
use crate::tune::{grid_search_budgeted, TuneBudget};
use crate::CoreError;

/// Configuration of predictor training.
///
/// The paper synthesises its training set from 128 random graphs of the
/// network-repository collection and trains LightGBM on the Table 7
/// features; [`PredictorConfig::paper`] mirrors that, and
/// [`PredictorConfig::quick`] is a down-scaled variant for tests.
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Device the predictor is trained for.
    pub device: DeviceConfig,
    /// Number of random training graphs (paper: 128).
    pub num_graphs: usize,
    /// Vertex-count range the graphs are drawn from.
    pub vertex_range: (usize, usize),
    /// Mean-degree range the graphs are drawn from.
    pub degree_range: (f64, f64),
    /// Operators to include in the training set.
    pub ops: Vec<OpInfo>,
    /// Feature dimensions to include.
    pub feat_dims: Vec<usize>,
    /// Candidate schedules measured per (graph, op, feat) context.
    pub schedules: Vec<ParallelInfo>,
    /// GBDT hyper-parameters.
    pub gbdt: GbdtParams,
    /// RNG seed for graph synthesis.
    pub seed: u64,
    /// Include the operator-info features (Table 7); set to `false` for
    /// the graph-only feature ablation.
    pub use_op_features: bool,
}

impl PredictorConfig {
    /// Paper-scale training: 128 random graphs, the common operators, the
    /// full schedule space.
    pub fn paper(device: DeviceConfig) -> Self {
        Self {
            device,
            num_graphs: 128,
            vertex_range: (256, 100_000),
            degree_range: (1.5, 40.0),
            ops: vec![
                OpInfo::aggregation_sum(),
                OpInfo::aggregation_max(),
                OpInfo::aggregation_mean(),
                OpInfo::weighted_aggregation_sum(),
                OpInfo::message_creation_add(),
                OpInfo::edge_aggregation_sum(),
            ],
            feat_dims: vec![8, 16, 32, 64, 128],
            schedules: ParallelInfo::space(),
            gbdt: GbdtParams {
                num_trees: 200,
                max_depth: 7,
                ..GbdtParams::default()
            },
            seed: 0x0420,
            use_op_features: true,
        }
    }

    /// A small configuration for unit tests (a few seconds to train).
    pub fn quick(device: DeviceConfig) -> Self {
        Self {
            device,
            num_graphs: 6,
            vertex_range: (128, 2048),
            degree_range: (2.0, 10.0),
            ops: vec![OpInfo::aggregation_sum()],
            feat_dims: vec![16],
            schedules: ParallelInfo::basics(),
            gbdt: GbdtParams {
                num_trees: 60,
                max_depth: 5,
                ..GbdtParams::default()
            },
            seed: 7,
            use_op_features: true,
        }
    }
}

/// A trained schedule predictor.
///
/// Serializable: train once, persist with [`Predictor::save`], and load at
/// deployment — the flow the paper describes (§5.4: prediction runs once
/// before model inference).
#[derive(Debug, Clone)]
pub struct Predictor {
    model: Gbdt,
    schedules: Vec<ParallelInfo>,
    use_op_features: bool,
}

impl ToJson for Predictor {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("model", self.model.to_json()),
            ("schedules", self.schedules.to_json()),
            ("use_op_features", self.use_op_features.to_json()),
        ])
    }
}

impl FromJson for Predictor {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let schedules = Vec::<ParallelInfo>::from_json(v.field("schedules")?)?;
        if schedules.is_empty() {
            return Err(JsonError::new("predictor: empty schedule list"));
        }
        Ok(Predictor {
            model: Gbdt::from_json(v.field("model")?)?,
            schedules,
            // Older model files predate the ablation flag; default to the
            // full feature set.
            use_op_features: match v.get("use_op_features") {
                Some(flag) => bool::from_json(flag)?,
                None => true,
            },
        })
    }
}

impl Predictor {
    /// Synthesises a training set per the configuration and fits the GBDT.
    ///
    /// Every (graph, operator, feature-dim, schedule) tuple becomes one row
    /// mapping the Table 7 features to `ln(simulated time)`. Each
    /// (graph, operator, feature-dim) context is measured by
    /// [`grid_search_budgeted`] over the configured schedules, so training
    /// runs on grid search's worker threads and, like any search, emits one
    /// `tune.candidate` span and one `TUNING_EVALUATIONS` count per
    /// distinct kernel.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no graphs, ops, feature dims, or
    /// schedules, or if an operator, feature dim or schedule of it is
    /// illegal.
    pub fn train(config: &PredictorConfig) -> Self {
        assert!(
            config.num_graphs > 0
                && !config.ops.is_empty()
                && !config.feat_dims.is_empty()
                && !config.schedules.is_empty(),
            "empty predictor training configuration"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        let options = MeasureOptions::auto(config.device.clone());

        for _ in 0..config.num_graphs {
            let graph = random_graph(config, &mut rng);
            let stats = graph.degree_stats();
            for op in &config.ops {
                for &feat in &config.feat_dims {
                    let measured = grid_search_budgeted(
                        &graph,
                        op,
                        feat,
                        (false, false),
                        &options,
                        &config.schedules,
                        TuneBudget::unlimited(),
                    )
                    .expect("training contexts are valid");
                    assert_eq!(measured.illegal, 0, "training schedules are legal");
                    for (schedule, time) in measured.all {
                        rows.push(crate::tune::features::feature_vector_masked(
                            &stats,
                            op,
                            feat,
                            &schedule,
                            config.use_op_features,
                        ));
                        targets.push(time.max(1e-6).ln());
                    }
                }
            }
        }

        let data = TrainSet::new(rows, targets).expect("training rows are consistent");
        Self {
            model: Gbdt::fit(&data, &config.gbdt),
            schedules: config.schedules.clone(),
            use_op_features: config.use_op_features,
        }
    }

    /// Predicted `ln(time_ms)` for a candidate schedule.
    pub fn predict_log_time(
        &self,
        stats: &DegreeStats,
        op: &OpInfo,
        feat: usize,
        schedule: &ParallelInfo,
    ) -> f64 {
        self.model
            .predict(&crate::tune::features::feature_vector_masked(
                stats,
                op,
                feat,
                schedule,
                self.use_op_features,
            ))
    }

    /// Picks the schedule with the minimum predicted time.
    ///
    /// The prediction comes from a learned model that may have been loaded
    /// from disk, so its output is treated as untrusted: a non-finite
    /// score, an empty candidate list, or an illegal winning schedule all
    /// come back as [`CoreError::TuningFailed`] /
    /// [`CoreError::InvalidSchedule`] instead of a panic, letting the
    /// runtime fall back to grid search.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the operator is invalid or the model's
    /// output is unusable.
    pub fn choose(
        &self,
        stats: &DegreeStats,
        op: &OpInfo,
        feat: usize,
    ) -> Result<ParallelInfo, CoreError> {
        self.choose_traced(stats, op, feat, &Recorder::disabled(), 0)
    }

    /// [`Predictor::choose`] with tracing: one `"tune.predict"` span per
    /// candidate schedule scored, carrying the predicted log-time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the operator is invalid or the model's
    /// output is unusable.
    pub fn choose_traced(
        &self,
        stats: &DegreeStats,
        op: &OpInfo,
        feat: usize,
        recorder: &Recorder,
        trace_id: u64,
    ) -> Result<ParallelInfo, CoreError> {
        op.validate()?;
        let mut best: Option<(ParallelInfo, f64)> = None;
        for &s in &self.schedules {
            let mut span = recorder.span_traced("tune.predict", SpanKind::Tune, trace_id);
            let t = self.predict_log_time(stats, op, feat, &s);
            if span.is_enabled() {
                span.attr("schedule", s.label())
                    .attr("predicted_log_time", t);
            }
            drop(span);
            if !t.is_finite() {
                return Err(CoreError::TuningFailed {
                    reason: format!("predictor scored {} as {t}", s.label()),
                });
            }
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((s, t));
            }
        }
        let (s, _) = best.ok_or_else(|| CoreError::TuningFailed {
            reason: "predictor has no candidate schedules".to_owned(),
        })?;
        // Same legality gate as plan generation and grid search: the
        // winning schedule must be executable in this (op, feat) context.
        crate::analysis::check_context(op, &s, feat)?;
        Ok(s)
    }

    /// The candidate schedules this predictor ranks.
    pub fn schedules(&self) -> &[ParallelInfo] {
        &self.schedules
    }

    /// Persists the trained model as JSON.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be written.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, ugrapher_util::json::to_string(self))
    }

    /// Loads a model persisted by [`Predictor::save`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be read or parsed.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let data = std::fs::read_to_string(path)?;
        ugrapher_util::json::from_str(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

fn random_graph(config: &PredictorConfig, rng: &mut StdRng) -> Graph {
    let nv = rng.random_range(config.vertex_range.0..=config.vertex_range.1);
    let mean_deg = rng.random_range(config.degree_range.0..=config.degree_range.1);
    let ne = ((nv as f64 * mean_deg) as usize).max(nv);
    let degree_model = match rng.random_range(0..3) {
        0 => DegreeModel::NearRegular,
        1 => DegreeModel::TargetStd {
            std: mean_deg * rng.random_range(0.5..4.0),
        },
        _ => DegreeModel::PowerLaw {
            alpha: rng.random_range(1.3..2.5),
        },
    };
    GraphSpec {
        num_vertices: nv,
        num_edges: ne,
        degree_model,
        locality: rng.random_range(0.0..0.9),
        seed: rng.random(),
    }
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrapher_graph::generate::uniform_random;

    #[test]
    fn quick_predictor_ranks_close_to_grid_search() {
        let config = PredictorConfig::quick(DeviceConfig::v100());
        let predictor = Predictor::train(&config);

        // Evaluate on a held-out graph.
        let g = uniform_random(700, 4200, 99);
        let stats = g.degree_stats();
        let op = OpInfo::aggregation_sum();
        let chosen = predictor.choose(&stats, &op, 16).unwrap();

        let options = MeasureOptions::auto(DeviceConfig::v100());
        let truth = grid_search_budgeted(
            &g,
            &op,
            16,
            (false, false),
            &options,
            &ParallelInfo::basics(),
            TuneBudget::unlimited(),
        )
        .unwrap();
        let chosen_time = truth.time_of(&chosen).unwrap();
        // Paper Fig. 12: predictor performance is close to grid search. We
        // allow 2x on this deliberately tiny training config.
        assert!(
            chosen_time <= truth.best_time_ms * 2.0,
            "predictor chose {chosen} ({chosen_time} ms) vs optimum {} ({} ms)",
            truth.best,
            truth.best_time_ms
        );
    }

    #[test]
    fn choose_rejects_invalid_op() {
        let config = PredictorConfig::quick(DeviceConfig::v100());
        let predictor = Predictor::train(&config);
        let g = uniform_random(100, 400, 1);
        let bad = OpInfo {
            edge_op: crate::abstraction::EdgeOp::Mul,
            gather_op: crate::abstraction::GatherOp::Sum,
            a: crate::abstraction::TensorType::SrcV,
            b: crate::abstraction::TensorType::Null,
            c: crate::abstraction::TensorType::DstV,
        };
        assert!(predictor.choose(&g.degree_stats(), &bad, 16).is_err());
    }

    #[test]
    fn save_load_round_trip() {
        let config = PredictorConfig::quick(DeviceConfig::v100());
        let predictor = Predictor::train(&config);
        let dir = std::env::temp_dir().join("ugrapher_predictor_test.json");
        predictor.save(&dir).unwrap();
        let loaded = Predictor::load(&dir).unwrap();
        let g = uniform_random(200, 900, 17);
        let stats = g.degree_stats();
        let op = OpInfo::aggregation_sum();
        assert_eq!(
            predictor.choose(&stats, &op, 16).unwrap(),
            loaded.choose(&stats, &op, 16).unwrap()
        );
        for p in predictor.schedules() {
            assert_eq!(
                predictor.predict_log_time(&stats, &op, 16, p),
                loaded.predict_log_time(&stats, &op, 16, p)
            );
        }
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn predictions_are_finite() {
        let config = PredictorConfig::quick(DeviceConfig::v100());
        let predictor = Predictor::train(&config);
        let g = uniform_random(333, 999, 5);
        let stats = g.degree_stats();
        for p in predictor.schedules() {
            let t = predictor.predict_log_time(&stats, &OpInfo::aggregation_sum(), 16, p);
            assert!(t.is_finite());
        }
    }
}
