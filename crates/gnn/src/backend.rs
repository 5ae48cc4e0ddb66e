//! The graph-operator backend seam.
//!
//! A [`GraphOpBackend`] executes one graph operator and reports its
//! simulated GPU cost. Model code (`crate::models`) is backend-agnostic:
//! swapping the backend swaps *only* the graph-operator kernels, which is
//! exactly the variable the paper's end-to-end comparison isolates
//! (DGL / PyG / GNNAdvisor vs uGrapher, §6–7).

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::api::{GraphTensor, OpArgs, Runtime};
use ugrapher_core::cache::PlanCache;
use ugrapher_core::exec::OpOperands;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::tune::Predictor;
use ugrapher_core::CoreError;
use ugrapher_graph::Graph;
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;

use crate::{ModelKind, OpSite};

/// Executes graph operators for GNN inference.
pub trait GraphOpBackend {
    /// Human-readable backend name ("dgl", "pyg", "gnnadvisor",
    /// "ugrapher").
    fn name(&self) -> &'static str;

    /// The device this backend simulates.
    fn device(&self) -> &DeviceConfig;

    /// Whether this backend can run the given model (GNNAdvisor only
    /// supports GCN and GIN, paper §6).
    fn supports(&self, model: ModelKind) -> bool {
        let _ = model;
        true
    }

    /// Executes one graph operator at `site`, returning the functional
    /// output and the simulated kernel report(s).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for invalid operators or operand mismatches.
    fn run_op(
        &self,
        graph: &Graph,
        site: &OpSite,
        op: &OpInfo,
        operands: &OpOperands<'_>,
    ) -> Result<(Tensor2, SimReport), CoreError>;
}

/// The uGrapher backend: every operator runs under the schedule its
/// runtime tunes for it (predictor if installed, otherwise sampled grid
/// search) on this graph.
///
/// The runtime carries a [`PlanCache`], the one memory of a tuned
/// schedule: its entry for an operator, graph structure and operand shape
/// holds the schedule, the compiled plan and the measured report. A
/// repeated call (every op site of a second `run_inference` pass) reuses
/// them, and only the functional execution on the new operands runs again.
/// Two graphs of the same size but different degree structure get
/// separate entries, each tuned for its own graph.
pub struct UGrapherBackend {
    runtime: Runtime,
}

impl UGrapherBackend {
    /// Creates a backend that tunes by sampled grid search.
    pub fn new(device: DeviceConfig) -> Self {
        Self::on(Runtime::new(device))
    }

    /// Creates a backend that tunes with a trained predictor (the paper's
    /// default deployment, §5.4).
    pub fn with_predictor(device: DeviceConfig, predictor: Predictor) -> Self {
        Self::on(Runtime::new(device).with_predictor(predictor))
    }

    /// Creates a backend whose grid search considers only the four basic
    /// strategies — much faster tuning, used by tests and quick runs.
    pub fn quick(device: DeviceConfig) -> Self {
        Self::on(Runtime::new(device).with_search_space(ParallelInfo::basics()))
    }

    fn on(runtime: Runtime) -> Self {
        Self {
            runtime: runtime.with_plan_cache(PlanCache::shared(PlanCache::DEFAULT_CAPACITY)),
        }
    }

    /// The schedule [`GraphOpBackend::run_op`] runs `op` under on `graph`
    /// with operands `feat` columns wide (`scalars`: A and B are
    /// one-column broadcasts): the plan-cache entry's schedule. A miss
    /// tunes, plans, measures and caches the entry, so the following
    /// `run_op` on the same graph and shape is a hit. The schedule depends
    /// on the graph, not on the call site, so the site is unused.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the operator is invalid.
    pub fn schedule_for(
        &self,
        graph: &GraphTensor<'_>,
        _site: &OpSite,
        op: &OpInfo,
        feat: usize,
        scalars: (bool, bool),
    ) -> Result<ParallelInfo, CoreError> {
        let (entry, _) = self.runtime.compiled_plan(
            graph,
            op,
            None,
            feat,
            scalars,
            ugrapher_obs::next_trace_id(),
        )?;
        Ok(entry.schedule)
    }
}

impl GraphOpBackend for UGrapherBackend {
    fn name(&self) -> &'static str {
        "ugrapher"
    }

    fn device(&self) -> &DeviceConfig {
        self.runtime.device()
    }

    fn run_op(
        &self,
        graph: &Graph,
        _site: &OpSite,
        op: &OpInfo,
        operands: &OpOperands<'_>,
    ) -> Result<(Tensor2, SimReport), CoreError> {
        let args = OpArgs {
            op: *op,
            operands: *operands,
        };
        let res = self.runtime.run(&GraphTensor::new(graph), &args, None)?;
        Ok((res.output, res.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpSiteKind;
    use ugrapher_graph::generate::uniform_random;

    #[test]
    fn ugrapher_backend_runs_and_caches() {
        let g = uniform_random(150, 700, 1);
        let x = Tensor2::full(150, 8, 1.0);
        let backend = UGrapherBackend::new(DeviceConfig::v100());
        let site = OpSite::new(ModelKind::Gcn, 1, OpSiteKind::Aggregation);
        let op = OpInfo::aggregation_sum();
        let (out1, rep1) = backend
            .run_op(&g, &site, &op, &OpOperands::single(&x))
            .unwrap();
        let (out2, rep2) = backend
            .run_op(&g, &site, &op, &OpOperands::single(&x))
            .unwrap();
        assert_eq!(out1, out2);
        assert!(rep1.time_ms > 0.0);
        // The repeat is a plan-cache hit that returns the measured report.
        let stats = backend.runtime.plan_cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(rep1.bits(), rep2.bits());
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn schedule_for_fills_the_cache_that_run_op_hits() {
        let g = uniform_random(150, 700, 1);
        let x = Tensor2::full(150, 8, 1.0);
        let backend = UGrapherBackend::quick(DeviceConfig::v100());
        let site = OpSite::new(ModelKind::Gcn, 1, OpSiteKind::Aggregation);
        let op = OpInfo::aggregation_sum();
        let schedule = backend
            .schedule_for(&GraphTensor::new(&g), &site, &op, 8, (false, false))
            .unwrap();
        let args = OpArgs::fused(op, &x);
        let res = backend
            .runtime
            .run(&GraphTensor::new(&g), &args, None)
            .unwrap();
        assert!(res.plan_cache_hit);
        assert_eq!(res.schedule, schedule);
    }

    #[test]
    fn supports_everything_by_default() {
        let backend = UGrapherBackend::new(DeviceConfig::a100());
        for m in ModelKind::ALL {
            assert!(backend.supports(m));
        }
        assert_eq!(backend.name(), "ugrapher");
    }
}
