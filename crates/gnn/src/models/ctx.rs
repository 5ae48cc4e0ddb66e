//! Shared inference context: cost accounting + operator dispatch.

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::exec::OpOperands;
use ugrapher_graph::Graph;
use ugrapher_obs::{Recorder, SpanKind};
use ugrapher_sim::SimReport;
use ugrapher_tensor::{GemmCostModel, GemmDevice, Tensor2};

use crate::models::InferenceResult;
use crate::{elementwise_ms, GnnError, GraphOpBackend, OpSite, WeightInit};

/// Per-inference state threaded through the model builders.
pub(crate) struct Ctx<'a> {
    pub graph: &'a Graph,
    backend: &'a dyn GraphOpBackend,
    gemm_model: GemmCostModel,
    pub weights: WeightInit,
    gemm_ms: f64,
    elementwise_ms: f64,
    graph_ops: Vec<(OpSite, SimReport)>,
    recorder: Recorder,
    trace_id: u64,
}

impl<'a> Ctx<'a> {
    pub fn new(graph: &'a Graph, backend: &'a dyn GraphOpBackend) -> Self {
        // The GEMM device follows the backend's simulated GPU: A100 gets
        // tensor-core GEMM throughput (paper §7.2).
        let gemm_device = if backend.device().name == "A100" {
            GemmDevice::a100()
        } else {
            GemmDevice::v100()
        };
        Self {
            graph,
            backend,
            gemm_model: GemmCostModel::new(gemm_device),
            weights: WeightInit::default(),
            gemm_ms: 0.0,
            elementwise_ms: 0.0,
            graph_ops: Vec::new(),
            recorder: Recorder::global(),
            trace_id: ugrapher_obs::next_trace_id(),
        }
    }

    /// Opens a span on this inference's recorder with its trace id.
    pub fn span(&self, name: &'static str, kind: SpanKind) -> ugrapher_obs::SpanGuard {
        self.recorder.span_traced(name, kind, self.trace_id)
    }

    /// Dense projection `x × w`, charged to the GEMM budget.
    pub fn gemm(&mut self, x: &Tensor2, w: &Tensor2) -> Result<Tensor2, GnnError> {
        let mut span = self.span("gnn.gemm", SpanKind::Model);
        let out = x.matmul(w)?;
        let sim_ms = self.gemm_model.time_ms(x.rows(), w.cols(), x.cols());
        self.gemm_ms += sim_ms;
        if span.is_enabled() {
            span.attr("m", x.rows())
                .attr("n", w.cols())
                .attr("k", x.cols())
                .attr("time_ms", sim_ms);
        }
        Ok(out)
    }

    /// Charges one element-wise kernel over `elems` elements and `tensors`
    /// operands (the functional effect is applied by the caller).
    pub fn charge_elementwise(&mut self, elems: usize, tensors: usize) {
        self.elementwise_ms += elementwise_ms(self.backend.device(), elems, tensors);
    }

    /// Bias + ReLU epilogue, functional and charged.
    pub fn bias_relu(&mut self, x: &Tensor2, bias: &Tensor2) -> Result<Tensor2, GnnError> {
        let mut out = x.add_bias(bias)?;
        out.map_inplace(|v| v.max(0.0));
        self.charge_elementwise(x.len(), 2);
        Ok(out)
    }

    /// Bias epilogue without activation (used on final layers).
    pub fn bias(&mut self, x: &Tensor2, bias: &Tensor2) -> Result<Tensor2, GnnError> {
        let out = x.add_bias(bias)?;
        self.charge_elementwise(x.len(), 2);
        Ok(out)
    }

    /// Runs one graph operator through the backend, recording its report.
    pub fn op(
        &mut self,
        site: OpSite,
        op: OpInfo,
        operands: OpOperands<'_>,
    ) -> Result<Tensor2, GnnError> {
        let mut span = self.span("gnn.op", SpanKind::Model);
        let result = self.backend.run_op(self.graph, &site, &op, &operands);
        if span.is_enabled() {
            span.attr("op", site.label())
                .attr("layer", site.layer)
                .attr("ok", result.is_ok());
            if let Ok((_, report)) = &result {
                span.attr("time_ms", report.time_ms)
                    .attr("kernels", report.kernels);
            }
        }
        drop(span);
        let (out, report) = result?;
        self.graph_ops.push((site, report));
        Ok(out)
    }

    pub fn into_result(self, output: Tensor2) -> InferenceResult {
        InferenceResult {
            output,
            gemm_ms: self.gemm_ms,
            elementwise_ms: self.elementwise_ms,
            graph_ops: self.graph_ops,
        }
    }

    /// Layer dimensions: `(in_dim, out_dim)` for layer `l` (0-based) of a
    /// `num_layers`-deep model with the given hidden width and final class
    /// count.
    pub fn layer_dims(
        l: usize,
        num_layers: usize,
        input_dim: usize,
        hidden: usize,
        num_classes: usize,
    ) -> (usize, usize) {
        let in_dim = if l == 0 { input_dim } else { hidden };
        let out_dim = if l + 1 == num_layers {
            num_classes
        } else {
            hidden
        };
        (in_dim, out_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_dims_shape_the_pipeline() {
        assert_eq!(Ctx::layer_dims(0, 2, 100, 16, 7), (100, 16));
        assert_eq!(Ctx::layer_dims(1, 2, 100, 16, 7), (16, 7));
        assert_eq!(Ctx::layer_dims(0, 1, 100, 16, 7), (100, 7));
        assert_eq!(Ctx::layer_dims(2, 5, 100, 64, 2), (64, 64));
    }
}
