//! GCN (Kipf & Welling): `H' = ReLU(Â H W)` per layer, where `Â` is the
//! symmetrically normalised adjacency. The graph operator is the paper's
//! *weighted-aggr-sum* (§2.2): multiply source features by a scalar edge
//! weight and sum into the destination.

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::exec::OpOperands;
use ugrapher_graph::Graph;
use ugrapher_tensor::Tensor2;

use crate::models::{Ctx, ModelConfig};
use crate::{GnnError, ModelKind, OpSite, OpSiteKind};

/// Symmetric GCN normalisation weights: `1 / sqrt((1+d_out(u))(1+d_in(v)))`
/// per edge, as a one-column edge tensor (scalar broadcast). Filled by edge
/// id straight from the in-edge view.
pub(crate) fn norm_weights(graph: &Graph) -> Tensor2 {
    let mut data = vec![0.0f32; graph.num_edges()];
    for v in 0..graph.num_vertices() {
        let dv = 1.0 + graph.in_degree(v) as f32;
        for (u, e) in graph.in_neighbors(v) {
            let du = 1.0 + graph.out_degree(u as usize) as f32;
            data[e as usize] = 1.0 / (du * dv).sqrt();
        }
    }
    Tensor2::from_vec(graph.num_edges(), 1, data).expect("one weight per edge")
}

pub(crate) fn forward(
    ctx: &mut Ctx<'_>,
    model: &ModelConfig,
    features: &Tensor2,
    num_classes: usize,
) -> Result<Tensor2, GnnError> {
    let edge_w = norm_weights(ctx.graph);
    let mut h = features.clone();
    for l in 0..model.num_layers {
        let (in_dim, out_dim) = Ctx::layer_dims(
            l,
            model.num_layers,
            features.cols(),
            model.hidden,
            num_classes,
        );
        let w = ctx.weights.matrix(l as u64, in_dim, out_dim);
        let b = ctx.weights.bias(l as u64, out_dim);
        let z = ctx.gemm(&h, &w)?;
        let agg = ctx.op(
            OpSite::new(ModelKind::Gcn, l + 1, OpSiteKind::Aggregation),
            OpInfo::weighted_aggregation_sum(),
            OpOperands::pair(&z, &edge_w),
        )?;
        h = if l + 1 == model.num_layers {
            ctx.bias(&agg, &b)?
        } else {
            ctx.bias_relu(&agg, &b)?
        };
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrapher_graph::generate::ring;

    #[test]
    fn norm_weights_on_ring_are_half() {
        // Ring: every vertex has out-degree 1 and in-degree 1 -> weight
        // 1/sqrt(2*2) = 0.5 on every edge.
        let g = ring(10);
        let w = norm_weights(&g);
        assert_eq!(w.shape(), (10, 1));
        assert!(w.as_slice().iter().all(|&x| (x - 0.5).abs() < 1e-6));
    }

    /// The in-view fill gives every edge exactly the bits of the formula
    /// evaluated over the edge list.
    #[test]
    fn norm_weights_match_the_edge_list_formula_bitwise() {
        let hub = Graph::from_edges(6, vec![1, 2, 3, 4, 5, 0], vec![0, 0, 0, 0, 0, 1]).unwrap();
        let multi = Graph::from_edges(3, vec![0, 0, 0, 1, 2, 2], vec![1, 1, 1, 2, 0, 0]).unwrap();
        let self_loops =
            Graph::from_edges(4, vec![0, 1, 1, 2, 3, 3], vec![0, 1, 2, 2, 3, 0]).unwrap();
        for g in [hub, multi, self_loops] {
            let expected: Vec<u32> = g
                .to_coo()
                .iter_edges()
                .map(|(u, v)| {
                    let du = 1.0 + g.out_degree(u as usize) as f32;
                    let dv = 1.0 + g.in_degree(v as usize) as f32;
                    (1.0 / (du * dv).sqrt()).to_bits()
                })
                .collect();
            let got: Vec<u32> = norm_weights(&g)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(got, expected, "{g:?}");
        }
    }

    #[test]
    fn norm_weights_shrink_for_hubs() {
        let g = Graph::from_edges(4, vec![0, 1, 2], vec![3, 3, 3]).unwrap();
        let w = norm_weights(&g);
        // All edges point at hub 3 (in-degree 3): 1/sqrt(2*4).
        assert!(w
            .as_slice()
            .iter()
            .all(|&x| (x - 1.0 / 8.0f32.sqrt()).abs() < 1e-6));
    }
}
