//! GIN (Xu et al.): `H' = MLP((1 + ε) H + Σ_{u→v} H_u)` per layer, with a
//! two-layer MLP. The graph operator is the plain *aggregation-sum* of
//! paper Fig. 4; with the default five layers it contributes GIN_L1..L5
//! aggregation sites (paper Table 9).

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::exec::OpOperands;
use ugrapher_tensor::Tensor2;

use crate::models::{Ctx, ModelConfig};
use crate::{GnnError, ModelKind, OpSite, OpSiteKind};

/// GIN's epsilon (kept at the common default of 0).
const EPS: f32 = 0.0;

pub(crate) fn forward(
    ctx: &mut Ctx<'_>,
    model: &ModelConfig,
    features: &Tensor2,
    num_classes: usize,
) -> Result<Tensor2, GnnError> {
    let mut h = features.clone();
    for l in 0..model.num_layers {
        let (in_dim, out_dim) = Ctx::layer_dims(
            l,
            model.num_layers,
            features.cols(),
            model.hidden,
            num_classes,
        );
        debug_assert_eq!(h.cols(), in_dim);

        let agg = ctx.op(
            OpSite::new(ModelKind::Gin, l + 1, OpSiteKind::Aggregation),
            OpInfo::aggregation_sum(),
            OpOperands::single(&h),
        )?;
        let combined = agg.add_scaled(&h, 1.0 + EPS)?;
        ctx.charge_elementwise(combined.len(), 3);

        // Two-layer MLP: in -> hidden -> out.
        let w1 = ctx.weights.matrix(l as u64 * 4 + 1, in_dim, model.hidden);
        let b1 = ctx.weights.bias(l as u64 * 4 + 1, model.hidden);
        let w2 = ctx.weights.matrix(l as u64 * 4 + 2, model.hidden, out_dim);
        let b2 = ctx.weights.bias(l as u64 * 4 + 2, out_dim);
        let z1 = ctx.gemm(&combined, &w1)?;
        let h1 = ctx.bias_relu(&z1, &b1)?;
        let z = ctx.gemm(&h1, &w2)?;
        h = if l + 1 == model.num_layers {
            ctx.bias(&z, &b2)?
        } else {
            ctx.bias_relu(&z, &b2)?
        };
    }
    Ok(h)
}
