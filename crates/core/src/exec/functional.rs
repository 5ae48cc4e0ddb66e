//! Schedule-independent functional evaluation of graph operators.

use ugrapher_graph::Graph;
use ugrapher_tensor::{HostIsa, Tensor2};

use crate::abstraction::{EdgeOp, GatherOp, OpInfo, TensorType};
use crate::CoreError;

/// The tensor operands of one operator invocation (matching the `Tensor_A`
/// / `Tensor_B` arguments of the paper's API, Fig. 9).
#[derive(Debug, Clone, Copy)]
pub struct OpOperands<'a> {
    /// Operand A (present iff `op.a != Null`).
    pub a: Option<&'a Tensor2>,
    /// Operand B (present iff `op.b != Null`).
    pub b: Option<&'a Tensor2>,
}

impl<'a> OpOperands<'a> {
    /// Operands for a unary operator (B is `Null`).
    pub fn single(a: &'a Tensor2) -> Self {
        Self {
            a: Some(a),
            b: None,
        }
    }

    /// Operands for a binary operator.
    pub fn pair(a: &'a Tensor2, b: &'a Tensor2) -> Self {
        Self {
            a: Some(a),
            b: Some(b),
        }
    }
}

/// Validates one operand against its declared type and the graph shape;
/// returns its feature dimension if present.
fn check_operand(
    operand: char,
    tensor_type: TensorType,
    tensor: Option<&Tensor2>,
    graph: &Graph,
) -> Result<Option<usize>, CoreError> {
    let expected_rows = match tensor_type {
        TensorType::SrcV | TensorType::DstV => graph.num_vertices(),
        TensorType::Edge => graph.num_edges(),
        TensorType::Null => {
            return if tensor.is_some() {
                Err(CoreError::BadOperand {
                    operand,
                    tensor_type,
                    reason: "tensor supplied for a Null operand".to_owned(),
                })
            } else {
                Ok(None)
            }
        }
    };
    let Some(t) = tensor else {
        return Err(CoreError::BadOperand {
            operand,
            tensor_type,
            reason: "operand tensor missing".to_owned(),
        });
    };
    if t.rows() != expected_rows {
        return Err(CoreError::BadOperand {
            operand,
            tensor_type,
            reason: format!("expected {expected_rows} rows, found {}", t.rows()),
        });
    }
    Ok(Some(t.cols()))
}

/// Validates operands and returns the common feature dimension.
///
/// An operand with a single column against a wider partner is a *scalar
/// broadcast* (DGL's `u_mul_e`-style semantics, e.g. one weight per edge
/// multiplying a full feature row).
pub(crate) fn check_shapes(
    graph: &Graph,
    op: &OpInfo,
    operands: &OpOperands<'_>,
) -> Result<usize, CoreError> {
    op.validate()?;
    let fa = check_operand('A', op.a, operands.a, graph)?;
    let fb = check_operand('B', op.b, operands.b, graph)?;
    // A zero-width operand is rejected before its partner's width is
    // considered: against a one-column partner it would otherwise pass as
    // a broadcast of nothing.
    if fa == Some(0) || fb == Some(0) {
        return Err(CoreError::FeatureMismatch {
            expected: 1,
            found: 0,
        });
    }
    let feat = match (fa, fb) {
        (Some(x), Some(y)) if x != y && x != 1 && y != 1 => {
            return Err(CoreError::FeatureMismatch {
                expected: x,
                found: y,
            })
        }
        (Some(x), Some(y)) => x.max(y),
        (Some(x), None) | (None, Some(x)) => x,
        (None, None) => unreachable!("validate() requires at least one operand"),
    };
    Ok(feat)
}

/// Evaluates `op` over the graph, producing the output tensor.
///
/// The result is independent of any schedule: this is the reference
/// semantics against which every scheduled execution is defined.
///
/// # Errors
///
/// Returns [`CoreError`] if the operator is invalid or the operands'
/// shapes do not match their declared [`TensorType`]s.
///
/// # Example
///
/// ```
/// use ugrapher_core::abstraction::OpInfo;
/// use ugrapher_core::exec::{execute, OpOperands};
/// use ugrapher_graph::Graph;
/// use ugrapher_tensor::Tensor2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(3, vec![0, 1], vec![2, 2])?;
/// let x = Tensor2::from_fn(3, 2, |r, _| r as f32);
/// let out = execute(&g, &OpInfo::aggregation_sum(), &OpOperands::single(&x))?;
/// assert_eq!(out.row(2), &[1.0, 1.0]); // 0 + 1 from both in-neighbors
/// # Ok(())
/// # }
/// ```
pub fn execute(
    graph: &Graph,
    op: &OpInfo,
    operands: &OpOperands<'_>,
) -> Result<Tensor2, CoreError> {
    execute_traced(graph, op, operands, ugrapher_obs::global(), 0)
}

/// [`execute`] with tracing: emits one `"exec.functional"` span on
/// `recorder`, carrying the operator label and output shape.
///
/// # Errors
///
/// Returns [`CoreError`] if the operator is invalid or the operands'
/// shapes do not match their declared [`TensorType`]s.
pub fn execute_traced(
    graph: &Graph,
    op: &OpInfo,
    operands: &OpOperands<'_>,
    recorder: &ugrapher_obs::Recorder,
    trace_id: u64,
) -> Result<Tensor2, CoreError> {
    let mut span = recorder.span_traced("exec.functional", ugrapher_obs::SpanKind::Exec, trace_id);
    let result = execute_inner(graph, op, operands);
    if span.is_enabled() {
        span.attr("op", op.label()).attr("ok", result.is_ok());
        if let Ok(out) = &result {
            span.attr("rows", out.rows()).attr("feat", out.cols());
        }
    }
    result
}

fn execute_inner(
    graph: &Graph,
    op: &OpInfo,
    operands: &OpOperands<'_>,
) -> Result<Tensor2, CoreError> {
    let feat = check_shapes(graph, op, operands)?;
    let nv = graph.num_vertices();
    let out_rows = match op.c {
        TensorType::Edge => graph.num_edges(),
        TensorType::DstV => nv,
        _ => unreachable!("validate() restricts C"),
    };

    let init = if op.gather_op.is_reduction() {
        op.gather_op.identity()
    } else {
        0.0
    };
    let mut out = Tensor2::full(out_rows, feat, init);
    let a = Operand::new(op.a, operands.a, feat);
    let b = Operand::new(op.b, operands.b, feat);
    specialise(HostIsa::detect(), op.edge_op, op.gather_op, a.full, b.full)(
        graph,
        a,
        b,
        op.c,
        feat,
        out.as_mut_slice(),
    );

    // Post-passes over vertex outputs: mean normalization and the
    // zero-default for reduction identities on isolated vertices.
    if op.c == TensorType::DstV {
        for dst in 0..nv {
            let deg = graph.in_degree(dst);
            let row = out.row_mut(dst);
            if deg == 0 {
                row.fill(0.0);
            } else if op.gather_op == GatherOp::Mean {
                let inv = 1.0 / deg as f32;
                for v in row.iter_mut() {
                    *v *= inv;
                }
            }
        }
    }
    Ok(out)
}

/// An absent operand reads as this one-element zero row.
const ZERO_ROW: [f32; 1] = [0.0];

/// One input operand as the edge loop reads it: row-major data and the
/// index (`src`, `dst` or edge id) that selects its row. A full operand's
/// rows are `feat` wide; a broadcast one (a single column against a wider
/// partner, or an absent operand) is one element wide.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    index: TensorType,
    full: bool,
}

impl<'a> Operand<'a> {
    /// `tensor` has passed [`check_shapes`] against `ty`, so a present
    /// operand is either `feat` or one column wide.
    fn new(ty: TensorType, tensor: Option<&'a Tensor2>, feat: usize) -> Self {
        match tensor {
            Some(t) => Self {
                data: t.as_slice(),
                index: ty,
                full: t.cols() == feat,
            },
            None => Self {
                data: &ZERO_ROW,
                index: TensorType::Null,
                full: false,
            },
        }
    }

    /// The row edge `src -> dst` with id `eid` reads, `width` elements wide
    /// (`feat` if full, else 1).
    #[inline(always)]
    fn row(&self, src: usize, dst: usize, eid: usize, width: usize) -> &'a [f32] {
        let r = match self.index {
            TensorType::SrcV => src,
            TensorType::DstV => dst,
            TensorType::Edge => eid,
            TensorType::Null => 0,
        };
        &self.data[r * width..][..width]
    }
}

/// One instance of the edge loop: graph, operands A and B, output type,
/// feature width, output buffer.
type EdgeLoop = fn(&Graph, Operand<'_>, Operand<'_>, TensorType, usize, &mut [f32]);

/// Picks the edge loop specialised for `(edge_op, gather_op)` and the
/// operand widths, at tier `isa` (portable, or AVX2 if the CPU has it).
/// `E` and `G` index [`EdgeOp::ALL`] and [`GatherOp::ALL`]. A mean folds
/// exactly like a sum (its division is the post-pass), so the two share
/// instances; no valid operator gathers with `CopyLhs`.
fn specialise(
    isa: HostIsa,
    edge_op: EdgeOp,
    gather_op: GatherOp,
    a_full: bool,
    b_full: bool,
) -> EdgeLoop {
    fn tier<const E: usize, const G: usize, const A_FULL: bool, const B_FULL: bool>(
        isa: HostIsa,
    ) -> EdgeLoop {
        match isa {
            HostIsa::Portable => edge_loop_portable::<E, G, A_FULL, B_FULL>,
            HostIsa::Avx2 => edge_loop_wide::<E, G, A_FULL, B_FULL>,
        }
    }
    fn widths<const E: usize, const G: usize>(
        isa: HostIsa,
        a_full: bool,
        b_full: bool,
    ) -> EdgeLoop {
        match (a_full, b_full) {
            (true, true) => tier::<E, G, true, true>(isa),
            (true, false) => tier::<E, G, true, false>(isa),
            (false, true) => tier::<E, G, false, true>(isa),
            (false, false) => tier::<E, G, false, false>(isa),
        }
    }
    fn gather<const E: usize>(
        isa: HostIsa,
        gather_op: GatherOp,
        a_full: bool,
        b_full: bool,
    ) -> EdgeLoop {
        match gather_op {
            GatherOp::CopyLhs => unreachable!("validate() rejects a CopyLhs gather"),
            GatherOp::CopyRhs => widths::<E, 1>(isa, a_full, b_full),
            GatherOp::Sum | GatherOp::Mean => widths::<E, 2>(isa, a_full, b_full),
            GatherOp::Max => widths::<E, 3>(isa, a_full, b_full),
            GatherOp::Min => widths::<E, 4>(isa, a_full, b_full),
        }
    }
    match edge_op {
        EdgeOp::CopyLhs => gather::<0>(isa, gather_op, a_full, b_full),
        EdgeOp::CopyRhs => gather::<1>(isa, gather_op, a_full, b_full),
        EdgeOp::Add => gather::<2>(isa, gather_op, a_full, b_full),
        EdgeOp::Sub => gather::<3>(isa, gather_op, a_full, b_full),
        EdgeOp::Mul => gather::<4>(isa, gather_op, a_full, b_full),
        EdgeOp::Div => gather::<5>(isa, gather_op, a_full, b_full),
    }
}

/// [`edge_loop`] at the AVX2 tier if the CPU has it, else at the portable
/// one.
fn edge_loop_wide<const E: usize, const G: usize, const A_FULL: bool, const B_FULL: bool>(
    graph: &Graph,
    a: Operand<'_>,
    b: Operand<'_>,
    c: TensorType,
    feat: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `edge_loop_avx2` needs no CPU feature beyond AVX2, and
        // `is_x86_feature_detected!("avx2")` has just reported it.
        return unsafe { edge_loop_avx2::<E, G, A_FULL, B_FULL>(graph, a, b, c, feat, out) };
    }
    edge_loop_portable::<E, G, A_FULL, B_FULL>(graph, a, b, c, feat, out);
}

/// [`edge_loop`] for the build target's baseline features.
#[inline(never)]
fn edge_loop_portable<const E: usize, const G: usize, const A_FULL: bool, const B_FULL: bool>(
    graph: &Graph,
    a: Operand<'_>,
    b: Operand<'_>,
    c: TensorType,
    feat: usize,
    out: &mut [f32],
) {
    edge_loop::<E, G, A_FULL, B_FULL>(graph, a, b, c, feat, out);
}

/// [`edge_loop`] compiled for AVX2 (eight-lane vectors). Running it on a
/// CPU without AVX2 is undefined behaviour, so its one caller,
/// [`edge_loop_wide`], checks `is_x86_feature_detected!("avx2")` first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn edge_loop_avx2<const E: usize, const G: usize, const A_FULL: bool, const B_FULL: bool>(
    graph: &Graph,
    a: Operand<'_>,
    b: Operand<'_>,
    c: TensorType,
    feat: usize,
    out: &mut [f32],
) {
    edge_loop::<E, G, A_FULL, B_FULL>(graph, a, b, c, feat, out);
}

/// The §3 loop nest for one constant `(edge_op, gather_op)` pair and
/// operand widths: destinations in order, each one's in-edges in CSR slot
/// order, then `C = gather_op(C, edge_op(A, B))` per feature element. The
/// ops are constants here, so their `apply` matches fold away, and the
/// feature loop is a bounds-check-free `zip` that LLVM vectorises. Always
/// inlined into one wrapper per tier, which picks the vector width.
#[inline(always)]
fn edge_loop<const E: usize, const G: usize, const A_FULL: bool, const B_FULL: bool>(
    graph: &Graph,
    a: Operand<'_>,
    b: Operand<'_>,
    c: TensorType,
    feat: usize,
    out: &mut [f32],
) {
    let edge_op = EdgeOp::ALL[E];
    let gather_op = GatherOp::ALL[G];
    let fold = |cv: &mut f32, av: f32, bv: f32| *cv = gather_op.apply(*cv, edge_op.apply(av, bv));
    let a_width = if A_FULL { feat } else { 1 };
    let b_width = if B_FULL { feat } else { 1 };
    let (in_ptr, in_src, in_eid) = (graph.in_ptr(), graph.in_src(), graph.in_eid());
    for dst in 0..graph.num_vertices() {
        let slots = in_ptr[dst]..in_ptr[dst + 1];
        for (&src, &eid) in in_src[slots.clone()].iter().zip(&in_eid[slots]) {
            let (src, eid) = (src as usize, eid as usize);
            let a_row = a.row(src, dst, eid, a_width);
            let b_row = b.row(src, dst, eid, b_width);
            let c_row = match c {
                TensorType::Edge => eid,
                _ => dst,
            };
            let c_row = &mut out[c_row * feat..][..feat];
            // A one-element (broadcast) operand is read once per edge.
            match (A_FULL, B_FULL) {
                (true, true) => {
                    for ((cv, &av), &bv) in c_row.iter_mut().zip(a_row).zip(b_row) {
                        fold(cv, av, bv);
                    }
                }
                (true, false) => {
                    let bv = b_row[0];
                    for (cv, &av) in c_row.iter_mut().zip(a_row) {
                        fold(cv, av, bv);
                    }
                }
                (false, true) => {
                    let av = a_row[0];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        fold(cv, av, bv);
                    }
                }
                (false, false) => {
                    let (av, bv) = (a_row[0], b_row[0]);
                    for cv in c_row {
                        fold(cv, av, bv);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 2, 1 -> 2, 2 -> 0 triangle-ish graph used across tests.
    fn graph() -> Graph {
        Graph::from_edges(3, vec![0, 1, 2], vec![2, 2, 0]).unwrap()
    }

    fn feats() -> Tensor2 {
        Tensor2::from_fn(3, 2, |r, c| (r * 10 + c) as f32)
    }

    #[test]
    fn aggregation_sum_matches_hand_computation() {
        let out = execute(
            &graph(),
            &OpInfo::aggregation_sum(),
            &OpOperands::single(&feats()),
        )
        .unwrap();
        // dst 2 <- src 0 (0,1) + src 1 (10,11) = (10, 12)
        assert_eq!(out.row(2), &[10.0, 12.0]);
        // dst 0 <- src 2 (20, 21)
        assert_eq!(out.row(0), &[20.0, 21.0]);
        // dst 1 has no in-edges -> zeros
        assert_eq!(out.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn aggregation_max_and_isolated_vertices() {
        let out = execute(
            &graph(),
            &OpInfo::aggregation_max(),
            &OpOperands::single(&feats()),
        )
        .unwrap();
        assert_eq!(out.row(2), &[10.0, 11.0]);
        assert_eq!(out.row(1), &[0.0, 0.0], "isolated vertex defaults to 0");
    }

    #[test]
    fn aggregation_mean_divides_by_degree() {
        let out = execute(
            &graph(),
            &OpInfo::aggregation_mean(),
            &OpOperands::single(&feats()),
        )
        .unwrap();
        assert_eq!(out.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn weighted_sum_uses_edge_tensor() {
        let g = graph();
        let w = Tensor2::from_fn(3, 2, |r, _| (r + 1) as f32); // per-edge weights
        let out = execute(
            &g,
            &OpInfo::weighted_aggregation_sum(),
            &OpOperands::pair(&feats(), &w),
        )
        .unwrap();
        // dst 2: edge0 (src0 * 1) + edge1 (src1 * 2) = (0,1) + (20,22)
        assert_eq!(out.row(2), &[20.0, 23.0]);
    }

    #[test]
    fn message_creation_writes_per_edge() {
        let g = graph();
        let out = execute(
            &g,
            &OpInfo::message_creation_add(),
            &OpOperands::pair(&feats(), &feats()),
        )
        .unwrap();
        assert_eq!(out.rows(), g.num_edges());
        // edge 0: src 0 + dst 2 = (0+20, 1+21)
        assert_eq!(out.row(0), &[20.0, 22.0]);
    }

    #[test]
    fn min_gather() {
        let op = OpInfo::new(
            EdgeOp::CopyLhs,
            GatherOp::Min,
            TensorType::SrcV,
            TensorType::Null,
            TensorType::DstV,
        )
        .unwrap();
        let out = execute(&graph(), &op, &OpOperands::single(&feats())).unwrap();
        assert_eq!(out.row(2), &[0.0, 1.0]);
    }

    #[test]
    fn shape_validation_rejects_wrong_rows() {
        let bad = Tensor2::zeros(5, 2);
        let err = execute(
            &graph(),
            &OpInfo::aggregation_sum(),
            &OpOperands::single(&bad),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadOperand { operand: 'A', .. }));
    }

    #[test]
    fn shape_validation_rejects_feature_mismatch() {
        let a = Tensor2::zeros(3, 2);
        let b = Tensor2::zeros(3, 3);
        let err = execute(
            &graph(),
            &OpInfo::message_creation_add(),
            &OpOperands::pair(&a, &b),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::FeatureMismatch { .. }));
    }

    #[test]
    fn missing_operand_rejected() {
        let err = execute(
            &graph(),
            &OpInfo::weighted_aggregation_sum(),
            &OpOperands::single(&feats()),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadOperand { operand: 'B', .. }));
    }

    #[test]
    fn superfluous_operand_rejected() {
        let err = execute(
            &graph(),
            &OpInfo::aggregation_sum(),
            &OpOperands::pair(&feats(), &feats()),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadOperand { operand: 'B', .. }));
    }

    #[test]
    fn zero_feature_dim_is_rejected_up_front() {
        // A 0-column operand must be a typed error, not an indexing panic
        // (the old clamp `f.min(r.len() - 1)` underflowed on empty rows).
        let empty = Tensor2::zeros(3, 0);
        let err = execute(
            &graph(),
            &OpInfo::aggregation_sum(),
            &OpOperands::single(&empty),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::FeatureMismatch { found: 0, .. }));
        // Mixed with a wide partner it is a mismatch, not a broadcast.
        let wide = Tensor2::zeros(3, 4);
        let err = execute(
            &graph(),
            &OpInfo::message_creation_add(),
            &OpOperands::pair(&wide, &empty),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::FeatureMismatch { .. }));
    }

    /// An absent operand reads `+0.0`. No valid operator's edge op reads
    /// an absent operand, so this drives the edge loop directly: under
    /// `Add`, `-0.0 + 0.0` is `+0.0` where a `-0.0` row would keep the sign.
    #[test]
    fn absent_operand_reads_positive_zero() {
        let g = Graph::from_edges(2, vec![0], vec![1]).unwrap();
        let x = Tensor2::full(2, 3, -0.0);
        let a = Operand::new(TensorType::SrcV, Some(&x), 3);
        let b = Operand::new(TensorType::Null, None, 3);
        let mut out = [1.0; 3];
        specialise(
            HostIsa::Portable,
            EdgeOp::Add,
            GatherOp::CopyRhs,
            a.full,
            b.full,
        )(&g, a, b, TensorType::Edge, 3, &mut out);
        assert_eq!(out.map(f32::to_bits), [0.0f32.to_bits(); 3]);
    }

    /// The portable and AVX2 instances of every edge loop `specialise`
    /// can return give the same bits, on a power-law graph with multi-edges
    /// at feature widths around the four- and eight-lane boundaries. Inputs
    /// and the starting output mix `±0.0`, `±∞` and NaN into ordinary
    /// values, so Max and Min compare signed zeros and NaNs: the vector
    /// `maxnum`/`minnum` must match the scalar lowering. NaNs compare as
    /// one pattern, since Rust leaves NaN payloads unspecified.
    #[test]
    fn avx2_tier_is_bitwise_equal_to_portable() {
        if HostIsa::detect() != HostIsa::Avx2 {
            eprintln!("note: this CPU has no AVX2, so the AVX2 edge loops are not compared");
            return;
        }
        const SPECIAL: [f32; 6] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0];
        let g = ugrapher_graph::generate::GraphSpec {
            num_vertices: 24,
            num_edges: 96,
            degree_model: ugrapher_graph::generate::DegreeModel::PowerLaw { alpha: 1.6 },
            locality: 0.2,
            seed: 3,
        }
        .build();
        let mut rng = ugrapher_util::rng::StdRng::seed_from_u64(23);
        let mut values = |rows: usize, cols: usize| {
            Tensor2::from_fn(rows, cols, |_, _| {
                if rng.random_range(0..3u32) == 0 {
                    SPECIAL[rng.random_range(0..SPECIAL.len())]
                } else {
                    rng.random::<f32>() * 4.0 - 2.0
                }
            })
        };
        let bits = |out: &[f32]| -> Vec<u32> {
            out.iter()
                .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
                .collect()
        };
        let (nv, ne) = (g.num_vertices(), g.num_edges());
        let gathers = [
            GatherOp::CopyRhs,
            GatherOp::Sum,
            GatherOp::Max,
            GatherOp::Min,
        ];
        for feat in [1, 3, 8, 16, 17, 32, 33] {
            for edge_op in EdgeOp::ALL {
                for gather_op in gathers {
                    for (a_full, b_full) in
                        [(true, true), (true, false), (false, true), (false, false)]
                    {
                        let x = values(nv, if a_full { feat } else { 1 });
                        let w = values(ne, if b_full { feat } else { 1 });
                        let a = Operand {
                            data: x.as_slice(),
                            index: TensorType::SrcV,
                            full: a_full,
                        };
                        let b = Operand {
                            data: w.as_slice(),
                            index: TensorType::Edge,
                            full: b_full,
                        };
                        let c = if gather_op == GatherOp::CopyRhs {
                            TensorType::Edge
                        } else {
                            TensorType::DstV
                        };
                        let start = values(if c == TensorType::Edge { ne } else { nv }, feat);
                        let run = |isa| {
                            let mut out = start.as_slice().to_vec();
                            specialise(isa, edge_op, gather_op, a_full, b_full)(
                                &g, a, b, c, feat, &mut out,
                            );
                            bits(&out)
                        };
                        assert_eq!(
                            run(HostIsa::Portable),
                            run(HostIsa::Avx2),
                            "{edge_op:?} {gather_op:?}, feat {feat}, full A {a_full} B {b_full}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_graph_yields_empty_output() {
        let g = Graph::from_edges(0, vec![], vec![]).unwrap();
        let x = Tensor2::zeros(0, 4);
        let out = execute(&g, &OpInfo::aggregation_sum(), &OpOperands::single(&x)).unwrap();
        assert_eq!(out.rows(), 0);
        assert_eq!(out.cols(), 4);
    }

    #[test]
    fn division_edge_op() {
        let op = OpInfo::new(
            EdgeOp::Div,
            GatherOp::Sum,
            TensorType::SrcV,
            TensorType::Edge,
            TensorType::DstV,
        )
        .unwrap();
        let g = graph();
        let w = Tensor2::full(3, 2, 2.0);
        let out = execute(&g, &op, &OpOperands::pair(&feats(), &w)).unwrap();
        assert_eq!(out.row(0), &[10.0, 10.5]); // (20,21)/2
    }
}
