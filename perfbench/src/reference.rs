//! An independent reference for graph-operator outputs, and the output
//! fingerprints that timed passes are checked against.
//!
//! The interpreter is the paper's §3 loop nest written out directly over
//! the CSR arrays: for every destination vertex, for every in-edge slot,
//! `tmp = edge_op(A[.], B[.])` then `C[.] = gather_op(C[.], tmp)`, followed
//! by the mean normalisation and the zero default for isolated vertices.
//! It shares no code with `ugrapher_core::exec`.

use ugrapher_core::abstraction::{EdgeOp, GatherOp, OpInfo, TensorType};
use ugrapher_graph::Graph;
use ugrapher_tensor::Tensor2;

fn edge_value(op: EdgeOp, a: f32, b: f32) -> f32 {
    match op {
        EdgeOp::CopyLhs => a,
        EdgeOp::CopyRhs => b,
        EdgeOp::Add => a + b,
        EdgeOp::Sub => a - b,
        EdgeOp::Mul => a * b,
        EdgeOp::Div => a / b,
    }
}

fn gather_value(op: GatherOp, acc: f32, edge: f32) -> f32 {
    match op {
        GatherOp::CopyLhs => acc,
        GatherOp::CopyRhs => edge,
        GatherOp::Sum | GatherOp::Mean => acc + edge,
        GatherOp::Max => acc.max(edge),
        GatherOp::Min => acc.min(edge),
    }
}

fn initial_value(op: GatherOp) -> f32 {
    match op {
        GatherOp::Max => f32::NEG_INFINITY,
        GatherOp::Min => f32::INFINITY,
        _ => 0.0,
    }
}

/// Row of `tensor` that operand type `ty` selects for the edge
/// `src -> dst` with id `eid`.
fn operand_row(
    ty: TensorType,
    tensor: Option<&Tensor2>,
    src: usize,
    dst: usize,
    eid: usize,
) -> Option<&[f32]> {
    let t = tensor?;
    Some(match ty {
        TensorType::SrcV => t.row(src),
        TensorType::DstV => t.row(dst),
        TensorType::Edge => t.row(eid),
        TensorType::Null => return None,
    })
}

/// Element `f` of a row; a one-column row broadcasts.
fn element(row: Option<&[f32]>, f: usize) -> f32 {
    match row {
        Some(r) if r.len() == 1 => r[0],
        Some(r) => r[f],
        None => 0.0,
    }
}

/// Evaluates `op` over `graph` with operands `a` and `b`.
pub fn interpret(graph: &Graph, op: &OpInfo, a: Option<&Tensor2>, b: Option<&Tensor2>) -> Tensor2 {
    let feat = a
        .iter()
        .chain(b.iter())
        .map(|t| t.cols())
        .max()
        .unwrap_or(1);
    let (in_ptr, in_src, in_eid) = (graph.in_ptr(), graph.in_src(), graph.in_eid());
    let nv = graph.num_vertices();
    let rows = match op.c {
        TensorType::Edge => graph.num_edges(),
        _ => nv,
    };
    let reduces = matches!(
        op.gather_op,
        GatherOp::Sum | GatherOp::Max | GatherOp::Min | GatherOp::Mean
    );
    let init = if reduces {
        initial_value(op.gather_op)
    } else {
        0.0
    };
    let mut out = Tensor2::full(rows, feat, init);
    for dst in 0..nv {
        for slot in in_ptr[dst]..in_ptr[dst + 1] {
            let src = in_src[slot] as usize;
            let eid = in_eid[slot] as usize;
            let a_row = operand_row(op.a, a, src, dst, eid);
            let b_row = operand_row(op.b, b, src, dst, eid);
            let c = if op.c == TensorType::Edge { eid } else { dst };
            let c_row = out.row_mut(c);
            for (f, cell) in c_row.iter_mut().enumerate() {
                let tmp = edge_value(op.edge_op, element(a_row, f), element(b_row, f));
                *cell = gather_value(op.gather_op, *cell, tmp);
            }
        }
    }
    if op.c == TensorType::DstV {
        for dst in 0..nv {
            let degree = in_ptr[dst + 1] - in_ptr[dst];
            let row = out.row_mut(dst);
            if degree == 0 {
                row.fill(0.0);
            } else if op.gather_op == GatherOp::Mean {
                let inv = 1.0 / degree as f32;
                row.iter_mut().for_each(|v| *v *= inv);
            }
        }
    }
    out
}

/// `true` when `got` equals `want` element for element (`-0.0 == 0.0`).
pub fn same_values(got: &Tensor2, want: &Tensor2) -> bool {
    got.shape() == want.shape()
        && got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(x, y)| x == y)
}

/// FNV-1a over a sequence of 64-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the shape and the exact bit patterns of a tensor. Timed
/// passes compare outputs to the verified ones through this fingerprint,
/// which keeps the check bitwise without holding every output in memory.
pub fn fingerprint(t: &Tensor2) -> u64 {
    let shape = [t.rows() as u64, t.cols() as u64];
    fnv1a(
        shape
            .into_iter()
            .chain(t.as_slice().iter().map(|v| u64::from(v.to_bits()))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_over_in_neighbours_with_an_isolated_vertex() {
        // 0 -> 2, 1 -> 2, 2 -> 0; vertex 1 has no in-edges.
        let g = Graph::from_edges(3, vec![0, 1, 2], vec![2, 2, 0]).expect("valid edges");
        let x = Tensor2::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        let out = interpret(&g, &OpInfo::aggregation_mean(), Some(&x), None);
        assert_eq!(out.row(2), &[5.0, 6.0]);
        assert_eq!(out.row(0), &[20.0, 21.0]);
        assert_eq!(out.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn fingerprint_sees_sign_of_zero() {
        let a = Tensor2::from_vec(1, 1, vec![0.0]).expect("shape");
        let b = Tensor2::from_vec(1, 1, vec![-0.0]).expect("shape");
        assert!(same_values(&a, &b));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }
}
