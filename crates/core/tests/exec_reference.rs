//! The functional executor against an independent interpreter of the §3
//! loop nest, compared bit for bit.
//!
//! The interpreter below is written out from the paper's definition alone:
//! for each destination, for each in-edge in CSR slot order, read one
//! element of A and B per feature (a one-column operand broadcasts, an
//! absent one reads `0.0`), apply `edge_op`, fold into C with `gather_op`;
//! then divide means by the in-degree and zero isolated destinations. It
//! shares no code with `exec::functional` beyond the operator enums.
//!
//! The matrix covers every valid operator, feature widths 1, 3, 32 and 33
//! (scalar tails and odd widths), full and one-column operands, and graphs
//! with a power-law hub, no edges, a lone self-loop, and multi-edges beside
//! isolated vertices. Input values include `-0.0`, NaN, ±Inf and
//! subnormals, so a changed operation order, a dropped sign of zero, or a
//! broadcast read at the wrong index shows as a differing bit.

#![allow(clippy::unwrap_used)]

use ugrapher_core::abstraction::{registry, EdgeOp, GatherOp, OpInfo, TensorType};
use ugrapher_core::exec::{execute, OpOperands};
use ugrapher_graph::generate::{DegreeModel, GraphSpec};
use ugrapher_graph::Graph;
use ugrapher_tensor::Tensor2;
use ugrapher_util::rng::StdRng;

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

/// Element `f` of the operand row that `ty` selects for edge
/// `src -> dst` with id `eid`.
fn element(
    ty: TensorType,
    t: Option<&Tensor2>,
    src: usize,
    dst: usize,
    eid: usize,
    f: usize,
) -> f32 {
    let Some(t) = t else { return 0.0 };
    let row = match ty {
        TensorType::SrcV => src,
        TensorType::DstV => dst,
        TensorType::Edge => eid,
        TensorType::Null => unreachable!("a present operand has a type"),
    };
    let col = if t.cols() == 1 { 0 } else { f };
    t.as_slice()[row * t.cols() + col]
}

fn interpret(g: &Graph, op: &OpInfo, a: Option<&Tensor2>, b: Option<&Tensor2>) -> Tensor2 {
    let feat = a.iter().chain(&b).map(|t| t.cols()).max().unwrap();
    let nv = g.num_vertices();
    let rows = if op.c == TensorType::Edge {
        g.num_edges()
    } else {
        nv
    };
    let init = match op.gather_op {
        GatherOp::Max => f32::NEG_INFINITY,
        GatherOp::Min => f32::INFINITY,
        _ => 0.0,
    };
    let mut c = vec![init; rows * feat];
    for dst in 0..nv {
        for slot in g.in_ptr()[dst]..g.in_ptr()[dst + 1] {
            let (src, eid) = (g.in_src()[slot] as usize, g.in_eid()[slot] as usize);
            let out_row = if op.c == TensorType::Edge { eid } else { dst };
            for f in 0..feat {
                let av = element(op.a, a, src, dst, eid, f);
                let bv = element(op.b, b, src, dst, eid, f);
                let cv = &mut c[out_row * feat + f];
                *cv = gather_value(op.gather_op, *cv, edge_value(op.edge_op, av, bv));
            }
        }
    }
    if op.c == TensorType::DstV {
        for dst in 0..nv {
            let deg = g.in_ptr()[dst + 1] - g.in_ptr()[dst];
            for cv in &mut c[dst * feat..(dst + 1) * feat] {
                if deg == 0 {
                    *cv = 0.0;
                } else if op.gather_op == GatherOp::Mean {
                    *cv *= 1.0 / deg as f32;
                }
            }
        }
    }
    Tensor2::from_vec(rows, feat, c).unwrap()
}

fn graphs() -> Vec<(&'static str, Graph)> {
    let hub = GraphSpec {
        num_vertices: 40,
        num_edges: 160,
        degree_model: DegreeModel::PowerLaw { alpha: 1.6 },
        locality: 0.2,
        seed: 17,
    }
    .build();
    vec![
        ("power-law hub", hub),
        ("edgeless", Graph::from_edges(6, vec![], vec![]).unwrap()),
        (
            "single vertex, self-loop",
            Graph::from_edges(1, vec![0], vec![0]).unwrap(),
        ),
        (
            "multi-edges, isolated vertices",
            Graph::from_edges(7, vec![0, 0, 0, 2, 2, 4], vec![1, 1, 1, 4, 4, 1]).unwrap(),
        ),
    ]
}

/// Seeded values, a quarter of them from a pool of special values.
fn values(rows: usize, cols: usize, seed: u64) -> Tensor2 {
    const SPECIAL: [f32; 10] = [
        -0.0,
        0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 8.0,
        -f32::MIN_POSITIVE / 3.0,
        f32::MAX,
        -1.0,
        1.0,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor2::from_fn(rows, cols, |_, _| {
        if rng.random_range(0..4) == 0 {
            SPECIAL[rng.random_range(0..SPECIAL.len())]
        } else {
            rng.random::<f32>() * 8.0 - 4.0
        }
    })
}

fn rows_for(ty: TensorType, g: &Graph) -> usize {
    if ty == TensorType::Edge {
        g.num_edges()
    } else {
        g.num_vertices()
    }
}

/// Output bits, with every NaN read as one pattern: the IEEE result of an
/// operation on two NaNs may carry either payload, so only NaN-ness is
/// part of the contract.
fn bits(t: &Tensor2) -> Vec<u32> {
    t.as_slice()
        .iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

#[test]
fn executor_is_bitwise_equal_to_the_interpreter() {
    let ops = registry::all_valid_ops();
    let mut cases = 0;
    let mut seed = 0;
    for (name, g) in graphs() {
        for op in &ops {
            for feat in [1, 3, 32, 33] {
                let a_present = op.a != TensorType::Null;
                let b_present = op.b != TensorType::Null;
                // Each present operand full or one column wide, never both
                // at once: one column beside a full partner broadcasts.
                for (a_width, b_width) in [(feat, feat), (1, feat), (feat, 1)] {
                    if (!a_present && a_width == 1) || (!b_present && b_width == 1) {
                        continue;
                    }
                    seed += 1;
                    let a = a_present.then(|| values(rows_for(op.a, &g), a_width, seed));
                    let b = b_present.then(|| values(rows_for(op.b, &g), b_width, seed + 7919));
                    let operands = OpOperands {
                        a: a.as_ref(),
                        b: b.as_ref(),
                    };
                    let got = execute(&g, op, &operands)
                        .unwrap_or_else(|e| panic!("{name} {op:?} feat {feat}: {e}"));
                    let want = interpret(&g, op, a.as_ref(), b.as_ref());
                    assert_eq!(got.shape(), want.shape(), "{name} {op:?} feat {feat}");
                    assert!(
                        bits(&got) == bits(&want),
                        "{name} {op:?} feat {feat} widths ({a_width}, {b_width}): \
                         got {:?}, want {:?}",
                        got.as_slice(),
                        want.as_slice()
                    );
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > ops.len() * 4 * 4, "{cases} cases");
}
