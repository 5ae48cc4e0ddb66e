//! Bit-identity proof for full GNN inference: an FNV-1a digest over the
//! output bits of `run_inference` for every model on three graph shapes.
//!
//! Dense projections, epilogues and graph operators all feed the logits, so
//! a host-side speed change to any of them (the GEMM kernel in particular)
//! must leave this digest unchanged. The constant was recorded on the
//! textbook `i-k-j` GEMM with its per-element zero skip.

use ugrapher::gnn::{run_inference, ModelConfig, ModelKind, UGrapherBackend};
use ugrapher::graph::generate::{DegreeModel, GraphSpec};
use ugrapher::graph::Graph;
use ugrapher::sim::DeviceConfig;
use ugrapher::tensor::Tensor2;

const FEAT: usize = 16;
const CLASSES: usize = 5;

/// Digest of every output in [`outputs`], in order.
const OUTPUT_DIGEST: u64 = 0x2e18_04fc_4ff8_8165;

/// 64-bit FNV-1a over little-endian `u32` words.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A star whose centre receives from every leaf, plus a ring over the
/// leaves so every vertex has some in-edge.
fn hub_graph() -> Graph {
    let n = 200u32;
    let mut src: Vec<u32> = (1..n).collect();
    let mut dst = vec![0u32; src.len()];
    for v in 1..n {
        src.push(v);
        dst.push(if v + 1 == n { 1 } else { v + 1 });
    }
    Graph::from_edges(n as usize, src, dst).expect("in range")
}

/// A power-law in-degree graph with some locality.
fn skewed_graph() -> Graph {
    GraphSpec {
        num_vertices: 300,
        num_edges: 2400,
        degree_model: DegreeModel::PowerLaw { alpha: 1.8 },
        locality: 0.4,
        seed: 23,
    }
    .build()
}

/// A small graph whose last vertex has no edge at all.
fn isolated_graph() -> Graph {
    let src = vec![0, 1, 2, 3, 4, 5, 0, 2, 4];
    let dst = vec![1, 2, 3, 4, 5, 0, 3, 5, 1];
    Graph::from_edges(7, src, dst).expect("in range")
}

/// Deterministic features with exact zeros and both signs.
fn features(rows: usize) -> Tensor2 {
    Tensor2::from_fn(rows, FEAT, |r, c| {
        let h = (r * 131 + c * 29 + 7) % 17;
        if h % 5 == 0 {
            0.0
        } else {
            (h as f32 - 8.0) * 0.0625
        }
    })
}

/// Output bits of every model on every graph, in a fixed order.
fn outputs() -> Vec<u32> {
    let backend = UGrapherBackend::quick(DeviceConfig::v100());
    let mut bits = Vec::new();
    for g in [hub_graph(), skewed_graph(), isolated_graph()] {
        let x = features(g.num_vertices());
        for kind in ModelKind::ALL {
            let res = run_inference(&ModelConfig::paper_default(kind), &g, &x, CLASSES, &backend)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(res.output.shape(), (g.num_vertices(), CLASSES));
            assert!(
                res.output.as_slice().iter().all(|v| v.is_finite()),
                "{kind:?} produced non-finite logits"
            );
            bits.extend(res.output.as_slice().iter().map(|v| v.to_bits()));
        }
    }
    bits
}

#[test]
fn inference_outputs_are_bit_identical() {
    let got = fnv(outputs());
    assert_eq!(
        got, OUTPUT_DIGEST,
        "inference output digest moved: {got:#018x}"
    );
}
