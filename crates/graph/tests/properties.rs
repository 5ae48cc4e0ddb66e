//! Property-based tests for the graph substrate.

// Test helpers outside #[test] fns are not covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used)]

use ugrapher_graph::generate::{DegreeModel, GraphSpec};
use ugrapher_graph::reorder::{cluster_order, degree_order, Permutation};
use ugrapher_graph::{Coo, Graph};
use ugrapher_util::check::forall;
use ugrapher_util::rng::StdRng;

/// Random COO graphs with up to 40 vertices and 120 edges.
fn random_coo(rng: &mut StdRng) -> Coo {
    let nv = rng.random_range(2usize..40);
    let ne = rng.random_range(0usize..120);
    let src: Vec<u32> = (0..ne).map(|_| rng.random_range(0..nv as u32)).collect();
    let dst: Vec<u32> = (0..ne).map(|_| rng.random_range(0..nv as u32)).collect();
    Coo::new(nv, src, dst).unwrap()
}

fn eq<T: PartialEq + std::fmt::Debug>(a: T, b: T, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

#[test]
fn coo_graph_round_trip() {
    forall("coo_graph_round_trip", 64, |rng| {
        let coo = random_coo(rng);
        let g = Graph::from_coo(&coo);
        eq(g.to_coo(), coo, "round trip")
    });
}

#[test]
fn degree_sums_match_edge_count() {
    forall("degree_sums_match_edge_count", 64, |rng| {
        let g = Graph::from_coo(&random_coo(rng));
        let in_sum: usize = (0..g.num_vertices()).map(|v| g.in_degree(v)).sum();
        let out_sum: usize = (0..g.num_vertices()).map(|v| g.out_degree(v)).sum();
        eq(in_sum, g.num_edges(), "in-degree sum")?;
        eq(out_sum, g.num_edges(), "out-degree sum")
    });
}

#[test]
fn every_edge_id_appears_once_in_each_view() {
    forall("edge_id_bijection", 64, |rng| {
        let g = Graph::from_coo(&random_coo(rng));
        let mut in_ids: Vec<u32> = g.in_eid().to_vec();
        let mut out_ids: Vec<u32> = g.out_eid().to_vec();
        in_ids.sort_unstable();
        out_ids.sort_unstable();
        let expect: Vec<u32> = (0..g.num_edges() as u32).collect();
        eq(in_ids, expect.clone(), "in-view edge ids")?;
        eq(out_ids, expect, "out-view edge ids")
    });
}

#[test]
fn in_and_out_views_agree() {
    forall("in_and_out_views_agree", 64, |rng| {
        let g = Graph::from_coo(&random_coo(rng));
        // Edge (s, e) in in-view of d must appear as (d, e) in out-view of s.
        for d in 0..g.num_vertices() {
            for (s, e) in g.in_neighbors(d) {
                let found = g
                    .out_neighbors(s as usize)
                    .any(|(dd, ee)| dd == d as u32 && ee == e);
                if !found {
                    return Err(format!("edge {e} missing from out-view"));
                }
            }
        }
        Ok(())
    });
}

#[test]
fn generator_hits_exact_counts() {
    forall("generator_hits_exact_counts", 48, |rng| {
        let nv = rng.random_range(2usize..200);
        let mul = rng.random_range(1usize..8);
        let seed = rng.random_range(0u64..1000);
        let locality = rng.random_range(0.0f64..1.0);
        let ne = nv * mul;
        let g = GraphSpec {
            num_vertices: nv,
            num_edges: ne,
            degree_model: DegreeModel::TargetStd { std: 3.0 },
            locality,
            seed,
        }
        .build();
        eq(g.num_vertices(), nv, "vertex count")?;
        eq(g.num_edges(), ne, "edge count")
    });
}

#[test]
fn reorder_preserves_edge_count_and_degrees() {
    forall("reorder_preserves_degrees", 48, |rng| {
        let g = Graph::from_coo(&random_coo(rng));
        for perm in [degree_order(&g), cluster_order(&g)] {
            let h = perm.apply(&g);
            eq(h.num_edges(), g.num_edges(), "edge count after reorder")?;
            let mut dg: Vec<usize> = (0..g.num_vertices()).map(|v| g.in_degree(v)).collect();
            let mut dh: Vec<usize> = (0..h.num_vertices()).map(|v| h.in_degree(v)).collect();
            dg.sort_unstable();
            dh.sort_unstable();
            eq(dg, dh, "degree multiset after reorder")?;
        }
        Ok(())
    });
}

#[test]
fn permutation_inverse_round_trips() {
    forall("permutation_inverse_round_trips", 48, |rng| {
        let g = Graph::from_coo(&random_coo(rng));
        let p = cluster_order(&g);
        let back = p.inverse().apply(&p.apply(&g));
        eq(back.to_coo(), g.to_coo(), "inverse round trip")
    });
}

#[test]
fn identity_permutation_is_noop() {
    forall("identity_permutation_is_noop", 48, |rng| {
        let g = Graph::from_coo(&random_coo(rng));
        let h = Permutation::identity(g.num_vertices()).apply(&g);
        eq(h.to_coo(), g.to_coo(), "identity permutation")
    });
}
