use std::fmt;
use std::sync::OnceLock;

use crate::{Coo, DegreeStats, GraphError};

/// A directed graph with both in-edge (CSC-like) and out-edge (CSR-like)
/// adjacency, preserving stable edge ids.
///
/// This is the runtime representation used by every executor in the
/// reproduction. The in-edge view backs the paper's canonical loop nest
/// (`for dst in V: for edge in dst.get_inedges()`, Fig. 4); the out-edge
/// view backs push-style baselines.
///
/// # Example
///
/// ```
/// use ugrapher_graph::{Coo, Graph};
///
/// # fn main() -> Result<(), ugrapher_graph::GraphError> {
/// let coo = Coo::new(3, vec![0, 0, 1], vec![1, 2, 2])?;
/// let g = Graph::from_coo(&coo);
/// // Vertex 2 has two incoming edges: from 0 (edge id 1) and 1 (edge id 2).
/// let ins: Vec<_> = g.in_neighbors(2).collect();
/// assert_eq!(ins, vec![(0, 1), (1, 2)]);
/// # Ok(())
/// # }
/// ```
///
/// A `Graph` is immutable: its fields are private, no method takes
/// `&mut self`, and every constructor goes through [`Graph::from_coo`].
/// So the facts [`Graph::admission`] derives from the structure are
/// computed once per value and kept beside it; equality and `Debug` ignore
/// them, and a clone carries them along.
#[derive(Clone)]
pub struct Graph {
    num_vertices: usize,
    num_edges: usize,
    /// In-edge offsets per destination vertex: length `num_vertices + 1`.
    in_ptr: Vec<usize>,
    /// Source vertex of each in-edge slot.
    in_src: Vec<u32>,
    /// Stable edge id of each in-edge slot.
    in_eid: Vec<u32>,
    /// Out-edge offsets per source vertex: length `num_vertices + 1`.
    out_ptr: Vec<usize>,
    /// Destination vertex of each out-edge slot.
    out_dst: Vec<u32>,
    /// Stable edge id of each out-edge slot.
    out_eid: Vec<u32>,
    /// [`Graph::admission`]'s memo, filled on first use.
    admission: OnceLock<Admission>,
}

/// What admitting a graph to a kernel needs to know about its structure:
/// the degree statistics, the [`Graph::validate`] verdict and the
/// structural fingerprint. [`Graph::admission`] computes them once per
/// [`Graph`] value.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    stats: DegreeStats,
    validation: Result<(), GraphError>,
    /// `validation`'s error as text, rendered once for borrowers.
    reason: Option<String>,
    fingerprint: u64,
}

impl Admission {
    fn of(graph: &Graph) -> Self {
        let validation = graph.validate();
        Self {
            stats: graph.degree_stats(),
            reason: validation.as_ref().err().map(ToString::to_string),
            validation,
            fingerprint: graph.structural_fingerprint(),
        }
    }

    /// [`Graph::degree_stats`].
    pub fn stats(&self) -> &DegreeStats {
        &self.stats
    }

    /// The [`Graph::validate`] verdict.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidStructure`] when the structure is broken.
    pub fn validation(&self) -> Result<(), GraphError> {
        self.validation.clone()
    }

    /// The [`Graph::validate`] error's message, if the structure is broken.
    pub fn validation_error(&self) -> Option<&str> {
        self.reason.as_deref()
    }

    /// [`Graph::structural_fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl Graph {
    /// Builds adjacency from a COO edge list. Edge ids are the COO positions.
    pub fn from_coo(coo: &Coo) -> Self {
        let nv = coo.num_vertices();
        let ne = coo.num_edges();

        let (in_ptr, in_src, in_eid) = bucket_by(nv, coo.dst(), coo.src());
        let (out_ptr, out_dst, out_eid) = bucket_by(nv, coo.src(), coo.dst());

        Self {
            num_vertices: nv,
            num_edges: ne,
            in_ptr,
            in_src,
            in_eid,
            out_ptr,
            out_dst,
            out_eid,
            admission: OnceLock::new(),
        }
    }

    /// Convenience constructor from raw edge arrays.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Coo::new`].
    pub fn from_edges(
        num_vertices: usize,
        src: Vec<u32>,
        dst: Vec<u32>,
    ) -> Result<Self, GraphError> {
        Ok(Self::from_coo(&Coo::new(num_vertices, src, dst)?))
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// In-degree of vertex `v`.
    pub fn in_degree(&self, v: usize) -> usize {
        self.in_ptr[v + 1] - self.in_ptr[v]
    }

    /// Out-degree of vertex `v`.
    pub fn out_degree(&self, v: usize) -> usize {
        self.out_ptr[v + 1] - self.out_ptr[v]
    }

    /// Iterates over `(src, edge_id)` for the in-edges of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst >= num_vertices()`.
    pub fn in_neighbors(&self, dst: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let range = self.in_ptr[dst]..self.in_ptr[dst + 1];
        self.in_src[range.clone()]
            .iter()
            .copied()
            .zip(self.in_eid[range].iter().copied())
    }

    /// Iterates over `(dst, edge_id)` for the out-edges of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src >= num_vertices()`.
    pub fn out_neighbors(&self, src: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let range = self.out_ptr[src]..self.out_ptr[src + 1];
        self.out_dst[range.clone()]
            .iter()
            .copied()
            .zip(self.out_eid[range].iter().copied())
    }

    /// The in-edge offset array (`num_vertices + 1` entries).
    pub fn in_ptr(&self) -> &[usize] {
        &self.in_ptr
    }

    /// Source vertex per in-edge slot (aligned with [`Graph::in_eid`]).
    pub fn in_src(&self) -> &[u32] {
        &self.in_src
    }

    /// Stable edge id per in-edge slot.
    pub fn in_eid(&self) -> &[u32] {
        &self.in_eid
    }

    /// The out-edge offset array (`num_vertices + 1` entries).
    pub fn out_ptr(&self) -> &[usize] {
        &self.out_ptr
    }

    /// Destination vertex per out-edge slot (aligned with [`Graph::out_eid`]).
    pub fn out_dst(&self) -> &[u32] {
        &self.out_dst
    }

    /// Stable edge id per out-edge slot.
    pub fn out_eid(&self) -> &[u32] {
        &self.out_eid
    }

    /// Reconstructs `(src, dst)` per edge id, inverting the CSR build.
    pub fn to_coo(&self) -> Coo {
        let mut src = vec![0u32; self.num_edges];
        let mut dst = vec![0u32; self.num_edges];
        for d in 0..self.num_vertices {
            for (s, e) in self.in_neighbors(d) {
                src[e as usize] = s;
                dst[e as usize] = d as u32;
            }
        }
        Coo::new(self.num_vertices, src, dst).expect("internal adjacency is always valid")
    }

    /// The graph's [`Admission`] facts: [`Graph::degree_stats`],
    /// [`Graph::validate`] and [`Graph::structural_fingerprint`], computed
    /// on the first call and returned from the memo afterwards. Nothing
    /// invalidates the memo because nothing can change the structure it
    /// describes; it lives exactly as long as this value. Concurrent first
    /// calls (e.g. through one `Arc<Graph>`) compute it once.
    pub fn admission(&self) -> &Admission {
        self.admission.get_or_init(|| Admission::of(self))
    }

    /// In-degree statistics ("std of nnz" in paper Table 3). Recomputed on
    /// every call; [`Graph::admission`] keeps them.
    pub fn degree_stats(&self) -> DegreeStats {
        DegreeStats::from_graph(self)
    }

    /// A 64-bit fingerprint of the graph's structure: dimensions, in-edge
    /// offsets, and one `(src << 32 | eid)` word per in-edge slot.
    ///
    /// Two graphs with the same fingerprint have, up to hash collision,
    /// identical adjacency *and* identical edge-id assignment — exactly the
    /// inputs a compiled kernel plan depends on — so plan caches key on
    /// this value and a graph mutation (added/removed edge, rewired
    /// endpoint, renumbered edge ids) changes the key. The out-edge view is
    /// derived from the same edge set and does not need to be hashed.
    ///
    /// The words are hashed one at a time, dealt round-robin to four
    /// independent multiply-rotate lanes so the multiplies of neighbouring
    /// words overlap; the lanes, which start from distinct seeds, are then
    /// folded in order and finished with a 64-bit avalanche. Each step is
    /// a bijection of its lane for a fixed word and of the word for a fixed
    /// lane, so changing any single word always changes the value. The
    /// value is an in-memory key only: it is not stable across versions
    /// and is never persisted.
    ///
    /// Cost is one pass over `V + E` words, paid on every call; callers
    /// that look up repeatedly read it from [`Graph::admission`], which
    /// computes it once per `Graph` value.
    pub fn structural_fingerprint(&self) -> u64 {
        /// Lane seeds: hex digits of pi.
        const SEEDS: [u64; 4] = [
            0x243f_6a88_85a3_08d3,
            0x1319_8a2e_0370_7344,
            0xa409_3822_299f_31d0,
            0x082e_fa98_ec4e_6c89,
        ];
        let mut lanes = SEEDS;
        absorb(
            &mut lanes,
            [self.num_vertices as u64, self.num_edges as u64],
        );
        absorb(&mut lanes, self.in_ptr.iter().map(|&p| p as u64));
        absorb(
            &mut lanes,
            self.in_src
                .iter()
                .zip(&self.in_eid)
                .map(|(&s, &e)| u64::from(s) << 32 | u64::from(e)),
        );
        let h = lanes.into_iter().fold(SEEDS[0], mix);
        // Murmur3's 64-bit finaliser.
        let h = (h ^ h >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
        let h = (h ^ h >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ h >> 33
    }

    /// Checks every CSR/CSC invariant the executors rely on.
    ///
    /// [`Graph::from_coo`] always produces a valid structure, but graphs
    /// can also arrive from files, caches or future zero-copy paths, and
    /// every executor indexes the arrays unchecked in its hot loop. This
    /// runs the full check on every call; [`Graph::admission`] keeps its
    /// verdict. The invariants:
    ///
    /// * both offset arrays have `num_vertices + 1` entries, start at 0,
    ///   end at `num_edges`, and are monotone non-decreasing;
    /// * the slot arrays (`in_src`/`in_eid`, `out_dst`/`out_eid`) all have
    ///   `num_edges` entries;
    /// * every stored vertex id is `< num_vertices`;
    /// * each view's edge ids are a bijection over `0..num_edges`, and the
    ///   two views describe the same edge set: the edge `e = (s, d)` seen
    ///   from `d`'s in-view is exactly the edge `e` seen from `s`'s
    ///   out-view.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidStructure`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        let fail = |reason: String| Err(GraphError::InvalidStructure { reason });
        let nv = self.num_vertices;
        let ne = self.num_edges;

        for (name, ptr) in [("in_ptr", &self.in_ptr), ("out_ptr", &self.out_ptr)] {
            if ptr.len() != nv + 1 {
                return fail(format!(
                    "{name} has {} entries, expected {}",
                    ptr.len(),
                    nv + 1
                ));
            }
            if ptr[0] != 0 {
                return fail(format!("{name}[0] = {}, expected 0", ptr[0]));
            }
            if ptr[nv] != ne {
                return fail(format!("{name}[{nv}] = {}, expected {ne} edges", ptr[nv]));
            }
            if let Some(v) = (0..nv).find(|&v| ptr[v] > ptr[v + 1]) {
                return fail(format!(
                    "{name} decreases at vertex {v}: {} > {}",
                    ptr[v],
                    ptr[v + 1]
                ));
            }
        }

        for (name, arr) in [
            ("in_src", &self.in_src),
            ("in_eid", &self.in_eid),
            ("out_dst", &self.out_dst),
            ("out_eid", &self.out_eid),
        ] {
            if arr.len() != ne {
                return fail(format!("{name} has {} entries, expected {ne}", arr.len()));
            }
        }
        for (name, arr) in [("in_src", &self.in_src), ("out_dst", &self.out_dst)] {
            if let Some(&v) = arr.iter().find(|&&v| v as usize >= nv) {
                return fail(format!("{name} references vertex {v} >= {nv}"));
            }
        }

        // Edge-id bijection per view plus cross-view agreement, through one
        // word per edge id: the in-view slot holding it. Each view has `ne`
        // slots, so ids that are in range and never repeat cover `0..ne`.
        // The out-view checks each of its edges against that slot (source,
        // and the destination whose slot range holds it) and marks the id
        // consumed, which also catches its own repeats.
        const UNSEEN: u64 = u64::MAX;
        let mut in_slot = vec![UNSEEN; ne];
        for (slot, &e) in self.in_eid.iter().enumerate() {
            let Some(seen) = in_slot.get_mut(e as usize) else {
                return fail(format!("in_eid contains id {e} >= {ne}"));
            };
            if *seen != UNSEEN {
                return fail(format!("edge id {e} appears twice in the in-view"));
            }
            *seen = slot as u64;
        }
        for s in 0..nv {
            for slot in self.out_ptr[s]..self.out_ptr[s + 1] {
                let e = self.out_eid[slot];
                let Some(seen) = in_slot.get_mut(e as usize) else {
                    return fail(format!("out_eid contains id {e} >= {ne}"));
                };
                let i = std::mem::replace(seen, UNSEEN);
                if i == UNSEEN {
                    return fail(format!("edge id {e} appears twice in the out-view"));
                }
                let i = i as usize;
                let d = self.out_dst[slot] as usize;
                if self.in_src[i] as usize != s
                    || !(self.in_ptr[d]..self.in_ptr[d + 1]).contains(&i)
                {
                    // The in-view destination of slot `i`: the last vertex
                    // whose offset is at most `i`.
                    let in_dst = self.in_ptr.partition_point(|&p| p <= i) - 1;
                    return fail(format!(
                        "edge id {e} is {:?} in the in-view but {:?} in the out-view",
                        (self.in_src[i], in_dst),
                        (s, d)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Structural equality: the [`Graph::admission`] memo is derived from the
/// compared fields, so whether it is filled does not matter.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices == other.num_vertices
            && self.num_edges == other.num_edges
            && self.in_ptr == other.in_ptr
            && self.in_src == other.in_src
            && self.in_eid == other.in_eid
            && self.out_ptr == other.out_ptr
            && self.out_dst == other.out_dst
            && self.out_eid == other.out_eid
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.num_edges)
            .field("in_ptr", &self.in_ptr)
            .field("in_src", &self.in_src)
            .field("in_eid", &self.in_eid)
            .field("out_ptr", &self.out_ptr)
            .field("out_dst", &self.out_dst)
            .field("out_eid", &self.out_eid)
            .finish()
    }
}

/// One fingerprint step: a multiply-rotate mix (FxHash's) of `word` into
/// `lane`.
#[inline(always)]
fn mix(lane: u64, word: u64) -> u64 {
    (lane.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Mixes `words` into the four lanes round-robin, starting at lane 0.
fn absorb(lanes: &mut [u64; 4], words: impl IntoIterator<Item = u64>) {
    let mut words = words.into_iter();
    loop {
        for lane in lanes.iter_mut() {
            let Some(w) = words.next() else { return };
            *lane = mix(*lane, w);
        }
    }
}

/// Buckets edges by `key[e]`, producing `(ptr, other, eid)` CSR arrays.
fn bucket_by(nv: usize, key: &[u32], other: &[u32]) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
    let ne = key.len();
    let mut ptr = vec![0usize; nv + 1];
    for &k in key {
        ptr[k as usize + 1] += 1;
    }
    for i in 0..nv {
        ptr[i + 1] += ptr[i];
    }
    let mut cursor = ptr[..nv].to_vec();
    let mut out_other = vec![0u32; ne];
    let mut out_eid = vec![0u32; ne];
    for e in 0..ne {
        let k = key[e] as usize;
        let slot = cursor[k];
        cursor[k] += 1;
        out_other[slot] = other[e];
        out_eid[slot] = e as u32;
    }
    (ptr, out_other, out_eid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Graph::from_edges(4, vec![0, 0, 1, 2], vec![1, 2, 3, 3]).unwrap()
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn in_neighbors_carry_edge_ids() {
        let g = diamond();
        let ins: Vec<_> = g.in_neighbors(3).collect();
        assert_eq!(ins, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn out_neighbors_carry_edge_ids() {
        let g = diamond();
        let outs: Vec<_> = g.out_neighbors(0).collect();
        assert_eq!(outs, vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn coo_round_trip() {
        let coo = Coo::new(5, vec![4, 0, 2, 2, 1], vec![0, 3, 1, 1, 4]).unwrap();
        let g = Graph::from_coo(&coo);
        assert_eq!(g.to_coo(), coo);
    }

    #[test]
    fn self_loops_and_multi_edges_allowed() {
        let g = Graph::from_edges(2, vec![0, 0, 1], vec![0, 1, 1]).unwrap();
        assert_eq!(g.in_degree(0), 1);
        assert_eq!(g.in_degree(1), 2);
        let ins: Vec<_> = g.in_neighbors(1).collect();
        assert_eq!(ins, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, vec![], vec![]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = Graph::from_edges(10, vec![0], vec![9]).unwrap();
        for v in 1..9 {
            assert_eq!(g.in_degree(v), 0);
            assert_eq!(g.out_degree(v), 0);
        }
    }

    #[test]
    fn constructed_graphs_validate() {
        for g in [
            diamond(),
            Graph::from_edges(0, vec![], vec![]).unwrap(),
            Graph::from_edges(2, vec![0, 0, 1], vec![0, 1, 1]).unwrap(),
            Graph::from_edges(10, vec![0], vec![9]).unwrap(),
        ] {
            g.validate().unwrap();
        }
    }

    #[test]
    fn validate_catches_corrupted_structures() {
        let assert_invalid = |g: &Graph, what: &str| {
            assert!(
                matches!(g.validate(), Err(GraphError::InvalidStructure { .. })),
                "{what} not caught"
            );
        };

        let mut g = diamond();
        g.in_ptr[1] = 5; // exceeds the next offset AND the edge count
        assert_invalid(&g, "non-monotone in_ptr");

        let mut g = diamond();
        g.in_ptr.pop();
        assert_invalid(&g, "short in_ptr");

        let mut g = diamond();
        *g.out_ptr.last_mut().unwrap() = 3;
        assert_invalid(&g, "out_ptr not ending at num_edges");

        let mut g = diamond();
        g.in_src[0] = 99;
        assert_invalid(&g, "out-of-bounds in_src");

        let mut g = diamond();
        g.in_eid[0] = g.in_eid[1];
        assert_invalid(&g, "duplicate in-view edge id");

        let mut g = diamond();
        g.out_eid[0] = 77;
        assert_invalid(&g, "out-of-range out_eid");

        let mut g = diamond();
        g.in_src.truncate(2);
        assert_invalid(&g, "short in_src");

        // Both views self-consistent but disagreeing on an edge's endpoints:
        // in_src [0, 0, 1, 2] becomes [0, 1, 0, 2], so edge 1 reads 1 -> 2
        // in the in-view while the out-view still says 0 -> 2.
        let mut g = diamond();
        g.in_src.swap(1, 2);
        assert_invalid(&g, "in/out views describing different edges");

        // Same source, different destination: swapping the ids of 0 -> 1
        // and 0 -> 2 in the in-view keeps every source and both bijections.
        let mut g = diamond();
        g.in_eid.swap(0, 1);
        assert_invalid(&g, "in/out views disagreeing on a destination");
    }

    /// A structure broken before its first admission is refused through
    /// the memo, with the same error [`Graph::validate`] returns.
    #[test]
    fn admission_of_a_corrupted_graph_is_invalid() {
        let mut g = diamond();
        g.in_src.swap(1, 2);
        assert!(g.admission.get().is_none(), "memo must start empty");
        let admission = g.admission();
        assert!(matches!(
            admission.validation(),
            Err(GraphError::InvalidStructure { .. })
        ));
        assert_eq!(admission.validation(), g.validate());
        assert_eq!(
            admission.validation_error(),
            Some(g.validate().unwrap_err().to_string().as_str())
        );

        let ok = diamond();
        assert_eq!(ok.admission().validation(), Ok(()));
        assert_eq!(ok.admission().validation_error(), None);
        assert_eq!(ok.admission().fingerprint(), ok.structural_fingerprint());
        assert_eq!(ok.admission().stats(), &ok.degree_stats());
    }

    /// Every single-word edit of the hashed arrays changes the value,
    /// including swaps between slots that share a hash lane (slots `k`
    /// and `k + 4`) and between slots in different lanes.
    #[test]
    fn structural_fingerprint_sees_every_edit() {
        // 6 vertices, 9 edges with distinct (src, eid) words.
        let base = Graph::from_edges(
            6,
            vec![0, 1, 2, 3, 4, 5, 0, 2, 4],
            vec![1, 2, 3, 4, 5, 0, 3, 5, 1],
        )
        .unwrap();
        let fp = base.structural_fingerprint();
        assert_eq!(fp, Graph::from_coo(&base.to_coo()).structural_fingerprint());

        type Edit = (&'static str, fn(&mut Graph));
        let edits: [Edit; 6] = [
            ("one src changed", |g| g.in_src[3] = (g.in_src[3] + 1) % 6),
            ("two eids swapped", |g| g.in_eid.swap(2, 7)),
            ("in_ptr boundary moved", |g| g.in_ptr[3] += 1),
            ("slots swapped within a lane", |g| {
                g.in_src.swap(1, 5);
                g.in_eid.swap(1, 5);
            }),
            ("slots swapped across lanes", |g| {
                g.in_src.swap(1, 2);
                g.in_eid.swap(1, 2);
            }),
            ("num_edges changed", |g| g.num_edges += 1),
        ];
        for (what, edit) in edits {
            let mut g = base.clone();
            edit(&mut g);
            assert_ne!(g, base, "{what}: the edit must change the graph");
            assert_ne!(g.structural_fingerprint(), fp, "{what}");
        }

        let coo = base.to_coo();
        let appended = Graph::from_edges(7, coo.src().to_vec(), coo.dst().to_vec()).unwrap();
        assert_ne!(
            appended.structural_fingerprint(),
            fp,
            "isolated vertex appended"
        );
    }

    /// No two of 10k distinct seeded small graphs share a fingerprint.
    #[test]
    fn structural_fingerprint_has_no_collisions_on_small_graphs() {
        use std::collections::HashMap;
        use ugrapher_util::rng::StdRng;

        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut seen: HashMap<u64, Coo> = HashMap::new();
        let mut distinct = 0;
        while distinct < 10_000 {
            let nv = rng.random_range(1..10usize);
            let ne = rng.random_range(0..12usize);
            let mut end = || rng.random_range(0..nv as u32);
            let (src, dst): (Vec<u32>, Vec<u32>) = (0..ne).map(|_| (end(), end())).unzip();
            let coo = Coo::new(nv, src, dst).unwrap();
            let fp = Graph::from_coo(&coo).structural_fingerprint();
            match seen.get(&fp) {
                Some(prev) => assert_eq!(prev, &coo, "collision at {fp:#x}"),
                None => {
                    seen.insert(fp, coo);
                    distinct += 1;
                }
            }
        }
    }

    #[test]
    fn structural_fingerprint_tracks_structure() {
        let g = diamond();
        // Deterministic per structure: an independent rebuild agrees.
        assert_eq!(
            g.structural_fingerprint(),
            Graph::from_coo(&g.to_coo()).structural_fingerprint()
        );
        // Changed nnz at the same vertex count must change the key.
        let coo = g.to_coo();
        let mut src = coo.src().to_vec();
        let mut dst = coo.dst().to_vec();
        src.pop();
        dst.pop();
        let smaller = Graph::from_coo(&Coo::new(coo.num_vertices(), src, dst).unwrap());
        assert_eq!(smaller.num_vertices(), g.num_vertices());
        assert_ne!(g.structural_fingerprint(), smaller.structural_fingerprint());
        // Reordering the edge list renumbers edge ids: also a new key.
        let mut src = coo.src().to_vec();
        let mut dst = coo.dst().to_vec();
        src.swap(0, 1);
        dst.swap(0, 1);
        let renumbered = Graph::from_coo(&Coo::new(coo.num_vertices(), src, dst).unwrap());
        if renumbered != g {
            assert_ne!(
                g.structural_fingerprint(),
                renumbered.structural_fingerprint()
            );
        }
    }
}
