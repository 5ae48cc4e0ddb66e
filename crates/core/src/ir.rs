//! The typed kernel IR — the single source of truth shared by the CUDA
//! emitter and the static verifier.
//!
//! [`crate::lower::lower`] turns a [`KernelPlan`](crate::plan::KernelPlan)
//! into a [`KernelIr`]: an explicit loop nest ([`Loop`]) around a short
//! SSA-like statement list ([`Stmt`]) whose loads and stores carry **index
//! provenance** ([`Provenance`]) — where each row index value comes from
//! and therefore which symbolic bound ([`Bound`]) it is below. The CUDA
//! emitter ([`crate::codegen_cuda::emit_cuda`]) renders its kernel body
//! from this IR, and the `ugrapher-analyze` verifier passes (bounds
//! checking, determinism classification, IR lint) analyze the *same* IR,
//! so a safety claim about the analysis is a claim about the emitted code
//! by construction — the two can no longer silently drift apart.
//!
//! The simulator's trace walker ([`crate::exec::measure`]) reads the same
//! loads and store to place its memory accesses, so the emitted kernel,
//! the verified kernel and the simulated kernel are one description.
//! Launch geometry (groups, tiles, grid shape) is not repeated here; it
//! stays on the plan the IR was lowered from.
//!
//! Two families of derived facts live here because other `core` layers
//! consume them directly:
//!
//! * [`classify_determinism`] / [`DeterminismClass`] — whether repeated
//!   runs of the kernel are bitwise identical, surfaced on
//!   [`crate::robustness::RobustnessReport`];
//! * [`AccessPattern`] / [`operand_patterns_for`] — per-operand memory
//!   access classification feeding the predictor features in
//!   [`crate::tune::features`].

use crate::abstraction::{EdgeOp, OpInfo, TensorType};
use crate::schedule::{ParallelInfo, Strategy};

/// Which operand buffer a load reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandBuf {
    /// The first operand tensor.
    A,
    /// The second operand tensor.
    B,
}

impl OperandBuf {
    /// The buffer's parameter name in the emitted kernel (`"A"` / `"B"`).
    pub fn name(self) -> &'static str {
        match self {
            OperandBuf::A => "A",
            OperandBuf::B => "B",
        }
    }
}

/// A symbolic quantity a row index is strictly below — the vocabulary of
/// the bounds checker. Bounds are symbols, not numbers: `NumVertices` and
/// `NumEdges` are unrelated, so an index bounded by one never proves an
/// access into a buffer sized by the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// `num_vertices` — the row count of `SrcV`/`DstV` tensors.
    NumVertices,
    /// `num_edges` — the row count of `Edge` tensors.
    NumEdges,
    /// `FEAT` — the feature (column) dimension.
    FeatDim,
}

impl Bound {
    /// The bound's name in emitted code and witness messages.
    pub fn symbol(self) -> &'static str {
        match self {
            Bound::NumVertices => "num_vertices",
            Bound::NumEdges => "num_edges",
            Bound::FeatDim => "FEAT",
        }
    }

    /// The symbolic row count of a tensor type (`None` for `Null`).
    pub fn rows_of(t: TensorType) -> Option<Bound> {
        match t {
            TensorType::SrcV | TensorType::DstV => Some(Bound::NumVertices),
            TensorType::Edge => Some(Bound::NumEdges),
            TensorType::Null => None,
        }
    }
}

/// Where a row-index value comes from — the provenance every load/store in
/// the IR carries. Provenance determines both the C variable the renderer
/// emits (`dst`, `src`, `eid`) and the symbolic bound plus discharging
/// invariant the bounds checker uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// `dst` produced by partitioning `[0, num_vertices)` into groups —
    /// the destination loop of vertex strategies. Bounded by the loop's
    /// own `min(..., num_vertices)` clamp.
    DstPartition,
    /// `dst` loaded from `slot_dst[s]` (edge strategies). Bounded by
    /// `Graph::validate`'s vertex-id check on the slot arrays.
    DstIndirect,
    /// `src` loaded from `in_src[s]`. Bounded by `Graph::validate`'s
    /// vertex-id check on the slot arrays.
    SrcIndirect,
    /// `eid` loaded from `in_eid[s]`. Bounded by `Graph::validate`'s
    /// edge-id bijection check.
    EidIndirect,
}

impl Provenance {
    /// The C variable this index renders to.
    pub fn var(self) -> &'static str {
        match self {
            Provenance::DstPartition | Provenance::DstIndirect => "dst",
            Provenance::SrcIndirect => "src",
            Provenance::EidIndirect => "eid",
        }
    }

    /// The symbolic bound this index is strictly below for any graph that
    /// passes `Graph::validate`.
    pub fn bound(self) -> Bound {
        match self {
            Provenance::DstPartition | Provenance::DstIndirect | Provenance::SrcIndirect => {
                Bound::NumVertices
            }
            Provenance::EidIndirect => Bound::NumEdges,
        }
    }

    /// The fact that discharges the bound: either a loop clamp visible in
    /// the IR itself or a named `Graph::validate` invariant.
    pub fn discharged_by(self) -> &'static str {
        match self {
            Provenance::DstPartition => "loop clamp min(..., num_vertices)",
            Provenance::DstIndirect => {
                "Graph::validate: slot arrays hold vertex ids < num_vertices"
            }
            Provenance::SrcIndirect => "Graph::validate: in_src holds vertex ids < num_vertices",
            Provenance::EidIndirect => "Graph::validate: in_eid is a bijection over 0..num_edges",
        }
    }

    /// Whether the value is read through a slot array (and therefore needs
    /// an in-bounds slot index `s`, supplied by a [`Loop::CsrSlots`] or
    /// [`Loop::EdgeGroup`] loop).
    pub fn is_indirect(self) -> bool {
        !matches!(self, Provenance::DstPartition)
    }
}

/// One memory access: a buffer row addressed by a provenance-carrying
/// index, optionally strided by the feature loop
/// (`buf[(size_t)row * FEAT + f]` vs the scalar-broadcast `buf[row]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Load {
    /// The operand buffer being read.
    pub buf: OperandBuf,
    /// The buffer's tensor type (decides its symbolic row count).
    pub tensor: TensorType,
    /// Row index provenance.
    pub row: Provenance,
    /// `true` for full feature rows, `false` for one-column scalar
    /// broadcast operands.
    pub feature_indexed: bool,
}

/// A value in the inner-loop statement list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// The `0.0f` placeholder of a `Null` operand. Pass-1 fusion must
    /// eliminate every one of these; a `Zero` surviving into a lowered
    /// kernel is an IR lint finding.
    Zero,
    /// A load from an operand buffer.
    Load(Load),
    /// The edge temporary defined by [`Stmt::DefineEdgeTmp`].
    EdgeTmp,
}

/// How the output element is updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateKind {
    /// `C[i] = v` — exclusive overwrite (copy gathers / edge outputs).
    Assign,
    /// `C[i] += v` — exclusive sum/mean accumulation.
    Accumulate,
    /// `C[i] = fmaxf(C[i], v)` — exclusive running max.
    MaxInPlace,
    /// `C[i] = fminf(C[i], v)` — exclusive running min.
    MinInPlace,
    /// `atomicAdd(&C[i], v)` — contended float sum/mean.
    AtomicAdd,
    /// Compare-and-swap loop implementing atomic float max.
    AtomicCasMax,
    /// Compare-and-swap loop implementing atomic float min.
    AtomicCasMin,
}

impl UpdateKind {
    /// Whether the update uses hardware atomics.
    pub fn is_atomic(self) -> bool {
        matches!(
            self,
            UpdateKind::AtomicAdd | UpdateKind::AtomicCasMax | UpdateKind::AtomicCasMin
        )
    }

    /// Whether the update reads the previous output value
    /// (read-modify-write) rather than overwriting it.
    pub fn is_reduction(self) -> bool {
        !matches!(self, UpdateKind::Assign)
    }
}

/// The output store: the final statement of every kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Store {
    /// The output tensor type (decides its symbolic row count).
    pub tensor: TensorType,
    /// Row index provenance.
    pub row: Provenance,
    /// The stored value.
    pub value: Value,
    /// Plain or atomic update form.
    pub update: UpdateKind,
}

/// One statement of the innermost loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `float edge_tmp = ugrapher_edge_fn(a, b);` — the materialised edge
    /// stage. Absent when pass-1 fusion removed the copy.
    DefineEdgeTmp {
        /// The element-wise edge op the device function applies.
        op: EdgeOp,
        /// Left operand.
        a: Value,
        /// Right operand.
        b: Value,
    },
    /// The output update.
    Store(Store),
}

/// One level of the kernel's loop nest, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loop {
    /// `for dst in [gidx*GROUP, min((gidx+1)*GROUP, num_vertices))` — the
    /// destination partition of vertex strategies.
    DstGroup,
    /// `for s in [in_ptr[dst], in_ptr[dst+1])` — the CSR in-edge slots of
    /// one destination. In-bounds because `in_ptr` is monotone with
    /// `in_ptr[num_vertices] == num_edges` (`Graph::validate`).
    CsrSlots,
    /// `for s in [gidx*GROUP, min((gidx+1)*GROUP, num_edges))` — the edge
    /// slot partition of edge strategies.
    EdgeGroup,
    /// `for f in [f0 (+lane), min(f0 + TILE_LEN, FEAT)) step stride` —
    /// the feature tile loop. `stride > 1` means warp lanes split the
    /// tile, each starting at `f0 + lane`.
    Feature {
        /// Step between iterations of one thread (1 or the warp width).
        stride: usize,
    },
}

/// A fully lowered kernel: typed loop nest and statement list, plus the
/// `(operator, schedule)` pair it was lowered from so verifier passes are
/// self-contained.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelIr {
    /// The operator this kernel implements.
    pub op: OpInfo,
    /// The schedule it was lowered under.
    pub parallel: ParallelInfo,
    /// Loop nest, outermost first; the last entry is always the feature
    /// loop wrapping [`KernelIr::body`].
    pub loops: Vec<Loop>,
    /// Innermost-loop statements; the last is always the [`Store`].
    pub body: Vec<Stmt>,
}

impl KernelIr {
    /// The output store (the last statement; lowering guarantees exactly
    /// one).
    ///
    /// # Panics
    ///
    /// Panics if the IR was hand-built without a store — lowered IR always
    /// has one.
    pub fn store(&self) -> &Store {
        match self.body.last() {
            Some(Stmt::Store(s)) => s,
            _ => panic!("lowered kernel IR always ends in a store"),
        }
    }

    /// Every operand load in the body, in statement order.
    pub fn loads(&self) -> Vec<Load> {
        let mut out = Vec::new();
        let mut push = |v: &Value| {
            if let Value::Load(l) = v {
                out.push(*l);
            }
        };
        for stmt in &self.body {
            match stmt {
                Stmt::DefineEdgeTmp { a, b, .. } => {
                    push(a);
                    push(b);
                }
                Stmt::Store(s) => push(&s.value),
            }
        }
        out
    }

    /// Feature words one work item covers per instruction: the feature
    /// loop's stride, 1 for a thread item and 32 for a warp item.
    pub fn lane_stride(&self) -> usize {
        self.loops
            .iter()
            .find_map(|l| match l {
                Loop::Feature { stride, .. } => Some(*stride),
                _ => None,
            })
            .unwrap_or(1)
    }

    /// Whether work items iterate edge slots (vs destination vertices).
    pub fn edge_parallel(&self) -> bool {
        self.loops.contains(&Loop::EdgeGroup)
    }

    /// Arithmetic instructions per feature element in the inner loop: one
    /// for a materialised edge stage, one for a reducing store. Fused copy
    /// stages cost nothing.
    pub fn arith_per_element(&self) -> f64 {
        self.body
            .iter()
            .filter(|s| match s {
                Stmt::DefineEdgeTmp { .. } => true,
                Stmt::Store(store) => store.update.is_reduction(),
            })
            .count() as f64
    }

    /// Per-operand access-pattern classification (see [`AccessPattern`]).
    pub fn operand_patterns(&self) -> OperandPatterns {
        let warp = self.lane_stride() > 1;
        let classify_load = |buf: OperandBuf| {
            self.loads()
                .iter()
                .find(|l| l.buf == buf)
                .map(|l| AccessPattern::of(l.row, l.feature_indexed, warp))
        };
        let store = self.store();
        OperandPatterns {
            a: classify_load(OperandBuf::A),
            b: classify_load(OperandBuf::B),
            c: AccessPattern::of(store.row, true, warp),
        }
    }
}

/// How a warp's 32 lanes touch memory when executing one access of the
/// kernel — the static feature the adaptive tuner consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Adjacent lanes read adjacent words (warp strategies striding lanes
    /// over the feature dimension): one transaction per warp per 32
    /// words.
    Coalesced,
    /// Adjacent lanes read rows a fixed stride apart (thread strategies
    /// walking partitioned destination rows): predictable but uncoalesced.
    Strided,
    /// Every lane reads the same word (scalar operands under warp
    /// strategies): served by one transaction + broadcast.
    Broadcast,
    /// Lanes read data-dependent rows through an indirection array
    /// (`in_src`/`slot_dst`/`in_eid`): the irregular GNN gather.
    Gather,
}

impl AccessPattern {
    /// Stable lower-case label (trace attributes, JSON export).
    pub fn label(self) -> &'static str {
        match self {
            AccessPattern::Coalesced => "coalesced",
            AccessPattern::Strided => "strided",
            AccessPattern::Broadcast => "broadcast",
            AccessPattern::Gather => "gather",
        }
    }

    /// Small stable id for feature vectors (0 is reserved for "operand
    /// absent").
    pub fn feature_id(self) -> f64 {
        match self {
            AccessPattern::Coalesced => 1.0,
            AccessPattern::Strided => 2.0,
            AccessPattern::Broadcast => 3.0,
            AccessPattern::Gather => 4.0,
        }
    }

    /// Classifies one access from its index provenance, stride shape, and
    /// the work-item granularity — the single classification rule used by
    /// both [`KernelIr::operand_patterns`] and the plan-free
    /// [`operand_patterns_for`] helper.
    ///
    /// * Warp items stride lanes over features: full rows coalesce,
    ///   scalars broadcast.
    /// * Thread items walk features serially, so the pattern across lanes
    ///   is decided by the *row* index: partitioned loop rows are a fixed
    ///   stride apart, indirect rows are data-dependent gathers.
    pub fn of(row: Provenance, feature_indexed: bool, warp_item: bool) -> AccessPattern {
        if warp_item {
            if feature_indexed {
                AccessPattern::Coalesced
            } else {
                AccessPattern::Broadcast
            }
        } else if row.is_indirect() {
            AccessPattern::Gather
        } else if feature_indexed {
            AccessPattern::Strided
        } else {
            AccessPattern::Coalesced
        }
    }
}

/// The access patterns of one kernel's operands (`None` = operand absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandPatterns {
    /// Operand A's pattern.
    pub a: Option<AccessPattern>,
    /// Operand B's pattern.
    pub b: Option<AccessPattern>,
    /// The output tensor's pattern.
    pub c: AccessPattern,
}

impl OperandPatterns {
    /// Feature-vector encoding: one id per operand, 0 when absent.
    pub fn feature_ids(&self) -> [f64; 3] {
        let id = |p: Option<AccessPattern>| p.map_or(0.0, AccessPattern::feature_id);
        [
            id(self.a),
            id(self.b),
            Some(self.c).map_or(0.0, |p| p.feature_id()),
        ]
    }
}

/// The row-index provenance of a tensor operand under a strategy — shared
/// by lowering and the plan-free feature helpers. `None` for `Null`
/// operands (nothing is loaded).
pub fn provenance_of(tensor: TensorType, strategy: Strategy) -> Option<Provenance> {
    match tensor {
        TensorType::SrcV => Some(Provenance::SrcIndirect),
        TensorType::Edge => Some(Provenance::EidIndirect),
        TensorType::DstV => Some(if strategy.is_edge_parallel() {
            Provenance::DstIndirect
        } else {
            Provenance::DstPartition
        }),
        TensorType::Null => None,
    }
}

/// Plan-free access-pattern classification for an `(operator, strategy)`
/// pair with full-width operands — what [`crate::tune::features`] feeds
/// the predictor (operand widths are not part of the tuning context).
///
/// # Panics
///
/// Panics if `op.c` is `Null` — validated operators always have an output.
pub fn operand_patterns_for(op: &OpInfo, strategy: Strategy) -> OperandPatterns {
    let warp = strategy.is_warp_per_item();
    let of = |t: TensorType| provenance_of(t, strategy).map(|p| AccessPattern::of(p, true, warp));
    OperandPatterns {
        a: of(op.a),
        b: of(op.b),
        c: of(op.c).expect("validated operators have a non-Null output"),
    }
}

/// Whether repeated executions of a kernel produce bitwise-identical
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeterminismClass {
    /// Exclusive writes or a single-owner sequential reduction in fixed
    /// CSR slot order: bitwise deterministic.
    Sequential,
    /// Atomic CAS float max/min: updates interleave, but max/min is
    /// insensitive to ordering of finite floats — bitwise deterministic.
    AtomicOrderInsensitive,
    /// Atomic float sum/mean: float addition is non-associative, so the
    /// bitwise result depends on the interleaving the hardware happens to
    /// schedule.
    AtomicOrderDependent,
}

impl DeterminismClass {
    /// `true` when repeated runs are bitwise identical.
    pub fn bitwise_deterministic(self) -> bool {
        !matches!(self, DeterminismClass::AtomicOrderDependent)
    }

    /// Stable lower-case label (metrics, JSON export, robustness report).
    pub fn label(self) -> &'static str {
        match self {
            DeterminismClass::Sequential => "sequential",
            DeterminismClass::AtomicOrderInsensitive => "atomic-order-insensitive",
            DeterminismClass::AtomicOrderDependent => "atomic-order-dependent",
        }
    }
}

impl std::fmt::Display for DeterminismClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Classifies a lowered kernel's determinism from its store's update form
/// (see [`DeterminismClass`] for the case analysis).
pub fn classify_determinism(ir: &KernelIr) -> DeterminismClass {
    match ir.store().update {
        UpdateKind::Assign
        | UpdateKind::Accumulate
        | UpdateKind::MaxInPlace
        | UpdateKind::MinInPlace => DeterminismClass::Sequential,
        UpdateKind::AtomicCasMax | UpdateKind::AtomicCasMin => {
            DeterminismClass::AtomicOrderInsensitive
        }
        UpdateKind::AtomicAdd => DeterminismClass::AtomicOrderDependent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::OpInfo;
    use crate::lower::lower;
    use crate::plan::KernelPlan;

    fn ir(op: OpInfo, strategy: Strategy) -> KernelIr {
        let plan = KernelPlan::generate(op, ParallelInfo::basic(strategy), 1000, 4000, 32).unwrap();
        lower(&plan).unwrap()
    }

    #[test]
    fn access_patterns_follow_strategy_and_provenance() {
        // Warp strategies coalesce full rows.
        let p = ir(OpInfo::aggregation_sum(), Strategy::WarpEdge).operand_patterns();
        assert_eq!(p.a, Some(AccessPattern::Coalesced));
        assert_eq!(p.c, AccessPattern::Coalesced);
        // Thread-edge gathers through in_src / slot_dst.
        let p = ir(OpInfo::aggregation_sum(), Strategy::ThreadEdge).operand_patterns();
        assert_eq!(p.a, Some(AccessPattern::Gather));
        assert_eq!(p.c, AccessPattern::Gather);
        // Thread-vertex: src rows gather, the partitioned dst rows stride.
        let p = ir(OpInfo::aggregation_sum(), Strategy::ThreadVertex).operand_patterns();
        assert_eq!(p.a, Some(AccessPattern::Gather));
        assert_eq!(p.c, AccessPattern::Strided);
        assert_eq!(p.b, None);
    }

    #[test]
    fn scalar_operands_broadcast_under_warp_strategies() {
        let plan = KernelPlan::generate(
            OpInfo::weighted_aggregation_sum(),
            ParallelInfo::basic(Strategy::WarpEdge),
            100,
            500,
            16,
        )
        .unwrap()
        .with_scalar_operands(false, true);
        let p = lower(&plan).unwrap().operand_patterns();
        assert_eq!(p.b, Some(AccessPattern::Broadcast));
        assert_eq!(p.a, Some(AccessPattern::Coalesced));
    }

    #[test]
    fn determinism_class_per_update_kind() {
        let sum = OpInfo::aggregation_sum();
        assert_eq!(
            classify_determinism(&ir(sum, Strategy::ThreadVertex)),
            DeterminismClass::Sequential
        );
        assert_eq!(
            classify_determinism(&ir(sum, Strategy::ThreadEdge)),
            DeterminismClass::AtomicOrderDependent
        );
        assert_eq!(
            classify_determinism(&ir(OpInfo::aggregation_max(), Strategy::WarpEdge)),
            DeterminismClass::AtomicOrderInsensitive
        );
        assert!(DeterminismClass::AtomicOrderInsensitive.bitwise_deterministic());
        assert!(!DeterminismClass::AtomicOrderDependent.bitwise_deterministic());
        assert_eq!(
            classify_determinism(&ir(OpInfo::message_creation_add(), Strategy::WarpEdge)),
            DeterminismClass::Sequential
        );
    }

    #[test]
    fn plan_free_patterns_agree_with_lowered_ir() {
        for op in crate::abstraction::registry::all_valid_ops() {
            for strategy in Strategy::ALL {
                assert_eq!(
                    operand_patterns_for(&op, strategy),
                    ir(op, strategy).operand_patterns(),
                    "{op:?} {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn feature_ids_reserve_zero_for_absent() {
        let p = ir(OpInfo::aggregation_sum(), Strategy::ThreadVertex).operand_patterns();
        let ids = p.feature_ids();
        assert_eq!(ids[1], 0.0, "Null operand B encodes as 0");
        assert!(ids[0] > 0.0 && ids[2] > 0.0);
    }
}
