//! The unified graph-operator abstraction (paper §3).
//!
//! Every graph operator in a GNN is the nested loop
//!
//! ```text
//! for dst in V:
//!   for edge in dst.get_inedges():
//!     src = edge.src_v
//!     for feat in F:
//!       edge_tmp        = edge_op(A[a_idx][feat], B[b_idx][feat])
//!       C[c_idx][feat]  = gather_op(C[c_idx][feat], edge_tmp)
//! ```
//!
//! parameterised by the element-wise [`EdgeOp`], the reduction
//! [`GatherOp`], and the [`TensorType`]s of the three operands, which
//! determine the addressing index (`src`, `dst` or `edge`). The legal
//! combinations are paper Table 4; [`registry::all_valid_ops`] enumerates
//! them and [`registry::census`] reproduces the Table 2-style counts.

use crate::CoreError;

/// Element-wise edge computation (`edge_op` in paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Pass operand A through unchanged (no arithmetic; fusable).
    CopyLhs,
    /// Pass operand B through unchanged (no arithmetic; fusable).
    CopyRhs,
    /// `A + B`.
    Add,
    /// `A - B`.
    Sub,
    /// `A * B`.
    Mul,
    /// `A / B`.
    Div,
}

impl EdgeOp {
    /// All edge ops, in the paper's listing order.
    pub const ALL: [EdgeOp; 6] = [
        EdgeOp::CopyLhs,
        EdgeOp::CopyRhs,
        EdgeOp::Add,
        EdgeOp::Sub,
        EdgeOp::Mul,
        EdgeOp::Div,
    ];

    /// Whether this op performs no arithmetic (candidate for the fusion
    /// pass of paper §5.2).
    pub fn is_copy(self) -> bool {
        matches!(self, EdgeOp::CopyLhs | EdgeOp::CopyRhs)
    }

    /// Whether this op reads operand A.
    pub fn uses_a(self) -> bool {
        !matches!(self, EdgeOp::CopyRhs)
    }

    /// Whether this op reads operand B.
    pub fn uses_b(self) -> bool {
        !matches!(self, EdgeOp::CopyLhs)
    }

    /// Applies the op to scalar operands.
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            EdgeOp::CopyLhs => a,
            EdgeOp::CopyRhs => b,
            EdgeOp::Add => a + b,
            EdgeOp::Sub => a - b,
            EdgeOp::Mul => a * b,
            EdgeOp::Div => a / b,
        }
    }
}

/// Edge-to-vertex reduction (`gather_op` in paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatherOp {
    /// Keep the existing output element (degenerate; listed by the paper).
    CopyLhs,
    /// Overwrite the output with the edge value — used when the output is
    /// an edge tensor (message creation skips the reduction stage).
    CopyRhs,
    /// Running sum.
    Sum,
    /// Running maximum.
    Max,
    /// Running minimum.
    Min,
    /// Mean (sum followed by division by the in-degree).
    Mean,
}

impl GatherOp {
    /// All gather ops, in the paper's listing order.
    pub const ALL: [GatherOp; 6] = [
        GatherOp::CopyLhs,
        GatherOp::CopyRhs,
        GatherOp::Sum,
        GatherOp::Max,
        GatherOp::Min,
        GatherOp::Mean,
    ];

    /// Whether this op reduces many edge values into one vertex value.
    pub fn is_reduction(self) -> bool {
        matches!(
            self,
            GatherOp::Sum | GatherOp::Max | GatherOp::Min | GatherOp::Mean
        )
    }

    /// The identity element of the reduction, used to initialise
    /// accumulators.
    pub fn identity(self) -> f32 {
        match self {
            GatherOp::Max => f32::NEG_INFINITY,
            GatherOp::Min => f32::INFINITY,
            _ => 0.0,
        }
    }

    /// Combines the accumulator with one edge value.
    #[inline]
    pub fn apply(self, acc: f32, edge: f32) -> f32 {
        match self {
            GatherOp::CopyLhs => acc,
            GatherOp::CopyRhs => edge,
            GatherOp::Sum | GatherOp::Mean => acc + edge,
            GatherOp::Max => acc.max(edge),
            GatherOp::Min => acc.min(edge),
        }
    }
}

/// The addressing type of an operand tensor (paper Fig. 5, line 3–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorType {
    /// Vertex embedding tensor addressed by the edge's source vertex.
    SrcV,
    /// Vertex embedding tensor addressed by the edge's destination vertex.
    DstV,
    /// Edge embedding tensor addressed by the edge id.
    Edge,
    /// Operand absent.
    Null,
}

impl TensorType {
    /// All operand types.
    pub const ALL: [TensorType; 4] = [
        TensorType::SrcV,
        TensorType::DstV,
        TensorType::Edge,
        TensorType::Null,
    ];

    /// Whether the operand is a vertex tensor.
    pub fn is_vertex(self) -> bool {
        matches!(self, TensorType::SrcV | TensorType::DstV)
    }
}

/// The three operator categories of paper Table 2 / Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCategory {
    /// Inputs involve vertices (and possibly edges); output is an edge
    /// tensor; no reduction.
    MessageCreation,
    /// Inputs are edge tensors only; output is a vertex tensor via a
    /// reduction.
    MessageAggregation,
    /// Inputs involve vertex tensors; output is a vertex tensor via a
    /// reduction (message creation fused into the reduction, §2.1).
    FusedAggregation,
}

/// The complete semantic description of one graph operator
/// (`op_info` in the paper's API, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpInfo {
    /// Element-wise edge computation.
    pub edge_op: EdgeOp,
    /// Edge-to-vertex reduction (or `CopyRhs` for edge outputs).
    pub gather_op: GatherOp,
    /// Type of operand A.
    pub a: TensorType,
    /// Type of operand B.
    pub b: TensorType,
    /// Type of the output C (must be `Edge` or `DstV`).
    pub c: TensorType,
}

impl OpInfo {
    /// Builds and validates an operator description.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOperator`] if the combination violates
    /// the Table 4 rules (see [`OpInfo::validate`]).
    pub fn new(
        edge_op: EdgeOp,
        gather_op: GatherOp,
        a: TensorType,
        b: TensorType,
        c: TensorType,
    ) -> Result<Self, CoreError> {
        let op = Self {
            edge_op,
            gather_op,
            a,
            b,
            c,
        };
        op.validate()?;
        Ok(op)
    }

    /// The *aggregation-sum* operator of paper Fig. 4 (SageSum): copy each
    /// source vertex's features and sum into the destination.
    pub fn aggregation_sum() -> Self {
        Self {
            edge_op: EdgeOp::CopyLhs,
            gather_op: GatherOp::Sum,
            a: TensorType::SrcV,
            b: TensorType::Null,
            c: TensorType::DstV,
        }
    }

    /// The *weighted-aggr-sum* operator of GCN/GAT (§2.2): multiply source
    /// features by edge weights, sum into the destination.
    pub fn weighted_aggregation_sum() -> Self {
        Self {
            edge_op: EdgeOp::Mul,
            gather_op: GatherOp::Sum,
            a: TensorType::SrcV,
            b: TensorType::Edge,
            c: TensorType::DstV,
        }
    }

    /// The *unweighted-aggr-max* operator of SageMax (§2.2).
    pub fn aggregation_max() -> Self {
        Self {
            edge_op: EdgeOp::CopyLhs,
            gather_op: GatherOp::Max,
            a: TensorType::SrcV,
            b: TensorType::Null,
            c: TensorType::DstV,
        }
    }

    /// Mean aggregation (SageMean).
    pub fn aggregation_mean() -> Self {
        Self {
            edge_op: EdgeOp::CopyLhs,
            gather_op: GatherOp::Mean,
            a: TensorType::SrcV,
            b: TensorType::Null,
            c: TensorType::DstV,
        }
    }

    /// GAT's first message-creation operator: sum source and destination
    /// features into an edge tensor (`u_add_v`).
    pub fn message_creation_add() -> Self {
        Self {
            edge_op: EdgeOp::Add,
            gather_op: GatherOp::CopyRhs,
            a: TensorType::SrcV,
            b: TensorType::DstV,
            c: TensorType::Edge,
        }
    }

    /// Copy source-vertex features onto edges (`copy_u`).
    pub fn message_creation_copy_src() -> Self {
        Self {
            edge_op: EdgeOp::CopyLhs,
            gather_op: GatherOp::CopyRhs,
            a: TensorType::SrcV,
            b: TensorType::Null,
            c: TensorType::Edge,
        }
    }

    /// Sum a pure edge tensor into destination vertices (`copy_e` + sum).
    pub fn edge_aggregation_sum() -> Self {
        Self {
            edge_op: EdgeOp::CopyLhs,
            gather_op: GatherOp::Sum,
            a: TensorType::Edge,
            b: TensorType::Null,
            c: TensorType::DstV,
        }
    }

    /// Checks the Table 4 legality rules.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOperator`] when:
    /// * the output type is `Null` or `SrcV`;
    /// * an operand required by `edge_op` is `Null`, or an operand ignored
    ///   by it is non-`Null`;
    /// * the output is an edge tensor but `gather_op` is a reduction, or
    ///   the output is a vertex tensor but `gather_op` is not a reduction;
    /// * no input is supplied at all.
    pub fn validate(&self) -> Result<(), CoreError> {
        let fail = |reason: &str| {
            Err(CoreError::InvalidOperator {
                op: *self,
                reason: reason.to_owned(),
            })
        };
        match self.c {
            TensorType::Null => return fail("output C must not be Null"),
            TensorType::SrcV => {
                return fail("output C must be Edge or DstV (reductions run over in-edges)")
            }
            _ => {}
        }
        if self.edge_op.uses_a() && self.a == TensorType::Null {
            return fail("edge_op reads A but A is Null");
        }
        if self.edge_op.uses_b() && self.b == TensorType::Null {
            return fail("edge_op reads B but B is Null");
        }
        if !self.edge_op.uses_a() && self.a != TensorType::Null {
            return fail("A is supplied but edge_op ignores it");
        }
        if !self.edge_op.uses_b() && self.b != TensorType::Null {
            return fail("B is supplied but edge_op ignores it");
        }
        if self.a == TensorType::Null && self.b == TensorType::Null {
            return fail("at least one input operand is required");
        }
        match self.c {
            TensorType::Edge => {
                if self.gather_op != GatherOp::CopyRhs {
                    return fail("edge outputs skip the reduction stage (gather must be copy_rhs)");
                }
            }
            TensorType::DstV => {
                if !self.gather_op.is_reduction() {
                    return fail("vertex outputs require a reduction gather op");
                }
            }
            // Null/SrcV already rejected above; a typed error instead of
            // unreachable! keeps validation panic-free even if that
            // restriction ever changes.
            other => {
                return Err(CoreError::Internal {
                    reason: format!("operator validation fell through on output type {other:?}"),
                })
            }
        }
        Ok(())
    }

    /// Classifies the operator per paper Table 2 / Table 4.
    ///
    /// # Panics
    ///
    /// Panics if the operator is invalid; call [`OpInfo::validate`] first.
    pub fn category(&self) -> OpCategory {
        assert!(self.validate().is_ok(), "category() on invalid operator");
        if self.c == TensorType::Edge {
            OpCategory::MessageCreation
        } else if self.a.is_vertex() || self.b.is_vertex() {
            OpCategory::FusedAggregation
        } else {
            OpCategory::MessageAggregation
        }
    }

    /// Whether either input is addressed by the source vertex (drives the
    /// gather-style memory pattern).
    pub fn reads_src(&self) -> bool {
        self.a == TensorType::SrcV || self.b == TensorType::SrcV
    }

    /// Whether either input is an edge tensor.
    pub fn reads_edge(&self) -> bool {
        self.a == TensorType::Edge || self.b == TensorType::Edge
    }

    /// Compact operator label, e.g. `"CopyLhs.Sum(SrcV,Null)->DstV"` —
    /// used as a trace/span attribute and in diagnostics.
    pub fn label(&self) -> String {
        format!(
            "{:?}.{:?}({:?},{:?})->{:?}",
            self.edge_op, self.gather_op, self.a, self.b, self.c
        )
    }
}

/// Enumeration and census of the legal operator space.
pub mod registry {
    use super::*;

    /// Enumerates every valid `(edge_op, gather_op, A, B, C)` combination.
    pub fn all_valid_ops() -> Vec<OpInfo> {
        let mut ops = Vec::new();
        for &edge_op in &EdgeOp::ALL {
            for &gather_op in &GatherOp::ALL {
                for &a in &TensorType::ALL {
                    for &b in &TensorType::ALL {
                        for &c in &[TensorType::Edge, TensorType::DstV] {
                            let op = OpInfo {
                                edge_op,
                                gather_op,
                                a,
                                b,
                                c,
                            };
                            if op.validate().is_ok() {
                                ops.push(op);
                            }
                        }
                    }
                }
            }
        }
        ops
    }

    /// Operator counts per category (the Table 2-style census).
    pub fn census() -> Vec<(OpCategory, usize)> {
        let ops = all_valid_ops();
        [
            OpCategory::MessageCreation,
            OpCategory::MessageAggregation,
            OpCategory::FusedAggregation,
        ]
        .iter()
        .map(|&cat| (cat, ops.iter().filter(|o| o.category() == cat).count()))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_ops_are_valid() {
        for op in [
            OpInfo::aggregation_sum(),
            OpInfo::weighted_aggregation_sum(),
            OpInfo::aggregation_max(),
            OpInfo::aggregation_mean(),
            OpInfo::message_creation_add(),
            OpInfo::message_creation_copy_src(),
            OpInfo::edge_aggregation_sum(),
        ] {
            op.validate().unwrap();
        }
    }

    #[test]
    fn categories_match_table4() {
        assert_eq!(
            OpInfo::aggregation_sum().category(),
            OpCategory::FusedAggregation
        );
        assert_eq!(
            OpInfo::weighted_aggregation_sum().category(),
            OpCategory::FusedAggregation
        );
        assert_eq!(
            OpInfo::message_creation_add().category(),
            OpCategory::MessageCreation
        );
        assert_eq!(
            OpInfo::edge_aggregation_sum().category(),
            OpCategory::MessageAggregation
        );
    }

    #[test]
    fn rejects_null_output() {
        let op = OpInfo {
            edge_op: EdgeOp::Add,
            gather_op: GatherOp::Sum,
            a: TensorType::SrcV,
            b: TensorType::DstV,
            c: TensorType::Null,
        };
        assert!(op.validate().is_err());
    }

    #[test]
    fn rejects_missing_operand() {
        let op = OpInfo {
            edge_op: EdgeOp::Mul,
            gather_op: GatherOp::Sum,
            a: TensorType::SrcV,
            b: TensorType::Null,
            c: TensorType::DstV,
        };
        assert!(op.validate().is_err());
    }

    #[test]
    fn rejects_superfluous_operand() {
        let op = OpInfo {
            edge_op: EdgeOp::CopyLhs,
            gather_op: GatherOp::Sum,
            a: TensorType::SrcV,
            b: TensorType::Edge,
            c: TensorType::DstV,
        };
        assert!(op.validate().is_err());
    }

    #[test]
    fn rejects_reduction_into_edge_output() {
        let op = OpInfo {
            edge_op: EdgeOp::Add,
            gather_op: GatherOp::Sum,
            a: TensorType::SrcV,
            b: TensorType::DstV,
            c: TensorType::Edge,
        };
        assert!(op.validate().is_err());
    }

    #[test]
    fn rejects_copy_gather_into_vertex_output() {
        let op = OpInfo {
            edge_op: EdgeOp::Add,
            gather_op: GatherOp::CopyRhs,
            a: TensorType::SrcV,
            b: TensorType::DstV,
            c: TensorType::DstV,
        };
        assert!(op.validate().is_err());
    }

    #[test]
    fn edge_op_semantics() {
        assert_eq!(EdgeOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(EdgeOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(EdgeOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(EdgeOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(EdgeOp::CopyLhs.apply(2.0, 3.0), 2.0);
        assert_eq!(EdgeOp::CopyRhs.apply(2.0, 3.0), 3.0);
    }

    #[test]
    fn gather_op_semantics_and_identities() {
        assert_eq!(GatherOp::Sum.apply(1.0, 2.0), 3.0);
        assert_eq!(GatherOp::Max.apply(1.0, 2.0), 2.0);
        assert_eq!(GatherOp::Min.apply(1.0, 2.0), 1.0);
        assert_eq!(GatherOp::Max.identity(), f32::NEG_INFINITY);
        assert_eq!(GatherOp::Min.identity(), f32::INFINITY);
        assert_eq!(GatherOp::Sum.identity(), 0.0);
    }

    #[test]
    fn registry_census_shape() {
        let census = registry::census();
        let get = |cat: OpCategory| census.iter().find(|(c, _)| *c == cat).unwrap().1;
        let creation = get(OpCategory::MessageCreation);
        let aggregation = get(OpCategory::MessageAggregation);
        let fused = get(OpCategory::FusedAggregation);
        // Same qualitative shape as Table 2: fused aggregation dominates,
        // and all three categories are populated.
        assert!(creation > 0 && aggregation > 0 && fused > 0);
        assert!(fused > aggregation);
        assert_eq!(
            registry::all_valid_ops().len(),
            creation + aggregation + fused
        );
    }

    #[test]
    fn registry_ops_all_validate() {
        for op in registry::all_valid_ops() {
            op.validate().unwrap();
        }
    }
}
