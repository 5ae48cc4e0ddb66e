//! CUDA source generation (paper §5.2), rendered from the typed kernel IR.
//!
//! The original uGrapher emits CUDA: one handwritten kernel *template* per
//! parallelization strategy, with a reserved device-function slot that the
//! code generator fills from the operator's `op_info`. This module
//! reproduces that pipeline — but instead of free-form text templates, the
//! plan is first lowered to the typed IR ([`crate::lower::lower`]) and the
//! emitted source is a pure rendering of the plan plus that IR
//! ([`emit_ir`]): the loop nest comes from [`KernelIr::loops`], every
//! load/store from the IR's provenance-carrying statements, the update form
//! from the store's [`UpdateKind`], and the constants and launch geometry
//! from the plan. The `ugrapher-analyze` verifier passes analyze the same
//! IR, so what is proved about the analysis holds for the emitted code by
//! construction. [`emit_cuda`] renders, for any [`KernelPlan`]:
//!
//! * the generated device function (after the pass-1 copy fusion),
//! * the strategy template instantiated with the plan's grouping/tiling
//!   parameters (paper Fig. 6 loop structures),
//! * atomic or plain updates per the pass-2 analysis — including the
//!   compare-and-swap loops real CUDA needs for float max/min atomics,
//! * a host-side launch snippet with the plan's grid/block dimensions.
//!
//! The simulator remains the execution substrate in this reproduction; the
//! emitted source is for inspection, diffing and (on a CUDA machine)
//! compilation, and is covered by structural tests.

use crate::abstraction::EdgeOp;
use crate::ir::{KernelIr, Load, Loop, Stmt, UpdateKind, Value};
use crate::lower::lower;
use crate::plan::KernelPlan;
use crate::CoreError;

/// Renders the complete CUDA translation unit for a kernel plan: the plan
/// is lowered to the typed IR ([`crate::lower::lower`], where the fusion
/// and atomic passes run) and rendered with [`emit_ir`].
///
/// # Errors
///
/// Returns [`CoreError::Internal`] if lowering fails (a `Null` output,
/// which plan generation rejects).
pub fn emit_cuda(plan: &KernelPlan) -> Result<String, CoreError> {
    Ok(emit_ir(plan, &lower(plan)?))
}

/// Renders a plan and the IR lowered from it to CUDA source: the kernel
/// body from the IR, the constants and launch geometry from the plan.
/// Total: the IR's type structure admits no statement without an emission
/// form.
pub fn emit_ir(plan: &KernelPlan, ir: &KernelIr) -> String {
    let name = plan.parallel.label().to_lowercase();
    let mut out = String::with_capacity(4096);
    out.push_str(&header_comment(plan, ir));
    out.push_str(&device_function(ir));
    out.push('\n');
    out.push_str(&kernel(plan, ir, &name));
    out.push('\n');
    out.push_str(&launcher(plan, &name));
    out
}

fn header_comment(plan: &KernelPlan, ir: &KernelIr) -> String {
    // The fusion flags are facts of the IR: a fused edge stage has no
    // edge-temporary statement, a fused gather is a plain overwrite.
    let fused_edge = !ir
        .body
        .iter()
        .any(|s| matches!(s, Stmt::DefineEdgeTmp { .. }));
    let fused_gather = !ir.store().update.is_reduction();
    format!(
        "// Auto-generated by uGrapher codegen (reproduction).\n\
         // op: edge_op={:?} gather_op={:?} A={:?} B={:?} C={:?}\n\
         // schedule: {} | fused_edge={} fused_gather={} atomic={}\n\
         // tiles: {} x {} features | groups: {}\n\n",
        ir.op.edge_op,
        ir.op.gather_op,
        ir.op.a,
        ir.op.b,
        ir.op.c,
        ir.parallel.label(),
        fused_edge,
        fused_gather,
        ir.store().update.is_atomic(),
        plan.tile_count,
        plan.tile_size,
        plan.num_groups,
    )
}

/// The generated device function: the innermost statement of paper Fig. 5
/// after copy fusion.
fn device_function(ir: &KernelIr) -> String {
    let expr = edge_expr(ir.op.edge_op);
    format!(
        "__device__ __forceinline__ float ugrapher_edge_fn(float a_val, float b_val) {{\n\
         \x20   return {expr};\n\
         }}\n"
    )
}

fn edge_expr(op: EdgeOp) -> &'static str {
    match op {
        EdgeOp::CopyLhs => "a_val",
        EdgeOp::CopyRhs => "b_val",
        EdgeOp::Add => "a_val + b_val",
        EdgeOp::Sub => "a_val - b_val",
        EdgeOp::Mul => "a_val * b_val",
        EdgeOp::Div => "a_val / b_val",
    }
}

/// Renders one IR load: the operand buffer addressed at the load's
/// provenance row, feature-strided or scalar-broadcast.
fn load_expr(l: &Load) -> String {
    let name = l.buf.name();
    let row = l.row.var();
    if l.feature_indexed {
        format!("{name}[(size_t){row} * FEAT + f]")
    } else {
        format!("{name}[{row}]")
    }
}

/// Renders an IR value as a C expression.
fn value_expr(v: &Value) -> String {
    match v {
        Value::Zero => "0.0f".to_owned(),
        Value::Load(l) => load_expr(l),
        Value::EdgeTmp => "edge_tmp".to_owned(),
    }
}

/// The update statement for the output element, atomic or not, rendered
/// from the store's [`UpdateKind`].
fn update_stmt(update: UpdateKind, out_index: &str, value: &str, indent: &str) -> String {
    match update {
        UpdateKind::Assign => format!("{indent}C[{out_index}] = {value};\n"),
        UpdateKind::Accumulate => format!("{indent}C[{out_index}] += {value};\n"),
        UpdateKind::MaxInPlace => {
            format!("{indent}C[{out_index}] = fmaxf(C[{out_index}], {value});\n")
        }
        UpdateKind::MinInPlace => {
            format!("{indent}C[{out_index}] = fminf(C[{out_index}], {value});\n")
        }
        UpdateKind::AtomicAdd => format!("{indent}atomicAdd(&C[{out_index}], {value});\n"),
        // Float atomic max/min need a CAS loop on pre-Hopper GPUs.
        UpdateKind::AtomicCasMax | UpdateKind::AtomicCasMin => {
            let cmp = if update == UpdateKind::AtomicCasMax {
                ">"
            } else {
                "<"
            };
            format!(
                "{indent}{{\n\
                 {indent}    float v = {value};\n\
                 {indent}    float old = C[{out_index}];\n\
                 {indent}    while (v {cmp} old) {{\n\
                 {indent}        int assumed = __float_as_int(old);\n\
                 {indent}        int swapped = atomicCAS((int*)&C[{out_index}], assumed, __float_as_int(v));\n\
                 {indent}        if (swapped == assumed) break;\n\
                 {indent}        old = __int_as_float(swapped);\n\
                 {indent}    }}\n\
                 {indent}}}\n"
            )
        }
    }
}

/// The innermost-loop statements, rendered in IR order: the optional edge
/// temporary, then the output update.
fn inner_body(ir: &KernelIr, indent: &str) -> String {
    let mut s = String::new();
    for stmt in &ir.body {
        match stmt {
            Stmt::DefineEdgeTmp { a, b, .. } => {
                s.push_str(&format!(
                    "{indent}float edge_tmp = ugrapher_edge_fn({}, {});\n",
                    value_expr(a),
                    value_expr(b)
                ));
            }
            Stmt::Store(store) => {
                let out_index = format!("(size_t){} * FEAT + f", store.row.var());
                s.push_str(&update_stmt(
                    store.update,
                    &out_index,
                    &value_expr(&store.value),
                    indent,
                ));
            }
        }
    }
    s
}

fn kernel(plan: &KernelPlan, ir: &KernelIr, name: &str) -> String {
    let sig = format!(
        "__global__ void ugrapher_{name}(\n\
         \x20   const int64_t *__restrict__ in_ptr,   // CSC row offsets\n\
         \x20   const int32_t *__restrict__ in_src,   // per-slot source vertex\n\
         \x20   const int32_t *__restrict__ in_eid,   // per-slot edge id\n\
         \x20   const int32_t *__restrict__ slot_dst, // per-slot destination vertex\n\
         \x20   const float *__restrict__ A,\n\
         \x20   const float *__restrict__ B,\n\
         \x20   float *__restrict__ C,\n\
         \x20   int num_vertices, int num_edges)\n"
    );
    let consts = format!(
        "{{\n\
         \x20   const int FEAT = {feat};\n\
         \x20   const int GROUP = {group};\n\
         \x20   const int TILES = {tiles};\n\
         \x20   const int TILE_LEN = {tile_len};\n",
        feat = plan.feat,
        group = plan.parallel.grouping,
        tiles = plan.tile_count,
        tile_len = plan.tile_size,
    );
    format!("{sig}{consts}{body}}}\n", body = loop_nest(ir))
}

/// Renders the loop nest from [`KernelIr::loops`]: the work-item preamble
/// (thread or warp indexed), then one `for` per IR loop, with the
/// innermost feature loop wrapping [`inner_body`].
fn loop_nest(ir: &KernelIr) -> String {
    let warp = ir.lane_stride() > 1;
    let edges = ir.edge_parallel();
    // The symbolic work-unit count the item partition divides: edge
    // strategies group edge slots, vertex strategies group destinations.
    let units = if edges { "num_edges" } else { "num_vertices" };
    let item = if warp { "warp" } else { "item" };
    let mut s = String::new();
    if warp {
        s.push_str(
            "\x20   int warp = (blockIdx.x * blockDim.x + threadIdx.x) / 32;\n\
             \x20   int lane = threadIdx.x % 32;\n",
        );
    } else {
        s.push_str("\x20   int item = blockIdx.x * blockDim.x + threadIdx.x;\n");
    }
    s.push_str(&format!(
        "\x20   int tile = {item} / (({units} + GROUP - 1) / GROUP);\n\
         \x20   int gidx = {item} % (({units} + GROUP - 1) / GROUP);\n\
         \x20   if (tile >= TILES) return;\n\
         \x20   int f0 = tile * TILE_LEN;\n"
    ));
    let mut depth = 1usize;
    let indent = |d: usize| "    ".repeat(d);
    for l in &ir.loops {
        let ind = indent(depth);
        match l {
            Loop::DstGroup => {
                s.push_str(&format!(
                    "{ind}for (int dst = gidx * GROUP; dst < min((gidx + 1) * GROUP, num_vertices); ++dst) {{\n"
                ));
            }
            Loop::CsrSlots => {
                s.push_str(&format!(
                    "{ind}for (int64_t s = in_ptr[dst]; s < in_ptr[dst + 1]; ++s) {{\n\
                     {ind}    int src = in_src[s];\n\
                     {ind}    int eid = in_eid[s];\n\
                     {ind}    (void)src; (void)eid;\n"
                ));
            }
            Loop::EdgeGroup => {
                s.push_str(&format!(
                    "{ind}for (int64_t s = (int64_t)gidx * GROUP; s < min((int64_t)(gidx + 1) * GROUP, (int64_t)num_edges); ++s) {{\n\
                     {ind}    int src = in_src[s];\n\
                     {ind}    int dst = slot_dst[s];\n\
                     {ind}    int eid = in_eid[s];\n\
                     {ind}    (void)src; (void)dst; (void)eid;\n"
                ));
            }
            Loop::Feature { stride } => {
                let f_init = if *stride > 1 { "f0 + lane" } else { "f0" };
                let f_step = if *stride == 1 {
                    "++f".to_owned()
                } else {
                    format!("f += {stride}")
                };
                s.push_str(&format!(
                    "{ind}for (int f = {f_init}; f < min(f0 + TILE_LEN, FEAT); {f_step}) {{\n"
                ));
                s.push_str(&inner_body(ir, &indent(depth + 1)));
            }
        }
        depth += 1;
    }
    for d in (1..depth).rev() {
        s.push_str(&format!("{}}}\n", indent(d)));
    }
    s
}

fn launcher(plan: &KernelPlan, name: &str) -> String {
    format!(
        "// Host launch:\n\
         //   dim3 grid({grid});\n\
         //   dim3 block({block});\n\
         //   ugrapher_{name}<<<grid, block>>>(in_ptr, in_src, in_eid, slot_dst, A, B, C, num_vertices, num_edges);\n",
        grid = plan.grid_blocks,
        block = plan.threads_per_block,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::OpInfo;
    use crate::schedule::{ParallelInfo, Strategy};

    fn plan(op: OpInfo, p: ParallelInfo) -> KernelPlan {
        KernelPlan::generate(op, p, 1000, 4000, 32).unwrap()
    }

    #[test]
    fn every_strategy_and_op_emits_a_kernel() {
        for op in crate::abstraction::registry::all_valid_ops() {
            for strategy in Strategy::ALL {
                let src = emit_cuda(&plan(op, ParallelInfo::new(strategy, 4, 2))).unwrap();
                assert!(
                    src.contains("__global__ void ugrapher_"),
                    "{op:?} {strategy:?}"
                );
                assert!(src.contains("__device__ __forceinline__ float ugrapher_edge_fn"));
                assert!(src.contains("// Host launch:"));
            }
        }
    }

    #[test]
    fn atomic_analysis_controls_emitted_updates() {
        let agg = OpInfo::aggregation_sum();
        let te = emit_cuda(&plan(agg, ParallelInfo::basic(Strategy::ThreadEdge))).unwrap();
        assert!(te.contains("atomicAdd"), "edge-parallel sum must be atomic");
        let tv = emit_cuda(&plan(agg, ParallelInfo::basic(Strategy::ThreadVertex))).unwrap();
        assert!(
            !tv.contains("atomicAdd"),
            "vertex-parallel sum is exclusive"
        );
        assert!(tv.contains("+="));
    }

    #[test]
    fn float_max_atomics_use_cas_loop() {
        let src = emit_cuda(&plan(
            OpInfo::aggregation_max(),
            ParallelInfo::basic(Strategy::WarpEdge),
        ))
        .unwrap();
        assert!(src.contains("atomicCAS"));
        assert!(src.contains("__float_as_int"));
    }

    #[test]
    fn copy_fusion_removes_device_function_call() {
        // aggregation_sum's edge stage is a pure copy: the inner body must
        // read A directly, not call the device function.
        let src = emit_cuda(&plan(
            OpInfo::aggregation_sum(),
            ParallelInfo::basic(Strategy::ThreadEdge),
        ))
        .unwrap();
        let body = src.split("__global__").nth(1).unwrap();
        assert!(
            !body.contains("ugrapher_edge_fn("),
            "fused copy must not call edge fn"
        );
        let unfused = emit_cuda(&plan(
            OpInfo::weighted_aggregation_sum(),
            ParallelInfo::basic(Strategy::ThreadEdge),
        ))
        .unwrap();
        let body = unfused.split("__global__").nth(1).unwrap();
        assert!(
            body.contains("ugrapher_edge_fn("),
            "real edge ops use the device fn"
        );
    }

    #[test]
    fn scalar_operands_index_without_feature_stride() {
        let p = KernelPlan::generate(
            OpInfo::weighted_aggregation_sum(),
            ParallelInfo::basic(Strategy::WarpEdge),
            100,
            500,
            16,
        )
        .unwrap()
        .with_scalar_operands(false, true);
        let src = emit_cuda(&p).unwrap();
        assert!(
            src.contains("B[eid]"),
            "scalar edge weight indexes by row only"
        );
        assert!(src.contains("A[(size_t)src * FEAT + f]"));
    }

    #[test]
    fn warp_templates_stride_lanes_over_features() {
        let src = emit_cuda(&plan(
            OpInfo::aggregation_sum(),
            ParallelInfo::basic(Strategy::WarpVertex),
        ))
        .unwrap();
        assert!(src.contains("f += 32"));
        assert!(src.contains("int lane = threadIdx.x % 32;"));
    }

    #[test]
    fn launcher_reflects_plan_geometry() {
        let p = plan(
            OpInfo::aggregation_sum(),
            ParallelInfo::new(Strategy::ThreadEdge, 2, 1),
        );
        let src = emit_cuda(&p).unwrap();
        assert!(src.contains(&format!("dim3 grid({});", p.grid_blocks)));
        assert!(src.contains(&format!("dim3 block({});", p.threads_per_block)));
    }

    #[test]
    fn message_creation_writes_per_edge() {
        let src = emit_cuda(&plan(
            OpInfo::message_creation_add(),
            ParallelInfo::basic(Strategy::ThreadEdge),
        ))
        .unwrap();
        assert!(src.contains("C[(size_t)eid * FEAT + f] ="));
        let body = src.split("__global__").nth(1).unwrap();
        assert!(!body.contains("atomic"));
    }

    #[test]
    fn renderer_is_total_over_lowered_registry() {
        // emit_ir never fails on lowered IR: the type structure has an
        // emission form for every statement.
        for op in crate::abstraction::registry::all_valid_ops() {
            for strategy in Strategy::ALL {
                let p = plan(op, ParallelInfo::new(strategy, 4, 2));
                let src = emit_ir(&p, &lower(&p).unwrap());
                assert!(src.contains(&format!("ugrapher_{}", p.parallel.label().to_lowercase())));
            }
        }
    }
}
