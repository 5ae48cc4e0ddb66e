//! Schedule-faithful trace generation.
//!
//! For a given [`KernelPlan`], this module lowers it to the typed kernel IR
//! ([`crate::lower::lower`]), walks the loop structure the paper's code
//! generator emits for that schedule (paper Fig. 6) and streams the
//! resulting warp-level memory accesses and compute cycles into the
//! `ugrapher-sim` GPU model. One walker serves all four strategies:
//!
//! * every work item becomes a *lane*: a feature tile plus a contiguous
//!   range of positions (CSR slots of a destination group, or edge
//!   positions of an edge group);
//! * every access is one [`Access`], a run of consecutive words per active
//!   lane, filled into one reused buffer. The IR's feature-loop stride says
//!   how items map onto a warp: a **thread** item (stride 1) is one of 32
//!   lanes stepping in lockstep, each reading its own index words and
//!   gathering its own rows, its per-word feature loop collapsed into one
//!   access; a **warp** item (stride 32) owns the warp, so an index word is
//!   one shared word and the lanes sweep the feature tile one 32-word chunk
//!   per access;
//! * each input is loaded at the loop level its IR
//!   [`Load`](crate::ir::Load)'s [`Provenance`] names (per vertex or per
//!   position), and the output is written where its
//!   [`Store`](crate::ir::Store) names; an atomic store updates rows with
//!   [`KernelSim::atomic`], tracking per-destination conflict chains.
//!
//! Tracing can be *sampled* ([`Fidelity::Auto`]): only every `stride`-th
//! block (and warp) is walked and the simulator scales counts back up,
//! which is what makes grid-search tuning affordable (DESIGN.md §7).

use ugrapher_graph::Graph;
use ugrapher_obs::{metrics, MetricsRegistry, Recorder, SpanKind};
use ugrapher_sim::{Access, AddressSpace, DeviceConfig, KernelSim, LaunchConfig, SimReport};

use std::borrow::Cow;
use std::iter;
use std::ops::Range;

use crate::abstraction::TensorType;
use crate::costs;
use crate::ir::{KernelIr, OperandBuf, Provenance};
use crate::lower::lower;
use crate::plan::KernelPlan;

/// Trace fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Trace every block.
    Full,
    /// Trace every `stride`-th block, picking a stride (coprime with the SM
    /// count so sampling does not alias with round-robin dispatch) that
    /// bounds the traced work.
    Auto,
}

/// Options for [`measure`].
#[derive(Debug, Clone)]
pub struct MeasureOptions {
    /// Target device model.
    pub device: DeviceConfig,
    /// Sampling fidelity.
    pub fidelity: Fidelity,
    /// Span recorder: every [`measure`] call emits one `"sim.kernel"` span
    /// here, carrying the full [`SimReport`] metric set as attributes.
    /// Defaults to the process-global recorder (disabled unless installed),
    /// so this costs nothing when tracing is off.
    pub recorder: Recorder,
    /// Trace id stamped on emitted spans (`0` = not part of a traced
    /// request).
    pub trace_id: u64,
}

impl MeasureOptions {
    /// Full-fidelity measurement on the given device.
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            device,
            fidelity: Fidelity::Full,
            recorder: Recorder::global(),
            trace_id: 0,
        }
    }

    /// Auto-sampled measurement (used by the tuner).
    pub fn auto(device: DeviceConfig) -> Self {
        Self {
            device,
            fidelity: Fidelity::Auto,
            recorder: Recorder::global(),
            trace_id: 0,
        }
    }

    /// Sets the sampling fidelity.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Routes `"sim.kernel"` spans to an explicit recorder instead of the
    /// process-global one.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Stamps emitted spans with a request trace id.
    pub fn with_trace_id(mut self, trace_id: u64) -> Self {
        self.trace_id = trace_id;
        self
    }
}

/// Device addresses of every array a kernel touches.
struct Layout {
    in_ptr: u64,
    in_src: u64,
    in_eid: u64,
    coo_src: u64,
    coo_dst: u64,
    a: u64,
    b: u64,
    c: u64,
    feat: u64,
}

impl Layout {
    fn build(graph: &Graph, plan: &KernelPlan) -> Self {
        let mut mem = AddressSpace::new();
        let nv = graph.num_vertices() as u64;
        let ne = graph.num_edges() as u64;
        let feat = plan.feat as u64;
        let rows = |t: TensorType| match t {
            TensorType::SrcV | TensorType::DstV => nv,
            TensorType::Edge => ne,
            TensorType::Null => 0,
        };
        let a_cols = if plan.a_scalar { 1 } else { feat };
        let b_cols = if plan.b_scalar { 1 } else { feat };
        Self {
            in_ptr: mem.alloc((nv + 1) * 8),
            in_src: mem.alloc(ne * 4),
            in_eid: mem.alloc(ne * 4),
            coo_src: mem.alloc(ne * 4),
            coo_dst: mem.alloc(ne * 4),
            a: mem.alloc(rows(plan.op.a) * a_cols * 4),
            b: mem.alloc(rows(plan.op.b) * b_cols * 4),
            c: mem.alloc(rows(plan.op.c) * feat * 4),
            feat,
        }
    }
}

/// One tensor the kernel touches — an input operand or the output — as the
/// walker sees it.
#[derive(Debug, Clone, Copy)]
struct Operand {
    /// Where the row index comes from (the IR load's or store's `row`),
    /// which fixes the loop level the tensor is touched at.
    prov: Provenance,
    base: u64,
    /// One-column broadcast: a single 4-byte word per row instead of a
    /// feature tile.
    scalar: bool,
}

impl Operand {
    /// Address of this tensor's data for `row` at `tile_off`.
    fn addr(&self, lay: &Layout, row: u64, tile_off: usize) -> u64 {
        if self.scalar {
            self.base + row * 4
        } else {
            self.base + (row * lay.feat + tile_off as u64) * 4
        }
    }
}

/// The per-position index arrays a kernel iterates, in its iteration
/// order: CSR slots for vertex strategies and edge-parallel reductions,
/// edge ids (raw COO order) for edge-output operators under edge
/// strategies.
struct EdgeView<'a> {
    src: Cow<'a, [u32]>,
    /// Destination per position; empty under vertex strategies, which take
    /// the destination from their partition.
    dst: Vec<u32>,
    /// Stable edge ids per position; `None` in COO order, where the
    /// position is the edge id.
    eids: Option<&'a [u32]>,
    /// Device base address of the per-position source array.
    src_base: u64,
    /// Device base address of the per-position destination array (in CSR
    /// order, the expanded slot->dst array real kernels carry alongside
    /// the CSC structure).
    dst_base: u64,
}

impl<'a> EdgeView<'a> {
    /// Edge-parallel reductions walk *dst-sorted CSR slot order*, which
    /// lets a lane accumulate consecutive same-destination edges in
    /// registers and write once per destination run — the mechanism that
    /// makes large V/E grouping effective on skewed graphs (paper Table 9's
    /// `TE_G32/G64` optima). Edge-output operators walk raw COO order
    /// instead, where the output write is naturally coalesced.
    fn new(graph: &'a Graph, ir: &KernelIr, lay: &Layout) -> Self {
        let edge = ir.edge_parallel();
        let csr = !edge || ir.store().tensor != TensorType::Edge;
        let ne = graph.num_edges();
        let mut src = if csr {
            Cow::Borrowed(graph.in_src())
        } else {
            Cow::Owned(vec![0; ne])
        };
        let mut dst = vec![0; if edge { ne } else { 0 }];
        if edge {
            for v in 0..graph.num_vertices() {
                for slot in graph.in_ptr()[v]..graph.in_ptr()[v + 1] {
                    let pos = if csr {
                        slot
                    } else {
                        graph.in_eid()[slot] as usize
                    };
                    dst[pos] = v as u32;
                    if let Cow::Owned(src) = &mut src {
                        src[pos] = graph.in_src()[slot];
                    }
                }
            }
        }
        Self {
            src,
            dst,
            eids: csr.then(|| graph.in_eid()),
            src_base: if csr { lay.in_src } else { lay.coo_src },
            dst_base: lay.coo_dst,
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Resolves `(block_stride, warp_stride)` for a launch. Auto mode budgets
/// the total *traced work* (approximate edge visits), because per-warp work
/// grows with the V/E grouping parameter: a grid of 6 blocks with `G = 64`
/// can hold more work than a grid of 100k one-edge blocks.
const AUTO_BLOCK_TARGET: usize = 384;
const AUTO_VISIT_TARGET: f64 = 98_304.0;

fn resolve_sampling(
    fidelity: Fidelity,
    grid_blocks: usize,
    warps_per_block: usize,
    visits_per_warp: f64,
    num_sms: usize,
) -> (usize, usize) {
    // A zero-SM device has no dispatch to alias with, and no stride is
    // coprime with zero, so it takes the stride as given.
    let coprime = |mut stride: usize| {
        while stride > 1 && num_sms > 0 && gcd(stride, num_sms) != 1 {
            stride += 1;
        }
        stride
    };
    let mut block_stride = match fidelity {
        Fidelity::Full => return (1, 1),
        Fidelity::Auto => coprime((grid_blocks / AUTO_BLOCK_TARGET).max(1)),
    };
    let mut warp_stride = 1usize;
    loop {
        let traced_blocks = grid_blocks.div_ceil(block_stride).max(1);
        let traced_warps = warps_per_block.div_ceil(warp_stride).max(1);
        let visits = traced_blocks as f64 * traced_warps as f64 * visits_per_warp;
        if visits <= AUTO_VISIT_TARGET {
            break;
        }
        if warp_stride < warps_per_block {
            warp_stride *= 2;
        } else {
            let next = coprime(block_stride * 2);
            if grid_blocks.div_ceil(next) < 32 {
                break; // keep at least 32 traced blocks of signal
            }
            block_stride = next;
        }
    }
    (block_stride, warp_stride.min(warps_per_block))
}

/// Measures the performance of executing `plan` over `graph` on the
/// configured device, returning the simulated [`SimReport`].
///
/// The trace touches only graph *structure* (never feature values), so no
/// operand tensors are needed — the memory behaviour of a graph operator is
/// data-independent given the schedule.
///
/// # Panics
///
/// Panics if `plan.op` has a `Null` output, which plan generation rejects
/// (lowering fails).
///
/// # Example
///
/// ```
/// use ugrapher_core::abstraction::OpInfo;
/// use ugrapher_core::exec::{measure, MeasureOptions};
/// use ugrapher_core::plan::KernelPlan;
/// use ugrapher_core::schedule::{ParallelInfo, Strategy};
/// use ugrapher_graph::generate::ring;
/// use ugrapher_sim::DeviceConfig;
///
/// let g = ring(256);
/// let plan = KernelPlan::generate(
///     OpInfo::aggregation_sum(),
///     ParallelInfo::basic(Strategy::WarpVertex),
///     g.num_vertices(),
///     g.num_edges(),
///     32,
/// )
/// .unwrap();
/// let report = measure(&g, &plan, &MeasureOptions::new(DeviceConfig::v100()));
/// assert!(report.time_ms > 0.0);
/// ```
pub fn measure(graph: &Graph, plan: &KernelPlan, options: &MeasureOptions) -> SimReport {
    measure_within(graph, plan, options, f64::INFINITY).expect("an infinite cutoff never stops")
}

/// [`measure`], stopped as soon as the kernel is proven slower than
/// `cutoff_ms`: the walker ends after the first block at which the
/// simulator's cache-free lower bound ([`KernelSim::with_cutoff_ms`])
/// exceeds the cutoff, and `None` comes back. A stopped kernel emits no
/// `"sim.kernel"` span and no kernel metrics, since it produced no
/// report. The bound applies only to launches that trace every block
/// (`Fidelity::Full`, and `Fidelity::Auto` on grids small enough not to
/// sample), so a sampled launch always runs to its report, as does any
/// launch under an infinite cutoff; a kernel whose time is at most
/// `cutoff_ms` is never stopped.
///
/// # Panics
///
/// Same conditions as [`measure`].
pub(crate) fn measure_within(
    graph: &Graph,
    plan: &KernelPlan,
    options: &MeasureOptions,
    cutoff_ms: f64,
) -> Option<SimReport> {
    let mut span = options
        .recorder
        .span_traced("sim.kernel", SpanKind::Kernel, options.trace_id);
    let device = &options.device;
    let ir = lower(plan).expect("validated operators have a non-Null output");
    let wpb = plan.threads_per_block / 32;
    // Approximate edge visits per warp, the unit of tracing cost.
    let mean_deg = if graph.num_vertices() > 0 {
        graph.num_edges() as f64 / graph.num_vertices() as f64
    } else {
        0.0
    };
    let items_per_warp = (32 / ir.lane_stride()) as f64;
    let per_unit = if ir.edge_parallel() {
        1.0
    } else {
        mean_deg.max(0.25)
    };
    let visits_per_warp = items_per_warp * plan.parallel.grouping as f64 * per_unit;
    let (stride, warp_stride) = resolve_sampling(
        options.fidelity,
        plan.grid_blocks,
        wpb.max(1),
        visits_per_warp,
        device.num_sms,
    );
    let traced = plan.grid_blocks.div_ceil(stride).max(1);
    let replication = (plan.grid_blocks as f64 / traced as f64).max(1.0);

    let launch = LaunchConfig::new(plan.grid_blocks, plan.threads_per_block)
        .with_regs(plan.regs_per_thread)
        .with_replication(replication);
    let mut sim = KernelSim::new(device, launch).with_cutoff_ms(cutoff_ms);
    if !Tracer::new(graph, plan, &ir, stride, warp_stride).run(&mut sim) {
        span.discard();
        return None;
    }
    let report = sim.finish();
    if span.is_enabled() {
        span.attr("schedule", plan.parallel.label())
            .attr("op", plan.op.label())
            .attr("feat", plan.feat)
            .attr("grid_blocks", plan.grid_blocks)
            .attr("time_ms", report.time_ms)
            .attr("kernels", report.kernels)
            .attr("achieved_occupancy", report.achieved_occupancy)
            .attr("theoretical_occupancy", report.theoretical_occupancy)
            .attr("sm_efficiency", report.sm_efficiency)
            .attr("l1_hit_rate", report.l1_hit_rate)
            .attr("l2_hit_rate", report.l2_hit_rate)
            .attr("dram_bytes", report.dram_bytes)
            .attr("l2_transactions", report.l2_transactions)
            .attr("l1_transactions", report.l1_transactions)
            .attr("atomic_ops", report.atomic_ops)
            .attr("max_atomic_conflict", report.max_atomic_conflict)
            .attr("compute_cycles", report.compute_cycles);
    }
    let reg = MetricsRegistry::global();
    reg.inc(metrics::KERNELS_LAUNCHED);
    reg.observe_labeled(
        metrics::KERNEL_TIME_MS,
        "strategy",
        plan.parallel.strategy.label(),
        report.time_ms,
    );
    Some(report)
}

/// Replays `plan`'s schedule over `graph` at **full fidelity** with the
/// simulator's write log enabled, returning the word-granular write-set of
/// the kernel's output stores and atomics.
///
/// This is the dynamic side of the race cross-check (`ugrapher-analyze`):
/// the tracer emits exactly one store/atomic per output element per owning
/// work item — edge-parallel reductions accumulate same-destination runs
/// in registers and flush once per run, vertex strategies flush each owned
/// row once per tile, and feature tiles write disjoint word ranges — so an
/// output word logged twice was written by two distinct work items.
/// Sampling is never used here: a thinned trace would under-count writers.
///
/// Word-exactness caveat: warps whose lanes sit in different feature tiles
/// issue one instruction sized by the first lane's tile length, so a
/// *ragged* last tile (`feat % tile_size != 0`) can over-approximate the
/// write-set by a few spilled words. Callers comparing against the static
/// verdict should use feature dimensions that tile evenly (any power of
/// two against the power-of-two knob values).
///
/// # Errors
///
/// Returns [`CoreError`](crate::CoreError) if the device configuration is
/// invalid or the plan does not lower.
pub fn collect_writes(
    graph: &Graph,
    plan: &KernelPlan,
    device: &DeviceConfig,
) -> Result<ugrapher_sim::WriteLog, crate::CoreError> {
    device.validate()?;
    let ir = lower(plan)?;
    let launch =
        LaunchConfig::new(plan.grid_blocks, plan.threads_per_block).with_regs(plan.regs_per_thread);
    let mut sim = KernelSim::new(device, launch);
    sim.enable_write_log()?;
    Tracer::new(graph, plan, &ir, 1, 1).run(&mut sim);
    let (_report, log) = sim.finish_with_writes();
    log.ok_or_else(|| crate::CoreError::Internal {
        reason: "write log enabled but absent at finish".to_owned(),
    })
}

/// One work item as the walker sees it: a feature tile plus a contiguous
/// range of positions (CSR slots of a destination group, or edge-view
/// positions of an edge group).
#[derive(Debug, Clone)]
struct Lane {
    tile: usize,
    /// Destination vertices owned (vertex strategies; empty otherwise).
    verts: Range<usize>,
    pos: Range<usize>,
}

/// One active lane at one step of a segment.
#[derive(Debug, Clone, Copy)]
struct At {
    tile: usize,
    /// The position (or, for per-vertex accesses, the vertex) reached.
    at: usize,
    /// Whether the output is written here: always, except that an edge
    /// reduction writes only at the end of a same-destination run, which
    /// the lane has accumulated in registers.
    write: bool,
}

/// What a warp instruction does with the words it addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Load,
    Store,
    Atomic,
}

/// Buffers one warp's steps reuse, so no access allocates.
#[derive(Debug, Default)]
struct Scratch {
    /// The active lanes of the current step.
    at: Vec<At>,
    /// The lane base addresses of the access being issued.
    bases: Vec<u64>,
}

/// The single schedule walker: one block/warp loop turns work items into
/// lanes, and every tensor access is placed by the provenance of its IR
/// load or store (DESIGN.md §13).
struct Tracer<'a> {
    graph: &'a Graph,
    plan: &'a KernelPlan,
    lay: Layout,
    view: EdgeView<'a>,
    stride: usize,
    /// Intra-block warp sampling: trace every `warp_stride`-th warp and
    /// scale the block's recorded costs back up.
    warp_stride: usize,
    /// Feature words one item covers per instruction (the IR feature
    /// loop's stride): 1 for a thread item, 32 for a warp item, so a warp
    /// holds `32 / width` items.
    width: usize,
    /// Items are edge groups (the IR's `EdgeGroup` loop), not destination
    /// groups.
    edge: bool,
    /// The IR's operand loads, in statement order (A before B).
    inputs: Vec<Operand>,
    output: Operand,
    /// The store's update form is atomic.
    atomic: bool,
    /// Arithmetic instructions per feature element (after fusion).
    arith: f64,
    // The per-strategy access-order differences, kept as data:
    /// Base addresses of the index arrays read once per position, in issue
    /// order (source ids, destination ids, edge ids).
    index_bases: Vec<u64>,
    /// Vertices per segment: a thread lane walks its whole destination
    /// group in one segment, a warp one vertex at a time; `0` for edge
    /// items.
    span: usize,
}

impl<'a> Tracer<'a> {
    fn new(
        graph: &'a Graph,
        plan: &'a KernelPlan,
        ir: &KernelIr,
        stride: usize,
        warp_stride: usize,
    ) -> Self {
        let lay = Layout::build(graph, plan);
        let view = EdgeView::new(graph, ir, &lay);
        let inputs: Vec<Operand> = ir
            .loads()
            .into_iter()
            .map(|l| Operand {
                prov: l.row,
                base: match l.buf {
                    OperandBuf::A => lay.a,
                    OperandBuf::B => lay.b,
                },
                scalar: !l.feature_indexed,
            })
            .collect();
        let store = ir.store();
        let output = Operand {
            prov: store.row,
            base: lay.c,
            scalar: false,
        };
        let uses = |prov| output.prov == prov || inputs.iter().any(|x| x.prov == prov);
        let edge = ir.edge_parallel();
        let width = ir.lane_stride();
        let warp = width > 1;
        // Index words follow provenance, except that edge items always read
        // the source id and warp edge items always read the destination id.
        let mut index_bases = Vec::with_capacity(3);
        if edge || uses(Provenance::SrcIndirect) {
            index_bases.push(view.src_base);
        }
        if (edge && warp) || uses(Provenance::DstIndirect) {
            index_bases.push(view.dst_base);
        }
        if view.eids.is_some() && uses(Provenance::EidIndirect) {
            index_bases.push(lay.in_eid);
        }
        Self {
            graph,
            plan,
            lay,
            view,
            stride,
            warp_stride,
            width,
            edge,
            inputs,
            output,
            atomic: store.update.is_atomic(),
            arith: ir.arith_per_element(),
            index_bases,
            span: match (edge, warp) {
                (true, _) => 0,
                (false, true) => 1,
                (false, false) => plan.parallel.grouping,
            },
        }
    }

    /// Walks the sampled blocks and warps of the grid; `false` if it
    /// stopped early because `sim` can no longer beat its cutoff.
    fn run(&self, sim: &mut KernelSim) -> bool {
        let plan = self.plan;
        let wpb = plan.threads_per_block / 32;
        let scale = wpb as f64 / wpb.div_ceil(self.warp_stride).max(1) as f64;
        let items_per_warp = 32 / self.width;
        let mut lanes = Vec::with_capacity(items_per_warp);
        let mut scratch = Scratch::default();
        for block in (0..plan.grid_blocks).step_by(self.stride) {
            sim.begin_block_scaled(block as u32, scale);
            for w in (0..wpb).step_by(self.warp_stride) {
                let first = (block * wpb + w) * items_per_warp;
                if first >= plan.num_items {
                    break;
                }
                // Thread lanes that own no work drop out; a warp item always
                // pays its bookkeeping.
                lanes.clear();
                for item in first..(first + items_per_warp).min(plan.num_items) {
                    let lane = self.lane(item);
                    if items_per_warp == 1 || !(lane.verts.is_empty() && lane.pos.is_empty()) {
                        lanes.push(lane);
                    }
                }
                self.warp(sim, &lanes, &mut scratch);
            }
            sim.end_block();
            if sim.cannot_win() {
                return false;
            }
        }
        true
    }

    /// The lane of work item `item = tile * num_groups + group`, so
    /// consecutive items are consecutive groups of the same tile.
    fn lane(&self, item: usize) -> Lane {
        let plan = self.plan;
        let (tile, group) = (item / plan.num_groups, item % plan.num_groups);
        let grp = plan.parallel.grouping;
        let owned = |units: usize| (group * grp).min(units)..((group + 1) * grp).min(units);
        if self.edge {
            let pos = owned(self.graph.num_edges());
            Lane {
                tile,
                verts: 0..0,
                pos,
            }
        } else {
            let verts = owned(self.graph.num_vertices());
            let in_ptr = self.graph.in_ptr();
            Lane {
                tile,
                pos: in_ptr[verts.start]..in_ptr[verts.end],
                verts,
            }
        }
    }

    /// Traces one warp's lanes: one segment, except that a warp item
    /// walks its destination group one vertex per segment.
    fn warp(&self, sim: &mut KernelSim, lanes: &[Lane], s: &mut Scratch) {
        let Some(first) = lanes.first() else {
            return;
        };
        let tile_len = (self.plan.feat - self.tile_off(first.tile)).min(self.plan.tile_size);
        let mut overhead = 0.0;
        if self.plan.parallel.grouping > 1 {
            overhead += costs::CYCLES_GROUP_OVERHEAD;
        }
        if self.plan.tile_count > 1 {
            overhead += costs::CYCLES_TILE_OVERHEAD;
        }
        sim.compute(overhead);
        if self.width > 1 && self.span > 0 {
            let in_ptr = self.graph.in_ptr();
            for v in first.verts.clone() {
                let lane = Lane {
                    tile: first.tile,
                    verts: v..v + 1,
                    pos: in_ptr[v]..in_ptr[v + 1],
                };
                self.segment(sim, &[lane], tile_len, s);
            }
        } else {
            self.segment(sim, lanes, tile_len, s);
        }
    }

    /// Walks one segment with all its lanes in lockstep: the CSR offsets
    /// of its vertices, then one step per position, with the per-vertex
    /// (`DstPartition`) loads and stores around the steps.
    fn segment(&self, sim: &mut KernelSim, lanes: &[Lane], tile_len: usize, s: &mut Scratch) {
        if self.span > 0 {
            // The segment's vertex offsets plus the end offset, 8 bytes
            // each, charged as one instruction.
            let ptrs = lanes
                .iter()
                .map(|l| self.lay.in_ptr + l.verts.start as u64 * 8);
            let words = (self.span + 1) * 2;
            self.issue(sim, Kind::Load, &mut s.bases, ptrs, words, iter::empty());
            sim.compute(costs::CYCLES_PER_MEM_ISSUE);
        }
        // A warp loads the per-vertex inputs before the segment's
        // positions; thread lanes load them after, with the stores.
        let warp = self.width > 1;
        if warp {
            self.per_vertex(sim, lanes, tile_len, s, true, false);
        }
        let arith = tile_len.div_ceil(self.width) as f64 * self.arith;
        let dst = &self.view.dst;
        let steps = lanes.iter().map(|l| l.pos.len()).max().unwrap_or(0);
        for step in 0..steps {
            s.at.clear();
            for l in lanes {
                let p = l.pos.start + step;
                if p < l.pos.end {
                    let write = self.output.prov != Provenance::DstIndirect
                        || p + 1 >= l.pos.end
                        || dst[p + 1] != dst[p];
                    s.at.push(At {
                        tile: l.tile,
                        at: p,
                        write,
                    });
                }
            }
            let mut cycles = costs::CYCLES_LOOP + arith * costs::CYCLES_PER_ARITH;
            for &base in &self.index_bases {
                // One index word per lane.
                let ids = s.at.iter().map(|a| base + a.at as u64 * 4);
                cycles += self.issue(sim, Kind::Load, &mut s.bases, ids, 1, iter::empty());
            }
            for x in &self.inputs {
                if x.prov != Provenance::DstPartition {
                    cycles += self.load(sim, x, s, tile_len);
                }
            }
            if self.output.prov != Provenance::DstPartition {
                cycles += self.store(sim, s, tile_len);
            }
            sim.compute(cycles);
        }
        self.per_vertex(sim, lanes, tile_len, s, !warp, true);
    }

    /// Touches the `DstPartition` inputs (if `loads`) and output (if
    /// `stores`) at each of the segment's vertices in turn.
    fn per_vertex(
        &self,
        sim: &mut KernelSim,
        lanes: &[Lane],
        tile_len: usize,
        s: &mut Scratch,
        loads: bool,
        stores: bool,
    ) {
        for vs in 0..self.span {
            s.at.clear();
            for l in lanes {
                if l.verts.start + vs < l.verts.end {
                    s.at.push(At {
                        tile: l.tile,
                        at: l.verts.start + vs,
                        write: true,
                    });
                }
            }
            if s.at.is_empty() {
                break;
            }
            let mut cycles = 0.0;
            if loads {
                for x in &self.inputs {
                    if x.prov == Provenance::DstPartition {
                        cycles += self.load(sim, x, s, tile_len);
                    }
                }
            }
            if stores && self.output.prov == Provenance::DstPartition {
                cycles += self.store(sim, s, tile_len);
            }
            sim.compute(cycles);
        }
    }

    /// The row a `prov` access touches at `at`: a position for indirect
    /// rows, the vertex itself for partition rows.
    fn row(&self, prov: Provenance, at: usize) -> u64 {
        match prov {
            Provenance::DstPartition => at as u64,
            Provenance::SrcIndirect => u64::from(self.view.src[at]),
            Provenance::DstIndirect => u64::from(self.view.dst[at]),
            Provenance::EidIndirect => self.view.eids.map_or(at as u64, |e| u64::from(e[at])),
        }
    }

    fn tile_off(&self, tile: usize) -> usize {
        tile * self.plan.tile_size
    }

    fn addr(&self, x: &Operand, a: &At) -> u64 {
        x.addr(&self.lay, self.row(x.prov, a.at), self.tile_off(a.tile))
    }

    /// Loads input `x` at every active lane: one word of a scalar operand,
    /// the tile of a feature row.
    fn load(&self, sim: &mut KernelSim, x: &Operand, s: &mut Scratch, tile_len: usize) -> f64 {
        let words = if x.scalar { 1 } else { tile_len };
        let rows = s.at.iter().map(|a| self.addr(x, a));
        self.issue(sim, Kind::Load, &mut s.bases, rows, words, iter::empty())
    }

    /// Writes the output at every lane that writes this step, atomically
    /// when the IR store is atomic; atomics carry the tile-0 lanes' rows as
    /// conflict groups.
    fn store(&self, sim: &mut KernelSim, s: &mut Scratch, tile_len: usize) -> f64 {
        let writers = s.at.iter().filter(|a| a.write);
        let rows = writers.clone().map(|a| self.addr(&self.output, a));
        let kind = if self.atomic {
            Kind::Atomic
        } else {
            Kind::Store
        };
        let groups = writers
            .filter(|a| a.tile == 0)
            .map(|a| self.row(self.output.prov, a.at));
        self.issue(sim, kind, &mut s.bases, rows, tile_len, groups)
    }

    /// Issues `words` consecutive words from each lane's base in `lanes`
    /// (gathered into the reused `bases`), or nothing if there is no lane,
    /// and returns the issue cycles. A thread item's per-word loop
    /// collapses into one access of its whole row; a warp item's lanes
    /// cover `width` words per access, and an atomic carries its conflict
    /// `groups` on the first.
    fn issue(
        &self,
        sim: &mut KernelSim,
        kind: Kind,
        bases: &mut Vec<u64>,
        lanes: impl Iterator<Item = u64>,
        words: usize,
        mut groups: impl Iterator<Item = u64>,
    ) -> f64 {
        bases.clear();
        bases.extend(lanes);
        if bases.is_empty() {
            return 0.0;
        }
        let chunk = if self.width > 1 { self.width } else { words };
        for off in (0..words).step_by(chunk.max(1)) {
            if off > 0 {
                for b in bases.iter_mut() {
                    *b += chunk as u64 * 4;
                }
            }
            let access = Access {
                bases,
                bytes: ((words - off).min(chunk) * 4) as u32,
            };
            match kind {
                Kind::Load => sim.load(access),
                Kind::Store => sim.store(access),
                Kind::Atomic => sim.atomic(access, &mut groups),
            }
        }
        let mut cycles = costs::CYCLES_PER_MEM_ISSUE;
        if kind == Kind::Atomic {
            cycles += costs::CYCLES_ATOMIC_ISSUE;
        }
        words.div_ceil(self.width) as f64 * cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::OpInfo;
    use crate::schedule::{ParallelInfo, Strategy};
    use ugrapher_graph::generate::{uniform_random, GraphSpec};

    fn v100() -> MeasureOptions {
        MeasureOptions::new(DeviceConfig::v100())
    }

    fn plan_for(g: &Graph, op: OpInfo, p: ParallelInfo, feat: usize) -> KernelPlan {
        KernelPlan::generate(op, p, g.num_vertices(), g.num_edges(), feat).unwrap()
    }

    #[test]
    fn all_strategies_produce_time() {
        let g = uniform_random(500, 2500, 1);
        for p in ParallelInfo::basics() {
            let plan = plan_for(&g, OpInfo::aggregation_sum(), p, 16);
            let r = measure(&g, &plan, &v100());
            assert!(r.time_ms > 0.0, "{p}: zero time");
            assert!(r.dram_bytes > 0.0, "{p}: no traffic");
        }
    }

    #[test]
    fn atomics_only_for_edge_parallel_reductions() {
        let g = uniform_random(300, 1500, 2);
        let agg = OpInfo::aggregation_sum();
        for (p, expect_atomics) in [
            (ParallelInfo::basic(Strategy::ThreadVertex), false),
            (ParallelInfo::basic(Strategy::WarpVertex), false),
            (ParallelInfo::basic(Strategy::ThreadEdge), true),
            (ParallelInfo::basic(Strategy::WarpEdge), true),
        ] {
            let plan = plan_for(&g, agg, p, 16);
            let r = measure(&g, &plan, &v100());
            assert_eq!(r.atomic_ops > 0.0, expect_atomics, "{p}");
        }
    }

    #[test]
    fn message_creation_never_atomic() {
        let g = uniform_random(300, 1500, 3);
        for p in ParallelInfo::basics() {
            let plan = plan_for(&g, OpInfo::message_creation_add(), p, 16);
            let r = measure(&g, &plan, &v100());
            assert_eq!(r.atomic_ops, 0.0, "{p}");
        }
    }

    #[test]
    fn conflict_chain_tracks_max_degree() {
        // Star graph: all edges point at vertex 0 -> the conflict chain on
        // vertex 0 equals the edge count under thread-edge.
        let n = 200usize;
        let src: Vec<u32> = (1..n as u32).collect();
        let dst = vec![0u32; n - 1];
        let g = Graph::from_edges(n, src, dst).unwrap();
        let plan = plan_for(
            &g,
            OpInfo::aggregation_sum(),
            ParallelInfo::basic(Strategy::ThreadEdge),
            8,
        );
        let r = measure(&g, &plan, &v100());
        assert!((r.max_atomic_conflict - (n as f64 - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn warp_strategies_add_parallelism_on_small_graphs() {
        // Paper Table 6: warp-vertex raises parallelism over thread-vertex.
        // On a small graph, thread-vertex launches only a handful of blocks
        // and leaves most SMs idle; warp-vertex launches 32x more warps.
        let g = uniform_random(1000, 5000, 4);
        let agg = OpInfo::aggregation_sum();
        let r_tv = measure(
            &g,
            &plan_for(&g, agg, ParallelInfo::basic(Strategy::ThreadVertex), 64),
            &v100(),
        );
        let r_wv = measure(
            &g,
            &plan_for(&g, agg, ParallelInfo::basic(Strategy::WarpVertex), 64),
            &v100(),
        );
        assert!(
            r_wv.sm_efficiency > r_tv.sm_efficiency,
            "warp-vertex sm_eff {} !> thread-vertex sm_eff {}",
            r_wv.sm_efficiency,
            r_tv.sm_efficiency
        );
    }

    #[test]
    fn csr_order_grouping_accumulates_same_destination_runs() {
        // Edge-parallel reductions iterate dst-sorted slots, so a grouped
        // thread accumulates same-destination edges in registers and
        // issues far fewer atomics than ungrouped execution.
        let g = uniform_random(500, 10_000, 8); // mean degree 20
        let agg = OpInfo::aggregation_sum();
        let base = measure(
            &g,
            &plan_for(&g, agg, ParallelInfo::new(Strategy::ThreadEdge, 1, 1), 16),
            &v100(),
        );
        let grouped = measure(
            &g,
            &plan_for(&g, agg, ParallelInfo::new(Strategy::ThreadEdge, 16, 1), 16),
            &v100(),
        );
        assert_eq!(base.atomic_ops, 10_000.0, "one atomic per edge ungrouped");
        assert!(
            grouped.atomic_ops < base.atomic_ops * 0.5,
            "grouping must merge same-dst runs: {} vs {}",
            grouped.atomic_ops,
            base.atomic_ops
        );
        // And the hottest conflict chain shrinks accordingly.
        assert!(grouped.max_atomic_conflict < base.max_atomic_conflict);
    }

    #[test]
    fn message_creation_edge_writes_are_coalesced() {
        // Edge-output operators iterate COO order: consecutive lanes write
        // consecutive edge rows, which the coalescer merges. With feature
        // dim 1 the whole warp's 32 stores fit in 4 sectors.
        let g = uniform_random(2000, 20_000, 9);
        let op = OpInfo::message_creation_copy_src();
        let r = measure(
            &g,
            &plan_for(&g, op, ParallelInfo::basic(Strategy::ThreadEdge), 1),
            &v100(),
        );
        // Total transactions stay well below one per edge per tensor
        // (reads of src ids + scattered src rows + coalesced writes).
        assert!(
            r.l1_transactions < 3.0 * g.num_edges() as f64,
            "transactions {} too high for coalesced edge writes",
            r.l1_transactions
        );
    }

    #[test]
    fn edge_parallel_has_more_parallelism_on_skewed_graphs() {
        let g = GraphSpec {
            num_vertices: 3000,
            num_edges: 30_000,
            degree_model: ugrapher_graph::generate::DegreeModel::PowerLaw { alpha: 1.8 },
            locality: 0.0,
            seed: 5,
        }
        .build();
        let agg = OpInfo::aggregation_sum();
        let we = measure(
            &g,
            &plan_for(&g, agg, ParallelInfo::basic(Strategy::WarpEdge), 32),
            &v100(),
        );
        let wv = measure(
            &g,
            &plan_for(&g, agg, ParallelInfo::basic(Strategy::WarpVertex), 32),
            &v100(),
        );
        assert!(
            we.achieved_occupancy > wv.achieved_occupancy,
            "warp-edge occ {} !> warp-vertex occ {} on skewed graph",
            we.achieved_occupancy,
            wv.achieved_occupancy
        );
    }

    #[test]
    fn sampled_fidelity_approximates_full() {
        // 200k edges make 782 thread-edge blocks, so Auto traces every
        // third block (2 shares a factor with the V100's 80 SMs).
        let g = uniform_random(20_000, 200_000, 6);
        let plan = plan_for(
            &g,
            OpInfo::aggregation_sum(),
            ParallelInfo::basic(Strategy::ThreadEdge),
            16,
        );
        let device = DeviceConfig::v100();
        assert_eq!(
            resolve_sampling(
                Fidelity::Auto,
                plan.grid_blocks,
                plan.threads_per_block / 32,
                32.0,
                device.num_sms
            ),
            (3, 1)
        );
        let full = measure(&g, &plan, &v100());
        let sampled = measure(&g, &plan, &MeasureOptions::auto(device));
        let ratio = sampled.time_ms / full.time_ms;
        assert!(
            (0.5..2.0).contains(&ratio),
            "sampled/full time ratio {ratio}"
        );
        let traffic_ratio = sampled.l1_transactions / full.l1_transactions;
        assert!(
            (0.7..1.4).contains(&traffic_ratio),
            "traffic ratio {traffic_ratio}"
        );
    }

    #[test]
    fn grouping_reduces_grid_and_changes_time() {
        let g = uniform_random(2000, 20_000, 7);
        let agg = OpInfo::aggregation_sum();
        let base = plan_for(&g, agg, ParallelInfo::new(Strategy::ThreadEdge, 1, 1), 16);
        let grouped = plan_for(&g, agg, ParallelInfo::new(Strategy::ThreadEdge, 8, 1), 16);
        assert!(grouped.grid_blocks < base.grid_blocks);
        let r1 = measure(&g, &base, &v100());
        let r2 = measure(&g, &grouped, &v100());
        assert!(r1.time_ms > 0.0 && r2.time_ms > 0.0);
    }

    #[test]
    fn sampling_resolution_is_coprime_with_sms() {
        assert_eq!(
            resolve_sampling(Fidelity::Full, 10_000, 8, 32.0, 80),
            (1, 1)
        );
        // 10k blocks: a raw stride of 26 is bumped to 27, coprime with 80.
        let (s, w) = resolve_sampling(Fidelity::Auto, 10_000, 8, 32.0, 80);
        assert_eq!((s, w), (27, 1));
        let (s, _) = resolve_sampling(Fidelity::Auto, 1_000_000, 8, 32.0, 80);
        assert!(s > 1);
        assert_eq!(gcd(s, 80), 1);
    }

    #[test]
    fn sampling_resolution_terminates_without_sms() {
        // No stride is coprime with zero; the raw stride is kept (with 80
        // SMs it is bumped to 27).
        let (s, _) = resolve_sampling(Fidelity::Auto, 10_000, 8, 32.0, 0);
        assert_eq!(s, 26);
        let (s, _) = resolve_sampling(Fidelity::Auto, 1_000_000, 8, 32.0, 0);
        assert!(s > 1);
    }

    #[test]
    fn heavy_blocks_thin_warps_even_on_small_grids() {
        // 100 light blocks: nothing to thin.
        let (bs, ws) = resolve_sampling(Fidelity::Auto, 100, 8, 32.0, 80);
        assert_eq!((bs, ws), (1, 1));
        // 200 blocks whose warps each visit ~2048 edges (G=64 thread
        // strategy): warp sampling kicks in first, then block thinning.
        let (bs, ws) = resolve_sampling(Fidelity::Auto, 200, 8, 2048.0, 80);
        assert_eq!(ws, 8, "warp stride must max out for heavy warps");
        assert!(bs > 1, "block thinning follows once warps are exhausted");
        assert!(200usize.div_ceil(bs) >= 32);
    }

    #[test]
    fn auto_sampling_keeps_minimum_signal() {
        // Even absurdly heavy plans keep >= 32 traced blocks.
        let (bs, _) = resolve_sampling(Fidelity::Auto, 64, 8, 1e9, 80);
        assert!(64usize.div_ceil(bs) >= 32);
    }

    #[test]
    fn write_log_matches_atomic_analysis() {
        let g = uniform_random(300, 2400, 11); // mean degree 8
        let d = DeviceConfig::v100();
        let agg = OpInfo::aggregation_sum();
        // Vertex-parallel: every output word has exactly one writer.
        let tv = collect_writes(
            &g,
            &plan_for(&g, agg, ParallelInfo::basic(Strategy::ThreadVertex), 8),
            &d,
        )
        .unwrap();
        assert!(!tv.has_conflicts(), "thread-vertex must not contend");
        // Edge-parallel reduction: destinations shared across items
        // contend, but every write is atomic (protected).
        let te = collect_writes(
            &g,
            &plan_for(&g, agg, ParallelInfo::basic(Strategy::ThreadEdge), 8),
            &d,
        )
        .unwrap();
        assert!(te.has_conflicts(), "thread-edge reduction must contend");
        assert!(
            te.unprotected_addresses().is_empty(),
            "contended words must be atomic-only"
        );
    }

    #[test]
    fn write_log_edge_outputs_have_single_writers() {
        let g = uniform_random(200, 1600, 12);
        let d = DeviceConfig::v100();
        for p in ParallelInfo::basics() {
            let log = collect_writes(&g, &plan_for(&g, OpInfo::message_creation_add(), p, 8), &d)
                .unwrap();
            assert!(!log.has_conflicts(), "{p}: per-edge rows are exclusive");
            assert_eq!(
                log.num_addresses(),
                g.num_edges() * 8,
                "{p}: every output word written"
            );
        }
    }

    use ugrapher_graph::Graph;
}
