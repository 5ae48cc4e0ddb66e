//! Schedule-faithful trace generation.
//!
//! For a given [`KernelPlan`], this module walks the exact loop structure
//! the paper's code generator would emit for that schedule (paper Fig. 6)
//! and streams the resulting warp-level memory accesses and compute cycles
//! into the `ugrapher-sim` GPU model:
//!
//! * **thread-vertex / thread-edge** — each lane owns a group of
//!   vertices/edges; feature elements are traversed sequentially per lane,
//!   so cross-lane accesses gather from up to 32 distinct rows
//!   ([`Access::PerLaneRows`]) and index arrays are read one element per
//!   lane per step ([`Access::Scatter`]);
//! * **warp-vertex / warp-edge** — each warp owns a group; lanes sweep the
//!   feature tile, so feature rows are read in coalesced 32-lane chunks
//!   ([`Access::Coalesced`]) and index arrays via [`Access::Broadcast`];
//! * edge-parallel reductions update destination rows with
//!   [`KernelSim::atomic`], tracking per-destination conflict chains.
//!
//! Tracing can be *sampled* ([`Fidelity::Sampled`]): only every `stride`-th
//! block is walked and the simulator scales counts back up, which is what
//! makes grid-search tuning affordable (DESIGN.md §7).

use ugrapher_graph::Graph;
use ugrapher_obs::{metrics, MetricsRegistry, Recorder, SpanKind};
use ugrapher_sim::{Access, AddressSpace, DeviceConfig, KernelSim, LaunchConfig, SimReport};

use crate::abstraction::TensorType;
use crate::costs;
use crate::plan::KernelPlan;
use crate::schedule::Strategy;

/// Trace fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Trace every block.
    Full,
    /// Trace every `stride`-th block (adjusted to be coprime with the SM
    /// count so sampling does not alias with round-robin dispatch).
    Sampled(usize),
    /// Pick a stride so that roughly 1024 blocks are traced.
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

    fn row_addr(&self, base: u64, row: u64, tile_off: usize) -> u64 {
        base + (row * self.feat + tile_off as u64) * 4
    }
}

/// One non-null input operand as the tracer sees it.
#[derive(Debug, Clone, Copy)]
struct InputSpec {
    ttype: TensorType,
    base: u64,
    /// One-column broadcast: the kernel loads a single 4-byte value per
    /// row instead of a feature tile.
    scalar: bool,
}

impl InputSpec {
    /// Address of this operand's data for `row` at `tile_off`.
    fn addr(&self, lay: &Layout, row: u64, tile_off: usize) -> u64 {
        if self.scalar {
            self.base + row * 4
        } else {
            lay.row_addr(self.base, row, tile_off)
        }
    }

    /// Bytes one lane streams for this operand.
    fn bytes(&self, tile_len: usize) -> u32 {
        if self.scalar {
            4
        } else {
            (tile_len * 4) as u32
        }
    }

    /// Memory-issue cycles one lane spends loading this operand.
    fn issue_cycles(&self, tile_len: usize) -> f64 {
        if self.scalar {
            crate::costs::CYCLES_PER_MEM_ISSUE
        } else {
            tile_len as f64 * crate::costs::CYCLES_PER_MEM_ISSUE
        }
    }
}

/// The per-edge arrays an edge-parallel kernel iterates, in its iteration
/// order (see [`Tracer::edge_view`]).
struct EdgeView {
    src: Vec<u32>,
    dst: Vec<u32>,
    /// Stable edge ids per position; empty in COO mode where `eid == e`.
    eids: Vec<u32>,
    /// Whether positions follow dst-sorted CSR slot order.
    csr: bool,
}

impl EdgeView {
    fn eid(&self, e: usize) -> u64 {
        if self.csr {
            self.eids[e] as u64
        } else {
            e as u64
        }
    }

    /// Device base address of the per-position source-vertex array.
    fn src_base(&self, lay: &Layout) -> u64 {
        if self.csr {
            lay.in_src
        } else {
            lay.coo_src
        }
    }

    /// Device base address of the per-position destination-vertex array
    /// (for CSR order this is the expanded slot->dst array real kernels
    /// carry alongside the CSC structure).
    fn dst_base(&self, lay: &Layout) -> u64 {
        lay.coo_dst
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
    let coprime = |mut stride: usize| {
        while stride > 1 && gcd(stride, num_sms) != 1 {
            stride += 1;
        }
        stride
    };
    let mut block_stride = match fidelity {
        Fidelity::Full => return (1, 1),
        Fidelity::Sampled(s) => return (coprime(s.max(1)), 1),
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
    let mut span = options
        .recorder
        .span_traced("sim.kernel", SpanKind::Kernel, options.trace_id);
    let device = &options.device;
    let wpb = plan.threads_per_block / 32;
    // Approximate edge visits per warp, the unit of tracing cost.
    let mean_deg = if graph.num_vertices() > 0 {
        graph.num_edges() as f64 / graph.num_vertices() as f64
    } else {
        0.0
    };
    let lanes = if plan.parallel.strategy.is_warp_per_item() {
        1.0
    } else {
        32.0
    };
    let per_unit = if plan.parallel.strategy.is_edge_parallel() {
        1.0
    } else {
        mean_deg.max(0.25)
    };
    let visits_per_warp = lanes * plan.parallel.grouping as f64 * per_unit;
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
    let mut sim = KernelSim::new(device, launch);

    let lay = Layout::build(graph, plan);
    let tracer = Tracer {
        graph,
        plan,
        lay,
        stride,
        warp_stride,
    };
    tracer.run(&mut sim);
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
    report
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
/// invalid.
pub fn collect_writes(
    graph: &Graph,
    plan: &KernelPlan,
    device: &DeviceConfig,
) -> Result<ugrapher_sim::WriteLog, crate::CoreError> {
    device.validate()?;
    let launch =
        LaunchConfig::new(plan.grid_blocks, plan.threads_per_block).with_regs(plan.regs_per_thread);
    let mut sim = KernelSim::new(device, launch);
    sim.enable_write_log()?;
    let lay = Layout::build(graph, plan);
    let tracer = Tracer {
        graph,
        plan,
        lay,
        stride: 1,
        warp_stride: 1,
    };
    tracer.run(&mut sim);
    let (_report, log) = sim.finish_with_writes();
    log.ok_or_else(|| crate::CoreError::Internal {
        reason: "write log enabled but absent at finish".to_owned(),
    })
}

/// One lane's iteration state in a thread-per-item strategy.
struct Lane {
    tile: usize,
    tile_off: usize,
    /// Current vertex (thread-vertex) — unused for thread-edge.
    v: usize,
    /// Current in-edge slot / edge id.
    slot: usize,
    /// End of the current vertex's slot range (thread-vertex only).
    v_slot_end: usize,
    /// End of the lane's whole range.
    end: usize,
}

struct Tracer<'a> {
    graph: &'a Graph,
    plan: &'a KernelPlan,
    lay: Layout,
    stride: usize,
    /// Intra-block warp sampling: trace every `warp_stride`-th warp and
    /// scale the block's recorded costs back up.
    warp_stride: usize,
}

impl Tracer<'_> {
    /// Walks the plan's loop structure, dispatching on the strategy.
    fn run(&self, sim: &mut KernelSim) {
        match self.plan.parallel.strategy {
            Strategy::ThreadVertex => self.thread_vertex(sim),
            Strategy::ThreadEdge => self.thread_edge(sim),
            Strategy::WarpVertex => self.warp_vertex(sim),
            Strategy::WarpEdge => self.warp_edge(sim),
        }
    }

    fn decode_item(&self, item: usize) -> (usize, usize) {
        // item = tile * num_groups + group, so consecutive items are
        // consecutive groups of the same tile (coalesced-friendly).
        (item / self.plan.num_groups, item % self.plan.num_groups)
    }

    fn tile_off(&self, tile: usize) -> usize {
        tile * self.plan.tile_size
    }

    fn tile_len(&self, tile: usize) -> usize {
        (self.plan.feat - self.tile_off(tile)).min(self.plan.tile_size)
    }

    /// Each non-null input operand.
    fn inputs(&self) -> Vec<InputSpec> {
        let mut v = Vec::with_capacity(2);
        if self.plan.op.a != TensorType::Null {
            v.push(InputSpec {
                ttype: self.plan.op.a,
                base: self.lay.a,
                scalar: self.plan.a_scalar,
            });
        }
        if self.plan.op.b != TensorType::Null {
            v.push(InputSpec {
                ttype: self.plan.op.b,
                base: self.lay.b,
                scalar: self.plan.b_scalar,
            });
        }
        v
    }

    fn needs_eid(&self) -> bool {
        self.plan.op.reads_edge() || self.plan.op.c == TensorType::Edge
    }

    /// Iteration order for edge-parallel strategies: reductions walk edges
    /// in dst-sorted CSR slot order (register accumulation over
    /// same-destination runs, coalesced index arrays); edge-output
    /// operators walk raw COO order (coalesced output writes).
    fn edge_view(&self) -> EdgeView {
        if self.plan.op.c != TensorType::Edge {
            let g = self.graph;
            let mut dst = vec![0u32; g.num_edges()];
            for v in 0..g.num_vertices() {
                dst[g.in_ptr()[v]..g.in_ptr()[v + 1]].fill(v as u32);
            }
            EdgeView {
                src: g.in_src().to_vec(),
                dst,
                eids: g.in_eid().to_vec(),
                csr: true,
            }
        } else {
            let coo = self.graph.to_coo();
            EdgeView {
                src: coo.src().to_vec(),
                dst: coo.dst().to_vec(),
                eids: Vec::new(),
                csr: false,
            }
        }
    }

    /// Warps of one block to trace, honouring the warp stride.
    fn traced_warps(&self, wpb: usize) -> Vec<usize> {
        (0..wpb).step_by(self.warp_stride).collect()
    }

    /// The cost scale compensating for skipped warps.
    fn warp_scale(&self, wpb: usize) -> f64 {
        let traced = wpb.div_ceil(self.warp_stride).max(1);
        wpb as f64 / traced as f64
    }

    fn item_overhead(&self) -> f64 {
        let mut c = 0.0;
        if self.plan.parallel.grouping > 1 {
            c += costs::CYCLES_GROUP_OVERHEAD;
        }
        if self.plan.tile_count > 1 {
            c += costs::CYCLES_TILE_OVERHEAD;
        }
        c
    }

    // ---------------------------------------------------------- thread-vertex

    fn thread_vertex(&self, sim: &mut KernelSim) {
        let plan = self.plan;
        let g = self.graph;
        let nv = g.num_vertices();
        let grp = plan.parallel.grouping;
        let tpb = plan.threads_per_block;
        let wpb = tpb / 32;
        let inputs = self.inputs();
        let dst_inputs: Vec<InputSpec> = inputs
            .iter()
            .filter(|i| i.ttype == TensorType::DstV)
            .copied()
            .collect();
        let edge_inputs: Vec<InputSpec> = inputs
            .iter()
            .filter(|i| i.ttype != TensorType::DstV)
            .copied()
            .collect();
        let reads_src = plan.op.reads_src();
        let needs_eid = self.needs_eid();
        let out_is_edge = plan.op.c == TensorType::Edge;

        let mut block = 0;
        while block < plan.grid_blocks {
            sim.begin_block_scaled(block as u32, self.warp_scale(wpb));
            for w in self.traced_warps(wpb) {
                let item0 = block * tpb + w * 32;
                if item0 >= plan.num_items {
                    break;
                }
                let mut lanes: Vec<Lane> = Vec::with_capacity(32);
                let mut ptr_bases = Vec::with_capacity(32);
                for item in item0..(item0 + 32).min(plan.num_items) {
                    let (tile, gidx) = self.decode_item(item);
                    let vstart = (gidx * grp).min(nv);
                    let vend = ((gidx + 1) * grp).min(nv);
                    if vstart >= vend {
                        continue;
                    }
                    ptr_bases.push(self.lay.in_ptr + vstart as u64 * 8);
                    lanes.push(Lane {
                        tile,
                        tile_off: self.tile_off(tile),
                        v: vstart,
                        slot: g.in_ptr()[vstart],
                        v_slot_end: g.in_ptr()[vstart + 1],
                        end: g.in_ptr()[vend],
                    });
                }
                if lanes.is_empty() {
                    continue;
                }
                let tile_len = self.tile_len(lanes[0].tile);
                sim.load(Access::PerLaneRows {
                    bases: ptr_bases,
                    bytes: ((grp + 1) * 8) as u32,
                });
                sim.compute(costs::CYCLES_PER_MEM_ISSUE + self.item_overhead());

                // Edge loop, all lanes in lockstep.
                loop {
                    let mut idx_addrs = Vec::new();
                    let mut eid_addrs = Vec::new();
                    let mut in_bases: Vec<Vec<u64>> =
                        edge_inputs.iter().map(|_| Vec::new()).collect();
                    let mut store_bases = Vec::new();
                    let mut active = 0usize;
                    for lane in &mut lanes {
                        if lane.slot >= lane.end {
                            continue;
                        }
                        while lane.slot >= lane.v_slot_end {
                            lane.v += 1;
                            lane.v_slot_end = g.in_ptr()[lane.v + 1];
                        }
                        let src = g.in_src()[lane.slot] as u64;
                        let eid = g.in_eid()[lane.slot] as u64;
                        if reads_src {
                            idx_addrs.push(self.lay.in_src + lane.slot as u64 * 4);
                        }
                        if needs_eid {
                            eid_addrs.push(self.lay.in_eid + lane.slot as u64 * 4);
                        }
                        for (k, input) in edge_inputs.iter().enumerate() {
                            let row = match input.ttype {
                                TensorType::SrcV => src,
                                TensorType::Edge => eid,
                                _ => unreachable!("DstV handled per vertex"),
                            };
                            in_bases[k].push(input.addr(&self.lay, row, lane.tile_off));
                        }
                        if out_is_edge {
                            store_bases.push(self.lay.row_addr(self.lay.c, eid, lane.tile_off));
                        }
                        lane.slot += 1;
                        active += 1;
                    }
                    if active == 0 {
                        break;
                    }
                    if !idx_addrs.is_empty() {
                        sim.load(Access::Scatter { addrs: idx_addrs });
                        sim.compute(costs::CYCLES_PER_MEM_ISSUE);
                    }
                    if !eid_addrs.is_empty() {
                        sim.load(Access::Scatter { addrs: eid_addrs });
                        sim.compute(costs::CYCLES_PER_MEM_ISSUE);
                    }
                    let mut cyc = costs::CYCLES_LOOP
                        + tile_len as f64 * plan.arith_per_element() * costs::CYCLES_PER_ARITH;
                    for (k, bases) in in_bases.into_iter().enumerate() {
                        if !bases.is_empty() {
                            sim.load(Access::PerLaneRows {
                                bases,
                                bytes: edge_inputs[k].bytes(tile_len),
                            });
                            cyc += edge_inputs[k].issue_cycles(tile_len);
                        }
                    }
                    if !store_bases.is_empty() {
                        sim.store(Access::PerLaneRows {
                            bases: store_bases,
                            bytes: (tile_len * 4) as u32,
                        });
                        cyc += tile_len as f64 * costs::CYCLES_PER_MEM_ISSUE;
                    }
                    sim.compute(cyc);
                }

                // Per-vertex epilogue: DstV input loads + output stores
                // (accumulators live in registers during the edge loop).
                if !out_is_edge || !dst_inputs.is_empty() {
                    for vs in 0..grp {
                        let mut bases = Vec::new();
                        for item in item0..(item0 + 32).min(plan.num_items) {
                            let (tile, gidx) = self.decode_item(item);
                            let v = gidx * grp + vs;
                            if v < ((gidx + 1) * grp).min(nv) && v < nv {
                                bases.push(self.lay.row_addr(
                                    self.lay.c,
                                    v as u64,
                                    self.tile_off(tile),
                                ));
                            }
                        }
                        if bases.is_empty() {
                            break;
                        }
                        for input in &dst_inputs {
                            let mut in_rows = Vec::with_capacity(bases.len());
                            for item in item0..(item0 + 32).min(plan.num_items) {
                                let (tile, gidx) = self.decode_item(item);
                                let v = gidx * grp + vs;
                                if v < ((gidx + 1) * grp).min(nv) && v < nv {
                                    in_rows.push(input.addr(
                                        &self.lay,
                                        v as u64,
                                        self.tile_off(tile),
                                    ));
                                }
                            }
                            sim.load(Access::PerLaneRows {
                                bases: in_rows,
                                bytes: input.bytes(tile_len),
                            });
                            sim.compute(input.issue_cycles(tile_len));
                        }
                        if !out_is_edge {
                            sim.store(Access::PerLaneRows {
                                bases,
                                bytes: (tile_len * 4) as u32,
                            });
                            sim.compute(tile_len as f64 * costs::CYCLES_PER_MEM_ISSUE);
                        }
                    }
                }
            }
            sim.end_block();
            block += self.stride;
        }
    }

    // ------------------------------------------------------------ thread-edge

    /// Edge-parallel kernels iterate reductions in *dst-sorted (CSR) slot
    /// order*, which lets a thread accumulate consecutive same-destination
    /// edges in registers and issue one atomic per destination run — the
    /// mechanism that makes large V/E grouping effective on skewed graphs
    /// (paper Table 9's `TE_G32/G64` optima). Edge-output operators
    /// (message creation) iterate raw COO order instead, where the output
    /// write is naturally coalesced.
    fn thread_edge(&self, sim: &mut KernelSim) {
        let plan = self.plan;
        let g = self.graph;
        let ne = g.num_edges();
        let grp = plan.parallel.grouping;
        let tpb = plan.threads_per_block;
        let wpb = tpb / 32;
        let view = self.edge_view();
        let inputs = self.inputs();
        let out_is_edge = plan.op.c == TensorType::Edge;
        let needs_dst = !out_is_edge || inputs.iter().any(|i| i.ttype == TensorType::DstV);
        let needs_eid_load = view.csr && self.needs_eid();

        let mut block = 0;
        while block < plan.grid_blocks {
            sim.begin_block_scaled(block as u32, self.warp_scale(wpb));
            for w in self.traced_warps(wpb) {
                let item0 = block * tpb + w * 32;
                if item0 >= plan.num_items {
                    break;
                }
                let lane_items: Vec<(usize, usize, usize)> = (item0
                    ..(item0 + 32).min(plan.num_items))
                    .map(|item| {
                        let (tile, gidx) = self.decode_item(item);
                        (tile, (gidx * grp).min(ne), ((gidx + 1) * grp).min(ne))
                    })
                    .filter(|&(_, s, e)| s < e)
                    .collect();
                if lane_items.is_empty() {
                    continue;
                }
                let tile_len = self.tile_len(lane_items[0].0);
                sim.compute(self.item_overhead());

                for s in 0..grp {
                    let mut src_addrs = Vec::new();
                    let mut dst_addrs = Vec::new();
                    let mut eid_addrs = Vec::new();
                    let mut in_bases: Vec<Vec<u64>> = inputs.iter().map(|_| Vec::new()).collect();
                    let mut store_bases = Vec::new();
                    let mut conflict_groups = Vec::new();
                    let mut active = 0usize;
                    for &(tile, estart, eend) in &lane_items {
                        let e = estart + s;
                        if e >= eend {
                            continue;
                        }
                        active += 1;
                        let src = view.src[e] as u64;
                        let dst = view.dst[e] as u64;
                        let eid = view.eid(e);
                        let tile_off = self.tile_off(tile);
                        src_addrs.push(view.src_base(&self.lay) + e as u64 * 4);
                        if needs_dst {
                            dst_addrs.push(view.dst_base(&self.lay) + e as u64 * 4);
                        }
                        if needs_eid_load {
                            eid_addrs.push(self.lay.in_eid + e as u64 * 4);
                        }
                        for (k, input) in inputs.iter().enumerate() {
                            let row = match input.ttype {
                                TensorType::SrcV => src,
                                TensorType::DstV => dst,
                                TensorType::Edge => eid,
                                TensorType::Null => unreachable!(),
                            };
                            in_bases[k].push(input.addr(&self.lay, row, tile_off));
                        }
                        if out_is_edge {
                            store_bases.push(self.lay.row_addr(self.lay.c, eid, tile_off));
                        } else {
                            // Register accumulation: flush only at the end
                            // of a same-destination run (or of the group).
                            let flush = e + 1 >= eend || view.dst[e + 1] as u64 != dst;
                            if flush {
                                store_bases.push(self.lay.row_addr(self.lay.c, dst, tile_off));
                                if plan.needs_atomic && tile == 0 {
                                    conflict_groups.push(dst);
                                }
                            }
                        }
                    }
                    if active == 0 {
                        break;
                    }
                    sim.load(Access::Scatter { addrs: src_addrs });
                    let mut cyc = costs::CYCLES_LOOP
                        + costs::CYCLES_PER_MEM_ISSUE
                        + tile_len as f64 * plan.arith_per_element() * costs::CYCLES_PER_ARITH;
                    if !dst_addrs.is_empty() {
                        sim.load(Access::Scatter { addrs: dst_addrs });
                        cyc += costs::CYCLES_PER_MEM_ISSUE;
                    }
                    if !eid_addrs.is_empty() {
                        sim.load(Access::Scatter { addrs: eid_addrs });
                        cyc += costs::CYCLES_PER_MEM_ISSUE;
                    }
                    for (k, bases) in in_bases.into_iter().enumerate() {
                        if !bases.is_empty() {
                            sim.load(Access::PerLaneRows {
                                bases,
                                bytes: inputs[k].bytes(tile_len),
                            });
                            cyc += inputs[k].issue_cycles(tile_len);
                        }
                    }
                    if !store_bases.is_empty() {
                        if plan.needs_atomic {
                            sim.atomic(
                                Access::PerLaneRows {
                                    bases: store_bases,
                                    bytes: (tile_len * 4) as u32,
                                },
                                conflict_groups,
                            );
                            // One warp-level atomic sequence per step in
                            // which any lane flushes (SIMT: the instruction
                            // issues once for all flushing lanes).
                            cyc += tile_len as f64
                                * (costs::CYCLES_PER_MEM_ISSUE + costs::CYCLES_ATOMIC_ISSUE);
                        } else {
                            sim.store(Access::PerLaneRows {
                                bases: store_bases,
                                bytes: (tile_len * 4) as u32,
                            });
                            cyc += tile_len as f64 * costs::CYCLES_PER_MEM_ISSUE;
                        }
                    }
                    sim.compute(cyc);
                }
            }
            sim.end_block();
            block += self.stride;
        }
    }

    // ------------------------------------------------------------ warp-vertex

    fn warp_vertex(&self, sim: &mut KernelSim) {
        let plan = self.plan;
        let g = self.graph;
        let nv = g.num_vertices();
        let grp = plan.parallel.grouping;
        let wpb = plan.threads_per_block / 32;
        let inputs = self.inputs();
        let reads_src = plan.op.reads_src();
        let needs_eid = self.needs_eid();
        let out_is_edge = plan.op.c == TensorType::Edge;

        let mut block = 0;
        while block < plan.grid_blocks {
            sim.begin_block_scaled(block as u32, self.warp_scale(wpb));
            for w in self.traced_warps(wpb) {
                let item = block * wpb + w;
                if item >= plan.num_items {
                    break;
                }
                let (tile, gidx) = self.decode_item(item);
                let tile_off = self.tile_off(tile);
                let tile_len = self.tile_len(tile);
                let vstart = (gidx * grp).min(nv);
                let vend = ((gidx + 1) * grp).min(nv);
                sim.compute(self.item_overhead());

                for v in vstart..vend {
                    sim.load(Access::Coalesced {
                        base: self.lay.in_ptr + v as u64 * 8,
                        lanes: 4, // two 8-byte offsets
                    });
                    sim.compute(costs::CYCLES_PER_MEM_ISSUE);
                    for input in &inputs {
                        if input.ttype == TensorType::DstV {
                            self.warp_input(sim, input, v as u64, tile_off, tile_len);
                        }
                    }
                    for slot in g.in_ptr()[v]..g.in_ptr()[v + 1] {
                        let src = g.in_src()[slot];
                        let eid = g.in_eid()[slot];
                        let mut cyc = costs::CYCLES_LOOP;
                        if reads_src {
                            sim.load(Access::Broadcast {
                                addr: self.lay.in_src + slot as u64 * 4,
                            });
                            cyc += costs::CYCLES_PER_MEM_ISSUE;
                        }
                        if needs_eid {
                            sim.load(Access::Broadcast {
                                addr: self.lay.in_eid + slot as u64 * 4,
                            });
                            cyc += costs::CYCLES_PER_MEM_ISSUE;
                        }
                        let chunks = tile_len.div_ceil(32) as f64;
                        cyc += chunks * plan.arith_per_element() * costs::CYCLES_PER_ARITH;
                        sim.compute(cyc);
                        for input in &inputs {
                            let row = match input.ttype {
                                TensorType::SrcV => src as u64,
                                TensorType::Edge => eid as u64,
                                TensorType::DstV => continue, // loaded per vertex
                                TensorType::Null => unreachable!(),
                            };
                            self.warp_input(sim, input, row, tile_off, tile_len);
                        }
                        if out_is_edge {
                            self.warp_row(
                                sim, self.lay.c, eid as u64, tile_off, tile_len, true, None,
                            );
                        }
                    }
                    if !out_is_edge {
                        self.warp_row(sim, self.lay.c, v as u64, tile_off, tile_len, true, None);
                    }
                }
            }
            sim.end_block();
            block += self.stride;
        }
    }

    // -------------------------------------------------------------- warp-edge

    /// Warp-edge iterates the same order as thread-edge (CSR slots for
    /// reductions, COO for edge outputs) with lanes across the feature
    /// tile; same-destination runs accumulate in registers and flush one
    /// atomic per run.
    fn warp_edge(&self, sim: &mut KernelSim) {
        let plan = self.plan;
        let g = self.graph;
        let ne = g.num_edges();
        let grp = plan.parallel.grouping;
        let wpb = plan.threads_per_block / 32;
        let view = self.edge_view();
        let inputs = self.inputs();
        let out_is_edge = plan.op.c == TensorType::Edge;
        let needs_eid_load = view.csr && self.needs_eid();

        let mut block = 0;
        while block < plan.grid_blocks {
            sim.begin_block_scaled(block as u32, self.warp_scale(wpb));
            for w in self.traced_warps(wpb) {
                let item = block * wpb + w;
                if item >= plan.num_items {
                    break;
                }
                let (tile, gidx) = self.decode_item(item);
                let tile_off = self.tile_off(tile);
                let tile_len = self.tile_len(tile);
                let estart = (gidx * grp).min(ne);
                let eend = ((gidx + 1) * grp).min(ne);
                sim.compute(self.item_overhead());

                for e in estart..eend {
                    let src = view.src[e] as u64;
                    let dst = view.dst[e] as u64;
                    let eid = view.eid(e);
                    sim.load(Access::Broadcast {
                        addr: view.src_base(&self.lay) + e as u64 * 4,
                    });
                    sim.load(Access::Broadcast {
                        addr: view.dst_base(&self.lay) + e as u64 * 4,
                    });
                    if needs_eid_load {
                        sim.load(Access::Broadcast {
                            addr: self.lay.in_eid + e as u64 * 4,
                        });
                        sim.compute(costs::CYCLES_PER_MEM_ISSUE);
                    }
                    let chunks = tile_len.div_ceil(32) as f64;
                    sim.compute(
                        costs::CYCLES_LOOP
                            + 2.0 * costs::CYCLES_PER_MEM_ISSUE
                            + chunks * plan.arith_per_element() * costs::CYCLES_PER_ARITH,
                    );
                    for input in &inputs {
                        let row = match input.ttype {
                            TensorType::SrcV => src,
                            TensorType::DstV => dst,
                            TensorType::Edge => eid,
                            TensorType::Null => unreachable!(),
                        };
                        self.warp_input(sim, input, row, tile_off, tile_len);
                    }
                    if out_is_edge {
                        self.warp_row(sim, self.lay.c, eid, tile_off, tile_len, true, None);
                    } else {
                        // Flush the register accumulator at the end of a
                        // same-destination run.
                        let flush = e + 1 >= eend || view.dst[e + 1] as u64 != dst;
                        if flush {
                            let group = if plan.needs_atomic && tile == 0 {
                                Some(dst)
                            } else {
                                None
                            };
                            self.warp_row(
                                sim,
                                self.lay.c,
                                dst,
                                tile_off,
                                tile_len,
                                true,
                                Some(group),
                            );
                        }
                    }
                }
            }
            sim.end_block();
            block += self.stride;
        }
    }

    /// Emits the load of one input operand by a warp: a single broadcast
    /// for scalar operands, a coalesced tile sweep otherwise.
    fn warp_input(
        &self,
        sim: &mut KernelSim,
        input: &InputSpec,
        row: u64,
        tile_off: usize,
        tile_len: usize,
    ) {
        if input.scalar {
            sim.load(Access::Broadcast {
                addr: input.addr(&self.lay, row, tile_off),
            });
            sim.compute(costs::CYCLES_PER_MEM_ISSUE);
        } else {
            self.warp_row(sim, input.base, row, tile_off, tile_len, false, None);
        }
    }

    /// Emits a coalesced warp sweep over one feature-row tile. `atomic` is
    /// `Some(group)` for atomic updates (with an optional conflict group on
    /// the first chunk).
    #[allow(clippy::too_many_arguments)]
    fn warp_row(
        &self,
        sim: &mut KernelSim,
        base: u64,
        row: u64,
        tile_off: usize,
        tile_len: usize,
        is_store: bool,
        atomic: Option<Option<u64>>,
    ) {
        let mut off = 0usize;
        let mut first = true;
        while off < tile_len {
            let lanes = (tile_len - off).min(32) as u32;
            let access = Access::Coalesced {
                base: self.lay.row_addr(base, row, tile_off + off),
                lanes,
            };
            match atomic {
                Some(group) => {
                    let groups: Vec<u64> = if first {
                        group.into_iter().collect()
                    } else {
                        vec![]
                    };
                    sim.atomic(access, groups);
                    sim.compute(costs::CYCLES_PER_MEM_ISSUE + costs::CYCLES_ATOMIC_ISSUE);
                }
                None => {
                    if is_store {
                        sim.store(access);
                    } else {
                        sim.load(access);
                    }
                    sim.compute(costs::CYCLES_PER_MEM_ISSUE);
                }
            }
            off += 32;
            first = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::OpInfo;
    use crate::schedule::ParallelInfo;
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
        let g = uniform_random(4000, 40_000, 6);
        let plan = plan_for(
            &g,
            OpInfo::aggregation_sum(),
            ParallelInfo::basic(Strategy::ThreadEdge),
            16,
        );
        let full = measure(&g, &plan, &v100());
        let sampled = measure(
            &g,
            &plan,
            &MeasureOptions::new(DeviceConfig::v100()).with_fidelity(Fidelity::Sampled(7)),
        );
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
        let (s, w) = resolve_sampling(Fidelity::Sampled(8), 10_000, 8, 32.0, 80);
        assert_eq!(gcd(s, 80), 1);
        assert_eq!(w, 1);
        let (s, _) = resolve_sampling(Fidelity::Auto, 1_000_000, 8, 32.0, 80);
        assert!(s > 1);
        assert_eq!(gcd(s, 80), 1);
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
