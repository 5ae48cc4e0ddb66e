//! Bit-identity proof for the simulator: a digest over every `SimReport`
//! field (and over `collect_writes` write logs) for a fixed matrix of
//! graphs × schedules × operators × devices × fidelities, plus a check that
//! the per-thread cache reuse never leaks state between measurements.
//!
//! The simulator is deterministic, so a host-side speed change to the trace
//! walkers or the cache/timing model must leave these digests unchanged.
//! The constants were recorded before the flat cache layout replaced the
//! per-set `Vec` model; a mismatch means a change moved simulated results,
//! and must be justified (and the constants re-recorded) in its own change.
//! The `WALKER_*` constants cover the trace walkers' per-strategy corners
//! (grouped, tiled, ragged and multi-chunk rows, scalar and destination
//! operands, edge outputs, max gathers) and were recorded on the four
//! per-strategy trace walkers.
//!
//! The `REGISTRY_*` constants cover every registry operator under every
//! strategy and grouping/tiling knob: one digest of all `SimReport`s at
//! Full fidelity, one at Auto, and one of the emitted CUDA source (with
//! scalar-B variants). They are slow, so they are `#[ignore]`d and run by
//! `scripts/ci.sh` with `--ignored` in a release build.

use ugrapher_core::abstraction::{registry, EdgeOp, GatherOp, OpInfo, TensorType};
use ugrapher_core::codegen_cuda::emit_cuda;
use ugrapher_core::exec::{collect_writes, measure, Fidelity, MeasureOptions};
use ugrapher_core::plan::KernelPlan;
use ugrapher_core::schedule::{ParallelInfo, Strategy};
use ugrapher_graph::generate::{DegreeModel, GraphSpec};
use ugrapher_graph::Graph;
use ugrapher_sim::{
    Access, DeviceConfig, Fault, FaultInjector, KernelSim, LaunchConfig, SimReport,
};

const FEAT: usize = 32;

/// Digest of every report in [`report_matrix`], in order.
const REPORT_DIGEST: u64 = 0xf74c_35c5_a574_9c67;
/// Digest of every write log in [`write_matrix`], in order.
const WRITES_DIGEST: u64 = 0x44f9_fb7a_c6e5_2d42;

/// Digest of every report in [`walker_report_matrix`], in order.
const WALKER_REPORT_DIGEST: u64 = 0xd9f3_e2b6_e82e_cf8d;
/// Digest of every write log in [`walker_write_matrix`], in order.
const WALKER_WRITES_DIGEST: u64 = 0xee51_0e03_ba65_48ae;

/// Digest of every Full-fidelity report in [`registry_report_matrix`].
const REGISTRY_FULL_DIGEST: u64 = 0xcfc3_042f_ad88_376f;
/// Digest of every Auto-fidelity report in [`registry_report_matrix`].
const REGISTRY_AUTO_DIGEST: u64 = 0x91f5_fae3_3009_d140;
/// Digest of every kernel source in [`registry_cuda_matrix`].
const REGISTRY_CUDA_DIGEST: u64 = 0x336c_2a57_cbe8_559f;

/// 64-bit FNV-1a, fed one `u64` at a time (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, r: &SimReport) {
        for w in r.bits() {
            self.word(w);
        }
    }

    fn writes(&mut self, g: &Graph, plan: &KernelPlan, device: &DeviceConfig) {
        let log = collect_writes(g, plan, device).expect("V100 is a valid device");
        self.word(log.num_addresses() as u64);
        self.word(log.total_writes());
        for (addr, w) in log.contended_addresses() {
            self.word(addr);
            self.word(u64::from(w.total) << 32 | u64::from(w.atomic));
        }
    }
}

fn spec(nv: usize, ne: usize, degree_model: DegreeModel, locality: f64, seed: u64) -> Graph {
    GraphSpec {
        num_vertices: nv,
        num_edges: ne,
        degree_model,
        locality,
        seed,
    }
    .build()
}

/// Seeded graphs: skewed, power-law hub, large enough for `Auto` to sample,
/// edgeless, and a single vertex carrying self-loops.
fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "skewed",
            spec(300, 1200, DegreeModel::TargetStd { std: 4.0 }, 0.5, 7),
        ),
        (
            "hub",
            spec(400, 2400, DegreeModel::PowerLaw { alpha: 2.0 }, 0.2, 11),
        ),
        ("large", spec(3000, 30000, DegreeModel::NearRegular, 0.8, 3)),
        ("edgeless", spec(64, 0, DegreeModel::NearRegular, 0.0, 1)),
        ("single", spec(1, 3, DegreeModel::NearRegular, 0.0, 5)),
    ]
}

/// The four basic strategies plus one grouped and one tiled variant.
fn schedules() -> Vec<ParallelInfo> {
    let mut s = ParallelInfo::basics();
    s.push(ParallelInfo::new(Strategy::WarpEdge, 8, 1));
    s.push(ParallelInfo::new(Strategy::ThreadVertex, 1, 4));
    s
}

/// Aggregation, message creation, and a scalar edge-weight operand.
fn ops() -> Vec<(OpInfo, (bool, bool))> {
    vec![
        (OpInfo::aggregation_sum(), (false, false)),
        (OpInfo::message_creation_add(), (false, false)),
        (OpInfo::weighted_aggregation_sum(), (false, true)),
    ]
}

fn plan(g: &Graph, op: OpInfo, scalars: (bool, bool), p: ParallelInfo) -> KernelPlan {
    KernelPlan::generate(op, p, g.num_vertices(), g.num_edges(), FEAT)
        .expect("matrix schedules are legal")
        .with_scalar_operands(scalars.0, scalars.1)
}

fn report_matrix() -> u64 {
    let mut h = Fnv::new();
    for device in [DeviceConfig::v100(), DeviceConfig::a100()] {
        for fidelity in [Fidelity::Full, Fidelity::Auto] {
            let options = MeasureOptions::new(device.clone()).with_fidelity(fidelity);
            for (_, g) in graphs() {
                for (op, scalars) in ops() {
                    for p in schedules() {
                        h.report(&measure(&g, &plan(&g, op, scalars, p), &options));
                    }
                }
            }
        }
    }
    h.0
}

fn write_matrix() -> u64 {
    let mut h = Fnv::new();
    let device = DeviceConfig::v100();
    for (name, g) in graphs() {
        if !matches!(name, "skewed" | "hub" | "single") {
            continue;
        }
        for (op, scalars) in &ops()[..2] {
            for p in schedules() {
                h.writes(&g, &plan(&g, *op, *scalars, p), &device);
            }
        }
    }
    h.0
}

/// Feature width of the walker matrix: wider than one warp, so warp
/// strategies sweep a row in several coalesced chunks.
const WALKER_FEAT: usize = 80;

/// Schedules that reach the trace walker's per-strategy corners:
/// same-destination flush runs (thread-edge G16), multi-vertex lanes
/// (thread-vertex G4), grouped and tiled warp items (warp-vertex G2/T2),
/// atomics off tile 0 that carry no conflict group (warp-edge T2), and
/// ragged tilings (80 features in tiles of 27, 27 and 26).
fn walker_schedules() -> Vec<ParallelInfo> {
    vec![
        ParallelInfo::new(Strategy::ThreadEdge, 16, 1),
        ParallelInfo::new(Strategy::ThreadVertex, 4, 1),
        ParallelInfo::new(Strategy::WarpVertex, 2, 2),
        ParallelInfo::new(Strategy::WarpEdge, 1, 2),
        ParallelInfo::new(Strategy::ThreadVertex, 2, 3),
        ParallelInfo::new(Strategy::WarpEdge, 4, 3),
    ]
}

/// Operand mixes of the walker matrix: a scalar-A operand, a destination
/// operand read alongside a source one (into a vertex and into an edge
/// output), an edge operand, a pure source copy and a max gather.
fn walker_ops() -> Vec<(OpInfo, (bool, bool))> {
    let src_dst_sum = OpInfo::new(
        EdgeOp::Add,
        GatherOp::Sum,
        TensorType::SrcV,
        TensorType::DstV,
        TensorType::DstV,
    )
    .expect("SrcV + DstV -> DstV sum is a legal operator");
    vec![
        (OpInfo::aggregation_sum(), (false, false)),
        (OpInfo::weighted_aggregation_sum(), (true, false)),
        (src_dst_sum, (false, false)),
        (OpInfo::message_creation_add(), (false, false)),
        (OpInfo::edge_aggregation_sum(), (false, false)),
        (OpInfo::message_creation_copy_src(), (false, false)),
        (OpInfo::aggregation_max(), (false, false)),
    ]
}

fn walker_plan(g: &Graph, op: OpInfo, scalars: (bool, bool), p: ParallelInfo) -> KernelPlan {
    KernelPlan::generate(op, p, g.num_vertices(), g.num_edges(), WALKER_FEAT)
        .expect("walker schedules are legal")
        .with_scalar_operands(scalars.0, scalars.1)
}

fn walker_graphs() -> Vec<Graph> {
    graphs()
        .into_iter()
        .filter(|(name, _)| matches!(*name, "skewed" | "hub" | "single"))
        .map(|(_, g)| g)
        .collect()
}

fn walker_report_matrix() -> u64 {
    let mut h = Fnv::new();
    for fidelity in [Fidelity::Full, Fidelity::Auto] {
        let options = MeasureOptions::new(DeviceConfig::v100()).with_fidelity(fidelity);
        for g in walker_graphs() {
            for (op, scalars) in walker_ops() {
                for p in walker_schedules() {
                    h.report(&measure(&g, &walker_plan(&g, op, scalars, p), &options));
                }
            }
        }
    }
    h.0
}

fn walker_write_matrix() -> u64 {
    let mut h = Fnv::new();
    let device = DeviceConfig::v100();
    for g in walker_graphs() {
        for (op, scalars) in walker_ops() {
            for p in walker_schedules() {
                h.writes(&g, &walker_plan(&g, op, scalars, p), &device);
            }
        }
    }
    h.0
}

/// Every registry operator × strategy × grouping {1, 4, 64} × tiling
/// {1, 2, 8}, planned at feature width 36 on one power-law graph: 7560
/// kernels, in that loop order.
fn registry_plans() -> (Graph, Vec<KernelPlan>) {
    let g = spec(400, 3000, DegreeModel::PowerLaw { alpha: 2.0 }, 0.3, 19);
    let mut plans = Vec::new();
    for op in registry::all_valid_ops() {
        for strategy in Strategy::ALL {
            for grouping in [1, 4, 64] {
                for tiling in [1, 2, 8] {
                    let p = ParallelInfo::new(strategy, grouping, tiling);
                    plans.push(
                        KernelPlan::generate(op, p, g.num_vertices(), g.num_edges(), 36)
                            .expect("registry schedules are legal"),
                    );
                }
            }
        }
    }
    (g, plans)
}

fn registry_report_matrix(fidelity: Fidelity) -> u64 {
    let (g, plans) = registry_plans();
    let options = MeasureOptions::new(DeviceConfig::v100()).with_fidelity(fidelity);
    let mut h = Fnv::new();
    for plan in &plans {
        h.report(&measure(&g, plan, &options));
    }
    h.0
}

/// The emitted source of every registry plan, followed (for operators with
/// a B operand) by the same plan with B as a scalar broadcast.
fn registry_cuda_matrix() -> u64 {
    let (_, plans) = registry_plans();
    let mut h = Fnv::new();
    let mut emit = |plan: &KernelPlan| {
        h.bytes(emit_cuda(plan).expect("registry plans emit").as_bytes());
    };
    for plan in plans {
        emit(&plan);
        if plan.op.b != TensorType::Null {
            emit(&plan.with_scalar_operands(false, true));
        }
    }
    h.0
}

#[test]
#[ignore = "slow: 7560 full-fidelity measurements; run in release with --ignored"]
fn registry_full_reports_are_bit_identical_to_recorded_digest() {
    let got = registry_report_matrix(Fidelity::Full);
    assert_eq!(
        got, REGISTRY_FULL_DIGEST,
        "registry Full digest moved: got {got:#018x}, recorded {REGISTRY_FULL_DIGEST:#018x}"
    );
}

#[test]
#[ignore = "slow: 7560 auto-fidelity measurements; run in release with --ignored"]
fn registry_auto_reports_are_bit_identical_to_recorded_digest() {
    let got = registry_report_matrix(Fidelity::Auto);
    assert_eq!(
        got, REGISTRY_AUTO_DIGEST,
        "registry Auto digest moved: got {got:#018x}, recorded {REGISTRY_AUTO_DIGEST:#018x}"
    );
}

#[test]
#[ignore = "registry-wide; run in release with --ignored"]
fn registry_cuda_is_identical_to_recorded_digest() {
    let got = registry_cuda_matrix();
    assert_eq!(
        got, REGISTRY_CUDA_DIGEST,
        "emitted CUDA digest moved: got {got:#018x}, recorded {REGISTRY_CUDA_DIGEST:#018x}"
    );
}

#[test]
fn sim_reports_are_bit_identical_to_recorded_digest() {
    let got = report_matrix();
    assert_eq!(
        got, REPORT_DIGEST,
        "SimReport digest moved: got {got:#018x}, recorded {REPORT_DIGEST:#018x}"
    );
}

#[test]
fn write_logs_are_identical_to_recorded_digest() {
    let got = write_matrix();
    assert_eq!(
        got, WRITES_DIGEST,
        "write-log digest moved: got {got:#018x}, recorded {WRITES_DIGEST:#018x}"
    );
}

#[test]
fn walker_reports_are_bit_identical_to_recorded_digest() {
    let got = walker_report_matrix();
    assert_eq!(
        got, WALKER_REPORT_DIGEST,
        "walker SimReport digest moved: got {got:#018x}, recorded {WALKER_REPORT_DIGEST:#018x}"
    );
}

#[test]
fn walker_write_logs_are_identical_to_recorded_digest() {
    let got = walker_write_matrix();
    assert_eq!(
        got, WALKER_WRITES_DIGEST,
        "walker write-log digest moved: got {got:#018x}, recorded {WALKER_WRITES_DIGEST:#018x}"
    );
}

/// Interleaves measurements across cache geometries (V100, A100, and
/// fault-injected devices) on one thread, with a simulator that panics
/// mid-stream in between; each report must equal the same measurement on a
/// fresh thread, where no reused cache state exists.
#[test]
fn reused_caches_match_fresh_threads() {
    let v100 = DeviceConfig::v100();
    let a100 = DeviceConfig::a100();
    let devices = [
        v100.clone(),
        a100.clone(),
        FaultInjector::new()
            .with(Fault::ZeroCaches)
            .device(&v100)
            .expect("zeroed caches still validate"),
        FaultInjector::new()
            .with(Fault::PerturbDevice { factor: 0.5 })
            .device(&a100)
            .expect("a mild perturbation validates"),
    ];
    let graphs: Vec<_> = graphs()
        .into_iter()
        .filter(|(name, _)| matches!(*name, "skewed" | "hub" | "single"))
        .collect();
    let schedules = [
        ParallelInfo::basic(Strategy::WarpEdge),
        ParallelInfo::new(Strategy::ThreadVertex, 1, 4),
    ];
    let mut cases = Vec::new();
    for (gi, (_, g)) in graphs.iter().enumerate() {
        for (di, device) in devices.iter().enumerate() {
            for (si, &p) in schedules.iter().enumerate() {
                let fidelity = if (gi + di + si) % 2 == 0 {
                    Fidelity::Full
                } else {
                    Fidelity::Auto
                };
                let options = MeasureOptions::new(device.clone()).with_fidelity(fidelity);
                cases.push((
                    gi,
                    plan(g, OpInfo::aggregation_sum(), (false, false), p),
                    options,
                ));
            }
        }
    }

    // The panicking simulator runs right before a V100 measurement, so
    // caches it left dirty would be reused by that measurement.
    let panic_before = (cases.len() / 2..cases.len())
        .find(|&i| cases[i].2.device == v100)
        .expect("the second half measures on V100");
    let reused: Vec<SimReport> = std::thread::scope(|s| {
        s.spawn(|| {
            let mut out = Vec::new();
            for (i, (gi, plan, options)) in cases.iter().enumerate() {
                if i == panic_before {
                    // Fill some V100 caches, then break the protocol.
                    let panicked = std::panic::catch_unwind(|| {
                        let mut sim = KernelSim::new(&v100, LaunchConfig::new(4, 256));
                        sim.begin_block(0);
                        for i in 0..4096u64 {
                            sim.load(Access {
                                bases: &[i * 128],
                                bytes: 128,
                            });
                        }
                        sim.end_block();
                        sim.load(Access {
                            bases: &[0],
                            bytes: 4,
                        });
                    });
                    assert!(panicked.is_err(), "a load outside a block must panic");
                }
                out.push(measure(&graphs[*gi].1, plan, options));
            }
            out
        })
        .join()
        .expect("reuse thread completes")
    });

    for (i, (gi, plan, options)) in cases.iter().enumerate() {
        let fresh = std::thread::scope(|s| {
            s.spawn(|| measure(&graphs[*gi].1, plan, options))
                .join()
                .expect("fresh thread completes")
        });
        assert_eq!(
            reused[i], fresh,
            "case {i}: {} on {} diverged under reuse",
            plan.parallel, options.device.name
        );
    }
}
