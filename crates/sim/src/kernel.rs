//! Trace front-end: records per-block costs while streaming accesses
//! through the cache hierarchy.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::access::Access;
use crate::cache::Cache;
use crate::device::DeviceConfig;
use crate::report::SimReport;
use crate::timing::{self, BlockCost, LowerBound, CUTOFF_SLACK};
use crate::writeset::WriteLog;

/// Grid configuration of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchConfig {
    /// Total thread blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block (multiple of the warp size in practice).
    pub threads_per_block: usize,
    /// Estimated registers per thread (occupancy limiter).
    pub regs_per_thread: usize,
    /// Each traced block stands for this many identical blocks (sampled
    /// tracing; `1.0` = full fidelity).
    pub replication: f64,
}

impl LaunchConfig {
    /// A full-fidelity launch with 32 registers per thread.
    pub fn new(grid_blocks: usize, threads_per_block: usize) -> Self {
        Self {
            grid_blocks,
            threads_per_block,
            regs_per_thread: 32,
            replication: 1.0,
        }
    }

    /// Sets the per-thread register estimate.
    pub fn with_regs(mut self, regs_per_thread: usize) -> Self {
        self.regs_per_thread = regs_per_thread;
        self
    }

    /// Sets the sampling replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `replication < 1.0`.
    pub fn with_replication(mut self, replication: f64) -> Self {
        assert!(replication >= 1.0, "replication must be >= 1");
        self.replication = replication;
        self
    }
}

/// Simulates one kernel launch.
///
/// Usage protocol: [`KernelSim::begin_block`], then any number of
/// [`KernelSim::load`] / [`KernelSim::store`] / [`KernelSim::atomic`] /
/// [`KernelSim::compute`] calls, then [`KernelSim::end_block`]; finally
/// [`KernelSim::finish`].
///
/// A caller that only wants the kernel if it is faster than some time can
/// arm a cutoff ([`KernelSim::with_cutoff_ms`]) and stop tracing once
/// [`KernelSim::cannot_win`] says it is not.
///
/// The caches come from a one-slot per-thread reuse keyed by cache
/// geometry and go back to it, emptied, when the simulator is dropped
/// (also on unwind), so a measurement on a warm thread allocates no cache
/// state.
#[derive(Debug)]
pub struct KernelSim {
    device: DeviceConfig,
    launch: LaunchConfig,
    /// Always `Some` until [`Drop`] hands the caches back.
    caches: Option<Caches>,
    pool: Vec<BlockCost>,
    current: Option<(usize, BlockCost)>,
    conflicts: HashMap<u64, f64, BuildHasherDefault<ConflictHasher>>,
    line_buf: Vec<u64>,
    atomic_ops: f64,
    /// The largest entry of `conflicts`.
    max_conflict: f64,
    /// The armed cutoff in ms and the running bound checked against it.
    cutoff: Option<(f64, LowerBound)>,
    cold: ColdTracker,
    block_scale: f64,
    write_log: Option<WriteLog>,
}

/// The cache geometry a [`Caches`] was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheGeometry {
    num_sms: usize,
    l1_bytes: usize,
    l1_assoc: usize,
    l2_bytes: usize,
    l2_assoc: usize,
    line_bytes: usize,
}

impl CacheGeometry {
    fn of(d: &DeviceConfig) -> Self {
        Self {
            num_sms: d.num_sms,
            l1_bytes: d.l1_bytes,
            l1_assoc: d.l1_assoc,
            l2_bytes: d.l2_bytes,
            l2_assoc: d.l2_assoc,
            line_bytes: d.line_bytes,
        }
    }
}

/// One launch's cache hierarchy: an L1 per SM and the shared L2.
#[derive(Debug)]
struct Caches {
    geometry: CacheGeometry,
    l1: Vec<Cache>,
    l2: Cache,
}

thread_local! {
    /// The emptied caches of the last [`KernelSim`] dropped on this thread.
    static SPARE_CACHES: Cell<Option<Caches>> = const { Cell::new(None) };
}

impl Caches {
    /// Takes this thread's spare caches if they match `device`'s geometry,
    /// else builds new ones (a mismatched spare is freed).
    fn acquire(device: &DeviceConfig) -> Self {
        let geometry = CacheGeometry::of(device);
        match SPARE_CACHES.try_with(Cell::take).ok().flatten() {
            Some(spare) if spare.geometry == geometry => spare,
            _ => Self {
                geometry,
                l1: (0..device.num_sms)
                    .map(|_| Cache::new(device.l1_bytes, device.line_bytes, device.l1_assoc))
                    .collect(),
                l2: Cache::new(device.l2_bytes, device.line_bytes, device.l2_assoc),
            },
        }
    }

    /// Empties the caches and keeps them as this thread's spare.
    fn release(mut self) {
        for c in &mut self.l1 {
            c.reset();
        }
        self.l2.reset();
        // During thread teardown the slot may be gone; the caches are then
        // simply freed.
        let _ = SPARE_CACHES.try_with(|slot| slot.set(Some(self)));
    }
}

/// Fixed multiplicative hasher for the atomic conflict map.
///
/// Keys are conflict-group ids (destination vertex ids below `|V|` from the
/// trace walker), and the map's only reader is an order-independent max, so
/// SipHash's keyed randomness buys nothing here. A crafted graph can only
/// choose which ids below `|V|` occur, and a Fibonacci multiply spreads that
/// range almost evenly over the buckets, so about `|V| / buckets` keys at
/// most share one.
#[derive(Debug, Default, Clone, Copy)]
struct ConflictHasher(u64);

impl Hasher for ConflictHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward; rotate the well-mixed high bits into
        // the low bits the table indexes by.
        self.0.rotate_left(26)
    }
}

/// Growable bitmap over line ids, marking lines seen at L2.
///
/// Sampled tracing thins the access stream by the replication factor `w`,
/// which would inflate *cold* misses w-fold: the first touch of a line in
/// the traced stream misses, but the `w - 1` untraced replicas of that
/// access would have hit. [`KernelSim`] therefore charges a cold L2 miss as
/// `1/w` DRAM + `(w-1)/w` L2-hit, restoring the full-stream expectation.
#[derive(Debug, Default)]
struct ColdTracker {
    bits: Vec<u64>,
}

impl ColdTracker {
    /// Marks `line` as seen; returns `true` if this was the first touch.
    fn first_touch(&mut self, line: u64) -> bool {
        let idx = (line / 64) as usize;
        let bit = line % 64;
        if idx >= self.bits.len() {
            self.bits.resize(idx + 1, 0);
        }
        let seen = (self.bits[idx] >> bit) & 1 == 1;
        self.bits[idx] |= 1 << bit;
        !seen
    }
}

impl KernelSim {
    /// Creates a simulator for one kernel on the given device.
    pub fn new(device: &DeviceConfig, launch: LaunchConfig) -> Self {
        Self {
            device: device.clone(),
            launch,
            caches: Some(Caches::acquire(device)),
            pool: Vec::new(),
            current: None,
            conflicts: HashMap::default(),
            line_buf: Vec::with_capacity(64),
            atomic_ops: 0.0,
            max_conflict: 0.0,
            cutoff: None,
            cold: ColdTracker::default(),
            block_scale: 1.0,
            write_log: None,
        }
    }

    /// Turns on word-granular write logging (see [`WriteLog`]): every
    /// subsequent [`KernelSim::store`] / [`KernelSim::atomic`] is recorded,
    /// and [`KernelSim::finish_with_writes`] returns the log.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`](crate::SimError) if the launch
    /// uses sampled tracing (`replication > 1`): a thinned access stream
    /// under-counts writers, so the log would miss real conflicts.
    pub fn enable_write_log(&mut self) -> Result<(), crate::SimError> {
        if self.launch.replication > 1.0 {
            return Err(crate::SimError::InvalidConfig {
                reason: format!(
                    "write logging requires full-fidelity tracing \
                     (launch replication is {})",
                    self.launch.replication
                ),
            });
        }
        self.write_log = Some(WriteLog::new());
        Ok(())
    }

    /// Arms a cutoff: once a lower bound that no cache state can move
    /// proves that [`KernelSim::finish`] would report a `time_ms` above
    /// `cutoff_ms` (by more than a relative `1e-9`, which absorbs rounding),
    /// [`KernelSim::cannot_win`] turns `true`. The bound is checked at each
    /// [`KernelSim::end_block`], from the ended blocks' compute and L1
    /// transactions per SM and the hottest atomic location so far.
    ///
    /// The bound holds for a full-fidelity launch (`replication == 1`) that
    /// traces every block of its grid, ending them in block-id order. On a
    /// sampled launch, and for an infinite or NaN cutoff, this does
    /// nothing.
    pub fn with_cutoff_ms(mut self, cutoff_ms: f64) -> Self {
        if self.launch.replication == 1.0 && cutoff_ms < f64::INFINITY {
            let bound = LowerBound::new(&self.device, self.launch.grid_blocks);
            self.cutoff = Some((cutoff_ms, bound));
        }
        self
    }

    /// `true` once the armed cutoff is proven out of reach (see
    /// [`KernelSim::with_cutoff_ms`]); always `false` without one.
    pub fn cannot_win(&self) -> bool {
        self.lower_bound_ms()
            .zip(self.cutoff.as_ref())
            .is_some_and(|(bound_ms, &(cutoff_ms, _))| bound_ms > cutoff_ms * (1.0 + CUTOFF_SLACK))
    }

    /// The running lower bound on the launch's `time_ms` from the blocks
    /// ended so far, while a cutoff is armed; it only grows. A test hook for
    /// the bound's soundness, which [`KernelSim::cannot_win`] relies on.
    #[doc(hidden)]
    pub fn lower_bound_ms(&self) -> Option<f64> {
        let (_, bound) = self.cutoff.as_ref()?;
        Some(time_ms(&self.device, bound.cycles(self.max_conflict)))
    }

    /// Starts tracing block `block_id` (assigned round-robin to SMs, as the
    /// hardware work distributor does for uniform grids).
    ///
    /// # Panics
    ///
    /// Panics if a block is already open.
    pub fn begin_block(&mut self, block_id: u32) {
        self.begin_block_scaled(block_id, 1.0);
    }

    /// Starts tracing block `block_id` with intra-block sampling: only a
    /// `1/scale` fraction of the block's warps will be traced, and every
    /// recorded cost is multiplied by `scale` so the block's totals remain
    /// representative (used when single blocks are too large to trace in
    /// full).
    ///
    /// # Panics
    ///
    /// Panics if a block is already open or `scale < 1.0`.
    pub fn begin_block_scaled(&mut self, block_id: u32, scale: f64) {
        assert!(self.current.is_none(), "previous block not ended");
        assert!(scale >= 1.0, "block scale must be >= 1");
        let sm = block_id as usize % self.device.num_sms;
        self.block_scale = scale;
        self.current = Some((sm, BlockCost::default()));
    }

    /// Records a global-memory load by the current warp.
    pub fn load(&mut self, access: Access) {
        self.cached_access(access);
    }

    /// Records a non-atomic global-memory store (write-allocate, so it
    /// costs the same traffic as a load in this model).
    pub fn store(&mut self, access: Access) {
        if let Some(log) = self.write_log.as_mut() {
            log.record(&access, false);
        }
        self.cached_access(access);
    }

    /// Records an atomic read-modify-write. Atomics bypass L1 and execute
    /// at L2. `conflict_groups` identifies the logical locations being
    /// updated (e.g. one id per destination row); same-group updates across
    /// the whole kernel serialize on the hottest location.
    pub fn atomic(&mut self, access: Access, conflict_groups: impl IntoIterator<Item = u64>) {
        if let Some(log) = self.write_log.as_mut() {
            log.record(&access, true);
        }
        let scale = self.block_scale;
        let w = self.launch.replication * scale;
        let (_, cost) = self.current.as_mut().expect("atomic outside a block");
        let l2 = &mut self.caches.as_mut().expect("caches live until drop").l2;
        self.line_buf.clear();
        access.lines(&self.device, &mut self.line_buf);
        for &line in &self.line_buf {
            cost.atomics += scale;
            if l2.access_line(line, w) {
                cost.l2_hits += scale;
            } else if w > 1.0 && self.cold.first_touch(line) {
                cost.dram += scale / w;
                cost.l2_hits += scale * (w - 1.0) / w;
            } else {
                cost.dram += scale;
            }
        }
        for g in conflict_groups {
            self.atomic_ops += w;
            let count = self.conflicts.entry(g).or_insert(0.0);
            *count += w;
            self.max_conflict = self.max_conflict.max(*count);
        }
    }

    /// Adds arithmetic warp-cycles to the current block.
    ///
    /// # Panics
    ///
    /// Panics if called outside a `begin_block`/`end_block` pair.
    pub fn compute(&mut self, warp_cycles: f64) {
        let scale = self.block_scale;
        self.current
            .as_mut()
            .expect("compute outside a block")
            .1
            .compute += warp_cycles * scale;
    }

    /// Finishes the current block.
    ///
    /// # Panics
    ///
    /// Panics if no block is open.
    pub fn end_block(&mut self) {
        let (_sm, cost) = self.current.take().expect("no block open");
        if let Some((_, bound)) = &mut self.cutoff {
            bound.push(&cost);
        }
        self.pool.push(cost);
    }

    /// Produces the final report plus the write log, if
    /// [`KernelSim::enable_write_log`] was called.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open.
    pub fn finish_with_writes(mut self) -> (SimReport, Option<WriteLog>) {
        let log = self.write_log.take();
        (self.finish(), log)
    }

    /// Produces the final report.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open.
    pub fn finish(self) -> SimReport {
        assert!(self.current.is_none(), "block still open at finish");
        let d = &self.device;
        let timing = timing::time_kernel(
            d,
            &self.pool,
            self.launch.grid_blocks,
            self.launch.threads_per_block,
            self.launch.regs_per_thread,
        );

        // Atomic serialization: the hottest location's updates form a
        // dependency chain at the L2 atomic unit.
        let max_conflict = self.max_conflict;
        let atomic_chain = max_conflict * d.atomic_serial_cycles;
        let cycles = timing.cycles.max(atomic_chain);

        let w = self.launch.replication;
        let mut totals = BlockCost::default();
        let mut compute = 0.0;
        for b in &self.pool {
            totals = BlockCost {
                compute: totals.compute + b.compute,
                l1_hits: totals.l1_hits + b.l1_hits,
                l2_hits: totals.l2_hits + b.l2_hits,
                dram: totals.dram + b.dram,
                atomics: totals.atomics + b.atomics,
            };
            compute += b.compute;
        }

        let warps_per_block = self.launch.threads_per_block.div_ceil(d.warp_size).max(1);
        let res = timing::residency(
            d,
            self.launch.threads_per_block,
            self.launch.regs_per_thread,
        );
        let theoretical = ((res * warps_per_block) as f64 / d.max_warps_per_sm as f64).min(1.0);

        let l1_total = totals.l1_transactions() * w;
        let l2_total = totals.l2_transactions() * w;
        let l1_hit_rate = if l1_total > 0.0 {
            totals.l1_hits * w / l1_total
        } else {
            0.0
        };
        let l2_hit_rate = if l2_total > 0.0 {
            totals.l2_hits * w / l2_total
        } else {
            0.0
        };

        SimReport {
            time_ms: time_ms(d, cycles),
            kernels: 1,
            achieved_occupancy: timing.achieved_occupancy,
            theoretical_occupancy: theoretical,
            sm_efficiency: timing.sm_efficiency,
            l1_hit_rate,
            l2_hit_rate,
            dram_bytes: totals.dram * w * d.line_bytes as f64,
            l2_transactions: l2_total,
            l1_transactions: l1_total,
            atomic_ops: self.atomic_ops,
            max_atomic_conflict: max_conflict,
            compute_cycles: compute * w,
        }
    }

    fn cached_access(&mut self, access: Access) {
        let scale = self.block_scale;
        let w = self.launch.replication * scale;
        let (sm, cost) = self
            .current
            .as_mut()
            .expect("memory access outside a block");
        let Caches { l1, l2, .. } = self.caches.as_mut().expect("caches live until drop");
        let l1 = &mut l1[*sm];
        self.line_buf.clear();
        access.lines(&self.device, &mut self.line_buf);
        for &line in &self.line_buf {
            if l1.access_line(line, w) {
                cost.l1_hits += scale;
            } else if l2.access_line(line, w) {
                cost.l2_hits += scale;
            } else if w > 1.0 && self.cold.first_touch(line) {
                cost.dram += scale / w;
                cost.l2_hits += scale * (w - 1.0) / w;
            } else {
                cost.dram += scale;
            }
        }
    }
}

/// A launch's time in ms from its cycles, launch overhead included.
fn time_ms(d: &DeviceConfig, cycles: f64) -> f64 {
    d.cycles_to_ms(cycles) + d.launch_overhead_us * 1e-3
}

impl Drop for KernelSim {
    fn drop(&mut self) {
        if let Some(caches) = self.caches.take() {
            caches.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_blocks(n: u32, f: impl Fn(&mut KernelSim, u32)) -> SimReport {
        let d = DeviceConfig::v100();
        let mut sim = KernelSim::new(&d, LaunchConfig::new(n as usize, 256));
        for b in 0..n {
            sim.begin_block(b);
            f(&mut sim, b);
            sim.end_block();
        }
        sim.finish()
    }

    #[test]
    fn repeated_loads_hit_l1() {
        let r = run_blocks(1, |sim, _| {
            for _ in 0..10 {
                sim.load(Access {
                    bases: &[0],
                    bytes: 128,
                });
            }
        });
        assert!(r.l1_hit_rate > 0.85, "l1 hit rate {}", r.l1_hit_rate);
    }

    #[test]
    fn distinct_streams_miss() {
        let r = run_blocks(1, |sim, _| {
            for i in 0..10_000u64 {
                sim.load(Access {
                    bases: &[i * 128],
                    bytes: 128,
                });
            }
        });
        assert!(r.l1_hit_rate < 0.05);
        assert!(r.dram_bytes > 0.0);
    }

    #[test]
    fn shared_l2_caches_across_blocks() {
        // Two blocks on different SMs read the same data: the second one
        // should hit in L2 even though its L1 is cold.
        let r = run_blocks(2, |sim, _| {
            for i in 0..100u64 {
                sim.load(Access {
                    bases: &[i * 128],
                    bytes: 128,
                });
            }
        });
        assert!(r.l2_hit_rate > 0.45, "l2 hit rate {}", r.l2_hit_rate);
    }

    #[test]
    fn atomics_bypass_l1_and_track_conflicts() {
        let r = run_blocks(4, |sim, _| {
            for _ in 0..25 {
                sim.atomic(
                    Access {
                        bases: &[64],
                        bytes: 4,
                    },
                    [7u64],
                );
            }
        });
        assert_eq!(r.atomic_ops, 100.0);
        assert_eq!(r.max_atomic_conflict, 100.0);
    }

    #[test]
    fn hot_atomic_serialization_dominates_time() {
        let light = run_blocks(4, |sim, _| {
            sim.atomic(
                Access {
                    bases: &[64],
                    bytes: 4,
                },
                [7u64],
            );
            sim.compute(1.0);
        });
        let heavy = run_blocks(4, |sim, _| {
            for _ in 0..100_000 {
                sim.atomic(
                    Access {
                        bases: &[64],
                        bytes: 4,
                    },
                    [7u64],
                );
            }
        });
        assert!(heavy.time_ms > light.time_ms * 10.0);
    }

    #[test]
    fn replicated_cold_misses_are_amortized() {
        let d = DeviceConfig::v100();
        let mut sim = KernelSim::new(&d, LaunchConfig::new(8, 256).with_replication(8.0));
        sim.begin_block(0);
        sim.load(Access {
            bases: &[0],
            bytes: 128,
        });
        sim.end_block();
        let r = sim.finish();
        // The 8 replicas of this block together fetch each of the 4 sectors
        // from DRAM exactly once; the other 7 touches hit in L2.
        assert_eq!(r.dram_bytes, 4.0 * 32.0);
        assert!((r.l2_hit_rate - 7.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn replicated_capacity_misses_are_not_amortized() {
        let d = DeviceConfig::v100();
        // Stream far more than the 6 MB L2 twice: the second pass re-misses
        // (capacity), and those misses must scale with replication.
        let lines = 2 * d.l2_bytes as u64 / d.line_bytes as u64;
        let mut sim = KernelSim::new(&d, LaunchConfig::new(8, 256).with_replication(4.0));
        sim.begin_block(0);
        for pass in 0..2 {
            let _ = pass;
            for i in 0..lines {
                sim.load(Access {
                    bases: &[i * d.line_bytes as u64],
                    bytes: 4,
                });
            }
        }
        sim.end_block();
        let r = sim.finish();
        // First pass: cold, amortized to `lines` real fills. Second pass:
        // capacity misses, charged fully (x4 replication).
        let expected = (lines as f64) * d.line_bytes as f64 * (1.0 + 4.0);
        let tolerance = expected * 0.05;
        assert!(
            (r.dram_bytes - expected).abs() < tolerance,
            "dram {} vs expected {}",
            r.dram_bytes,
            expected
        );
    }

    #[test]
    fn theoretical_occupancy_reflects_block_size() {
        let d = DeviceConfig::v100();
        // 1024-thread blocks with 64 regs/thread: register-limited.
        let sim = KernelSim::new(&d, LaunchConfig::new(1, 1024).with_regs(64));
        let r = sim.finish();
        assert!(r.theoretical_occupancy <= 0.5);
    }

    #[test]
    #[should_panic(expected = "previous block not ended")]
    fn double_begin_panics() {
        let d = DeviceConfig::v100();
        let mut sim = KernelSim::new(&d, LaunchConfig::new(2, 256));
        sim.begin_block(0);
        sim.begin_block(1);
    }

    #[test]
    fn more_blocks_increase_sm_efficiency() {
        let few = run_blocks(4, |sim, _| {
            for i in 0..1000u64 {
                sim.load(Access {
                    bases: &[i * 128],
                    bytes: 128,
                });
            }
            sim.compute(1000.0);
        });
        let many = run_blocks(800, |sim, b| {
            for i in 0..100u64 {
                sim.load(Access {
                    bases: &[(b as u64 * 100 + i) * 128],
                    bytes: 128,
                });
            }
            sim.compute(100.0);
        });
        assert!(
            many.sm_efficiency > few.sm_efficiency * 2.0,
            "many {} vs few {}",
            many.sm_efficiency,
            few.sm_efficiency
        );
    }
}
