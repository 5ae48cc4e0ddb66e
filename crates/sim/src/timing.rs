//! Wave-based analytical timing model.
//!
//! Blocks are dispatched round-robin to SMs; each SM executes its blocks in
//! *waves* of up to `residency` concurrent blocks (the occupancy limit).
//! Each wave's duration is the maximum of five bottleneck terms:
//!
//! * **issue** — total arithmetic warp-cycles over the SM's issue width,
//! * **L1 throughput** — four 32 B sectors per cycle,
//! * **L2 bandwidth** — the SM's fair share of device L2 bandwidth,
//! * **DRAM bandwidth** — the SM's fair share of DRAM bandwidth,
//! * **exposed latency** — total miss latency divided by how many warps are
//!   resident to hide it (this is where low occupancy hurts, paper §4.1).
//!
//! The timing front-end receives a *pool* of traced blocks (all of them at
//! full fidelity, a sample otherwise) plus the real grid size; virtual
//! block `j` of the grid reuses `pool[j % pool_len]` and runs on SM
//! `j % num_sms`, so sampled runs preserve the full grid's wave structure
//! and SM balance.
//!
//! The model is in the spirit of analytical GPU models (Hong & Kim,
//! ISCA'09) rather than cycle-accurate simulation: it reproduces the
//! *orderings and crossovers* between scheduling strategies that the
//! paper's evaluation is about, at a cost low enough to sit inside a
//! grid-search tuner.

use crate::DeviceConfig;

/// L1 throughput: 32 B sectors an SM's L1 serves per cycle.
const L1_SECTORS_PER_CYCLE: f64 = 4.0;

/// Relative slack a [`LowerBound`] must clear before it rules a launch out.
/// The bound sums an SM's terms over all its blocks while [`time_kernel`]
/// sums them wave by wave, so the two can differ by floating-point rounding
/// (relative size near `1e-16` per addition); the slack absorbs that with
/// a wide margin, so a launch whose time equals the cutoff is never cut.
pub(crate) const CUTOFF_SLACK: f64 = 1e-9;

/// Per-block cost summary accumulated by the trace front-end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockCost {
    /// Arithmetic warp-cycles.
    pub compute: f64,
    /// Transactions that hit in L1.
    pub l1_hits: f64,
    /// Transactions that hit in L2.
    pub l2_hits: f64,
    /// Transactions served by DRAM.
    pub dram: f64,
    /// Atomic transactions (bypass L1; included in the L2/DRAM counts).
    pub atomics: f64,
}

impl BlockCost {
    /// All transactions that reached L1 (everything except atomics).
    pub fn l1_transactions(&self) -> f64 {
        self.l1_hits + self.l2_hits + self.dram - self.atomics
    }

    /// All transactions that reached L2.
    pub fn l2_transactions(&self) -> f64 {
        self.l2_hits + self.dram
    }

    fn accumulate(&mut self, other: &Self) {
        self.compute += other.compute;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.dram += other.dram;
        self.atomics += other.atomics;
    }
}

/// Result of timing one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingResult {
    /// Kernel duration in cycles (excluding launch overhead).
    pub cycles: f64,
    /// Time-weighted achieved occupancy on busy SMs, in `[0, 1]`.
    pub achieved_occupancy: f64,
    /// Fraction of `num_sms * critical_sm_time` that SMs were busy.
    pub sm_efficiency: f64,
}

/// Occupancy-limited number of concurrently resident blocks per SM.
pub fn residency(device: &DeviceConfig, threads_per_block: usize, regs_per_thread: usize) -> usize {
    let warps_per_block = threads_per_block.div_ceil(device.warp_size).max(1);
    let by_warps = device.max_warps_per_sm / warps_per_block;
    let by_regs = device.registers_per_sm / (regs_per_thread.max(1) * threads_per_block.max(1));
    by_warps.min(device.max_blocks_per_sm).min(by_regs).max(1)
}

/// Deals virtual block `j` onto a sampled pool of `len` traced blocks.
///
/// The multiplicative (Fibonacci) hash decorrelates the pool index from
/// the SM stride — plain `j % len` would pin each SM to a tiny subset of
/// the sample whenever `len` shares a factor with `num_sms`. The hash is
/// reduced to `0..len` with a 128-bit widening multiply that keeps the
/// *high* 64 bits: every bucket receives either `floor(2^64/len)` or
/// `ceil(2^64/len)` hash values, a relative imbalance below `len/2^64`.
/// The previous `(hash >> 23) % len` form first truncated the hash to 41
/// bits and then took a modulo, which over-represents the low residues by
/// up to `len/2^41` — a measurable skew toward the front of the pool for
/// the pool sizes the sampler actually uses.
fn spread(j: usize, len: usize) -> usize {
    let hash = (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (((hash as u128) * (len as u128)) >> 64) as usize
}

/// Computes kernel time and utilization metrics from the traced block pool.
///
/// `grid_blocks` is the real grid size; virtual block `j` runs on SM
/// `j % device.num_sms` and replays `pool[j]` directly when the pool
/// covers the grid, or a hash-dealt sample (`pool[spread(j, len)]`)
/// otherwise.
pub fn time_kernel(
    device: &DeviceConfig,
    pool: &[BlockCost],
    grid_blocks: usize,
    threads_per_block: usize,
    regs_per_thread: usize,
) -> TimingResult {
    if pool.is_empty() || grid_blocks == 0 {
        return TimingResult {
            cycles: 0.0,
            achieved_occupancy: 0.0,
            sm_efficiency: 0.0,
        };
    }
    let warps_per_block = threads_per_block.div_ceil(device.warp_size).max(1) as f64;
    let res = residency(device, threads_per_block, regs_per_thread);

    let l2_bpc = device.l2_bytes_per_cycle_per_sm();
    let dram_bpc = device.dram_bytes_per_cycle_per_sm();
    let line = device.line_bytes as f64;

    let mut active_warp_cycles = 0.0;
    let mut busy_time_total = 0.0;
    let mut critical = 0.0f64;

    // Full-fidelity pools map virtual block j to traced block j directly.
    // Sampled pools are dealt through a multiplicative hash so the pool
    // index never aliases with the SM stride (e.g. 80 SMs over a pool whose
    // length shares a factor with 80 would otherwise pin each SM to a tiny
    // subset of the sample).
    let full = pool.len() >= grid_blocks;
    let pick = |j: usize| -> usize {
        if full {
            j
        } else {
            spread(j, pool.len())
        }
    };

    // In sampled mode the per-SM wave sequence is statistically
    // stationary (blocks are hash-dealt from the pool), so simulating a
    // bounded number of waves and extrapolating the rest is accurate and
    // keeps timing O(SMs x MAX_WAVES) even for million-block grids.
    const MAX_WAVES: usize = 48;
    let cap_waves = !full;

    let mut standalone: Vec<f64> = Vec::with_capacity(res);
    for sm in 0..device.num_sms.min(grid_blocks) {
        let mut sm_time = 0.0;
        let mut sm_active = 0.0;
        let mut waves_done = 0usize;
        let blocks_of_sm = if grid_blocks > sm {
            (grid_blocks - sm - 1) / device.num_sms + 1
        } else {
            0
        };
        let waves_total = blocks_of_sm.div_ceil(res.max(1));
        // Virtual block ids owned by this SM: sm, sm + num_sms, ...
        let mut j = sm;
        while j < grid_blocks {
            if cap_waves && waves_done >= MAX_WAVES {
                break;
            }
            // One wave: up to `res` consecutive blocks of this SM.
            let mut agg = BlockCost::default();
            standalone.clear();
            let mut max_standalone = 0.0f64;
            let mut in_wave = 0usize;
            while in_wave < res && j < grid_blocks {
                let b = &pool[pick(j)];
                agg.accumulate(b);
                let latency = (b.l1_hits * device.l1_latency
                    + b.l2_hits * device.l2_latency
                    + b.dram * device.dram_latency)
                    / (warps_per_block * device.mlp_per_warp);
                let t = (b.compute / device.issue_width).max(latency);
                standalone.push(t);
                max_standalone = max_standalone.max(t);
                in_wave += 1;
                j += device.num_sms;
            }

            let issue = agg.compute / device.issue_width;
            let l1_thru = agg.l1_transactions() / L1_SECTORS_PER_CYCLE;
            let l2_bw = agg.l2_transactions() * line / l2_bpc;
            let dram_bw = agg.dram * line / dram_bpc;
            let wave_time = issue
                .max(l1_thru)
                .max(l2_bw)
                .max(dram_bw)
                .max(max_standalone);

            if wave_time > 0.0 {
                // When the wave is bandwidth-bound every block stretches
                // proportionally; the per-block active-time ratio is
                // preserved, exposing intra-wave imbalance as idle warps.
                if max_standalone > 0.0 {
                    let stretch = wave_time / max_standalone;
                    for t in &standalone {
                        sm_active += t * stretch * warps_per_block;
                    }
                } else {
                    sm_active += wave_time * warps_per_block * in_wave as f64;
                }
            }
            sm_time += wave_time;
            waves_done += 1;
        }
        if waves_done > 0 && waves_done < waves_total {
            // Extrapolate the remaining waves from the simulated average.
            let factor = waves_total as f64 / waves_done as f64;
            sm_time *= factor;
            sm_active *= factor;
        }
        active_warp_cycles += sm_active;
        busy_time_total += sm_time;
        critical = critical.max(sm_time);
    }

    let sm_efficiency = if critical > 0.0 {
        busy_time_total / (device.num_sms as f64 * critical)
    } else {
        0.0
    };
    let achieved_occupancy = if busy_time_total > 0.0 {
        (active_warp_cycles / (busy_time_total * device.max_warps_per_sm as f64)).min(1.0)
    } else {
        0.0
    };

    TimingResult {
        cycles: critical,
        achieved_occupancy,
        sm_efficiency,
    }
}

/// A running lower bound on the time [`time_kernel`] gives a full-fidelity
/// pool, fed one block at a time in pool order, that no cache state can
/// move.
///
/// Block `j` of a pool that covers the grid runs on SM `j % num_sms`, and
/// each of an SM's waves lasts at least its issue term (compute over the
/// issue width) and at least its L1 term (L1 transactions over four sectors
/// per cycle). Summed over the SM's waves, its time is at least the summed
/// issue term and at least the summed L1 term, and the kernel's cycles are
/// the largest SM time or the atomic chain, whichever is longer. Neither
/// term reads a cache: every non-atomic line a block touches counts once
/// as an L1 transaction whether it hits or misses. Blocks past the grid are
/// not timed and are skipped here too.
///
/// Sampled pools are not a plain sum per SM (their blocks are hash-dealt
/// and the waves past [`time_kernel`]'s cap are extrapolated), so the bound
/// holds only for a pool that ends up covering the grid.
#[derive(Debug, Clone)]
pub(crate) struct LowerBound {
    grid_blocks: usize,
    issue_width: f64,
    atomic_serial_cycles: f64,
    /// Blocks pushed so far.
    blocks: usize,
    /// Per SM: summed compute warp-cycles and L1 transactions.
    compute: Vec<f64>,
    l1: Vec<f64>,
    /// The largest per-SM issue or L1 term so far, in cycles.
    cycles: f64,
}

impl LowerBound {
    /// An empty bound for a grid of `grid_blocks` blocks on `device`.
    pub(crate) fn new(device: &DeviceConfig, grid_blocks: usize) -> Self {
        Self {
            grid_blocks,
            issue_width: device.issue_width,
            atomic_serial_cycles: device.atomic_serial_cycles,
            blocks: 0,
            compute: vec![0.0; device.num_sms],
            l1: vec![0.0; device.num_sms],
            cycles: 0.0,
        }
    }

    /// Adds the next block of the pool.
    pub(crate) fn push(&mut self, block: &BlockCost) {
        let j = self.blocks;
        self.blocks += 1;
        if j >= self.grid_blocks {
            return;
        }
        let sm = j % self.compute.len();
        self.compute[sm] += block.compute;
        self.l1[sm] += block.l1_transactions();
        self.cycles = self
            .cycles
            .max(self.compute[sm] / self.issue_width)
            .max(self.l1[sm] / L1_SECTORS_PER_CYCLE);
    }

    /// The bound in cycles, given the update count of the hottest atomic
    /// location so far (the dependency chain the kernel's time also covers).
    pub(crate) fn cycles(&self, max_conflict: f64) -> f64 {
        self.cycles.max(max_conflict * self.atomic_serial_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceConfig {
        DeviceConfig::v100()
    }

    fn compute_block(c: f64) -> BlockCost {
        BlockCost {
            compute: c,
            ..Default::default()
        }
    }

    #[test]
    fn spread_is_unbiased_across_pool_sizes() {
        // Chi-square-style uniformity check of the sampled-pool block
        // picker, over pool sizes with and without common factors with
        // powers of two (the old `(hash >> 23) % len` reduction skewed
        // toward low indices). Inputs are random virtual block ids drawn
        // from the deterministic workspace RNG, plus the sequential ids
        // the simulator actually feeds.
        let mut rng = ugrapher_util::rng::StdRng::seed_from_u64(0xC0FFEE);
        for len in [7usize, 8, 9, 16, 17, 80, 96] {
            let mut counts = vec![0u64; len];
            const DRAWS: usize = 200_000;
            for i in 0..DRAWS {
                // Half random ids, half the sequential stream.
                let j = if i % 2 == 0 {
                    (rng.next_u64() >> 16) as usize
                } else {
                    i
                };
                counts[spread(j, len)] += 1;
            }
            let expected = DRAWS as f64 / len as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| {
                    let d = c as f64 - expected;
                    d * d / expected
                })
                .sum();
            // Very generous acceptance: 3x the dof. A modulo-biased
            // reduction fails this by orders of magnitude at these draw
            // counts; a uniform one sits near `len - 1`.
            assert!(
                chi2 < 3.0 * len as f64,
                "pool len {len}: chi2 = {chi2:.1}, counts = {counts:?}"
            );
            assert!(
                counts.iter().all(|&c| c > 0),
                "pool len {len}: unused bucket"
            );
        }
    }

    #[test]
    fn spread_stays_in_bounds() {
        for len in 1..=32 {
            for j in 0..10_000 {
                assert!(spread(j, len) < len);
            }
        }
    }

    #[test]
    fn residency_limited_by_warps() {
        let d = dev();
        // 1024 threads = 32 warps -> at most 2 blocks of 32 warps in 64.
        assert_eq!(residency(&d, 1024, 32), 2);
        // 64 threads = 2 warps -> warp limit allows 32, block limit 32.
        assert_eq!(residency(&d, 64, 32), 32);
    }

    #[test]
    fn residency_limited_by_registers() {
        let d = dev();
        // 256 threads x 128 regs = 32768 regs -> 2 blocks fit in 65536.
        assert_eq!(residency(&d, 256, 128), 2);
    }

    #[test]
    fn single_block_grid_leaves_sms_idle() {
        let d = dev();
        let pool = vec![compute_block(1000.0)];
        let t = time_kernel(&d, &pool, 1, 256, 32);
        assert!(t.sm_efficiency < 0.05, "eff={}", t.sm_efficiency);

        // The same block on every SM: near-perfect efficiency.
        let t2 = time_kernel(&d, &pool, d.num_sms, 256, 32);
        assert!(t2.sm_efficiency > 0.99);
        assert!((t2.cycles - t.cycles).abs() < 1e-9);
    }

    #[test]
    fn more_parallelism_hides_latency() {
        let d = dev();
        // Same total DRAM latency, as 1 block vs 8 concurrent blocks per SM.
        let solo = vec![BlockCost {
            dram: 1000.0,
            ..Default::default()
        }];
        let t_solo = time_kernel(&d, &solo, d.num_sms, 64, 32);
        let split = vec![BlockCost {
            dram: 125.0,
            ..Default::default()
        }];
        let t_split = time_kernel(&d, &split, d.num_sms * 8, 64, 32);
        assert!(
            t_split.cycles < t_solo.cycles,
            "split {} !< solo {}",
            t_split.cycles,
            t_solo.cycles
        );
        assert!(t_split.achieved_occupancy > t_solo.achieved_occupancy);
    }

    #[test]
    fn bandwidth_bound_wave_scales_with_traffic() {
        let d = dev();
        let mk = |dram: f64| {
            let pool = vec![BlockCost {
                dram,
                ..Default::default()
            }];
            time_kernel(&d, &pool, d.num_sms * 8, 256, 32).cycles
        };
        let t1 = mk(10_000.0);
        let t2 = mk(20_000.0);
        assert!(t2 > t1 * 1.8, "t1={t1} t2={t2}");
    }

    #[test]
    fn sampled_pool_reproduces_full_grid_time() {
        let d = dev();
        // A homogeneous grid: timing a 1-block pool against the full pool
        // must agree exactly.
        let full: Vec<BlockCost> = (0..d.num_sms * 16).map(|_| compute_block(700.0)).collect();
        let sampled = vec![compute_block(700.0)];
        let t_full = time_kernel(&d, &full, full.len(), 256, 32);
        let t_sampled = time_kernel(&d, &sampled, full.len(), 256, 32);
        assert!((t_full.cycles - t_sampled.cycles).abs() < 1e-9);
        assert!((t_full.sm_efficiency - t_sampled.sm_efficiency).abs() < 1e-9);
    }

    #[test]
    fn replication_serializes_when_residency_is_one() {
        let d = dev();
        // 1024 threads x 64 regs -> residency 1: grid 4x => 4x the time.
        let pool = vec![compute_block(500.0)];
        let t1 = time_kernel(&d, &pool, d.num_sms, 1024, 64);
        let t4 = time_kernel(&d, &pool, 4 * d.num_sms, 1024, 64);
        assert!((t4.cycles - 4.0 * t1.cycles).abs() < 1e-9);
    }

    #[test]
    fn intra_wave_imbalance_lowers_occupancy() {
        let d = dev();
        // Waves of 8 blocks; one block does 10x the work of the others.
        let mut skew = vec![compute_block(10_000.0)];
        skew.extend((0..7).map(|_| compute_block(1_000.0)));
        let balanced: Vec<BlockCost> = (0..8).map(|_| compute_block(1_000.0)).collect();
        // 256-thread blocks -> residency 8, so each pool forms one wave
        // repeated across the grid.
        let grid = d.num_sms * 8;
        let t_skew = time_kernel(&d, &skew, grid, 256, 32);
        let t_bal = time_kernel(&d, &balanced, grid, 256, 32);
        assert!(
            t_skew.achieved_occupancy < t_bal.achieved_occupancy * 0.6,
            "skew occ {} vs bal occ {}",
            t_skew.achieved_occupancy,
            t_bal.achieved_occupancy
        );
    }

    #[test]
    fn empty_kernel_has_zero_time() {
        let d = dev();
        let t = time_kernel(&d, &[], 0, 256, 32);
        assert_eq!(t.cycles, 0.0);
        assert_eq!(t.sm_efficiency, 0.0);
    }
}
