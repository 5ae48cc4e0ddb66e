//! Kernel simulation reports.

/// Metrics produced by simulating one kernel (or, after [`SimReport::merge`],
/// a sequence of kernels).
///
/// Field names follow the nvprof metrics the paper collects: achieved
/// occupancy, SM efficiency and L2 hit rate (paper Figs. 3 and 16).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated wall-clock time in milliseconds (including launch
    /// overhead).
    pub time_ms: f64,
    /// Number of kernel launches merged into this report.
    pub kernels: usize,
    /// Time-weighted achieved occupancy in `[0, 1]` (active warps per cycle
    /// over the maximum, on busy SMs).
    pub achieved_occupancy: f64,
    /// Theoretical occupancy from the launch configuration in `[0, 1]`.
    pub theoretical_occupancy: f64,
    /// Fraction of SM-time the SMs were busy, relative to the critical SM
    /// (load balance across SMs), in `[0, 1]`.
    pub sm_efficiency: f64,
    /// L1 hit rate in `[0, 1]`.
    pub l1_hit_rate: f64,
    /// L2 hit rate among L1 misses, in `[0, 1]`.
    pub l2_hit_rate: f64,
    /// Bytes transferred from DRAM.
    pub dram_bytes: f64,
    /// Total memory transactions that reached L2 (L1 misses + atomics).
    pub l2_transactions: f64,
    /// Total L1 transactions (all loads/stores).
    pub l1_transactions: f64,
    /// Total atomic update operations.
    pub atomic_ops: f64,
    /// Largest number of atomic updates serialized on a single address.
    pub max_atomic_conflict: f64,
    /// Total arithmetic warp-cycles.
    pub compute_cycles: f64,
}

impl SimReport {
    /// A zero report (identity element for [`SimReport::merge`]).
    pub fn empty() -> Self {
        Self {
            time_ms: 0.0,
            kernels: 0,
            achieved_occupancy: 0.0,
            theoretical_occupancy: 0.0,
            sm_efficiency: 0.0,
            l1_hit_rate: 0.0,
            l2_hit_rate: 0.0,
            dram_bytes: 0.0,
            l2_transactions: 0.0,
            l1_transactions: 0.0,
            atomic_ops: 0.0,
            max_atomic_conflict: 0.0,
            compute_cycles: 0.0,
        }
    }

    /// Sequential composition: times add; rate metrics are time-weighted;
    /// counters add.
    ///
    /// Rates are averaged only over *non-empty* operands (`kernels > 0`):
    /// an [`SimReport::empty`] side contributes nothing, so the identity
    /// law holds even for rates the empty report stores as zero (e.g.
    /// `theoretical_occupancy`). When both sides ran kernels but report
    /// zero time (degenerate zero-work launches), the weighting falls back
    /// to kernel counts instead of collapsing every rate to zero.
    pub fn merge(&self, other: &Self) -> Self {
        let t = self.time_ms + other.time_ms;
        let (ws, wo) = if self.kernels == 0 && other.kernels == 0 {
            (0.0, 0.0)
        } else if self.kernels == 0 {
            (0.0, 1.0)
        } else if other.kernels == 0 {
            (1.0, 0.0)
        } else if t > 0.0 {
            (self.time_ms / t, other.time_ms / t)
        } else {
            let k = (self.kernels + other.kernels) as f64;
            (self.kernels as f64 / k, other.kernels as f64 / k)
        };
        let w = |a: f64, b: f64| a * ws + b * wo;
        Self {
            time_ms: t,
            kernels: self.kernels + other.kernels,
            achieved_occupancy: w(self.achieved_occupancy, other.achieved_occupancy),
            theoretical_occupancy: w(self.theoretical_occupancy, other.theoretical_occupancy),
            sm_efficiency: w(self.sm_efficiency, other.sm_efficiency),
            l1_hit_rate: w(self.l1_hit_rate, other.l1_hit_rate),
            l2_hit_rate: w(self.l2_hit_rate, other.l2_hit_rate),
            dram_bytes: self.dram_bytes + other.dram_bytes,
            l2_transactions: self.l2_transactions + other.l2_transactions,
            l1_transactions: self.l1_transactions + other.l1_transactions,
            atomic_ops: self.atomic_ops + other.atomic_ops,
            max_atomic_conflict: self.max_atomic_conflict.max(other.max_atomic_conflict),
            compute_cycles: self.compute_cycles + other.compute_cycles,
        }
    }

    /// Every field's exact bits (`kernels` first, then the floats in
    /// declaration order), for bitwise comparison: unlike `==`, equal bits
    /// also tell `0.0` from `-0.0` and match a NaN with itself.
    pub fn bits(&self) -> [u64; 13] {
        [
            self.kernels as u64,
            self.time_ms.to_bits(),
            self.achieved_occupancy.to_bits(),
            self.theoretical_occupancy.to_bits(),
            self.sm_efficiency.to_bits(),
            self.l1_hit_rate.to_bits(),
            self.l2_hit_rate.to_bits(),
            self.dram_bytes.to_bits(),
            self.l2_transactions.to_bits(),
            self.l1_transactions.to_bits(),
            self.atomic_ops.to_bits(),
            self.max_atomic_conflict.to_bits(),
            self.compute_cycles.to_bits(),
        ]
    }

    /// Merges an iterator of reports.
    pub fn merge_all<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> Self {
        reports
            .into_iter()
            .fold(Self::empty(), |acc, r| acc.merge(r))
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} ms | occ {:.2} (theo {:.2}) | sm_eff {:.2} | L1 {:.2} L2 {:.2} | {:.1} KB DRAM | {} atomics (max chain {})",
            self.time_ms,
            self.achieved_occupancy,
            self.theoretical_occupancy,
            self.sm_efficiency,
            self.l1_hit_rate,
            self.l2_hit_rate,
            self.dram_bytes / 1024.0,
            self.atomic_ops as u64,
            self.max_atomic_conflict as u64,
        )
    }
}

impl Default for SimReport {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(time: f64, occ: f64) -> SimReport {
        SimReport {
            time_ms: time,
            kernels: 1,
            achieved_occupancy: occ,
            dram_bytes: 100.0,
            ..SimReport::empty()
        }
    }

    #[test]
    fn merge_adds_time_and_counters() {
        let a = sample(1.0, 0.5);
        let b = sample(3.0, 0.9);
        let m = a.merge(&b);
        assert_eq!(m.time_ms, 4.0);
        assert_eq!(m.kernels, 2);
        assert_eq!(m.dram_bytes, 200.0);
    }

    #[test]
    fn merge_time_weights_rates() {
        let a = sample(1.0, 0.5);
        let b = sample(3.0, 0.9);
        let m = a.merge(&b);
        assert!((m.achieved_occupancy - (0.5 * 1.0 + 0.9 * 3.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_identity() {
        let a = sample(2.0, 0.7);
        assert_eq!(SimReport::empty().merge(&a), a);
        assert_eq!(a.merge(&SimReport::empty()), a);
    }

    #[test]
    fn empty_is_identity_for_nonzero_rates() {
        // Regression: the empty report stores every rate as 0.0, but it has
        // run no kernels, so it must not drag rates toward zero — even
        // rates that are non-zero in the other operand and even when the
        // other operand reports zero time.
        let mut a = sample(0.0, 0.8);
        a.theoretical_occupancy = 0.9;
        a.sm_efficiency = 0.75;
        assert_eq!(SimReport::empty().merge(&a), a);
        assert_eq!(a.merge(&SimReport::empty()), a);
        let folded = SimReport::merge_all([&SimReport::empty(), &a, &SimReport::empty()]);
        assert_eq!(folded, a);
    }

    #[test]
    fn zero_time_reports_fall_back_to_kernel_count_weights() {
        let mut a = sample(0.0, 0.4);
        a.kernels = 1;
        let mut b = sample(0.0, 0.7);
        b.kernels = 2;
        let m = a.merge(&b);
        // (0.4 * 1 + 0.7 * 2) / 3
        assert!((m.achieved_occupancy - 0.6).abs() < 1e-12);
        assert_eq!(m.kernels, 3);
    }

    #[test]
    fn display_is_nonempty_and_mentions_time() {
        let r = sample(1.5, 0.5);
        let text = r.to_string();
        assert!(text.contains("1.5"));
        assert!(text.contains("ms"));
    }

    #[test]
    fn merge_all_folds() {
        let rs = vec![sample(1.0, 0.4), sample(1.0, 0.6), sample(2.0, 0.5)];
        let m = SimReport::merge_all(&rs);
        assert_eq!(m.time_ms, 4.0);
        assert_eq!(m.kernels, 3);
    }
}
