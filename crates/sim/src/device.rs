//! GPU device parameters.

use crate::cache::Cache;
use crate::error::SimError;

/// Architectural parameters of a simulated GPU.
///
/// Presets are provided for the two GPUs of the paper's evaluation
/// (Table 8): [`DeviceConfig::v100`] and [`DeviceConfig::a100`]. The
/// parameters that drive the paper's cross-GPU observations are the SM
/// count (A100 has more SMs, so it "favors more parallelism", §7.3) and the
/// L2 capacity (A100's 40 MB vs V100's 6 MB shifts locality trade-offs).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, used in reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Warp instructions issued per SM per cycle (scheduler count).
    pub issue_width: f64,
    /// L1 data cache size per SM, in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// Device-wide L2 cache size, in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Memory transaction (sector) size in bytes.
    pub line_bytes: usize,
    /// Sustained DRAM bandwidth in GB/s.
    pub dram_bw_gbs: f64,
    /// Sustained L2 bandwidth in GB/s.
    pub l2_bw_gbs: f64,
    /// L1 hit latency in cycles.
    pub l1_latency: f64,
    /// L2 hit latency in cycles.
    pub l2_latency: f64,
    /// DRAM access latency in cycles.
    pub dram_latency: f64,
    /// Cycles for one serialized same-address atomic update at L2.
    pub atomic_serial_cycles: f64,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Register file size per SM (32-bit registers).
    pub registers_per_sm: usize,
    /// Memory-level parallelism per warp: outstanding transactions a warp
    /// can keep in flight, used by the latency-hiding model.
    pub mlp_per_warp: f64,
}

impl DeviceConfig {
    /// NVIDIA Tesla V100 (Volta, 80 SMs) — paper Table 8.
    pub fn v100() -> Self {
        Self {
            name: "V100".to_owned(),
            num_sms: 80,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            warp_size: 32,
            clock_ghz: 1.38,
            issue_width: 4.0,
            l1_bytes: 128 * 1024,
            l1_assoc: 4,
            l2_bytes: 6 * 1024 * 1024,
            l2_assoc: 16,
            line_bytes: 32,
            dram_bw_gbs: 900.0,
            l2_bw_gbs: 2_500.0,
            l1_latency: 28.0,
            l2_latency: 193.0,
            dram_latency: 400.0,
            atomic_serial_cycles: 12.0,
            launch_overhead_us: 3.0,
            registers_per_sm: 65_536,
            mlp_per_warp: 6.0,
        }
    }

    /// NVIDIA A100 (Ampere, 108 SMs) — paper Table 8.
    pub fn a100() -> Self {
        Self {
            name: "A100".to_owned(),
            num_sms: 108,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            warp_size: 32,
            clock_ghz: 1.41,
            issue_width: 4.0,
            l1_bytes: 192 * 1024,
            l1_assoc: 4,
            l2_bytes: 40 * 1024 * 1024,
            l2_assoc: 16,
            line_bytes: 32,
            dram_bw_gbs: 1_555.0,
            l2_bw_gbs: 4_000.0,
            l1_latency: 28.0,
            l2_latency: 200.0,
            dram_latency: 390.0,
            atomic_serial_cycles: 10.0,
            launch_overhead_us: 3.0,
            registers_per_sm: 65_536,
            mlp_per_warp: 6.0,
        }
    }

    /// Checks the configuration is inside the legal envelope: every
    /// structural parameter positive, cache associativities within what the
    /// cache model holds ([`Cache::MAX_ASSOC`]), `line_bytes` a whole number
    /// of 4-byte words (the coalescer's lanes touch word-aligned addresses),
    /// every rate finite and positive. `atomic_serial_cycles` and
    /// `launch_overhead_us` only add cost, so zero is a valid model for
    /// them (e.g. an ablation without atomic serialization); they must be
    /// finite and non-negative.
    /// Degenerate configs (zero SMs, zero clock) would otherwise surface as
    /// divisions by zero deep inside the timing model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidDevice`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let positive_usize: [(&str, usize); 8] = [
            ("num_sms", self.num_sms),
            ("max_warps_per_sm", self.max_warps_per_sm),
            ("max_blocks_per_sm", self.max_blocks_per_sm),
            ("warp_size", self.warp_size),
            ("l1_assoc", self.l1_assoc),
            ("l2_assoc", self.l2_assoc),
            ("line_bytes", self.line_bytes),
            ("registers_per_sm", self.registers_per_sm),
        ];
        for (field, v) in positive_usize {
            if v == 0 {
                return Err(SimError::InvalidDevice {
                    reason: format!("{field} must be positive"),
                });
            }
        }
        for (field, v) in [("l1_assoc", self.l1_assoc), ("l2_assoc", self.l2_assoc)] {
            if v > Cache::MAX_ASSOC {
                return Err(SimError::InvalidDevice {
                    reason: format!("{field} {v} exceeds the maximum of {}", Cache::MAX_ASSOC),
                });
            }
        }
        if !self.line_bytes.is_multiple_of(4) {
            return Err(SimError::InvalidDevice {
                reason: format!(
                    "line_bytes must be a multiple of 4, got {}",
                    self.line_bytes
                ),
            });
        }
        let positive_f64: [(&str, f64); 8] = [
            ("clock_ghz", self.clock_ghz),
            ("issue_width", self.issue_width),
            ("dram_bw_gbs", self.dram_bw_gbs),
            ("l2_bw_gbs", self.l2_bw_gbs),
            ("l1_latency", self.l1_latency),
            ("l2_latency", self.l2_latency),
            ("dram_latency", self.dram_latency),
            ("mlp_per_warp", self.mlp_per_warp),
        ];
        for (field, v) in positive_f64 {
            if !v.is_finite() || v <= 0.0 {
                return Err(SimError::InvalidDevice {
                    reason: format!("{field} must be finite and positive, got {v}"),
                });
            }
        }
        for (field, v) in [
            ("atomic_serial_cycles", self.atomic_serial_cycles),
            ("launch_overhead_us", self.launch_overhead_us),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(SimError::InvalidDevice {
                    reason: format!("{field} must be finite and non-negative, got {v}"),
                });
            }
        }
        Ok(())
    }

    /// DRAM bandwidth available to one SM, in bytes per cycle.
    pub fn dram_bytes_per_cycle_per_sm(&self) -> f64 {
        self.dram_bw_gbs * 1e9 / (self.clock_ghz * 1e9) / self.num_sms as f64
    }

    /// L2 bandwidth available to one SM, in bytes per cycle.
    pub fn l2_bytes_per_cycle_per_sm(&self) -> f64 {
        self.l2_bw_gbs * 1e9 / (self.clock_ghz * 1e9) / self.num_sms as f64
    }

    /// Converts a cycle count on the critical SM into milliseconds.
    pub fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_the_paper_says() {
        let v = DeviceConfig::v100();
        let a = DeviceConfig::a100();
        assert!(a.num_sms > v.num_sms, "A100 has more SMs (§7.3)");
        assert!(a.l2_bytes > v.l2_bytes, "A100 has a larger L2");
        assert!(a.dram_bw_gbs > v.dram_bw_gbs);
    }

    #[test]
    fn bandwidth_per_sm_is_consistent() {
        let v = DeviceConfig::v100();
        let total = v.dram_bytes_per_cycle_per_sm() * v.num_sms as f64 * v.clock_ghz * 1e9;
        assert!((total - v.dram_bw_gbs * 1e9).abs() / (v.dram_bw_gbs * 1e9) < 1e-9);
    }

    #[test]
    fn presets_validate() {
        DeviceConfig::v100().validate().unwrap();
        DeviceConfig::a100().validate().unwrap();
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut d = DeviceConfig::v100();
        d.num_sms = 0;
        assert!(d.validate().is_err());

        let mut d = DeviceConfig::v100();
        d.clock_ghz = 0.0;
        assert!(d.validate().is_err());

        let mut d = DeviceConfig::v100();
        d.dram_bw_gbs = f64::NAN;
        assert!(d.validate().is_err());

        let mut d = DeviceConfig::v100();
        d.launch_overhead_us = -1.0;
        assert!(d.validate().is_err());

        let mut d = DeviceConfig::v100();
        d.l2_assoc = Cache::MAX_ASSOC + 1;
        assert!(matches!(d.validate(), Err(SimError::InvalidDevice { .. })));
        d.l2_assoc = Cache::MAX_ASSOC;
        d.validate().unwrap();

        // Zero atomic serialization is a valid model; negative or NaN is not.
        let mut d = DeviceConfig::v100();
        d.atomic_serial_cycles = 0.0;
        d.validate().unwrap();
        d.atomic_serial_cycles = -1.0;
        assert!(d.validate().is_err());
        d.atomic_serial_cycles = f64::NAN;
        assert!(d.validate().is_err());

        // Lines hold whole 4-byte words.
        let mut d = DeviceConfig::v100();
        d.line_bytes = 30;
        assert!(matches!(d.validate(), Err(SimError::InvalidDevice { .. })));
        d.line_bytes = 36;
        d.validate().unwrap();
    }

    #[test]
    fn cycles_to_ms_round_trip() {
        let v = DeviceConfig::v100();
        let cycles = v.clock_ghz * 1e9; // one second worth
        assert!((v.cycles_to_ms(cycles) - 1000.0).abs() < 1e-6);
    }
}
