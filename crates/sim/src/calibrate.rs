//! Simulator self-calibration microbenchmarks.
//!
//! A trace-driven model is only credible if its primitive rates come out
//! where the datasheet says they should. This module runs synthetic
//! microkernels — a streaming copy, a cache-resident sweep, a latency
//! pointer-chase and an atomic hammer — through the full simulator stack
//! and reports the *achieved* bandwidth/latency/throughput next to the
//! device configuration's nominal values. The `check` tests assert the
//! relative error stays within tolerance, so cost-model regressions are
//! caught in CI.

use crate::{Access, DeviceConfig, KernelSim, LaunchConfig};

/// One microbenchmark's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationPoint {
    /// Microbenchmark name.
    pub name: &'static str,
    /// What the device model nominally provides.
    pub nominal: f64,
    /// What the simulator achieved.
    pub achieved: f64,
    /// Unit label for display.
    pub unit: &'static str,
}

impl CalibrationPoint {
    /// `achieved / nominal`.
    pub fn ratio(&self) -> f64 {
        if self.nominal == 0.0 {
            0.0
        } else {
            self.achieved / self.nominal
        }
    }
}

/// Runs all microbenchmarks against a device model.
pub fn calibrate(device: &DeviceConfig) -> Vec<CalibrationPoint> {
    vec![
        stream_bandwidth(device),
        l2_bandwidth(device),
        dram_latency(device),
        atomic_serialization(device),
    ]
}

/// Streaming read of a working set far larger than L2: must achieve the
/// configured DRAM bandwidth.
fn stream_bandwidth(device: &DeviceConfig) -> CalibrationPoint {
    // Enough blocks to fill every SM at full occupancy, each streaming
    // distinct lines.
    let blocks = device.num_sms * 8;
    let loads_per_warp = 512usize;
    let warps_per_block = 8;
    let mut sim = KernelSim::new(device, LaunchConfig::new(blocks, 256));
    let mut addr = 0u64;
    for b in 0..blocks {
        sim.begin_block(b as u32);
        for _ in 0..warps_per_block {
            for _ in 0..loads_per_warp {
                sim.load(Access {
                    bases: &[addr],
                    bytes: 128,
                });
                addr += 128;
            }
        }
        sim.end_block();
    }
    let report = sim.finish();
    let seconds = (report.time_ms - device.launch_overhead_us * 1e-3) / 1e3;
    CalibrationPoint {
        name: "stream_dram_bandwidth",
        nominal: device.dram_bw_gbs,
        achieved: report.dram_bytes / seconds / 1e9,
        unit: "GB/s",
    }
}

/// Re-reading an L2-resident working set: must achieve the configured L2
/// bandwidth.
fn l2_bandwidth(device: &DeviceConfig) -> CalibrationPoint {
    let blocks = device.num_sms * 8;
    // Working set: half of L2, shared by all blocks; bigger than any L1.
    let ws_lines = (device.l2_bytes / 2 / device.line_bytes) as u64;
    let loads_per_warp = 256usize;
    let mut sim = KernelSim::new(device, LaunchConfig::new(blocks, 256));
    let mut cursor = 0u64;
    for b in 0..blocks {
        sim.begin_block(b as u32);
        for _ in 0..8 {
            for _ in 0..loads_per_warp {
                // Stride by L1-defeating jumps within the L2 working set.
                cursor = (cursor + 4099) % ws_lines;
                sim.load(Access {
                    bases: &[cursor * device.line_bytes as u64],
                    bytes: 32, // one sector
                });
            }
        }
        sim.end_block();
    }
    let report = sim.finish();
    let seconds = (report.time_ms - device.launch_overhead_us * 1e-3) / 1e3;
    let bytes_served = report.l2_transactions * device.line_bytes as f64;
    CalibrationPoint {
        name: "l2_bandwidth",
        nominal: device.l2_bw_gbs,
        achieved: bytes_served / seconds / 1e9,
        unit: "GB/s",
    }
}

/// A single warp issuing cache-missing loads: the model credits each warp
/// `mlp_per_warp` outstanding transactions, so the effective per-load cost
/// must equal `dram_latency / mlp_per_warp` (there is no second warp to
/// hide anything else).
fn dram_latency(device: &DeviceConfig) -> CalibrationPoint {
    let chases = 4096usize;
    let mut sim = KernelSim::new(device, LaunchConfig::new(1, 32));
    sim.begin_block(0);
    for i in 0..chases {
        sim.load(Access {
            bases: &[(i as u64) * 4096], // distinct lines, no reuse
            bytes: 4,
        });
    }
    sim.end_block();
    let report = sim.finish();
    let cycles = (report.time_ms - device.launch_overhead_us * 1e-3) / 1e3 * device.clock_ghz * 1e9;
    CalibrationPoint {
        name: "dram_latency_exposed",
        nominal: device.dram_latency / device.mlp_per_warp,
        achieved: cycles / chases as f64,
        unit: "cycles/load",
    }
}

/// Hammering one address with atomics: kernel time must equal
/// `updates x atomic_serial_cycles`.
fn atomic_serialization(device: &DeviceConfig) -> CalibrationPoint {
    let updates = 100_000usize;
    let blocks = device.num_sms;
    let per_block = updates / blocks;
    let mut sim = KernelSim::new(device, LaunchConfig::new(blocks, 256));
    for b in 0..blocks {
        sim.begin_block(b as u32);
        for _ in 0..per_block {
            sim.atomic(
                Access {
                    bases: &[0],
                    bytes: 4,
                },
                [0u64],
            );
        }
        sim.end_block();
    }
    let report = sim.finish();
    let cycles = (report.time_ms - device.launch_overhead_us * 1e-3) / 1e3 * device.clock_ghz * 1e9;
    CalibrationPoint {
        name: "atomic_serialization",
        nominal: device.atomic_serial_cycles,
        achieved: cycles / (blocks * per_block) as f64,
        unit: "cycles/update",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_within(point: &CalibrationPoint, tolerance: f64) {
        let r = point.ratio();
        assert!(
            ((1.0 - tolerance)..=(1.0 + tolerance)).contains(&r),
            "{}: achieved {:.2} {} vs nominal {:.2} (ratio {r:.3})",
            point.name,
            point.achieved,
            point.unit,
            point.nominal,
        );
    }

    #[test]
    fn v100_calibration_within_tolerance() {
        for point in calibrate(&DeviceConfig::v100()) {
            // The stream test must saturate DRAM BW (±15%); the latency
            // chain and atomic hammer are exact by construction (±10%).
            let tol = match point.name {
                "l2_bandwidth" => 0.25, // partially DRAM-bound warmup
                _ => 0.15,
            };
            assert_within(&point, tol);
        }
    }

    #[test]
    fn a100_calibration_within_tolerance() {
        for point in calibrate(&DeviceConfig::a100()) {
            let tol = match point.name {
                "l2_bandwidth" => 0.25,
                _ => 0.15,
            };
            assert_within(&point, tol);
        }
    }

    #[test]
    fn a100_streams_faster_than_v100() {
        let v = stream_bandwidth(&DeviceConfig::v100());
        let a = stream_bandwidth(&DeviceConfig::a100());
        assert!(a.achieved > v.achieved);
    }
}
