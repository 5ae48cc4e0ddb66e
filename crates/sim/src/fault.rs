//! Fault injection for the simulator.
//!
//! Robustness work needs a way to exercise the degraded paths on purpose:
//! a trace that stops mid-kernel, a device description whose parameters
//! have drifted out of the sane range, a cache model that stops caching,
//! an atomic unit that sees pathological contention. [`FaultInjector`]
//! packages those as declarative [`Fault`]s and applies them either to a
//! [`DeviceConfig`] (producing a perturbed-but-validated config, or a
//! typed [`SimError`]) or to a live kernel trace via [`FaultySim`], which
//! mirrors the [`KernelSim`] protocol while corrupting the stream.
//!
//! The injector never panics: impossible requests come back as
//! [`SimError::InvalidFault`], and a perturbation that drives the device
//! out of its legal envelope is caught by [`DeviceConfig::validate`]
//! before any simulation starts.

use crate::access::Access;
use crate::device::DeviceConfig;
use crate::error::SimError;
use crate::kernel::{KernelSim, LaunchConfig};
use crate::report::SimReport;

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Drop every trace event after the first `keep_events` (a producer
    /// that died mid-kernel). Block begin/end markers are preserved so the
    /// simulator protocol stays balanced; only loads/stores/atomics/compute
    /// are dropped.
    TruncateTrace {
        /// Number of leading trace events to keep.
        keep_events: usize,
    },
    /// Multiply the device's throughput and capacity parameters
    /// (bandwidths, cache sizes, SM count) by `factor`. Factors that drive
    /// a parameter to zero produce a config that fails
    /// [`DeviceConfig::validate`].
    PerturbDevice {
        /// Scale factor applied to capacities and bandwidths.
        factor: f64,
    },
    /// Shrink both caches to a single line: every access becomes a DRAM
    /// access (a broken cache model).
    ZeroCaches,
    /// Multiply every atomic conflict-group population by `multiplier`,
    /// modelling an atomic unit that serializes far more than it should.
    AtomicStorm {
        /// Conflict multiplier (>= 1).
        multiplier: f64,
    },
}

impl Fault {
    /// Stable short name, used as the `fault` label on the
    /// `ugrapher_fault_injections_total` metric.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::TruncateTrace { .. } => "truncate-trace",
            Fault::PerturbDevice { .. } => "perturb-device",
            Fault::ZeroCaches => "zero-caches",
            Fault::AtomicStorm { .. } => "atomic-storm",
        }
    }
}

/// Applies a set of [`Fault`]s to device configs and kernel traces.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    faults: Vec<Fault>,
}

impl FaultInjector {
    /// An injector with no faults (the identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The configured faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Applies the device-level faults to `base` and validates the result.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFault`] for malformed fault specs (e.g. a
    /// non-finite perturbation factor) and [`SimError::InvalidDevice`] when
    /// the perturbed config leaves the legal envelope.
    pub fn device(&self, base: &DeviceConfig) -> Result<DeviceConfig, SimError> {
        let mut d = base.clone();
        for fault in &self.faults {
            match fault {
                Fault::PerturbDevice { factor } => {
                    if !factor.is_finite() || *factor < 0.0 {
                        return Err(SimError::InvalidFault {
                            reason: format!("perturbation factor {factor} must be finite and >= 0"),
                        });
                    }
                    d.num_sms = (d.num_sms as f64 * factor) as usize;
                    d.l1_bytes = (d.l1_bytes as f64 * factor) as usize;
                    d.l2_bytes = (d.l2_bytes as f64 * factor) as usize;
                    d.dram_bw_gbs *= factor;
                    d.l2_bw_gbs *= factor;
                    d.clock_ghz *= factor;
                }
                Fault::ZeroCaches => {
                    d.l1_bytes = 0;
                    d.l2_bytes = 0;
                }
                Fault::TruncateTrace { .. } | Fault::AtomicStorm { .. } => {}
            }
        }
        d.validate()?;
        Ok(d)
    }

    /// Builds a [`FaultySim`] for one kernel launch: the device-level
    /// faults are applied first, then the trace-level faults are armed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FaultInjector::device`], plus
    /// [`SimError::InvalidFault`] for a non-finite or sub-1 atomic-storm
    /// multiplier.
    pub fn instrument(
        &self,
        base: &DeviceConfig,
        launch: LaunchConfig,
    ) -> Result<FaultySim, SimError> {
        let device = self.device(base)?;
        let mut events_left = None;
        let mut atomic_mult = 1.0;
        for fault in &self.faults {
            match fault {
                Fault::TruncateTrace { keep_events } => {
                    events_left = Some(match events_left {
                        Some(prev) => (*keep_events).min(prev),
                        None => *keep_events,
                    });
                }
                Fault::AtomicStorm { multiplier } => {
                    if !multiplier.is_finite() || *multiplier < 1.0 {
                        return Err(SimError::InvalidFault {
                            reason: format!("atomic storm multiplier {multiplier} must be >= 1"),
                        });
                    }
                    atomic_mult *= multiplier;
                }
                Fault::PerturbDevice { .. } | Fault::ZeroCaches => {}
            }
        }
        let reg = ugrapher_obs::MetricsRegistry::global();
        for fault in &self.faults {
            reg.inc_labeled(
                ugrapher_obs::metrics::FAULT_INJECTIONS,
                "fault",
                fault.label(),
            );
        }
        Ok(FaultySim {
            inner: KernelSim::new(&device, launch),
            events_left,
            atomic_mult,
        })
    }
}

/// A [`KernelSim`] whose event stream is corrupted by armed faults.
///
/// Mirrors the `begin_block`/events/`end_block`/`finish` protocol of
/// [`KernelSim`]; block markers always pass through (so the protocol stays
/// balanced), while data events are subject to truncation and atomic
/// amplification.
#[derive(Debug)]
pub struct FaultySim {
    inner: KernelSim,
    /// `Some(n)`: forward at most `n` more data events, then drop.
    events_left: Option<usize>,
    atomic_mult: f64,
}

impl FaultySim {
    fn admit(&mut self) -> bool {
        match &mut self.events_left {
            None => true,
            Some(0) => false,
            Some(n) => {
                *n -= 1;
                true
            }
        }
    }

    /// See [`KernelSim::begin_block`].
    pub fn begin_block(&mut self, block_id: u32) {
        self.inner.begin_block(block_id);
    }

    /// See [`KernelSim::load`]; may be dropped by a truncation fault.
    pub fn load(&mut self, access: Access) {
        if self.admit() {
            self.inner.load(access);
        }
    }

    /// See [`KernelSim::store`]; may be dropped by a truncation fault.
    pub fn store(&mut self, access: Access) {
        if self.admit() {
            self.inner.store(access);
        }
    }

    /// See [`KernelSim::atomic`]; conflict groups are replicated by an
    /// atomic-storm fault, and the whole event may be dropped by a
    /// truncation fault.
    pub fn atomic(&mut self, access: Access, conflict_groups: impl IntoIterator<Item = u64>) {
        if !self.admit() {
            return;
        }
        if self.atomic_mult > 1.0 {
            let mult = self.atomic_mult.round() as usize;
            let groups: Vec<u64> = conflict_groups.into_iter().collect();
            let amplified: Vec<u64> = std::iter::repeat_n(groups, mult).flatten().collect();
            self.inner.atomic(access, amplified);
        } else {
            self.inner.atomic(access, conflict_groups);
        }
    }

    /// See [`KernelSim::compute`]; may be dropped by a truncation fault.
    pub fn compute(&mut self, warp_cycles: f64) {
        if self.admit() {
            self.inner.compute(warp_cycles);
        }
    }

    /// See [`KernelSim::end_block`].
    pub fn end_block(&mut self) {
        self.inner.end_block();
    }

    /// See [`KernelSim::finish`].
    pub fn finish(self) -> SimReport {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(inj: FaultInjector) -> SimReport {
        let d = DeviceConfig::v100();
        let mut sim = inj.instrument(&d, LaunchConfig::new(4, 256)).unwrap();
        for b in 0..4 {
            sim.begin_block(b);
            standard_events(&mut sim);
            sim.end_block();
        }
        sim.finish()
    }

    fn standard_events(sim: &mut FaultySim) {
        for i in 0..100u64 {
            sim.load(Access {
                bases: &[i * 128],
                bytes: 128,
            });
        }
        sim.atomic(
            Access {
                bases: &[64],
                bytes: 4,
            },
            [9u64],
        );
        sim.compute(50.0);
    }

    #[test]
    fn no_faults_is_identity() {
        let clean = run(FaultInjector::new());
        let d = DeviceConfig::v100();
        let mut sim = KernelSim::new(&d, LaunchConfig::new(4, 256));
        for b in 0..4 {
            sim.begin_block(b);
            for i in 0..100u64 {
                sim.load(Access {
                    bases: &[i * 128],
                    bytes: 128,
                });
            }
            sim.atomic(
                Access {
                    bases: &[64],
                    bytes: 4,
                },
                [9u64],
            );
            sim.compute(50.0);
            sim.end_block();
        }
        assert_eq!(clean, sim.finish());
    }

    #[test]
    fn truncation_reduces_traffic() {
        let clean = run(FaultInjector::new());
        let cut = run(FaultInjector::new().with(Fault::TruncateTrace { keep_events: 10 }));
        assert!(cut.l1_transactions < clean.l1_transactions);
        assert!(cut.time_ms <= clean.time_ms);
    }

    #[test]
    fn zero_caches_forces_dram() {
        let broken = run(FaultInjector::new().with(Fault::ZeroCaches));
        assert!(broken.l1_hit_rate < 0.05, "hit rate {}", broken.l1_hit_rate);
        assert!(broken.dram_bytes > 0.0);
    }

    #[test]
    fn atomic_storm_amplifies_conflicts() {
        let clean = run(FaultInjector::new());
        let storm = run(FaultInjector::new().with(Fault::AtomicStorm { multiplier: 50.0 }));
        assert!(storm.max_atomic_conflict >= clean.max_atomic_conflict * 49.0);
    }

    #[test]
    fn zeroing_perturbation_is_rejected_not_panicking() {
        let inj = FaultInjector::new().with(Fault::PerturbDevice { factor: 0.0 });
        let err = inj.device(&DeviceConfig::v100()).unwrap_err();
        assert!(matches!(err, SimError::InvalidDevice { .. }));
    }

    #[test]
    fn associativity_beyond_the_cache_model_is_rejected_not_panicking() {
        let mut base = DeviceConfig::v100();
        base.l1_assoc = 256;
        let inj = FaultInjector::new().with(Fault::PerturbDevice { factor: 1.0 });
        let err = inj.device(&base).unwrap_err();
        assert!(matches!(err, SimError::InvalidDevice { .. }), "{err}");
        let err = inj.instrument(&base, LaunchConfig::new(1, 32)).unwrap_err();
        assert!(matches!(err, SimError::InvalidDevice { .. }), "{err}");
    }

    #[test]
    fn nan_perturbation_is_an_invalid_fault() {
        let inj = FaultInjector::new().with(Fault::PerturbDevice { factor: f64::NAN });
        let err = inj.device(&DeviceConfig::v100()).unwrap_err();
        assert!(matches!(err, SimError::InvalidFault { .. }));
    }

    #[test]
    fn mild_perturbation_still_simulates() {
        let slow = run(FaultInjector::new().with(Fault::PerturbDevice { factor: 0.5 }));
        assert!(slow.time_ms.is_finite() && slow.time_ms > 0.0);
    }
}
