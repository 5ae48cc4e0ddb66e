//! Property-based tests for the GPU simulator.

use ugrapher_sim::{Access, Cache, DeviceConfig, KernelSim, LaunchConfig};
use ugrapher_util::check::forall;

#[test]
fn cache_hits_plus_misses_equals_accesses() {
    forall("cache_hits_plus_misses", 64, |rng| {
        let n = rng.random_range(1usize..300);
        let lines: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..500)).collect();
        let mut c = Cache::new(4096, 32, 4);
        for &l in &lines {
            c.access_line(l, 1.0);
        }
        if (c.hits() + c.misses() - lines.len() as f64).abs() >= 1e-9 {
            return Err(format!(
                "hits {} + misses {} != accesses {}",
                c.hits(),
                c.misses(),
                lines.len()
            ));
        }
        if !(0.0..=1.0).contains(&c.hit_rate()) {
            return Err(format!("hit rate {} out of range", c.hit_rate()));
        }
        Ok(())
    });
}

#[test]
fn repeating_a_trace_only_improves_hit_rate() {
    // Working set of <= 64 lines fits in a 128-line cache: the second
    // pass must hit everywhere.
    forall("repeat_trace_improves_hit_rate", 64, |rng| {
        let n = rng.random_range(1usize..100);
        let lines: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..64)).collect();
        let mut c = Cache::new(128 * 32, 32, 8);
        for &l in &lines {
            c.access_line(l, 1.0);
        }
        let misses_after_first = c.misses();
        for &l in &lines {
            if !c.access_line(l, 1.0) {
                return Err(format!("second pass missed on line {l}"));
            }
        }
        if c.misses() != misses_after_first {
            return Err("second pass added misses".to_string());
        }
        Ok(())
    });
}

#[test]
fn coalescer_never_exceeds_one_line_per_lane() {
    forall("coalescer_line_bound", 64, |rng| {
        let n = rng.random_range(1usize..32);
        // Word-aligned byte addresses in [0, 100_000), as `Access` requires.
        let addrs: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..25_000) * 4).collect();
        let d = DeviceConfig::v100();
        let access = Access {
            bases: &addrs,
            bytes: 4,
        };
        let mut lines = Vec::new();
        access.lines(&d, &mut lines);
        if lines.len() > addrs.len() {
            return Err(format!("{} lines for {} lanes", lines.len(), addrs.len()));
        }
        if lines.is_empty() {
            return Err("no lines for non-empty access".to_string());
        }
        // Lines are deduplicated.
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != lines.len() {
            return Err("duplicate lines emitted".to_string());
        }
        Ok(())
    });
}

#[test]
fn coalesced_access_uses_minimal_lines() {
    forall("coalesced_minimal_lines", 64, |rng| {
        let lanes = rng.random_range(1u32..=32);
        let base = rng.random_range(0u64..10_000);
        let d = DeviceConfig::v100();
        let access = Access {
            bases: &[base * 4],
            bytes: lanes * 4,
        };
        let mut lines = Vec::new();
        access.lines(&d, &mut lines);
        let bytes = lanes as u64 * 4;
        let max_lines = bytes.div_ceil(32) + 1; // +1 for misalignment
        if lines.len() as u64 > max_lines {
            return Err(format!("{} lines exceeds bound {max_lines}", lines.len()));
        }
        Ok(())
    });
}

#[test]
fn report_metrics_stay_in_range() {
    forall("report_metrics_in_range", 32, |rng| {
        let blocks = rng.random_range(1u32..60);
        let loads_per_block = rng.random_range(1usize..50);
        let compute = rng.random_range(0.0f64..1000.0);
        let d = DeviceConfig::v100();
        let mut sim = KernelSim::new(&d, LaunchConfig::new(blocks as usize, 256));
        for b in 0..blocks {
            sim.begin_block(b);
            for i in 0..loads_per_block {
                sim.load(Access {
                    bases: &[(b as u64 * 1000 + i as u64) * 64],
                    bytes: 128,
                });
            }
            sim.compute(compute);
            sim.end_block();
        }
        let r = sim.finish();
        let in_unit = |v: f64, what: &str| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{what} = {v} out of [0, 1]"))
            }
        };
        if r.time_ms <= 0.0 {
            return Err(format!("time_ms = {} not positive", r.time_ms));
        }
        in_unit(r.achieved_occupancy, "achieved_occupancy")?;
        in_unit(r.theoretical_occupancy, "theoretical_occupancy")?;
        in_unit(r.sm_efficiency, "sm_efficiency")?;
        in_unit(r.l1_hit_rate, "l1_hit_rate")?;
        in_unit(r.l2_hit_rate, "l2_hit_rate")?;
        if r.dram_bytes < 0.0 {
            return Err(format!("dram_bytes = {} negative", r.dram_bytes));
        }
        Ok(())
    });
}

#[test]
fn more_work_never_reduces_time() {
    forall("more_work_never_reduces_time", 16, |rng| {
        let extra = rng.random_range(1usize..20);
        let d = DeviceConfig::v100();
        let run = |n_loads: usize| {
            let mut sim = KernelSim::new(&d, LaunchConfig::new(d.num_sms, 256));
            for b in 0..d.num_sms as u32 {
                sim.begin_block(b);
                for i in 0..n_loads {
                    sim.load(Access {
                        bases: &[(b as u64 * 100_000 + i as u64) * 128],
                        bytes: 128,
                    });
                }
                sim.end_block();
            }
            sim.finish().time_ms
        };
        if run(50 + extra) >= run(50) - 1e-12 {
            Ok(())
        } else {
            Err(format!("adding {extra} loads reduced simulated time"))
        }
    });
}

#[test]
fn merge_is_associative_on_time() {
    forall("merge_is_associative_on_time", 64, |rng| {
        use ugrapher_sim::SimReport;
        let t1 = rng.random_range(0.1f64..10.0);
        let t2 = rng.random_range(0.1f64..10.0);
        let t3 = rng.random_range(0.1f64..10.0);
        let mk = |t: f64| SimReport {
            time_ms: t,
            kernels: 1,
            ..SimReport::empty()
        };
        let (a, b, c) = (mk(t1), mk(t2), mk(t3));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        if (left.time_ms - right.time_ms).abs() >= 1e-9 {
            return Err(format!(
                "times diverge: {} vs {}",
                left.time_ms, right.time_ms
            ));
        }
        if left.kernels != right.kernels {
            return Err("kernel counts diverge".to_string());
        }
        Ok(())
    });
}
