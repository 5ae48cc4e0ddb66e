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

/// One warp instruction of a random block.
#[derive(Debug, Clone)]
enum Event {
    Load(Vec<u64>, u32),
    Store(Vec<u64>, u32),
    Atomic(Vec<u64>, u32, Vec<u64>),
    Compute(f64),
}

/// A random launch: its config and, per block, its intra-block scale and
/// events. Some blocks hammer a few hot atomic locations, so the atomic
/// chain as well as the issue and L1 terms can dominate.
fn random_launch(rng: &mut ugrapher_util::rng::StdRng) -> (LaunchConfig, Vec<(f64, Vec<Event>)>) {
    let blocks = rng.random_range(1usize..300);
    let threads = [32, 128, 256, 1024][rng.random_range(0usize..4)];
    let regs = [32, 64][rng.random_range(0usize..2)];
    let words = |rng: &mut ugrapher_util::rng::StdRng| rng.random_range(1u32..33) * 4;
    let pool = (0..blocks)
        .map(|_| {
            let scale = [1.0, 1.0, 2.0, 8.0 / 3.0][rng.random_range(0usize..4)];
            let events = (0..rng.random_range(0usize..40))
                .map(|_| {
                    let lanes = rng.random_range(1usize..33);
                    let bases: Vec<u64> = (0..lanes)
                        .map(|_| rng.random_range(0u64..50_000) * 4)
                        .collect();
                    match rng.random_range(0u32..4) {
                        0 => Event::Load(bases, words(rng)),
                        1 => Event::Store(bases, words(rng)),
                        2 => {
                            let groups = (0..rng.random_range(1usize..4))
                                .map(|_| rng.random_range(0u64..8))
                                .collect();
                            Event::Atomic(bases, words(rng), groups)
                        }
                        _ => Event::Compute(rng.random_range(0.0f64..2000.0)),
                    }
                })
                .collect();
            (scale, events)
        })
        .collect();
    (LaunchConfig::new(blocks, threads).with_regs(regs), pool)
}

/// Replays `pool` into `sim`, ending blocks in block-id order, and returns
/// the report plus the lower bound and `cannot_win` after each block.
#[allow(clippy::type_complexity)]
fn replay(
    mut sim: KernelSim,
    pool: &[(f64, Vec<Event>)],
) -> (ugrapher_sim::SimReport, Vec<(Option<f64>, bool)>) {
    let mut after_block = Vec::new();
    for (b, (scale, events)) in pool.iter().enumerate() {
        sim.begin_block_scaled(b as u32, *scale);
        for e in events {
            match e {
                Event::Load(bases, bytes) => sim.load(Access {
                    bases,
                    bytes: *bytes,
                }),
                Event::Store(bases, bytes) => sim.store(Access {
                    bases,
                    bytes: *bytes,
                }),
                Event::Atomic(bases, bytes, groups) => sim.atomic(
                    Access {
                        bases,
                        bytes: *bytes,
                    },
                    groups.iter().copied(),
                ),
                Event::Compute(c) => sim.compute(*c),
            }
        }
        sim.end_block();
        after_block.push((sim.lower_bound_ms(), sim.cannot_win()));
    }
    (sim.finish(), after_block)
}

fn report_bits(r: &ugrapher_sim::SimReport) -> [u64; 13] {
    let ugrapher_sim::SimReport {
        time_ms,
        kernels,
        achieved_occupancy,
        theoretical_occupancy,
        sm_efficiency,
        l1_hit_rate,
        l2_hit_rate,
        dram_bytes,
        l2_transactions,
        l1_transactions,
        atomic_ops,
        max_atomic_conflict,
        compute_cycles,
    } = *r;
    [
        time_ms.to_bits(),
        kernels as u64,
        achieved_occupancy.to_bits(),
        theoretical_occupancy.to_bits(),
        sm_efficiency.to_bits(),
        l1_hit_rate.to_bits(),
        l2_hit_rate.to_bits(),
        dram_bytes.to_bits(),
        l2_transactions.to_bits(),
        l1_transactions.to_bits(),
        atomic_ops.to_bits(),
        max_atomic_conflict.to_bits(),
        compute_cycles.to_bits(),
    ]
}

fn device(rng: &mut ugrapher_util::rng::StdRng) -> DeviceConfig {
    if rng.random_range(0u32..2) == 0 {
        DeviceConfig::v100()
    } else {
        DeviceConfig::a100()
    }
}

#[test]
fn cutoff_at_the_kernels_own_time_never_stops_it() {
    forall("cutoff_at_own_time_never_stops", 48, |rng| {
        let d = device(rng);
        let (launch, pool) = random_launch(rng);
        let (want, _) = replay(KernelSim::new(&d, launch), &pool);
        let sim = KernelSim::new(&d, launch).with_cutoff_ms(want.time_ms);
        let (got, after_block) = replay(sim, &pool);
        if let Some(b) = after_block.iter().position(|&(_, stop)| stop) {
            return Err(format!(
                "a cutoff of its own time {} stopped the kernel after block {b}",
                want.time_ms
            ));
        }
        if report_bits(&got) != report_bits(&want) {
            return Err(format!(
                "an armed cutoff moved the report: {got:?} vs {want:?}"
            ));
        }
        Ok(())
    });
}

#[test]
fn infinite_cutoff_leaves_the_report_bitwise_unchanged() {
    forall("infinite_cutoff_is_identity", 32, |rng| {
        let d = device(rng);
        let (launch, pool) = random_launch(rng);
        let (want, _) = replay(KernelSim::new(&d, launch), &pool);
        let sim = KernelSim::new(&d, launch).with_cutoff_ms(f64::INFINITY);
        let (got, after_block) = replay(sim, &pool);
        if after_block
            .iter()
            .any(|&(bound, stop)| bound.is_some() || stop)
        {
            return Err("an infinite cutoff armed a bound".to_string());
        }
        if report_bits(&got) != report_bits(&want) {
            return Err(format!("reports differ: {got:?} vs {want:?}"));
        }
        Ok(())
    });
}

#[test]
fn running_lower_bound_never_exceeds_the_kernels_time() {
    forall("running_bound_below_time", 64, |rng| {
        let d = device(rng);
        let (launch, pool) = random_launch(rng);
        // A finite cutoff no kernel reaches arms the bound without stopping.
        let sim = KernelSim::new(&d, launch).with_cutoff_ms(f64::MAX);
        let (report, after_block) = replay(sim, &pool);
        let mut last = 0.0;
        for (b, &(bound, stop)) in after_block.iter().enumerate() {
            let bound = bound.ok_or("a finite cutoff armed no bound")?;
            if stop {
                return Err(format!("stopped under an unreachable cutoff at block {b}"));
            }
            if bound < last {
                return Err(format!("bound fell from {last} to {bound} at block {b}"));
            }
            // The bound sums over all of an SM's blocks where the timing
            // model sums wave by wave, so the two may differ by rounding
            // (a few ulps); the cutoff's 1e-9 slack covers a thousand
            // times this tolerance.
            if bound > report.time_ms * (1.0 + 1e-12) {
                return Err(format!(
                    "bound {bound} after block {b} exceeds the kernel's time {}",
                    report.time_ms
                ));
            }
            last = bound;
        }
        // And the bound has teeth: any cutoff below the launch overhead,
        // which every launch pays, is ruled out at the first block.
        let sim = KernelSim::new(&d, launch).with_cutoff_ms(0.0);
        let (_, after_block) = replay(sim, &pool);
        if !after_block[0].1 {
            return Err("a zero cutoff survived the first block".to_string());
        }
        Ok(())
    });
}

#[test]
fn sampled_launches_never_stop() {
    forall("sampled_launches_never_stop", 32, |rng| {
        let d = device(rng);
        let (launch, pool) = random_launch(rng);
        let launch = launch.with_replication(rng.random_range(1.5f64..8.0));
        let (want, _) = replay(KernelSim::new(&d, launch), &pool);
        let sim = KernelSim::new(&d, launch).with_cutoff_ms(0.0);
        let (got, after_block) = replay(sim, &pool);
        if after_block
            .iter()
            .any(|&(bound, stop)| bound.is_some() || stop)
        {
            return Err("a sampled launch armed a cutoff".to_string());
        }
        if report_bits(&got) != report_bits(&want) {
            return Err(format!("reports differ: {got:?} vs {want:?}"));
        }
        Ok(())
    });
}
