//! Kernel identity: candidates whose tiling knobs clamp to the same tile
//! size compile to the same kernel. Grid search and predictor training
//! measure one of each group and give its twins that time, which is sound
//! only if twins are indistinguishable: for every registry operator ×
//! strategy × grouping at several feature widths, the members of one group
//! give bit-identical `SimReport`s (at the tuner's fidelity), the same
//! `KernelIr` and the same emitted CUDA, apart from the schedule label.

use std::collections::HashMap;

use ugrapher_core::abstraction::{registry, OpInfo, TensorType};
use ugrapher_core::codegen_cuda::emit_cuda;
use ugrapher_core::exec::{measure, MeasureOptions};
use ugrapher_core::lower::lower;
use ugrapher_core::plan::KernelPlan;
use ugrapher_core::schedule::{ParallelInfo, Strategy};
use ugrapher_graph::generate::{DegreeModel, GraphSpec};
use ugrapher_graph::Graph;
use ugrapher_sim::DeviceConfig;

/// Checks every twin of `op` on `g`; returns how many there were.
fn check_op(g: &Graph, op: OpInfo) -> usize {
    let options = MeasureOptions::auto(DeviceConfig::v100());
    let scalar_b: &[bool] = if op.b == TensorType::Null {
        &[false]
    } else {
        &[false, true]
    };
    let mut twins = 0;
    for feat in [1, 8, 12, 32] {
        for strategy in Strategy::ALL {
            for grouping in ParallelInfo::KNOB_VALUES {
                let mut first_reports = HashMap::new();
                let plans: Vec<KernelPlan> = ParallelInfo::KNOB_VALUES
                    .iter()
                    .map(|&tiling| {
                        let p = ParallelInfo::new(strategy, grouping, tiling);
                        KernelPlan::generate(op, p, g.num_vertices(), g.num_edges(), feat)
                            .expect("registry schedules are legal")
                    })
                    .collect();
                for (i, twin) in plans.iter().enumerate() {
                    // The first plan in knob order with the same tile.
                    let Some(first) = plans[..i].iter().find(|p| p.tile_size == twin.tile_size)
                    else {
                        continue;
                    };
                    twins += 1;
                    let what = format!("{} feat {feat} {}", op.label(), twin.parallel);
                    let mut ir = lower(twin).expect("registry plans lower");
                    ir.parallel = first.parallel;
                    assert_eq!(
                        ir,
                        lower(first).expect("registry plans lower"),
                        "{what}: KernelIr"
                    );
                    for &b_scalar in scalar_b {
                        let twin = twin.clone().with_scalar_operands(false, b_scalar);
                        let first = first.clone().with_scalar_operands(false, b_scalar);
                        let (twin_label, first_label) =
                            (twin.parallel.label(), first.parallel.label());
                        let cuda = emit_cuda(&twin)
                            .expect("registry plans emit")
                            .replace(&twin_label, &first_label)
                            .replace(&twin_label.to_lowercase(), &first_label.to_lowercase());
                        assert_eq!(
                            cuda,
                            emit_cuda(&first).expect("registry plans emit"),
                            "{what} B scalar {b_scalar}: emitted CUDA"
                        );
                        let first_bits = first_reports
                            .entry((first_label, b_scalar))
                            .or_insert_with(|| measure(g, &first, &options).bits());
                        assert_eq!(
                            &measure(g, &twin, &options).bits(),
                            first_bits,
                            "{what} B scalar {b_scalar}: SimReport"
                        );
                    }
                }
            }
        }
    }
    twins
}

#[test]
fn twins_give_identical_reports_ir_and_cuda() {
    let g = GraphSpec {
        num_vertices: 24,
        num_edges: 96,
        degree_model: DegreeModel::PowerLaw { alpha: 2.0 },
        locality: 0.3,
        seed: 29,
    }
    .build();
    let ops = registry::all_valid_ops();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let twins: usize = std::thread::scope(|scope| {
        let g = &g;
        let handles: Vec<_> = ops
            .chunks(ops.len().div_ceil(workers))
            .map(|chunk| {
                scope.spawn(move || chunk.iter().map(|&op| check_op(g, op)).sum::<usize>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a twin check failed"))
            .sum()
    });
    // Per (operator, strategy, grouping): 6 twins at feat 1, 3 at feat 8
    // (T16..T64 clamp to one-wide tiles, like T8), 2 at feat 12 (T32, T64
    // join T16) and 1 at feat 32 (T64 joins T32).
    assert_eq!(twins, ops.len() * 4 * 7 * (6 + 3 + 2 + 1));
}
