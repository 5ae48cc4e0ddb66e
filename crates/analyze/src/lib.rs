//! # ugrapher-analyze
//!
//! A static analyzer and IR verifier for uGrapher
//! `(operator, schedule, graph-shape)` triples, with a dynamic cross-check
//! against the GPU simulator's instrumented access stream.
//!
//! Every kernel plan is first lowered to the typed SSA-like kernel IR
//! ([`ugrapher_core::ir::KernelIr`] via [`ugrapher_core::lower::lower`]) —
//! the same IR the CUDA emitter renders from — and the verifier passes run
//! over that IR, not over generated text:
//!
//! * **race detection** ([`statics::analyze_static`], [`RaceVerdict`]) —
//!   the atomic requirement has one symbolic derivation, the write-set
//!   analysis ([`ugrapher_core::analysis::race_verdict`]), which on a
//!   concrete graph also produces a [`RaceWitness`] — two work items and
//!   the row they share. Lowering maps it onto the kernel's store; the IR
//!   lint checks that store against it, and the dynamic cross-check below
//!   checks it against the simulator.
//! * **symbolic bounds proof** ([`bounds::check_bounds`]) — proves every
//!   load and store of the lowered kernel in-bounds for *any* graph
//!   passing `Graph::validate`, by discharging each row index against the
//!   invariant that justifies it (CSR partition sums, `col_idx < V`,
//!   `in_eid` bijectivity) and each feature index against its tile clamp.
//!   Failure carries the concrete witness index expression
//!   ([`AnalyzeError::OutOfBounds`]).
//! * **determinism classification** ([`determinism::classify`]) — labels
//!   every kernel bitwise-deterministic (sequential reduction or pure
//!   copy), atomic-but-order-insensitive (CAS max/min), or
//!   reduction-order-dependent (atomic float sum/mean).
//! * **schedule legality** — the shared legality gate
//!   ([`ugrapher_core::analysis::check_context`]) plus warning-level
//!   [`ScheduleLint`]s (clamped tiling, degenerate grouping).
//! * **IR lint** ([`irlint::lint_ir`]) — flags residual NULL-operand loads
//!   after fusion, operand buffers the kernel never reads, and update
//!   atomicity that contradicts the race verdict — on the IR itself,
//!   replacing the retired text-based CUDA lint (a regression test proved
//!   verdict parity across the whole registry before the text lint was
//!   deleted).
//!
//! The **dynamic cross-check** ([`dynamic::cross_check`]) replays the
//! schedule through `ugrapher-sim` with its word-granular write log
//! enabled and verifies that contended output words appear exactly when
//! the static witness analysis predicts a race — and that every contended
//! word is atomically updated.
//!
//! [`sweep::analyze_registry`] runs all of the above over the paper's full
//! operator registry under all four parallelization strategies and a set
//! of grouping/tiling variants; the `analyze-registry` binary wires it
//! into CI (non-zero exit on any finding, `--json` for machine-readable
//! reports).
//!
//! # Example
//!
//! ```
//! use ugrapher_analyze::{analyze_static, cross_check};
//! use ugrapher_core::abstraction::OpInfo;
//! use ugrapher_core::ir::DeterminismClass;
//! use ugrapher_core::schedule::{ParallelInfo, Strategy};
//! use ugrapher_graph::generate::uniform_random;
//! use ugrapher_sim::DeviceConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = uniform_random(100, 800, 1);
//! let op = OpInfo::aggregation_sum();
//! let schedule = ParallelInfo::basic(Strategy::ThreadEdge);
//! let report = analyze_static(&g, op, schedule, 8)?;
//! assert!(report.race.needs_atomic);
//! assert!(report.race.witness.is_some(), "two items share a destination");
//! // The verifier passes ran over the lowered IR.
//! assert!(report.bounds.num_accesses() >= 2, "every access carries a proof");
//! assert_eq!(report.determinism.class, DeterminismClass::AtomicOrderDependent);
//! // The simulated write-set confirms the verdict.
//! let cc = cross_check(&g, op, schedule, 8, &DeviceConfig::v100())?;
//! assert!(cc.observed_conflicts());
//! # Ok(())
//! # }
//! ```
//!
//! [`ScheduleLint`]: ugrapher_core::analysis::ScheduleLint
//! [`RaceWitness`]: ugrapher_core::analysis::RaceWitness

#![deny(missing_docs)]

pub mod bounds;
pub mod determinism;
pub mod dynamic;
mod error;
pub mod irlint;
pub mod statics;
pub mod sweep;

pub use bounds::{check_bounds, AccessProof, BoundsProof, BoundsViolation};
pub use determinism::{classify, DeterminismReport};
pub use dynamic::{cross_check, cross_check_plan, CrossCheck};
pub use error::AnalyzeError;
pub use irlint::{lint_ir, IrFinding};
pub use statics::{analyze_static, audit_plan, RaceVerdict, StaticReport};
pub use sweep::{
    analyze_registry, analyze_registry_with_progress, DeterminismCounts, SweepConfig, SweepFinding,
    SweepReport,
};
