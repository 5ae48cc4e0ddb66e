//! # ugrapher-sim
//!
//! A GPU execution simulator standing in for the CUDA/V100/A100 substrate of
//! the uGrapher paper (see DESIGN.md §2 for the substitution argument).
//!
//! The paper's evaluation reasons about graph-operator kernels through five
//! mechanisms, all of which this simulator models explicitly:
//!
//! 1. **Parallelism** — work is issued as a grid of thread blocks; each SM
//!    hosts a bounded number of resident warps (occupancy), and too few
//!    blocks leave SMs idle (low *SM efficiency*, paper Fig. 3).
//! 2. **Locality** — per-SM L1 and device-wide L2 set-associative caches with
//!    sector-granularity (32 B) transactions; reuse shows up as L1/L2 hit
//!    rate (paper Figs. 3, 16).
//! 3. **Coalescing** — each warp access ([`Access`]: a run of consecutive
//!    bytes per active lane) is converted into the set of memory
//!    transactions its lanes actually require.
//! 4. **Work-efficiency** — atomically updated outputs bypass L1 and
//!    serialize on hot addresses ([`KernelSim::atomic`]); extra address
//!    arithmetic shows up as compute cycles.
//! 5. **Latency hiding** — a wave-based analytical timing model
//!    ([`timing`]) where memory latency is hidden proportionally to resident
//!    warps, so low occupancy hurts exactly when the paper says it does.
//!
//! The simulator is *trace-driven*: the trace walker in `ugrapher-core`
//! streams one [`Access`]/compute event per warp instruction, and
//! [`KernelSim::finish`] turns the accumulated per-block costs into a
//! [`SimReport`] with time and nvprof-style metrics.
//!
//! # Example
//!
//! ```
//! use ugrapher_sim::{Access, DeviceConfig, KernelSim, LaunchConfig};
//!
//! let device = DeviceConfig::v100();
//! let launch = LaunchConfig::new(128, 256);
//! let mut sim = KernelSim::new(&device, launch);
//! for block in 0..128u32 {
//!     sim.begin_block(block);
//!     // One lane base, 32 consecutive words: a coalesced warp load.
//!     sim.load(Access { bases: &[u64::from(block) * 1024], bytes: 128 });
//!     sim.compute(8.0);
//!     sim.end_block();
//! }
//! let report = sim.finish();
//! assert!(report.time_ms > 0.0);
//! assert!(report.achieved_occupancy > 0.0);
//! ```

mod access;
mod alloc;
mod cache;
pub mod calibrate;
mod device;
mod error;
mod fault;
mod kernel;
mod report;
pub mod timing;
mod writeset;

pub use access::Access;
pub use alloc::AddressSpace;
pub use cache::Cache;
pub use device::DeviceConfig;
pub use error::SimError;
pub use fault::{Fault, FaultInjector, FaultySim};
pub use kernel::{KernelSim, LaunchConfig};
pub use report::SimReport;
pub use writeset::{WordWrites, WriteLog};
