//! # ugrapher-serve
//!
//! A concurrent serving engine over the [`ugrapher_core::api::Runtime`].
//!
//! The paper's runtime executes one operator per call; a deployment serves
//! a *stream* of operator requests (the message-passing steps of many
//! concurrent GNN inferences) against a small set of graph versions. This
//! crate adds the serving layer:
//!
//! * a **bounded request queue** drained by a std-only worker pool, each
//!   worker owning a [`Runtime`](ugrapher_core::api::Runtime) clone that
//!   shares one compiled-plan cache
//!   ([`ugrapher_core::cache::PlanCache`]) — warm requests skip schedule
//!   selection, plan generation, IR lowering and simulation entirely, and
//!   pay only the functional execution on their own operands;
//! * **admission control**: a full queue sheds the request *at submit
//!   time* with [`ServeError::Overloaded`] instead of queueing unbounded
//!   work;
//! * **per-request deadlines**: a request whose deadline passes while it
//!   waits in the queue is dropped without executing
//!   ([`ServeError::DeadlineExceeded`]), and one that finishes late
//!   reports the same error rather than pretending it met its contract;
//! * **observability**: every request carries a trace id joined with the
//!   spans the runtime emits, and the engine feeds the process-global
//!   metrics registry (queue-depth / queue-wait / latency histograms,
//!   admission and shed counters — see [`ugrapher_obs::metrics`]).
//!
//! # Example
//!
//! ```
//! use ugrapher_core::abstraction::OpInfo;
//! use ugrapher_core::api::Runtime;
//! use ugrapher_graph::generate::ring;
//! use ugrapher_serve::{ServeConfig, ServeEngine, ServeRequest};
//! use ugrapher_sim::DeviceConfig;
//! use ugrapher_tensor::Tensor2;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = ServeEngine::start(
//!     Runtime::new(DeviceConfig::v100()),
//!     ServeConfig::default(),
//! );
//! let graph = Arc::new(ring(16));
//! let x = Arc::new(Tensor2::full(16, 8, 1.0));
//! let req = ServeRequest::fused(graph, OpInfo::aggregation_sum(), x);
//! let resp = engine.submit(req)?.wait()?;
//! assert_eq!(resp.result.output[(0, 0)], 1.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod engine;
mod error;

pub use engine::{PendingResponse, ServeConfig, ServeEngine, ServeRequest, ServeResponse};
pub use error::ServeError;
