//! # ugrapher-tensor
//!
//! Dense 2-D tensor substrate used by the uGrapher reproduction.
//!
//! GNN models interleave *graph operators* (the paper's contribution, handled
//! by `ugrapher-core`) with ordinary dense operations — feature projections
//! (GEMM), bias addition, activations. This crate provides:
//!
//! * [`Tensor2`] — a row-major `f32` matrix with shape-checked element-wise
//!   and matrix operations,
//! * [`gemm`] — the host matrix multiply behind every dense projection: a
//!   register-blocked kernel whose every output element has the bits of the
//!   textbook `i-k-j` loop with its zero skip, compiled once per
//!   [`HostIsa`] tier and run at the widest one the CPU supports,
//! * [`GemmCostModel`] — a roofline-style estimate of how long the same GEMM
//!   would take on a V100 / A100 class GPU, used by the end-to-end benchmarks
//!   (paper Figs. 13–15) where total inference time = GEMM time + graph-op
//!   time.
//!
//! # Example
//!
//! ```
//! use ugrapher_tensor::Tensor2;
//!
//! # fn main() -> Result<(), ugrapher_tensor::TensorError> {
//! let x = Tensor2::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
//! let w = Tensor2::eye(3);
//! let y = x.matmul(&w)?;
//! assert_eq!(y, x);
//! # Ok(())
//! # }
//! ```

mod cost;
mod error;
mod isa;
mod ops;
mod tensor;

pub use cost::{GemmCostModel, GemmDevice};
pub use error::TensorError;
pub use isa::HostIsa;
pub use ops::gemm;
pub use tensor::Tensor2;
