//! Schedule tuning (paper §5.4).
//!
//! One search, [`grid_search_budgeted`], turns a list of candidate
//! schedules into measured simulated times (each distinct kernel once) and
//! keeps the fastest; the tuners differ only in the list they hand it:
//!
//! * grid search — every point of [`crate::schedule::ParallelInfo::space`]
//!   (the paper's ground truth, "days of time" on real hardware, affordable
//!   here thanks to [`crate::exec::Fidelity::Auto`]'s sampled tracing);
//! * random search — [`random_candidates`], the four basic strategies plus
//!   a seeded random draw from the space;
//! * [`Predictor`] — a GBDT trained on randomly generated graphs that maps
//!   (graph features, operator info, schedule) to predicted log-time and
//!   picks the argmin (the paper's LightGBM model, Table 7; validated
//!   against grid search in Fig. 12). Its training times come from the
//!   same search over the configured schedules.
//!
//! A [`TuneBudget`] caps how many candidates of a list a search covers.

pub mod features;
mod grid;
mod predictor;
mod random;

pub use grid::{grid_search_budgeted, TuneBudget, TuneResult};
pub use predictor::{Predictor, PredictorConfig};
pub use random::random_candidates;
