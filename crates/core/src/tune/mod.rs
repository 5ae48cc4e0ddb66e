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
//!
//! A caller that reads only the winner, such as a
//! [`crate::api::Runtime`]'s plan-cache miss, uses the same engine's
//! winner-only entry point. It returns the same winner, report and
//! `illegal` count bit for bit, but stops tracing any kernel once a lower
//! bound that no cache state can move proves it slower than the best time
//! so far (see `grid.rs`). Sampled launches are never stopped.

pub mod features;
mod grid;
mod predictor;
mod random;

pub(crate) use grid::grid_search_winner;
pub use grid::{grid_search_budgeted, TuneBudget, TuneResult};
pub use predictor::{Predictor, PredictorConfig};
pub use random::random_candidates;
