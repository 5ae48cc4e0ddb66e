//! Schedule tuning (paper §5.4).
//!
//! Two ways to pick a schedule for an `(operator, graph)` pair:
//!
//! * [`grid_search`] — measure every point of the
//!   [`crate::schedule::ParallelInfo::space`] on the simulator (each
//!   distinct kernel once) and keep the fastest (the paper's ground truth,
//!   "days of time" on real hardware, affordable here thanks to
//!   [`crate::exec::Fidelity::Auto`]'s sampled tracing). A [`TuneBudget`]
//!   caps how many candidates a search covers;
//! * [`Predictor`] — a GBDT trained on randomly generated graphs that maps
//!   (graph features, operator info, schedule) to predicted log-time and
//!   picks the argmin (the paper's LightGBM model, Table 7; validated
//!   against grid search in Fig. 12). Its training times come from the
//!   same grid search, so [`grid_search_budgeted`] is the one place a
//!   candidate list is turned into measured times.

pub mod features;
mod grid;
mod predictor;
mod random;

pub use grid::{
    grid_search, grid_search_budgeted, grid_search_shaped, grid_search_space, TuneBudget,
    TuneResult,
};
pub use predictor::{Predictor, PredictorConfig};
pub use random::random_search;
