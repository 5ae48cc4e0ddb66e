//! The committed `results/sweep.json` (behind Figs. 1, 13, 14, 15) must
//! match what the code measures today. This lives in its own test binary:
//! the library's `tiny_sweep_runs` sets `UGRAPHER_SCALE`, which would race
//! the default-scale re-measurement here.

use ugrapher_bench::load_json;
use ugrapher_bench::sweep::{sweep_is_current, SweepResult};

#[test]
fn committed_sweep_cache_is_current() {
    assert!(
        std::env::var_os("UGRAPHER_SCALE").is_none()
            && std::env::var_os("UGRAPHER_QUICK").is_none(),
        "the committed sweep is at the default scale; unset UGRAPHER_SCALE and UGRAPHER_QUICK"
    );
    let cached: SweepResult = load_json("sweep").expect("results/sweep.json parses");
    assert!(!cached.cells.is_empty(), "results/sweep.json has no cells");
    assert!(
        sweep_is_current(&cached),
        "results/sweep.json is stale: regenerate it with \
         `cargo run --release -p ugrapher-bench --bin fig13_end_to_end`"
    );
}
