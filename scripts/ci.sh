#!/usr/bin/env bash
# Local CI gate: formatting, lints, tier-1 build + tests, full workspace
# tests. Run from anywhere; exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, no deps, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== static analyzer: registry sweep (IR verifier + dynamic race check) =="
sweep_json="$(mktemp)"
cargo run --release -p ugrapher-analyze --bin analyze-registry -- --progress=200 --json > "$sweep_json"
# The JSON report must confirm a clean sweep with full verifier coverage:
# every combo bounds-proved and every combo carrying a determinism label.
python3 - "$sweep_json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
combos = r["combos_checked"]
labels = sum(r["determinism"].values())
assert r["clean"], f'sweep not clean: {r["findings"]}'
assert r["bounds_proved"] == combos, f'{r["bounds_proved"]} bounds proofs for {combos} combos'
assert labels == combos, f'{labels} determinism labels for {combos} combos'
print(f'sweep JSON ok: {combos} combos, {r["bounds_proved"]} bounds proofs, '
      f'{labels} determinism labels, trace_id={r["trace_id"]}')
EOF
rm -f "$sweep_json"

echo "== observability: profile_gcn under tracing + trace-check =="
trace_dir="$(mktemp -d)"
UGRAPHER_TRACE="$trace_dir/trace.json" cargo run --release --example profile_gcn >/dev/null
cargo run --release -p ugrapher-obs --bin trace-check -- "$trace_dir/trace.json"
UGRAPHER_TRACE="$trace_dir/trace.jsonl" cargo run --release --example profile_gcn >/dev/null
cargo run --release -p ugrapher-obs --bin trace-check -- "$trace_dir/trace.jsonl"
rm -rf "$trace_dir"

# The smoke runs below rewrite the committed results/BENCH_serving.json
# and the `smoke` slots of BENCH_sim.json and BENCH_exec.json, and the
# tbl09 step rewrites results/tbl09.json. Keep a copy and put it back on
# exit, so a CI run leaves the tree as it found it.
bench_files=(results/BENCH_serving.json results/BENCH_sim.json results/BENCH_exec.json
  results/tbl09.json)
bench_snapshot="$(mktemp -d)"
cp "${bench_files[@]}" "$bench_snapshot/"
restore_bench_files() {
  for f in "${bench_files[@]}"; do
    cp "$bench_snapshot/$(basename "$f")" "$f"
  done
  rm -rf "$bench_snapshot"
}
trap restore_bench_files EXIT

echo "== serving: serve_bench --smoke + BENCH_serving.json gate =="
cargo run --release -p ugrapher-bench --bin serve_bench -- --smoke >/dev/null
# The serving benchmark must produce a parseable report showing the plan
# cache actually engaged (the binary itself asserts the >=5x warm/cold
# and >=90% hit-rate acceptance bars).
python3 - results/BENCH_serving.json <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
hit_rate = r["cache"]["hit_rate"]
speedup = r["warm_over_cold_speedup"]
assert hit_rate > 0, "plan cache never hit"
assert r["cache"]["hits"] > 0 and r["cache"]["misses"] > 0
assert r["warm"]["requests"] > r["cold"]["requests"]
print(f'serving JSON ok: hit rate {hit_rate:.1%}, warm/cold speedup {speedup:.1f}x, '
      f'{r["warm"]["requests"]} warm requests p99={r["warm"]["p99_ms"]:.2f}ms')
EOF

echo "== simulator: sim_bench --smoke + BENCH_sim.json shape =="
cargo run --release -p ugrapher-bench --bin sim_bench -- --smoke >/dev/null
# Shape only: wall-clock figures vary by host, so no threshold is applied.
python3 - results/BENCH_sim.json <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
def quartiles(obj, key):
    # Every figure is a median stored with its quartiles over repetitions.
    assert 0 < obj[f"{key}_q1"] <= obj[key] <= obj[f"{key}_q3"], (key, obj)
for slot in ("before", "after", "smoke"):
    run = r[slot]
    assert run["cells"], f"{slot}: no cells"
    for c in run["cells"]:
        assert {"device", "schedule", "graph", "vertices", "edges"} <= c.keys(), c
        assert c["measure_us"] > 0, c
        quartiles(c, "measure_us")
    assert run["mean_measure_us"] > 0
    quartiles(run, "mean_measure_us")
    assert run["grid_search"]["candidates"] == 196
    assert run["grid_search"]["ms"] > 0
    quartiles(run["grid_search"], "ms")
    # Distinct kernels simulated; the parent-commit `before` run predates it.
    if slot != "before":
        assert 0 < run["grid_search"]["measured"] <= 196, run["grid_search"]
    # One entry per process run recorded into the slot.
    assert run["runs"], f"{slot}: no runs"
    for entry in run["runs"]:
        for key in ("mean_measure_us", "grid_search_ms"):
            quartiles(entry, key)
assert r["smoke"]["smoke"] is True
for key in ("mean_measure_us", "grid_search_ms"):
    assert r["after_over_before"][key] > 0, key
    assert isinstance(r["iqr_overlap"][key], bool), key
print(f'sim JSON ok: {len(r["smoke"]["cells"])} smoke cells, '
      f'{r["smoke"]["mean_measure_us"]:.1f} us/measure, '
      f'grid search {r["smoke"]["grid_search"]["ms"]:.1f} ms')
EOF

echo "== functional executor: exec_bench --smoke + BENCH_exec.json shape =="
cargo run --release -p ugrapher-bench --bin exec_bench -- --smoke >/dev/null
# Shape only: wall-clock figures vary by host, so no threshold is applied.
python3 - results/BENCH_exec.json <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
ops = {"weighted_sum", "message_add", "mean", "max"}
def quartiles(obj, key):
    # Every figure is a median stored with its quartiles over repetitions.
    assert 0 < obj[f"{key}_q1"] <= obj[key] <= obj[f"{key}_q3"], (key, obj)
admit_parts = ("first_admit_us", "admit_us", "fingerprint_us", "validate_us",
               "degree_stats_us", "finite_us")
gemm_shapes = {(5000, 32, 16, "dense"), (5000, 16, 8, "relu"), (1000, 32, 64, "dense"),
               (1000, 64, 64, "relu"), (1000, 64, 8, "relu")}
# The same shapes with the rhs kind, plus one rhs holding an infinity (the
# zero-skip kernels).
gemm_cells = sorted([(m, k, n, lhs, "finite") for (m, k, n, lhs) in gemm_shapes]
                    + [(1000, 64, 64, "relu", "nonfinite")])
for slot in ("before", "after", "smoke"):
    run = r[slot]
    assert {c["op"] for c in run["execute"]} == ops, f"{slot}: ops"
    for c in run["execute"]:
        assert {"graph", "vertices", "edges"} <= c.keys(), c
        assert c["execute_us"] > 0, c
        quartiles(c, "execute_us")
    assert run["admit"], f"{slot}: no admission cells"
    for c in run["admit"]:
        assert c["admit_us"] > 0, c
        # First admission (empty memo) and repeat admission (memo hit),
        # each beside the un-memoised parts.
        for key in admit_parts:
            quartiles(c, key)
    assert run["feat"] == 32 and run["mean_execute_us"] > 0 and run["mean_admit_us"] > 0
    for key in ("mean_execute_us", "mean_first_admit_us", "mean_admit_us"):
        quartiles(run, key)
    # Dense GEMM at the gnn-infer layer shapes.
    assert {(c["m"], c["k"], c["n"], c["lhs"]) for c in run["gemm"]} == gemm_shapes, slot
    assert sorted((c["m"], c["k"], c["n"], c["lhs"], c["rhs"]) for c in run["gemm"]) == gemm_cells, slot
    # The instruction-set tier the host kernels ran at.
    assert run["host_isa"] in ("portable", "avx2"), (slot, run["host_isa"])
    for c in run["gemm"]:
        quartiles(c, "gemm_us")
    quartiles(run, "mean_gemm_us")
    # One entry per process run recorded into the slot.
    assert run["runs"], f"{slot}: no runs"
    for entry in run["runs"]:
        quartiles(entry, "mean_gemm_us")
assert r["smoke"]["smoke"] is True
for key in ("mean_execute_us", "mean_first_admit_us", "mean_admit_us"):
    assert r["after_over_before"][key] > 0, key
    assert isinstance(r["iqr_overlap"][key], bool), key
assert r["after_over_before"]["mean_gemm_us"] > 0
assert isinstance(r["iqr_overlap"]["mean_gemm_us"], bool)
print(f'exec JSON ok: {len(r["smoke"]["execute"])} smoke cells, '
      f'{r["smoke"]["mean_execute_us"]:.1f} us/execute, '
      f'{r["smoke"]["mean_admit_us"]:.1f} us/admission')
EOF

echo "== results: deterministic figure bins reproduce results/*.txt =="
# Bins that write no file and print no wall-clock time, at the default
# scale. A change that moves any simulated number must regenerate these
# (scripts/run_all_figures.sh) in the same commit.
for bin in tbl02_operator_census tbl03_datasets tbl04_op_registry \
    tbl05_strategy_coverage tbl06_tradeoffs fig03_dgl_limits \
    fig07_strategy_variation fig16_metrics fig17_basic_vs_optimal \
    fig18_group_tile_sweep fig19_renumbering calibration ablations; do
  env -u UGRAPHER_SCALE -u UGRAPHER_QUICK \
    cargo run --release --quiet -p ugrapher-bench --bin "$bin" | diff -u "results/$bin.txt" - \
    || { echo "results/$bin.txt differs from $bin's output"; exit 1; }
done
echo "results ok"

echo "== results: tbl09_optimal_strategies reproduces results/tbl09* =="
# The one figure bin that searches with a scalar operand. It rewrites
# results/tbl09.json, so that file is compared with the snapshot above.
env -u UGRAPHER_SCALE -u UGRAPHER_QUICK \
  cargo run --release --quiet -p ugrapher-bench --bin tbl09_optimal_strategies \
  | diff -u results/tbl09_optimal_strategies.txt - \
  || { echo "results/tbl09_optimal_strategies.txt differs from tbl09_optimal_strategies's output"; exit 1; }
cmp "$bench_snapshot/tbl09.json" results/tbl09.json \
  || { echo "results/tbl09.json differs from the committed file"; exit 1; }
echo "tbl09 ok"

echo "== simulator + codegen: registry-wide golden digests =="
cargo test --release -p ugrapher-core --test sim_golden -- --ignored

echo "== benchmark self-test: perfbench (hit rates, stage coverage, sim_time_ms repeatability) =="
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "CI gate passed."
