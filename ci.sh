#!/usr/bin/env bash
# Local CI: formatting, lints, then the tier-1 gate (release build + root
# test suite). Run from the repository root. Any failure stops the script.
#
#   ./ci.sh            # everything
#   ./ci.sh --quick    # skip the release build (lints + tests only)

set -euo pipefail
cd "$(dirname "$0")"

quick=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        *)
            echo "unknown option: $arg" >&2
            exit 2
            ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The network layer must never panic on a send path: deny unwrap in
# non-test coral-net code (--lib excludes #[cfg(test)] modules).
echo "==> cargo clippy -p coral-net --lib (deny unwrap_used)"
cargo clippy -p coral-net --lib -- -D warnings -D clippy::unwrap-used

# The evaluation layer is itself a gate; keep it strictly lint-clean.
echo "==> cargo clippy -p coral-eval (deny warnings)"
cargo clippy -p coral-eval --all-targets -- -D warnings

# The observability layer is what operators trust during an incident;
# keep it strictly lint-clean too.
echo "==> cargo clippy -p coral-obs (deny warnings)"
cargo clippy -p coral-obs --all-targets -- -D warnings

# Perf-lint gate for the tick hot path: the sparse stepper and the flat
# vision kernels must stay allocation-lean, so deny the lints that catch
# accidental re-introduction of per-tick churn.
echo "==> cargo clippy -p coral-core -p coral-vision (perf lints)"
cargo clippy -p coral-core -p coral-vision --all-targets -- \
    -D warnings -D clippy::needless_collect -D clippy::large_enum_variant

# The scenario engine defines the hard-suite ground truth; keep it
# strictly lint-clean.
echo "==> cargo clippy -p coral-sim (deny warnings)"
cargo clippy -p coral-sim --all-targets -- -D warnings

# The storage crate is the concurrent query-serving plane (sharded locks,
# snapshots); keep it strictly lint-clean on its own.
echo "==> cargo clippy -p coral-storage (deny warnings)"
cargo clippy -p coral-storage --all-targets -- -D warnings

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [ "$quick" -eq 0 ]; then
    echo "==> cargo build --release"
    cargo build --release
fi

# Every crate's own unit, integration and property tests; the root
# package's suite runs next.
echo "==> cargo test -q --workspace --exclude coral-pie"
cargo test -q --workspace --exclude coral-pie

echo "==> cargo test -q"
cargo test -q

# Ops-plane smoke: a threaded deployment with the live HTTP endpoint —
# /metrics and /healthz answer, health is OK on clean links and degrades
# (non-OK retransmit-rate finding) on a lossy network.
echo "==> ops endpoint smoke (threaded)"
cargo test -q --test ops_endpoint

# Seeded chaos matrix: the self-healing bound must hold under every
# pinned fault seed (each test wires a different FaultPlan seed).
for seed in a b c; do
    echo "==> chaos matrix: fault seed ${seed}"
    cargo test -q --test chaos_self_healing "chaos_recovery_seed_${seed}"
done

# Federation gates: a whole-region partition (topology server + edge
# store dark for 30 s of sim time) must be journaled, fail the orphaned
# cameras over onto the survivor, heal within twice the heartbeat-miss
# deadline, and lose no committed trajectory edge — per pinned fault
# seed (seed a also matches a literal two-region fingerprint). The pinned
# single-region fingerprint holds a one-region chaos run to literal
# delivery, event and storage counts; the replica-convergence proptests
# prove the union view is delivery-order-insensitive; the ops test pins
# /healthz flipping CRITICAL for exactly the dead region.
for seed in a b c; do
    echo "==> federation chaos matrix: fault seed ${seed}"
    cargo test -q --test federation_chaos "region_kill_seed_${seed}"
done
echo "==> pinned single-region fingerprint"
cargo test -q --test federation_chaos single_region_fingerprint_is_pinned
echo "==> federation replica-convergence proptests"
cargo test -q -p coral-storage --test proptest_replica_convergence
echo "==> federation ops visibility"
cargo test -q --test ops_plane region_partition_flips_health_for_exactly_the_dead_region
if [ "$quick" -eq 0 ]; then
    echo "==> federation city-grid partition (release)"
    cargo test -q --release --test federation_chaos -- --ignored
    echo "==> exp_region_failover accuracy/recovery gate (smoke)"
    CORAL_FEDERATION_SMOKE=1 cargo run --release -p coral-bench --bin exp_region_failover
fi

# Accuracy regression gates: replay corridor scenarios, score against the
# simulator's ground-truth log, and diff MOTA/IDF1/per-camera F2 against
# the checked-in goldens (tolerance +/-0.02; counts and seeds exact).
# Bless intentional metric changes with CORAL_EVAL_BLESS=1. The ignored
# matrix widens coverage to 3 corridor widths x 2 seeds.
echo "==> eval smoke + golden drift gate"
cargo test -q -p coral-eval
echo "==> eval matrix: 3 scenarios x 2 seeds"
cargo test -q -p coral-eval --test smoke -- --ignored

# Hard-suite accuracy gate: the four city-scale adversarial regimes must
# run, keep at least one headline score strictly inside the informative
# (0.7, 0.995) band — below saturation, above collapse — and match their
# checked-in goldens within +/-0.02 (counts exact). Release only: each
# scenario simulates a 10x10 city for 8 minutes of traffic. Bless
# intentional metric changes with CORAL_EVAL_BLESS=1.
if [ "$quick" -eq 0 ]; then
    echo "==> hard-suite accuracy gate (release)"
    cargo test -q --release -p coral-eval --test hard_suite -- --ignored
fi

# Storage plane gates: shard-vs-flat equivalence and redelivery
# invariance (property tests), snapshot round-trips with typed corruption
# errors, and the writer/reader stress race (deadlock watchdog, torn-read
# checks, sequential-equivalence fingerprint). All three also run inside
# `cargo test -q`; the explicit invocations keep the gate legible and
# fail fast with a named stage.
echo "==> storage equivalence proptests"
cargo test -q -p coral-storage --test proptest_shard_equivalence
echo "==> storage snapshot round-trip + corruption typing"
cargo test -q -p coral-storage --test snapshot_roundtrip
echo "==> storage concurrency stress"
cargo test -q --test storage_concurrency

# Stepping-equivalence matrix: every run must fingerprint byte-identically
# in every stepping mode. The debug step runs the corridor and grid matrix
# (test names containing "corridor"): 12 scenarios x 3 seeds x 4 modes,
# dense stepping on 2 workers (the oracle) against sparse stepping on 1, 2
# and 8 workers, 144 runs. The release step runs every ignored test in the
# file: that matrix again (144 runs, guarding against
# optimisation-dependent divergence), the hard-regime seed matrix (4
# miniature regimes plus the smoke spec x 3 seeds x dense on 1 worker, its
# repeat and sparse on 1 worker, 45 runs; a second seed must change the
# run) and the four 10x10 city regimes at seed 42 (12 runs). The tier-1
# smoke subset (15 corridor and 12 miniature-regime runs) already ran in
# `cargo test -q`.
echo "==> stepping equivalence: corridor and grid matrix (debug)"
cargo test -q --test stepping_equivalence corridor -- --ignored
if [ "$quick" -eq 0 ]; then
    echo "==> stepping equivalence: every matrix (release)"
    cargo test -q --release --test stepping_equivalence -- --ignored
fi

# Incremental MDCS equivalence: the topology server's footprint-selected
# recompute must match a full-recompute oracle update for update, and the
# iterative search kernel the recursive DFS it replaced (the default case
# count already ran with the workspace tests).
if [ "$quick" -eq 0 ]; then
    echo "==> incremental MDCS equivalence proptests (release, 1024 cases)"
    PROPTEST_CASES=1024 cargo test -q --release -p coral-topology --test incremental_equivalence
fi

# Row-kernel oracle: the span renderer, the table-driven bin kernel (at
# 1-8, 16 and 41 bins per channel) and the hoisted signature weights must
# match the per-pixel reference bit for bit (the default case count
# already ran with the workspace tests).
if [ "$quick" -eq 0 ]; then
    echo "==> row-kernel oracle proptests (release, 2048 cases)"
    PROPTEST_CASES=2048 cargo test -q --release -p coral-vision --test row_kernel_oracle
fi

# Sparse-signature oracle: the Bhattacharyya merge-join over non-zero
# bins must match the dense index-order sum bit for bit, and dense ->
# sparse -> dense must round-trip exactly (the default case count already
# ran with the workspace tests).
if [ "$quick" -eq 0 ]; then
    echo "==> sparse-signature oracle proptests (release, 2048 cases)"
    PROPTEST_CASES=2048 cargo test -q --release -p coral-vision --test sparse_signature_oracle
fi

# Signature-gating oracle: one accumulator per track, reset at its first
# clean frame, must emit the two-accumulator signature bit for bit and
# extract exactly the histograms that can reach it (the default case
# count already ran with the workspace tests).
if [ "$quick" -eq 0 ]; then
    echo "==> signature-gating oracle proptests (release, 2048 cases)"
    PROPTEST_CASES=2048 cargo test -q --release -p coral-vision --test signature_gating_oracle
fi

# Appearance-index oracle: the sharded store's pruned query-by-appearance
# must return the flat graph's full-scan results (ids, order and distance
# bits) for rendered, unnormalised, diffuse and mixed-bins signatures,
# after snapshot import and federation adoption too (the default case
# count already ran with the workspace tests).
if [ "$quick" -eq 0 ]; then
    echo "==> appearance-index oracle proptests (release, 2048 cases)"
    PROPTEST_CASES=2048 cargo test -q --release -p coral-storage --test appearance_index_oracle
fi

# Health-engine oracle: the cached-series evaluator must produce the same
# report JSON, journal bytes and overall verdict as the snapshot evaluator
# it replaced, kept in the test (the default case count already ran with
# the workspace tests).
if [ "$quick" -eq 0 ]; then
    echo "==> health-engine oracle (release, 4096 cases)"
    PROPTEST_CASES=4096 cargo test -q --release -p coral-obs --test health_oracle
fi

# Scale smoke: the 1000-camera deployment must build, warm past its join
# storm, and tick in both stepping modes (a few simulated seconds only;
# asserts sparse beats dense). Skipped in --quick (needs the release
# build).
if [ "$quick" -eq 0 ]; then
    echo "==> exp_speedup 1000-camera smoke"
    CORAL_SPEEDUP_ONLY=1000 CORAL_SPEEDUP_SECS=16 \
        cargo run --release -p coral-bench --bin exp_speedup
fi

# Storage query-plane smoke: readers race live 100-camera ingest on an
# 8-shard store; asserts a conservative qps floor. Full runs write
# BENCH_storage.json (see EXPERIMENTS.md). Skipped in --quick (needs the
# release build).
if [ "$quick" -eq 0 ]; then
    echo "==> exp_storage concurrent-query smoke"
    CORAL_STORAGE_SMOKE=1 cargo run --release -p coral-bench --bin exp_storage
fi

# Paper binaries: Tables 1 and 2, Figs. 10a, 10b, 11, 11 under chaos, 12a
# and 12b, the bandwidth comparison, scalability and the ablations must
# run to completion. exp_fig10a asserts every inform reaches its camera
# before the vehicle does, exp_bandwidth and exp_fig12b assert their paper
# properties, and exp_fig11_chaos writes the health and journal artifacts
# (~10 s in total, most of it exp_table1). Skipped in --quick (needs the
# release build).
if [ "$quick" -eq 0 ]; then
    for bin in exp_table1 exp_table2 exp_fig10a exp_fig10b exp_fig11 exp_fig11_chaos \
        exp_fig12a exp_fig12b exp_bandwidth exp_scalability exp_ablations; do
        echo "==> ${bin} (release)"
        cargo run -q --release -p coral-bench --bin "$bin"
    done
fi

# Examples: every one runs to completion (about 3 s in total). The
# threaded runtime runs three camera nodes on OS threads over the
# in-process router and over real loopback TCP sockets, and each of those
# two asserts the 3-camera track. The threaded one binds its ops endpoint
# to an ephemeral port so an occupied default port cannot fail it.
# Skipped in --quick (needs the release build).
if [ "$quick" -eq 0 ]; then
    for example in quickstart observability campus_self_healing suspicious_vehicle \
        pipeline_tuning tcp_cameras; do
        echo "==> ${example} example (release)"
        cargo run -q --release --example "$example"
    done
    echo "==> threaded_cameras example (release)"
    CORAL_OPS_ADDR=127.0.0.1:0 cargo run -q --release --example threaded_cameras
fi

# Offline track-break explanation (the README invocation): replays a
# camera kill through liveness and recovery and must attribute the lost
# visit to the camera outage. Skipped in --quick (needs the release
# build).
if [ "$quick" -eq 0 ]; then
    echo "==> obs_explain (release)"
    explain=$(cargo run -q --release --bin obs_explain -- \
        --vehicle 2 --camera 2 --vehicles 6 --kill 2:40:70)
    echo "$explain"
    grep -q "camera outage: cam2 killed" <<<"$explain"
fi

# The benchmark's own tests: metric arithmetic, argument parsing and a
# smoke run of every workload, checked against BENCHMARK.json. Skipped in
# --quick (release build of a separate package).
if [ "$quick" -eq 0 ]; then
    echo "==> perfbench tests (release)"
    cargo test -q --release --manifest-path perfbench/Cargo.toml
fi

# Criterion smoke: compile and run every bench once in test mode so the
# perf harness cannot rot silently.
echo "==> criterion smoke: every coral-bench bench target"
cargo bench -p coral-bench --benches -- --test

echo "==> ci.sh: all green"
