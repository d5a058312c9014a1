#!/usr/bin/env bash
# Tier-1 gate: release build, the machine and core crates' format checks, lint
# wall, full workspace test suite, the
# perf binary's golden check (simulated results must match
# BENCH_parsched.json bit-exactly — fault plans default to empty, so this
# also pins that the fault layer costs nothing when unused), a
# fault-injection smoke gate (one crash and one flaky-link scenario per
# policy class, run twice with the oracle's invariant checkers on and
# bit-identical replay asserted), a sharded-execution smoke gate (one
# K = 2 run per eligibility class — uncoordinated time-sharing, static,
# hybrid MPL-2, MPL-capped static, crash + flaky-link fault plan — each
# bit-identical to sequential and rerun deterministically; 8-job batches
# on a 4096-node torus, the 65 792-node SAF torus and one flit-switched
# t4k case per topology family must collapse to one shard with the
# reason recorded; a 4096-node static torus and a wormhole fat-tree whose
# batches reach both shards must shard bit-identically; ineligible
# configs fall back with a reason), an open-system smoke gate (Poisson and heavy-tailed
# arrival cells per policy class replay bit-identically and the
# mean-response curve is monotone in offered load), and a trace-export
# smoke run. The perf golden check also pins the shard_scale_* cells,
# the 1024-node t1k_* cells, and the ~4096-node t4k_* wormhole-vs-
# store-and-forward cells, asserting each family's sequential/2-shard/
# 4-shard goldens are bit-equal, so sharded simulated results are gated
# there too. The repository benchmark then runs once at full size
# (`benchmark --workload all --seed 88 --seconds 1`): its oracle check of
# every workload and its default-shards-equals-K = 1 check gate here. A 16k-node smoke gate (`scale --smoke`) constructs and
# routes a 128x128 torus, runs one short wormhole batch at 16 384 nodes,
# and drives an observed run on a 70 225-node machine whose traffic must
# cross the old 65 536 node-index ceiling — no goldens, just the widened
# u32 index paths end to end. The heavier t16k_*/t64k_* perf cells are
# pinned in BENCH_parsched.json but gated behind `perf --heavy` so the
# standard tier-1 wall-clock stays flat.
# Everything runs offline; no network access required.
#
#   scripts/tier1.sh             the standard gate
#   scripts/tier1.sh tier1-full  also runs the long differential-oracle
#                                sweep (hundreds of randomized scenarios —
#                                roughly a third draw non-empty fault
#                                plans — through both engines; see
#                                TESTING.md). ORACLE_CASES / ORACLE_SEED
#                                override the sweep size and root seed. A
#                                failing case prints its replay line and
#                                dumps the full report under target/repro/.
#                                Wormhole cases also run on the flit
#                                reference path and every case on the slice
#                                reference path; the sweep prints how many
#                                worms went express, were materialized, or
#                                ran flit by flit (by reason), and how the
#                                CPUs used their express path (windows,
#                                slices skipped, settles and declines by
#                                reason, same-instant ties by which event
#                                came first). Under the default seed it
#                                fails if no worm was materialized or no
#                                tie went to the other event first.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-tier1}"

cargo build --release --workspace
cargo fmt -p parsched-machine -- --check
cargo fmt -p parsched-core -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace
cargo run --release -p parsched-bench --bin perf -- --check --quick
# The repository benchmark's own verification at full size: every
# workload's cells must match the differential oracle bit for bit, and
# saf64k's default shard count must reproduce K = 1. One second of timing
# per workload; the numbers are not gated here.
cargo run --release -p parsched-bench --bin benchmark -- \
    --workload all --seed 88 --seconds 1 --trace 0
cargo run --release -p parsched-bench --bin faults -- --smoke
cargo run --release -p parsched-bench --bin shards -- --smoke
cargo run --release -p parsched-bench --bin arrivals -- --smoke
cargo run --release -p parsched-bench --bin scale -- --smoke

if [ "$mode" = "tier1-full" ]; then
    ORACLE_CASES="${ORACLE_CASES:-480}" \
        cargo test --release -q -p parsched-oracle --test differential \
        -- --include-ignored --nocapture differential_sweep_full
fi

# Trace smoke: the observability pipeline end-to-end — instrumented 16H
# run, Chrome-trace JSON + metrics CSV land in a scratch directory.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run --release -p parsched-bench --bin trace -- 16H --out-dir "$trace_dir"
test -s "$trace_dir/trace_16H_ts.json"
test -s "$trace_dir/metrics_16H_ts.csv"

echo "tier1: OK"
