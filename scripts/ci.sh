#!/bin/sh
# The tier-1 gate: formatting, release build (library, binaries, and
# examples), and the test suite of every workspace member — including
# the dependence differential oracle (`hierarchy_oracle`: fast path ==
# general tester at 1 and 8 threads over every workload and synth60),
# the engine oracle (`vm_oracle`: VM == tree walk, serially, at 8
# workers and under validation), the validate verdicts
# (`validate_dynamic`), the server oracle (`tests/server.rs`: 8
# concurrent clients byte-identical to `oracle_replay`, 1024 sessions
# over 32 connections), the scalar-store check (`tests/incremental.rs`),
# the interning goldens (`interning_oracle`) and the single-build gate
# (`build_counts`).
set -e
cd "$(dirname "$0")/.."
cargo fmt --all -- --check
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# ped-lint self-check over the examples/ fixtures: the clean fixtures
# must pass even with warnings denied, and the seeded racy fixture must
# be caught (nonzero exit).
./target/release/ped-lint --deny-warnings \
    examples/fortran/saxpy.f examples/fortran/reduction.f
if ./target/release/ped-lint examples/fortran/recurrence.f >/dev/null; then
    echo "ci: ped-lint failed to flag examples/fortran/recurrence.f" >&2
    exit 1
fi
echo "ci: ped-lint self-check passed"

# Auto-parallelizer gate: ped-par over every workload (plus synth60)
# must classify all nests, and every emitted CDOALL must survive its
# differential gate — 1 worker vs 8, byte-identical output lines, zero
# shadow-tracker races, no demotions.
./target/release/ped-par --smoke
echo "ci: ped-par smoke passed"

# Batch-driver gate: the persistent-cache smoke over a 30-program
# synthetic corpus — disk-warm and corruption-recovery runs must render
# byte-identical bodies to the cold run, warm runs must be answered
# from disk, and vandalized cache entries must recompute and self-heal.
./target/release/ped-batch --smoke
echo "ci: ped-batch persistent-cache smoke passed"

# Benchmark-artifact gate: every BENCH_*.json that EXPERIMENTS.md
# refers to must exist at the repo root (a missing artifact means a
# bench run was skipped or its output was never committed).
for b in $(grep -o 'BENCH_[0-9]*\.json' EXPERIMENTS.md | sort -u); do
    if [ ! -f "$b" ]; then
        echo "ci: EXPERIMENTS.md references $b but it does not exist" >&2
        exit 1
    fi
done
echo "ci: benchmark artifacts present"
