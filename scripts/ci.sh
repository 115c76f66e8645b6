#!/usr/bin/env bash
# CI gate: formatting, lints, tests. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."
# Dependencies are vendored (`vendor/`, patched in the root manifest):
# every cargo call below must resolve them without a registry.
export CARGO_NET_OFFLINE=true

cargo fmt --check
# Also the unsafe gate: ginja-codec denies `unsafe_code` outside `hw` and
# `kdf`'s zeroing, and every `unsafe` block must carry a `// SAFETY:` line
# (`clippy::undocumented_unsafe_blocks`); ginja-core forbids `unsafe`.
cargo clippy --workspace --all-targets -- -D warnings
# `default-members` makes this the whole workspace: the facade's
# integration tests plus every crate's unit tests and proptests.
cargo test -q
# The DR-sentinel acceptance scenario, run on its own so a chaos
# regression is unmissable in the log.
cargo test -q --test sentinel_chaos -- --nocapture
# A bounded CrashFs crash-point sweep over both DBMS profiles: every
# third mutating local I/O becomes a kill point (clean + torn), and
# each survivor must recover locally, from the cloud, and via reboot.
cargo run -q --release --bin ginja-cli -- crashtest --profile postgres --ops 6 --stride 3
cargo run -q --release --bin ginja-cli -- crashtest --profile mysql --ops 6 --stride 3 --seed 7
# Bench smoke (small time scale): the codec and commit-queue micro-benches.
GINJA_BENCH_SCALE=0.02 cargo bench -q -p ginja-bench --bench codec_micro
cargo bench -q -p ginja-bench --bench queue_micro
# Budget-governor smoke: fixed B vs. governed under bursty TPC-C — the
# governed run must land under its budget without touching the safety
# bound, and its bucket must still recover (DESIGN.md §13).
# Output paths are absolute: cargo runs bench binaries with the
# package directory (crates/bench) as cwd, not the repo root.
GINJA_BENCH_SCALE=0.02 BENCH_PR6_OUT="$PWD/BENCH_PR6.json" \
    cargo bench -q -p ginja-bench --bench ablation_budget
test -s BENCH_PR6.json
# The offline planning view of the same policy must run clean.
cargo run -q --release --bin ginja-cli -- budget 1.0 10 1000 --batch 10 --safety 2000 > /dev/null
# Fleet smoke: three TPC-C tenants over one bucket / executor / budget —
# must attach, arbitrate, scrub clean, and recover every tenant with
# zero acked loss and spend under budget (DESIGN.md §14).
cargo run -q --release --bin ginja-cli -- fleet --tenants 3 --txns 30 | grep -q "fleet OK"
# Fair-share ablation: eight tenants on one shared width-8 executor vs.
# eight width-1 pools — worst-tenant p99 must stay within 2x best.
GINJA_BENCH_SCALE=0.02 BENCH_PR7_OUT="$PWD/BENCH_PR7.json" \
    cargo bench -q -p ginja-bench --bench ablation_fleet
test -s BENCH_PR7.json
# Outage-endurance smoke (DESIGN.md §15): the chaos suite (backlog
# bounded by S with the DBMS blocked there, crash-mid-outage healed by
# reboot resync, fleet neighbor isolation) and the operator drill.
cargo test -q --test outage
cargo run -q --release --bin ginja-cli -- outage --rows 120 | grep -q "outage drill PASSED"
# Warm-standby smoke (DESIGN.md §17): the chaos acceptance suite
# (outage-riding tail, mid-outage promotion bounded by S, promoted
# shadow byte-equal to cold recovery), the operator drill, and the
# cold-vs-promotion ablation, which asserts the >=3x RTO cut at the
# largest database size.
cargo test -q --test standby
cargo run -q --release --bin ginja-cli -- standby --rows 80 --waves 4 --promote | grep -q "standby drill PASSED"
GINJA_BENCH_SCALE=0.02 BENCH_PR10_OUT="$PWD/BENCH_PR10.json" \
    cargo bench -q -p ginja-bench --bench ablation_standby
test -s BENCH_PR10.json
# The benchmark is a package of its own outside the workspace: keep it
# compiling against core and passing its own checks, so an internal
# rename fails here and not at the next benchmark run. `--locked` makes
# its crate graph a tripwire: a dependency change in any crate it links
# fails here instead of silently rewriting bench_e2e/Cargo.lock.
cargo test -q --offline --locked --manifest-path bench_e2e/Cargo.toml
cargo run --release --offline --locked --quiet --manifest-path bench_e2e/Cargo.toml -- --smoke > /dev/null
# Size and option-surface figures, printed for the log (nothing gated).
scripts/loc.sh
