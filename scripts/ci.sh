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
# A bounded CrashFs crash-point sweep over both DBMS profiles: every
# third mutating local I/O becomes a kill point (clean + torn), and
# each survivor must recover locally, from the cloud, and via reboot.
cargo run -q --release --bin ginja-cli -- crashtest --profile postgres --ops 6 --stride 3
cargo run -q --release --bin ginja-cli -- crashtest --profile mysql --ops 6 --stride 3 --seed 7
# Deeper exhaustive sweeps (every crash point of a 24-step workload,
# under a second each): they reach the reboot after a crash that cut a
# checkpoint between its page flushes and its upload.
cargo run -q --release --bin ginja-cli -- crashtest --profile postgres --ops 24 --stride 1 --seed 1
cargo run -q --release --bin ginja-cli -- crashtest --profile postgres --ops 24 --stride 1 --seed 2
cargo run -q --release --bin ginja-cli -- crashtest --profile postgres --ops 24 --stride 1 --seed 3
cargo run -q --release --bin ginja-cli -- crashtest --profile mysql --ops 24 --stride 1 --seed 1
cargo run -q --release --bin ginja-cli -- crashtest --profile mysql --ops 24 --stride 1 --seed 2
cargo run -q --release --bin ginja-cli -- crashtest --profile mysql --ops 24 --stride 1 --seed 3
# Bench smoke (small time scale): the codec and commit-queue micro-benches.
GINJA_BENCH_SCALE=0.02 cargo bench -q -p ginja-bench --bench codec_micro
cargo bench -q -p ginja-bench --bench queue_micro
# Outage-endurance smoke (DESIGN.md §15): the chaos suite (backlog
# bounded by S with the DBMS blocked there, crash-mid-outage healed by
# reboot resync) and the operator drill.
cargo test -q --test outage
cargo run -q --release --bin ginja-cli -- outage --rows 120 | grep -q "outage drill PASSED"
# Warm-standby smoke (DESIGN.md §17): the chaos acceptance suite
# (outage-riding tail, mid-outage promotion bounded by S, promoted
# shadow byte-equal to cold recovery), the operator drill, and the
# cold-vs-promotion ablation, which asserts the >=3x RTO cut at the
# largest database size. Output paths are absolute: cargo runs bench
# binaries with the package directory (crates/bench) as cwd, not the
# repo root.
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
