#!/usr/bin/env bash
# A/B the repo's benchmark: the working tree against <git-rev>.
#
#   scripts/bench_pairs.sh <git-rev> [pairs=10] [workload...]
#
# Builds <git-rev> (via `git archive`) under .bench_build/<sha>/ and the
# working tree in place, then runs the two bench_e2e binaries alternately
# — one seed per pair (SEED0, SEED0+1, ...; SEED0 defaults to 1), the
# side that goes first swapped each pair — and prints, per workload and
# end-to-end metric, both medians with quartiles, wins/pairs and a
# verdict against the bound in BENCHMARK.json:
#
#   improved      the change wins >= 9/10 of the pairs and the medians
#                 differ by more than the parent's interquartile distance
#   unresolved    the parent's own IQR/median exceeds the bound
#   regressed     the change's median is worse by more than the bound
#   within bound  otherwise
#
# Under each workload's table, every metric read "unresolved" or
# "regressed" is listed seed by seed with both sides' values, so a
# bimodal metric names the seeds of its slow mode.
#
# Two JSON lines (parent, change: medians + quartiles per metric per
# workload) are written to .bench_build/pairs-<sha>.jsonl — the format
# of BENCH_TRAJECTORY.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/bench_pairs.sh <git-rev> [pairs=10] [workload...]}"
pairs="${2:-10}"
shift $(($# < 2 ? $# : 2))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi
seed0="${SEED0:-1}"

sha="$(git rev-parse --short "$rev^{commit}")"
here="$(git rev-parse --short HEAD)$(git diff --quiet HEAD -- . ':!ISSUE.md' || echo +worktree)"
other=".bench_build/$sha"
if [ ! -x "$other/bench_e2e/target/release/bench_e2e" ]; then
    rm -rf "$other" && mkdir -p "$other"
    git archive "$sha" | tar -x -C "$other"
    cargo build --release --offline --locked --quiet --manifest-path "$other/bench_e2e/Cargo.toml"
fi
# `--locked`: a dependency change fails here instead of silently
# rewriting bench_e2e/Cargo.lock.
cargo build --release --offline --locked --quiet --manifest-path bench_e2e/Cargo.toml

out=".bench_build/pairs-$sha"
rm -rf "$out" && mkdir -p "$out"
declare -A bin=([parent]="$other/bench_e2e/target/release/bench_e2e" [change]=bench_e2e/target/release/bench_e2e)
for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((seed0 + i))
        echo "$workload pair $((i + 1))/$pairs seed $seed" >&2
        order=(parent change)
        ((i % 2)) && order=(change parent)
        for side in "${order[@]}"; do
            run="$out/$side-$workload-$seed"
            "${bin[$side]}" --workload "$workload" --seed "$seed" --json "$run.json" \
                >"$run.txt" 2>"$run.err" || echo "  $side $workload seed $seed: exit $? (see $run.err)" >&2
        done
    done
done

python3 - "$out" "$sha" "$here" "$seed0" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, sha, here, seed0, pairs = sys.argv[1:4] + [int(a) for a in sys.argv[4:6]]
workloads = sys.argv[6:]
spec = json.load(open("BENCHMARK.json"))["end_to_end"]
seeds = list(range(seed0, seed0 + pairs))


def load(side, workload, seed):
    try:
        return json.load(open(f"{out}/{side}-{workload}-{seed}.json"))
    except (OSError, ValueError):
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4, method="inclusive")


lines = {"parent": {}, "change": {}}
for workload in workloads:
    runs = [(load("parent", workload, s), load("change", workload, s)) for s in seeds]
    done = [(p, c) for p, c in runs if p and c]
    failed = {
        side: (sum(r[i]["failed"] for r in done), sum(r[i]["attempted"] for r in done))
        for i, side in enumerate(("parent", "change"))
    }
    print(f"\n### {workload} — {len(done)}/{pairs} pairs, seeds {seeds[0]}..{seeds[-1]}, "
          f"parent {sha} vs change {here}; failed/attempted "
          f"parent {failed['parent'][0]}/{failed['parent'][1]}, "
          f"change {failed['change'][0]}/{failed['change'][1]}\n")
    print("| metric | parent median [q1, q3] | change median [q1, q3] | worse by | wins | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    if not done:
        continue
    for side in lines:
        lines[side][workload] = {}
    done_seeds = [s for s, (p, c) in zip(seeds, runs) if p and c]
    per_seed = []
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [r[0]["metrics"][name]["value"] for r in done]
        c = [r[1]["metrics"][name]["value"] for r in done]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        for side, (q1, med, q3) in (("parent", (p1, pm, p3)), ("change", (c1, cm, c3))):
            lines[side][workload][name] = {"median": med, "q1": q1, "q3": q3}
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
        spread = (p3 - p1) / pm if pm else 0.0
        if wins >= 0.9 * len(done) and worse < 0 and abs(cm - pm) > p3 - p1:
            verdict = "improved"
        elif spread > metric["bound"]:
            verdict = f"unresolved (parent IQR/median {spread:.2f})"
        elif worse > metric["bound"]:
            verdict = "regressed"
        else:
            verdict = "within bound"
        print(f"| `{name}` | {pm:.4g} [{p1:.4g}, {p3:.4g}] | {cm:.4g} [{c1:.4g}, {c3:.4g}] "
              f"| {worse:+.1%} | {wins}/{len(done)} | {metric['bound']} | {verdict} |")
        if verdict.startswith(("unresolved", "regressed")):
            per_seed.append((name, p, c))
    for name, p, c in per_seed:
        print(f"\n`{name}` per seed (parent -> change):")
        for seed, a, b in zip(done_seeds, p, c):
            print(f"  seed {seed}: {a:.4g} -> {b:.4g}")

with open(f"{out}.jsonl", "w") as f:
    for side, rev in (("parent", sha), ("change", here)):
        f.write(json.dumps({"rev": rev, "side": side, "pairs": pairs, "seeds": seeds,
                            "workloads": lines[side]}) + "\n")
print(f"\nmedians and quartiles: {out}.jsonl", file=sys.stderr)
EOF
