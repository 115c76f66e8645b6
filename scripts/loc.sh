#!/usr/bin/env bash
# The size figures ROADMAP quotes, counted the same way every time
# (`wc -l` over tracked and untracked *.rs files; target/ and bench_e2e/
# are not under these roots). Prints only; nothing is gated on it.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

printf '%-48s %7d\n' "rust lines, crates/ + src/:" "$(lines crates src)"
printf '%-48s %7d\n' "rust lines, crates/ + src/ + tests/ + examples/:" "$(lines crates src tests examples)"
for crate in crates/*/; do
    printf '  %-18s %6d\n' "$crate" "$(lines "$crate")"
done
printf '  %-18s %6d\n' src/ "$(lines src)"
printf '  %-18s %6d\n' tests/ "$(lines tests)"
printf '  %-18s %6d\n' examples/ "$(lines examples)"
printf '%-48s %7d\n' "DESIGN.md bytes:" "$(wc -c <DESIGN.md)"

# `pub` fields of the config structs pinned by
# `config::tests::option_surface_is_pinned`.
fields() { # <file> <struct>
    awk -v s="pub struct $2 {" '$0 == s {on = 1; next} on && /^}/ {exit} on && /^    pub / {n++} END {print n + 0}' "$1"
}
total=0
for spec in core/src/config.rs:GinjaConfig \
    core/src/config.rs:IngestConfig cloud/src/resilient.rs:RetryConfig; do
    n=$(fields "crates/${spec%%:*}" "${spec##*:}")
    printf '  %-18s %6d\n' "${spec##*:}" "$n"
    total=$((total + n))
done
printf '%-48s %7d\n' "pub config fields:" "$total"

# `pub` fields of the metrics surface (ROADMAP item 10): the stats
# snapshot, each snapshot nested in it, `Exposure`, and the standby's
# own snapshot.
for spec in core/src/stats.rs:GinjaStatsSnapshot \
    core/src/stats.rs:IngestSnapshot core/src/stats.rs:LatencySnapshot \
    core/src/ginja.rs:Exposure standby/src/stats.rs:StandbySnapshot; do
    printf '  %-18s %6d\n' "${spec##*:}" "$(fields "crates/${spec%%:*}" "${spec##*:}")"
done
