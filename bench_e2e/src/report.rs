//! Output: one `name value unit` line per metric, and the one-line JSON
//! result the benchmark driver reads from the end of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec::{Metric, WORKLOADS};

/// `name value unit` lines, in table order.
pub fn metric_lines(table: &[Metric], values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = String::new();
    for m in table {
        if let Some(v) = values.get(m.name) {
            let _ = writeln!(out, "{} {} {}", m.name, number(*v), m.unit);
        }
    }
    out
}

/// A float as JSON accepts it, with all the digits it was measured to.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(
    table: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|m| {
            values.get(m.name).map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(*v),
                    m.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.join(", ")
    )
}

/// The contents of `/BENCHMARK.json`, from the tables in `spec`.
pub fn benchmark_json(run_seconds: u64) -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = crate::spec::END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let layers: Vec<String> = crate::spec::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"bench_e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"bench_e2e\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// The README's metric glossary (markdown tables), from `spec`.
pub fn glossary() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | layer | how it is measured |\n|---|---|---|---|---|---|\n",
    );
    for m in crate::spec::END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
            m.layer,
            m.how
        );
    }
    out.push_str(
        "\n| per-layer metric | unit | layer | how it is measured | should move |\n|---|---|---|---|---|\n",
    );
    for m in crate::spec::PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            m.name, m.unit, m.layer, m.how, m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    #[test]
    fn lines_and_json_carry_names_values_units() {
        let mut values = BTreeMap::new();
        values.insert("tps", 5521.25);
        values.insert("setup_s", 0.8127);
        values.insert("recover_s", f64::NAN);
        let lines = metric_lines(END_TO_END, &values);
        // Table order, not map order; only metrics that have a value.
        assert_eq!(lines, "setup_s 0.8127 s\ntps 5521.25 1/s\nrecover_s 0 s\n");
        let json = result_json(END_TO_END, &values, 1000, 0);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"tps\": {\"value\": 5521.25, \"unit\": \"1/s\"}, \
             \"recover_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert!(!json.contains('\n'));
        let failed = result_json(END_TO_END, &values, 0, 2);
        assert!(failed.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 2"));
    }

    #[test]
    fn committed_benchmark_json_and_readme_match_the_tables() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(root.join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repo root");
        assert_eq!(
            committed,
            benchmark_json(crate::RUN_SECONDS),
            "regenerate with --emit-benchmark-json"
        );
        assert!(committed.len() <= 64 * 1024);
        let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
        assert!(
            readme.contains(&glossary()),
            "README glossary is stale: regenerate with --emit-glossary"
        );
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(readme.contains(&format!("`{}`", m.name)), "{}", m.name);
        }
    }
}
