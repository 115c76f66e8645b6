//! `bench_e2e` — the repo's benchmark: one end-to-end + per-layer
//! harness for Ginja's commit path, cost model and recovery path.
//! See `README.md` beside this package for the metric glossary, the
//! workloads and the constants.

mod exposure;
mod probes;
mod procfs;
mod recovery;
mod replay;
mod report;
mod rig;
mod run;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use run::{Options, Outcome};
use spec::{Better, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// Runs per set of `--repeat` when no number follows it.
const DEFAULT_REPEAT: usize = 3;

/// `--smoke` divides every count by this.
const SMOKE_DIVISOR: f64 = 50.0;

const USAGE: &str = "usage: bench_e2e --workload <pg_mem|mysql_mem|pg_wan|recover|all> \
[--seed <u64>] [--seconds <s>] [--trace [0|1]] [--trace-out <file>] [--json <file>] \
[--repeat <N>] [--smoke] [--emit-benchmark-json] [--emit-glossary]";

struct Cli {
    workloads: Vec<&'static Workload>,
    opts: Options,
    json: Option<std::path::PathBuf>,
    repeat: Option<usize>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        opts: Options {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
            trace_out: None,
        },
        json: None,
        repeat: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if name == "all" {
                    cli.workloads = WORKLOADS.iter().collect();
                } else {
                    for part in name.split(',') {
                        cli.workloads.push(
                            spec::workload(part).ok_or(format!("unknown workload {part:?}"))?,
                        );
                    }
                }
            }
            "--seed" => {
                cli.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                cli.opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?;
            }
            "--trace" => {
                // `--trace 0|1` (driver) or a bare `--trace` flag.
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--trace-out" => cli.opts.trace_out = Some(value("--trace-out")?.into()),
            "--json" => cli.json = Some(value("--json")?.into()),
            "--repeat" => {
                // `--repeat N`, or bare `--repeat` for the default.
                cli.repeat = Some(match it.peek().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => {
                        it.next();
                        n
                    }
                    Some(_) => return Err("--repeat takes a positive integer".into()),
                    None => DEFAULT_REPEAT,
                });
            }
            "--smoke" => {
                cli.opts.seconds = RUN_SECONDS as f64 / SMOKE_DIVISOR;
                if cli.workloads.is_empty() {
                    cli.workloads = WORKLOADS.iter().collect();
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.workloads.is_empty() {
        return Err("no --workload given".into());
    }
    Ok(cli)
}

fn table_of(opts: &Options) -> &'static [spec::Metric] {
    if opts.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Runs one workload once and prints its block. Returns the outcome.
fn run_and_print(w: &Workload, opts: &Options) -> Outcome {
    let out = run::run(w, opts);
    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    print!("{}", report::metric_lines(table_of(opts), &out.metrics));
    println!(
        "failed_share {} ratio",
        out.checks.failed as f64 / out.checks.attempted.max(1) as f64
    );
    for note in &out.notes {
        println!("# {note}");
    }
    out
}

/// `--repeat N`: two sets of N runs per workload; per (metric,
/// workload) the two medians, the spread, and their disagreement
/// against the bound. Fails when a pair disagrees by more than its
/// bound in the worse direction, or a run fails a check.
fn repeat(cli: &Cli, n: usize) -> bool {
    let mut ok = true;
    println!("| workload | metric | median 1 | median 2 | IQR/median 1 | IQR/median 2 | worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for w in &cli.workloads {
        let mut sets: [Vec<Outcome>; 2] = [Vec::new(), Vec::new()];
        for (set, outcomes) in sets.iter_mut().enumerate() {
            for i in 0..n {
                let opts = Options {
                    seed: cli.opts.seed + (set * n + i) as u64,
                    ..cli.opts.clone()
                };
                let out = run::run(w, &opts);
                ok &= out.checks.failed == 0;
                outcomes.push(out);
            }
        }
        for m in table_of(&cli.opts) {
            let values = |set: &[Outcome]| -> Vec<f64> {
                set.iter()
                    .filter_map(|o| o.metrics.get(m.name).copied())
                    .collect()
            };
            let (v1, v2) = (values(&sets[0]), values(&sets[1]));
            let (m1, m2) = (stats::median(&v1), stats::median(&v2));
            let worse = match m.better {
                Better::Lower => (m2 - m1) / m1.abs().max(f64::MIN_POSITIVE),
                Better::Higher => (m1 - m2) / m1.abs().max(f64::MIN_POSITIVE),
            };
            let verdict = match m.bound {
                Some(b) if worse > b => {
                    ok = false;
                    "DISAGREE"
                }
                Some(_) => "ok",
                None => "-",
            };
            println!(
                "| {} | `{}` | {:.4} | {:.4} | {:.3} | {:.3} | {:+.3} | {} | {} |",
                w.name,
                m.name,
                m1,
                m2,
                stats::relative_iqr(&v1),
                stats::relative_iqr(&v2),
                worse,
                m.bound.map_or("-".into(), |b| b.to_string()),
                verdict
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--emit-benchmark-json") => {
            print!("{}", report::benchmark_json(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        Some("--emit-glossary") => {
            print!("{}", report::glossary());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = cli.repeat {
        return if repeat(&cli, n) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut failed = 0;
    let mut last_json = String::new();
    for w in &cli.workloads {
        let out = run_and_print(w, &cli.opts);
        failed += out.checks.failed;
        last_json = report::result_json(
            table_of(&cli.opts),
            &out.metrics,
            out.checks.attempted,
            out.checks.failed,
        );
        // The driver reads the last line of standard output.
        println!("{last_json}");
    }
    if let Some(path) = &cli.json {
        if let Err(err) = std::fs::write(path, format!("{last_json}\n")) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cli = parse(&args("--workload pg_wan --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(cli.workloads.len(), 1);
        assert_eq!(cli.workloads[0].name, "pg_wan");
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (7, 10.0, true)
        );
        let cli = parse(&args("--workload recover --trace 0 --seed 2")).unwrap();
        assert!(!cli.opts.trace);
    }

    #[test]
    fn flag_forms_and_errors() {
        let cli = parse(&args(
            "--workload all --trace --trace-out t.json --json r.json",
        ))
        .unwrap();
        assert_eq!(cli.workloads.len(), WORKLOADS.len());
        assert!(cli.opts.trace);
        assert_eq!(
            cli.opts.trace_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
        let cli = parse(&args("--smoke")).unwrap();
        assert_eq!(cli.workloads.len(), WORKLOADS.len());
        assert!((cli.opts.seconds - 0.2).abs() < 1e-12);
        let repeat = |s: &str| parse(&args(s)).map(|cli| cli.repeat);
        assert_eq!(repeat("--workload pg_mem,recover --repeat 5"), Ok(Some(5)));
        assert_eq!(
            repeat("--repeat --workload all"),
            Ok(Some(DEFAULT_REPEAT)),
            "a bare --repeat takes the default"
        );
        assert!(repeat("--workload all --repeat 0").is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 1")).is_err(), "workload is required");
        assert!(parse(&args("--workload pg_mem --seconds 0")).is_err());
        assert!(parse(&args("--workload pg_mem --bogus")).is_err());
    }
}
