//! `slackvm-benchmark`: end-to-end and per-layer measurements of the
//! SlackVM reproduction, taken from outside its crates.
//!
//! Two ways in:
//!
//! - the acceptance driver's form, one workload per process:
//!   `slackvm-benchmark --workload W --seed N --seconds S --trace 0|1`,
//!   which prints one JSON result object as its last line;
//! - the developer's form: `run`, `compare`, `aa` (see `help`).

mod env;
mod json;
mod metrics;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use suite::{SuiteOptions, Verdict};
use workloads::{RunArgs, Sizes};

const HELP: &str = "\
slackvm-benchmark — measured from outside, built offline

  slackvm-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
      One workload in this process. --trace 0 reports the end-to-end
      metrics, --trace 1 the per-layer metrics of a traced pass (spans go
      to benchmark/out/W.trace.json). The last line of standard output is
      {\"correct\":..,\"attempted\":..,\"failed\":..,\"metrics\":{..}}.

  slackvm-benchmark run [--workload W] [--seed N] [--seconds S] [--runs R]
                        [--traced] [--quick] --out results.json
      Every workload (or one), each run in a child process, R runs with
      seeds N, N+1, ... Prints each metric by name with unit, median,
      quartiles and n; exits non-zero unless every oracle held.

  slackvm-benchmark compare A.json B.json
      One row per (metric, workload): both medians and quartiles, B/A
      with its base, the bound, and improved / unchanged / regressed /
      unresolved (spread wider than the bound).

  slackvm-benchmark describe
      Prints BENCHMARK.json as the metric registry defines it.

  slackvm-benchmark aa [--workload W] [--seed N] [--seconds S] [--runs R] [--quick]
      The suite twice on this build, sides alternating; exits non-zero
      unless every end-to-end row is unchanged.

Defaults: --seed 42, --seconds 10, --runs 5 (run: 1). Run from the repository root.
";

/// Flags of every form, parsed once.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    runs: Option<usize>,
    out: Option<String>,
    traced: bool,
    quick: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                flags.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number".to_string())?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--runs" => {
                let r: usize = value("--runs")?
                    .parse()
                    .map_err(|_| "--runs takes a whole number".to_string())?;
                if !(1..=100).contains(&r) {
                    return Err("--runs must be within 1..=100".into());
                }
                flags.runs = Some(r);
            }
            "--out" => flags.out = Some(value("--out")?),
            "--traced" => flags.traced = true,
            "--quick" => flags.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = suite::RUN_SECONDS as f64;

fn suite_options(flags: &Flags, default_runs: usize) -> SuiteOptions {
    SuiteOptions {
        workload: flags.workload.clone(),
        seed: flags.seed.unwrap_or(DEFAULT_SEED),
        seconds: flags
            .seconds
            .unwrap_or(if flags.quick { 0.3 } else { DEFAULT_SECONDS }),
        runs: flags.runs.unwrap_or(default_runs),
        traced: flags.traced,
        quick: flags.quick,
    }
}

fn read_json(path: &str) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The driver's form: one workload, here, now.
fn single(flags: &Flags) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: flags.workload.clone().ok_or("--workload is required")?,
        seed: flags.seed.unwrap_or(DEFAULT_SEED),
        seconds: flags.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: flags.trace.unwrap_or(false),
        sizes: if flags.quick {
            Sizes::quick()
        } else {
            Sizes::frozen()
        },
    };
    let out = workloads::run(&args)?;
    for failure in &out.oracle_failures {
        eprintln!("oracle failed: {failure}");
    }
    println!("{}", suite::detail_line(&out));
    println!("{}", suite::result_line(&out));
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("", args),
    };
    let flags = parse_flags(rest)?;
    match command {
        "" => single(&flags),
        "run" => {
            let out = flags.out.as_deref().ok_or("run needs --out results.json")?;
            let doc = suite::run_suite(&suite_options(&flags, 1))?;
            std::fs::write(out, doc.render_pretty()).map_err(|e| format!("{out}: {e}"))?;
            print!("{}", suite::table(&doc));
            println!("\nwrote {out}");
            Ok(if suite::all_correct(&doc) {
                ExitCode::SUCCESS
            } else {
                eprintln!("an oracle failed: see the table above");
                ExitCode::FAILURE
            })
        }
        "compare" => {
            let [a, b] = flags.positional.as_slice() else {
                return Err("compare takes two result files".into());
            };
            let (text, verdicts) = suite::compare(&read_json(a)?, &read_json(b)?);
            print!("{text}");
            Ok(if verdicts.contains(&Verdict::Regressed) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "aa" => {
            let (a, b, text, verdicts) = suite::aa(&suite_options(&flags, 5))?;
            print!("{text}");
            let correct = suite::all_correct(&a) && suite::all_correct(&b);
            let steady = verdicts.iter().all(|v| *v == Verdict::Unchanged);
            println!(
                "\naa: {} end-to-end rows, {} not unchanged, oracles {}",
                verdicts.len(),
                verdicts
                    .iter()
                    .filter(|v| **v != Verdict::Unchanged)
                    .count(),
                if correct { "held" } else { "FAILED" }
            );
            Ok(if correct && steady {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "describe" => {
            print!("{}", suite::describe().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        "help" | "-h" => {
            print!("{HELP}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}; try `help`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("slackvm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_flags_parse() {
        let f = parse_flags(&args(&[
            "--workload",
            "recover",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("recover"));
        assert_eq!(
            (f.seed, f.seconds, f.trace),
            (Some(7), Some(10.0), Some(true))
        );
        assert!(!f.quick && f.positional.is_empty());
    }

    #[test]
    fn bad_flags_are_errors_not_defaults() {
        for bad in [
            &["--seed", "x"][..],
            &["--seconds", "0"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--runs", "0"],
            &["--workload"],
            &["--nope"],
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad:?}");
        }
        assert!(dispatch(&args(&["frobnicate"])).is_err());
        assert!(dispatch(&args(&["compare", "only-one.json"])).is_err());
        assert!(dispatch(&args(&["run"])).is_err());
        assert!(dispatch(&args(&["--workload", "nope", "--quick"])).is_err());
    }

    /// Every workload at toy sizes, untraced and traced, every oracle on.
    #[test]
    fn quick_smoke_runs_all_workloads_with_every_oracle_on() {
        for (workload, _) in metrics::WORKLOADS {
            for trace in [false, true] {
                let out = workloads::run(&RunArgs {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.2,
                    trace,
                    sizes: Sizes::quick(),
                })
                .unwrap();
                assert_eq!(
                    out.oracle_failures,
                    Vec::<String>::new(),
                    "{workload} trace {trace}"
                );
                assert_eq!(out.failed, 0, "{workload} trace {trace}");
                assert!(out.attempted >= 1, "{workload} trace {trace}");
                let expected = if trace {
                    metrics::PER_LAYER.len()
                } else {
                    metrics::END_TO_END.len()
                };
                assert_eq!(out.metrics.len(), expected, "{workload} trace {trace}");
                for m in &out.metrics {
                    assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                    if !trace {
                        assert!(m.value > 0.0, "{workload}: {} is zero", m.name);
                    }
                }
            }
        }
    }
}
