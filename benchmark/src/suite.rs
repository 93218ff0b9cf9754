//! `run`, `compare` and `aa`: the suite runner and the regression gate.
//!
//! `run` starts every workload in a child process of its own (so peak
//! RSS is the workload's), several times with consecutive seeds, and
//! reports each metric's median over those runs' values with quartiles
//! and count — the same statistic the acceptance driver takes. `compare`
//! judges two result files row by row; `aa` runs the suite twice on one
//! build and fails unless every end-to-end row comes out `unchanged`.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use crate::workloads::{Metric, RunOutput};

/// Prefix of the line a child prints before its result line, carrying
/// what the one-line contract has no room for.
pub const DETAIL_PREFIX: &str = "detail ";

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(out: &RunOutput) -> String {
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// Quartiles and counts of the run's own samples, and any oracle that
/// failed.
pub fn detail_line(out: &RunOutput) -> String {
    let doc = Json::obj([
        (
            "oracle_failures",
            Json::Arr(out.oracle_failures.iter().map(Json::str).collect()),
        ),
        (
            "metrics",
            Json::Arr(out.metrics.iter().map(metric_json).collect()),
        ),
    ]);
    format!("{DETAIL_PREFIX}{}", doc.render())
}

fn metric_json(m: &Metric) -> Json {
    Json::obj([
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("value", Json::Num(m.value)),
        ("median", Json::Num(m.median)),
        ("q1", Json::Num(m.q1)),
        ("q3", Json::Num(m.q3)),
        ("n", Json::Num(m.n as f64)),
    ])
}

/// Seconds one run measures: `run_seconds` in `BENCHMARK.json`, and the
/// default of `--seconds`.
pub const RUN_SECONDS: u32 = 10;

/// The repository's `BENCHMARK.json`, generated from the registry in
/// [`crate::metrics`] so the two cannot drift (a test compares them).
pub fn describe() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().copied().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", Json::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// One workload, or all of them.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// Runs per workload, with seeds `seed`, `seed + 1`, ...
    pub runs: usize,
    pub traced: bool,
    pub quick: bool,
}

/// One child run, parsed.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, unit, value)` in report order.
    metrics: Vec<(String, String, f64)>,
    oracle_failures: Vec<String>,
}

fn run_child(
    workload: &str,
    seed: u64,
    opts: &SuiteOptions,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let result = json::parse(result).map_err(|e| format!("{workload}: result line: {e}"))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("child printed no detail line")?;
    let detail = json::parse(detail).map_err(|e| format!("{workload}: detail line: {e}"))?;
    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let metrics = detail
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or("detail line has no metrics")?
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str).unwrap_or("").to_string();
            (text("name"), text("unit"), num(m, "value"))
        })
        .collect();
    Ok(ChildRun {
        correct: result
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        attempted: num(&result, "attempted"),
        failed: num(&result, "failed"),
        metrics,
        oracle_failures: detail
            .get("oracle_failures")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect(),
    })
}

/// Folds a workload's runs into one result object: each metric's
/// median and quartiles over the runs' values.
fn fold(workload: &str, trace: bool, runs: &[ChildRun]) -> Json {
    let metrics = runs[0]
        .metrics
        .iter()
        .enumerate()
        .map(|(i, (name, unit, _))| {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].2).collect();
            let (q1, median, q3) = stats::quartiles(&values);
            Json::obj([
                ("name", Json::str(name.as_str())),
                ("unit", Json::str(unit.as_str())),
                ("median", Json::Num(median)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("n", Json::Num(values.len() as f64)),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("trace", Json::Bool(trace)),
        ("correct", Json::Bool(runs.iter().all(|r| r.correct))),
        (
            "attempted",
            Json::Num(runs.iter().map(|r| r.attempted).sum()),
        ),
        ("failed", Json::Num(runs.iter().map(|r| r.failed).sum())),
        (
            "oracle_failures",
            Json::Arr(
                runs.iter()
                    .flat_map(|r| r.oracle_failures.iter().map(Json::str))
                    .collect(),
            ),
        ),
        ("metrics", Json::Arr(metrics)),
    ])
}

fn selected(opts: &SuiteOptions) -> Result<Vec<&'static str>, String> {
    let all: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    match &opts.workload {
        None => Ok(all),
        Some(w) => all
            .iter()
            .copied()
            .find(|n| n == w)
            .map(|n| vec![n])
            .ok_or_else(|| format!("unknown workload {w:?}; one of: {}", all.join(", "))),
    }
}

/// Runs the selected workloads and returns the result document.
pub fn run_suite(opts: &SuiteOptions) -> Result<Json, String> {
    let mut results = Vec::new();
    for workload in selected(opts)? {
        for trace in [false, true] {
            if trace && !opts.traced {
                continue;
            }
            let mut runs = Vec::new();
            for i in 0..opts.runs.max(1) as u64 {
                eprintln!(
                    "running {workload} seed {} trace {}",
                    opts.seed + i,
                    u8::from(trace)
                );
                runs.push(run_child(workload, opts.seed + i, opts, trace)?);
            }
            results.push(fold(workload, trace, &runs));
        }
    }
    Ok(document(opts, results))
}

/// A result file: the environment stamp, the frozen sizes, the results.
fn document(opts: &SuiteOptions, results: Vec<Json>) -> Json {
    let sizes = if opts.quick {
        crate::workloads::Sizes::quick()
    } else {
        crate::workloads::Sizes::frozen()
    };
    Json::obj([
        (
            "environment",
            crate::env::stamp(opts.seed, opts.seconds, opts.quick),
        ),
        ("sizes", Json::str(format!("{sizes:?}"))),
        ("runs", Json::Num(opts.runs.max(1) as f64)),
        ("results", Json::Arr(results)),
    ])
}

/// Whether every run of every workload passed its oracles.
pub fn all_correct(doc: &Json) -> bool {
    results(doc)
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
}

fn results(doc: &Json) -> &[Json] {
    doc.get("results").and_then(Json::as_arr).unwrap_or(&[])
}

fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Every metric by name, with unit, median, quartiles and n.
pub fn table(doc: &Json) -> String {
    let mut out = String::new();
    for r in results(doc) {
        let text = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("?");
        let num = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let traced = r.get("trace").and_then(Json::as_bool) == Some(true);
        writeln!(
            out,
            "\n{} ({}) — correct: {}, attempted {}, failed {}",
            text("workload"),
            if traced {
                "traced: per-layer"
            } else {
                "untraced: end-to-end"
            },
            r.get("correct").and_then(Json::as_bool).unwrap_or(false),
            num("attempted"),
            num("failed"),
        )
        .expect("write to String");
        for f in r
            .get("oracle_failures")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            writeln!(out, "  ORACLE FAILED: {}", f.as_str().unwrap_or("?"))
                .expect("write to String");
        }
        writeln!(
            out,
            "  {:<28} {:>6} {:>14} {:>14} {:>14} {:>5}",
            "metric", "unit", "median", "q1", "q3", "n"
        )
        .expect("write to String");
        for m in r.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
            let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            // A layer the workload never enters reports zeros; leave
            // those rows out of the printed table (they stay in the file).
            if traced && num("median") == 0.0 && num("q3") == 0.0 {
                continue;
            }
            writeln!(
                out,
                "  {:<28} {:>6} {:>14} {:>14} {:>14} {:>5}",
                m.get("name").and_then(Json::as_str).unwrap_or("?"),
                m.get("unit").and_then(Json::as_str).unwrap_or("?"),
                fmt_num(num("median")),
                fmt_num(num("q1")),
                fmt_num(num("q3")),
                num("n"),
            )
            .expect("write to String");
        }
    }
    out
}

/// How a metric moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs' own spread is wider than the bound (or than the
    /// change): the benchmark cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side of a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    /// The same median with no spread around it.
    fn median_only(self) -> Side {
        Side {
            q1: self.median,
            q3: self.median,
            ..self
        }
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Judges `b` against the base `a`. `worse` is the change as a share of
/// the base, positive when `b` is worse.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    if a.median == 0.0 {
        return if b.median == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let change = (b.median - a.median) / a.median.abs();
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = a.spread().max(b.spread());
    if worse.abs() <= bound {
        if spread > bound {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        }
    } else if worse.abs() <= spread {
        Verdict::Unresolved
    } else if worse > 0.0 {
        Verdict::Regressed
    } else {
        Verdict::Improved
    }
}

fn side_of(metric: &Json) -> Side {
    let num = |k: &str| metric.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Side {
        median: num("median"),
        q1: num("q1"),
        q3: num("q3"),
    }
}

fn find<'a>(doc: &'a Json, workload: &str, trace: bool, metric: &str) -> Option<&'a Json> {
    results(doc)
        .iter()
        .find(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(trace)
        })?
        .get("metrics")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
}

/// One row per (metric, workload). Returns the printed comparison and
/// the verdicts of the end-to-end rows.
pub fn compare(a: &Json, b: &Json) -> (String, Vec<Verdict>) {
    let mut out = String::new();
    let mut verdicts = Vec::new();
    writeln!(
        out,
        "{:<18} {:<28} {:>34} {:>34} {:>16} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base A)", "bound"
    )
    .expect("write to String");
    let cell = |s: Side| {
        format!(
            "{} [{}, {}]",
            fmt_num(s.median),
            fmt_num(s.q1),
            fmt_num(s.q3)
        )
    };
    let mut row =
        |workload: &str, metric: String, sa: Side, sb: Side, bound: &str, verdict: &str| {
            writeln!(
                out,
                "{workload:<18} {metric:<28} {:>34} {:>34} {:>16} {bound:>6}  {verdict}",
                cell(sa),
                cell(sb),
                format!("{:.4} ({})", sb.median / sa.median, fmt_num(sa.median)),
            )
            .expect("write to String");
        };
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (Some(ma), Some(mb)) = (
                find(a, workload, false, def.name),
                find(b, workload, false, def.name),
            ) else {
                continue;
            };
            let (sa, sb) = (side_of(ma), side_of(mb));
            // As the acceptance driver does, set-up is judged on its
            // medians alone: its spread is printed, not held against it.
            let v = if def.name == "setup_s" {
                verdict(sa.median_only(), sb.median_only(), def.better, def.bound)
            } else {
                verdict(sa, sb, def.better, def.bound)
            };
            verdicts.push(v);
            row(
                workload,
                format!("{} ({}, {})", def.name, def.unit, def.better.as_str()),
                sa,
                sb,
                &def.bound.to_string(),
                v.as_str(),
            );
        }
        // Per-layer rows carry no bound: shown for diagnosis, not judged.
        for (name, unit, _) in PER_LAYER {
            let (Some(ma), Some(mb)) =
                (find(a, workload, true, name), find(b, workload, true, name))
            else {
                continue;
            };
            let (sa, sb) = (side_of(ma), side_of(mb));
            if sa.median != 0.0 || sb.median != 0.0 {
                row(
                    workload,
                    format!("{name} ({unit})"),
                    sa,
                    sb,
                    "-",
                    "(per-layer)",
                );
            }
        }
    }
    (out, verdicts)
}

/// Runs the suite twice on this build, alternating sides run by run,
/// and compares. Returns the two documents and the comparison.
pub fn aa(opts: &SuiteOptions) -> Result<(Json, Json, String, Vec<Verdict>), String> {
    let mut sides: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for workload in selected(opts)? {
        let mut runs: [Vec<ChildRun>; 2] = [Vec::new(), Vec::new()];
        for i in 0..opts.runs.max(1) as u64 {
            // Alternate which side goes first, so drift hits both alike.
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                eprintln!(
                    "aa: {workload} side {} seed {}",
                    ["A", "B"][side],
                    opts.seed + i
                );
                runs[side].push(run_child(workload, opts.seed + i, opts, false)?);
            }
        }
        for side in 0..2 {
            sides[side].push(fold(workload, false, &runs[side]));
        }
    }
    let [a, b] = sides;
    let (a, b) = (document(opts, a), document(opts, b));
    let (text, verdicts) = compare(&a, &b);
    Ok((a, b, text, verdicts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, q1: f64, q3: f64) -> Side {
        Side { median, q1, q3 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tight = |m: f64| side(m, m * 0.99, m * 1.01);
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(tight(100.0), tight(105.0), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(tight(100.0), tight(120.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(tight(100.0), tight(80.0), Better::Lower, 0.10),
            Verdict::Improved
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(tight(100.0), tight(120.0), Better::Higher, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(tight(100.0), tight(80.0), Better::Higher, 0.10),
            Verdict::Regressed
        );
        // A spread wider than the bound cannot call anything unchanged...
        let wide = side(100.0, 85.0, 115.0);
        assert_eq!(
            verdict(wide, tight(103.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // ...nor a change smaller than the spread a regression.
        assert_eq!(
            verdict(wide, tight(125.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(wide, tight(150.0), Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Counts that repeat exactly.
        assert_eq!(
            verdict(
                side(135.0, 135.0, 135.0),
                side(135.0, 135.0, 135.0),
                Better::Lower,
                0.10
            ),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(tight(0.0), tight(0.0), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(tight(0.0), tight(1.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    fn doc(ops: f64) -> Json {
        let run = ChildRun {
            correct: true,
            attempted: 10.0,
            failed: 0.0,
            metrics: vec![("ops_per_s".into(), "1/s".into(), ops)],
            oracle_failures: vec![],
        };
        Json::obj([("results", Json::Arr(vec![fold("recover", false, &[run])]))])
    }

    #[test]
    fn compare_prints_a_row_with_ratio_base_bound_and_verdict() {
        let (text, verdicts) = compare(&doc(1000.0), &doc(1300.0));
        assert_eq!(verdicts, vec![Verdict::Improved]);
        let row = text.lines().find(|l| l.starts_with("recover")).unwrap();
        assert!(row.contains("ops_per_s (1/s, higher)"), "{row}");
        assert!(row.contains("1.3000 (1000)"), "{row}");
        assert!(row.contains("0.25") && row.ends_with("improved"), "{row}");
        assert!(all_correct(&doc(1.0)));
        assert!(table(&doc(1000.0)).contains("ops_per_s"));
    }

    #[test]
    fn folding_several_runs_takes_the_median_across_them() {
        let run = |v: f64| ChildRun {
            correct: true,
            attempted: 1.0,
            failed: 0.0,
            metrics: vec![("op_p50_us".into(), "us".into(), v)],
            oracle_failures: vec![],
        };
        let folded = fold("recover", false, &[run(3.0), run(1.0), run(2.0)]);
        let m = &folded.get("metrics").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(m.get("median").and_then(Json::as_f64), Some(2.0));
        assert_eq!(m.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(m.get("values").and_then(Json::as_arr).unwrap().len(), 3);
        assert_eq!(folded.get("attempted").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = RunOutput {
            attempted: 0,
            failed: 0,
            metrics: vec![Metric::median_of("setup_s", "s", &[0.5, 0.25])],
            oracle_failures: vec!["x".into()],
        };
        let line = json::parse(&result_line(&out)).unwrap();
        let Json::Obj(fields) = &line else {
            panic!("the result line is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        // `attempted` is at least 1 by contract.
        assert_eq!(line.get("attempted"), Some(&Json::Num(1.0)));
        let m = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.375));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        assert!(detail_line(&out).starts_with(DETAIL_PREFIX));
    }
}
