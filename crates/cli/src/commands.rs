//! Command implementations.

use std::fmt::Write as _;
use std::sync::Arc;

use slackvm::experiments::{
    self, hardware_mc_sweep, population_sweep, replicated_savings, PackingConfig,
};
use slackvm::perf::Fig2Scenario;
use slackvm::prelude::*;
use slackvm::report::TextTable;

use crate::args::Args;
use crate::error::CliError;

/// The help text.
pub fn help() -> String {
    "\
slackvm — reproduction driver for 'SlackVM: Packing Virtual Machines in
Oversubscribed Cloud Infrastructures' (CLUSTER 2024)

usage: slackvm <command> [options]

commands:
  tables                         Tables I-III vs the paper
  fig2      [--step S] [--no-pooling] [--svg FILE]
                                 Table IV + Fig. 2 response times
  fig3      --provider P [--population N] [--seed S] [--svg FILE]
                                 unallocated resources, distributions A..O
  fig4      --provider P [--population N] [--seed S] [--grid-step G]
            [--svg FILE]         PM-savings grid
  generate  --provider P --mix M --population N [--seed S] [--out FILE]
            [--days D] [--lognormal] [--resizes FRAC]
                                 write a workload trace as JSON
                                 (M: a letter A..O or 'p1,p2,p3' shares)
  replay    --trace FILE --model dedicated|shared [--fleet N]
            [--policy NAME] [--index naive|incremental]
            [--events-out FILE] [--trace-out FILE] [--metrics-out FILE]
            [--series-out FILE] [--prom-out FILE]
            [--sample-interval SECS] [--sample-per-pm]
                                 replay a JSON trace; optionally record a
                                 JSONL event journal, a Chrome trace
                                 (Perfetto-loadable), a metrics summary
                                 (.json for JSON, else text), a sampled
                                 time-series CSV, and a Prometheus
                                 text exposition; --index selects the
                                 placement-index mode (incremental by
                                 default; naive rescans the fleet per
                                 event — same decisions, for A/B timing)
  obs       --series FILE [--prom FILE] [--gnuplot-out FILE]
            [--png-out FILE]     dashboard for a sampled run: summary
                                 table with sparklines from a
                                 --series-out CSV; optionally validate a
                                 Prometheus file and emit a gnuplot
                                 script
  compact   --trace FILE [--at-day D]
                                 compaction analysis of the day-D state
  rebalance plan|apply --trace FILE [--at N] [--model dedicated|shared]
            [--policy NAME] [--fleet N] [--index naive|incremental]
            [--topology SPEC] [--mem GIB] [--max-migrations N]
            [--max-moved-gib G] [--max-concurrent N]
                                 consolidation pass over the cluster
                                 state a trace replay reaches at event
                                 N (default: the whole trace): 'plan'
                                 prints the migration plan, human then
                                 JSON, moving nothing; 'apply' executes
                                 it offline and reports active PMs
                                 before/after under the migration
                                 budget
  pressure  status|plan|apply --trace FILE [--at N]
            [--model dedicated|shared] [--policy NAME] [--fleet N]
            [--index naive|incremental] [--topology SPEC] [--mem GIB]
            [--max-migrations N] [--max-moved-gib G]
            [--max-concurrent N] [--usage-seed S] [--hot-frac F]
                                 hotspot report and spread-out
                                 mitigation over the cluster state a
                                 trace replay reaches at event N:
                                 'status' prints the per-PM pressure
                                 scorecard (hot/warm/cold), 'plan'
                                 prints the mitigation plan that drains
                                 hot PMs onto cold ones, 'apply'
                                 executes it offline; --hot-frac marks
                                 that fraction of VMs as hot under the
                                 synthesized usage signal seeded by
                                 --usage-seed
  sweep     mc|population|seeds --provider P [--mix M] [--population N]
                                 sensitivity sweeps
  recommend --vcpus N --level L --demand d1,d2,...
                                 dynamic oversubscription recommendation
  layout    [--topology SPEC] [--mem GIB] VM ...
                                 place VM specs (4c8g, 2c4g@3) on one
                                 worker and print the core map
  scenarios [--population N] [--run NAME]
                                 tour the canned workload scenarios
  steady    --trace FILE [--model M] [--svg FILE] [--series-out FILE]
            [--sample-interval SECS]
                                 steady-state analysis of a replay
  report    --trace FILE [--out FILE]
                                 full markdown report for a trace
  calibrate [--targets b,s;b,s;b,s] [--step S]
                                 fit the contention model to latency targets
  serve     [--addr HOST:PORT | --port P] [--shards N]
            [--queue-depth N] [--batch N] [--deadline-ms MS]
            [--model shared|dedicated] [--policy NAME] [--fleet N]
            [--index naive|incremental] [--topology SPEC] [--mem GIB]
            [--sample-interval-ms MS] [--state-dir DIR]
            [--fsync every|interval|off] [--fsync-interval-ms MS]
            [--snapshot-every N] [--retain K] [--durable-fail-stop]
            [--obs-addr HOST:PORT] [--stall-ms MS]
            [--trace off|stages] [--trace-sample N] [--trace-out FILE]
            [--slo-window-s S] [--slo-p99-ms MS] [--slo-availability F]
            [--rebalance-every-ms MS] [--rebalance-max-migrations N]
            [--rebalance-max-moved-gib G] [--rebalance-max-concurrent N]
            [--pressure-every-ms MS] [--pressure-max-migrations N]
            [--pressure-max-moved-gib G] [--pressure-max-concurrent N]
            [--pressure-usage-seed S] [--pressure-hot-frac F]
                                 run the online placement service: line
                                 JSON over TCP, HTTP GET /metrics for a
                                 Prometheus snapshot; a client's
                                 {\"op\":\"shutdown\"} stops it;
                                 --state-dir journals every committed
                                 decision to a per-shard write-ahead
                                 log and restarts recover the fleet;
                                 --obs-addr starts a dedicated listener
                                 serving /metrics, /healthz (per-shard
                                 heartbeat watchdog), and /slo (rolling
                                 error-budget scorecard) off the
                                 request path; --trace-sample N records
                                 every Nth request's full lifecycle as
                                 Chrome-trace spans (--trace-out);
                                 fail-pm/drain-pm/recover-pm requests
                                 evict a PM and re-place its VMs
                                 through normal admission;
                                 --durable-fail-stop panics the shard
                                 on WAL errors instead of degrading to
                                 journal-off; --rebalance-every-ms runs
                                 a background consolidation tick per
                                 shard that migrates VMs off the
                                 least-utilized PMs under the budget
                                 flags, journalled like admissions and
                                 paused while a PM is failed/draining,
                                 the journal is degraded, or the SLO
                                 error budget is burning;
                                 --pressure-every-ms runs the hotspot
                                 mitigation tick that spreads VMs off
                                 hot PMs onto cold ones under its own
                                 budget flags (interlocked with the
                                 consolidation tick — never both in
                                 one tick, pressure first), with the
                                 per-VM usage signal synthesized from
                                 --pressure-usage-seed and
                                 --pressure-hot-frac
  bombard   [--addr HOST:PORT] [--scenario NAME] [--population N]
            [--seed S] [--clients N] [--requests N] [--rate R]
            [--shards N] [--policy NAME] [--fleet N] [--deadline-ms MS]
            [--series-out FILE] [--prom-out FILE] [--shutdown]
            [--trace off|stages] [--trace-sample N] [--trace-out FILE]
            [--chaos-fail-every N] [--hot-frac F] [--usage-seed S]
                                 drive scenario traffic at a placement
                                 service — over TCP when --addr is
                                 given, else against an in-process
                                 service; --rate switches from closed
                                 to open loop; --shutdown stops the
                                 remote server afterwards; the report
                                 prints the server-side stage breakdown
                                 (queue/place/commit) next to the
                                 client-observed percentiles;
                                 --chaos-fail-every N makes client 0
                                 fail and recover PMs every N of its
                                 placements, exercising evacuation
                                 under live load; --hot-frac F pins
                                 that fraction of placed VMs in place
                                 (they never depart mid-run), skewing
                                 per-VM usage so hotspots form — the
                                 signal the server's --pressure plane
                                 (seeded with the same --usage-seed)
                                 detects and mitigates
  recover   --dir DIR            recover a serve state directory offline
                                 and report per shard what a restart
                                 would restore (snapshot, WAL tail,
                                 torn bytes, VM/PM counts)
  fsck      --dir DIR            verify a serve state directory: replay
                                 the journal from genesis through a
                                 fresh model and prove the recovered
                                 state is exactly the committed
                                 history (nonzero exit on divergence)

providers: azure, ovhcloud, balanced
"
    .to_string()
}

fn provider(args: &Args) -> Result<Catalog, CliError> {
    match args.get("provider") {
        None => Err(CliError::MissingOption("provider")),
        Some("azure") => Ok(catalog::azure()),
        Some("ovhcloud") => Ok(catalog::ovhcloud()),
        Some("balanced") => Ok(catalog::balanced()),
        Some(custom) if custom.starts_with("file:") => {
            let path = &custom[5..];
            let raw = std::fs::read_to_string(path).map_err(|source| CliError::Io {
                path: path.to_string(),
                source,
            })?;
            Catalog::from_json(&raw).map_err(|e| CliError::Invalid(e.to_string()))
        }
        Some(other) => Err(CliError::Invalid(format!(
            "unknown provider {other:?} (azure, ovhcloud, balanced, file:PATH)"
        ))),
    }
}

fn mix(args: &Args, default: &str) -> Result<LevelMix, CliError> {
    let raw = args.get_or("mix", default);
    if raw.len() == 1 {
        let letter = raw.chars().next().expect("len checked");
        return DistributionPoint::by_letter(letter.to_ascii_uppercase())
            .map(|p| p.mix())
            .ok_or_else(|| CliError::Invalid(format!("no distribution letter {raw:?}")));
    }
    let shares: Vec<f64> = raw
        .split(',')
        .map(|p| p.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| CliError::Invalid(format!("cannot parse mix {raw:?}")))?;
    if shares.len() != 3 {
        return Err(CliError::Invalid(
            "a mix needs exactly three shares (1:1, 2:1, 3:1)".into(),
        ));
    }
    LevelMix::three_level(shares[0], shares[1], shares[2])
        .ok_or_else(|| CliError::Invalid("mix shares must sum to a positive total".into()))
}

fn write_svg(args: &Args, svg: String) -> Result<Option<String>, CliError> {
    match args.get("svg") {
        None => Ok(None),
        Some(path) => {
            std::fs::write(path, &svg).map_err(|source| CliError::Io {
                path: path.to_string(),
                source,
            })?;
            Ok(Some(format!("wrote {path} ({} bytes)", svg.len())))
        }
    }
}

fn packing_config(args: &Args) -> Result<PackingConfig, CliError> {
    Ok(PackingConfig {
        target_population: args.get_parsed_or("population", 500)?,
        seed: args.get_parsed_or("seed", 0x5AC4)?,
        ..PackingConfig::default()
    })
}

/// `slackvm tables`
pub fn tables(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&[])?;
    let mut out = String::new();
    let mut t1 = TextTable::new([
        "dataset",
        "mean vCPU (ours/paper)",
        "mean vRAM GiB (ours/paper)",
    ]);
    for row in experiments::table1() {
        t1.row([
            row.provider.clone(),
            format!("{:.2} / {:.2}", row.mean_vcpus, row.paper_vcpus),
            format!("{:.2} / {:.2}", row.mean_mem_gib, row.paper_mem_gb),
        ]);
    }
    let _ = writeln!(out, "Table I\n{}", t1.render());
    let mut t2 = TextTable::new(["dataset", "1:1", "2:1", "3:1"]);
    for row in experiments::table2() {
        t2.row([
            row.provider.clone(),
            format!("{:.1} / {:.1}", row.ratios[0], row.paper[0]),
            format!("{:.1} / {:.1}", row.ratios[1], row.paper[1]),
            format!("{:.1} / {:.1}", row.ratios[2], row.paper[2]),
        ]);
    }
    let _ = writeln!(out, "Table II (ours/paper, GiB per core)\n{}", t2.render());
    let _ = writeln!(out, "Table III\n{}", experiments::table3());
    Ok(out)
}

/// `slackvm fig2`
pub fn fig2(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["step", "no-pooling", "svg"])?;
    let scenario = Fig2Scenario {
        step_secs: args.get_parsed_or("step", 120)?,
        pooling: !args.has_flag("no-pooling"),
        ..Fig2Scenario::default()
    };
    let outcome = scenario.run();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "co-hosted {} VMs; spans {:?}\n",
        outcome.slackvm_total_vms, outcome.slackvm_span_threads
    );
    let _ = writeln!(out, "{}", experiments::physical::render_table4(&outcome));
    let _ = writeln!(out, "{}", experiments::physical::render_fig2(&outcome));
    if let Some(note) = write_svg(args, slackvm_viz::fig2_svg(&outcome))? {
        let _ = writeln!(out, "{note}");
    }
    Ok(out)
}

/// `slackvm fig3`
pub fn fig3(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["provider", "population", "seed", "svg"])?;
    let cat = provider(args)?;
    let config = packing_config(args)?;
    let rows = experiments::run_fig3(&cat, &config);
    let mut t = TextTable::new([
        "dist",
        "mix",
        "base cpu",
        "base mem",
        "slack cpu",
        "slack mem",
        "PMs",
    ]);
    for r in &rows {
        t.row([
            r.letter.to_string(),
            format!("{}/{}/{}", r.shares.0, r.shares.1, r.shares.2),
            format!("{:.1}%", r.baseline_cpu * 100.0),
            format!("{:.1}%", r.baseline_mem * 100.0),
            format!("{:.1}%", r.slackvm_cpu * 100.0),
            format!("{:.1}%", r.slackvm_mem * 100.0),
            format!("{} -> {}", r.baseline_pms, r.slackvm_pms),
        ]);
    }
    let mut out = format!(
        "Fig. 3 — {} ({} VMs, seed {:#x})\n{}",
        cat.provider,
        config.target_population,
        config.seed,
        t.render()
    );
    if let Some(note) = write_svg(args, slackvm_viz::fig3_svg(&rows, &cat.provider))? {
        let _ = writeln!(out, "{note}");
    }
    Ok(out)
}

/// `slackvm fig4`
pub fn fig4(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["provider", "population", "seed", "grid-step", "svg"])?;
    let cat = provider(args)?;
    let config = packing_config(args)?;
    let step: u32 = args.get_parsed_or("grid-step", 25)?;
    if step == 0 || 100 % step != 0 {
        return Err(CliError::Invalid("--grid-step must divide 100".into()));
    }
    let grid = experiments::run_fig4(&cat, &config, step);
    let mut out = format!(
        "Fig. 4 — {} ({} VMs): % PMs saved; rows 2:1 share, cols 1:1 share\n\n",
        cat.provider, config.target_population
    );
    let levels: Vec<u32> = (0..=100 / step).map(|i| i * step).collect();
    let _ = write!(out, "{:>6}", "");
    for p1 in &levels {
        let _ = write!(out, "{p1:>8}");
    }
    let _ = writeln!(out);
    for p2 in levels.iter().rev() {
        let _ = write!(out, "{p2:>6}");
        for p1 in &levels {
            match grid.at(*p1, *p2) {
                Some(cell) => {
                    let _ = write!(out, "{:>7.1}%", cell.savings_pct);
                }
                None => {
                    let _ = write!(out, "{:>8}", "");
                }
            }
        }
        let _ = writeln!(out);
    }
    if let Some(best) = grid.best() {
        let _ = writeln!(
            out,
            "\nbest: {}/{}/{} -> {:.1}% ({} -> {} PMs)",
            best.p1, best.p2, best.p3, best.savings_pct, best.baseline_pms, best.slackvm_pms
        );
    }
    if let Some(note) = write_svg(args, slackvm_viz::fig4_svg(&grid))? {
        let _ = writeln!(out, "{note}");
    }
    Ok(out)
}

/// `slackvm generate`
pub fn generate(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&[
        "provider",
        "mix",
        "population",
        "seed",
        "out",
        "days",
        "lognormal",
        "resizes",
    ])?;
    let cat = provider(args)?;
    let mix = mix(args, "F")?;
    let population: u32 = args.get_parsed_or("population", 500)?;
    let days: u64 = args.get_parsed_or("days", 7)?;
    let seed: u64 = args.get_parsed_or("seed", 0x5AC4)?;
    let mut arrivals = ArrivalModel::constant(population, 2 * 86_400, days * 86_400);
    if args.has_flag("lognormal") {
        arrivals = arrivals.with_lognormal_lifetimes(1.2);
    }
    let mut workload = WorkloadGenerator::new(WorkloadSpec {
        catalog: cat.clone(),
        mix,
        arrivals,
        seed,
    })
    .generate();
    let resize_fraction: f64 = args.get_parsed_or("resizes", 0.0)?;
    if resize_fraction > 0.0 {
        workload =
            slackvm::workload::inject_resizes(&workload, &cat, resize_fraction, seed ^ 0x5E51_2E);
    }
    workload
        .validate()
        .map_err(|e| CliError::Invalid(format!("generated trace failed validation: {e}")))?;
    let json = serde_json::to_string(&workload)?;
    let stats = slackvm::workload::TraceStats::of(&workload)
        .ok_or_else(|| CliError::Invalid("empty trace generated".into()))?;
    let summary = format!(
        "generated {} arrivals (peak population {}), mean {:.2} vCPU / {:.2} GiB",
        stats.arrivals, stats.peak_population, stats.mean_vcpus, stats.mean_mem_gib
    );
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|source| CliError::Io {
                path: path.to_string(),
                source,
            })?;
            Ok(format!("{summary}\nwrote {path} ({} bytes)", json.len()))
        }
        None => Ok(format!("{summary}\n{json}")),
    }
}

fn load_trace(args: &Args) -> Result<Workload, CliError> {
    let path = args.get("trace").ok_or(CliError::MissingOption("trace"))?;
    let raw = std::fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.to_string(),
        source,
    })?;
    // A truncated or corrupt trace must come back as one actionable
    // line naming the file, never a panic or a bare parser message.
    let workload: Workload = serde_json::from_str(&raw).map_err(|e| {
        CliError::Invalid(format!(
            "trace {path} is not valid JSON ({e}); was the file truncated mid-write?"
        ))
    })?;
    workload
        .validate()
        .map_err(|e| CliError::Invalid(format!("trace {path} is invalid: {e}")))?;
    Ok(workload)
}

/// Resolves a placement-policy name with an actionable error.
fn parse_policy(raw: &str) -> Result<slackvm::sched::PlacementPolicy, CliError> {
    slackvm::sched::PlacementPolicy::by_name(raw).ok_or_else(|| {
        CliError::Invalid(format!(
            "unknown policy {raw:?} ({})",
            slackvm::sched::POLICY_NAMES.join(", ")
        ))
    })
}

/// Resolves the `--index` flag (default `incremental`).
fn parse_index(args: &Args) -> Result<IndexMode, CliError> {
    let raw = args.get_or("index", "incremental");
    IndexMode::parse(raw).ok_or_else(|| {
        CliError::Invalid(format!("unknown index mode {raw:?} (naive, incremental)"))
    })
}

/// Builds the deployment model the trace-replaying commands (`replay`,
/// `rebalance`) run against, from the shared `--model`/`--policy`/
/// `--fleet`/`--topology`/`--mem`/`--index` flag family. Everything is
/// validated here, before the caller touches the (potentially large)
/// trace file, so a typo dies in microseconds.
fn trace_model(args: &Args) -> Result<DeploymentModel, CliError> {
    let mut model = serve_model_spec(args)?
        .build(1)
        .map_err(CliError::Invalid)?;
    model.set_index_mode(parse_index(args)?);
    Ok(model)
}

/// The fleet as it stands partway through `--trace`: builds the
/// [`trace_model`], then replays the trace prefix onto it with `replay`
/// semantics — a rejected placement is counted and skipped (its
/// departure self-skips via the location probe), never an error. The
/// prefix is the first `--at` events (default: all of them) or, when
/// the caller cuts by time instead, the events up to `until_secs`.
/// Returns the model, the trace, the event cutoff, and the rejections.
fn fleet_at(
    args: &Args,
    until_secs: Option<u64>,
) -> Result<(DeploymentModel, Workload, usize, u32), CliError> {
    use slackvm::workload::WorkloadEvent;
    let mut model = trace_model(args)?;
    let at: Option<usize> = args.get_parsed("at")?;
    let workload = load_trace(args)?;
    let events = &workload.events;
    let cutoff = match until_secs {
        Some(until) => events.iter().take_while(|(t, _)| *t <= until).count(),
        None => at.unwrap_or(events.len()).min(events.len()),
    };
    let mut rejections = 0u32;
    for (_, event) in &events[..cutoff] {
        match event {
            WorkloadEvent::Arrival(vm) => {
                if model.deploy(vm.id, vm.spec).is_err() {
                    rejections += 1;
                }
            }
            WorkloadEvent::Departure { id } => {
                if model.location_of(*id).is_some() {
                    model
                        .remove(*id)
                        .map_err(|e| CliError::Invalid(format!("replay failed: {e}")))?;
                }
            }
            WorkloadEvent::Resize { id, vcpus, mem_mib } => {
                let _ = model.resize(*id, *vcpus, *mem_mib);
            }
        }
    }
    Ok((model, workload, cutoff, rejections))
}

/// The `state at event …` line `rebalance` and `pressure` open with
/// (CI scripts parse the event total out of it).
fn fleet_header(
    model: &DeploymentModel,
    workload: &Workload,
    cutoff: usize,
    rejections: u32,
) -> String {
    format!(
        "state at event {cutoff}/{}: {} PMs opened, {} active, {} rejection(s)\n",
        workload.events.len(),
        model.opened_pms(),
        model.active_pms(),
        rejections,
    )
}

/// `slackvm replay`
pub fn replay(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&[
        "trace",
        "model",
        "fleet",
        "topology",
        "mem",
        "policy",
        "index",
        "events-out",
        "trace-out",
        "metrics-out",
        "series-out",
        "prom-out",
        "sample-interval",
        "sample-per-pm",
    ])?;
    let mut model = trace_model(args)?;
    let index_mode = model.index_mode();
    let workload = load_trace(args)?;
    let sampling = ["series-out", "prom-out", "sample-interval"]
        .iter()
        .any(|key| args.get(key).is_some())
        || args.has_flag("sample-per-pm");
    let recording = sampling
        || ["events-out", "trace-out", "metrics-out"]
            .iter()
            .any(|key| args.get(key).is_some());
    let sample_interval: u64 = args.get_parsed_or("sample-interval", 3600)?;
    let mut notes = String::new();
    let out = if recording {
        let mut telemetry = Telemetry::new();
        let mut sampler = sampling.then(|| {
            let sampler = ClusterSampler::new(sample_interval);
            if args.has_flag("sample-per-pm") {
                sampler.with_per_pm()
            } else {
                sampler
            }
        });
        let out = run_packing_with(
            &workload,
            &mut model,
            RunOptions {
                sampler: sampler.as_mut(),
                ..RunOptions::default()
            },
            &mut telemetry,
        )
        .outcome;
        let write = |path: &str, content: &str| -> Result<(), CliError> {
            std::fs::write(path, content).map_err(|source| CliError::Io {
                path: path.to_string(),
                source,
            })
        };
        if let Some(path) = args.get("events-out") {
            write(path, &telemetry.journal.to_jsonl())?;
            let _ = write!(notes, "\nwrote {path} ({} events)", telemetry.journal.len());
        }
        if let Some(path) = args.get("trace-out") {
            write(path, &telemetry.trace.to_chrome_json())?;
            let _ = write!(notes, "\nwrote {path} ({} spans)", telemetry.trace.len());
        }
        if let Some(path) = args.get("metrics-out") {
            let rendered = if path.ends_with(".json") {
                telemetry.metrics.to_json()
            } else {
                telemetry.render_summary()
            };
            write(path, &rendered)?;
            let _ = write!(notes, "\nwrote {path} ({} bytes)", rendered.len());
        }
        if let Some(path) = args.get("series-out") {
            let store = sampler.as_ref().expect("sampling enabled").store();
            write(path, &store.to_csv())?;
            let _ = write!(
                notes,
                "\nwrote {path} ({} series, {} points)",
                store.len(),
                store.total_points()
            );
        }
        if let Some(path) = args.get("prom-out") {
            let exposition = slackvm::telemetry::prometheus::render(
                &telemetry.metrics,
                sampler.as_ref().map(|s| s.store()),
            );
            write(path, &exposition)?;
            let _ = write!(notes, "\nwrote {path} ({} bytes)", exposition.len());
        }
        out
    } else {
        run_packing(&workload, &mut model)
    };
    Ok(format!(
        "model: {}\ncandidate index: {}\nPMs opened: {}\npeak alive VMs: {}\nrejections: {}/{}\n\
         unallocated at peak: cpu {:.1}%, mem {:.1}%\n\
         time-weighted unallocated: cpu {:.1}%, mem {:.1}%{notes}",
        out.model,
        index_mode.name(),
        out.opened_pms,
        out.peak_alive_vms,
        out.rejections,
        out.deployments,
        out.at_peak.unallocated_cpu * 100.0,
        out.at_peak.unallocated_mem * 100.0,
        out.mean_unallocated_cpu * 100.0,
        out.mean_unallocated_mem * 100.0,
    ))
}

/// `slackvm obs`
pub fn obs(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["series", "prom", "gnuplot-out", "png-out"])?;
    if args.get("series").is_none() && args.get("prom").is_none() {
        return Err(CliError::MissingOption("series"));
    }
    let mut out = String::new();
    let mut store = None;
    if let Some(path) = args.get("series") {
        let raw = std::fs::read_to_string(path).map_err(|source| CliError::Io {
            path: path.to_string(),
            source,
        })?;
        let parsed = TimeSeriesStore::from_csv(&raw)
            .map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
        let _ = write!(
            out,
            "observatory — {path}: {} series, {} points\n\n{}",
            parsed.len(),
            parsed.total_points(),
            parsed.render_table()
        );
        store = Some((parsed, path));
    }
    if let Some(prom_path) = args.get("prom") {
        let exposition = std::fs::read_to_string(prom_path).map_err(|source| CliError::Io {
            path: prom_path.to_string(),
            source,
        })?;
        slackvm::telemetry::prometheus::validate(&exposition)
            .map_err(|e| CliError::Invalid(format!("{prom_path}: {e}")))?;
        if !out.is_empty() {
            out.push('\n');
        }
        let _ = write!(
            out,
            "{prom_path}: valid Prometheus exposition ({} lines)",
            exposition.lines().count()
        );
    }
    if let Some(script_path) = args.get("gnuplot-out") {
        let (store, path) = store
            .as_ref()
            .ok_or_else(|| CliError::Invalid("--gnuplot-out needs --series".into()))?;
        let png = args.get_or("png-out", "observatory.png");
        let script = slackvm_viz::gnuplot_script(store, path, png);
        std::fs::write(script_path, &script).map_err(|source| CliError::Io {
            path: script_path.to_string(),
            source,
        })?;
        let _ = write!(
            out,
            "\nwrote {script_path} ({} bytes; renders {png})",
            script.len()
        );
    }
    Ok(out)
}

/// `slackvm compact`
pub fn compact(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["trace", "at-day"])?;
    let at_day: u64 = args.get_parsed_or("at-day", 4)?;
    let (model, _, _, rejections) = fleet_at(args, Some(at_day * 86_400))?;
    if rejections > 0 {
        return Err(CliError::Invalid(format!(
            "replay failed: {rejections} VM(s) fit no worker"
        )));
    }
    let DeploymentModel::Shared(pool) = model else {
        unreachable!("compact takes no --model: the default fleet is shared")
    };
    let snapshots: Vec<MachineSnapshot> =
        pool.cluster.hosts().iter().map(|h| h.snapshot()).collect();
    let plan = plan_compaction(&snapshots);
    Ok(format!(
        "state at day {at_day}: {} workers opened, {} active, {} VMs\n\
         compaction: {} migration(s) drain {} worker(s) ({:.1}% of fleet)",
        pool.cluster.opened(),
        pool.cluster.active(),
        pool.cluster.num_vms(),
        plan.moves.len(),
        plan.reclaimed_pms(),
        plan.reclaimed_pms() as f64 / pool.cluster.opened().max(1) as f64 * 100.0,
    ))
}

/// The migration cost budget from a `--max-migrations`-style flag
/// family; `keys` names the three flags in (migrations, moved-gib,
/// concurrent) order so `serve` can prefix them without clashing with
/// its other knobs.
fn rebalance_budget(
    args: &Args,
    keys: [&'static str; 3],
) -> Result<slackvm_rebalance::Budget, CliError> {
    let mut budget = slackvm_rebalance::Budget::default();
    budget.max_migrations = args.get_parsed_or(keys[0], budget.max_migrations)?;
    if let Some(moved_gib) = args.get_parsed::<u64>(keys[1])? {
        budget.max_moved_mem_mib = gib(moved_gib);
    }
    budget.max_concurrent = args.get_parsed_or(keys[2], budget.max_concurrent)?;
    budget
        .validate()
        .map_err(|e| CliError::Invalid(format!("rebalance budget: {e}")))?;
    Ok(budget)
}

/// `slackvm rebalance plan|apply`
pub fn rebalance(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&[
        "trace",
        "at",
        "model",
        "fleet",
        "topology",
        "mem",
        "policy",
        "index",
        "max-migrations",
        "max-moved-gib",
        "max-concurrent",
    ])?;
    let action = args.positionals.first().map(String::as_str).unwrap_or("plan");
    if !matches!(action, "plan" | "apply") {
        return Err(CliError::Invalid(format!(
            "unknown rebalance action {action:?} (plan, apply)"
        )));
    }
    // Budget and model flags are validated before the trace read, same
    // contract as `replay`.
    let budget = rebalance_budget(args, ["max-migrations", "max-moved-gib", "max-concurrent"])?;
    let (mut model, workload, cutoff, rejections) = fleet_at(args, None)?;
    let mut out = fleet_header(&model, &workload, cutoff, rejections);
    let plan = slackvm_rebalance::plan_rebalance(&model, &budget)
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    out.push_str(&plan.render());
    match action {
        "plan" => {
            // Dry run: the JSON rendering rides below the human one so
            // scripts can split on the first '{'.
            out.push_str(&plan.to_json());
            out.push('\n');
        }
        _ => {
            let report = slackvm_rebalance::apply_plan(&mut model, &plan)
                .map_err(|e| CliError::Invalid(e.to_string()))?;
            model.check_invariants().map_err(|e| {
                CliError::Invalid(format!("post-apply invariant violation: {e}"))
            })?;
            out.push_str(&report.render());
            out.push('\n');
        }
    }
    Ok(out)
}

/// `slackvm pressure status|plan|apply`
///
/// Mirrors `rebalance`, but for the hotspot-mitigation plane: the trace
/// prefix is replayed, every placed VM gets the same synthesized usage
/// signal the serve tick derives from `--usage-seed`/`--hot-frac`, the
/// samples run through the estimator pipeline, and the resulting
/// demand drives the pressure report and (for plan/apply) a spread-out
/// mitigation plan under the migration budget.
pub fn pressure(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&[
        "trace",
        "at",
        "model",
        "fleet",
        "topology",
        "mem",
        "policy",
        "index",
        "max-migrations",
        "max-moved-gib",
        "max-concurrent",
        "usage-seed",
        "hot-frac",
    ])?;
    let action = args
        .positionals
        .first()
        .map(String::as_str)
        .unwrap_or("status");
    if !matches!(action, "status" | "plan" | "apply") {
        return Err(CliError::Invalid(format!(
            "unknown pressure action {action:?} (status, plan, apply)"
        )));
    }
    let budget = rebalance_budget(args, ["max-migrations", "max-moved-gib", "max-concurrent"])?;
    let usage_seed: u64 = args.get_parsed_or("usage-seed", 42)?;
    let hot_frac: f64 = args.get_parsed_or("hot-frac", 0.0)?;
    if !(0.0..=1.0).contains(&hot_frac) {
        return Err(CliError::Invalid(
            "--hot-frac must be within [0, 1]".into(),
        ));
    }
    let (model, workload, cutoff, rejections) = fleet_at(args, None)?;
    let mut out = fleet_header(&model, &workload, cutoff, rejections);
    out.push_str(&pressure_action(
        action, model, &budget, usage_seed, hot_frac,
    )?);
    Ok(out)
}

/// What `pressure <action>` prints below the fleet header, for a fleet
/// already built.
fn pressure_action(
    action: &str,
    mut model: DeploymentModel,
    budget: &slackvm_rebalance::Budget,
    usage_seed: u64,
    hot_frac: f64,
) -> Result<String, CliError> {
    let thresholds = slackvm_pressure::PressureConfig::default();
    // Feed the synthesized per-VM signal through the same estimator
    // pipeline the serve tick runs, so an offline `pressure apply`
    // plans exactly what the online tick would.
    let mut tracker =
        slackvm_pressure::UsageTracker::new(slackvm_pressure::EstimatorConfig::default());
    slackvm_pressure::observe_model(&mut tracker, &model, |vm| {
        slackvm_pressure::synth_frac(usage_seed, vm, hot_frac)
    });
    let usage = |vm| tracker.demand(vm);
    let mut out = String::new();
    if action == "status" {
        let report =
            slackvm_pressure::score_pressure(&model, &thresholds, &usage, &Default::default());
        out.push_str(&report.render());
        out.push_str(&report.to_json());
        out.push('\n');
        return Ok(out);
    }
    let plan = slackvm_pressure::plan_mitigation(&model, &thresholds, budget, &usage)
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    out.push_str(&plan.render());
    match action {
        "plan" => {
            out.push_str(&plan.to_json());
            out.push('\n');
        }
        _ => {
            let report = slackvm_rebalance::apply_plan(&mut model, &plan.plan)
                .map_err(|e| CliError::Invalid(e.to_string()))?;
            model.check_invariants().map_err(|e| {
                CliError::Invalid(format!("post-apply invariant violation: {e}"))
            })?;
            // Classify with the memory the plan's header was classified
            // with (as the online tick does): a hot PM cooled only into
            // the hysteresis band is still hot, here as there.
            let after = slackvm_pressure::score_pressure(
                &model,
                &thresholds,
                &usage,
                &plan.before.states(),
            );
            out.push_str(&report.render());
            let _ = writeln!(
                out,
                "\nafter: {} hot, {} warm, {} cold (peak score {:.2})",
                after.hot(),
                after.warm(),
                after.cold(),
                after.peak_score(),
            );
        }
    }
    Ok(out)
}

/// `slackvm sweep`
pub fn sweep(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["provider", "mix", "population", "seed"])?;
    let what = args.positionals.first().map(String::as_str).unwrap_or("mc");
    let cat = provider(args)?;
    let mix = mix(args, "F")?;
    let config = packing_config(args)?;
    let mut out = String::new();
    match what {
        "mc" => {
            let _ = writeln!(out, "hardware M/C sweep ({} / mix {mix}):", cat.provider);
            for row in hardware_mc_sweep(&cat, &mix, &config, &[64, 96, 128, 192, 256]) {
                let _ = writeln!(
                    out,
                    "  {:>3} GiB (M/C {:>2.0}) -> baseline {:>3}, slackvm {:>3} ({:+.1}%)",
                    row.mem_gib,
                    row.target_ratio,
                    row.baseline_pms,
                    row.slackvm_pms,
                    row.savings_pct
                );
            }
        }
        "population" => {
            let _ = writeln!(out, "population sweep ({} / mix {mix}):", cat.provider);
            for row in population_sweep(&cat, &mix, &config, &[100, 250, 500, 1000]) {
                let _ = writeln!(
                    out,
                    "  {:>5} VMs -> baseline {:>3}, slackvm {:>3} ({:+.1}%)",
                    row.population, row.baseline_pms, row.slackvm_pms, row.savings_pct
                );
            }
        }
        "seeds" => {
            let stats = replicated_savings(&cat, &mix, &config, &[1, 2, 3, 4, 5, 6, 7, 8]);
            let _ = writeln!(
                out,
                "seed replication ({} runs): savings {:.1}% ± {:.1} (min {:.1}, max {:.1})",
                stats.runs, stats.mean, stats.std_dev, stats.min, stats.max
            );
        }
        other => {
            return Err(CliError::Invalid(format!(
                "unknown sweep {other:?} (mc, population, seeds)"
            )))
        }
    }
    Ok(out)
}

/// `slackvm calibrate`
pub fn calibrate_cmd(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["targets", "step"])?;
    let targets = match args.get("targets") {
        None => slackvm::perf::CalibrationTargets::paper_table4(),
        Some(raw) => {
            // "b1,s1;b2,s2;b3,s3" — per-level baseline/slackvm medians.
            let medians: Result<Vec<(f64, f64)>, CliError> = raw
                .split(';')
                .map(|pair| {
                    let (b, s) = pair
                        .split_once(',')
                        .ok_or_else(|| CliError::Invalid(format!("bad target pair {pair:?}")))?;
                    let parse = |v: &str| {
                        v.trim()
                            .parse::<f64>()
                            .map_err(|_| CliError::Invalid(format!("bad target number {v:?}")))
                    };
                    Ok((parse(b)?, parse(s)?))
                })
                .collect();
            slackvm::perf::CalibrationTargets { medians: medians? }
        }
    };
    let step: u64 = args.get_parsed_or("step", 2400)?;
    let fit = slackvm::perf::calibrate(&targets, step);
    let mut out = format!(
        "fitted: base latency {:.2} ms, pressure coeff {:.1} (residual {:.4})\n",
        fit.base_latency_ms, fit.pressure_coeff, fit.residual
    );
    for (i, ((fb, fs), (tb, ts))) in fit.fitted_medians.iter().zip(&targets.medians).enumerate() {
        let _ = writeln!(
            out,
            "level {}: fitted {fb:.2} -> {fs:.2} ms (target {tb:.2} -> {ts:.2})",
            i + 1
        );
    }
    Ok(out)
}

/// `slackvm report`
pub fn report(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["trace", "out"])?;
    let workload = load_trace(args)?;
    let markdown = experiments::trace_report(&workload, PmConfig::simulation_host());
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &markdown).map_err(|source| CliError::Io {
                path: path.to_string(),
                source,
            })?;
            Ok(format!("wrote {path} ({} bytes)", markdown.len()))
        }
        None => Ok(markdown),
    }
}

/// `slackvm layout`
pub fn layout(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["topology", "mem"])?;
    let topo = slackvm::topology::topology_from_spec(args.get_or("topology", "cores=32"))
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    let mem = gib(args.get_parsed_or("mem", 128)?);
    let mut machine = PhysicalMachine::with_topology_policy(PmId(0), Arc::new(topo), mem);
    let mut out = String::new();
    for (i, raw) in args.positionals.iter().enumerate() {
        let spec: VmSpec = raw
            .parse()
            .map_err(|e: slackvm::model::ParseSpecError| CliError::Invalid(e.to_string()))?;
        machine
            .deploy(VmId(i as u64), spec)
            .map_err(|e| CliError::Invalid(format!("cannot place {raw:?}: {e}")))?;
    }
    let _ = writeln!(out, "{}", slackvm::hypervisor::render_layout(&machine));
    for vnode in machine.vnodes() {
        if let Some(vt) = machine.virtual_topology(vnode.level()) {
            let _ = writeln!(out, "  {} virtual topology: {}", vnode.level(), vt);
        }
    }
    Ok(out)
}

/// `slackvm scenarios`
pub fn scenarios(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["population", "seed", "run"])?;
    let population: u32 = args.get_parsed_or("population", 300)?;
    let seed: u64 = args.get_parsed_or("seed", 0x70)?;
    let mut out = String::new();
    for scenario in slackvm::workload::scenarios::all(population) {
        if let Some(name) = args.get("run") {
            if name != scenario.name {
                continue;
            }
        }
        let workload = scenario.generate(seed);
        let stats = slackvm::workload::TraceStats::of(&workload)
            .ok_or_else(|| CliError::Invalid(format!("{} generated nothing", scenario.name)))?;
        let mut baseline = DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            scenario.mix.levels(),
        ));
        let base = run_packing(&workload, &mut baseline);
        let mut shared =
            DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)));
        let slack = run_packing(&workload, &mut shared);
        let _ = writeln!(
            out,
            "{:<20} {:<62} {:>5} arrivals, baseline {:>3} PMs, slackvm {:>3} PMs ({:+.1}%)",
            scenario.name,
            scenario.description,
            stats.arrivals,
            base.opened_pms,
            slack.opened_pms,
            slack.savings_vs(&base),
        );
    }
    if out.is_empty() {
        return Err(CliError::Invalid(format!(
            "no scenario named {:?}",
            args.get("run").unwrap_or("")
        )));
    }
    Ok(out)
}

/// `slackvm steady`
pub fn steady(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["trace", "model", "svg", "series-out", "sample-interval"])?;
    let workload = load_trace(args)?;
    let mut model = match args.get_or("model", "shared") {
        "dedicated" => DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            [
                OversubLevel::of(1),
                OversubLevel::of(2),
                OversubLevel::of(3),
            ],
        )),
        "shared" => DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128))),
        other => {
            return Err(CliError::Invalid(format!(
                "unknown model {other:?} (dedicated, shared)"
            )))
        }
    };
    let mut samples = Vec::new();
    run_packing_with(
        &workload,
        &mut model,
        RunOptions {
            samples: Some(&mut samples),
            ..RunOptions::default()
        },
        &mut NullRecorder,
    );
    let summary = slackvm::sim::analyze_steady_state(&samples)
        .ok_or_else(|| CliError::Invalid("trace too short for steady-state analysis".into()))?;
    let mut out = format!(
        "samples: {} (warm-up {} up to t={:.2} d)\n\
         steady region: {} samples\n\
         mean population: {:.1}\n\
         mean unallocated: cpu {:.1}%, mem {:.1}%",
        samples.len(),
        summary.warmup_samples,
        summary.warmup_end_secs as f64 / 86_400.0,
        summary.steady_samples,
        summary.mean_population,
        summary.mean_unallocated_cpu * 100.0,
        summary.mean_unallocated_mem * 100.0,
    );
    if let Some(note) = write_svg(
        args,
        slackvm_viz::occupancy_svg(&samples, "occupancy time series"),
    )? {
        let _ = writeln!(out, "\n{note}");
    }
    if let Some(path) = args.get("series-out") {
        let interval: u64 = args.get_parsed_or("sample-interval", 3600)?;
        let store = store_from_samples(&samples, interval);
        std::fs::write(path, store.to_csv()).map_err(|source| CliError::Io {
            path: path.to_string(),
            source,
        })?;
        let _ = write!(
            out,
            "\nwrote {path} ({} series, {} points)",
            store.len(),
            store.total_points()
        );
    }
    Ok(out)
}

/// `slackvm recommend`
pub fn recommend(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&[
        "vcpus",
        "level",
        "demand",
        "quantile",
        "margin",
        "max-level",
    ])?;
    let vcpus: u32 = args
        .get_parsed("vcpus")?
        .ok_or(CliError::MissingOption("vcpus"))?;
    let level: u32 = args.get_parsed_or("level", 1)?;
    let level = OversubLevel::new(level).map_err(|e| CliError::Invalid(e.to_string()))?;
    let demand_raw = args
        .get("demand")
        .ok_or(CliError::MissingOption("demand"))?;
    let demand: Vec<f64> = demand_raw
        .split(',')
        .map(|d| d.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| CliError::Invalid(format!("cannot parse demand series {demand_raw:?}")))?;
    let config = slackvm::hypervisor::DynamicLevelConfig {
        peak_quantile: args.get_parsed_or("quantile", 0.98)?,
        safety_margin: args.get_parsed_or("margin", 1.25)?,
        max_level: args.get_parsed_or("max-level", 8)?,
    };
    let rec = slackvm::hypervisor::recommend_level(&demand, vcpus, level, &config);
    Ok(format!(
        "vNode: {} vCPUs at {}\npeak demand (q{:.2}): {:.2} cores\n\
         recommendation: {} ({} -> {} cores, {} freed)",
        vcpus,
        rec.current,
        config.peak_quantile,
        rec.peak_demand_cores,
        rec.recommended,
        rec.cores_now,
        rec.cores_after,
        rec.cores_freed(),
    ))
}

/// The serve/bombard options that shape the per-shard deployment model.
fn serve_model_spec(args: &Args) -> Result<slackvm_serve::ModelSpec, CliError> {
    let topology = args.get_or("topology", "cores=32").to_string();
    let mem_mib = gib(args.get_parsed_or("mem", 128)?);
    match args.get_or("model", "shared") {
        "shared" => {
            let policy = args.get_or("policy", "progress+bestfit");
            parse_policy(policy)?;
            Ok(slackvm_serve::ModelSpec::Shared {
                topology,
                mem_mib,
                policy: policy.to_string(),
                fleet_cap: args.get_parsed("fleet")?,
            })
        }
        "dedicated" => {
            if args.get("policy").is_some() {
                return Err(CliError::Invalid(
                    "--policy applies to the shared model only (dedicated packs first-fit per level)"
                        .into(),
                ));
            }
            Ok(slackvm_serve::ModelSpec::Dedicated { topology, mem_mib })
        }
        other => Err(CliError::Invalid(format!(
            "unknown model {other:?} (dedicated, shared)"
        ))),
    }
}

/// The `--state-dir` family of durability options. The satellite flags
/// are an error without `--state-dir` — silently ignoring an fsync
/// policy the operator asked for would be worse than rejecting it.
fn serve_durable(args: &Args) -> Result<Option<slackvm_serve::DurableOptions>, CliError> {
    let Some(dir) = args.get("state-dir") else {
        for key in ["fsync", "fsync-interval-ms", "snapshot-every", "retain"] {
            if args.get(key).is_some() {
                return Err(CliError::Invalid(format!("--{key} requires --state-dir")));
            }
        }
        return Ok(None);
    };
    let fsync_raw = args.get_or("fsync", "every");
    let interval_ms = args.get_parsed_or("fsync-interval-ms", 50)?;
    let fsync = slackvm_serve::FsyncPolicy::parse(fsync_raw, interval_ms).ok_or_else(|| {
        CliError::Invalid(format!(
            "unknown fsync policy {fsync_raw:?} (every, interval, off)"
        ))
    })?;
    let mut opts = slackvm_serve::DurableOptions::new(dir);
    opts.fsync = fsync;
    opts.snapshot_every = args.get_parsed_or("snapshot-every", 8192)?;
    opts.retain = args.get_parsed_or("retain", 3)?;
    Ok(Some(opts))
}

/// The request-tracing level. `--trace-sample N` upgrades the default
/// stage-stamping level to full lifecycle sampling; `--trace off`
/// removes even the per-batch clock reads from the hot path. A
/// `--trace-out` without sampling is an error — no spans would ever be
/// recorded, and an empty trace file the operator asked for would look
/// like a bug downstream.
fn serve_trace(args: &Args) -> Result<slackvm_serve::TraceLevel, CliError> {
    let sample = args.get_parsed::<u64>("trace-sample")?;
    if args.get("trace-out").is_some() && sample.is_none() {
        return Err(CliError::Invalid(
            "--trace-out requires --trace-sample (nothing records spans otherwise)".into(),
        ));
    }
    match (args.get_or("trace", "stages"), sample) {
        ("off", None) => Ok(slackvm_serve::TraceLevel::Off),
        ("off", Some(_)) => Err(CliError::Invalid(
            "--trace-sample conflicts with --trace off".into(),
        )),
        ("stages", None) => Ok(slackvm_serve::TraceLevel::Stages),
        ("stages", Some(every)) => Ok(slackvm_serve::TraceLevel::Sampled { every }),
        (other, _) => Err(CliError::Invalid(format!(
            "unknown trace level {other:?} (off, stages; add --trace-sample N for spans)"
        ))),
    }
}

/// SLO targets for the `/slo` scorecard, defaulting to the library's
/// targets; bounds are validated by the service config.
fn serve_slo(args: &Args) -> Result<slackvm_serve::SloTargets, CliError> {
    let mut slo = slackvm_serve::SloTargets::default();
    if let Some(window) = args.get_parsed("slo-window-s")? {
        slo.window_secs = window;
    }
    if let Some(p99_ms) = args.get_parsed::<u64>("slo-p99-ms")? {
        slo.p99_us = p99_ms.saturating_mul(1000);
    }
    if let Some(availability) = args.get_parsed("slo-availability")? {
        slo.availability = availability;
    }
    Ok(slo)
}

/// The `--rebalance-every-ms` family of background-consolidation
/// options. As with `--state-dir`, the budget satellites are an error
/// without the enabling flag — a budget the operator tuned for a tick
/// that never runs is a typo, not a configuration.
fn serve_rebalance(args: &Args) -> Result<Option<slackvm_serve::RebalanceOptions>, CliError> {
    let Some(every_ms) = args.get_parsed::<u64>("rebalance-every-ms")? else {
        for key in [
            "rebalance-max-migrations",
            "rebalance-max-moved-gib",
            "rebalance-max-concurrent",
        ] {
            if args.get(key).is_some() {
                return Err(CliError::Invalid(format!(
                    "--{key} requires --rebalance-every-ms"
                )));
            }
        }
        return Ok(None);
    };
    if every_ms == 0 {
        return Err(CliError::Invalid(
            "--rebalance-every-ms must be >= 1 (omit the flag to disable rebalancing)".into(),
        ));
    }
    let budget = rebalance_budget(
        args,
        [
            "rebalance-max-migrations",
            "rebalance-max-moved-gib",
            "rebalance-max-concurrent",
        ],
    )?;
    Ok(Some(slackvm_serve::RebalanceOptions {
        every: std::time::Duration::from_millis(every_ms),
        budget,
    }))
}

/// The `--pressure-every-ms` family of hotspot-mitigation options,
/// with the same satellites-require-the-enabling-flag contract as
/// `serve_rebalance`.
fn serve_pressure(args: &Args) -> Result<Option<slackvm_serve::PressureOptions>, CliError> {
    let Some(every_ms) = args.get_parsed::<u64>("pressure-every-ms")? else {
        for key in [
            "pressure-max-migrations",
            "pressure-max-moved-gib",
            "pressure-max-concurrent",
            "pressure-usage-seed",
            "pressure-hot-frac",
        ] {
            if args.get(key).is_some() {
                return Err(CliError::Invalid(format!(
                    "--{key} requires --pressure-every-ms"
                )));
            }
        }
        return Ok(None);
    };
    if every_ms == 0 {
        return Err(CliError::Invalid(
            "--pressure-every-ms must be >= 1 (omit the flag to disable mitigation)".into(),
        ));
    }
    let budget = rebalance_budget(
        args,
        [
            "pressure-max-migrations",
            "pressure-max-moved-gib",
            "pressure-max-concurrent",
        ],
    )?;
    let mut opts = slackvm_serve::PressureOptions::default();
    opts.every = std::time::Duration::from_millis(every_ms);
    opts.budget = budget;
    opts.usage_seed = args.get_parsed_or("pressure-usage-seed", opts.usage_seed)?;
    opts.hot_frac = args.get_parsed_or("pressure-hot-frac", opts.hot_frac)?;
    Ok(Some(opts))
}

/// The serve/bombard options that shape the service itself.
fn serve_config(args: &Args) -> Result<slackvm_serve::ServeConfig, CliError> {
    let index = parse_index(args)?;
    Ok(slackvm_serve::ServeConfig {
        shards: args.get_parsed_or("shards", 1)?,
        queue_depth: args.get_parsed_or("queue-depth", 1024)?,
        batch_max: args.get_parsed_or("batch", 64)?,
        deadline: args
            .get_parsed::<u64>("deadline-ms")?
            .map(std::time::Duration::from_millis),
        deterministic: false,
        model: serve_model_spec(args)?,
        index,
        sample_interval_ms: args.get_parsed("sample-interval-ms")?,
        durable: serve_durable(args)?,
        durable_fail_stop: args.has_flag("durable-fail-stop"),
        rebalance: serve_rebalance(args)?,
        pressure: serve_pressure(args)?,
        trace: serve_trace(args)?,
        stall_threshold: std::time::Duration::from_millis(args.get_parsed_or("stall-ms", 2000)?),
        slo: serve_slo(args)?,
    })
}

/// `slackvm serve`
pub fn serve(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&[
        "addr",
        "port",
        "shards",
        "queue-depth",
        "batch",
        "deadline-ms",
        "model",
        "policy",
        "fleet",
        "index",
        "topology",
        "mem",
        "sample-interval-ms",
        "state-dir",
        "fsync",
        "fsync-interval-ms",
        "snapshot-every",
        "retain",
        "durable-fail-stop",
        "rebalance-every-ms",
        "rebalance-max-migrations",
        "rebalance-max-moved-gib",
        "rebalance-max-concurrent",
        "pressure-every-ms",
        "pressure-max-migrations",
        "pressure-max-moved-gib",
        "pressure-max-concurrent",
        "pressure-usage-seed",
        "pressure-hot-frac",
        "obs-addr",
        "stall-ms",
        "trace",
        "trace-sample",
        "trace-out",
        "slo-window-s",
        "slo-p99-ms",
        "slo-availability",
    ])?;
    let config = serve_config(args)?;
    let addr = match args.get("addr") {
        Some(addr) => addr.to_string(),
        None => format!("127.0.0.1:{}", args.get_parsed_or::<u16>("port", 7070)?),
    };
    let service = slackvm_serve::PlacementService::start(config)
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    for r in service.recovery_reports() {
        eprintln!(
            "slackvm serve: shard {} recovered (snapshot {}, replayed {} records, torn {} B) in {} ms",
            r.shard,
            r.snapshot_seq.map_or_else(|| "none".into(), |s| s.to_string()),
            r.records_replayed,
            r.truncated_bytes,
            r.elapsed.as_millis(),
        );
    }
    // The observability plane binds before the request listener: a
    // health probe must be answerable the moment traffic can arrive.
    let obs = match args.get("obs-addr") {
        Some(obs_addr) => {
            let server = slackvm_serve::ObsServer::start(obs_addr, service.obs_handle())
                .map_err(|e| CliError::Invalid(format!("cannot bind obs {obs_addr}: {e}")))?;
            eprintln!("slackvm serve: observability on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let server = slackvm_serve::TcpServer::bind(&addr, service)
        .map_err(|e| CliError::Invalid(format!("cannot bind {addr}: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    // Announce readiness before the blocking accept loop so scripts can
    // start bombarding as soon as this line appears.
    eprintln!("slackvm serve: listening on {local}");
    let (stats, report) = server.run().map_err(|e| CliError::Invalid(e.to_string()))?;
    report
        .check_invariants()
        .map_err(|e| CliError::Invalid(format!("post-shutdown invariant violation: {e}")))?;
    let mut out = format!(
        "serve: shutdown after {} connections, {} requests ({} bad lines)\n\
         admitted {}  rejected {}  shed {}  PMs opened {}",
        stats.connections,
        stats.requests,
        stats.bad_lines,
        report.admitted(),
        report.rejected(),
        report.shed(),
        report.opened_pms(),
    );
    if let Some(obs) = obs {
        let _ = write!(out, "\nobs: served {} scrapes", obs.stop());
    }
    if let Some(path) = args.get("trace-out") {
        let json = report
            .trace_json
            .as_deref()
            .expect("--trace-out validated to require --trace-sample");
        std::fs::write(path, json).map_err(|source| CliError::Io {
            path: path.to_string(),
            source,
        })?;
        let _ = write!(out, "\nwrote {path} ({} bytes)", json.len());
    }
    let slow = report.render_slow_requests();
    if !slow.is_empty() {
        let _ = write!(out, "\nslowest sampled requests:\n{slow}");
    }
    Ok(out)
}

/// One-shot HTTP GET against the serve frontend, returning the
/// Prometheus exposition body.
fn fetch_metrics(addr: &str) -> Result<String, CliError> {
    use std::io::{Read as _, Write as _};
    let io_err = |source: std::io::Error| CliError::Io {
        path: addr.to_string(),
        source,
    };
    let mut stream = std::net::TcpStream::connect(addr).map_err(io_err)?;
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").map_err(io_err)?;
    stream.flush().map_err(io_err)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(io_err)?;
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| CliError::Invalid(format!("malformed metrics response from {addr}")))
}

/// `slackvm bombard`
pub fn bombard(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&[
        "addr",
        "scenario",
        "population",
        "seed",
        "clients",
        "requests",
        "rate",
        "shards",
        "queue-depth",
        "batch",
        "deadline-ms",
        "model",
        "policy",
        "fleet",
        "index",
        "topology",
        "mem",
        "series-out",
        "prom-out",
        "sample-interval-ms",
        "shutdown",
        "trace",
        "trace-sample",
        "trace-out",
        "stall-ms",
        "slo-window-s",
        "slo-p99-ms",
        "slo-availability",
        "rebalance-every-ms",
        "rebalance-max-migrations",
        "rebalance-max-moved-gib",
        "rebalance-max-concurrent",
        "pressure-every-ms",
        "pressure-max-migrations",
        "pressure-max-moved-gib",
        "pressure-max-concurrent",
        "pressure-usage-seed",
        "pressure-hot-frac",
        "chaos-fail-every",
        "hot-frac",
        "usage-seed",
    ])?;
    let hot_frac: f64 = args.get_parsed_or("hot-frac", 0.0)?;
    if !(0.0..=1.0).contains(&hot_frac) {
        return Err(CliError::Invalid(
            "--hot-frac must be within [0, 1]".into(),
        ));
    }
    let config = slackvm_serve::BombardConfig {
        scenario: args.get_or("scenario", "paper-week-f").to_string(),
        population: args.get_parsed_or("population", 200)?,
        seed: args.get_parsed_or("seed", 42)?,
        clients: args.get_parsed_or("clients", 4)?,
        requests: args.get_parsed_or("requests", 10_000)?,
        chaos_fail_every: args.get_parsed("chaos-fail-every")?,
        hot_frac,
        usage_seed: args.get_parsed_or("usage-seed", 42)?,
    };
    let invalid = |e: slackvm_serve::ServeError| CliError::Invalid(e.to_string());
    let write = |path: &str, content: &str| -> Result<(), CliError> {
        std::fs::write(path, content).map_err(|source| CliError::Io {
            path: path.to_string(),
            source,
        })
    };
    let mut out = String::new();

    if let Some(addr) = args.get("addr") {
        // Remote mode: drive the TCP frontend of a running server.
        if args.get("rate").is_some() || args.get("series-out").is_some() {
            return Err(CliError::Invalid(
                "--rate and --series-out apply to in-process bombard only (drop --addr)".into(),
            ));
        }
        // Tracing and SLO targets belong to the server process; a
        // remote bombard cannot set them and must not pretend to.
        for key in [
            "trace",
            "trace-sample",
            "trace-out",
            "stall-ms",
            "slo-window-s",
            "slo-p99-ms",
            "slo-availability",
            "rebalance-every-ms",
            "rebalance-max-migrations",
            "rebalance-max-moved-gib",
            "rebalance-max-concurrent",
            "pressure-every-ms",
            "pressure-max-migrations",
            "pressure-max-moved-gib",
            "pressure-max-concurrent",
            "pressure-usage-seed",
            "pressure-hot-frac",
        ] {
            if args.get(key).is_some() {
                return Err(CliError::Invalid(format!(
                    "--{key} configures the service, not the client — \
                     pass it to `slackvm serve` (or drop --addr)"
                )));
            }
        }
        if config.requests > 0 {
            let report = slackvm_serve::run_tcp(addr, &config).map_err(invalid)?;
            out.push_str(&report.render());
        } else {
            out.push_str("bombard: no requests sent\n");
        }
        if let Some(path) = args.get("prom-out") {
            let exposition = fetch_metrics(addr)?;
            write(path, &exposition)?;
            let _ = writeln!(out, "wrote {path} ({} bytes)", exposition.len());
        }
        if args.has_flag("shutdown") {
            use std::io::{BufRead as _, BufReader, Write as _};
            let io_err = |source: std::io::Error| CliError::Io {
                path: addr.to_string(),
                source,
            };
            let stream = std::net::TcpStream::connect(addr).map_err(io_err)?;
            let mut writer = stream.try_clone().map_err(io_err)?;
            writeln!(writer, "{{\"op\":\"shutdown\"}}").map_err(io_err)?;
            writer.flush().map_err(io_err)?;
            let mut ack = String::new();
            BufReader::new(stream).read_line(&mut ack).map_err(io_err)?;
            out.push_str("sent shutdown\n");
        }
        return Ok(out);
    }

    // In-process mode: start a service, bombard it, report, tear down.
    if args.has_flag("shutdown") {
        return Err(CliError::Invalid(
            "--shutdown needs --addr (the in-process service always stops at the end)".into(),
        ));
    }
    let mut service_config = serve_config(args)?;
    if args.get("series-out").is_some() && service_config.sample_interval_ms.is_none() {
        service_config.sample_interval_ms = Some(50);
    }
    let service = slackvm_serve::PlacementService::start(service_config).map_err(invalid)?;
    let report = match args.get_parsed::<f64>("rate")? {
        Some(rate) => slackvm_serve::run_open_loop(&service, &config, rate),
        None => slackvm_serve::run_closed_loop(&service, &config),
    }
    .map_err(invalid)?;
    out.push_str(&report.render());
    if let Some(path) = args.get("prom-out") {
        let exposition = service.metrics_exposition();
        write(path, &exposition)?;
        let _ = writeln!(out, "wrote {path} ({} bytes)", exposition.len());
    }
    if let Some(path) = args.get("series-out") {
        let csv = service
            .series_csv()
            .ok_or_else(|| CliError::Invalid("sampler produced no series".into()))?;
        write(path, &csv)?;
        let _ = writeln!(out, "wrote {path} ({} bytes)", csv.len());
    }
    let final_report = service.stop();
    final_report
        .check_invariants()
        .map_err(|e| CliError::Invalid(format!("post-run invariant violation: {e}")))?;
    if let Some(path) = args.get("trace-out") {
        let json = final_report
            .trace_json
            .as_deref()
            .expect("--trace-out validated to require --trace-sample");
        write(path, json)?;
        let _ = writeln!(out, "wrote {path} ({} bytes)", json.len());
    }
    let _ = write!(
        out,
        "final: admitted {}  rejected {}  shed {}  PMs opened {}",
        final_report.admitted(),
        final_report.rejected(),
        final_report.shed(),
        final_report.opened_pms(),
    );
    let slow = final_report.render_slow_requests();
    if !slow.is_empty() {
        let _ = write!(out, "\nslowest sampled requests:\n{slow}");
    }
    Ok(out)
}

/// Reads a state directory's manifest and rebuilds what each shard's
/// worker starts from: an empty model shaped by the manifest, with the
/// manifest's candidate-index mode applied.
fn durable_models(
    dir: &std::path::Path,
) -> Result<(slackvm_durable::Manifest, Vec<DeploymentModel>), CliError> {
    let manifest =
        slackvm_durable::Manifest::load(dir).map_err(|e| CliError::Invalid(e.to_string()))?;
    let index = IndexMode::parse(&manifest.index).ok_or_else(|| {
        CliError::Invalid(format!(
            "manifest names unknown index mode {:?}",
            manifest.index
        ))
    })?;
    let models = (0..manifest.shards)
        .map(|_| {
            let mut model = manifest
                .model
                .build(manifest.shards)
                .map_err(CliError::Invalid)?;
            model.set_index_mode(index);
            Ok(model)
        })
        .collect::<Result<Vec<_>, CliError>>()?;
    Ok((manifest, models))
}

/// `slackvm recover`
pub fn recover(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["dir"])?;
    let dir = std::path::Path::new(args.get("dir").ok_or(CliError::MissingOption("dir"))?);
    let (manifest, models) = durable_models(dir)?;
    let mut out = format!(
        "recover {}: {} shard(s), model {}, index {}\n",
        dir.display(),
        manifest.shards,
        manifest.model.name(),
        manifest.index,
    );
    for (shard, mut model) in models.into_iter().enumerate() {
        let report = slackvm_durable::recover_shard(dir, shard as u32, &mut model)
            .map_err(|e| CliError::Invalid(format!("shard {shard}: {e}")))?;
        let state = model.capture_state();
        let _ = writeln!(
            out,
            "  shard {shard}: {} VMs on {} PMs  snapshot {}  replayed {}/{} records  \
             wal {} B  torn {} B  last seq {}  ({} ms)",
            state.placements().count(),
            state.opened_pms(),
            report
                .snapshot_seq
                .map_or_else(|| "none".to_string(), |seq| format!("seq {seq}")),
            report.records_replayed,
            report.records_total,
            report.wal_bytes,
            report.truncated_bytes,
            report.last_seq,
            report.elapsed.as_millis(),
        );
    }
    Ok(out)
}

/// `slackvm fsck`
pub fn fsck(args: &Args) -> Result<String, CliError> {
    args.expect_keys(&["dir"])?;
    let dir = std::path::Path::new(args.get("dir").ok_or(CliError::MissingOption("dir"))?);
    let (manifest, models) = durable_models(dir)?;
    // One fresh model per shard for the genesis replay, beyond the one
    // recover_shard restores into.
    let (_, fresh_models) = durable_models(dir)?;
    let mut out = format!("fsck {}: {} shard(s)\n", dir.display(), manifest.shards);
    let mut broken = Vec::new();
    for ((shard, mut model), mut fresh) in models.into_iter().enumerate().zip(fresh_models) {
        slackvm_durable::recover_shard(dir, shard as u32, &mut model)
            .map_err(|e| CliError::Invalid(format!("shard {shard}: {e}")))?;
        let report = slackvm_durable::fsck_shard(dir, shard as u32, &model, &mut fresh)
            .map_err(|e| CliError::Invalid(format!("shard {shard}: {e}")))?;
        if report.ok() {
            let _ = writeln!(
                out,
                "  shard {shard}: OK  {} records re-derived, {} torn bytes discarded",
                report.records_checked, report.truncated_bytes,
            );
        } else {
            for m in &report.mismatches {
                let _ = writeln!(out, "  shard {shard}: MISMATCH  {m}");
            }
            broken.push(shard.to_string());
        }
    }
    if broken.is_empty() {
        out.push_str("fsck: clean — recovered state matches the committed history\n");
        Ok(out)
    } else {
        Err(CliError::Invalid(format!(
            "{out}fsck: shard(s) {} diverge from the committed history",
            broken.join(", ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> Result<String, CliError> {
        crate::run(&Args::parse(tokens.to_vec()).unwrap())
    }

    #[test]
    fn tables_renders_both_providers() {
        let out = run(&["tables"]).unwrap();
        assert!(out.contains("azure"));
        assert!(out.contains("ovhcloud"));
        assert!(out.contains("Table III"));
    }

    #[test]
    fn fig3_requires_a_provider() {
        let err = run(&["fig3"]).unwrap_err();
        assert!(matches!(err, CliError::MissingOption("provider")));
        let err = run(&["fig3", "--provider", "gcp"]).unwrap_err();
        assert!(err.to_string().contains("gcp"));
    }

    #[test]
    fn fig3_small_run_produces_fifteen_rows() {
        let out = run(&["fig3", "--provider", "azure", "--population", "60"]).unwrap();
        for letter in 'A'..='O' {
            assert!(
                out.contains(&format!("| {letter} ")),
                "row {letter} missing:\n{out}"
            );
        }
    }

    #[test]
    fn fig4_grid_step_is_validated() {
        let err = run(&["fig4", "--provider", "azure", "--grid-step", "30"]).unwrap_err();
        assert!(err.to_string().contains("divide 100"));
    }

    #[test]
    fn generate_and_replay_roundtrip_through_a_file() {
        let dir = std::env::temp_dir().join("slackvm-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let path_str = path.to_str().unwrap();
        let out = run(&[
            "generate",
            "--provider",
            "ovhcloud",
            "--mix",
            "F",
            "--population",
            "40",
            "--days",
            "2",
            "--out",
            path_str,
        ])
        .unwrap();
        assert!(out.contains("wrote"));
        let replayed = run(&["replay", "--trace", path_str, "--model", "shared"]).unwrap();
        assert!(replayed.contains("PMs opened"));
        assert!(replayed.contains("rejections: 0/"));
        let dedicated = run(&["replay", "--trace", path_str, "--model", "dedicated"]).unwrap();
        assert!(dedicated.contains("dedicated/first-fit"));
        let compacted = run(&["compact", "--trace", path_str, "--at-day", "1"]).unwrap();
        assert!(compacted.contains("compaction:"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_index_modes_agree_and_are_validated() {
        let dir = std::env::temp_dir().join("slackvm-cli-index");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let path_str = path.to_str().unwrap();
        run(&[
            "generate",
            "--provider",
            "azure",
            "--mix",
            "F",
            "--population",
            "40",
            "--days",
            "2",
            "--out",
            path_str,
        ])
        .unwrap();
        for model in ["shared", "dedicated"] {
            let incr = run(&[
                "replay",
                "--trace",
                path_str,
                "--model",
                model,
                "--index",
                "incremental",
            ])
            .unwrap();
            let naive = run(&[
                "replay", "--trace", path_str, "--model", model, "--index", "naive",
            ])
            .unwrap();
            assert!(incr.contains("candidate index: incremental"));
            assert!(naive.contains("candidate index: naive"));
            // Identical packing outcome — only the index label differs.
            let strip = |s: &str| {
                s.lines()
                    .filter(|l| !l.starts_with("candidate index:"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(strip(&incr), strip(&naive));
        }
        let err = run(&[
            "replay", "--trace", path_str, "--model", "shared", "--index", "hashed",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("unknown index mode"));

        // A selectable policy shows up in the model label.
        let out = run(&[
            "replay", "--trace", path_str, "--model", "shared", "--policy", "best-fit",
        ])
        .unwrap();
        assert!(out.contains("best-fit"), "policy not applied:\n{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generate_accepts_numeric_mixes() {
        let out = run(&[
            "generate",
            "--provider",
            "azure",
            "--mix",
            "50,25,25",
            "--population",
            "20",
            "--days",
            "1",
        ])
        .unwrap();
        assert!(out.contains("generated"));
        let err = run(&["generate", "--provider", "azure", "--mix", "50,50"]).unwrap_err();
        assert!(err.to_string().contains("three shares"));
    }

    #[test]
    fn replay_with_telemetry_flags_writes_all_three_artifacts() {
        let dir = std::env::temp_dir().join("slackvm-cli-telemetry");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        run(&[
            "generate",
            "--provider",
            "azure",
            "--mix",
            "F",
            "--population",
            "50",
            "--days",
            "2",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();
        let events = dir.join("events.jsonl");
        let chrome = dir.join("trace-events.json");
        let metrics = dir.join("metrics.json");
        let out = run(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--events-out",
            events.to_str().unwrap(),
            "--trace-out",
            chrome.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("events)"), "no journal note:\n{out}");
        assert!(out.contains("spans)"), "no trace note:\n{out}");

        // The journal is non-empty JSONL that parses back to typed records.
        let jsonl = std::fs::read_to_string(&events).unwrap();
        let journal = slackvm::telemetry::Journal::from_jsonl(&jsonl).unwrap();
        assert!(!journal.is_empty());

        // The Chrome trace is valid JSON with a traceEvents array.
        let chrome_raw = std::fs::read_to_string(&chrome).unwrap();
        let chrome_json: serde_json::Value = serde_json::from_str(&chrome_raw).unwrap();
        assert!(!chrome_json["traceEvents"].as_array().unwrap().is_empty());

        // Metrics counters agree with both the journal and the printed
        // outcome (a zero-rejection replay of a validated trace).
        let summary: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let deployments = summary["counters"]["sim.deployments"].as_u64().unwrap();
        assert_eq!(journal.count_kind("vm_arrival") as u64, deployments);
        assert_eq!(
            summary["counters"]["sim.rejections"].as_u64().unwrap_or(0),
            0
        );
        assert!(out.contains(&format!("rejections: 0/{deployments}")));
        assert_eq!(
            journal.count_kind("vm_placed") as u64,
            summary["counters"]["events.vm_placed"].as_u64().unwrap()
        );

        // A text metrics summary is written when the path is not .json.
        let metrics_txt = dir.join("metrics.txt");
        run(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_txt.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&metrics_txt).unwrap();
        assert!(text.contains("counters:"));
        assert!(text.contains("sim.deployments"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampling_replay_feeds_the_obs_dashboard() {
        let dir = std::env::temp_dir().join("slackvm-cli-obs");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let trace_str = trace.to_str().unwrap();
        run(&[
            "generate",
            "--provider",
            "azure",
            "--mix",
            "F",
            "--population",
            "50",
            "--days",
            "2",
            "--out",
            trace_str,
        ])
        .unwrap();
        let series = dir.join("series.csv");
        let prom = dir.join("metrics.prom");
        let out = run(&[
            "replay",
            "--trace",
            trace_str,
            "--sample-interval",
            "7200",
            "--series-out",
            series.to_str().unwrap(),
            "--prom-out",
            prom.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("series,"), "no series note:\n{out}");

        // The CSV holds a real multi-series trajectory.
        let csv = std::fs::read_to_string(&series).unwrap();
        let store = TimeSeriesStore::from_csv(&csv).unwrap();
        assert!(store.len() >= 5, "only {} series", store.len());
        for name in [
            "cluster.cpu_utilization",
            "cluster.fragmentation",
            "cluster.active_pms",
            "cluster.alive_vms",
        ] {
            assert!(store.series(name).is_some(), "missing {name}");
        }

        // The exposition passes our own strict validator and carries
        // the scheduler pipeline histograms with non-zero counts.
        let exposition = std::fs::read_to_string(&prom).unwrap();
        slackvm::telemetry::prometheus::validate(&exposition).unwrap();
        assert!(exposition.contains("# TYPE slackvm_sched_select histogram"));
        assert!(exposition.contains("slackvm_timeseries"));

        // Same seed, same interval: byte-identical CSV.
        let series2 = dir.join("series2.csv");
        run(&[
            "replay",
            "--trace",
            trace_str,
            "--sample-interval",
            "7200",
            "--series-out",
            series2.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(csv, std::fs::read_to_string(&series2).unwrap());

        // The dashboard renders a summary row per series, validates the
        // exposition, and writes a runnable gnuplot script.
        let script = dir.join("obs.gp");
        let dash = run(&[
            "obs",
            "--series",
            series.to_str().unwrap(),
            "--prom",
            prom.to_str().unwrap(),
            "--gnuplot-out",
            script.to_str().unwrap(),
        ])
        .unwrap();
        assert!(dash.contains("cluster.alive_vms"));
        assert!(dash.contains("p99"));
        assert!(dash.contains("valid Prometheus exposition"));
        let gp = std::fs::read_to_string(&script).unwrap();
        assert!(gp.contains("set multiplot"));
        assert!(gp.contains("cluster.cpu_utilization"));

        let err = run(&["obs"]).unwrap_err();
        assert!(matches!(err, CliError::MissingOption("series")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn steady_series_out_downsamples_the_run() {
        let dir = std::env::temp_dir().join("slackvm-cli-steady-series");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        run(&[
            "generate",
            "--provider",
            "azure",
            "--mix",
            "E",
            "--population",
            "60",
            "--days",
            "4",
            "--out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        let series = dir.join("steady.csv");
        let out = run(&[
            "steady",
            "--trace",
            trace.to_str().unwrap(),
            "--series-out",
            series.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote"), "no series note:\n{out}");
        let store = TimeSeriesStore::from_csv(&std::fs::read_to_string(&series).unwrap()).unwrap();
        assert!(store.series("cluster.alive_vms").is_some());
        assert!(store.series("cluster.cpu_utilization").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_rejects_missing_trace() {
        let err = run(&["replay"]).unwrap_err();
        assert!(matches!(err, CliError::MissingOption("trace")));
        let err = run(&["replay", "--trace", "/nonexistent/x.json"]).unwrap_err();
        assert!(matches!(err, CliError::Io { .. }));
    }

    #[test]
    fn sweep_variants() {
        let out = run(&[
            "sweep",
            "seeds",
            "--provider",
            "ovhcloud",
            "--mix",
            "F",
            "--population",
            "60",
        ])
        .unwrap();
        assert!(out.contains("seed replication"));
        let err = run(&["sweep", "volume", "--provider", "azure"]).unwrap_err();
        assert!(err.to_string().contains("volume"));
    }

    #[test]
    fn recommend_computes_a_retune() {
        let out = run(&[
            "recommend",
            "--vcpus",
            "48",
            "--level",
            "3",
            "--demand",
            "2,3,4,3.5,2.5",
        ])
        .unwrap();
        assert!(out.contains("recommendation: 8:1"));
        assert!(out.contains("10 freed"));
        let err = run(&["recommend", "--vcpus", "48"]).unwrap_err();
        assert!(matches!(err, CliError::MissingOption("demand")));
    }

    #[test]
    fn scenarios_command_lists_and_filters() {
        let out = run(&["scenarios", "--population", "60"]).unwrap();
        for name in [
            "paper-week-f",
            "burst-day",
            "devtest-churn",
            "enterprise-steady",
        ] {
            assert!(out.contains(name), "missing {name}");
        }
        let one = run(&["scenarios", "--population", "60", "--run", "burst-day"]).unwrap();
        assert!(one.contains("burst-day"));
        assert!(!one.contains("paper-week-f"));
        let err = run(&["scenarios", "--run", "nope"]).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn steady_command_reports_the_warmup() {
        let dir = std::env::temp_dir().join("slackvm-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        run(&[
            "generate",
            "--provider",
            "azure",
            "--mix",
            "E",
            "--population",
            "60",
            "--days",
            "4",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&["steady", "--trace", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("steady region"));
        assert!(out.contains("mean population"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn calibrate_command_parses_custom_targets() {
        // A tiny step keeps the grid cheap in debug tests? No — the full
        // grid at any step is 240 runs; use the paper defaults but only
        // assert parse errors here (the fit itself is covered by
        // slackvm-perf's unit tests and the bench harness).
        let err = run(&["calibrate", "--targets", "1.0;2.0"]).unwrap_err();
        assert!(err.to_string().contains("bad target pair"));
        let err = run(&["calibrate", "--targets", "1.0,x"]).unwrap_err();
        assert!(err.to_string().contains("bad target number"));
    }

    #[test]
    fn typo_protection_fires() {
        let err = run(&["fig3", "--provder", "azure"]).unwrap_err();
        assert!(matches!(err, CliError::UnknownOption(_)));
    }

    #[test]
    fn replay_flag_validation_fires_before_trace_io() {
        // Flag typos must die before the trace is even opened, so a
        // nonexistent path proves the ordering. Unknown policies get a
        // one-line error naming the options.
        let err = run(&[
            "replay",
            "--trace",
            "/nonexistent/x.json",
            "--model",
            "shared",
            "--policy",
            "magic",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("magic"), "{err}");
        assert!(err.contains("progress+bestfit"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err}");

        // The dedicated baseline has no policy knob.
        let err = run(&[
            "replay",
            "--trace",
            "/nonexistent/x.json",
            "--model",
            "dedicated",
            "--policy",
            "best-fit",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("shared model only"), "{err}");

        // Same treatment for the index mode.
        let err = run(&[
            "replay",
            "--trace",
            "/nonexistent/x.json",
            "--index",
            "hashed",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown index mode"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err}");
    }

    fn idle_vm(
        id: u64,
        vcpus: u32,
        mem_gib: u64,
        at: u64,
        until: u64,
    ) -> (u64, slackvm::workload::WorkloadEvent) {
        (
            at,
            slackvm::workload::WorkloadEvent::Arrival(Box::new(slackvm::workload::VmInstance {
                id: VmId(id),
                spec: VmSpec::of(vcpus, gib(mem_gib), OversubLevel::of(1)),
                class: slackvm::workload::UsageClass::Idle,
                usage: slackvm::workload::CpuUsageModel::Idle { base: 0.02 },
                seed: id,
                arrival_secs: at,
                departure_secs: until,
            })),
        )
    }

    #[test]
    fn rebalance_plan_and_apply_consolidate_a_fragmented_replay() {
        use slackvm::workload::{Workload, WorkloadEvent};
        let dir = std::env::temp_dir().join(format!("slackvm-cli-rebal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        // Two near-full PMs; the first drains to one small VM that
        // first-fit parks back on it — classic departure fragmentation.
        let workload = Workload {
            events: vec![
                idle_vm(0, 20, 80, 0, 500),
                idle_vm(1, 20, 80, 0, 10_000),
                (500, WorkloadEvent::Departure { id: VmId(0) }),
                idle_vm(2, 4, 16, 600, 10_000),
            ],
        };
        workload.validate().unwrap();
        // The offline stub build has no serde; the real `cargo test`
        // exercises the full path.
        let Ok(json) = serde_json::to_string(&workload) else {
            return;
        };
        std::fs::write(&path, json).unwrap();
        let trace = path.to_str().unwrap();

        let out = run(&["rebalance", "plan", "--trace", trace, "--policy", "first-fit"]).unwrap();
        assert!(out.contains("2 PMs opened, 2 active"), "{out}");
        assert!(out.contains("1 migration(s), 1 PM(s) freed"), "{out}");
        assert!(out.contains("\"migrations\":1"), "{out}");
        assert!(out.contains("vm-2  pm-0 -> pm-1"), "{out}");

        // Before the departure there is nothing to consolidate.
        let out = run(&[
            "rebalance", "plan", "--trace", trace, "--policy", "first-fit", "--at", "2",
        ])
        .unwrap();
        assert!(out.contains("state at event 2/4"), "{out}");
        assert!(out.contains("0 migration(s)"), "{out}");

        let out = run(&["rebalance", "apply", "--trace", trace, "--policy", "first-fit"]).unwrap();
        assert!(
            out.contains("rebalance applied: 1 migration(s)"),
            "{out}"
        );
        assert!(out.contains("active PMs 2 -> 1 (1 freed)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebalance_flag_validation_fires_before_trace_io() {
        // A nonexistent trace path proves validation precedes IO.
        let err = run(&[
            "rebalance", "plan", "--trace", "/nonexistent/x.json", "--max-migrations", "0",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("max migrations"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err}");
        let err = run(&["rebalance", "drain", "--trace", "/nonexistent/x.json"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("plan, apply"), "{err}");
        let err = run(&[
            "rebalance", "plan", "--trace", "/nonexistent/x.json",
            "--model", "dedicated", "--policy", "best-fit",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("shared model only"), "{err}");
    }

    #[test]
    fn serve_rebalance_flags_are_validated() {
        let err = run(&["serve", "--rebalance-max-migrations", "4"])
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("--rebalance-max-migrations requires --rebalance-every-ms"),
            "{err}"
        );
        let err = run(&["serve", "--rebalance-every-ms", "0"])
            .unwrap_err()
            .to_string();
        assert!(err.contains(">= 1"), "{err}");
        let err = run(&[
            "serve", "--rebalance-every-ms", "50", "--rebalance-max-concurrent", "0",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("rebalance budget"), "{err}");
        // A remote bombard cannot reconfigure the server's rebalancer.
        let err = run(&["bombard", "--addr", "127.0.0.1:1", "--rebalance-every-ms", "50"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("slackvm serve"), "{err}");
    }

    #[test]
    fn bombard_in_process_with_rebalance_runs_clean() {
        // The online tick interleaves with live admission; the final
        // report's invariant check proves no VM was lost or duplicated.
        let out = run(&[
            "bombard",
            "--requests",
            "150",
            "--population",
            "24",
            "--clients",
            "2",
            "--rebalance-every-ms",
            "5",
        ])
        .unwrap();
        assert!(out.contains("final: admitted 150"), "{out}");
    }

    #[test]
    fn pressure_status_plan_and_apply_over_a_skewed_replay() {
        use slackvm::workload::Workload;
        let dir = std::env::temp_dir().join(format!("slackvm-cli-press-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        // Pick VM ids the synthesized signal marks hot vs cold, so the
        // fixture is stable whatever the splitmix draw does.
        let hot: Vec<u64> = (0..64)
            .filter(|&i| slackvm_pressure::is_hot(42, VmId(i), 0.5))
            .collect();
        let cold: Vec<u64> = (0..64)
            .filter(|&i| !slackvm_pressure::is_hot(42, VmId(i), 0.5))
            .collect();
        assert!(hot.len() >= 2 && !cold.is_empty());
        // Two hot 16-core VMs fill pm0 (32 cores); the cold VM opens
        // pm1 — a hotspot next to a cold destination.
        let workload = Workload {
            events: vec![
                idle_vm(hot[0], 16, 32, 0, 10_000),
                idle_vm(hot[1], 16, 32, 0, 10_000),
                idle_vm(cold[0], 4, 8, 0, 10_000),
            ],
        };
        workload.validate().unwrap();
        // The offline stub build has no serde; the real `cargo test`
        // exercises the full path.
        let Ok(json) = serde_json::to_string(&workload) else {
            return;
        };
        std::fs::write(&path, json).unwrap();
        let trace = path.to_str().unwrap();
        let base = ["--trace", trace, "--policy", "first-fit", "--hot-frac", "0.5"];

        let mut argv = vec!["pressure", "status"];
        argv.extend(base);
        let out = run(&argv).unwrap();
        assert!(out.contains("2 PM(s) — 1 hot, 0 warm, 1 cold"), "{out}");
        assert!(out.contains("\"hot\":1"), "{out}");

        let mut argv = vec!["pressure", "plan"];
        argv.extend(base);
        let out = run(&argv).unwrap();
        assert!(
            out.contains("1 migration(s), hot PMs 1 -> 0 (1 cooled)"),
            "{out}"
        );
        assert!(out.contains("\"hot_before\":1"), "{out}");
        assert!(out.contains("pm-0 -> pm-1"), "{out}");

        let mut argv = vec!["pressure", "apply"];
        argv.extend(base);
        let out = run(&argv).unwrap();
        assert!(out.contains("after: 0 hot"), "{out}");
        assert_eq!(header_hot_after(&out), after_line_hot(&out), "{out}");

        // Without --hot-frac every VM idles: nothing is hot, nothing moves.
        let out = run(&[
            "pressure", "plan", "--trace", trace, "--policy", "first-fit",
        ])
        .unwrap();
        assert!(out.contains("0 migration(s), hot PMs 0 -> 0"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `B` of the plan header's `hot PMs A -> B`.
    fn header_hot_after(out: &str) -> u32 {
        let rest = out.split("hot PMs ").nth(1).expect("a plan header");
        let b = rest.split(" -> ").nth(1).expect("A -> B");
        b.split(' ').next().unwrap().parse().expect("a count")
    }

    /// `N` of `pressure apply`'s closing `after: N hot, ...`.
    fn after_line_hot(out: &str) -> u32 {
        let rest = out.split("after: ").nth(1).expect("an after: line");
        rest.split(' ').next().unwrap().parse().expect("a count")
    }

    #[test]
    fn pressure_apply_counts_a_pm_cooled_only_into_the_band_as_its_plan_does() {
        use slackvm::sched::PlacementPolicy;
        // pm0: four hot 8-vCPU VMs at 1:1 (score about 0.9); pm1: one idle
        // VM. A one-migration budget takes pm0 to three hot VMs — about
        // 0.67, inside the hysteresis band [0.60, 0.75): still hot to the
        // plan, and it must be still hot to the line that follows it.
        let mut hot = (0..).filter(|&i| slackvm_pressure::is_hot(42, VmId(i), 0.5));
        let cold = (0..)
            .find(|&i| !slackvm_pressure::is_hot(42, VmId(i), 0.5))
            .unwrap();
        let mut shared = slackvm::sim::SharedDeployment::with_policy(
            Arc::new(flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        );
        let level = OversubLevel::of(1);
        for _ in 0..4 {
            let id = VmId(hot.next().unwrap());
            shared.deploy(id, VmSpec::of(8, gib(16), level)).unwrap();
        }
        shared
            .deploy(VmId(cold), VmSpec::of(4, gib(8), level))
            .unwrap();
        assert_eq!(shared.cluster.opened(), 2);
        let budget = slackvm_rebalance::Budget {
            max_migrations: 1,
            ..Default::default()
        };
        let out =
            pressure_action("apply", DeploymentModel::Shared(shared), &budget, 42, 0.5).unwrap();
        assert!(
            out.contains("1 migration(s), hot PMs 1 -> 1 (0 cooled)"),
            "{out}"
        );
        assert_eq!(header_hot_after(&out), after_line_hot(&out), "{out}");
    }

    #[test]
    fn pressure_flag_validation_fires_before_trace_io() {
        let err = run(&[
            "pressure", "plan", "--trace", "/nonexistent/x.json", "--max-migrations", "0",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("max migrations"), "{err}");
        let err = run(&["pressure", "melt", "--trace", "/nonexistent/x.json"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("status, plan, apply"), "{err}");
        let err = run(&[
            "pressure", "plan", "--trace", "/nonexistent/x.json", "--hot-frac", "1.5",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn serve_pressure_flags_are_validated() {
        let err = run(&["serve", "--pressure-max-migrations", "4"])
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("--pressure-max-migrations requires --pressure-every-ms"),
            "{err}"
        );
        let err = run(&["serve", "--pressure-every-ms", "0"])
            .unwrap_err()
            .to_string();
        assert!(err.contains(">= 1"), "{err}");
        let err = run(&[
            "serve", "--pressure-every-ms", "50", "--pressure-max-concurrent", "0",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("rebalance budget"), "{err}");
        // A remote bombard cannot reconfigure the server's pressure plane,
        // and the client-side hot fraction is bounds-checked up front.
        let err = run(&["bombard", "--addr", "127.0.0.1:1", "--pressure-every-ms", "50"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("slackvm serve"), "{err}");
        let err = run(&["bombard", "--hot-frac", "2"]).unwrap_err().to_string();
        assert!(err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn bombard_in_process_with_both_background_planes_runs_clean() {
        // Pressure and consolidation ticks interleave with live
        // admission under a skewed, pinned-hot-VM load; the final
        // report's invariant check proves no VM was lost or duplicated.
        let dir = std::env::temp_dir().join(format!("slackvm-cli-planes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let series = dir.join("planes.csv");
        let out = run(&[
            "bombard",
            "--requests",
            "150",
            "--population",
            "24",
            "--clients",
            "2",
            "--rebalance-every-ms",
            "7",
            "--pressure-every-ms",
            "5",
            "--pressure-hot-frac",
            "0.3",
            "--hot-frac",
            "0.3",
            "--series-out",
            series.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("final: admitted 150"), "{out}");
        // The sampler records both planes, and the obs dashboard
        // surfaces them from the same CSV.
        let csv = std::fs::read_to_string(&series).unwrap();
        for name in [
            "rebalance.migrations",
            "rebalance.pms_freed",
            "pressure.migrations",
            "pressure.hot_pms",
        ] {
            assert!(csv.contains(name), "series CSV misses {name}");
        }
        let out = run(&["obs", "--series", series.to_str().unwrap()]).unwrap();
        assert!(out.contains("pressure.hot_pms"), "{out}");
        assert!(out.contains("rebalance.migrations"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_bombard_reject_bad_names_before_binding() {
        let err = run(&["serve", "--policy", "magic"])
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("magic") && err.contains("progress+bestfit"),
            "{err}"
        );
        assert!(!err.contains('\n'), "error must be one line: {err}");
        let err = run(&["serve", "--index", "hashed"])
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown index mode") && err.contains("incremental"),
            "{err}"
        );
        let err = run(&["bombard", "--scenario", "rush-hour"])
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("rush-hour") && err.contains("paper-week-f"),
            "{err}"
        );
        let err = run(&["bombard", "--shutdown"]).unwrap_err().to_string();
        assert!(err.contains("--addr"), "{err}");
    }

    #[test]
    fn bombard_in_process_smoke_with_artifacts() {
        let dir = std::env::temp_dir().join("slackvm-cli-bombard");
        std::fs::create_dir_all(&dir).unwrap();
        let prom = dir.join("serve.prom");
        let series = dir.join("serve.csv");
        let out = run(&[
            "bombard",
            "--requests",
            "200",
            "--population",
            "32",
            "--clients",
            "2",
            "--shards",
            "2",
            "--prom-out",
            prom.to_str().unwrap(),
            "--series-out",
            series.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("closed-loop"), "{out}");
        assert!(out.contains("placed 200"), "{out}");
        assert!(out.contains("shed 0"), "{out}");
        assert!(out.contains("final: admitted 200"), "{out}");

        // The exposition passes the strict validator and feeds `obs
        // --prom` without a series file.
        let exposition = std::fs::read_to_string(&prom).unwrap();
        slackvm::telemetry::prometheus::validate(&exposition).unwrap();
        assert!(
            exposition.contains("slackvm_serve_admitted"),
            "{exposition}"
        );
        assert!(exposition.contains("slackvm_build_info{"), "{exposition}");
        let dash = run(&["obs", "--prom", prom.to_str().unwrap()]).unwrap();
        assert!(dash.contains("valid Prometheus exposition"), "{dash}");

        // The sampler wrote a readable CSV.
        let store = TimeSeriesStore::from_csv(&std::fs::read_to_string(&series).unwrap()).unwrap();
        assert!(store.series("serve.inflight").is_some());

        // Open loop at a modest rate also completes.
        let out = run(&[
            "bombard",
            "--requests",
            "50",
            "--population",
            "16",
            "--rate",
            "5000",
        ])
        .unwrap();
        assert!(out.contains("open-loop"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bombard_drives_a_tcp_server_and_shuts_it_down() {
        let dir = std::env::temp_dir().join("slackvm-cli-tcp");
        std::fs::create_dir_all(&dir).unwrap();
        let prom = dir.join("scrape.prom");
        let service = slackvm_serve::PlacementService::start(slackvm_serve::ServeConfig {
            shards: 2,
            ..Default::default()
        })
        .unwrap();
        let server = slackvm_serve::TcpServer::bind("127.0.0.1:0", service).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let out = run(&[
            "bombard",
            "--addr",
            &addr,
            "--requests",
            "80",
            "--population",
            "16",
            "--clients",
            "2",
            "--prom-out",
            prom.to_str().unwrap(),
            "--shutdown",
        ])
        .unwrap();
        assert!(out.contains("closed-loop/tcp"), "{out}");
        assert!(out.contains("placed 80"), "{out}");
        assert!(out.contains("sent shutdown"), "{out}");

        let (stats, report) = handle.join().unwrap();
        assert_eq!(report.admitted(), 80);
        assert!(stats.requests >= 160, "{stats:?}");
        report.check_invariants().unwrap();

        let exposition = std::fs::read_to_string(&prom).unwrap();
        slackvm::telemetry::prometheus::validate(&exposition).unwrap();
        assert!(exposition.contains("slackvm_build_info{"), "{exposition}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn custom_catalog_and_topology_flow() {
        let dir = std::env::temp_dir().join("slackvm-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        // Write a custom catalog and generate from it.
        let cat_path = dir.join("catalog.json");
        let catalog_json = serde_json::to_string(&catalog::balanced()).unwrap();
        std::fs::write(&cat_path, catalog_json).unwrap();
        let provider_arg = format!("file:{}", cat_path.to_str().unwrap());
        let trace_path = dir.join("trace.json");
        run(&[
            "generate",
            "--provider",
            &provider_arg,
            "--mix",
            "A",
            "--population",
            "20",
            "--days",
            "1",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();
        // Replay on a custom 16-core / 64 GiB worker shape.
        let out = run(&[
            "replay",
            "--trace",
            trace_path.to_str().unwrap(),
            "--topology",
            "cores=16",
            "--mem",
            "64",
        ])
        .unwrap();
        assert!(out.contains("PMs opened"));
        // Malformed catalog file errors cleanly.
        let bad_path = dir.join("bad.json");
        std::fs::write(&bad_path, "{").unwrap();
        let err = run(&[
            "generate",
            "--provider",
            &format!("file:{}", bad_path.to_str().unwrap()),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("JSON"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_traces_fail_with_one_line_errors_naming_the_file() {
        let dir = std::env::temp_dir().join(format!("slackvm-cli-badtrace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A trace chopped mid-write and one that is not JSON at all.
        let truncated = dir.join("truncated.json");
        std::fs::write(&truncated, r#"{"arrivals": [{"at": 0, "vm""#).unwrap();
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, [0u8, 159, 146, 150, 255, 0, 17]).unwrap();
        for path in [&truncated, &garbage] {
            let path = path.to_str().unwrap();
            let msg = run(&["replay", "--trace", path, "--model", "shared"])
                .unwrap_err()
                .to_string();
            assert!(msg.contains(path), "error must name the file: {msg}");
            assert!(!msg.contains('\n'), "error must be one line: {msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_flags_without_a_state_dir_are_rejected() {
        let err = run(&["serve", "--fsync", "off"]).unwrap_err().to_string();
        assert!(err.contains("--fsync requires --state-dir"), "{err}");
        let err = run(&["serve", "--retain", "5"]).unwrap_err().to_string();
        assert!(err.contains("--retain requires --state-dir"), "{err}");
        // Bad fsync policy names fail before any socket is bound.
        let err = run(&["serve", "--state-dir", "/tmp/x", "--fsync", "always"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("every, interval, off"), "{err}");
        // Bombard never journals — the flags are unknown there.
        let err = run(&["bombard", "--state-dir", "/tmp/x"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("state-dir"), "{err}");
    }

    #[test]
    fn trace_and_slo_flags_are_validated_before_binding() {
        let err = run(&["serve", "--trace", "verbose"]).unwrap_err().to_string();
        assert!(err.contains("unknown trace level"), "{err}");
        let err = run(&["serve", "--trace-out", "/tmp/t.json"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("--trace-out requires --trace-sample"), "{err}");
        let err = run(&["serve", "--trace", "off", "--trace-sample", "4"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("conflicts"), "{err}");
        let err = run(&["bombard", "--requests", "1", "--trace-sample", "0"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("sampling period"), "{err}");
        let err = run(&["bombard", "--requests", "1", "--stall-ms", "0"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("stall threshold"), "{err}");
        let err = run(&["bombard", "--requests", "1", "--slo-availability", "1.5"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("slo targets"), "{err}");
        // A remote bombard cannot reconfigure the server's tracing.
        let err = run(&["bombard", "--addr", "127.0.0.1:1", "--trace-sample", "4"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("slackvm serve"), "{err}");
    }

    #[test]
    fn bombard_samples_a_chrome_trace_and_prints_the_stage_breakdown() {
        let dir = std::env::temp_dir().join(format!("slackvm-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("spans.json");
        let out = run(&[
            "bombard",
            "--requests",
            "150",
            "--population",
            "24",
            "--clients",
            "2",
            "--trace-sample",
            "3",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("server     queue"), "{out}");
        assert!(out.contains("slowest sampled requests:"), "{out}");
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        for span in ["serve.request", "serve.queue_wait", "serve.placement"] {
            assert!(json.contains(&format!("\"name\":\"{span}\"")), "{span} missing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_and_fsck_audit_a_state_directory_written_by_the_service() {
        use slackvm_serve::{DurableOptions, ModelSpec, Op, ServeConfig};
        let dir = std::env::temp_dir().join(format!("slackvm-cli-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            shards: 2,
            queue_depth: 64,
            batch_max: 16,
            deadline: None,
            deterministic: false,
            model: ModelSpec::default_shared(),
            index: IndexMode::Incremental,
            sample_interval_ms: None,
            durable: Some(DurableOptions::new(&dir)),
            ..ServeConfig::default()
        };
        let svc = slackvm_serve::PlacementService::start(config).unwrap();
        for i in 0..10u64 {
            svc.call(Op::Place {
                id: VmId(i),
                spec: VmSpec::of(2, gib(4), OversubLevel::of(2)),
            })
            .unwrap();
        }
        svc.call(Op::Remove { id: VmId(4) }).unwrap();
        svc.stop();

        let dir_str = dir.to_str().unwrap().to_string();
        let out = run(&["recover", "--dir", &dir_str]).unwrap();
        assert!(out.contains("2 shard(s)"), "{out}");
        assert!(
            out.contains("shard 0:") && out.contains("shard 1:"),
            "{out}"
        );
        assert!(out.contains("torn 0 B"), "{out}");
        let out = run(&["fsck", "--dir", &dir_str]).unwrap();
        assert!(out.contains("fsck: clean"), "{out}");
        assert!(out.contains("OK"), "{out}");

        // A directory with no manifest is an error, not a panic.
        let empty = dir.join("not-a-state-dir");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&["recover", "--dir", empty.to_str().unwrap()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("MANIFEST"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
