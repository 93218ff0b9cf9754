//! Records a fully-instrumented replay of the paper-week scenario and
//! exports all three telemetry artifacts: a JSONL event journal, a
//! Chrome trace (loadable at ui.perfetto.dev or chrome://tracing), and
//! a plain-text metrics summary.
//!
//! Run with: `cargo run --release --example trace_a_run`

use std::sync::Arc;

use slackvm::prelude::*;
use slackvm::workload::scenarios;

fn main() {
    // A seeded week of arrivals/departures at the paper's F mix.
    let scenario = scenarios::all(400)
        .into_iter()
        .find(|s| s.name == "paper-week-f")
        .expect("canned scenario");
    let workload = scenario.generate(0x5AC4);

    let mut model = DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)));
    let mut telemetry = Telemetry::new();
    let out =
        run_packing_with(&workload, &mut model, RunOptions::default(), &mut telemetry).outcome;

    println!(
        "replayed {}: {} deployments, {} rejections, {} PMs opened",
        scenario.name, out.deployments, out.rejections, out.opened_pms
    );
    println!(
        "journal: {} events ({} placements, {} vNode creations, {} vNode resizes)",
        telemetry.journal.len(),
        telemetry.journal.count_kind("vm_placed"),
        telemetry.journal.count_kind("v_node_created"),
        telemetry.journal.count_kind("v_node_grew") + telemetry.journal.count_kind("v_node_shrunk"),
    );

    let dir = std::env::temp_dir().join("slackvm-trace-a-run");
    std::fs::create_dir_all(&dir).expect("create output dir");
    let events = dir.join("events.jsonl");
    let chrome = dir.join("trace.json");
    telemetry
        .journal
        .write_jsonl(&events)
        .expect("write journal");
    telemetry.trace.write_chrome(&chrome).expect("write trace");
    println!("wrote {}", events.display());
    println!(
        "wrote {} — open it in Perfetto to see the hot paths",
        chrome.display()
    );
    println!("\n{}", telemetry.metrics.render_text());
}
