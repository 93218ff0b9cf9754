//! Renders every paper figure as an SVG under `./figures/`.
//!
//! Run with: `cargo run --release --example render_figures [population]`

use std::sync::Arc;

use slackvm::experiments::{run_fig3, run_fig4, PackingConfig};
use slackvm::prelude::*;
use slackvm_viz::{fig2_svg, fig3_svg, fig4_svg, occupancy_svg};

fn main() -> std::io::Result<()> {
    let population: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    let out_dir = std::path::Path::new("figures");
    std::fs::create_dir_all(out_dir)?;
    let config = PackingConfig {
        target_population: population,
        ..PackingConfig::default()
    };

    // Fig. 2 — response times on the modeled testbed.
    let fig2 = Fig2Scenario::default().run();
    std::fs::write(out_dir.join("fig2_response_times.svg"), fig2_svg(&fig2))?;

    // Fig. 3 + Fig. 4 per provider.
    for provider in [catalog::azure(), catalog::ovhcloud()] {
        let rows = run_fig3(&provider, &config);
        std::fs::write(
            out_dir.join(format!("fig3_unallocated_{}.svg", provider.provider)),
            fig3_svg(&rows, &provider.provider),
        )?;
        let grid = run_fig4(&provider, &config, 25);
        std::fs::write(
            out_dir.join(format!("fig4_savings_{}.svg", provider.provider)),
            fig4_svg(&grid),
        )?;
    }

    // Occupancy time series of the headline workload (steady-state view).
    let workload = slackvm::workload::scenarios::paper_week_f(population).generate(config.seed);
    let mut model = DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)));
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
    std::fs::write(
        out_dir.join("occupancy_paper_week_f.svg"),
        occupancy_svg(
            &samples,
            "SlackVM pool occupancy — paper week, distribution F",
        ),
    )?;
    if let Some(steady) = slackvm::sim::analyze_steady_state(&samples) {
        println!(
            "steady state from t={:.1} d: population {:.0}, unallocated cpu {:.1}% mem {:.1}%",
            steady.warmup_end_secs as f64 / 86_400.0,
            steady.mean_population,
            steady.mean_unallocated_cpu * 100.0,
            steady.mean_unallocated_mem * 100.0,
        );
    }

    for entry in std::fs::read_dir(out_dir)? {
        let entry = entry?;
        println!(
            "wrote {} ({} bytes)",
            entry.path().display(),
            entry.metadata()?.len()
        );
    }
    Ok(())
}
