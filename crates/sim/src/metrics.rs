//! Occupancy tracking and packing-outcome accounting.

use serde::{Deserialize, Serialize};

use slackvm_model::AllocView;

/// A point-in-time snapshot of the cluster taken after processing an
/// event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OccupancySample {
    /// Simulation time (seconds).
    pub time_secs: u64,
    /// VMs alive.
    pub alive_vms: u32,
    /// PMs opened so far.
    pub opened_pms: u32,
    /// Fraction of the opened cluster's CPU left unallocated.
    pub unallocated_cpu: f64,
    /// Fraction of the opened cluster's memory left unallocated.
    pub unallocated_mem: f64,
}

impl OccupancySample {
    /// Builds a sample from cluster totals.
    pub fn from_totals(
        time_secs: u64,
        alive_vms: u32,
        opened_pms: u32,
        alloc: AllocView,
        capacity: AllocView,
    ) -> Self {
        let unallocated_cpu = if capacity.cpu.0 == 0 {
            0.0
        } else {
            1.0 - alloc.cpu.0 as f64 / capacity.cpu.0 as f64
        };
        let unallocated_mem = if capacity.mem_mib == 0 {
            0.0
        } else {
            1.0 - alloc.mem_mib as f64 / capacity.mem_mib as f64
        };
        OccupancySample {
            time_secs,
            alive_vms,
            opened_pms,
            unallocated_cpu,
            unallocated_mem,
        }
    }
}

/// The result of replaying one workload against one deployment model —
/// the raw material of the paper's Figures 3 and 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackingOutcome {
    /// Deployment-model label ("dedicated/first-fit", "slackvm/progress").
    pub model: String,
    /// Total PMs the workload required (opened hosts) — Fig. 4's input.
    pub opened_pms: u32,
    /// Peak simultaneously-alive VM count.
    pub peak_alive_vms: u32,
    /// The snapshot at peak occupancy (maximum alive VMs, latest such
    /// instant) — Fig. 3's unallocated shares are read from here.
    pub at_peak: OccupancySample,
    /// Time-weighted mean unallocated CPU share over the run.
    pub mean_unallocated_cpu: f64,
    /// Time-weighted mean unallocated memory share over the run.
    pub mean_unallocated_mem: f64,
    /// Deployments that failed (0 on unbounded clusters).
    pub rejections: u32,
    /// Total deployments attempted.
    pub deployments: u32,
}

impl PackingOutcome {
    /// PM savings of `self` relative to a baseline outcome, in percent —
    /// Fig. 4's cell value.
    pub fn savings_vs(&self, baseline: &PackingOutcome) -> f64 {
        if baseline.opened_pms == 0 {
            return 0.0;
        }
        (baseline.opened_pms as f64 - self.opened_pms as f64) / baseline.opened_pms as f64 * 100.0
    }
}

/// Streaming collector of samples and time-weighted means.
#[derive(Debug, Default)]
pub struct OccupancyTracker {
    peak: Option<OccupancySample>,
    last: Option<OccupancySample>,
    weighted_cpu: f64,
    weighted_mem: f64,
    total_time: f64,
    peak_alive: u32,
}

impl OccupancyTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds a snapshot; must be called with non-decreasing times.
    pub fn observe(&mut self, sample: OccupancySample) {
        if let Some(prev) = self.last {
            let dt = sample.time_secs.saturating_sub(prev.time_secs) as f64;
            self.weighted_cpu += prev.unallocated_cpu * dt;
            self.weighted_mem += prev.unallocated_mem * dt;
            self.total_time += dt;
        }
        self.last = Some(sample);
        if sample.alive_vms >= self.peak_alive {
            self.peak_alive = sample.alive_vms;
            self.peak = Some(sample);
        }
    }

    /// The snapshot at peak occupancy, if any sample was observed.
    pub fn peak(&self) -> Option<OccupancySample> {
        self.peak
    }

    /// Peak alive-VM count.
    pub fn peak_alive(&self) -> u32 {
        self.peak_alive
    }

    /// Time-weighted mean unallocated (cpu, mem) shares.
    pub fn means(&self) -> (f64, f64) {
        if self.total_time <= 0.0 {
            match self.last {
                Some(s) => (s.unallocated_cpu, s.unallocated_mem),
                None => (0.0, 0.0),
            }
        } else {
            (
                self.weighted_cpu / self.total_time,
                self.weighted_mem / self.total_time,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::Millicores;

    fn sample(t: u64, alive: u32, cpu_free: f64, mem_free: f64) -> OccupancySample {
        OccupancySample {
            time_secs: t,
            alive_vms: alive,
            opened_pms: 1,
            unallocated_cpu: cpu_free,
            unallocated_mem: mem_free,
        }
    }

    #[test]
    fn from_totals_computes_shares() {
        let alloc = AllocView::new(Millicores::from_cores(8), 1024);
        let cap = AllocView::new(Millicores::from_cores(32), 4096);
        let s = OccupancySample::from_totals(10, 3, 1, alloc, cap);
        assert!((s.unallocated_cpu - 0.75).abs() < 1e-12);
        assert!((s.unallocated_mem - 0.75).abs() < 1e-12);
        // Zero capacity (no PM opened yet) is defined as fully allocated.
        let z = OccupancySample::from_totals(0, 0, 0, AllocView::EMPTY, AllocView::EMPTY);
        assert_eq!(z.unallocated_cpu, 0.0);
    }

    #[test]
    fn tracker_finds_latest_peak() {
        let mut t = OccupancyTracker::new();
        t.observe(sample(0, 1, 0.9, 0.9));
        t.observe(sample(10, 5, 0.5, 0.4));
        t.observe(sample(20, 5, 0.3, 0.2)); // same alive count, later
        t.observe(sample(30, 2, 0.8, 0.8));
        let peak = t.peak().unwrap();
        assert_eq!(peak.time_secs, 20);
        assert_eq!(t.peak_alive(), 5);
    }

    #[test]
    fn tracker_time_weights_means() {
        let mut t = OccupancyTracker::new();
        t.observe(sample(0, 1, 1.0, 0.0));
        t.observe(sample(10, 1, 0.0, 1.0)); // first 10s at (1.0, 0.0)
        t.observe(sample(30, 1, 0.0, 1.0)); // next 20s at (0.0, 1.0)
        let (cpu, mem) = t.means();
        assert!((cpu - 10.0 / 30.0).abs() < 1e-12);
        assert!((mem - 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_means_fall_back() {
        let mut t = OccupancyTracker::new();
        t.observe(sample(5, 1, 0.4, 0.6));
        assert_eq!(t.means(), (0.4, 0.6));
        assert_eq!(OccupancyTracker::new().means(), (0.0, 0.0));
    }

    #[test]
    fn savings_formula() {
        let mk = |pms| PackingOutcome {
            model: "x".into(),
            opened_pms: pms,
            peak_alive_vms: 0,
            at_peak: sample(0, 0, 0.0, 0.0),
            mean_unallocated_cpu: 0.0,
            mean_unallocated_mem: 0.0,
            rejections: 0,
            deployments: 0,
        };
        let baseline = mk(83);
        let slackvm = mk(75);
        assert!((slackvm.savings_vs(&baseline) - 9.6385).abs() < 0.01);
        assert_eq!(mk(5).savings_vs(&mk(0)), 0.0);
    }
}
