//! Telemetry benchmark: the Bronze-Standard campaign with a
//! [`TimelineSink`] attached, in two regimes.
//!
//! - **ideal** — the frictionless grid. Nothing queues, nothing fails,
//!   so the timeline's per-link byte totals must sum to exactly the
//!   enactor's `bytes_transferred` (the acceptance invariant for the
//!   telemetry pipeline: no transfer is double-counted or dropped).
//! - **egee-loaded** — `egee_2006` with an eighth of the worker slots,
//!   at a larger campaign size. Demand now exceeds capacity, so jobs
//!   sit in the CE batch queues behind the background load and the
//!   bottleneck detector must attribute the run to `queue-wait`.
//!
//! `BENCH_timeline.json` records both regimes — peak queue depth,
//! bytes through the enactor, the attributed verdict — and the CI gate
//! (`moteur-bench gate`) requires the invariant and the attribution to
//! hold ([`crate::gate::check_timeline`]).

use crate::bronze::{bronze_inputs, bronze_workflow};
use moteur::obs::json::JsonObject;
use moteur::{
    detect_bottlenecks, run_fault_tolerant, EnactorConfig, FtConfig, MoteurError, Obs, SimBackend,
    TimelineSink,
};
use moteur_gridsim::GridConfig;

/// Schema tag of [`render_timeline_json`].
pub const TIMELINE_BENCH_SCHEMA: &str = "moteur-bench/timeline/v1";

/// Campaign shape for the two regimes.
#[derive(Debug, Clone)]
pub struct TimelineSpec {
    /// Campaign size on the ideal grid (byte-accounting regime).
    pub ideal_n_data: usize,
    /// Campaign size on `egee_2006` (queue-saturation regime).
    pub loaded_n_data: usize,
    pub seed: u64,
}

impl Default for TimelineSpec {
    fn default() -> Self {
        TimelineSpec {
            ideal_n_data: 6,
            loaded_n_data: 24,
            seed: 2006,
        }
    }
}

/// What one regime measured.
#[derive(Debug, Clone)]
pub struct TimelineOutcome {
    pub scenario: &'static str,
    pub makespan_secs: f64,
    pub jobs_submitted: usize,
    /// The enactor's own transfer accounting.
    pub bytes_transferred: u64,
    /// Σ of the timeline's per-link byte counters.
    pub timeline_link_bytes: u64,
    /// Largest user-queue depth observed on any CE.
    pub peak_queue_depth: usize,
    /// The detector's verdict (`queue-wait`/`transfer`/`compute`/`idle`).
    pub verdict: String,
    /// Share of attributed seconds behind the verdict.
    pub dominant_fraction: f64,
    pub queue_wait_secs: f64,
    pub transfer_secs: f64,
    pub compute_secs: f64,
}

/// The full benchmark result (`BENCH_timeline.json`).
#[derive(Debug, Clone)]
pub struct TimelineReport {
    pub spec: TimelineSpec,
    pub outcomes: Vec<TimelineOutcome>,
}

impl TimelineReport {
    pub fn outcome(&self, scenario: &str) -> Option<&TimelineOutcome> {
        self.outcomes.iter().find(|o| o.scenario == scenario)
    }
}

/// `egee_2006` scaled down to the large-campaign regime: the four big
/// centres with two worker slots each (8 slots total) and no
/// background churn, keeping the full overhead and transfer model. A
/// campaign wave outnumbers the slots several times over, so jobs sit
/// in the CE batch queues and `queue-wait` is the binding resource.
fn loaded_grid() -> GridConfig {
    let mut grid = GridConfig::egee_2006();
    grid.ces.truncate(4);
    for ce in &mut grid.ces {
        ce.slots = 2;
        ce.background_interarrival = None;
        ce.initial_backlog = 0;
    }
    grid
}

/// Run both regimes with a timeline sink attached.
pub fn run_timeline(spec: &TimelineSpec) -> Result<TimelineReport, MoteurError> {
    if spec.ideal_n_data == 0 || spec.loaded_n_data == 0 {
        return Err(MoteurError::new("timeline benchmark needs n_data > 0"));
    }
    let workflow = bronze_workflow();
    let ft = FtConfig::from_legacy(3);
    let scenarios: [(&'static str, GridConfig, usize); 2] = [
        ("ideal", GridConfig::ideal(), spec.ideal_n_data),
        ("egee-loaded", loaded_grid(), spec.loaded_n_data),
    ];
    let mut outcomes = Vec::new();
    for (scenario, grid, n_data) in scenarios {
        let inputs = bronze_inputs(n_data);
        let sink = TimelineSink::new();
        let state = sink.state();
        let obs = Obs::new(vec![Box::new(sink)]);
        let mut backend = SimBackend::with_obs(grid, spec.seed, &obs);
        let config = EnactorConfig::sp_dp().with_seed(spec.seed);
        let result = run_fault_tolerant(&workflow, &inputs, config, &ft, &mut backend, obs)?;
        let state = state.lock().expect("timeline state");
        let detect = detect_bottlenecks(&state.stats);
        outcomes.push(TimelineOutcome {
            scenario,
            makespan_secs: result.makespan.as_secs_f64(),
            jobs_submitted: result.jobs_submitted,
            bytes_transferred: result.bytes_transferred,
            timeline_link_bytes: state.stats.total_link_bytes(),
            peak_queue_depth: state
                .stats
                .ces
                .values()
                .map(|c| c.peak_queue_depth)
                .max()
                .unwrap_or(0),
            verdict: detect.verdict.as_str().to_string(),
            dominant_fraction: detect.dominant_fraction,
            queue_wait_secs: state.stats.queue_wait_secs,
            transfer_secs: state.stats.transfer_secs,
            compute_secs: state.stats.compute_secs,
        });
    }
    Ok(TimelineReport {
        spec: spec.clone(),
        outcomes,
    })
}

/// Serialise the report (`BENCH_timeline.json`).
pub fn render_timeline_json(report: &TimelineReport) -> String {
    let outcomes = moteur::obs::json::array(report.outcomes.iter().map(|o| {
        JsonObject::new()
            .str("scenario", o.scenario)
            .num("makespan_secs", o.makespan_secs)
            .uint("jobs_submitted", o.jobs_submitted as u64)
            .uint("bytes_transferred", o.bytes_transferred)
            .uint("timeline_link_bytes", o.timeline_link_bytes)
            .uint("peak_queue_depth", o.peak_queue_depth as u64)
            .str("verdict", &o.verdict)
            .num("dominant_fraction", o.dominant_fraction)
            .num("queue_wait_secs", o.queue_wait_secs)
            .num("transfer_secs", o.transfer_secs)
            .num("compute_secs", o.compute_secs)
            .finish()
    }));
    JsonObject::new()
        .str("schema", TIMELINE_BENCH_SCHEMA)
        .str("workflow", "bronze")
        .str("config", "sp+dp")
        .uint("ideal_n_data", report.spec.ideal_n_data as u64)
        .uint("loaded_n_data", report.spec.loaded_n_data as u64)
        .uint("seed", report.spec.seed)
        .raw("scenarios", &outcomes)
        .finish()
}

/// Human rendering, one regime per block.
pub fn render_timeline(report: &TimelineReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline telemetry: bronze sp+dp, ideal n_data {} / egee n_data {} (seed {})",
        report.spec.ideal_n_data, report.spec.loaded_n_data, report.spec.seed,
    );
    for o in &report.outcomes {
        let _ = writeln!(
            out,
            "  {:<12} makespan {:>9.1} s  {} jobs  {} bytes (timeline {})  peak queue {}",
            o.scenario,
            o.makespan_secs,
            o.jobs_submitted,
            o.bytes_transferred,
            o.timeline_link_bytes,
            o.peak_queue_depth,
        );
        let _ = writeln!(
            out,
            "  {:<12} verdict {} ({:.0}% of q {:.0}s / t {:.0}s / c {:.0}s)",
            "",
            o.verdict,
            o.dominant_fraction * 100.0,
            o.queue_wait_secs,
            o.transfer_secs,
            o.compute_secs,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> TimelineSpec {
        TimelineSpec {
            ideal_n_data: 3,
            loaded_n_data: 24,
            seed: 2006,
        }
    }

    #[test]
    fn link_bytes_reconcile_with_the_enactor_on_the_ideal_grid() {
        let report = run_timeline(&quick_spec()).unwrap();
        let ideal = report.outcome("ideal").unwrap();
        assert!(ideal.bytes_transferred > 0);
        assert_eq!(
            ideal.timeline_link_bytes, ideal.bytes_transferred,
            "timeline lost or double-counted transfer bytes"
        );
        // Frictionless grid: dispatch is immediate (a job is enqueued
        // and started at the same instant), nothing transfers slowly.
        assert!(ideal.peak_queue_depth <= 1, "{}", ideal.peak_queue_depth);
        assert_eq!(ideal.verdict, "compute");
    }

    #[test]
    fn the_loaded_grid_is_attributed_to_ce_queues() {
        let report = run_timeline(&quick_spec()).unwrap();
        let loaded = report.outcome("egee-loaded").unwrap();
        assert_eq!(loaded.verdict, "queue-wait", "{loaded:?}");
        assert!(loaded.peak_queue_depth > 0);
        let checks = crate::gate::check_timeline(&render_timeline_json(&report)).unwrap();
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
    }

    #[test]
    fn timeline_json_carries_the_schema_and_both_scenarios() {
        let report = run_timeline(&TimelineSpec {
            ideal_n_data: 2,
            loaded_n_data: 6,
            seed: 7,
        })
        .unwrap();
        let json = render_timeline_json(&report);
        assert!(json.contains("\"schema\":\"moteur-bench/timeline/v1\""));
        assert!(json.contains("\"ideal\""));
        assert!(json.contains("\"egee-loaded\""));
        assert!(json.contains("\"timeline_link_bytes\""));
        let human = render_timeline(&report);
        assert!(human.contains("timeline telemetry"));
        assert!(human.contains("verdict"));
    }
}
