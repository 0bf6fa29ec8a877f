//! Scale campaign: push the simulator and the enactor far past the
//! paper's workloads and measure real (host) throughput.
//!
//! Two phases, both driven with the self-profiler attached:
//!
//! - **gridsim** — waves of synthetic jobs against `egee_2006` until
//!   the simulator has processed at least `target_events` discrete
//!   events (the paper-scale campaigns stop around 10⁴; the default
//!   here is 10⁶). Measures events per host-second and, when the
//!   counting allocator is installed, allocations per event — the
//!   deterministic proxy for event-loop throughput that the CI gate
//!   compares against its committed baseline.
//! - **enactment** — one bronze-chain campaign sized to submit
//!   `enact_jobs` grid jobs (default 10⁴, versus 756 for the paper's
//!   largest run) through the full enactor with a provenance-keyed
//!   store attached, measuring jobs per host-second.
//!
//! `BENCH_scale.json` (schema [`SCALE_SCHEMA`]) records both
//! throughputs, the peak bytes ever live in the process, the
//! per-event allocation rate and the profiler's per-subsystem wall
//! fractions. Wall-clock throughput is machine-dependent, so
//! [`crate::gate::check_scale`] gates on the deterministic axes
//! (allocations per event, peak bytes) and only sanity-checks the
//! wall numbers for positivity.

use crate::bronze::{bronze_chain_inputs, bronze_chain_workflow};
use moteur::obs::json::JsonObject;
use moteur::{
    run_cached, DataStore, EnactorConfig, MoteurError, Obs, Prof, ProfReport, SimBackend,
    StoreConfig, Subsystem,
};
use moteur_gridsim::{GridConfig, GridJobSpec, GridSim};
use std::time::Instant;

/// Schema tag of [`render_scale_json`].
pub const SCALE_SCHEMA: &str = "moteur-bench/scale/v1";

/// Ceiling on simulator allocations per processed event (gate axis).
///
/// The event loop settles around 4–5 allocations per event (job
/// records, queue entries, emitted trace strings); the budget leaves
/// ~2× headroom so an accidental per-event clone or format trips the
/// gate without flaking on allocator-version noise.
pub const ALLOCS_PER_EVENT_BUDGET: f64 = 12.0;

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct ScaleSpec {
    /// Minimum number of simulator events to process (phase 1).
    pub target_events: u64,
    /// Grid jobs to push through the enactor (phase 2).
    pub enact_jobs: usize,
    pub seed: u64,
}

impl Default for ScaleSpec {
    fn default() -> Self {
        ScaleSpec {
            target_events: 1_000_000,
            enact_jobs: 10_000,
            seed: 2006,
        }
    }
}

/// What one subsystem contributed (wall fraction is host-dependent).
#[derive(Debug, Clone)]
pub struct SubsystemShare {
    pub subsystem: &'static str,
    pub calls: u64,
    pub fraction: f64,
}

/// The full campaign result (`BENCH_scale.json`).
#[derive(Debug, Clone)]
pub struct ScaleReport {
    pub spec: ScaleSpec,
    /// Whether the counting global allocator was installed (the
    /// `moteur-bench` binary installs it; plain test harnesses do not
    /// have to).
    pub alloc_installed: bool,
    // Phase 1: simulator.
    pub events_processed: u64,
    pub gridsim_jobs: u64,
    pub gridsim_wall_secs: f64,
    pub events_per_sec: f64,
    /// Simulator allocations per processed event (0 when the counting
    /// allocator is absent).
    pub allocs_per_event: f64,
    // Phase 2: enactor.
    pub enact_jobs_submitted: usize,
    pub enact_wall_secs: f64,
    pub jobs_per_sec: f64,
    pub enact_makespan_secs: f64,
    /// High-water mark of live heap bytes over the whole process (0
    /// when the counting allocator is absent).
    pub peak_alloc_bytes: u64,
    /// Per-subsystem wall-time shares from the profiler, in
    /// [`Subsystem::ALL`] order.
    pub subsystems: Vec<SubsystemShare>,
    /// The raw profiler snapshot (for `--profile`-style exports).
    pub prof: ProfReport,
}

/// Jobs submitted per simulator wave. Small enough that the event
/// queue stays shallow, large enough that submission overhead
/// amortises.
const WAVE: usize = 500;

/// Phase 1: drive `egee_2006` in waves until `target_events` events
/// have been processed.
fn run_gridsim_phase(spec: &ScaleSpec, prof: &Prof) -> (u64, u64, f64, f64) {
    let mut sim = GridSim::new(GridConfig::egee_2006(), spec.seed);
    if prof.is_enabled() {
        sim.set_prof(prof.clone());
    }
    let (allocs_before, _) = moteur_prof::alloc::totals();
    let start = Instant::now();
    let mut submitted: u64 = 0;
    while sim.events_processed() < spec.target_events {
        sim.reserve_jobs(WAVE);
        for _ in 0..WAVE {
            sim.submit(
                GridJobSpec::new(String::new(), 120.0)
                    .with_tag(submitted)
                    .with_files(vec![7_800_000], vec![400_000]),
            );
            submitted += 1;
        }
        while sim.next_completion().is_some() {}
    }
    let wall = start.elapsed().as_secs_f64();
    let (allocs_after, _) = moteur_prof::alloc::totals();
    let events = sim.events_processed();
    let allocs_per_event = if events > 0 {
        (allocs_after - allocs_before) as f64 / events as f64
    } else {
        0.0
    };
    (events, submitted, wall, allocs_per_event)
}

/// Phase 2: a bronze-chain campaign sized for `enact_jobs` submissions
/// (5 services per data item), enacted on the ideal grid with a
/// provenance-keyed store attached so the `provenance_key` and
/// `store_io` subsystems carry real load.
fn run_enact_phase(spec: &ScaleSpec, prof: &Prof) -> Result<(usize, f64, f64), MoteurError> {
    let workflow = bronze_chain_workflow();
    let n_data = spec.enact_jobs.div_ceil(5).max(1);
    let inputs = bronze_chain_inputs(n_data);
    let mut store = DataStore::in_memory(StoreConfig::default());
    let obs = Obs::off().with_prof(prof.clone());
    let mut backend = SimBackend::with_obs(GridConfig::ideal(), spec.seed, &obs);
    let config = EnactorConfig::sp_dp().with_seed(spec.seed);
    let start = Instant::now();
    let result = run_cached(&workflow, &inputs, config, &mut backend, obs, &mut store)?;
    let wall = start.elapsed().as_secs_f64();
    Ok((result.jobs_submitted, wall, result.makespan.as_secs_f64()))
}

/// Run both phases and assemble the report.
pub fn run_scale(spec: &ScaleSpec) -> Result<ScaleReport, MoteurError> {
    if spec.target_events == 0 || spec.enact_jobs == 0 {
        return Err(MoteurError::new(
            "scale campaign needs target_events > 0 and enact_jobs > 0",
        ));
    }
    let prof = Prof::enabled();
    let (events, gridsim_jobs, gridsim_wall, allocs_per_event) = run_gridsim_phase(spec, &prof);
    let (jobs_submitted, enact_wall, makespan) = run_enact_phase(spec, &prof)?;
    let report = prof.report();
    let subsystems = Subsystem::ALL
        .iter()
        .map(|&s| SubsystemShare {
            subsystem: s.name(),
            calls: report
                .subsystems
                .iter()
                .find(|st| st.subsystem == s)
                .map_or(0, |st| st.calls),
            fraction: report.fraction(s),
        })
        .collect();
    Ok(ScaleReport {
        spec: spec.clone(),
        alloc_installed: moteur_prof::alloc::installed(),
        events_processed: events,
        gridsim_jobs,
        gridsim_wall_secs: gridsim_wall,
        events_per_sec: events as f64 / gridsim_wall.max(f64::MIN_POSITIVE),
        allocs_per_event,
        enact_jobs_submitted: jobs_submitted,
        enact_wall_secs: enact_wall,
        jobs_per_sec: jobs_submitted as f64 / enact_wall.max(f64::MIN_POSITIVE),
        enact_makespan_secs: makespan,
        peak_alloc_bytes: moteur_prof::alloc::peak_bytes(),
        subsystems,
        prof: report,
    })
}

/// Serialise the report (`BENCH_scale.json`).
pub fn render_scale_json(report: &ScaleReport) -> String {
    let subsystems = moteur::obs::json::array(report.subsystems.iter().map(|s| {
        JsonObject::new()
            .str("subsystem", s.subsystem)
            .uint("calls", s.calls)
            .num("fraction", s.fraction)
            .finish()
    }));
    JsonObject::new()
        .str("schema", SCALE_SCHEMA)
        .uint("target_events", report.spec.target_events)
        .uint("enact_jobs", report.spec.enact_jobs as u64)
        .uint("seed", report.spec.seed)
        .bool("alloc_installed", report.alloc_installed)
        .uint("events_processed", report.events_processed)
        .uint("gridsim_jobs", report.gridsim_jobs)
        .num("gridsim_wall_secs", report.gridsim_wall_secs)
        .num("events_per_sec", report.events_per_sec)
        .num("allocs_per_event", report.allocs_per_event)
        .uint("enact_jobs_submitted", report.enact_jobs_submitted as u64)
        .num("enact_wall_secs", report.enact_wall_secs)
        .num("jobs_per_sec", report.jobs_per_sec)
        .num("enact_makespan_secs", report.enact_makespan_secs)
        .uint("peak_alloc_bytes", report.peak_alloc_bytes)
        .raw("subsystems", &subsystems)
        .finish()
}

/// Human rendering.
pub fn render_scale(report: &ScaleReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scale campaign (seed {}): {} events / {} enactor jobs",
        report.spec.seed, report.spec.target_events, report.spec.enact_jobs,
    );
    let _ = writeln!(
        out,
        "  gridsim   {:>12} events in {:>7.2} s  ({:>12.0} events/s, {} jobs)",
        report.events_processed,
        report.gridsim_wall_secs,
        report.events_per_sec,
        report.gridsim_jobs,
    );
    let _ = writeln!(
        out,
        "  enactor   {:>12} jobs   in {:>7.2} s  ({:>12.0} jobs/s, makespan {:.0} s simulated)",
        report.enact_jobs_submitted,
        report.enact_wall_secs,
        report.jobs_per_sec,
        report.enact_makespan_secs,
    );
    if report.alloc_installed {
        let _ = writeln!(
            out,
            "  alloc     {:.2} allocs/event (budget {ALLOCS_PER_EVENT_BUDGET}), peak {:.1} MB live",
            report.allocs_per_event,
            report.peak_alloc_bytes as f64 / (1024.0 * 1024.0),
        );
    } else {
        let _ = writeln!(out, "  alloc     counting allocator not installed");
    }
    out.push_str(&report.prof.render_table());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> ScaleSpec {
        ScaleSpec {
            target_events: 20_000,
            enact_jobs: 100,
            seed: 2006,
        }
    }

    #[test]
    fn scale_campaign_reaches_its_event_and_job_targets() {
        let report = run_scale(&quick_spec()).unwrap();
        assert!(report.events_processed >= 20_000, "{report:?}");
        assert!(report.enact_jobs_submitted >= 100, "{report:?}");
        assert!(report.events_per_sec > 0.0);
        assert!(report.jobs_per_sec > 0.0);
        let checks = crate::gate::check_scale(&render_scale_json(&report), None, 0.0).unwrap();
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
        // The profiler saw both phases.
        let calls = |name: &str| {
            report
                .subsystems
                .iter()
                .find(|s| s.subsystem == name)
                .unwrap()
                .calls
        };
        // The event queue is scoped per drain call, not per event, so
        // its call count tracks completions delivered; the events
        // dispatched inside each drain are batch-counted as sim_step.
        assert!(calls("event_queue") > 0);
        assert!(calls("sim_step") >= report.events_processed);
        assert_eq!(calls("enactor_loop"), 1);
        assert!(calls("provenance_key") > 0, "store attached");
        assert!(calls("store_io") > 0, "store attached");
    }

    #[test]
    fn scale_json_carries_the_schema_and_throughput_fields() {
        let report = run_scale(&ScaleSpec {
            target_events: 5_000,
            enact_jobs: 25,
            seed: 7,
        })
        .unwrap();
        let json = render_scale_json(&report);
        assert!(json.contains("\"schema\":\"moteur-bench/scale/v1\""));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"jobs_per_sec\""));
        assert!(json.contains("\"peak_alloc_bytes\""));
        assert!(json.contains("\"allocs_per_event\""));
        assert!(json.contains("\"subsystem\":\"event_queue\""));
        let human = render_scale(&report);
        assert!(human.contains("scale campaign"));
        assert!(human.contains("events/s"));
    }

    #[test]
    fn zero_targets_are_rejected() {
        assert!(run_scale(&ScaleSpec {
            target_events: 0,
            enact_jobs: 1,
            seed: 1
        })
        .is_err());
        assert!(run_scale(&ScaleSpec {
            target_events: 1,
            enact_jobs: 0,
            seed: 1
        })
        .is_err());
    }
}
