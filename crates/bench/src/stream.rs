//! Streaming campaign: push a million-item stream through a bounded-port
//! service chain and prove the enactor's memory high-water mark is
//! O(port-capacity), not O(stream length).
//!
//! Two phases, run with the counting allocator attached:
//!
//! - **eager reference** — a small slice of the stream (default 10⁴
//!   items) enacted in the legacy eager mode, sampling live heap bytes
//!   before and after while the [`moteur::WorkflowResult`] is still
//!   held. The delta divided by the item count is the eager per-item
//!   retained footprint (tokens, history trees, invocation records,
//!   sink outputs), whose projection onto the full stream is what
//!   streaming mode must undercut.
//! - **stream** — the full stream (default 10⁶ items) through the same
//!   chain with `port_capacity` bounded ports. The input vector is an
//!   unavoidable O(n) cost and is measured separately; everything the
//!   *pipeline* adds on top of it — ready queues, in-flight
//!   invocations, the retained result — must stay inside
//!   [`PIPELINE_PEAK_BUDGET`] regardless of stream length.
//!
//! `BENCH_stream.json` (schema [`STREAM_SCHEMA`]) records throughput,
//! the input and pipeline footprints and the eager projection;
//! [`crate::gate::check_stream`] gates on completion, positive
//! throughput, the absolute pipeline budget and the requirement that
//! the pipeline peak undercuts the eager projection by at least 4×.

use moteur::obs::json::JsonObject;
use moteur::{
    run, DataValue, EnactorConfig, InputData, MoteurError, ServiceBinding, Token, VirtualBackend,
    Workflow,
};
use std::time::Instant;

/// Schema tag of [`render_stream_json`].
pub const STREAM_SCHEMA: &str = "moteur-bench/stream/v1";

/// Ceiling on the streaming pipeline's peak live bytes *beyond* the
/// input vector, independent of stream length.
///
/// At port capacity 64 the pipeline retains a few hundred tokens,
/// in-flight jobs and capped record/sink samples — single-digit
/// megabytes in practice. 64 MB leaves an order of magnitude of
/// headroom while still sitting far below what one million eagerly
/// enacted items retain (hundreds of bytes each, i.e. hundreds of MB).
pub const PIPELINE_PEAK_BUDGET: u64 = 64 * 1024 * 1024;

/// Minimum factor by which the streaming pipeline peak must undercut
/// the eager projection for the same stream length.
pub const EAGER_UNDERCUT_FACTOR: f64 = 4.0;

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream length of the bounded-port phase.
    pub n_items: usize,
    /// Port capacity of every bounded inter-service edge.
    pub port_capacity: usize,
    /// Stream length of the eager reference phase (kept small: its
    /// whole point is to measure the per-item retained footprint that
    /// would make the full stream infeasible).
    pub eager_items: usize,
    pub seed: u64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            n_items: 1_000_000,
            port_capacity: 64,
            eager_items: 10_000,
            seed: 2006,
        }
    }
}

/// The full campaign result (`BENCH_stream.json`).
#[derive(Debug, Clone)]
pub struct StreamReport {
    pub spec: StreamSpec,
    /// Whether the counting global allocator was installed; without it
    /// every byte axis reads 0 and only the functional checks apply.
    pub alloc_installed: bool,
    /// Exact sink tally of the streaming phase.
    pub items_completed: usize,
    pub jobs_submitted: usize,
    pub wall_secs: f64,
    pub items_per_sec: f64,
    /// Live-byte cost of materialising the input stream (O(n_items),
    /// unavoidable: the stream exists before enactment starts).
    pub input_bytes: u64,
    /// Peak live bytes the streaming pipeline added beyond the
    /// materialised inputs — the axis that must stay independent of
    /// stream length in *derived* state. It includes the source
    /// cursor's one flat copy of the input values (the same order of
    /// bytes as `input_bytes`, ~30 B/item for numeric streams), but
    /// none of the per-item tokens, history trees or records that make
    /// eager enactment O(n_items × ~750 B).
    pub pipeline_peak_bytes: u64,
    /// Retained footprint per item of the eager reference phase.
    pub eager_bytes_per_item: f64,
    /// Throughput of the eager reference phase, for the "comparable
    /// items/sec" comparison (informational: wall numbers are
    /// machine-dependent and not gated).
    pub eager_items_per_sec: f64,
    /// `eager_bytes_per_item × n_items`: what eager enactment would
    /// retain on the full stream.
    pub eager_projected_bytes: f64,
}

fn double(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(x * 2.0))])
}

fn shift(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(x + 1.0))])
}

/// items → double → shift → out: two local services per item, so a
/// million-item stream is two million invocations.
fn stream_chain() -> Workflow {
    let mut wf = Workflow::new("stream-chain");
    let src = wf.add_source("items");
    let d = wf.add_service("double", &["in"], &["out"], ServiceBinding::local(double));
    let s = wf.add_service("shift", &["in"], &["out"], ServiceBinding::local(shift));
    let sink = wf.add_sink("out");
    wf.connect(src, "out", d, "in").unwrap();
    wf.connect(d, "out", s, "in").unwrap();
    wf.connect(s, "out", sink, "in").unwrap();
    wf
}

fn stream_inputs(n: usize) -> InputData {
    InputData::new().set("items", (0..n).map(|i| DataValue::from(i as f64)).collect())
}

/// Run both phases and assemble the report. The streaming phase runs
/// first so the process-wide peak high-water mark during it is not
/// contaminated by the eager reference.
pub fn run_stream(spec: &StreamSpec) -> Result<StreamReport, MoteurError> {
    if spec.n_items == 0 || spec.port_capacity == 0 || spec.eager_items == 0 {
        return Err(MoteurError::new(
            "stream campaign needs n_items, port_capacity and eager_items > 0",
        ));
    }
    let workflow = stream_chain();

    // Phase 1: the bounded-port stream.
    let live_before_inputs = moteur_prof::alloc::live_bytes();
    let inputs = stream_inputs(spec.n_items);
    let live_after_inputs = moteur_prof::alloc::live_bytes();
    let input_bytes = live_after_inputs.saturating_sub(live_before_inputs);
    let config = EnactorConfig::sp_dp()
        .with_seed(spec.seed)
        .with_port_capacity(spec.port_capacity);
    let mut backend = VirtualBackend::new();
    let start = Instant::now();
    let result = run(&workflow, &inputs, config, &mut backend)?;
    let wall = start.elapsed().as_secs_f64();
    // Anything the pipeline allocated on top of the materialised
    // inputs pushed the high-water mark to at least `live + X`, so
    // peak − live bounds X from above (conservatively: it also counts
    // headroom the mark already had before the run).
    let pipeline_peak_bytes = moteur_prof::alloc::peak_bytes().saturating_sub(live_after_inputs);
    let items_completed = result.sink_count("out");
    let jobs_submitted = result.jobs_submitted;
    drop(result);
    drop(inputs);

    // Phase 2: the eager reference, measured on live bytes (immune to
    // the high-water mark left behind by phase 1).
    let ref_inputs = stream_inputs(spec.eager_items);
    let live_before_eager = moteur_prof::alloc::live_bytes();
    let mut ref_backend = VirtualBackend::new();
    let eager_start = Instant::now();
    let eager_result = run(
        &workflow,
        &ref_inputs,
        EnactorConfig::sp_dp().with_seed(spec.seed),
        &mut ref_backend,
    )?;
    let eager_wall = eager_start.elapsed().as_secs_f64();
    let retained = moteur_prof::alloc::live_bytes().saturating_sub(live_before_eager);
    let eager_bytes_per_item = retained as f64 / spec.eager_items as f64;
    drop(eager_result);

    Ok(StreamReport {
        spec: spec.clone(),
        alloc_installed: moteur_prof::alloc::installed(),
        items_completed,
        jobs_submitted,
        wall_secs: wall,
        items_per_sec: items_completed as f64 / wall.max(f64::MIN_POSITIVE),
        input_bytes,
        pipeline_peak_bytes,
        eager_bytes_per_item,
        eager_items_per_sec: spec.eager_items as f64 / eager_wall.max(f64::MIN_POSITIVE),
        eager_projected_bytes: eager_bytes_per_item * spec.n_items as f64,
    })
}

/// Serialise the report (`BENCH_stream.json`).
pub fn render_stream_json(report: &StreamReport) -> String {
    JsonObject::new()
        .str("schema", STREAM_SCHEMA)
        .uint("n_items", report.spec.n_items as u64)
        .uint("port_capacity", report.spec.port_capacity as u64)
        .uint("eager_items", report.spec.eager_items as u64)
        .uint("seed", report.spec.seed)
        .bool("alloc_installed", report.alloc_installed)
        .uint("items_completed", report.items_completed as u64)
        .uint("jobs_submitted", report.jobs_submitted as u64)
        .num("wall_secs", report.wall_secs)
        .num("items_per_sec", report.items_per_sec)
        .uint("input_bytes", report.input_bytes)
        .uint("pipeline_peak_bytes", report.pipeline_peak_bytes)
        .uint("pipeline_peak_budget", PIPELINE_PEAK_BUDGET)
        .num("eager_bytes_per_item", report.eager_bytes_per_item)
        .num("eager_items_per_sec", report.eager_items_per_sec)
        .num("eager_projected_bytes", report.eager_projected_bytes)
        .finish()
}

/// Human rendering.
pub fn render_stream(report: &StreamReport) -> String {
    use std::fmt::Write as _;
    const MB: f64 = 1024.0 * 1024.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "stream campaign (seed {}): {} items through port capacity {}",
        report.spec.seed, report.spec.n_items, report.spec.port_capacity,
    );
    let _ = writeln!(
        out,
        "  stream    {:>12} items  in {:>7.2} s  ({:>12.0} items/s, {} jobs)",
        report.items_completed, report.wall_secs, report.items_per_sec, report.jobs_submitted,
    );
    if report.alloc_installed {
        let _ = writeln!(
            out,
            "  memory    inputs {:.1} MB, pipeline peak {:.1} MB (budget {:.0} MB)",
            report.input_bytes as f64 / MB,
            report.pipeline_peak_bytes as f64 / MB,
            PIPELINE_PEAK_BUDGET as f64 / MB,
        );
        let _ = writeln!(
            out,
            "  eager ref {:.0} B/item retained -> {:.1} MB projected over the full stream \
             ({:.0} items/s)",
            report.eager_bytes_per_item,
            report.eager_projected_bytes / MB,
            report.eager_items_per_sec,
        );
    } else {
        let _ = writeln!(out, "  memory    counting allocator not installed");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> StreamSpec {
        StreamSpec {
            n_items: 5_000,
            port_capacity: 16,
            eager_items: 1_000,
            seed: 2006,
        }
    }

    #[test]
    fn stream_campaign_completes_every_item() {
        let report = run_stream(&quick_spec()).unwrap();
        assert_eq!(report.items_completed, 5_000, "{report:?}");
        assert_eq!(report.jobs_submitted, 10_000, "two services per item");
        assert!(report.items_per_sec > 0.0);
        let checks = crate::gate::check_stream(&render_stream_json(&report)).unwrap();
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
    }

    #[test]
    fn stream_json_carries_the_schema_and_memory_axes() {
        let report = run_stream(&StreamSpec {
            n_items: 500,
            port_capacity: 8,
            eager_items: 100,
            seed: 7,
        })
        .unwrap();
        let json = render_stream_json(&report);
        assert!(json.contains("\"schema\":\"moteur-bench/stream/v1\""));
        assert!(json.contains("\"items_per_sec\""));
        assert!(json.contains("\"pipeline_peak_bytes\""));
        assert!(json.contains("\"eager_projected_bytes\""));
        let human = render_stream(&report);
        assert!(human.contains("stream campaign"));
        assert!(human.contains("items/s"));
    }

    #[test]
    fn zero_shapes_are_rejected() {
        for spec in [
            StreamSpec {
                n_items: 0,
                ..quick_spec()
            },
            StreamSpec {
                port_capacity: 0,
                ..quick_spec()
            },
            StreamSpec {
                eager_items: 0,
                ..quick_spec()
            },
        ] {
            assert!(run_stream(&spec).is_err());
        }
    }
}
