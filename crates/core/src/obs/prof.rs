//! Self-profiler integration: the `moteur/prof/v1` JSON codec and the
//! `moteur_prof_*` OpenMetrics fragment over [`moteur_prof`]'s
//! measurement core.
//!
//! The canonical JSON document is **deterministic**: it carries only
//! quantities that are functions of the (seeded) program — per-subsystem
//! call and allocation counts, and per-call-path call counts. Wall-clock
//! durations are measured, machine-dependent quantities and are
//! deliberately excluded; they surface in the human hot-spot table
//! ([`ProfReport::render_table`]), the collapsed-stack export
//! ([`ProfReport::render_collapsed`]) and the OpenMetrics counters.
//! Allocation counts are deterministic *given a binary*: they are zero
//! unless that binary installs [`moteur_prof::alloc::CountingAlloc`],
//! and with it they depend only on the allocation sequence, which the
//! seeded single-threaded hot paths make reproducible.

pub use moteur_prof::{PathEntry, Prof, ProfReport, ProfScope, Subsystem, SubsystemStat};

use super::json::{array, JsonObject};
use crate::obs::json::JsonValue;

/// Schema tag of the canonical profile document.
pub const PROF_SCHEMA: &str = "moteur/prof/v1";

/// Render the canonical `moteur/prof/v1` document: a single line of
/// JSON, byte-identical across processes for deterministic runs.
pub fn to_json(report: &ProfReport) -> String {
    let subsystems = array(report.subsystems.iter().map(|s| {
        JsonObject::new()
            .str("subsystem", s.subsystem.name())
            .uint("calls", s.calls)
            .uint("allocs", s.allocs)
            .uint("alloc_bytes", s.alloc_bytes)
            .finish()
    }));
    let paths = array(
        report
            .paths
            .iter()
            .map(|p| {
                JsonObject::new()
                    .str("stack", &p.stack)
                    .uint("calls", p.calls)
                    .finish()
            })
            .collect::<Vec<_>>(),
    );
    JsonObject::new()
        .str("schema", PROF_SCHEMA)
        .raw("subsystems", &subsystems)
        .raw("paths", &paths)
        .finish()
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| format!("prof: missing or invalid `{key}`"))
}

/// Parse a `moteur/prof/v1` document back into a [`ProfReport`].
/// Wall-time fields are not part of the schema and come back as 0;
/// `to_json(&from_json(doc)?)` reproduces `doc` byte-for-byte for any
/// document this module rendered.
pub fn from_json(text: &str) -> Result<ProfReport, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("prof: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(PROF_SCHEMA) => {}
        Some(other) => return Err(format!("prof: unsupported schema `{other}`")),
        None => return Err("prof: missing schema tag".to_string()),
    }
    let subsystems = doc
        .get("subsystems")
        .and_then(JsonValue::as_array)
        .ok_or("prof: missing `subsystems` array")?
        .iter()
        .map(|s| {
            let name = s
                .get("subsystem")
                .and_then(JsonValue::as_str)
                .ok_or("prof: subsystem entry missing name")?;
            let subsystem = Subsystem::from_name(name)
                .ok_or_else(|| format!("prof: unknown subsystem `{name}`"))?;
            Ok(SubsystemStat {
                subsystem,
                calls: field_u64(s, "calls")?,
                wall_nanos: 0,
                allocs: field_u64(s, "allocs")?,
                alloc_bytes: field_u64(s, "alloc_bytes")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let paths = doc
        .get("paths")
        .and_then(JsonValue::as_array)
        .ok_or("prof: missing `paths` array")?
        .iter()
        .map(|p| {
            let stack = p
                .get("stack")
                .and_then(JsonValue::as_str)
                .ok_or("prof: path entry missing stack")?;
            Ok(PathEntry {
                stack: stack.to_string(),
                calls: field_u64(p, "calls")?,
                wall_nanos: 0,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ProfReport { subsystems, paths })
}

/// Render the `moteur_prof_*` OpenMetrics fragment (no `# EOF`
/// terminator — the caller appends it; see
/// [`super::openmetrics::render_with_prof`]). Empty when nothing was
/// profiled, so metric exports of unprofiled runs are unchanged.
pub fn openmetrics_fragment(report: &ProfReport) -> String {
    use std::fmt::Write as _;
    let active: Vec<&SubsystemStat> = report.subsystems.iter().filter(|s| s.calls > 0).collect();
    if active.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str("# TYPE moteur_prof_calls counter\n");
    out.push_str("# HELP moteur_prof_calls Profiled scope entries per subsystem.\n");
    for s in &active {
        let _ = writeln!(
            out,
            "moteur_prof_calls_total{{subsystem=\"{}\"}} {}",
            s.subsystem.name(),
            s.calls
        );
    }
    out.push_str("# TYPE moteur_prof_wall_seconds counter\n");
    out.push_str("# HELP moteur_prof_wall_seconds Inclusive wall time per subsystem (measured).\n");
    for s in &active {
        let _ = writeln!(
            out,
            "moteur_prof_wall_seconds_total{{subsystem=\"{}\"}} {}",
            s.subsystem.name(),
            super::json::num(s.wall_nanos as f64 / 1e9)
        );
    }
    out.push_str("# TYPE moteur_prof_alloc_bytes counter\n");
    out.push_str(
        "# HELP moteur_prof_alloc_bytes Bytes allocated inside profiled scopes (0 without the counting allocator).\n",
    );
    for s in &active {
        let _ = writeln!(
            out,
            "moteur_prof_alloc_bytes_total{{subsystem=\"{}\"}} {}",
            s.subsystem.name(),
            s.alloc_bytes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProfReport {
        let prof = Prof::enabled();
        for _ in 0..4 {
            let _outer = prof.scope(Subsystem::EnactorLoop);
            let _inner = prof.scope(Subsystem::ProvenanceKey);
        }
        prof.report()
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let report = sample_report();
        let doc = to_json(&report);
        let parsed = from_json(&doc).expect("round trip");
        assert_eq!(to_json(&parsed), doc);
        // Wall time never leaks into the canonical document.
        assert!(!doc.contains("wall"));
        assert!(doc.contains("\"schema\":\"moteur/prof/v1\""));
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(from_json("{}").unwrap_err().contains("schema"));
        assert!(from_json("{\"schema\":\"moteur/prof/v0\"}")
            .unwrap_err()
            .contains("unsupported"));
        let missing_paths = "{\"schema\":\"moteur/prof/v1\",\"subsystems\":[]}";
        assert!(from_json(missing_paths).unwrap_err().contains("paths"));
        let bad_name = "{\"schema\":\"moteur/prof/v1\",\"subsystems\":[{\"subsystem\":\"bogus\",\"calls\":1,\"allocs\":0,\"alloc_bytes\":0}],\"paths\":[]}";
        assert!(from_json(bad_name).unwrap_err().contains("bogus"));
    }

    #[test]
    fn empty_report_round_trips() {
        let report = Prof::off().report();
        let doc = to_json(&report);
        let parsed = from_json(&doc).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn openmetrics_fragment_lists_active_subsystems() {
        let fragment = openmetrics_fragment(&sample_report());
        assert!(fragment.contains("moteur_prof_calls_total{subsystem=\"enactor_loop\"} 4"));
        assert!(fragment.contains("moteur_prof_calls_total{subsystem=\"provenance_key\"} 4"));
        assert!(fragment.contains("moteur_prof_wall_seconds_total{subsystem=\"enactor_loop\"}"));
        assert!(fragment.contains("moteur_prof_alloc_bytes_total{subsystem=\"enactor_loop\"} "));
        assert!(!fragment.contains("pick_ce"), "inactive subsystems omitted");
        assert!(!fragment.contains("# EOF"), "caller owns the terminator");
    }

    #[test]
    fn openmetrics_fragment_empty_without_activity() {
        assert_eq!(openmetrics_fragment(&Prof::off().report()), "");
    }

    #[test]
    fn obs_carries_a_prof_handle() {
        let obs = super::super::Obs::off().with_prof(Prof::enabled());
        assert!(obs.prof().is_enabled());
        {
            let _s = obs.prof().scope(Subsystem::StoreIo);
        }
        assert_eq!(obs.prof().report().subsystems[4].calls, 1);
        assert!(!super::super::Obs::off().prof().is_enabled());
    }
}
