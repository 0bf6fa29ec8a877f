//! Bench regression gate: every campaign's pass criterion, written once
//! over its BENCH JSON document.
//!
//! Each `check_*` function reads one document and returns
//! [`GateCheck`]s. A campaign subcommand applies its check to the
//! document it just wrote and exits on the verdict; `moteur-bench gate`
//! applies the same functions to the documents it finds, so the two
//! cannot disagree. Only the gate compares against committed baselines;
//! for the campaign summary ([`check_gate`]) that makes three families:
//!
//! - **makespan**: per configuration, `makespan_at_max` must not exceed
//!   the baseline by more than the threshold fraction;
//! - **speedup**: each named ratio must not fall below the baseline by
//!   more than the threshold fraction (a lost speed-up means an
//!   optimisation stopped working even if absolute times moved);
//! - **drift**: the fresh summary's `drift_ok` flags must all hold —
//!   the model and the enactor must still agree on the ideal grid.
//!
//! `ci.sh` wires this behind `moteur-bench gate`; the documented
//! `MOTEUR_BENCH_UPDATE_BASELINE=1` override (handled by the binary,
//! not here) rewrites the baseline instead of failing.

use moteur::obs::json::JsonValue;

/// One baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// What was compared, e.g. `makespan/nop` or `speedup/nop_over_sp`.
    pub what: String,
    pub baseline: f64,
    pub current: f64,
    pub ok: bool,
}

impl GateCheck {
    fn new(what: impl Into<String>, baseline: f64, current: f64, ok: bool) -> Self {
        GateCheck {
            what: what.into(),
            baseline,
            current,
            ok,
        }
    }

    /// A yes/no invariant: baseline 1, current 1 when it holds.
    fn holds(what: impl Into<String>, ok: bool) -> Self {
        GateCheck::new(what, 1.0, f64::from(u8::from(ok)), ok)
    }
}

/// The gate's verdict.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Allowed relative regression (e.g. `0.10` = 10 %).
    pub threshold: f64,
    pub checks: Vec<GateCheck>,
}

impl GateReport {
    /// True when every check passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Failed checks only.
    pub fn failures(&self) -> impl Iterator<Item = &GateCheck> {
        self.checks.iter().filter(|c| !c.ok)
    }

    /// Human rendering, one line per check.
    pub fn render(&self) -> String {
        render_checks(
            &format!("bench gate (threshold {:.0}%)", self.threshold * 100.0),
            &self.checks,
        )
    }
}

/// `title: PASS|FAIL`, then one line per check.
pub fn render_checks(title: &str, checks: &[GateCheck]) -> String {
    use std::fmt::Write as _;
    let ok = checks.iter().all(|c| c.ok);
    let mut out = format!("{title}: {}\n", if ok { "PASS" } else { "FAIL" });
    for c in checks {
        let _ = writeln!(
            out,
            "  {:<28} baseline {:>12.2} current {:>12.2}  {}",
            c.what,
            c.baseline,
            c.current,
            if c.ok { "ok" } else { "REGRESSED" }
        );
    }
    out
}

/// Parse a BENCH document and insist on its schema tag.
fn parse_doc(label: &str, schema: &str, json: &str) -> Result<JsonValue, String> {
    let value = JsonValue::parse(json).map_err(|e| format!("{label}: {e}"))?;
    match value.get("schema").and_then(JsonValue::as_str) {
        Some(tag) if tag == schema => Ok(value),
        Some(other) => Err(format!("{label}: schema `{other}`, expected `{schema}`")),
        None => Err(format!("{label}: missing schema tag")),
    }
}

/// A mandatory numeric field.
fn number(label: &str, doc: &JsonValue, field: &str) -> Result<f64, String> {
    doc.get(field)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{label}: missing `{field}`"))
}

/// A mandatory array field.
fn items<'a>(label: &str, doc: &'a JsonValue, field: &str) -> Result<&'a [JsonValue], String> {
    doc.get(field)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{label}: missing {field} array"))
}

/// The element of `list` whose `key` field is `name`.
fn named<'a>(list: &'a [JsonValue], key: &str, name: &str) -> Option<&'a JsonValue> {
    list.iter()
        .find(|e| e.get(key).and_then(JsonValue::as_str) == Some(name))
}

fn config_field(summary: &JsonValue, config: &str, field: &str) -> Option<f64> {
    named(summary.get("configs")?.as_array()?, "config", config)?
        .get(field)?
        .as_f64()
}

fn config_names(summary: &JsonValue) -> Vec<String> {
    summary
        .get("configs")
        .and_then(JsonValue::as_array)
        .map(|cs| {
            cs.iter()
                .filter_map(|c| c.get("config").and_then(JsonValue::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// `drift/<config>`: the summary's model-vs-observed flag, when present.
fn drift_check(summary: &JsonValue, config: &str) -> Option<GateCheck> {
    let configs = summary.get("configs")?.as_array()?;
    let ok = named(configs, "config", config)?
        .get("drift_ok")?
        .as_bool()?;
    Some(GateCheck::holds(format!("drift/{config}"), ok))
}

/// Checks over a `BENCH_summary.json` document on its own: every
/// configuration's model-vs-observed drift must stay inside the
/// campaign's tolerance. [`check_gate`] repeats these beside the
/// baseline comparison.
pub fn check_summary(summary_json: &str) -> Result<Vec<GateCheck>, String> {
    let summary = parse_doc("summary", crate::sweep::SUMMARY_SCHEMA, summary_json)?;
    Ok(config_names(&summary)
        .iter()
        .filter_map(|config| drift_check(&summary, config))
        .collect())
}

/// Compare a current summary against the baseline.
///
/// Fails with `Err` on malformed/mismatched documents; regressions are
/// reported through the returned [`GateReport`], not as errors.
pub fn check_gate(
    baseline_json: &str,
    current_json: &str,
    threshold: f64,
) -> Result<GateReport, String> {
    let baseline = parse_doc("baseline", crate::sweep::SUMMARY_SCHEMA, baseline_json)?;
    let current = parse_doc("current", crate::sweep::SUMMARY_SCHEMA, current_json)?;
    let mut checks = Vec::new();

    for config in config_names(&baseline) {
        let Some(base) = config_field(&baseline, &config, "makespan_at_max") else {
            continue;
        };
        checks.push(match config_field(&current, &config, "makespan_at_max") {
            Some(cur) => GateCheck::new(
                format!("makespan/{config}"),
                base,
                cur,
                cur <= base * (1.0 + threshold) + 1e-9,
            ),
            // A configuration that vanished from the summary is a
            // regression of coverage, not of speed.
            None => GateCheck::new(
                format!("makespan/{config} (missing)"),
                base,
                f64::NAN,
                false,
            ),
        });
        checks.extend(drift_check(&current, &config));
    }

    if let Some(JsonValue::Object(pairs)) = baseline.get("speedups") {
        for (name, value) in pairs {
            let Some(base) = value.as_f64() else { continue };
            let cur = current
                .get("speedups")
                .and_then(|s| s.get(name))
                .and_then(JsonValue::as_f64);
            checks.push(match cur {
                Some(cur) => GateCheck::new(
                    format!("speedup/{name}"),
                    base,
                    cur,
                    cur >= base * (1.0 - threshold) - 1e-9,
                ),
                None => GateCheck::new(format!("speedup/{name} (missing)"), base, f64::NAN, false),
            });
        }
    }

    Ok(GateReport { threshold, checks })
}

/// Checks over a `BENCH_warm.json` document (schema
/// `moteur-bench/warm/v1`): the cold run must agree with eqs. 1–4 and
/// the warm run must find every invocation in the data manager.
pub fn check_warm(warm_json: &str) -> Result<Vec<GateCheck>, String> {
    let value = parse_doc("warm", crate::warm::WARM_SCHEMA, warm_json)?;
    let drift_ok = value
        .get("drift_ok")
        .and_then(JsonValue::as_bool)
        .ok_or("warm: missing `drift_ok`")?;
    let misses = number("warm", &value, "cache_misses")?;
    Ok(vec![
        GateCheck::holds("warm/cold_drift", drift_ok),
        GateCheck::new("warm/cache_misses", 0.0, misses, misses == 0.0),
    ])
}

/// Checks over a `BENCH_faults.json` document (schema
/// `moteur-bench/faults/v1`): timeout+replication must beat naive
/// resubmission on mean makespan, and no strategy may have quarantined
/// an item.
pub fn check_faults(faults_json: &str) -> Result<Vec<GateCheck>, String> {
    let value = parse_doc("faults", crate::faults::FAULTS_SCHEMA, faults_json)?;
    let strategies = items("faults", &value, "strategies")?;
    let mean = |name: &str| -> Result<f64, String> {
        named(strategies, "strategy", name)
            .and_then(|s| s.get("mean_makespan_secs")?.as_f64())
            .ok_or_else(|| format!("faults: missing `{name}` strategy"))
    };
    let naive = mean("naive")?;
    let replication = mean("timeout+replication")?;
    let quarantined: f64 = strategies
        .iter()
        .filter_map(|s| s.get("quarantined").and_then(JsonValue::as_f64))
        .sum();
    Ok(vec![
        GateCheck::new(
            "faults/replication_vs_naive",
            naive,
            replication,
            replication < naive,
        ),
        GateCheck::new("faults/quarantined", 0.0, quarantined, quarantined == 0.0),
    ])
}

/// Cross-tenant sharing bar for the daemon wave: the warm tenants must
/// reuse at least this fraction of the seed tenant's derivations.
pub const DAEMON_HIT_RATIO_FLOOR: f64 = 0.9;

/// Admission-latency ceiling for the daemon wave, virtual seconds. The
/// default 100-submission wave queues 24 workflows per tenant behind a
/// 4-deep in-flight cap; with the memo table warm each admitted
/// instance drains in a few virtual seconds of fetches, so the p99
/// time-to-first-job measures 30 s and sits well under this bound
/// unless admission or fair dispatch regresses.
pub const DAEMON_TTFJ_P99_CEILING_SECS: f64 = 600.0;

/// Ceiling on the daemon's scaling exponent (log4 of the wall time of
/// a 4n-submission wave over an n-submission one). A daemon whose
/// per-step cost grows with every submission it ever took scales
/// quadratically, an exponent near 2.
pub const DAEMON_SCALING_EXP_CEILING: f64 = 1.15;

/// Checks over a `BENCH_daemon.json` document (schema
/// `moteur-bench/daemon/v1`): every submission in the wave must have
/// succeeded, the cross-tenant cache-hit ratio must clear
/// [`DAEMON_HIT_RATIO_FLOOR`], the p99 time-to-first-job must stay
/// under [`DAEMON_TTFJ_P99_CEILING_SECS`], and the scaling exponent
/// under [`DAEMON_SCALING_EXP_CEILING`].
pub fn check_daemon(daemon_json: &str) -> Result<Vec<GateCheck>, String> {
    let value = parse_doc("daemon", crate::daemon::DAEMON_BENCH_SCHEMA, daemon_json)?;
    let num = |field: &str| number("daemon", &value, field);
    let n_workflows = num("n_workflows")?;
    let succeeded = num("succeeded")?;
    let hit_ratio = num("cross_tenant_hit_ratio")?;
    let ttfj_p99 = num("ttfj_p99_secs")?;
    let scaling_exp = num("scaling_exp")?;
    Ok(vec![
        GateCheck::new(
            "daemon/completed",
            n_workflows,
            succeeded,
            succeeded == n_workflows,
        ),
        GateCheck::new(
            "daemon/cross_tenant_hit_ratio",
            DAEMON_HIT_RATIO_FLOOR,
            hit_ratio,
            hit_ratio >= DAEMON_HIT_RATIO_FLOOR,
        ),
        GateCheck::new(
            "daemon/ttfj_p99_secs",
            DAEMON_TTFJ_P99_CEILING_SECS,
            ttfj_p99,
            ttfj_p99 <= DAEMON_TTFJ_P99_CEILING_SECS,
        ),
        GateCheck::new(
            "daemon/scaling_exp",
            DAEMON_SCALING_EXP_CEILING,
            scaling_exp,
            scaling_exp <= DAEMON_SCALING_EXP_CEILING,
        ),
    ])
}

/// Checks over a `BENCH_timeline.json` document (schema
/// `moteur-bench/timeline/v1`): the ideal-grid byte accounting must
/// reconcile (timeline link-byte totals == the enactor's
/// `bytes_transferred`) and the loaded grid must be attributed to the
/// CE batch queues.
pub fn check_timeline(timeline_json: &str) -> Result<Vec<GateCheck>, String> {
    let value = parse_doc(
        "timeline",
        crate::timeline::TIMELINE_BENCH_SCHEMA,
        timeline_json,
    )?;
    let scenarios = items("timeline", &value, "scenarios")?;
    let scenario = |name: &str| -> Result<&JsonValue, String> {
        named(scenarios, "scenario", name)
            .ok_or_else(|| format!("timeline: missing `{name}` scenario"))
    };
    let field = |s: &JsonValue, name: &str| -> f64 {
        s.get(name).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
    };
    let ideal = scenario("ideal")?;
    let loaded = scenario("egee-loaded")?;
    let enactor_bytes = field(ideal, "bytes_transferred");
    let timeline_bytes = field(ideal, "timeline_link_bytes");
    let queue_verdict = loaded.get("verdict").and_then(JsonValue::as_str) == Some("queue-wait");
    Ok(vec![
        GateCheck::new(
            "timeline/ideal_byte_accounting",
            enactor_bytes,
            timeline_bytes,
            enactor_bytes > 0.0 && timeline_bytes == enactor_bytes,
        ),
        GateCheck::holds("timeline/loaded_queue_verdict", queue_verdict),
    ])
}

/// Checks over a `BENCH_plan.json` document (schema
/// `moteur-bench/plan/v1`): every scenario's static per-edge byte
/// intervals must contain the observed per-(consumer, port) staging
/// totals, and the planner's site partition must beat centralized
/// routing on the data-heavy bronze variant in its own cost model.
pub fn check_plan(plan_json: &str) -> Result<Vec<GateCheck>, String> {
    let value = parse_doc("plan", crate::plan::PLAN_BENCH_SCHEMA, plan_json)?;
    let scenarios = items("plan", &value, "scenarios")?;
    if scenarios.is_empty() {
        return Err("plan: empty scenarios array".to_string());
    }
    let mut checks = Vec::new();
    for s in scenarios {
        let name = s
            .get("scenario")
            .and_then(JsonValue::as_str)
            .ok_or("plan: scenario without a name")?;
        let contained = s.get("all_contained").and_then(JsonValue::as_bool) == Some(true);
        let edges = s
            .get("edges")
            .and_then(JsonValue::as_array)
            .map_or(0, <[JsonValue]>::len) as f64;
        checks.push(GateCheck::new(
            format!("plan/{name}_containment"),
            edges,
            f64::from(u8::from(contained)) * edges,
            contained,
        ));
    }
    let centralized = number("plan", &value, "heavy_centralized_secs")?;
    let partitioned = number("plan", &value, "heavy_partitioned_secs")?;
    checks.push(GateCheck::new(
        "plan/partition_advantage",
        centralized,
        partitioned,
        partitioned < centralized,
    ));
    Ok(checks)
}

/// Checks over a `BENCH_scale.json` document (schema
/// `moteur-bench/scale/v1`), optionally against a committed baseline.
///
/// Wall-clock throughput is machine-dependent, so the absolute checks
/// only require the campaign to have reached its event/job targets
/// with positive throughput, and — when the counting allocator was
/// installed — the simulator to stay inside its allocations-per-event
/// budget ([`crate::scale::ALLOCS_PER_EVENT_BUDGET`]). The baseline
/// comparison gates the *deterministic* throughput proxies only:
/// `allocs_per_event` and `peak_alloc_bytes` must not exceed the
/// baseline by more than `threshold` — an allocation regression is
/// how a >10 % event-loop slowdown shows up reproducibly in CI.
pub fn check_scale(
    scale_json: &str,
    baseline_json: Option<&str>,
    threshold: f64,
) -> Result<Vec<GateCheck>, String> {
    let current = parse_doc("scale current", crate::scale::SCALE_SCHEMA, scale_json)?;
    let field = |doc: &JsonValue, name: &str| number("scale", doc, name);
    let target = field(&current, "target_events")?;
    let events = field(&current, "events_processed")?;
    let enact_target = field(&current, "enact_jobs")?;
    let jobs = field(&current, "enact_jobs_submitted")?;
    let events_per_sec = field(&current, "events_per_sec")?;
    let jobs_per_sec = field(&current, "jobs_per_sec")?;
    let mut checks = vec![
        GateCheck::new("scale/events_target", target, events, events >= target),
        GateCheck::new(
            "scale/jobs_target",
            enact_target,
            jobs,
            jobs >= enact_target,
        ),
        GateCheck::new(
            "scale/throughput_positive",
            0.0,
            events_per_sec.min(jobs_per_sec),
            events_per_sec > 0.0 && jobs_per_sec > 0.0,
        ),
    ];
    let alloc_installed = current.get("alloc_installed").and_then(JsonValue::as_bool) == Some(true);
    if alloc_installed {
        let allocs_per_event = field(&current, "allocs_per_event")?;
        checks.push(GateCheck::new(
            "scale/allocs_per_event_budget",
            crate::scale::ALLOCS_PER_EVENT_BUDGET,
            allocs_per_event,
            allocs_per_event <= crate::scale::ALLOCS_PER_EVENT_BUDGET,
        ));
    }
    if let Some(baseline_json) = baseline_json {
        let baseline = parse_doc("scale baseline", crate::scale::SCALE_SCHEMA, baseline_json)?;
        let base_installed =
            baseline.get("alloc_installed").and_then(JsonValue::as_bool) == Some(true);
        if alloc_installed && base_installed {
            for name in ["allocs_per_event", "peak_alloc_bytes"] {
                let base = field(&baseline, name)?;
                let cur = field(&current, name)?;
                checks.push(GateCheck::new(
                    format!("scale/{name}"),
                    base,
                    cur,
                    cur <= base * (1.0 + threshold) + 1e-9,
                ));
            }
        }
    }
    Ok(checks)
}

/// Checks over a `BENCH_stream.json` document (schema
/// `moteur-bench/stream/v1`).
///
/// All checks are absolute — no committed baseline. The campaign must
/// have completed every item with positive throughput, and — when the
/// counting allocator was installed — the streaming pipeline's peak
/// live bytes beyond the materialised inputs must sit inside
/// [`crate::stream::PIPELINE_PEAK_BUDGET`] *and* undercut the eager
/// per-item projection by at least
/// [`crate::stream::EAGER_UNDERCUT_FACTOR`]. Together these pin the
/// O(port-capacity)-not-O(n-items) memory claim on any machine.
pub fn check_stream(stream_json: &str) -> Result<Vec<GateCheck>, String> {
    let value = parse_doc("stream", crate::stream::STREAM_SCHEMA, stream_json)?;
    let field = |name: &str| number("stream", &value, name);
    let n_items = field("n_items")?;
    let completed = field("items_completed")?;
    let items_per_sec = field("items_per_sec")?;
    let mut checks = vec![
        GateCheck::new(
            "stream/items_completed",
            n_items,
            completed,
            completed >= n_items,
        ),
        GateCheck::new(
            "stream/throughput_positive",
            0.0,
            items_per_sec,
            items_per_sec > 0.0,
        ),
    ];
    if value.get("alloc_installed").and_then(JsonValue::as_bool) == Some(true) {
        let pipeline_peak = field("pipeline_peak_bytes")?;
        let projected = field("eager_projected_bytes")?;
        let budget = crate::stream::PIPELINE_PEAK_BUDGET as f64;
        let undercut = pipeline_peak * crate::stream::EAGER_UNDERCUT_FACTOR;
        checks.push(GateCheck::new(
            "stream/pipeline_peak_budget",
            budget,
            pipeline_peak,
            pipeline_peak <= budget,
        ));
        checks.push(GateCheck::new(
            "stream/undercuts_eager_projection",
            projected,
            undercut,
            undercut <= projected,
        ));
    }
    Ok(checks)
}

/// Default allowed regression: 10 %.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{render_summary_json, run_sweep, SweepSpec};

    fn summary_json() -> String {
        let (_, summary) = run_sweep(&SweepSpec::new(vec![1, 2])).unwrap();
        render_summary_json(&summary)
    }

    #[test]
    fn identical_summaries_pass_the_gate() {
        let json = summary_json();
        let report = check_gate(&json, &json, DEFAULT_THRESHOLD).unwrap();
        assert!(report.ok(), "{}", report.render());
        // 6 makespan + 6 drift + 3 speedup checks.
        assert_eq!(report.checks.len(), 15);
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn injected_2x_slowdown_fails_the_gate() {
        let baseline = summary_json();
        // Double every makespan (and, via the recomputed ratio columns
        // staying textual, leave speedups untouched): the makespan
        // checks must trip.
        let mut slowed = String::new();
        for part in baseline.split("\"makespan_at_max\":") {
            if slowed.is_empty() {
                slowed.push_str(part);
                continue;
            }
            let end = part
                .find([',', '}'])
                .expect("makespan_at_max value terminated");
            let value: f64 = part[..end].parse().expect("numeric makespan");
            slowed.push_str(&format!("\"makespan_at_max\":{}", value * 2.0));
            slowed.push_str(&part[end..]);
        }
        let report = check_gate(&baseline, &slowed, DEFAULT_THRESHOLD).unwrap();
        assert!(!report.ok());
        let failed: Vec<&str> = report.failures().map(|c| c.what.as_str()).collect();
        assert!(failed.iter().all(|w| w.starts_with("makespan/")));
        assert_eq!(failed.len(), 6, "{failed:?}");
        assert!(report.render().contains("REGRESSED"));
    }

    #[test]
    fn lost_speedup_fails_even_when_makespans_hold() {
        let baseline = summary_json();
        // Claim the optimisations stopped paying off: all ratios 1.0.
        let current = {
            let start = baseline.find("\"speedups\":{").unwrap();
            let end = baseline[start..].find('}').unwrap() + start;
            let mut s = baseline[..start].to_string();
            s.push_str(
                "\"speedups\":{\"nop_over_sp\":1.0,\"nop_over_sp_dp\":1.0,\
                 \"nop_over_sp_dp_jg\":1.0",
            );
            s.push_str(&baseline[end..]);
            s
        };
        let report = check_gate(&baseline, &current, DEFAULT_THRESHOLD).unwrap();
        assert!(!report.ok());
        assert!(report.failures().all(|c| c.what.starts_with("speedup/")));
    }

    #[test]
    fn drift_flag_failure_trips_the_gate() {
        let baseline = summary_json();
        let current = baseline.replacen("\"drift_ok\":true", "\"drift_ok\":false", 1);
        let report = check_gate(&baseline, &current, DEFAULT_THRESHOLD).unwrap();
        assert!(!report.ok());
        assert_eq!(report.failures().count(), 1);
        assert!(report.failures().next().unwrap().what.starts_with("drift/"));
    }

    #[test]
    fn faults_gate_requires_replication_to_win_and_zero_quarantines() {
        let report = crate::faults::FaultsReport {
            spec: crate::faults::FaultsSpec {
                n_data: 2,
                seed: 1,
                repeats: 1,
                failure_probability: 0.04,
            },
            outcomes: ["naive", "backoff", "timeout+replication"]
                .into_iter()
                .enumerate()
                .map(|(i, name)| crate::faults::StrategyOutcome {
                    strategy: name,
                    makespans_secs: vec![1000.0 - 100.0 * i as f64],
                    mean_makespan_secs: 1000.0 - 100.0 * i as f64,
                    max_makespan_secs: 1000.0 - 100.0 * i as f64,
                    jobs_submitted: 10,
                    timeouts: 0,
                    replicas: 0,
                    resubmissions: 0,
                    quarantined: 0,
                })
                .collect(),
        };
        let json = crate::faults::render_faults_json(&report);
        let checks = check_faults(&json).unwrap();
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");

        // Replication slower than naive must trip the first check …
        let losing = json.replacen(
            "\"mean_makespan_secs\":800",
            "\"mean_makespan_secs\":2000",
            1,
        );
        let checks = check_faults(&losing).unwrap();
        assert!(!checks[0].ok, "{checks:?}");
        // … and a quarantine the second.
        let poisoned = json.replacen("\"quarantined\":0", "\"quarantined\":1", 1);
        let checks = check_faults(&poisoned).unwrap();
        assert!(!checks[1].ok, "{checks:?}");

        assert!(check_faults("{\"schema\":\"other/v1\"}").is_err());
        assert!(check_faults("{").is_err());
    }

    #[test]
    fn daemon_gate_requires_completion_sharing_and_bounded_admission() {
        let report = crate::daemon::DaemonReport {
            n_workflows: 100,
            n_tenants: 4,
            n_data: 2,
            succeeded: 100,
            wall_secs: 0.5,
            workflows_per_sec: 200.0,
            ttfj_p50_secs: 0.0,
            ttfj_p99_secs: 120.0,
            seed_jobs: 10,
            cross_tenant_hits: 500,
            cross_tenant_misses: 0,
            store_entries: 10,
            tenants: Vec::new(),
            scaling_exp: 1.0,
        };
        let json = crate::daemon::render_daemon_json(&report);
        let checks = check_daemon(&json).unwrap();
        assert_eq!(checks.len(), 4);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");

        // A lost workflow trips the completion check …
        let lossy = json.replacen("\"succeeded\":100", "\"succeeded\":99", 1);
        let checks = check_daemon(&lossy).unwrap();
        assert!(!checks[0].ok, "{checks:?}");
        // … recomputation trips the sharing floor …
        let cold = json.replacen(
            "\"cross_tenant_hit_ratio\":1",
            "\"cross_tenant_hit_ratio\":0.5",
            1,
        );
        let checks = check_daemon(&cold).unwrap();
        assert!(!checks[1].ok, "{checks:?}");
        // … a starved submission trips the admission ceiling.
        let starved = json.replacen("\"ttfj_p99_secs\":120", "\"ttfj_p99_secs\":1e9", 1);
        let checks = check_daemon(&starved).unwrap();
        assert!(!checks[2].ok, "{checks:?}");
        // … and a daemon slowing down as its queue grows trips the
        // scaling ceiling.
        let quadratic = json.replacen("\"scaling_exp\":1", "\"scaling_exp\":2", 1);
        let checks = check_daemon(&quadratic).unwrap();
        assert!(!checks[3].ok, "{checks:?}");

        assert!(check_daemon("{\"schema\":\"other/v1\"}").is_err());
        assert!(check_daemon("{").is_err());
    }

    #[test]
    fn timeline_gate_requires_byte_reconciliation_and_queue_verdict() {
        let report = crate::timeline::TimelineReport {
            spec: crate::timeline::TimelineSpec {
                ideal_n_data: 2,
                loaded_n_data: 6,
                seed: 1,
            },
            outcomes: vec![
                crate::timeline::TimelineOutcome {
                    scenario: "ideal",
                    makespan_secs: 330.0,
                    jobs_submitted: 13,
                    bytes_transferred: 1000,
                    timeline_link_bytes: 1000,
                    peak_queue_depth: 0,
                    verdict: "compute".to_string(),
                    dominant_fraction: 1.0,
                    queue_wait_secs: 0.0,
                    transfer_secs: 0.0,
                    compute_secs: 330.0,
                },
                crate::timeline::TimelineOutcome {
                    scenario: "egee-loaded",
                    makespan_secs: 9000.0,
                    jobs_submitted: 31,
                    bytes_transferred: 5000,
                    timeline_link_bytes: 4800,
                    peak_queue_depth: 14,
                    verdict: "queue-wait".to_string(),
                    dominant_fraction: 0.7,
                    queue_wait_secs: 7000.0,
                    transfer_secs: 1000.0,
                    compute_secs: 2000.0,
                },
            ],
        };
        let json = crate::timeline::render_timeline_json(&report);
        let checks = check_timeline(&json).unwrap();
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");

        // A lost transfer byte must trip the accounting check …
        let lossy = json.replacen(
            "\"timeline_link_bytes\":1000",
            "\"timeline_link_bytes\":999",
            1,
        );
        let checks = check_timeline(&lossy).unwrap();
        assert!(!checks[0].ok, "{checks:?}");
        // … and a mis-attributed loaded run the verdict check.
        let wrong = json.replacen("\"verdict\":\"queue-wait\"", "\"verdict\":\"transfer\"", 1);
        let checks = check_timeline(&wrong).unwrap();
        assert!(!checks[1].ok, "{checks:?}");

        assert!(check_timeline("{\"schema\":\"other/v1\"}").is_err());
        assert!(check_timeline("{").is_err());
    }

    #[test]
    fn plan_gate_requires_containment_and_partition_advantage() {
        let report = crate::plan::run_plan_bench(&crate::plan::PlanSpec {
            n_data: 2,
            seed: 2006,
        })
        .unwrap();
        let json = crate::plan::render_plan_bench_json(&report);
        let checks = check_plan(&json).unwrap();
        // bronze + cross containment, plus the partition comparison.
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");

        // A broken containment flag must trip that scenario's check …
        let outside = json.replacen("\"all_contained\":true", "\"all_contained\":false", 1);
        let checks = check_plan(&outside).unwrap();
        assert!(!checks[0].ok, "{checks:?}");
        // … and a partition that stopped paying the advantage check.
        let worse = {
            let cent = format!("\"heavy_centralized_secs\":{}", report.heavy_centralized);
            let idx = json.find(&cent).expect("centralized field present");
            let mut s = json[..idx].to_string();
            s.push_str(&format!(
                "\"heavy_centralized_secs\":{}",
                report.heavy_partitioned - 1.0
            ));
            s.push_str(&json[idx + cent.len()..]);
            s
        };
        let checks = check_plan(&worse).unwrap();
        assert!(!checks.last().unwrap().ok, "{checks:?}");

        assert!(check_plan("{\"schema\":\"other/v1\"}").is_err());
        assert!(check_plan("{").is_err());
    }

    #[test]
    fn scale_gate_checks_targets_budget_and_baseline() {
        let doc = |allocs: f64, peak: u64| {
            format!(
                "{{\"schema\":\"moteur-bench/scale/v1\",\"target_events\":1000,\
                 \"enact_jobs\":50,\"seed\":1,\"alloc_installed\":true,\
                 \"events_processed\":1200,\"gridsim_jobs\":100,\
                 \"gridsim_wall_secs\":0.5,\"events_per_sec\":2400,\
                 \"allocs_per_event\":{allocs},\"enact_jobs_submitted\":50,\
                 \"enact_wall_secs\":0.2,\"jobs_per_sec\":250,\
                 \"enact_makespan_secs\":330,\"peak_alloc_bytes\":{peak},\
                 \"ok\":true,\"subsystems\":[]}}"
            )
        };
        let json = doc(5.0, 1_000_000);
        let checks = check_scale(&json, None, DEFAULT_THRESHOLD).unwrap();
        assert_eq!(checks.len(), 4, "{checks:?}");
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");

        // Against an identical baseline the deterministic axes pass …
        let checks = check_scale(&json, Some(&json), DEFAULT_THRESHOLD).unwrap();
        assert_eq!(checks.len(), 6, "{checks:?}");
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
        // … an allocation regression beyond the threshold trips them …
        let bloated = doc(5.0 * 1.5, 1_000_000);
        let checks = check_scale(&bloated, Some(&json), DEFAULT_THRESHOLD).unwrap();
        assert!(
            checks
                .iter()
                .any(|c| c.what == "scale/allocs_per_event" && !c.ok),
            "{checks:?}"
        );
        // … as does blowing the absolute per-event budget …
        let hog = doc(crate::scale::ALLOCS_PER_EVENT_BUDGET * 2.0, 1_000_000);
        let checks = check_scale(&hog, None, DEFAULT_THRESHOLD).unwrap();
        assert!(
            checks
                .iter()
                .any(|c| c.what == "scale/allocs_per_event_budget" && !c.ok),
            "{checks:?}"
        );
        // … and a shortfall against the event target.
        let short = json.replacen("\"events_processed\":1200", "\"events_processed\":900", 1);
        let checks = check_scale(&short, None, DEFAULT_THRESHOLD).unwrap();
        assert!(
            checks
                .iter()
                .any(|c| c.what == "scale/events_target" && !c.ok),
            "{checks:?}"
        );

        // Without the counting allocator the budget axis is skipped.
        let uncounted = json.replacen("\"alloc_installed\":true", "\"alloc_installed\":false", 1);
        let checks = check_scale(&uncounted, Some(&uncounted), DEFAULT_THRESHOLD).unwrap();
        assert_eq!(checks.len(), 3, "{checks:?}");

        assert!(check_scale("{\"schema\":\"other/v1\"}", None, DEFAULT_THRESHOLD).is_err());
        assert!(check_scale("{", None, DEFAULT_THRESHOLD).is_err());
    }

    #[test]
    fn stream_gate_checks_completion_budget_and_eager_undercut() {
        let doc = |completed: u64, peak: u64, projected: u64| {
            format!(
                "{{\"schema\":\"moteur-bench/stream/v1\",\"n_items\":1000,\
                 \"port_capacity\":16,\"eager_items\":100,\"seed\":1,\
                 \"alloc_installed\":true,\"items_completed\":{completed},\
                 \"jobs_submitted\":2000,\"wall_secs\":0.5,\
                 \"items_per_sec\":2000,\"input_bytes\":32000,\
                 \"pipeline_peak_bytes\":{peak},\
                 \"eager_bytes_per_item\":750.0,\"eager_items_per_sec\":400,\
                 \"eager_projected_bytes\":{projected},\"ok\":true}}"
            )
        };
        let json = doc(1000, 40_000, 750_000);
        let checks = check_stream(&json).unwrap();
        assert_eq!(checks.len(), 4, "{checks:?}");
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");

        // An incomplete stream trips the completion axis …
        let short = doc(900, 40_000, 750_000);
        let checks = check_stream(&short).unwrap();
        assert!(
            checks
                .iter()
                .any(|c| c.what == "stream/items_completed" && !c.ok),
            "{checks:?}"
        );
        // … blowing the absolute budget trips the peak axis …
        let hog = doc(1000, crate::stream::PIPELINE_PEAK_BUDGET + 1, u64::MAX);
        let checks = check_stream(&hog).unwrap();
        assert!(
            checks
                .iter()
                .any(|c| c.what == "stream/pipeline_peak_budget" && !c.ok),
            "{checks:?}"
        );
        // … and a peak within 4x of the eager projection trips the
        // undercut axis even inside the absolute budget.
        let near_eager = doc(1000, 40_000, 40_000 * 3);
        let checks = check_stream(&near_eager).unwrap();
        assert!(
            checks
                .iter()
                .any(|c| c.what == "stream/undercuts_eager_projection" && !c.ok),
            "{checks:?}"
        );

        // Without the counting allocator the memory axes are skipped.
        let uncounted = json.replacen("\"alloc_installed\":true", "\"alloc_installed\":false", 1);
        let checks = check_stream(&uncounted).unwrap();
        assert_eq!(checks.len(), 2, "{checks:?}");

        assert!(check_stream("{\"schema\":\"other/v1\"}").is_err());
        assert!(check_stream("{").is_err());
    }

    #[test]
    fn missing_config_and_bad_schema_are_caught() {
        let baseline = summary_json();
        let current = baseline.replacen("\"config\":\"nop\"", "\"config\":\"gone\"", 2);
        let report = check_gate(&baseline, &current, DEFAULT_THRESHOLD).unwrap();
        assert!(report
            .failures()
            .any(|c| c.what == "makespan/nop (missing)"));

        let bad = baseline.replacen("moteur-bench/summary/v1", "other/v9", 1);
        assert!(check_gate(&bad, &baseline, DEFAULT_THRESHOLD).is_err());
        assert!(check_gate(&baseline, "{", DEFAULT_THRESHOLD).is_err());
    }

    #[test]
    fn summary_check_is_the_drift_half_of_the_gate() {
        let json = summary_json();
        let checks = check_summary(&json).unwrap();
        assert_eq!(checks.len(), 6, "{checks:?}");
        assert!(checks.iter().all(|c| c.ok && c.what.starts_with("drift/")));
        let drifted = json.replacen("\"drift_ok\":true", "\"drift_ok\":false", 1);
        let checks = check_summary(&drifted).unwrap();
        assert_eq!(checks.iter().filter(|c| !c.ok).count(), 1, "{checks:?}");
        assert!(check_summary("{\"schema\":\"other/v1\"}").is_err());
    }

    #[test]
    fn warm_gate_requires_no_drift_and_no_misses() {
        let doc = |drift_ok: bool, misses: u64| {
            format!(
                "{{\"schema\":\"moteur-bench/warm/v1\",\"n_data\":6,\
                 \"drift_ok\":{drift_ok},\"cache_hits\":30,\"cache_misses\":{misses}}}"
            )
        };
        let checks = check_warm(&doc(true, 0)).unwrap();
        assert_eq!(checks.len(), 2, "{checks:?}");
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");
        let checks = check_warm(&doc(false, 0)).unwrap();
        assert!(!checks[0].ok && checks[1].ok, "{checks:?}");
        let checks = check_warm(&doc(true, 1)).unwrap();
        assert!(checks[0].ok && !checks[1].ok, "{checks:?}");
        assert!(check_warm("{\"schema\":\"other/v1\"}").is_err());
        assert!(check_warm("{").is_err());
    }
}
