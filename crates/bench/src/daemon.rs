//! Multi-tenant daemon benchmark: a concurrent submission wave against
//! one shared enactment daemon.
//!
//! A `seed` tenant first enacts the Bronze-Standard chain once, cold,
//! to populate the shared memo table. Then `n_workflows` identical
//! submissions arrive across `n_tenants` tenants and are multiplexed
//! by the daemon's weighted fair scheduler over a single virtual-time
//! backend. The campaign reports sustained throughput (wall-clock
//! workflows per second), the p50/p99 time-to-first-job in virtual
//! seconds (admission latency: how long a submission waits behind its
//! tenant's in-flight cap), and the cross-tenant cache-hit ratio — the
//! paper's "several data-intensive applications share one data
//! manager" scenario, where the second tenant's identical submission
//! must not recompute what the first already derived.

use crate::bronze::{bronze_chain_workflow_xml, IMAGE_BYTES};
use moteur::obs::json::{array, JsonObject};
use moteur::{
    Daemon, DaemonConfig, DataStore, EnactorConfig, FtConfig, InputData, InstanceState,
    MoteurError, StoreConfig, VirtualBackend, Workflow,
};

/// Schema tag of [`render_daemon_json`].
pub const DAEMON_BENCH_SCHEMA: &str = "moteur-bench/daemon/v1";

/// Per-tenant slice of the wave.
#[derive(Debug, Clone)]
pub struct TenantRow {
    pub tenant: String,
    pub workflows: usize,
    pub store_hits: u64,
    pub store_misses: u64,
}

/// Everything measured by one submission wave.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    pub n_workflows: usize,
    pub n_tenants: usize,
    pub n_data: usize,
    /// Wave instances that reached `Succeeded`.
    pub succeeded: usize,
    /// Wall-clock duration of the wave (submit + drain), host seconds.
    pub wall_secs: f64,
    pub workflows_per_sec: f64,
    /// Time-to-first-job percentiles over the wave, virtual seconds.
    pub ttfj_p50_secs: f64,
    pub ttfj_p99_secs: f64,
    /// Grid jobs the cold seed enactment submitted.
    pub seed_jobs: usize,
    /// Memo-table traffic of the wave tenants only (seed excluded).
    pub cross_tenant_hits: u64,
    pub cross_tenant_misses: u64,
    pub store_entries: usize,
    pub tenants: Vec<TenantRow>,
}

impl DaemonReport {
    /// Hit ratio of the wave tenants against data the seed tenant
    /// derived — the headline cross-tenant sharing number.
    pub fn cross_tenant_hit_ratio(&self) -> f64 {
        let total = self.cross_tenant_hits + self.cross_tenant_misses;
        if total == 0 {
            0.0
        } else {
            self.cross_tenant_hits as f64 / total as f64
        }
    }
}

fn parser(workflow: &str, inputs: &str) -> Result<(Workflow, InputData), MoteurError> {
    let w = moteur_scufl::parse_workflow(workflow).map_err(|e| MoteurError::new(e.message))?;
    let i = moteur_scufl::parse_input_data(inputs).map_err(|e| MoteurError::new(e.message))?;
    Ok((w, i))
}

/// Input document for the chain workflow: `n_data` images, identical
/// across tenants so every derived datum is shareable.
fn chain_inputs_xml(n_data: usize) -> String {
    let items: String = (0..n_data)
        .map(|j| {
            format!(
                r#"<item type="file" gfn="gfn://lacassagne/pair{j:03}.hdr" bytes="{IMAGE_BYTES}"/>"#
            )
        })
        .collect();
    format!(r#"<inputdata><input name="images">{items}</input></inputdata>"#)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Run the wave: one cold seed enactment, then `n_workflows` identical
/// submissions spread round-robin over `n_tenants` tenants, drained to
/// completion on a shared virtual-time backend.
pub fn run_daemon_campaign(
    n_workflows: usize,
    n_tenants: usize,
    n_data: usize,
) -> Result<DaemonReport, MoteurError> {
    let workflow_xml = bronze_chain_workflow_xml();
    let inputs_xml = chain_inputs_xml(n_data);
    let mut daemon = Daemon::new(
        Box::new(VirtualBackend::new()),
        DataStore::in_memory(StoreConfig::default()),
        parser,
        DaemonConfig::default(),
    );

    // Cold seed: tenant `seed` derives every datum once.
    let seed_id = daemon.submit(
        "seed",
        &workflow_xml,
        &inputs_xml,
        EnactorConfig::sp_dp(),
        FtConfig::default(),
    )?;
    daemon.drain();
    let seed = daemon
        .status(seed_id)
        .ok_or_else(|| MoteurError::new("seed instance vanished"))?;
    if seed.state != InstanceState::Succeeded {
        return Err(MoteurError::new(format!(
            "seed enactment did not succeed: {:?}",
            seed.error
        )));
    }

    // The wave: concurrent identical submissions across the tenants.
    let clock = std::time::Instant::now();
    let mut ids = Vec::with_capacity(n_workflows);
    for j in 0..n_workflows {
        let tenant = format!("t{}", j % n_tenants);
        ids.push(daemon.submit(
            &tenant,
            &workflow_xml,
            &inputs_xml,
            EnactorConfig::sp_dp(),
            FtConfig::default(),
        )?);
    }
    daemon.drain();
    let wall_secs = clock.elapsed().as_secs_f64();

    let mut succeeded = 0usize;
    let mut ttfj: Vec<f64> = Vec::with_capacity(n_workflows);
    for &id in &ids {
        let s = daemon
            .status(id)
            .ok_or_else(|| MoteurError::new("wave instance vanished"))?;
        if s.state == InstanceState::Succeeded {
            succeeded += 1;
        }
        if let Some(first) = s.first_job_at {
            ttfj.push(first - s.submitted_at);
        }
    }
    ttfj.sort_by(|a, b| a.partial_cmp(b).expect("ttfj values are finite"));

    let metrics = daemon.metrics();
    let mut cross_tenant_hits = 0u64;
    let mut cross_tenant_misses = 0u64;
    let mut tenants = Vec::new();
    for t in &metrics.tenants {
        if t.tenant == "seed" {
            continue;
        }
        cross_tenant_hits += t.store_hits;
        cross_tenant_misses += t.store_misses;
        tenants.push(TenantRow {
            tenant: t.tenant.clone(),
            workflows: ids
                .iter()
                .enumerate()
                .filter(|(j, _)| format!("t{}", j % n_tenants) == t.tenant)
                .count(),
            store_hits: t.store_hits,
            store_misses: t.store_misses,
        });
    }

    Ok(DaemonReport {
        n_workflows,
        n_tenants,
        n_data,
        succeeded,
        wall_secs,
        workflows_per_sec: if wall_secs > 0.0 {
            n_workflows as f64 / wall_secs
        } else {
            f64::INFINITY
        },
        ttfj_p50_secs: percentile(&ttfj, 0.50),
        ttfj_p99_secs: percentile(&ttfj, 0.99),
        seed_jobs: seed.jobs_submitted,
        cross_tenant_hits,
        cross_tenant_misses,
        store_entries: daemon.store().stats().entries,
        tenants,
    })
}

/// Serialise the report (`BENCH_daemon.json`).
pub fn render_daemon_json(report: &DaemonReport) -> String {
    let tenants = array(report.tenants.iter().map(|t| {
        JsonObject::new()
            .str("tenant", &t.tenant)
            .uint("workflows", t.workflows as u64)
            .uint("store_hits", t.store_hits)
            .uint("store_misses", t.store_misses)
            .finish()
    }));
    JsonObject::new()
        .str("schema", DAEMON_BENCH_SCHEMA)
        .str("workflow", "bronze-chain")
        .str("grid", "virtual")
        .str("config", "sp+dp")
        .uint("n_workflows", report.n_workflows as u64)
        .uint("n_tenants", report.n_tenants as u64)
        .uint("n_data", report.n_data as u64)
        .uint("succeeded", report.succeeded as u64)
        .num("wall_secs", report.wall_secs)
        .num("workflows_per_sec", report.workflows_per_sec)
        .num("ttfj_p50_secs", report.ttfj_p50_secs)
        .num("ttfj_p99_secs", report.ttfj_p99_secs)
        .uint("seed_jobs", report.seed_jobs as u64)
        .uint("cross_tenant_hits", report.cross_tenant_hits)
        .uint("cross_tenant_misses", report.cross_tenant_misses)
        .num("cross_tenant_hit_ratio", report.cross_tenant_hit_ratio())
        .uint("store_entries", report.store_entries as u64)
        .raw("tenants", &tenants)
        .finish()
}

/// Human rendering, one line per fact.
pub fn render_daemon(report: &DaemonReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "daemon wave: {} bronze-chain submissions across {} tenants (n_data {}), shared store",
        report.n_workflows, report.n_tenants, report.n_data
    );
    let _ = writeln!(
        out,
        "  {} succeeded in {:.2} s wall ({:.0} workflows/s sustained)",
        report.succeeded, report.wall_secs, report.workflows_per_sec
    );
    let _ = writeln!(
        out,
        "  time-to-first-job p50 {:.1} s, p99 {:.1} s (virtual)",
        report.ttfj_p50_secs, report.ttfj_p99_secs
    );
    let _ = writeln!(
        out,
        "  cross-tenant: {} hits / {} misses ({:.0}% hit ratio; seed ran {} jobs, store holds {} entries)",
        report.cross_tenant_hits,
        report.cross_tenant_misses,
        report.cross_tenant_hit_ratio() * 100.0,
        report.seed_jobs,
        report.store_entries
    );
    for t in &report.tenants {
        let _ = writeln!(
            out,
            "    {}: {} workflows, {} hits / {} misses",
            t.tenant, t.workflows, t.store_hits, t.store_misses
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_wave_shares_the_seed_tenants_derivations() {
        let r = run_daemon_campaign(8, 4, 2).unwrap();
        assert_eq!(r.succeeded, 8);
        assert!(r.seed_jobs > 0, "seed enactment must hit the grid");
        assert_eq!(r.cross_tenant_misses, 0, "wave recomputed: {r:?}");
        assert!(r.cross_tenant_hits > 0);
        assert!((r.cross_tenant_hit_ratio() - 1.0).abs() < f64::EPSILON);
        assert_eq!(r.tenants.len(), 4);
        assert!(r.tenants.iter().all(|t| t.workflows == 2));
        assert!(r.ttfj_p99_secs >= r.ttfj_p50_secs);
    }

    #[test]
    fn daemon_json_carries_the_schema_tag() {
        let r = run_daemon_campaign(4, 2, 2).unwrap();
        let json = render_daemon_json(&r);
        assert!(json.contains("\"schema\":\"moteur-bench/daemon/v1\""));
        assert!(json.contains("\"cross_tenant_hit_ratio\""));
        assert!(json.contains("\"ttfj_p99_secs\""));
        let human = render_daemon(&r);
        assert!(human.contains("hit ratio"));
        assert!(human.contains("time-to-first-job"));
    }
}
