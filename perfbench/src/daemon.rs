//! The daemon workloads: an open loop of `moteur/daemon/v1` `submit`
//! lines, sent at a fixed offered rate to one `Daemon` serving four
//! tenants on a `VirtualBackend`.
//!
//! - `daemon-mixed`: a shared memo table, and a seeded mix that repeats
//!   input sets the table already holds (store reads) or sends fresh
//!   ones (store writes).
//! - `daemon-nocache`: every request sends a fresh input set, and the
//!   memo table has a budget of zero bytes, so every lookup misses and
//!   every invocation runs.
//!
//! A run is a series of windows. Each window sets up a fresh daemon and
//! sends it the same fixed number of requests, so every window does the
//! same work, and the latency a window shows does not grow with
//! `--seconds` (a daemon keeps a slot for every submission it ever took,
//! so one long-lived daemon slows down as a run goes on). After the open
//! loop, the window's requests are drained as one burst on another fresh
//! daemon; that burst gives the daemon's capacity (`workflows_per_s`).

use crate::gen;
use crate::oneshot::REALIZATIONS;
use crate::trace::{self, Timed};
use crate::{alloc, calib, stats, Failure, Report};
use moteur::{
    daemon_apply, Backend, Daemon, DaemonConfig, DataStore, EnactorConfig, FtConfig, InputData,
    InstanceState, MoteurError, Request, StoreConfig, StoreStats, TenantConfig, VirtualBackend,
    Workflow,
};
use moteur_gridsim::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mixed,
    NoCache,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Mixed => "daemon-mixed",
            Kind::NoCache => "daemon-nocache",
        }
    }

    /// Offered load: submissions per host second, half the daemon's
    /// measured capacity. A burst is the daemon's worst case, so the
    /// open loop stays below capacity and its latency does not grow
    /// over a run. The open loop sends on this schedule whatever the
    /// daemon's state, so a slower daemon shows as latency, not as
    /// less load.
    ///
    /// `daemon-mixed`: bursts of one window (all [`WINDOW`] requests
    /// submitted at once, then drained) ran at a median 222
    /// submissions/s on a 2-core x86-64 host (five 10 s runs, seeds
    /// 101-105, range 213-252/s). `daemon-nocache`: a median 197
    /// submissions/s on the same host (five 10 s runs, seeds 101-105,
    /// range 190-208/s).
    pub fn rate(self) -> f64 {
        match self {
            Kind::Mixed => 110.0,
            Kind::NoCache => 98.0,
        }
    }

    /// Share of requests that repeat a pooled input set. Even on
    /// `daemon-mixed`, so store reads and store writes carry the same
    /// share of the traffic.
    fn repeat_share(self) -> f64 {
        match self {
            Kind::Mixed => 0.5,
            Kind::NoCache => 0.0,
        }
    }

    /// The shared memo table: the default budget, or none at all.
    fn store(self) -> StoreConfig {
        match self {
            Kind::Mixed => StoreConfig::default(),
            Kind::NoCache => StoreConfig::default().with_max_bytes(0),
        }
    }
}

/// Requests per window: about a second of traffic, and enough
/// concurrent work in a burst for the daemon's per-slot costs to show.
pub const WINDOW: usize = 128;
/// Tenants, as in `moteur-bench daemon`, with distinct weights 1..=4 so
/// the weighted-fair scheduler has shares to keep apart.
const TENANTS: usize = 4;
/// Images per submitted workflow (five services each): a small campaign,
/// so a request is dominated by its protocol line and its start.
const ITEMS: usize = 4;
/// Input sets submitted during set-up to seed the memo table, four per
/// tenant; a repeat request draws one of them and must hit on every
/// invocation. `daemon-nocache` submits them too, so set-up does the
/// same work on both; with no table budget they leave nothing behind.
const POOL: usize = 16;
/// Fewest windows per run, whatever `--seconds` says.
const MIN_WINDOWS: usize = 4;

/// The generated traffic of one input set: a window of requests.
pub struct Traffic {
    kind: Kind,
    workflow: String,
    pool: Vec<String>,
    /// Protocol lines, in send order, and whether each repeats.
    lines: Vec<(String, bool)>,
}

pub fn traffic(kind: Kind, seed: u64, count: usize) -> Traffic {
    let mut rng = Rng::new(seed ^ 0x6461_656d_6f6e);
    let workflow = gen::chain_scufl(&mut rng);
    let pool: Vec<String> = (0..POOL)
        .map(|k| gen::chain_inputs(&format!("seed{seed}/pool{k}"), ITEMS))
        .collect();
    // Exactly the repeat share of each window repeats, at seeded places
    // (a Fisher-Yates shuffle), so every window carries the same mix.
    let mut repeats: Vec<bool> = (0..count)
        .map(|i| (i as f64) < kind.repeat_share() * count as f64)
        .collect();
    for i in (1..count).rev() {
        repeats.swap(i, rng.index(i + 1));
    }
    let lines = (0..count)
        .map(|i| {
            let repeat = repeats[i];
            let inputs = if repeat {
                pool[rng.index(POOL)].clone()
            } else {
                gen::chain_inputs(&format!("seed{seed}/fresh{i}"), ITEMS)
            };
            let line = Request::Submit {
                tenant: format!("t{}", i % TENANTS),
                workflow: workflow.clone(),
                inputs,
                config: "sp+dp".into(),
                max_retries: EnactorConfig::default().max_job_retries,
                continue_on_error: false,
            }
            .render();
            (line, repeat)
        })
        .collect();
    Traffic {
        kind,
        workflow,
        pool,
        lines,
    }
}

fn parser(workflow: &str, inputs: &str) -> Result<(Workflow, InputData), MoteurError> {
    trace::span("scufl.parse", || {
        let w = moteur_scufl::parse_workflow(workflow).map_err(|e| MoteurError::new(e.message))?;
        let i = moteur_scufl::parse_input_data(inputs).map_err(|e| MoteurError::new(e.message))?;
        Ok((w, i))
    })
}

/// `Daemon::new`, tenant weights, and seeding the memo table with the
/// pooled input sets. Returns the daemon and the wall time it took.
fn setup(t: &Traffic, traced: bool) -> Result<(Daemon, f64), Failure> {
    let t0 = Instant::now();
    let backend: Box<dyn Backend> = if traced {
        Box::new(Timed(Box::new(VirtualBackend::new())))
    } else {
        Box::new(VirtualBackend::new())
    };
    let mut d = Daemon::new(
        backend,
        DataStore::in_memory(t.kind.store()),
        parser,
        DaemonConfig::default(),
    );
    for k in 0..TENANTS {
        d.set_tenant(
            &format!("t{k}"),
            TenantConfig {
                weight: k as u32 + 1,
                ..TenantConfig::default()
            },
        )?;
    }
    let ids = t
        .pool
        .iter()
        .map(|inputs| {
            d.submit(
                "seed",
                &t.workflow,
                inputs,
                EnactorConfig::sp_dp(),
                FtConfig::default(),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    d.drain();
    for id in ids {
        let state = d.status(id).map(|s| s.state);
        if state != Some(InstanceState::Succeeded) {
            return Err(Failure::Check(format!("seeding instance {id}: {state:?}")));
        }
    }
    Ok((d, t0.elapsed().as_secs_f64()))
}

fn submitted_id(response: &str) -> Option<u32> {
    if !response.contains(r#""ok":true"#) {
        return None;
    }
    let rest = &response[response.find(r#""id":"#)? + 5..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One finished request, as the checks and metrics need it.
#[derive(Debug, Clone, PartialEq)]
struct Done {
    state: InstanceState,
    jobs: usize,
    makespan: Option<f64>,
    ttfj: Option<f64>,
}

/// What one open loop produced.
struct Loop {
    latency_s: Vec<f64>,
    late_s: Vec<f64>,
    /// Per request, in send order.
    done: Vec<Option<Done>>,
    wall_s: f64,
    allocs: u64,
    peak_bytes: u64,
    store: StoreStats,
    steps: u64,
}

impl Loop {
    fn succeeded(&self) -> impl Iterator<Item = &Done> {
        self.done
            .iter()
            .flatten()
            .filter(|d| d.state == InstanceState::Succeeded)
    }

    fn jobs(&self) -> usize {
        self.succeeded().map(|d| d.jobs).sum()
    }

    /// How each request ended: state, jobs and virtual makespan. Time
    /// to first job is left out: it is admission delay, which hangs on
    /// which requests overlap, and so on the wall clock.
    fn outcomes(&self) -> Vec<Option<(InstanceState, usize, Option<f64>)>> {
        self.done
            .iter()
            .map(|d| d.as_ref().map(|d| (d.state, d.jobs, d.makespan)))
            .collect()
    }
}

/// Send `lines` on the fixed-rate schedule and step the daemon until
/// every request has finished. Requests are timed from when they were
/// due, so a stall also delays the requests queued behind it.
fn open_loop(d: &mut Daemon, t: &Traffic, report: &mut Report) -> Loop {
    let lines = &t.lines;
    let rate = t.kind.rate();
    let store0 = d.store().stats();
    let live0 = alloc::reset_peak();
    let allocs0 = alloc::allocs();
    let n = lines.len();
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut latency_s = Vec::with_capacity(n);
    let mut late_s = Vec::with_capacity(n);
    let mut done: Vec<Option<Done>> = vec![None; n];
    let mut outstanding: Vec<(u32, usize)> = Vec::new();
    let mut steps = 0u64;
    let mut next = 0;
    let start = Instant::now();
    loop {
        while next < n && start.elapsed() >= due(next) {
            late_s.push((start.elapsed() - due(next)).as_secs_f64());
            trace::set_trace(next as u32 + 1);
            let sent = trace::span("protocol.parse", || Request::parse(&lines[next].0))
                .map(|req| trace::span("protocol.apply", || daemon_apply(d, &req)));
            trace::set_trace(0);
            report.attempted += 1;
            match sent.as_deref().map(submitted_id) {
                Ok(Some(id)) => outstanding.push((id, next)),
                Ok(None) => report.fail(Failure::Error(format!(
                    "submit refused: {}",
                    sent.unwrap_or_default()
                ))),
                Err(e) => report.fail(Failure::Error(format!("request line: {e}"))),
            }
            next += 1;
        }
        if outstanding.is_empty() {
            if next == n {
                break;
            }
            while start.elapsed() < due(next) {
                std::hint::spin_loop();
            }
            continue;
        }
        let live = trace::span("daemon.step", || d.step());
        steps += 1;
        outstanding.retain(|&(id, i)| {
            let Some(s) = d.status(id) else {
                return true;
            };
            if matches!(s.state, InstanceState::Queued | InstanceState::Running) {
                return true;
            }
            latency_s.push((start.elapsed() - due(i)).as_secs_f64());
            done[i] = Some(Done {
                state: s.state,
                jobs: s.jobs_submitted,
                makespan: s.makespan_secs,
                ttfj: s.first_job_at.map(|f| f - s.submitted_at),
            });
            false
        });
        if !live && !outstanding.is_empty() {
            report.fail(Failure::Error(format!(
                "daemon went idle with {} requests unfinished",
                outstanding.len()
            )));
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_bytes = alloc::peak().saturating_sub(live0);
    let after = d.store().stats();
    Loop {
        latency_s,
        late_s,
        done,
        wall_s,
        allocs: alloc::allocs() - allocs0,
        peak_bytes,
        store: StoreStats {
            hits: after.hits - store0.hits,
            misses: after.misses - store0.misses,
            ..after
        },
        steps,
    }
}

/// Every request must succeed, submit exactly the jobs its mix implies,
/// and the memo table must see exactly the mix's reads and writes.
fn check(lines: &[(String, bool)], l: &Loop, report: &mut Report) {
    let per_request = (5 * ITEMS) as u64;
    let mut repeats = 0u64;
    // Failed requests, and requests that submitted other job counts than
    // their mix implies: (count, first example).
    let mut ended = (0, None);
    let mut miscounted = (0, None);
    for ((_, repeat), done) in lines.iter().zip(&l.done) {
        repeats += u64::from(*repeat);
        let Some(d) = done else {
            continue;
        };
        let want_jobs = if *repeat { 0 } else { 5 * ITEMS };
        if d.state != InstanceState::Succeeded {
            ended.0 += 1;
            ended.1.get_or_insert(format!("{:?}", d.state));
        } else if d.jobs != want_jobs {
            miscounted.0 += 1;
            miscounted
                .1
                .get_or_insert(format!("{} jobs, expected {want_jobs}", d.jobs));
        }
    }
    if let (n, Some(example)) = ended {
        report.fail_n(
            Failure::Check(format!("{n} requests did not succeed (first: {example})")),
            n,
        );
    }
    if let (n, Some(example)) = miscounted {
        report.fail_n(
            Failure::Check(format!(
                "{n} requests submitted other job counts than the mix implies (first: {example})"
            )),
            n,
        );
    }
    let fresh = lines.len() as u64 - repeats;
    if (l.store.hits, l.store.misses) != (repeats * per_request, fresh * per_request) {
        report.fail(Failure::Check(format!(
            "store saw {} hits / {} misses, the mix implies {} / {}",
            l.store.hits,
            l.store.misses,
            repeats * per_request,
            fresh * per_request
        )));
    }
}

/// A burst drained on a fresh daemon.
struct Burst {
    setup_s: f64,
    /// Host seconds from the first submit to the end of the drain.
    secs: f64,
    succeeded: usize,
    jobs: usize,
}

fn burst(t: &Traffic, lines: &[(String, bool)]) -> Result<Burst, Failure> {
    let (mut d, setup_s) = setup(t, false)?;
    let t0 = Instant::now();
    let mut ids = Vec::with_capacity(lines.len());
    for (line, _) in lines {
        let req = Request::parse(line).map_err(Failure::Error)?;
        ids.push(
            submitted_id(&daemon_apply(&mut d, &req))
                .ok_or_else(|| Failure::Error("burst submit refused".into()))?,
        );
    }
    d.drain();
    let secs = t0.elapsed().as_secs_f64();
    let mut jobs = 0;
    for &id in &ids {
        match d.status(id) {
            Some(s) if s.state == InstanceState::Succeeded => jobs += s.jobs_submitted,
            s => {
                return Err(Failure::Check(format!(
                    "burst instance {id} ended {:?}",
                    s.map(|s| s.state)
                )))
            }
        }
    }
    Ok(Burst {
        setup_s,
        secs,
        succeeded: ids.len(),
        jobs,
    })
}

/// The traffic of one run: [`REALIZATIONS`] windows of seeded requests
/// (seeds `16·seed + k`), cycled through in turn.
fn realizations(kind: Kind, seed: u64) -> Vec<Traffic> {
    (0..REALIZATIONS)
        .map(|k| traffic(kind, seed.wrapping_mul(16).wrapping_add(k), WINDOW))
        .collect()
}

pub fn run(kind: Kind, seed: u64, budget: Duration, traced: bool) -> Report {
    let traffics = realizations(kind, seed);
    if traced {
        traced_windows(&traffics, seed, budget)
    } else {
        timed_windows(&traffics, budget)
    }
}

/// One untraced window: a timed set-up and open loop, then bursts of
/// the whole window and of its first quarter.
struct Window {
    setups: [f64; 3],
    open: Loop,
    big: Burst,
    small_s: f64,
}

fn window(t: &Traffic, report: &mut Report) -> Option<Window> {
    let (mut d, setup_s) = report.record(setup(t, false))?;
    let open = open_loop(&mut d, t, report);
    drop(d);
    check(&t.lines, &open, report);
    let big = report.record(burst(t, &t.lines))?;
    let small = report.record(burst(t, &t.lines[..t.lines.len().div_ceil(4)]))?;
    Some(Window {
        setups: [setup_s, big.setup_s, small.setup_s],
        open,
        big,
        small_s: small.secs,
    })
}

/// The untraced run: windows over `traffics` until the budget is spent,
/// each followed by the calibration kernel. Timings are scaled to the
/// reference host like the one-shot workloads'; the raw values are
/// printed beside them.
pub fn timed_windows(traffics: &[Traffic], budget: Duration) -> Report {
    let mut report = Report::default();
    let mut windows = Vec::new();
    // Host-speed factor taken right after each window (see `calib`).
    let mut factors = Vec::new();
    calib::factor();
    let start = Instant::now();
    for (tried, t) in traffics.iter().cycle().enumerate() {
        if tried >= MIN_WINDOWS.min(traffics.len()) && start.elapsed() >= budget {
            break;
        }
        if let Some(w) = window(t, &mut report) {
            windows.push(w);
            factors.push(calib::factor());
        }
    }
    if windows.is_empty() {
        return report;
    }
    // Each timing metric with every window's times scaled by its host
    // factor; factors of 1 give the raw value printed beside it. The
    // tail is taken per window and its median reported: a window is the
    // unit of work, and a few host stalls in one window then move one
    // value, not the run's tail.
    let timings = |factors: &[f64]| {
        // A rate per burst, median over the bursts: a host stall moves
        // one burst's rate, not the run's.
        let rate = |count: &dyn Fn(&Burst) -> usize| -> f64 {
            let rates: Vec<f64> = windows
                .iter()
                .zip(factors)
                .map(|(w, k)| count(&w.big) as f64 / (w.big.secs * k))
                .collect();
            stats::median(&rates)
        };
        let scaled = |f: &dyn Fn(&Window) -> &[f64]| -> Vec<f64> {
            windows
                .iter()
                .zip(factors)
                .flat_map(|(w, &k)| f(w).iter().map(move |s| s * k))
                .collect()
        };
        let tails: Vec<f64> = windows
            .iter()
            .zip(factors)
            .map(|(w, k)| stats::tail(&w.open.latency_s).0 * k)
            .collect();
        [
            ("workflows_per_s", rate(&|b| b.succeeded)),
            ("jobs_per_s", rate(&|b| b.jobs)),
            ("items_per_s", rate(&|b| b.succeeded * ITEMS)),
            (
                "request_p50_ms",
                stats::median(&scaled(&|w| &w.open.latency_s)) * 1e3,
            ),
            ("request_p99_ms", stats::median(&tails) * 1e3),
            ("setup_s", stats::median(&scaled(&|w| &w.setups))),
        ]
    };
    let factors = calib::smooth(&factors);
    let raw = timings(&vec![1.0; windows.len()]);
    for ((name, value), (_, raw)) in timings(&factors).into_iter().zip(raw) {
        report.set(name, value);
        report.note(name, format!("raw {raw:.6}"));
    }
    let latency: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.open.latency_s.iter().copied())
        .collect();
    report.note(
        "request_p50_ms",
        format!(
            "{} requests at {}/s in {} windows of {WINDOW}; raw {:.3} ms, host factor {:.3}",
            latency.len(),
            traffics[0].kind.rate(),
            windows.len(),
            raw[3].1,
            stats::median(&factors)
        ),
    );
    let q = stats::median(
        &windows
            .iter()
            .map(|w| stats::tail(&w.open.latency_s).1)
            .collect::<Vec<_>>(),
    );
    report.note(
        "request_p99_ms",
        format!(
            "median over windows of p{:.0} of {WINDOW}; raw {:.3} ms; raw p{:.0} of all {} is {:.3} ms",
            q * 100.0,
            raw[4].1,
            stats::tail(&latency).1 * 100.0,
            latency.len(),
            stats::tail(&latency).0 * 1e3
        ),
    );
    report.note(
        "workflows_per_s",
        format!(
            "median over {} bursts of {WINDOW} submissions; raw {:.3}",
            windows.len(),
            raw[0].1
        ),
    );
    let peaks: Vec<f64> = windows.iter().map(|w| w.open.peak_bytes as f64).collect();
    report.set("peak_mb", stats::median(&peaks) / 1e6);
    let allocs: u64 = windows.iter().map(|w| w.open.allocs).sum();
    let jobs: usize = windows.iter().map(|w| w.open.jobs()).sum();
    report.set("allocs_per_job", allocs as f64 / (jobs as f64).max(1.0));
    let exps: Vec<f64> = windows
        .iter()
        .map(|w| (w.big.secs / w.small_s).ln() / 4f64.ln())
        .collect();
    report.set("scaling_exp", stats::median(&exps));
    report.note(
        "scaling_exp",
        format!("bursts of {WINDOW} vs {} submissions", WINDOW.div_ceil(4)),
    );
    let makespans: Vec<f64> = windows
        .iter()
        .flat_map(|w| {
            w.open
                .succeeded()
                .filter_map(|d| d.makespan)
                .collect::<Vec<_>>()
        })
        .collect();
    report.set("makespan_vs", stats::median(&makespans));
    report
}

/// Per-layer figures of one traced window.
fn layers(
    l: &Loop,
    spans: &[trace::Span],
    counts: trace::BackendCounts,
) -> BTreeMap<&'static str, f64> {
    let agg = trace::aggregate(spans);
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    let per_span = |name: &'static str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let requests = l.done.len().max(1) as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "scufl.parse_ms",
        get("scufl.parse").total_ns as f64 / 1e6 / requests,
    );
    // `Daemon::submit` lints and starts inside `apply`.
    m.insert(
        "enactor.start_ms",
        get("protocol.apply").self_ns as f64 / 1e6 / requests,
    );
    m.insert("backend.submits", counts.submits as f64);
    m.insert(
        "backend.submit_us",
        get("backend.submit").total_ns as f64 / 1e3,
    );
    m.insert("backend.completions", counts.completions as f64);
    m.insert("backend.wait_us", get("backend.wait").total_ns as f64 / 1e3);
    m.insert("backend.timeouts", counts.timeouts as f64);
    m.insert("backend.cancels", counts.cancels as f64);
    m.insert("backend.inflight_max", counts.inflight_max as f64);
    m.insert(
        "backend.attempts_per_job",
        counts.submits as f64 / (counts.completions as f64).max(1.0),
    );
    m.insert("store.hits", l.store.hits as f64);
    m.insert("store.misses", l.store.misses as f64);
    m.insert("store.hit_ratio", l.store.hit_ratio());
    m.insert("store.entries", l.store.entries as f64);
    m.insert("store.bytes", l.store.bytes as f64);
    m.insert(
        "protocol.parse_us",
        stats::median(&per_span("protocol.parse")),
    );
    m.insert(
        "protocol.apply_us",
        stats::median(&per_span("protocol.apply")),
    );
    m.insert("daemon.steps", l.steps as f64);
    m.insert("daemon.step_us", stats::median(&per_span("daemon.step")));
    let ttfj: Vec<f64> = l.succeeded().filter_map(|d| d.ttfj).collect();
    m.insert("daemon.ttfj_p99_vs", stats::tail(&ttfj).0);
    m.insert("loadgen.late_p99_ms", stats::tail(&l.late_s).0 * 1e3);
    let busy = get("protocol.apply").self_ns + get("daemon.step").self_ns;
    m.insert("enactor.self_frac", busy as f64 / (l.wall_s * 1e9));
    let makespans: Vec<f64> = l.succeeded().filter_map(|d| d.makespan).collect();
    m.insert("makespan_vs", stats::median(&makespans));
    m
}

/// The traced run: an untraced and a traced open loop over each window
/// in turn, until the budget is spent. Each request must end the same
/// way in both; the traced loops give the layers (medians over
/// windows), and the spans of the last one are written out.
pub fn traced_windows(traffics: &[Traffic], seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    // Lint runs inside `Daemon::submit`; time the same call on its own.
    let lint_ms: Vec<f64> = match moteur_scufl::parse_workflow(&traffics[0].workflow) {
        Ok(wf) => (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let findings = moteur::lint_errors(&wf);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if !findings.is_empty() {
                    report.fail(Failure::Check(
                        "the request workflow has lint errors".into(),
                    ));
                }
                ms
            })
            .collect(),
        Err(e) => {
            report.fail(Failure::Error(e.message));
            Vec::new()
        }
    };
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut samples = Vec::new();
    let mut last_spans = Vec::new();
    let start = Instant::now();
    for (tried, t) in traffics.iter().cycle().enumerate() {
        if tried >= traffics.len() && start.elapsed() >= budget {
            break;
        }
        let Some((mut d, _)) = report.record(setup(t, false)) else {
            continue;
        };
        let p = open_loop(&mut d, t, &mut report);
        drop(d);
        check(&t.lines, &p, &mut report);
        // Set-up is not recorded: the spans cover the open loop only.
        let Some((mut d, _)) = report.record(setup(t, true)) else {
            continue;
        };
        trace::begin();
        let l = open_loop(&mut d, t, &mut report);
        let (spans, counts) = trace::end();
        drop(d);
        check(&t.lines, &l, &mut report);
        if p.outcomes() != l.outcomes() {
            report.fail(Failure::Check(
                "traced daemon loop finished requests differently from the untraced one".into(),
            ));
        }
        plain_s.extend_from_slice(&p.latency_s);
        traced_s.extend_from_slice(&l.latency_s);
        samples.push(layers(&l, &spans, counts));
        last_spans = spans;
    }
    for (name, _) in crate::PER_LAYER {
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        report.set(
            name,
            if values.is_empty() {
                0.0
            } else {
                stats::median(&values)
            },
        );
    }
    report.set("lint.errors_ms", stats::median(&lint_ms));
    if !traced_s.is_empty() {
        report.set(
            "obs.trace_overhead",
            stats::median(&traced_s) / stats::median(&plain_s) - 1.0,
        );
        report.note(
            "obs.trace_overhead",
            format!("{} traced / untraced windows", samples.len()),
        );
    }
    let path = std::path::PathBuf::from(crate::SPAN_DIR).join(format!(
        "spans-{}-{seed}.jsonl",
        traffics[0].kind.name()
    ));
    if let Err(e) = trace::write_spans(&path, &last_spans) {
        report.fail(Failure::Error(format!("writing {}: {e}", path.display())));
    }
    report
}
