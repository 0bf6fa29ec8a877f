//! The one-shot workloads: one workflow enacted to completion through
//! the public step API (`start`, `pump`, `next_wake`, `deliver`,
//! `on_timer`, `finish`), driven exactly as the one-shot loop drives it.

use crate::gen;
use crate::trace::{self, Timed};
use crate::{alloc, calib, stats, Failure, Report};
use moteur::backend::WaitOutcome;
use moteur::lint::PredictionRow;
use moteur::{
    Backend, DataStore, DataValue, EnactCtx, EnactorConfig, FtConfig, FtPolicy, InputData,
    MoteurError, Obs, Prof, ProfReport, RetryPolicy, ServiceBinding, SimBackend, StoreConfig,
    StoreStats, TimeoutAction, TimeoutPolicy, Token, VirtualBackend, Workflow, WorkflowInstance,
    WorkflowResult,
};
use moteur_gridsim::{GridConfig, Rng};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Port capacity of every bounded edge in `stream-bounded`.
pub const PORT_CAPACITY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BronzeCold,
    StreamBounded,
    EgeeFt,
}

impl Kind {
    /// Input size of one measured enactment. Sized by work, so every
    /// commit does the same work per sample; the scaling exponent also
    /// runs each at a quarter of this size. `bronze-cold` (about 1.1 s
    /// today) and `egee-ft` (about 0.4 s) are sized so that an enactor
    /// 10-100x faster still takes milliseconds to tens of milliseconds
    /// per sample, well above the timer's resolution.
    pub fn size(self) -> usize {
        match self {
            Kind::BronzeCold => 4_000,
            Kind::StreamBounded => 16_000,
            Kind::EgeeFt => 200,
        }
    }
}

/// Generated inputs of one enactment: what the program receives.
pub enum Input {
    Scufl { workflow: String, inputs: String },
    Stream { base: f64, data: InputData },
}

/// One enactment's generated inputs and what its outputs must be.
pub struct Case {
    pub kind: Kind,
    pub n: usize,
    pub seed: u64,
    pub input: Input,
    /// The sinks, and the items each must receive.
    pub sinks: &'static [&'static str],
    pub sink_items: usize,
    /// Self-test hook: the stream's `shift` service always fails.
    pub faulty: bool,
    /// The eq. 1–4 sp+dp prediction, computed on first use.
    prediction: OnceCell<Result<PredictionRow, String>>,
}

impl Case {
    pub fn generate(kind: Kind, n: usize, seed: u64) -> Case {
        let mut rng = Rng::new(seed ^ 0x6d6f_7465_7572);
        let prefix = format!("seed{seed}");
        let (input, sinks, sink_items) = match kind {
            Kind::BronzeCold => (
                Input::Scufl {
                    workflow: gen::chain_scufl(&mut rng),
                    inputs: gen::chain_inputs(&prefix, n),
                },
                &["accuracy"][..],
                n,
            ),
            Kind::EgeeFt => (
                Input::Scufl {
                    workflow: gen::fig9_scufl(&mut rng),
                    inputs: gen::fig9_inputs(&prefix, n),
                },
                // The barrier fires once over the whole campaign.
                &["accuracy_translation", "accuracy_rotation"][..],
                1,
            ),
            Kind::StreamBounded => {
                let (base, values) = gen::stream_values(&mut rng, n);
                let data = InputData::new()
                    .set("items", values.into_iter().map(DataValue::from).collect());
                (Input::Stream { base, data }, &["out"][..], n)
            }
        };
        Case {
            kind,
            n,
            seed,
            input,
            sinks,
            sink_items,
            faulty: false,
            prediction: OnceCell::new(),
        }
    }

    /// `lint::predict`'s sp+dp row for this workflow and size.
    fn prediction(&self) -> Result<&PredictionRow, Failure> {
        self.prediction
            .get_or_init(|| {
                let Input::Scufl { workflow, .. } = &self.input else {
                    return Err("only SCUFL workloads have a prediction".to_string());
                };
                let wf = moteur_scufl::parse_workflow(workflow).map_err(|e| e.message)?;
                let pred =
                    moteur::predict(&wf, self.n, 0.0).map_err(|e| e.message().to_string())?;
                pred.row("sp+dp")
                    .cloned()
                    .ok_or_else(|| "no sp+dp prediction".to_string())
            })
            .as_ref()
            .map_err(|e| Failure::Check(e.clone()))
    }

    fn config(&self) -> EnactorConfig {
        let c = EnactorConfig::sp_dp().with_seed(self.seed);
        match self.kind {
            Kind::StreamBounded => c.with_port_capacity(PORT_CAPACITY),
            _ => c,
        }
    }

    fn ft(&self, config: &EnactorConfig) -> FtConfig {
        match self.kind {
            // Resubmit any job running past 2× its service's observed
            // p75; enough retries that no item exhausts them.
            Kind::EgeeFt => FtConfig::from_legacy(8).with_default(FtPolicy {
                retry: RetryPolicy::Fixed { max_retries: 8 },
                timeout: TimeoutPolicy::Adaptive {
                    percentile: 0.75,
                    multiplier: 2.0,
                    min_samples: 3,
                    fallback: f64::INFINITY,
                },
                on_timeout: TimeoutAction::Resubmit,
            }),
            _ => FtConfig::from_legacy(config.max_job_retries),
        }
    }

    fn backend(&self, obs: &Obs) -> AnyBackend {
        let grid = match self.kind {
            Kind::BronzeCold => GridConfig::ideal(),
            Kind::EgeeFt => GridConfig::egee_2006(),
            Kind::StreamBounded => return AnyBackend::Virtual(VirtualBackend::new()),
        };
        AnyBackend::Sim(Box::new(SimBackend::with_obs(grid, self.seed, obs)))
    }

    fn uses_store(&self) -> bool {
        self.kind == Kind::BronzeCold
    }

    /// Parse (or assemble) the workflow and its inputs.
    fn load(&self) -> Result<(Workflow, Cow<'_, InputData>), MoteurError> {
        match &self.input {
            Input::Scufl { workflow, inputs } => trace::span("scufl.parse", || {
                let w = moteur_scufl::parse_workflow(workflow)
                    .map_err(|e| MoteurError::new(e.message))?;
                let i = moteur_scufl::parse_input_data(inputs)
                    .map_err(|e| MoteurError::new(e.message))?;
                Ok((w, Cow::Owned(i)))
            }),
            Input::Stream { data, .. } => Ok((stream_chain(self.faulty), Cow::Borrowed(data))),
        }
    }
}

/// The backends the one-shot workloads run on.
pub enum AnyBackend {
    Sim(Box<SimBackend>),
    Virtual(VirtualBackend),
}

impl AnyBackend {
    fn as_dyn(&mut self) -> &mut dyn Backend {
        match self {
            AnyBackend::Sim(b) => b.as_mut(),
            AnyBackend::Virtual(b) => b,
        }
    }

    pub fn events(&self) -> u64 {
        match self {
            AnyBackend::Sim(b) => b.sim().events_processed(),
            AnyBackend::Virtual(_) => 0,
        }
    }
}

fn double(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(x * 2.0))])
}

fn shift(inputs: &[Token]) -> Result<Vec<(String, DataValue)>, String> {
    let x = inputs[0].value.as_num().ok_or("not a number")?;
    Ok(vec![("out".into(), DataValue::from(x + 1.0))])
}

/// items → double → shift → out, two local services per item. The
/// faulty variant's `shift` rejects every item.
fn stream_chain(faulty: bool) -> Workflow {
    let mut wf = Workflow::new("stream-chain");
    let src = wf.add_source("items");
    let d = wf.add_service("double", &["in"], &["out"], ServiceBinding::local(double));
    let s = if faulty {
        let failing = |_: &[Token]| -> Result<Vec<(String, DataValue)>, String> {
            Err("deliberate failure".into())
        };
        wf.add_service("shift", &["in"], &["out"], ServiceBinding::local(failing))
    } else {
        wf.add_service("shift", &["in"], &["out"], ServiceBinding::local(shift))
    };
    let sink = wf.add_sink("out");
    wf.connect(src, "out", d, "in").expect("fresh ports");
    wf.connect(d, "out", s, "in").expect("fresh ports");
    wf.connect(s, "out", sink, "in").expect("fresh ports");
    wf
}

/// Drive a started instance to idle through the public step API, as
/// the one-shot event loop does. Aborts the instance on error.
pub fn drive<B: Backend + ?Sized>(
    inst: &mut WorkflowInstance,
    ctx: &mut EnactCtx<'_, B>,
) -> Result<(), MoteurError> {
    let r = drive_inner(inst, ctx);
    if r.is_err() {
        inst.abort(ctx);
    }
    r
}

fn drive_inner<B: Backend + ?Sized>(
    inst: &mut WorkflowInstance,
    ctx: &mut EnactCtx<'_, B>,
) -> Result<(), MoteurError> {
    loop {
        trace::span("enactor.pump", || inst.pump(ctx))?;
        if inst.inflight() == 0 {
            return Ok(());
        }
        match trace::span("enactor.next_wake", || inst.next_wake()) {
            None => {
                let c = ctx
                    .backend
                    .wait_next()
                    .ok_or_else(|| MoteurError::new("backend starved with jobs in flight"))?;
                trace::span("enactor.deliver", || inst.deliver(ctx, c))?;
            }
            Some(deadline) => match ctx.backend.wait_next_until(deadline) {
                WaitOutcome::Completion(c) => {
                    trace::span("enactor.deliver", || inst.deliver(ctx, c))?;
                }
                WaitOutcome::TimedOut => trace::span("enactor.on_timer", || inst.on_timer(ctx))?,
            },
        }
    }
}

/// What one enactment produced and cost.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub setup_s: f64,
    /// Setup plus the event loop and `finish`: what the user waits.
    pub request_s: f64,
    /// The event loop and `finish` only.
    pub timed_s: f64,
    pub timed_allocs: u64,
    pub peak_bytes: u64,
    pub jobs: usize,
    pub completed: usize,
    pub sink_counts: Vec<usize>,
    pub makespan_vs: f64,
    pub store: StoreStats,
    pub events: u64,
    pub suspended: u64,
    pub prof: Option<ProfReport>,
}

/// Enact `case` once. `traced` wraps the backend in [`Timed`], attaches
/// the profiler and the suspension counter, and times lint separately.
pub fn enact(case: &Case, traced: bool) -> Result<Outcome, Failure> {
    let live0 = alloc::reset_peak();
    let t0 = Instant::now();
    let (workflow, inputs) = case.load()?;
    let mut config = case.config();
    let ft = case.ft(&config);
    let suspended = Arc::new(AtomicU64::new(0));
    let (obs, prof) = if traced {
        let prof = Prof::enabled();
        let sink = trace::SuspendCounter(suspended.clone());
        (
            Obs::new(vec![Box::new(sink)]).with_prof(prof.clone()),
            Some(prof),
        )
    } else {
        (Obs::off(), None)
    };
    if traced {
        // Time lint on its own; `start` then skips the identical check.
        let findings = trace::span("lint.errors", || moteur::lint_errors(&workflow));
        if !findings.is_empty() {
            return Err(Failure::Error(format!("lint: {:?}", findings.diagnostics)));
        }
        config = config.without_preflight();
    }
    let mut backend = case.backend(&obs);
    let mut store = DataStore::in_memory(StoreConfig::default());
    let store_ref = case.uses_store().then_some(&mut store);
    let mut timed;
    let b: &mut dyn Backend = if traced {
        timed = Timed(backend.as_dyn());
        &mut timed
    } else {
        backend.as_dyn()
    };
    let mut ctx = EnactCtx {
        backend: b,
        store: store_ref,
    };
    let mut inst = trace::span("enactor.start", || {
        WorkflowInstance::start(&workflow, &inputs, config, ft, &mut ctx, obs.clone())
    })?;
    let t1 = Instant::now();
    let a1 = alloc::allocs();
    drive(&mut inst, &mut ctx)?;
    let completed = inst.completed();
    let now = ctx.backend.now();
    let result = trace::span("enactor.finish", || inst.finish(now))?;
    let t2 = Instant::now();
    let a2 = alloc::allocs();
    let peak_bytes = alloc::peak().saturating_sub(live0);
    check_result(case, &result)?;
    Ok(Outcome {
        setup_s: (t1 - t0).as_secs_f64(),
        request_s: (t2 - t0).as_secs_f64(),
        timed_s: (t2 - t1).as_secs_f64(),
        timed_allocs: a2 - a1,
        peak_bytes,
        jobs: result.jobs_submitted,
        completed,
        sink_counts: case.sinks.iter().map(|s| result.sink_count(s)).collect(),
        makespan_vs: result.makespan.as_secs_f64(),
        store: store.stats(),
        events: backend.events(),
        suspended: suspended.load(Ordering::Relaxed),
        prof: prof.map(|p| p.report()),
    })
}

/// Checks that need the full result: nothing quarantined, and every
/// value in the stream sink's retained sample is `2x + 1` for some
/// input `x`.
fn check_result(case: &Case, r: &WorkflowResult) -> Result<(), Failure> {
    if !r.quarantined.is_empty() {
        return Err(Failure::Check(format!(
            "{} items quarantined",
            r.quarantined.len()
        )));
    }
    if let Input::Stream { base, .. } = &case.input {
        for t in r.sink("out") {
            let v = t.value.as_num().unwrap_or(f64::NAN);
            let x = (v - 1.0) / 2.0 - base;
            if !(x >= 0.0 && x < case.n as f64 && x.fract() == 0.0) {
                return Err(Failure::Check(format!("stream sink holds {v}, not 2x+1")));
            }
        }
    }
    Ok(())
}

/// The same case through the one-shot entry point (`run`, `run_cached`
/// or `run_fault_tolerant`), for the traced-run equivalence check.
pub fn one_shot(case: &Case) -> Result<(Vec<usize>, usize, f64), Failure> {
    let (workflow, inputs) = case.load()?;
    let config = case.config();
    let mut backend = case.backend(&Obs::off());
    let r = match (&mut backend, case.kind) {
        (AnyBackend::Sim(b), Kind::BronzeCold) => {
            let b = b.as_mut();
            let mut store = DataStore::in_memory(StoreConfig::default());
            moteur::run_cached(&workflow, &inputs, config, b, Obs::off(), &mut store)?
        }
        (AnyBackend::Sim(b), _) => {
            let b = b.as_mut();
            let ft = case.ft(&config);
            moteur::run_fault_tolerant(&workflow, &inputs, config, &ft, b, Obs::off())?
        }
        (AnyBackend::Virtual(b), _) => moteur::run(&workflow, &inputs, config, b)?,
    };
    let sinks = case.sinks.iter().map(|s| r.sink_count(s)).collect();
    Ok((sinks, r.jobs_submitted, r.makespan.as_secs_f64()))
}

/// The output checks every enactment must pass.
pub fn check(case: &Case, o: &Outcome) -> Result<(), Failure> {
    let want = case.sink_items;
    for (sink, &got) in case.sinks.iter().zip(&o.sink_counts) {
        if got != want {
            return Err(Failure::Check(format!(
                "sink `{sink}` received {got} items, expected {want}"
            )));
        }
    }
    match case.kind {
        Kind::BronzeCold => {
            let row = case.prediction()?;
            if (o.makespan_vs - row.makespan).abs() > 1e-6 * row.makespan.max(1.0) {
                return Err(Failure::Check(format!(
                    "makespan {} vs, eq. 1-4 predict {} vs",
                    o.makespan_vs, row.makespan
                )));
            }
            if o.jobs as u64 != row.jobs {
                return Err(Failure::Check(format!(
                    "{} jobs submitted, predicted {}",
                    o.jobs, row.jobs
                )));
            }
            // A cold store misses on every invocation and never hits.
            if o.store.hits != 0 || o.store.misses != row.jobs {
                return Err(Failure::Check(format!(
                    "cold store saw {} hits / {} misses, expected 0 / {}",
                    o.store.hits, o.store.misses, row.jobs
                )));
            }
        }
        Kind::StreamBounded => {
            if o.jobs != 2 * case.n {
                return Err(Failure::Check(format!(
                    "{} jobs for {} items through two services",
                    o.jobs, case.n
                )));
            }
        }
        Kind::EgeeFt => {}
    }
    Ok(())
}

/// Fewest measured samples per run, whatever `--seconds` says.
const MIN_SAMPLES: usize = 8;

/// Input sets per run. Each seed expands into this many (seeds
/// `seed * 16 + k`), enacted in turn, so the work of a run does not
/// hinge on one draw.
pub const REALIZATIONS: u64 = 4;

impl Kind {
    /// Input sets of an untraced run. `egee-ft` takes 32: its work per
    /// enactment hangs on the stochastic grid (failures, resubmissions,
    /// background load), and the mean over 4 draws moved by 10-20%
    /// between seeds, over 16 draws by about 8%.
    fn realizations(self) -> u64 {
        match self {
            Kind::EgeeFt => 32,
            _ => REALIZATIONS,
        }
    }
}

fn realizations(kind: Kind, n: usize, seed: u64, count: u64) -> Vec<Case> {
    (0..count)
        .map(|k| Case::generate(kind, n, seed.wrapping_mul(16).wrapping_add(k)))
        .collect()
}

fn run_checked(case: &Case, traced: bool) -> Result<Outcome, Failure> {
    let o = enact(case, traced)?;
    check(case, &o)?;
    Ok(o)
}

/// The virtual-time result of one input set must repeat exactly.
fn same_result(a: &Outcome, b: &Outcome) -> Result<(), Failure> {
    if (&a.sink_counts, a.jobs, a.makespan_vs) == (&b.sink_counts, b.jobs, b.makespan_vs) {
        Ok(())
    } else {
        Err(Failure::Check(format!(
            "one input set gave two results: sinks {:?}/{:?}, jobs {}/{}, makespan {}/{} vs",
            a.sink_counts, b.sink_counts, a.jobs, b.jobs, a.makespan_vs, b.makespan_vs
        )))
    }
}

/// The untraced run: pairs of enactments at n/4 and n, cycling through
/// the realizations, until the budget is spent. One unmeasured warm-up.
pub fn timed_run(kind: Kind, seed: u64, budget: Duration) -> Report {
    let n = kind.size();
    timed_cases(
        &realizations(kind, n, seed, kind.realizations()),
        &realizations(kind, n / 4, seed, kind.realizations()),
        budget,
    )
}

/// [`timed_run`] over given input sets: `bigs[k]` and `smalls[k]` are
/// one realization at sizes n and n/4.
pub fn timed_cases(bigs: &[Case], smalls: &[Case], budget: Duration) -> Report {
    let mut report = Report::default();
    let n = bigs[0].n;
    if let Err(e) = run_checked(&smalls[0], false) {
        report.attempted += 1;
        report.fail(e);
        return report;
    }
    let mut first: Vec<Option<Outcome>> = vec![None; bigs.len()];
    let mut pairs: Vec<(Outcome, Outcome)> = Vec::new();
    // Host-speed factor taken right after each pair (see `calib`).
    let mut factors: Vec<f64> = Vec::new();
    calib::factor();
    let start = Instant::now();
    for k in (0..bigs.len()).cycle() {
        if pairs.len() >= MIN_SAMPLES && start.elapsed() >= budget || report.failed > 2 {
            break;
        }
        let s = report.record(run_checked(&smalls[k], false));
        let b = report.record(run_checked(&bigs[k], false));
        let (Some(s), Some(b)) = (s, b) else {
            continue;
        };
        match &first[k] {
            Some(f) => {
                if let Err(e) = same_result(f, &b) {
                    report.fail(e);
                }
            }
            None => first[k] = Some(b.clone()),
        }
        pairs.push((s, b));
        factors.push(calib::factor());
    }
    if pairs.is_empty() {
        return report;
    }
    let outs: Vec<&Outcome> = pairs.iter().map(|(_, b)| b).collect();
    let col = |f: &dyn Fn(&Outcome) -> f64| -> Vec<f64> { outs.iter().map(|o| f(o)).collect() };
    let jobs: f64 = col(&|o| o.jobs as f64).iter().sum();
    let samples = outs.len();
    // Each timing metric with every sample scaled by its host factor;
    // factors of 1 give the raw value printed beside it.
    let timings = |factors: &[f64]| {
        let t = |f: &dyn Fn(&Outcome) -> f64| -> Vec<f64> {
            outs.iter().zip(factors).map(|(o, k)| f(o) * k).collect()
        };
        let timed: f64 = t(&|o| o.timed_s).iter().sum();
        let request = t(&|o| o.request_s);
        let (tail, q) = stats::tail(&request);
        let metrics = [
            ("jobs_per_s", jobs / timed),
            ("items_per_s", (samples * n) as f64 / timed),
            (
                "workflows_per_s",
                samples as f64 / request.iter().sum::<f64>(),
            ),
            ("request_p50_ms", stats::median(&request) * 1e3),
            ("request_p99_ms", tail * 1e3),
            ("setup_s", stats::median(&t(&|o| o.setup_s))),
        ];
        (metrics, q)
    };
    let factors = calib::smooth(&factors);
    let (scaled, q) = timings(&factors);
    let (raw, _) = timings(&vec![1.0; samples]);
    for ((name, value), (_, raw)) in scaled.into_iter().zip(raw) {
        report.set(name, value);
        report.note(name, format!("raw {raw:.6}"));
    }
    report.note(
        "request_p50_ms",
        format!(
            "{samples} enactments of {n} items over {} input sets; raw {:.3} ms, host factor {:.3}",
            bigs.len(),
            raw[3].1,
            stats::median(&factors),
        ),
    );
    report.note(
        "request_p99_ms",
        format!("p{:.0} of {samples}; raw {:.3} ms", q * 100.0, raw[4].1),
    );
    report.set(
        "peak_mb",
        stats::median(&col(&|o| o.peak_bytes as f64)) / 1e6,
    );
    report.set(
        "allocs_per_job",
        col(&|o| o.timed_allocs as f64).iter().sum::<f64>() / jobs,
    );
    let exps: Vec<f64> = pairs
        .iter()
        .map(|(s, b)| (b.request_s / s.request_s).ln() / 4f64.ln())
        .collect();
    report.set("scaling_exp", stats::median(&exps));
    report.note("scaling_exp", format!("n = {} vs {}", n, smalls[0].n));
    report.set("makespan_vs", stats::median(&col(&|o| o.makespan_vs)));
    report
}

/// Per-layer figures of one traced enactment.
fn layers(
    o: &Outcome,
    spans: &[trace::Span],
    b: trace::BackendCounts,
) -> BTreeMap<&'static str, f64> {
    let agg = trace::aggregate(spans);
    let get = |name: &str| agg.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let jobs = (o.jobs as f64).max(1.0);
    let enactor = [
        "enactor.start",
        "enactor.pump",
        "enactor.deliver",
        "enactor.on_timer",
        "enactor.next_wake",
        "enactor.finish",
    ];
    let enactor_self_ns: u64 = enactor.iter().map(|n| get(n).self_ns).sum();
    let enactor_self_allocs: u64 = enactor.iter().map(|n| get(n).self_allocs).sum();
    let backend_ns = get("backend.submit").total_ns
        + get("backend.wait").total_ns
        + get("backend.cancel").total_ns;
    let mut m = BTreeMap::new();
    m.insert("scufl.parse_ms", ms(get("scufl.parse").total_ns));
    m.insert("lint.errors_ms", ms(get("lint.errors").total_ns));
    m.insert("enactor.start_ms", ms(get("enactor.start").total_ns));
    m.insert(
        "enactor.pump_us_per_job",
        us(get("enactor.pump").self_ns) / jobs,
    );
    m.insert(
        "enactor.deliver_us_per_job",
        us(get("enactor.deliver").self_ns) / jobs,
    );
    m.insert("enactor.allocs_per_job", enactor_self_allocs as f64 / jobs);
    m.insert(
        "enactor.next_wake_calls",
        get("enactor.next_wake").calls as f64,
    );
    m.insert(
        "enactor.next_wake_us",
        us(get("enactor.next_wake").total_ns),
    );
    m.insert(
        "enactor.on_timer_calls",
        get("enactor.on_timer").calls as f64,
    );
    m.insert("enactor.on_timer_us", us(get("enactor.on_timer").total_ns));
    m.insert("backend.submits", b.submits as f64);
    m.insert("backend.submit_us", us(get("backend.submit").total_ns));
    m.insert("backend.completions", b.completions as f64);
    m.insert("backend.wait_us", us(get("backend.wait").total_ns));
    m.insert("backend.timeouts", b.timeouts as f64);
    m.insert("backend.cancels", b.cancels as f64);
    m.insert("backend.inflight_max", b.inflight_max as f64);
    m.insert(
        "backend.attempts_per_job",
        b.submits as f64 / (o.completed as f64).max(1.0),
    );
    m.insert("gridsim.events", o.events as f64);
    m.insert("gridsim.events_per_job", o.events as f64 / jobs);
    m.insert(
        "gridsim.events_per_s",
        if backend_ns > 0 {
            o.events as f64 / (backend_ns as f64 / 1e9)
        } else {
            0.0
        },
    );
    m.insert("store.hits", o.store.hits as f64);
    m.insert("store.misses", o.store.misses as f64);
    m.insert("store.hit_ratio", o.store.hit_ratio());
    m.insert("store.entries", o.store.entries as f64);
    m.insert("store.bytes", o.store.bytes as f64);
    m.insert("trace.port_suspended", o.suspended as f64);
    m.insert(
        "enactor.self_frac",
        enactor_self_ns as f64 / (o.request_s * 1e9),
    );
    m.insert("makespan_vs", o.makespan_vs);
    if let Some(p) = &o.prof {
        insert_prof(&mut m, p);
    }
    m
}

/// The `moteur-prof` counters the per-layer table names.
pub fn insert_prof(m: &mut BTreeMap<&'static str, f64>, p: &ProfReport) {
    use moteur::Subsystem as S;
    let stat = |s: S| p.subsystems.iter().find(|st| st.subsystem == s).copied();
    let fields: [(S, &'static str, Option<&'static str>, &'static str); 6] = [
        (
            S::Fire,
            "prof.fire.calls",
            Some("prof.fire.allocs"),
            "prof.fire.wall_ms",
        ),
        (
            S::PickCe,
            "prof.pick_ce.calls",
            None,
            "prof.pick_ce.wall_ms",
        ),
        (
            S::SimStep,
            "prof.sim_step.calls",
            None,
            "prof.sim_step.wall_ms",
        ),
        (
            S::ProvenanceKey,
            "prof.provenance_key.calls",
            Some("prof.provenance_key.allocs"),
            "prof.provenance_key.wall_ms",
        ),
        (
            S::StoreIo,
            "prof.store_io.calls",
            Some("prof.store_io.allocs"),
            "prof.store_io.wall_ms",
        ),
        (S::Sinks, "prof.sinks.calls", None, "prof.sinks.wall_ms"),
    ];
    for (s, calls, allocs, wall) in fields {
        let st = stat(s);
        m.insert(calls, st.map_or(0.0, |x| x.calls as f64));
        if let Some(a) = allocs {
            m.insert(a, st.map_or(0.0, |x| x.allocs as f64));
        }
        m.insert(wall, st.map_or(0.0, |x| x.wall_nanos as f64 / 1e6));
    }
}

/// The traced run: untraced and traced enactments of each realization
/// alternate until the budget is spent. Every traced enactment must
/// reproduce the untraced one exactly, and the step loop must match
/// the one-shot entry point.
pub fn traced_run(kind: Kind, seed: u64, budget: Duration) -> Report {
    // Per-layer figures carry no bound, so the traced run keeps to the
    // first input sets and can check each of them within the budget.
    traced_cases(
        &realizations(kind, kind.size(), seed, REALIZATIONS),
        seed,
        budget,
    )
}

/// [`traced_run`] over given input sets; spans go to a file named
/// after the workload and `seed`.
pub fn traced_cases(cases: &[Case], seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let kind = cases[0].kind;
    let references: Vec<_> = cases.iter().map(|c| report.record(one_shot(c))).collect();
    let start = Instant::now();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut samples: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last_spans = Vec::new();
    for k in (0..cases.len()).cycle() {
        if samples.len() >= cases.len() && start.elapsed() >= budget || report.failed > 2 {
            break;
        }
        let Some(u) = report.record(run_checked(&cases[k], false)) else {
            continue;
        };
        trace::begin();
        trace::set_trace(samples.len() as u32);
        let t = run_checked(&cases[k], true);
        let (spans, counts) = trace::end();
        let Some(t) = report.record(t) else {
            continue;
        };
        if let Err(e) = same_result(&u, &t) {
            report.fail(Failure::Check(format!("traced run differs: {e}")));
        }
        if let Some((sinks, jobs, makespan)) = &references[k] {
            if (sinks, *jobs, *makespan) != (&u.sink_counts, u.jobs, u.makespan_vs) {
                report.fail(Failure::Check(format!(
                    "step loop differs from the one-shot entry point: sinks {sinks:?}/{:?}, jobs {jobs}/{}, makespan {makespan}/{}",
                    u.sink_counts, u.jobs, u.makespan_vs
                )));
            }
        }
        plain_s.push(u.request_s);
        traced_s.push(t.request_s);
        samples.push(layers(&t, &spans, counts));
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
    if !traced_s.is_empty() {
        report.set(
            "obs.trace_overhead",
            stats::median(&traced_s) / stats::median(&plain_s) - 1.0,
        );
        report.note(
            "obs.trace_overhead",
            format!("{} traced / untraced pairs", traced_s.len()),
        );
    }
    let path = std::path::PathBuf::from(crate::SPAN_DIR).join(format!(
        "spans-{}-{seed}.jsonl",
        crate::WORKLOADS[kind as usize]
    ));
    if let Err(e) = trace::write_spans(&path, &last_spans) {
        report.fail(Failure::Error(format!("writing {}: {e}", path.display())));
    }
    report
}
