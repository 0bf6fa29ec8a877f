//! The repository benchmark. It drives MOTEUR's public API from one
//! thread, on one of five workloads, and prints every metric by name
//! with its unit; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! moteur-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced step-API loop and reports the
//! per-layer metrics. Any failed output check makes the exit status 1.
//! See README.md for the workloads, metrics and the layer mapping.

mod alloc;
mod calib;
mod daemon;
mod gen;
mod oneshot;
mod stats;
mod trace;

use moteur::MoteurError;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::BenchAlloc = alloc::BenchAlloc;

/// The workloads, by the names later changes refer to. `daemon-mixed`
/// fails its store check until provenance keys identify the source
/// data (see README.md), so `BENCHMARK.json` does not list it.
pub const WORKLOADS: [&str; 5] = [
    "bronze-cold",
    "stream-bounded",
    "egee-ft",
    "daemon-mixed",
    "daemon-nocache",
];

/// Where the traced run writes its spans, relative to the working
/// directory.
pub const SPAN_DIR: &str = ".perfbench";

/// End-to-end metrics reported with tracing off, each with its unit.
/// `makespan_vs` and `error_rate` are printed too, but can be 0, so the
/// result line carries them with the per-layer metrics.
pub const END_TO_END: [(&str, &str); 9] = [
    ("jobs_per_s", "1/s"),
    ("items_per_s", "1/s"),
    ("workflows_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_mb", "MB"),
    ("allocs_per_job", "count"),
    ("scaling_exp", "ratio"),
];

/// Per-layer metrics reported by the traced run, each with its unit.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("scufl.parse_ms", "ms"),
    ("lint.errors_ms", "ms"),
    ("enactor.start_ms", "ms"),
    ("enactor.pump_us_per_job", "us"),
    ("enactor.deliver_us_per_job", "us"),
    ("enactor.allocs_per_job", "count"),
    ("prof.fire.calls", "count"),
    ("prof.fire.allocs", "count"),
    ("prof.fire.wall_ms", "ms"),
    ("enactor.next_wake_calls", "count"),
    ("enactor.next_wake_us", "us"),
    ("enactor.on_timer_calls", "count"),
    ("enactor.on_timer_us", "us"),
    ("backend.submits", "count"),
    ("backend.submit_us", "us"),
    ("backend.completions", "count"),
    ("backend.wait_us", "us"),
    ("backend.timeouts", "count"),
    ("backend.cancels", "count"),
    ("backend.inflight_max", "count"),
    ("backend.attempts_per_job", "ratio"),
    ("gridsim.events", "count"),
    ("gridsim.events_per_job", "ratio"),
    ("gridsim.events_per_s", "1/s"),
    ("prof.pick_ce.calls", "count"),
    ("prof.pick_ce.wall_ms", "ms"),
    ("prof.sim_step.calls", "count"),
    ("prof.sim_step.wall_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.entries", "count"),
    ("store.bytes", "bytes"),
    ("prof.provenance_key.calls", "count"),
    ("prof.provenance_key.allocs", "count"),
    ("prof.provenance_key.wall_ms", "ms"),
    ("prof.store_io.calls", "count"),
    ("prof.store_io.allocs", "count"),
    ("prof.store_io.wall_ms", "ms"),
    ("protocol.parse_us", "us"),
    ("protocol.apply_us", "us"),
    ("daemon.steps", "count"),
    ("daemon.step_us", "us"),
    ("daemon.ttfj_p99_vs", "vs"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.port_suspended", "count"),
    ("prof.sinks.calls", "count"),
    ("prof.sinks.wall_ms", "ms"),
    ("enactor.self_frac", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("makespan_vs", "vs"),
    ("error_rate", "ratio"),
];

/// Why an enactment or request did not count as a success.
#[derive(Debug)]
pub enum Failure {
    /// The program returned an error.
    Error(String),
    /// The program finished but an output check failed.
    Check(String),
}

impl From<MoteurError> for Failure {
    fn from(e: MoteurError) -> Self {
        Failure::Error(e.message().to_string())
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Error(m) => write!(f, "error: {m}"),
            Failure::Check(m) => write!(f, "check failed: {m}"),
        }
    }
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure message of each kind (messages that differ
    /// only in their numbers are one kind), for the human-readable
    /// output.
    pub problems: Vec<String>,
    /// Metric name → value; names come from [`END_TO_END`] and
    /// [`PER_LAYER`].
    pub values: BTreeMap<&'static str, f64>,
    /// Metric name → how it was computed (sample counts, percentiles).
    pub notes: BTreeMap<&'static str, String>,
}

impl Report {
    /// Count one attempt and its outcome.
    pub fn record<T>(&mut self, r: Result<T, Failure>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    pub fn fail(&mut self, e: Failure) {
        self.fail_n(e, 1);
    }

    /// Count `n` failures of one kind under a single message.
    pub fn fail_n(&mut self, e: Failure, n: u64) {
        self.failed += n;
        let message = e.to_string();
        let kind = |m: &str| -> String { m.chars().filter(|c| !c.is_ascii_digit()).collect() };
        if self.problems.len() < 32 && !self.problems.iter().any(|p| kind(p) == kind(&message)) {
            self.problems.push(message);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.insert(name, note);
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Run one workload; the report holds exactly the metrics the mode owes.
pub fn run(args: &Args) -> Report {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = match args.workload.as_str() {
        "bronze-cold" => oneshot_run(oneshot::Kind::BronzeCold, args, budget),
        "stream-bounded" => oneshot_run(oneshot::Kind::StreamBounded, args, budget),
        "egee-ft" => oneshot_run(oneshot::Kind::EgeeFt, args, budget),
        "daemon-mixed" => daemon::run(daemon::Kind::Mixed, args.seed, budget, args.trace),
        "daemon-nocache" => daemon::run(daemon::Kind::NoCache, args.seed, budget, args.trace),
        other => unreachable!("workload `{other}` passed argument validation"),
    };
    let error_rate = report.error_rate();
    report.set("error_rate", error_rate);
    report
}

fn oneshot_run(kind: oneshot::Kind, args: &Args, budget: Duration) -> Report {
    if args.trace {
        oneshot::traced_run(kind, args.seed, budget)
    } else {
        oneshot::timed_run(kind, args.seed, budget)
    }
}

/// Host identity recorded with every result, to tell host variance
/// from regression.
fn fingerprint(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        r#"{{"host":{{"cores":{cores},"rustc":"{}","profile":"{}","seed":{},"workload":"{}","seconds":{},"trace":{}}}}}"#,
        env!("PERFBENCH_RUSTC"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace),
    )
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The metrics one mode prints in its result line, with units.
pub fn owed(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The human-readable lines, then the result line.
pub fn render(args: &Args, report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&fingerprint(args));
    out.push('\n');
    for p in &report.problems {
        out.push_str(&format!("FAILED {p}\n"));
    }
    for (name, value) in &report.values {
        let note = report
            .notes
            .get(name)
            .map_or(String::new(), |n| format!("  ({n})"));
        out.push_str(&format!(
            "{:<28} {:>16} {}{note}\n",
            name,
            format!("{value:.6}"),
            unit_of(name)
        ));
    }
    let metrics: Vec<String> = owed(args.trace)
        .iter()
        .map(|(name, unit)| {
            let v = report.values.get(name).copied().unwrap_or(0.0);
            format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, number(v))
        })
        .collect();
    out.push_str(&format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(",")
    ));
    out.push('\n');
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("moteur-perfbench: {e}");
            eprintln!(
                "usage: moteur-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let report = run(&args);
    print!("{}", render(&args, &report));
    eprintln!(
        "moteur-perfbench: {} in {:.1} s",
        args.workload,
        started.elapsed().as_secs_f64()
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneshot::{Case, Kind};

    const KINDS: [Kind; 3] = [Kind::BronzeCold, Kind::StreamBounded, Kind::EgeeFt];
    const TINY: Duration = Duration::from_millis(20);

    fn tiny(kind: Kind, n: usize) -> Vec<Case> {
        (0..2).map(|k| Case::generate(kind, n, 7 + k)).collect()
    }

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 7,
            seconds: TINY.as_secs_f64(),
            trace,
        }
    }

    /// Every owed metric was computed, nothing unnamed was, and the
    /// result line carries exactly the owed names.
    fn assert_emits_exactly(report: &Report, a: &Args) {
        let known: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in report.values.keys() {
            assert!(known.contains(name), "unnamed metric {name}");
        }
        for (name, _) in owed(a.trace) {
            assert!(report.values.contains_key(name), "{name} not computed");
        }
        let out = render(a, report);
        let last = out.lines().last().expect("a result line");
        assert!(last.starts_with(r#"{"correct":"#), "{last}");
        assert_eq!(last.matches(r#"{"value":"#).count(), owed(a.trace).len());
        for (name, unit) in owed(a.trace) {
            let field = format!(r#""{name}":{{"value":"#);
            assert!(last.contains(&field), "{name} missing from {last}");
            assert!(last.contains(&format!(r#""unit":"{unit}""#)));
        }
    }

    #[test]
    fn one_shot_runs_pass_their_checks_and_emit_the_named_metrics() {
        for (kind, name) in KINDS.iter().zip(WORKLOADS) {
            let n = if *kind == Kind::StreamBounded { 400 } else { 8 };
            let report = oneshot::timed_cases(&tiny(*kind, n), &tiny(*kind, n / 4), TINY);
            assert!(report.correct(), "{name}: {:?}", report.problems);
            assert_emits_exactly(&report, &args(name, false));

            let report = oneshot::traced_cases(&tiny(*kind, n), 7, TINY);
            assert!(report.correct(), "{name} traced: {:?}", report.problems);
            assert_emits_exactly(&report, &args(name, true));
        }
    }

    /// `daemon-mixed` fails its store check until provenance keys
    /// identify the source data, so only `daemon-nocache` must pass.
    #[test]
    fn daemon_runs_emit_the_named_metrics() {
        for kind in [daemon::Kind::Mixed, daemon::Kind::NoCache] {
            let must_pass = kind == daemon::Kind::NoCache;
            let traffic = [daemon::traffic(kind, 7, 16)];
            let report = daemon::timed_windows(&traffic, TINY);
            assert!(report.attempted > 0);
            assert!(!must_pass || report.correct(), "{:?}", report.problems);
            assert_emits_exactly(&report, &args(kind.name(), false));
            let report = daemon::traced_windows(&traffic, 7, TINY);
            assert!(report.attempted > 0);
            assert!(!must_pass || report.correct(), "{:?}", report.problems);
            assert_emits_exactly(&report, &args(kind.name(), true));
        }
    }

    #[test]
    fn a_failing_local_service_raises_the_error_rate() {
        let faulty = |n| {
            let mut cases = tiny(Kind::StreamBounded, n);
            for c in &mut cases {
                c.faulty = true;
            }
            cases
        };
        let mut report = oneshot::timed_cases(&faulty(40), &faulty(10), TINY);
        report.set("error_rate", report.error_rate());
        assert!(!report.correct());
        assert!(report.values["error_rate"] > 0.0);
    }

    #[test]
    fn benchmark_json_names_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches(r#""why":"#).count();
        assert!(listed >= 2);
        let named = WORKLOADS
            .iter()
            .filter(|w| json.contains(&format!(r#""name": "{w}", "why":"#)))
            .count();
        assert_eq!(
            named, listed,
            "every listed workload is one this binary runs"
        );
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload egee-ft --seed 3 --seconds 10 --trace 1")).is_ok());
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload egee-ft --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload egee-ft --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload egee-ft --seed 3 --seconds 10 --trace")).is_err());
    }
}
