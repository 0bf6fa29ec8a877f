//! `moteur-bench` — the paper's tables and figures, the perf
//! observatory's campaigns and the regression gate, as subcommands of
//! one binary. Run it without arguments for the usage.
//!
//! Every campaign is one row of [`CAMPAIGNS`]: its subcommand, the BENCH
//! document it writes into `--out-dir` (default: the current
//! directory), a run function from the parsed flags to (human text,
//! JSON), and the document's single pass check from
//! [`moteur_bench::gate`]. The subcommand exits on that check applied
//! to the JSON it just wrote; `gate` applies the same checks to the
//! documents it finds, and compares the summary (and scale) documents
//! against their committed baselines. Setting
//! `MOTEUR_BENCH_UPDATE_BASELINE=1` makes `gate` rewrite those
//! baselines from the current documents instead (use after an
//! intentional perf change). The paper's figures ([`FIGURES`]) print
//! text only.

use moteur_bench::daemon::{render_daemon, render_daemon_json, run_daemon_campaign};
use moteur_bench::faults::{render_faults, render_faults_json, run_faults, FaultsSpec};
use moteur_bench::figures;
use moteur_bench::gate::{
    check_daemon, check_faults, check_gate, check_plan, check_scale, check_stream, check_summary,
    check_timeline, check_warm, render_checks, GateCheck, DEFAULT_THRESHOLD,
};
use moteur_bench::plan::{render_plan_bench, render_plan_bench_json, run_plan_bench, PlanSpec};
use moteur_bench::scale::{render_scale, render_scale_json, run_scale, ScaleSpec};
use moteur_bench::stream::{render_stream, render_stream_json, run_stream, StreamSpec};
use moteur_bench::sweep::{
    render_points_json, render_summary, render_summary_json, run_sweep, SweepGrid, SweepSpec,
    SweepWorkflow,
};
use moteur_bench::timeline::{render_timeline, render_timeline_json, run_timeline, TimelineSpec};
use moteur_bench::warm::{render_warm, render_warm_json, run_warm_pair};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// The scale campaign reports real allocation counts and the live-heap
/// high-water mark, so this binary routes every allocation through the
/// profiler's counting wrapper around the system allocator.
#[global_allocator]
static ALLOC: moteur_prof::alloc::CountingAlloc = moteur_prof::alloc::CountingAlloc;

/// Why a subcommand stopped.
enum Error {
    /// A malformed command line (exit 2).
    Usage(String),
    /// The work itself failed (exit 1).
    Failed(String),
}

impl<E: std::fmt::Display> From<E> for Error {
    fn from(e: E) -> Self {
        Error::Failed(e.to_string())
    }
}

/// The arguments after the subcommand: `--flag VALUE` pairs and bare
/// switches. A flag given without a value counts as absent.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn str(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// `flag`'s value, or `default` when absent; a value that does not
    /// parse or fails `valid` is a usage error saying it `needs` more.
    fn parse<T: FromStr>(
        &self,
        flag: &str,
        default: T,
        needs: &str,
        valid: fn(&T) -> bool,
    ) -> Result<T, Error> {
        let Some(text) = self.str(flag) else {
            return Ok(default);
        };
        match text.parse() {
            Ok(v) if valid(&v) => Ok(v),
            _ => Err(Error::Usage(format!("{flag} needs {needs}"))),
        }
    }

    fn positive<T: FromStr + PartialOrd + Default>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, Error> {
        self.parse(flag, default, "a positive integer", |n| *n > T::default())
    }

    fn seed(&self, default: u64) -> Result<u64, Error> {
        self.parse("--seed", default, "an integer", |_| true)
    }

    fn out_dir(&self) -> &Path {
        Path::new(self.str("--out-dir").unwrap_or("."))
    }
}

/// One campaign: a subcommand that writes one BENCH document and
/// passes or fails on that document's check.
struct Campaign {
    name: &'static str,
    synopsis: &'static str,
    /// The document, written into `--out-dir`.
    file: &'static str,
    /// The `gate` flag that names this document, when it has one; the
    /// gate otherwise reads `file` from the current directory if present.
    gate_flag: Option<&'static str>,
    run: fn(&Flags) -> Result<(String, String), Error>,
    check: fn(&str) -> Result<Vec<GateCheck>, String>,
}

/// Every campaign, in the order `gate` reports them. The first row's
/// summary is the gate's mandatory document.
const CAMPAIGNS: &[Campaign] = &[
    Campaign {
        name: "campaign",
        synopsis: "[--sweep ndata=1..6] [--seed N] [--workflow chain|bronze]\n\
                   [--grid ideal|egee] [--overhead SECS] [--tolerance FRAC] [--out-dir DIR]",
        file: "BENCH_summary.json",
        gate_flag: Some("--summary"),
        run: campaign,
        check: check_summary,
    },
    Campaign {
        name: "faults",
        synopsis: "[--ndata N] [--seed N] [--repeats R] [--failure-probability P]\n\
                   [--out-dir DIR]",
        file: "BENCH_faults.json",
        gate_flag: Some("--faults"),
        run: faults,
        check: check_faults,
    },
    Campaign {
        name: "timeline",
        synopsis: "[--ideal-ndata N] [--loaded-ndata N] [--seed N] [--out-dir DIR]",
        file: "BENCH_timeline.json",
        gate_flag: Some("--timeline"),
        run: timeline,
        check: check_timeline,
    },
    Campaign {
        name: "plan",
        synopsis: "[--ndata N] [--seed N] [--out-dir DIR]",
        file: "BENCH_plan.json",
        gate_flag: Some("--plan"),
        run: plan,
        check: check_plan,
    },
    Campaign {
        name: "daemon",
        synopsis: "[--workflows N] [--tenants N] [--ndata N] [--out-dir DIR]",
        file: "BENCH_daemon.json",
        gate_flag: Some("--daemon"),
        run: daemon,
        check: check_daemon,
    },
    Campaign {
        name: "scale",
        synopsis: "[--events N] [--jobs N] [--seed N] [--out-dir DIR]",
        file: "BENCH_scale.json",
        gate_flag: Some("--scale"),
        run: scale,
        check: |json| check_scale(json, None, DEFAULT_THRESHOLD),
    },
    Campaign {
        name: "stream",
        synopsis: "[--items N] [--capacity N] [--eager-items N] [--seed N] [--out-dir DIR]",
        file: "BENCH_stream.json",
        gate_flag: Some("--stream"),
        run: stream,
        check: check_stream,
    },
    Campaign {
        name: "warm",
        synopsis: "[--ndata N] [--seed N] [--out-dir DIR]",
        file: "BENCH_warm.json",
        gate_flag: None,
        run: warm,
        check: check_warm,
    },
];

const GATE_SYNOPSIS: &str = "[--summary PATH] [--baseline PATH] [--threshold FRAC]\n\
                             [--faults PATH] [--timeline PATH] [--plan PATH] [--scale PATH]\n\
                             [--scale-baseline PATH] [--daemon PATH] [--stream PATH]";

/// One of the paper's tables or figures: a subcommand that prints text.
struct Figure {
    name: &'static str,
    synopsis: &'static str,
    run: fn(&Flags) -> Result<String, Error>,
}

/// `--quick`, `--seed` (default 2006) and `--repeats` of the
/// campaign-driven figures.
fn figure_args(f: &Flags, repeats: usize) -> Result<(bool, u64, usize), Error> {
    Ok((
        f.has("--quick"),
        f.seed(2006)?,
        f.positive("--repeats", repeats)?,
    ))
}

const FIGURES: &[Figure] = &[
    Figure {
        name: "table1",
        synopsis: "[--quick] [--seed N] [--repeats N]",
        run: |f| figure_args(f, 1).map(|(q, seed, n)| figures::table1(q, seed, n)),
    },
    Figure {
        name: "table2",
        synopsis: "[--quick] [--seed N] [--repeats N]",
        run: |f| figure_args(f, 3).map(|(q, seed, n)| figures::table2(q, seed, n)),
    },
    Figure {
        name: "fig10",
        synopsis: "[--quick] [--seed N]",
        run: |f| Ok(figures::fig10(f.has("--quick"), f.seed(2006)?)),
    },
    Figure {
        name: "diagrams",
        synopsis: "",
        run: |_| Ok(figures::diagrams()),
    },
    Figure {
        name: "theory",
        synopsis: "",
        run: |_| Ok(figures::theory()),
    },
    Figure {
        name: "speedups",
        synopsis: "[--quick] [--seed N] [--repeats N]",
        run: |f| figure_args(f, 3).map(|(q, seed, n)| figures::speedups(q, seed, n)),
    },
    Figure {
        name: "ablation",
        synopsis: "[--quick]",
        run: |f| Ok(figures::ablation(f.has("--quick"))),
    },
    Figure {
        name: "granularity",
        synopsis: "",
        run: |_| Ok(figures::granularity()),
    },
];

fn usage() -> ExitCode {
    let rows = CAMPAIGNS
        .iter()
        .map(|c| (c.name, c.synopsis))
        .chain([("gate", GATE_SYNOPSIS)])
        .chain(FIGURES.iter().map(|f| (f.name, f.synopsis)));
    for (i, (name, synopsis)) in rows.enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        let synopsis = synopsis.replace('\n', "\n                    ");
        let line = format!("{lead} moteur-bench {name} {synopsis}");
        eprintln!("{}", line.trim_end());
    }
    eprintln!();
    eprintln!("env: MOTEUR_BENCH_UPDATE_BASELINE=1  rewrite the gate baselines and pass");
    ExitCode::from(2)
}

fn write(path: &Path, json: &str) -> Result<(), String> {
    std::fs::write(path, format!("{json}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Run one campaign, write its document with the check's verdict as a
/// trailing `"ok"`, and exit on that verdict.
fn run_campaign(c: &Campaign, flags: &Flags) -> Result<ExitCode, Error> {
    eprintln!("moteur-bench {}: running...", c.name);
    let (text, json) = (c.run)(flags)?;
    print!("{text}");
    let checks = (c.check)(&json)?;
    let ok = checks.iter().all(|check| check.ok);
    let path = flags.out_dir().join(c.file);
    let stamped = format!("{},\"ok\":{ok}}}", json.strip_suffix('}').unwrap_or(&json));
    write(&path, &stamped)?;
    println!("wrote {}", path.display());
    print!("{}", render_checks(&format!("{} checks", c.name), &checks));
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("moteur-bench: {} failed its check (see above)", c.name);
        ExitCode::FAILURE
    })
}

fn campaign(flags: &Flags) -> Result<(String, String), Error> {
    let sweep = flags.str("--sweep").unwrap_or("ndata=1..6");
    let sizes = parse_sweep(sweep).ok_or_else(|| {
        Error::Usage("--sweep needs `ndata=LO..HI` or `ndata=A,B,C` (all > 0)".into())
    })?;
    let mut spec = SweepSpec::new(sizes);
    spec.seed = flags.seed(spec.seed)?;
    if let Some(s) = flags.str("--workflow") {
        spec.workflow = SweepWorkflow::parse(s)
            .ok_or_else(|| Error::Usage(format!("unknown workflow `{s}` (chain|bronze)")))?;
    }
    if let Some(s) = flags.str("--grid") {
        spec.grid = SweepGrid::parse(s)
            .ok_or_else(|| Error::Usage(format!("unknown grid `{s}` (ideal|egee)")))?;
    }
    spec.overhead = flags.parse("--overhead", spec.overhead, "a number (seconds)", |_| true)?;
    spec.tolerance = flags.parse(
        "--tolerance",
        spec.tolerance,
        "a fraction (e.g. 0.05)",
        |_| true,
    )?;
    let (points, summary) = run_sweep(&spec)?;
    let point_path = flags.out_dir().join("BENCH_point.json");
    write(&point_path, &render_points_json(&spec, &points))?;
    let text = format!(
        "{}wrote {} ({} points)\n",
        render_summary(&summary),
        point_path.display(),
        points.len()
    );
    Ok((text, render_summary_json(&summary)))
}

/// Parse `ndata=1..6` / `1..6` / `ndata=2,4,8` into sizes.
fn parse_sweep(spec: &str) -> Option<Vec<usize>> {
    let spec = spec.strip_prefix("ndata=").unwrap_or(spec);
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: usize = lo.parse().ok()?;
        let hi: usize = hi.parse().ok()?;
        if lo == 0 || hi < lo {
            return None;
        }
        return Some((lo..=hi).collect());
    }
    let sizes: Vec<usize> = spec
        .split(',')
        .map(|s| s.trim().parse().ok())
        .collect::<Option<_>>()?;
    (!sizes.is_empty() && !sizes.contains(&0)).then_some(sizes)
}

fn warm(flags: &Flags) -> Result<(String, String), Error> {
    let n_data = flags.positive("--ndata", 6)?;
    let seed = flags.seed(2006)?;
    let report = run_warm_pair(n_data, seed)?;
    Ok((render_warm(&report), render_warm_json(&report)))
}

fn faults(flags: &Flags) -> Result<(String, String), Error> {
    let mut spec = FaultsSpec::default();
    spec.n_data = flags.positive("--ndata", spec.n_data)?;
    spec.seed = flags.seed(spec.seed)?;
    spec.repeats = flags.positive("--repeats", spec.repeats)?;
    spec.failure_probability = flags.parse(
        "--failure-probability",
        spec.failure_probability,
        "a fraction in [0, 1]",
        |p| (0.0..=1.0).contains(p),
    )?;
    let report = run_faults(&spec)?;
    Ok((render_faults(&report), render_faults_json(&report)))
}

fn timeline(flags: &Flags) -> Result<(String, String), Error> {
    let mut spec = TimelineSpec::default();
    spec.ideal_n_data = flags.positive("--ideal-ndata", spec.ideal_n_data)?;
    spec.loaded_n_data = flags.positive("--loaded-ndata", spec.loaded_n_data)?;
    spec.seed = flags.seed(spec.seed)?;
    let report = run_timeline(&spec)?;
    Ok((render_timeline(&report), render_timeline_json(&report)))
}

fn plan(flags: &Flags) -> Result<(String, String), Error> {
    let mut spec = PlanSpec::default();
    spec.n_data = flags.positive("--ndata", spec.n_data)?;
    spec.seed = flags.seed(spec.seed)?;
    let report = run_plan_bench(&spec)?;
    Ok((render_plan_bench(&report), render_plan_bench_json(&report)))
}

fn scale(flags: &Flags) -> Result<(String, String), Error> {
    let mut spec = ScaleSpec::default();
    spec.target_events = flags.positive("--events", spec.target_events)?;
    spec.enact_jobs = flags.positive("--jobs", spec.enact_jobs)?;
    spec.seed = flags.seed(spec.seed)?;
    let report = run_scale(&spec)?;
    Ok((render_scale(&report), render_scale_json(&report)))
}

fn stream(flags: &Flags) -> Result<(String, String), Error> {
    let mut spec = StreamSpec::default();
    spec.n_items = flags.positive("--items", spec.n_items)?;
    spec.port_capacity = flags.positive("--capacity", spec.port_capacity)?;
    spec.eager_items = flags.positive("--eager-items", spec.eager_items)?;
    spec.seed = flags.seed(spec.seed)?;
    let report = run_stream(&spec)?;
    Ok((render_stream(&report), render_stream_json(&report)))
}

fn daemon(flags: &Flags) -> Result<(String, String), Error> {
    let n_workflows = flags.positive("--workflows", 100)?;
    let n_tenants = flags.positive("--tenants", 4)?;
    let n_data = flags.positive("--ndata", 2)?;
    let report = run_daemon_campaign(n_workflows, n_tenants, n_data)?;
    Ok((render_daemon(&report), render_daemon_json(&report)))
}

/// Compare the summary against its baseline and fold in the check of
/// every other campaign document that is around: named by its flag, or
/// found under its default name in the current directory.
fn gate(flags: &Flags) -> Result<ExitCode, Error> {
    let summary = &CAMPAIGNS[0];
    let summary_path = summary
        .gate_flag
        .and_then(|flag| flags.str(flag))
        .unwrap_or(summary.file);
    let baseline_path = flags
        .str("--baseline")
        .unwrap_or("results/BENCH_baseline.json");
    let threshold = flags.parse(
        "--threshold",
        DEFAULT_THRESHOLD,
        "a fraction (e.g. 0.10)",
        |_| true,
    )?;
    let current = std::fs::read_to_string(summary_path)
        .map_err(|e| format!("reading {summary_path}: {e}"))?;
    let scale_path = flags.str("--scale");
    let scale_implicit = scale_path.is_none();
    let scale_path = scale_path.unwrap_or("BENCH_scale.json");
    let scale_baseline_path = flags
        .str("--scale-baseline")
        .unwrap_or("results/BENCH_scale_baseline.json");
    if std::env::var("MOTEUR_BENCH_UPDATE_BASELINE").as_deref() == Ok("1") {
        std::fs::write(baseline_path, &current)
            .map_err(|e| format!("updating {baseline_path}: {e}"))?;
        println!("baseline {baseline_path} updated from {summary_path}");
        // Re-seed the scale baseline too when a fresh document is
        // around; its deterministic axes are machine-independent.
        match std::fs::read_to_string(scale_path) {
            Ok(scale) => {
                std::fs::write(scale_baseline_path, &scale)
                    .map_err(|e| format!("updating {scale_baseline_path}: {e}"))?;
                println!("baseline {scale_baseline_path} updated from {scale_path}");
            }
            Err(_) if scale_implicit => {}
            Err(e) => return Err(format!("reading {scale_path}: {e}").into()),
        }
        return Ok(ExitCode::SUCCESS);
    }
    let baseline = std::fs::read_to_string(baseline_path).map_err(|e| {
        format!("reading {baseline_path}: {e} (run with MOTEUR_BENCH_UPDATE_BASELINE=1 to seed it)")
    })?;
    let mut report = check_gate(&baseline, &current, threshold)?;
    for c in &CAMPAIGNS[1..] {
        let explicit = c.gate_flag.and_then(|flag| flags.str(flag));
        let path = explicit.unwrap_or(c.file);
        let json = match std::fs::read_to_string(path) {
            Ok(json) => json,
            Err(_) if explicit.is_none() => continue,
            Err(e) => return Err(format!("reading {path}: {e}").into()),
        };
        let checks = if c.name == "scale" {
            // The deterministic allocation axes also compare against
            // the committed scale baseline, when there is one.
            let scale_baseline = std::fs::read_to_string(scale_baseline_path).ok();
            check_scale(&json, scale_baseline.as_deref(), threshold)
        } else {
            (c.check)(&json)
        };
        report.checks.extend(checks?);
    }
    print!("{}", report.render());
    Ok(if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        return usage();
    };
    let flags = Flags(rest);
    let outcome = if name == "gate" {
        gate(&flags)
    } else if let Some(c) = CAMPAIGNS.iter().find(|c| c.name == name) {
        run_campaign(c, &flags)
    } else if let Some(f) = FIGURES.iter().find(|f| f.name == name) {
        (f.run)(&flags).map(|text| {
            print!("{text}");
            ExitCode::SUCCESS
        })
    } else {
        return usage();
    };
    match outcome {
        Ok(code) => code,
        Err(Error::Usage(msg)) => {
            eprintln!("moteur-bench: {msg}");
            ExitCode::from(2)
        }
        Err(Error::Failed(msg)) => {
            eprintln!("moteur-bench: {msg}");
            ExitCode::FAILURE
        }
    }
}
