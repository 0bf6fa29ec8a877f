//! The paper's tables and figures (`DESIGN.md` §5, E1–E8) plus the two
//! extensions (E13, E14), each rendered as the text that
//! `moteur-bench FIGURE` prints.
//!
//! Campaign-driven figures take the seed and repeat count from the
//! command line; `quick` swaps the paper's sizes for small ones.

use crate::{bronze_inputs, bronze_workflow, run_campaign, PAPER_SIZES, QUICK_SIZES};
use moteur::model::{speedup_dp_constant, speedup_dp_given_sp_constant, speedup_sp_constant};
use moteur::prelude::*;
use moteur::{diagram, GranularityModel, TimeMatrix};
use moteur_analysis::{bootstrap_mean_ci, compare, fmt_secs, render_chart, Series, Table};
use moteur_gridsim::{CeConfig, Distribution, GridConfig, NetworkConfig};
use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};
use std::fmt::Write as _;

fn sizes(quick: bool) -> Vec<usize> {
    if quick {
        QUICK_SIZES.to_vec()
    } else {
        PAPER_SIZES.to_vec()
    }
}

fn announce(sizes: &[usize], seed: u64, repeats: usize) {
    eprintln!(
        "running 6 configurations x {sizes:?} image pairs (seed {seed}, {repeats} repeat(s))..."
    );
}

/// E1 — **Table 1**: Bronze-Standard execution time (s) for each
/// optimization configuration over 12, 66 and 126 image pairs on the
/// simulated EGEE grid, with a 95% bootstrap interval when repeated.
pub fn table1(quick: bool, seed: u64, repeats: usize) -> String {
    let sizes = sizes(quick);
    announce(&sizes, seed, repeats);
    let results = run_campaign(&sizes, seed, repeats);

    let mut header: Vec<String> = vec!["Configuration".into()];
    header.extend(sizes.iter().map(|n| format!("{n} pairs")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    for (series, points) in &results {
        let mut row = vec![series.label.clone()];
        for (n, t) in &series.points {
            let samples: Vec<f64> = points
                .iter()
                .filter(|p| p.n_pairs as f64 == *n)
                .map(|p| p.makespan_secs)
                .collect();
            let ci = (repeats > 1)
                .then(|| bootstrap_mean_ci(&samples, 400, 0.95, 42))
                .flatten();
            row.push(match ci {
                Some(ci) => format!(
                    "{} [{}..{}]",
                    fmt_secs(*t),
                    fmt_secs(ci.lo),
                    fmt_secs(ci.hi)
                ),
                None => fmt_secs(*t),
            });
        }
        table.add_row(row);
    }
    let mut out = format!(
        "Table 1 reproduction - execution time (s) per configuration\n\
         (paper, 12/66/126 pairs: NOP 32855/76354/133493 ... SP+DP+JG 5524/9053/14547)\n\n{}\n",
        table.render()
    );

    // Jobs submitted per configuration at the largest size.
    let largest = *sizes.last().expect("non-empty sizes") as f64;
    for (series, points) in &results {
        if let Some(p) = points.iter().find(|p| p.n_pairs as f64 == largest) {
            let _ = writeln!(
                out,
                "{:10} {} jobs submitted at {} pairs",
                series.label, p.jobs_submitted, p.n_pairs
            );
        }
    }
    out
}

/// E2 — **Table 2**: y-intercept (s) and slope (s/data set) of the
/// execution-time-vs-size regression line for each configuration, as
/// in paper §5.1.
pub fn table2(quick: bool, seed: u64, repeats: usize) -> String {
    let sizes = sizes(quick);
    announce(&sizes, seed, repeats);
    let results = run_campaign(&sizes, seed, repeats);

    let mut table = Table::new(&[
        "Configuration",
        "y-intercept (s)",
        "slope (s/data set)",
        "r^2",
    ]);
    for (series, _) in &results {
        table.add_row(match series.fit() {
            Some(line) => vec![
                series.label.clone(),
                fmt_secs(line.intercept),
                format!("{:.0}", line.slope),
                format!("{:.3}", line.r_squared),
            ],
            None => vec![series.label.clone(), "-".into(), "-".into(), "-".into()],
        });
    }
    format!(
        "Table 2 reproduction - linear regression of execution time vs data-set size\n\
         (paper: NOP 20784/884, JG 11093/900, SP 6382/897, DP 16328/143,\n \
         SP+DP 6625/88, SP+DP+JG 4310/79)\n\n{}\n\
         Expected shape: DP-enabled rows collapse the slope (data scalability);\n\
         JG rows mainly lower the intercept (infrastructure overhead).\n",
        table.render()
    )
}

/// E3 — **Figure 10**: execution time against the number of input
/// image pairs, one curve per optimization configuration, as an ASCII
/// chart plus the raw series.
pub fn fig10(quick: bool, seed: u64) -> String {
    // A denser size grid than Table 1, like the figure's x axis.
    let sizes: Vec<usize> = if quick {
        vec![2, 6, 10, 14]
    } else {
        vec![12, 40, 66, 96, 126]
    };
    eprintln!("running 6 configurations x {sizes:?} image pairs (seed {seed})...");
    let series: Vec<Series> = run_campaign(&sizes, seed, 1)
        .into_iter()
        .map(|(s, _)| s)
        .collect();

    let mut out = format!(
        "Figure 10 reproduction - execution time vs number of input image pairs\n\n{}\n\
         raw series (seconds):\n",
        render_chart(&series, 72, 24, true, "number of input image pairs")
    );
    for s in &series {
        let pts: Vec<String> = s
            .points
            .iter()
            .map(|(n, t)| format!("({n:.0}, {t:.0})"))
            .collect();
        let _ = writeln!(out, "  {:10} {}", s.label, pts.join(" "));
    }
    out
}

/// E8 — the §5.2/§5.3 analysis: speed-ups, slope ratios and
/// y-intercept ratios between configurations, computed over a fresh
/// campaign and printed next to the paper's measured values.
pub fn speedups(quick: bool, seed: u64, repeats: usize) -> String {
    let sizes = sizes(quick);
    announce(&sizes, seed, repeats);
    let series: Vec<Series> = run_campaign(&sizes, seed, repeats)
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    let get = |label: &str| -> &Series {
        series
            .iter()
            .find(|s| s.label == label)
            .expect("campaign produces all labels")
    };

    let cases = [
        ("DP", "NOP", "S5.2 DP vs NOP           (paper speed-ups 1.86/2.89/3.92, slope ratio 6.18, y-int ratio 1.27)"),
        ("SP+DP", "DP", "S5.2 (DP+SP) vs DP       (paper speed-ups 2.26/2.17/1.90, slope ratio 1.62, y-int ratio 2.46)"),
        ("JG", "NOP", "S5.3 JG vs NOP           (paper speed-ups 1.43/1.12/1.06, slope ratio 0.98, y-int ratio 1.87)"),
        ("SP+DP+JG", "SP+DP", "S5.3 (JG+SP+DP) vs SP+DP (paper speed-ups 1.42/1.34/1.23, slope ratio 1.11, y-int ratio 1.54)"),
        ("SP+DP+JG", "NOP", "abstract: full optimization vs NOP (paper ~9x at 126 pairs)"),
    ];
    let mut out = String::new();
    for (analyzed, reference, caption) in cases {
        let c = compare(get(reference), get(analyzed));
        let _ = writeln!(out, "{caption}");
        let sp: Vec<String> = c
            .speedups
            .iter()
            .map(|(n, s)| format!("{s:.2}x @ {n:.0}"))
            .collect();
        let _ = writeln!(out, "  measured speed-ups: {}", sp.join(", "));
        let _ = writeln!(
            out,
            "  measured slope ratio: {}   y-intercept ratio: {}",
            c.slope_ratio.map_or("-".into(), |r| format!("{r:.2}")),
            c.y_intercept_ratio
                .map_or("-".into(), |r| format!("{r:.2}")),
        );
        let _ = writeln!(out);
    }
    out.push_str(
        "Shape claims to check: DP dominates the slope ratio; JG and SP mainly\n\
         improve the y-intercept; SP yields a real speed-up on top of DP even\n\
         though the constant-time model predicts none.\n",
    );
    out
}

/// A one-input, one-output GFN service called `name`.
fn pass_through(name: &str) -> ExecutableDescriptor {
    ExecutableDescriptor {
        executable: FileItem {
            name: name.into(),
            access: AccessMethod::Local,
            value: name.into(),
        },
        inputs: vec![InputSlot {
            name: "in".into(),
            option: "-i".into(),
            access: Some(AccessMethod::Gfn),
            bytes: None,
        }],
        outputs: vec![OutputSlot {
            name: "out".into(),
            option: "-o".into(),
            access: AccessMethod::Gfn,
        }],
        sandboxes: vec![],
        nondeterministic: false,
    }
}

/// The Fig. 1 chain P1 → P2 → … over `t.n_data()` data sets on an
/// ideal backend, service `i` taking `t[i][j]` seconds on datum `j`.
fn enact_chain(t: &TimeMatrix, config: EnactorConfig) -> WorkflowResult {
    let mut wf = Workflow::new("fig1");
    let src = wf.add_source("source");
    let mut prev = src;
    for i in 0..t.n_services() {
        let row: Vec<f64> = (0..t.n_data()).map(|j| t.get(i, j)).collect();
        let name = format!("P{}", i + 1);
        let svc = wf.add_service(
            &name,
            &["in"],
            &["out"],
            ServiceBinding::descriptor(
                pass_through(&name),
                ServiceProfile::new(0.0)
                    .with_cost(CostModel::by_index(move |idx| row[idx.0[0] as usize])),
            ),
        );
        wf.connect(prev, "out", svc, "in").unwrap();
        prev = svc;
    }
    let sink = wf.add_sink("sink");
    wf.connect(prev, "out", sink, "in").unwrap();
    let inputs = InputData::new().set(
        "source",
        (0..t.n_data())
            .map(|j| DataValue::File {
                gfn: format!("gfn://d{j}"),
                bytes: 0,
            })
            .collect(),
    );
    let mut backend = VirtualBackend::new();
    run(&wf, &inputs, config, &mut backend).expect("ideal chain runs succeed")
}

fn makespan(t: &TimeMatrix, config: EnactorConfig) -> f64 {
    enact_chain(t, config).makespan.as_secs_f64()
}

/// E4/E5/E6 — the execution diagrams of **Figures 4, 5 and 6**: the
/// Fig. 1 three-service chain over three data sets under data
/// parallelism (Fig. 4), service parallelism (Fig. 5), and both with
/// non-constant execution times (Fig. 6, with/without SP).
pub fn diagrams() -> String {
    let constant = TimeMatrix::constant(3, 3, 1.0);
    // Fig. 6: D0 takes twice as long on P1 (submitted twice after an
    // error); D1 takes three times as long on P2 (blocked in a queue).
    let variable = TimeMatrix::new(vec![
        vec![2.0, 1.0, 1.0],
        vec![1.0, 3.0, 1.0],
        vec![1.0, 1.0, 1.0],
    ]);
    let mut out = String::new();
    for (heading, title, t, config) in [
        (
            "Figure 4: data-parallel execution (DP on, SP off), constant T",
            "DP",
            &constant,
            EnactorConfig::dp(),
        ),
        (
            "Figure 5: service-parallel execution (SP on, DP off), constant T",
            "SP",
            &constant,
            EnactorConfig::sp(),
        ),
        (
            "Figure 6 left: DP only, variable T",
            "DP, variable T",
            &variable,
            EnactorConfig::dp(),
        ),
        (
            "Figure 6 right: DP + SP, variable T (computations overlap)",
            "DP+SP, variable T",
            &variable,
            EnactorConfig::sp_dp(),
        ),
    ] {
        let result = enact_chain(t, config);
        let _ = writeln!(out, "=== {heading} ===");
        let _ = writeln!(out, "{title}  (total {} s)", result.makespan.as_secs_f64());
        let _ = writeln!(
            out,
            "{}",
            diagram::render(&result.invocations, &["P3", "P2", "P1"])
        );
    }
    let _ = writeln!(
        out,
        "Fig. 6 conclusion: with variable execution times, enabling SP on top of DP\n\
         shortens the makespan ({} s -> {} s) even though the constant-time model\n\
         predicts no gain (S_SDP = 1).",
        makespan(&variable, EnactorConfig::dp()),
        makespan(&variable, EnactorConfig::sp_dp()),
    );
    out
}

/// E7 — §3.5 theoretical model: the four Σ expressions and the
/// asymptotic speed-ups for the paper's application shape (n_W = 5,
/// n_D ∈ {12, 66, 126}) under the constant-time assumption, with a
/// check that the enactor agrees with the model on an ideal backend.
pub fn theory() -> String {
    let nw = 5; // the paper's application: 5 services on the critical path
    let t_unit = 100.0;
    let mut table = Table::new(&[
        "n_D",
        "Sigma",
        "Sigma_DP",
        "Sigma_SP",
        "Sigma_DSP",
        "S_DP",
        "S_SP",
        "S_DSP",
        "enactor=model",
    ]);
    for nd in [12usize, 66, 126] {
        let t = TimeMatrix::constant(nw, nd, t_unit);
        let (seq, dp, sp, dsp) = (
            t.sigma_sequential(),
            t.sigma_dp(),
            t.sigma_sp(),
            t.sigma_dsp(),
        );
        // Enactor agreement on the smallest case (larger ones follow by
        // the tested invariants; keep the figure fast).
        let agree = if nd == 12 {
            let ok = (makespan(&t, EnactorConfig::nop()) - seq).abs() < 1e-6
                && (makespan(&t, EnactorConfig::dp()) - dp).abs() < 1e-6
                && (makespan(&t, EnactorConfig::sp()) - sp).abs() < 1e-6
                && (makespan(&t, EnactorConfig::sp_dp()) - dsp).abs() < 1e-6;
            if ok {
                "yes"
            } else {
                "NO"
            }
        } else {
            "-"
        };
        table.add_row(vec![
            nd.to_string(),
            format!("{seq:.0}"),
            format!("{dp:.0}"),
            format!("{sp:.0}"),
            format!("{dsp:.0}"),
            format!("{:.2}", speedup_dp_constant(nd)),
            format!("{:.2}", speedup_sp_constant(nw, nd)),
            format!("{:.2}", speedup_dp_given_sp_constant(nw, nd)),
            agree.to_string(),
        ]);
    }
    format!(
        "S3.5 theoretical model, constant T = {t_unit} s, n_W = {nw}\n\n{}\n\
         Under constant T, SP adds nothing once DP is on (Sigma_DP = Sigma_DSP);\n\
         the production-grid experiments (table1/speedups) show why that breaks:\n\
         grid overhead is large and variable, so T is never constant (S3.5.4).\n",
        table.render()
    )
}

/// Unloaded grid whose only stochastic element is the matchmaking
/// delay: lognormal with mean fixed at `mean` and shape `sigma`.
fn grid_with_sigma(mean: f64, sigma: f64) -> GridConfig {
    // mean = median·exp(σ²/2)  ⇒  median = mean·exp(−σ²/2).
    let median = mean * (-sigma * sigma / 2.0).exp();
    GridConfig {
        ces: vec![CeConfig::new("ce", 5000, 1.0)],
        submission_overhead: Distribution::Constant(60.0),
        match_delay: if sigma == 0.0 {
            Distribution::Constant(mean)
        } else {
            Distribution::LogNormal { median, sigma }
        },
        notify_delay: Distribution::Constant(30.0),
        failure_probability: 0.0,
        failure_detection: Distribution::Constant(0.0),
        max_retries: 0,
        network: NetworkConfig {
            transfer_latency: 5.0,
            bandwidth: 2.0e6,
            congestion: 0.0,
        },
        typical_job_duration: 600.0,
        info_refresh_period: 3600.0,
        compute_jitter: Distribution::Constant(1.0),
    }
}

/// E13 — ablation beyond the paper's figures: how the SP-over-DP
/// speed-up depends on grid-overhead *variability*.
///
/// §3.5.4 proves S_SDP = 1 under constant execution times and argues
/// the measured ≈2× comes entirely from the production grid's
/// variability. This sweeps the overhead's lognormal shape σ while
/// holding its *mean* fixed, runs the Bronze-Standard workflow under DP
/// and DP+SP, and shows the speed-up rising from ≈1 with the
/// variability — a quantitative confirmation of the paper's argument.
pub fn ablation(quick: bool) -> String {
    let n_pairs = if quick { 6 } else { 20 };
    let repeats = 5u64;
    let workflow = bronze_workflow();
    let inputs = bronze_inputs(n_pairs);

    let mut out = format!(
        "SP benefit vs overhead variability ({n_pairs} image pairs, mean overhead 500 s, {repeats} seeds)\n\n"
    );
    let mut table = Table::new(&["overhead sigma", "DP (s)", "DP+SP (s)", "SP speed-up"]);
    for sigma in [0.0, 0.3, 0.6, 0.9, 1.2, 1.5] {
        let mean_makespan = |config: EnactorConfig| -> f64 {
            (0..repeats)
                .map(|seed| {
                    let mut backend = SimBackend::new(grid_with_sigma(500.0, sigma), seed);
                    run(&workflow, &inputs, config, &mut backend)
                        .expect("ablation run")
                        .makespan
                        .as_secs_f64()
                })
                .sum::<f64>()
                / repeats as f64
        };
        let (dp, dsp) = (
            mean_makespan(EnactorConfig::dp()),
            mean_makespan(EnactorConfig::sp_dp()),
        );
        table.add_row(vec![
            format!("{sigma:.1}"),
            format!("{dp:.0}"),
            format!("{dsp:.0}"),
            format!("{:.2}x", dp / dsp),
        ]);
    }
    let _ = writeln!(
        out,
        "{}\n\
         At sigma = 0 the speed-up collapses towards the theoretical S_SDP = 1;\n\
         it grows with the variability — the paper's explanation of its S5.2 result.",
        table.render()
    );
    out
}

/// Frictionless grid whose only cost besides compute is a lognormal
/// submission overhead.
fn overhead_grid(median: f64, sigma: f64) -> GridConfig {
    GridConfig {
        ces: vec![CeConfig::new("ce", 5000, 1.0)],
        submission_overhead: Distribution::LogNormal { median, sigma },
        match_delay: Distribution::Constant(0.0),
        notify_delay: Distribution::Constant(0.0),
        failure_probability: 0.0,
        failure_detection: Distribution::Constant(0.0),
        max_retries: 0,
        network: NetworkConfig {
            transfer_latency: 0.0,
            bandwidth: f64::INFINITY,
            congestion: 0.0,
        },
        typical_job_duration: 300.0,
        info_refresh_period: 3600.0,
        compute_jitter: Distribution::Constant(1.0),
    }
}

/// E14 — §5.4 future work: sweep the data-batching granularity on the
/// simulated grid and compare against the probabilistic model's
/// prediction of the optimal batch size.
///
/// A single-service, massively data-parallel workflow (the §3.5.4
/// "massively data-parallel" limit) processes `n` data with batch size
/// g ∈ {1, 2, …}: larger batches pay fewer draws from the heavy-tailed
/// overhead distribution but serialise more compute.
pub fn granularity() -> String {
    let n_data = 126;
    let compute = 60.0;
    let (median, sigma) = (300.0, 1.0);
    let repeats = 8u64;

    let mut wf = Workflow::new("sweep");
    let src = wf.add_source("data");
    let svc = wf.add_service(
        "process",
        &["in"],
        &["out"],
        ServiceBinding::descriptor(pass_through("process"), ServiceProfile::new(compute)),
    );
    let sink = wf.add_sink("sink");
    wf.connect(src, "out", svc, "in").unwrap();
    wf.connect(svc, "out", sink, "in").unwrap();
    let inputs = InputData::new().set(
        "data",
        (0..n_data)
            .map(|j| DataValue::File {
                gfn: format!("gfn://d/{j}"),
                bytes: 1_000,
            })
            .collect(),
    );
    let model = GranularityModel {
        overhead_median: median,
        overhead_sigma: sigma,
        compute_seconds: compute,
        n_data,
    };

    let mut out = format!(
        "Batch-size sweep: {n_data} data, {compute:.0} s compute each, lognormal overhead (median {median:.0} s, sigma {sigma})\n\n"
    );
    let mut table = Table::new(&[
        "batch g",
        "jobs",
        "simulated makespan (s)",
        "model prediction (s)",
    ]);
    for g in [1usize, 2, 3, 4, 6, 9, 14, 21, 42, 126] {
        let total: f64 = (0..repeats)
            .map(|seed| {
                let mut backend = SimBackend::new(overhead_grid(median, sigma), seed);
                run(
                    &wf,
                    &inputs,
                    EnactorConfig::sp_dp().with_batching(g),
                    &mut backend,
                )
                .expect("sweep run")
                .makespan
                .as_secs_f64()
            })
            .sum();
        table.add_row(vec![
            g.to_string(),
            n_data.div_ceil(g).to_string(),
            format!("{:.0}", total / repeats as f64),
            format!("{:.0}", model.expected_makespan(g)),
        ]);
    }
    let _ = writeln!(
        out,
        "{}\n\
         model-recommended batch size: g* = {} (expected makespan {:.0} s)\n\
         The measured optimum should sit near g*: the trade-off between data\n\
         parallelism and per-job overhead that the paper left as future work.",
        table.render(),
        model.optimal_batch(),
        model.expected_makespan(model.optimal_batch())
    );
    out
}
