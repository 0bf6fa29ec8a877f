//! # moteur-bench
//!
//! Experiment harnesses reproducing every table and figure of the
//! paper's evaluation (see `DESIGN.md` §5 for the experiment index),
//! all behind one binary, `moteur-bench <subcommand>` ([`figures`]):
//!
//! | subcommand | regenerates |
//! |---|---|
//! | `table1` | Table 1 — execution times per configuration × data-set size |
//! | `table2` | Table 2 — y-intercept and slope of the fitted lines |
//! | `fig10` | Figure 10 — execution time vs number of image pairs |
//! | `diagrams` | Figures 4, 5 and 6 — execution diagrams |
//! | `theory` | §3.5 — model-vs-enactor asymptotic speed-ups |
//! | `speedups` | §5.2/§5.3 — speed-ups and slope / y-intercept ratios |
//! | `ablation` | extension — SP speed-up vs grid-overhead variability |
//! | `granularity` | §5.4 extension — batch size vs the model's optimum |
//!
//! The same binary (`src/main.rs`) drives the perf observatory. Each
//! campaign subcommand writes one BENCH document and exits on that
//! document's check in [`gate`]; `moteur-bench gate` re-applies the
//! same checks and compares the summary (and scale) documents against
//! their committed baselines:
//!
//! | subcommand | document | module |
//! |---|---|---|
//! | `campaign` | `BENCH_summary.json` (+ `BENCH_point.json`): the six configurations over a range of sizes | [`sweep`] |
//! | `faults` | `BENCH_faults.json`: naive vs backoff vs timeout+replication on an unreliable grid | [`faults`] |
//! | `timeline` | `BENCH_timeline.json`: byte accounting and the bottleneck verdict, ideal and queue-saturated | [`timeline`] |
//! | `plan` | `BENCH_plan.json`: static per-edge byte bounds vs observed staging | [`plan`] |
//! | `daemon` | `BENCH_daemon.json`: a multi-tenant submission wave over one shared memo table | [`daemon`] |
//! | `scale` | `BENCH_scale.json`: a million simulator events and ten thousand jobs, self-profiled | [`scale`] |
//! | `stream` | `BENCH_stream.json`: a million-item stream through bounded ports | [`stream`] |
//! | `warm` | `BENCH_warm.json`: one campaign cold, then warm against the same data manager | [`warm`] |
//!
//! The library half also hosts the Fig. 9 Bronze-Standard workflow
//! ([`bronze`]) and the campaign runner ([`campaign`]) shared by the
//! subcommands, the integration tests and the examples.

pub mod bronze;
pub mod campaign;
pub mod daemon;
pub mod faults;
pub mod figures;
pub mod gate;
pub mod plan;
pub mod scale;
pub mod stream;
pub mod sweep;
pub mod timeline;
pub mod warm;

pub use bronze::{
    bronze_chain_inputs, bronze_chain_workflow, bronze_chain_workflow_xml, bronze_inputs,
    bronze_workflow, bronze_workflow_xml, IMAGE_BYTES,
};
pub use campaign::{run_campaign, run_point, CampaignPoint, PAPER_SIZES, QUICK_SIZES};
