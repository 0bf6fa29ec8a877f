//! End-to-end tests of the `moteur-bench` binary's command line: the
//! usage, the shared flag parser, and the gate's verdicts on small
//! hand-written BENCH documents.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory that removes itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("moteur-bench-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn write(&self, file: &str, text: &str) {
        std::fs::write(self.0.join(file), text).expect("write document");
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `moteur-bench args…` inside `dir`, so no BENCH document lying
/// around elsewhere is picked up implicitly.
fn bench(dir: &TempDir, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moteur-bench"))
        .args(args)
        .current_dir(&dir.0)
        .output()
        .expect("moteur-bench runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const SUMMARY: &str = r#"{"schema":"moteur-bench/summary/v1","configs":[],"speedups":{}}"#;

/// `moteur-bench gate` on an empty summary (so no baseline check
/// fires) plus `extra` flags.
fn gate(dir: &TempDir, extra: &[&str]) -> Output {
    dir.write("summary.json", SUMMARY);
    let args = [
        "gate",
        "--summary",
        "summary.json",
        "--baseline",
        "summary.json",
    ];
    bench(dir, &[&args[..], extra].concat())
}

fn daemon_doc(ttfj_p99_secs: f64) -> String {
    format!(
        r#"{{"schema":"moteur-bench/daemon/v1","n_workflows":10,"succeeded":10,"cross_tenant_hit_ratio":1,"ttfj_p99_secs":{ttfj_p99_secs},"scaling_exp":1}}"#
    )
}

#[test]
fn unknown_subcommand_prints_usage_naming_every_row() {
    let dir = TempDir::new("usage");
    let out = bench(&dir, &["no-such-subcommand"]);
    assert_eq!(out.status.code(), Some(2));
    let usage = stderr(&out);
    let rows = "campaign faults timeline plan daemon scale stream warm gate \
                table1 table2 fig10 diagrams theory speedups ablation granularity";
    for name in rows.split_whitespace() {
        assert!(
            usage.contains(&format!("moteur-bench {name}")),
            "usage misses `{name}`:\n{usage}"
        );
    }
    assert_eq!(bench(&dir, &[]).status.code(), Some(2));
}

#[test]
fn gate_fails_a_daemon_wave_over_the_admission_ceiling() {
    let dir = TempDir::new("daemon-gate");
    dir.write("daemon.json", &daemon_doc(30.0));
    let out = gate(&dir, &["--daemon", "daemon.json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    dir.write("daemon.json", &daemon_doc(601.0));
    let out = gate(&dir, &["--daemon", "daemon.json"]);
    assert_eq!(out.status.code(), Some(1));
    let report = stdout(&out);
    let line = report
        .lines()
        .find(|l| l.contains("daemon/ttfj_p99_secs"))
        .unwrap_or_else(|| panic!("no ttfj row:\n{report}"));
    assert!(line.ends_with("REGRESSED"), "{line}");
}

#[test]
fn documents_with_the_wrong_schema_are_errors() {
    let dir = TempDir::new("schema");
    dir.write("faults.json", r#"{"schema":"other/v1"}"#);
    let out = gate(&dir, &["--faults", "faults.json"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("faults: schema `other/v1`"), "{err}");

    let out = bench(
        &dir,
        &[
            "gate",
            "--summary",
            "faults.json",
            "--baseline",
            "summary.json",
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("schema `other/v1`"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn malformed_numeric_flags_exit_2() {
    let dir = TempDir::new("flags");
    for args in [
        "table1 --seed abc",
        "table2 --repeats 0",
        "fig10 --seed -1",
        "speedups --repeats many",
        "warm --ndata 0",
        "faults --failure-probability 1.5",
        "gate --threshold ten",
    ] {
        let out = bench(&dir, &args.split(' ').collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(2), "{args}: {}", stderr(&out));
        assert!(stderr(&out).contains(" needs "), "{args}: {}", stderr(&out));
    }
    let out = bench(&dir, &["table1", "--seed", "abc"]);
    assert!(stderr(&out).contains("--seed needs an integer"));
}

#[test]
fn warm_subcommand_and_gate_agree_on_the_same_document() {
    let dir = TempDir::new("warm");
    let out = bench(&dir, &["warm", "--ndata", "2", "--out-dir", "."]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("warm checks: PASS"),
        "{}",
        stdout(&out)
    );
    let doc = std::fs::read_to_string(dir.0.join("BENCH_warm.json")).unwrap();
    assert!(doc.trim_end().ends_with(r#","ok":true}"#), "{doc}");

    let out = gate(&dir, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("warm/cache_misses"),
        "{}",
        stdout(&out)
    );

    // The gate fails a warm document that missed the cache.
    let missed = doc.replacen("\"cache_misses\":0", "\"cache_misses\":3", 1);
    dir.write("BENCH_warm.json", &missed);
    assert_eq!(gate(&dir, &[]).status.code(), Some(1));
}
