#!/bin/sh
# Local mirror of .github/workflows/ci.yml for machines without Actions.
# The workspace has no external crate dependencies, so everything runs
# with the network off.
set -eux

export CARGO_NET_OFFLINE=true

cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings

# API docs must build clean: broken intra-doc links and malformed
# doc blocks are errors, not noise.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Tier-1: the root package must build in release and pass its tests.
cargo build --release --offline
cargo test -q --offline

# The full workspace (core, gridsim, scufl, wrapper, xmlish, analysis,
# registration, bench).
cargo test --workspace --offline

# Static analysis over the bundled example workflows: errors AND
# warnings fail the build (notes — e.g. grouping advice — are fine).
# `plan` runs the same lint pass plus the cardinality/transfer planner,
# so every example must also produce a clean partition report.
for wf in examples/workflows/*.xml; do
  cargo run --offline --quiet --bin moteur -- lint "$wf" --deny-warnings
  cargo run --offline --quiet --bin moteur -- plan "$wf" --deny-warnings
done

# Perf observatory: sweep the six Table-1 configurations on the ideal
# grid (deterministic, seconds of wall-clock) and gate the result
# against the committed baseline. Fails on >10% makespan regression,
# lost speed-up, or model-vs-observed drift beyond 5%. After an
# intentional perf change, refresh the baseline with
#   MOTEUR_BENCH_UPDATE_BASELINE=1 ./ci.sh
# (or run `moteur-bench gate` directly) and commit the new
# results/BENCH_baseline.json.
cargo run --offline --quiet -p moteur-bench --bin moteur-bench -- \
  campaign --sweep ndata=1..6 --out-dir .

# Fault injection: the campaign on an unreliable egee-2006 (middleware
# retries off, >=4% failure probability) under naive / backoff /
# timeout+replication. Fails unless timeout+replication beats naive on
# mean makespan and nothing is quarantined; writes BENCH_faults.json,
# which the gate below re-checks alongside the baseline comparison.
cargo run --offline --quiet -p moteur-bench --bin moteur-bench -- \
  faults --out-dir .

# Grid telemetry: the campaign with the timeline pipeline attached, in
# the ideal (byte-accounting) and queue-saturated regimes. Fails unless
# the timeline's per-link byte totals reconcile with the enactor and
# the loaded regime is attributed to the CE queues; writes
# BENCH_timeline.json, re-checked by the gate below.
cargo run --offline --quiet -p moteur-bench --bin moteur-bench -- \
  timeline --out-dir .

# Static planner vs observed staging: every per-edge byte interval from
# `moteur plan` must contain the bytes the enactor actually bound onto
# that (consumer, port), and the greedy site partition must beat
# centralized routing on the data-heavy bronze variant. Writes
# BENCH_plan.json, re-checked by the gate below.
cargo run --offline --quiet -p moteur-bench --bin moteur-bench -- \
  plan --out-dir .

# Scale campaign: a million gridsim events plus ten thousand enactor
# jobs with the self-profiler attached (release build — the point is
# hot-path throughput). Writes BENCH_scale.json; the gate re-checks the
# event/job targets, the allocation budget, and the deterministic
# allocation axes (allocs/event, peak live bytes) against the committed
# results/BENCH_scale_baseline.json at the 10% threshold.
cargo run --release --offline --quiet -p moteur-bench --bin moteur-bench -- \
  scale --out-dir .

# Streaming campaign: a million-item stream through a bounded-port
# chain (release build — the point is throughput and the memory
# high-water mark). Fails unless every item completes and the
# pipeline's peak live bytes beyond the materialised inputs stay inside
# the absolute budget while undercutting the eager per-item projection
# by >=4x; writes BENCH_stream.json, re-checked by the gate below.
cargo run --release --offline --quiet -p moteur-bench --bin moteur-bench -- \
  stream --out-dir .

# Multi-tenant daemon: a 100-submission wave across four tenants of
# one enactment daemon sharing a memo table. Fails unless every
# submission succeeds and the wave reuses >=90% of the seed tenant's
# derivations; writes BENCH_daemon.json, re-checked by the gate below
# (completion, cross-tenant hit ratio, bounded p99 time-to-first-job).
cargo run --offline --quiet -p moteur-bench --bin moteur-bench -- \
  daemon --out-dir .

# The protocol self-test round-trips every moteur/daemon/v1 message
# type through render + parse.
cargo run --offline --quiet --bin moteur -- daemon --check-protocol

# Data manager: cold/warm pair on the deterministic chain. Fails if the
# cold run drifts from eq. 1-4 or any warm invocation misses the cache;
# writes BENCH_warm.json, re-checked by the gate below.
cargo run --offline --quiet -p moteur-bench --bin moteur-bench -- \
  warm --ndata 6 --out-dir .

# The paper's figures are subcommands of the same binary; a quick
# Table 1 keeps the figure code building and running.
cargo run --offline --quiet -p moteur-bench --bin moteur-bench -- \
  table1 --quick

# Every campaign document above, re-checked by the same check its
# subcommand exited on, plus the summary and scale baselines.
cargo run --offline --quiet -p moteur-bench --bin moteur-bench -- \
  gate --faults BENCH_faults.json --timeline BENCH_timeline.json \
  --plan BENCH_plan.json --scale BENCH_scale.json --daemon BENCH_daemon.json \
  --stream BENCH_stream.json

# Graceful degradation end-to-end: a run whose timeout budget is
# unsatisfiable must quarantine (not abort), emit a workflow report
# naming the lost items, and exit non-zero.
cargo run --offline --quiet --bin moteur -- example
if cargo run --offline --quiet --bin moteur -- \
    run bronze-standard.xml inputs-12.xml --config sp+dp \
    --timeout 40 --max-retries 0 --continue-on-error \
    --workflow-report degraded-report.json; then
  echo "continue-on-error run should exit non-zero" >&2
  exit 1
fi
grep -q '"ok":false' degraded-report.json
grep -q '"descendants"' degraded-report.json
rm -f bronze-standard.xml inputs-12.xml degraded-report.json
