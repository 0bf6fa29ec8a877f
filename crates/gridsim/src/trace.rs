//! Aggregate statistics over job records — the raw material for the
//! paper's overhead discussion (§5.1) and for calibration tests.

use crate::job::{JobOutcome, JobRecord};

/// Summary statistics of a set of job records.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    pub jobs: usize,
    pub failures: usize,
    pub resubmissions: u32,
    pub mean_overhead_secs: f64,
    pub std_overhead_secs: f64,
    /// Overhead distribution tails — the paper stresses that grid
    /// overhead is "quite variable", so the mean alone under-describes
    /// it.
    pub p50_overhead_secs: f64,
    pub p95_overhead_secs: f64,
    pub p99_overhead_secs: f64,
    pub mean_queue_wait_secs: f64,
    pub mean_compute_secs: f64,
    /// Time of the last delivery (the campaign makespan when all jobs
    /// belong to one run).
    pub makespan_secs: f64,
}

/// Linearly-interpolated percentile of an unsorted sample (`q` in
/// `[0, 1]`). Deterministic on every input: empty yields `0.0`, a
/// single sample is every percentile of itself, and NaNs order via IEEE
/// `totalOrder` (after all finite values) instead of destabilising the
/// sort.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] of a sample already sorted by [`f64::total_cmp`]:
/// the interpolation alone, with no copy and no sort. Callers that
/// keep their samples sorted read a percentile in O(1).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Compute a [`TraceSummary`] over records (empty input → all zeros).
pub fn summarize(records: &[JobRecord]) -> TraceSummary {
    if records.is_empty() {
        return TraceSummary {
            jobs: 0,
            failures: 0,
            resubmissions: 0,
            mean_overhead_secs: 0.0,
            std_overhead_secs: 0.0,
            p50_overhead_secs: 0.0,
            p95_overhead_secs: 0.0,
            p99_overhead_secs: 0.0,
            mean_queue_wait_secs: 0.0,
            mean_compute_secs: 0.0,
            makespan_secs: 0.0,
        };
    }
    let n = records.len() as f64;
    let overheads: Vec<f64> = records.iter().map(|r| r.overhead().as_secs_f64()).collect();
    let mean_overhead = overheads.iter().sum::<f64>() / n;
    let var = overheads
        .iter()
        .map(|o| (o - mean_overhead) * (o - mean_overhead))
        .sum::<f64>()
        / n;
    TraceSummary {
        jobs: records.len(),
        failures: records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Failed)
            .count(),
        resubmissions: records.iter().map(|r| r.attempts.saturating_sub(1)).sum(),
        mean_overhead_secs: mean_overhead,
        std_overhead_secs: var.sqrt(),
        p50_overhead_secs: percentile(&overheads, 0.50),
        p95_overhead_secs: percentile(&overheads, 0.95),
        p99_overhead_secs: percentile(&overheads, 0.99),
        mean_queue_wait_secs: records
            .iter()
            .map(|r| r.queue_wait().as_secs_f64())
            .sum::<f64>()
            / n,
        mean_compute_secs: records.iter().map(|r| r.compute.as_secs_f64()).sum::<f64>() / n,
        makespan_secs: records
            .iter()
            .map(|r| r.delivered_at.as_secs_f64())
            .fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CeId, JobId};
    use crate::time::{SimDuration, SimTime};

    fn rec(submit: f64, deliver: f64, compute: f64, attempts: u32, ok: bool) -> JobRecord {
        JobRecord {
            id: JobId(0),
            name: "j".into(),
            tag: 0,
            submitted_at: SimTime::from_secs_f64(submit),
            matched_at: SimTime::from_secs_f64(submit),
            enqueued_at: SimTime::from_secs_f64(submit),
            started_at: SimTime::from_secs_f64(submit + 10.0),
            finished_at: SimTime::from_secs_f64(deliver),
            delivered_at: SimTime::from_secs_f64(deliver),
            ce: Some(CeId(0)),
            attempts,
            stage_in: SimDuration::ZERO,
            compute: SimDuration::from_secs_f64(compute),
            stage_out: SimDuration::ZERO,
            outcome: if ok {
                JobOutcome::Success
            } else {
                JobOutcome::Failed
            },
        }
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = summarize(&[]);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.makespan_secs, 0.0);
    }

    #[test]
    fn summary_counts_and_means() {
        let records = vec![
            rec(0.0, 100.0, 60.0, 1, true),
            rec(0.0, 200.0, 60.0, 2, true),
            rec(0.0, 300.0, 60.0, 3, false),
        ];
        let s = summarize(&records);
        assert_eq!(s.jobs, 3);
        assert_eq!(s.failures, 1);
        assert_eq!(s.resubmissions, 3); // 0 + 1 + 2
        assert!((s.mean_compute_secs - 60.0).abs() < 1e-9);
        // Overheads: 40, 140, 240 → mean 140.
        assert!((s.mean_overhead_secs - 140.0).abs() < 1e-9);
        assert!((s.makespan_secs - 300.0).abs() < 1e-9);
        assert!((s.mean_queue_wait_secs - 10.0).abs() < 1e-9);
        let expected_std = (((100.0f64).powi(2) * 2.0) / 3.0).sqrt();
        assert!((s.std_overhead_secs - expected_std).abs() < 1e-9);
        // Overheads 40/140/240: median interpolates to 140.
        assert!((s.p50_overhead_secs - 140.0).abs() < 1e-9);
        assert!(s.p95_overhead_secs <= s.p99_overhead_secs);
        assert!(s.p99_overhead_secs <= 240.0);
    }

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v = [4.0, 1.0, 3.0, 2.0]; // sorted: 1 2 3 4
        assert!((percentile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&v, 1.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_zero_one_and_two_samples_are_deterministic() {
        // 0 samples: every quantile is the 0.0 sentinel, never NaN.
        for q in [0.0, 0.5, 1.0, f64::NAN] {
            assert_eq!(percentile(&[], q), 0.0);
        }
        // 1 sample: every quantile is that sample, even out-of-range q.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0, -3.0, 7.0] {
            assert_eq!(percentile(&[42.5], q), 42.5);
        }
        // 2 samples: straight line between them, clamped outside [0,1].
        let two = [10.0, 20.0];
        assert_eq!(percentile(&two, 0.0), 10.0);
        assert_eq!(percentile(&two, -1.0), 10.0);
        assert!((percentile(&two, 0.5) - 15.0).abs() < 1e-12);
        assert!((percentile(&two, 0.25) - 12.5).abs() < 1e-12);
        assert_eq!(percentile(&two, 1.0), 20.0);
        assert_eq!(percentile(&two, 5.0), 20.0);
    }

    #[test]
    fn percentile_sorted_is_the_kernel_of_percentile() {
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        let unsorted = [2.0, -0.0, 5.0, 0.0, 2.0, 1.0];
        let mut sorted = unsorted.to_vec();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.2, 0.5, 0.7, 1.0, -1.0, 2.0] {
            assert_eq!(
                percentile_sorted(&sorted, q).to_bits(),
                percentile(&unsorted, q).to_bits(),
                "q = {q}"
            );
        }
        assert_eq!(
            percentile_sorted(&sorted, 0.0).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn percentile_is_stable_under_nan_samples() {
        // NaNs sort last under totalOrder, so the finite quantiles of
        // any permutation agree — the sort cannot destabilise.
        let a = [f64::NAN, 1.0, 3.0, 2.0];
        let b = [3.0, 2.0, f64::NAN, 1.0];
        for q in [0.0, 0.3, 2.0 / 3.0] {
            let pa = percentile(&a, q);
            let pb = percentile(&b, q);
            assert!(pa == pb && pa.is_finite(), "q={q}: {pa} vs {pb}");
        }
        assert!((percentile(&a, 2.0 / 3.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn single_record_summary_is_deterministic() {
        let s = summarize(&[rec(0.0, 100.0, 60.0, 1, true)]);
        assert_eq!(s.jobs, 1);
        assert_eq!(s.std_overhead_secs, 0.0);
        // All overhead percentiles collapse to the single overhead (40).
        assert!((s.p50_overhead_secs - 40.0).abs() < 1e-9);
        assert!((s.p95_overhead_secs - 40.0).abs() < 1e-9);
        assert!((s.p99_overhead_secs - 40.0).abs() < 1e-9);
        assert!(s.p50_overhead_secs.is_finite());
    }

    #[test]
    fn two_record_summary_interpolates_percentiles() {
        let s = summarize(&[
            rec(0.0, 100.0, 60.0, 1, true),
            rec(0.0, 200.0, 60.0, 1, true),
        ]);
        // Overheads 40 and 140.
        assert!((s.p50_overhead_secs - 90.0).abs() < 1e-9);
        assert!((s.p95_overhead_secs - 135.0).abs() < 1e-9);
        assert!((s.p99_overhead_secs - 139.0).abs() < 1e-9);
    }
}
