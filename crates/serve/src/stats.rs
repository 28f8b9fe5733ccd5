//! Lock-free serving counters: everything increments atomically on the hot
//! path, and [`EngineStats::snapshot`] materializes a coherent point-in-time
//! view for dashboards and tests.
//!
//! Latency is tracked with the shared [`wmp_obs::Histogram`] (log-bucketed,
//! lock-free); the snapshot reports quantiles with the histogram's
//! conservative [`wmp_obs::Histogram::quantile_upper_bound`] so a latency is
//! never under-reported. Interpolated quantiles are available through the
//! engine's observability registry (`wmp_window_score_latency_us`).
//!
//! # Snapshot coherence contract
//!
//! Counters are incremented by concurrent submitters, the scoring path, and
//! the background retrainer, so a snapshot is not a single atomic cut of all
//! fields. What *is* guaranteed, by construction, is the reconciliation
//! invariant
//!
//! ```text
//! submitted >= served + failed + pending
//! ```
//!
//! for every snapshot taken through [`crate::Engine::stats`], even while
//! submissions and window scoring race with the reader. Three rules make it
//! hold:
//!
//! 1. A submission increments `submitted` **before** its query enters the
//!    pending window (and the scoring path removes the window from pending
//!    **before** incrementing `served`/`failed`), so a query is never
//!    visible as resolved or pending without its submission being visible.
//! 2. The scoring path increments `served`/`failed` with `Release`, and the
//!    snapshot loads them **first** with `Acquire` — every submission that
//!    produced a counted resolution is therefore visible by the time
//!    `submitted` is read.
//! 3. The snapshot reads `pending` under the same lock the scoring path
//!    holds to remove a window, then reads `submitted` **last** — so a
//!    query can never be double-counted as both resolved and pending, and
//!    every pending query's submission is visible.
//!
//! The engine asserts the invariant (in debug builds) on every
//! [`crate::Engine::stats`] call, and a concurrent stress test hammers it
//! from racing threads.

use std::sync::atomic::{AtomicU64, Ordering};

use wmp_obs::Histogram;

/// Shared serving telemetry. One instance lives behind the engine (and its
/// background retrainer); every field is an atomic, so request threads never
/// serialize on stats.
#[derive(Default)]
pub struct EngineStats {
    pub(crate) submitted: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) windows: AtomicU64,
    pub(crate) swaps: AtomicU64,
    pub(crate) observed: AtomicU64,
    pub(crate) retrains: AtomicU64,
    pub(crate) retrain_failures: AtomicU64,
    pub(crate) latency: Histogram,
}

impl EngineStats {
    /// Materializes a point-in-time view of every counter. `pending` is 0
    /// here; [`crate::Engine::stats`] fills it from the engine's window
    /// buffer via `EngineStats::snapshot_with_pending`, which is what
    /// upholds the [module-level coherence contract](self).
    pub fn snapshot(&self) -> StatsSnapshot {
        self.snapshot_with_pending(|| 0)
    }

    /// Snapshot with the resolution counters loaded first (`Acquire`),
    /// `pending` sampled in between, and `submitted` loaded last — the load
    /// order that makes `submitted >= served + failed + pending` hold under
    /// concurrency (see the [module docs](self)).
    pub(crate) fn snapshot_with_pending(&self, pending: impl FnOnce() -> u64) -> StatsSnapshot {
        // ordering: Acquire on served/failed pairs with the engine's
        // Release increments — everything the scorer did before resolving
        // (including removing the window from pending) is visible before
        // `pending` is sampled below.
        let served = self.served.load(Ordering::Acquire);
        let failed = self.failed.load(Ordering::Acquire); // ordering: same pairing
        let pending = pending();
        // ordering: Relaxed for the rest — advisory counters with no
        // inequality contract tied to them.
        let windows = self.windows.load(Ordering::Relaxed);
        let swaps = self.swaps.load(Ordering::Relaxed); // ordering: advisory
        let observed = self.observed.load(Ordering::Relaxed); // ordering: advisory
        let retrains = self.retrains.load(Ordering::Relaxed); // ordering: advisory
        let retrain_failures = self.retrain_failures.load(Ordering::Relaxed); // ordering: advisory
        let p50_latency_us = self.latency.quantile_upper_bound(0.50);
        let p99_latency_us = self.latency.quantile_upper_bound(0.99);
        // ordering: Relaxed — sampled last so the submitted >= served +
        // failed + pending inequality can only over-count, never under.
        let submitted = self.submitted.load(Ordering::Relaxed);
        StatsSnapshot {
            submitted,
            served,
            failed,
            pending,
            windows,
            swaps,
            observed,
            retrains,
            retrain_failures,
            p50_latency_us,
            p99_latency_us,
        }
    }
}

/// Point-in-time engine telemetry (all counters cumulative since startup,
/// except `pending` which is a live level).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries submitted via `Engine::submit`.
    pub submitted: u64,
    /// Tickets resolved with a successful prediction.
    pub served: u64,
    /// Tickets resolved with an error.
    pub failed: u64,
    /// Queries waiting for their window to close at snapshot time (level,
    /// not cumulative). Populated by `Engine::stats`; 0 from a raw
    /// `EngineStats::snapshot`.
    pub pending: u64,
    /// Workload windows scored (each resolves `window_len` tickets).
    pub windows: u64,
    /// Models the engine installed into its handle (reloads + published
    /// retrains).
    pub swaps: u64,
    /// Executed-query observations forwarded to the background retrainer.
    pub observed: u64,
    /// Background retraining passes that published a new model.
    pub retrains: u64,
    /// Background retraining passes that failed (model kept serving).
    pub retrain_failures: u64,
    /// Median window-scoring latency (µs, bucket upper bound): the closing
    /// call's histogram and regressor, plus reassignment only after a
    /// mid-window model swap — assignment itself happens in `submit`.
    pub p50_latency_us: u64,
    /// 99th-percentile window-scoring latency (µs, bucket upper bound).
    pub p99_latency_us: u64,
}

impl StatsSnapshot {
    /// Tickets resolved either way; equals `submitted` once every window is
    /// flushed — the reconciliation invariant the stress test asserts.
    pub fn resolved(&self) -> u64 {
        self.served + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn latency_quantiles_keep_the_conservative_upper_bound_contract() {
        // Regression: the pre-wmp_obs LatencyHistogram reported the bucket
        // upper bound; the absorbed histogram must preserve that behavior
        // for StatsSnapshot's p50/p99 fields.
        let stats = EngineStats::default();
        for _ in 0..99 {
            stats.latency.record_duration(Duration::from_micros(100));
        }
        stats.latency.record_duration(Duration::from_millis(50));
        let snap = stats.snapshot();
        // p50 lands in the bucket covering 100 µs: [64, 128).
        assert_eq!(snap.p50_latency_us, 127);
        assert_eq!(snap.p99_latency_us, 127);
        assert!(stats.latency.quantile_upper_bound(1.0) >= 50_000 - 1);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let stats = EngineStats::default();
        let snap = stats.snapshot();
        assert_eq!(snap.p50_latency_us, 0);
        assert_eq!(snap.p99_latency_us, 0);
    }

    #[test]
    fn sub_microsecond_records_hit_bucket_zero() {
        let h = Histogram::default();
        h.record_duration(Duration::from_nanos(10));
        assert_eq!(h.quantile_upper_bound(1.0), 0);
    }

    #[test]
    fn snapshot_reconciles() {
        let stats = EngineStats::default();
        stats.submitted.fetch_add(10, Ordering::Relaxed);
        stats.served.fetch_add(8, Ordering::Relaxed);
        stats.failed.fetch_add(2, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.resolved(), snap.submitted);
        assert_eq!(snap.pending, 0);
    }

    #[test]
    fn snapshot_with_pending_reports_the_live_level() {
        let stats = EngineStats::default();
        stats.submitted.fetch_add(10, Ordering::Relaxed);
        stats.served.fetch_add(4, Ordering::Release);
        let snap = stats.snapshot_with_pending(|| 6);
        assert_eq!(snap.pending, 6);
        assert!(snap.submitted >= snap.resolved() + snap.pending);
    }
}
