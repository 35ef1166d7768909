//! Deterministic parallel execution engine for photon-zo hot loops.
//!
//! The crate provides [`ExecPool`], a scoped worker pool built on crossbeam
//! scoped threads, plus fixed-shape reductions ([`tree_sum`],
//! [`tree_reduce`]) whose floating-point result depends only on the number of
//! elements — never on thread count or scheduling order.
//!
//! # Design
//!
//! - **Index-ordered results.** `map`/`map_with` always return results in
//!   item order. Workers pull item indices from a shared atomic cursor
//!   (dynamic load balancing) but write into per-index slots, so the output
//!   is identical to the serial evaluation regardless of interleaving.
//! - **Serial fallback.** A pool of size 1 runs the exact same closure on the
//!   caller's thread with no synchronization: serial is not a special code
//!   path bolted on, it *is* the degenerate pool.
//! - **Per-thread scratch.** [`ExecPool::map_with`] gives every worker its
//!   own scratch value built by an `init` closure, so forward-pass buffers
//!   are reused across items without cross-thread sharing.
//! - **Sizing.** [`ExecPool::from_env`] honours the `PHOTON_THREADS`
//!   environment variable, falling back to `std::thread::available_parallelism`.
//!   [`ExecPool::with_threads`] lets a config field override both.

#![warn(missing_docs)]

mod guard;

pub use guard::{run_guarded, BackoffSchedule, WatchdogPolicy};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Aggregate counters for one instrumented pool: how many map calls ran,
/// how many items they processed, and the worst observed load imbalance.
///
/// Counters are advisory telemetry — they use relaxed atomics and never
/// participate in the computation, so instrumented and uninstrumented pools
/// produce bitwise-identical results.
#[derive(Debug, Default)]
pub struct PoolMetrics {
    map_calls: AtomicU64,
    items: AtomicU64,
    peak_share_milli: AtomicU64,
}

/// A point-in-time copy of a pool's [`PoolMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// `map`/`map_with`/`map_subset` calls executed.
    pub map_calls: u64,
    /// Total items processed across all calls.
    pub items: u64,
    /// Worst per-call imbalance: the largest share (in 1/1000ths of that
    /// call's items) claimed by a single worker. 1000 means one worker
    /// processed every item — expected for serial pools and tiny inputs.
    pub peak_worker_share_milli: u64,
}

impl PoolMetrics {
    fn record_call(&self, items: u64, max_claimed: u64) {
        self.map_calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        if let Some(share) = max_claimed.saturating_mul(1000).checked_div(items) {
            self.peak_share_milli.fetch_max(share, Ordering::Relaxed);
        }
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            map_calls: self.map_calls.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            peak_worker_share_milli: self.peak_share_milli.load(Ordering::Relaxed),
        }
    }
}

/// A sized worker pool executing independent items with deterministic,
/// index-ordered results.
///
/// The pool is a lightweight description (a thread count plus an optional
/// metrics handle): threads are scoped per call, so an `ExecPool` can be
/// freely stored in configs, cloned, and shared.
#[derive(Debug, Clone)]
pub struct ExecPool {
    threads: usize,
    metrics: Option<Arc<PoolMetrics>>,
}

/// Pools compare by configuration (thread count); metrics are telemetry,
/// not identity.
impl PartialEq for ExecPool {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
    }
}

impl Eq for ExecPool {}

impl Default for ExecPool {
    fn default() -> Self {
        ExecPool::from_env()
    }
}

impl ExecPool {
    /// Pool with exactly `threads` workers (clamped to at least 1).
    ///
    /// Pool construction also forces the process-wide kernel-tier
    /// detection (see [`photon_linalg::kernel_tier`]), so the dispatch
    /// decision is made once at pool startup rather than inside a hot loop.
    pub fn new(threads: usize) -> Self {
        let _ = photon_linalg::kernel_tier();
        ExecPool {
            threads: threads.max(1),
            metrics: None,
        }
    }

    /// Single-threaded pool: every call runs inline on the caller's thread.
    pub fn serial() -> Self {
        ExecPool::new(1)
    }

    /// Attaches fresh [`PoolMetrics`] counters to this pool. Metrics are
    /// shared by clones of the instrumented pool; read them back with
    /// [`ExecPool::metrics`].
    pub fn instrumented(mut self) -> Self {
        self.metrics = Some(Arc::new(PoolMetrics::default()));
        self
    }

    /// The attached metrics, when [`ExecPool::instrumented`] was called.
    pub fn metrics(&self) -> Option<&PoolMetrics> {
        self.metrics.as_deref()
    }

    /// Pool sized from the environment: `PHOTON_THREADS` if set to a positive
    /// integer, otherwise `std::thread::available_parallelism()`.
    pub fn from_env() -> Self {
        if let Ok(v) = std::env::var("PHOTON_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return ExecPool::new(n);
                }
            }
        }
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecPool::new(n)
    }

    /// Pool sized from an optional config override, falling back to
    /// [`ExecPool::from_env`]. This is the constructor trainer configs use.
    pub fn with_threads(threads: Option<usize>) -> Self {
        match threads {
            Some(n) => ExecPool::new(n),
            None => ExecPool::from_env(),
        }
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, returning results in item order.
    ///
    /// `f` receives `(index, &item)`. Results are index-ordered and therefore
    /// independent of scheduling; with a deterministic `f`, the output is
    /// bitwise identical for every pool size.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.map_with(items, || (), |(), i, item| f(i, item))
    }

    /// Apply `f` to every item with a per-thread scratch value, returning
    /// results in item order.
    ///
    /// `init` runs once per worker thread (once total in serial mode) to
    /// build that worker's scratch; `f` receives `(&mut scratch, index,
    /// &item)`. Use the scratch for reusable forward-pass buffers so the
    /// steady state performs no per-item heap allocation.
    pub fn map_with<T, U, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> U + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            let mut scratch = init();
            let out: Vec<U> = items
                .iter()
                .enumerate()
                .map(|(i, item)| f(&mut scratch, i, item))
                .collect();
            if let Some(m) = &self.metrics {
                m.record_call(items.len() as u64, items.len() as u64);
            }
            return out;
        }

        let slots: Vec<Mutex<Option<U>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        // Telemetry only: the largest number of items any single worker
        // claimed in this call (relaxed — never read mid-call).
        let max_claimed = AtomicU64::new(0);
        let result = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let slots = &slots;
                let cursor = &cursor;
                let init = &init;
                let f = &f;
                let max_claimed = &max_claimed;
                let count_claims = self.metrics.is_some();
                handles.push(scope.spawn(move |_| {
                    let mut scratch = init();
                    let mut claimed: u64 = 0;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        claimed += 1;
                        *slots[i].lock() = Some(f(&mut scratch, i, &items[i]));
                    }
                    if count_claims {
                        max_claimed.fetch_max(claimed, Ordering::Relaxed);
                    }
                }));
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        if let Some(m) = &self.metrics {
            m.record_call(items.len() as u64, max_claimed.load(Ordering::Relaxed));
        }
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every index below items.len() is claimed exactly once")
            })
            .collect()
    }

    /// Apply `f` to the items selected by `indices` (a subset of
    /// `0..items.len()`), returning one result per selected index in
    /// `indices` order.
    ///
    /// This is the recovery-path companion to [`ExecPool::map_with`]: after a
    /// full sweep flags a few suspicious items, only those are re-evaluated,
    /// with the same determinism guarantees as the full map.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds for `items`.
    pub fn map_subset<T, U, S, I, F>(&self, items: &[T], indices: &[usize], init: I, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> U + Sync,
    {
        self.map_with(indices, init, |scratch, _, &i| f(scratch, i, &items[i]))
    }
}

/// Fixed-shape pairwise sum: the reduction tree depends only on `values.len()`,
/// so the result is bitwise identical no matter how the values were produced
/// (serially or by any number of threads).
///
/// Pairwise summation also carries better rounding behaviour than a running
/// left-to-right sum (error grows O(log n) instead of O(n)).
pub fn tree_sum(values: &[f64]) -> f64 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        2 => values[0] + values[1],
        n => {
            let mid = n / 2;
            tree_sum(&values[..mid]) + tree_sum(&values[mid..])
        }
    }
}

/// Fixed-shape pairwise reduction over owned values (e.g. gradient vectors).
///
/// `combine` is applied along a balanced binary tree whose shape depends only
/// on the input length, making the result independent of how the inputs were
/// computed. Returns `None` for an empty input.
pub fn tree_reduce<T>(values: Vec<T>, combine: &impl Fn(T, T) -> T) -> Option<T> {
    fn rec<T>(
        values: &mut Vec<Option<T>>,
        lo: usize,
        hi: usize,
        combine: &impl Fn(T, T) -> T,
    ) -> T {
        debug_assert!(lo < hi);
        if hi - lo == 1 {
            return values[lo].take().expect("each leaf is consumed once");
        }
        let mid = lo + (hi - lo) / 2;
        let left = rec(values, lo, mid, combine);
        let right = rec(values, mid, hi, combine);
        combine(left, right)
    }
    if values.is_empty() {
        return None;
    }
    let mut slots: Vec<Option<T>> = values.into_iter().map(Some).collect();
    let n = slots.len();
    Some(rec(&mut slots, 0, n, combine))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_map_agree_bitwise() {
        let items: Vec<f64> = (0..257).map(|i| (i as f64).sin()).collect();
        let f = |_: usize, x: &f64| x.exp().ln_1p() * 1.000000001;
        let serial = ExecPool::serial().map(&items, f);
        for threads in [2, 3, 4, 8] {
            let parallel = ExecPool::new(threads).map(&items, f);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn map_with_reuses_scratch_per_thread() {
        let items: Vec<usize> = (0..100).collect();
        let out = ExecPool::new(4).map_with(
            &items,
            || Vec::<usize>::with_capacity(8),
            |scratch, i, &item| {
                scratch.push(i);
                item * 2
            },
        );
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn tree_sum_matches_exact_for_small_inputs() {
        assert_eq!(tree_sum(&[]), 0.0);
        assert_eq!(tree_sum(&[1.5]), 1.5);
        assert_eq!(tree_sum(&[1.5, 2.5]), 4.0);
        assert_eq!(tree_sum(&[1.0, 2.0, 3.0]), 1.0 + (2.0 + 3.0));
    }

    #[test]
    fn tree_sum_shape_is_length_only() {
        let values: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let a = tree_sum(&values);
        let b = tree_sum(&values.clone());
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn tree_reduce_combines_all_values() {
        let got = tree_reduce((1..=10).collect::<Vec<u64>>(), &|a, b| a + b);
        assert_eq!(got, Some(55));
        assert_eq!(tree_reduce(Vec::<u64>::new(), &|a, b| a + b), None);
    }

    #[test]
    fn pool_size_one_runs_inline() {
        let pool = ExecPool::new(0);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let ids = pool.map(&[1, 2, 3], |_, _| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn map_subset_targets_selected_indices_only() {
        let items: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let indices = [3usize, 7, 42];
        for threads in [1usize, 4] {
            let out = ExecPool::new(threads).map_subset(
                &items,
                &indices,
                || (),
                |(), i, &x| (i, x * 2.0),
            );
            assert_eq!(out, vec![(3, 6.0), (7, 14.0), (42, 84.0)]);
        }
        let empty = ExecPool::new(4).map_subset(&items, &[], || (), |(), _, &x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn instrumented_pool_counts_calls_and_items() {
        let pool = ExecPool::new(4).instrumented();
        let items: Vec<u64> = (0..100).collect();
        let out = pool.map(&items, |_, &x| x + 1);
        assert_eq!(out.len(), 100);
        pool.map(&items[..10], |_, &x| x);
        let snap = pool.metrics().unwrap().snapshot();
        assert_eq!(snap.map_calls, 2);
        assert_eq!(snap.items, 110);
        assert!(snap.peak_worker_share_milli <= 1000);
        assert!(snap.peak_worker_share_milli > 0);

        // Instrumentation must not change results.
        let plain = ExecPool::new(4).map(&items, |_, &x| x + 1);
        assert_eq!(out, plain);

        // Uninstrumented pools expose no metrics.
        assert!(ExecPool::serial().metrics().is_none());

        // Serial instrumented pool: one worker claims everything.
        let serial = ExecPool::serial().instrumented();
        serial.map(&items, |_, &x| x);
        assert_eq!(
            serial.metrics().unwrap().snapshot().peak_worker_share_milli,
            1000
        );
    }

    #[test]
    fn env_override_is_honoured_via_with_threads() {
        assert_eq!(ExecPool::with_threads(Some(3)).threads(), 3);
        assert!(ExecPool::with_threads(None).threads() >= 1);
    }
}
