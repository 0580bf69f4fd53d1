//! Execution configuration for the parallel query engine.
//!
//! Every parallel kernel in this workspace is gated behind an
//! [`ExecConfig`]: `threads = 1` runs the exact serial code path
//! (bit-for-bit identical to the historical implementation), while
//! `threads > 1` fans work out over `std::thread::scope` workers. No
//! external thread-pool dependency is used — workers are scoped OS
//! threads pulling indices from a shared atomic counter, so the engine
//! builds anywhere the standard library does.
//!
//! Determinism note: parallel reductions in this workspace merge their
//! per-chunk partial results **in chunk order**, so for a fixed input the
//! output is identical for any `threads ≥ 2`. Floating-point sums can in
//! principle differ from the single-chain serial order in the last ulp;
//! integer-valued measures (and all bitmap/count kernels) are exact under
//! both schedules.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use kdap_obs::Obs;

use crate::error::QueryError;
use crate::govern::QueryContext;

/// How query kernels execute: serially or across a fixed number of
/// worker threads. Also carries the [`Obs`] telemetry handle and the
/// optional per-query [`QueryContext`], so every kernel that receives an
/// `ExecConfig` can record timings and poll governance limits without
/// extra parameters; neither participates in equality — configs compare
/// by thread count alone.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Number of worker threads; `1` means strictly serial execution.
    pub threads: usize,
    /// Observability handle; [`Obs::disabled`] by default, making all
    /// instrumentation a no-op.
    pub obs: Obs,
    /// Per-query governance (deadline / cancellation / memory budget);
    /// `None` by default, making every check a single branch.
    pub govern: Option<Arc<QueryContext>>,
}

impl PartialEq for ExecConfig {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
    }
}

impl Eq for ExecConfig {}

impl ExecConfig {
    /// Strictly serial execution (the default).
    pub fn serial() -> Self {
        ExecConfig {
            threads: 1,
            obs: Obs::disabled(),
            govern: None,
        }
    }

    /// Execution over `threads` workers; `0` selects the machine's
    /// available parallelism.
    pub fn with_threads(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        ExecConfig {
            threads: threads.max(1),
            obs: Obs::disabled(),
            govern: None,
        }
    }

    /// The same configuration with `obs` attached.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The same configuration governed by `ctx`.
    pub fn with_govern(mut self, ctx: Arc<QueryContext>) -> Self {
        self.govern = Some(ctx);
        self
    }

    /// True when kernels must take the serial code path.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Polls the governance context, if any. A single branch when the
    /// query is ungoverned.
    #[inline]
    pub fn check(&self, stage: &'static str) -> Result<(), QueryError> {
        match &self.govern {
            None => Ok(()),
            Some(g) => g.check(stage),
        }
    }

    /// Polls governance with stage progress (`completed` of `total`
    /// chunks/steps done). A single branch when ungoverned.
    #[inline]
    pub fn check_at(
        &self,
        stage: &'static str,
        completed: u64,
        total: u64,
    ) -> Result<(), QueryError> {
        match &self.govern {
            None => Ok(()),
            Some(g) => g.check_at(stage, completed, total),
        }
    }

    /// Charges `bytes` against the memory budget, if any. A single
    /// branch when ungoverned.
    #[inline]
    pub fn charge(&self, stage: &'static str, bytes: u64) -> Result<(), QueryError> {
        match &self.govern {
            None => Ok(()),
            Some(g) => g.charge(stage, bytes),
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::serial()
    }
}

/// Order-preserving parallel map: applies `f` to every item and returns
/// the results in input order.
///
/// With a serial config (or fewer than two items) this is a plain
/// iterator map — no threads are spawned. Otherwise `exec.threads`
/// workers — the calling thread and `threads − 1` scoped ones — pull
/// indices from a shared counter, so uneven item costs balance
/// dynamically and the caller works instead of waiting for the spawns. A
/// panic in `f` propagates to the caller.
pub fn par_map<T, R, F>(exec: &ExecConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if exec.is_serial() || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = exec.threads.min(n);
    let counter = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let i = counter.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        local
    };
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut buckets = vec![work()];
        // Infallible unless `f` itself panicked, in which case re-raising
        // the panic on the caller's thread is the contract.
        buckets.extend(handles.into_iter().map(|h| {
            #[allow(clippy::expect_used)]
            h.join().expect("parallel worker panicked")
        }));
        buckets
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        // Infallible: the shared counter hands out each index exactly once.
        .map(|r| {
            #[allow(clippy::expect_used)]
            r.expect("every index is computed exactly once")
        })
        .collect()
}

/// Splits `0..len` into contiguous ranges of at most `chunk` elements.
/// The chunking depends only on `len` and `chunk`, never on the thread
/// count — parallel reductions merge these ranges in order, making their
/// results independent of scheduling.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_config_is_default() {
        assert!(ExecConfig::default().is_serial());
        assert_eq!(ExecConfig::serial().threads, 1);
        assert!(!ExecConfig::with_threads(4).is_serial());
        assert!(ExecConfig::with_threads(0).threads >= 1);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 4, 8] {
            let exec = ExecConfig::with_threads(threads);
            let out = par_map(&exec, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_runs_one_worker_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        // Items 0 and 1 each wait (up to 10 s) until both have started,
        // so two different workers run them.
        let started = AtomicUsize::new(0);
        let ran_on = par_map(&ExecConfig::with_threads(2), &items, |i, _| {
            if i < 2 {
                started.fetch_add(1, Ordering::SeqCst);
                let give_up = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while started.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < give_up {
                    std::hint::spin_loop();
                }
            }
            std::thread::current().id()
        });
        let workers: std::collections::HashSet<_> = ran_on.iter().collect();
        assert_eq!(workers.len(), 2, "two workers");
        assert!(workers.contains(&caller), "one of them is the caller");
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let exec = ExecConfig::with_threads(4);
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&exec, &empty, |_, x| *x).is_empty());
        assert_eq!(par_map(&exec, &[7u32], |_, x| *x + 1), vec![8]);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (len, chunk) in [(0usize, 4usize), (1, 4), (4, 4), (9, 4), (4096, 1024)] {
            let ranges = chunk_ranges(len, chunk);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered);
                assert!(r.end - r.start <= chunk);
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }
}
