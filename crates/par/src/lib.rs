//! Deterministic fork-join parallelism for the dispatch pipeline.
//!
//! Three things live here:
//!
//! * [`Parallelism`] — a small configuration value saying how many worker
//!   threads a stage may use. `Parallelism::auto()` reads the
//!   `O2O_THREADS` environment variable, falling back to the machine's
//!   available parallelism; `Parallelism::sequential()` (threads = 1)
//!   recovers the single-threaded code path exactly.
//! * [`par_map`] / [`par_map_indexed`] — order-preserving parallel maps
//!   built on `std::thread::scope`. Output element `i` is always `f`
//!   applied to input element `i`, regardless of thread count, so any
//!   deterministic downstream consumer produces bit-identical results
//!   for every thread count.
//! * [`try_par_map`] / [`try_par_map_indexed`] — panic-isolated variants:
//!   workers run under `catch_unwind`, a failed chunk is retried
//!   sequentially once (transient panics self-heal), and a persistent
//!   panic surfaces as a typed [`WorkerPanic`] instead of tearing down
//!   the whole simulation.
//!
//! Work is split into contiguous chunks (one per worker) rather than
//! work-stealing: the items in this workspace (preference rows, candidate
//! pairs, policy frames) have fairly uniform cost, and contiguous chunks
//! keep the merge trivially deterministic and allocation-light.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How many threads a parallel stage may use.
///
/// This is a *cap*, not a demand: stages run sequentially when the input
/// is too small for forking to pay off, and never spawn more threads
/// than there are items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Exactly one thread: the sequential code path, bit-identical to
    /// the pre-parallel implementation.
    #[must_use]
    pub fn sequential() -> Self {
        Parallelism {
            threads: NonZeroUsize::MIN,
        }
    }

    /// A fixed thread cap. `threads` is clamped up to 1.
    #[must_use]
    pub fn fixed(threads: usize) -> Self {
        Parallelism {
            threads: NonZeroUsize::new(threads.max(1)).expect("max(1) is nonzero"),
        }
    }

    /// Thread cap from the environment: `O2O_THREADS` if set to a
    /// positive integer, otherwise the machine's available parallelism
    /// (1 if that is unknown).
    #[must_use]
    pub fn auto() -> Self {
        if let Some(n) = std::env::var("O2O_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return Parallelism::fixed(n);
        }
        Parallelism {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The configured thread cap.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Whether this configuration is the sequential path.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        self.threads.get() == 1
    }
}

impl Default for Parallelism {
    /// Defaults to [`Parallelism::auto`].
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Below this many items a fork is pure overhead; run inline instead.
const MIN_ITEMS_PER_THREAD: usize = 16;

/// Size of the contiguous chunks `len` items split into: one per worker,
/// at most `par.threads()` workers and none with fewer than
/// [`MIN_ITEMS_PER_THREAD`] items on average. `chunk >= len` means one
/// worker (run inline).
fn chunk_len(par: Parallelism, len: usize) -> usize {
    let workers = par.threads().min(len.div_ceil(MIN_ITEMS_PER_THREAD)).max(1);
    len.div_ceil(workers).max(1)
}

/// Maps `f` over `items`, preserving order, using up to
/// `par.threads()` threads.
///
/// Equivalent to `items.into_iter().map(f).collect()` — including the
/// order of results — for every thread count. `f` runs at most once per
/// item. Panics in `f` propagate.
pub fn par_map<T, U, F>(par: Parallelism, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_indexed(par, items, |_, item| f(item))
}

/// Like [`par_map`] but `f` also receives the item's index in `items`.
pub fn par_map_indexed<T, U, F>(par: Parallelism, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let len = items.len();
    let chunk = chunk_len(par, len);
    if chunk >= len {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Contiguous chunks, one per worker; chunk k covers indices
    // [k*chunk, min((k+1)*chunk, len)). Rounding chunk up can make the
    // last chunks redundant (e.g. len = 305, workers = 19 gives
    // chunk = 17 but only 18 chunks are needed), so the worker count is
    // recomputed from the chunk size — otherwise a split index could
    // exceed len. Results come back tagged with the chunk index and are
    // re-assembled in order.
    let workers = len.div_ceil(chunk);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut items = items;
    // Split back-to-front so each drain is O(chunk).
    for k in (0..workers).rev() {
        chunks.push(items.split_off((k * chunk).min(items.len())));
    }
    chunks.reverse();

    let f = &f;
    let mut out: Vec<Vec<U>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(k, chunk_items)| {
                let base = k * chunk;
                scope.spawn(move || {
                    chunk_items
                        .into_iter()
                        .enumerate()
                        .map(|(i, item)| f(base + i, item))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    let mut result = Vec::with_capacity(len);
    for part in &mut out {
        result.append(part);
    }
    result
}

/// Calls `f` once per contiguous sub-range of `0..len` — the same chunks
/// [`par_map`] would hand its workers — and returns the results in range
/// order.
///
/// For callers that build one output per chunk (say, one buffer of
/// variable-length rows) rather than one per item. The concatenation of
/// the ranges is always `0..len`, so an order-preserving merge of the
/// results is the same for every thread count; `len == 0` makes one call
/// with the empty range. Panics in `f` propagate.
pub fn par_map_ranges<U, F>(par: Parallelism, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    let chunk = chunk_len(par, len);
    if chunk >= len {
        return vec![f(0..len)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|lo| scope.spawn(move || f(lo..(lo + chunk).min(len))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map_ranges worker panicked"))
            .collect()
    })
}

/// A panic that survived [`try_par_map`]'s one sequential retry.
///
/// `first_item` is the index (in the original `items`) of the first item
/// whose retry panicked again; `message` is the panic payload rendered to
/// text (`&str` / `String` payloads verbatim, anything else a
/// placeholder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the first item that panicked even when retried alone.
    pub first_item: usize,
    /// The panic payload, rendered to text.
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker panicked on item {} (retried once): {}",
            self.first_item, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Successful output of [`try_par_map`] / [`try_par_map_indexed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParOutput<U> {
    /// `f` applied to each input item, in input order — identical to what
    /// [`par_map`] would have returned.
    pub values: Vec<U>,
    /// How many chunks (inline mode: items) panicked on the first attempt
    /// and were recovered by the sequential retry. Zero on a clean run.
    pub retried_chunks: usize,
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic-isolated [`par_map`]: workers run under `catch_unwind`, a chunk
/// whose worker panics is retried sequentially once, and a second panic
/// surfaces as a typed [`WorkerPanic`] instead of aborting the run.
///
/// On success the values are exactly what [`par_map`] returns (same
/// order, `f` observes the same indices); the only difference is the
/// failure mode. `T: Clone` pays for the retry: every chunk is cloned
/// up front so the original can be consumed by the first attempt.
///
/// Unwind-safety: `f` is re-invoked after a caught panic, so any shared
/// state it mutates must tolerate a half-completed call (the pipeline's
/// closures are pure functions of their item, which trivially qualifies).
///
/// # Errors
///
/// Returns [`WorkerPanic`] identifying the first item whose *retry* also
/// panicked.
pub fn try_par_map<T, U, F>(
    par: Parallelism,
    items: Vec<T>,
    f: F,
) -> Result<ParOutput<U>, WorkerPanic>
where
    T: Send + Clone,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    try_par_map_indexed(par, items, |_, item| f(item))
}

/// Like [`try_par_map`] but `f` also receives the item's index.
///
/// # Errors
///
/// Returns [`WorkerPanic`] identifying the first item whose retry also
/// panicked.
pub fn try_par_map_indexed<T, U, F>(
    par: Parallelism,
    items: Vec<T>,
    f: F,
) -> Result<ParOutput<U>, WorkerPanic>
where
    T: Send + Clone,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let len = items.len();
    let chunk = chunk_len(par, len);
    if chunk >= len {
        // Inline: catch per item, retry the item once.
        let mut values = Vec::with_capacity(len);
        let mut retried = 0usize;
        for (i, item) in items.into_iter().enumerate() {
            let copy = item.clone();
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(v) => values.push(v),
                Err(_) => {
                    retried += 1;
                    match catch_unwind(AssertUnwindSafe(|| f(i, copy))) {
                        Ok(v) => values.push(v),
                        Err(p) => {
                            return Err(WorkerPanic {
                                first_item: i,
                                message: panic_message(&*p),
                            })
                        }
                    }
                }
            }
        }
        return Ok(ParOutput {
            values,
            retried_chunks: retried,
        });
    }

    // Same chunk geometry as par_map_indexed, so indices and ordering
    // agree with it exactly.
    let workers = len.div_ceil(chunk);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut items = items;
    for k in (0..workers).rev() {
        chunks.push(items.split_off((k * chunk).min(items.len())));
    }
    chunks.reverse();
    let retry_copies: Vec<Vec<T>> = chunks.clone();

    let f = &f;
    let results: Vec<Result<Vec<U>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(k, chunk_items)| {
                let base = k * chunk;
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        chunk_items
                            .into_iter()
                            .enumerate()
                            .map(|(i, item)| f(base + i, item))
                            .collect::<Vec<U>>()
                    }))
                    .map_err(|p| panic_message(&*p))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker died outside catch_unwind"))
            .collect()
    });

    let mut values = Vec::with_capacity(len);
    let mut retried = 0usize;
    for (k, (result, copy)) in results.into_iter().zip(retry_copies).enumerate() {
        match result {
            Ok(mut part) => values.append(&mut part),
            Err(_) => {
                retried += 1;
                let base = k * chunk;
                for (i, item) in copy.into_iter().enumerate() {
                    match catch_unwind(AssertUnwindSafe(|| f(base + i, item))) {
                        Ok(v) => values.push(v),
                        Err(p) => {
                            return Err(WorkerPanic {
                                first_item: base + i,
                                message: panic_message(&*p),
                            })
                        }
                    }
                }
            }
        }
    }
    Ok(ParOutput {
        values,
        retried_chunks: retried,
    })
}

/// Runs the given closures concurrently (up to `par.threads()` at a
/// time) and returns their results in call order.
///
/// Convenience for heterogeneous "run these N jobs" call sites such as
/// benchmark sweeps.
pub fn par_run<U, F>(par: Parallelism, jobs: Vec<F>) -> Vec<U>
where
    U: Send,
    F: FnOnce() -> U + Send,
{
    let workers = par.threads().min(jobs.len()).max(1);
    if workers == 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    // Striped assignment: worker w takes jobs w, w+workers, ... This
    // keeps long jobs spread across workers without a queue.
    let mut slots: Vec<Option<F>> = jobs.into_iter().map(Some).collect();
    let stripes: Vec<Vec<(usize, F)>> = {
        let mut stripes: Vec<Vec<(usize, F)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, slot) in slots.iter_mut().enumerate() {
            let job = slot.take().expect("job taken once");
            stripes[i % workers].push((i, job));
        }
        stripes
    };
    let mut tagged: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .into_iter()
            .map(|stripe| {
                scope.spawn(move || {
                    stripe
                        .into_iter()
                        .map(|(i, job)| (i, job()))
                        .collect::<Vec<(usize, U)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_run worker panicked"))
            .collect()
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_len_in_order_at_every_thread_count() {
        for len in [0usize, 1, 15, 16, 17, 33, 305] {
            for threads in [1, 2, 4, 19] {
                let ranges = par_map_ranges(Parallelism::fixed(threads), len, |r| r);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "{len} × {threads}");
                assert!(ranges.len() <= threads.max(1));
                assert!(ranges.iter().all(|r| !r.is_empty()) || len == 0);
            }
        }
    }

    #[test]
    fn sequential_matches_map() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        let got = par_map(Parallelism::sequential(), items, |x| x * 3 + 1);
        assert_eq!(got, expect);
    }

    #[test]
    fn parallel_preserves_order_for_every_thread_count() {
        let items: Vec<usize> = (0..1000).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in 1..=8 {
            let got = par_map(Parallelism::fixed(threads), items.clone(), |x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn indexed_variant_sees_true_indices() {
        let items: Vec<u32> = (0..500).collect();
        let got = par_map_indexed(Parallelism::fixed(4), items, |i, x| (i, x));
        for (i, (idx, x)) in got.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*x as usize, i);
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        // len < MIN_ITEMS_PER_THREAD must not fork (observable only via
        // correctness here, but exercises the workers == 1 branch).
        let got = par_map(Parallelism::fixed(8), vec![1, 2, 3], |x| x + 1);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn every_len_threads_pair_is_panic_free_and_ordered() {
        // Regression: len = 305 at threads = 19 used to pick 19 workers
        // with chunk = 17, making split_off(18 * 17 = 306) panic. Sweep
        // lengths around chunk-rounding boundaries against a wide thread
        // range, including counts far above any real machine.
        let lens: Vec<usize> = (0..=40)
            .chain([63, 64, 65, 127, 128, 129, 255, 304, 305, 306, 500, 1000])
            .collect();
        for len in lens {
            let items: Vec<usize> = (0..len).collect();
            let expect: Vec<usize> = items.iter().map(|x| x + 7).collect();
            for threads in 1..=64 {
                let got = par_map(Parallelism::fixed(threads), items.clone(), |x| x + 7);
                assert_eq!(got, expect, "len = {len}, threads = {threads}");
            }
        }
    }

    #[test]
    fn empty_input() {
        let got: Vec<i32> = par_map(Parallelism::fixed(4), Vec::<i32>::new(), |x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn par_run_returns_in_call_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..10usize)
            .map(|i| Box::new(move || i * 7) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let got = par_run(Parallelism::fixed(3), jobs);
        assert_eq!(got, (0..10usize).map(|i| i * 7).collect::<Vec<_>>());
    }

    /// Installs a no-op panic hook for the duration of a test so the
    /// intentionally-caught panics below don't spam stderr. The hook is
    /// process-global; tests using this run with the default hook gone,
    /// which is fine because they expect their panics to be caught.
    fn quiet_panics<R>(body: impl FnOnce() -> R) -> R {
        std::panic::set_hook(Box::new(|_| {}));
        let out = body();
        let _ = std::panic::take_hook();
        out
    }

    #[test]
    fn try_par_map_matches_par_map_on_clean_runs() {
        let items: Vec<usize> = (0..700).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 11).collect();
        for threads in [1, 2, 3, 7, 16] {
            let got = try_par_map(Parallelism::fixed(threads), items.clone(), |x| x * 11).unwrap();
            assert_eq!(got.values, expect, "threads = {threads}");
            assert_eq!(got.retried_chunks, 0, "threads = {threads}");
        }
    }

    #[test]
    fn persistent_panic_surfaces_as_typed_error_with_first_item() {
        quiet_panics(|| {
            let items: Vec<usize> = (0..600).collect();
            for threads in [1, 4, 9] {
                let err =
                    try_par_map_indexed(Parallelism::fixed(threads), items.clone(), |i, x| {
                        assert!(i != 137, "poisoned item {i}");
                        x + 1
                    })
                    .unwrap_err();
                assert_eq!(err.first_item, 137, "threads = {threads}");
                assert!(
                    err.message.contains("poisoned item 137"),
                    "threads = {threads}: message was {:?}",
                    err.message
                );
            }
        });
    }

    #[test]
    fn transient_panic_is_recovered_by_the_sequential_retry() {
        use std::sync::atomic::{AtomicBool, Ordering};
        quiet_panics(|| {
            let items: Vec<usize> = (0..600).collect();
            let expect: Vec<usize> = items.iter().map(|x| x * 2).collect();
            for threads in [1, 4, 9] {
                let flaked = AtomicBool::new(false);
                let got =
                    try_par_map_indexed(Parallelism::fixed(threads), items.clone(), |i, x| {
                        if i == 42 && !flaked.swap(true, Ordering::SeqCst) {
                            panic!("transient fault");
                        }
                        x * 2
                    })
                    .unwrap();
                assert_eq!(got.values, expect, "threads = {threads}");
                assert_eq!(got.retried_chunks, 1, "threads = {threads}");
            }
        });
    }

    #[test]
    fn try_par_map_empty_input() {
        let got = try_par_map(Parallelism::fixed(4), Vec::<i32>::new(), |x| x).unwrap();
        assert!(got.values.is_empty());
        assert_eq!(got.retried_chunks, 0);
    }

    #[test]
    fn worker_panic_display_names_the_item() {
        let wp = WorkerPanic {
            first_item: 9,
            message: "boom".into(),
        };
        assert_eq!(
            wp.to_string(),
            "worker panicked on item 9 (retried once): boom"
        );
    }

    #[test]
    fn fixed_clamps_zero_to_one() {
        assert_eq!(Parallelism::fixed(0).threads(), 1);
        assert!(Parallelism::fixed(0).is_sequential());
        assert!(!Parallelism::fixed(2).is_sequential());
    }
}
