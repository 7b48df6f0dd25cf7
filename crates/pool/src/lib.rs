//! Deterministic scoped parallel execution for the DFR workspace.
//!
//! Every hot path in the reproduction — dense products in `dfr-linalg`,
//! lane groups of DPRR features and grid cells in `dfr-core`, serve
//! batches in `dfr-serve`, the dataset sweeps in `dfr-bench` — is
//! embarrassingly parallel. This crate is the one execution layer they all
//! share: a work-stealing-free fan-out built on [`std::thread::scope`] with
//! a small rayon-style API subset. Each entry point only *splits* its work
//! into jobs; one private loop runs them (spawn every job but the first,
//! run the first on the caller, mark every job as a worker, join, report
//! the earliest failure).
//!
//! # Determinism contract
//!
//! Parallel results are **bit-identical** to serial results at every thread
//! count (see `DESIGN.md` §8). The crate enforces the structural half of
//! that contract:
//!
//! * work is split into *contiguous, disjoint* index ranges, never stolen
//!   or re-balanced at runtime;
//! * [`par_map_collect`] writes each result into the slot of its input
//!   index, so collection order equals input order regardless of which
//!   thread finished first;
//! * the fallible entry points ([`par_try_chunks_mut_with`],
//!   [`par_try_parts_zip_mut`]) run every job and report the error of the
//!   *lowest index*, not the first to fail in wall-clock order;
//! * there is no concurrent accumulation: reductions happen in the caller,
//!   over the ordered results.
//!
//! Callers supply the numerical half by keeping each item's computation
//! independent of the split (no shared accumulators, same floating-point
//! summation order per item).
//!
//! # Sizing
//!
//! The fan-out width is resolved per parallel region, in priority order:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by tests
//!    to pin a region to an exact width),
//! 2. a process-wide override installed by [`set_threads`] (used by the
//!    experiment binaries' `--threads` flag),
//! 3. the `DFR_THREADS` environment variable (a positive integer; any
//!    other non-blank value panics on first use),
//! 4. [`std::thread::available_parallelism`], sampled once per process.
//!
//! The per-thread override and the environment parsing are the [`knob`]
//! helpers, which the kernel and solver selection in `dfr-linalg` share.
//!
//! A region inside a pool worker always runs serially (no nested fan-out),
//! so outer layers — e.g. a dataset sweep — claim the threads and inner
//! layers degrade gracefully instead of oversubscribing. A region that
//! itself runs serially (width 1, a single job, or nested) adds no mark of
//! its own, so a region opened inside it fans out exactly as it would
//! have outside it.
//!
//! # Example
//!
//! ```
//! let squares = dfr_pool::par_map_collect(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let serial = dfr_pool::with_threads(1, || dfr_pool::par_map_collect(&[1u64, 2], |i, _| i));
//! assert_eq!(serial, vec![0, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod knob;

use std::cell::Cell;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide thread-count override; 0 means "not set".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local override installed by [`with_threads`].
    static LOCAL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    /// Nesting depth: > 0 on a pool worker thread, where parallel regions
    /// degrade to serial execution.
    static WORKER_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Parses a `DFR_THREADS` value: a positive integer, or unset/blank.
fn threads_from_env(raw: Option<&str>) -> Option<usize> {
    let parse = |s: &str| s.parse::<usize>().ok().filter(|&n| n > 0);
    knob::parse_env("DFR_THREADS", raw, parse, "a positive integer")
}

/// `DFR_THREADS` parsed once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| threads_from_env(std::env::var("DFR_THREADS").ok().as_deref()))
}

/// [`std::thread::available_parallelism`] sampled once per process (1 if
/// unknown): the query re-reads cgroup files on every call, which costs
/// tens of microseconds — more than a small GEMM.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The thread count parallel regions started from this thread will use.
///
/// Resolution order: [`with_threads`] override → [`set_threads`] override →
/// `DFR_THREADS` → [`std::thread::available_parallelism`] → 1. The
/// environment variable and the host count are each read once per
/// process.
///
/// # Panics
///
/// Panics on first use if `DFR_THREADS` is set to anything but a positive
/// integer (blank counts as unset).
pub fn max_threads() -> usize {
    if let Some(local) = LOCAL_THREADS.with(Cell::get) {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    env_threads().unwrap_or_else(host_threads)
}

/// Installs (or with `None` clears) the process-wide thread-count override.
///
/// Intended for binaries translating a `--threads` flag; tests should prefer
/// the scoped, race-free [`with_threads`].
pub fn set_threads(threads: Option<usize>) {
    GLOBAL_THREADS.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Runs `f` with parallel regions on this thread pinned to exactly
/// `threads` workers (0 counts as 1), restoring the previous setting
/// afterwards, even if `f` unwinds.
///
/// The override is thread-local, so concurrent tests pinning different
/// widths do not interfere.
///
/// # Example
///
/// ```
/// let wide = dfr_pool::with_threads(8, dfr_pool::max_threads);
/// assert_eq!(wide, 8);
/// ```
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    knob::scoped(&LOCAL_THREADS, threads.max(1), f)
}

/// [`with_threads`] with an optional width: `Some(n)` pins parallel
/// regions to `n` workers exactly like [`with_threads`], `None` runs `f`
/// under the ambient sizing (no override installed or removed).
///
/// This is the entry point for layers that *optionally* own their width —
/// e.g. a serving session built with an explicit thread count pins it,
/// one built without inherits the process default.
///
/// # Example
///
/// ```
/// let pinned = dfr_pool::with_threads_opt(Some(3), dfr_pool::max_threads);
/// assert_eq!(pinned, 3);
/// let ambient = dfr_pool::with_threads(2, || {
///     dfr_pool::with_threads_opt(None, dfr_pool::max_threads)
/// });
/// assert_eq!(ambient, 2);
/// ```
pub fn with_threads_opt<R>(threads: Option<usize>, f: impl FnOnce() -> R) -> R {
    match threads {
        Some(t) => with_threads(t, f),
        None => f(),
    }
}

/// Thread count a region with `items` independent pieces of work will
/// actually fan out to: 1 when nested inside a worker, otherwise
/// `max_threads()` capped by `items`.
fn fan_out(items: usize) -> usize {
    if WORKER_DEPTH.with(Cell::get) > 0 {
        return 1;
    }
    max_threads().clamp(1, items.max(1))
}

/// Marks the current thread as a pool worker for a lexical scope,
/// unmarking on drop. Every job of a parallel region runs under one — the
/// caller's inline job as much as the spawned ones — so a region opened
/// inside any job runs serially instead of fanning out again.
struct WorkerMark;

impl WorkerMark {
    fn enter() -> Self {
        WORKER_DEPTH.with(|c| c.set(c.get() + 1));
        WorkerMark
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        WORKER_DEPTH.with(|c| c.set(c.get() - 1));
    }
}

/// The one fan-out loop under every entry point: runs `work` on every job
/// and returns the error of the **earliest** failing job (in `jobs` order),
/// after every job has run to completion.
///
/// Serial (`parallel == false`): the jobs run inline, in order, and the
/// caller stays unmarked, so a region opened inside a job may still fan
/// out. Parallel: every job but the first is spawned on
/// [`std::thread::scope`] and the caller runs the first itself instead of
/// idling at the join — one fewer spawn per region and no
/// runnable-but-parked caller competing for a core. Every parallel job
/// runs under a [`WorkerMark`]. Failures go to one registry that keeps the
/// lowest job index, so the reported error does not depend on which
/// thread finished first. Nothing here allocates beyond the spawns.
fn run_jobs<J, E, W>(parallel: bool, jobs: impl IntoIterator<Item = J>, work: W) -> Result<(), E>
where
    J: Send,
    E: Send,
    W: Fn(J) -> Result<(), E> + Sync,
{
    if !parallel {
        return jobs.into_iter().map(work).fold(Ok(()), Result::and);
    }
    let earliest: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let run = |k: usize, job: J| {
        let _mark = WorkerMark::enter();
        if let Err(e) = work(job) {
            let mut slot = earliest.lock().expect("failure registry poisoned");
            if slot.as_ref().map_or(true, |&(first, _)| k < first) {
                *slot = Some((k, e));
            }
        }
    };
    std::thread::scope(|s| {
        let mut jobs = jobs.into_iter().enumerate();
        let first = jobs.next();
        for (k, job) in jobs {
            let run = &run;
            s.spawn(move || run(k, job));
        }
        if let Some((k, job)) = first {
            run(k, job);
        }
    });
    match earliest.into_inner().expect("failure registry poisoned") {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Unwraps the result of a region whose jobs cannot fail.
fn infallible(r: Result<(), Infallible>) {
    if let Err(never) = r {
        match never {}
    }
}

/// Applies `f` to every item and collects the results **in input order**.
///
/// `f` receives `(index, &item)`. Items are split into contiguous blocks of
/// `⌈n/threads⌉`, one per worker, and each result is written into the slot
/// of its input index; with one thread (or inside a worker, or for a
/// single item) the loop runs inline with no spawn.
///
/// # Panics
///
/// Panics if any worker panics: [`std::thread::scope`] joins every worker
/// and then re-raises, so no work is silently dropped — but the original
/// payload is not preserved and no cross-worker ordering is guaranteed.
/// Use a fallible entry point ([`par_try_chunks_mut_with`]) where the
/// failure itself must be deterministic.
///
/// # Example
///
/// ```
/// let doubled = dfr_pool::par_map_collect(&[1.0, 2.0, 3.0], |_, x| x * 2.0);
/// assert_eq!(doubled, vec![2.0, 4.0, 6.0]);
/// ```
pub fn par_map_collect<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = fan_out(items.len());
    let block = items.len().div_ceil(threads).max(1);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let blocks = items.chunks(block).zip(slots.chunks_mut(block)).enumerate();
    infallible(run_jobs(threads > 1, blocks, |(b, (ins, outs))| {
        for (k, (item, slot)) in ins.iter().zip(outs).enumerate() {
            *slot = Some(f(b * block + k, item));
        }
        Ok(())
    }));
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot is filled by exactly one worker"))
        .collect()
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and applies `f(chunk_index, chunk)` to each, fanning the
/// chunks out over contiguous per-worker blocks.
///
/// This is the mutable-output primitive: a matrix parallelised by row bands
/// passes its backing slice with `chunk_len = band_rows * cols`, and each
/// chunk is written by exactly one worker.
///
/// # Panics
///
/// Panics if `chunk_len == 0` and `data` is non-empty.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    infallible(par_try_chunks_mut_with(
        data,
        chunk_len,
        || (),
        |i, chunk, ()| {
            f(i, chunk);
            Ok(())
        },
    ));
}

/// Fallible [`par_chunks_mut`] with **per-worker scratch state**: the
/// chunks are split into contiguous blocks of `⌈chunks/threads⌉`, one per
/// worker; `init` runs once per block (once total when the region is
/// serial) and its result is handed `&mut` to every chunk of that block.
///
/// This is the pool's half of the workspace-buffer convention (`DESIGN.md`
/// §9): expensive scratch — lane-kernel state, grid-cell feature matrices
/// — is built once per worker and reused across that worker's block,
/// never shared between workers. Conforming kernels (each chunk's result
/// independent of scratch history) are therefore unaffected by the split.
///
/// Every chunk is processed (errors are rare and terminal on these paths),
/// then the error of the **lowest chunk index** that failed is reported,
/// whatever order the workers finished in. Chunks whose kernel failed hold
/// whatever the kernel wrote before failing.
///
/// # Errors
///
/// The error produced by `f` at the lowest failing chunk index.
///
/// # Panics
///
/// Panics if `chunk_len == 0` and `data` is non-empty.
///
/// # Example
///
/// ```
/// let mut data = [0u32; 5];
/// let r: Result<(), String> =
///     dfr_pool::par_try_chunks_mut_with(&mut data, 1, Vec::new, |i, chunk, scratch: &mut Vec<usize>| {
///         scratch.push(i); // reused across the worker's block
///         chunk[0] = i as u32;
///         if i % 2 == 1 { Err(format!("odd chunk {i}")) } else { Ok(()) }
///     });
/// assert_eq!(r.unwrap_err(), "odd chunk 1");
/// assert_eq!(data, [0, 1, 2, 3, 4]);
/// ```
pub fn par_try_chunks_mut_with<T, E, S, I, F>(
    data: &mut [T],
    chunk_len: usize,
    init: I,
    f: F,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) -> Result<(), E> + Sync,
{
    if data.is_empty() {
        return Ok(());
    }
    assert!(
        chunk_len > 0,
        "chunked regions need a positive chunk length"
    );
    let chunks = data.len().div_ceil(chunk_len);
    let threads = fan_out(chunks);
    let per_block = chunks.div_ceil(threads);
    let blocks = data.chunks_mut(per_block * chunk_len).enumerate();
    run_jobs(threads > 1, blocks, |(b, block)| {
        let mut ws = init();
        block
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(k, chunk)| f(b * per_block + k, chunk, &mut ws))
            .fold(Ok(()), Result::and)
    })
}

/// Splits `data` into consecutive parts of caller-specified (possibly
/// uneven) lengths and applies `f(part_index, part)` to each part on its
/// own worker. Empty parts are skipped.
///
/// This is the load-balancing variant of [`par_chunks_mut`]: triangular
/// kernels (e.g. a symmetric Gram matrix computing only its lower
/// triangle) hand later rows more work, so equal-length chunks would leave
/// the last worker with ~2× the average load. The caller sizes the parts;
/// the pool keeps the execution policy (worker marking, nested-region
/// serial fallback, one part per job).
///
/// # Panics
///
/// Panics if `part_lens` does not sum to exactly `data.len()`.
pub fn par_parts_mut<T, F>(data: &mut [T], part_lens: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    // A `Vec` of zero-sized states never touches the heap.
    let mut states = vec![(); part_lens.len()];
    infallible(par_try_parts_zip_mut(
        data,
        part_lens,
        &mut states,
        |i, part, ()| {
            f(i, part);
            Ok(())
        },
    ));
}

/// Fallible [`par_parts_mut`] with **caller-owned per-part state**: part
/// `i` of `data` is processed as `f(i, part, &mut states[i])`, one job per
/// non-empty part (the first inline on the caller). Errors follow the
/// lowest-index contract: every part runs, and the error of the lowest
/// failing part index is reported.
///
/// This is the batch fan-out primitive of the serving layer: unlike
/// [`par_try_chunks_mut_with`], whose `init` closure rebuilds scratch at
/// every parallel region, the states here live in the **caller** and
/// survive across calls — a warm `predict_batch` re-enters with every
/// per-worker buffer already at its high-water mark, and the split is a
/// lazy iterator, so the steady state allocates nothing. The caller fixes
/// the part split deterministically; conforming kernels (each element's
/// result independent of the split and of state history) stay
/// bit-identical at every thread count.
///
/// # Errors
///
/// The error produced by `f` at the lowest failing part index.
///
/// # Panics
///
/// Panics if `part_lens` does not sum to exactly `data.len()` or if
/// `states` has fewer entries than `part_lens`.
///
/// # Example
///
/// ```
/// let mut data = [0u32; 5];
/// let mut states = vec![10u32, 20];
/// let r: Result<(), ()> = dfr_pool::par_try_parts_zip_mut(
///     &mut data,
///     &[2, 3],
///     &mut states,
///     |i, part, s| {
///         *s += 1; // persistent: the caller sees the bump after the call
///         part.fill(i as u32);
///         Ok(())
///     },
/// );
/// assert!(r.is_ok());
/// assert_eq!(data, [0, 0, 1, 1, 1]);
/// assert_eq!(states, vec![11, 21]);
/// ```
pub fn par_try_parts_zip_mut<T, S, E, F>(
    data: &mut [T],
    part_lens: &[usize],
    states: &mut [S],
    f: F,
) -> Result<(), E>
where
    T: Send,
    S: Send,
    E: Send,
    F: Fn(usize, &mut [T], &mut S) -> Result<(), E> + Sync,
{
    assert_eq!(
        part_lens.iter().sum::<usize>(),
        data.len(),
        "part lengths must cover the data exactly"
    );
    assert!(states.len() >= part_lens.len(), "need one state per part");
    let threads = fan_out(part_lens.iter().filter(|&&l| l > 0).count());
    let mut rest = data;
    let parts = part_lens
        .iter()
        .zip(states)
        .enumerate()
        .filter_map(move |(i, (&len, state))| {
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            (!part.is_empty()).then_some((i, part, state))
        });
    run_jobs(threads > 1, parts, |(i, part, state)| f(i, part, state))
}

/// Splits `total` items into the contiguous per-worker band lengths a
/// `width`-way fan-out would use (first `total % width` bands one longer),
/// written into `lens` (cleared and refilled, allocation reused at its
/// high-water mark).
///
/// The split depends only on `(total, width)` — callers that pin `width`
/// get a reproducible banding, and conforming kernels are bit-identical
/// across any banding anyway.
///
/// # Example
///
/// ```
/// let mut lens = Vec::new();
/// dfr_pool::band_lens_into(10, 4, &mut lens);
/// assert_eq!(lens, vec![3, 3, 2, 2]);
/// ```
pub fn band_lens_into(total: usize, width: usize, lens: &mut Vec<usize>) {
    lens.clear();
    if total == 0 {
        return;
    }
    let width = width.clamp(1, total);
    let base = total / width;
    let extra = total % width;
    for b in 0..width {
        lens.push(base + usize::from(b < extra));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Whether the current thread is a pool worker.
    fn in_worker() -> bool {
        WORKER_DEPTH.with(Cell::get) > 0
    }

    #[test]
    fn map_collect_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = with_threads(threads, || par_map_collect(&items, |i, &x| i * 2 + x));
            assert_eq!(out.len(), 1000);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 3 * i, "threads={threads}");
            }
        }
    }

    #[test]
    fn map_collect_handles_awkward_splits() {
        // Item counts around the thread count exercise short final blocks.
        for n in [0usize, 1, 2, 3, 7, 8, 9] {
            let items: Vec<usize> = (0..n).collect();
            let out = with_threads(8, || par_map_collect(&items, |i, _| i));
            assert_eq!(out, items);
        }
    }

    #[test]
    fn chunks_mut_visits_every_chunk_once() {
        for threads in [1, 2, 5] {
            let mut data = vec![0u32; 103];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 10, |ci, chunk| {
                    for v in chunk.iter_mut() {
                        *v += ci as u32 + 1;
                    }
                });
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, (i / 10) as u32 + 1, "threads={threads} index {i}");
            }
        }
    }

    #[test]
    fn chunks_mut_empty_and_zero_len() {
        let mut empty: Vec<u32> = Vec::new();
        par_chunks_mut(&mut empty, 0, |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "positive chunk length")]
    fn chunks_mut_rejects_zero_chunk_on_data() {
        let mut data = vec![1u32];
        par_chunks_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn parts_mut_uneven_lengths_cover_everything() {
        for threads in [1, 2, 8] {
            let mut data = vec![0u32; 20];
            with_threads(threads, || {
                par_parts_mut(&mut data, &[1, 0, 7, 12], |pi, part| {
                    for v in part.iter_mut() {
                        *v = pi as u32 + 1;
                    }
                });
            });
            let expected: Vec<u32> = std::iter::repeat(1)
                .take(1)
                .chain(std::iter::repeat(3).take(7))
                .chain(std::iter::repeat(4).take(12))
                .collect();
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "cover the data exactly")]
    fn parts_mut_rejects_wrong_total() {
        let mut data = vec![0u32; 3];
        par_parts_mut(&mut data, &[1, 1], |_, _| {});
    }

    #[test]
    fn chunks_with_initialises_once_per_worker() {
        let inits = AtomicU32::new(0);
        for threads in [1usize, 3, 8] {
            inits.store(0, Ordering::Relaxed);
            let mut out = vec![(0usize, 0usize); 24];
            let r: Result<(), ()> = with_threads(threads, || {
                par_try_chunks_mut_with(
                    &mut out,
                    1,
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0usize
                    },
                    |i, slot, seen| {
                        *seen += 1;
                        slot[0] = (i, *seen);
                        Ok(())
                    },
                )
            });
            assert!(r.is_ok());
            // One workspace per worker, reused across that worker's block.
            assert_eq!(inits.load(Ordering::Relaxed) as usize, threads.min(24));
            let block = 24usize.div_ceil(threads);
            for (slot, &(i, seen)) in out.iter().enumerate() {
                assert_eq!(slot, i);
                // `seen` counts position within the worker's block.
                assert_eq!(seen, slot % block + 1, "threads={threads} slot {slot}");
            }
        }
    }

    #[test]
    fn try_chunks_with_reports_lowest_index_error() {
        let mut data: Vec<usize> = vec![0; 40];
        for threads in [1, 4, 8] {
            let r: Result<(), usize> = with_threads(threads, || {
                par_try_chunks_mut_with(
                    &mut data,
                    1,
                    || (),
                    |i, _, _| if i % 9 == 5 { Err(i) } else { Ok(()) },
                )
            });
            assert_eq!(r.unwrap_err(), 5, "threads={threads}");
        }
    }

    #[test]
    fn try_chunks_mut_with_reports_lowest_chunk_error() {
        for threads in [1, 4] {
            let mut data = vec![0u32; 55];
            let r: Result<(), usize> = with_threads(threads, || {
                par_try_chunks_mut_with(
                    &mut data,
                    10,
                    || (),
                    |ci, chunk, _| {
                        if ci % 2 == 1 {
                            return Err(ci);
                        }
                        chunk.fill(7);
                        Ok(())
                    },
                )
            });
            assert_eq!(r.unwrap_err(), 1, "threads={threads}");
            // Every chunk ran: successful ones, after the failure too, were
            // written; failed ones were not.
            assert_eq!(data[0], 7);
            assert_eq!(data[15], 0);
            assert_eq!(data[25], 7);
        }
        let mut ok = vec![0u32; 4];
        let r: Result<(), ()> = par_try_chunks_mut_with(
            &mut ok,
            2,
            || (),
            |_, c, _| {
                c.fill(1);
                Ok(())
            },
        );
        assert!(r.is_ok());
        assert!(ok.iter().all(|&v| v == 1));
    }

    #[test]
    fn parts_zip_mut_persists_states_across_calls() {
        for threads in [1usize, 2, 8] {
            let mut data = vec![0u32; 21];
            let mut states = vec![0u32; 3];
            for round in 1..=3u32 {
                let r: Result<(), ()> = with_threads(threads, || {
                    par_try_parts_zip_mut(&mut data, &[7, 7, 7], &mut states, |pi, part, s| {
                        *s += 1; // caller-owned: accumulates across calls
                        for v in part.iter_mut() {
                            *v = pi as u32 * 100 + *s;
                        }
                        Ok(())
                    })
                });
                assert!(r.is_ok());
                assert!(
                    states.iter().all(|&s| s == round),
                    "threads={threads} round={round} states={states:?}"
                );
            }
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, (i / 7) as u32 * 100 + 3, "threads={threads} index {i}");
            }
        }
    }

    #[test]
    fn parts_zip_mut_reports_lowest_part_error() {
        for threads in [1usize, 4] {
            let mut data = vec![0u32; 12];
            let mut states = vec![(); 4];
            let r: Result<(), usize> = with_threads(threads, || {
                par_try_parts_zip_mut(&mut data, &[3, 3, 3, 3], &mut states, |pi, part, ()| {
                    if pi % 2 == 1 {
                        if pi == 1 {
                            // The lowest failure finishes last in wall-clock
                            // order and must still win.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        return Err(pi);
                    }
                    part.fill(9);
                    Ok(())
                })
            });
            assert_eq!(r.unwrap_err(), 1, "threads={threads}");
            assert_eq!(data[0], 9); // successful parts still written
            assert_eq!(data[6], 9);
        }
    }

    #[test]
    fn parts_zip_mut_skips_empty_parts_keeping_state_alignment() {
        for threads in [1usize, 8] {
            let mut data = vec![0u32; 4];
            let mut states = vec![0u32; 4];
            let r: Result<(), ()> = with_threads(threads, || {
                par_try_parts_zip_mut(&mut data, &[0, 2, 0, 2], &mut states, |pi, part, s| {
                    *s = pi as u32 + 1;
                    part.fill(pi as u32);
                    Ok(())
                })
            });
            assert!(r.is_ok());
            // Empty parts 0 and 2 → their states untouched.
            assert_eq!(states, vec![0, 2, 0, 4], "threads={threads}");
            assert_eq!(data, vec![1, 1, 3, 3], "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "state per part")]
    fn parts_zip_mut_rejects_missing_states() {
        let mut data = vec![0u32; 4];
        let mut states = vec![(); 1];
        let _: Result<(), ()> =
            par_try_parts_zip_mut(&mut data, &[2, 2], &mut states, |_, _, _| Ok(()));
    }

    #[test]
    fn band_lens_cover_and_balance() {
        let mut lens = Vec::new();
        for total in [0usize, 1, 7, 10, 64, 65] {
            for width in [1usize, 2, 4, 8, 100] {
                band_lens_into(total, width, &mut lens);
                assert_eq!(lens.iter().sum::<usize>(), total, "{total}/{width}");
                if total > 0 {
                    assert_eq!(lens.len(), width.clamp(1, total));
                    let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(hi - lo <= 1, "{total}/{width}: {lens:?}");
                }
            }
        }
        band_lens_into(10, 4, &mut lens);
        assert_eq!(lens, vec![3, 3, 2, 2]);
    }

    #[test]
    fn chunks_and_parts_mark_every_job() {
        let mut marks = vec![false; 6];
        with_threads(3, || {
            par_chunks_mut(&mut marks, 1, |_, chunk| chunk[0] = in_worker());
        });
        assert!(marks.iter().all(|&w| w));
        let mut marks = vec![false; 6];
        with_threads(3, || {
            par_parts_mut(&mut marks, &[2, 2, 2], |_, part| part.fill(in_worker()));
        });
        assert!(marks.iter().all(|&w| w));
        let mut marks = vec![false; 6];
        let mut states = vec![0usize; 3];
        let r: Result<(), ()> = with_threads(3, || {
            par_try_parts_zip_mut(&mut marks, &[2, 2, 2], &mut states, |_, part, depth| {
                part.fill(in_worker());
                *depth = WORKER_DEPTH.with(Cell::get);
                Ok(())
            })
        });
        assert!(r.is_ok());
        assert!(marks.iter().all(|&w| w));
        assert_eq!(states, vec![1, 1, 1]);
        assert!(!in_worker(), "the caller is unmarked once the region ends");
    }

    #[test]
    fn serial_regions_leave_the_caller_unmarked() {
        // Width 1 and a single item: the job runs on the unmarked caller,
        // so a region opened inside it still fans out (the 1×1 grid level
        // relies on this for its `features_for` fan-out).
        let inner = |_: usize, _: &()| {
            assert!(!in_worker());
            with_threads(4, || par_map_collect(&[(); 8], |_, _| in_worker()))
        };
        for nested in [
            with_threads(1, || par_map_collect(&[(); 3], inner)),
            with_threads(4, || par_map_collect(&[()], inner)),
        ] {
            assert!(nested.iter().flatten().all(|&w| w));
        }
        let mut data = [0u32; 2];
        let mut states = [false; 2];
        let r: Result<(), ()> = with_threads(4, || {
            par_try_parts_zip_mut(&mut data, &[2, 0], &mut states, |_, _, s| {
                *s = in_worker();
                Ok(())
            })
        });
        assert!(r.is_ok());
        assert_eq!(states, [false, false], "one non-empty part runs unmarked");
        // Nested: a region inside a worker runs serially and adds no mark
        // of its own on top of the outer job's.
        let depths = with_threads(4, || {
            par_map_collect(&[(); 4], |_, _| {
                par_map_collect(&[(); 8], |_, _| WORKER_DEPTH.with(Cell::get))
            })
        });
        assert!(depths.iter().flatten().all(|&d| d == 1), "{depths:?}");
    }

    #[test]
    fn nested_regions_run_serial() {
        let nested_width = with_threads(4, || {
            let widths = par_map_collect(&[(); 4], |_, _| {
                assert!(in_worker());
                // A region opened inside a worker must not fan out again.
                par_map_collect(&[(); 8], |_, _| in_worker()).len()
            });
            widths.into_iter().sum::<usize>()
        });
        assert_eq!(nested_width, 32);
    }

    #[test]
    fn with_threads_is_what_max_threads_returns() {
        with_threads(3, || assert_eq!(max_threads(), 3));
        with_threads(0, || assert_eq!(max_threads(), 1));
    }

    #[test]
    fn dfr_threads_parses_positive_integers_and_panics_otherwise() {
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some(" 4 ")), Some(4));
        for bad in ["four", "FOUR", "0", "-2", "4 threads", "avx2-fma"] {
            let err = std::panic::catch_unwind(|| threads_from_env(Some(bad)))
                .expect_err(bad)
                .downcast::<String>()
                .unwrap();
            assert_eq!(
                *err,
                format!("DFR_THREADS={bad}: expected a positive integer")
            );
        }
    }

    #[test]
    fn local_override_wins_over_global() {
        // GLOBAL_THREADS is process-wide, so this flip is visible to tests
        // running concurrently; every other test that asserts a width does
        // so under a local override (which wins), and results are
        // thread-count-independent by contract. The scratch thread keeps
        // this thread's local-override state untouched.
        std::thread::spawn(|| {
            set_threads(Some(2));
            assert!(max_threads() >= 1);
            with_threads(7, || assert_eq!(max_threads(), 7));
            set_threads(None);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn all_items_processed_exactly_once() {
        let hits: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        with_threads(8, || {
            par_map_collect(&hits, |_, h| h.fetch_add(1, Ordering::Relaxed));
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }
}
