//! `zkml-par`: a scoped, work-stealing parallel runtime for the proving
//! stack.
//!
//! The prover's hot kernels (Pippenger MSM windows, radix-2 NTT stages,
//! quotient-polynomial evaluation, per-column commitments) are data-parallel
//! at coarse granularity. This crate provides the substrate they all share:
//!
//! * a **global, lazily-initialized pool** sized from the available cores,
//!   overridable with the `ZKML_THREADS` environment variable;
//! * **scoped execution**: [`join`], [`par_for_each_mut`], [`par_map`],
//!   [`par_chunks_mut`] and [`for_each_chunk_exact`] accept
//!   non-`'static` closures and do not return until every spawned task has
//!   completed, so borrowed data stays valid;
//! * **work stealing** over crossbeam deques: each worker owns a LIFO deque,
//!   idle workers (and blocked callers, which *help* instead of waiting)
//!   steal from a global injector and from each other;
//! * **metrics** (tasks executed, steals, busy time) that feed the proving
//!   service's stats JSON.
//!
//! # Determinism contract
//!
//! Every primitive decomposes work into chunks whose *contents* are a pure
//! function of the input length and writes results into disjoint,
//! index-addressed slots. Field arithmetic is exact, so results are
//! bit-identical at any thread count — `ZKML_THREADS=1` and the default
//! produce the same proofs byte for byte.
//!
//! A pool constructed with one thread executes everything inline on the
//! caller with no queue traffic, which is both the serial baseline and the
//! `ZKML_THREADS=1` semantics.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work queued on the pool. Scope wrappers catch panics, so a
/// queued task never unwinds into the scheduler.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Upper bound on auto-detected threads (matches the prior `zkml_ff::par`
/// cap; beyond this the kernels' chunk sizes stop amortizing scheduling).
const MAX_AUTO_THREADS: usize = 32;

/// Tasks per thread the splitters aim for, so stealing can rebalance
/// uneven chunks.
const OVERSUBSCRIPTION: usize = 4;

// ---------------------------------------------------------------------------
// Shared pool state
// ---------------------------------------------------------------------------

struct Shared {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    threads: usize,
    /// Mutex+condvar pair workers park on when every queue is empty.
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    tasks_executed: AtomicU64,
    steals: AtomicU64,
    busy_ns: AtomicU64,
    started: Instant,
}

/// Thread-local identity of a pool worker: which pool it belongs to, its
/// index, and a pointer to its local deque (owned by the worker loop's stack
/// frame, valid for the lifetime of the thread).
#[derive(Clone, Copy)]
struct WorkerTl {
    shared: *const Shared,
    index: usize,
    local: *const Worker<Task>,
}

thread_local! {
    static WORKER: Cell<Option<WorkerTl>> = const { Cell::new(None) };
    static OVERRIDE: Cell<Option<*const Shared>> = const { Cell::new(None) };
}

impl Shared {
    fn lock_sleep(&self) -> std::sync::MutexGuard<'_, ()> {
        self.sleep.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn notify_all(&self) {
        let _g = self.lock_sleep();
        self.wake.notify_all();
    }

    fn has_visible_work(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// Parks the calling worker until new work may be available. The check
    /// under the sleep lock pairs with [`Self::notify_all`] after pushes, so
    /// a task enqueued concurrently with parking is never missed; the
    /// timeout bounds any residual race.
    fn park(&self) {
        let guard = self.lock_sleep();
        if self.has_visible_work() || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let _ = self
            .wake
            .wait_timeout(guard, Duration::from_millis(20))
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Queues a task: onto the calling worker's own deque when the caller is
    /// a worker of this pool (locality; stealers rebalance), otherwise onto
    /// the global injector.
    fn push_task(&self, task: Task) {
        let leftover = WORKER.with(|w| match w.get() {
            Some(tl) if std::ptr::eq(tl.shared, self) => {
                unsafe { &*tl.local }.push(task);
                None
            }
            _ => Some(task),
        });
        if let Some(task) = leftover {
            self.injector.push(task);
        }
    }

    fn find_task(&self, me: Option<WorkerTl>) -> Option<Task> {
        if let Some(tl) = me {
            if let Some(t) = unsafe { &*tl.local }.pop() {
                return Some(t);
            }
        }
        loop {
            match self.injector.steal() {
                Steal::Success(t) => return Some(t),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        let own = me.map(|tl| tl.index);
        for (i, s) in self.stealers.iter().enumerate() {
            if Some(i) == own {
                continue;
            }
            loop {
                match s.steal() {
                    Steal::Success(t) => {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(t);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    fn execute(&self, task: Task) {
        let t0 = Instant::now();
        task();
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs a batch of borrowed tasks to completion. The caller blocks until
    /// every task has finished — while blocked it *helps*, executing queued
    /// tasks itself — so the non-`'static` borrows inside the closures
    /// remain valid for exactly as long as they are reachable.
    fn run_scope<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        if self.threads <= 1 || n == 1 {
            for t in tasks {
                t();
            }
            return;
        }
        let latch = Arc::new(Latch::new(n));
        for t in tasks {
            // SAFETY: the erased closure (and everything it borrows) is only
            // reachable through the queues and the latch wrapper below; this
            // function does not return until the latch confirms the closure
            // has run to completion, so the 'a borrows outlive every use.
            let t: Task = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Box<dyn FnOnce() + Send>>(t)
            };
            let latch = Arc::clone(&latch);
            self.push_task(Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(t)) {
                    latch.poison(payload);
                }
                latch.complete_one();
            }));
        }
        self.notify_all();

        let me = WORKER
            .with(|w| w.get())
            .filter(|tl| std::ptr::eq(tl.shared, self));
        while !latch.is_done() {
            match self.find_task(me) {
                Some(task) => self.execute(task),
                None => latch.wait_briefly(),
            }
        }
        latch.propagate();
    }

    fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            threads: self.threads,
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            uptime_ns: self.started.elapsed().as_nanos() as u64,
        }
    }
}

/// Completion latch for one scope: counts outstanding tasks and carries the
/// first panic payload back to the scope owner.
struct Latch {
    remaining: AtomicUsize,
    done: Mutex<()>,
    cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(n),
            done: Mutex::new(()),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            let _g = self.done.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    fn wait_briefly(&self) {
        let guard = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        if !self.is_done() {
            let _ = self
                .cv
                .wait_timeout(guard, Duration::from_micros(200))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn poison(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn propagate(&self) {
        let payload = self
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

// ---------------------------------------------------------------------------
// Pool handle
// ---------------------------------------------------------------------------

/// A work-stealing thread pool.
///
/// A pool with `threads == 1` spawns no workers and executes scopes inline
/// on the caller (the serial baseline). A pool with `threads == T > 1`
/// spawns `T` worker threads; scope owners additionally help while they
/// wait, so a blocked caller is never idle.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool with the given thread count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut locals = Vec::new();
        let mut stealers = Vec::new();
        if threads > 1 {
            for _ in 0..threads {
                let w: Worker<Task> = Worker::new_lifo();
                stealers.push(w.stealer());
                locals.push(w);
            }
        }
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            threads,
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks_executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            started: Instant::now(),
        });
        let handles = locals
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("zkml-par-{index}"))
                    .spawn(move || worker_loop(shared, local, index))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of threads this pool schedules onto.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// A snapshot of the pool's scheduling metrics.
    pub fn metrics(&self) -> PoolMetrics {
        self.shared.metrics()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, local: Worker<Task>, index: usize) {
    let tl = WorkerTl {
        shared: Arc::as_ptr(&shared),
        index,
        local: &local as *const _,
    };
    WORKER.with(|w| w.set(Some(tl)));
    loop {
        if let Some(task) = shared.find_task(Some(tl)) {
            shared.execute(task);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        shared.park();
    }
    WORKER.with(|w| w.set(None));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Point-in-time scheduling metrics for a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Thread count the pool schedules onto.
    pub threads: usize,
    /// Tasks executed since the pool started (by workers and helpers).
    pub tasks_executed: u64,
    /// Successful steals from a sibling worker's deque.
    pub steals: u64,
    /// Total nanoseconds spent inside tasks, summed over threads.
    pub busy_ns: u64,
    /// Nanoseconds since the pool started.
    pub uptime_ns: u64,
}

impl PoolMetrics {
    /// Fraction of the pool's total thread-time spent inside tasks. Scope
    /// owners help execute tasks while they wait, so under heavy load this
    /// can slightly exceed 1.0 (more executors than pool threads).
    pub fn busy_fraction(&self) -> f64 {
        if self.threads == 0 || self.uptime_ns == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / (self.uptime_ns as f64 * self.threads as f64)
    }
}

// ---------------------------------------------------------------------------
// Global pool and pool resolution
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Largest thread count an explicit `ZKML_THREADS` override may request.
/// A typo like `ZKML_THREADS=100000` would otherwise try to spawn that many
/// OS threads before anything useful runs.
pub(crate) const MAX_OVERRIDE_THREADS: usize = 1024;

/// Parses a `ZKML_THREADS`-style override. Zero, garbage, and counts above
/// [`MAX_OVERRIDE_THREADS`] are rejected with a message saying why.
pub(crate) fn parse_threads(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "ZKML_THREADS={s:?} is zero; the pool always includes the calling \
             thread (use 1 for serial execution)"
        )),
        Ok(n) if n > MAX_OVERRIDE_THREADS => Err(format!(
            "ZKML_THREADS={s:?} exceeds the maximum of {MAX_OVERRIDE_THREADS}"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "ZKML_THREADS={s:?} is not a thread count (expected an integer >= 1)"
        )),
    }
}

/// Warns on stderr once per process about an invalid `ZKML_THREADS` value,
/// so a typo'd override is loud instead of silently auto-detected.
fn warn_bad_threads(msg: &str) {
    static WARNED: OnceLock<()> = OnceLock::new();
    WARNED.get_or_init(|| {
        eprintln!("zkml-par: warning: {msg}; falling back to auto-detected thread count");
    });
}

/// The thread count the global pool is created with: `ZKML_THREADS` when set
/// and valid, else the available parallelism capped at 32. An invalid
/// override (zero, unparseable, or absurdly large) is reported on stderr
/// once and then ignored in favor of auto-detection — it never aborts a
/// prove that would succeed with the default pool.
pub fn default_threads() -> usize {
    match std::env::var("ZKML_THREADS") {
        Ok(v) => match parse_threads(&v) {
            Ok(n) => return n,
            Err(msg) => warn_bad_threads(&msg),
        },
        Err(std::env::VarError::NotPresent) => {}
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_bad_threads("ZKML_THREADS is not valid UTF-8")
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(MAX_AUTO_THREADS))
        .unwrap_or(1)
}

/// The global pool, created on first use.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// Runs `f` with every `zkml-par` free function routed to `pool` instead of
/// the global pool (on this thread; pool workers executing spawned tasks
/// route to their own pool). This is how tests compare thread counts
/// in-process without touching the environment.
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    struct Reset(Option<*const Shared>);
    impl Drop for Reset {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(Some(Arc::as_ptr(&pool.shared))));
    let _reset = Reset(prev);
    f()
}

/// Resolves the pool the current thread should schedule onto: an explicit
/// [`with_pool`] override, else the pool whose worker is running this
/// thread, else the global pool.
fn with_current<R>(f: impl FnOnce(&Shared) -> R) -> R {
    if let Some(ptr) = OVERRIDE.with(|c| c.get()) {
        // SAFETY: the override is set only inside `with_pool`, whose borrow
        // of the pool outlives the override window.
        return f(unsafe { &*ptr });
    }
    if let Some(tl) = WORKER.with(|w| w.get()) {
        // SAFETY: a worker thread's pool is kept alive by the worker loop's
        // own Arc for as long as the thread (and thus this call) runs.
        return f(unsafe { &*tl.shared });
    }
    f(&global().shared)
}

/// Thread count of the pool the current thread would schedule onto.
pub fn current_threads() -> usize {
    with_current(|s| s.threads)
}

// ---------------------------------------------------------------------------
// Parallel primitives
// ---------------------------------------------------------------------------

/// Chunk length giving every thread several chunks to steal.
fn balanced_chunk(len: usize, threads: usize, min_chunk: usize) -> usize {
    len.div_ceil(threads * OVERSUBSCRIPTION)
        .max(min_chunk)
        .max(1)
}

/// Runs two closures, potentially in parallel, and returns both results.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    with_current(|shared| {
        if shared.threads <= 1 {
            return (a(), b());
        }
        let mut ra = None;
        let mut rb = None;
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                vec![Box::new(|| ra = Some(a())), Box::new(|| rb = Some(b()))];
            shared.run_scope(tasks);
        }
        (
            ra.expect("join arm a completed"),
            rb.expect("join arm b completed"),
        )
    })
}

/// Applies `f(index, &mut item)` to every element, in parallel.
pub fn par_for_each_mut<T: Send, F: Fn(usize, &mut T) + Sync>(items: &mut [T], f: F) {
    with_current(|shared| {
        let len = items.len();
        if shared.threads <= 1 || len < 2 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = balanced_chunk(len, shared.threads, 1);
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, slice)| {
                Box::new(move || {
                    for (i, item) in slice.iter_mut().enumerate() {
                        f(c * chunk + i, item);
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        shared.run_scope(tasks);
    })
}

/// Maps `f` over `0..n` in parallel and collects the results in order.
pub fn par_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    par_for_each_mut(&mut out, |i, slot| *slot = Some(f(i)));
    out.into_iter()
        .map(|x| x.expect("par_map slot filled"))
        .collect()
}

/// Splits `data` into contiguous chunks of at least `min_chunk` elements and
/// processes each in parallel with `f(chunk_index, chunk_start, chunk)`.
pub fn par_chunks_mut<T: Send, F: Fn(usize, usize, &mut [T]) + Sync>(
    data: &mut [T],
    min_chunk: usize,
    f: F,
) {
    with_current(|shared| {
        let len = data.len();
        let chunk = balanced_chunk(len, shared.threads, min_chunk);
        if shared.threads <= 1 || len <= chunk {
            f(0, 0, data);
            return;
        }
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, slice)| {
                Box::new(move || f(c, c * chunk, slice)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        shared.run_scope(tasks);
    })
}

/// Like [`par_chunks_mut`] but with caller-fixed chunk boundaries: chunk `c`
/// is exactly `data[c * chunk_size .. (c + 1) * chunk_size]` (the last chunk
/// may be shorter) regardless of thread count. Use when a precomputed
/// per-chunk value (e.g. a prefix product) must line up with the split.
pub fn for_each_chunk_exact<T: Send, F: Fn(usize, usize, &mut [T]) + Sync>(
    data: &mut [T],
    chunk_size: usize,
    f: F,
) {
    let chunk = chunk_size.max(1);
    with_current(|shared| {
        if shared.threads <= 1 || data.len() <= chunk {
            for (c, slice) in data.chunks_mut(chunk).enumerate() {
                f(c, c * chunk, slice);
            }
            return;
        }
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, slice)| {
                Box::new(move || f(c, c * chunk, slice)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        shared.run_scope(tasks);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(
            parse_threads(&MAX_OVERRIDE_THREADS.to_string()),
            Ok(MAX_OVERRIDE_THREADS)
        );
        for bad in ["0", "", "two", "-3", "4.5", "1e3", "99999999"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(err.contains("ZKML_THREADS"), "{err}");
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        with_pool(&pool, || {
            let mut v = vec![0usize; 100];
            par_for_each_mut(&mut v, |i, x| *x = i);
            assert_eq!(v[99], 99);
            assert_eq!(current_threads(), 1);
        });
        // Inline execution does not touch the queues.
        assert_eq!(pool.metrics().tasks_executed, 0);
    }

    #[test]
    fn par_map_preserves_order() {
        let pool = Pool::new(4);
        with_pool(&pool, || {
            let out = par_map(1000, |i| i * 2);
            assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
        });
        assert!(pool.metrics().tasks_executed > 0);
    }

    #[test]
    fn par_for_each_mut_touches_all() {
        let pool = Pool::new(3);
        with_pool(&pool, || {
            let mut v = vec![0usize; 777];
            par_for_each_mut(&mut v, |i, x| *x = i + 1);
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, i + 1);
            }
        });
    }

    #[test]
    fn par_chunks_offsets_are_correct() {
        let pool = Pool::new(2);
        with_pool(&pool, || {
            let mut v = vec![0usize; 513];
            par_chunks_mut(&mut v, 1, |_, start, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = start + i;
                }
            });
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, i);
            }
        });
    }

    #[test]
    fn exact_chunks_have_fixed_boundaries() {
        let pool = Pool::new(4);
        with_pool(&pool, || {
            let mut v = vec![0usize; 1000];
            for_each_chunk_exact(&mut v, 64, |c, start, chunk| {
                assert_eq!(start, c * 64);
                assert!(chunk.len() <= 64);
                for x in chunk.iter_mut() {
                    *x = c;
                }
            });
            assert_eq!(v[0], 0);
            assert_eq!(v[63], 0);
            assert_eq!(v[64], 1);
            assert_eq!(v[999], 999 / 64);
        });
    }

    #[test]
    fn join_returns_both_results() {
        let pool = Pool::new(2);
        let (a, b) = with_pool(&pool, || join(|| 6 * 7, || "ok"));
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Pool::new(2);
        with_pool(&pool, || {
            let out = par_map(8, |i| {
                // Nested parallel call from within a pool task.
                let inner = par_map(8, move |j| i * 8 + j);
                inner.iter().sum::<usize>()
            });
            let total: usize = out.iter().sum();
            assert_eq!(total, (0..64).sum());
        });
    }

    #[test]
    fn panics_propagate_to_scope_owner() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_pool(&pool, || {
                let mut v = vec![0usize; 64];
                par_for_each_mut(&mut v, |i, _| {
                    if i == 33 {
                        panic!("boom at 33");
                    }
                });
            })
        }));
        assert!(result.is_err());
        // The pool survives and keeps executing work afterwards.
        with_pool(&pool, || {
            let out = par_map(16, |i| i + 1);
            assert_eq!(out[15], 16);
        });
    }

    #[test]
    fn metrics_count_tasks_and_busy_time() {
        let pool = Pool::new(2);
        with_pool(&pool, || {
            let counter = AtomicUsize::new(0);
            let mut v = vec![0u8; 4096];
            par_chunks_mut(&mut v, 16, |_, _, chunk| {
                counter.fetch_add(chunk.len(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(100));
            });
            assert_eq!(counter.load(Ordering::Relaxed), 4096);
        });
        let m = pool.metrics();
        assert!(m.tasks_executed > 0, "tasks executed: {}", m.tasks_executed);
        assert!(m.busy_ns > 0);
        assert!(m.uptime_ns > 0);
        // Helping callers can push the fraction slightly above 1.0 (caller +
        // workers all executing), but it stays a sane ratio.
        assert!(m.busy_fraction() >= 0.0 && m.busy_fraction() < 2.0);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let serial = Pool::new(1);
        let two = Pool::new(2);
        let four = Pool::new(4);
        let run = |pool: &Pool| {
            with_pool(pool, || {
                let mapped = par_map(257, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
                let mut chunked = mapped.clone();
                par_chunks_mut(&mut chunked, 8, |_, start, chunk| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x ^= (start + i) as u64;
                    }
                });
                (mapped, chunked)
            })
        };
        let a = run(&serial);
        let b = run(&two);
        let c = run(&four);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}
