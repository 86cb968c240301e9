//! The model-checking engine: a depth-first exploration of bounded
//! thread interleavings *and* weak-memory read choices.
//!
//! One `model()` call runs the closure many times. Each run (an
//! *execution*) is driven by a prefix of decisions replayed from the
//! previous run; at every decision point past the prefix the engine
//! takes choice 0 and records it. When an execution ends, the deepest
//! decision with an untried alternative is bumped and everything below
//! it is discarded — classic DFS over the decision tree. Exploration is
//! complete when no decision has an untried alternative.
//!
//! Decisions come in two flavours:
//!
//! * **Scheduling** — before every atomic operation the engine may
//!   switch to any runnable thread. Switching away from a thread that
//!   could still run costs one *preemption*; executions are bounded to
//!   `LOOM_MAX_PREEMPTIONS` (default 2), which is known to catch the
//!   overwhelming majority of concurrency bugs while keeping the tree
//!   tractable (CHESS-style context bounding).
//! * **Read choice** — a load may observe any store to the location
//!   that is not excluded by coherence or happens-before. This is what
//!   models *weak memory*: a `Relaxed` store with no release edge stays
//!   invisible-or-visible nondeterministically, exactly the class of
//!   bug `SeqCst`-only interleaving search can never find.
//!
//! The memory model implemented is the C++11 release/acquire fragment
//! over vector clocks:
//!
//! * every store records its writer's clock; a store is readable iff it
//!   is not older (in modification order) than some store already known
//!   to happen-before the reader (write coherence) nor older than a
//!   store the reader already read (read coherence);
//! * `Release` stores carry the writer's vector clock; `Acquire` loads
//!   that read them join it;
//! * read-modify-writes always read the latest store (atomicity) and
//!   **continue release sequences**: an RMW inherits the release set of
//!   the store it read, whatever its own ordering, so an acquire load
//!   that reads the last of a chain of CASes synchronizes with every
//!   release in the chain.
//!
//! Deliberate simplifications (documented in shims/README.md): no
//! seq-cst total order (`SeqCst` is treated as `AcqRel`), modification
//! order equals scheduler order of the stores, `compare_exchange_weak`
//! never fails spuriously, and there are no fences.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Hard cap on virtual threads per execution (vector clocks are fixed
/// arrays of this width).
pub(crate) const MAX_THREADS: usize = 8;

/// Per-execution cap on decision points: a fixed schedule that fails to
/// terminate within this budget is livelocked (e.g. a spin loop with no
/// partner progress scheduled), which the engine reports instead of
/// hanging.
const MAX_OPS_PER_EXECUTION: usize = 100_000;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A vector clock over virtual thread ids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock([u64; MAX_THREADS]);

impl VClock {
    fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }
}

/// One store in a location's modification order.
#[derive(Clone, Debug)]
struct Store {
    val: u64,
    writer: usize,
    /// The writer's own clock component at store time; store S
    /// happens-before thread T iff `T.vc[S.writer] >= S.writer_stamp`.
    writer_stamp: u64,
    /// The release set: the union of the vector clocks of every release
    /// store in this store's release sequence. `None` for a relaxed
    /// store outside any sequence.
    release: Option<VClock>,
}

#[derive(Default)]
struct Location {
    stores: Vec<Store>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Waiting for the given thread to finish.
    Joining(usize),
    Finished,
}

struct ThreadState {
    vc: VClock,
    status: Status,
    /// Per-location index of the newest store this thread has read or
    /// written — the read-coherence floor.
    last_read: HashMap<usize, usize>,
    /// Final clock, published at thread exit for the joiner to inherit.
    final_vc: VClock,
}

impl ThreadState {
    fn new(vc: VClock) -> ThreadState {
        ThreadState {
            vc,
            status: Status::Runnable,
            last_read: HashMap::new(),
            final_vc: VClock::default(),
        }
    }
}

/// A decision point: `chosen` out of `options` alternatives.
#[derive(Clone, Copy, Debug)]
struct Decision {
    options: usize,
    chosen: usize,
}

pub(crate) struct ExecState {
    threads: Vec<ThreadState>,
    locations: Vec<Location>,
    current: usize,
    schedule: Vec<Decision>,
    prefix: Vec<usize>,
    cursor: usize,
    preemptions: usize,
    max_preemptions: usize,
    aborted: bool,
    done: bool,
    panic_payload: Option<Box<dyn Any + Send>>,
    /// OS handles of every spawned virtual thread (drained by the
    /// driver after each execution).
    handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Inner {
    pub(crate) state: Mutex<ExecState>,
    cv: Condvar,
}

/// Sentinel panic payload used to unwind threads of an aborted
/// execution; never surfaced to the user.
struct AbortSentinel;

thread_local! {
    static CTX: RefCell<Option<(Arc<Inner>, usize)>> = const { RefCell::new(None) };
}

pub(crate) fn with_ctx<R>(f: impl FnOnce(&Arc<Inner>, usize) -> R) -> R {
    CTX.with(|c| {
        let ctx = c.borrow();
        let (inner, tid) = ctx
            .as_ref()
            .expect("loom primitives may only be used inside loom::model");
        f(inner, *tid)
    })
}

fn lock(inner: &Inner) -> MutexGuard<'_, ExecState> {
    // A panicking model thread is routine (that is how failures
    // surface); ignore std mutex poisoning.
    inner
        .state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Inner {
    fn new(prefix: Vec<usize>, max_preemptions: usize) -> Inner {
        Inner {
            state: Mutex::new(ExecState {
                threads: vec![ThreadState::new(VClock::default())],
                locations: Vec::new(),
                current: 0,
                schedule: Vec::new(),
                prefix,
                cursor: 0,
                preemptions: 0,
                max_preemptions,
                aborted: false,
                done: false,
                panic_payload: None,
                handles: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }
}

/// Takes the next decision. Replays the prefix, then defaults to 0.
fn decide(st: &mut ExecState, options: usize) -> usize {
    debug_assert!(options >= 1);
    let chosen = if st.cursor < st.prefix.len() {
        st.prefix[st.cursor]
    } else {
        0
    };
    debug_assert!(chosen < options, "nondeterministic replay");
    st.schedule.push(Decision { options, chosen });
    st.cursor += 1;
    chosen
}

fn runnable_after(st: &ExecState, me: usize) -> Vec<usize> {
    // `me` first (choice 0 = keep running, no preemption), then the
    // rest in tid order — deterministic across replays.
    let mut out = Vec::new();
    if st.threads[me].status == Status::Runnable {
        out.push(me);
    }
    out.extend(
        (0..st.threads.len()).filter(|&t| t != me && st.threads[t].status == Status::Runnable),
    );
    out
}

fn abort(inner: &Inner, st: &mut ExecState, payload: Box<dyn Any + Send>) {
    st.aborted = true;
    if st.panic_payload.is_none() {
        st.panic_payload = Some(payload);
    }
    inner.cv.notify_all();
}

/// Parks the calling thread until it is scheduled again (or the
/// execution aborts, in which case it unwinds with the sentinel).
fn wait_for_baton<'a>(
    inner: &'a Inner,
    mut st: MutexGuard<'a, ExecState>,
    me: usize,
) -> MutexGuard<'a, ExecState> {
    while st.current != me && !st.aborted {
        st = inner
            .cv
            .wait(st)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
    if st.aborted {
        drop(st);
        std::panic::panic_any(AbortSentinel);
    }
    st
}

/// The scheduling point run before every visible operation: maybe
/// switch to another runnable thread (bounded preemptions), then return
/// with the baton held and the lock re-acquired.
fn sched_point<'a>(
    inner: &'a Inner,
    mut st: MutexGuard<'a, ExecState>,
    me: usize,
) -> MutexGuard<'a, ExecState> {
    if st.aborted {
        drop(st);
        std::panic::panic_any(AbortSentinel);
    }
    if st.schedule.len() >= MAX_OPS_PER_EXECUTION {
        abort(
            inner,
            &mut st,
            Box::new(format!(
                "loom: execution exceeded {MAX_OPS_PER_EXECUTION} operations — livelock under \
                 the current schedule?"
            )),
        );
        drop(st);
        std::panic::panic_any(AbortSentinel);
    }
    let candidates = runnable_after(&st, me);
    debug_assert_eq!(candidates.first(), Some(&me), "caller must be runnable");
    let candidates = if st.preemptions >= st.max_preemptions {
        vec![me]
    } else {
        candidates
    };
    if candidates.len() > 1 {
        let c = decide(&mut st, candidates.len());
        let target = candidates[c];
        if target != me {
            st.preemptions += 1;
            st.current = target;
            inner.cv.notify_all();
            st = wait_for_baton(inner, st, me);
        }
    }
    st
}

/// Runs `f` under the execution lock after a scheduling point. The
/// closure performs one atomic operation's worth of state mutation.
pub(crate) fn atomic_op<R>(f: impl FnOnce(&mut ExecState, usize) -> R) -> R {
    with_ctx(|inner, me| {
        let st = lock(inner);
        let mut st = sched_point(inner, st, me);
        f(&mut st, me)
    })
}

/// A bare scheduling point with no memory effect (`yield_now`).
pub(crate) fn yield_point() {
    atomic_op(|_, _| ());
}

fn ord_acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn ord_releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

// ---------------------------------------------------------------------
// Memory operations (called by the atomic wrappers with the lock held).
// ---------------------------------------------------------------------

/// Registers a new atomic location; returns its id. Not a scheduling
/// point — creation is invisible to other threads until published.
pub(crate) fn new_location(init: u64) -> usize {
    with_ctx(|inner, me| {
        let mut st = lock(inner);
        let id = st.locations.len();
        let stamp = {
            let vc = &mut st.threads[me].vc;
            vc.0[me] += 1;
            vc.0[me]
        };
        st.locations.push(Location {
            stores: vec![Store {
                val: init,
                writer: me,
                writer_stamp: stamp,
                release: None,
            }],
        });
        st.threads[me].last_read.insert(id, 0);
        id
    })
}

/// The read-coherence floor: the newest store the thread must not read
/// behind (already-read stores and stores known via happens-before).
fn floor_of(st: &ExecState, me: usize, id: usize) -> usize {
    let loc = &st.locations[id];
    let vc = &st.threads[me].vc;
    let hb_floor = loc
        .stores
        .iter()
        .rposition(|s| s.writer_stamp <= vc.0[s.writer])
        .unwrap_or(0);
    let read_floor = st.threads[me].last_read.get(&id).copied().unwrap_or(0);
    hb_floor.max(read_floor)
}

pub(crate) fn load(st: &mut ExecState, me: usize, id: usize, ord: Ordering) -> u64 {
    let floor = floor_of(st, me, id);
    let n = st.locations[id].stores.len() - floor;
    let choice = if n > 1 { decide(st, n) } else { 0 };
    let idx = floor + choice;
    st.threads[me].last_read.insert(id, idx);
    let (val, release) = {
        let s = &st.locations[id].stores[idx];
        (s.val, s.release)
    };
    if ord_acquires(ord) {
        if let Some(rel) = &release {
            st.threads[me].vc.join(rel);
        }
    }
    val
}

pub(crate) fn store(st: &mut ExecState, me: usize, id: usize, val: u64, ord: Ordering) {
    let stamp = {
        let vc = &mut st.threads[me].vc;
        vc.0[me] += 1;
        vc.0[me]
    };
    let release = ord_releases(ord).then(|| st.threads[me].vc);
    let idx = st.locations[id].stores.len();
    st.locations[id].stores.push(Store {
        val,
        writer: me,
        writer_stamp: stamp,
        release,
    });
    st.threads[me].last_read.insert(id, idx);
}

/// Read-modify-write: reads the newest store (atomicity), applies `f`,
/// appends the result, and continues the release sequence.
pub(crate) fn rmw(
    st: &mut ExecState,
    me: usize,
    id: usize,
    ord: Ordering,
    f: impl FnOnce(u64) -> u64,
) -> u64 {
    let (old, inherited) = {
        let s = st.locations[id].stores.last().expect("initialized");
        (s.val, s.release)
    };
    if ord_acquires(ord) {
        if let Some(rel) = &inherited {
            st.threads[me].vc.join(rel);
        }
    }
    let stamp = {
        let vc = &mut st.threads[me].vc;
        vc.0[me] += 1;
        vc.0[me]
    };
    // Release sequence: the new store carries the read store's release
    // set even when this RMW is relaxed; a releasing RMW adds its own
    // clock on top.
    let release = match (ord_releases(ord), inherited) {
        (true, Some(mut r)) => {
            r.join(&st.threads[me].vc);
            Some(r)
        }
        (true, None) => Some(st.threads[me].vc),
        (false, inh) => inh,
    };
    let idx = st.locations[id].stores.len();
    st.locations[id].stores.push(Store {
        val: f(old),
        writer: me,
        writer_stamp: stamp,
        release,
    });
    st.threads[me].last_read.insert(id, idx);
    old
}

/// Compare-exchange: success path is an RMW with `success` ordering,
/// failure path a load of the newest store with `failure` ordering.
pub(crate) fn compare_exchange(
    st: &mut ExecState,
    me: usize,
    id: usize,
    expected: u64,
    new: u64,
    success: Ordering,
    failure: Ordering,
) -> Result<u64, u64> {
    let (cur, release) = {
        let s = st.locations[id].stores.last().expect("initialized");
        (s.val, s.release)
    };
    if cur == expected {
        Ok(rmw(st, me, id, success, |_| new))
    } else {
        if ord_acquires(failure) {
            if let Some(rel) = &release {
                st.threads[me].vc.join(rel);
            }
        }
        let idx = st.locations[id].stores.len() - 1;
        st.threads[me].last_read.insert(id, idx);
        Err(cur)
    }
}

// ---------------------------------------------------------------------
// Threads.
// ---------------------------------------------------------------------

pub(crate) struct JoinHandle<T> {
    target: usize,
    result: Arc<Mutex<Option<T>>>,
    inner: Arc<Inner>,
}

pub(crate) fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    with_ctx(|inner, me| {
        let mut st = lock(inner);
        let child = st.threads.len();
        assert!(
            child < MAX_THREADS,
            "loom shim supports at most {MAX_THREADS} threads per model"
        );
        // Spawn edge: everything the parent did happens-before the
        // child's first operation.
        let mut vc = st.threads[me].vc;
        vc.0[me] += 1;
        st.threads[me].vc = vc;
        st.threads.push(ThreadState::new(vc));
        let result = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&result);
        let inner2 = Arc::clone(inner);
        let handle = std::thread::Builder::new()
            .name(format!("loom-{child}"))
            .spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&inner2), child)));
                // Wait to be scheduled for the first time.
                let outcome = {
                    let st = lock(&inner2);
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let st = wait_for_baton(&inner2, st, child);
                        drop(st);
                        f()
                    }));
                    r
                };
                match outcome {
                    Ok(v) => {
                        *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(v);
                        thread_done(&inner2, child, None);
                    }
                    Err(p) if p.is::<AbortSentinel>() => thread_done(&inner2, child, None),
                    Err(p) => thread_done(&inner2, child, Some(p)),
                }
                CTX.with(|c| *c.borrow_mut() = None);
            })
            .expect("spawn loom worker");
        st.handles.push(handle);
        JoinHandle {
            target: child,
            result,
            inner: Arc::clone(inner),
        }
    })
}

/// Marks `me` finished, wakes joiners, and hands the baton on (or ends
/// the execution). `payload` carries a user panic, which aborts the
/// whole execution and becomes the model's failure.
pub(crate) fn thread_done(inner: &Inner, me: usize, payload: Option<Box<dyn Any + Send>>) {
    let mut st = lock(inner);
    st.threads[me].final_vc = st.threads[me].vc;
    st.threads[me].status = Status::Finished;
    if let Some(p) = payload {
        abort(inner, &mut st, p);
        return;
    }
    if st.aborted {
        inner.cv.notify_all();
        return;
    }
    for t in 0..st.threads.len() {
        if st.threads[t].status == Status::Joining(me) {
            st.threads[t].status = Status::Runnable;
        }
    }
    let runnable = runnable_after(&st, me); // me is Finished, so excluded
    if !runnable.is_empty() {
        let c = if runnable.len() > 1 {
            decide(&mut st, runnable.len())
        } else {
            0
        };
        st.current = runnable[c];
        inner.cv.notify_all();
    } else if st.threads.iter().all(|t| t.status == Status::Finished) {
        st.done = true;
        inner.cv.notify_all();
    } else {
        abort(
            inner,
            &mut st,
            Box::new("loom: deadlock — every live thread is blocked".to_string()),
        );
    }
}

impl<T> JoinHandle<T> {
    pub(crate) fn join_impl(self) -> T {
        let me = with_ctx(|_, tid| tid);
        let inner = Arc::clone(&self.inner);
        let mut st = lock(&inner);
        loop {
            if st.aborted {
                drop(st);
                std::panic::panic_any(AbortSentinel);
            }
            if st.threads[self.target].status == Status::Finished {
                let final_vc = st.threads[self.target].final_vc;
                st.threads[me].vc.join(&final_vc);
                drop(st);
                break;
            }
            // Block until the target exits; the switch is forced, so it
            // costs no preemption.
            st.threads[me].status = Status::Joining(self.target);
            let runnable = runnable_after(&st, me);
            if runnable.is_empty() {
                abort(
                    &inner,
                    &mut st,
                    Box::new("loom: deadlock — join with no runnable thread".to_string()),
                );
                drop(st);
                std::panic::panic_any(AbortSentinel);
            }
            let c = if runnable.len() > 1 {
                decide(&mut st, runnable.len())
            } else {
                0
            };
            st.current = runnable[c];
            inner.cv.notify_all();
            st = wait_for_baton(&inner, st, me);
        }
        self.result
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .expect("joined thread left no result")
    }
}

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

/// Explores all executions of `f` within the preemption bound. Panics
/// (re-raising the model thread's panic) if any execution fails.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let f = Arc::new(f);
    let max_preemptions = env_usize("LOOM_MAX_PREEMPTIONS", 2);
    let max_iterations = env_usize("LOOM_MAX_ITERATIONS", 100_000);
    let mut prefix: Vec<usize> = Vec::new();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        assert!(
            iterations <= max_iterations,
            "loom: exceeded {max_iterations} executions without exhausting the schedule \
             space; shrink the model or raise LOOM_MAX_ITERATIONS"
        );
        let inner = Arc::new(Inner::new(std::mem::take(&mut prefix), max_preemptions));
        let f0 = Arc::clone(&f);
        let inner0 = Arc::clone(&inner);
        let main = std::thread::Builder::new()
            .name("loom-0".into())
            .spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&inner0), 0)));
                let outcome = catch_unwind(AssertUnwindSafe(|| f0()));
                match outcome {
                    Ok(()) => thread_done(&inner0, 0, None),
                    Err(p) if p.is::<AbortSentinel>() => thread_done(&inner0, 0, None),
                    Err(p) => thread_done(&inner0, 0, Some(p)),
                }
                CTX.with(|c| *c.borrow_mut() = None);
            })
            .expect("spawn loom main");
        main.join().expect("loom main wrapper never panics");
        // Drain the spawned workers; after abort or completion they all
        // exit promptly (parked threads unwind via the sentinel).
        loop {
            let handle = {
                let mut st = lock(&inner);
                st.handles.pop()
            };
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        let mut st = lock(&inner);
        if let Some(p) = st.panic_payload.take() {
            let depth = st.schedule.len();
            drop(st);
            eprintln!(
                "loom: model failed on execution {iterations} ({depth} decision points); \
                 decision path: see LOOM_MAX_PREEMPTIONS / LOOM_MAX_ITERATIONS to widen or \
                 narrow the search"
            );
            resume_unwind(p);
        }
        // Backtrack: bump the deepest decision with an untried branch.
        let mut schedule = std::mem::take(&mut st.schedule);
        drop(st);
        while let Some(last) = schedule.last_mut() {
            if last.chosen + 1 < last.options {
                last.chosen += 1;
                break;
            }
            schedule.pop();
        }
        if schedule.is_empty() {
            return; // exploration complete
        }
        prefix = schedule.iter().map(|d| d.chosen).collect();
    }
}
