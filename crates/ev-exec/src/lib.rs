//! Work-stealing thread-pool executor for the EV-Matching pipelines.
//!
//! The paper's §V distributes set splitting and VID filtering over a
//! MapReduce cluster; this crate is the *real-thread* substrate for
//! that design. The stage-DAG scheduler (`ev_mapreduce::dag`) is its
//! one client: the one-submission matching pipeline and the parallel
//! EDP baseline both run as stage graphs on it, so lineage and retry
//! logic drive actual OS threads. The crate is intentionally
//! zero-dependency (std only) and `forbid`s unsafe code.
//!
//! # Execution model
//!
//! An [`Executor`] is only a thread-count; every
//! [`session`](Executor::session) call spins up that many scoped
//! workers, so borrowed closures work without `'static` bounds and
//! nothing outlives the call.
//!
//! * **Per-worker deques.** Each worker owns a `Mutex<VecDeque>` of
//!   `(task id, payload)` entries. The driver pushes submissions
//!   round-robin (or pinned via [`SessionHandle::submit_to`]). Owners
//!   pop from the *front* (oldest first).
//! * **Steal-half.** An idle worker scans the other deques in ring
//!   order and, on finding a non-empty victim, takes the newest
//!   ⌈len/2⌉ entries in one lock acquisition — the victim keeps the
//!   oldest half it is about to reach anyway. Two queue locks are never
//!   held at once, so the protocol cannot deadlock.
//! * **Channel-based collection.** Workers push
//!   [`Completion`]s into one lock+condvar channel the driver drains
//!   with [`SessionHandle::recv`]; `recv` returns `None` exactly when
//!   every submitted task has been delivered, so drivers cannot hang on
//!   an empty session.
//! * **Panic isolation.** Each task runs under
//!   [`std::panic::catch_unwind`]; a panicking task yields an
//!   `Err(`[`TaskPanic`]`)` completion and its worker keeps serving the
//!   queue. `ev-mapreduce` maps such completions onto its failed-attempt
//!   retry path.
//! * **Deterministic merge.** Results are keyed by the caller's task
//!   id ([`Completion::task`]), so a driver that places them by id gets
//!   outputs that never depend on which worker ran what when.
//! * **Shutdown.** When the driver returns (or unwinds), a guard flips
//!   the shutdown flag and wakes every parked worker; tasks still queued
//!   are dropped without running (counted in
//!   [`ExecStats::tasks_dropped`]) and the scope joins all threads
//!   before the session returns.
//!
//! # Example
//!
//! ```
//! use ev_exec::Executor;
//!
//! let exec = Executor::new(4);
//! let (squares, stats) = exec.session(
//!     |_ctx, x: u64| x * x,
//!     |handle| {
//!         handle.submit_batch((0u64..64).map(|i| (i, i)));
//!         let mut squares = vec![0; 64];
//!         while let Some(done) = handle.recv() {
//!             squares[done.task as usize] = done.result.unwrap();
//!         }
//!         squares
//!     },
//! );
//! assert_eq!(squares[7], 49);
//! assert_eq!(stats.tasks_executed, 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Caller-chosen identifier a completion is keyed by.
pub type TaskId = u64;

/// Callbacks invoked from inside worker threads, letting embedders
/// (e.g. `ev-mapreduce`'s telemetry bridge) observe steals and task
/// completions without this crate growing a telemetry dependency.
///
/// All methods default to no-ops. Implementations must be cheap and
/// must not panic (they run on the worker hot path, outside the task's
/// `catch_unwind` isolation).
pub trait ExecObserver: Sync {
    /// Whether workers should time each task attempt (two monotonic
    /// clock reads per task). When `false`, `task_finished` receives
    /// `dur_ns == 0`.
    fn wants_timing(&self) -> bool {
        false
    }

    /// A successful steal moved `moved` tasks from `victim`'s deque to
    /// `thief` (the first of which `thief` runs immediately).
    fn steal(&self, _thief: usize, _victim: usize, _moved: usize) {}

    /// A task was submitted to `worker`'s deque. Unlike the other
    /// callbacks this fires on the *driver* thread (submission is a
    /// driver-side act); stage schedulers use it to count scheduled
    /// attempts without threading a counter through every submit site.
    fn task_submitted(&self, _worker: usize, _task: TaskId) {}

    /// A task attempt finished on `ctx.worker` (panicked ones
    /// included).
    fn task_finished(&self, _ctx: WorkerCtx, _dur_ns: u64, _panicked: bool) {}
}

/// The default observer: observes nothing, requests no timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl ExecObserver for NoopObserver {}

/// Identity of the worker running a task, passed to the work closure
/// (telemetry consumers label per-worker spans with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCtx {
    /// Worker index in `0..threads`.
    pub worker: usize,
    /// The task id the closure is running.
    pub task: TaskId,
}

/// A task that panicked; the payload is the panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Best-effort panic payload rendered to text.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// One finished task delivered to the driver.
#[derive(Debug)]
pub struct Completion<T> {
    /// The id the task was submitted under.
    pub task: TaskId,
    /// The closure's return value, or the isolated panic.
    pub result: Result<T, TaskPanic>,
}

/// Counters describing one session's execution, which `ev-mapreduce`'s
/// scheduler exports as the canonical `evm_exec_*` metrics.
///
/// # Snapshot guarantee
///
/// The stats are taken by `Shared::into_stats`, which consumes the
/// session state **by value** after `thread::scope` has joined every
/// worker — the borrow checker itself proves no worker can still be
/// incrementing a counter. They are therefore an *exact* post-join
/// snapshot, not a racy sample:
///
/// * `tasks_executed + tasks_dropped` equals the number of tasks
///   submitted, exactly;
/// * `per_worker_executed` sums to `tasks_executed`, exactly;
/// * `tasks_stolen >= steal_ops` (each successful steal moves at least
///   one task), and both are `0` when `threads == 1` (there is no
///   victim to steal from).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Worker threads the session ran with.
    pub threads: usize,
    /// Task attempts actually run (including panicked ones).
    pub tasks_executed: u64,
    /// Tasks whose closure panicked (isolated, reported as `Err`).
    pub tasks_panicked: u64,
    /// Successful steal operations (each moves a batch).
    pub steal_ops: u64,
    /// Tasks moved between deques by steals.
    pub tasks_stolen: u64,
    /// High-water mark of any single worker deque's depth.
    pub queue_depth_peak: u64,
    /// Tasks still queued when the session shut down (never run).
    pub tasks_dropped: u64,
    /// Tasks executed per worker, indexed by worker id.
    pub per_worker_executed: Vec<u64>,
}

struct Shared<I, T> {
    queues: Vec<Mutex<VecDeque<(TaskId, I)>>>,
    /// Guards the park condvar; holds no data — the wait predicate reads
    /// `pending`/`shutdown` under this lock to avoid lost wake-ups.
    park: Mutex<()>,
    park_cv: Condvar,
    /// Tasks sitting in some deque, not yet claimed for execution.
    pending: AtomicU64,
    shutdown: AtomicBool,
    completions: Mutex<VecDeque<Completion<T>>>,
    completions_cv: Condvar,
    /// Submitted minus delivered-to-driver.
    outstanding: AtomicU64,
    executed: Vec<AtomicU64>,
    panicked: AtomicU64,
    steal_ops: AtomicU64,
    tasks_stolen: AtomicU64,
    depth_peak: AtomicU64,
}

impl<I, T> Shared<I, T> {
    fn new(threads: usize) -> Self {
        Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: Mutex::new(()),
            park_cv: Condvar::new(),
            pending: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            completions: Mutex::new(VecDeque::new()),
            completions_cv: Condvar::new(),
            outstanding: AtomicU64::new(0),
            executed: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            panicked: AtomicU64::new(0),
            steal_ops: AtomicU64::new(0),
            tasks_stolen: AtomicU64::new(0),
            depth_peak: AtomicU64::new(0),
        }
    }

    fn note_depth(&self, depth: usize) {
        self.depth_peak.fetch_max(depth as u64, Ordering::Relaxed);
    }

    fn push_task(&self, worker: usize, id: TaskId, payload: I) {
        let depth = {
            let mut q = self.queues[worker].lock().expect("queue lock");
            q.push_back((id, payload));
            q.len()
        };
        self.note_depth(depth);
        self.pending.fetch_add(1, Ordering::Release);
        // Wake-up protocol: workers only wait after re-checking
        // `pending`/`shutdown` under the park lock, so taking the lock
        // here (after the increment) guarantees no wake-up is lost.
        let _guard = self.park.lock().expect("park lock");
        self.park_cv.notify_all();
    }

    /// Claims one task for worker `w`: own deque first (oldest entry),
    /// else steal the newest half of the first non-empty victim.
    fn find_task(&self, w: usize, observer: &dyn ExecObserver) -> Option<(TaskId, I)> {
        if let Some(task) = {
            let mut own = self.queues[w].lock().expect("queue lock");
            own.pop_front()
        } {
            self.pending.fetch_sub(1, Ordering::Release);
            return Some(task);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (w + offset) % n;
            let mut stolen = {
                let mut vq = self.queues[victim].lock().expect("queue lock");
                let len = vq.len();
                if len == 0 {
                    continue;
                }
                vq.split_off(len - len.div_ceil(2))
            };
            self.steal_ops.fetch_add(1, Ordering::Relaxed);
            self.tasks_stolen
                .fetch_add(stolen.len() as u64, Ordering::Relaxed);
            observer.steal(w, victim, stolen.len());
            let task = stolen.pop_front().expect("stole at least one task");
            self.pending.fetch_sub(1, Ordering::Release);
            if !stolen.is_empty() {
                let depth = {
                    let mut own = self.queues[w].lock().expect("queue lock");
                    own.append(&mut stolen);
                    own.len()
                };
                self.note_depth(depth);
            }
            return Some(task);
        }
        None
    }

    fn park(&self) {
        let guard = self.park.lock().expect("park lock");
        if self.shutdown.load(Ordering::Acquire) || self.pending.load(Ordering::Acquire) > 0 {
            return;
        }
        // Condvars may wake spuriously; the worker loop re-scans and
        // parks again, so a single wait (no loop) is sufficient here.
        drop(self.park_cv.wait(guard).expect("park wait"));
    }

    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _guard = self.park.lock().expect("park lock");
        self.park_cv.notify_all();
    }

    fn deliver(&self, completion: Completion<T>) {
        let mut q = self.completions.lock().expect("completions lock");
        q.push_back(completion);
        self.completions_cv.notify_all();
    }

    fn worker_loop<F>(&self, w: usize, work: &F, observer: &dyn ExecObserver)
    where
        F: Fn(WorkerCtx, I) -> T + Sync,
    {
        let timing = observer.wants_timing();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            match self.find_task(w, observer) {
                Some((task, payload)) => {
                    let ctx = WorkerCtx { worker: w, task };
                    let start = if timing { Some(Instant::now()) } else { None };
                    let outcome = catch_unwind(AssertUnwindSafe(|| work(ctx, payload)));
                    let dur_ns = start.map_or(0, |s| {
                        u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
                    });
                    self.executed[w].fetch_add(1, Ordering::Relaxed);
                    observer.task_finished(ctx, dur_ns, outcome.is_err());
                    let result = outcome.map_err(|panic| {
                        self.panicked.fetch_add(1, Ordering::Relaxed);
                        TaskPanic {
                            message: panic_message(&*panic),
                        }
                    });
                    self.deliver(Completion { task, result });
                }
                None => self.park(),
            }
        }
    }

    /// Converts the session state into its final [`ExecStats`].
    ///
    /// Takes `self` by value deliberately: the only way to call this is
    /// after `thread::scope` returns (all workers joined), so every
    /// `Relaxed` load below observes the final value of its counter and
    /// the snapshot invariants documented on [`ExecStats`] hold exactly.
    fn into_stats(self, threads: usize) -> ExecStats {
        let per_worker: Vec<u64> = self
            .executed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let dropped: u64 = self
            .queues
            .iter()
            .map(|q| q.lock().expect("queue lock").len() as u64)
            .sum();
        ExecStats {
            threads,
            tasks_executed: per_worker.iter().sum(),
            tasks_panicked: self.panicked.load(Ordering::Relaxed),
            steal_ops: self.steal_ops.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            queue_depth_peak: self.depth_peak.load(Ordering::Relaxed),
            tasks_dropped: dropped,
            per_worker_executed: per_worker,
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Driver-side handle of a running [`Executor::session`]: submit tasks,
/// receive completions.
pub struct SessionHandle<'a, I, T> {
    shared: &'a Shared<I, T>,
    round_robin: AtomicUsize,
    observer: &'a dyn ExecObserver,
}

impl<I, T> std::fmt::Debug for SessionHandle<'_, I, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("threads", &self.shared.queues.len())
            .finish_non_exhaustive()
    }
}

impl<I: Send, T: Send> SessionHandle<'_, I, T> {
    /// Submits a task to the next worker in round-robin order.
    pub fn submit(&self, id: TaskId, payload: I) {
        let n = self.shared.queues.len();
        let w = self.round_robin.fetch_add(1, Ordering::Relaxed) % n;
        self.submit_to(w, id, payload);
    }

    /// Submits a task pinned to `worker`'s deque (`worker` wraps modulo
    /// the thread count). Stealing may still migrate it — pinning is an
    /// affinity hint, not an isolation guarantee.
    pub fn submit_to(&self, worker: usize, id: TaskId, payload: I) {
        let n = self.shared.queues.len();
        self.shared.outstanding.fetch_add(1, Ordering::Release);
        self.observer.task_submitted(worker % n, id);
        self.shared.push_task(worker % n, id, payload);
    }

    /// Submits a whole stage of tasks round-robin in one call. Stage
    /// schedulers (the DAG layer in `ev-mapreduce`) use this to launch
    /// every ready partition of a stage at once.
    pub fn submit_batch(&self, tasks: impl IntoIterator<Item = (TaskId, I)>) {
        for (id, payload) in tasks {
            self.submit(id, payload);
        }
    }

    /// Blocks for the next completion; `None` once every submitted task
    /// has already been delivered.
    pub fn recv(&self) -> Option<Completion<T>> {
        let mut q = self.shared.completions.lock().expect("completions lock");
        loop {
            if let Some(c) = q.pop_front() {
                self.shared.outstanding.fetch_sub(1, Ordering::Release);
                return Some(c);
            }
            if self.shared.outstanding.load(Ordering::Acquire) == 0 {
                return None;
            }
            q = self
                .shared
                .completions_cv
                .wait(q)
                .expect("completions wait");
        }
    }
}

/// Wakes and joins the workers even when the driver unwinds.
struct ShutdownGuard<'a, I, T>(&'a Shared<I, T>);
impl<I, T> Drop for ShutdownGuard<'_, I, T> {
    fn drop(&mut self) {
        self.0.shut_down();
    }
}

/// A work-stealing thread pool configuration. Cheap to create; threads
/// are spawned per [`session`](Executor::session) so work closures can
/// borrow from the caller's stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a dynamic session: `driver` runs on the calling thread and
    /// submits/receives through the [`SessionHandle`] while the workers
    /// execute `work`. Used by the stage-DAG scheduler, whose
    /// dependency, retry and lineage logic decides mid-flight what to
    /// submit next.
    pub fn session<I, T, R, F, D>(&self, work: F, driver: D) -> (R, ExecStats)
    where
        I: Send,
        T: Send,
        F: Fn(WorkerCtx, I) -> T + Sync,
        D: FnOnce(&SessionHandle<'_, I, T>) -> R,
    {
        self.session_observed(work, driver, &NoopObserver)
    }

    /// [`session`](Executor::session) with an [`ExecObserver`] whose
    /// callbacks fire from inside the worker threads.
    pub fn session_observed<I, T, R, F, D>(
        &self,
        work: F,
        driver: D,
        observer: &dyn ExecObserver,
    ) -> (R, ExecStats)
    where
        I: Send,
        T: Send,
        F: Fn(WorkerCtx, I) -> T + Sync,
        D: FnOnce(&SessionHandle<'_, I, T>) -> R,
    {
        let shared: Shared<I, T> = Shared::new(self.threads);
        let out = std::thread::scope(|scope| {
            for w in 0..self.threads {
                let shared = &shared;
                let work = &work;
                scope.spawn(move || shared.worker_loop(w, work, observer));
            }
            let _guard = ShutdownGuard(&shared);
            let handle = SessionHandle {
                shared: &shared,
                round_robin: AtomicUsize::new(0),
                observer,
            };
            driver(&handle)
        });
        let stats = shared.into_stats(self.threads);
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `work` over `0..n` (task id = item) and returns every
    /// completion's result by task id.
    fn run_all<T: Send>(
        exec: Executor,
        n: u64,
        work: impl Fn(WorkerCtx, u64) -> T + Sync,
        observer: &dyn ExecObserver,
    ) -> (Vec<Result<T, TaskPanic>>, ExecStats) {
        exec.session_observed(
            work,
            |handle| {
                handle.submit_batch((0..n).map(|i| (i, i)));
                let mut done: Vec<_> = std::iter::from_fn(|| handle.recv()).collect();
                done.sort_by_key(|c| c.task);
                done.into_iter().map(|c| c.result).collect()
            },
            observer,
        )
    }

    #[test]
    fn submit_batch_counts_through_the_submission_hook() {
        struct Counting(AtomicU64);
        impl ExecObserver for Counting {
            fn task_submitted(&self, _worker: usize, _task: TaskId) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let observer = Counting(AtomicU64::new(0));
        let exec = Executor::new(3);
        let (total, stats) = exec.session_observed(
            |_ctx, x: u64| x + 1,
            |handle| {
                handle.submit_batch((0u64..40).map(|i| (i, i)));
                let mut total = 0u64;
                while let Some(c) = handle.recv() {
                    total += c.result.expect("no panics");
                }
                total
            },
            &observer,
        );
        assert_eq!(total, (1u64..=40).sum::<u64>());
        assert_eq!(stats.tasks_executed, 40);
        assert_eq!(observer.0.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn completions_are_keyed_by_task_id() {
        let (out, stats) = run_all(Executor::new(4), 200, |_ctx, x| x * 3, &NoopObserver);
        let out: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(out, (0u64..200).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(stats.tasks_executed, 200);
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.per_worker_executed.iter().sum::<u64>(), 200);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let exec = Executor::new(0);
        assert_eq!(exec.threads(), 1);
        let (out, stats) = run_all(exec, 1, |_ctx, x| x + 6, &NoopObserver);
        assert_eq!(out[0].as_ref().unwrap(), &6);
        assert_eq!(stats.per_worker_executed, vec![1]);
    }

    #[test]
    fn empty_session_recv_returns_none() {
        let exec = Executor::new(2);
        let (got, stats) = exec.session(|_ctx, x: u64| x, |handle| handle.recv().is_none());
        assert!(got, "no submissions → recv must not block");
        assert_eq!(stats.tasks_executed, 0);
    }

    #[test]
    fn panics_are_isolated_per_task() {
        let (out, stats) = run_all(
            Executor::new(3),
            30,
            |_ctx, x| {
                assert!(x % 7 != 3, "injected panic on {x}");
                x
            },
            &NoopObserver,
        );
        let mut panicked = 0;
        for (i, r) in out.iter().enumerate() {
            if i as u64 % 7 == 3 {
                assert!(r.is_err(), "task {i} must panic");
                assert!(r.as_ref().unwrap_err().message.contains("injected panic"));
                panicked += 1;
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64);
            }
        }
        assert_eq!(stats.tasks_panicked, panicked);
        assert_eq!(
            stats.tasks_executed, 30,
            "panicked tasks still count as executed"
        );
    }

    #[test]
    fn pinned_submissions_get_stolen() {
        // All tasks land on worker 0's deque; with 4 workers the others
        // can only make progress by stealing.
        let exec = Executor::new(4);
        let (got, stats) = exec.session(
            |_ctx, x: u64| {
                // Enough work per task that worker 0 cannot drain the
                // deque before the thieves wake up.
                let mut acc = x;
                for i in 0..20_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(acc);
                x
            },
            |handle| {
                for i in 0..256u64 {
                    handle.submit_to(0, i, i);
                }
                let mut seen = 0u64;
                while handle.recv().is_some() {
                    seen += 1;
                }
                seen
            },
        );
        assert_eq!(got, 256);
        assert_eq!(stats.tasks_executed, 256);
        assert!(stats.steal_ops > 0, "thieves must steal from worker 0");
        assert!(
            stats.tasks_stolen >= stats.steal_ops,
            "steal-half moves ≥1 task per op"
        );
        assert!(
            stats.queue_depth_peak >= 128,
            "deque 0 held the bulk of the backlog"
        );
    }

    #[test]
    fn observer_sees_every_task_and_steal() {
        struct Recorder {
            tasks: AtomicU64,
            timed: AtomicU64,
            panicked: AtomicU64,
            steals: AtomicU64,
            moved: AtomicU64,
        }
        impl ExecObserver for Recorder {
            fn wants_timing(&self) -> bool {
                true
            }
            fn steal(&self, thief: usize, victim: usize, moved: usize) {
                assert_ne!(thief, victim);
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.moved.fetch_add(moved as u64, Ordering::Relaxed);
            }
            fn task_finished(&self, _ctx: WorkerCtx, dur_ns: u64, panicked: bool) {
                self.tasks.fetch_add(1, Ordering::Relaxed);
                if dur_ns > 0 {
                    self.timed.fetch_add(1, Ordering::Relaxed);
                }
                if panicked {
                    self.panicked.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let recorder = Recorder {
            tasks: AtomicU64::new(0),
            timed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            moved: AtomicU64::new(0),
        };
        let (_, stats) = run_all(
            Executor::new(4),
            200,
            |_ctx, x| {
                assert!(x != 13, "injected panic");
                let mut acc = x;
                for i in 0..5_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(acc)
            },
            &recorder,
        );
        assert_eq!(recorder.tasks.load(Ordering::Relaxed), 200);
        assert_eq!(recorder.panicked.load(Ordering::Relaxed), 1);
        assert_eq!(stats.tasks_panicked, 1);
        assert!(
            recorder.timed.load(Ordering::Relaxed) > 0,
            "wants_timing must produce nonzero durations"
        );
        assert_eq!(
            recorder.steals.load(Ordering::Relaxed),
            stats.steal_ops,
            "observer steal callbacks must match ExecStats exactly"
        );
        assert_eq!(recorder.moved.load(Ordering::Relaxed), stats.tasks_stolen);
    }

    #[test]
    fn driver_can_stop_early_and_drop_queued_tasks() {
        let exec = Executor::new(2);
        let ((), stats) = exec.session(
            |_ctx, x: u64| {
                std::thread::sleep(std::time::Duration::from_millis(u64::from(x == 0)));
                x
            },
            |handle| {
                for i in 0..64u64 {
                    handle.submit(i, i);
                }
                // Take one completion and walk away.
                let _ = handle.recv();
            },
        );
        assert!(stats.tasks_executed >= 1);
        assert_eq!(
            stats.tasks_executed + stats.tasks_dropped,
            64,
            "every task either ran or was dropped at shutdown"
        );
    }

    #[test]
    fn stats_are_an_exact_post_join_snapshot_under_stress() {
        // The `ExecStats` snapshot invariants must hold *exactly* on
        // every run, not just on average: stats are read after the
        // scope joins the workers, so no counter can still be moving.
        // Hammer many short racy sessions (drivers that walk away at
        // random points) and demand exact accounting each time.
        for iteration in 0..200u64 {
            let threads = [1, 2, 3, 4][(iteration % 4) as usize];
            let submitted = 1 + (iteration * 7) % 40;
            let receive = (iteration * 3) % (submitted + 1);
            let exec = Executor::new(threads as usize);
            let ((), stats) = exec.session(
                |_ctx, x: u64| {
                    if x.is_multiple_of(5) {
                        std::thread::yield_now();
                    }
                    std::hint::black_box(x.wrapping_mul(2862933555777941757));
                },
                |handle| {
                    for i in 0..submitted {
                        // Pin everything to worker 0 so multi-thread
                        // runs exercise the steal path too.
                        handle.submit_to(0, i, i);
                    }
                    for _ in 0..receive {
                        let _ = handle.recv();
                    }
                },
            );
            let ctx = format!("iteration {iteration}: {stats:?}");
            assert_eq!(
                stats.tasks_executed + stats.tasks_dropped,
                submitted,
                "executed + dropped must equal submitted exactly ({ctx})"
            );
            assert_eq!(
                stats.per_worker_executed.iter().sum::<u64>(),
                stats.tasks_executed,
                "per-worker counts must sum to the total exactly ({ctx})"
            );
            assert_eq!(stats.per_worker_executed.len(), threads as usize);
            assert_eq!(stats.tasks_panicked, 0, "{ctx}");
            assert!(
                stats.tasks_executed >= receive,
                "every received completion was executed ({ctx})"
            );
            assert!(
                stats.tasks_stolen >= stats.steal_ops,
                "each successful steal moves at least one task ({ctx})"
            );
            // Note: `tasks_stolen` counts *moves*, and a task parked in
            // a thief's deque can be stolen again — so it may exceed
            // the number of distinct tasks.
            if threads == 1 {
                assert_eq!(stats.steal_ops, 0, "{ctx}");
                assert_eq!(stats.tasks_stolen, 0, "{ctx}");
            }
        }
    }

    #[test]
    fn stats_roll_up_per_worker_counts() {
        let (_, stats) = run_all(Executor::new(2), 50, |_ctx, x| x, &NoopObserver);
        assert_eq!(stats.per_worker_executed.len(), 2);
        assert_eq!(
            stats.per_worker_executed.iter().sum::<u64>(),
            stats.tasks_executed
        );
        assert_eq!(stats.tasks_dropped, 0);
    }
}
