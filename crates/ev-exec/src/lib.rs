//! FIFO thread-pool executor for the EV-Matching pipelines.
//!
//! The paper's §V distributes set splitting and VID filtering over a
//! MapReduce cluster; this crate is the *real-thread* substrate for
//! that design. The stage-DAG scheduler (`ev_mapreduce::dag`) is its
//! one client: the one-submission matching pipeline and the parallel
//! EDP baseline both run as stage graphs on it, so retry logic drives
//! actual OS threads. The crate is intentionally zero-dependency (std
//! only) and `forbid`s unsafe code.
//!
//! # Execution model
//!
//! An [`Executor`] is only a thread-count; every
//! [`session`](Executor::session) call spins up that many scoped
//! workers, so borrowed closures work without `'static` bounds and
//! nothing outlives the call.
//!
//! * **One shared FIFO.** The driver pushes `(task id, payload)`
//!   entries onto the back of one `Mutex<VecDeque>`; every worker pops
//!   from the front, so tasks *start* in submission order whatever the
//!   thread count. The one client submits a few hundred coarse tasks
//!   per run from one thread, so the lock is never contended enough to
//!   want per-worker queues.
//! * **Parking.** A worker that finds the queue empty waits on the
//!   queue's condvar *while still holding the queue lock it checked
//!   under*, and both `submit` and shutdown notify under that same
//!   lock — a wake-up cannot fall between the check and the wait.
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
//!     |x: u64| x * x,
//!     |handle| {
//!         for i in 0u64..64 {
//!             handle.submit(i, i);
//!         }
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

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Caller-chosen identifier a completion is keyed by.
pub type TaskId = u64;

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
/// * `per_worker_executed` sums to `tasks_executed`, exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Worker threads the session ran with.
    pub threads: usize,
    /// Task attempts actually run (including panicked ones).
    pub tasks_executed: u64,
    /// Tasks whose closure panicked (isolated, reported as `Err`).
    pub tasks_panicked: u64,
    /// Tasks still queued when the session shut down (never run).
    pub tasks_dropped: u64,
    /// Tasks executed per worker, indexed by worker id.
    pub per_worker_executed: Vec<u64>,
}

struct Shared<I, T> {
    /// The one task queue: the driver pushes to the back, every worker
    /// pops from the front.
    queue: Mutex<VecDeque<(TaskId, I)>>,
    /// Signalled under the `queue` lock on every push and on shutdown.
    queue_cv: Condvar,
    shutdown: AtomicBool,
    completions: Mutex<VecDeque<Completion<T>>>,
    completions_cv: Condvar,
    executed: Vec<AtomicU64>,
    panicked: AtomicU64,
}

impl<I, T> Shared<I, T> {
    fn new(threads: usize) -> Self {
        Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            completions: Mutex::new(VecDeque::new()),
            completions_cv: Condvar::new(),
            executed: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            panicked: AtomicU64::new(0),
        }
    }

    fn push_task(&self, id: TaskId, payload: I) {
        let mut queue = self.queue.lock().expect("queue lock");
        queue.push_back((id, payload));
        // Notified under the lock a worker checks the queue under, so
        // the wake-up cannot fall between its check and its wait.
        self.queue_cv.notify_one();
    }

    /// Blocks until the oldest queued task can be claimed; `None` once
    /// the session shuts down (tasks still queued then are dropped).
    fn next_task(&self) -> Option<(TaskId, I)> {
        let mut queue = self.queue.lock().expect("queue lock");
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some(task) = queue.pop_front() {
                return Some(task);
            }
            queue = self.queue_cv.wait(queue).expect("queue wait");
        }
    }

    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Taking the queue lock orders the store against every worker's
        // check-then-wait, exactly as `push_task` does for a push.
        let _queue = self.queue.lock().expect("queue lock");
        self.queue_cv.notify_all();
    }

    fn deliver(&self, completion: Completion<T>) {
        let mut q = self.completions.lock().expect("completions lock");
        q.push_back(completion);
        self.completions_cv.notify_all();
    }

    fn worker_loop<F>(&self, w: usize, work: &F)
    where
        F: Fn(I) -> T + Sync,
    {
        while let Some((task, payload)) = self.next_task() {
            let outcome = catch_unwind(AssertUnwindSafe(|| work(payload)));
            self.executed[w].fetch_add(1, Ordering::Relaxed);
            let result = outcome.map_err(|panic| {
                self.panicked.fetch_add(1, Ordering::Relaxed);
                TaskPanic {
                    message: panic_message(&*panic),
                }
            });
            self.deliver(Completion { task, result });
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
        ExecStats {
            threads,
            tasks_executed: per_worker.iter().sum(),
            tasks_panicked: self.panicked.load(Ordering::Relaxed),
            tasks_dropped: self.queue.lock().expect("queue lock").len() as u64,
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
    /// Submitted minus received. The handle lives on the driver's
    /// thread only (the `Cell` makes it `!Sync`), so no atomic is needed.
    outstanding: Cell<u64>,
}

impl<I, T> std::fmt::Debug for SessionHandle<'_, I, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("threads", &self.shared.executed.len())
            .finish_non_exhaustive()
    }
}

impl<I: Send, T: Send> SessionHandle<'_, I, T> {
    /// Appends a task to the shared queue; workers claim tasks in
    /// submission order.
    pub fn submit(&self, id: TaskId, payload: I) {
        self.outstanding.set(self.outstanding.get() + 1);
        self.shared.push_task(id, payload);
    }

    /// Blocks for the next completion; `None` once every submitted task
    /// has already been delivered.
    pub fn recv(&self) -> Option<Completion<T>> {
        if self.outstanding.get() == 0 {
            return None;
        }
        let mut q = self.shared.completions.lock().expect("completions lock");
        let completion = loop {
            if let Some(c) = q.pop_front() {
                break c;
            }
            q = self
                .shared
                .completions_cv
                .wait(q)
                .expect("completions wait");
        };
        self.outstanding.set(self.outstanding.get() - 1);
        Some(completion)
    }
}

/// Wakes and joins the workers even when the driver unwinds.
struct ShutdownGuard<'a, I, T>(&'a Shared<I, T>);
impl<I, T> Drop for ShutdownGuard<'_, I, T> {
    fn drop(&mut self) {
        self.0.shut_down();
    }
}

/// A FIFO thread pool configuration. Cheap to create; threads are
/// spawned per [`session`](Executor::session) so work closures can
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
    /// dependency and retry logic decides mid-flight what to submit
    /// next.
    pub fn session<I, T, R, F, D>(&self, work: F, driver: D) -> (R, ExecStats)
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
        D: FnOnce(&SessionHandle<'_, I, T>) -> R,
    {
        let shared: Shared<I, T> = Shared::new(self.threads);
        let out = std::thread::scope(|scope| {
            for w in 0..self.threads {
                let shared = &shared;
                let work = &work;
                scope.spawn(move || shared.worker_loop(w, work));
            }
            let _guard = ShutdownGuard(&shared);
            let handle = SessionHandle {
                shared: &shared,
                outstanding: Cell::new(0),
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
        work: impl Fn(u64) -> T + Sync,
    ) -> (Vec<Result<T, TaskPanic>>, ExecStats) {
        exec.session(work, |handle| {
            for i in 0..n {
                handle.submit(i, i);
            }
            let mut done: Vec<_> = std::iter::from_fn(|| handle.recv()).collect();
            done.sort_by_key(|c| c.task);
            done.into_iter().map(|c| c.result).collect()
        })
    }

    #[test]
    fn completions_are_keyed_by_task_id() {
        let (out, stats) = run_all(Executor::new(4), 200, |x| x * 3);
        let out: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(out, (0u64..200).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(stats.tasks_executed, 200);
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.per_worker_executed.iter().sum::<u64>(), 200);
    }

    #[test]
    fn one_worker_runs_tasks_in_submission_order() {
        let order = Mutex::new(Vec::new());
        let (_, stats) = run_all(Executor::new(1), 100, |x| {
            order.lock().unwrap().push(x);
        });
        assert_eq!(
            order.into_inner().unwrap(),
            (0u64..100).collect::<Vec<_>>(),
            "the queue is first in, first out"
        );
        assert_eq!(stats.per_worker_executed, vec![100]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let exec = Executor::new(0);
        assert_eq!(exec.threads(), 1);
        let (out, stats) = run_all(exec, 1, |x| x + 6);
        assert_eq!(out[0].as_ref().unwrap(), &6);
        assert_eq!(stats.per_worker_executed, vec![1]);
    }

    #[test]
    fn empty_session_recv_returns_none() {
        let exec = Executor::new(2);
        let (got, stats) = exec.session(|x: u64| x, |handle| handle.recv().is_none());
        assert!(got, "no submissions → recv must not block");
        assert_eq!(stats.tasks_executed, 0);
    }

    #[test]
    fn panics_are_isolated_per_task() {
        let (out, stats) = run_all(Executor::new(3), 30, |x| {
            assert!(x % 7 != 3, "injected panic on {x}");
            x
        });
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
    fn driver_can_stop_early_and_drop_queued_tasks() {
        let exec = Executor::new(2);
        let ((), stats) = exec.session(
            |x: u64| {
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
                |x: u64| {
                    if x.is_multiple_of(5) {
                        std::thread::yield_now();
                    }
                    std::hint::black_box(x.wrapping_mul(2862933555777941757));
                },
                |handle| {
                    for i in 0..submitted {
                        handle.submit(i, i);
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
        }
    }

    #[test]
    fn stats_roll_up_per_worker_counts() {
        let (_, stats) = run_all(Executor::new(2), 50, |x| x);
        assert_eq!(stats.per_worker_executed.len(), 2);
        assert_eq!(
            stats.per_worker_executed.iter().sum::<u64>(),
            stats.tasks_executed
        );
        assert_eq!(stats.tasks_dropped, 0);
    }
}
