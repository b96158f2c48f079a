//! The FIFO worker pool under [`DagSpec::run`](crate::DagSpec::run) —
//! private: the scheduler is its one client, and everything here is
//! what that client uses.
//!
//! [`session`] spins up scoped workers for one call, so the work
//! closure borrows from the caller's stack and nothing outlives it.
//!
//! * **One shared FIFO.** The driver pushes `(task, payload)` entries
//!   onto the back of one `Mutex<VecDeque>`; every worker pops from the
//!   front, so tasks *start* in submission order whatever the thread
//!   count. The scheduler submits a few hundred coarse tasks per run
//!   from one thread, so the lock is never contended enough to want
//!   per-worker queues.
//! * **Parking.** A worker that finds the queue empty waits on the
//!   queue's condvar *while still holding the queue lock it checked
//!   under*, and both `submit` and shutdown notify under that same
//!   lock — a wake-up cannot fall between the check and the wait.
//! * **Collection.** Workers send `(task, result)` completions down one
//!   channel the driver drains with [`Session::recv`]; `recv` returns
//!   `None` exactly when every submitted task has been delivered, so a
//!   driver cannot hang on an empty session. Results are keyed by the
//!   driver's task index, never by which worker ran what when.
//! * **Panic isolation.** Each task runs under
//!   [`std::panic::catch_unwind`]; a panicking task completes as
//!   `Err(panic message)` and its worker keeps serving the queue. The
//!   scheduler maps such completions onto its retry path.
//! * **Shutdown.** When the driver returns (or unwinds), or the OS
//!   refuses a worker thread, a guard flips the shutdown flag and wakes
//!   every parked worker; tasks still queued are dropped without
//!   running and the scope joins all threads before `session` returns.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex};

/// One finished task: the index it was submitted under and the
/// closure's return value, or the isolated panic's message.
type Completion<T> = (usize, Result<T, String>);

struct Shared<I, T> {
    /// The one task queue: the driver pushes to the back, every worker
    /// pops from the front.
    queue: Mutex<VecDeque<(usize, I)>>,
    /// Signalled under the `queue` lock on every push and on shutdown.
    queue_cv: Condvar,
    shutdown: AtomicBool,
    completions: Sender<Completion<T>>,
    /// Task attempts run per worker (panicked ones included).
    executed: Vec<AtomicU64>,
}

impl<I, T> Shared<I, T> {
    /// Blocks until the oldest queued task can be claimed; `None` once
    /// the session shuts down (tasks still queued then are dropped).
    fn next_task(&self) -> Option<(usize, I)> {
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

    fn worker_loop(&self, w: usize, work: &(impl Fn(I) -> T + Sync)) {
        while let Some((task, payload)) = self.next_task() {
            let outcome = catch_unwind(AssertUnwindSafe(|| work(payload)));
            self.executed[w].fetch_add(1, Ordering::Relaxed);
            let result = outcome.map_err(|panic| panic_message(&*panic));
            // A driver that walked away has dropped the receiver.
            let _ = self.completions.send((task, result));
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

/// Driver-side handle of a running [`session`]: submit tasks, receive
/// completions.
pub(crate) struct Session<'a, I, T> {
    shared: &'a Shared<I, T>,
    completions: Receiver<Completion<T>>,
    /// Submitted minus received. The handle lives on the driver's
    /// thread only (the `Cell` makes it `!Sync`), so no atomic is needed.
    outstanding: Cell<u64>,
}

impl<I: Send, T: Send> Session<'_, I, T> {
    /// Appends a task to the shared queue; workers claim tasks in
    /// submission order.
    pub(crate) fn submit(&self, task: usize, payload: I) {
        self.outstanding.set(self.outstanding.get() + 1);
        let mut queue = self.shared.queue.lock().expect("queue lock");
        queue.push_back((task, payload));
        // Notified under the lock a worker checks the queue under, so
        // the wake-up cannot fall between its check and its wait.
        self.shared.queue_cv.notify_one();
    }

    /// Blocks for the next completion; `None` once every submitted task
    /// has already been delivered.
    pub(crate) fn recv(&self) -> Option<Completion<T>> {
        if self.outstanding.get() == 0 {
            return None;
        }
        self.outstanding.set(self.outstanding.get() - 1);
        // Every outstanding task is queued or running, and a worker
        // sends before it takes another, so this cannot wait forever;
        // the sender lives in `shared`, so it cannot disconnect.
        let done = self.completions.recv();
        Some(done.expect("the session owns the sender"))
    }
}

/// Wakes the workers so the scope can join them — when the driver
/// returns, when it unwinds, and when a later worker fails to spawn.
struct ShutdownGuard<'a, I, T>(&'a Shared<I, T>);
impl<I, T> Drop for ShutdownGuard<'_, I, T> {
    fn drop(&mut self) {
        self.0.shutdown.store(true, Ordering::Release);
        // Taking the queue lock orders the store against every worker's
        // check-then-wait, exactly as `submit` does for a push. Inside
        // `Drop`, so a poisoned lock is passed over, not unwrapped.
        let _queue = self.0.queue.lock();
        self.0.queue_cv.notify_all();
    }
}

/// Runs one session on `threads` workers (at least one): `driver` runs
/// on the calling thread and submits/receives through the [`Session`]
/// while the workers execute `work`. Returns the driver's value and the
/// task attempts each worker ran — read after the scope has joined
/// every worker, so the counts are exact, not a racy sample.
///
/// # Errors
///
/// The OS's error when it refuses a worker thread; the workers already
/// started are shut down and joined first, and `driver` never runs.
pub(crate) fn session<I: Send, T: Send, R>(
    threads: usize,
    work: impl Fn(I) -> T + Sync,
    driver: impl FnOnce(&Session<'_, I, T>) -> R,
) -> std::io::Result<(R, Vec<u64>)> {
    let threads = threads.max(1);
    let (completions, received) = channel();
    let shared: Shared<I, T> = Shared {
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        completions,
        executed: (0..threads).map(|_| AtomicU64::new(0)).collect(),
    };
    let out = std::thread::scope(|scope| {
        let _guard = ShutdownGuard(&shared);
        for w in 0..threads {
            #[cfg(test)]
            if REFUSE_SPAWN_AT.get() == Some(w) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let (shared, work) = (&shared, &work);
            // `Builder`, not `scope.spawn`: a refused thread is an
            // error to return, not a panic.
            std::thread::Builder::new()
                .name(format!("ev-dag-worker-{w}"))
                .spawn_scoped(scope, move || shared.worker_loop(w, work))?;
        }
        Ok::<R, std::io::Error>(driver(&Session {
            shared: &shared,
            completions: received,
            outstanding: Cell::new(0),
        }))
    })?;
    let executed = shared.executed.iter();
    Ok((out, executed.map(|c| c.load(Ordering::Relaxed)).collect()))
}

#[cfg(test)]
thread_local! {
    /// Fault seam for the tests: the OS cannot be made to refuse a
    /// thread on demand, so a test sets the worker index at which
    /// [`session`] (called on the test's own thread) sees `WouldBlock`.
    pub(crate) static REFUSE_SPAWN_AT: Cell<Option<usize>> = const { Cell::new(None) };
}
