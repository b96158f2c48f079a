//! Tests of the private worker pool (`pool.rs`).

use crate::pool::{session, REFUSE_SPAWN_AT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Runs `work` over `0..n` (task index = item) and returns every
/// completion's result by task index, plus the per-worker counts.
fn run_all<T: Send>(
    threads: usize,
    n: u64,
    work: impl Fn(u64) -> T + Sync,
) -> (Vec<Result<T, String>>, Vec<u64>) {
    session(threads, work, |handle| {
        for i in 0..n {
            handle.submit(i as usize, i);
        }
        let mut done: Vec<_> = std::iter::from_fn(|| handle.recv()).collect();
        done.sort_by_key(|(task, _)| *task);
        done.into_iter().map(|(_, result)| result).collect()
    })
    .unwrap()
}

#[test]
fn completions_are_keyed_by_task_id() {
    let (out, per_worker) = run_all(4, 200, |x| x * 3);
    let out: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
    assert_eq!(out, (0u64..200).map(|x| x * 3).collect::<Vec<_>>());
    assert_eq!(per_worker.len(), 4);
    assert_eq!(per_worker.iter().sum::<u64>(), 200);
}

#[test]
fn one_worker_runs_tasks_in_submission_order() {
    let order = Mutex::new(Vec::new());
    let (_, per_worker) = run_all(1, 100, |x| {
        order.lock().unwrap().push(x);
    });
    assert_eq!(
        order.into_inner().unwrap(),
        (0u64..100).collect::<Vec<_>>(),
        "the queue is first in, first out"
    );
    assert_eq!(per_worker, vec![100]);
}

#[test]
fn zero_threads_clamps_to_one() {
    let (out, per_worker) = run_all(0, 1, |x| x + 6);
    assert_eq!(out[0].as_ref().unwrap(), &6);
    assert_eq!(per_worker, vec![1]);
}

#[test]
fn empty_session_recv_returns_none() {
    let (got, per_worker) = session(2, |x: u64| x, |handle| handle.recv().is_none()).unwrap();
    assert!(got, "no submissions → recv must not block");
    assert_eq!(per_worker, vec![0, 0]);
}

#[test]
fn panics_are_isolated_per_task() {
    let (out, per_worker) = run_all(3, 30, |x| {
        assert!(x % 7 != 3, "injected panic on {x}");
        x
    });
    for (i, r) in out.iter().enumerate() {
        if i as u64 % 7 == 3 {
            assert!(r.is_err(), "task {i} must panic");
            assert!(r.as_ref().unwrap_err().contains("injected panic"));
        } else {
            assert_eq!(*r.as_ref().unwrap(), i as u64);
        }
    }
    assert_eq!(
        per_worker.iter().sum::<u64>(),
        30,
        "panicked tasks still count as executed, and their workers lived on"
    );
}

#[test]
fn driver_can_stop_early_and_drop_queued_tasks() {
    let ran = AtomicU64::new(0);
    let ((), per_worker) = session(
        2,
        |x: u64| {
            std::thread::sleep(std::time::Duration::from_millis(u64::from(x == 0)));
            ran.fetch_add(1, Ordering::Relaxed);
        },
        |handle| {
            for i in 0..64u64 {
                handle.submit(i as usize, i);
            }
            // Take one completion and walk away: the session must shut
            // down with tasks still queued instead of hanging on them.
            let _ = handle.recv();
        },
    )
    .unwrap();
    let executed: u64 = per_worker.iter().sum();
    assert!((1..=64).contains(&executed));
    assert_eq!(executed, ran.into_inner(), "a dropped task never ran");
}

#[test]
fn stats_are_an_exact_post_join_snapshot_under_stress() {
    // The per-worker counts must be exact on every run, not just on
    // average: they are read after the scope joins the workers, so no
    // counter can still be moving. Hammer many short racy sessions
    // (drivers that walk away at random points) and demand exact
    // accounting against the closure's own count each time.
    for iteration in 0..200u64 {
        let threads = [1, 2, 3, 4][(iteration % 4) as usize];
        let submitted = 1 + (iteration * 7) % 40;
        let receive = (iteration * 3) % (submitted + 1);
        let ran = AtomicU64::new(0);
        let ((), per_worker) = session(
            threads,
            |x: u64| {
                if x.is_multiple_of(5) {
                    std::thread::yield_now();
                }
                ran.fetch_add(1, Ordering::Relaxed);
            },
            |handle| {
                for i in 0..submitted {
                    handle.submit(i as usize, i);
                }
                for _ in 0..receive {
                    let _ = handle.recv();
                }
            },
        )
        .unwrap();
        let ctx = format!("iteration {iteration}: {per_worker:?}");
        let executed: u64 = per_worker.iter().sum();
        assert_eq!(
            executed,
            ran.into_inner(),
            "per-worker counts must sum to the attempts run exactly ({ctx})"
        );
        assert_eq!(per_worker.len(), threads, "{ctx}");
        assert!(
            (receive..=submitted).contains(&executed),
            "every received completion was executed, nothing ran twice ({ctx})"
        );
    }
}

#[test]
fn stats_roll_up_per_worker_counts() {
    let (out, per_worker) = run_all(2, 50, |x| x);
    assert_eq!(per_worker.len(), 2);
    assert_eq!(per_worker.iter().sum::<u64>(), out.len() as u64);
}

#[test]
fn a_refused_spawn_is_an_error_after_joining_the_started_workers() {
    REFUSE_SPAWN_AT.set(Some(2));
    let refused = session(4, |x: u64| x, |_| unreachable!("the driver never runs"));
    REFUSE_SPAWN_AT.set(None);
    // Returning at all is the join: the scope waits for workers 0 and 1.
    assert_eq!(
        refused.unwrap_err().kind(),
        std::io::ErrorKind::WouldBlock,
        "the OS's error comes back as it was"
    );
}
