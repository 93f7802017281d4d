//! A fixed-size worker pool and the fan-out primitive built on it.
//!
//! The pool runs *technique-level* jobs only: one route request fans out
//! into one job per alternative-route technique, so a four-technique query
//! costs roughly `max(technique)` wall-clock instead of their sum. The
//! requesting thread itself never enters the pool — it submits lanes (or
//! runs a small one itself, [`Scatter::run_here`]), then waits on a
//! condvar with the request's deadline. Keeping request orchestration off
//! the pool is what rules out the classic deadlock of request-jobs waiting
//! behind the technique-jobs they spawned.
//!
//! The queue has no bound of its own: every lane job holds its request's
//! admission permit until it is done, so admission bounds the backlog at
//! `max_inflight × lanes` and a submission never fails. When a deadline
//! hits, the requester stops waiting and marks the fan-out abandoned;
//! still-queued lanes observe the flag and return without computing, so a
//! timed-out request stops consuming workers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use std::time::Duration;

use crate::cancel::CancelToken;
use crate::Deadline;
use arp_obs::{Counter, Gauge};

/// A unit of work for the pool.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool's FIFO. It is closed only when the pool drops.
struct Queue {
    jobs: Mutex<(VecDeque<Job>, bool)>, // (pending jobs, closed)
    available: Condvar,
    depth: Gauge,
}

impl Queue {
    /// Blocks until a job is available, or returns `None` once the queue
    /// is closed and drained — the worker's signal to exit.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("queue poisoned");
        loop {
            if let Some(job) = jobs.0.pop_front() {
                self.depth.set(jobs.0.len() as i64);
                return Some(job);
            }
            if jobs.1 {
                return None;
            }
            jobs = self.available.wait(jobs).expect("queue poisoned");
        }
    }
}

/// A fixed-size pool of worker threads over one FIFO.
pub(crate) struct WorkerPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one). `depth` tracks the
    /// backlog; `jobs_executed` counts completed jobs.
    pub(crate) fn new(workers: usize, depth: Gauge, jobs_executed: Counter) -> WorkerPool {
        let queue = Arc::new(Queue {
            jobs: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
            depth,
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let executed = jobs_executed.clone();
                std::thread::Builder::new()
                    .name(format!("arp-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            // A panicking job must not kill the worker: swallow
                            // the unwind and keep serving. The fan-out's drop
                            // guard has already recorded the lane as failed.
                            let _ = catch_unwind(AssertUnwindSafe(job));
                            executed.inc();
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { queue, workers }
    }

    /// Enqueues `job`. The queue closes only when the pool drops, so this
    /// never fails.
    pub(crate) fn submit(&self, job: Job) {
        let mut jobs = self.queue.jobs.lock().expect("queue poisoned");
        jobs.0.push_back(job);
        self.queue.depth.set(jobs.0.len() as i64);
        drop(jobs);
        self.queue.available.notify_one();
    }

    /// Current backlog length.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.jobs.lock().expect("queue poisoned").0.len()
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: close the queue, let the workers drain the
    /// backlog, and join them, so no job is lost.
    fn drop(&mut self) {
        // No panic in `Drop`: setting the flag leaves a poisoned queue valid.
        let mut jobs = self.queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.1 = true;
        drop(jobs);
        self.queue.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

struct FanoutState<T> {
    slots: Mutex<(Vec<Option<T>>, usize)>, // (results, lanes still pending)
    done: Condvar,
    abandoned: AtomicBool,
}

impl<T> FanoutState<T> {
    /// Ends one lane: `land` writes its result (or nothing), the pending
    /// count drops, and the requester is woken only by the last lane —
    /// [`Scatter::join`] waits for nothing else. No panic: it runs in
    /// [`LaneGuard`]'s `Drop`, and every update under the lock leaves the
    /// slots valid, so a poisoned lock is used as is.
    fn finish(&self, land: impl FnOnce(&mut Vec<Option<T>>)) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        land(&mut slots.0);
        slots.1 -= 1;
        let last = slots.1 == 0;
        drop(slots);
        if last {
            self.done.notify_all();
        }
    }
}

/// Decrements the pending count even if the lane's closure panics, so the
/// waiting requester is always woken.
struct LaneGuard<'a, T> {
    state: &'a FanoutState<T>,
    completed: bool,
}

impl<T> Drop for LaneGuard<'_, T> {
    fn drop(&mut self) {
        if !self.completed {
            self.state.finish(|_| {});
        }
    }
}

fn run_lane<T, F>(state: &FanoutState<T>, index: usize, task: F)
where
    F: FnOnce() -> T,
{
    let mut guard = LaneGuard {
        state,
        completed: false,
    };
    if state.abandoned.load(Ordering::Acquire) {
        // The requester already gave up; don't burn a worker on it.
        return;
    }
    let value = task();
    state.finish(|results| results[index] = Some(value));
    guard.completed = true;
}

/// The outcome of a fan-out (see [`Scatter::join`]).
#[derive(Debug)]
pub(crate) struct Fanout<T> {
    /// Per-lane results in task order. `None` means the lane panicked,
    /// was abandoned while queued, or did not stop within the grace
    /// period after cancellation.
    pub slots: Vec<Option<T>>,
    /// Whether the deadline expired before every lane finished (and the
    /// cancel token was therefore tripped).
    pub deadline_hit: bool,
}

/// A fan-out in progress: tasks submitted to the pool one at a time —
/// in as many waves as the caller likes, some of them run on the caller's
/// thread instead — and then joined once, under one deadline, token and
/// grace period ([`Scatter::join`]).
pub(crate) struct Scatter<T> {
    state: Arc<FanoutState<T>>,
}

impl<T: Send + 'static> Scatter<T> {
    /// An empty fan-out.
    pub(crate) fn new() -> Scatter<T> {
        Scatter {
            state: Arc::new(FanoutState {
                slots: Mutex::new((Vec::new(), 0)),
                done: Condvar::new(),
                abandoned: AtomicBool::new(false),
            }),
        }
    }

    /// Takes the next slot of the [`Fanout`], pending until its task ends.
    fn next_slot(&self) -> usize {
        let mut slots = self.state.slots.lock().expect("fan-out poisoned");
        slots.0.push(None);
        slots.1 += 1;
        slots.0.len() - 1
    }

    /// Submits `task` to `pool`. Its result lands in the next slot of the
    /// [`Fanout`]: slots follow submission order.
    pub(crate) fn submit<F>(&self, pool: &WorkerPool, task: F)
    where
        F: FnOnce() -> T + Send + 'static,
    {
        let index = self.next_slot();
        let state = Arc::clone(&self.state);
        pool.submit(Box::new(move || run_lane(&state, index, task)));
    }

    /// Runs `task` on the calling thread, in the next slot, exactly as a
    /// worker would run it: a panic is contained and leaves the slot
    /// `None`. It returns when the task does — the caller bounds it.
    pub(crate) fn run_here<F>(&self, task: F)
    where
        F: FnOnce() -> T,
    {
        let index = self.next_slot();
        let _ = catch_unwind(AssertUnwindSafe(|| run_lane(&self.state, index, task)));
    }

    /// Waits for every submitted task, bounded by `deadline`; on expiry it
    /// **trips `token`** instead of walking away from running tasks.
    /// Under deadline pressure the three-rung degradation ladder applies
    /// (DESIGN.md §8):
    ///
    /// 1. still-*queued* tasks observe the abandoned flag and never start;
    /// 2. *running* tasks observe the tripped token (typically through a
    ///    search budget built over [`CancelToken::flag`]) and return a
    ///    partial result, which is collected during a bounded `grace`
    ///    wait — one budget-check interval is enough for a cooperative
    ///    lane;
    /// 3. tasks that still haven't stopped when the grace expires are
    ///    left behind (their slot stays `None`) so the caller's latency is
    ///    bounded even over a non-cooperative backend.
    ///
    /// This never fails: the caller decides what a partial [`Fanout`] is
    /// worth.
    pub(crate) fn join(
        self,
        deadline: Deadline,
        token: &CancelToken,
        grace: Duration,
    ) -> Fanout<T> {
        let state = self.state;
        let mut deadline_hit = false;
        let mut slots = state.slots.lock().expect("fan-out poisoned");
        while slots.1 > 0 {
            let Some(remaining) = deadline.remaining() else {
                deadline_hit = true;
                break;
            };
            let (guard, timeout) = state
                .done
                .wait_timeout(slots, remaining)
                .expect("fan-out poisoned");
            slots = guard;
            if timeout.timed_out() && slots.1 > 0 && deadline.expired() {
                deadline_hit = true;
                break;
            }
        }
        if deadline_hit {
            state.abandoned.store(true, Ordering::Release);
            token.cancel();
            // Grace wait: collect the partials of tasks that observe the
            // trip. A zero grace does not wait at all
            // (`Deadline::after(ZERO)` is already expired).
            let grace_deadline = Deadline::after(grace);
            while slots.1 > 0 {
                let Some(remaining) = grace_deadline.remaining() else {
                    break;
                };
                let (guard, _) = state
                    .done
                    .wait_timeout(slots, remaining)
                    .expect("fan-out poisoned");
                slots = guard;
            }
        }
        // Take each slot individually, keeping the vector's length: a task
        // that outlives the grace period still writes into its (now
        // unread) slot, so the backing vector must stay sized for it.
        let results: Vec<Option<T>> = slots.0.iter_mut().map(Option::take).collect();
        drop(slots);
        Fanout {
            slots: results,
            deadline_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn pool(workers: usize) -> WorkerPool {
        WorkerPool::new(workers, Gauge::default(), Counter::default())
    }

    /// Every task submitted to `pool` in one wave.
    fn wave<T, F>(pool: &WorkerPool, tasks: Vec<F>) -> Scatter<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let scatter = Scatter::new();
        for task in tasks {
            scatter.submit(pool, task);
        }
        scatter
    }

    /// A one-wave fan-out nothing ever cancels: no deadline, a fresh
    /// token.
    fn scatter<T, F>(pool: &WorkerPool, tasks: Vec<F>) -> Fanout<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let token = CancelToken::new();
        let grace = Duration::from_millis(100);
        let out = wave(pool, tasks).join(Deadline::never(), &token, grace);
        assert!(!out.deadline_hit);
        assert!(!token.is_cancelled());
        out
    }

    #[test]
    fn scatter_returns_results_in_task_order() {
        let p = pool(4);
        let tasks: Vec<_> = (0..8u64).map(|i| move || i * 10).collect();
        let out = scatter(&p, tasks);
        let values: Vec<u64> = out.slots.into_iter().map(Option::unwrap).collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn scatter_overlaps_lanes_across_workers() {
        // Four 30 ms lanes on four workers should take well under the
        // 120 ms serial cost.
        let p = pool(4);
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(30));
                    i
                }
            })
            .collect();
        let start = std::time::Instant::now();
        let out = scatter(&p, tasks);
        assert_eq!(out.slots, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert!(
            start.elapsed() < Duration::from_millis(110),
            "lanes did not overlap: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn deadline_abandons_queued_lanes() {
        let p = pool(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..6)
            .map(|_| {
                let ran = Arc::clone(&ran);
                move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(40));
                }
            })
            .collect();
        let out = wave(&p, tasks).join(
            Deadline::after(Duration::from_millis(60)),
            &CancelToken::new(),
            Duration::ZERO,
        );
        assert!(out.deadline_hit);
        // Let the backlog drain, then check the abandoned lanes never ran.
        std::thread::sleep(Duration::from_millis(150));
        assert!(
            ran.load(Ordering::SeqCst) < 6,
            "abandoned lanes still executed"
        );
    }

    #[test]
    fn panicking_lane_fails_the_fanout_but_not_the_pool() {
        let p = pool(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("lane boom")),
            Box::new(|| 3),
        ];
        let out = scatter(&p, tasks);
        assert_eq!(out.slots, vec![Some(1), None, Some(3)]);
        // The pool survives and keeps serving.
        let out = scatter(&p, vec![|| 7u32, || 8u32]);
        assert_eq!(out.slots, vec![Some(7), Some(8)]);
    }

    #[test]
    fn run_here_takes_its_slot_on_the_calling_thread() {
        let p = pool(2);
        let caller = std::thread::current().id();
        let scatter = Scatter::new();
        scatter.submit(&p, move || std::thread::current().id() == caller);
        scatter.run_here(move || std::thread::current().id() == caller);
        scatter.run_here(|| -> bool { panic!("inline boom") });
        let out = scatter.join(Deadline::never(), &CancelToken::new(), Duration::ZERO);
        assert_eq!(out.slots, vec![Some(false), Some(true), None]);
    }

    #[test]
    fn shutdown_drains_the_backlog() {
        let p = pool(1);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let done = Arc::clone(&done);
            p.submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(5));
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(p);
        assert_eq!(done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn pool_has_at_least_one_worker() {
        let p = pool(0);
        let out = scatter(&p, vec![|| 42u8]);
        assert_eq!(out.slots, vec![Some(42)]);
    }

    #[test]
    fn deadline_trips_the_token_and_collects_cooperative_partials() {
        // One worker: lane 0 runs, lanes 1-2 queue behind it. Lane 0
        // cooperates — it polls the token and returns a partial marker —
        // so the fan-out gets its result during the grace wait, while the
        // queued lanes are abandoned outright.
        let p = pool(1);
        let token = CancelToken::new();
        let lane0 = token.clone();
        let mut tasks: Vec<Box<dyn FnOnce() -> &'static str + Send>> = vec![Box::new(move || {
            for _ in 0..1000 {
                if lane0.is_cancelled() {
                    return "partial";
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            "complete"
        })];
        for _ in 0..2 {
            tasks.push(Box::new(|| "queued"));
        }
        let out = wave(&p, tasks).join(
            Deadline::after(Duration::from_millis(30)),
            &token,
            Duration::from_millis(500),
        );
        assert!(out.deadline_hit);
        assert!(token.is_cancelled());
        assert_eq!(
            out.slots[0],
            Some("partial"),
            "running lane observed the trip"
        );
        assert_eq!(out.slots[1], None, "queued lane was abandoned");
        assert_eq!(out.slots[2], None, "queued lane was abandoned");
    }

    #[test]
    fn zero_grace_does_not_wait_for_non_cooperative_lanes() {
        let p = pool(1);
        let token = CancelToken::new();
        let tasks: Vec<_> = vec![|| {
            std::thread::sleep(Duration::from_millis(120));
            7u8
        }];
        let start = std::time::Instant::now();
        let out = wave(&p, tasks).join(
            Deadline::after(Duration::from_millis(10)),
            &token,
            Duration::ZERO,
        );
        assert!(out.deadline_hit);
        assert_eq!(out.slots, vec![None]);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "zero grace must not wait out the lane: {:?}",
            start.elapsed()
        );
    }
}
