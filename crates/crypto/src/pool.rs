//! A lazily-initialized pool of persistent hashing workers.
//!
//! The batched cid computation in [`crate::parallel`] used to fan out over
//! `std::thread::scope`, paying thread spawn (tens of microseconds per
//! worker) on *every* batch. A from-scratch build or a batched update
//! hashes one mid-size batch per tree, so the spawn cost never amortized.
//! This module keeps a fixed set of workers parked on a channel for the
//! lifetime of the process: a batch costs one channel send and one
//! wakeup per worker. The wakeup is not free, and it grows with how long
//! the pool has been idle: on the 2-core reference host a worker starts
//! a job 6–8 µs after the send within 50 µs of its last job, 14–22 µs
//! after 0.2–1 ms idle, and 32–43 µs once parked for 2–5 ms (medians of
//! three runs of the ignored test `measure_worker_wake_latency`). The
//! thresholds in `parallel.rs` are derived from the parked case.
//!
//! The pool is started on first use and sized to
//! `available_parallelism - 1` (capped) — the submitting thread always
//! executes one share of the batch itself, so all cores are busy without
//! a handoff for the caller's share. Machines reporting a single hardware
//! thread never start the pool and run everything serially. How many of
//! the workers one batch may use is the submitting thread's budget,
//! [`lanes`](crate::parallel::lanes): a thread inside
//! [`background`](crate::parallel::background) uses one fewer.
//!
//! # Scoped execution
//!
//! [`run_scoped`] executes closures that borrow the caller's stack. The
//! closures are transmuted to `'static` to cross the channel; safety comes
//! from the completion latch — `run_scoped` does not return until every
//! submitted closure has finished running, so the borrows outlive every
//! use. This is the same contract `std::thread::scope` enforces, with the
//! spawn replaced by a channel send. A panicking task is caught in the
//! worker (keeping the pool alive) and re-raised on the submitting thread
//! once the batch drains.
//!
//! # Detached execution
//!
//! [`spawn`] offers one job that owns everything it touches (`'static`)
//! to the workers and returns at once with a [`Task`]. A producer uses it
//! to get work hashed *while it produces more*. A parked worker takes
//! tens of microseconds to start (see above), so [`Task::join`] runs the
//! job itself when no worker has got to it yet: the producer pays for a
//! slow start with its own time at the end, never with a wait.

use crate::metrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    /// Senders are cheap to clone but `!Sync`; the mutex makes the pool
    /// shareable across submitting threads. Held only to enqueue.
    sender: Mutex<Sender<Job>>,
    workers: usize,
}

/// Completion latch for one scoped batch.
struct Latch {
    done: Mutex<usize>,
    cv: Condvar,
    /// First caught panic payload, re-raised on the submitting thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Bytes the batch's jobs scanned and hashed on the workers.
    bytes: AtomicU64,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            done: Mutex::new(0),
            cv: Condvar::new(),
            panic: Mutex::new(None),
            bytes: AtomicU64::new(0),
        }
    }

    fn signal(&self, task_panic: Option<Box<dyn std::any::Any + Send>>, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(payload) = task_panic {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(payload);
        }
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done += 1;
        self.cv.notify_one();
    }

    fn wait(&self, target: usize) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while *done < target {
            done = self
                .cv
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Most pool workers, independent of core count: hashing saturates memory
/// bandwidth well before this on every host we care about.
const MAX_POOL_WORKERS: usize = 7;

static POOL: OnceLock<Option<Pool>> = OnceLock::new();

fn pool() -> Option<&'static Pool> {
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // The submitting thread is worker zero; the pool adds the rest.
        let workers = cores.saturating_sub(1).min(MAX_POOL_WORKERS);
        if workers == 0 {
            return None;
        }
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for i in 0..workers {
            let receiver = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("fb-hash-{i}"))
                .spawn(move || loop {
                    let job = {
                        let guard = receiver.lock().unwrap_or_else(|e| e.into_inner());
                        guard.recv()
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => break, // channel closed: process exit
                    }
                })
                .expect("spawn hash worker");
        }
        Some(Pool {
            sender: Mutex::new(sender),
            workers,
        })
    })
    .as_ref()
}

/// Every lane there is: the pool workers plus the submitting thread.
/// Returns 1 when the pool is disabled (single-core hosts). A batch asks
/// [`lanes`](crate::parallel::lanes), which keeps to the submitting
/// thread's budget.
pub(crate) fn parallelism() -> usize {
    pool().map(|p| p.workers + 1).unwrap_or(1)
}

/// Run `job` on a worker, catching its panic: its outcome, and the bytes
/// it scanned and hashed there.
fn run_counted<T>(job: impl FnOnce() -> T) -> (std::thread::Result<T>, u64) {
    let before = metrics::snapshot();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    (outcome, metrics::snapshot().since(before).work_bytes())
}

/// Blocks until every job enqueued so far has signalled the latch, even
/// if `run_scoped` unwinds before reaching its normal wait. The `'env`
/// borrows inside submitted jobs are only safe while the caller's frame
/// is alive, so an early unwind must drain the latch first — the same
/// join-on-unwind guarantee `std::thread::scope` gives.
struct LatchGuard<'a> {
    latch: &'a Latch,
    submitted: usize,
}

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        self.latch.wait(self.submitted);
    }
}

/// Run `tasks` to completion, using the worker pool for all but the first
/// task, which runs on the calling thread. Returns only after every task
/// has finished; panics if any task panicked.
///
/// With no pool (single hardware thread), the tasks run serially in order.
pub(crate) fn run_scoped<'env>(mut tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
    let Some(pool) = pool() else {
        for t in tasks {
            t();
        }
        return;
    };
    if tasks.len() <= 1 {
        for t in tasks {
            t();
        }
        return;
    }
    let first = tasks.remove(0);
    let latch = Latch::new();
    let latch_ref: &Latch = &latch;
    // Armed before the first send: from here on, any unwind out of this
    // function first blocks until every successfully submitted job has
    // finished (Latch::wait is idempotent once the count is reached).
    let mut guard = LatchGuard {
        latch: &latch,
        submitted: 0,
    };
    {
        let sender = pool.sender.lock().unwrap_or_else(|e| e.into_inner());
        for t in tasks {
            // SAFETY: the latch is always drained before this frame is
            // torn down — on the normal path below, and on unwind via
            // `LatchGuard::drop` — so the `'env` borrows captured by `t`
            // (and the `latch` reference) are live for the whole
            // execution, the same guarantee `std::thread::scope`
            // provides structurally.
            let wrapper: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let (outcome, bytes) = run_counted(t);
                latch_ref.signal(outcome.err(), bytes);
            });
            let job: Job = unsafe { std::mem::transmute(wrapper) };
            sender.send(job).expect("hash pool alive");
            guard.submitted += 1;
        }
    }
    // The caller contributes its own share while the pool works.
    let first_outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(first));
    latch.wait(guard.submitted);
    metrics::pool_ran(guard.submitted as u64, latch.bytes.load(Ordering::Relaxed));
    // Re-raise with the original payload (like std::thread::scope's join):
    // the caller's own share first, then the first worker panic.
    if let Err(payload) = first_outcome {
        std::panic::resume_unwind(payload);
    }
    let worker_panic = latch.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = worker_panic {
        std::panic::resume_unwind(payload);
    }
}

/// A [`spawn`]ed job until someone takes it out to run it.
type Offered<T> = Arc<Mutex<Option<Box<dyn FnOnce() -> T + Send>>>>;

/// A job handed to the pool by [`spawn`]. Whoever takes it out of `job`
/// first runs it: a worker, or [`join`](Task::join).
pub struct Task<T> {
    job: Offered<T>,
    /// A worker's outcome, and the bytes the job scanned and hashed.
    result: Receiver<(std::thread::Result<T>, u64)>,
}

impl<T> Task<T> {
    /// The job's result. A job no worker has started yet runs here, now
    /// — joining never waits out a worker's wake, only a job already
    /// under way. A panic inside the job is re-raised here, with its
    /// payload.
    pub fn join(self) -> T {
        let unstarted = self.job.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(job) = unstarted {
            return job();
        }
        let (outcome, bytes) = self.result.recv().expect("a worker took the job");
        metrics::pool_ran(1, bytes);
        match outcome {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// Offer `job` to the pool workers while the caller carries on; see the
/// module docs. A [`Task`] dropped unjoined lets the job run unseen. With
/// no pool (single hardware thread) the job simply runs at `join`. A
/// producer asks [`lanes`](crate::parallel::lanes) before it spawns.
pub fn spawn<T, F>(job: F) -> Task<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let job: Offered<T> = Arc::new(Mutex::new(Some(Box::new(job))));
    let (done, result) = channel();
    if let Some(pool) = pool() {
        let offered = Arc::clone(&job);
        let run = move || {
            let taken = offered.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(job) = taken {
                let _ = done.send(run_counted(job)); // the task may have been dropped
            }
        };
        let sender = pool.sender.lock().unwrap_or_else(|e| e.into_inner());
        sender.send(Box::new(run)).expect("hash pool alive");
    }
    Task { job, result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spawned_jobs_return_their_values_and_panics() {
        let tasks: Vec<Task<usize>> = (0..8).map(|i| spawn(move || i * i)).collect();
        let got: Vec<usize> = tasks.into_iter().map(Task::join).collect();
        assert_eq!(got, (0..8).map(|i| i * i).collect::<Vec<_>>());
        drop(spawn(|| 1)); // unjoined: must not wedge the worker
        let started = spawn(|| std::thread::current().name().map(str::to_owned));
        std::thread::sleep(std::time::Duration::from_millis(50));
        if parallelism() > 1 {
            assert!(started.join().expect("named").starts_with("fb-hash-"));
        }
        let boom = spawn(|| -> usize { panic!("boom") });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| boom.join()));
        assert!(caught.is_err(), "the job's panic surfaces at join");
        assert_eq!(spawn(|| 7).join(), 7, "and the pool survives it");
    }

    /// Prints the two numbers the thresholds in `parallel.rs` are derived
    /// from: how long a parked worker takes to start a job — after 2 ms
    /// idle, and against how long the pool had been idle — and how many
    /// bytes SHA-256 hashes in that time.
    /// `cargo test --release -p forkbase-crypto --lib -- --ignored --nocapture wake`
    #[test]
    #[ignore = "a measurement, not a check"]
    fn measure_worker_wake_latency() {
        use std::time::{Duration, Instant};
        // The wake of a job sent `idle` after the pool's last one ended,
        // p25/p50/p75 over `n` sends.
        let wakes = |idle: Duration, n: usize| {
            let mut wakes: Vec<Duration> = (0..n)
                .map(|_| {
                    std::thread::sleep(idle);
                    let (tx, started) = channel();
                    let sent = Instant::now();
                    // Never joined: a join would run the job itself.
                    let _task = spawn(move || tx.send(Instant::now()));
                    started
                        .recv()
                        .expect("a worker ran it")
                        .duration_since(sent)
                })
                .collect();
            wakes.sort();
            [n / 4, n / 2, n * 3 / 4].map(|i| wakes[i])
        };
        let parked = wakes(Duration::from_millis(2), 200);
        let buf = vec![0xA5u8; 1 << 20];
        let mut rates: Vec<f64> = (0..50)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(crate::hash_bytes(std::hint::black_box(&buf)));
                buf.len() as f64 / start.elapsed().as_secs_f64()
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        let (wake, rate) = (parked[1], rates[rates.len() / 2]);
        println!(
            "lanes {}: worker wake p25/p50/p75 = {:?}/{:?}/{:?}; SHA-256 {:.0} MB/s; one wake = {:.0} KB hashed",
            parallelism(),
            parked[0],
            wake,
            parked[2],
            rate / 1e6,
            wake.as_secs_f64() * rate / 1e3,
        );
        for idle_us in [20, 50, 200, 1_000, 5_000] {
            let [p25, p50, p75] = wakes(Duration::from_micros(idle_us), 100);
            println!("worker wake after {idle_us} µs idle: p25/p50/p75 = {p25:?}/{p50:?}/{p75:?}");
        }
    }

    #[test]
    fn runs_all_tasks_with_stack_borrows() {
        let counter = AtomicUsize::new(0);
        let mut out = vec![0usize; 16];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let counter = &counter;
                Box::new(move || {
                    *slot = i + 1;
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn reusable_across_batches() {
        for round in 0..32 {
            let sum = AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|i| {
                    let sum = &sum;
                    Box::new(move || {
                        sum.fetch_add(i + round, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(tasks);
            assert_eq!(sum.load(Ordering::SeqCst), 6 + 4 * round);
        }
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|i| {
                    Box::new(move || {
                        if i == 2 {
                            panic!("boom");
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(tasks);
        });
        if parallelism() > 1 {
            assert!(result.is_err(), "panic must propagate to the caller");
        }
        // The pool must still execute subsequent batches.
        let ok = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let ok = &ok;
                Box::new(move || {
                    ok.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }
}
