//! The shard runner: how a campaign range fans out over threads.
//!
//! [`run_shards`] runs shard 0 on the calling thread and shards
//! `1..N` on process-wide campaign workers — OS threads that park on
//! an idle list between ranges instead of being spawned and joined per
//! range. A range takes whatever workers are idle and spawns more only
//! when none are, so concurrent ranges (and ranges started inside a
//! shard) never wait on one another. Workers live until the process
//! exits and are never joined: every shard catches its own panic, which
//! the range re-raises on its caller, so a detached worker loses none.
//!
//! Each thread also keeps a *warm slot*: when a campaign shard ends,
//! its [`Model`]'s recycled execution and race detector park in the
//! thread's slot, and the next shard on that thread starts from them
//! ([`warm_model`] / [`park_model`]) — so neither the worker threads
//! nor their allocations are rebuilt per range.

use c11tester::{Config, Model, WarmState};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A shard body with its lifetime erased (see the SAFETY argument in
/// [`run_shards`]).
type Task = &'static (dyn Fn(usize) + Sync);

/// One shard of one range, handed to a worker.
struct Job {
    task: Task,
    shard: usize,
    done: Arc<Latch>,
}

/// A parked campaign worker: the next job lands in `job`.
struct Worker {
    job: Mutex<Option<Job>>,
    wake: Condvar,
}

/// Workers waiting for a job.
static IDLE: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());

/// Counts a range's outstanding worker shards down to zero.
struct Latch {
    pending: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn count_down(&self) {
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            pending = self
                .zero
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Blocks until the latch opens when dropped — on return *and* on
/// unwind, which is what makes the lifetime erasure sound.
struct WaitOnDrop<'a>(&'a Latch);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// Every critical section here is one push, pop, store or decrement,
/// so a poisoned lock still guards valid data; recovering it also keeps
/// `WaitOnDrop` from panicking inside a drop.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hands `job` to an idle worker, or to a new one if none is idle.
fn dispatch(job: Job) {
    let idle = lock(&IDLE).pop();
    if let Some(worker) = idle {
        *lock(&worker.job) = Some(job);
        worker.wake.notify_one();
        return;
    }
    let done = Arc::clone(&job.done);
    let worker = Arc::new(Worker {
        job: Mutex::new(None),
        wake: Condvar::new(),
    });
    let spawned = std::thread::Builder::new()
        .name("c11campaign-worker".to_string())
        .spawn(move || work(worker, job));
    if let Err(e) = spawned {
        // The job never runs: release its latch count before failing.
        done.count_down();
        panic!("failed to spawn campaign worker: {e}");
    }
}

/// A worker's life: run a job, go idle, wait for the next one.
fn work(me: Arc<Worker>, mut job: Job) {
    loop {
        // The task catches its own panics (see `run_shards`).
        (job.task)(job.shard);
        // Idle *before* the latch opens, so the range that just ended
        // finds this worker again for its next range.
        lock(&IDLE).push(Arc::clone(&me));
        job.done.count_down();
        let mut slot = lock(&me.job);
        job = loop {
            match slot.take() {
                Some(next) => break next,
                None => slot = me.wake.wait(slot).unwrap_or_else(PoisonError::into_inner),
            }
        };
    }
}

/// Runs `shard(0)`, …, `shard(shards - 1)` concurrently and returns
/// their results in shard order: shard 0 on the calling thread, the
/// others on persistent campaign workers (one worker spawns nothing).
///
/// A panicking shard does not cut the others short: the panic is
/// re-raised on the caller (the lowest panicking shard's, via
/// `resume_unwind`) only after every shard has returned, and the
/// workers stay usable.
pub fn run_shards<R, F>(shards: usize, shard: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        (0..shards).map(|_| Mutex::new(None)).collect();
    let run = |k: usize| {
        let result = catch_unwind(AssertUnwindSafe(|| shard(k)));
        *lock(&slots[k]) = Some(result);
    };
    let done = Arc::new(Latch {
        pending: Mutex::new(0),
        zero: Condvar::new(),
    });
    {
        let _join = WaitOnDrop(&done);
        let task: &(dyn Fn(usize) + Sync) = &run;
        // SAFETY: `task` borrows `run`, `shard` and `slots`, which all
        // outlive this block. Workers call `task` only before counting
        // `done` down, and `_join` blocks — on normal exit and on
        // unwind alike — until every dispatched job has counted down,
        // so no worker uses the erased reference after the borrow ends.
        // This is the guarantee `std::thread::scope` gives scoped
        // threads; a job whose worker fails to spawn is counted down by
        // `dispatch` itself.
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(task) };
        for k in 1..shards {
            *lock(&done.pending) += 1;
            dispatch(Job {
                task,
                shard: k,
                done: Arc::clone(&done),
            });
        }
        if shards > 0 {
            run(0);
        }
    }
    slots
        .into_iter()
        .map(|slot| {
            let result = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            result
                .expect("every shard ran")
                .unwrap_or_else(|panic| resume_unwind(panic))
        })
        .collect()
}

thread_local! {
    /// The warm state the last campaign shard on this thread left.
    static WARM: Cell<Option<WarmState>> = const { Cell::new(None) };
}

/// A fresh-behaving model for one campaign shard, seeded with the
/// calling thread's warm state if an earlier shard left one.
pub(crate) fn warm_model(config: Config) -> Model {
    let model = Model::new(config);
    match WARM.take() {
        Some(warm) => model.with_warm_state(warm),
        None => model,
    }
}

/// Parks a finished shard's model state in the calling thread's slot
/// for the next shard [`warm_model`] builds there.
pub(crate) fn park_model(model: Model) {
    WARM.set(Some(model.into_warm_state()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, CampaignBudget};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_shard_order() {
        assert_eq!(run_shards(5, |k| k * 10), vec![0, 10, 20, 30, 40]);
        assert_eq!(run_shards(1, |k| k + 1), vec![1]);
        assert!(run_shards(0, |k| k).is_empty());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_after_every_shard_returned() {
        let finished = AtomicUsize::new(0);
        let (panicked, caller_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_shards(4, |k| match k {
                0 => {
                    finished.fetch_add(1, Ordering::SeqCst);
                    caller_done.store(true, Ordering::SeqCst);
                }
                2 => {
                    panicked.store(true, Ordering::SeqCst);
                    panic!("shard {k} failed");
                }
                _ => {
                    // Finish only after the panic and the caller's own
                    // shard: the runner must still wait for this.
                    while !(panicked.load(Ordering::SeqCst) && caller_done.load(Ordering::SeqCst)) {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                }
            })
        }));
        let payload = outcome.expect_err("the shard panic propagates");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("shard 2 failed")
        );
        assert_eq!(
            finished.load(Ordering::SeqCst),
            3,
            "every other shard ran out"
        );
        // The runner (and the worker that panicked) stay usable.
        assert_eq!(run_shards(4, |k| k), vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_range_started_inside_a_shard_completes() {
        let sums = run_shards(3, |outer| {
            run_shards(3, |inner| outer * 3 + inner)
                .iter()
                .sum::<usize>()
        });
        assert_eq!(sums, vec![3, 12, 21]);
    }

    #[test]
    fn concurrent_campaigns_each_equal_the_serial_aggregate() {
        let config = Config::new().with_seed(0x5A4D);
        let program = c11tester_workloads::ds::rwlock_buggy::run_buggy;
        let serial = Model::new(config.clone()).run_many(48, program);
        std::thread::scope(|scope| {
            let campaigns: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        Campaign::new(config.clone())
                            .with_workers(4)
                            .run(&CampaignBudget::executions(48), program)
                            .aggregate
                    })
                })
                .collect();
            for campaign in campaigns {
                assert_eq!(campaign.join().expect("campaign thread"), serial);
            }
        });
    }
}
