//! Shard shape of an in-process campaign range:
//!
//! * every shard reports exactly one `WorkerMetrics` entry, in shard
//!   order, and the entries account for every aggregated execution —
//!   including under a budget smaller than the worker count and an
//!   early first-bug stop;
//! * shard 0 runs on the calling thread, so a single-worker campaign
//!   never leaves it and an `N`-worker campaign uses at most `N - 1`
//!   other threads (shards claim indices from a shared cursor, so a
//!   late shard may claim none);
//! * a thread's warm slot (the recycled execution and race detector a
//!   finished shard leaves behind) never leaks one program's state
//!   into the next program's results.

use c11tester::{Config, HandoverKind, Model};
use c11tester_campaign::{targets, Campaign, CampaignBudget, CampaignReport, StopReason};
use c11tester_workloads::ds::rwlock_buggy;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn assert_one_entry_per_shard(report: &CampaignReport, workers: usize) {
    let shards = workers.min(report.budget.max_executions as usize);
    let metrics = &report.metrics.workers;
    let ids: Vec<u64> = metrics.iter().map(|m| m.worker).collect();
    assert_eq!(
        ids,
        (0..shards as u64).collect::<Vec<_>>(),
        "{workers} workers"
    );
    assert_eq!(
        metrics.iter().map(|m| m.executions).sum::<u64>(),
        report.aggregate.executions,
        "{workers} workers"
    );
}

#[test]
fn one_metrics_entry_per_shard_summing_to_the_aggregate() {
    for workers in [1, 2, 4, 8] {
        let report = Campaign::new(Config::new().with_seed(11))
            .with_workers(workers)
            .run(&CampaignBudget::executions(40), rwlock_buggy::run_buggy);
        assert_eq!(report.aggregate.executions, 40);
        assert_one_entry_per_shard(&report, workers);
    }
}

#[test]
fn a_budget_smaller_than_the_worker_count_starts_one_shard_per_execution() {
    let config = Config::new().with_seed(11);
    let report = Campaign::new(config.clone())
        .with_workers(8)
        .run(&CampaignBudget::executions(3), rwlock_buggy::run_buggy);
    assert_eq!(report.workers, 3);
    assert_eq!(report.aggregate.executions, 3);
    assert_one_entry_per_shard(&report, 8);
    let serial = Model::new(config).run_many(3, rwlock_buggy::run_buggy);
    assert_eq!(report.aggregate, serial);
}

#[test]
fn a_first_bug_stop_still_reports_every_shard() {
    let budget = CampaignBudget::executions(400).with_stop_on_first_bug(true);
    let report = Campaign::new(Config::new().with_seed(11))
        .with_workers(4)
        .run(&budget, rwlock_buggy::run_buggy);
    assert_eq!(report.stop_reason, StopReason::FirstBug);
    assert!(report.aggregate.executions < 400);
    assert_one_entry_per_shard(&report, 4);
}

/// The OS threads the program body ran on over one campaign. Bodies on
/// other threads wait (for at most 5 s) until the caller has run one,
/// so warm workers cannot drain the range before the caller claims an
/// index, and a caller that never runs a body fails instead of hanging.
fn body_threads(workers: usize) -> HashSet<ThreadId> {
    let caller = std::thread::current().id();
    let caller_ran = AtomicBool::new(false);
    let give_up = Instant::now() + Duration::from_secs(5);
    let seen = Mutex::new(HashSet::new());
    Campaign::new(Config::new().with_seed(5))
        .with_workers(workers)
        .run(&CampaignBudget::executions(40), || {
            let me = std::thread::current().id();
            seen.lock().unwrap().insert(me);
            if me == caller {
                caller_ran.store(true, Ordering::SeqCst);
            }
            while !caller_ran.load(Ordering::SeqCst) && Instant::now() < give_up {
                std::thread::yield_now();
            }
        });
    seen.into_inner().unwrap()
}

#[test]
fn shard_zero_runs_on_the_calling_thread() {
    // Under fibers a model execution never leaves its shard's OS
    // thread; the OS-thread fallback runs bodies on model threads.
    if Config::new().handover != HandoverKind::Fiber {
        return;
    }
    let caller = std::thread::current().id();
    assert_eq!(body_threads(1), HashSet::from([caller]));
    let four = body_threads(4);
    assert!(four.contains(&caller), "the caller runs bodies too");
    assert!(
        four.len() <= 4,
        "the caller plus at most 3 workers: {four:?}"
    );
}

/// One canonical campaign on the calling thread.
fn canonical(target: &str, config: Config) -> String {
    let target = targets::find(target).expect("target exists");
    Campaign::new(config)
        .with_workers(1)
        .run(&CampaignBudget::executions(24), move || target.run())
        .canonical_json()
}

/// [`canonical`] on a new thread, whose warm slot starts empty.
fn cold(target: &'static str, config: Config) -> String {
    std::thread::spawn(move || canonical(target, config))
        .join()
        .expect("fresh thread")
}

#[test]
fn a_warm_slot_left_by_another_program_changes_nothing() {
    let config = Config::new().with_seed(0x3A7);
    // Silo under the memory limit leaves a large, aggressively pruned
    // execution and a detector full of its labels in this thread's
    // slot. The unlimited silo run after rwlock-buggy shows whether
    // the limit's pruning leaked through the slot.
    canonical("silo", config.clone().with_memory_limit());
    let rwlock = canonical("rwlock-buggy", config.clone());
    let silo = canonical("silo", config.clone());
    assert_eq!(rwlock, cold("rwlock-buggy", config.clone()));
    assert_eq!(silo, cold("silo", config));
}
