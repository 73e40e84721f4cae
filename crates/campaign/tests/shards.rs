//! Shard shape of an in-process campaign range:
//!
//! * every shard reports exactly one `WorkerMetrics` entry, in shard
//!   order, and the entries account for every aggregated execution —
//!   including under a budget smaller than the worker count and an
//!   early first-bug stop;
//! * shard 0 runs on the calling thread, so a single-worker campaign
//!   never leaves it and an `N`-worker campaign adds `N - 1` threads.

use c11tester::{Config, HandoverKind};
use c11tester_campaign::{Campaign, CampaignBudget, CampaignReport, StopReason};
use c11tester_workloads::ds::rwlock_buggy;
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

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
fn a_budget_smaller_than_the_worker_count_runs_one_shard_per_execution() {
    let report = Campaign::new(Config::new().with_seed(11))
        .with_workers(8)
        .run(&CampaignBudget::executions(3), rwlock_buggy::run_buggy);
    assert_eq!(report.workers, 3);
    assert_eq!(report.aggregate.executions, 3);
    assert_one_entry_per_shard(&report, 8);
    assert!(report.metrics.workers.iter().all(|m| m.executions == 1));
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

/// The OS threads the program body ran on over one campaign.
fn body_threads(workers: usize) -> HashSet<ThreadId> {
    let seen = Mutex::new(HashSet::new());
    Campaign::new(Config::new().with_seed(5))
        .with_workers(workers)
        .run(&CampaignBudget::executions(40), || {
            seen.lock().unwrap().insert(std::thread::current().id());
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
    assert!(four.contains(&caller));
    assert_eq!(four.len(), 4, "the caller plus exactly 3 spawned shards");
}
