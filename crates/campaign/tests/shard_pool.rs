//! The campaign workers persist across ranges: consecutive 4-worker
//! ranges reuse the same (at most 3) threads besides the caller
//! instead of spawning fresh ones per range.
//!
//! Kept as the only test of its binary: a concurrently running test
//! would draw on the same process-wide workers.

use c11tester::{Config, HandoverKind};
use c11tester_campaign::{Campaign, CampaignBudget};
use std::collections::HashSet;
use std::sync::Mutex;

#[test]
fn consecutive_ranges_reuse_the_same_workers() {
    // Under fibers a model execution never leaves its shard's OS
    // thread; the OS-thread fallback runs bodies on model threads.
    if Config::new().handover != HandoverKind::Fiber {
        return;
    }
    let caller = std::thread::current().id();
    let seen = Mutex::new(HashSet::new());
    let campaign = Campaign::new(Config::new().with_seed(5)).with_workers(4);
    for epoch in 0..5 {
        campaign.run_range(epoch * 40, &CampaignBudget::executions(40), || {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
    }
    let mut seen = seen.into_inner().unwrap();
    seen.remove(&caller);
    assert!(
        seen.len() <= 3,
        "5 ranges ran bodies on {} threads besides the caller",
        seen.len()
    );
}
