//! Byte-identity sweep over every named campaign target.
//!
//! Each registry target outside the `crash` group (those need
//! `--isolate`) runs a small fixed-seed campaign in-process, once with
//! the default configuration and once under `Config::with_memory_limit`
//! (windowed pruning plus arena compaction). The concatenated canonical
//! `c11campaign/v4` reports must reproduce the checked-in fixture byte
//! for byte. This pins the determinism contract that makes engine
//! refactors safe: an optimization of the read-from, coherence-graph or
//! pruning code may change how fast executions run, never which
//! executions run. Release builds compile out the engine's debug
//! self-checks, so run this test under `--release` as well.
//!
//! Regenerate (only for an intentional behavior change — review the
//! diff) with:
//!
//! ```text
//! cargo test -p c11tester-campaign --test golden_sweep -- --ignored regenerate
//! ```

use c11tester::Config;
use c11tester_campaign::{targets, Campaign, CampaignBudget};

const SEED: u64 = 0x5EED_0C11;
const EXECUTIONS: u64 = 16;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sweep.txt")
}

/// One `# <target> <mode>` header line plus the canonical report per
/// (target, configuration), in registry order.
fn sweep() -> Vec<String> {
    let mut entries = Vec::new();
    for target in targets::all().into_iter().filter(|t| t.group != "crash") {
        for (mode, config) in [
            ("default", Config::new().with_seed(SEED)),
            (
                "memory-limit",
                Config::new().with_seed(SEED).with_memory_limit(),
            ),
        ] {
            let report = Campaign::new(config)
                .with_workers(2)
                .run(&CampaignBudget::executions(EXECUTIONS), move || {
                    target.run()
                });
            entries.push(format!(
                "# {} {mode}\n{}\n",
                target.name,
                report.canonical_json()
            ));
        }
    }
    entries
}

#[test]
fn every_target_reproduces_its_canonical_report() {
    let expected = std::fs::read_to_string(fixture_path())
        .expect("fixture present (regenerate with the ignored `regenerate` test)");
    let actual = sweep();
    let mut rest = expected.as_str();
    for entry in &actual {
        let header = entry.lines().next().expect("entry has a header");
        assert!(
            rest.starts_with(entry.as_str()),
            "canonical report for `{header}` diverged from tests/golden/sweep.txt"
        );
        rest = &rest[entry.len()..];
    }
    assert!(
        rest.is_empty(),
        "fixture has entries for targets no longer swept"
    );
}

/// Not a test: rewrites the fixture from the current output.
#[test]
#[ignore = "golden-file regeneration helper"]
fn regenerate() {
    std::fs::write(fixture_path(), sweep().concat()).expect("write fixture");
}
