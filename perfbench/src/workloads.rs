//! The benchmark's workloads: which targets each runs, on which
//! campaign path, with which known answers; and one trial of a
//! workload, which runs every target once and checks the verdicts.

use crate::trace::{self, Backend, TimedReweighter};
use c11tester::{Config, StrategyMix, TestReport};
use c11tester_adaptive::{parse_policy, AdaptiveCampaign};
use c11tester_campaign::targets::{self, Target};
use c11tester_campaign::{Campaign, CampaignBudget};
use c11tester_isolation::ForkServer;
use c11tester_telemetry::{CampaignMetrics, ForkHealth};
use std::time::Instant;

/// The default arms of `c11campaign --adaptive`.
const ADAPTIVE_MIX: &str = "random:1,pct2:1,pct3:1,burst:1";
/// Executions per adaptive epoch (the `c11campaign` default).
const EPOCH_LEN: u64 = 64;

/// The campaign path a workload drives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Path {
    /// `AdaptiveCampaign` with a ucb1 policy, in-process.
    Adaptive,
    /// `Campaign` with the fixed random strategy, in-process.
    Fixed,
    /// `Campaign` on the fork server with `--memory-limit`.
    Isolated,
}

/// The verdict a target must reach in every trial.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// At least one execution with a bug.
    Bug,
    /// No execution with a bug.
    NoBug,
    /// At least one execution that killed its worker process.
    Crash,
}

/// One target of a workload with its per-trial execution budget.
#[derive(Copy, Clone, Debug)]
pub struct Case {
    pub target: &'static str,
    pub executions: u64,
    pub expect: Expect,
}

/// A named workload.
#[derive(Copy, Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    pub cases: &'static [Case],
}

const fn case(target: &'static str, executions: u64, expect: Expect) -> Case {
    Case {
        target,
        executions,
        expect,
    }
}

/// Every workload. Budgets are sized so that one trial takes about a
/// quarter of a second at two workers: a 30-second run holds about a
/// hundred trials to take medians over.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "bughunt-small",
        path: Path::Adaptive,
        cases: &[
            case("seqlock-buggy", 2048, Expect::Bug),
            case("rwlock-buggy", 2048, Expect::Bug),
            case("dekker-fences", 2048, Expect::Bug),
            case("mcs-lock", 2048, Expect::Bug),
            case("seqlock-fixed", 2048, Expect::NoBug),
            case("rwlock-fixed", 2048, Expect::NoBug),
        ],
    },
    Workload {
        name: "graph-long",
        path: Path::Fixed,
        cases: &[
            case("mpmc-queue-large", 200, Expect::Bug),
            case("ms-queue-large", 1200, Expect::Bug),
            case("silo", 200, Expect::NoBug),
        ],
    },
    Workload {
        name: "isolated-longrun",
        path: Path::Isolated,
        cases: &[
            // Four fork-server batches of 64, so both workers stay busy.
            case("mpmc-queue-10x", 256, Expect::Bug),
            case("null-deref-buggy", 512, Expect::Crash),
        ],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Exact work counts of one trial, summed over its targets. For a
/// fixed seed they repeat exactly from trial to trial and run to run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub atomic_ops: u64,
    pub loads: u64,
    pub normal_accesses: u64,
    pub rf_candidates_rejected: u64,
    pub mo_edges_added: u64,
    pub mo_edges_redundant: u64,
    pub mo_order_reorders: u64,
    pub reach_fast_negative: u64,
    pub reach_cv_checks: u64,
    pub prune_passes: u64,
    pub pruned_stores: u64,
    pub compactions: u64,
    pub peak_live_nodes: u64,
    pub epochs: u64,
    pub crashes: u64,
    pub spawns: u64,
    pub respawns: u64,
    pub frames: u64,
}

impl Counts {
    fn absorb(&mut self, report: &TestReport, epochs: u64, crashes: u64, fork: &ForkHealth) {
        let s = &report.total_stats;
        self.atomic_ops += s.atomic_ops();
        self.loads += s.atomic_loads + s.rmws;
        self.normal_accesses += s.normal_accesses;
        self.rf_candidates_rejected += s.candidates_rejected;
        self.mo_edges_added += s.mograph.edges_added;
        self.mo_edges_redundant += s.mograph.edges_redundant;
        self.mo_order_reorders += s.mograph_perf.order_reorders;
        self.reach_fast_negative += s.mograph_perf.reach_fast_negative;
        self.reach_cv_checks += s.mograph_perf.reach_cv_checks;
        self.prune_passes += s.prune_passes;
        self.pruned_stores += s.pruned_stores;
        self.compactions += s.mograph_perf.compactions;
        self.peak_live_nodes = self.peak_live_nodes.max(s.mograph_perf.peak_live_nodes);
        self.epochs += epochs;
        self.crashes += crashes;
        self.spawns += fork.spawns;
        self.respawns += fork.respawns;
        self.frames += fork.frames;
    }

    /// `(name, value)` pairs in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 18] {
        [
            ("atomic_ops", self.atomic_ops),
            ("loads", self.loads),
            ("normal_accesses", self.normal_accesses),
            ("rf_candidates_rejected", self.rf_candidates_rejected),
            ("mo_edges_added", self.mo_edges_added),
            ("mo_edges_redundant", self.mo_edges_redundant),
            ("mo_order_reorders", self.mo_order_reorders),
            ("reach_fast_negative", self.reach_fast_negative),
            ("reach_cv_checks", self.reach_cv_checks),
            ("prune_passes", self.prune_passes),
            ("pruned_stores", self.pruned_stores),
            ("compactions", self.compactions),
            ("peak_live_nodes", self.peak_live_nodes),
            ("epochs", self.epochs),
            ("crashes", self.crashes),
            ("spawns", self.spawns),
            ("respawns", self.respawns),
            ("frames", self.frames),
        ]
    }
}

/// What one trial produced.
#[derive(Debug, Default)]
pub struct Trial {
    /// Wall time from handing the workload over to the last canonical
    /// report.
    pub wall_ns: u64,
    /// Time inside the campaign calls.
    pub campaign_ns: u64,
    /// Executions that completed.
    pub executions: u64,
    /// Executions attempted: completed plus crashed.
    pub attempted: u64,
    /// Executions with a bug, plus crashed executions.
    pub bug_execs: u64,
    /// Deduplicated race classes, summed over targets.
    pub distinct_races: u64,
    /// Executions lost to the tool's own failures: infrastructure
    /// errors, timeout kills, and crashes of targets outside the
    /// `crash` group.
    pub failed: u64,
    /// Canonical JSON per target, in case order.
    pub canonical: Vec<String>,
    /// Exact work counts.
    pub counts: Counts,
    /// Sum and max of fork-server frame round trips.
    pub rtt_total_ns: u64,
    pub rtt_max_ns: u64,
    /// Known-answer violations (empty when every verdict matched).
    pub violations: Vec<String>,
}

/// Runs a workload's campaigns with a fixed seed and worker count.
#[derive(Debug)]
pub struct Runner {
    workload: &'static Workload,
    seed: u64,
    workers: usize,
    backend: Backend,
    targets: Vec<Target>,
}

/// The result of one campaign call.
struct Outcome {
    aggregate: TestReport,
    crashes: u64,
    epochs: u64,
    metrics: CampaignMetrics,
    /// Time inside the campaign call, report rendering excluded.
    campaign_ns: u64,
    /// The canonical report, when asked for.
    canonical: String,
}

impl Runner {
    pub fn new(workload: &'static Workload, seed: u64, workers: usize) -> Result<Runner, String> {
        let backend = match workload.path {
            // Children re-enter this binary, which answers `--worker`.
            Path::Isolated => Backend::Fork(ForkServer::current_exe()?),
            Path::Adaptive | Path::Fixed => Backend::InProcess,
        };
        let targets = workload
            .cases
            .iter()
            .map(|c| targets::find(c.target).ok_or(format!("unknown target `{}`", c.target)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Runner {
            workload,
            seed,
            workers,
            backend,
            targets,
        })
    }

    fn config(&self) -> Config {
        let config = Config::new().with_seed(self.seed);
        match self.workload.path {
            Path::Adaptive => config.with_mix(StrategyMix::parse(ADAPTIVE_MIX).expect("valid mix")),
            Path::Fixed => config,
            Path::Isolated => config.with_memory_limit(),
        }
    }

    /// One campaign over `executions` executions of `target`; with
    /// `canonical`, also renders its canonical report.
    fn campaign(
        &self,
        target: &Target,
        executions: u64,
        canonical: bool,
    ) -> Result<Outcome, String> {
        let budget = CampaignBudget::executions(executions);
        let call = Instant::now();
        if self.workload.path == Path::Adaptive {
            let campaign = AdaptiveCampaign::new(self.config())
                .with_workers(self.workers)
                .with_epoch_len(EPOCH_LEN)
                .with_reweighter(Box::new(TimedReweighter(parse_policy("ucb1")?)));
            let report = {
                let _span = trace::enter_campaign("adaptive.run_target");
                campaign.run_target(&self.backend, target, &budget)?
            };
            let campaign_ns = elapsed_ns(call);
            Ok(Outcome {
                crashes: report.trace.crash_records().len() as u64,
                epochs: report.trace.epochs() as u64,
                campaign_ns,
                canonical: render(canonical, || report.canonical_json()),
                aggregate: report.trace.aggregate,
                metrics: report.metrics,
            })
        } else {
            let campaign = Campaign::new(self.config()).with_workers(self.workers);
            let report = {
                let _span = trace::enter_campaign("campaign.run_target");
                campaign.run_target(&self.backend, target, &budget)?
            };
            let campaign_ns = elapsed_ns(call);
            Ok(Outcome {
                crashes: report.crashes.len() as u64,
                epochs: 0,
                campaign_ns,
                canonical: render(canonical, || report.canonical_json()),
                aggregate: report.aggregate,
                metrics: report.metrics,
            })
        }
    }

    /// Set-up time: one cold one-execution campaign per target (fresh
    /// campaign, models, arenas and fiber stacks; a first child spawn
    /// under isolation), summed over the targets.
    pub fn setup_ns(&self) -> Result<u64, String> {
        let start = Instant::now();
        for target in &self.targets {
            self.campaign(target, 1, false)?;
        }
        Ok(elapsed_ns(start))
    }

    /// Runs every target once and checks each verdict.
    pub fn trial(&self) -> Trial {
        let mut trial = Trial::default();
        let start = Instant::now();
        for (case, target) in self.workload.cases.iter().zip(&self.targets) {
            let o = match self.campaign(target, case.executions, true) {
                Ok(o) => o,
                Err(e) => {
                    trial.attempted += case.executions;
                    trial.failed += case.executions;
                    trial.canonical.push(String::new());
                    trial
                        .violations
                        .push(format!("{}: campaign failed: {e}", case.target));
                    continue;
                }
            };
            let crashes = o.crashes;
            let with_bug = o.aggregate.executions_with_bug;
            trial.campaign_ns += o.campaign_ns;
            trial.executions += o.aggregate.executions;
            trial.attempted += o.aggregate.executions + crashes;
            trial.bug_execs += with_bug + crashes;
            trial.distinct_races += o.aggregate.distinct_race_count() as u64;
            trial.failed += o.metrics.fork.timeout_kills;
            if target.group != "crash" {
                trial.failed += crashes;
            }
            trial.rtt_total_ns += o.metrics.fork.frame_rtt_nanos_total;
            trial.rtt_max_ns = trial.rtt_max_ns.max(o.metrics.fork.frame_rtt_nanos_max);
            trial
                .counts
                .absorb(&o.aggregate, o.epochs, crashes, &o.metrics.fork);
            let met = match case.expect {
                Expect::Bug => with_bug > 0,
                Expect::NoBug => with_bug == 0 && crashes == 0,
                Expect::Crash => crashes > 0,
            };
            if !met {
                trial.violations.push(format!(
                    "{}: expected {:?}, got {} executions with a bug and {} crashes out of {}",
                    case.target, case.expect, with_bug, crashes, case.executions
                ));
                trial.failed += case.executions;
            }
            trial.canonical.push(o.canonical);
        }
        trial.wall_ns = elapsed_ns(start);
        trial
    }
}

/// Renders a canonical report, if `wanted`, inside a
/// `campaign.report_json` span that records the report's size.
fn render(wanted: bool, json: impl FnOnce() -> String) -> String {
    if !wanted {
        return String::new();
    }
    let mut span = trace::enter("campaign.report_json");
    let text = json();
    span.attr("bytes", text.len() as u64);
    text
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
