//! In-memory span recording, and the delegating wrappers through which
//! the benchmark calls each layer of the program.
//!
//! Spans are recorded only while tracing is on ([`set_enabled`]); with
//! it off every guard is inert, so untraced trials pay one atomic load
//! per campaign call and nothing per execution. A span carries a name,
//! start and end (nanoseconds since the process's first clock read),
//! the id of the span that caused it, and the id of the campaign it
//! belongs to. Spans stay in memory until [`write_tsv`] at the end of
//! the run.

use c11tester::{Config, StrategyMix};
use c11tester_adaptive::{ReweightCtx, Reweighter};
use c11tester_campaign::targets::Target;
use c11tester_campaign::{Campaign, CampaignBudget, Executor, RangeOutcome};
use c11tester_isolation::ForkServer;
use c11tester_telemetry::Phase;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: u64,
    campaign: u64,
    name: &'static str,
    start: u64,
    end: u64,
    attrs: Vec<(&'static str, u64)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread, innermost last: `(id, campaign)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let nanos = EPOCH.get_or_init(Instant::now).elapsed().as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

/// Turns span recording on or off for the spans opened afterwards.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn push(span: Span) {
    SPANS.lock().expect("span store poisoned").push(span);
}

/// An open span on the calling thread; recorded when dropped.
#[derive(Debug)]
pub struct Guard {
    span: Option<Span>,
}

fn open(name: &'static str, new_campaign: bool) -> Guard {
    if !enabled() {
        return Guard { span: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, campaign) = OPEN.with(|o| o.borrow().last().copied().unwrap_or((0, 0)));
    let campaign = if new_campaign { id } else { campaign };
    OPEN.with(|o| o.borrow_mut().push((id, campaign)));
    Guard {
        span: Some(Span {
            id,
            parent,
            campaign,
            name,
            start: now_ns(),
            end: 0,
            attrs: Vec::new(),
        }),
    }
}

/// Opens a span under the innermost open span of this thread.
pub fn enter(name: &'static str) -> Guard {
    open(name, false)
}

/// Opens a span that starts a new campaign: it and everything under
/// it share the span's id as their campaign id.
pub fn enter_campaign(name: &'static str) -> Guard {
    open(name, true)
}

impl Guard {
    /// `(span id, campaign id)` while recording, for spans opened on
    /// other threads on this span's behalf.
    fn ids(&self) -> Option<(u64, u64)> {
        self.span.as_ref().map(|s| (s.id, s.campaign))
    }

    /// Attaches a counter to the span (no-op when not recording).
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(s) = &mut self.span {
            s.attrs.push((key, value));
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.end = now_ns();
            OPEN.with(|o| o.borrow_mut().pop());
            push(span);
        }
    }
}

/// A `workloads.body` span around one `Target::run`, recorded on drop
/// so that an execution the model aborts by unwinding still counts.
struct Body {
    parent: u64,
    campaign: u64,
    start: u64,
}

impl Drop for Body {
    fn drop(&mut self) {
        push(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent: self.parent,
            campaign: self.campaign,
            name: "workloads.body",
            start: self.start,
            end: now_ns(),
            attrs: Vec::new(),
        });
    }
}

/// Takes every recorded span out of the store.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Writes spans as tab-separated lines: `id parent campaign name start
/// end attrs`, where `attrs` is `key=value` pairs joined by `;`.
pub fn write_tsv(out: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(out, "id\tparent\tcampaign\tname\tstart\tend\tattrs")?;
    for s in spans {
        let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.campaign,
            s.name,
            s.start,
            s.end,
            attrs.join(";")
        )?;
    }
    Ok(())
}

/// The campaign backend the workloads run on, wrapped so that every
/// `run_range` call is a span carrying the range's worker and phase
/// counters.
#[derive(Debug)]
pub enum Backend {
    /// Worker threads in this process, with a `workloads.body` span
    /// around each execution's `Target::run` while tracing.
    InProcess,
    /// Fork-server children re-entering this binary in `--worker` mode.
    Fork(ForkServer),
}

impl Executor for Backend {
    fn name(&self) -> &'static str {
        match self {
            Backend::InProcess => "in-process",
            Backend::Fork(fork) => fork.name(),
        }
    }

    fn run_range(
        &self,
        config: &Config,
        workers: usize,
        target: &Target,
        first_index: u64,
        budget: &CampaignBudget,
    ) -> Result<RangeOutcome, String> {
        let mut span = enter(match self {
            Backend::InProcess => "campaign.run_range",
            Backend::Fork(_) => "isolation.run_range",
        });
        let outcome = match self {
            Backend::InProcess => {
                let target = *target;
                let campaign = Campaign::new(config.clone()).with_workers(workers);
                let report = match span.ids() {
                    Some((parent, campaign_id)) => {
                        campaign.run_range(first_index, budget, move || {
                            let _body = Body {
                                parent,
                                campaign: campaign_id,
                                start: now_ns(),
                            };
                            target.run();
                        })
                    }
                    None => campaign.run_range(first_index, budget, move || target.run()),
                };
                Ok(RangeOutcome {
                    aggregate: report.aggregate,
                    crashes: Vec::new(),
                    stop_reason: report.stop_reason,
                    metrics: report.metrics,
                })
            }
            Backend::Fork(fork) => fork.run_range(config, workers, target, first_index, budget),
        };
        if let Ok(o) = &outcome {
            let m = &o.metrics;
            span.attr("executions", o.aggregate.executions);
            span.attr("workers", m.workers.len() as u64);
            span.attr(
                "busy_sum",
                m.workers.iter().map(|w| w.busy_nanos).sum::<u64>(),
            );
            span.attr(
                "busy_max",
                m.workers.iter().map(|w| w.busy_nanos).max().unwrap_or(0),
            );
            for phase in Phase::ALL {
                span.attr(phase_key(phase), m.phase.nanos(phase));
            }
        }
        outcome
    }
}

fn phase_key(phase: Phase) -> &'static str {
    match phase {
        Phase::Scheduling => "phase_scheduling",
        Phase::ReadFrom => "phase_read_from",
        Phase::MoGraph => "phase_mo_graph",
        Phase::RaceDetect => "phase_race_detect",
        Phase::Prune => "phase_prune",
    }
}

/// A [`Reweighter`] that times each call of the policy it wraps as an
/// `adaptive.reweight` span.
#[derive(Debug)]
pub struct TimedReweighter(pub Box<dyn Reweighter>);

impl Reweighter for TimedReweighter {
    fn spec(&self) -> String {
        self.0.spec()
    }

    fn reweight(&self, ctx: &ReweightCtx<'_>) -> StrategyMix {
        let _span = enter("adaptive.reweight");
        self.0.reweight(ctx)
    }
}
