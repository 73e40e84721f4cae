//! `perfbench`: runs one benchmark workload through the public campaign
//! API and prints one JSON line of raw measurements; `run.py` builds
//! this binary, runs it, and turns that line into the benchmark's
//! metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! A run measures set-up time, runs one warm-up trial (the reference
//! verdict), then repeats trials until `--seconds` have passed. With
//! `--trace 1` about eight of them, spread evenly over the run, are
//! traced, and their spans are written to `--spans-out` at the end.
//!
//! The fork server of the isolated workload re-enters this binary as
//! `perfbench --worker …`.

mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Counts, Runner, Trial};

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 31;
/// Measured trials per run at the least, whatever `--seconds` says.
const MIN_TRIALS: usize = 2;
/// Traced trials a run aims at, spread evenly over its time; this bounds
/// the spans held in memory (one per execution in-process).
const TRACED_TRIALS: u32 = 8;

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workloads::find(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                })
            }
            "--spans-out" => spans_out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--worker") {
        argv.next();
        return c11tester_isolation::worker_main(argv);
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The timings of one measured trial and whether it was traced.
struct Measured {
    traced: bool,
    wall_ns: u64,
    campaign_ns: u64,
    executions: u64,
    rtt_total_ns: u64,
    rtt_max_ns: u64,
}

fn run(args: &Args) -> Result<String, String> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    let runner = Runner::new(args.workload, args.seed, workers)?;

    let setup_ns = (0..SETUP_REPS)
        .map(|_| runner.setup_ns())
        .collect::<Result<Vec<u64>, String>>()?;

    let reference = runner.trial();
    let mut violations = reference.violations.clone();
    let mut attempted = reference.attempted;
    let mut failed = reference.failed;

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut measured: Vec<Measured> = Vec::new();
    let mut traced_count = 0;
    while start.elapsed() < budget || measured.len() < MIN_TRIALS {
        // The k-th traced trial is the first one to start after k/8 of
        // the run, and never directly after another traced trial.
        let traced = args.trace
            && traced_count < TRACED_TRIALS
            && start.elapsed() >= budget / TRACED_TRIALS * traced_count
            && !measured.last().is_some_and(|m| m.traced);
        traced_count += u32::from(traced);
        let trial = if traced {
            trace::set_enabled(true);
            c11tester_telemetry::set_profiling(true);
            let trial = {
                let _root = trace::enter("bench.trial");
                runner.trial()
            };
            c11tester_telemetry::set_profiling(false);
            trace::set_enabled(false);
            trial
        } else {
            runner.trial()
        };
        attempted += trial.attempted;
        failed += trial.failed;
        violations.extend(trial.violations.iter().cloned());
        let n = measured.len() + 1;
        if trial.canonical != reference.canonical {
            violations.push(format!(
                "trial {n}: canonical report differs from the warm-up trial's"
            ));
            failed += trial.attempted;
        }
        if trial.counts != reference.counts {
            violations.push(format!(
                "trial {n}: work counts differ from the warm-up trial's"
            ));
        }
        measured.push(Measured {
            traced,
            wall_ns: trial.wall_ns,
            campaign_ns: trial.campaign_ns,
            executions: trial.executions,
            rtt_total_ns: trial.rtt_total_ns,
            rtt_max_ns: trial.rtt_max_ns,
        });
    }

    if let Some(path) = &args.spans_out {
        let spans = trace::take();
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        trace::write_tsv(&mut out, &spans)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("{path}: {e}"))?;
    }

    Ok(render(
        args,
        workers,
        &setup_ns,
        &reference,
        &measured,
        attempted,
        failed,
        &violations,
    ))
}

#[allow(clippy::too_many_arguments)]
fn render(
    args: &Args,
    workers: usize,
    setup_ns: &[u64],
    reference: &Trial,
    measured: &[Measured],
    attempted: u64,
    failed: u64,
    violations: &[String],
) -> String {
    let mut out = String::new();
    let join = |v: &mut dyn Iterator<Item = String>| v.collect::<Vec<_>>().join(",");
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"workers\":{},\"trace\":{},\"attempted\":{},\"failed\":{}",
        args.workload.name, args.seed, workers, args.trace, attempted, failed
    );
    let _ = write!(
        out,
        ",\"setup_ns\":[{}]",
        join(&mut setup_ns.iter().map(u64::to_string))
    );
    let _ = write!(
        out,
        ",\"reference\":{{\"attempted\":{},\"bug_execs\":{},\"distinct_races\":{},\"canonical_fnv\":\"{:016x}\",\"counts\":{}}}",
        reference.attempted,
        reference.bug_execs,
        reference.distinct_races,
        fnv1a(reference.canonical.concat().as_bytes()),
        counts_json(&reference.counts),
    );
    let trials = measured.iter().map(|t| {
        format!(
            "{{\"traced\":{},\"wall_ns\":{},\"campaign_ns\":{},\"executions\":{},\"rtt_total_ns\":{},\"rtt_max_ns\":{}}}",
            t.traced, t.wall_ns, t.campaign_ns, t.executions, t.rtt_total_ns, t.rtt_max_ns
        )
    });
    let _ = write!(out, ",\"trials\":[{}]", join(&mut trials.into_iter()));
    let _ = write!(
        out,
        ",\"violations\":[{}]}}",
        join(&mut violations.iter().map(|v| json_string(v)))
    );
    out
}

fn counts_json(counts: &Counts) -> String {
    let fields: Vec<String> = counts
        .fields()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// 64-bit FNV-1a, to print a short fingerprint of the canonical
/// reports that separate runs can be compared by.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
