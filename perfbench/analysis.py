"""Statistics helpers and the metric computation of the benchmark.

`perfbench` (the Rust runner) prints one JSON object of raw
measurements per run and, with tracing, writes its spans to a
tab-separated file. This module turns both into the benchmark's
end-to-end and per-layer metrics.
"""

import math
import re
import statistics
from collections import defaultdict

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

# Phase timer attribute of a run_range span -> the layer metric it feeds.
PHASES = {
    "phase_scheduling": "runtime.scheduling_ns",
    "phase_read_from": "core.read_from_ns",
    "phase_mo_graph": "core.mo_graph_ns",
    "phase_race_detect": "race.detect_ns",
    "phase_prune": "core.prune_ns",
}

# Layer self times which, with c11tester.unattributed_ns, partition the
# wall time of a traced trial.
SELF_TIMES = (
    "bench.self_ns",
    "adaptive.self_ns",
    "campaign.self_ns",
    "isolation.self_ns",
    "c11tester.exec_overhead_ns",
    *PHASES.values(),
    "c11tester.unattributed_ns",
)

RANGES = ("campaign.run_range", "isolation.run_range")
BODY = "workloads.body"
RANGES_NS = tuple(r + "_ns" for r in RANGES)

# Figures of one traced trial reported as their median over the trials.
TRIAL_FIGURES = (
    "trace.wall_ns",
    "trace.attributed_frac",
    "campaign.epoch_gap_ns",
    "campaign.report_json_ns",
    "campaign.report_json_bytes",
    "campaign.shard_imbalance",
    "adaptive.reweight_ns",
    "adaptive.reweight_calls",
    "c11tester.exec_overhead_ns_per_exec",
)


def valid_name(name):
    """True when `name` is a legal metric name: letters, digits, `_`,
    `.` and `-`, starting with a letter or digit, at most 64 long."""
    return bool(NAME.match(name))


def quartiles(values):
    """First quartile, median, third quartile, as `statistics.quantiles`
    gives them (one value is its own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, min_beyond=10, candidates=(99.9, 99, 95, 90, 75, 50)):
    """The highest candidate percentile with at least `min_beyond`
    samples above it, as `(percent, value)` by nearest rank; None when
    even the median has fewer samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in candidates:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1]
    return None


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def ratio(num, den):
    return num / den if den else 0.0


def read_spans(path):
    """Reads the runner's span file into a list of dicts."""
    spans = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        if header != ["id", "parent", "campaign", "name", "start", "end", "attrs"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for line in f:
            sid, parent, campaign, name, start, end, attrs = line.rstrip("\n").split("\t")
            spans.append({
                "id": int(sid),
                "parent": int(parent),
                "campaign": int(campaign),
                "name": name,
                "start": int(start),
                "end": int(end),
                "attrs": {k: int(v) for k, v in (kv.split("=") for kv in attrs.split(";") if kv)},
            })
    return spans


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def trial_layers(root, children):
    """Per-layer figures of one traced trial rooted at `root`.

    Each span on the calling thread gives its layer (the part of its
    name before the first dot) its self time: its duration minus the
    part its child spans cover. A run_range span instead hands the time
    its workers were busy (the longest worker's busy time) to the
    worker-side layers, split in proportion to their thread time: the
    five phase timers, the execution bodies minus those timers
    (c11tester.unattributed_ns), and worker time outside the bodies
    (c11tester.exec_overhead_ns). Under the fork server there are no
    body spans, so all child time outside the phases is unattributed.
    """
    out = defaultdict(float)
    samples = []
    busy_sum_total = capacity = overhead_raw = inproc_execs = 0
    stack = [root]
    while stack:
        span = stack.pop()
        kids = children.get(span["id"], [])
        layer = span["name"].split(".")[0]
        duration = span["end"] - span["start"]
        if span["name"] in RANGES:
            a = span["attrs"]
            out[span["name"] + "_ns"] += duration
            bodies = [k["end"] - k["start"] for k in kids if k["name"] == BODY]
            samples.extend(bodies)
            busy = min(duration, a["busy_max"])
            scale = busy / a["busy_sum"] if a["busy_sum"] else 0.0
            phases = sum(a[p] for p in PHASES)
            if span["name"] == "campaign.run_range":
                body = sum(bodies)
                overhead_raw += a["busy_sum"] - body
                inproc_execs += a["executions"]
                out["c11tester.exec_overhead_ns"] += (a["busy_sum"] - body) * scale
            else:
                body = a["busy_sum"]
            for attr, metric in PHASES.items():
                out[metric] += a[attr] * scale
            out["c11tester.unattributed_ns"] += (body - phases) * scale
            out[layer + ".self_ns"] += duration - busy
            busy_sum_total += a["busy_sum"]
            capacity += a["busy_max"] * a["workers"]
            continue
        out[layer + ".self_ns"] += duration - covered(
            [(k["start"], k["end"]) for k in kids], span["start"], span["end"])
        if span["name"] == "adaptive.reweight":
            out["adaptive.reweight_ns"] += duration
            out["adaptive.reweight_calls"] += 1
        elif span["name"] == "campaign.report_json":
            out["campaign.report_json_ns"] += duration
            out["campaign.report_json_bytes"] += span["attrs"]["bytes"]
        elif span["name"] == "adaptive.run_target":
            ranges = sorted((k["start"], k["end"]) for k in kids if k["name"] in RANGES)
            out["campaign.epoch_gap_ns"] += sum(
                b[0] - a[1] for a, b in zip(ranges, ranges[1:]))
        stack.extend(kids)
    wall = root["end"] - root["start"]
    out["trace.wall_ns"] = wall
    out["trace.attributed_frac"] = sum(out[k] for k in SELF_TIMES) / wall
    out["campaign.shard_imbalance"] = ratio(capacity, busy_sum_total)
    out["c11tester.exec_overhead_ns_per_exec"] = ratio(overhead_raw, inproc_execs)
    return out, samples


def layer_metrics(spans):
    """Per-trial layer figures (one dict per traced trial, in order)
    and every execution-body duration of the traced trials."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    roots = sorted((s for s in children[0] if s["name"] == "bench.trial"),
                   key=lambda s: s["start"])
    trials, samples = [], []
    for root in roots:
        figures, bodies = trial_layers(root, children)
        trials.append(figures)
        samples.extend(bodies)
    return trials, samples


def end_to_end(raw, peak_rss_mb):
    """The end-to-end metrics of an untraced run."""
    trials = [t for t in raw["trials"] if not t["traced"]]
    ref = raw["reference"]
    return {
        "execs_per_s": statistics.median(
            [t["executions"] / t["campaign_ns"] * 1e9 for t in trials]),
        "verdict_s": statistics.median([t["wall_ns"] for t in trials]) / 1e9,
        "setup_s": statistics.median(raw["setup_ns"]) / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "bug_rate": ref["bug_execs"] / ref["attempted"],
        "distinct_races": ref["distinct_races"],
    }


def per_layer(raw, spans):
    """The per-layer metrics of a traced run, and the body samples."""
    trials, samples = layer_metrics(spans)
    if not trials:
        raise ValueError("no traced trial in the span file")
    keys = set(SELF_TIMES) | set(RANGES_NS) | set(TRIAL_FIGURES)
    out = {k: statistics.median([t.get(k, 0.0) for t in trials]) for k in sorted(keys)}

    untraced = [t for t in raw["trials"] if not t["traced"]]
    traced = [t for t in raw["trials"] if t["traced"]]
    out["trace_overhead_frac"] = (statistics.median([t["wall_ns"] for t in traced])
                                  / statistics.median([t["wall_ns"] for t in untraced]) - 1)
    if samples:
        out["workloads.body_p50_us"] = percentile(samples, 50) / 1e3
        out["workloads.body_p99_us"] = percentile(samples, 99) / 1e3
    else:
        out["workloads.body_p50_us"] = out["workloads.body_p99_us"] = 0.0
    out["workloads.body_samples"] = len(samples)

    c = raw["reference"]["counts"]
    frames = c["frames"]
    out.update({
        "c11tester.atomic_ops": c["atomic_ops"],
        "race.normal_accesses": c["normal_accesses"],
        "core.loads": c["loads"],
        "core.rf_candidates_rejected": c["rf_candidates_rejected"],
        "core.rf_rejects_per_load": ratio(c["rf_candidates_rejected"], c["loads"]),
        "core.mo_edges_added": c["mo_edges_added"],
        "core.mo_edge_requests": c["mo_edges_added"] + c["mo_edges_redundant"],
        "core.mo_edges_redundant_frac": ratio(
            c["mo_edges_redundant"], c["mo_edges_added"] + c["mo_edges_redundant"]),
        "core.mo_order_reorders": c["mo_order_reorders"],
        "core.reach_queries": c["reach_fast_negative"] + c["reach_cv_checks"],
        "core.reach_fast_negative_frac": ratio(
            c["reach_fast_negative"], c["reach_fast_negative"] + c["reach_cv_checks"]),
        "core.prune_passes": c["prune_passes"],
        "core.pruned_stores": c["pruned_stores"],
        "core.compactions": c["compactions"],
        "core.peak_live_nodes": c["peak_live_nodes"],
        "adaptive.epochs": c["epochs"],
        "isolation.crashes": c["crashes"],
        "isolation.spawns": c["spawns"],
        "isolation.respawns": c["respawns"],
        "isolation.frames": frames,
        "isolation.frame_rtt_mean_us": statistics.median(
            [ratio(t["rtt_total_ns"], frames) for t in untraced]) / 1e3,
        "isolation.frame_rtt_max_us": statistics.median([t["rtt_max_ns"] for t in untraced]) / 1e3,
    })
    return out, samples

