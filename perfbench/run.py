#!/usr/bin/env python3
"""Builds and runs the c11tester-rs benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds the `perfbench`
package (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload, prints every metric with its unit, and ends with one JSON
line: `correct`, `attempted`, `failed`, and the end-to-end metrics of
BENCHMARK.json (`--trace 0`) or its per-layer metrics (`--trace 1`).
It exits nonzero when a known-answer check fails or an execution fails
for the tool's own reasons. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The runner bounds itself by --seconds; this is the backstop.
KILL_AFTER_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not analysis.valid_name(m["name"]):
            fail(f"bad metric name {m['name']!r} in BENCHMARK.json")
    return spec


def build(target_dir):
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no crates/ beside perfbench/ in {ROOT}: not a source checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env, stdout=sys.stderr, timeout=870)
    if done.returncode != 0:
        fail("cargo build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run_runner(cmd):
    """Runs the runner; returns its stdout and the peak resident set of
    it and every process it waited for, in MiB."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(KILL_AFTER_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 reports ru_maxrss over the child and its waited-for
        # descendants (the fork-server children), in KiB on Linux.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode != 0:
        fail(f"runner exited with status {proc.returncode}")
    return out.decode(), usage.ru_maxrss / 1024


def describe(name, value, unit, samples=None):
    line = f"{name:<40} {value:>16.6g} {unit}"
    if samples and len(samples) > 1:
        q1, _, q3 = analysis.quartiles(samples)
        line += f"   (n={len(samples)}, q1 {q1:.6g}, q3 {q3:.6g}"
        tail = analysis.tail_percentile(samples)
        if tail:
            line += f", p{tail[0]:g} {tail[1]:.6g}"
        line += ")"
    print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(target_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans_path = None
    if args.trace:
        os.makedirs(os.path.join(target_dir, "perfbench-trace"), exist_ok=True)
        spans_path = os.path.join(target_dir, "perfbench-trace",
                                  f"{args.workload}-{args.seed}.tsv")
        cmd += ["--spans-out", spans_path]
    out, peak_rss_mb = run_runner(cmd)
    raw = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        values, samples = analysis.per_layer(raw, analysis.read_spans(spans_path))
        os.remove(spans_path)
        wanted = spec["per_layer"]
    else:
        values = analysis.end_to_end(raw, peak_rss_mb)
        samples = []
        wanted = spec["end_to_end"]

    untraced = [t for t in raw["trials"] if not t["traced"]]
    timing_samples = {
        "execs_per_s": [t["executions"] / t["campaign_ns"] * 1e9 for t in untraced],
        "verdict_s": [t["wall_ns"] / 1e9 for t in untraced],
        "setup_s": [ns / 1e9 for ns in raw["setup_ns"]],
        "workloads.body_p50_us": [ns / 1e3 for ns in samples],
    }
    print(f"workload {raw['workload']}, seed {raw['seed']}, {raw['workers']} worker(s), "
          f"{len(raw['trials'])} measured trial(s), "
          f"canonical fnv {raw['reference']['canonical_fnv']}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        describe(m["name"], values[m["name"]], m["unit"], timing_samples.get(m["name"]))

    checks = list(raw["violations"])
    if args.trace and not 0.9 <= values["trace.attributed_frac"] <= 1.1:
        checks.append(f"layer self times cover {values['trace.attributed_frac']:.3f} "
                      "of the traced wall time, outside [0.9, 1.1]")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"{'failed_frac':<40} {failed / attempted:>16.6g} fraction "
          f"({failed} of {attempted} executions)")
    for c in checks:
        print(f"CHECK FAILED: {c}")
    correct = not checks and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
