"""lawcat benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload suite|complete|bridges \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up writes the workload's inputs from the
seed under `perfbench/work/` and starts a cold worker; it is repeated and its
median reported.  The timed phase then runs passes over the same jobs, each
pass in a fresh worker process (`worker.py`), until another pass would end
after S seconds; at least one pass runs.  With `--trace 1` the passes
alternate untraced and traced, and the per-layer metrics come from the traced
ones.  Every output is checked; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import FUNCTIONS, span_name  # noqa: E402
from worker import import_lawcat  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
WORK = os.path.join("perfbench", "work")
SETUP_REPEATS = 7
ORACLE_SAMPLE = 10
RUN_LIMIT_S = 170

LAYER_FUNCTIONS = tuple(dict.fromkeys(span_name(m, f) for m, f in FUNCTIONS))
SPLIT_ITEMS = ("hom-xi", "xi-algebra")


class WorkerFailed(Exception):
    pass


def run_worker(args, deadline):
    """Run worker.py with `args`; returns its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        raise WorkerFailed("no time left in the run")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def set_up(workload, seed, workdir, deadline):
    """Write the inputs into `workdir` and start a cold worker.

    Returns (seconds taken at the probe's reference speed, jobs file, jobs).
    """
    os.makedirs(workdir, exist_ok=True)
    with SpeedProbe() as probe:
        t0 = time.perf_counter_ns()
        jobs = inputs.WORKLOADS[workload](seed, workdir)
        jobs_file = os.path.join(workdir, "jobs.json")
        inputs.overwrite(jobs_file, json.dumps(jobs))
        run_worker(["--probe"], deadline)
        taken_ns = time.perf_counter_ns() - t0 - probe.spent_ns
    return taken_ns / 1e9 * probe.scale(), jobs_file, jobs


def one_pass(jobs_file, workdir, trace, deadline):
    out = os.path.join(workdir, f"pass-{trace}.json")
    args = ["--jobs", jobs_file, "--out", out, "--trace", str(trace)]
    if trace:
        args += ["--spans", os.path.join(workdir, "spans.tsv")]
    run_worker(args, deadline)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def suite_split(passes):
    """Median seconds of hom-xi, xi-algebra and everything else in the suite."""
    split = {f"suite.{item}_s": [] for item in SPLIT_ITEMS}
    split["suite.rest_s"] = []
    for res in passes:
        items = res["suite_items_s"]
        if not all(item in items for item in SPLIT_ITEMS):
            return {}
        scale = res["probe_scale"]
        for item in SPLIT_ITEMS:
            split[f"suite.{item}_s"].append(items[item] * scale)
        split["suite.rest_s"].append((res["pass_s"] - sum(items[i] for i in SPLIT_ITEMS)) * scale)
    return {k: statistics.median(v) for k, v in split.items()}


def end_to_end(setup_times, passes):
    """End-to-end metrics of the untraced passes, at the probe's reference speed.

    Each job's latency is scaled by its pass's probe scale, then its median
    over the passes is taken, which filters bursts that hit one pass;
    `wall_s` is the sum of these medians, the time of one typical pass.
    """
    scaled = [[ms * res["probe_scale"] for ms in res["latencies_ms"]] for res in passes]
    per_job = [statistics.median(ms) for ms in zip(*scaled)]
    wall = sum(per_job) / 1e3
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(res["peak_rss_kb"] for res in passes) / 1024, "MB"),
        "jobs_per_s": (len(per_job) / wall, "1/s"),
        "job_p50_ms": (percentile(per_job, 50), "ms"),
        "job_p99_ms": (percentile(per_job, 99), "ms"),
    }


def per_layer(traced, untraced):
    """Per-pass means over the traced passes, so that the self times add up."""
    k = len(traced)

    def mean(values):
        return sum(values) / k

    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.self_s"] = (mean(r["trace"]["self_s"].get(name, 0.0) for r in traced), "s")
        metrics[f"{name}.calls"] = (mean(r["trace"]["calls"].get(name, 0) for r in traced), "count")
    counters = {
        key: mean(r["trace"]["counters"].get(key, 0) for r in traced)
        for key in ("laxext.extend.cells", "completeness.enumerate_adjoint_pairs.candidates",
                    "completeness.enumerate_adjoint_pairs.pairs")
    }
    hits = mean(r["trace"]["extend_memo_hits"] for r in traced)
    calls = metrics["laxext.extend.calls"][0]
    candidates = counters["completeness.enumerate_adjoint_pairs.candidates"]
    metrics["laxext.extend.cells"] = (counters["laxext.extend.cells"], "count")
    metrics["laxext.extend.memo_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    metrics["completeness.enumerate_adjoint_pairs.candidates"] = (candidates, "count")
    metrics["completeness.enumerate_adjoint_pairs.pairs"] = (
        counters["completeness.enumerate_adjoint_pairs.pairs"], "count")
    metrics["completeness.pairs_per_candidate"] = (
        counters["completeness.enumerate_adjoint_pairs.pairs"] / candidates if candidates else 0.0,
        "ratio",
    )
    metrics["suite.items.self_s"] = (mean(
        sum(v for name, v in r["trace"]["self_s"].items() if name.startswith("suite."))
        for r in traced), "s")
    split = suite_split(traced)
    for key in ("suite.hom-xi_s", "suite.xi-algebra_s", "suite.rest_s"):
        metrics[key] = (split.get(key, 0.0), "s")
    wall = mean(r["pass_s"] for r in traced)
    untraced_wall = statistics.median(r["pass_s"] for r in untraced)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    metrics["trace.remainder_s"] = (mean(r["pass_s"] - r["trace"]["covered_s"] for r in traced), "s")
    return metrics


def self_times_add_up(metrics):
    """Self times plus the time outside every span equal the traced pass time."""
    total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    total += metrics["trace.remainder_s"][0]
    return abs(total - metrics["trace.wall_s"][0]) <= 1e-6 * max(1.0, metrics["trace.wall_s"][0])


def digest_problems(workload, seed, passes):
    """Passes of one run must agree, and match the digest recorded for the seed."""
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    if workload == "suite":
        recorded = expected.get("suite")
    else:
        recorded = expected.get(workload, {}).get(str(seed))
    digests = {res["digest"] for res in passes}
    if len(digests) > 1:
        return ["passes of one run wrote different outputs"]
    if recorded is not None and digests != {recorded}:
        return [f"output digest {digests.pop()[:16]} is not the recorded {recorded[:16]}"]
    return []


def oracle_problems(jobs, seed, workdir, deadline):
    """A seeded sample of `complete` jobs must give the same report under --oracle."""
    sample = random.Random(f"oracle:{seed}").sample(jobs, min(ORACLE_SAMPLE, len(jobs)))
    sample_file = os.path.join(workdir, "oracle-jobs.json")
    inputs.overwrite(sample_file, json.dumps(sample))
    out = os.path.join(workdir, "oracle.json")
    try:
        run_worker(["--oracle-check", "--jobs", sample_file, "--out", out], deadline)
    except WorkerFailed as exc:
        return [f"oracle check: {exc}"]
    with open(out, encoding="utf-8") as handle:
        check = json.load(handle)
    return [f"oracle disagrees on {argv}" for argv in check["mismatches"]]


def timed_passes(jobs_file, workdir, seconds, trace, deadline):
    """Passes until another would end after `seconds`; at least one.

    With `trace`, each round is an untraced pass and a traced one.  Returns
    (untraced results, traced results, worker errors).
    """
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        for mode in ((0, 1) if trace else (0,)):
            try:
                res = one_pass(jobs_file, workdir, mode, deadline)
            except WorkerFailed as exc:
                return untraced, traced, [str(exc)]
            (traced if mode else untraced).append(res)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(untraced) > seconds:
            return untraced, traced, []


def run(workload, seed, seconds, trace):
    """Set up, measure and check one run; returns (result, human lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(WORK, workload)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds_taken, jobs_file, jobs = set_up(workload, seed, workdir, deadline)
        setup_times.append(seconds_taken)

    untraced, traced, problems = timed_passes(jobs_file, workdir, seconds, trace, deadline)
    passes = untraced + traced
    # a pass whose worker died counts all its jobs as failed
    attempted = sum(res["attempted"] for res in passes) + len(problems) * len(jobs)
    failed = sum(len(res["failures"]) for res in passes) + len(problems) * len(jobs)
    problems += [f"job {f['argv']}: {f['reason']}" for res in passes for f in res["failures"]][:10]
    problems += digest_problems(workload, seed, passes)
    if workload == "complete" and untraced:
        problems += oracle_problems(jobs, seed, workdir, deadline)

    lines = [f"workload {workload}  seed {seed}  trace {trace}  "
             f"passes {len(untraced)} untraced, {len(traced)} traced, {len(jobs)} jobs each"]
    metrics = {}
    if untraced and (traced or not trace):
        e2e = end_to_end(setup_times, untraced)
        lines += [f"{name:<40} {value:14.6f} {unit}" for name, (value, unit) in e2e.items()]
        lines.append(f"{'wall_s as measured, median pass':<40} "
                     f"{statistics.median(r['pass_s'] for r in untraced):14.6f} s (probe scale "
                     f"{statistics.median(r['probe_scale'] for r in untraced):.4f})")
        lines.append(f"{'fail_ratio':<40} {failed / attempted:14.6f} "
                     f"ratio ({failed} of {attempted} jobs)")
        lines += [f"{name:<40} {value:14.6f} s" for name, value in suite_split(untraced).items()]
        metrics = e2e
        if trace:
            metrics = per_layer(traced, untraced)
            if not self_times_add_up(metrics):
                problems.append("per-layer self times do not add up to the traced pass time")
            lines += [f"{name:<40} {value:14.6f} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"problem: {p}" for p in problems]
    result = {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    import_lawcat()
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
