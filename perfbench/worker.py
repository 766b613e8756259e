"""One pass of a workload in a fresh process: run every job, then check it.

    python3 perfbench/worker.py --jobs JOBS.json --out RESULT.json --trace 0|1

A job is a `lawcat` argument list run in-process through `cli.main`, one
after another (a closed loop with one client).  Output checks run after the
timed loop.  `--probe` only imports lawcat and builds the CLI parser: the
cold start that set-up measures.  `--oracle-check` reruns each job with
`--oracle` and compares the verdicts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from inputs import overwrite
from probe import SpeedProbe
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_lawcat():
    """Import lawcat from this checkout's `src`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "lawcat", "__init__.py")):
        raise SystemExit(f"lawcat sources not found under {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    import lawcat.cli

    if not os.path.abspath(lawcat.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported lawcat from {lawcat.cli.__file__}, not from {SRC}")
    return lawcat.cli


def run_job(cli, argv):
    """Run one job; returns (exit code or None if it raised, stdout, error).

    `cli.main` is looked up per call, so a traced binding is the one used.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a job that raises is counted, the pass goes on
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), error


def check_job(argv, rc, stdout, error):
    """Why a job's output is wrong, or None when it passes every check."""
    if error is not None:
        return error
    if rc not in (0, 1):
        return f"exit {rc}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    command = argv[0]
    if command == "sober" or argv[:2] == ["quniform", "complete"]:
        if report.get("agree") is not True:
            return "agree is not true"
    elif command == "complete":
        if (rc == 0) != (report.get("complete") is True):
            return "exit code disagrees with the verdict"
    elif command == "suite":
        if rc != 0 or report.get("ok") is not True:
            return "suite is not ok"
        determinism = [it for it in report.get("items", []) if it.get("id") == "determinism"]
        if len(determinism) != 1 or determinism[0].get("ok") is not True:
            return "determinism item did not pass"
    return None


def run_pass(jobs, cli, tracer=None, probe=None):
    """Run the jobs in order, timed, then check them (untimed).

    Times exclude the probe's own work; `probe_scale` converts them to
    seconds at the probe's reference speed.
    """
    probe = probe or SpeedProbe(None)
    latencies = []
    results = []
    clock = time.perf_counter_ns
    if tracer is not None:
        tracer.install()
    try:
        with probe:
            started, probe_start = clock(), probe.spent_ns
            for argv in jobs:
                t0, p0 = clock(), probe.spent_ns
                results.append(run_job(cli, argv))
                latencies.append((clock() - t0 - (probe.spent_ns - p0)) / 1e6)
            pass_s = (clock() - started - (probe.spent_ns - probe_start)) / 1e9
    finally:
        if tracer is not None:
            tracer.uninstall()
    digest = hashlib.sha256()
    failures = []
    for i, (argv, (rc, stdout, error)) in enumerate(zip(jobs, results)):
        digest.update(f"{rc}\n{stdout}".encode())
        reason = check_job(argv, rc, stdout, error)
        if reason is not None:
            failures.append({"job": i, "argv": argv, "reason": reason})
    return {
        "pass_s": pass_s,
        "latencies_ms": latencies,
        "attempted": len(jobs),
        "failures": failures,
        "digest": digest.hexdigest(),
        "probe_scale": probe.scale(),
        "probe_samples": len(probe.samples_ns),
    }


def oracle_check(jobs, cli):
    """Jobs whose verdict differs between the pruned and the oracle path."""
    mismatches = []
    for argv in jobs:
        reports = []
        for extra in ([], ["--oracle"]):
            rc, stdout, error = run_job(cli, list(argv) + extra)
            try:
                report = json.loads(stdout)
            except ValueError:
                report = {"error": error or stdout}
            report.get("input", {}).pop("oracle", None)
            reports.append((rc, report))
        if reports[0] != reports[1]:
            mismatches.append(argv)
    return {"checked": len(jobs), "mismatches": mismatches}


def suite_item_times(tracer):
    """Seconds per suite item, first call only (reruns belong to `determinism`)."""
    return {name[len("suite."):]: s for name, s in tracer.first_durations("suite.").items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs")
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans to this file")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--oracle-check", action="store_true")
    args = parser.parse_args(argv)
    cli = import_lawcat()
    if args.probe:
        cli.build_parser()
        return 0
    with open(args.jobs, encoding="utf-8") as handle:
        jobs = json.load(handle)
    if args.oracle_check:
        result = oracle_check(jobs, cli)
    else:
        tracer = Tracer(layers=bool(args.trace))
        # traced passes run without the probe: per-layer times are as measured
        probe = None if args.trace else SpeedProbe()
        result = run_pass(jobs, cli, tracer, probe)
        result["suite_items_s"] = suite_item_times(tracer)
        if args.trace:
            result["trace"] = tracer.summary()
            if args.spans:
                overwrite(args.spans, tracer.spans_text())
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    overwrite(args.out, json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
