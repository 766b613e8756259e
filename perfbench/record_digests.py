"""Record the output digests that benchmark runs are checked against.

    python3 perfbench/record_digests.py --seeds 0-49

Runs one untraced pass of every workload for each seed, from the root of a
checkout, and rewrites `perfbench/expected.json`.  Record only at a commit
whose outputs are known good: the suite digest pins the bytes of
`lawcat suite --format json`, the others pin every `complete` and `bridges`
output for the listed seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run


def record(workload, seed):
    workdir = os.path.join(run.WORK, workload)  # where a run writes them: paths are in the outputs
    deadline = time.monotonic() + run.RUN_LIMIT_S
    _, jobs_file, _ = run.set_up(workload, seed, workdir, deadline)
    res = run.one_pass(jobs_file, workdir, 0, deadline)
    if res["failures"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks: {res['failures'][:3]}")
    return res["digest"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-49", help="inclusive range, as 0-49")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    os.chdir(run.ROOT)
    run.import_lawcat()
    expected = {"suite": record("suite", 0)}
    for workload in ("complete", "bridges"):
        expected[workload] = {str(seed): record(workload, seed) for seed in range(first, last + 1)}
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
