"""Tests of the benchmark itself: inputs, tracer, output checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI = worker.import_lawcat()


def _write_inputs(workdir, workload, seed):
    """Write the inputs; returns {file name: bytes} of every file a job names."""
    os.makedirs(workdir, exist_ok=True)
    jobs = inputs.WORKLOADS[workload](seed, str(workdir))
    out = {}
    for argv in jobs:
        path = next(a for a in argv if os.sep in a)
        with open(path, "rb") as handle:
            out[os.path.basename(path)] = handle.read()
    return out


def test_same_seed_writes_identical_files_and_another_seed_differs(tmp_path):
    for workload in ("complete", "bridges"):
        first = _write_inputs(tmp_path / f"{workload}-a", workload, 7)
        other = _write_inputs(tmp_path / f"{workload}-b", workload, 8)
        assert first and first != other
        # rewriting seed 8's files in place with seed 7 leaves no stale bytes
        assert _write_inputs(tmp_path / f"{workload}-b", workload, 7) == first


def _bindings():
    """Every attribute of every lawcat module and class, by identity."""
    seen = {}
    for modname, module in sorted(sys.modules.items()):
        if modname != "lawcat" and not modname.startswith("lawcat."):
            continue
        for attr, value in vars(module).items():
            seen[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    seen[(modname, attr, cattr)] = cvalue
    return seen


def test_uninstall_restores_every_patched_binding():
    before = _bindings()
    tracer = Tracer().install()
    during = _bindings()
    patched = [key for key in before if during[key] is not before[key]]
    # every direct import of kleisli_compose is wrapped, not only the tvcat one
    assert ("lawcat.completeness", "kleisli_compose") in patched
    assert ("lawcat.tvcat", "kleisli_compose") in patched
    assert ("lawcat.monad", "PowersetMonad", "extend_relation") in patched
    assert ("lawcat.monad", "FiniteMonad", "extend_relation") in patched
    assert ("lawcat.suite", "REGISTRY") in patched
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_trace_self_times_add_up_to_covered_time(tmp_path):
    jobs = inputs.complete_jobs(3, str(tmp_path), count=6)
    tracer = Tracer()
    res = worker.run_pass(jobs, CLI, tracer)
    summary = tracer.summary()
    assert not res["failures"]
    assert summary["calls"]["cli.main"] == 6
    assert summary["calls"]["completeness.enumerate_adjoint_pairs"] == 6
    assert abs(sum(summary["self_s"].values()) - summary["covered_s"]) < 1e-6
    assert summary["covered_s"] <= res["pass_s"]


def test_malformed_input_is_counted_and_the_pass_goes_on(tmp_path):
    jobs = inputs.complete_jobs(5, str(tmp_path), count=3)
    bad = tmp_path / "broken.vcat"
    bad.write_text("vcat broken over 2\nelements: a b\nm[a,zz] = 1\n", encoding="utf-8")
    jobs.insert(1, ["complete", str(bad), "--format", "json"])
    res = worker.run_pass(jobs, CLI)
    assert res["attempted"] == 4
    assert [f["job"] for f in res["failures"]] == [1]
    assert res["failures"][0]["reason"] == "exit 2"
    assert len(res["latencies_ms"]) == 4


def test_check_job_rules():
    ok = '{"agree": true, "complete": true}'
    assert worker.check_job(["sober", "f"], 0, ok, None) is None
    assert worker.check_job(["sober", "f"], 1, '{"agree": false}', None) == "agree is not true"
    assert worker.check_job(["quniform", "complete", "f"], 1, '{"agree": false}', None)
    assert worker.check_job(["complete", "f"], 1, ok, None) == "exit code disagrees with the verdict"
    assert worker.check_job(["complete", "f"], 0, "not json", None) == "output is not JSON"
    assert worker.check_job(["complete", "f"], None, "", "raised KeyError: 1") == "raised KeyError: 1"


def _fake_pass(trace):
    res = {"pass_s": 2.0, "latencies_ms": [1.0, 2.0], "peak_rss_kb": 1024, "suite_items_s": {},
           "probe_scale": 1.0}
    if trace:
        res["trace"] = {"self_s": {"cli.main": 1.5}, "calls": {"cli.main": 2}, "counters": {},
                        "extend_memo_hits": 0, "covered_s": 1.5, "spans": 2}
    return res


def test_metric_names_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e = run.end_to_end([0.1], [_fake_pass(False)])
    layers = run.per_layer([_fake_pass(True)], [_fake_pass(False)])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert run.self_times_add_up(layers)
