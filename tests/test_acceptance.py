"""Acceptance battery: one test per criterion, each printing a verdict line.

All arithmetic is lattice-exact, so every assertion is equality or a
boolean verdict; the only tolerances are the per-criterion runtime
budgets, which are asserted as hard bounds.
"""

import hashlib
import subprocess
import sys
import time

import pytest

from lawcat import suite as battery

# SHA-256 of `lawcat suite --format json` (10,185 bytes).
SUITE_SHA256 = "4739003eab58108b990f8321001ee17a0c9697f4ec7a7d1f82ff6a25c60edaf8"


def _run(name, fn, budget_seconds):
    start = time.time()
    result = fn(battery.DEFAULT_MAX_ENUM)
    elapsed = time.time() - start
    status = "PASS" if result["ok"] else "FAIL"
    print(f"[{status}] {name}: ok={result['ok']} elapsed={elapsed:.2f}s budget={budget_seconds}s")
    assert result["ok"], result
    assert elapsed < budget_seconds
    return result


def test_criterion_01_quantale_laws():
    result = _run("quantale-laws", battery.item_quantale_laws, 1)
    assert set(result["validated"]) >= set(battery.ACCEPT_QUANTALES)


def test_criterion_02_left_adjoints_are_maps():
    result = _run("left-adjoint-maps", battery.item_left_adjoint_maps, 60)
    assert result["singleton_complement_row"] == ["{a}", "{b}"]
    for name in battery.ACCEPT_QUANTALES:
        assert result["per_quantale"][name]["equivalence"]


def test_criterion_03_adjoint_order_reversal():
    result = _run("adjoint-order", battery.item_adjoint_order, 60)
    assert all(result["per_quantale"].values())


def test_criterion_04_bimodule_functor_agreement():
    result = _run("bimodule-functor", battery.item_bimodule_functor, 60)
    assert result["checked"] == 500
    assert result["disagreements"] == []


def test_criterion_05_presheaf_evaluation():
    _run("yoneda-v", battery.item_yoneda_v, 60)


def test_criterion_06_v_complete():
    result = _run("v-complete", battery.item_v_complete, 300)
    for name in battery.ACCEPT_QUANTALES:
        assert result["certified"][f"id/{name}"]
    assert result["certified"]["ultra/2"] and result["certified"]["ultra/c3"]


def test_criterion_07_orders_complete_and_sections():
    result = _run("ord-complete", battery.item_ord_complete, 300)
    assert result["preorder_count"] == 355
    assert result["sections_extracted"] == 50


def test_criterion_08_extension_laws():
    result = _run("extension-laws", battery.item_extension_laws, 120)
    assert result["matrices_generated"] >= 200
    for combo, flags in result["per_combo"].items():
        for law in "abcdeg":
            assert flags[law], (combo, law)
        if flags["f_applicable"]:
            assert flags["f"], combo


def test_criterion_09_xi_algebra():
    result = _run("xi-algebra", battery.item_xi_algebra, 120)
    strict = {combo: flags["tensor_strict"] for combo, flags in result["per_combo"].items()}
    # strictness fails exactly where subsets meet truncated addition
    for combo, value in strict.items():
        monad, quantale = combo.split("/")
        expected = not (monad == "powerset" and quantale.startswith("plus"))
        assert value == expected, (combo, value)


def test_criterion_10_hom_xi_structure():
    result = _run("hom-xi", battery.item_hom_xi, 60)
    assert all(result["per_combo"].values())


def test_criterion_11_yoneda_tv():
    result = _run("yoneda-tv", battery.item_yoneda_tv, 300)
    assert set(result["categories"]) == {"id/2", "id/c3", "ultra/2"}


def test_criterion_12_sober_agreement():
    result = _run("sober", battery.item_sober, 120)
    assert result["spaces"] == 1 + 4 + 29 + 355


def test_criterion_13_approach_surrogate():
    result = _run("approach", battery.item_approach, 120)
    assert result["structures"] == 17


def test_criterion_14_quniform_bridge():
    result = _run("quniform", battery.item_quniform, 300)
    assert result["uniformities"] >= 13


def test_criterion_15_suite_determinism():
    start = time.time()
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "lawcat.cli", "suite", "--format", "json"],
            capture_output=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stdout.decode()[-2000:]
        runs.append(proc.stdout)
    elapsed = time.time() - start
    identical = runs[0] == runs[1]
    status = "PASS" if identical else "FAIL"
    print(f"[{status}] determinism: byte-identical={identical} elapsed={elapsed:.2f}s")
    assert identical
    assert runs[0].strip().endswith(b"}")
    # the suite bytes are pinned: a change to them must update this digest
    assert hashlib.sha256(runs[0]).hexdigest() == SUITE_SHA256
