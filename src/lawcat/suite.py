"""The acceptance battery: every criterion as one reproducible item.

Each item returns a JSON-safe dict with an "ok" flag; the runner
assembles them in a fixed order so that two runs of the whole battery
serialize to identical bytes.  Budget overruns mark an item skipped
instead of failing it.
"""

from __future__ import annotations

import itertools
import json
import random
from json.encoder import encode_basestring_ascii as _quote

from .completeness import certify_v_complete, decide_lawvere_complete, ord_section_extract
from .enriched import all_vcategories
from .errors import DEFAULT_MAX_ENUM, BudgetExceeded
from .instances import approach_surrogate, enumerate_preorders, sober_vs_lawvere
from .laxext import LaxExtension, _random_matrix, check_extension_laws, check_xi, check_xi_functor
from .monad import builtin_monads
from .quantale import builtin, builtin_quantales, validate_quantale
from .quniform import (
    all_quniformities,
    curated_three_point,
    decide_lawvere_q,
    is_minimal_pair,
    meet,
    validate_quniformity,
)
from .tvcat import (
    all_tvcategories,
    check_tvbimodule,
    hom_xi_category,
    order_tvcategory,
    yoneda,
)
from .vmatrix import check_order_reversal, left_adjoint_map_criterion

ACCEPT_QUANTALES = ("2", "c3", "c4", "plus3", "plus4", "pset1", "pset2")
SMALL_QUANTALES = ("2", "c3", "c4", "plus2", "plus3", "pset1", "pset2")


def _ext(monad_name, quantale_name, max_enum=DEFAULT_MAX_ENUM):
    return LaxExtension(builtin_monads()[monad_name], builtin(quantale_name), max_enum)


def item_quantale_laws(max_enum=DEFAULT_MAX_ENUM):
    results = {}
    for name, q in sorted(builtin_quantales().items()):
        fresh = type(q)(q.name, q.labels, q.leq, q.tensor, q.unit)
        results[name] = validate_quantale(fresh)["ok"]
    return {"ok": all(results.values()), "validated": results}


def _map_criterion_sweeps(max_enum):
    sweeps = {}
    for name in ACCEPT_QUANTALES:
        bound = 3 if name == "2" else 2
        sweeps[name] = left_adjoint_map_criterion(_ext("id", name, max_enum), bound)
    return sweeps


def item_left_adjoint_maps(max_enum=DEFAULT_MAX_ENUM, sweeps=None):
    sweeps = sweeps or _map_criterion_sweeps(max_enum)
    details = {}
    ok = True
    for name, rep in sweeps.items():
        details[name] = {
            "hypotheses": rep["hypotheses_hold"],
            "all_maps": rep["all_left_adjoints_are_maps"],
            "equivalence": rep["equivalence_holds"],
            "left_adjoints": rep["left_adjoint_count"],
        }
        ok = ok and rep["equivalence_holds"]
    example_row = None
    for r in sweeps["pset2"]["non_map_witnesses"]:
        if r.rows == 1 and r.cols == 2:
            labels = [r.q.labels[v] for v in r.data[0]]
            if labels == ["{a}", "{b}"]:
                example_row = labels
    ok = ok and example_row is not None
    return {"ok": ok, "per_quantale": details, "singleton_complement_row": example_row}


def item_adjoint_order(max_enum=DEFAULT_MAX_ENUM, sweeps=None):
    sweeps = sweeps or _map_criterion_sweeps(max_enum)
    details = {}
    ok = True
    for name, rep in sweeps.items():
        rev = check_order_reversal(rep["adjunctions"])
        details[name] = rev["ok"]
        ok = ok and rev["ok"]
    return {"ok": ok, "per_quantale": details}


def item_bimodule_functor(max_enum=DEFAULT_MAX_ENUM):
    rng = random.Random(20240)
    agreements = 0
    target = 500
    names = list(ACCEPT_QUANTALES)
    disagreements = []
    cats = {}

    def categories(q, n):
        if (q.name, n) not in cats:
            cats[q.name, n] = all_vcategories(q, n, max_enum)
        return cats[q.name, n]

    while agreements + len(disagreements) < target:
        q = builtin(names[rng.randrange(len(names))])
        nx = rng.randrange(1, 3)
        ny = rng.randrange(1, 3)
        cats_x = categories(q, nx)
        cats_y = categories(q, ny)
        x = cats_x[rng.randrange(len(cats_x))]
        y = cats_y[rng.randrange(len(cats_y))]
        psi = _random_matrix(rng, q, nx, ny)
        verdict = check_tvbimodule(psi, x, y)
        if verdict["agree"]:
            agreements += 1
        else:
            disagreements.append((q.name, psi.data))
    return {"ok": not disagreements, "checked": target, "disagreements": disagreements[:3]}


def item_yoneda_v(max_enum=DEFAULT_MAX_ENUM):
    counts = {}
    ok = True
    for name in ("2", "c3"):
        q = builtin(name)
        total = 0
        for n in (1, 2):
            for cat in all_vcategories(q, n, max_enum):
                rep = yoneda(cat)
                if not (rep["ok"] and rep["fully_faithful"]):
                    ok = False
                total += 1
        counts[name] = total
    return {"ok": ok, "categories": counts}


def item_v_complete(max_enum=DEFAULT_MAX_ENUM):
    details = {}
    ok = True
    for name in ACCEPT_QUANTALES:
        rep = certify_v_complete(_ext("id", name, max_enum))
        details[f"id/{name}"] = rep["certified"]
        ok = ok and rep["certified"]
    for name in ("2", "c3"):
        rep = certify_v_complete(_ext("ultra", name, max_enum))
        details[f"ultra/{name}"] = rep["certified"]
        ok = ok and rep["certified"]
    return {"ok": ok, "certified": details}


def item_ord_complete(max_enum=DEFAULT_MAX_ENUM):
    preorders = enumerate_preorders(4)
    count_ok = len(preorders) == 355
    ext = _ext("id", "2", max_enum)
    all_complete = True
    for p in preorders:
        if not decide_lawvere_complete(order_tvcategory(ext, p))["complete"]:
            all_complete = False
            break
    sections = 0
    for tgt in (2, 3):
        for f in itertools.product(range(tgt), repeat=4):
            if set(f) == set(range(tgt)):
                ord_section_extract(ext, f, 4, tgt)
                sections += 1
    return {
        "ok": count_ok and all_complete,
        "preorder_count": len(preorders),
        "count_cross_checked": count_ok,
        "all_complete": all_complete,
        "sections_extracted": sections,
    }


def item_extension_laws(max_enum=DEFAULT_MAX_ENUM):
    details = {}
    ok = True
    total = 0
    per_combo = 34
    for mname in ("id", "powerset", "ultra"):
        for qname in ("2", "c3"):
            ext = _ext(mname, qname, max_enum)
            laws = check_extension_laws(ext, samples=per_combo)
            summary = {key: laws[key]["ok"] for key in "abcdefg"}
            summary["f_applicable"] = laws["f"]["applicable"]
            details[f"{mname}/{qname}"] = summary
            total += per_combo
            ok = ok and laws["ok"]
    return {"ok": ok, "matrices_generated": total, "per_combo": details}


def item_xi_algebra(max_enum=DEFAULT_MAX_ENUM):
    details = {}
    ok = True
    for mname in ("id", "powerset", "ultra"):
        for qname in SMALL_QUANTALES:
            ext = _ext(mname, qname, max_enum)
            em = check_xi(ext)["ok"]
            functor = check_xi_functor(ext)["ok"]
            compat = ext.xi_compat()
            flag_matches = compat["tensor_strict"] == ext.capabilities()["tensor_strict"]
            entry = {
                "em_laws": em,
                "xi_functor": functor,
                "unit_inequality": compat["unit_inequality"],
                "tensor_inequality": compat["tensor_inequality"],
                "tensor_strict": compat["tensor_strict"],
                "flag_matches": flag_matches,
            }
            details[f"{mname}/{qname}"] = entry
            ok = ok and em and functor and compat["unit_inequality"] and compat[
                "tensor_inequality"
            ] and flag_matches
    return {"ok": ok, "per_combo": details}


def item_hom_xi(max_enum=DEFAULT_MAX_ENUM):
    details = {}
    ok = True
    for mname in ("id", "powerset", "ultra"):
        for qname in SMALL_QUANTALES:
            ext = _ext(mname, qname, max_enum)
            verdict = hom_xi_category(ext).verdict()
            details[f"{mname}/{qname}"] = verdict["ok"]
            ok = ok and verdict["ok"]
    return {"ok": ok, "per_combo": details}


def item_yoneda_tv(max_enum=DEFAULT_MAX_ENUM):
    details = {}
    ok = True
    for mname, qname in (("id", "2"), ("id", "c3"), ("ultra", "2")):
        ext = _ext(mname, qname, max_enum)
        count = 0
        for n in (1, 2):
            for cat in all_tvcategories(ext, n):
                rep = yoneda(cat)
                if not (rep["ok"] and rep["fully_faithful"]):
                    ok = False
                count += 1
        details[f"{mname}/{qname}"] = count
    return {"ok": ok, "categories": details}


def item_sober(max_enum=DEFAULT_MAX_ENUM):
    ext = _ext("ultra", "2", max_enum)
    total = 0
    ok = True
    for n in (1, 2, 3, 4):
        for p in enumerate_preorders(n):
            rep = sober_vs_lawvere(ext, p)
            if not (rep["agree"] and rep["weakly_sober"] and rep["lawvere"]):
                ok = False
            total += 1
    return {"ok": ok, "spaces": total}


def item_approach(max_enum=DEFAULT_MAX_ENUM):
    ext = _ext("ultra", "plus3", max_enum)
    total = 0
    ok = True
    for n in (1, 2):
        for cat in all_tvcategories(ext, n):
            rep = approach_surrogate(cat)
            if not rep["equivalence"]:
                ok = False
            total += 1
    return {"ok": ok, "structures": total}


def item_quniform(max_enum=DEFAULT_MAX_ENUM):
    ext = _ext("id", "2", max_enum)
    ok = True
    checked = 0
    uniformities = all_quniformities(2) + curated_three_point()
    for u in uniformities:
        if not validate_quniformity(u)["ok"]:
            ok = False
            continue
        rep = decide_lawvere_q(ext, u)
        if not (rep["agree"] and rep["bijection"] and rep["forward"]):
            ok = False
        order = u.order
        down, up = order.down, order.up
        for left, right in zip(down, up):
            cauchy = not right & ~meet(up, left)
            if not (cauchy and is_minimal_pair(down, up, left, right)):
                ok = False
        checked += 1
    return {"ok": ok, "uniformities": checked}


REGISTRY = (
    ("quantale-laws", item_quantale_laws),
    ("left-adjoint-maps", item_left_adjoint_maps),
    ("adjoint-order", item_adjoint_order),
    ("bimodule-functor", item_bimodule_functor),
    ("yoneda-v", item_yoneda_v),
    ("v-complete", item_v_complete),
    ("ord-complete", item_ord_complete),
    ("extension-laws", item_extension_laws),
    ("xi-algebra", item_xi_algebra),
    ("hom-xi", item_hom_xi),
    ("yoneda-tv", item_yoneda_tv),
    ("sober", item_sober),
    ("approach", item_approach),
    ("quniform", item_quniform),
)

SWEEP_ITEMS = ("left-adjoint-maps", "adjoint-order")
QUICK_ITEMS = ("quantale-laws", "left-adjoint-maps", "yoneda-v", "sober")
# Every name `run_suite(only=...)` can select, in report order.
ITEM_IDS = tuple(name for name, _ in REGISTRY) + ("determinism",)


def run_items(only=None, max_enum=DEFAULT_MAX_ENUM):
    items = []
    sweeps = None  # one map-criterion sweep per call, for both items that read it
    for name, fn in REGISTRY:
        if only and name not in only:
            continue
        try:
            if name in SWEEP_ITEMS:
                sweeps = sweeps or _map_criterion_sweeps(max_enum)
                result = fn(max_enum, sweeps)
            else:
                result = fn(max_enum)
        except BudgetExceeded as exc:
            result = {"ok": None, "skipped": True, "reason": str(exc)}
        items.append({"id": name, **result})
    return items


def run_suite(only=None, max_enum=DEFAULT_MAX_ENUM):
    """Run the battery; the determinism item reruns the quick items once.

    The rerun is compared with the quick items of the main run, or, when
    only left some of them out, with a first rerun of its own.
    """
    items = run_items(only, max_enum)
    if only is None or "determinism" in only:
        quick = [it for it in items if it["id"] in QUICK_ITEMS]
        if len(quick) < len(QUICK_ITEMS):
            quick = run_items(QUICK_ITEMS, max_enum)
        first = json.dumps(quick, sort_keys=True)
        second = json.dumps(run_items(QUICK_ITEMS, max_enum), sort_keys=True)
        items.append(
            {"id": "determinism", "ok": first == second, "bytes_compared": len(first)}
        )
    passed = [it["id"] for it in items if it["ok"] is True]
    failed = [it["id"] for it in items if it["ok"] is False]
    skipped = [it["id"] for it in items if it["ok"] is None]
    return {
        "items": items,
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
        "ok": not failed,
    }


def report_json(obj, indent="\n"):
    """The text of `json.dumps` with sorted keys and a two-space indent.

    Reports hold dicts with str keys, lists, tuples, str, int, bool and
    None, of exactly those types; anything else raises TypeError.
    json.dumps takes its pure-Python encoder whenever it indents, so this
    one join is the faster of the two; strings, keys included, go through
    the C escaper json itself uses.  A container writes its str, bool,
    None and int values in its own loop, without a call for each.
    `indent` is the newline plus the indentation of `obj`'s own line.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            kind = type(value)
            if kind is str:
                text = _quote(value)
            elif kind is bool:
                text = "true" if value else "false"
            elif value is None:
                text = "null"
            elif kind is int:
                text = repr(value)
            else:
                text = report_json(value, inner)
            items.append(_quote(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        items = []
        for value in obj:
            kind = type(value)
            if kind is str:
                text = _quote(value)
            elif kind is bool:
                text = "true" if value else "false"
            elif value is None:
                text = "null"
            elif kind is int:
                text = repr(value)
            else:
                text = report_json(value, inner)
            items.append(text)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return repr(obj)
    if obj is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def suite_json(report):
    return report_json(report) + "\n"
