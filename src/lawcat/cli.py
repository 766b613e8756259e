"""Command-line front end.

Exit codes: 0 for a passing verdict, 1 for a failing one, 2 for usage or
parse errors.  JSON output is deterministic (sorted keys, no timing) so
reports can be diffed and re-run.
"""

from __future__ import annotations

import argparse
import json
import sys

from .completeness import certify_v_complete, decide_lawvere_complete
from .errors import GateUnavailable, LawcatError, ParseError
from .fileio import Workspace, load_file
from .instances import sober_vs_lawvere, space_from_preorder, weakly_sober
from .laxext import LaxExtension
from .monad import builtin_monad
from .quantale import validate_quantale
from .quniform import decide_cauchy_complete, decide_lawvere_q, lax_algebra_bridge, validate_quniformity
from .suite import DEFAULT_MAX_ENUM, run_suite, suite_json
from .tvcat import TVCategory, check_tvcategory, dual_tvcategory, yoneda as tv_yoneda


def _emit(report, fmt, input_block):
    report = {"input": input_block, **report}
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for key, value in report.items():
            if key == "input":
                continue
            print(f"{key}: {value}")
    return report


def _category_from_file(parsed, workspace, max_enum):
    q, n, matrix = parsed.resolve(workspace)
    ext = LaxExtension(builtin_monad(parsed.monad_name), q, max_enum)
    return TVCategory(ext, n, matrix, name=parsed.name)


class InvalidObject(Exception):
    def __init__(self, verdict):
        super().__init__(str(verdict))
        self.verdict = verdict


def _validated_category(payload, workspace, max_enum):
    cat = _category_from_file(payload, workspace, max_enum)
    verdict = check_tvcategory(cat.ext, cat.n, cat.a, max_enum)
    if not verdict["ok"]:
        raise InvalidObject(verdict)
    return cat


def cmd_check(args):
    workspace = Workspace()
    kind, payload = load_file(args.path)
    input_block = {"command": "check", "path": args.path}
    if kind == "quantale":
        verdict = validate_quantale(payload)
        _emit({"kind": kind, "name": payload.name, **verdict}, args.format, input_block)
        return 0 if verdict["ok"] else 1
    if kind in ("vcat", "tvcat"):
        cat = _category_from_file(payload, workspace, args.max_enum)
        verdict = check_tvcategory(cat.ext, cat.n, cat.a, args.max_enum)
        _emit({"kind": kind, "name": payload.name, **verdict}, args.format, input_block)
        return 0 if verdict["ok"] else 1
    if kind == "space":
        name, labels, order = payload
        rep = weakly_sober(space_from_preorder(order))
        verdict = {"kind": kind, "name": name, "ok": True, "weakly_sober": rep["weakly_sober"]}
        _emit(verdict, args.format, input_block)
        return 0
    name, labels, uniformity = payload
    verdict = validate_quniformity(uniformity)
    bridge = lax_algebra_bridge(uniformity) if verdict["ok"] else {"ok": False}
    _emit(
        {"kind": kind, "name": name, **verdict, "lax_algebra": bridge.get("ok")},
        args.format,
        input_block,
    )
    return 0 if verdict["ok"] and bridge.get("ok") else 1


def cmd_complete(args):
    input_block = {
        "command": "complete",
        "path": args.path,
        "builtin": args.builtin,
        "quantale": args.quantale,
        "monad": args.monad,
        "oracle": args.oracle,
    }
    if args.builtin:
        if args.builtin != "v-hom":
            raise ParseError("<args>", 0, f"unknown builtin target {args.builtin!r}")
        ext = LaxExtension(builtin_monad(args.monad), _builtin_quantale(args.quantale), args.max_enum)
        rep = certify_v_complete(ext, args.max_enum, oracle=args.oracle)
        _emit(
            {"target": f"(V,hom_xi) over {args.quantale} monad {args.monad}", **rep},
            args.format,
            input_block,
        )
        return 0 if rep["certified"] else 1
    if args.path is None:
        raise ParseError("<args>", 0, "complete needs a file or --builtin")
    workspace = Workspace()
    kind, payload = load_file(args.path)
    if kind in ("vcat", "tvcat"):
        cat = _validated_category(payload, workspace, args.max_enum)
        rep = decide_lawvere_complete(cat, args.max_enum, oracle=args.oracle)
        out = {
            "kind": kind,
            "name": payload.name,
            "complete": rep["complete"],
            "notion": rep["notion"],
            "gate": rep["gate"],
            "pair_count": rep["pair_count"],
            "witnesses": [
                {"phi": _labeled(cat.q, p.phi), "psi": _labeled(cat.q, p.psi)}
                for p in rep["non_representable"][:3]
            ],
        }
        _emit(out, args.format, input_block)
        return 0 if rep["complete"] else 1
    if kind == "space":
        name, labels, order = payload
        rep = sober_vs_lawvere(space_from_preorder(order))
        _emit({"kind": kind, "name": name, **rep}, args.format, input_block)
        return 0 if rep["lawvere"] else 1
    if kind == "quniform":
        name, labels, uniformity = payload
        rep = decide_lawvere_q(uniformity)
        out = {
            "kind": kind,
            "name": name,
            "lawvere": rep["lawvere"],
            "cauchy": rep["cauchy"],
            "agree": rep["agree"],
            "pair_count": rep["pair_count"],
        }
        _emit(out, args.format, input_block)
        return 0 if rep["lawvere"] else 1
    raise ParseError(args.path, 1, f"cannot run completeness on a {kind} file")


def _builtin_quantale(name):
    from .quantale import builtin

    return builtin(name)


def _labeled(q, matrix):
    return [[q.labels[v] for v in row] for row in matrix.data]


def cmd_sober(args):
    kind, payload = load_file(args.path)
    if kind != "space":
        raise ParseError(args.path, 1, "sober expects a space file")
    name, labels, order = payload
    space = space_from_preorder(order)
    rep = weakly_sober(space)
    agreement = sober_vs_lawvere(space)
    out = {
        "name": name,
        "weakly_sober": rep["weakly_sober"],
        "irreducible_closed_sets": [
            {
                "closed_set": [labels[i] for i in d["closed_set"]],
                "generic_points": [labels[i] for i in d["generic_points"]],
            }
            for d in rep["irreducible"]
        ],
        "lawvere": agreement["lawvere"],
        "agree": agreement["agree"],
    }
    _emit(out, args.format, {"command": "sober", "path": args.path})
    return 0 if rep["weakly_sober"] and agreement["agree"] else 1


def cmd_yoneda(args):
    workspace = Workspace()
    kind, payload = load_file(args.path)
    if kind not in ("vcat", "tvcat"):
        raise ParseError(args.path, 1, "yoneda expects a category file")
    cat = _validated_category(payload, workspace, args.max_enum)
    rep = tv_yoneda(cat, args.max_enum)
    out = {"kind": kind, "name": payload.name}
    if kind == "vcat":
        # Over the identity monad the presheaves are the restricted carrier.
        out.update(ok=rep["ok"] and rep["fully_faithful"], presheaf_count=len(rep["hat_carrier"]))
    else:
        out.update(
            ok=rep["ok"],
            bound_inequality=rep["bound_inequality"],
            equivalence=rep["equivalence"],
            presheaf_count=rep["presheaf_count"],
            restricted_carrier_size=len(rep["hat_carrier"]),
            fully_faithful=rep["fully_faithful"],
        )
    _emit(out, args.format, {"command": "yoneda", "path": args.path})
    return 0 if out["ok"] else 1


def cmd_dual(args):
    workspace = Workspace()
    kind, payload = load_file(args.path)
    if kind not in ("vcat", "tvcat"):
        raise ParseError(args.path, 1, "dual expects a category file")
    cat = _validated_category(payload, workspace, args.max_enum)
    dual = dual_tvcategory(cat, args.max_enum)
    monad = cat.monad
    row_labels = monad.labels(dual.n, monad.labels(cat.n, payload.labels))
    col_labels = monad.labels(cat.n, payload.labels)
    entries = []
    for s in range(dual.a.rows):
        for t in range(dual.a.cols):
            v = dual.a.data[s][t]
            if v != cat.q.bottom:
                entries.append(f"m[{row_labels[s]},{col_labels[t]}] = {cat.q.labels[v]}")
    _emit(
        {"kind": kind, "name": payload.name, "carrier": list(col_labels), "entries": entries},
        args.format,
        {"command": "dual", "path": args.path},
    )
    return 0


def cmd_extend(args):
    workspace = Workspace()
    kind, payload = load_file(args.path)
    if kind != "vcat":
        raise ParseError(args.path, 1, "extend expects a vcat file")
    q, n, matrix = payload.resolve(workspace)
    ext = LaxExtension(builtin_monad(args.monad), q, args.max_enum)
    extended = ext.extend(matrix)
    labels = builtin_monad(args.monad).labels(n, payload.labels)
    entries = []
    for s in range(extended.rows):
        for t in range(extended.cols):
            v = extended.data[s][t]
            if v != q.bottom:
                entries.append(f"m[{labels[s]},{labels[t]}] = {q.labels[v]}")
    _emit(
        {"kind": kind, "name": payload.name, "monad": args.monad, "entries": entries},
        args.format,
        {"command": "extend", "path": args.path, "monad": args.monad},
    )
    return 0


def cmd_suite(args):
    only = set(args.only) if args.only else None
    report = run_suite(only=only, max_enum=args.max_enum)
    if args.format == "json":
        sys.stdout.write(suite_json(report))
    else:
        for item in report["items"]:
            status = "PASS" if item["ok"] else ("SKIP" if item["ok"] is None else "FAIL")
            print(f"{status} {item['id']}")
        print(f"passed={len(report['passed'])} failed={len(report['failed'])} "
              f"skipped={len(report['skipped'])}")
    if report["failed"]:
        return 1
    if args.strict and report["skipped"]:
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lawcat",
        description="Exact finite-scale workbench for enriched categories and completeness",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--max-enum", type=int, default=DEFAULT_MAX_ENUM, dest="max_enum")
    common.add_argument("--oracle", action="store_true")
    common.add_argument("--strict", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="validate an object file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("complete", parents=[common], help="decide completeness")
    p.add_argument("path", nargs="?")
    p.add_argument("--builtin", choices=("v-hom",))
    p.add_argument("--quantale", default="2")
    p.add_argument("--monad", default="id", choices=("id", "powerset", "ultra"))
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser("sober", parents=[common], help="weak sobriety of a finite space")
    p.add_argument("path")
    p.set_defaults(fn=cmd_sober)

    p = sub.add_parser("yoneda", parents=[common], help="Yoneda checks for a category file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_yoneda)

    p = sub.add_parser("dual", parents=[common], help="print the dual structure")
    p.add_argument("path")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("extend", parents=[common], help="extend a structure along a monad")
    p.add_argument("path")
    p.add_argument("--monad", default="powerset", choices=("id", "powerset", "ultra"))
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("quniform", parents=[common], help="quasi-uniform space commands")
    p.add_argument("mode", choices=("check", "complete"))
    p.add_argument("path")
    p.set_defaults(fn=cmd_quniform)

    p = sub.add_parser("suite", parents=[common], help="run the acceptance battery")
    p.add_argument("--only", nargs="*")
    p.set_defaults(fn=cmd_suite)
    return parser


def cmd_quniform(args):
    if args.mode == "check":
        return cmd_check(args)
    return cmd_complete_quniform(args)


def cmd_complete_quniform(args):
    kind, payload = load_file(args.path)
    if kind != "quniform":
        raise ParseError(args.path, 1, "expected a quniform file")
    name, labels, uniformity = payload
    verdict = validate_quniformity(uniformity)
    if not verdict["ok"]:
        _emit({"name": name, **verdict}, args.format, {"command": "quniform complete", "path": args.path})
        return 1
    rep = decide_lawvere_q(uniformity)
    cauchy = decide_cauchy_complete(uniformity)
    out = {
        "name": name,
        "lawvere": rep["lawvere"],
        "cauchy": cauchy["complete"],
        "agree": rep["agree"],
        "minimal_pairs_are_neighbourhoods": cauchy["minimal_are_neighbourhoods"],
    }
    _emit(out, args.format, {"command": "quniform complete", "path": args.path})
    return 0 if rep["lawvere"] and rep["agree"] else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidObject as exc:
        print(f"invalid object: {exc}", file=sys.stderr)
        return 1
    except GateUnavailable as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return 1
    except LawcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
