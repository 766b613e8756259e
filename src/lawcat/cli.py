"""Command-line front end.

Exit codes: 0 for a passing verdict, 1 for a failing one, 2 for usage,
parse or input errors, 141 when the reader closed stdout.  JSON output
is deterministic (sorted keys, no timing; one writer, `suite.report_json`)
so reports can be diffed and re-run.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .completeness import certify_v_complete, decide_lawvere_complete
from .errors import GateUnavailable, LawcatError, ParseError
from .fileio import load_file, matrix_lines
from .instances import sober_vs_lawvere, space_lawvere_complete, weakly_sober
from .laxext import LaxExtension
from .monad import builtin_monad
from .quantale import builtin_quantales, validate_quantale
from .quniform import decide_lawvere_q, lax_algebra_bridge, validate_quniformity
from .suite import DEFAULT_MAX_ENUM, ITEM_IDS, _ext, report_json, run_suite, suite_json
from .tvcat import TVCategory, dual_tvcategory, yoneda as tv_yoneda


def _emit(report, fmt, input_block):
    report = {"input": input_block, **report}
    if fmt == "json":
        print(report_json(report))
    else:
        for key, value in report.items():
            if key == "input":
                continue
            print(f"{key}: {value}")
    return report


def _category_from_file(parsed, max_enum):
    q, n, matrix = parsed.resolve()
    ext = LaxExtension(parsed.monad, q, max_enum)
    return TVCategory(ext, n, matrix, name=parsed.name)


class InvalidObject(Exception):
    def __init__(self, verdict):
        super().__init__(str(verdict))
        self.verdict = verdict


def _validated_category(payload, max_enum):
    cat = _category_from_file(payload, max_enum)
    verdict = cat.verdict()
    if not verdict["ok"]:
        raise InvalidObject(verdict)
    return cat


def cmd_check(args):
    kind, payload = load_file(args.path)
    input_block = {"command": "check", "path": args.path}
    if kind == "quantale":
        verdict = validate_quantale(payload)
        _emit({"kind": kind, "name": payload.name, **verdict}, args.format, input_block)
        return 0 if verdict["ok"] else 1
    if kind in ("vcat", "tvcat"):
        cat = _category_from_file(payload, args.max_enum)
        verdict = cat.verdict()
        _emit({"kind": kind, "name": payload.name, **verdict}, args.format, input_block)
        return 0 if verdict["ok"] else 1
    if kind == "space":
        name, labels, order = payload
        rep = weakly_sober(order)
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
        if args.path is not None:
            raise ParseError("<args>", 0, "complete takes a file or --builtin, not both")
        names = sorted(builtin_quantales())
        if args.quantale not in names:
            raise ParseError("<args>", 0, f"unknown quantale {args.quantale!r}; have {', '.join(names)}")
        ext = _ext(args.monad, args.quantale, args.max_enum)
        rep = certify_v_complete(ext, oracle=args.oracle)
        _emit(
            {"target": f"(V,hom_xi) over {args.quantale} monad {args.monad}", **rep},
            args.format,
            input_block,
        )
        return 0 if rep["certified"] else 1
    if args.path is None:
        raise ParseError("<args>", 0, "complete needs a file or --builtin")
    kind, payload = load_file(args.path)
    if kind in ("vcat", "tvcat"):
        cat = _validated_category(payload, args.max_enum)
        rep = decide_lawvere_complete(cat, oracle=args.oracle)
        out = {
            "kind": kind,
            "name": payload.name,
            "complete": rep["complete"],
            "notion": rep["notion"],
            "gate": rep["gate"],
            "pair_count": rep["pair_count"],
            "witnesses": [
                {"phi": _labeled(cat.q, phi), "psi": _labeled(cat.q, psi)}
                for psi, phi in (p.tables for p in rep["non_representable"][:3])
            ],
        }
        _emit(out, args.format, input_block)
        return 0 if rep["complete"] else 1
    if kind == "space":
        name, labels, order = payload
        rep = sober_vs_lawvere(_ext("ultra", "2", args.max_enum), order, args.oracle)
        _emit({"kind": kind, "name": name, **rep}, args.format, input_block)
        return 0 if rep["lawvere"] else 1
    if kind == "quniform":
        name, labels, uniformity = payload
        verdict = validate_quniformity(uniformity)
        if not verdict["ok"]:
            raise InvalidObject(verdict)
        rep = decide_lawvere_q(_ext("id", "2", args.max_enum), uniformity, args.oracle)
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


def _labeled(q, rows):
    return [[q.labels[v] for v in row] for row in rows]


def cmd_sober(args):
    kind, payload = load_file(args.path)
    if kind != "space":
        raise ParseError(args.path, 1, "sober expects a space file")
    name, labels, order = payload
    rep = weakly_sober(order)
    lawvere = space_lawvere_complete(_ext("ultra", "2", args.max_enum), order, args.oracle)
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
        "lawvere": lawvere,
        "agree": rep["weakly_sober"] == lawvere,
    }
    _emit(out, args.format, {"command": "sober", "path": args.path})
    return 0 if rep["weakly_sober"] and out["agree"] else 1


def cmd_yoneda(args):
    kind, payload = load_file(args.path)
    if kind not in ("vcat", "tvcat"):
        raise ParseError(args.path, 1, "yoneda expects a category file")
    cat = _validated_category(payload, args.max_enum)
    rep = tv_yoneda(cat)
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
    kind, payload = load_file(args.path)
    if kind not in ("vcat", "tvcat"):
        raise ParseError(args.path, 1, "dual expects a category file")
    cat = _validated_category(payload, args.max_enum)
    dual = dual_tvcategory(cat)
    monad = cat.monad
    col_labels = monad.labels(cat.n, payload.labels)
    entries = matrix_lines(dual.a, monad.labels(dual.n, col_labels), col_labels)
    _emit(
        {"kind": kind, "name": payload.name, "carrier": list(col_labels), "entries": entries},
        args.format,
        {"command": "dual", "path": args.path},
    )
    return 0


def cmd_extend(args):
    kind, payload = load_file(args.path)
    if kind != "vcat":
        raise ParseError(args.path, 1, "extend expects a vcat file")
    q, n, matrix = payload.resolve()
    ext = LaxExtension(builtin_monad(args.monad), q, args.max_enum)
    labels = builtin_monad(args.monad).labels(n, payload.labels)
    entries = matrix_lines(ext.extend(matrix), labels, labels)
    _emit(
        {"kind": kind, "name": payload.name, "monad": args.monad, "entries": entries},
        args.format,
        {"command": "extend", "path": args.path, "monad": args.monad},
    )
    return 0


def cmd_suite(args):
    only = set(args.only) if args.only else None
    if only and not only.issubset(ITEM_IDS):
        unknown = ", ".join(map(repr, sorted(only.difference(ITEM_IDS))))
        raise ParseError("<args>", 0, f"unknown suite item {unknown}; have {', '.join(ITEM_IDS)}")
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


def _budget(text):
    """The type of --max-enum: an integer of at least 1.  A value that is not
    an integer gets the error argparse gives `type=int`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid budget: {text!r} (must be at least 1)")
    return value


class _Help(argparse.Action):
    """-h and --help: the parser's help on stdout, then exit 0.

    argparse's own help action writes through a method that swallows an
    OSError, so help sent to a closed stdout was lost with exit 0, or
    failed at exit with status 120.  This write lets the BrokenPipeError
    through, and main exits 141, as for every command.
    """

    def __init__(self, option_strings, dest, help=None):
        super().__init__(option_strings, argparse.SUPPRESS, nargs=0, default=argparse.SUPPRESS, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(parser.format_help())
        parser.exit()


def build_parser():
    """The one definition of the command line.

    As each subcommand's parser is built, its grammar (`_Grammar`) is
    compiled from the actions declared for it and kept on it as `grammar`.
    """
    # Every parser takes -h first, as argparse's add_help would place it,
    # but with _Help as its action: the subcommands take it from common.
    parser = argparse.ArgumentParser(
        prog="lawcat",
        description="Exact finite-scale workbench for enriched categories and completeness",
        add_help=False,
    )
    common = argparse.ArgumentParser(add_help=False)
    for p in (parser, common):
        p.add_argument("-h", "--help", action=_Help, help="show this help message and exit")
    shared = (
        common.add_argument("--format", choices=("text", "json"), default="text"),
        common.add_argument("--max-enum", type=_budget, default=DEFAULT_MAX_ENUM, dest="max_enum"),
        common.add_argument("--oracle", action="store_true"),
        common.add_argument("--strict", action="store_true"),
    )
    subparser = functools.partial(argparse.ArgumentParser, add_help=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=subparser)

    def compile_grammar(p, fn, *actions):
        p.set_defaults(fn=fn)
        p.grammar = _Grammar((*shared, *actions), fn=fn)

    p = sub.add_parser("check", parents=[common], help="validate an object file")
    compile_grammar(p, cmd_check, p.add_argument("path"))

    p = sub.add_parser("complete", parents=[common], help="decide completeness")
    compile_grammar(
        p,
        cmd_complete,
        p.add_argument("path", nargs="?"),
        p.add_argument("--builtin", choices=("v-hom",)),
        p.add_argument("--quantale", default="2"),
        p.add_argument("--monad", default="id", choices=("id", "powerset", "ultra")),
    )

    p = sub.add_parser("sober", parents=[common], help="weak sobriety of a finite space")
    compile_grammar(p, cmd_sober, p.add_argument("path"))

    p = sub.add_parser("yoneda", parents=[common], help="Yoneda checks for a category file")
    compile_grammar(p, cmd_yoneda, p.add_argument("path"))

    p = sub.add_parser("dual", parents=[common], help="print the dual structure")
    compile_grammar(p, cmd_dual, p.add_argument("path"))

    p = sub.add_parser("extend", parents=[common], help="extend a structure along a monad")
    compile_grammar(
        p,
        cmd_extend,
        p.add_argument("path"),
        p.add_argument("--monad", default="powerset", choices=("id", "powerset", "ultra")),
    )

    p = sub.add_parser("quniform", parents=[common], help="quasi-uniform space commands")
    compile_grammar(
        p,
        cmd_quniform,
        p.add_argument("mode", choices=("check", "complete")),
        p.add_argument("path"),
    )

    p = sub.add_parser("suite", parents=[common], help="run the acceptance battery")
    compile_grammar(p, cmd_suite, p.add_argument("--only", nargs="+"))
    parser.commands = sub.choices
    return parser


class _Grammar:
    """The well-formed command lines of one subcommand, by table lookup.

    Compiled from the argparse actions declared for the subcommand and its
    set_defaults values.  It holds every exact option string: a flag
    (nargs=0) with its dest and const, a one-value option (nargs=None) with
    its dest, type and choices.  It holds the positionals in order, with
    their type and choices, and the defaults: every action's default but
    SUPPRESS (a str default goes through type, as argparse does), then
    set_defaults.

    `read` accepts a command line when each token is an exact option string,
    the value of a one-value option (not starting with "-", passing type and
    choices), or a positional (not starting with "-", passing type and
    choices), and the positionals fill every required slot without
    overflowing.  It declines everything else; argparse reads that.  An
    option with any other nargs (`suite --only`) is left out of the tables,
    so a command line that uses it is declined.  The positionals must all
    take one token, or be a single nargs="?" one: argparse can give a "?"
    positional that follows another nothing when an option splits the run,
    so a grammar with any other shape, or with a required option, declines
    every command line.
    """

    def __init__(self, actions, **defaults):
        self.flags = {}
        self.options = {}
        self.positionals = []
        self.defaults = {}
        for action in actions:
            default = action.default
            if default is not argparse.SUPPRESS:
                if isinstance(default, str) and action.type is not None:
                    default = action.type(default)
                self.defaults.setdefault(action.dest, default)
            spec = (action.dest, action.type, action.choices)
            if not action.option_strings:
                self.positionals.append(spec)
            elif action.nargs == 0:
                self.flags.update(dict.fromkeys(action.option_strings, (action.dest, action.const)))
            elif action.nargs is None:
                self.options.update(dict.fromkeys(action.option_strings, spec))
        for dest, default in defaults.items():
            self.defaults.setdefault(dest, default)
        shapes = [action.nargs for action in actions if not action.option_strings]
        self.required = shapes.count(None)
        self.readable = (self.required == len(shapes) or shapes == ["?"]) and not any(
            action.required for action in actions if action.option_strings
        )

    def read(self, tokens):
        """The namespace of the subcommand's tokens, or None to decline them."""
        if not self.readable:
            return None
        values = self.defaults.copy()
        flags, options = self.flags, self.options
        positionals = []
        tokens = iter(tokens)
        for token in tokens:
            if token in flags:
                dest, const = flags[token]
                values[dest] = const
            elif token in options:
                value = next(tokens, "-")  # a missing value is declined too
                if value[:1] == "-" or not _store(values, options[token], value):
                    return None
            elif token[:1] == "-":
                return None
            else:
                positionals.append(token)
        slots = self.positionals
        if not self.required <= len(positionals) <= len(slots):
            return None
        for spec, token in zip(slots, positionals):
            if not _store(values, spec, token):
                return None
        ns = argparse.Namespace()
        vars(ns).update(values)
        return ns


def _store(values, spec, token):
    """Store the token's value under its dest, if it passes type and choices."""
    dest, convert, choices = spec
    try:
        value = token if convert is None else convert(token)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return False
    if choices is not None and value not in choices:
        return False
    values[dest] = value
    return True


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
    rep = decide_lawvere_q(_ext("id", "2", args.max_enum), uniformity, args.oracle)
    out = {
        "name": name,
        "lawvere": rep["lawvere"],
        "cauchy": rep["cauchy"],
        "agree": rep["agree"],
        "minimal_pairs_are_neighbourhoods": rep["minimal_are_neighbourhoods"],
    }
    _emit(out, args.format, {"command": "quniform complete", "path": args.path})
    return 0 if rep["lawvere"] and rep["agree"] else 1


_PARSER = None


def _parse_args(argv):
    """The namespace `_PARSER.parse_args(argv)` returns.

    When argv[0] names a subcommand, its grammar (`_Grammar`, compiled by
    `build_parser`) reads the rest by table lookup.  Whatever it declines
    (no command or an unknown one, help, an abbreviated option, --opt=value,
    --, a token starting with "-" it does not know, a bad value, a missing
    or extra positional, suite --only) goes to argparse, the full two-stage
    parse, so usage, help and error text are argparse's own.
    """
    # Built once per process and reused; parsing leaves it unchanged.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    sub = _PARSER.commands.get(argv[0]) if argv else None
    args = sub.grammar.read(argv[1:]) if sub is not None else None
    if args is None:
        return _PARSER.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None):
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        except SystemExit as exc:
            # argparse has written the help, the usage or the error
            code = 2 if exc.code not in (0, None) else 0
        else:
            code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: send what is still buffered to the null
        # device, and exit as a shell reports a writer cut off by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
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


if __name__ == "__main__":
    sys.exit(main())
