import ast
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from lawcat import cli, suite
from lawcat.cli import main
from lawcat.errors import ParseError
from lawcat.fileio import (
    load_file,
    parse_category_text,
    parse_quantale_text,
    parse_quniform_text,
    parse_space_text,
)
from lawcat.quantale import builtin_quantales

DATA = os.path.join(os.path.dirname(__file__), "data")


def path(name):
    return os.path.join(DATA, name)


def test_parse_quantale_file():
    _, q = load_file(path("two.quantale"))
    assert q.name == "two"
    assert q.labels == ("f", "t")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_quantale_text("quantale x\nelements: a b\nunit: b\ntensor: a*a=a a*b=a b*b=zz\n", "f")
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_space_text("space s\nelements: a\norder: a<=b\n", "f")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_category_text("vcat c over\nelements: a\n", "f")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_quniform_text("quniform u\nelements: a\nrel: a=>a\n", "f")
    assert err.value.line == 3


def test_quantale_order_is_closed_and_labels_resolve_in_file_order():
    tensor = "tensor: a*a=a a*b=a a*c=a b*b=b b*c=b c*c=c\n"
    q = parse_quantale_text("quantale x\nelements: a b c\norder: b<=c a<=b\nunit: c\n" + tensor)
    assert q.leq == ((True, True, True), (False, True, True), (False, False, True))
    text = "quantale x\nelements: a b c\norder: a<=b\norder: b<=zz\norder: yy<=a\nunit: c\n"
    with pytest.raises(ParseError) as err:
        parse_quantale_text(text + tensor, "f")
    assert err.value.line == 4 and "'zz'" in str(err.value)


def test_missing_tensor_entries_rejected():
    with pytest.raises(ParseError):
        parse_quantale_text("quantale x\nelements: a b\nunit: b\ntensor: a*a=a\n", "f")


def test_check_quantale_exit_codes(capsys):
    assert main(["check", path("two.quantale")]) == 0
    assert main(["check", path("bad.quantale")]) == 2
    err = capsys.readouterr().err
    assert "bad.quantale:5" in err


def test_check_space_and_categories():
    assert main(["check", path("sierpinski.space")]) == 0
    assert main(["check", path("chain2.vcat")]) == 0
    assert main(["check", path("chain2u.tvcat")]) == 0
    assert main(["check", path("pre3.quniform")]) == 0


def test_complete_verdicts():
    assert main(["complete", path("chain2.vcat")]) == 0
    assert main(["complete", path("disc2pset.vcat")]) == 1
    assert main(["complete", path("chain2u.tvcat")]) == 0
    assert main(["complete", "--builtin", "v-hom", "--quantale", "plus3"]) == 0
    assert main(["quniform", "complete", path("pre3.quniform")]) == 0


def test_sober_and_yoneda_and_dual_and_extend():
    assert main(["sober", path("sierpinski.space")]) == 0
    assert main(["yoneda", path("chain2u.tvcat")]) == 0
    assert main(["yoneda", path("chain2.vcat")]) == 0
    assert main(["dual", path("chain2u.tvcat")]) == 0
    assert main(["extend", path("chain2.vcat"), "--monad", "powerset"]) == 0


def test_json_report_roundtrip(capsys):
    # re-running the inputs recorded in a report reproduces its verdicts
    assert main(["complete", path("chain2.vcat"), "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)
    args = ["complete", first["input"]["path"], "--format", "json"]
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_extend_shows_lifting(capsys):
    main(["extend", path("chain2.vcat"), "--monad", "powerset", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert "m[{x},{x,y}] = 1" in rep["entries"]
    assert "m[{x,y},{x}] = 1" not in rep["entries"]


def test_suite_only_subset(capsys):
    assert main(["suite", "--only", "quantale-laws", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [it["id"] for it in rep["items"]] == ["quantale-laws"]
    assert rep["ok"]


def test_suite_only_refuses_an_unknown_item(capsys):
    assert main(["suite", "--only", "sober", "quantale-lawz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: <args>:0: unknown suite item 'quantale-lawz'; have ")
    for name in suite.ITEM_IDS:
        assert name in captured.err


def test_suite_only_needs_a_name(capsys):
    assert main(["suite", "--only"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --only: expected at least one argument" in captured.err


def test_complete_refuses_an_unknown_builtin_quantale(capsys):
    assert main(["complete", "--builtin", "v-hom", "--quantale", "foo"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    have = ", ".join(sorted(builtin_quantales()))
    assert captured.err == f"error: <args>:0: unknown quantale 'foo'; have {have}\n"


def test_complete_refuses_a_file_with_builtin(capsys):
    # the file would be ignored, yet echoed in the input block
    assert main(["complete", path("chain2.vcat"), "--builtin", "v-hom", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: <args>:0: complete takes a file or --builtin, not both\n"


def test_suite_budget_skip_and_strict(capsys):
    code = main(["suite", "--only", "ord-complete", "--max-enum", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SKIP ord-complete" in out
    assert main(["suite", "--only", "ord-complete", "--max-enum", "10", "--strict"]) == 1


@pytest.mark.parametrize("command", ["sober", "complete"])
def test_space_commands_honour_the_budget(capsys, command):
    assert main([command, path("sierpinski.space"), "--max-enum", "1"]) == 2
    assert "psi space" in capsys.readouterr().err


@pytest.mark.parametrize("n", [20, 24])
def test_sober_reaches_twenty_points(tmp_path, capsys, n):
    # weak sobriety enumerates nothing; the Lawvere side charges 2^n psis
    labels = [f"p{x}" for x in range(n)]
    target = tmp_path / "discrete.space"
    target.write_text(f"space discrete\nelements: {' '.join(labels)}\n")
    out = main(["sober", str(target), "--format", "json"])
    captured = capsys.readouterr()
    if n == 20:
        assert out == 0
        rep = json.loads(captured.out)
        assert rep["weakly_sober"] and rep["lawvere"] and rep["agree"]
        assert rep["irreducible_closed_sets"] == [
            {"closed_set": [lab], "generic_points": [lab]} for lab in labels
        ]
    else:
        assert out == 2
        assert "error: psi space: needs 16777216 candidates, budget is 10000000" in captured.err


@pytest.mark.parametrize("n", [20, 24])
def test_quniform_commands_reach_twenty_points(tmp_path, capsys, n):
    # the Cauchy side and the laws read w; the module side charges 2^n psis
    labels = [f"p{x}" for x in range(n)]
    pairs = " ".join(f"{labels[x]}->{labels[y]}" for x in range(n) for y in range(x, n))
    target = tmp_path / "chain.quniform"
    target.write_text(f"quniform chain\nelements: {' '.join(labels)}\nrel: {pairs}\n")
    for command in (["quniform", "complete"], ["complete"]):
        code = main([*command, str(target), "--format", "json"])
        captured = capsys.readouterr()
        if n == 20:
            assert code == 0
            rep = json.loads(captured.out)
            assert rep["cauchy"] and rep["lawvere"] and rep["agree"]
        else:
            assert code == 2
            assert "error: psi space: needs 16777216 candidates, budget is 10000000" in captured.err
    assert main(["quniform", "check", str(target), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_suite_sober_honours_the_budget(capsys):
    assert main(["suite", "--only", "sober", "--max-enum", "1"]) == 0
    assert "SKIP sober" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["quniform", "complete"], ["complete"]])
def test_quniform_module_side_refuses_exactly_above_needed(capsys, command):
    # pre3.quniform has 3 points: the module side charges the psi space,
    # 2^3 = 8, then extends the 3 x 3 structure, 9 cells
    file = path("pre3.quniform")
    assert main([*command, file, "--max-enum", "7"]) == 2
    assert "error: psi space: needs 8 candidates, budget is 7" in capsys.readouterr().err
    assert main([*command, file, "--max-enum", "8"]) == 2
    assert "error: extended matrix size: needs 9 candidates, budget is 8" in capsys.readouterr().err
    assert main([*command, file, "--max-enum", "9"]) == 0
    assert capsys.readouterr().err == ""


def test_quniform_check_builds_no_extension(capsys):
    assert main(["quniform", "check", path("pre3.quniform"), "--max-enum", "1"]) == 0


def test_suite_quniform_refuses_exactly_above_needed(capsys):
    # the three-point spaces of the item need 9, as a file does
    assert main(["suite", "--only", "quniform", "--max-enum", "8"]) == 0
    assert "SKIP quniform" in capsys.readouterr().out
    assert main(["suite", "--only", "quniform", "--max-enum", "8", "--strict"]) == 1
    capsys.readouterr()
    assert main(["suite", "--only", "quniform", "--max-enum", "9"]) == 0
    assert "PASS quniform" in capsys.readouterr().out


def test_powerset_monad_category_file(capsys):
    assert main(["check", path("pair2p.tvcat")]) == 0
    capsys.readouterr()
    assert main(["complete", path("pair2p.tvcat"), "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["gate"] == "m-BC"
    assert rep["witnesses"]


def test_oracle_flag_reproduces_pruned_verdict(capsys):
    assert main(["complete", path("chain2.vcat"), "--format", "json"]) == 0
    pruned = json.loads(capsys.readouterr().out)
    assert main(["complete", path("chain2.vcat"), "--oracle", "--format", "json"]) == 0
    reference = json.loads(capsys.readouterr().out)
    assert pruned["pair_count"] == reference["pair_count"]
    assert pruned["complete"] == reference["complete"]


@pytest.mark.parametrize(
    "command,name",
    [
        ("complete", "chain2.vcat"),
        ("complete", "sierpinski.space"),
        ("sober", "sierpinski.space"),
        ("quniform complete", "pre3.quniform"),
        ("complete", "pre3.quniform"),
    ],
)
def test_oracle_enumerates_the_pair_space(capsys, command, name):
    # On two points the oracle crosses 4 psi with 4 phi candidates; the
    # pruned path needs only the 4 psi.  On the three points of a
    # quasi-uniformity's preorder it crosses 8 with 8, where the pruned
    # path needs the 9 cells of the extended structure.
    budget, needed = ("9", 64) if name == "pre3.quniform" else ("4", 16)
    argv = [*command.split(), path(name), "--max-enum", budget]
    assert main(argv) == 0
    assert main([*argv, "--oracle"]) == 2
    assert f"pair space: needs {needed} candidates, budget is {budget}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sober", "complete"])
def test_space_oracle_reproduces_pruned_verdict(capsys, command):
    reports = []
    for extra in ([], ["--oracle"]):
        code = main([command, path("sierpinski.space"), "--format", "json", *extra])
        rep = json.loads(capsys.readouterr().out)
        assert rep["input"].pop("oracle", bool(extra)) == bool(extra)
        reports.append((code, rep))
    assert reports[0] == reports[1]
    assert reports[0][1]["lawvere"] and reports[0][1]["agree"]


def test_sober_decides_weak_sobriety_once(monkeypatch, capsys):
    import lawcat.instances

    calls = []
    original = lawcat.instances.weakly_sober

    def counted(space):
        calls.append(space)
        return original(space)

    monkeypatch.setattr(cli, "weakly_sober", counted)
    monkeypatch.setattr(lawcat.instances, "weakly_sober", counted)
    assert main(["sober", path("sierpinski.space")]) == 0
    assert len(calls) == 1


def test_quniform_complete_decides_cauchy_completeness_once(monkeypatch, capsys):
    import lawcat.quniform

    calls = []
    original = lawcat.quniform.decide_cauchy_complete

    def counted(u):
        calls.append(u)
        return original(u)

    monkeypatch.setattr(cli, "decide_cauchy_complete", counted, raising=False)
    monkeypatch.setattr(lawcat.quniform, "decide_cauchy_complete", counted)
    assert main(["quniform", "complete", path("pre3.quniform")]) == 0
    assert len(calls) == 1


def test_sober_and_quniform_complete_never_read_the_table(tmp_path, monkeypatch, capsys):
    from lawcat.tvcat import FinitePreorder

    def refuse(order):
        raise AssertionError("FinitePreorder.leq was read")

    space = tmp_path / "five.space"
    space.write_text("space five\nelements: a b c d e\norder: a<=b b<=c d<=e e<=d\n")
    monkeypatch.setattr(FinitePreorder, "leq", property(refuse))
    assert main(["sober", str(space)]) == 0
    assert main(["quniform", "complete", path("pre3.quniform")]) == 0


def test_w_order_is_built_once_per_uniformity(monkeypatch, capsys):
    import lawcat.quniform
    from lawcat.tvcat import FinitePreorder

    built = []

    class Counted:
        @staticmethod
        def from_up(n, up):
            built.append(n)
            return FinitePreorder.from_up(n, up)

    monkeypatch.setattr(lawcat.quniform, "FinitePreorder", Counted)
    assert main(["quniform", "complete", path("pre3.quniform")]) == 0
    assert built == [3]
    built.clear()
    rep = suite.item_quniform()
    assert rep["ok"] and len(built) == rep["uniformities"]


def test_complete_refuses_invalid_object(capsys):
    assert main(["complete", path("notcat.vcat")]) == 1
    assert "invalid object" in capsys.readouterr().err


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_complete_refuses_invalid_quniformity(tmp_path, capsys, oracle):
    # p->q without q->q: the base is not reflexive, as quniform check says
    bad = tmp_path / "bad.quniform"
    bad.write_text("quniform bad\nelements: p q\nrel: p->p p->q\n")
    assert main(["complete", str(bad), *oracle]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid object: {'ok': False, 'law': 'reflexivity', 'witness': (0, 1)}\n"


def test_usage_error_exit_code():
    assert main(["nope"]) == 2
    assert main(["complete"]) == 2


@pytest.mark.parametrize("value", ["0", "-5"])
def test_max_enum_below_one_is_a_usage_error(capsys, value):
    # refused by argparse before the (missing) file is read
    assert main(["complete", "nosuch.vcat", "--max-enum", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lawcat complete")
    assert err.endswith(
        f"lawcat complete: error: argument --max-enum: invalid budget: '{value}' (must be at least 1)\n"
    )
    assert "nosuch" not in err


def test_max_enum_of_one_parses():
    args = cli._parse_args(["complete", "nosuch.vcat", "--max-enum", "1"])
    assert args.max_enum == 1
    assert cli.build_parser().parse_args(["check", "x", "--max-enum", "1"]).max_enum == 1


def test_unknown_file(capsys):
    assert main(["check", path("missing.quantale")]) == 2


@pytest.mark.parametrize("bad", ["directory", "not-utf8"])
@pytest.mark.parametrize("where", ["file", "sibling-quantale"])
def test_unreadable_input_is_an_input_error(tmp_path, capsys, bad, where):
    # a path that is a directory, or bytes that are not UTF-8, name the path
    # and exit 2 like a missing file, for the file itself and its quantale
    target = tmp_path / ("myq.quantale" if where == "sibling-quantale" else "s.space")
    if bad == "directory":
        target.mkdir()
    else:
        target.write_bytes(b"quantale myq\nelements: a \xff\n")
    if where == "sibling-quantale":
        (tmp_path / "c.vcat").write_text("vcat c over myq\nelements: x\nm[x,x] = b\n")
        argv = ["check", str(tmp_path / "c.vcat")]
    else:
        argv = ["check", str(target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err
    if bad == "not-utf8":
        assert captured.err == f"error: {target}:2: not UTF-8 text (invalid start byte at byte 25)\n"


def test_quantale_resolution_by_sibling_file(tmp_path):
    (tmp_path / "myq.quantale").write_text(
        "quantale myq\nelements: a b\norder: a<=b\nunit: b\ntensor: a*a=a a*b=a b*b=b\n"
    )
    (tmp_path / "c.vcat").write_text(
        "vcat c over myq\nelements: x\nm[x,x] = b\n"
    )
    assert main(["check", str(tmp_path / "c.vcat")]) == 0


def test_unknown_quantale_reference(tmp_path, capsys):
    (tmp_path / "c.vcat").write_text("vcat c over nowhere\nelements: x\nm[x,x] = 1\n")
    assert main(["check", str(tmp_path / "c.vcat")]) == 2


def test_check_and_yoneda_name_the_same_law(capsys):
    assert main(["check", path("notcat.vcat"), "--format", "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert (rep["law"], rep["witness"]) == ("transitivity", [0, 1, 2])
    assert main(["yoneda", path("notcat.vcat"), "--format", "json"]) == 1
    err = capsys.readouterr().err
    verdict = ast.literal_eval(err.split("invalid object: ", 1)[1])
    assert (verdict["law"], list(verdict["witness"])) == ("transitivity", [0, 1, 2])


def _run(argv, capsys, fresh):
    if fresh:
        cli._PARSER = None
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_matches_a_fresh_one(capsys):
    jobs = [
        ["check", path("chain2u.tvcat"), "--format", "json"],
        ["complete", path("disc2pset.vcat"), "--format", "json"],
        ["complete", path("chain2.vcat"), "--oracle"],
        ["suite", "--only", "quantale-laws", "yoneda-v", "--format", "json"],
        ["check", path("notcat.vcat")],
    ]
    fresh = [_run(argv, capsys, fresh=True) for argv in jobs]
    parser = cli._PARSER
    reused = [_run(argv, capsys, fresh=False) for argv in jobs]
    assert cli._PARSER is parser
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 1, 0, 0, 1]
    assert main(["--help"]) == 0
    assert main(["complete", "--help"]) == 0
    assert main(["check", path("chain2u.tvcat")]) == 0
    assert cli._PARSER is parser


def test_unknown_monad_is_a_parse_error(tmp_path, capsys):
    target = tmp_path / "c.tvcat"
    target.write_text("tvcat c over 2 monad foo\nelements: a\nm[a,a] = 1\n")
    assert main(["check", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {target}:1: unknown monad 'foo'")


# SHA-256 of the exit codes and stdout of `lawcat complete` and `lawcat sober`
# (--format json) over the files written by _pinned_verdict_jobs, in order.
VERDICT_SHA256 = {
    "complete": "2f41e6f67d75c8ac6c0453dab82fa12d4489e4668bf05d6db61146d56cb58561",
    "sober": "36efafeda8ed50526771bfd4a9deae82858981e9801c24a122ba84cef21ab0d8",
}


def _pinned_verdict_jobs():
    """Seeded inputs as (command, file name, text): closed 3-point
    structures of id/plus3, id/c4, ultra/c3 and id/pset2 (the one class with
    incomplete ones) for `complete`, and 5-point spaces for `sober`."""
    from test_completeness import closed_structure

    from lawcat.instances import FinitePreorder
    from lawcat.quantale import builtin

    rng = random.Random("pinned-verdicts")
    jobs = []
    for mname, qname in (("id", "plus3"), ("id", "c4"), ("ultra", "c3"), ("id", "pset2")):
        q = builtin(qname)
        kind, head = ("vcat", "") if mname == "id" else ("tvcat", f" monad {mname}")
        for i in range(15):
            name = f"{mname}{qname}{i:02d}"
            lines = [f"{kind} {name} over {qname}{head}", "elements: a b c"]
            for r, row in enumerate(closed_structure(rng, q, 3)):
                cells = [(c, v) for c, v in enumerate(row) if v != q.bottom]
                lines += [f"m[{'abc'[r]},{'abc'[c]}] = {q.labels[v]}" for c, v in cells]
            jobs.append(("complete", f"{name}.{kind}", "\n".join(lines) + "\n"))
    offdiag = [(x, y) for x in range(5) for y in range(5) if x != y]
    for i in range(40):
        order = FinitePreorder.from_pairs(5, rng.sample(offdiag, rng.randrange(7)))
        pairs = " ".join(f"{'abcde'[x]}<={'abcde'[y]}" for x, y in offdiag if order.leq[x][y])
        lines = [f"space s{i:02d}", "elements: a b c d e"] + ([f"order: {pairs}"] if pairs else [])
        jobs.append(("sober", f"s{i:02d}.space", "\n".join(lines) + "\n"))
    return jobs


def test_complete_and_sober_verdict_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # Relative paths keep tmp_path out of the reports' input blocks.
    monkeypatch.chdir(tmp_path)
    digests = {command: hashlib.sha256() for command in VERDICT_SHA256}
    codes = {command: set() for command in VERDICT_SHA256}
    for command, name, text in _pinned_verdict_jobs():
        (tmp_path / name).write_text(text)
        code = main([command, name, "--format", "json"])
        out = capsys.readouterr().out
        json.loads(out)
        codes[command].add(code)
        digests[command].update(f"{code}\n{out}".encode())
    # the inputs reach both verdicts of complete
    assert codes == {"complete": {0, 1}, "sober": {0}}
    assert {command: d.hexdigest() for command, d in digests.items()} == VERDICT_SHA256


# SHA-256 of the exit codes and stdout of `lawcat complete --format json`
# over the files written by _pinned_powerset_jobs, in order.
POWERSET_VERDICT_SHA256 = "a3df06be294790a2134f7192d58ed4da0b2f40edad52a3e06a78c60c3cb4ddac"


def _pinned_powerset_jobs():
    """Every powerset category on 2 points over c3 (121, 7 incomplete) and
    over 2 (21, 1 incomplete), as (file name, text)."""
    from lawcat.laxext import LaxExtension
    from lawcat.monad import builtin_monad
    from lawcat.quantale import builtin
    from lawcat.tvcat import all_tvcategories

    monad = builtin_monad("powerset")
    rows = monad.labels(2, "ab")
    jobs = []
    for qname in ("c3", "2"):
        q = builtin(qname)
        for i, cat in enumerate(all_tvcategories(LaxExtension(monad, q), 2)):
            name = f"powerset{qname}{i:03d}"
            lines = [f"tvcat {name} over {qname} monad powerset", "elements: a b"]
            for r, row in enumerate(cat.a.data):
                lines += [f"m[{rows[r]},{'ab'[c]}] = {q.labels[v]}" for c, v in enumerate(row) if v != q.bottom]
            jobs.append((f"{name}.tvcat", "\n".join(lines) + "\n"))
    return jobs


def test_powerset_complete_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    codes = set()
    for name, text in _pinned_powerset_jobs():
        (tmp_path / name).write_text(text)
        code = main(["complete", name, "--format", "json"])
        out = capsys.readouterr().out
        json.loads(out)
        codes.add(code)
        digest.update(f"{code}\n{out}".encode())
    assert codes == {0, 1}
    assert digest.hexdigest() == POWERSET_VERDICT_SHA256


# SHA-256 of the exit code, stdout and stderr of every command form below, in
# order, on every file in tests/data (in the data directory, by bare name),
# in both formats, then of `complete --builtin v-hom` over each monad and the
# quantales 2 and c3 (json).
CLI_SHA256 = "524620a63a12e1d37c1d874b57bbce2490e0754177ea7447738cdcacddb81f44"

_FILE_FORMS = (
    ["check"],
    ["complete"],
    ["complete", "--oracle"],
    ["sober"],
    ["yoneda"],
    ["dual"],
    ["extend", "--monad", "id"],
    ["extend", "--monad", "powerset"],
    ["extend", "--monad", "ultra"],
    ["quniform", "check"],
    ["quniform", "complete"],
)


def _pinned_cli_jobs():
    for name in sorted(os.listdir(DATA)):
        for form in _FILE_FORMS:
            for fmt in ("text", "json"):
                yield [*form, name, "--format", fmt]
    for qname in ("2", "c3"):
        for monad in ("id", "powerset", "ultra"):
            yield ["complete", "--builtin", "v-hom", "--quantale", qname, "--monad", monad, "--format", "json"]


def test_parse_args_matches_the_top_level_parser():
    # the subcommand's own parser gives the namespace the two-stage parse gives
    reference = cli.build_parser()
    forms = [
        *_pinned_cli_jobs(),
        ["suite", "--only", "sober", "quniform", "--max-enum", "5", "--strict"],
        ["complete", "--", "chain2.vcat"],
        ["quniform", "check", "pre3.quniform", "--oracle"],
    ]
    for argv in forms:
        assert cli._parse_args(list(argv)) == reference.parse_args(argv)


def test_grammar_reads_what_argparse_reads():
    # whatever the grammar accepts, argparse reads to the same namespace, so
    # whatever argparse refuses (help included), the grammar declines
    parser = cli.build_parser()
    commands = sorted(parser.commands)
    options = sorted({s for p in parser.commands.values() for a in p._actions for s in a.option_strings})
    values = ["json", "text", "xml", "5", "-5", "08", "x", "bogus", "id", "ultra", "v-hom", "a.vcat"]
    odd = ["", "-", "--", "-h", "--form", "--format=json", "-x"]
    alphabet = commands + options + values + odd
    tails = [[]] + [[a] for a in alphabet] + [[a, b] for a in alphabet for b in alphabet]
    rng = random.Random(0)
    argvs = [[command, *tail] for command in commands for tail in tails]
    argvs += [
        [rng.choice(commands), *rng.choices(alphabet, k=rng.randint(3, 6))] for _ in range(10000)
    ]
    accepted = dict.fromkeys(commands, 0)
    for argv in argvs:
        ours = parser.commands[argv[0]].grammar.read(argv[1:])
        if ours is None:
            continue
        ours.command = argv[0]
        try:
            theirs = parser.parse_args(argv)
        except SystemExit:
            theirs = None
        assert ours == theirs, argv
        accepted[argv[0]] += 1
    assert min(accepted.values()) >= 3, accepted
    assert sum(accepted.values()) > 500


def test_pinned_and_benchmark_forms_take_the_grammar(monkeypatch):
    # an edit to build_parser that sends these forms to argparse fails here
    forms = [
        *_pinned_cli_jobs(),
        ["complete", "work/c0001.vcat", "--format", "json"],
        ["complete", "work/c0001.vcat", "--format", "json", "--oracle"],
        ["sober", "work/s0001.space", "--format", "json"],
        ["quniform", "complete", "work/u.quniform", "--format", "json"],
        ["suite", "--format", "json"],
    ]
    reference = cli.build_parser()
    expected = [reference.parse_args(argv) for argv in forms]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a well-formed command line")

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_known_args", refuse)
    assert [cli._parse_args(list(argv)) for argv in forms] == expected


def test_cli_bytes_are_pinned(monkeypatch, capsys):
    # every JSON report is also checked against json.dumps, its reference
    written = []
    original = cli.report_json

    def checked(obj):
        text = original(obj)
        assert text == json.dumps(obj, sort_keys=True, indent=2)
        written.append(obj)
        return text

    monkeypatch.setattr(cli, "report_json", checked)
    monkeypatch.chdir(DATA)
    digest = hashlib.sha256()
    for argv in _pinned_cli_jobs():
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(f"{argv}\n{code}\n{captured.out}\n{captured.err}\n".encode())
    assert digest.hexdigest() == CLI_SHA256
    assert len(written) >= 50


# SHA-256 of the exit code, stdout and stderr of every usage form below, in
# order, each run with a fresh parser and then with the reused one, in the data
# directory at 80 columns: argparse's usage, help and error text.
USAGE_SHA256 = "6b82c7a9399f89fef41fcc7c0980a7f97a6f983965de000ab527953e3bc20ff4"

_USAGE_FORMS = (
    [],
    ["-h"],
    ["--help"],
    ["nope"],
    ["check"],
    ["check", "-h"],
    ["complete", "-h"],
    ["suite", "--only"],
    ["complete", "a", "b"],
    ["complete", "--bogus"],
    ["complete", "--monad", "bogus"],
    ["complete", "--max-enum", "x"],
    ["--format", "json", "check", "sierpinski.space"],
    ["complete", "--", "sierpinski.space"],
    ["sober", "sierpinski.space", "extra"],
)


def test_usage_bytes_are_pinned(monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for fresh in (True, False):
        for argv in _USAGE_FORMS:
            code, out, err = _run(argv, capsys, fresh)
            digest.update(f"{argv}\n{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == USAGE_SHA256


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        pytest.param(["check", path("chain2.vcat"), "--format", "json"], False, id="json"),
        pytest.param(["check", path("chain2.vcat")], False, id="text"),
        pytest.param(["check", path("chain2.vcat")], True, id="text-unbuffered"),
        pytest.param(["suite", "--only", "quantale-laws", "--format", "json"], False, id="suite"),
        pytest.param(["--help"], False, id="help"),
        pytest.param(["--help"], True, id="help-unbuffered"),
        pytest.param(["check", "--help"], False, id="check-help"),
        pytest.param(["check", "--help"], True, id="check-help-unbuffered"),
    ],
)
def test_a_closed_stdout_exits_141_in_silence(argv, unbuffered):
    # the read end is closed before the child starts, so every write to
    # stdout fails: the exit code says so, and stderr stays empty, whether
    # the failed write is the one that fills the buffer, the flush at the
    # end, or an unbuffered write, help included
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lawcat.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            check=False,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
