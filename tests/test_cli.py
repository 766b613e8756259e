import ast
import json
import os

import pytest

from lawcat.cli import main
from lawcat.errors import ParseError
from lawcat.fileio import (
    load_file,
    parse_category_text,
    parse_quantale_text,
    parse_quniform_text,
    parse_space_text,
)

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


def test_suite_budget_skip_and_strict(capsys):
    code = main(["suite", "--only", "ord-complete", "--max-enum", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SKIP ord-complete" in out
    assert main(["suite", "--only", "ord-complete", "--max-enum", "10", "--strict"]) == 1


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


def test_complete_refuses_invalid_object(capsys):
    assert main(["complete", path("notcat.vcat")]) == 1
    assert "invalid object" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["nope"]) == 2
    assert main(["complete"]) == 2


def test_unknown_file(capsys):
    assert main(["check", path("missing.quantale")]) == 2


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
