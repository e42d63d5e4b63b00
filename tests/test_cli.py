import json

import pytest

import levelcert.cli
import levelcert.rings
from levelcert.cli import (ParseError, VerificationError, main, parse,
                           run_session)
from levelcert.corpus import run_corpus
from levelcert.grobner import BudgetExceeded


KOSZUL = """\
A = artin(F2; x | x^2)
complex K over A : range 1..0 ; d1 = [[x]]
"""

REGULAR = """\
R = poly(F101; x, y, z)
module k over R = coker [[x, y, z]]
"""


def run_payload(src, **config):
    cfg = {"budget": 4, "cutoff": 6, "corpus_filter": None}
    cfg.update(config)
    return run_session(parse(src), cfg)


def test_parse_binds_rings_modules_complexes():
    sess = parse(KOSZUL + REGULAR + "module F over R = free [0, 1]\n")
    assert sess.rings["A"].kind == "artin"
    assert sess.rings["R"].kind == "poly"
    assert sess.complexes["K"].support() == [0, 1]
    assert sess.modules["k"].ngens == 1
    assert sess.modules["F"].gen_twists == [0, 1]


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse("A = artin(F2; x | x^2)\n\nwibble K\n")
    assert exc.value.line == 3
    assert "wibble" in str(exc.value)


def test_duplicate_name_rejected():
    with pytest.raises(ParseError) as exc:
        parse("A = artin(F2; x | x^2)\nA = poly(F101; x)\n")
    assert exc.value.line == 2


def test_unknown_ring_and_unknown_object():
    with pytest.raises(ParseError):
        parse("module M over Q = coker [[1]]\n")
    sess = parse(KOSZUL + "homology L\n")
    with pytest.raises(ParseError) as exc:
        run_session(sess, {"budget": 2, "cutoff": 4})
    assert "unknown module or complex" in str(exc.value)


def test_bad_differential_names_degree():
    src = "A = artin(F2; x | x^2)\n" \
          "complex C over A : range 2..0 ; d2 = [[1]] ; d1 = [[1]]\n"
    with pytest.raises(VerificationError) as exc:
        parse(src)
    assert "degree 2" in str(exc.value)
    assert exc.value.line == 2


def test_statement_continuation_across_lines():
    src = ("A = artin(F2; x | x^2)\n"
           "complex K over A : range 1..0 ;\n"
           "  d1 = [[x]]\n"
           "homology K\n")
    sess = parse(src)
    assert sess.complexes["K"].support() == [0, 1]
    assert sess.commands[0][0] == ("homology", "K")


def test_action_module_literal():
    src = ("A = artin(F2; x | x^2)\n"
           "module E over A = action { x: [[0, 1], [0, 0]] }\n"
           "bass E\n")
    payload = run_session(parse(src),
                          {"budget": 4, "cutoff": 6})
    rep = payload["reports"][0]["bass"]
    assert rep["applies"] and rep["level_inj"] == 1


def test_homology_and_level_commands():
    payload = run_payload(KOSZUL + "homology K\nlevel GI K\n")
    hom = payload["reports"][0]
    assert hom["per_degree"] == {"0": {"dim": 1, "generators": 1},
                                 "1": {"dim": 1, "generators": 1}}
    cert = payload["reports"][1]["certificate"]
    assert cert["verdict"] == ["exact", 2]
    assert cert["verified"] is True
    assert payload["reports"][1]["inconclusive"] is False


def test_module_autowraps_for_complex_commands():
    payload = run_payload(REGULAR + "level Proj k\npd k\n", budget=4)
    cert = payload["reports"][0]["certificate"]
    assert cert["verdict"] == ["exact", 4]
    rep = payload["reports"][1]["report"]
    assert rep["status"] == "exact" and rep["value"] == 3
    assert rep["betti"] == [1, 3, 3, 1]


def test_adams_splice_resolve_depth(tmp_path):
    payload = run_payload(KOSZUL + REGULAR +
                          "adams K 3\nsplice K 2\nresolve K 3\ndepth k\n")
    tower = payload["reports"][0]["tower"]
    assert tower["layers"] == 3
    splice = payload["reports"][1]["splice"]
    assert splice["ok"] is True and splice["layers"] == 2
    ranks = payload["reports"][2]["resolution"]["ranks"]
    assert all(r >= 1 for r in ranks.values())
    assert payload["reports"][3]["depth"] == 0


def test_cli_exit_codes(tmp_path):
    ok = tmp_path / "ok.lvc"
    ok.write_text(KOSZUL + "level GI K\n")
    assert main([str(ok)]) == 0

    # the residue field has no finite projective bound over this base,
    # so a small budget leaves the verdict open
    open_verdict = tmp_path / "open.lvc"
    open_verdict.write_text("A = artin(F2; x | x^2)\n"
                            "module k over A = coker [[x]]\n"
                            "level Proj k\n")
    assert main([str(open_verdict), "--budget", "1"]) == 2

    bad = tmp_path / "bad.lvc"
    bad.write_text("nonsense here\n")
    assert main([str(bad)]) == 1

    assert main([str(tmp_path / "missing.lvc")]) == 1


@pytest.mark.parametrize("command", ["splice K 0", "splice K -1",
                                     "adams K -1", "adams K 0"])
def test_tower_count_below_one_is_a_clean_error(tmp_path, capsys, command):
    script = tmp_path / "count.lvc"
    script.write_text(KOSZUL + command + "\n")
    assert main([str(script)]) == 1
    err = capsys.readouterr().err
    verb = command.split()[0]
    assert err.strip() == (f"error: line 3, column 1: {verb} needs a count "
                           "of at least 1")


def test_resolve_count_below_zero_is_a_clean_error(tmp_path, capsys):
    script = tmp_path / "count.lvc"
    script.write_text(KOSZUL + "resolve K -1\n")
    assert main([str(script)]) == 1
    assert capsys.readouterr().err.strip() == (
        "error: line 3, column 1: resolve needs a count of at least 0")
    script.write_text(KOSZUL + "resolve K 0\n")
    assert main([str(script)]) == 0
    assert capsys.readouterr().out.strip() == "resolve K: ranks {0: 1, 1: 2}"


@pytest.mark.parametrize("body, message", [
    ("A = artin(F2; x | x^2)\nmodule M over A = free -1",
     "a rank must be at least 0, not -1"),
    ("A = artin(F2; x | x^2)\ncomplex K over A : range 1..0 ; rank 1 = -2",
     "a rank must be at least 0, not -2"),
    ("R = poly(F101; x, y)\nmodule M over R = free -2",
     "a rank must be at least 0, not -2"),
    ("A = artin(F2; x | x^2)\n"
     "complex K over A : range 1..0 ; twists 1 = [0]",
     "twist lists only apply to graded rings"),
], ids=["artin-free", "artin-rank", "poly-free", "artin-twists"])
def test_bad_free_rank_is_a_clean_error(tmp_path, capsys, body, message):
    script = tmp_path / "rank.lvc"
    script.write_text(body + "\n")
    assert main([str(script)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip() == f"error: line 2, column 1: {message}"


@pytest.mark.parametrize("body, message", [
    ("A = artin(F2; x | x^2)\n"
     "complex K over A : range 1..0 ; d1 = [[x]] ; d1 = [[0]]",
     "d1 given twice"),
    ("A = artin(F2; x | x^2)\n"
     "complex K over A : range 1..0 ; rank 1 = 2 ; rank 1 = 1",
     "rank 1 given twice"),
    ("R = poly(F101; x)\n"
     "complex K over R : range 1..0 ; twists 1 = [0] ; twists 1 = [1]",
     "twists 1 given twice"),
    ("A = artin(F2; x | x^2)\n"
     "module M over A = action { x: [[0, 1], [0, 0]], x: [[0, 0], [0, 0]] }",
     "action matrix for x given twice"),
], ids=["differential", "rank", "twists", "action"])
def test_repeated_declaration_part_is_a_clean_error(tmp_path, capsys, body,
                                                    message):
    script = tmp_path / "twice.lvc"
    script.write_text(body + "\n")
    assert main([str(script)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"error: line 2, column 1: {message}")


@pytest.mark.parametrize("body, entry, reason", [
    ("A = artin(Q; x | x^2)\ncomplex K over A : range 1..0 ; d1 = [[1/0*x]]",
     "1/0*x", "zero denominator in '1/0'"),
    ("A = artin(Q; x | x^2)\n"
     "module M over A = action { x: [[0, 1/0], [0, 0]] }",
     "1/0", "zero denominator in '1/0'"),
    ("A = artin(F5; x | x^2)\ncomplex K over A : range 1..0 ; d1 = [[1/5*x]]",
     "1/5*x", "denominator divisible by p"),
], ids=["Q-differential", "Q-action", "F5-differential"])
def test_impossible_denominator_is_a_clean_error(tmp_path, capsys, body,
                                                 entry, reason):
    script = tmp_path / "den.lvc"
    script.write_text(body + "\n")
    assert main([str(script)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"error: line 2, column 1: bad matrix entry {entry!r}: {reason}")


def test_huge_exponent_reduces_without_expanding(tmp_path, capsys,
                                                  wall_bound):
    # x^e is read as one monomial, so the relation x^2 kills it at once
    script = tmp_path / "power.lvc"
    script.write_text("A = artin(Q; x | x^2)\n"
                      "complex C over A : range 1..0 ; "
                      "d1 = [[x^99999999999]]\n"
                      "homology C\n")
    with wall_bound(10):
        assert main([str(script)]) == 0
    assert capsys.readouterr().out.strip() == (
        "homology C: H_0: {'dim': 2, 'generators': 1}, "
        "H_1: {'dim': 2, 'generators': 1}")


def test_dangling_exponent_is_a_clean_error(tmp_path, capsys):
    script = tmp_path / "caret.lvc"
    script.write_text("A = artin(Q; x | x^2)\n"
                      "complex C over A : range 1..0 ; d1 = [[x^]]\n")
    assert main([str(script)]) == 1
    assert capsys.readouterr().err.strip() == (
        "error: line 2, column 1: bad matrix entry 'x^': "
        "unexpected end of polynomial")


@pytest.mark.parametrize("budget", ["0", "-2"])
def test_budget_below_one_is_a_clean_error(tmp_path, capsys, budget):
    script = tmp_path / "budget.lvc"
    script.write_text(KOSZUL + "splice K\n")
    assert main([str(script), "--budget", budget]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: --budget needs a tower depth of at least 1"


def test_bad_field_is_a_clean_error(tmp_path, capsys):
    script = tmp_path / "f4.lvc"
    script.write_text("A = artin(F4; x | x^2)\n")
    assert main([str(script)]) == 1
    err = capsys.readouterr().err
    assert err.strip() == ("error: line 1, column 1: bad ring declaration: "
                           "4 is not prime")


def test_json_output_byte_identical(tmp_path):
    script = tmp_path / "s.lvc"
    script.write_text(KOSZUL + "level GI K\nhomology K\n")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main([str(script), "--out", str(out1)]) == 0
    assert main([str(script), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["reports"][0]["certificate"]["verdict"] == ["exact", 2]


def test_default_field_flag(tmp_path):
    script = tmp_path / "s.lvc"
    script.write_text("R = poly(x, y)\nmodule k over R = coker [[x, y]]\n"
                      "pd k\n")
    out = tmp_path / "o.json"
    assert main([str(script), "--field", "F101", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["report"]["value"] == 2


def test_corpus_all_pass_and_filter(tmp_path):
    table = run_corpus("square-zero base ring")
    assert table["total"] == 1 and table["all_ok"]

    empty = run_corpus("no such case")
    assert empty["total"] == 0 and empty["all_ok"]

    script = tmp_path / "c.lvc"
    script.write_text("corpus\n")
    assert main([str(script), "--corpus-filter", "no such case"]) == 0


def test_corpus_perturbed_row_fails():
    table = run_corpus("depth formula", perturb="depth formula")
    assert table["total"] == 1
    assert not table["rows"][0]["ok"]
    assert not table["all_ok"]


@pytest.fixture
def no_groebner_budget(monkeypatch):
    """Every Groebner basis a ring asks for runs over its pair budget."""
    def over_budget(gens, *args, **kwargs):
        raise BudgetExceeded(1)

    monkeypatch.setattr(levelcert.rings, "buchberger", over_budget)


def test_budget_in_ring_declaration_is_a_clean_error(tmp_path, capsys,
                                                      no_groebner_budget):
    script = tmp_path / "ring.lvc"
    script.write_text("R = poly(F101; x)\nA = artin(F2; x | x^2)\n")
    assert main([str(script)]) == 1
    assert capsys.readouterr().err.strip() == (
        "error: line 2, column 1: bad ring declaration: Groebner pair "
        "budget exceeded after 1 S-pairs")


def test_budget_in_command_is_a_clean_error(tmp_path, capsys,
                                            no_groebner_budget):
    # declaring a graded complex computes no Groebner basis; its homology
    # does
    script = tmp_path / "command.lvc"
    script.write_text("R = poly(F101; x, y)\n"
                      "complex K over R : range 1..0 ; twists 1 = [1, 1] ; "
                      "d1 = [[x, y]]\n"
                      "homology K\n")
    assert main([str(script)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "error: Groebner pair budget exceeded after 1 S-pairs")


def test_memory_error_in_declaration_names_the_line(tmp_path, capsys,
                                                    monkeypatch):
    # forced, since a real allocation this large may be killed instead of
    # raising on a host that overcommits memory
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(levelcert.cli, "free_module", no_memory)
    script = tmp_path / "big.lvc"
    script.write_text("A = artin(F2; x | x^2)\n"
                      "complex K over A : range 1..0 ; rank 1 = 100000 ; "
                      "rank 0 = 1\n")
    assert main([str(script)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip() == ("error: line 2, column 1: Unable to allocate "
                           "74.5 GiB for an array")


def test_memory_error_in_command_is_a_clean_error(tmp_path, capsys,
                                                  monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(levelcert.cli, "level_report", no_memory)
    script = tmp_path / "big.lvc"
    script.write_text(KOSZUL + "level Proj K\n")
    assert main([str(script)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: out of memory"
