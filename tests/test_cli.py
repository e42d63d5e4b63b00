import json
from pathlib import Path

import pytest

import levelcert.adams
import levelcert.cli
import levelcert.corpus
import levelcert.level
import levelcert.rings
from levelcert.cli import (ParseError, VerificationError, _jsonable,
                           build_arg_parser, main, parse, run_command,
                           run_session)
from levelcert.complexes import zero_chain_map
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


GOLDEN = Path(__file__).resolve().parent / "golden"


def run_payload(src, **config):
    cfg = {"budget": 4, "cutoff": 6, "corpus_filter": None}
    cfg.update(config)
    return run_session(parse(src), cfg)


def default_config():
    args = build_arg_parser().parse_args(["-"])
    return {"budget": args.budget, "cutoff": args.cutoff,
            "corpus_filter": args.corpus_filter}


def count_cover_steps(monkeypatch) -> list:
    """The complexes adams_step_proj is called on while the test runs."""
    built, step = [], levelcert.adams.adams_step_proj

    def counted(m):
        built.append(m)
        return step(m)

    monkeypatch.setattr(levelcert.adams, "adams_step_proj", counted)
    return built


def report_alone(source, cmd, line, config):
    """The JSON report of one command run in a fresh session."""
    return _jsonable(run_command(parse(source), cmd, config, line))


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


@pytest.mark.parametrize("actions, message", [
    ("x: [[0, 1], [0, 0]], y: [[0, 0], [1, 0]]", "actions do not commute"),
    ("x: [[1, 0], [0, 0]], y: [[0, 0], [0, 0]]",
     "ring relation not satisfied by actions"),
], ids=["commute", "relation"])
def test_action_literal_that_is_no_module_is_a_clean_error(tmp_path, capsys,
                                                          actions, message):
    script = tmp_path / "action.lvc"
    script.write_text("A = artin(F2; x, y | x^2, y^2)\n"
                      f"module M over A = action {{ {actions} }}\n"
                      "homology M\n")
    assert main([str(script)]) == 1
    assert capsys.readouterr().err.strip() == f"error: line 2: {message}"


def test_bass_reads_the_budget(tmp_path, capsys):
    # the level the bass report carries is the level command's own, at
    # the budget given on the command line
    script = tmp_path / "bass.lvc"
    script.write_text("A = artin(F2; x | x^2)\n"
                      "module MA1 over A = coker [[x, x]]\n"
                      "level Inj MA1\nbass MA1\n")
    for budget, verdict in (("2", ["at_least", 3]), ("4", ["at_least", 5])):
        out = tmp_path / f"bass{budget}.json"
        assert main([str(script), "--budget", budget, "--out", str(out)]) == 2
        level, bass = json.loads(out.read_text())["reports"]
        assert level["certificate"]["verdict"] == verdict
        assert bass["bass"]["level_inj_verdict"] == verdict
    capsys.readouterr()


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


@pytest.mark.parametrize("ring, part, message", [
    ("artin(F2; x | x^2)", "rank 5 = 2", "rank 5 falls outside range 1..0"),
    ("artin(F2; x | x^2)", "rank -1 = 2",
     "rank -1 falls outside range 1..0"),
    ("poly(F101; x)", "twists 2 = [0]", "twists 2 falls outside range 1..0"),
    ("poly(F101; x)", "twists -1 = [0]",
     "twists -1 falls outside range 1..0"),
], ids=["rank-above", "rank-below", "twists-above", "twists-below"])
def test_part_outside_range_is_a_clean_error(tmp_path, capsys, ring, part,
                                             message):
    # like a differential outside the range, a rank or twist list there
    # names a degree the complex does not have
    script = tmp_path / "outside.lvc"
    script.write_text(f"A = {ring}\n"
                      f"complex K over A : range 1..0 ; d1 = [[x]] ; {part}\n")
    assert main([str(script)]) == 1
    assert capsys.readouterr().err.strip() == (
        f"error: line 2, column 1: {message}")
    # both ends of the range are degrees of the complex
    word = part.split()[0]
    ends = {"rank": "rank 1 = 1 ; rank 0 = 1",
            "twists": "twists 1 = [1] ; twists 0 = [0]"}[word]
    sess = parse(f"A = {ring}\n"
                 f"complex K over A : range 1..0 ; d1 = [[x]] ; {ends}\n")
    assert sess.complexes["K"].support() == [0, 1]


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


def test_wide_range_builds_only_the_declared_terms(tmp_path, capsys,
                                                   wall_bound):
    # the parser reads the degrees the parts name, not every degree of
    # the range
    script = tmp_path / "wide.lvc"
    script.write_text("A = artin(F2; x | x^2)\n"
                      "complex K over A : range 999999999999..0 ; "
                      "d1 = [[x]]\n"
                      "homology K\n")
    with wall_bound(10):
        assert main([str(script)]) == 0
    assert capsys.readouterr().out.strip() == (
        "homology K: H_0: {'dim': 1, 'generators': 1}, "
        "H_1: {'dim': 1, 'generators': 1}")


def test_wide_range_level_reads_only_the_nonzero_terms(tmp_path, capsys,
                                                      wall_bound):
    # the Hom complex and the chain-map check visit the degrees where
    # the complexes have terms, not every degree between them
    script = tmp_path / "wide.lvc"
    script.write_text("A = artin(F2; x | x^2)\n"
                      "complex K over A : range 999999999999..0 ; "
                      "rank 999999999999 = 1 ; d1 = [[x]]\n"
                      "level Proj K\nlevel GP K\n")
    with wall_bound(10):
        assert main([str(script)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "level proj K: range 2 3", "level gproj K: exact 2"]


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


@pytest.mark.parametrize("cutoff", ["-1", "-3"])
def test_cutoff_below_zero_is_a_clean_error(tmp_path, capsys, cutoff):
    script = tmp_path / "cutoff.lvc"
    script.write_text("A = artin(F2; x | x^2)\n"
                      "module k over A = coker [[x]]\n"
                      "pd k\n")
    assert main([str(script), "--cutoff", cutoff]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == (
        "error: --cutoff needs a window of at least 0")
    # a window of zero stays valid, as in `resolve <name> 0`
    assert main([str(script), "--cutoff", "0"]) == 0
    assert capsys.readouterr().out.strip() == "pd k = infinite"


SQUARE_ZERO = """\
N = artin(F2; x, y | x^2, x*y, y^2)
module M over N = coker [[x]]
"""


def test_gpd_and_level_share_one_reflexivity_screen():
    # the screen has one depth, so both reports read the same entry
    sess = parse(SQUARE_ZERO + "gpd M\nlevel GP M\n")
    run_session(sess, {"budget": 4, "cutoff": 6, "corpus_filter": None})
    M = sess.modules["M"]
    assert [key for key in sess.rings["N"].tr_screens
            if key[0] == M] == [(M, 4)]


def test_gpd_below_cutoff_four_reads_the_level_screen(tmp_path):
    # --cutoff sizes resolutions, not the screen: at --cutoff 2, gpd and
    # level still share one screen of depth 4, and the gpd report is the
    # one at the default cutoff
    sess = parse(SQUARE_ZERO + "gpd M\nlevel GP M\n")
    run_session(sess, {"budget": 4, "cutoff": 2, "corpus_filter": None})
    M = sess.modules["M"]
    assert [key for key in sess.rings["N"].tr_screens
            if key[0] == M] == [(M, 4)]
    script = tmp_path / "gpd.lvc"
    script.write_text(SQUARE_ZERO + "gpd M\n")
    out = tmp_path / "gpd.json"
    reports = []
    for extra in (["--cutoff", "2"], []):
        main([str(script), "--out", str(out)] + extra)
        reports.append(json.loads(out.read_text())["reports"][0])
    assert reports[0] == reports[1]


def test_level_does_not_read_the_cutoff(tmp_path):
    # --cutoff sizes dimension reports and resolve, not level
    script = tmp_path / "gp.lvc"
    script.write_text(SQUARE_ZERO + "level GP M\n")
    certs = []
    for cutoff in ("2", "8"):
        out = tmp_path / f"gp-{cutoff}.json"
        main([str(script), "--cutoff", cutoff, "--out", str(out)])
        certs.append(json.loads(out.read_text())["reports"][0]["certificate"])
    assert certs[0] == certs[1]
    assert certs[0]["verdict"] == ["at_least", 2]


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


@pytest.mark.parametrize("ring", ["artin(F2; x | x^2)", "poly(F101; x, y)"])
def test_zero_object_dimension_prints_minus_infinity(tmp_path, capsys,
                                                     ring):
    # a zero module and an exact complex are the zero object, whose
    # dimension is -infinity; the JSON keeps it as null
    script = tmp_path / "z.lvc"
    script.write_text(f"A = {ring}\n"
                      "module Z over A = coker [[1]]\n"
                      "complex E over A : range 1..0 ; d1 = [[1]]\n"
                      "pd Z\ngpd E\n")
    out = tmp_path / "z.json"
    assert main([str(script), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pd Z = -infinity", "gpd E = -infinity"]
    for rep in json.loads(out.read_text())["reports"]:
        assert rep["report"]["status"] == "exact"
        assert rep["report"]["value"] is None


@pytest.mark.parametrize("ring", ["artin(F2; x | x^2)", "poly(F101; x, y)"])
def test_zero_object_depth_prints_infinity(tmp_path, capsys, ring):
    # the depth of the zero object is infinity; the JSON keeps it as null
    script = tmp_path / "z.lvc"
    script.write_text(f"A = {ring}\n"
                      "module Z over A = free 0\n"
                      "complex E over A : range 1..0 ; d1 = [[1]]\n"
                      "depth Z\ndepth E\n")
    out = tmp_path / "z.json"
    assert main([str(script), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "depth Z = infinity", "depth E = infinity"]
    assert [rep["depth"] for rep in json.loads(out.read_text())["reports"]] \
        == [None, None]


def test_default_field_flag(tmp_path):
    script = tmp_path / "s.lvc"
    script.write_text("R = poly(x, y)\nmodule k over R = coker [[x, y]]\n"
                      "pd k\n")
    out = tmp_path / "o.json"
    assert main([str(script), "--field", "F101", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["report"]["value"] == 2


def test_corpus_all_pass_and_filter(tmp_path, capsys):
    table = run_corpus()
    assert table["total"] == len(levelcert.corpus.CASES) and table["all_ok"]

    bass = run_corpus("Bass formula")
    assert [row["name"] for row in bass["rows"]] == [
        name for name, _, _ in levelcert.corpus.CASES
        if "Bass formula" in name]
    assert bass["total"] == 2 and bass["all_ok"]

    empty = run_corpus("no such case")
    assert empty["total"] == 0 and empty["all_ok"]

    script = tmp_path / "c.lvc"
    script.write_text("corpus\n")
    assert main([str(script), "--corpus-filter", "no such case"]) == 0
    assert capsys.readouterr().out == "corpus: no cases selected\n"


def test_corpus_perturbed_row_fails(tmp_path, monkeypatch):
    # damage one expected line of a copy of the rows: that row fails and
    # every other row passes
    cases = [(name, script, [line.replace("exact 2", "exact 3")
                             for line in expected]
              if name.startswith("Bass formula needs") else expected)
             for name, script, expected in levelcert.corpus.CASES]
    monkeypatch.setattr(levelcert.corpus, "CASES", cases)
    table = run_corpus()
    assert [row["name"] for row in table["rows"] if not row["ok"]] == [
        name for name, _, _ in cases if name.startswith("Bass formula needs")]
    assert table["passed"] == len(cases) - 1 and not table["all_ok"]
    script = tmp_path / "c.lvc"
    script.write_text("corpus\n")
    assert main([str(script), "--corpus-filter", "Bass formula needs"]) == 2


def test_corpus_row_fails_on_an_unverified_report(monkeypatch):
    # a row checks the printed line, which flags a report whose
    # certificate does not verify
    monkeypatch.setattr(levelcert.level.LevelCertificate, "verify",
                        lambda self: False)
    table = run_corpus("GI level of the Koszul complex")
    assert table["total"] == 1 and not table["all_ok"]
    assert table["rows"][0]["got"][-1] == "level ginj K: exact 2 (UNVERIFIED)"


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


def test_commands_on_one_module_share_its_cover_tower(monkeypatch):
    # k over poly(F101; x, y, z) has pd 3: the four level reports, adams
    # and splice all read one tower of four steps on one stalk of k
    built = count_cover_steps(monkeypatch)
    payload = run_payload(REGULAR + "level Proj k\nlevel Flat k\n"
                          "level GP k\nlevel GF k\nadams k\nsplice k\n")
    assert len(built) == 4 and len(set(map(id, built))) == 4
    assert [rep["certificate"]["verdict"] for rep in payload["reports"][:4]] \
        == [["exact", 4]] * 4
    assert payload["reports"][4]["tower"]["layers"] == 4
    assert payload["reports"][5]["splice"]["ok"] is True


def test_level_reports_of_one_module_share_one_ghost_search(monkeypatch):
    # the ghost search is class-free: the four level reports of k over
    # poly(F101; x, y, z) read one free replacement and one Hom complex,
    # kept on the stalk of k, where each report once built its own
    built = {"semiprojective_resolution": [], "ChainMapSpace": []}
    for name, calls in built.items():
        make = getattr(levelcert.level, name)

        def counted(*args, _make=make, _calls=calls, **kwargs):
            _calls.append(args)
            return _make(*args, **kwargs)

        monkeypatch.setattr(levelcert.level, name, counted)
    payload = run_payload(REGULAR + "level Proj k\nlevel Flat k\n"
                          "level GP k\nlevel GF k\n")
    certs = [rep["certificate"] for rep in payload["reports"]]
    assert [c["verdict"] for c in certs] == [["exact", 4]] * 4
    assert [c["lower"]["route"] for c in certs] == ["ghost-chain"] * 4
    assert all(c["verified"] for c in certs)
    assert {name: len(calls) for name, calls in built.items()} == {
        "semiprojective_resolution": 1, "ChainMapSpace": 1}


@pytest.mark.parametrize("source, route", [
    (REGULAR + "level Proj k\nlevel Flat k\nlevel GF k\n", "ghost-chain"),
    (KOSZUL + "level GP K\nlevel GF K\nlevel GI K\n", "cycle-boundary")])
def test_verify_reads_no_kept_decision(source, route):
    # the ghost search is kept on the complex and shared by its reports,
    # the cycle-boundary triangle is built per report, and verify()
    # checks the evidence again: a tampered certificate fails while the
    # kept decision is intact, passes once restored, and the reports
    # after it are those of the same commands run alone
    sess = parse(source)
    config = default_config()
    (_, cls, name), line = sess.commands[0]
    x = sess.as_complex(name, line)
    rep = levelcert.level.level_report(x, cls, budget=config["budget"])
    if route == "ghost-chain":
        cert = rep.lower
        space, comp, factors, aug = kept = cert.ghost
        bad = (space, zero_chain_map(comp.source, comp.target), factors, aug)
        part = "ghost"
    else:
        cert = rep.upper
        kept = cert.end_map
        # the zero map onto a nonzero layer is not a quasi-isomorphism
        assert not kept.target.is_zero_complex()
        bad, part = zero_chain_map(kept.source, kept.target), "end_map"
    assert cert.route == route and rep.verify()
    setattr(cert, part, bad)
    assert not cert.verify() and not rep.verify()
    later = [run_command(sess, cmd, config, line)
             for cmd, line in sess.commands[1:]]
    setattr(cert, part, kept)
    assert cert.verify() and rep.verify()
    later += [run_command(sess, cmd, config, line)
              for cmd, line in sess.commands[1:]]
    alone = [report_alone(source, cmd, line, config)
             for cmd, line in sess.commands[1:]]
    assert _jsonable(later) == alone * 2
    assert all(r["certificate"]["verified"] for r in later)
    # the later reports read the ghost search this one left on the
    # complex, and build their own cycle-boundary triangle
    again = levelcert.level.level_report(x, sess.commands[1][0][1],
                                         budget=config["budget"])
    if route == "ghost-chain":
        assert again.lower.ghost[0] is space
    else:
        assert again.upper.end_map is not kept
        assert again.upper.end_map.target == kept.target


def test_towers_of_every_cap_read_one_set_of_steps(tmp_path, capsys):
    # towers capped below, at and past the steps already built give the
    # reports of towers built from scratch
    body = ("adams k 2\nlevel Proj k\nadams k 1\nsplice k 3\n"
            "adams k\n")
    script = tmp_path / "caps.lvc"
    script.write_text(REGULAR + body)
    out = tmp_path / "caps.json"
    assert main([str(script), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "adams k: 2 layers, cover ranks [{'0': 1}, {'0': 3}]",
        "level proj k: exact 4",
        "adams k: 1 layers, cover ranks [{'0': 1}]",
        "splice k: 3 layers, all exact",
        "adams k: 4 layers, cover ranks "
        "[{'0': 1}, {'0': 3}, {'0': 3}, {'0': 1}]"]
    reports = json.loads(out.read_text())["reports"]
    config = default_config()
    source = REGULAR + body
    assert reports == [report_alone(source, cmd, line, config)
                       for cmd, line in parse(source).commands]


@pytest.mark.parametrize("name", ["artinian-5", "regular-5", "rational-5"])
def test_reports_do_not_depend_on_the_commands_before_them(name,
                                                           wall_bound):
    # each command reports the same run alone in a fresh session and in
    # a session run backwards as in the script's own order, so what one
    # report leaves cached on a complex changes no later report
    source = (GOLDEN / f"{name}.lvc").read_text()
    config = default_config()
    with wall_bound(60):
        forward = _jsonable(run_session(parse(source), config))["reports"]
        sess = parse(source)
        backward = [run_command(sess, cmd, config, line)
                    for cmd, line in reversed(sess.commands)]
        assert _jsonable(backward[::-1]) == forward
        for (cmd, line), want in zip(sess.commands, forward):
            assert report_alone(source, cmd, line, config) == want, cmd
