"""Each correctness check rejects a doctored report.

Run with `python3 -m pytest perfbench`.  The reports below have the
shape the CLI prints; each test starts from one that passes and changes
one field so that the fact the check relies on is violated.
"""

import copy
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check  # noqa: E402
from gen import generate, WORKLOADS  # noqa: E402
from tracer import COUNTED, MAXIMA, SPANS  # noqa: E402
from worker import cli_config  # noqa: E402

ROOT = os.path.dirname(HERE)


def facts(command, kind, nvars=1, regular=False, self_injective=True,
          square_zero=True, terms=None):
    out = {"command": command, "kind": kind, "nvars": nvars,
           "regular": regular, "self_injective": self_injective,
           "square_zero": square_zero}
    if terms is not None:
        out["terms"] = terms
    return out


def level(cls, verdict, verified=True):
    return {"command": "level", "name": "X", "inconclusive": False,
            "certificate": {"class": cls, "verdict": verdict,
                            "verified": verified}}


REGULAR_K = dict(nvars=3, regular=True, self_injective=False,
                 square_zero=False)


def pd_report(value, betti, status="exact"):
    return {"command": "pd", "name": "k",
            "report": {"kind": "pd", "status": status, "value": value,
                       "betti": betti}}


def resolve_report(ranks, minimal=True):
    return {"command": "resolve", "name": "k",
            "resolution": {"ranks": ranks, "minimal": minimal,
                           "complete": True}}


def adams_report(ranks):
    steps = [{"cover_ranks": {"0": r}, "layer": s}
             for s, r in enumerate(ranks)]
    return {"command": "adams", "name": "k",
            "tower": {"layers": len(steps), "steps": steps}}


# (facts, good report, doctored report) per check
CASES = {
    "unverified certificate": (
        facts("level Inj K", "koszul", terms=2),
        level("inj", ["exact", 2]), level("inj", ["exact", 2], False)),
    "lower above upper": (
        facts("level Proj C", "generated", terms=2),
        level("proj", ["range", 1, 2]), level("proj", ["range", 2, 1])),
    "residue field over a regular ring attains n + 1": (
        facts("level GP k", "residue", **REGULAR_K),
        level("gproj", ["range", 2, 4]), level("gproj", ["exact", 3])),
    "Koszul complex over x^2 has Inj and GI level 2": (
        facts("level GI K", "koszul", terms=2),
        level("ginj", ["range", 1, 2]), level("ginj", ["exact", 1])),
    "residue field over x^2 has GI level 1": (
        facts("level GI k", "residue"),
        level("ginj", ["exact", 1]), level("ginj", ["exact", 2])),
    "free terms bound Proj and Flat": (
        facts("level Flat C", "generated", self_injective=False,
              square_zero=False, terms=2),
        level("flat", ["exact", 2]), level("flat", ["at_least", 3])),
    "free terms bound Inj over a self-injective ring": (
        facts("level Inj T", "generated", terms=3),
        level("inj", ["range", 2, 3]), level("inj", ["at_least", 4])),
    "G-classes at most 2 over a self-injective ring": (
        facts("level GF C", "generated", terms=3),
        level("gflat", ["exact", 2]), level("gflat", ["exact", 3])),
    "pd k is n": (
        facts("pd k", "residue", **REGULAR_K),
        pd_report(3, [1, 3, 3, 1]), pd_report(4, [1, 3, 3, 1])),
    "Betti numbers of k are binomial": (
        facts("pd k", "residue", **REGULAR_K),
        pd_report(3, [1, 3, 3, 1]), pd_report(3, [1, 3, 2, 1])),
    "pd at most n (Hilbert)": (
        facts("pd M", "coker", **REGULAR_K),
        pd_report(2, [1, 2, 1]), pd_report(4, [1, 2, 2, 2, 1])),
    "resolve k has the Koszul ranks": (
        facts("resolve k", "residue", **REGULAR_K),
        resolve_report({"0": 1, "1": 3, "2": 3, "3": 1}),
        resolve_report({"0": 1, "1": 3, "2": 4, "3": 2})),
    "resolve gives a minimal resolution": (
        facts("resolve M", "coker", **REGULAR_K),
        resolve_report({"0": 1, "1": 2}),
        resolve_report({"0": 1, "1": 2}, minimal=False)),
    "adams covers of k have Betti ranks": (
        facts("adams k", "residue", **REGULAR_K),
        adams_report([1, 3, 3, 1]), adams_report([1, 3, 4, 1])),
    "splice is exact": (
        facts("splice C", "generated", **REGULAR_K, terms=2),
        {"command": "splice", "splice": {"layers": 2, "ok": True}},
        {"command": "splice", "splice": {"layers": 2, "ok": False}}),
    "gid is 0 over a self-injective ring": (
        facts("gid M", "coker"),
        {"command": "gid", "report": {"status": "exact", "value": 0}},
        {"command": "gid", "report": {"status": "exact", "value": 1}}),
    "Bass formula gives level_inj 1": (
        facts("bass E", "dual"),
        {"command": "bass", "bass": {"applies": True, "level_inj": 1}},
        {"command": "bass", "bass": {"applies": True, "level_inj": None}}),
    "report for another command": (
        facts("pd k", "residue", **REGULAR_K),
        pd_report(3, [1, 3, 3, 1]), resolve_report({"0": 1})),
    "malformed report": (
        facts("level Proj C", "generated", terms=2),
        level("proj", ["exact", 2]),
        {"command": "level", "certificate": {"class": "proj"}}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_rejects_doctored_report(name):
    fact, good, bad = CASES[name]
    assert check(fact, good) == []
    assert check(fact, copy.deepcopy(bad)) != []


def test_inj_bound_needs_a_self_injective_ring():
    fact = facts("level Inj C", "generated", self_injective=False,
                 square_zero=False, terms=2)
    assert check(fact, level("inj", ["at_least", 5])) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_seeded(workload):
    a, b = generate(workload, 7), generate(workload, 7)
    assert a.text() == b.text() and a.facts == b.facts
    assert generate(workload, 8).text() != a.text()
    assert len(a.facts) == sum(
        1 for line in a.lines
        if line.split()[0] in ("level", "pd", "gid", "gpd", "resolve",
                               "adams", "splice", "bass"))


def test_program_reports_pass_the_checks():
    """Cheap commands of the real program, checked as the benchmark does."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from levelcert import cli
    script = generate("artinian", 1)
    keep = [i for i, f in enumerate(script.facts)
            if f["command"].endswith(("KA", "kA", "EA"))]
    config = cli_config(cli)
    sess = cli.parse(script.text(), default_field=config["field"])
    for i in keep:
        cmd, line = sess.commands[i]
        rep = cli._jsonable(cli.run_command(sess, cmd, config, line))
        assert check(script.facts[i], rep) == [], script.facts[i]


def _install_tracer(prelude: str) -> subprocess.CompletedProcess:
    """Install the tracer on a fresh import of the program, after
    running `prelude`; in a subprocess, as the wrappers stay installed."""
    src = os.path.join(ROOT, "src")
    code = (f"import sys; sys.path[:0] = [{HERE!r}, {src!r}]\n"
            "import levelcert.cli\n"
            f"{prelude}\n"
            "from tracer import Tracer\n"
            "Tracer().install()\n")
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)


def test_tracer_finds_every_target():
    res = _install_tracer("")
    assert res.returncode == 0, res.stderr


def test_tracer_names_a_missing_target():
    res = _install_tracer("import levelcert.level as L\n"
                          "del L._iter_class_maps\n"
                          "del L.LevelCertificate.verify")
    assert res.returncode != 0
    assert "LookupError" in res.stderr
    assert "level._iter_class_maps" in res.stderr
    assert "level.LevelCertificate.verify" in res.stderr


def test_counted_and_maxima_name_spans():
    spans = {f"{layer}.{attr}" for layer, attrs in SPANS.items()
             for attr in attrs}
    assert set(COUNTED) <= spans and set(MAXIMA) <= spans


def test_times_are_divided_by_the_speed_factor():
    import run
    ref = run.REFERENCE_S

    def round_(factor, seconds):
        return {"calib_s": [factor * ref] * 3, "setup_s": seconds,
                "setup_calib_s": [factor * ref],
                "commands": [{"s": seconds, "error": None,
                              "violations": []}]}

    quiet, slow = round_(1.0, 0.5), round_(2.0, 1.0)
    assert run.command_times([quiet, slow]) == [0.5]
    assert run.setup_time(slow) == 0.5
