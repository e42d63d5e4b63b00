"""The paper as a table: one row per bound, optimality claim and Bass
formula that the program checks.

The reproduced rows are the corpus (`levelcert.corpus.CASES`), which
`levelcert corpus` runs. The open rows below are claims the program does
not reproduce yet; each is a strict xfail naming the ROADMAP item that
closes it, so a row that starts to pass fails here until it moves to the
corpus. README.md carries the same table.
"""

import re
from pathlib import Path

import pytest

from levelcert import corpus
from levelcert.cli import build_arg_parser, parse
from levelcert.level import homology_dimension_bound, level_report

README = Path(__file__).resolve().parents[1] / "README.md"

OPEN = [
    ("item 1",
     "pd(H) + 1 is optimal at the default budget: Proj level of k over "
     "F101[a,b,c,d,e]",
     "R = poly(F101; a, b, c, d, e)\n"
     "module k over R = coker [[a, b, c, d, e]]\n"
     "level Proj k\n",
     ["level proj k: exact 6"]),
    ("item 4",
     "level is infinite when pd(H) is: Proj level of k over "
     "F101[x,y,z]/(x^2,y^2,z^2)",
     "T = artin(F101; x, y, z | x^2, y^2, z^2)\n"
     "module k over T = coker [[x, y, z]]\n"
     "level Proj k\n",
     ["level proj k: infinite"]),
    ("item 6",
     "id(H) + 1 is optimal: Inj level of k over F101[x,y,z]",
     corpus.REGULAR + "id k\nlevel Inj k\n",
     ["id k = 3", "level inj k: exact 4"]),
    ("item 6",
     "max{2, Gid(H) + 1} is optimal: GI level of k over F101[x,y,z]",
     corpus.REGULAR + "level GI k\n",
     ["level ginj k: exact 4"]),
]


def _id(name):
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


ROWS = [pytest.param(name, script, expected, id=_id(name))
        for name, script, expected in corpus.CASES] + [
    pytest.param(name, script, expected, id=_id(name),
                 marks=pytest.mark.xfail(strict=True,
                                         reason=f"open until ROADMAP {item}"))
    for item, name, script, expected in OPEN]


@pytest.mark.parametrize("name, script, expected", ROWS)
def test_row(name, script, expected, monkeypatch):
    monkeypatch.setattr(corpus, "CASES", [(name, script, expected)])
    row, = corpus.run_corpus()["rows"]
    assert row["got"] == expected
    # the theorem itself: the proved upper bound is at most the bound
    # from the dimension of the homology, which is no bound when that
    # dimension is infinite
    budget = build_arg_parser().get_default("budget")
    sess = parse(script)
    for cmd, _ in sess.commands:
        if cmd[0] != "level":
            continue
        m = sess.as_complex(cmd[2], 0)
        bound, per = homology_dimension_bound(m, cmd[1])
        if bound is None:
            assert "infinite" in [rep.status for rep in per.values()]
        else:
            assert level_report(m, cmd[1], budget=budget).upper.value \
                <= bound


def test_readme_table_lists_every_row():
    # one table line per row, which names the row and its state
    lines = README.read_text(encoding="utf-8").splitlines()
    states = [(name, "reproduced") for name, _, _ in corpus.CASES] + [
        (name, f"open: ROADMAP {item}") for item, name, _, _ in OPEN]
    missing = [(name, state) for name, state in states
               if not any(line.startswith(f"| {name} |")
                          and line.endswith(f"| {state} |")
                          for line in lines)]
    assert missing == [], "README.md does not list these rows"
