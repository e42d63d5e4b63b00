"""The paper's reproduced claims, one session script per claim.

Each row names a claim of the paper (the bound or the Bass formula, the
class, the base and the family that attains it), holds a session
script, and lists the report lines that script must print. run_corpus
runs every row the way `levelcert` runs a script, at the default
flags, so a row checks exactly what a user's script prints: a changed
verdict or an `(UNVERIFIED)` flag fails the row. Perturbing an expected
line must flip exactly that row to failing.

H is the direct sum of the homology modules of the complex. The optimal
values are those of Avramov-Buchweitz-Iyengar-Miller (Adv. Math. 2010):
the residue field k of a regular ring attains pd(H) + 1, and over a
Gorenstein artinian base the Koszul complex of x, whose homology is k
in two degrees, attains max{2, Gdim(H) + 1} = 2. Claims the program
does not reproduce yet are the open rows of tests/test_paper.py.
"""

from __future__ import annotations

from . import cli

REGULAR = """\
R = poly(F101; x, y, z)
module k over R = coker [[x, y, z]]
"""

KOSZUL = """\
A = artin(F2; x | x^2)
module k over A = coker [[x]]
complex K over A : range 1..0 ; d1 = [[x]]
"""

# E is the injective hull of k, the k-dual of the base, which is not
# Gorenstein: E is injective and not free
HULL = """\
N = artin(F2; x, y | x^2, x*y, y^2)
module E over N = action { x: [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                           y: [[0, 0, 1], [0, 0, 0], [0, 0, 0]] }
"""

CASES = [
    ("pd(H) + 1 is optimal: Proj level of k over F101[x,y,z]",
     REGULAR + "pd k\nlevel Proj k\n",
     ["pd k = 3", "level proj k: exact 4"]),
    ("fd(H) + 1 is optimal: Flat level of k over F101[x,y,z]",
     REGULAR + "fd k\nlevel Flat k\n",
     ["fd k = 3", "level flat k: exact 4"]),
    ("max{2, Gpd(H) + 1} is optimal: GP level of k over F101[x,y,z]",
     REGULAR + "gpd k\nlevel GP k\n",
     ["gpd k = 3", "level gproj k: exact 4"]),
    ("max{2, Gfd(H) + 1} is optimal: GF level of k over F101[x,y,z]",
     REGULAR + "gfd k\nlevel GF k\n",
     ["gfd k = 3", "level gflat k: exact 4"]),
    ("max{2, Gpd(H) + 1} is optimal: GP level of the Koszul complex "
     "over F2[x]/(x^2)",
     KOSZUL + "gpd k\nlevel GP K\n",
     ["gpd k = 0", "level gproj K: exact 2"]),
    ("max{2, Gid(H) + 1} is optimal: GI level of the Koszul complex "
     "over F2[x]/(x^2)",
     KOSZUL + "gid k\nlevel GI K\n",
     ["gid k = 0", "level ginj K: exact 2"]),
    ("max{2, Gfd(H) + 1} is optimal: GF level of the Koszul complex "
     "over F2[x]/(x^2)",
     KOSZUL + "gfd k\nlevel GF K\n",
     ["gfd k = 0", "level gflat K: exact 2"]),
    ("Bass formula, id(H) finite gives depth R + 1 = 1: Inj level of "
     "E(k) over F2[x,y]/(x,y)^2",
     HULL + "id E\nlevel Inj E\nbass E\n",
     ["id E = 0", "level inj E: exact 1",
      "bass E: applies, level_Inj = 1"]),
    ("Bass formula needs id(H) finite: Inj level of the Koszul complex "
     "over F2[x]/(x^2) is 2, not depth R + 1",
     KOSZUL + "id k\nlevel Inj K\nbass K\n",
     ["id k = infinite", "level inj K: exact 2",
      "bass K: hypothesis not met (homology has infinite injective "
      "dimension)"]),
]


def run_corpus(filter_text: str | None = None) -> dict:
    """Run the rows whose name contains filter_text (every row when it is
    None) through the CLI at its default flags."""
    ap = cli.build_arg_parser()
    config = {"budget": ap.get_default("budget"),
              "cutoff": ap.get_default("cutoff")}
    rows = []
    for name, script, expected in CASES:
        if filter_text is not None and filter_text not in name:
            continue
        got = list(cli._human_lines(cli.run_session(cli.parse(script),
                                                    config)))
        rows.append({"name": name, "expected": expected, "got": got,
                     "ok": got == expected})
    passed = sum(1 for r in rows if r["ok"])
    return {"rows": rows, "total": len(rows), "passed": passed,
            "all_ok": passed == len(rows)}
