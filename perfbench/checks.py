"""Correctness checks for one command report.

Each check is a fact proved apart from the program, or a property the
method must have; none compares against stored output.  `check(facts,
report)` returns the list of violated checks (empty when the report is
correct).  `facts` come from the generator (see gen.py): the command
text, the kind of input, the number of variables, whether the base is
regular or self-injective, and the number of nonzero free terms of a
generated complex.
"""

from __future__ import annotations

import math

INF = float("inf")

# class keys as the program reports them
PROJ_FLAT = ("proj", "flat")
G_CLASSES = ("gproj", "gflat", "ginj")


def interval(verdict) -> tuple:
    """(lower, upper) of a level verdict; missing sides are 0 and inf."""
    kind = verdict[0]
    if kind == "exact":
        return verdict[1], verdict[1]
    if kind == "range":
        return verdict[1], verdict[2]
    if kind == "at_most":
        return 0, verdict[1]
    if kind == "at_least":
        return verdict[1], INF
    return 0, INF


def check_level(facts: dict, rep: dict) -> list:
    cert = rep["certificate"]
    cls = cert["class"]
    bad = []
    if cert.get("verified") is not True:
        bad.append("certificate does not verify")
    lo, hi = interval(cert["verdict"])
    if lo > hi:
        bad.append(f"lower {lo} exceeds upper {hi}")
    kind, n = facts["kind"], facts["nvars"]

    def contains(value, why):
        if not lo <= value <= hi:
            bad.append(f"{why}: {value} outside [{lo}, {hi}]")

    # the paper's attained bounds and fixed values
    if kind == "residue" and facts["regular"] \
            and cls in ("proj", "flat", "gproj"):
        contains(n + 1, "pd(k) + 1 over a regular ring")
    one_var_square_zero = n == 1 and facts["square_zero"]
    if kind == "koszul" and one_var_square_zero and cls in ("inj", "ginj"):
        contains(2, "Koszul complex over x^2")
    if kind == "residue" and one_var_square_zero and cls == "ginj":
        contains(1, "residue field over x^2")
    # complexes of free modules are built in as many steps as terms
    if kind in ("generated", "koszul"):
        free_classes = PROJ_FLAT + (("inj",) if facts["self_injective"]
                                    else ())
        if cls in free_classes and lo > facts["terms"]:
            bad.append(f"lower {lo} exceeds the {facts['terms']} "
                       f"nonzero free terms")
    # max{2, Gdim + 1} with every G-dimension 0 over a self-injective base
    if facts["self_injective"] and cls in G_CLASSES and lo > 2:
        bad.append(f"lower {lo} exceeds 2 for a G-class over a "
                   f"self-injective ring")
    return bad


def check_dimension(facts: dict, rep: dict) -> list:
    verb = rep["command"]
    r = rep["report"]
    n = facts["nvars"]
    bad = []
    if verb == "pd" and facts["regular"]:
        if r["status"] != "exact" or r["value"] is None or r["value"] > n:
            bad.append(f"pd {r.get('value')} ({r['status']}) is not "
                       f"at most {n} over {n} variables")
        if facts["kind"] == "residue":
            betti = [math.comb(n, i) for i in range(n + 1)]
            if r["value"] != n or r.get("betti") != betti:
                bad.append(f"pd k = {r['value']}, Betti {r.get('betti')}; "
                           f"expected {n}, {betti}")
    if verb == "gid" and facts["self_injective"]:
        if r["status"] != "exact" or r["value"] != 0:
            bad.append(f"gid {r.get('value')} ({r['status']}) is not 0 "
                       f"over a self-injective ring")
    return bad


def check_resolve(facts: dict, rep: dict) -> list:
    res = rep["resolution"]
    bad = []
    if res.get("minimal") is not True:
        bad.append("resolution is not minimal")
    if facts["kind"] == "residue" and facts["regular"]:
        n = facts["nvars"]
        want = {str(i): math.comb(n, i) for i in range(n + 1)}
        if res["ranks"] != want or res.get("complete") is not True:
            bad.append(f"ranks {res['ranks']} are not the Koszul ranks "
                       f"{want}")
    return bad


def check_adams(facts: dict, rep: dict) -> list:
    tower = rep["tower"]
    bad = []
    if tower["layers"] != len(tower["steps"]):
        bad.append("layer count disagrees with the steps listed")
    if facts["kind"] == "residue" and facts["regular"]:
        # minimal covers of k and its syzygies: ranks are Betti numbers
        n = facts["nvars"]
        got = [sum(st["cover_ranks"].values()) for st in tower["steps"]]
        want = [math.comb(n, s) for s in range(len(got))]
        if got != want:
            bad.append(f"cover ranks {got} are not C({n}, s) = {want}")
    return bad


def check_splice(facts: dict, rep: dict) -> list:
    return [] if rep["splice"]["ok"] is True else ["splice is not exact"]


def check_bass(facts: dict, rep: dict) -> list:
    b = rep["bass"]
    if b.get("applies") and b.get("level_inj") != 1:
        return [f"Bass formula applies but level_inj = "
                f"{b.get('level_inj')}"]
    return []


CHECKS = {"level": check_level, "pd": check_dimension,
          "gid": check_dimension, "gpd": check_dimension,
          "resolve": check_resolve, "adams": check_adams,
          "splice": check_splice, "bass": check_bass}


def check(facts: dict, rep: dict) -> list:
    """Violated checks of one report; a malformed report is one."""
    verb = facts["command"].split()[0]
    if rep.get("command") != verb:
        return [f"report is for {rep.get('command')!r}, not {verb!r}"]
    try:
        return CHECKS[verb](facts, rep)
    except (KeyError, TypeError, IndexError) as e:
        return [f"malformed report: {type(e).__name__}: {e}"]
