"""Level certificate tests.

The headline values here are the ones the whole package exists to
reproduce; each expected number comes with the route that produces it.
"""

import json
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from levelcert import adams, complexes, corpus, level
from levelcert.cli import build_arg_parser, main, parse
from levelcert.randgen import random_complex, random_free_homology_complex
from levelcert.rings import make_ring
from levelcert.modules import artin_free, artin_residue_field, \
    graded_residue_field
from levelcert.complexes import (ChainMap, ChainMapSpace, Complex,
                                 is_quasi_iso, module_stalk, zero_chain_map)
from levelcert.resolutions import koszul_complex
from levelcert.level import (LevelError, LowerCertificate, UpperCertificate,
                             bass_check, homology_dimension_bound,
                             level_one_test, level_report, module_in_class,
                             normalize_class, upper_via_cycle_boundary,
                             upper_via_stratification)


@pytest.fixture(scope="module")
def A():
    return make_ring("artin(F2; x | x^2)")


@pytest.fixture(scope="module")
def B():
    return make_ring("artin(F2; x, y | x^2, x*y, y^2)")


@pytest.fixture(scope="module")
def R3():
    return make_ring("poly(F101; x, y, z)")


def test_class_normalization():
    assert normalize_class("Projective") == "proj"
    assert normalize_class("GI") == "ginj"
    assert normalize_class("gorenstein-flat") == "gflat"
    with pytest.raises(LevelError):
        normalize_class("perverse")


def test_module_membership_matrix(A, B, R3):
    kA = artin_residue_field(A)
    kB = artin_residue_field(B)
    kR = graded_residue_field(R3)
    assert module_in_class(kA, "proj")[0] is False
    assert module_in_class(artin_free(A, 1), "proj")[0] is True
    # the base is self-injective, so free and injective agree
    assert module_in_class(kA, "inj")[0] is False
    assert module_in_class(artin_free(A, 1), "inj")[0] is True
    # over a self-injective base every module is in both g-classes
    assert module_in_class(kA, "gproj")[0] is True
    assert module_in_class(kA, "ginj")[0] is True
    # the square-zero base on two generators is not self-injective and
    # its residue field is obstructed at the first reflexivity step
    v, note = module_in_class(kB, "gproj")
    assert v is False and "ext_to_ring" in note
    assert module_in_class(kB, "ginj")[0] is False
    # regular base: both g-classes collapse to free
    assert module_in_class(kR, "gproj")[0] is False
    assert module_in_class(kR, "inj")[0] is False


def test_level_one_decisions(A, R3):
    kA = module_stalk(A, artin_residue_field(A))
    assert level_one_test(kA, "proj").verdict == "no"
    assert level_one_test(kA, "gproj").verdict == "yes"
    free = module_stalk(A, artin_free(A, 2))
    assert level_one_test(free, "proj").verdict == "yes"


def test_clean_reflexivity_screen_leaves_the_one_step_test_open(tmp_path,
                                                                capsys):
    # R = F2[x, y, z]/(x^2, y^2, yz, z^2) is not Gorenstein (its socle is
    # spanned by xy and xz) and x is an exact zero-divisor, so M = R/(x)
    # is totally reflexive and not free: the reflexivity screen finds no
    # obstruction, decides nothing, and the one-step test stays open
    text = ("R = artin(F2; x, y, z | x^2, y^2, y*z, z^2)\n"
            "module M over R = coker [[x]]\n")
    sess = parse(text)
    M = sess.modules["M"]
    assert not (M.ring.is_gorenstein or M.ring.regular or M.is_free())
    assert module_in_class(M, "gproj") == (
        None, "reflexivity screen clean to window 4")
    one = level_one_test(sess.as_complex("M", 0), "gproj")
    assert (one.verdict, one.reason, one.exhaustive) == (
        "inconclusive", "class membership screen undecided", False)
    script = tmp_path / "clean.lvc"
    script.write_text(text + "level gproj M\ngpd M\n")
    assert main([str(script)]) == 2
    assert capsys.readouterr().out == ("level gproj M: at_least 1\n"
                                       "gpd M = inconclusive\n")


@pytest.mark.parametrize("field", ["F2", "F101", "Q"])
def test_koszul_level_one_decisions(field):
    # koszul complex on the dual numbers: homology is k in two degrees,
    # outside the injectives, and the complex is not formal; the answer
    # does not depend on the size of the field
    K = koszul_complex(make_ring(f"artin({field}; x | x^2)"))
    r = level_one_test(K, "inj")
    assert r.verdict == "no" and r.exhaustive
    r = level_one_test(K, "ginj")
    assert r.verdict == "no" and r.exhaustive
    assert "quasi-isomorphism" in r.reason or "isomorphism" in r.reason
    for cls in ("ginj", "gproj"):
        rep = level_report(K, cls)
        assert rep.verdict == ("exact", 2)
        assert rep.verify()


def test_level_one_formal_two_degrees(A):
    # zero differential, so the complex equals its homology stalks
    k = artin_residue_field(A)
    m = Complex(A, {0: k, 1: k}, {})
    r = level_one_test(m, "ginj")
    assert r.verdict == "yes"
    assert r.exhaustive


def test_maps_from_the_koszul_complex_to_its_homology_miss_the_top(A):
    # Hom(K, H(K)) in the derived category has two classes, and both are
    # zero on H_1, so no map onto the homology complex is a
    # quasi-isomorphism, though both homology modules are Gorenstein
    # projective
    K = koszul_complex(A)
    P, _ = level._replacement(K)
    space = ChainMapSpace(P, adams.homology_stalks(K))
    assert space.hom_classes_dim() == 2
    assert all(space.class_representative(t).induced_on_homology(1).is_zero()
               for t in range(2))
    assert level_one_test(K, "gproj").verdict == "no"


def test_free_homology_complexes_are_one_layer():
    # over a graded base a complex of frees with free homology splits:
    # with homology in two degrees, the minimal cover of the homology is
    # a quasi-isomorphism and the witness of the one-step test
    R2 = make_ring("poly(F101; x, y)")
    spread = 0
    for s in range(8):
        m = random_free_homology_complex(R2, random.Random(s), pieces=3)
        one = level_one_test(m, "proj")
        assert one.verdict == "yes", s
        if len(m.hdata().nonzero_degrees()) > 1:
            assert is_quasi_iso(one.witness), s
            spread += 1
    assert spread > 0


def test_headline_injective_level(A):
    # two-term free complex with non-injective homology: the level with
    # respect to the injectives is exactly two, upper by peeling the two
    # free (= injective) terms, lower by the one-step failure
    K = koszul_complex(A)
    rep = level_report(K, "inj")
    assert rep.verdict == ("exact", 2)
    assert rep.upper.route == "stratification"
    assert rep.lower.route == "one-step-impossible"
    assert rep.verify()


def test_headline_gorenstein_injective_levels(A):
    K = koszul_complex(A)
    rep = level_report(K, "ginj")
    assert rep.verdict == ("exact", 2)
    assert rep.upper.route == "cycle-boundary"
    assert rep.verify()
    # a module stalk is one layer whenever its module is in the class
    k = module_stalk(A, artin_residue_field(A))
    rep1 = level_report(k, "ginj")
    assert rep1.verdict == ("exact", 1)
    assert rep1.upper.route == "one-step"
    assert rep1.verify()


def test_headline_regular_ring_level(R3):
    k = module_stalk(R3, graded_residue_field(R3))
    rep = level_report(k, "proj", budget=4)
    assert rep.verdict == ("exact", 4)
    assert rep.upper.route == "cover-tower"
    assert rep.lower.route == "ghost-chain"
    assert rep.lower.data["chain_length"] == 3
    assert rep.verify()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_residue_field_attains_the_regular_bound(d, wall_bound):
    # level_Proj(k) = pd k + 1 = d + 1 over a polynomial ring in d
    # variables (Avramov-Buchweitz-Iyengar-Miller 2010), decided once the
    # cover tower may take the d steps that the bound asks for
    R = make_ring(f"poly(F101; {', '.join('abcde'[:d])})")
    k = module_stalk(R, graded_residue_field(R))
    with wall_bound(60):
        rep = level_report(k, "proj", budget=d)
        assert rep.verdict == ("exact", d + 1)
        assert rep.verify()


def test_report_builds_each_cover_step_once(A, R3, monkeypatch):
    # the upper and lower routes read one tower, so the tower makes one
    # cover step per layer, and none when no route reads it; the ghost
    # search tests only composites below the proved upper bound
    steps, decisions, lengths = [], [], []

    def counted(*args, **kwargs):
        steps.append(args)
        return cover_step(*args, **kwargs)

    def decided(space, f):
        decisions.append(f)
        return null_homotopic(space, f)

    def composed(tower, n):
        lengths.append(n)
        return composite(tower, n)

    cover_step = adams.adams_step_proj
    null_homotopic = complexes.ChainMapSpace.is_null_homotopic
    composite = adams.AdamsTower.ghost_composite
    monkeypatch.setattr(adams, "adams_step_proj", counted)
    monkeypatch.setattr(complexes.ChainMapSpace, "is_null_homotopic",
                        decided)
    monkeypatch.setattr(adams.AdamsTower, "ghost_composite", composed)
    k = module_stalk(R3, graded_residue_field(R3))
    rep = level_report(k, "proj")
    assert rep.upper.route == "cover-tower"
    assert rep.lower.route == "ghost-chain"
    assert len(steps) == rep.upper.data["tower"]["layers"] > 0
    steps.clear()
    rep = level_report(koszul_complex(A), "gproj")
    assert rep.upper.route == "cycle-boundary"
    assert steps == []
    # the upper bound meets the one-step bound: no search at all
    decisions.clear()
    lengths.clear()
    rep = level_report(koszul_complex(A), "proj")
    assert rep.verdict == ("exact", 2)
    assert steps == [] and decisions == [] and lengths == []
    # K (x) K, golden TA1: stratification proves 3 and the one-step
    # failure 2, so only the 2-fold composite is decided
    sess = parse("A = artin(F2; x | x^2)\n"
                 "complex TA1 over A : range 2..0 ; "
                 "d2 = [[-(1)*(x)], [(x)*(1)]] ; d1 = [[(x)*(1), (1)*(x)]]\n")
    rep = level_report(sess.complexes["TA1"], "proj")
    assert rep.verdict == ("range", 2, 3)
    assert rep.upper.route == "stratification"
    assert len(decisions) == 1 and lengths == [2]


def test_capped_search_builds_only_the_steps_it_reads(monkeypatch):
    # golden artinian-5: stratification proves 3 for these four reports,
    # so the ghost search reads the composites of at most 2 steps, and
    # the tower builds those 2, not all 4 of --budget
    sess = parse((Path(__file__).resolve().parent / "golden"
                  / "artinian-5.lvc").read_text())
    budget = build_arg_parser().get_default("budget")
    steps, cover_step = [], adams.adams_step_proj

    def counted(m):
        steps.append(m)
        return cover_step(m)

    monkeypatch.setattr(adams, "adams_step_proj", counted)
    for cls, name in (("inj", "KB"), ("proj", "TA1"), ("proj", "TB1"),
                      ("proj", "TC1")):
        steps.clear()
        rep = level_report(sess.complexes[name], cls, budget=budget)
        assert rep.upper.route == "stratification" and rep.upper.value == 3
        assert len(steps) == 2 < budget, name


def _uncapped_ghost_search(m, cls, one, tower):
    """The ghost search with no upper cap, as a test oracle: every
    composite from the top of the tower down, as the search ran before
    the proved upper bound capped it. (value, route, chain_length)."""
    best = (1, "nonzero-homology", None)
    if one.verdict == "no":
        best = (2, "one-step-impossible", None)
    if cls in ("proj", "flat") or (cls in ("gproj", "gflat")
                                   and m.ring.kind != "artin"):
        P, aug = level._replacement(m, extra=len(tower.steps) + 2)
        for n in range(len(tower.steps), 0, -1):
            if best[0] >= n + 1:
                break
            gamma, _ = tower.ghost_composite(n)
            space = complexes.ChainMapSpace(P, gamma.target)
            if not space.is_null_homotopic(gamma.compose(aug)):
                best = (n + 1, "ghost-chain", n)
                break
    return best


def test_capped_ghost_search_matches_the_uncapped_oracle(monkeypatch,
                                                         wall_bound):
    # every level report of the golden scripts, the corpus included:
    # the capped search finds what the uncapped one finds, and the
    # uncapped lower bound never passes the upper certificate
    checked, capped = [], level.ghost_lower_bound

    def with_oracle(m, cls, one, tower, upper):
        lower = capped(m, cls, one, tower, upper)
        want = _uncapped_ghost_search(m, cls, one, tower)
        got = (lower.value, lower.route, lower.data.get("chain_length"))
        assert got == want, (cls, m)
        assert upper is None or want[0] <= upper, (cls, m)
        checked.append(upper is not None and upper <= len(tower.steps))
        return lower

    monkeypatch.setattr(level, "ghost_lower_bound", with_oracle)
    defaults = build_arg_parser().parse_args(["-"])
    golden = Path(__file__).resolve().parent / "golden"
    with wall_bound(60):
        for name in ("artinian-5", "regular-5", "rational-5", "corpus"):
            sess = parse((golden / f"{name}.lvc").read_text())
            for cmd, _ in sess.commands:
                if cmd[0] == "level":
                    level_report(sess.as_complex(cmd[2], 0), cmd[1],
                                 budget=defaults.budget)
                elif cmd[0] == "corpus":
                    assert corpus.run_corpus()["passed"] == len(corpus.CASES)
    # the cap cut the search short of the tower top on some reports
    assert len(checked) > 50 and any(checked)


def test_levels_are_shift_invariant(wall_bound):
    # level_C(m) = level_C(m.shift(n)): shifting a certificate's triangles
    # and layers builds the shifted complex from as many shifted layers,
    # and a shifted stalk of a module in C is again one layer
    budget = build_arg_parser().get_default("budget")
    golden = Path(__file__).resolve().parent / "golden"
    shifted = 0
    with wall_bound(60):
        for name in ("artinian-5", "regular-5", "rational-5"):
            sess = parse((golden / f"{name}.lvc").read_text())
            for cmd, _ in sess.commands:
                if cmd[0] != "level":
                    continue
                m = sess.as_complex(cmd[2], 0)
                want = level_report(m, cmd[1], budget=budget).verdict
                for n in (1, -1):
                    rep = level_report(m.shift(n), cmd[1], budget=budget)
                    assert rep.verdict == want, (name, cmd, n)
                    assert rep.verify(), (name, cmd, n)
                    shifted += 1
    assert shifted > 150


@pytest.mark.parametrize("ring_text", ["artin(F2; x | x^2)",
                                       "artin(F3; x, y | x^2, y^2)",
                                       "artin(F2; x, y | x^2, x*y, y^2)"])
def test_cover_tower_route_never_succeeds_on_non_free_homology(ring_text):
    # minimal covers give H(L_{s+1}) = Omega H(L_s), and over an artinian
    # local ring a module of finite projective dimension is free
    # (Auslander-Buchsbaum at depth zero): a non-free homology module
    # has no free syzygy, so no layer of the tower passes the one-step
    # test and the route returns nothing at any budget. Over a
    # non-Gorenstein base gproj admits only free modules as well.
    ring = make_ring(ring_text)
    classes = ("proj", "flat") + (() if ring.is_gorenstein else ("gproj",))
    seen = 0
    for seed in range(30):
        m = random_complex(ring, random.Random(seed), width=2, max_rank=2)
        hd = m.hdata()
        if all(hd.homology(i).is_free() for i in hd.nonzero_degrees()):
            continue
        seen += 1
        for budget in range(1, 5):
            tower = adams.adams_tower(m, budget)
            for cls in classes:
                assert level.upper_via_tower(cls, tower) is None
    assert seen >= 5


ARTINIAN_RINGS = ["artin(F2; x | x^2)", "artin(F3; x, y | x^2, y^2)",
                  "artin(Q; x | x^2)", "artin(F2; x, y | x^2, x*y, y^2)"]


@pytest.mark.parametrize("ring_text", ARTINIAN_RINGS)
def test_no_cover_tower_route_over_an_artinian_base(ring_text, monkeypatch):
    # level_report never runs the route there, and an oracle run of the
    # route on the same base and tower gives nothing wherever the upper
    # search would have reached it, so skipping it changes no report
    ring = make_ring(ring_text)
    route, build = level.upper_via_tower, level.adams_tower
    calls, towers = [], []

    def counted(*args):
        calls.append(args)
        return route(*args)

    def kept(base, budget):
        towers.append(build(base, budget))
        return towers[-1]

    monkeypatch.setattr(level, "upper_via_tower", counted)
    monkeypatch.setattr(level, "adams_tower", kept)
    subjects = [koszul_complex(ring),
                module_stalk(ring, artin_residue_field(ring))]
    subjects += [random_complex(ring, random.Random(seed), width=2,
                                max_rank=2) for seed in range(4)]
    reached = 0
    for m in subjects:
        if m.hdata().is_exact():
            continue
        for cls in level.CLASS_KEYS:
            towers.clear()
            rep = level_report(m, cls, budget=2)
            assert calls == [] and rep.verify(), cls
            if rep.upper is None or rep.upper.value > 2:
                reached += 1
                bcls = level.DUAL_CLASS.get(cls, cls)
                assert route(bcls, towers[0]) is None, cls
    assert reached > 0


@pytest.mark.parametrize("cls", ["gproj", "gflat"])
def test_gorenstein_levels_over_regular_ring(R3, cls):
    # over a regular ring the Gorenstein projective and flat modules are
    # the projective ones, so the ghost chain bounds those classes too
    k = module_stalk(R3, graded_residue_field(R3))
    rep = level_report(k, cls, budget=4)
    assert rep.verdict == ("exact", 4)
    assert rep.lower.route == "ghost-chain"
    assert rep.verify()


def test_level_invariant_under_quasi_iso(R3):
    # the unit koszul complex resolves the residue field, so both carry
    # the same level
    rep = level_report(koszul_complex(R3), "proj", budget=4)
    assert rep.verdict == ("exact", 4)
    assert rep.verify()


def test_infinite_level_reports_honest_range(A):
    k = module_stalk(A, artin_residue_field(A))
    rep = level_report(k, "proj", budget=3)
    assert rep.upper is None
    # every ghost chain through the budget is nonzero
    assert rep.lower.value == 4
    assert rep.verdict == ("at_least", 4)
    assert rep.verify()


def test_ghost_budget_moves_the_bound(A):
    k = module_stalk(A, artin_residue_field(A))
    low = level_report(k, "proj", budget=2).lower
    assert low.value == 3
    assert low.route == "ghost-chain"
    assert low.verify()


def test_upper_stratification_counts_terms(A):
    K = koszul_complex(A)
    up = level_report(K, "proj").upper
    assert up.value == 2
    assert up.route in ("stratification", "cycle-boundary")
    assert up.verify()


# every module lies in gproj over a Gorenstein base; over the polynomial
# ring only complexes with free terms have a stratification
PEEL_CLASSES = {"artin(F2; x | x^2)": "gproj",
                "artin(F3; x, y | x^2, y^2)": "gproj",
                "artin(Q; x | x^2)": "gproj",
                "poly(F101; x, y)": "proj"}


@pytest.mark.parametrize("ring_text", sorted(PEEL_CLASSES))
def test_last_peel_builds_the_subject(ring_text):
    # each peel is the triangle on its own cone, so the third object of
    # the last one is the complex itself, also across a zero term
    ring = make_ring(ring_text)
    cls = PEEL_CLASSES[ring_text]
    seen = gaps = 0
    for seed in range(12):
        m = random_complex(ring, random.Random(seed), width=2, max_rank=2)
        if m.is_zero_complex():
            continue
        gapped = Complex(ring, {**m.modules, m.max_deg + 2:
                                m.module(m.min_deg)}, dict(m.diffs)).checked()
        for x in (m, gapped):
            cert = upper_via_stratification(x, cls)
            if cert is None:
                continue
            terms = len(x.support())
            assert cert.value == terms == len(cert.triangles) + 1
            if cert.triangles:
                assert cert.triangles[-1].w == x
            assert cert.verify()
            seen += 1
            gaps += x is gapped
    assert seen >= 6 and gaps >= 3


@pytest.mark.parametrize("decl, classes", [
    ("artin(F2; x | x^2)", ("proj", "inj", "gproj")),
    ("artin(F2; x, y | x^2, x*y, y^2)", ("proj", "inj", "gproj", "ginj")),
    ("poly(F101; x, y)", ("proj", "gflat")),
])
def test_cycle_boundary_covers_the_boundary_cokernel_split(decl, classes):
    # whenever every B_i and X_i/B_i lies in the class, so do H_i and
    # Z_i, and the cycle-boundary triangle bounds the level by two
    ring = make_ring(decl)
    hits = 0
    for s in range(12):
        m = random_complex(ring, random.Random(s), width=2, max_rank=2)
        hd = m.hdata()
        parts = [p for i in m.support()
                 for p in (hd.boundaries(i)[0], hd.cmod(i)[0])]
        for cls in classes:
            if all(module_in_class(p, cls)[0] is True for p in parts):
                hits += 1
                cert = upper_via_cycle_boundary(m, cls)
                assert cert is not None, (s, cls)
                assert cert.value <= 2 and cert.verify(), (s, cls)
    assert hits


def test_bass_criterion(A):
    # free stalks have injective homology over the self-injective base
    st = module_stalk(A, artin_free(A, 2))
    out = bass_check(st)
    assert out["applies"] and out["level_inj"] == 1
    assert out["witness_quasi_iso"]
    # the residue field does not qualify
    k = module_stalk(A, artin_residue_field(A))
    out = bass_check(k)
    assert not out["applies"]
    assert out["degrees"] == [0]


def test_dimension_bound_consistency(A, R3):
    K = koszul_complex(A)
    bound, per = homology_dimension_bound(K, "ginj")
    assert bound == 2
    rep = level_report(K, "ginj")
    assert rep.upper.value <= bound
    k = module_stalk(R3, graded_residue_field(R3))
    bound, per = homology_dimension_bound(k, "proj")
    assert bound == 4
    assert per[0].value == 3
    # infinite projective dimension gives no finite bound
    kA = module_stalk(A, artin_residue_field(A))
    assert homology_dimension_bound(kA, "proj")[0] is None


def test_out_of_scope_and_zero(A, R3):
    z = Complex(A, {}, {})
    rep = level_report(z, "proj")
    assert rep.verdict == ("exact", 0)
    k = module_stalk(R3, graded_residue_field(R3))
    rep = level_report(k, "inj")
    assert rep.upper is None and rep.lower is None
    assert rep.verdict == ("unknown",)
    assert any("out of scope" in n for n in rep.notes)


def test_level_report_runs_the_one_step_test_once(A, monkeypatch):
    # no cover tower runs over an artinian base, so a report's only call
    # is its one-step decision: on the dual complex for the injective
    # classes, whose certificates carry it with a note of that, and on m
    # itself otherwise; the decision itself is read-only and unchanged
    calls = []
    decide = level.level_one_test

    def counted(m, cls):
        calls.append((m, decide(m, cls)))
        return calls[-1][1]

    monkeypatch.setattr(level, "level_one_test", counted)
    zero = Complex(A, {}, {})
    level_report(zero, "inj")
    assert calls == []
    for m in (koszul_complex(A), module_stalk(A, artin_residue_field(A)),
              module_stalk(A, artin_free(A, 2))):
        for cls in level.CLASS_KEYS:
            calls.clear()
            rep = level_report(m, cls)
            dual = cls in ("inj", "ginj")
            assert len(calls) == 1, cls
            (subject, one), = calls
            assert subject is (m.dual() if dual else m), cls
            carried = [cert.level_one for cert in (rep.upper, rep.lower)
                       if cert is not None and cert.level_one is not None]
            assert carried or rep.lower.route == "ghost-chain", cls
            for got in carried:
                assert (got.subject, got.verdict) == (subject, one.verdict)
                assert got.reason == one.reason + (
                    " (computed on the dual complex)" if dual else ""), cls
            assert not one.reason.endswith(" (computed on the dual complex)")


def test_a_level_one_result_is_read_only(A):
    # its decision and witness are kept on the subject and shared by
    # every report of it, so no report may change them for the next
    K = koszul_complex(A)
    one = level_one_test(K, "gproj")
    assert one.verdict == "no"
    for name, value in (("verdict", "yes"), ("reason", "edited"),
                        ("witness", None), ("subject", K.dual())):
        with pytest.raises(FrozenInstanceError):
            setattr(one, name, value)
    assert level_one_test(K, "gflat").reason == one.reason


def test_carried_one_step_results_are_about_the_subject(A):
    # cycle-boundary and stratification bounds of at most two carry the
    # report's one-step result; one about another complex fails, as it
    # would otherwise describe the subject in the JSON
    K = koszul_complex(A)
    free = level_one_test(module_stalk(A, artin_free(A, 1)), "gproj")
    for cls, route in (("gproj", "cycle-boundary"), ("inj", "stratification")):
        rep = level_report(K, cls)
        one = rep.upper.level_one
        assert rep.upper.route == route
        assert one is not None and one.subject is rep.upper.subject
        rep.upper.level_one = free
        assert not rep.upper.verify() and not rep.verify()
        rep.upper.level_one = one
        assert rep.verify()


def test_certificate_json_round_trip(A):
    K = koszul_complex(A)
    rep = level_report(K, "inj")
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["verdict"] == ["exact", 2]
    assert back["upper"]["route"] == "stratification"
    assert back["lower"]["one_step"]["verdict"] == "no"


def test_tampered_values_fail_verification(A):
    K = koszul_complex(A)
    k = module_stalk(A, artin_residue_field(A))
    R2 = make_ring("poly(F101; x, y)")
    kR = module_stalk(R2, graded_residue_field(R2))
    reps = [level_report(K, "inj"), level_report(K, "ginj"),
            level_report(k, "ginj"), level_report(kR, "proj"),
            level_report(Complex(A, {}, {}), "proj")]
    routes = set()
    for rep in reps:
        assert rep.verify()
        for cert in (rep.upper, rep.lower):
            routes.add(cert.route)
            value, cert.value = cert.value, 7
            assert not cert.verify(), cert.route
            assert not rep.verify(), cert.route
            cert.value = value
        assert rep.verify()
    assert routes == {"stratification", "one-step-impossible",
                      "cycle-boundary", "one-step", "nonzero-homology",
                      "cover-tower", "ghost-chain", "zero-object"}
    # a composite that is not a chain map is not null-homotopic, yet it
    # proves nothing: doctoring one component must fail verification
    ghost = reps[3].lower
    space, comp, factors, aug = ghost.ghost
    doctored = dict(comp.comps)
    doctored[1] = comp.comp(1) + space.spaces[1].basis_hom(0)
    bad = ChainMap(comp.source, comp.target, doctored)
    assert not bad.is_chain_map()
    ghost.ghost = (space, bad, factors, aug)
    assert not ghost.verify()
    assert not reps[3].verify()
    ghost.ghost = (space, comp, factors, aug)
    assert reps[3].verify()


def test_ghost_evidence_is_bound_to_its_subject():
    # the ghost chain of one complex proves nothing about another: the
    # factors start at the subject, the augmentation lands on it, and
    # comp is the composite of the factors after the augmentation
    R = make_ring("poly(F101; x, y)")
    rep = level_report(koszul_complex(R), "proj")
    low = rep.lower
    assert rep.verdict == ("exact", 3) and low.route == "ghost-chain"
    kept = space, comp, factors, aug = low.ghost
    B = make_ring("artin(F3; x, y | x^2, y^2)")
    other = level_report(koszul_complex(B), "proj").lower
    assert other.route == "ghost-chain"
    assert other.data == low.data and other.verify()
    # an equal copy of the subject is another complex all the same
    twin = ChainMap(aug.source, koszul_complex(R), aug.comps)
    assert twin.target == aug.target
    for bad in (other.ghost,
                (space, comp, factors, other.ghost[3]),
                (space, comp, factors, twin),
                (space, comp.scale(2), factors, aug)):
        low.ghost = bad
        assert not low.verify() and not rep.verify()
        low.ghost = kept
        assert low.verify() and rep.verify()


def test_bare_certificates_fail_verification():
    # a value with no evidence behind it proves nothing
    assert not LowerCertificate("proj", 99, "nonzero-homology").verify()
    assert not LowerCertificate("proj", 1, "nonzero-homology").verify()
    assert not UpperCertificate("proj", 0, "zero-object").verify()
    assert not UpperCertificate("proj", 1, "stratification").verify()
    assert not UpperCertificate("proj", 1, "one-step").verify()
    assert not LowerCertificate("proj", 3, "ghost-chain").verify()


def _routed_reports(A):
    """Reports whose upper routes are stratification and cycle-boundary."""
    B = make_ring("artin(F3; x, y | x^2, y^2)")
    reps = [level_report(koszul_complex(B), "proj"),
            level_report(koszul_complex(A), "gproj")]
    assert [rep.upper.route for rep in reps] == ["stratification",
                                                 "cycle-boundary"]
    return reps


def test_tampered_triangle_evidence_fails_verification(A):
    # construction checks no witness, so verify() is the only guard
    R2 = make_ring("poly(F101; x, y)")
    tower = level_report(module_stalk(R2, graded_residue_field(R2)), "proj")
    assert tower.verdict == ("exact", 3)
    assert tower.upper.route == "cover-tower"
    # the cycle-boundary end map: the zero map, a map onto the shifted
    # layer, one onto a target with a nonzero differential (the cone
    # itself), and the end map from the cone of an equal report
    cb = _routed_reports(A)[1]
    t = cb.upper.end_map
    W, Q = t.source, t.target
    for bad in (zero_chain_map(W, Q), zero_chain_map(W, Q.shift(1)),
                t.shift(1), complexes.identity_chain_map(W),
                _routed_reports(A)[1].upper.end_map):
        cb.upper.end_map = bad
        assert not cb.upper.verify() and not cb.verify()
    cb.upper.end_map = t
    assert cb.verify()
    for rep in _routed_reports(A) + [tower]:
        cert = rep.upper
        # a u other than the one the cone was built on: a rescaled copy,
        # or another triangle's
        for tri in cert.triangles:
            u = tri.u
            for bad_u in [u.scale(2)] + [o.u for o in cert.triangles
                                         if o is not tri]:
                tri.u = bad_u
                assert not cert.verify(), cert.route
                assert not rep.verify(), cert.route
            tri.u = u
            assert cert.verify() and rep.verify()
    # stratification peels must chain from one layer up to the subject:
    # reversed, duplicated or dropped peels, or one from another complex
    # (an equal Koszul complex built again, or a shifted one), prove
    # nothing
    strat = _routed_reports(A)[0]
    cert = strat.upper
    tris = list(cert.triangles)
    assert len(tris) == 2 and cert.value == 3
    K = koszul_complex(cert.subject.ring)
    foreign = [level_report(x, "proj").upper.triangles[1]
               for x in (K, K.shift(1))]
    for bad, value in ((tris[::-1], 3), ([tris[0], tris[0]], 3),
                       ([tris[1], tris[1]], 3), (tris[1:], 2),
                       (tris[:1], 2), (tris[:1] + foreign[:1], 3),
                       (tris[:1] + foreign[1:], 3)):
        cert.triangles, cert.value = bad, value
        assert not cert.verify() and not strat.verify()
        cert.triangles, cert.value = list(tris), 3
        assert cert.verify() and strat.verify()
    # nor may u change in place under its cone, or a differential of it
    tri = tower.upper.triangles[0]
    for mapping in (tri.u.comps, tri.cone_data.complex.diffs):
        i = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[i] = mapping[i].scale(2)
    assert tower.verify()


def test_upper_certificates_chain_from_their_subject(A):
    # each piece of evidence must be about the complex the certificate
    # names: tampered, it fails, and restored, it passes again
    R2, R3 = make_ring("poly(F101; x, y)"), make_ring("poly(F101; x, y, z)")
    k2 = module_stalk(R2, graded_residue_field(R2))
    rep = level_report(k2, "proj")
    cert = rep.upper
    assert rep.verdict == ("exact", 3) and cert.route == "cover-tower"
    tris = list(cert.triangles)
    foreign = level_report(module_stalk(R3, graded_residue_field(R3)),
                           "proj").upper
    assert foreign.route == "cover-tower" and len(foreign.triangles) >= 2
    for bad in (tris[::-1], [tris[0], tris[0]], foreign.triangles[:2]):
        cert.triangles = bad
        assert not cert.verify() and not rep.verify()
        cert.triangles = list(tris)
        assert cert.verify() and rep.verify()
    # a one-step verdict about another layer of the same tower
    one = cert.level_one
    later = level_one_test(adams.adams_tower(k2, 4).steps[2].omega, "proj")
    assert later.verdict == "yes"
    cert.level_one = later
    assert not cert.verify() and not rep.verify()
    cert.level_one = one
    assert cert.verify() and rep.verify()
    # the cycle-boundary triangle of another Koszul complex
    B3 = make_ring("artin(F3; x, y | x^2, y^2)")
    cb = level_report(koszul_complex(A), "gproj")
    other = level_report(koszul_complex(B3), "gproj").upper
    assert cb.upper.route == other.route == "cycle-boundary"
    tri, t = cb.upper.triangles, cb.upper.end_map
    for bad in ((other.triangles, t), (other.triangles, other.end_map)):
        cb.upper.triangles, cb.upper.end_map = bad
        assert not cb.upper.verify() and not cb.verify()
    cb.upper.triangles, cb.upper.end_map = tri, t
    assert cb.verify()
    # a one-step certificate with another complex's level-one result
    k = module_stalk(A, artin_residue_field(A))
    one_step = level_report(k, "ginj")
    assert one_step.upper.route == "one-step"
    one = one_step.upper.level_one
    free = level_one_test(module_stalk(A, artin_free(A, 1)), "ginj")
    assert free.verdict == "yes"
    one_step.upper.level_one = free
    assert not one_step.upper.verify() and not one_step.verify()
    one_step.upper.level_one = one
    assert one_step.verify()


def test_upper_and_lower_bounds_share_one_subject(A):
    # a lower certificate of another complex, itself valid and below the
    # upper bound, does not complete the report
    K = koszul_complex(A)
    rep = level_report(K, "inj")
    other = level_report(K.shift(1), "inj").lower
    assert rep.upper.subject is rep.lower.subject is K.dual()
    assert other.verify() and other.value <= rep.upper.value
    lower = rep.lower
    rep.lower = other
    assert not rep.verify()
    rep.lower = lower
    assert rep.verify()
    # nor does its one-step verdict prove anything about K
    assert lower.route == other.route == "one-step-impossible"
    one = lower.level_one
    lower.level_one = other.level_one
    assert not lower.verify() and not rep.verify()
    lower.level_one = one
    assert rep.verify()


# the evidence each upper route reads, swapped one part at a time and
# all together: none of it may come from another draw. A one-step
# result is swapped only where the certificate and its donor both carry
# one; stratification and cycle-boundary carry it for bounds up to two
EVIDENCE = {"stratification": (("triangles",), ("level_one",)),
            "cycle-boundary": (("triangles",), ("end_map",),
                               ("triangles", "end_map"), ("level_one",)),
            "cover-tower": (("triangles",), ("level_one",),
                            ("triangles", "level_one")),
            "one-step": (("level_one",),)}


def test_random_upper_certificates_resist_swapped_evidence():
    reached, swapped = {}, Counter()
    for ring_text in sorted(PEEL_CLASSES):
        ring = make_ring(ring_text)
        by_route = {}
        for seed in range(16):
            m = random_complex(ring, random.Random(seed), width=2,
                               max_rank=2)
            for cls in level.CLASS_KEYS:
                rep = level_report(m, cls)
                if rep.upper is None:
                    continue
                assert rep.verify(), (ring_text, seed, cls)
                by_route.setdefault(rep.upper.route, []).append((seed, rep))
        reached[ring_text] = {route: len(reps)
                              for route, reps in by_route.items()}
        for route, reps in by_route.items():
            for seed, rep in reps:
                cert = rep.upper
                for parts in EVIDENCE.get(route, ()):
                    kept = {part: getattr(cert, part) for part in parts}
                    donor = next((r.upper for s, r in reps if s != seed
                                  and all(getattr(r.upper, part) is not None
                                          for part in parts)), None)
                    if donor is None or None in kept.values():
                        continue
                    swapped[route, parts] += 1
                    for part in parts:
                        setattr(cert, part, getattr(donor, part))
                    assert not cert.verify(), (ring_text, seed, route, parts)
                    for part, value in kept.items():
                        setattr(cert, part, value)
                    assert cert.verify() and rep.verify()
    # and swaps a carried one-step result on every route that carries one
    assert {route: n for (route, parts), n in swapped.items()
            if parts == ("level_one",)} == {
        "one-step": 206, "stratification": 6, "cycle-boundary": 31,
        "cover-tower": 12}
    # the sweep reaches every route that builds a complex layer by layer
    assert reached == {
        "artin(F2; x | x^2)": {"one-step": 54, "zero-object": 12,
                               "stratification": 9, "cycle-boundary": 9},
        "artin(F3; x, y | x^2, y^2)": {"one-step": 42, "zero-object": 36,
                                       "stratification": 6,
                                       "cycle-boundary": 6},
        "artin(Q; x | x^2)": {"one-step": 78, "zero-object": 18},
        "poly(F101; x, y)": {"cover-tower": 12, "one-step": 32,
                             "zero-object": 6, "cycle-boundary": 16}}


def test_triangle_witnesses_are_checked_once_in_verify(A, monkeypatch):
    calls = []
    quasi_iso = complexes.is_quasi_iso

    def counted(f):
        calls.append(f)
        return quasi_iso(f)

    for module in (complexes, level):
        monkeypatch.setattr(module, "is_quasi_iso", counted)
    strat, cb = _routed_reports(A)
    R2 = make_ring("poly(F101; x, y)")
    tower = level_report(module_stalk(R2, graded_residue_field(R2)), "proj")
    assert tower.upper.route == "cover-tower"
    # building the reports checks no end map
    assert calls == []
    # stratification peels and cover triangles are their own cones: no
    # witness to check
    assert strat.verify() and tower.verify()
    assert calls == []
    # the cycle-boundary end map is checked once per verify()
    assert cb.verify()
    assert calls == [cb.upper.end_map]
    assert cb.verify()
    assert calls == [cb.upper.end_map] * 2


def test_ghost_chain_over_free_terms_finishes(B, wall_bound):
    # the ghost search over a degreewise free replacement whose ranks
    # double each degree; it once spent minutes eliminating hom spaces
    m = random_complex(B, random.Random(701), lo=0, width=2, max_rank=2)
    with wall_bound(30):
        rep = level_report(m, "proj", budget=3)
        assert rep.verdict == ("at_least", 4)
        assert rep.lower.route == "ghost-chain"
        assert rep.verify()


def test_injective_level_of_a_socle_map_finishes(wall_bound):
    sess = parse("N = artin(F2; x, y | x^2, x*y, y^2)\n"
                 "complex C over N : range 1..0 ; d1 = [[x]]\n")
    with wall_bound(30):
        rep = level_report(sess.complexes["C"], "inj", budget=3)
        assert rep.verdict == ("at_least", 4)
        assert rep.lower.route == "ghost-chain" and rep.lower.dualized
        assert rep.verify()
