"""Resolution builder and dimension report tests.

Expected values are hand computations; the derivation is recorded next
to each frozen number.
"""

import random

import pytest

import levelcert.resolutions
from levelcert.randgen import (random_artin_module, random_complex,
                               random_free_homology_complex)
from levelcert.rings import make_ring
from levelcert.modules import (ArtinModule, artin_free, artin_residue_field,
                               find_isomorphism, free_hom_from_polys,
                               graded_free, graded_residue_field,
                               graded_submodule, top_matrices, zero_module)
from levelcert.complexes import Complex, is_quasi_iso, module_stalk
from levelcert.linalg import Mat
from levelcert.poly import PolyVec, parse_poly
from levelcert.resolutions import (depth_of, dimension_report,
                                   ext_dims_into_ring, koszul_complex,
                                   minimal_free_resolution, reflexivity_map,
                                   ring_dual_module,
                                   semiprojective_resolution, tr_screen)


@pytest.fixture(scope="module")
def R3():
    return make_ring("poly(F101; x, y, z)")


@pytest.fixture(scope="module")
def R2():
    return make_ring("poly(F101; x, y)")


@pytest.fixture(scope="module")
def A():
    return make_ring("artin(F2; x | x^2)")


@pytest.fixture(scope="module")
def B():
    # square-zero maximal ideal on two generators; socle has dimension 2
    return make_ring("artin(F2; x, y | x^2, x*y, y^2)")


def oracle_resolution_ok(res):
    # independent of how the builder works: every term free, comparison
    # map a quasi-isomorphism
    for i in res.complex.support():
        if not res.complex.module(i).is_free():
            return False
    return is_quasi_iso(res.aug)


def test_residue_field_resolution_betti(R3):
    k = graded_residue_field(R3)
    res = minimal_free_resolution(k, 5)
    # Koszul resolution on three variables: ranks are binomial(3, i)
    assert res.betti() == [1, 3, 3, 1]
    assert res.complete
    assert res.is_minimal()
    assert oracle_resolution_ok(res)


def test_pd_of_residue_field_both_routes(R3):
    k = graded_residue_field(R3)
    rep = dimension_report(k, "pd")
    assert rep.status == "exact" and rep.value == 3
    assert rep.betti == [1, 3, 3, 1]
    rep_cx = dimension_report(module_stalk(R3, k), "pd")
    assert rep_cx.status == "exact" and rep_cx.value == 3


def test_pd_of_ideal(R2):
    F = graded_free(R2, [0])
    x, y = (parse_poly(R2.field, R2.varnames, v) for v in "xy")
    M, _ = graded_submodule(F, [F.gen_elem(0).mul_poly(x),
                                F.gen_elem(0).mul_poly(y)])
    rep = dimension_report(M, "pd")
    # two generators, one Koszul syzygy, then nothing
    assert rep.status == "exact" and rep.value == 1
    assert rep.betti == [2, 1]


def test_pd_free_and_zero(R2, A):
    assert dimension_report(graded_free(R2, [0, 2]), "pd").value == 0
    assert dimension_report(artin_free(A, 3), "pd").value == 0
    repz = dimension_report(zero_module(R2), "pd")
    assert repz.status == "exact" and repz.value is None
    assert repz.witness.get("zero_object")


def test_pd_over_dual_numbers_is_periodic(A):
    k = artin_residue_field(A)
    rep = dimension_report(k, "pd")
    assert rep.status == "infinite"
    assert rep.betti == [1] * 7
    assert rep.witness["periodicity"]["syzygies"] == [1, 2]
    sy_a, sy_b, iso = rep.objects["periodicity"]
    assert iso.is_iso()
    verdict, _ = find_isomorphism(sy_a, k)
    assert verdict == "iso"


def test_koszul_complex_over_dual_numbers_is_perfect(A):
    # the Koszul complex is a two-term free complex, so it has finite
    # projective dimension even though both homology modules do not
    K = koszul_complex(A)
    rep = dimension_report(K, "pd")
    assert rep.status == "exact" and rep.value == 1
    rep_id = dimension_report(K, "id")
    assert rep_id.status == "exact" and rep_id.value == 0
    # the stalk of the residue field is not perfect
    st = module_stalk(A, artin_residue_field(A))
    assert dimension_report(st, "pd").status == "infinite"


def test_koszul_over_polynomials(R3):
    K = koszul_complex(R3)
    assert [K.module(i).ngens for i in K.support()] == [1, 3, 3, 1]
    assert K.hdata().nonzero_degrees() == [0]
    assert dimension_report(K, "pd").value == 3


def test_depth_values(R2, A):
    assert depth_of(graded_residue_field(R2)) == 0
    assert depth_of(graded_free(R2, [0])) == 2
    assert depth_of(artin_free(A, 1)) == 0
    assert depth_of(artin_residue_field(A)) == 0


def test_gorenstein_dimensions_dual_numbers(A):
    k = artin_residue_field(A)
    assert dimension_report(k, "gpd").value == 0
    assert dimension_report(k, "gid").value == 0
    K = koszul_complex(A)
    # long exact sequence of the cone of multiplication by x on K:
    # x acts as zero on both homology modules, so H(K (x) K) is k in
    # degrees 0 and 2 and k^2 in degree 1; the top sits in degree 2,
    # depth(K) = 1 - 2 = -1, and the depth formula gives dimension 1
    repg = dimension_report(K, "gpd")
    assert repg.status == "exact" and repg.value == 1
    repgi = dimension_report(K, "gid")
    assert repgi.status == "exact" and repgi.value == 0


def test_gpd_over_regular_base(R3):
    k = graded_residue_field(R3)
    rep = dimension_report(k, "gpd")
    assert rep.status == "exact" and rep.value == 3


def test_injective_kinds_out_of_scope_over_graded(R2):
    k = graded_residue_field(R2)
    assert dimension_report(k, "id").status == "out_of_scope"
    assert dimension_report(k, "gid").status == "out_of_scope"


def test_ext_into_ring_frozen(B):
    # over B the i-th syzygy of k is k^(2^i) and Hom(k, B) is the socle,
    # so Hom(syz^i, B) has dimension 2^(i+1); the image of the restriction
    # from Hom(B^(2^(i-1)), B) has dimension 2^(i-1); the difference is
    # 3 * 2^(i-1), giving 3, 6 for i = 1, 2 (and 2 at i = 0)
    k = artin_residue_field(B)
    assert ext_dims_into_ring(k, 2) == [2, 3, 6]


def test_tr_screen(A, B):
    kb = artin_residue_field(B)
    sc = tr_screen(kb, 3)
    # probing stops at the first obstruction, here Ext^1(k, B) of dim 3
    assert sc["first_obstruction"] == ("ext_to_ring", 1)
    assert sc["ext_to_ring"] == [3]
    ka = artin_residue_field(A)
    sca = tr_screen(ka, 3)
    assert sca["first_obstruction"] is None
    assert sca["reflexive"] is True
    assert sca["ext_to_ring"] == [0, 0, 0]
    ev, _ = reflexivity_map(ka)
    assert ev.is_iso()


# ------------------------------------------- Ext into the ring, oracle


def transposed_entries(d):
    """The polynomial entry matrix of a hom d between artinian free
    modules, transposed: entry (j, i) is block i of the image of
    generator j, read over the monomial basis of the ring."""
    ring, n = d.source.ring, d.source.ring.dim

    def poly(coeffs):
        return PolyVec(ring.field, ring.nvars,
                       {(0, m): c for m, c in zip(ring.basis_monos, coeffs)
                        if not ring.field.is_zero(c)})

    return [[poly(d.matrix.col_entries(j * n)[i * n:(i + 1) * n])
             for i in range(d.target.free_rank)]
            for j in range(d.source.free_rank)]


def hom_complex_ext_dims(M, window):
    """dim Ext^i(M, R), i = 0..window, as the homology of Hom(P, R) built
    as a complex of free modules from the transposed polynomial entries
    of the minimal resolution P; the reference for the rank rule."""
    ring = M.ring
    if M.is_zero_module():
        return [0] * (window + 1)
    res = minimal_free_resolution(M, window + 1)
    mods = {-i: artin_free(ring, res.rank(i)) for i in range(window + 2)}
    diffs = {}
    for i in range(1, window + 2):
        if res.rank(i) == 0 or res.rank(i - 1) == 0:
            continue
        diffs[1 - i] = free_hom_from_polys(
            mods[1 - i], mods[-i], transposed_entries(res.complex.diff(i)))
    cx = Complex(ring, mods, diffs).checked()
    return [cx.hdata().homology(-i).dim for i in range(window + 1)]


def reference_screen(M, window):
    """The screen probed one degree at a time, each degree from its own
    resolution, with hom_complex_ext_dims."""
    first = None
    ext1 = []
    for i in range(1, window + 1):
        d = hom_complex_ext_dims(M, i)[i]
        ext1.append(d)
        if d:
            first = ("ext_to_ring", i)
            break
    reflexive = None
    ext2 = []
    if first is None:
        ev, _ = reflexivity_map(M)
        reflexive = ev.is_iso()
        if not reflexive:
            first = ("not_reflexive", 1)
    if first is None:
        Mstar, _ = ring_dual_module(M)
        for i in range(1, window + 1):
            d = hom_complex_ext_dims(Mstar, i)[i]
            ext2.append(d)
            if d:
                first = ("dual_ext_to_ring", i)
                break
    return {"window": window, "ext_to_ring": ext1, "dual_ext_to_ring": ext2,
            "reflexive": reflexive, "first_obstruction": first}


ORACLE_RINGS = ["artin(F2; x, y | x^2, x*y, y^2)", "artin(F3; x, y | x^2, y^2)",
                "artin(F101; x | x^2)", "artin(Q; x | x^2)"]


@pytest.mark.parametrize("decl", ORACLE_RINGS)
def test_ext_rank_rule_matches_hom_complex(decl):
    ring = make_ring(decl)
    rng = random.Random(f"ext-oracle {decl}")
    # most random modules come out free; keep the first free one and up
    # to three that are not
    drawn = [random_artin_module(ring, rng, max_rank=2) for _ in range(40)]
    free = [M for M in drawn if M.is_free() and M.dim]
    other = [M for M in drawn if not M.is_free()]
    assert free and other
    for M in [artin_residue_field(ring), free[0]] + other[:3]:
        for window in range(4):
            assert ext_dims_into_ring(M, window) == \
                hom_complex_ext_dims(M, window), (M.dim, window)
            assert tr_screen(M, window) == reference_screen(M, window)


def test_screen_cuts_the_long_probe_at_the_first_hit(monkeypatch):
    # no ring at hand has Ext^1(M, R) = 0 != Ext^i(M, R) for some i > 1,
    # so the second phase is fed made-up dimensions
    asked = []

    def made_up(M, window):
        asked.append(window)
        return [5, 0, 0, 3, 1][:window + 1]

    monkeypatch.setattr(levelcert.resolutions, "ext_dims_into_ring",
                        made_up)
    ring = make_ring("artin(F2; x | x^2)")
    sc = tr_screen(artin_residue_field(ring), 4)
    assert asked == [1, 4]
    assert sc["ext_to_ring"] == [0, 0, 3]
    assert sc["first_obstruction"] == ("ext_to_ring", 3)
    assert sc["reflexive"] is None and sc["dual_ext_to_ring"] == []


# ---------------------------------------------- per-ring screen memo


@pytest.fixture
def resolved(monkeypatch):
    """(module in degree 0, ceiling) of every resolution started."""
    calls = []
    orig = levelcert.resolutions.semiprojective_resolution

    def counted(x, ceiling=None):
        calls.append((x.module(0), ceiling))
        return orig(x, ceiling)

    monkeypatch.setattr(levelcert.resolutions, "semiprojective_resolution",
                        counted)
    return calls


def test_screen_is_kept_per_module_value(resolved):
    ring = make_ring("artin(F2; x, y | x^2, x*y, y^2)")
    M = artin_residue_field(ring)
    first = tr_screen(M, 3)
    assert resolved
    resolved.clear()
    twin = ArtinModule(ring, M.dim, M.actions).checked()
    assert twin is not M
    assert tr_screen(twin, 3) == first
    assert resolved == []


def test_returned_screen_is_a_copy():
    ring = make_ring("artin(F2; x | x^2)")
    k = artin_residue_field(ring)
    sc = tr_screen(k, 3)
    want = reference_screen(k, 3)
    assert sc == want
    sc["ext_to_ring"].append(7)
    sc["dual_ext_to_ring"].clear()
    sc["reflexive"] = False
    assert tr_screen(k, 3) == want


def test_window_is_part_of_the_key(resolved):
    ring = make_ring("artin(F2; x | x^2)")
    k = artin_residue_field(ring)
    assert tr_screen(k, 2)["ext_to_ring"] == [0, 0]
    resolved.clear()
    assert tr_screen(k, 3)["ext_to_ring"] == [0, 0, 0]
    assert resolved


def test_clean_screen_resolves_module_twice(resolved):
    ring = make_ring("artin(F2; x | x^2)")
    k = artin_residue_field(ring)
    sc = tr_screen(k, 3)
    assert sc["first_obstruction"] is None
    # Hom(k, R) is the socle, again k, so the dual is resolved too
    assert [c for m, c in resolved if m is k] == [2, 4]


def test_clean_screen_builds_the_ring_dual_once(monkeypatch):
    calls = []
    orig = levelcert.resolutions.ring_dual_module

    def counted(M):
        calls.append(M)
        return orig(M)

    monkeypatch.setattr(levelcert.resolutions, "ring_dual_module", counted)
    ring = make_ring("artin(F3; x, y | x^2, y^2)")
    k = artin_residue_field(ring)
    assert tr_screen(k, 3)["first_obstruction"] is None
    # Hom(k, R), shared by the evaluation map and the dual probe, then
    # Hom(Hom(k, R), R)
    assert len(calls) == 2 and calls[0] is k


def test_gpd_non_gorenstein(B):
    k = artin_residue_field(B)
    rep = dimension_report(k, "gpd")
    assert rep.status == "at_least" and rep.lower == 1
    assert dimension_report(artin_free(B, 2), "gpd").value == 0


def test_gpd_of_a_complex_with_homology_in_one_degree(B):
    # over the non-Gorenstein base a complex with homology in one degree
    # s is the module H_s shifted by s, so its dimension is the module's
    # plus s: gpd k >= 1 gives gpd >= 3 for k in degree 2, and a free
    # stalk in degree 2 has gpd exactly 2; gid of k in degree -1 is the
    # gpd of its dual, k in degree 1, so at least 2
    k = artin_residue_field(B)
    rep = dimension_report(module_stalk(B, k, 2), "gpd")
    assert rep.status == "at_least" and rep.lower == 3
    assert rep.witness["shift"] == 2
    rep = dimension_report(module_stalk(B, artin_free(B, 1), 2), "gpd")
    assert (rep.status, rep.value) == ("exact", 2)
    rep = dimension_report(module_stalk(B, k, -1), "gid")
    assert rep.status == "at_least" and rep.lower == 2


def test_resolution_of_exact_complex_is_empty(A):
    AA = artin_free(A, 1)
    x = Complex(A, {0: AA, 1: AA}, {1: AA.identity_hom()}).checked()
    res = semiprojective_resolution(x)
    assert res.complete
    assert res.complex.support() == []
    assert is_quasi_iso(res.aug)


def test_resolution_ceiling_marks_incomplete(A):
    k = artin_residue_field(A)
    res = semiprojective_resolution(module_stalk(A, k), ceiling=3)
    assert not res.complete
    assert [res.rank(i) for i in range(4)] == [1, 1, 1, 1]
    # quasi-isomorphism holds strictly below the ceiling; the ceiling
    # degree keeps the unresolved syzygy as extra homology
    for i in range(3):
        assert res.aug.induced_on_homology(i).is_iso()
    assert not res.aug.induced_on_homology(3).is_iso()


# ------------------------------------------ Tor ranks of a resolution


def free_rank(F):
    return F.dim // F.ring.dim if F.mode == "artin" else F.ngens


def constant_coefficient_rank(d):
    """Rank of d (x) k for a hom d between free modules, as the matrix of
    the constant coefficients of its polynomial entries."""
    ring = d.source.ring
    one = (0,) * ring.nvars
    m, n = free_rank(d.target), free_rank(d.source)
    if d.source.mode == "artin":
        D, c = ring.dim, ring.index[one]
        rows = [[d.matrix.col_entries(j * D)[i * D + c] for j in range(n)]
                for i in range(m)]
    else:
        rows = [[d.cols[j].terms.get((i, one), ring.field.zero)
                 for j in range(n)] for i in range(m)]
    return Mat.from_rows(ring.field, rows).rank()


def tor_by_constant_rule(P):
    """dim_k Tor_i(P, k) = rank P_i - rank(d_i (x) k) - rank(d_{i+1} (x) k)
    for a bounded free complex P, with d (x) k checked against the
    constant coefficient rule; returns the degree -> dimension map."""
    kr = {}
    for i, d in P.diffs.items():
        if free_rank(d.source) and free_rank(d.target):
            kr[i] = top_matrices([d])[0].rank()
            assert kr[i] == constant_coefficient_rank(d), i
    return {i: free_rank(P.module(i)) - kr.get(i, 0) - kr.get(i + 1, 0)
            for i in P.support()}


@pytest.mark.parametrize("decl", ["artin(F3; x, y | x^2, y^2)",
                                  "poly(F101; x, y)"])
def test_tor_ranks_match_the_constant_coefficient_rule(decl):
    ring = make_ring(decl)
    units = 0
    for s in range(6):
        # a bounded free complex is its own resolution, so the rule on
        # its differentials gives the Tor ranks _complex_pd reports
        x = random_free_homology_complex(ring, random.Random(f"tor {s}"))
        tor = tor_by_constant_rule(x)
        lo = min(x.hdata().nonzero_degrees())
        top = max(i for i, t in tor.items() if t)
        betti = dimension_report(x, "pd", window=2).betti
        assert [tor.get(i, 0) for i in range(lo, top + 1)] == betti, s
        units += sum(1 for d in x.diffs.values()
                     if constant_coefficient_rank(d))
        # and on the resolution _complex_pd builds for any complex
        y = random_complex(ring, random.Random(f"tor {s}"), width=2,
                           max_rank=2)
        rep = dimension_report(y, "pd", window=2)
        if "resolution" in rep.objects:
            res = rep.objects["resolution"]
            tor = tor_by_constant_rule(res.complex)
            lo = min(res.ranks)
            assert [tor.get(i, 0) for i in range(lo, lo + len(rep.betti))] \
                == rep.betti, s
    assert units
