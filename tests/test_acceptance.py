"""Acceptance gate: one test per headline claim.

Each test pins the exact expected values and the runtime budget it must
meet; randomized suites use fixed seeds so failures reproduce. Run with
-v to get the one-line pass/fail verdict per criterion.
"""

import random
import time
from collections import Counter

import pytest

from levelcert.complexes import module_stalk
from levelcert.level import (CLASS_KEYS, LowerCertificate,
                             homology_dimension_bound, level_report,
                             upper_via_cycle_boundary)
from levelcert.linalg import Mat
from levelcert.modules import ArtinHom, artin_residue_field, free_module, \
    graded_residue_field
from levelcert.adams import adams_tower, verify_splice
from levelcert.randgen import (random_complex, random_free_homology_complex,
                               random_injective_homology_complex,
                               random_module)
from levelcert.resolutions import dimension_report, koszul_complex
from levelcert.rings import make_ring


@pytest.fixture(scope="module")
def A():
    return make_ring("artin(F2; x | x^2)")


@pytest.fixture(scope="module")
def B():
    return make_ring("artin(F2; x, y | x^2, x*y, y^2)")


@pytest.fixture(scope="module")
def R2():
    return make_ring("poly(F101; x, y)")


@pytest.fixture(scope="module")
def R3():
    return make_ring("poly(F101; x, y, z)")


def test_01_koszul_counterexample_levels(A):
    """Injective and Gorenstein injective level 2 for the length-one
    Koszul complex over the square-zero base, each under a second."""
    kx = koszul_complex(A)

    t0 = time.monotonic()
    rep_inj = level_report(kx, "inj")
    dt_inj = time.monotonic() - t0
    assert rep_inj.verdict == ("exact", 2)
    assert rep_inj.upper.verify()
    assert rep_inj.lower.verify()
    assert dt_inj < 1.0

    t0 = time.monotonic()
    rep_gi = level_report(kx, "ginj")
    dt_gi = time.monotonic() - t0
    assert rep_gi.verdict == ("exact", 2)
    assert rep_gi.upper.verify()
    assert rep_gi.lower.verify()
    assert dt_gi < 1.0


def test_02_residue_field_gorenstein_injective_level(A):
    """The residue field sits in the class itself over the Gorenstein
    artinian base: level exactly 1, under a second."""
    k = module_stalk(A, artin_residue_field(A))
    t0 = time.monotonic()
    rep = level_report(k, "ginj")
    assert time.monotonic() - t0 < 1.0
    assert rep.verdict == ("exact", 1)
    assert rep.upper.verify() and rep.lower.verify()


def test_03_regular_base_attainment(R3):
    """Over the three-variable base: pd(k) = 3 with Betti (1,3,3,1) and
    projective level exactly 4 = dimension + 1, tower upper bound plus a
    four-object ghost chain, all within thirty seconds."""
    t0 = time.monotonic()
    k = graded_residue_field(R3)
    pd = dimension_report(k, "pd")
    assert pd.status == "exact" and pd.value == 3
    assert pd.betti == [1, 3, 3, 1]

    rep = level_report(module_stalk(R3, k), "proj")
    assert rep.verdict == ("exact", 4)
    assert rep.upper.route == "cover-tower"
    assert rep.lower.route == "ghost-chain"
    # four objects in the chain: the complex plus three shifted layers
    assert rep.lower.data["chain_length"] == 3
    assert rep.upper.verify() and rep.lower.verify()
    assert time.monotonic() - t0 < 30.0


def test_04_depth_zero_envelope_formula(A, B, built_certificates):
    """Ten randomized complexes with injective total homology land at
    injective level exactly 1 = depth + 1 in under ten seconds; the
    dimension-driven upper bounds cover the bundled artinian inputs and
    every lower bound it emits carries a machine-checked witness."""
    t0 = time.monotonic()
    for s in range(10):
        ring = A if s % 2 == 0 else B
        x = random_injective_homology_complex(ring, random.Random(100 + s))
        rep = level_report(x, "inj")
        assert rep.verdict == ("exact", 1), (s, rep.verdict)
        assert rep.upper.verify() and rep.lower.verify()
    assert time.monotonic() - t0 < 10.0

    # dimension bounds against verified uppers on the bundled inputs
    kx = koszul_complex(A)
    inputs = [kx, module_stalk(A, artin_residue_field(A)),
              module_stalk(A, free_module(A, [0]).dual()),
              module_stalk(A, free_module(A, [0, 0]))]
    for m in inputs:
        for cls in ("inj", "ginj"):
            bound, _ = homology_dimension_bound(m, cls)
            rep = level_report(m, cls)
            if bound is None or rep.upper is None:
                continue
            assert rep.upper.verify()
            assert rep.upper.value <= bound, (m.label, cls, bound)

    lowers = [c for c in built_certificates
              if isinstance(c, LowerCertificate)]
    assert lowers
    assert all(c.verify() for c in lowers)


def test_05_tower_splice_exactness(A, B, R2):
    """Adams towers to depth four on fifty randomized bounded complexes
    splice into exact sequences in every degree, both ring modes."""
    fails = []
    for s in range(50):
        ring = (A, B, R2)[s % 3]
        x = random_complex(ring, random.Random(200 + s), lo=0, width=3,
                           max_rank=2)
        tower = adams_tower(x, 4)
        rep = verify_splice(tower)
        if not rep["ok"]:
            fails.append(s)
    assert not fails


def test_08_duality_transport(A, B):
    """Twenty random artinian modules: projective dimension equals the
    injective dimension of the dual, the double dual is the module
    again, and the Gorenstein flat lower bound agrees with the
    Gorenstein injective lower bound of the dual."""
    seen = 0
    for s in range(20):
        ring = A if s % 2 == 0 else B
        M = random_module(ring, random.Random(500 + s))
        if M.is_zero_module():
            continue
        seen += 1
        rp = dimension_report(M, "pd", window=4)
        ri = dimension_report(M.dual(), "id", window=4)
        assert (rp.status, rp.value) == (ri.status, ri.value), s

        ev = ArtinHom(M, M.dual().dual(),
                      Mat.identity(ring.field, M.dim)).checked()
        assert ev.is_iso(), s

        lg = level_report(module_stalk(ring, M), "gflat").lower
        li = level_report(module_stalk(ring, M.dual()), "ginj").lower
        assert lg.value == li.value, s
        assert lg.verify() and li.verify()
    assert seen >= 10


def test_09_cycle_triangle_bound(R2):
    """Ten graded complexes of frees with free homology: the cycles-in,
    boundaries-out triangle certificate verifies and bounds the flat
    level by two."""
    for s in range(10):
        m = random_free_homology_complex(R2, random.Random(600 + s),
                                         pieces=3)
        cert = upper_via_cycle_boundary(m, "flat")
        assert cert is not None, s
        assert cert.value <= 2, s
        assert cert.verify(), s


def test_10_certificate_soundness_audit(A, R2, built_certificates):
    """Every certificate emitted by a sweep of all six classes over the
    Koszul complex, the graded residue field and six seeded complexes
    re-verifies: triangles pass cone verification, ghost chains kill
    homology with a nonzero composite, and no lower bound crosses its
    upper bound."""
    subjects = [koszul_complex(A),
                module_stalk(R2, graded_residue_field(R2))]
    for s in range(6):
        subjects.append(random_complex((A, R2)[s % 2],
                                       random.Random(700 + s), lo=0,
                                       width=2, max_rank=2))
    for m in subjects:
        for cls in CLASS_KEYS:
            level_report(m, cls)
    counts = Counter(type(cert).__name__ for cert in built_certificates)
    assert len(built_certificates) > 100
    assert counts["UpperCertificate"] > 10
    assert counts["LowerCertificate"] > 10
    assert counts["LevelCertificate"] > 10
    assert [cert for cert in built_certificates if not cert.verify()] == []
