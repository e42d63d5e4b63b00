"""Ring layer tests with hand-computed multiplication tables."""

from pathlib import Path

import pytest

from levelcert.complexes import ComplexError, module_stalk
from levelcert.linalg import PrimeField
from levelcert.modules import (artin_residue_field, free_module,
                               graded_residue_field)
from levelcert.poly import parse_poly
from levelcert.resolutions import depth_of, dimension_report
from levelcert.rings import (ArtinRing, GradedPolyRing, InfiniteDimensional,
                             NotLocal, make_ring)

F2 = PrimeField(2)
F101 = PrimeField(101)


def test_dual_numbers():
    A = ArtinRing(F2, ["x"], ["x^2"])
    assert A.dim == 2
    assert A.basis_monos == [(0,), (1,)]
    # x * x = 0, x * 1 = x
    nx = A.var_matrix(0)
    assert nx.to_lists() == [[0, 0], [1, 0]]
    assert A.is_gorenstein
    assert A.socle_dim == 1


def test_square_of_max_ideal_zero():
    B = ArtinRing(F2, ["x", "y"], ["x^2", "x*y", "y^2"])
    assert B.dim == 3
    assert B.socle_dim == 2
    assert not B.is_gorenstein


def test_nf_and_mult_matrix():
    # k[x]/(x^3): x^2 * x^2 = x^4 = 0, (1+x)*(x^2) = x^2
    A = ArtinRing(F101, ["x"], ["x^3"])
    assert A.dim == 3
    p = A.mult_matrix(parse_poly(F101, ["x"], "1 + x"))
    v = [0, 0, 1]  # x^2
    col = [p.entry(i, 2) for i in range(3)]
    assert col == [0, 0, 1]


def test_nongraded_relations():
    # k[x]/(x^2 - x) is not local: x is idempotent, not nilpotent
    with pytest.raises(NotLocal):
        ArtinRing(F101, ["x"], ["x^2 - x"])


def test_infinite_dimensional_rejected():
    with pytest.raises(InfiniteDimensional):
        ArtinRing(F2, ["x", "y"], ["x^2"])


def test_unit_ideal_rejected():
    with pytest.raises(ValueError):
        ArtinRing(F2, ["x"], ["x^2", "x^2 + 1"])


def test_field_case():
    k = ArtinRing(F2, ["x"], ["x"])
    assert k.dim == 1
    assert k.is_gorenstein


def test_make_ring_roundtrip():
    A = make_ring("artin(F2; x | x^2)")
    assert isinstance(A, ArtinRing)
    assert make_ring(A.decl_text()) == A
    R = make_ring("poly(F101; x, y, z)")
    assert isinstance(R, GradedPolyRing)
    assert make_ring(R.decl_text()) == R
    assert R.depth == 3
    assert len(R.monomials(2)) == 6
    assert A != R


def test_graded_ring_basics():
    R = GradedPolyRing(F101, ["x", "y"])
    assert len(R.monomials(0)) == 1
    assert len(R.monomials(3)) == 4
    assert R.monomials(-1) == []
    p = parse_poly(R.field, R.varnames, "x^2 + y")
    assert p.terms == {(0, (2, 0)): 1, (0, (0, 1)): 1}
    assert p.homogeneous_degree([0]) is None


def _declared_rings():
    """Each ring the golden scripts declare, and a field given as an
    artinian ring, the one base whose facts differ from its kind's."""
    golden = Path(__file__).resolve().parent / "golden"
    decls = {"artin(F2; x | x)"}
    for path in golden.glob("*.lvc"):
        for line in path.read_text(encoding="utf-8").splitlines():
            _, eq, decl = line.partition(" = ")
            if eq and decl.startswith(("artin(", "poly(")):
                decls.add(decl.strip())
    return sorted(decls)


@pytest.mark.parametrize("decl", _declared_rings())
def test_ring_facts_agree_with_computations_that_do_not_read_them(decl):
    ring = make_ring(decl)
    R = free_module(ring, [0])
    assert ring.depth == depth_of(R)
    # Serre: a local ring is regular exactly when pd k is finite
    artin = isinstance(ring, ArtinRing)
    k = artin_residue_field(ring) if artin else graded_residue_field(ring)
    assert ring.regular == (dimension_report(k, "pd", 2).status == "exact")
    if artin:
        assert ring.is_gorenstein == (R.socle_dim() == 1)
    # a base with a duality dualizes every complex, and the k-dual is an
    # involution
    stalk = module_stalk(ring, R)
    try:
        dual = stalk.dual()
    except ComplexError:
        dual = None
    assert ring.has_dual == (dual is not None)
    assert dual is None or dual.dual() == stalk
