"""Complex layer tests with hand-computed homology values."""

import random

import pytest

from levelcert.adams import adams_tower
from levelcert.linalg import Mat, PrimeField, hstack, vstack
from levelcert.poly import PolyVec, parse_poly
from levelcert.rings import ArtinRing, GradedPolyRing, make_ring
from levelcert.modules import (ArtinHom, GradedHom, artin_free,
                               artin_residue_field, find_isomorphism,
                               graded_free, graded_residue_field, hom_space,
                               zero_hom)
from levelcert.complexes import (ChainMap, ChainMapSpace, Complex, ComplexError,
                                 HomologyData, SES, Triangle, acc_sequences,
                                 cone, complex_direct_sum, identity_chain_map,
                                 is_quasi_iso, module_stalk, zero_chain_map)
from levelcert.randgen import random_complex

F2 = PrimeField(2)
F101 = PrimeField(101)
A = ArtinRing(F2, ["x"], ["x^2"])
R2 = GradedPolyRing(F101, ["x", "y"])


def koszul_x():
    """A -x-> A in degrees 1, 0 over the dual numbers."""
    AA = artin_free(A, 1)
    x = ArtinHom(AA, AA, A.var_matrix(0))
    return Complex(A, {0: AA, 1: AA}, {1: x})


def graded_koszul_xy():
    """R(-2) -> R(-1)^2 -> R over F101[x, y]."""
    def pv(*texts):
        return PolyVec.from_polys([parse_poly(F101, ["x", "y"], t) for t in texts])
    F0 = graded_free(R2, [0])
    F1 = graded_free(R2, [1, 1])
    Ftop = graded_free(R2, [2])
    d1 = GradedHom(F1, F0, [pv("x"), pv("y")])
    d2 = GradedHom(Ftop, F1, [pv("-y", "x")])
    return Complex(R2, {0: F0, 1: F1, 2: Ftop}, {1: d1, 2: d2})


def test_koszul_homology_frozen():
    K = koszul_x()
    hd = K.hdata()
    assert hd.homology(0).dim == 1
    assert hd.homology(1).dim == 1
    assert hd.nonzero_degrees() == [0, 1]


def test_acc_sequences_frozen_dims():
    K = koszul_x()
    seqs = acc_sequences(K, 0)
    acc3 = seqs["acc3"]
    assert (acc3.left.dim, acc3.middle.dim, acc3.right.dim) == (1, 2, 1)
    acc1 = seqs["acc1"]
    assert (acc1.left.dim, acc1.middle.dim, acc1.right.dim) == (1, 1, 0)
    acc2 = seqs["acc2"]
    assert (acc2.left.dim, acc2.middle.dim, acc2.right.dim) == (1, 2, 1)
    acc4 = seqs["acc4"]
    assert (acc4.left.dim, acc4.middle.dim, acc4.right.dim) == (2, 2, 0)
    # degree 1: boundaries vanish, cycles are the socle
    seqs1 = acc_sequences(K, 1)
    acc41 = seqs1["acc4"]
    assert (acc41.left.dim, acc41.middle.dim, acc41.right.dim) == (1, 2, 1)


def test_d_squared_checked():
    AA = artin_free(A, 1)
    ident = AA.identity_hom()
    with pytest.raises(ComplexError):
        Complex(A, {0: AA, 1: AA, 2: AA}, {1: ident, 2: ident})


def test_chain_map_condition_checked():
    K = koszul_x()
    AA = artin_free(A, 1)
    with pytest.raises(ComplexError):
        ChainMap(K, K, {0: AA.identity_hom()})  # not compatible with d


def test_cone_of_multiplication_is_koszul():
    AA = artin_free(A, 1)
    x = ArtinHom(AA, AA, A.var_matrix(0))
    sx = module_stalk(A, AA)
    f = ChainMap(sx, sx, {0: x})
    c = cone(f).complex
    K = koszul_x()
    assert c.support() == [0, 1]
    assert c.module(0).dim == 2 and c.module(1).dim == 2
    assert c.hdata().homology(0).dim == K.hdata().homology(0).dim
    assert c.hdata().homology(1).dim == K.hdata().homology(1).dim


def test_shift_conventions():
    K = koszul_x()
    S = K.shift(1)
    assert S.support() == [1, 2]
    assert S.hdata().homology(1).dim == 1
    # single shift negates the differential, double shift restores it
    assert S.diff(2) == K.diff(1).scale(F2.of(-1))
    S2 = K.shift(2)
    assert S2.diff(3) == K.diff(1)
    assert K.shift(1).shift(-1) == K


def test_dual_complex():
    K = koszul_x()
    D = K.dual()
    assert D.support() == [-1, 0]
    assert D.hdata().homology(0).dim == 1
    assert D.hdata().homology(-1).dim == 1
    # double dual has the original homology
    DD = D.dual()
    assert DD.support() == K.support()
    assert DD.hdata().homology(0).dim == 1


def test_quasi_iso_detection():
    K = koszul_x()
    assert is_quasi_iso(identity_chain_map(K))
    k = artin_residue_field(A)
    sk = module_stalk(A, k)
    assert not is_quasi_iso(zero_chain_map(sk, sk))
    # the augmentation K -> k is not a quasi-iso (H_1 survives)
    aug = ChainMap(K, sk, {0: ArtinHom(K.module(0), k,
                                       Mat.from_rows(F2, [[1, 0]]))})
    assert not is_quasi_iso(aug)
    h0 = aug.induced_on_homology(0)
    assert h0.is_iso()
    assert not aug.induces_zero_on_homology()


def test_exact_complex_identity_null_homotopic():
    AA = artin_free(A, 1)
    ident = AA.identity_hom()
    E = Complex(A, {0: AA, 1: AA}, {1: ident})
    assert E.is_exact()
    sp = ChainMapSpace(E, E)
    idm = identity_chain_map(E)
    assert sp.is_null_homotopic(idm)
    s = sp.null_homotopy(idm)
    assert s is not None
    # verify the homotopy identity at both degrees
    f0 = E.diff(1).compose(s[0])
    assert f0 == ident
    f1 = s[0].compose(E.diff(1))
    assert f1 == ident
    K = koszul_x()
    spk = ChainMapSpace(K, K)
    assert not spk.is_null_homotopic(identity_chain_map(K))


def test_chain_map_space_classes():
    k = artin_residue_field(A)
    sk = module_stalk(A, k)
    sp = ChainMapSpace(sk, sk)
    assert sp.hom_classes_dim() == 1
    ident = identity_chain_map(sk)
    assert not sp.class_coords(ident).is_zero()
    assert sp.class_coords(zero_chain_map(sk, sk)).is_zero()


def test_triangle_verification():
    K = koszul_x()
    k = artin_residue_field(A)
    sk = module_stalk(A, k)
    aug = ChainMap(K, sk, {0: ArtinHom(K.module(0), k,
                                       Mat.from_rows(F2, [[1, 0]]))})
    cd = cone(aug)
    tri = Triangle(aug, cd.complex, identity_chain_map(cd.complex))
    assert tri.verify()
    # a wrong third object fails
    bad = Triangle.__new__(Triangle)
    bad.u = aug
    bad.w = sk
    bad.t = identity_chain_map(cd.complex)
    bad.cone_data = cd
    assert not bad.verify()


def test_truncation_triangle():
    # 0 -> X_{<=0} -> X -> X_{>=1} -> 0 is degreewise split exact; the cone
    # of the inclusion is a model of the top truncation
    K = koszul_x()
    top = K.truncate_ge(1)
    bot = K.truncate_le(0)
    u = ChainMap(bot, K, {0: K.module(0).identity_hom()})
    cd = cone(u)
    t = ChainMap(cd.complex, top, {1: cd.pr_b[1]}, check=True)
    tri = Triangle(u, top, t)
    assert tri.verify()


def old_triangle_rule(tri):
    """Triangle verification as it was before the identity shortcut."""
    t = tri.t
    return (t.source == cone(tri.u).complex and t.target == tri.w
            and is_quasi_iso(t))


def test_cover_triangle_verifies_without_homology(monkeypatch):
    step = adams_tower(koszul_x(), 2).steps[0]
    calls = []
    parts = HomologyData._homology_parts

    def counted(self, i):
        calls.append(i)
        return parts(self, i)

    monkeypatch.setattr(HomologyData, "_homology_parts", counted)
    tri = Triangle(step.phi)
    assert tri.w == tri.cone_data.complex
    assert tri.verify() and step.triangle.verify()
    assert calls == []


def test_wrong_witness_on_a_cover_triangle_fails():
    tri = adams_tower(koszul_x(), 2).steps[0].triangle
    W = tri.w
    assert not W.is_exact()

    def with_witness(w, t):
        return Triangle(tri.u, w, t)

    assert not with_witness(W, zero_chain_map(W, W)).verify()
    W2 = W.shift(2)
    assert not with_witness(W2, identity_chain_map(W2)).verify()
    ident = identity_chain_map(W)
    for i in W.support():
        dropped = {j: h for j, h in ident.comps.items() if j != i}
        assert not with_witness(W, ChainMap(W, W, dropped,
                                            check=False)).verify()
    # the same terms with one differential set to zero
    i = max(W.diffs)
    d = W.diffs[i]
    other = Complex(W.ring, W.modules,
                    {**W.diffs, i: zero_hom(d.source, d.target)})
    assert other != W
    assert not with_witness(other, ident).verify()
    # identity components from the cone onto the altered complex
    assert not with_witness(other, ChainMap(W, other, ident.comps,
                                            check=False)).verify()
    assert not with_witness(other, identity_chain_map(other)).verify()
    with pytest.raises(ComplexError):
        Triangle(tri.u, W)


@pytest.mark.parametrize("ring, seeds", [(A, range(6)), (R2, range(3))],
                         ids=["artin-F2", "poly-F101-xy"])
def test_tower_triangles_agree_with_the_homology_rule(ring, seeds):
    # the zero witness is a quasi-isomorphism exactly when W is exact,
    # so it exercises both answers of the homology rule
    zero_verdicts = set()
    for seed in seeds:
        x = random_complex(ring, random.Random(300 + seed), lo=0, width=2,
                           max_rank=2)
        for step in adams_tower(x, 2).steps:
            tri = step.triangle
            W = tri.w
            assert tri.verify() and old_triangle_rule(tri)
            probe = Triangle(tri.u, W, zero_chain_map(W, W))
            assert probe.verify() == old_triangle_rule(probe)
            zero_verdicts.add(probe.verify())
    assert zero_verdicts == {True, False}


def test_complex_direct_sum():
    K = koszul_x()
    S, incls, projs = complex_direct_sum([K, K.shift(1)])
    assert S.support() == [0, 1, 2]
    hd = S.hdata()
    assert hd.homology(0).dim == 1
    assert hd.homology(1).dim == 2
    assert hd.homology(2).dim == 1
    assert projs[0].compose(incls[0]) == identity_chain_map(K)
    assert projs[0].compose(incls[1]).is_zero()


def test_graded_koszul_homology():
    K = graded_koszul_xy()
    hd = K.hdata()
    h0 = hd.homology(0)
    assert h0.hilbert(0) == 1 and h0.hilbert(1) == 0
    assert hd.homology(1).is_zero_module()
    assert hd.homology(2).is_zero_module()
    assert hd.nonzero_degrees() == [0]
    k = graded_residue_field(R2)
    status, _ = find_isomorphism(h0, k)
    assert status == "iso"


def test_graded_chain_map_space():
    K = graded_koszul_xy()
    k = graded_residue_field(R2)
    sk = module_stalk(R2, k)
    sp = ChainMapSpace(K, sk)
    # K is a free resolution of k, so maps to the stalk mod homotopy = Hom(k,k)
    assert sp.hom_classes_dim() == 1
    aug = ChainMap(K, sk, {0: GradedHom(K.module(0), k, [k.gen_elem(0)])})
    assert not sp.class_coords(aug).is_zero()


def test_chain_maps_into_a_space_of_trivial_homs():
    # x is R(-1) -1-> R(-1) in degrees 2, 1; y is R(-1) -x-> R -> k. Every hom
    # R(-1) -> k lands in the relations of k, so Hom(x_1, y_0) has
    # dimension 0 and its coordinates have no rows
    F0, F1 = graded_free(R2, [0]), graded_free(R2, [1])
    k = graded_residue_field(R2)
    x = Complex(R2, {2: F1, 1: F1}, {2: F1.identity_hom()})
    y = Complex(R2, {2: F1, 1: F0, 0: k},
                {2: GradedHom(F1, F0, [PolyVec.from_polys(
                    [parse_poly(F101, ["x", "y"], "x")])]),
                 1: GradedHom(F0, k, [k.gen_elem(0)])})
    sp = ChainMapSpace(x, y)
    assert sp.chain_map_basis().shape == (3, 1)
    assert sp.hom_classes_dim() == 0


def per_column_homotopy_image(sp):
    """The homotopy image one s-basis hom at a time: compose it with the
    differentials and read the chain map's coordinates back."""
    cols = []
    for i in sp.s_spaces:
        for t in range(sp.s_spaces[i].dim):
            s = sp.s_spaces[i].basis_hom(t)
            comps = {}
            if i in sp.spaces:
                comps[i] = sp.y.diff(i + 1).compose(s)
            if i + 1 in sp.spaces:
                comps[i + 1] = s.compose(sp.x.diff(i + 1))
            cols.append(sp.coords(ChainMap(sp.x, sp.y, comps, check=False)))
    return hstack([Mat.zeros(sp.field, sp.total_dim, 0)] + cols)


def per_column_chain_map_basis(sp):
    """The kernel of f -> d f - f d, built one basis hom at a time."""
    degrees = list(sp.spaces)
    tdegs = range(degrees[0], degrees[-1] + 2) if degrees else []
    tspaces = {j: hom_space(sp.x.module(j), sp.y.module(j - 1))
               for j in tdegs}
    if sum(ts.dim for ts in tspaces.values()) == 0 or sp.total_dim == 0:
        return Mat.identity(sp.field, sp.total_dim)
    cols = []
    for i in degrees:
        for t in range(sp.spaces[i].dim):
            base = sp.spaces[i].basis_hom(t)
            pieces = []
            for j, ts in tspaces.items():
                if j == i:
                    piece = sp.y.diff(i).compose(base)
                elif j == i + 1:
                    piece = -base.compose(sp.x.diff(i + 1))
                else:
                    piece = zero_hom(ts.M, ts.N)
                pieces.append(ts.coords(piece))
            cols.append(vstack(pieces))
    return hstack(cols).kernel_basis()


def _exercised(space):
    """Which non-identity parts of a hom space's coordinates it uses."""
    if space.M.mode == "artin":
        return {name for name in ("section", "basis_mat")
                if getattr(space, name) is not None}
    return set() if space._read_off else {"solve"}


@pytest.mark.parametrize("ring_text, seeds", [
    ("artin(F2; x | x^2)", range(6)),
    ("artin(F3; x, y | x^2, y^2)", range(3)),
    ("artin(Q; x | x^2)", range(6)),
    ("poly(F101; x, y)", range(4)),
    ("poly(Q; x, y)", range(2)),
])
def test_block_chain_map_coordinates_match_per_column_rule(ring_text, seeds):
    ring = make_ring(ring_text)
    exercised = set()
    for seed in seeds:
        rng = random.Random(800 + seed)
        x = random_complex(ring, rng, lo=0, width=2, max_rank=2)
        y = random_complex(ring, rng, lo=0, width=2, max_rank=2)
        zero = Complex(ring, {}, {})
        # offset supports give the three Hom degrees different ranges
        for src, tgt in ((x, y), (y, x), (x, x), (x, y.shift(1)),
                         (x.shift(1), y), (x, y.shift(2)), (zero, y),
                         (x, zero)):
            sp = ChainMapSpace(src, tgt)
            image = sp.homotopy_image()
            assert image == per_column_homotopy_image(sp)
            assert sp.chain_map_basis() == per_column_chain_map_basis(sp)
            for c in range(image.ncols):
                assert sp.map_from_coords(image.col(c)).is_chain_map()
            for space in list(sp.spaces.values()) + list(sp.s_spaces.values()):
                exercised |= _exercised(space)
    # terms that are not free put the general coordinates to work
    assert exercised == ({"section", "basis_mat"} if ring.kind == "artin"
                         else {"solve"})


@pytest.mark.parametrize("ring_text", ["artin(F2; x | x^2)",
                                       "artin(Q; x | x^2)",
                                       "poly(F101; x, y)"])
def test_null_homotopy_round_trips_every_homotopy_image_column(ring_text):
    ring = make_ring(ring_text)
    nonzero = 0
    for seed in range(6):
        rng = random.Random(1000 + seed)
        x = random_complex(ring, rng, lo=0, width=2, max_rank=2)
        y = random_complex(ring, rng, lo=0, width=2, max_rank=2)
        for src, tgt in ((x, y), (y, x), (x, x), (x, y.shift(1)),
                         (x.shift(1), y)):
            sp = ChainMapSpace(src, tgt)
            image = sp.homotopy_image()
            for c in range(image.ncols):
                f = sp.map_from_coords(image.col(c))
                nonzero += not f.is_zero()
                s = sp.null_homotopy(f)
                assert s is not None
                for i in sp.spaces:
                    ds = zero_hom(src.module(i), tgt.module(i))
                    if i in s:
                        ds = ds + tgt.diff(i + 1).compose(s[i])
                    if i - 1 in s:
                        ds = ds + s[i - 1].compose(src.diff(i))
                    assert ds == f.comp(i), (seed, c, i)
    assert nonzero


def test_ses_verification():
    K = koszul_x()
    seqs = acc_sequences(K, 0)
    for s in seqs.values():
        assert s.verify()
    # a non-exact pair is rejected
    AA = artin_free(A, 1)
    k = artin_residue_field(A)
    x = ArtinHom(AA, AA, A.var_matrix(0))
    aug = ArtinHom(AA, k, Mat.from_rows(F2, [[1, 0]]))
    with pytest.raises(ComplexError):
        SES(x, aug.compose(x))  # middle map not injective etc.
