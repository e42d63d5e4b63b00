"""Complex layer tests with hand-computed homology values."""

import random

import pytest

from levelcert.adams import adams_tower
from levelcert.linalg import Mat, PrimeField, hstack, vstack
from levelcert.poly import PolyVec, parse_poly
from levelcert.rings import ArtinRing, GradedPolyRing, make_ring
from levelcert import randgen
from levelcert.level import upper_via_cycle_boundary
from levelcert.modules import (ArtinHom, GradedHom, artin_free,
                               artin_residue_field, direct_sum,
                               find_isomorphism, graded_free,
                               graded_residue_field, hom_space, zero_hom)
from levelcert.complexes import (ChainMap, ChainMapSpace, Complex, ComplexError,
                                 HomologyData, Triangle, cone,
                                 identity_chain_map, is_quasi_iso,
                                 module_stalk, zero_chain_map)
from levelcert.randgen import (random_complex, random_free_homology_complex,
                               random_injective_homology_complex)
from levelcert.resolutions import koszul_complex

F2 = PrimeField(2)
F101 = PrimeField(101)
A = ArtinRing(F2, ["x"], ["x^2"])
R2 = GradedPolyRing(F101, ["x", "y"])


def koszul_x():
    """A -x-> A in degrees 1, 0 over the dual numbers."""
    AA = artin_free(A, 1)
    x = ArtinHom(AA, AA, A.var_matrix(0)).checked()
    return Complex(A, {0: AA, 1: AA}, {1: x}).checked()


def graded_koszul_xy():
    """R(-2) -> R(-1)^2 -> R over F101[x, y]."""
    def pv(*texts):
        polys = [parse_poly(F101, ["x", "y"], t) for t in texts]
        return PolyVec(F101, 2, {(i, m): c for i, p in enumerate(polys)
                                 for (_, m), c in p.terms.items()})
    F0 = graded_free(R2, [0])
    F1 = graded_free(R2, [1, 1])
    Ftop = graded_free(R2, [2])
    d1 = GradedHom(F1, F0, [pv("x"), pv("y")]).checked()
    d2 = GradedHom(Ftop, F1, [pv("-y", "x")]).checked()
    return Complex(R2, {0: F0, 1: F1, 2: Ftop}, {1: d1, 2: d2}).checked()


def test_koszul_homology_frozen():
    K = koszul_x()
    hd = K.hdata()
    assert hd.homology(0).dim == 1
    assert hd.homology(1).dim == 1
    assert hd.nonzero_degrees() == [0, 1]


def test_d_squared_checked():
    AA = artin_free(A, 1)
    ident = AA.identity_hom()
    with pytest.raises(ComplexError):
        Complex(A, {0: AA, 1: AA, 2: AA}, {1: ident, 2: ident}).checked()


def test_chain_map_condition_checked():
    K = koszul_x()
    AA = artin_free(A, 1)
    with pytest.raises(ComplexError):
        # not compatible with d
        ChainMap(K, K, {0: AA.identity_hom()}).checked()


def test_cone_of_a_map_that_is_not_a_chain_map_is_refused():
    # d^2 = 0 on Cone(f) exactly when f is a chain map, so the cone's
    # check is what confirms the map of a triangle
    K = koszul_x()
    AA = artin_free(A, 1)
    f = ChainMap(K, K, {0: AA.identity_hom()})
    assert not f.is_chain_map()
    with pytest.raises(ComplexError, match="d\\^2 != 0"):
        cone(f)
    with pytest.raises(ComplexError, match="d\\^2 != 0"):
        Triangle(f)


def test_differentials_and_components_are_read_only():
    # cones and homology are cached on these, so they never change
    mods = {0: artin_free(A, 1), 1: artin_free(A, 1)}
    diffs = dict(koszul_x().diffs)
    K = Complex(A, mods, diffs).checked()
    f = identity_chain_map(K)
    diffs[1] = diffs[1].scale(0)
    mods[1] = artin_free(A, 2)
    assert not K.diffs[1].is_zero()
    assert K.module(1).dim == 2
    for mapping in (K.diffs, f.comps):
        i = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[i] = mapping[i].scale(0)
        with pytest.raises(TypeError):
            del mapping[i]
    layer = adams_tower(K, 1).steps[0].omega
    for x in (K, layer):
        i = next(iter(x.modules))
        with pytest.raises(TypeError):
            x.modules[i] = artin_free(A, 1)
        with pytest.raises(TypeError):
            del x.modules[i]
    assert is_quasi_iso(f)


def test_cone_of_multiplication_is_koszul():
    AA = artin_free(A, 1)
    x = ArtinHom(AA, AA, A.var_matrix(0)).checked()
    sx = module_stalk(A, AA)
    f = ChainMap(sx, sx, {0: x}).checked()
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


def assert_same_homology(view, direct, y, i):
    """The homology data view of y agrees in degree i with direct, built
    on y itself: the same cycle submodule, a factorization of d^y onto
    the same boundaries, and the identity of y_i inducing an isomorphism
    of the homology modules. A graded kernel of -d may be presented by
    other generators than that of d, so the oracle compares submodules,
    not presentations."""
    (_, zeta), (_, zeta2) = view.cycles(i), direct.cycles(i)
    assert y.diff(i).compose(zeta).is_zero()
    u = zeta.lift_through(zeta2)
    assert u is not None and u.is_iso()
    assert zeta2.lift_through(zeta) is not None
    (_, beta, epi), (_, beta2, _) = view.boundaries(i), direct.boundaries(i)
    assert beta.compose(epi) == y.diff(i + 1)
    v = beta.lift_through(beta2)
    assert v is not None and v.is_iso()
    assert epi.source == y.module(i + 1) and beta.target == y.module(i)
    h = direct.homology_proj(i).compose(u).factor_through(
        view.homology_proj(i))
    assert h is not None and h.is_iso()
    assert h.source == view.homology(i) and h.target == direct.homology(i)


@pytest.mark.parametrize("ring_text", ["poly(F101; x, y)",
                                       "artin(F3; x, y | x^2, y^2)",
                                       "artin(Q; x | x^2)"])
def test_shifted_homology_matches_homology_of_the_shift(ring_text):
    # the homology of a shift is a view of its root's; it must agree
    # with the homology data computed on the shifted complex itself. The
    # Koszul complex makes sure a differential is shifted on every ring:
    # no draw over artin(Q; x | x^2) has one
    ring = make_ring(ring_text)
    draws = [koszul_complex(ring)] + [
        random_complex(ring, random.Random(900 + seed), lo=0, width=3,
                       max_rank=2) for seed in range(12)]
    with_homology = 0
    for x in draws:
        with_homology += bool(x.hdata().nonzero_degrees())
        for n in (-2, -1, 1, 3):
            y = x.shift(n)
            view, direct = y.hdata(), HomologyData(y)
            assert view is not direct and view.x is y
            assert view.nonzero_degrees() == direct.nonzero_degrees() == [
                i + n for i in x.hdata().nonzero_degrees()]
            for i in range(y.min_deg - 1, y.max_deg + 2):
                assert_same_homology(view, direct, y, i)
            # a shift of a shift back to offset 0 reads the root itself
            back = y.shift(-n)
            assert back == x and back.hdata() is x.hdata()
            again = HomologyData(back)
            for i in range(x.min_deg - 1, x.max_deg + 2):
                assert again.cycles(i) == x.hdata().cycles(i)
                assert again.boundaries(i) == x.hdata().boundaries(i)
                assert again.homology(i) == x.hdata().homology(i)
    # most draws are not exact
    assert with_homology >= 9


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
    eps = ArtinHom(K.module(0), k, Mat.from_rows(F2, [[1, 0]])).checked()
    aug = ChainMap(K, sk, {0: eps}).checked()
    assert not is_quasi_iso(aug)
    h0 = aug.induced_on_homology(0)
    assert h0.is_iso()
    assert not aug.induces_zero_on_homology()


def test_exact_complex_identity_null_homotopic():
    AA = artin_free(A, 1)
    ident = AA.identity_hom()
    E = Complex(A, {0: AA, 1: AA}, {1: ident}).checked()
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
    eps = ArtinHom(K.module(0), k, Mat.from_rows(F2, [[1, 0]])).checked()
    aug = ChainMap(K, sk, {0: eps}).checked()
    tri = Triangle(aug)
    # the third object is the cone of u, built once, and nothing else
    assert tri.w is tri.cone_data.complex and tri.w == cone(aug).complex
    assert tri.verify()
    with pytest.raises(AttributeError):
        tri.w = sk
    with pytest.raises(TypeError):
        Triangle(aug, sk, identity_chain_map(sk))
    # an equal u other than the one the cone was built on fails, and so
    # does a cone built on an equal copy of u
    copy = ChainMap(K, sk, dict(aug.comps)).checked()
    tri.u = copy
    assert not tri.verify()
    tri.u = aug
    assert tri.verify()
    cd = tri.cone_data
    tri.cone_data = cone(copy)
    assert not tri.verify()
    tri.cone_data = cd
    assert tri.verify()


def test_truncation_triangle():
    # K is the cone of d_1 on its desuspended top term: the stalk of K_1
    # in degree 0 mapped by d_1 onto the stalk of K_0, so the triangle
    # on that cone has K itself as its third object
    K = koszul_x()
    top = module_stalk(A, K.module(1), 0)
    bot = module_stalk(A, K.module(0), 0)
    tri = Triangle(ChainMap(top, bot, {0: K.diff(1)}).checked())
    assert tri.w == K
    assert tri.verify()


def end_map_rule(tri, t):
    """The homology rule, the reference for a cycle-boundary end map: a
    chain map from the cone of u onto a complex with zero differential,
    whose own cone is exact."""
    return (t.source == cone(tri.u).complex and not t.target.diffs
            and t.is_chain_map() and is_quasi_iso(t))


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


def test_homology_and_a_cover_step_make_no_solve(monkeypatch):
    # artinian kernels, images, cokernels, lifts and preimages read their
    # results off eliminations already done
    from levelcert.adams import adams_step_proj
    K = koszul_complex(make_ring("artin(F3; x, y | x^2, y^2)"))
    calls = []
    for name in ("solve", "inverse"):
        method = getattr(Mat, name)

        def counted(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(Mat, name, counted)
    hd = HomologyData(K)
    # H(K) = k, k^2, k in degrees 0, 1, 2, since x^2 = y^2 = 0
    assert [hd.homology(i).dim for i in K.support()] == [1, 2, 1]
    step = adams_step_proj(K)
    assert {i: F.free_rank for i, F in step.F.modules.items()} == \
        {0: 1, 1: 2, 2: 1}
    assert calls == []


def test_wrong_witness_on_a_cover_triangle_fails():
    # a cover triangle is the cone of its map and takes no witness; the
    # one witness left is the end map of a cycle-boundary certificate,
    # and each wrong one fails
    tri = adams_tower(koszul_x(), 2).steps[0].triangle
    with pytest.raises(TypeError):
        Triangle(tri.u, tri.w, identity_chain_map(tri.w))
    cert = upper_via_cycle_boundary(koszul_x(), "gproj")
    W, t = cert.triangles[0].w, cert.end_map
    Q = t.target
    assert cert.verify() and not W.is_exact() and not Q.is_zero_complex()
    another = upper_via_cycle_boundary(koszul_x(), "gproj").end_map
    assert another.source == W and another.source is not W
    wrong = [zero_chain_map(W, Q),
             # onto the shifted layer, from the cone or the shifted cone
             zero_chain_map(W, Q.shift(1)), t.shift(1),
             # onto a target with a nonzero differential: the cone itself
             identity_chain_map(W),
             # from another cone of an equal map
             another]
    wrong += [ChainMap(W, Q, {j: h for j, h in t.comps.items() if j != i})
              for i in t.comps]
    for bad in wrong:
        cert.end_map = bad
        assert not cert.verify()
    cert.end_map = t
    assert cert.verify()


@pytest.mark.parametrize("ring, cls, seeds",
                         [(A, "gproj", range(6)), (R2, "proj", range(3))],
                         ids=["artin-F2", "poly-F101-xy"])
def test_tower_triangles_agree_with_the_homology_rule(ring, cls, seeds):
    # cover triangles are cones and verify; a cycle-boundary end map
    # verifies exactly when the homology rule accepts it, and the zero
    # map onto a nonzero layer exercises the other answer
    verdicts, hits = set(), 0
    for seed in seeds:
        x = random_complex(ring, random.Random(300 + seed), lo=0, width=2,
                           max_rank=2)
        assert all(step.triangle.verify()
                   for step in adams_tower(x, 2).steps)
        cert = upper_via_cycle_boundary(x, cls)
        if cert is None:
            continue
        hits += 1
        tri, t = cert.triangles[0], cert.end_map
        for probe in [t, zero_chain_map(t.source, t.target)] + [
                ChainMap(t.source, t.target,
                         {j: h for j, h in t.comps.items() if j != i})
                for i in t.comps]:
            cert.end_map = probe
            assert cert.verify() == end_map_rule(tri, probe)
            verdicts.add(cert.verify())
        cert.end_map = t
        assert cert.verify() and end_map_rule(tri, t)
    assert hits and verdicts == {True, False}


def test_complex_direct_sum():
    # K (+) shift(K) is the cone of the zero map shift(K, -1) -> shift(K)
    K = koszul_x()
    L = K.shift(1)
    cd = cone(zero_chain_map(K.shift(-1), L))
    S = cd.complex
    assert S.support() == [0, 1, 2]
    hd = S.hdata()
    assert hd.homology(0).dim == 1
    assert hd.homology(1).dim == 2
    assert hd.homology(2).dim == 1
    for i in S.support():
        assert cd.pr_b[i].compose(cd.in_b[i]) == L.module(i).identity_hom()
        assert cd.pr_a[i].compose(cd.in_b[i]).is_zero()
    assert cd.inclusion().is_chain_map()


def reference_direct_sum(xs):
    """The former n-ary sum of complexes, all parts at once, degreewise."""
    ring = xs[0].ring
    degs = sorted({i for x in xs for i in x.support()})
    mods, sum_incls, sum_projs = {}, {}, {}
    for i in degs:
        mods[i], sum_incls[i], sum_projs[i] = direct_sum(
            [x.module(i) for x in xs])
    diffs = {}
    for i in degs:
        if i - 1 not in mods:
            continue
        total = None
        for t, x in enumerate(xs):
            piece = sum_incls[i - 1][t].compose(x.diff(i)).compose(
                sum_projs[i][t])
            total = piece if total is None else total + piece
        diffs[i] = total
    return Complex(ring, mods, diffs)


SUM_RINGS = ["artin(F2; x | x^2)", "artin(F3; x, y | x^2, y^2)",
             "poly(F101; x, y)", "artin(Q; x | x^2)"]


@pytest.mark.parametrize("ring_text", SUM_RINGS)
def test_sum_built_from_cones_matches_the_n_ary_sum(ring_text):
    ring = make_ring(ring_text)
    for seed in range(30):
        rng = random.Random(seed)
        parts = [random_complex(ring, rng, lo=rng.randint(-1, 1),
                                width=rng.randint(0, 2), max_rank=2)
                 for _ in range(rng.randint(1, 3))]
        # equal modules and differentials, degree by degree
        assert randgen._sum(parts) == reference_direct_sum(parts)


@pytest.mark.parametrize("ring_text", SUM_RINGS)
def test_random_homology_complexes_keep_their_inputs(ring_text,
                                                     monkeypatch):
    # the seeded property suites read these generators, so building the
    # sum from cones must not move them onto other complexes
    ring = make_ring(ring_text)
    gens = [random_free_homology_complex]
    if ring.kind == "artin":
        gens.append(random_injective_homology_complex)
    for gen in gens:
        got = [gen(ring, random.Random(seed)) for seed in range(10)]
        with monkeypatch.context() as mp:
            mp.setattr(randgen, "_sum", reference_direct_sum)
            want = [gen(ring, random.Random(seed)) for seed in range(10)]
        assert got == want


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
    eps = GradedHom(K.module(0), k, [k.gen_elem(0)]).checked()
    aug = ChainMap(K, sk, {0: eps}).checked()
    assert not sp.class_coords(aug).is_zero()


def test_chain_maps_into_a_space_of_trivial_homs():
    # x is R(-1) -1-> R(-1) in degrees 2, 1; y is R(-1) -x-> R -> k. Every hom
    # R(-1) -> k lands in the relations of k, so Hom(x_1, y_0) has
    # dimension 0 and its coordinates have no rows
    F0, F1 = graded_free(R2, [0]), graded_free(R2, [1])
    k = graded_residue_field(R2)
    x = Complex(R2, {2: F1, 1: F1}, {2: F1.identity_hom()}).checked()
    x_mult = GradedHom(F1, F0, [parse_poly(F101, ["x", "y"], "x")]).checked()
    quot = GradedHom(F0, k, [k.gen_elem(0)]).checked()
    y = Complex(R2, {2: F1, 1: F0, 0: k}, {2: x_mult, 1: quot}).checked()
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
            cols.append(sp.coords(ChainMap(sp.x, sp.y, comps)))
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
        zero = Complex(ring, {}, {}).checked()
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
    pairs_with_columns = 0
    for seed in range(6):
        rng = random.Random(1000 + seed)
        x = random_complex(ring, rng, lo=0, width=2, max_rank=2)
        y = random_complex(ring, rng, lo=0, width=2, max_rank=2)
        for src, tgt in ((x, y), (y, x), (x, x), (x, y.shift(1)),
                         (x.shift(1), y)):
            sp = ChainMapSpace(src, tgt)
            image = sp.homotopy_image()
            pairs_with_columns += image.ncols > 0
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
    # random complexes over Q are often zero or have no differential, so
    # the drawn pairs must be seen to reach some homotopy-image column
    assert pairs_with_columns > 0
    assert nonzero
