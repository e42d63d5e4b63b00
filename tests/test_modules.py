"""Module layer tests.

Hom-space oracle: brute-force enumeration of all candidate matrices over
F2 (checking the defining conditions independently), compared against the
computed basis dimension.
"""

import itertools
import random

import pytest

import levelcert.rings
from levelcert.grobner import BudgetExceeded
from levelcert.linalg import Mat, PrimeField, vstack
from levelcert.poly import PolyVec, parse_poly
from levelcert.grobner import buchberger
from levelcert.rings import ArtinRing, GradedPolyRing, make_ring
from levelcert.modules import (ArtinHom, ArtinModule, GradedHom, GradedModule,
                               ModuleError, artin_free, artin_residue_field,
                               direct_sum, find_isomorphism, free_cover,
                               free_module, graded_free, graded_residue_field,
                               hom_space, mat_unvec, mat_vec, zero_hom,
                               zero_module)

F2 = PrimeField(2)
F101 = PrimeField(101)

A = ArtinRing(F2, ["x"], ["x^2"])          # dual numbers
B = ArtinRing(F2, ["x", "y"], ["x^2", "x*y", "y^2"])
R2 = GradedPolyRing(F101, ["x", "y"])


def pv(ring, *texts):
    polys = [parse_poly(ring.field, ring.varnames, t) for t in texts]
    return PolyVec.from_polys(polys)


# ------------------------------------------------------------- artin side


def test_free_module_and_residue_field():
    F = artin_free(A, 2)
    assert F.dim == 4
    assert F.is_free()
    assert F.mu() == 2
    k = artin_residue_field(A)
    assert k.dim == 1
    assert not k.is_free()
    assert k.mu() == 1


def test_min_gens_of_maximal_ideal():
    AA = artin_free(A, 1)
    k = artin_residue_field(A)
    aug = ArtinHom(AA, k, Mat.from_rows(F2, [[1, 0]]))
    m, incl = aug.kernel()
    assert m.dim == 1
    assert m.mu() == 1
    assert not m.is_free()
    assert incl.is_injective()


def test_hom_space_matches_enumeration_oracle():
    k = artin_residue_field(A)
    AA = artin_free(A, 1)
    for (M, N) in [(k, AA), (AA, k), (k, k), (AA, AA)]:
        H = hom_space(M, N)
        count = 0
        for bits in itertools.product([0, 1], repeat=M.dim * N.dim):
            mat = Mat.from_rows(
                F2, [[bits[i * M.dim + j] for j in range(M.dim)]
                     for i in range(N.dim)])
            ok = all((xn @ mat) == (mat @ xm)
                     for xm, xn in zip(M.actions, N.actions))
            if ok:
                count += 1
        assert count == 2 ** H.dim, (M.dim, N.dim)


def test_hom_socle_frozen():
    # Hom(k, A) over the dual numbers is one dimensional (the socle)
    k = artin_residue_field(A)
    AA = artin_free(A, 1)
    H = hom_space(k, AA)
    assert H.dim == 1
    f = H.basis_hom(0)
    assert not f.is_zero()
    assert (A.var_matrix(0) @ f.matrix).is_zero()


def kronecker_hom_dim(M, N) -> int:
    """dim Hom_A(M, N) as the kernel of X_N H - H X_M = 0 over all nm*nn
    entries of H, vectorised by Kronecker products: the reference the
    generator-image hom spaces are checked against."""
    f = M.field
    if M.dim == 0 or N.dim == 0 or M.ring.nvars == 0:
        return M.dim * N.dim
    im, inn = Mat.identity(f, M.dim), Mat.identity(f, N.dim)
    sys = vstack([im.kron(xn) - xm.transpose().kron(inn)
                  for xm, xn in zip(M.actions, N.actions)])
    return sys.kernel_basis().ncols


def _hom_test_modules(ring):
    """Zero, free and non-free modules over a local ring."""
    F1 = artin_free(ring, 1)
    x = ArtinHom(F1, F1, ring.var_matrix(0))
    return [zero_module(ring), F1, artin_free(ring, 2),
            artin_residue_field(ring), x.cokernel()[0], x.kernel()[0],
            F1.dual()]


@pytest.mark.parametrize("field", ["F2", "F101", "Q"])
def test_hom_space_coords_faithful(field):
    ring = make_ring(f"artin({field}; x, y | x^2, x*y, y^2)")
    f = ring.field
    mods = _hom_test_modules(ring)
    for M in mods:
        for N in mods:
            H = hom_space(M, N)
            assert H.dim == kronecker_hom_dim(M, N), (M, N)
            for i in range(H.dim):
                h = H.basis_hom(i)
                ArtinHom(M, N, h.matrix, check=True)
                unit = Mat.column(f, [int(t == i) for t in range(H.dim)])
                assert H.coords(h) == unit
            c = Mat.column(f, [3 * t + 1 for t in range(H.dim)])
            assert H.coords(H.from_coords(c)) == c
            assert H.coords(zero_hom(M, N)).is_zero()
            # every matrix unit that is not a hom is refused
            for a in range(N.dim):
                for b in range(M.dim):
                    e = Mat.from_rows(f, [[int((r, s) == (a, b))
                                           for s in range(M.dim)]
                                          for r in range(N.dim)])
                    is_hom = all(xn @ e == e @ xm for xm, xn in
                                 zip(M.actions, N.actions))
                    if is_hom:
                        assert H.from_coords(
                            H.coords(ArtinHom(M, N, e))).matrix == e
                    else:
                        with pytest.raises(ModuleError):
                            H.coords(ArtinHom(M, N, e, check=False))


def test_artin_coords_reject_a_matrix_that_is_not_a_hom():
    AA = artin_free(A, 1)
    k = artin_residue_field(A)
    # 1 -> 1 on A, and 1 -> 1 from k into A, ignore the action of x
    for M, rows in ((AA, [[1, 0], [0, 0]]), (k, [[1], [0]])):
        H = hom_space(M, AA)
        with pytest.raises(ModuleError):
            H.coords(ArtinHom(M, AA, Mat.from_rows(F2, rows), check=False))
    assert hom_space(AA, AA).basis_mat is None
    assert hom_space(k, AA).basis_mat is not None


def test_kernel_image_cokernel_artin():
    AA = artin_free(A, 1)
    x = ArtinHom(AA, AA, A.var_matrix(0))
    K, incl = x.kernel()
    I, iincl, epi = x.image()
    C, proj = x.cokernel()
    assert K.dim == 1 and I.dim == 1 and C.dim == 1
    assert iincl.compose(epi) == x
    assert proj.compose(iincl).is_zero()
    # kernel == image == socle here
    status, _ = find_isomorphism(K, I)
    assert status == "iso"


def test_exactness_of_image_kernel_chain():
    # for f: F -> k the kernel of f equals the image of x-multiplication
    k = artin_residue_field(A)
    AA = artin_free(A, 1)
    aug = ArtinHom(AA, k, Mat.from_rows(F2, [[1, 0]]))
    K, kincl = aug.kernel()
    x = ArtinHom(AA, AA, A.var_matrix(0))
    I, iincl, _ = x.image()
    lifted = iincl.lift_through(kincl)
    assert lifted is not None and lifted.is_iso()


def test_factor_through_and_preimage():
    AA = artin_free(A, 1)
    k = artin_residue_field(A)
    aug = ArtinHom(AA, k, Mat.from_rows(F2, [[1, 0]]))
    idk = k.identity_hom()
    h = idk.compose(aug).factor_through(aug)
    assert h is not None and h == idk
    pre = aug.solve_preimage(k.basis_elem(0))
    assert pre is not None
    assert aug.apply(pre) == k.basis_elem(0)
    # the identity of A does not factor through the augmentation
    assert AA.identity_hom().factor_through(aug) is None


def test_dual_is_involutive_on_random_modules():
    rng = random.Random(3)
    for _ in range(20):
        F = artin_free(B, rng.randint(1, 2))
        # random submodule or quotient
        cols = []
        for _ in range(rng.randint(1, F.dim)):
            cols.append(Mat.from_rows(F2, [[rng.randint(0, 1)] for _ in range(F.dim)]))
        span = Mat.zeros(F2, F.dim, 0)
        from levelcert.linalg import hstack
        span = hstack(cols)
        # make the span a submodule by saturating with the actions
        sat = span
        for _ in range(3):
            pieces = [sat] + [a @ sat for a in F.actions]
            sat = hstack(pieces).column_space_basis()
        M, _ = ArtinHom._sub_on_columns(F, sat)
        DD = M.dual().dual()
        assert DD.dim == M.dim
        status, _ = find_isomorphism(M, DD)
        assert status == "iso"


def test_dual_swaps_free_and_injective_shape():
    AA = artin_free(A, 1)
    assert AA.dual().is_free()  # dual numbers are self-dual
    k = artin_residue_field(B)
    assert k.dual().dim == 1
    BB = artin_free(B, 1)
    D = BB.dual()
    assert not D.is_free()  # B is not Gorenstein, so B^v is not free
    assert D.mu() == 2


def test_direct_sum_artin():
    k = artin_residue_field(A)
    AA = artin_free(A, 1)
    S, incls, projs = direct_sum([k, AA])
    assert S.dim == 3
    for i in range(2):
        assert projs[i].compose(incls[i]).is_iso()
    assert projs[0].compose(incls[1]).is_zero()


def test_free_cover_artin():
    k = artin_residue_field(A)
    F, phi = free_cover(k)
    assert F.dim == 2
    assert phi.is_surjective()
    K, _ = phi.kernel()
    assert K.dim == 1  # the syzygy of k over the dual numbers is k again


def test_find_isomorphism_artin():
    k = artin_residue_field(A)
    AA = artin_free(A, 1)
    S1, _, _ = direct_sum([AA, k])
    S2, _, _ = direct_sum([k, AA])
    status, w = find_isomorphism(S1, S2)
    assert status == "iso" and w.is_iso()
    kk, _, _ = direct_sum([k, k])
    status, _ = find_isomorphism(AA, kk)
    assert status == "not_iso"


def test_find_isomorphism_decides_large_hom_space():
    # k + A/(x - y) and k + A/(x - 2y) agree on every invariant and have a
    # four-dimensional hom space, too large over F101 to enumerate; no
    # hom reaches the generator of the cyclic summand, so they are apart
    C = ArtinRing(F101, ["x", "y"], ["x^2", "x*y", "y^2"])
    k = artin_residue_field(C)
    AA = artin_free(C, 1)
    x, y = AA.actions

    def cyclic(t):
        Q, _ = ArtinHom(AA, AA, x - y.scale(t)).cokernel()
        return direct_sum([k, Q])[0]

    M, N = cyclic(1), cyclic(2)
    assert M.invariants() == N.invariants()
    assert hom_space(M, N).dim >= 2
    status, _ = find_isomorphism(M, N)
    assert status == "not_iso"
    status, w = find_isomorphism(M, cyclic(1))
    assert status == "iso" and w.is_iso()


# ------------------------------------------------------------ graded side


def test_graded_kernel_frozen():
    # R(-1)^2 -> R via (x, y): kernel is generated by (y, -x), free of rank 1
    F1 = graded_free(R2, [1, 1])
    F0 = graded_free(R2, [0])
    f = GradedHom(F1, F0, [pv(R2, "x"), pv(R2, "y")])
    K, incl = f.kernel()
    assert K.mu() == 1
    assert K.is_free()
    assert [K.gen_twists[j] for j in K.min_gens_indices()] == [2]
    g = K.min_gens()[0]
    im = incl.apply(g)
    target = PolyVec(F101, 2, {(0, (0, 1)): 1, (1, (1, 0)): 100})
    assert im == target or im == -target


def test_graded_residue_field_and_hilbert():
    k = graded_residue_field(R2)
    assert k.hilbert(0) == 1
    assert k.hilbert(1) == 0
    assert not k.is_free()
    F = graded_free(R2, [0])
    assert F.hilbert(2) == 3
    assert F.is_free()


def test_graded_min_gens_eliminates_unit_entries():
    # e1 = -x e0 forced by the relation, so one generator survives
    M = GradedModule(R2, [0, 1], [pv(R2, "x", "1")])
    assert M.min_gens_indices() == [0]
    assert M.is_free()
    status, w = find_isomorphism(M, graded_free(R2, [0]))
    assert status == "iso"


def test_graded_min_gens_keeps_honest_relations():
    M = GradedModule(R2, [0, 1], [pv(R2, "x^2", "x")])
    assert M.min_gens_indices() == [0, 1]
    assert not M.is_free()


def test_graded_hom_space_frozen():
    F1 = graded_free(R2, [1])
    F0 = graded_free(R2, [0])
    assert hom_space(F1, F0).dim == 2   # multiplication by x or y
    assert hom_space(F0, F1).dim == 0   # no maps downward in degree
    k = graded_residue_field(R2)
    assert hom_space(k, k).dim == 1
    assert hom_space(k, F0).dim == 0    # free modules are torsion free
    assert hom_space(F0, k).dim == 1


def test_graded_hom_space_against_enumeration():
    # F2 coefficients so full enumeration of coordinate vectors is possible
    Rf2 = GradedPolyRing(F2, ["x", "y"])
    k = graded_residue_field(Rf2)
    Mx = GradedModule(Rf2, [0], [pv(Rf2, "x")])  # R/(x)
    for (M, N) in [(k, k), (Mx, k), (k, Mx), (Mx, Mx)]:
        H = hom_space(M, N)
        # oracle: enumerate A-entry vectors, test well-definedness directly,
        # count distinct maps modulo columns landing in the relations
        idx = H.entry_index
        ngb = buchberger(N.rels) if N.rels else None

        def col_of(vecbits, j):
            total = PolyVec.zero(F2, 2)
            for t, (jj, i, m) in enumerate(idx):
                if jj == j and vecbits[t]:
                    total = total + PolyVec(F2, 2, {(i, m): 1})
            return total

        valid = set()
        for bits in itertools.product([0, 1], repeat=len(idx)):
            cols = [col_of(bits, j) for j in range(M.ngens)]
            ok = True
            for r in M.rels:
                img = PolyVec.zero(F2, 2)
                for (j, m), c in r.terms.items():
                    img = img + cols[j].mul_mono(m, c)
                if ngb is not None:
                    if not ngb.contains(img):
                        ok = False
                        break
                elif not img.is_zero():
                    ok = False
                    break
            if ok:
                reduced = tuple(ngb.normal_form(c) if ngb else c for c in cols)
                valid.add(reduced)
        assert len(valid) == 2 ** H.dim, (M.label, N.label)


def test_graded_hom_space_coords_faithful():
    k = graded_residue_field(R2)
    M = GradedModule(R2, [0, 1], [pv(R2, "x^2", "x")])
    for (S, T) in [(M, M), (M, k)]:
        H = hom_space(S, T)
        for i in range(H.dim):
            c = Mat.from_rows(F101, [[1 if t == i else 0] for t in range(H.dim)])
            assert H.coords(H.from_coords(c)) == c
        assert H.coords(zero_hom(S, T)).is_zero()


def test_graded_coords_keep_their_input_checks():
    F = graded_free(R2, [0, 1])
    k = graded_residue_field(R2)
    M = GradedModule(R2, [0, 1], [pv(R2, "x^2", "x")])
    free = hom_space(F, F)
    assert free._read_off
    with pytest.raises(ModuleError):
        free.coords(GradedHom(F, F, [pv(R2, "x", "0"), F.gen_elem(1)],
                              check=False))
    for H in (hom_space(M, k), hom_space(M, M), free):
        c = Mat.column(F101, [5 * t + 2 for t in range(H.dim)])
        assert H.coords(H.from_coords(c)) == c
    assert not hom_space(M, k)._read_off and not hom_space(M, M)._read_off


def test_graded_image_cokernel():
    F1 = graded_free(R2, [1, 1])
    F0 = graded_free(R2, [0])
    f = GradedHom(F1, F0, [pv(R2, "x"), pv(R2, "y")])
    I, incl, epi = f.image()
    assert incl.compose(epi) == f
    assert incl.is_injective()
    C, proj = f.cokernel()
    # C is the residue field
    assert C.hilbert(0) == 1 and C.hilbert(1) == 0
    assert proj.is_surjective()
    assert proj.compose(incl).is_zero()


def test_graded_lift_and_factor():
    F0 = graded_free(R2, [0])
    k = graded_residue_field(R2)
    quot = GradedHom(F0, k, [k.gen_elem(0)])
    idk = k.identity_hom()
    h = idk.compose(quot).factor_through(quot)
    assert h is not None and h == idk
    # lift x . (-) : R(-1) -> R through the inclusion of the ideal (x, y)
    F1 = graded_free(R2, [1])
    xonly = GradedHom(F1, F0, [pv(R2, "x")])
    ideal = GradedHom(graded_free(R2, [1, 1]), F0, [pv(R2, "x"), pv(R2, "y")])
    img, incl, _ = ideal.image()
    lifted = xonly.lift_through(incl)
    assert lifted is not None
    assert incl.compose(lifted) == xonly


# ------------------------------------------------- per-ring Groebner memo


@pytest.fixture
def buchberger_calls(monkeypatch):
    """Inputs of every Groebner basis computed while the test runs."""
    calls = []
    orig = levelcert.rings.buchberger

    def counted(gens, *args, **kwargs):
        calls.append(tuple(gens))
        return orig(gens, *args, **kwargs)

    monkeypatch.setattr(levelcert.rings, "buchberger", counted)
    return calls


def test_lift_through_computes_target_basis_once(buchberger_calls):
    R = GradedPolyRing(F101, ["x", "y", "z"])
    F0 = graded_free(R, [0])
    ideal = GradedHom(graded_free(R, [1, 1]), F0, [pv(R, "x"), pv(R, "y")])
    quads = GradedHom(graded_free(R, [2, 2, 2]), F0,
                      [pv(R, "x^2"), pv(R, "x*y"), pv(R, "y*z")])
    lifted = quads.lift_through(ideal)
    assert lifted is not None and ideal.compose(lifted) == quads
    assert buchberger_calls == [tuple(ideal.cols)]


def test_equal_generator_lists_share_one_entry(buchberger_calls):
    R = GradedPolyRing(F101, ["x", "y", "z"])
    gb = R.groebner([pv(R, "x*y - z^2"), pv(R, "y")])
    assert R.groebner([pv(R, "x*y - z^2"), pv(R, "y")]) is gb
    syz = R.syzygies([pv(R, "x*y - z^2"), pv(R, "y")])
    assert isinstance(syz, tuple)
    assert R.syzygies([pv(R, "x*y - z^2"), pv(R, "y")]) is syz
    assert len(buchberger_calls) == 1


def test_rings_do_not_share_memo_entries(buchberger_calls):
    R, S = (GradedPolyRing(F101, ["x", "y", "z"]) for _ in range(2))
    assert R == S
    gens = [pv(R, "x"), pv(R, "y + z")]
    assert R.groebner(gens) is not S.groebner(gens)
    assert len(buchberger_calls) == 2


def test_exceeded_budget_is_not_memoized(monkeypatch):
    R = GradedPolyRing(F101, ["x", "y"])
    orig = levelcert.rings.buchberger
    monkeypatch.setattr(levelcert.rings, "buchberger",
                        lambda gens: orig(gens, budget=0))
    gens = [pv(R, "x^2 + y^2"), pv(R, "x*y")]
    with pytest.raises(BudgetExceeded):
        R.groebner(gens)
    monkeypatch.setattr(levelcert.rings, "buchberger", orig)
    assert R.groebner(gens).contains(pv(R, "x*y"))


def test_graded_direct_sum():
    k = graded_residue_field(R2)
    F0 = graded_free(R2, [0])
    S, incls, projs = direct_sum([k, F0])
    assert S.ngens == 2
    assert projs[0].compose(incls[0]) == k.identity_hom()
    assert projs[1].compose(incls[1]) == F0.identity_hom()
    assert projs[0].compose(incls[1]).is_zero()
    assert S.hilbert(0) == 2 and S.hilbert(1) == 2


def test_graded_free_cover():
    M = GradedModule(R2, [0, 1], [pv(R2, "x", "1")])
    F, phi = free_cover(M)
    assert F.gen_twists == [0]
    C, _ = phi.cokernel()
    assert C.is_zero_module()


def test_mat_vec_roundtrip():
    m = Mat.from_rows(F101, [[1, 2, 3], [4, 5, 6]])
    v = mat_vec(m)
    assert v.shape == (6, 1)
    assert mat_unvec(2, 3, v) == m


def test_zero_module_edge_cases():
    Z = zero_module(A)
    assert Z.is_zero_module()
    k = artin_residue_field(A)
    z = zero_hom(Z, k)
    K, _ = z.kernel()
    assert K.dim == 0
    Zg = zero_module(R2)
    assert Zg.is_zero_module()
    kg = graded_residue_field(R2)
    zg = zero_hom(Zg, kg)
    Kg, _ = zg.kernel()
    assert Kg.is_zero_module()
    C, _ = zg.cokernel()
    status, _ = find_isomorphism(C, kg)
    assert status == "iso"
