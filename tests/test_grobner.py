"""Groebner layer tests.

Oracle for basis correctness: an independently written reducer (divisor
chosen by LAST match rather than first) plus the S-pair fixpoint
criterion, and `sympy.groebner` on homogeneous ideals. Oracle for the
heap-ordered `normal_form`: the term-by-term division algorithm, kept
here as `reference_normal_form`. Oracle for syzygy completeness:
degreewise linear algebra, comparing the span of the computed syzygies
against the kernel of the multiplication matrix in each degree.
"""

import random
from fractions import Fraction

import pytest

from levelcert.linalg import Mat, PrimeField, QQ
from levelcert.poly import (PolyVec, grevlex_key, lead_key,
                            monomials_of_degree, mono_div, parse_poly, pot_key)
from levelcert.grobner import BudgetExceeded, buchberger, normal_form, syzygies

F2 = PrimeField(2)
F5 = PrimeField(5)
F101 = PrimeField(101)


def P(field, varnames, text):
    return parse_poly(field, varnames, text)


def vec(*polys):
    """Column vector with the polynomial polys[i] in component i."""
    return PolyVec(polys[0].field, polys[0].nvars,
                   {(i, m): c for i, p in enumerate(polys) for (_, m), c in p.terms.items()})


def component(v, j):
    """Component j of v as a polynomial."""
    return PolyVec(v.field, v.nvars, {(0, m): c for (i, m), c in v.terms.items() if i == j})


def oracle_reduce(v, basis):
    """Independent divisor order: scan basis from the end."""
    rem = PolyVec.zero(v.field, v.nvars)
    work = v
    while not work.is_zero():
        t, c = work.lead()
        hit = None
        for k in range(len(basis) - 1, -1, -1):
            (gc, gm), _ = basis[k].lead()
            if gc == t[0]:
                q = mono_div(t[1], gm)
                if q is not None:
                    hit = (k, q)
                    break
        if hit is None:
            piece = PolyVec(v.field, v.nvars, {t: c})
            rem = rem + piece
            work = work - piece
        else:
            k, q = hit
            work = work - basis[k].mul_mono(q, c)
    return rem


def reference_normal_form(v, basis):
    """Division by a list of monic PolyVecs, one term at a time: take the
    largest term left (by pot_key), divide it by the first basis element
    whose lead divides it, and rebuild the rest. Returns (rem, quots)."""
    field, nvars = v.field, v.nvars
    leads = [max(g.terms, key=pot_key) for g in basis]
    work = v
    rem = PolyVec.zero(field, nvars)
    quots = [PolyVec.zero(field, nvars) for _ in basis]
    while not work.is_zero():
        t = max(work.terms, key=pot_key)
        c = work.terms[t]
        for k, (gc, gm) in enumerate(leads):
            q = mono_div(t[1], gm) if gc == t[0] else None
            if q is not None:
                work = work - basis[k].mul_mono(q, c)
                quots[k] = quots[k] + PolyVec(field, nvars, {(0, q): c})
                break
        else:
            piece = PolyVec(field, nvars, {t: c})
            rem = rem + piece
            work = work - piece
    return rem, quots


def oracle_is_gb(basis):
    """Every same-component S-pair reduces to zero under the oracle reducer."""
    from levelcert.poly import mono_lcm
    for j in range(len(basis)):
        for i in range(j):
            (ci, mi), _ = basis[i].lead()
            (cj, mj), _ = basis[j].lead()
            if ci != cj:
                continue
            lcm = mono_lcm(mi, mj)
            s = (basis[i].mul_mono(mono_div(lcm, mi))
                 - basis[j].mul_mono(mono_div(lcm, mj)))
            if not oracle_reduce(s, basis).is_zero():
                return False
    return True


def test_grevlex_order_frozen():
    x2 = (2, 0)
    xy = (1, 1)
    y2 = (0, 2)
    assert grevlex_key(x2) > grevlex_key(xy) > grevlex_key(y2)
    seq3 = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [grevlex_key(m) for m in seq3]
    assert keys == sorted(keys, reverse=True)
    assert monomials_of_degree(3, 2) == seq3


def test_pot_low_component_dominates():
    assert pot_key((0, (0, 0))) > pot_key((1, (5, 5)))
    assert pot_key((1, (1, 0))) > pot_key((1, (0, 1)))


def test_poly_parse_and_arithmetic():
    vars3 = ["x", "y", "z"]
    p = P(F101, vars3, "x^2 - y*z + 3")
    assert p.terms == {(0, (2, 0, 0)): 1, (0, (0, 1, 1)): 100, (0, (0, 0, 0)): 3}
    # reparse of the printed form gives the same polynomial
    assert p.component_text(0, vars3) == "x^2 + 100*y*z + 3"
    assert P(F101, vars3, p.component_text(0, vars3)) == p
    x = PolyVec.variable(QQ, 2, 0)
    y = PolyVec.variable(QQ, 2, 1)
    sq = (x + y).mul_poly(x + y)
    assert sq == P(QQ, ["x", "y"], "x^2 + 2*x*y + y^2")
    x2 = PolyVec.variable(F2, 2, 0)
    y2v = PolyVec.variable(F2, 2, 1)
    assert (x2 + y2v).mul_poly(x2 + y2v) == P(F2, ["x", "y"], "x^2 + y^2")


def test_public_constructors_reduce_coefficients():
    one = (1, 0)
    assert PolyVec(F101, 2, {(0, one): 202}).is_zero()
    assert PolyVec(F101, 2, {(0, one): Fraction(1, 2)}).terms == {(0, one): 51}
    u, w = PolyVec(F101, 2, {(0, one): -1}), PolyVec(F101, 2, {(0, one): 100})
    assert u == w and hash(u) == hash(w) and (u - w).is_zero()
    assert PolyVec(F101, 2, {(1, one): 101}).is_zero()
    # over Q the coefficients become Fractions
    q = PolyVec(QQ, 2, {(0, one): 2})
    assert q == PolyVec(QQ, 2, {(0, one): Fraction(2)})
    assert type(q.terms[(0, one)]) is Fraction


def test_polyvec_homogeneous_degree_with_twists():
    x = P(F5, ["x", "y"], "x")
    one = P(F5, ["x", "y"], "1")
    v = vec(x, one)
    assert v.homogeneous_degree([0, 0]) is None
    assert v.homogeneous_degree([0, 1]) == 1


def test_normal_form_frozen():
    vars1 = ["x", "y"]
    g = vec(P(F101, vars1, "x^2 - y"))
    v = vec(P(F101, vars1, "x^3"))
    rem, quots = normal_form(v, [g], track=True)
    assert rem == vec(P(F101, vars1, "x*y"))
    assert quots[0] == P(F101, vars1, "x")
    # identity v = q*g + r
    assert (g.mul_poly(quots[0]) + rem) == v


def test_buchberger_frozen_small():
    vars1 = ["x", "y"]
    gb = buchberger([vec(P(F101, vars1, "x")), vec(P(F101, vars1, "y"))])
    # canonical order puts the smaller lead first
    assert [b.text(vars1) for b in gb.basis] == ["(y)", "(x)"]
    gb2 = buchberger([vec(P(F101, vars1, "x^2 - y"))])
    assert gb2.basis == [vec(P(F101, vars1, "x^2 - y"))]


def test_buchberger_produces_gb_and_membership():
    vars3 = ["x", "y", "z"]
    gens = [vec(P(F101, vars3, "x^2 - y*z")), vec(P(F101, vars3, "y^2 - x*z"))]
    gb = buchberger(gens)
    assert oracle_is_gb(gb.basis)
    # inputs reduce to zero, and tracked expressions reproduce the elements
    for i, f in enumerate(gens):
        assert gb.contains(f)
        expr = gb.express_in_inputs(f)
        total = PolyVec.zero(F101, 3)
        for j in range(len(gens)):
            total = total + gens[j].mul_poly(component(expr, j))
        assert total == f
    for t, b in enumerate(gb.basis):
        total = PolyVec.zero(F101, 3)
        for j in range(len(gens)):
            total = total + gens[j].mul_poly(component(gb.U[t], j))
        assert total == b
    # non-member
    assert not gb.contains(vec(P(F101, vars3, "x")))


def test_reduced_basis_is_canonical():
    vars1 = ["x", "y"]
    a = vec(P(F101, vars1, "x^2 - y"))
    b = vec(P(F101, vars1, "x*y - x"))
    gb1 = buchberger([a, b])
    gb2 = buchberger([b, a, b])
    assert gb1.basis == gb2.basis
    # reduced: no term of any element divisible by another lead
    for i, g in enumerate(gb1.basis):
        for j, h in enumerate(gb1.basis):
            if i == j:
                continue
            (cj, mj), _ = h.lead()
            for (ci, mi) in g.terms:
                assert not (ci == cj and mono_div(mi, mj) is not None)


def test_syzygies_koszul_frozen():
    vars1 = ["x", "y"]
    gens2 = [vec(P(F101, vars1, "x")), vec(P(F101, vars1, "y"))]
    syz2 = syzygies(gens2)
    target = PolyVec(F101, 2, {(0, (0, 1)): 1, (1, (1, 0)): 100})  # (y, -x)
    sgb = buchberger(syz2)
    assert sgb.contains(target)

    vars3 = ["x", "y", "z"]
    gens3 = [vec(P(F101, vars3, "x")), vec(P(F101, vars3, "y")),
             vec(P(F101, vars3, "z"))]
    syz3 = syzygies(gens3)
    sgb3 = buchberger(syz3)
    koszul = [
        PolyVec(F101, 3, {(0, (0, 1, 0)): 1, (1, (1, 0, 0)): 100}),
        PolyVec(F101, 3, {(0, (0, 0, 1)): 1, (2, (1, 0, 0)): 100}),
        PolyVec(F101, 3, {(1, (0, 0, 1)): 1, (2, (0, 1, 0)): 100}),
    ]
    for kv in koszul:
        assert sgb3.contains(kv)


def _syzygy_space_dims(gens, twists, d, field, nvars):
    """Kernel dimension of sum c_i gens[i] in degree d, by linear algebra."""
    degs = [g.homogeneous_degree(twists) for g in gens]
    col_monos = []
    for i, gd in enumerate(degs):
        if gd is None or d - gd < 0:
            col_monos.append((i, []))
        else:
            col_monos.append((i, monomials_of_degree(nvars, d - gd)))
    rank = max((g.max_component() for g in gens), default=-1) + 1
    row_index = {}
    for comp in range(rank):
        for m in monomials_of_degree(nvars, d - twists[comp]):
            row_index[(comp, m)] = len(row_index)
    cols = []
    for i, monos in col_monos:
        for m in monos:
            prod = gens[i].mul_mono(m)
            col = [0] * len(row_index)
            for t, c in prod.terms.items():
                col[row_index[t]] = c
            cols.append(col)
    if not cols:
        return 0, 0
    mat = Mat.from_rows(field, [[cols[j][r] for j in range(len(cols))]
                                for r in range(len(row_index))])
    ncols = len(cols)
    return ncols - mat.rank(), ncols


def _span_dim_in_degree(vectors, twists, d, field, nvars):
    """Dimension of the degree-d piece spanned by module generators."""
    cols = []
    row_index = {}
    rank = max((v.max_component() for v in vectors), default=-1) + 1
    for comp in range(rank):
        for m in monomials_of_degree(nvars, d - twists[comp]):
            row_index[(comp, m)] = len(row_index)
    for v in vectors:
        vd = v.homogeneous_degree(twists)
        if vd is None or d - vd < 0:
            continue
        for m in monomials_of_degree(nvars, d - vd):
            prod = v.mul_mono(m)
            col = [0] * len(row_index)
            ok = True
            for t, c in prod.terms.items():
                if t not in row_index:
                    ok = False
                    break
                col[row_index[t]] = c
            if ok:
                cols.append(col)
    if not cols:
        return 0
    mat = Mat.from_rows(field, [[cols[j][r] for j in range(len(cols))]
                                for r in range(len(row_index))])
    return mat.rank()


def test_syzygy_completeness_by_linear_algebra():
    vars3 = ["x", "y", "z"]
    gens = [vec(P(F5, vars3, "x")), vec(P(F5, vars3, "y")), vec(P(F5, vars3, "z"))]
    syz = syzygies(gens)
    twists_in = [1, 1, 1]  # component i carries the degree of gens[i]
    for d in range(1, 5):
        want, _ = _syzygy_space_dims(gens, [0], d, F5, 3)
        got = _span_dim_in_degree(syz, twists_in, d, F5, 3)
        assert got == want, (d, got, want)


def test_syzygies_random_property():
    rng = random.Random(11)
    vars2 = ["x", "y"]
    monos_by_deg = {d: monomials_of_degree(2, d) for d in range(4)}
    for trial in range(12):
        gens = []
        degs = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 2)
            terms = {}
            for m in monos_by_deg[d]:
                c = rng.randrange(5)
                if c:
                    terms[(0, m)] = c
            if not terms:
                terms[(0, monos_by_deg[d][0])] = 1
            gens.append(PolyVec(F5, 2, terms))
            degs.append(d)
        gb = buchberger(gens)
        assert oracle_is_gb(gb.basis)
        syz = syzygies(gens, gb=gb)
        # every reported syzygy really is one
        for s in syz:
            total = PolyVec.zero(F5, 2)
            for i in range(len(gens)):
                total = total + gens[i].mul_poly(component(s, i))
            assert total.is_zero()
        # completeness degreewise
        for d in range(1, 5):
            want, ncols = _syzygy_space_dims(gens, [0], d, F5, 2)
            got = _span_dim_in_degree(syz, degs, d, F5, 2)
            assert got == want, (trial, d, got, want)


def test_budget_exceeded_raises():
    vars3 = ["x", "y", "z"]
    gens = [vec(P(F101, vars3, "x^2 - y*z")), vec(P(F101, vars3, "y^2 - x*z")),
            vec(P(F101, vars3, "z^2 - x*y"))]
    # leads x^2, y^2, x*y: the coprime pair (x^2, y^2) is skipped, the
    # other two pairs are processed
    pairs_done = buchberger(gens).pairs_done
    assert pairs_done == 2
    assert buchberger(gens, budget=pairs_done).pairs_done == pairs_done
    with pytest.raises(BudgetExceeded):
        buchberger(gens, budget=pairs_done - 1)


def test_module_groebner_with_components():
    # submodule of R^2 over F5[x,y]: columns (x, y) and (y, x)
    vars1 = ["x", "y"]
    g1 = vec(P(F5, vars1, "x"), P(F5, vars1, "y"))
    g2 = vec(P(F5, vars1, "y"), P(F5, vars1, "x"))
    gb = buchberger([g1, g2])
    assert oracle_is_gb(gb.basis)
    assert gb.contains(g1 + g2.mul_poly(P(F5, vars1, "x*y")))
    assert not gb.contains(PolyVec.unit(F5, 2, 0))


def _coeff(field, rng):
    if field is QQ:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return rng.randrange(1, field.p)


def _random_vec(rng, field, nvars, rank, degs, nterms):
    terms = {}
    for _ in range(nterms):
        m = rng.choice(monomials_of_degree(nvars, rng.choice(degs)))
        terms[(rng.randrange(rank), m)] = _coeff(field, rng)
    return PolyVec(field, nvars, terms)


def _monic(g):
    return g.scale(g.field.inv(g.terms[max(g.terms, key=pot_key)]))


@pytest.mark.parametrize("field,nvars", [(F101, 3), (QQ, 2)], ids=["F101", "Q"])
def test_normal_form_matches_term_by_term_division(field, nvars, wall_bound):
    with wall_bound(60):
        _compare_with_reference_division(field, nvars)


def _compare_with_reference_division(field, nvars):
    for seed in range(25):
        rng = random.Random(500 + seed)
        rank = rng.randint(1, 3)
        basis = [_monic(_random_vec(rng, field, nvars, rank, [1, 2], rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 4))]
        v = _random_vec(rng, field, nvars, rank, [0, 1, 2, 3, 4], rng.randint(1, 10))
        rem, quots = normal_form(v, basis, track=True)
        ref_rem, ref_quots = reference_normal_form(v, basis)
        assert rem == ref_rem, seed
        assert quots == ref_quots, seed
        assert normal_form(v, basis) == rem
        total = rem
        for g, q in zip(basis, quots):
            total = total + g.mul_poly(q)
        assert total == v, seed
        leads = [g.lead()[0] for g in basis]
        for comp, m in rem.terms:
            assert not any(gc == comp and mono_div(m, gm) is not None
                           for gc, gm in leads), seed


def test_lead_is_the_largest_pot_term_and_is_kept():
    rng = random.Random(23)
    for _ in range(30):
        v = _random_vec(rng, F101, 3, 3, [0, 1, 2, 3], rng.randint(1, 8))
        t = max(v.terms, key=pot_key)
        assert v.lead() == (t, v.terms[t])
        assert v.lead() is v.lead()
        assert sorted(v.terms, key=lead_key) == sorted(v.terms, key=pot_key, reverse=True)


@pytest.mark.parametrize("field", [F101, QQ], ids=["GF101", "QQ"])
def test_buchberger_matches_sympy_groebner(field):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z")
    options = {"modulus": field.p} if field is F101 else {}

    def monic(terms):
        inv = field.inv(terms[max(terms, key=grevlex_key)])
        return frozenset((m, field.mul(c, inv)) for m, c in terms.items())

    for seed in range(6):
        rng = random.Random(700 + seed)
        polys = []
        for _ in range(rng.randint(2, 3)):
            monos = monomials_of_degree(3, rng.randint(2, 3))
            polys.append(PolyVec(field, 3, {(0, m): _coeff(field, rng)
                                            for m in rng.sample(monos, rng.randint(2, 4))}))
        gb = buchberger(polys)
        ours = {monic({m: c for (_, m), c in b.terms.items()}) for b in gb.basis}
        exprs = [sympy.Add(*[sympy.Rational(str(c)) * sympy.Mul(*[x ** e for x, e in zip(gens, m)])
                             for (_, m), c in p.terms.items()]) for p in polys]
        theirs = set()
        for g in sympy.groebner(exprs, *gens, order="grevlex", **options).exprs:
            terms = {m: field.of(Fraction(str(c)))
                     for m, c in sympy.Poly(g, *gens, **options).terms()}
            theirs.add(monic(terms))
        assert ours == theirs, seed
