"""Sanity checks for the exact matrix layer.

Ranks and kernels are cross-checked against brute-force oracles that never
touch the row-reduction code under test: minor enumeration for ranks,
vector enumeration over F_2 for kernels.
"""

import gc
import math
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from levelcert.linalg import (
    LinalgError, Mat, PrimeField, QQ, block_diag, extend_to_basis,
    full_rank_combination, hstack, parse_field, parse_scalar, subspace_basis,
    vstack,
)

F2 = PrimeField(2)
F5 = PrimeField(5)
F101 = PrimeField(101)


def oracle_rank_by_minors(field, rows):
    """Rank as the largest r with a nonvanishing r x r minor (Laplace)."""
    n, m = len(rows), len(rows[0]) if rows else 0

    def det(sub):
        if not sub:
            return field.one
        total = field.zero
        for j in range(len(sub)):
            minor = [r[:j] + r[j + 1:] for r in sub[1:]]
            term = field.mul(sub[0][j], det(minor))
            total = field.add(total, term) if j % 2 == 0 else field.sub(total, term)
        return total

    best = 0
    for r in range(1, min(n, m) + 1):
        found = False
        for ri in itertools.combinations(range(n), r):
            for ci in itertools.combinations(range(m), r):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if not field.is_zero(det(sub)):
                    found = True
                    break
            if found:
                break
        if found:
            best = r
        else:
            break
    return best


def oracle_kernel_f2(rows, ncols):
    """All kernel vectors of an F_2 matrix by enumeration."""
    out = []
    for vec in itertools.product([0, 1], repeat=ncols):
        if all(sum(r[j] * vec[j] for j in range(ncols)) % 2 == 0 for r in rows):
            out.append(vec)
    return set(out)


def test_rank_all_ones_f2():
    A = Mat.from_rows(F2, [[1, 1], [1, 1]])
    assert A.rank() == 1
    assert A.rank() == oracle_rank_by_minors(F2, [[1, 1], [1, 1]])


def test_kernel_f2_line():
    A = Mat.from_rows(F2, [[1, 1]])
    K = A.kernel_basis()
    assert K.ncols == 1
    assert K.col_entries(0) == [1, 1]
    spanned = {(0, 0), (1, 1)}
    assert oracle_kernel_f2([[1, 1]], 2) == spanned


def test_solve_q():
    A = Mat.from_rows(QQ, [[1, 2], [3, 4]])
    b = Mat.column(QQ, [5, 6])
    X = A.solve(b)
    assert X is not None
    assert A @ X == b
    assert X.col_entries(0) == [Fraction(-4), Fraction(9, 2)]


def test_solve_inconsistent_is_none():
    A = Mat.from_rows(F5, [[1, 2], [2, 4]])
    b = Mat.column(F5, [0, 1])
    assert A.solve(b) is None


def test_inverse_roundtrip():
    A = Mat.from_rows(F101, [[2, 1, 0], [1, 1, 1], [0, 3, 1]])
    Ainv = A.inverse()
    assert Ainv is not None
    assert A @ Ainv == Mat.identity(F101, 3)
    assert Ainv @ A == Mat.identity(F101, 3)
    singular = Mat.from_rows(F101, [[1, 2], [2, 4]])
    assert singular.inverse() is None


def test_empty_shapes():
    A = Mat.zeros(F2, 0, 3)
    assert A.rank() == 0
    K = A.kernel_basis()
    assert K.shape == (3, 3)
    B = Mat.zeros(F2, 3, 0)
    assert B.kernel_basis().shape == (0, 0)
    assert B.rank() == 0
    assert (A @ Mat.zeros(F2, 3, 2)).shape == (0, 2)


def test_rref_pivot_rule_is_lowest_row_then_column():
    # first pivot must come from row 0 even though row 1 also works
    A = Mat.from_rows(F5, [[0, 2, 1], [3, 1, 0]])
    R, pivots = A.rref()
    assert pivots == (0, 1)
    assert R.entry(0, 0) == 1 and R.entry(1, 1) == 1


@pytest.mark.parametrize("field", [F2, F5, F101, QQ])
def test_kernel_and_solve_randomized(field):
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        if field is QQ:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        else:
            rows = [[rng.randrange(field.p) for _ in range(m)] for _ in range(n)]
        A = Mat.from_rows(field, rows) if n else Mat.zeros(field, 0, m)
        K = A.kernel_basis()
        assert (A @ K).is_zero()
        assert K.rank() == K.ncols
        assert A.rank() + K.ncols == m
        # exact ranks against the minor oracle on small instances
        if n and m and n <= 4 and m <= 4:
            assert A.rank() == oracle_rank_by_minors(field, A.to_lists())
        X = A.solve(Mat.zeros(field, n, 1))
        assert X is not None and (A @ X).is_zero()


def test_kernel_matches_enumeration_f2():
    rng = random.Random(3)
    for _ in range(25):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[rng.randrange(2) for _ in range(m)] for _ in range(n)]
        A = Mat.from_rows(F2, rows)
        K = A.kernel_basis()
        brute = oracle_kernel_f2(rows, m)
        spanned = set()
        for coeffs in itertools.product([0, 1], repeat=K.ncols):
            v = [0] * m
            for j, c in enumerate(coeffs):
                if c:
                    v = [(a + b) % 2 for a, b in zip(v, K.col_entries(j))]
            spanned.add(tuple(v))
        assert spanned == brute


def test_determinism_same_input_same_output():
    rows = [[4, 1, 3], [2, 0, 1], [1, 1, 1]]
    a = Mat.from_rows(F5, rows)
    b = Mat.from_rows(F5, rows)
    assert a.rref()[0].to_lists() == b.rref()[0].to_lists()
    assert a.kernel_basis().to_lists() == b.kernel_basis().to_lists()


def test_stack_and_blockdiag():
    A = Mat.identity(F2, 2)
    B = Mat.from_rows(F2, [[1, 1], [0, 1]])
    H = hstack([A, B])
    assert H.shape == (2, 4)
    V = vstack([A, B])
    assert V.shape == (4, 2)
    D = block_diag(F2, [A, B])
    assert D.shape == (4, 4)
    assert D.entry(2, 2) == 1 and D.entry(0, 3) == 0


def test_subspace_and_extension_helpers():
    v1 = Mat.column(F5, [1, 2, 0])
    v2 = Mat.column(F5, [2, 4, 0])
    basis = subspace_basis([v1, v2])
    assert basis.ncols == 1
    ext = extend_to_basis(F5, basis)
    assert len(ext) == 2
    full = hstack([basis] + [Mat.column(F5, [1 if i == j else 0 for i in range(3)])
                             for j in ext])
    assert full.rank() == 3


def greedy_extension(field, U):
    """Reference: keep e_j when it raises the rank of U and the e's kept."""
    n = U.nrows
    cur, chosen = U, []
    for j in range(n):
        e = Mat.column(field, [field.one if i == j else field.zero
                               for i in range(n)])
        if hstack([cur, e]).rank() > cur.rank():
            cur = hstack([cur, e])
            chosen.append(j)
    return chosen


@pytest.mark.parametrize("field", [F2, F101, QQ])
def test_extend_to_basis_matches_greedy_definition(field):
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(0, 6), rng.randint(0, 4)
        # entries in {0, 1, 2} make dependent columns and zero rows common
        rows = [[field.of(rng.choice([0, 0, 1, 2])) for _ in range(m)]
                for _ in range(n)]
        U = Mat.from_rows(field, rows) if n and m else Mat.zeros(field, n, m)
        ext = extend_to_basis(field, U)
        assert ext == greedy_extension(field, U)
        assert U.rank() + len(ext) == n


def test_field_parsing():
    assert parse_field("F101").p == 101
    assert parse_field("Q") == QQ
    assert parse_scalar(QQ, "3/2") == Fraction(3, 2)
    assert parse_scalar(PrimeField(7), "-1") == 6
    with pytest.raises(Exception):
        parse_field("F4")


# ------------------------------------------------ full-rank combinations


def _skew_basis(field):
    rows = [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, -1, 0]]]
    return [Mat.from_rows(field, r) for r in rows]


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_full_rank_skew_symmetric_needs_the_grid(field):
    # together the three span every row, yet an odd skew-symmetric
    # matrix is singular, so only the grid search can answer "none"
    mats = _skew_basis(field)
    assert hstack(mats).rank() == 3
    verdict, reason = full_rank_combination(field, [mats])
    assert verdict == "none"
    assert "grid" in reason


def test_full_rank_diagonal_span_needs_both_coefficients():
    e11 = Mat.from_rows(F101, [[1, 0], [0, 0]])
    e22 = Mat.from_rows(F101, [[0, 0], [0, 1]])
    verdict, c = full_rank_combination(F101, [[e11, e22]])
    assert verdict == "found"
    assert all(x != 0 for x in c)
    assert (e11.scale(c[0]) + e22.scale(c[1])).rank() == 2


def test_full_rank_proper_span_is_a_linear_obstruction():
    # both blocks: the second only ever reaches the first row
    good = [Mat.from_rows(F101, [[1, 0], [0, 1]]),
            Mat.from_rows(F101, [[0, 1], [1, 0]])]
    flat = [Mat.from_rows(F101, [[1, 2], [0, 0]]),
            Mat.from_rows(F101, [[3, 0], [0, 0]])]
    verdict, reason = full_rank_combination(F101, [good, flat])
    assert verdict == "none"
    assert reason.startswith("block 1")


def _random_span(rng, kind, r, d):
    p = F101.p

    def rand(n, m):
        return [[rng.randrange(p) for _ in range(m)] for _ in range(n)]

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) % p
                 for col in zip(*b)] for row in a]

    if kind == "generic":
        return [rand(r, r) for _ in range(d)]
    if kind == "skew":
        out = []
        for _ in range(d):
            a = rand(r, r)
            out.append([[(a[i][j] - a[j][i]) % p for j in range(r)]
                        for i in range(r)])
        return out
    # "low": every matrix factors through one rank r - 1 map on the right,
    # so all combinations are singular while the rows may still span
    right = rand(r - 1, r)
    return [mul(rand(r, r - 1), right) for _ in range(d)]


def test_full_rank_against_symbolic_determinant():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    seen = set()
    for trial in range(60):
        r, d = rng.randint(1, 3), rng.randint(1, 3)
        kind = rng.choice(["generic", "skew", "low"] if r > 1
                          else ["generic"])
        rows = _random_span(rng, kind, r, d)
        mats = [Mat.from_rows(F101, m) for m in rows]
        verdict, out = full_rank_combination(F101, [mats])
        seen.add(verdict)
        cs = sympy.symbols(f"c0:{d}")
        total = sum((c * sympy.Matrix(m) for c, m in zip(cs, rows)),
                    sympy.zeros(r, r))
        if verdict == "none":
            # r < 101, so a polynomial of degree r vanishing on F101^d
            # vanishes identically
            det = sympy.Poly(sympy.expand(total.det()), *cs,
                             modulus=F101.p)
            assert det.is_zero, (trial, kind, rows)
        else:
            assert verdict == "found", (trial, kind, rows)
            assert any(x != 0 for x in out)
            witness = total.subs(dict(zip(cs, out)))
            assert witness.det() % F101.p != 0, (trial, kind, rows)
    assert seen == {"found", "none"}


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_ragged_rows_are_a_linalg_error(field):
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]]):
        with pytest.raises(LinalgError):
            Mat.from_rows(field, rows)


def test_chunked_product_near_the_largest_prime():
    # (p - 1)^2 is close to 2**62, so every inner index is its own chunk
    p = 2147483647
    F = PrimeField(p)
    rng = random.Random(31)
    a = [[rng.randrange(p) for _ in range(5)] for _ in range(3)]
    b = [[rng.randrange(p) for _ in range(4)] for _ in range(5)]
    want = [[sum(a[i][t] * b[t][j] for t in range(5)) % p for j in range(4)]
            for i in range(3)]
    assert (Mat.from_rows(F, a) @ Mat.from_rows(F, b)).to_lists() == want


@pytest.mark.parametrize("p, inner", [(2147483647, 1), (2147483647, 2),
                                      (2147483647, 3), (2, 4099)])
def test_products_at_the_chunk_boundary(p, inner):
    # at p = 2**31 - 1 an inner dimension of 1 is one chunk and 2 and 3
    # are cut into chunks of 1; over F2 no inner dimension needs chunks
    F = PrimeField(p)
    rng = random.Random(31)
    a = [[rng.randrange(p) for _ in range(inner)] for _ in range(3)]
    b = [[rng.randrange(p) for _ in range(4)] for _ in range(inner)]
    a[0] = [p - 1] * inner  # the largest products and sums
    b = [[p - 1] + row[1:] for row in b]
    want = [[sum(a[i][t] * b[t][j] for t in range(inner)) % p
             for j in range(4)] for i in range(3)]
    assert (Mat.from_rows(F, a) @ Mat.from_rows(F, b)).to_lists() == want


def _random_rows(rng, field, n, m, rank):
    """n x m entries of rank at most `rank`: a product through k^rank."""
    def entry():
        if field is QQ:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.randrange(field.p)
    left = [[entry() for _ in range(rank)] for _ in range(n)]
    right = [[entry() for _ in range(m)] for _ in range(rank)]
    return [[sum((left[i][t] * right[t][j] for t in range(rank)), 0)
             for j in range(m)] for i in range(n)]


def _sympy_rref(field, mat):
    """(entries, pivots) of the rref of mat, computed by sympy."""
    matrices = pytest.importorskip("sympy.polys.matrices")
    domains = pytest.importorskip("sympy.polys.domains")
    if field is QQ:
        dom = domains.QQ
        to_dom = lambda x: dom(x.numerator, x.denominator)  # noqa: E731
        back = lambda x: Fraction(int(x.numerator), int(x.denominator))  # noqa: E731
    else:
        dom = domains.GF(field.p)
        to_dom = dom
        back = lambda x: int(x) % field.p  # noqa: E731
    dm = matrices.DomainMatrix([[to_dom(x) for x in row]
                                for row in mat.to_lists()], mat.shape, dom)
    r, pivots = dm.rref()
    return [[back(x) for x in row] for row in r.to_list()], tuple(pivots)


SHAPES = [(0, 4, 0), (4, 0, 0), (0, 0, 0), (1, 1, 1), (3, 5, 2), (5, 3, 3),
          (6, 6, 3), (4, 7, 4), (7, 4, 1), (5, 5, 0)]


@pytest.mark.parametrize("field", [F2, F101, QQ], ids=["F2", "F101", "Q"])
def test_rref_matches_sympy(field):
    pytest.importorskip("sympy")
    rng = random.Random(field.name)
    for n, m, rank in SHAPES + [(rng.randint(1, 8), rng.randint(1, 8),
                                 rng.randint(0, 4)) for _ in range(20)]:
        A = Mat.from_rows(field, _random_rows(rng, field, n, m, rank)) \
            if n else Mat.zeros(field, 0, m)
        assert A.shape == (n, m)
        R, pivots = A.rref()
        want, want_pivots = _sympy_rref(field, A)
        assert pivots == want_pivots, (n, m, rank)
        assert R.to_lists() == want, (n, m, rank)
        if field is QQ:
            assert all(type(x) is Fraction for row in want for x in row)


def _entries_are_fractions(M):
    return all(type(x) is Fraction for row in M.to_lists() for x in row)


def test_rational_results_hold_fractions():
    A = Mat.from_rows(QQ, [[1, 2, 3], [2, 4, 6]])
    empty_product = Mat.zeros(QQ, 2, 0) @ Mat.zeros(QQ, 0, 3)
    assert empty_product.shape == (2, 3) and empty_product.is_zero()
    nothing = A.take_rows([])
    assert nothing.shape == (0, 3)
    assert A.take_columns([]).shape == (2, 0)
    K = A.kernel_basis()
    assert K.shape == (3, 2) and (A @ K).is_zero()
    for M in (Mat.zeros(QQ, 2, 3), Mat.identity(QQ, 3), empty_product,
              A.kron(A), K, A.rref()[0], A @ A.transpose(), -A, A.scale(3),
              A - A, A + A, block_diag(QQ, [A, A]), A.take_rows([1, 0]),
              A.solve(A.take_columns([2])), Mat.column(QQ, [1, 2])):
        assert _entries_are_fractions(M), M


def test_constructor_converts_list_entries():
    # list data goes through field.of, like from_rows and column
    assert Mat(F5, 1, 1, [[Fraction(1, 2)]]).to_lists() == [[3]]
    assert all(type(x) is Fraction
               for x in Mat(QQ, 1, 2, [[1, 2]]).to_lists()[0])


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_from_triples_sums_repeated_positions(field):
    one, three = field.of(1), field.of(3)
    m = Mat.from_triples(field, 2, 3, [(0, 2, three), (1, 0, one),
                                       (0, 2, three)])
    assert m == Mat.from_rows(field, [[0, 0, 6], [1, 0, 0]])
    assert Mat.from_triples(field, 2, 0, []).shape == (2, 0)


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_matrix_data_is_one_read_only_array(field):
    A = Mat.from_rows(field, [[1, 200], [-1, 3]])
    for M in (A, A @ A, A.kron(A), A.rref()[0], A.kernel_basis(),
              A.take_rows([1]), A.take_columns([1, 1, 0]), A.transpose(),
              hstack([A, A]), vstack([A, A.take_rows([])]),
              block_diag(field, [A, A]), A.inverse(), Mat.identity(field, 2),
              Mat.identity(field, 0), Mat.units(field, 3, [2, 0]),
              Mat.units(field, 3, [1], axis=0), Mat.zeros(field, 2, 3),
              A - A, A.scale(2), -A, A.reshape(1, 4), A.block_transpose(1),
              Mat.from_triples(field, 2, 2, [(0, 1, field.of(3))]),
              Mat(field, 1, 2, [[1, 2]]), A.solve(A.take_columns([0]))):
        assert M._a.dtype == field.dtype
        assert M._a.shape == M.shape
        assert not M._a.flags.writeable
        if field is F101:
            assert ((M._a >= 0) & (M._a < 101)).all()
    with pytest.raises(ValueError):
        A._a[0, 0] = 5


def test_array_operations_agree_with_their_definitions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        field = draw(st.sampled_from([F2, F101, QQ]))
        n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        entries = (st.fractions(-3, 3, max_denominator=6) if field is QQ
                   else st.integers(-3, 3))
        rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                             min_size=n, max_size=n))
        return Mat.from_rows(field, rows) if n else Mat.zeros(field, 0, m)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(matrices())
    def check(A):
        n, m = A.shape
        K = A.kernel_basis()
        assert A.rank() + K.ncols == m and (A @ K).is_zero()
        T = A.transpose()
        assert T.shape == (m, n) and T.transpose() == A
        assert all(T.entry(j, i) == A.entry(i, j)
                   for i in range(n) for j in range(m))
        assert A.kron(Mat.identity(A.field, 2)).shape == (2 * n, 2 * m)
        assert vstack([A.take_rows(range(i, i + 1)) for i in range(n)]
                      + [A.take_rows([])]) == A
        X = A.solve(A)
        assert X is not None and A @ X == A

    check()


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "Q"])
def test_dropped_eliminations_need_no_cycle_collector(field):
    # a solve eliminates a temporary [A | b]; its cached rref must not
    # form a reference cycle, or each elimination's arrays stay alive
    # until the cycle collector runs
    A = Mat.from_rows(field, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    b = Mat.column(field, [1, 2, 3])
    gc.collect()
    gc.disable()
    try:
        assert A.solve(b) is not None
        assert hstack([A, b]).rref()[1] == (0, 1, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------- integer kernels over Q
#
# Products and row reduction over Q run on Python ints. The references
# below compute the same results with plain Fraction arithmetic: an
# object array product, and elimination that scales the pivot row to 1
# and subtracts Fraction multiples of it.


def _fraction_array(rows, ncols):
    return np.array(rows, dtype=object).reshape(len(rows), ncols)


def _fraction_product(A, B):
    a = _fraction_array(A.to_lists(), A.ncols)
    b = _fraction_array(B.to_lists(), B.ncols)
    if A.ncols == 0:
        return [[Fraction(0)] * B.ncols for _ in range(A.nrows)]
    return (a @ b).tolist()


def _fraction_rref(A):
    a = _fraction_array(A.to_lists(), A.ncols)
    pivots = []
    for c in range(A.ncols):
        r = len(pivots)
        if r == A.nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * (1 / a[r, c])
        mask = a[:, c] != 0
        mask[r] = False
        if mask.any():
            a[mask, c:] = a[mask, c:] - np.outer(a[mask, c], a[r, c:])
        pivots.append(c)
    return a.tolist(), tuple(pivots)


def _q_entry(rng, big):
    if big:
        return Fraction(rng.randrange(-2**70, 2**70), rng.randrange(1, 2**70))
    if rng.random() < 0.4:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def _q_matrix(rng, n, m, big=False):
    return Mat(QQ, n, m, [[_q_entry(rng, big) for _ in range(m)]
                          for _ in range(n)])


def _assert_same_fractions(got, want):
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)


@pytest.mark.parametrize("big", [False, True], ids=["small", "above-2**64"])
def test_q_product_matches_fraction_reference(big):
    rng = random.Random(f"product-{big}")
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1),
              (3, 4, 5), (5, 2, 4)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
               for _ in range(15)]
    for n, k, m in shapes:
        A, B = _q_matrix(rng, n, k, big), _q_matrix(rng, k, m, big)
        _assert_same_fractions((A @ B).to_lists(), _fraction_product(A, B))
    # integer factors skip the division; one denominator is enough not to
    x = Mat(QQ, 1, 2, [[3, -2**65]])
    y = Mat(QQ, 2, 1, [[5], [Fraction(1, 2**66)]])
    assert (x @ y).to_lists() == [[Fraction(29, 2)]]
    assert (y @ x).to_lists() == [[15, -5 * 2**65],
                                  [Fraction(3, 2**66), Fraction(-1, 2)]]


@pytest.mark.parametrize("big", [False, True], ids=["small", "above-2**64"])
def test_q_rref_matches_fraction_reference(big):
    rng = random.Random(f"rref-{big}")
    shapes = [(0, 3, 0), (3, 0, 0), (1, 1, 1), (4, 6, 2), (6, 4, 3),
              (5, 5, 5)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4))
               for _ in range(25)]
    for n, m, rank in shapes:
        # a product through Q^rank, so the rank is often below min(n, m)
        A = _q_matrix(rng, n, rank, big) @ _q_matrix(rng, rank, m, big)
        R, pivots = A.rref()
        want, want_pivots = _fraction_rref(A)
        assert pivots == want_pivots, (n, m, rank)
        _assert_same_fractions(R.to_lists(), want)
    _assert_same_fractions(Mat.zeros(QQ, 1, 1).rref()[0].to_lists(),
                           [[Fraction(0)]])


def test_q_rref_scales_whole_rows():
    # row 0 keeps the entry 2 in the non-pivot column 1 when column 2 is
    # cleared with the pivot 3 of row 1: cross-multiplying by that pivot
    # must scale column 1 of row 0 too
    A = Mat(QQ, 2, 4, [[1, 2, 5, 0], [0, 0, 3, 1]])
    R, pivots = A.rref()
    assert pivots == (0, 2)
    assert R.to_lists() == [[1, 2, 0, Fraction(-5, 3)],
                            [0, 0, 1, Fraction(1, 3)]]
    _assert_same_fractions(R.to_lists(), _fraction_rref(A)[0])
    b = Mat.column(QQ, [1, 2])
    X = A.solve(b)
    assert X.col_entries(0) == [Fraction(-7, 3), 0, Fraction(2, 3), 0]
    assert A @ X == b


def test_rearranging_constructors_keep_entries_reduced():
    # these skip field.reduce, since they only move reduced entries
    rng = random.Random("rearrange")
    F7 = PrimeField(7)
    a = Mat(F7, 4, 6, [[rng.randint(-20, 20) for _ in range(6)]
                       for _ in range(4)])
    b = Mat(F7, 4, 6, [[rng.randint(-20, 20) for _ in range(6)]
                       for _ in range(4)])
    built = [a.take_rows([3, 0, 0]), a.take_columns([5, 1]), a.col(2),
             a.reshape(6, 4), a.block_transpose(2), hstack([a, b]),
             vstack([a, b]), Mat.identity(F7, 3), Mat.zeros(F7, 2, 3),
             block_diag(F7, [a, b])]
    for m in built:
        entries = np.asarray(m.to_lists()).ravel()
        assert ((entries >= 0) & (entries < 7)).all(), m


def test_constructor_reduces_array_data():
    assert Mat(F5, 1, 1, np.array([[7]])).entry(0, 0) == 2
    assert Mat(F5, 1, 2, np.array([[-1, 12]])).to_lists() == [[4, 2]]


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_block_transpose_moves_blocks_not_entries(field):
    # a 2 x 3 grid of 2 x 2 blocks; block (i, j) holds 10 * i + j in its
    # top left corner and 1 below it, so a transposed block would show
    blocks = [[Mat.from_rows(field, [[10 * i + j, 0], [1, 0]])
               for j in range(3)] for i in range(2)]
    m = vstack([hstack(row) for row in blocks])
    t = m.block_transpose(2)
    assert t.shape == (6, 4)
    assert t == vstack([hstack([blocks[i][j] for i in range(2)])
                        for j in range(3)])
    assert t.block_transpose(2) == m
    assert Mat.zeros(field, 0, 4).block_transpose(2).shape == (4, 0)


# ------------------------------------ Q matrices over one denominator
#
# A Q matrix holds Python ints over one positive denominator, in lowest
# terms. Every operation is checked against a reference on plain lists
# of Fractions that shares no code with linalg, and every result must be
# in that canonical form.


def _ref_mul(a, b, inner, width):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(width)] for i in range(len(a))]


def _ref_rref(rows, ncols, field=QQ):
    """(reduced rows, pivots) by row operations on lists of field
    elements (Fractions over Q): the pivot row is scaled to 1 and its
    multiples subtracted, lowest row index first."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(x, inv) for x in a[r]]
        for k in range(len(a)):
            if k != r and a[k][c]:
                t = a[k][c]
                a[k] = [field.sub(x, field.mul(t, y))
                        for x, y in zip(a[k], a[r])]
        pivots.append(c)
    return a, tuple(pivots)


def _ref_kernel(rows, ncols):
    """The canonical kernel basis as columns: one per free column f,
    e_f minus the entries of column f of the rref at the pivots."""
    R, pivots = _ref_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    cols = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -R[k][f]
        cols.append(v)
    return [[cols[j][i] for j in range(len(free))] for i in range(ncols)]


def _ref_solve(a, b, n, m):
    """The solution X (n x m) of a X = b with free variables zero, or
    None."""
    R, pivots = _ref_rref([ra + rb for ra, rb in zip(a, b)], n + m)
    if pivots and pivots[-1] >= n:
        return None
    x = [[Fraction(0)] * m for _ in range(n)]
    for k, p in enumerate(pivots):
        x[p] = R[k][n:]
    return x


def _ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _canonical(M):
    """M holds Python ints over a positive denominator, in lowest terms."""
    flat = M._a.ravel().tolist()
    return (all(type(x) is int for x in flat) and M._den >= 1
            and math.gcd(M._den, *flat) == 1)


def _q_oracle_entry(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def _q_oracle_matrix(rng, n, m):
    """Seeded n x m entries with denominators up to 12, and with zero
    rows and columns more often than chance gives them."""
    rows = [[_q_oracle_entry(rng) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.2:
            rows[i] = [Fraction(0)] * m
    for j in range(m):
        if rng.random() < 0.2:
            for row in rows:
                row[j] = Fraction(0)
    return rows


def _check(M, want, shape=None):
    assert _canonical(M), M
    assert M.shape == (shape or (len(want), len(want[0]) if want else 0))
    got = M.to_lists()
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)


def _draw_shapes(rng, count):
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    return shapes + [(rng.randint(1, 5), rng.randint(1, 5))
                     for _ in range(count)]


def test_q_operations_match_fraction_lists():
    rng = random.Random("q-oracle")
    for n, m in _draw_shapes(rng, 40):
        a, b = _q_oracle_matrix(rng, n, m), _q_oracle_matrix(rng, n, m)
        A, B = Mat(QQ, n, m, a), Mat(QQ, n, m, b)
        _check(A, a, (n, m))
        _check(A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)],
               (n, m))
        _check(A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)],
               (n, m))
        _check(A - A, [[Fraction(0)] * m for _ in range(n)], (n, m))
        assert (A - A)._den == 1
        _check(-A, [[-x for x in r] for r in a], (n, m))
        for c in (Fraction(0), Fraction(-7, 4), Fraction(5), 3):
            _check(A.scale(c), [[x * c for x in r] for r in a], (n, m))
        _check(A.transpose(),
               [[a[i][j] for i in range(n)] for j in range(m)], (m, n))
        flat = [x for r in a for x in r]
        if n * m:
            _check(A.reshape(m, n),
                   [flat[i * n:(i + 1) * n] for i in range(m)], (m, n))
        ri = [rng.randrange(n) for _ in range(rng.randint(0, 3))] if n else []
        cj = [rng.randrange(m) for _ in range(rng.randint(0, 3))] if m else []
        _check(A.take_rows(ri), [a[i] for i in ri], (len(ri), m))
        _check(A.take_columns(cj), [[r[j] for j in cj] for r in a],
               (n, len(cj)))
        k = rng.randint(0, 4)
        c = _q_oracle_matrix(rng, m, k)
        _check(A @ Mat(QQ, m, k, c), _ref_mul(a, c, m, k), (n, k))
        c2 = _q_oracle_matrix(rng, rng.randint(0, 2), rng.randint(0, 2))
        C2 = Mat(QQ, len(c2), len(c2[0]) if c2 else 0, c2)
        _check(A.kron(C2), _ref_kron(a, c2),
               (n * C2.nrows, m * C2.ncols))
        d = _q_oracle_matrix(rng, n, k)
        D = Mat(QQ, n, k, d)
        _check(hstack([A, D, B]), [r + s + t for r, s, t in zip(a, d, b)],
               (n, 2 * m + k))
        e = _q_oracle_matrix(rng, k, m)
        _check(vstack([A, Mat(QQ, k, m, e)]), a + e, (n + k, m))
        _check(block_diag(QQ, [A, D]),
               [r + [Fraction(0)] * k for r in a]
               + [[Fraction(0)] * m + r for r in d], (2 * n, m + k))
        triples = [(rng.randrange(n), rng.randrange(m), _q_oracle_entry(rng))
                   for _ in range(rng.randint(0, 6))] if n * m else []
        want = [[Fraction(0)] * m for _ in range(n)]
        for i, j, v in triples:
            want[i][j] += v
        _check(Mat.from_triples(QQ, n, m, triples), want, (n, m))


def test_q_block_transpose_matches_fraction_lists():
    rng = random.Random("q-block-transpose")
    for p, q, bsize in [(0, 2, 2), (2, 0, 1), (1, 1, 1), (2, 3, 2),
                        (3, 1, 3), (2, 2, 2)]:
        a = _q_oracle_matrix(rng, p * bsize, q * bsize)
        A = Mat(QQ, p * bsize, q * bsize, a)
        want = [[a[i * bsize + r][j * bsize + s] for i in range(p)
                 for s in range(bsize)]
                for j in range(q) for r in range(bsize)]
        _check(A.block_transpose(bsize), want, (q * bsize, p * bsize))


def test_q_eliminations_match_fraction_lists():
    rng = random.Random("q-elimination")
    solvable = unsolvable = invertible = singular = 0
    for n, m in _draw_shapes(rng, 50):
        rank = rng.randint(0, min(n, m))
        # a product through Q^rank, so ranks below min(n, m) are common
        a = _ref_mul(_q_oracle_matrix(rng, n, rank),
                     _q_oracle_matrix(rng, rank, m), rank, m)
        A = Mat(QQ, n, m, a)
        R, pivots = A.rref()
        want_r, want_pivots = _ref_rref(a, m)
        assert pivots == want_pivots
        _check(R, want_r, (n, m))
        _check(A.kernel_basis(), _ref_kernel(a, m),
               (m, m - len(pivots)))
        k = rng.randint(0, 3)
        # B in the column space, and B drawn freely
        y = _q_oracle_matrix(rng, m, k)
        for b in (_ref_mul(a, y, m, k), _q_oracle_matrix(rng, n, k)):
            X = A.solve(Mat(QQ, n, k, b))
            want_x = _ref_solve(a, b, m, k)
            if want_x is None:
                assert X is None
                unsolvable += 1
            else:
                _check(X, want_x, (m, k))
                assert _ref_mul(a, X.to_lists(), m, k) == b
                solvable += 1
        if n == m:
            inv = A.inverse()
            want_inv = _ref_solve(a, [[Fraction(int(i == j))
                                       for j in range(n)]
                                      for i in range(n)], n, n)
            if want_inv is None:
                assert inv is None
                singular += 1
            else:
                _check(inv, want_inv, (n, n))
                invertible += 1
    assert min(solvable, unsolvable, invertible, singular) > 0


def _ref_full_rank(blocks):
    """The search full_rank_combination specifies, on Fraction lists:
    the rank test of each block's matrices side by side, then the points
    of the grid {0, ..., R}^d in order (every grid here is exhaustive)."""
    for mats in blocks:
        side = [sum((m[i] for m in mats), []) for i in range(len(mats[0]))]
        if len(_ref_rref(side, len(side[0]))[1]) < len(mats[0]):
            return "none"
    d = len(blocks[0])
    size = max(2, sum(len(mats[0]) for mats in blocks) + 1)
    assert size ** d <= 4096
    for point in itertools.product(range(size), repeat=d):
        if not any(point):
            continue
        if all(len(_ref_rref([[sum((Fraction(c) * m[i][j]
                                    for c, m in zip(point, mats)),
                                   Fraction(0))
                               for j in range(len(mats[0][0]))]
                              for i in range(len(mats[0]))],
                             len(mats[0][0]))[1]) == len(mats[0])
               for mats in blocks):
            return [Fraction(x) for x in point]
    return "none"


def test_q_full_rank_combination_matches_fraction_lists():
    rng = random.Random("q-full-rank")
    found = none = 0
    for _ in range(25):
        d = rng.randint(1, 2)
        blocks = []
        for _ in range(rng.randint(1, 2)):
            r, c = rng.randint(1, 2), rng.randint(1, 3)
            blocks.append([_q_oracle_matrix(rng, r, c) for _ in range(d)])
        want = _ref_full_rank(blocks)
        verdict, c = full_rank_combination(
            QQ, [[Mat(QQ, len(m), len(m[0]), m) for m in mats]
                 for mats in blocks])
        if want == "none":
            assert verdict == "none"
            none += 1
        else:
            assert (verdict, c) == ("found", want)
            found += 1
    assert found and none


def test_q_canonical_form_does_not_depend_on_how_a_matrix_is_built():
    F = Fraction
    rows = [[F(1, 2), F(-1, 3)], [F(0), F(5, 6)]]
    by_rows = Mat.from_rows(QQ, rows)
    by_scale = Mat.from_rows(QQ, [[3, -2], [0, 5]]).scale(F(1, 6))
    by_product = (Mat.from_rows(QQ, [[F(1, 2), 0], [0, F(1, 3)]])
                  @ Mat.from_rows(QQ, [[1, F(-2, 3)], [0, F(5, 2)]]))
    for M in (by_scale, by_product):
        assert M == by_rows and hash(M) == hash(by_rows)
        assert M._den == by_rows._den == 6
        assert M._a.tolist() == by_rows._a.tolist() == [[3, -2], [0, 5]]
    assert (Mat.from_rows(QQ, [[F(1, 2), F(1, 3)]]).take_columns([1])
            == Mat.from_rows(QQ, [[F(1, 3)]]))
    assert Mat.from_rows(QQ, [[F(1, 2), F(1, 3)]]).take_columns([1])._den == 3
    # a zero matrix has denominator 1, however it is reached
    for Z in (by_rows - by_rows, by_rows.scale(0), by_rows.take_rows([]),
              Mat.from_rows(QQ, [[F(0, 7)]])):
        assert Z._den == 1 and _canonical(Z)
    assert type(by_rows.entry(1, 1)) is Fraction
    assert by_rows.entry(-1, -1) == F(5, 6)
    assert by_rows.col_entries(0) == [F(1, 2), F(0)]
    assert all(type(x) is Fraction for x in by_rows.col_entries(1))
    assert all(type(x) is Fraction for row in by_rows.to_lists() for x in row)


def test_q_kernels_build_no_fractions():
    # products, sums and eliminations run on the ints and denominators
    # alone: count Fraction constructions inside them
    rng = random.Random("q-no-fractions")

    def fresh(n, m):
        return Mat(QQ, n, m, _q_oracle_matrix(rng, n, m))

    operands = {
        "@": (fresh(4, 5), fresh(5, 3)),
        "+": (fresh(4, 5), fresh(4, 5)),
        "scale": (fresh(4, 5), Fraction(-3, 7)),
        "hstack": (fresh(4, 2), fresh(4, 3)),
        "rref": (fresh(4, 6),),
        "kernel_basis": (fresh(3, 6),),
        "solve": (fresh(4, 4), fresh(4, 2)),
        "solve, no solution": (fresh(4, 2), fresh(4, 1)),
    }
    calls = {
        "@": lambda x, y: x @ y,
        "+": lambda x, y: x + y,
        "scale": Mat.scale,
        "hstack": lambda x, y: hstack([x, y]),
        "rref": Mat.rref,
        "kernel_basis": Mat.kernel_basis,
        "solve": Mat.solve,
        "solve, no solution": Mat.solve,
    }
    built = []
    new = vars(Fraction)["__new__"]
    coprime = vars(Fraction).get("_from_coprime_ints")

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new.__func__(cls, *args, **kwargs)

    def counting_coprime(cls, *args, **kwargs):
        built.append(args)
        return coprime.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    if coprime is not None:  # Python 3.12 builds arithmetic results here
        Fraction._from_coprime_ints = classmethod(counting_coprime)
    try:
        assert Fraction(1, 2) and len(built) == 1  # the counter counts
        del built[:]
        for name, args in operands.items():
            calls[name](*args)
            assert not built, (name, built)
    finally:
        Fraction.__new__ = new
        if coprime is not None:
            Fraction._from_coprime_ints = coprime
    assert vars(Fraction)["__new__"] is new


# ------------------------------------------------ kernel edge cases
#
# The kernel compares F_p matrices by shape, denominator and bytes and Q
# matrices through the field, selects with take, stacks with concatenate
# and swaps rows by copies. These cases sit on the edges of those steps.


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_equal_entries_in_other_shapes_are_other_matrices(field):
    # 1 x 4, 2 x 2 and 4 x 1 hold the same entries in the same order, so
    # their arrays have the same bytes; the empty shapes have no bytes
    row = Mat.from_rows(field, [[1, 2, 3, 4]])
    same_bytes = [row, row.reshape(2, 2), row.reshape(4, 1)]
    empty = [Mat.zeros(field, 0, 3), Mat.zeros(field, 3, 0),
             Mat.zeros(field, 0, 0)]
    for group in (same_bytes, empty):
        for x, y in itertools.combinations(group, 2):
            assert x != y and not x == y, (x, y)
        assert len(set(group)) == len(group)
        assert len({m: None for m in group}) == len(group)
    # equal matrices are equal and hash alike, however they are built
    built = [Mat.from_rows(field, [[1, 3], [2, 4]]),
             row.reshape(2, 2).transpose(),
             Mat.from_triples(field, 2, 2, [(0, 0, field.of(1)),
                                            (0, 1, field.of(3)),
                                            (1, 0, field.of(2)),
                                            (1, 1, field.of(4))])]
    for x in built:
        assert x == built[0] and hash(x) == hash(built[0])
    for shape in [(0, 3), (3, 0), (0, 0)]:
        assert Mat.zeros(field, *shape) == Mat.zeros(field, *shape)
    # one shape, entries that differ only in the last place
    assert row != Mat.from_rows(field, [[1, 2, 3, 2]])
    assert row.reshape(2, 2).transpose() != built[0].transpose()
    assert Mat.zeros(field, 0, 3) == row.take_rows([]).take_columns([0, 1, 2])
    # the denominator takes part: over Q, [1/3, 2/3] holds the numerators
    # of [1, 2] over 3
    thirds = Mat.from_rows(field, [[Fraction(1, 3), Fraction(2, 3)]])
    assert thirds != Mat.from_rows(field, [[1, 2]])
    assert thirds == Mat.from_rows(field, [[1, 2]]).scale(Fraction(1, 3))


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_is_zero_reads_every_entry(field):
    for shape in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3)]:
        assert Mat.zeros(field, *shape).is_zero()
    for i, j in itertools.product(range(2), range(3)):
        one = Mat.from_triples(field, 2, 3, [(i, j, field.of(1))])
        assert not one.is_zero()
        assert (one - one).is_zero()
    if field is F5:  # entries that are zero only mod 5
        assert Mat.from_rows(F5, [[5, -10]]).is_zero()
    assert not Mat.from_rows(field, [[Fraction(1, 7), 0]]).is_zero()


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_take_rows_and_columns_with_any_indices(field):
    rows = [[field.of(Fraction(3 * i + j, 1 + (i + j) % 2)) for j in range(3)]
            for i in range(4)]
    A = Mat.from_rows(field, rows)
    for idx in ([], [2], [3, 0], [1, 1, 1], [2, 0, 2, 3], range(3, 0, -1)):
        idx = list(idx)
        got = A.take_rows(iter(idx))
        assert got.shape == (len(idx), 3)
        assert got.to_lists() == [rows[i] for i in idx]
    for idx in ([], [1], [2, 0], [0, 0], [2, 1, 2, 0]):
        got = A.take_columns(iter(idx))
        assert got.shape == (4, len(idx))
        assert got.to_lists() == [[r[j] for j in idx] for r in rows]
    assert A.take_rows([]).take_columns([]).shape == (0, 0)
    assert A.take_columns([1, 1]) == hstack([A.col(1), A.col(1)])


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_stacks_with_empty_blocks(field):
    A = Mat.from_rows(field, [[1, 2], [3, Fraction(1, 2)]])
    for empty in (Mat.zeros(field, 2, 0), Mat.identity(field, 2)
                  .take_columns([])):
        assert hstack([empty, A, empty]) == A
        assert hstack([empty, empty]).shape == (2, 0)
    for empty in (Mat.zeros(field, 0, 2), A.take_rows([])):
        assert vstack([empty, A, empty]) == A
        assert vstack([empty]).shape == (0, 2)
    assert hstack([Mat.zeros(field, 0, 2), Mat.zeros(field, 0, 1)]).shape \
        == (0, 3)
    assert vstack([Mat.zeros(field, 2, 0), Mat.zeros(field, 1, 0)]).shape \
        == (3, 0)
    I0 = Mat.identity(field, 0)
    assert I0.shape == (0, 0) and I0.is_zero() and I0.rank() == 0
    assert I0 == Mat.zeros(field, 0, 0) and I0.inverse() == I0
    assert block_diag(field, [I0, A, I0]) == A
    assert (Mat.zeros(field, 3, 0) @ I0 @ Mat.zeros(field, 0, 2)
            == Mat.zeros(field, 3, 2))
    for bad in ([A, Mat.zeros(field, 3, 1)], []):
        with pytest.raises(LinalgError):
            hstack(bad)
    with pytest.raises(LinalgError):
        vstack([A, Mat.zeros(field, 1, 3)])


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_units_are_columns_and_rows_of_the_identity(field):
    eye = Mat.identity(field, 4)
    for idx in ([], [2], [3, 0, 3], range(4)):
        assert Mat.units(field, 4, idx) == eye.take_columns(idx)
        assert Mat.units(field, 4, idx, axis=0) == eye.take_rows(idx)
    assert Mat.units(field, 0, []).shape == (0, 0)


@pytest.mark.parametrize("field", [F2, F5, F101, QQ],
                         ids=["F2", "F5", "F101", "Q"])
def test_rref_swaps_rows_up_to_a_pivot_below(field):
    # each column's first nonzero entry at or below the current row lies
    # further down, so every pivot is swapped up, some past zero rows
    cases = [[[0, 1, 1], [1, 0, 1], [1, 1, 0]],
             [[0, 0, 1, 1], [0, 0, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1]],
             [[0, 0], [0, 0], [0, 1]],
             [[0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 0, 0],
              [1, 1, 1, 1]]]
    rng = random.Random(f"swap-{field.name}")
    for _ in range(20):
        n, m = rng.randint(2, 6), rng.randint(1, 6)
        rows = [[field.of(rng.choice([0, 0, 0, 1, 2, 3])) for _ in range(m)]
                for _ in range(n)]
        rows[0] = [field.zero] * m  # no pivot in row 0 at the first column
        cases.append(rows)
    swaps = 0
    for rows in cases:
        rows = [[field.of(x) for x in r] for r in rows]
        A = Mat.from_rows(field, rows)
        R, pivots = A.rref()
        want, want_pivots = _ref_rref(rows, A.ncols, field)
        assert pivots == want_pivots, rows
        assert R.to_lists() == want, rows
        # the first pivot lies below row 0
        swaps += bool(pivots) and not rows[0][pivots[0]]
        assert A.to_lists() == rows  # the input is left as it was
    assert swaps >= 20
