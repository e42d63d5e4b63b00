"""Exact dense linear algebra over prime fields and the rationals.

Entries over F_p are canonical ints in [0, p) held in numpy int64 arrays
(p < 2**31, so every single product fits in int64; accumulation is chunked
to stay below 2**63). Entries over Q are fractions.Fraction held in tuples.
No floating point anywhere.

Row reduction uses a fixed pivot rule, lowest row index then lowest column
index, so ranks, kernel bases and solutions are deterministic functions of
the input.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

import numpy as np


class LinalgError(Exception):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p for a prime p < 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise LinalgError(f"{p} is not prime")
        if p >= 2**31:
            raise LinalgError(f"prime {p} too large (need p < 2**31)")
        self.p = p

    @property
    def is_prime_field(self) -> bool:
        return True

    @property
    def name(self) -> str:
        return f"F{self.p}"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, n) -> int:
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise LinalgError("denominator divisible by p")
            return (n.numerator * pow(n.denominator, -1, self.p)) % self.p
        return int(n) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise LinalgError("division by zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F{self.p}"

    def scalar_str(self, a) -> str:
        return str(a % self.p)


class RationalField:
    """The field Q with Fraction arithmetic."""

    __slots__ = ()

    @property
    def is_prime_field(self) -> bool:
        return False

    @property
    def name(self) -> str:
        return "Q"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def of(self, n) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise LinalgError("division by zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"

    def scalar_str(self, a) -> str:
        return str(a)


QQ = RationalField()


def parse_field(text: str):
    text = text.strip()
    if text in ("Q", "QQ"):
        return QQ
    if text.startswith("F"):
        return PrimeField(int(text[1:]))
    raise LinalgError(f"unknown field literal {text!r}")


def parse_scalar(field, text: str):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return field.of(Fraction(int(num), int(den)))
    return field.of(int(text))


class Mat:
    """Immutable exact matrix over a PrimeField or RationalField.

    F_p data is a read-only numpy int64 array; Q data is a tuple of row
    tuples of Fraction. Treat instances as values: every operation returns
    a new Mat.
    """

    __slots__ = ("field", "nrows", "ncols", "_a", "_rows", "_rref")

    def __init__(self, field, nrows: int, ncols: int, data):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._rref = None
        if field.is_prime_field:
            a = np.asarray(data, dtype=np.int64).reshape(nrows, ncols) % field.p
            a.setflags(write=False)
            self._a = a
            self._rows = None
        else:
            self._a = None
            self._rows = tuple(tuple(Fraction(x) for x in row) for row in data)
            if len(self._rows) != nrows or any(len(r) != ncols for r in self._rows):
                raise LinalgError("bad row data shape")

    # ---- constructors ----

    @staticmethod
    def from_rows(field, rows: Sequence[Sequence]) -> "Mat":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return Mat(field, nrows, ncols, [[field.of(x) for x in r] for r in rows])

    @staticmethod
    def zeros(field, nrows: int, ncols: int) -> "Mat":
        if field.is_prime_field:
            return Mat(field, nrows, ncols, np.zeros((nrows, ncols), dtype=np.int64))
        return Mat(field, nrows, ncols, [[field.zero] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(field, n: int) -> "Mat":
        if field.is_prime_field:
            return Mat(field, n, n, np.eye(n, dtype=np.int64))
        return Mat(
            field, n, n,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    @staticmethod
    def column(field, entries: Sequence) -> "Mat":
        return Mat.from_rows(field, [[x] for x in entries])

    # ---- accessors ----

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int):
        if self.field.is_prime_field:
            return int(self._a[i, j])
        return self._rows[i][j]

    def row_list(self, i: int) -> list:
        if self.field.is_prime_field:
            return [int(x) for x in self._a[i]]
        return list(self._rows[i])

    def col_entries(self, j: int) -> list:
        if self.field.is_prime_field:
            return [int(x) for x in self._a[:, j]]
        return [r[j] for r in self._rows]

    def col(self, j: int) -> "Mat":
        return Mat.column(self.field, self.col_entries(j))

    def columns(self) -> list["Mat"]:
        return [self.col(j) for j in range(self.ncols)]

    def take_columns(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        if self.field.is_prime_field:
            if not idx:
                return Mat.zeros(self.field, self.nrows, 0)
            return Mat(self.field, self.nrows, len(idx), self._a[:, idx])
        return Mat.from_rows(self.field, [[r[j] for j in idx] for r in self._rows])

    def to_lists(self) -> list[list]:
        return [self.row_list(i) for i in range(self.nrows)]

    def is_zero(self) -> bool:
        if self.field.is_prime_field:
            return not self._a.any()
        return all(x == 0 for r in self._rows for x in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat) or other.field != self.field:
            return NotImplemented
        if other.shape != self.shape:
            return False
        if self.field.is_prime_field:
            return bool(np.array_equal(self._a, other._a))
        return self._rows == other._rows

    def __hash__(self):
        return hash((self.shape, tuple(tuple(r) for r in self.to_lists())))

    def __repr__(self):
        return f"Mat({self.field}, {self.nrows}x{self.ncols})"

    # ---- arithmetic ----

    def _binary(self, other: "Mat", op):
        if self.shape != other.shape or self.field != other.field:
            raise LinalgError("shape/field mismatch")
        if self.field.is_prime_field:
            return Mat(self.field, self.nrows, self.ncols, op(self._a, other._a) % self.field.p)
        f = self.field
        fop = f.add if op is np.add else f.sub
        rows = [
            [fop(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self._rows, other._rows)
        ]
        return Mat(f, self.nrows, self.ncols, rows)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        if self.field.is_prime_field:
            return Mat(self.field, self.nrows, self.ncols, (-self._a) % self.field.p)
        return Mat(self.field, self.nrows, self.ncols,
                   [[-x for x in r] for r in self._rows])

    def scale(self, c) -> "Mat":
        f = self.field
        c = f.of(c)
        if f.is_prime_field:
            return Mat(f, self.nrows, self.ncols, (self._a * c) % f.p)
        return Mat(f, self.nrows, self.ncols, [[x * c for x in r] for r in self._rows])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows or self.field != other.field:
            raise LinalgError("matmul shape/field mismatch")
        f = self.field
        if f.is_prime_field:
            p = f.p
            k = self.ncols
            if k == 0:
                return Mat.zeros(f, self.nrows, other.ncols)
            # chunk the inner dimension so sums of products stay below 2**63
            step = max(1, (2**62) // max(1, (p - 1) ** 2))
            if k <= step:
                prod = (self._a @ other._a) % p
            else:
                prod = np.zeros((self.nrows, other.ncols), dtype=np.int64)
                for s in range(0, k, step):
                    prod = (prod + self._a[:, s:s + step] @ other._a[s:s + step, :]) % p
            return Mat(f, self.nrows, other.ncols, prod)
        rows = []
        for i in range(self.nrows):
            ri = self._rows[i]
            rows.append([
                sum((ri[t] * other._rows[t][j] for t in range(self.ncols)), Fraction(0))
                for j in range(other.ncols)
            ])
        return Mat(f, self.nrows, other.ncols, rows)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product self (x) other."""
        if self.field != other.field:
            raise LinalgError("kron field mismatch")
        f = self.field
        n, c = self.nrows * other.nrows, self.ncols * other.ncols
        if f.is_prime_field:
            # entries below p, so products stay below 2**62
            return Mat(f, n, c, np.kron(self._a, other._a) % f.p)
        rows = []
        for i in range(self.nrows):
            for k in range(other.nrows):
                rows.append([
                    self._rows[i][j] * other._rows[k][l]
                    for j in range(self.ncols) for l in range(other.ncols)
                ])
        return Mat(f, n, c, rows)

    def transpose(self) -> "Mat":
        if self.field.is_prime_field:
            return Mat(self.field, self.ncols, self.nrows, self._a.T)
        return Mat(self.field, self.ncols, self.nrows,
                   [[self._rows[i][j] for i in range(self.nrows)]
                    for j in range(self.ncols)])

    # ---- reduction ----

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form with the fixed pivot rule.

        Returns (R, pivots) where pivots[r] is the pivot column of row r.
        Scanning is by column left to right; within a column the surviving
        row with the lowest index is chosen. Result is cached.
        """
        if self._rref is not None:
            return self._rref
        f = self.field
        if f.is_prime_field:
            p = f.p
            a = self._a.copy()
            pivots = []
            r = 0
            for c in range(self.ncols):
                if r == self.nrows:
                    break
                nz = np.nonzero(a[r:, c])[0]
                if nz.size == 0:
                    continue
                i = r + int(nz[0])
                if i != r:
                    a[[r, i]] = a[[i, r]]
                inv = pow(int(a[r, c]), -1, p)
                a[r] = (a[r] * inv) % p
                col = a[:, c].copy()
                col[r] = 0
                mask = col != 0
                if mask.any():
                    a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
                pivots.append(c)
                r += 1
            out = Mat(f, self.nrows, self.ncols, a)
        else:
            rows = [list(r) for r in self._rows]
            pivots = []
            r = 0
            for c in range(self.ncols):
                if r == len(rows):
                    break
                sel = None
                for i in range(r, len(rows)):
                    if rows[i][c] != 0:
                        sel = i
                        break
                if sel is None:
                    continue
                rows[r], rows[sel] = rows[sel], rows[r]
                inv = 1 / rows[r][c]
                rows[r] = [x * inv for x in rows[r]]
                for i in range(len(rows)):
                    if i != r and rows[i][c] != 0:
                        factor = rows[i][c]
                        rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
                pivots.append(c)
                r += 1
            out = Mat(f, self.nrows, self.ncols, rows)
        self._rref = (out, tuple(pivots))
        out._rref = self._rref
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Mat":
        """Matrix whose columns are the canonical kernel basis (A v = 0)."""
        R, pivots = self.rref()
        f = self.field
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        cols = []
        for fc in free:
            v = [f.zero] * self.ncols
            v[fc] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(R.entry(r, fc))
            cols.append(v)
        if not cols:
            return Mat.zeros(f, self.ncols, 0)
        return Mat.from_rows(f, [[col[i] for col in cols] for i in range(self.ncols)])

    def solve(self, B: "Mat"):
        """Least-constrained exact solution X of self @ X = B, or None.

        Free variables are set to zero, so the solution is deterministic.
        """
        if B.nrows != self.nrows or B.field != self.field:
            raise LinalgError("solve shape/field mismatch")
        aug = hstack([self, B])
        R, pivots = aug.rref()
        f = self.field
        for r, pc in enumerate(pivots):
            if pc >= self.ncols:
                return None
        X = [[f.zero] * B.ncols for _ in range(self.ncols)]
        for r, pc in enumerate(pivots):
            for j in range(B.ncols):
                X[pc][j] = R.entry(r, self.ncols + j)
        return Mat.from_rows(f, X) if self.ncols else Mat.zeros(f, 0, B.ncols)

    def inverse(self):
        if self.nrows != self.ncols:
            return None
        X = self.solve(Mat.identity(self.field, self.nrows))
        if X is None:
            return None
        if not (self @ X == Mat.identity(self.field, self.nrows)):
            return None
        return X

    def column_space_basis(self) -> "Mat":
        """Submatrix of pivot columns (a basis of the column space)."""
        return self.take_columns(self.rref()[1])

    def in_column_space(self, v: "Mat") -> bool:
        return self.solve(v) is not None


def hstack(mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    if not mats:
        raise LinalgError("hstack of nothing")
    f = mats[0].field
    n = mats[0].nrows
    if any(m.nrows != n or m.field != f for m in mats):
        raise LinalgError("hstack mismatch")
    if f.is_prime_field:
        return Mat(f, n, sum(m.ncols for m in mats), np.hstack([m._a for m in mats]))
    rows = [sum((list(m._rows[i]) for m in mats), []) for i in range(n)]
    return Mat(f, n, sum(m.ncols for m in mats), rows)


def vstack(mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    if not mats:
        raise LinalgError("vstack of nothing")
    f = mats[0].field
    c = mats[0].ncols
    if any(m.ncols != c or m.field != f for m in mats):
        raise LinalgError("vstack mismatch")
    if f.is_prime_field:
        return Mat(f, sum(m.nrows for m in mats), c, np.vstack([m._a for m in mats]))
    rows = []
    for m in mats:
        rows.extend(list(r) for r in m._rows)
    return Mat(f, sum(m.nrows for m in mats), c, rows)


def block(rows_of_blocks: Sequence[Sequence[Mat]]) -> Mat:
    return vstack([hstack(list(row)) for row in rows_of_blocks])


def block_diag(field, mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    n = sum(m.nrows for m in mats)
    c = sum(m.ncols for m in mats)
    rows = []
    for i, m in enumerate(mats):
        row = []
        for j, other in enumerate(mats):
            row.append(m if i == j else Mat.zeros(field, m.nrows, other.ncols))
        rows.append(row)
    if not rows:
        return Mat.zeros(field, 0, 0)
    return block(rows)


def subspace_basis(vectors: Sequence[Mat]) -> Mat:
    """Canonical basis (as columns) of the span of the given column vectors."""
    if not vectors:
        raise LinalgError("need ambient dimension; use Mat.zeros directly")
    stacked = hstack(list(vectors))
    return stacked.take_columns(stacked.rref()[1])


def extend_to_basis(field, U: Mat) -> list[int]:
    """Indices j such that standard vectors e_j complete col(U) to k^n.

    The pivot columns of [U | I] past U, so e_j is chosen exactly when
    it is outside the span of U and e_0, ..., e_{j-1}.
    """
    _, pivots = hstack([U, Mat.identity(field, U.nrows)]).rref()
    return [c - U.ncols for c in pivots if c >= U.ncols]


# full_rank_combination searches a grid of at most GRID_CAP points in full,
# and past that tries FALLBACK_TRIES points drawn with FALLBACK_SEED
GRID_CAP = 4096
FALLBACK_TRIES = 32
FALLBACK_SEED = 0


def full_rank_combination(field, blocks: Sequence[Sequence[Mat]]):
    """("found", c) with c != 0 and every sum_j c_j blocks[i][j] of full row
    rank, ("none", reason) when no such c exists, or ("inconclusive", None).

    Every block holds the same number d >= 1 of r_i x n_i matrices.
    (a) A block whose matrices side by side have rank below r_i has no
    full-rank combination. (b) A product of one r_i-minor per block has
    degree at most R = sum r_i in each c_j, so by Alon's Combinatorial
    Nullstellensatz it vanishes on the grid S^d, |S| > R, only if it is
    zero. The grid S = {0, ..., R}, the whole field when q <= R, decides.
    (c) A grid of more than GRID_CAP points is only sampled.
    """
    for i, mats in enumerate(blocks):
        if hstack(mats).rank() < mats[0].nrows:
            return ("none", f"block {i}: the matrices together have rank "
                            f"below {mats[0].nrows}")
    d = len(blocks[0])
    hi = field.p if field.is_prime_field else 1 << 16
    size = min(hi, max(2, sum(mats[0].nrows for mats in blocks) + 1))
    exhaustive = size ** d <= GRID_CAP
    if exhaustive:
        points = itertools.product(range(size), repeat=d)
    else:
        rng = random.Random(FALLBACK_SEED)
        points = ([rng.randrange(hi) for _ in range(d)]
                  for _ in range(FALLBACK_TRIES))
    for point in points:
        c = [field.of(x) for x in point]
        if any(point) and all(
                reduce(Mat.__add__, map(Mat.scale, mats, c)).rank()
                == mats[0].nrows for mats in blocks):
            return ("found", c)
    if exhaustive:
        return ("none", f"no point of the {size}^{d} grid gives full rank")
    return ("inconclusive", None)
