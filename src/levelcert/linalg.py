"""Exact dense linear algebra over prime fields and the rationals.

A matrix is one read-only numpy array: over F_p, int64 entries reduced
into [0, p) (p < 2**31, so every single product fits in int64); over Q,
an object array of fractions.Fraction. Each matrix operation has one body
for both fields. The field classes own the only array steps that differ:
reduce (mod p over F_p, nothing over Q), matmul, and the elimination step
of row reduction with the conversion into and out of its working array.
Over F_p, matmul is a chunked int64 product that keeps sums below 2**63,
and elimination scales the pivot row to 1 and subtracts multiples of it.
Over Q both run on Python ints, so no Fraction arithmetic happens inside
a product or an elimination: matmul clears each factor's denominators by
their common multiple, multiplies integer arrays and divides once per
output entry; elimination is fraction-free (Bareiss, Math. Comp. 1968),
with each row cleared of denominators, updated by cross-multiplication
and divided by its content, and each pivot row divided by its pivot at
the end. No floating point anywhere.

Row reduction uses a fixed pivot rule, lowest row index then lowest column
index, so ranks, kernel bases and solutions are deterministic functions of
the input.
"""

from __future__ import annotations

import itertools
import math
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
    dtype = np.int64

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

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a % self.p

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b up to reduce: the inner dimension is cut into chunks
        whose sums of products stay below 2**62."""
        step = 2**62 // (self.p - 1) ** 2
        out = a[:, :step] @ b[:step]
        for s in range(step, a.shape[1], step):
            out = out % self.p + a[:, s:s + step] @ b[s:s + step]
        return out

    def work_array(self, a: np.ndarray) -> np.ndarray:
        """A writable copy of a for Mat.rref to eliminate in."""
        return a.copy()

    def eliminate(self, a: np.ndarray, r: int, c: int) -> None:
        """Scale row r to a pivot 1 at column c, then clear column c in
        every other row."""
        # row r is zero left of column c, so only columns c: change
        a[r, c:] = self.reduce(a[r, c:] * self.inv(a.item(r, c)))
        mask = a[:, c] != 0
        mask[r] = False
        if mask.any():
            a[mask, c:] = self.reduce(
                a[mask, c:] - np.outer(a[mask, c], a[r, c:]))

    def from_work(self, a: np.ndarray, pivots: Sequence[int]) -> np.ndarray:
        """The reduced matrix held in an eliminated working array."""
        return a


class RationalField:
    """The field Q. Entries are Fraction objects; products and row
    reduction run on Python ints and build one Fraction per result entry.
    """

    __slots__ = ()
    dtype = object

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
        return n if type(n) is Fraction else Fraction(n)

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

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b as (A @ B) / (la * lb), where A = la * a and B = lb * b
        are integer arrays and la, lb the lcms of their denominators."""
        (ia, la), (ib, lb) = _cleared(a), _cleared(b)
        return _fractions(ia @ ib, la * lb)

    def work_array(self, a: np.ndarray) -> np.ndarray:
        """Each row of a times the lcm of its denominators, as Python ints."""
        flat = []
        for row in a.tolist():
            m = math.lcm(*(x.denominator for x in row))
            flat += [x.numerator * (m // x.denominator) for x in row]
        return np.array(flat, dtype=object).reshape(a.shape)

    def eliminate(self, a: np.ndarray, r: int, c: int) -> None:
        """Clear column c in every other row: row_i becomes
        pv * row_i - a_ic * row_r (pv = a_rc), divided by its content."""
        mask = a[:, c] != 0
        mask[r] = False
        if not mask.any():
            return
        # cross-multiplying scales the whole of row_i, also the entries
        # left of c that an earlier pivot row keeps in non-pivot columns
        rows = a.item(r, c) * a[mask] - np.outer(a[mask, c], a[r])
        for row in rows:
            g = math.gcd(*row.tolist())
            if g > 1:
                row //= g
        a[mask] = rows

    def from_work(self, a: np.ndarray, pivots: Sequence[int]) -> np.ndarray:
        """Fractions: each pivot row divided by its pivot; the rows past
        the rank are zero."""
        out = _zeros(self, *a.shape)
        for k, c in enumerate(pivots):
            pv = a.item(k, c)
            out[k] = [Fraction(x, pv) if x else _ZERO for x in a[k].tolist()]
        return out


def _cleared(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(l * a as an array of Python ints, l) for the lcm l of the
    denominators of a."""
    flat = a.ravel().tolist()
    dens = [x.denominator for x in flat]
    m = math.lcm(*dens)
    if m == 1:
        ints = [x.numerator for x in flat]
    else:
        ints = [x.numerator * (m // d) for x, d in zip(flat, dens)]
    return np.array(ints, dtype=object).reshape(a.shape), m


# the one Fraction that stands for every zero entry of a result
_ZERO = Fraction(0)


def _fractions(a: np.ndarray, den: int) -> np.ndarray:
    """The object array of the Fractions n / den for the Python ints n
    of a."""
    flat = a.ravel().tolist()
    if den == 1:
        out = [Fraction(n) if n else _ZERO for n in flat]
    else:
        out = [Fraction(n, den) if n else _ZERO for n in flat]
    return np.array(out, dtype=object).reshape(a.shape)


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
        num, den = map(int, text.split("/"))
        if den == 0:
            raise LinalgError(f"zero denominator in {text!r}")
        return field.of(Fraction(num, den))
    return field.of(int(text))


class Mat:
    """Immutable exact matrix over a PrimeField or RationalField.

    The data is one read-only numpy array of dtype field.dtype: int64
    entries in [0, p) over F_p, Fraction objects over Q. Every method has
    one body for both fields; the field supplies the array steps that
    differ: reduce, matmul, and the elimination step of rref with its
    working array. Treat instances as values: every operation
    returns a new Mat. Row data that is not already an array of the
    field's dtype is converted entry by entry with field.of. Array data
    is reduced unless the caller passes reduced=True, which only the
    constructors that rearrange entries of reduced arrays do.
    """

    __slots__ = ("field", "nrows", "ncols", "_a", "_rref")

    def __init__(self, field, nrows: int, ncols: int, data, *,
                 reduced: bool = False):
        if not (isinstance(data, np.ndarray) and data.dtype == field.dtype):
            try:
                data = [[field.of(x) for x in row] for row in data]
            except TypeError:
                raise LinalgError("bad row data shape") from None
        try:
            a = np.asarray(data, dtype=field.dtype)
        except ValueError:
            raise LinalgError("bad row data shape") from None
        if a.shape != (nrows, ncols):
            if a.size or nrows * ncols:
                raise LinalgError("bad row data shape")
            a = a.reshape(nrows, ncols)
        if not reduced:
            a = field.reduce(a)
        a.setflags(write=False)
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._a = a
        self._rref = None

    # ---- constructors ----

    @staticmethod
    def from_rows(field, rows: Sequence[Sequence]) -> "Mat":
        rows = [list(r) for r in rows]
        return Mat(field, len(rows), len(rows[0]) if rows else 0, rows)

    @staticmethod
    def from_triples(field, nrows: int, ncols: int, triples) -> "Mat":
        """Entry (r, c) is the sum of the field elements v over the
        triples (r, c, v); every other entry is zero."""
        a = _zeros(field, nrows, ncols)
        if triples:
            r, c, v = zip(*triples)
            np.add.at(a, (list(r), list(c)), np.array(v, dtype=field.dtype))
        return Mat(field, nrows, ncols, a)

    @staticmethod
    def zeros(field, nrows: int, ncols: int) -> "Mat":
        return Mat(field, nrows, ncols, _zeros(field, nrows, ncols),
                   reduced=True)

    @staticmethod
    def identity(field, n: int) -> "Mat":
        a = _zeros(field, n, n)
        np.fill_diagonal(a, field.one)
        return Mat(field, n, n, a, reduced=True)

    @staticmethod
    def column(field, entries: Sequence) -> "Mat":
        rows = [[x] for x in entries]
        return Mat(field, len(rows), 1, rows)

    # ---- accessors ----

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int):
        return self._a.item(i, j)

    def col_entries(self, j: int) -> list:
        return self._a[:, j].tolist()

    def col(self, j: int) -> "Mat":
        return self.take_columns([j])

    def take_columns(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        return Mat(self.field, self.nrows, len(idx), self._a[:, idx],
                   reduced=True)

    def take_rows(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        return Mat(self.field, len(idx), self.ncols, self._a[idx],
                   reduced=True)

    def reshape(self, nrows: int, ncols: int) -> "Mat":
        """The entries in row-major order, refilled into nrows x ncols."""
        return Mat(self.field, nrows, ncols, self._a.reshape(nrows, ncols),
                   reduced=True)

    def block_transpose(self, b: int) -> "Mat":
        """The b x b blocks moved to their transposed places, each block
        kept as it is: block (j, i) of the result is block (i, j) here.

        For a hom d: R^q -> R^p of free modules over an algebra R of
        dimension b, with bases ordered (generator, monomial), this is the
        matrix of Hom(d, R): R^p -> R^q, since each block is the matrix of
        multiplication by one entry of d.
        """
        p, q = self.nrows // b, self.ncols // b
        a = self._a.reshape(p, b, q, b).transpose(2, 1, 0, 3)
        return Mat(self.field, self.ncols, self.nrows,
                   a.reshape(self.ncols, self.nrows), reduced=True)

    def to_lists(self) -> list[list]:
        return self._a.tolist()

    def is_zero(self) -> bool:
        return not self._a.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat) or other.field != self.field:
            return NotImplemented
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self.shape, tuple(map(tuple, self.to_lists()))))

    def __repr__(self):
        return f"Mat({self.field}, {self.nrows}x{self.ncols})"

    # ---- arithmetic ----

    def _binary(self, other: "Mat", op):
        if self.shape != other.shape or self.field != other.field:
            raise LinalgError("shape/field mismatch")
        return Mat(self.field, self.nrows, self.ncols, op(self._a, other._a))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return Mat(self.field, self.nrows, self.ncols, -self._a)

    def scale(self, c) -> "Mat":
        return Mat(self.field, self.nrows, self.ncols,
                   self._a * self.field.of(c))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows or self.field != other.field:
            raise LinalgError("matmul shape/field mismatch")
        if self.ncols == 0:  # nothing to multiply: the zero matrix
            return Mat.zeros(self.field, self.nrows, other.ncols)
        return Mat(self.field, self.nrows, other.ncols,
                   self.field.matmul(self._a, other._a))

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product self (x) other."""
        if self.field != other.field:
            raise LinalgError("kron field mismatch")
        return Mat(self.field, self.nrows * other.nrows,
                   self.ncols * other.ncols, np.kron(self._a, other._a))

    def transpose(self) -> "Mat":
        return Mat(self.field, self.ncols, self.nrows, self._a.T)

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
        a = f.work_array(self._a)
        pivots = []
        for c in range(self.ncols):
            r = len(pivots)
            if r == self.nrows:
                break
            nz = a[r:, c].nonzero()[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            f.eliminate(a, r, c)
            pivots.append(c)
        out = Mat(f, self.nrows, self.ncols, f.from_work(a, pivots))
        self._rref = (out, tuple(pivots))
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Mat":
        """Matrix whose columns are the canonical kernel basis (A v = 0)."""
        R, pivots = self.rref()
        free = sorted(set(range(self.ncols)).difference(pivots))
        k = _zeros(self.field, self.ncols, len(free))
        k[free, np.arange(len(free))] = self.field.one
        k[list(pivots)] = -R._a[:len(pivots), free]
        return Mat(self.field, self.ncols, len(free), k)

    def solve(self, B: "Mat"):
        """Least-constrained exact solution X of self @ X = B, or None.

        Free variables are set to zero, so the solution is deterministic.
        """
        if B.nrows != self.nrows or B.field != self.field:
            raise LinalgError("solve shape/field mismatch")
        n = self.ncols
        R, pivots = hstack([self, B]).rref()
        if pivots and pivots[-1] >= n:
            return None
        x = _zeros(self.field, n, B.ncols)
        x[list(pivots)] = R._a[:len(pivots), n:]
        return Mat(self.field, n, B.ncols, x)

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


def _zeros(field, nrows: int, ncols: int) -> np.ndarray:
    """A writable nrows x ncols array of the field's zero."""
    return np.full((nrows, ncols), field.zero, dtype=field.dtype)


def hstack(mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    if not mats:
        raise LinalgError("hstack of nothing")
    f, n = mats[0].field, mats[0].nrows
    if any(m.nrows != n or m.field != f for m in mats):
        raise LinalgError("hstack mismatch")
    return Mat(f, n, sum(m.ncols for m in mats),
               np.hstack([m._a for m in mats]), reduced=True)


def vstack(mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    if not mats:
        raise LinalgError("vstack of nothing")
    f, c = mats[0].field, mats[0].ncols
    if any(m.ncols != c or m.field != f for m in mats):
        raise LinalgError("vstack mismatch")
    return Mat(f, sum(m.nrows for m in mats), c,
               np.vstack([m._a for m in mats]), reduced=True)


def block_diag(field, mats: Sequence[Mat]) -> Mat:
    a = _zeros(field, sum(m.nrows for m in mats), sum(m.ncols for m in mats))
    r = c = 0
    for m in mats:
        a[r:r + m.nrows, c:c + m.ncols] = m._a
        r, c = r + m.nrows, c + m.ncols
    return Mat(field, r, c, a, reduced=True)


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
