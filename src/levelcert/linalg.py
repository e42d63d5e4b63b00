"""Exact dense linear algebra over prime fields and the rationals.

A matrix is one read-only numpy array and a positive denominator: over
F_p, int64 entries reduced into [0, p) (p < 2**31, so every single
product fits in int64) over the denominator 1; over Q, an object array
of Python ints over one common denominator, the pair in lowest terms
(the gcd of the denominator and every entry is 1, and the zero matrix
has denominator 1). Both forms are canonical, so equal matrices have
equal arrays and denominators. Each matrix operation has one body for
both fields. The field classes own the only array steps that differ:
normalize (mod p over F_p, clearing and dividing by the gcd over Q),
the comparison of entries, matmul, the elimination step of row reduction
and the conversion out of its working array, and the conversion of
entries into field elements. Over F_p, matmul is a chunked int64 product
that keeps sums below 2**63, and elimination scales the pivot row to 1
and subtracts multiples of it.
Over Q no Fraction is built inside a product, a sum or an elimination:
matmul multiplies the integer arrays and the denominators, sums and
stacks bring their operands to the lcm of their denominators, and
elimination is fraction-free (Bareiss, Math. Comp. 1968), with each row
updated by cross-multiplication and divided by its content, and the
reduced rows read over the lcm of the pivots at the end. Fractions are
built only where entries leave a matrix (entry, col_entries, to_lists)
and cleared only where they enter one (the constructors). No floating
point anywhere.

Row reduction uses a fixed pivot rule, lowest row index then lowest column
index, so ranks, kernel bases and solutions are deterministic functions of
the input.

Most matrices of the level search have sides below 16, where numpy's
fixed cost per call outweighs the arithmetic, so each step uses the
cheapest numpy call that does its work, with one code path at every
size: a product is reduced once, inside field.matmul; F_p matrices are
equal when their shapes, denominators and array bytes are, and Q
matrices compare their shapes, denominators and then their entries
through the field (the bytes of an object array are pointers); rows and
columns are selected with ndarray.take, blocks stacked with
np.concatenate; and rref swaps rows by two row copies and clears a
column with one broadcast product on the rows it changes.
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
    dtype = np.dtype(np.int64)

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

    def normalize(self, a: np.ndarray, den: int) -> tuple[np.ndarray, int]:
        """(a mod p, 1): over F_p every denominator is 1."""
        return a % self.p, 1

    def entries(self, a: np.ndarray, den: int) -> list:
        """The entries of a as (nested) lists of field elements."""
        return a.tolist()

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether two arrays of one shape hold the same entries: their
        reduced int64 entries have the same bytes."""
        return a.tobytes() == b.tobytes()

    def matmul(self, a: np.ndarray, b: np.ndarray,
               den: int) -> tuple[np.ndarray, int]:
        """The normalized product (a @ b mod p, 1), reduced once: an
        inner dimension too long for int64 sums is cut into chunks whose
        sums of products stay below 2**62, reduced between chunks."""
        step = 2**62 // (self.p - 1) ** 2
        out = a @ b if a.shape[1] <= step else a[:, :step] @ b[:step]
        for s in range(step, a.shape[1], step):
            out = out % self.p + a[:, s:s + step] @ b[s:s + step]
        out %= self.p
        return out, 1

    def eliminate(self, a: np.ndarray, r: int, c: int) -> None:
        """Scale row r to a pivot 1 at column c, then clear column c in
        every other row."""
        # row r is zero left of column c, so only columns c: change
        row = a[r, c:]
        np.remainder(row * pow(a.item(r, c), -1, self.p), self.p, out=row)
        mask = a[:, c].astype(bool)
        mask[r] = False
        if np.count_nonzero(mask):
            rows = a[mask, c:]
            a[mask, c:] = (rows - rows[:, :1] * row) % self.p

    def from_work(self, a: np.ndarray,
                  pivots: Sequence[int]) -> tuple[np.ndarray, int]:
        """The reduced matrix held in an eliminated working array, with
        its denominator: the array itself is reduced, over 1."""
        return a, 1


class RationalField:
    """The field Q. Elements are Fraction objects; a matrix holds Python
    ints over one common denominator, and products, sums and row
    reduction run on those ints."""

    __slots__ = ()
    dtype = np.dtype(object)

    @property
    def is_prime_field(self) -> bool:
        return False

    @property
    def name(self) -> str:
        return "Q"

    @property
    def zero(self):
        return _ZERO

    @property
    def one(self):
        return _ONE

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

    def normalize(self, a: np.ndarray, den: int) -> tuple[np.ndarray, int]:
        """The matrix a / den in lowest terms, as (ints, denominator).

        Fraction entries, which only the public constructors pass, are
        first cleared by the lcm of their denominators.
        """
        flat = a.ravel().tolist()
        try:
            g = math.gcd(den, *flat)
        except TypeError:  # some entry is a Fraction
            m = math.lcm(*(x.denominator for x in flat))
            flat = [x.numerator * (m // x.denominator) for x in flat]
            den *= m
            g = math.gcd(den, *flat)
        else:
            if g == 1:
                return a, den
        if g > 1:
            flat = [x // g for x in flat]
            den //= g
        return np.array(flat, dtype=object).reshape(a.shape), den

    def entries(self, a: np.ndarray, den: int) -> list:
        """The entries of a / den as (nested) lists of Fractions."""
        out = [Fraction(x, den) if x else _ZERO for x in a.ravel().tolist()]
        return np.array(out, dtype=object).reshape(a.shape).tolist()

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether two arrays of one shape hold the same entries, compared
        as Python ints (the bytes of an object array are pointers)."""
        return a.tolist() == b.tolist()

    def matmul(self, a: np.ndarray, b: np.ndarray,
               den: int) -> tuple[np.ndarray, int]:
        """The integer product a @ b over den, the product of the
        factors' denominators, normalized."""
        return self.normalize(a @ b, den)

    def eliminate(self, a: np.ndarray, r: int, c: int) -> None:
        """Clear column c in every other row: row_i becomes
        pv * row_i - a_ic * row_r (pv = a_rc), divided by its content."""
        mask = a[:, c].astype(bool)
        mask[r] = False
        if not np.count_nonzero(mask):
            return
        # cross-multiplying scales the whole of row_i, also the entries
        # left of c that an earlier pivot row keeps in non-pivot columns
        rows = a[mask]
        rows = a.item(r, c) * rows - rows[:, c:c + 1] * a[r]
        for row in rows:
            g = math.gcd(*row.tolist())
            if g > 1:
                row //= g
        a[mask] = rows

    def from_work(self, a: np.ndarray,
                  pivots: Sequence[int]) -> tuple[np.ndarray, int]:
        """Each pivot row divided by its pivot, all over the lcm of the
        pivots, in lowest terms; the rows past the rank are zero."""
        pvs = [a.item(k, c) for k, c in enumerate(pivots)]
        den = math.lcm(*pvs)
        out = np.zeros(a.shape, dtype=object)
        for k, pv in enumerate(pvs):
            out[k] = a[k] * (den // pv)
        return self.normalize(out, den)


# the Fractions that stand for every zero and one of Q
_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    The data is one read-only numpy array of dtype field.dtype and a
    positive int denominator: int64 entries in [0, p) over 1 on F_p,
    Python ints over Q, with the pair in lowest terms (the zero matrix
    has denominator 1), so equal matrices have equal data. Every method
    has one body for both fields; the field supplies the array steps that
    differ: normalize, equal, matmul, the elimination step of rref with
    its conversion out of the working array, and the entries as field
    elements. Treat instances as values: every operation returns a new
    Mat. Row data that is not already an array of the field's dtype is
    converted entry by entry with field.of. Data and den are normalized
    unless the caller passes reduced=True, which only the operations that
    build canonical data themselves do.
    """

    __slots__ = ("field", "nrows", "ncols", "_a", "_den", "_rref")

    def __init__(self, field, nrows: int, ncols: int, data, den: int = 1, *,
                 reduced: bool = False):
        if reduced or (isinstance(data, np.ndarray)
                       and data.dtype == field.dtype):
            a = data
        else:
            try:
                a = np.array([[field.of(x) for x in row] for row in data],
                             dtype=field.dtype)
            except (TypeError, ValueError):
                raise LinalgError("bad row data shape") from None
        if a.shape != (nrows, ncols):
            if a.size or nrows * ncols:
                raise LinalgError("bad row data shape")
            a = a.reshape(nrows, ncols)
        if not reduced:
            a, den = field.normalize(a, den)
        a.setflags(write=False)
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._a = a
        self._den = den
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
        return Mat(field, n, n, np.eye(n, dtype=field.dtype), reduced=True)

    @staticmethod
    def units(field, n: int, idx: Iterable[int], axis: int = 1) -> "Mat":
        """The unit vectors e_i of k^n, i in idx, as columns (axis 1) or
        rows (axis 0): those columns or rows of the identity."""
        idx = list(idx)
        a = _zeros(field, n, len(idx))
        for j, i in enumerate(idx):
            a[i, j] = 1
        a = a if axis else a.T
        return Mat(field, *a.shape, a, reduced=True)

    @staticmethod
    def column(field, entries: Sequence) -> "Mat":
        rows = [[x] for x in entries]
        return Mat(field, len(rows), 1, rows)

    # ---- accessors ----

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int):
        return self.field.entries(self._a[[i], [j]], self._den)[0]

    def col_entries(self, j: int) -> list:
        return self.field.entries(self._a[:, j], self._den)

    def col(self, j: int) -> "Mat":
        return self.take_columns([j])

    # a subset of the entries of a canonical pair can share a factor with
    # the denominator, which only a denominator above 1 can have

    def take_columns(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        return Mat(self.field, self.nrows, len(idx), self._a.take(idx, 1),
                   self._den, reduced=self._den == 1)

    def take_rows(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        return Mat(self.field, len(idx), self.ncols, self._a.take(idx, 0),
                   self._den, reduced=self._den == 1)

    def reshape(self, nrows: int, ncols: int) -> "Mat":
        """The entries in row-major order, refilled into nrows x ncols."""
        return Mat(self.field, nrows, ncols, self._a.reshape(nrows, ncols),
                   self._den, reduced=True)

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
                   a.reshape(self.ncols, self.nrows), self._den,
                   reduced=True)

    def to_lists(self) -> list[list]:
        return self.field.entries(self._a, self._den)

    def is_zero(self) -> bool:
        return not np.count_nonzero(self._a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat) or (other.field is not self.field
                                          and other.field != self.field):
            return NotImplemented
        return (self._a.shape == other._a.shape and self._den == other._den
                and self.field.equal(self._a, other._a))

    def __hash__(self):
        return hash((self.shape, self._den, tuple(self._a.ravel().tolist())))

    def __repr__(self):
        return f"Mat({self.field}, {self.nrows}x{self.ncols})"

    # ---- arithmetic ----

    def _binary(self, other: "Mat", op):
        if self.shape != other.shape or (self.field is not other.field
                                         and self.field != other.field):
            raise LinalgError("shape/field mismatch")
        (a, b), den = _over_common_den([self, other])
        return Mat(self.field, self.nrows, self.ncols, op(a, b), den)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return Mat(self.field, self.nrows, self.ncols,
                   self.field.neg(self._a), self._den, reduced=True)

    def scale(self, c) -> "Mat":
        c = self.field.of(c)
        return Mat(self.field, self.nrows, self.ncols,
                   self._a * c.numerator, self._den * c.denominator)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows or (self.field is not other.field
                                         and self.field != other.field):
            raise LinalgError("matmul shape/field mismatch")
        if self.ncols == 0:  # nothing to multiply: the zero matrix
            return Mat.zeros(self.field, self.nrows, other.ncols)
        return Mat(self.field, self.nrows, other.ncols,
                   *self.field.matmul(self._a, other._a,
                                      self._den * other._den),
                   reduced=True)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product self (x) other."""
        if self.field is not other.field and self.field != other.field:
            raise LinalgError("kron field mismatch")
        return Mat(self.field, self.nrows * other.nrows,
                   self.ncols * other.ncols, np.kron(self._a, other._a),
                   self._den * other._den)

    def transpose(self) -> "Mat":
        return Mat(self.field, self.ncols, self.nrows, self._a.T, self._den,
                   reduced=True)

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
        a = self._a.copy()
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
                a[r], a[i] = a[i].copy(), a[r].copy()
            f.eliminate(a, r, c)
            pivots.append(c)
        out = Mat(f, self.nrows, self.ncols, *f.from_work(a, pivots),
                  reduced=True)
        self._rref = (out, tuple(pivots))
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Mat":
        """Matrix whose columns are the canonical kernel basis (A v = 0)."""
        R, pivots = self.rref()
        f = self.field
        free = sorted(set(range(self.ncols)).difference(pivots))
        # the pivots of R are R._den / R._den, so the identity rows of the
        # basis are R._den over the same denominator
        k = _zeros(f, self.ncols, len(free))
        k[free, np.arange(len(free))] = R._den
        k[list(pivots)] = f.neg(R._a[:len(pivots), free])
        return Mat(f, self.ncols, len(free), k, R._den, reduced=True)

    def solve(self, B: "Mat"):
        """Least-constrained exact solution X of self @ X = B, or None.

        Free variables are set to zero, so the solution is deterministic.
        """
        if B.nrows != self.nrows or (B.field is not self.field
                                     and B.field != self.field):
            raise LinalgError("solve shape/field mismatch")
        n = self.ncols
        R, pivots = hstack([self, B]).rref()
        if pivots and pivots[-1] >= n:
            return None
        x = _zeros(self.field, n, B.ncols)
        x[list(pivots)] = R._a[:len(pivots), n:]
        return Mat(self.field, n, B.ncols, x, R._den)

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
    """A writable nrows x ncols array of zeros of the field's dtype."""
    return np.zeros((nrows, ncols), dtype=field.dtype)


def _over_common_den(mats: Sequence[Mat]) -> tuple[list[np.ndarray], int]:
    """The arrays of mats brought to the lcm of their denominators, and
    that lcm. Over F_p every denominator is 1, so the arrays come back
    as they are."""
    den = mats[0]._den
    for m in mats:
        if m._den != den:
            den = math.lcm(*(m._den for m in mats))
            return [m._a * (den // m._den) for m in mats], den
    return [m._a for m in mats], den


# Stacked blocks in lowest terms over the lcm of their denominators are in
# lowest terms: a prime power dividing the lcm exactly divides some block's
# denominator, and that block has an entry the prime does not divide.

def _stack(mats: Sequence[Mat], axis: int, name: str) -> Mat:
    """The blocks joined along axis: 1 side by side, 0 one above another."""
    mats = list(mats)
    if not mats:
        raise LinalgError(f"{name} of nothing")
    f, side = mats[0].field, mats[0]._a.shape[1 - axis]
    if any(m._a.shape[1 - axis] != side
           or (m.field is not f and m.field != f) for m in mats):
        raise LinalgError(f"{name} mismatch")
    arrays, den = _over_common_den(mats)
    a = np.concatenate(arrays, axis)
    return Mat(f, *a.shape, a, den, reduced=True)


def hstack(mats: Sequence[Mat]) -> Mat:
    return _stack(mats, 1, "hstack")


def vstack(mats: Sequence[Mat]) -> Mat:
    return _stack(mats, 0, "vstack")


def block_diag(field, mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    arrays, den = _over_common_den(mats) if mats else ([], 1)
    a = _zeros(field, sum(m.nrows for m in mats), sum(m.ncols for m in mats))
    r = c = 0
    for m, x in zip(mats, arrays):
        a[r:r + m.nrows, c:c + m.ncols] = x
        r, c = r + m.nrows, c + m.ncols
    return Mat(field, r, c, a, den, reduced=True)


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
