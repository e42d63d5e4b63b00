"""Multivariate polynomials and free-module vectors with exact coefficients.

Monomials are exponent tuples. The monomial order is graded reverse
lexicographic (grevlex); free-module terms (component, monomial) are
compared position-over-term (POT) with lower component index dominating.
`grevlex_key` and `pot_key` grow with the order. `lead_key` runs the
other way: it is the one ascending key of the POT-grevlex order, so the
lead term is the term of least `lead_key`. `PolyVec.lead` takes that
minimum once per vector and keeps it, and the division in
`grobner.normal_form` pops its heap in the same order.

The terms dict of a Poly or PolyVec is never written to after
construction. The public constructors copy and clean their input;
`from_clean` adopts a dict that already has tuple keys and no zero
coefficient. `add_multiple` and `add_combination` add multiples of
vectors into one plain dict in place, deleting every sum that cancels,
so a long sum builds no intermediate vector.
"""

from __future__ import annotations

import re
from operator import add as _add
from typing import Iterable, Sequence

Mono = tuple  # exponent tuple, one entry per variable


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(_add, a, b))


def mono_div(a: Mono, b: Mono):
    """a / b as a monomial, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Mono, degrees: Sequence[int] | None = None) -> int:
    if degrees is None:
        return sum(a)
    return sum(x * d for x, d in zip(a, degrees))


def grevlex_key(a: Mono, degrees: Sequence[int] | None = None):
    return (mono_deg(a, degrees), tuple(-x for x in reversed(a)))


def pot_key(term, degrees: Sequence[int] | None = None):
    """Position-over-term key for a (component, monomial) pair."""
    comp, mono = term
    return (-comp, grevlex_key(mono, degrees))


def lead_key(term):
    """Ascending POT-grevlex key of a (component, monomial) pair: the
    lead term is the term of least key. Ordering by it is ordering by
    pot_key reversed."""
    comp, mono = term
    return (comp, -sum(mono), mono[::-1])


def monomials_of_degree(nvars: int, d: int) -> list[Mono]:
    """All exponent tuples of total degree d, in grevlex-descending order."""
    if nvars == 0:
        return [()] if d == 0 else []
    out: list[Mono] = []

    def rec(prefix, remaining, pos):
        if pos == nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, pos + 1)

    rec([], d, 0)
    out.sort(key=grevlex_key, reverse=True)
    return out


class Poly:
    """Polynomial in nvars variables over an exact field.

    The constructor reduces each coefficient through field.of and drops
    zeros, so equal polynomials have equal term dicts.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms: dict | None = None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for m, c in terms.items():
                c = field.of(c)
                if not field.is_zero(c):
                    clean[tuple(m)] = c
        self.terms = clean

    @staticmethod
    def from_clean(field, nvars: int, terms: dict) -> "Poly":
        """Adopt terms, not a copy: tuple keys, reduced nonzero values."""
        p = object.__new__(Poly)
        p.field, p.nvars, p.terms = field, nvars, terms
        return p

    @staticmethod
    def zero(field, nvars: int) -> "Poly":
        return Poly(field, nvars)

    @staticmethod
    def constant(field, nvars: int, c) -> "Poly":
        return Poly(field, nvars, {(0,) * nvars: field.of(c)})

    @staticmethod
    def variable(field, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(field, nvars, {tuple(e): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_coeff(self):
        return self.terms.get((0,) * self.nvars, self.field.zero)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        f = self.field
        for m, c in other.terms.items():
            out[m] = f.add(out.get(m, f.zero), c)
        return Poly(f, self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        f = self.field
        for m, c in other.terms.items():
            out[m] = f.sub(out.get(m, f.zero), c)
        return Poly(f, self.nvars, out)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, self.nvars, {m: f.neg(c) for m, c in self.terms.items()})

    def scale(self, c) -> "Poly":
        f = self.field
        c = f.of(c)
        return Poly(f, self.nvars, {m: f.mul(cc, c) for m, cc in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = f.add(out.get(m, f.zero), f.mul(c1, c2))
        return Poly(f, self.nvars, out)

    def mul_mono(self, m: Mono, c=None) -> "Poly":
        f = self.field
        c = f.one if c is None else c
        return Poly(f, self.nvars,
                    {mono_mul(mm, m): f.mul(cc, c) for mm, cc in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.nvars == self.nvars
                and other.field == self.field and other.terms == self.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def degree(self, degrees: Sequence[int] | None = None):
        """Total (weighted) degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono_deg(m, degrees) for m in self.terms)

    def homogeneous_degree(self, degrees: Sequence[int] | None = None):
        """The common degree of all terms, or None if mixed or zero."""
        degs = {mono_deg(m, degrees) for m in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def lead(self, degrees=None):
        m = max(self.terms, key=lambda mm: grevlex_key(mm, degrees))
        return m, self.terms[m]

    def text(self, varnames: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            factors = []
            for v, e in zip(varnames, m):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            body = "*".join(factors)
            cs = self.field.scalar_str(c)
            if body:
                parts.append(body if cs == "1" else f"{cs}*{body}")
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({len(self.terms)} terms)"


def add_multiple(acc: dict, terms: dict, field, mono: Mono, c) -> None:
    """acc += c * x^mono * terms, in place, for PolyVec terms dicts and a
    nonzero c. A sum that cancels is deleted from acc."""
    add, mul, is_zero = field.add, field.mul, field.is_zero
    for (comp, m), cc in terms.items():
        t = (comp, mono_mul(m, mono))
        s = add(acc[t], mul(cc, c)) if t in acc else mul(cc, c)
        if is_zero(s):
            del acc[t]
        else:
            acc[t] = s


def add_combination(acc: dict, vecs, coeffs: Iterable, field,
                    negate: bool = False) -> dict:
    """acc += sum of c * x^m * vecs[k] over the ((k, m), c) of coeffs, in
    place (acc -= that sum with negate); returns acc."""
    neg = field.neg
    for (k, m), c in coeffs:
        add_multiple(acc, vecs[k].terms, field, m, neg(c) if negate else c)
    return acc


class PolyVec:
    """Element of a free module R^s: terms are (component, monomial) -> coeff.

    As for Poly, the constructor reduces coefficients through field.of and
    drops zeros.
    """

    __slots__ = ("field", "nvars", "terms", "_lead")

    def __init__(self, field, nvars: int, terms: dict | None = None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for (comp, m), c in terms.items():
                c = field.of(c)
                if not field.is_zero(c):
                    clean[(comp, tuple(m))] = c
        self.terms = clean
        self._lead = None

    @staticmethod
    def from_clean(field, nvars: int, terms: dict) -> "PolyVec":
        """Adopt terms, not a copy: tuple keys, reduced nonzero values."""
        v = object.__new__(PolyVec)
        v.field, v.nvars, v.terms, v._lead = field, nvars, terms, None
        return v

    @staticmethod
    def zero(field, nvars: int) -> "PolyVec":
        return PolyVec(field, nvars)

    @staticmethod
    def unit(field, nvars: int, comp: int) -> "PolyVec":
        return PolyVec(field, nvars, {(comp, (0,) * nvars): field.one})

    @staticmethod
    def from_polys(polys: Sequence[Poly]) -> "PolyVec":
        """Column vector with polys[i] in component i."""
        assert polys
        f, nv = polys[0].field, polys[0].nvars
        terms = {}
        for i, p in enumerate(polys):
            for m, c in p.terms.items():
                terms[(i, m)] = c
        return PolyVec.from_clean(f, nv, terms)

    def component(self, comp: int) -> Poly:
        return Poly.from_clean(self.field, self.nvars,
                               {m: c for (cc, m), c in self.terms.items() if cc == comp})

    def components(self, rank: int) -> list[Poly]:
        return [self.component(i) for i in range(rank)]

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolyVec") -> "PolyVec":
        f = self.field
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = f.add(out.get(t, f.zero), c)
            if f.is_zero(s):
                del out[t]
            else:
                out[t] = s
        return PolyVec.from_clean(f, self.nvars, out)

    def __sub__(self, other: "PolyVec") -> "PolyVec":
        f = self.field
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = f.sub(out.get(t, f.zero), c)
            if f.is_zero(s):
                del out[t]
            else:
                out[t] = s
        return PolyVec.from_clean(f, self.nvars, out)

    def __neg__(self) -> "PolyVec":
        f = self.field
        return PolyVec.from_clean(f, self.nvars,
                                  {t: f.neg(c) for t, c in self.terms.items()})

    def scale(self, c) -> "PolyVec":
        f = self.field
        c = f.of(c)
        if f.is_zero(c):
            return PolyVec.zero(f, self.nvars)
        return PolyVec.from_clean(f, self.nvars,
                                  {t: f.mul(cc, c) for t, cc in self.terms.items()})

    def mul_mono(self, m: Mono, c=None) -> "PolyVec":
        f = self.field
        c = f.one if c is None else c
        if f.is_zero(c):
            return PolyVec.zero(f, self.nvars)
        return PolyVec.from_clean(f, self.nvars,
                                  {(comp, mono_mul(mm, m)): f.mul(cc, c)
                                   for (comp, mm), cc in self.terms.items()})

    def mul_poly(self, p: Poly) -> "PolyVec":
        out: dict = {}
        for m, c in p.terms.items():
            add_multiple(out, self.terms, self.field, m, c)
        return PolyVec.from_clean(self.field, self.nvars, out)

    def __eq__(self, other):
        return (isinstance(other, PolyVec) and other.nvars == self.nvars
                and other.field == self.field and other.terms == self.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def lead(self, degrees=None):
        """((component, monomial), coeff) of the POT-grevlex lead term.

        The unweighted lead is the term of least `lead_key`, taken once
        and kept; the weighted one (degrees given) is found on each call.
        """
        if degrees is not None:
            t = max(self.terms, key=lambda tt: pot_key(tt, degrees))
            return t, self.terms[t]
        if self._lead is None:
            t = min(self.terms, key=lead_key)
            self._lead = (t, self.terms[t])
        return self._lead

    def homogeneous_degree(self, twists: Sequence[int],
                           degrees: Sequence[int] | None = None):
        """Common degree of all terms under component twists, else None."""
        degs = {mono_deg(m, degrees) + twists[comp] for (comp, m) in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def max_component(self) -> int:
        return max((c for (c, _) in self.terms), default=-1)

    def text(self, varnames: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        rank = self.max_component() + 1
        return "(" + ", ".join(p.text(varnames) for p in self.components(rank)) + ")"

    def __repr__(self):
        return f"PolyVec({len(self.terms)} terms)"


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-|\(|\))")


def parse_poly(field, varnames: Sequence[str], text: str) -> Poly:
    """Parse integer/fraction coefficients, + - * ^ and parentheses."""
    nvars = len(varnames)
    vi = {v: i for i, v in enumerate(varnames)}
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad polynomial syntax at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take():
        nonlocal idx
        if idx == len(tokens):
            raise ValueError("unexpected end of polynomial")
        t = tokens[idx]
        idx += 1
        return t

    def atom() -> Poly:
        t = peek()
        if t is None:
            raise ValueError("unexpected end of polynomial")
        if t == "(":
            take()
            e = expr()
            if peek() != ")":
                raise ValueError("missing )")
            take()
            return e
        take()
        if t[0].isdigit():
            from .linalg import parse_scalar
            return Poly.constant(field, nvars, parse_scalar(field, t))
        if t not in vi:
            raise ValueError(f"unknown variable {t!r}")
        e = 1
        if peek() == "^":
            take()
            e = int(take())
        mono = [0] * nvars
        mono[vi[t]] = e
        return Poly(field, nvars, {tuple(mono): field.one})

    def factor() -> Poly:
        out = atom()
        while peek() == "*" or (peek() is not None and peek() not in ("+", "-", ")", "^", "*")):
            if peek() == "*":
                take()
            out = out * atom()
        return out

    def expr() -> Poly:
        neg = False
        if peek() in ("+", "-"):
            neg = take() == "-"
        out = factor()
        if neg:
            out = -out
        while peek() in ("+", "-"):
            op = take()
            rhs = factor()
            out = out - rhs if op == "-" else out + rhs
        return out

    result = expr()
    if idx != len(tokens):
        raise ValueError(f"trailing tokens in polynomial {text!r}")
    return result
