"""Polynomials and free-module vectors with exact coefficients.

There is one type, `PolyVec`: an element of a free module R^s over
R = k[x_1..x_n], stored as terms (component, monomial) -> coefficient.
A polynomial is a PolyVec whose terms all sit in component 0:
`parse_poly` returns one, `v.mul_poly(p)` multiplies a vector by it, and
`component_text(0, ...)` prints it.

Monomials are exponent tuples. The monomial order is graded reverse
lexicographic (grevlex); free-module terms (component, monomial) are
compared position-over-term (POT) with lower component index dominating.
`grevlex_key` and `pot_key` grow with the order. `lead_key` runs the
other way: it is the one ascending key of the POT-grevlex order, so the
lead term is the term of least `lead_key`. `PolyVec.lead` takes that
minimum once per vector and keeps it, and the division in
`grobner.normal_form` pops its heap in the same order.

The terms dict of a PolyVec is never written to after construction. The
public constructor copies and cleans its input; `from_clean` adopts a
dict that already has tuple keys and no zero coefficient.
`add_multiple` and `add_combination` add multiples of vectors into one
plain dict in place, deleting every sum that cancels, so a long sum
builds no intermediate vector.
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


def grevlex_key(a: Mono):
    return (sum(a), tuple(-x for x in reversed(a)))


def pot_key(term):
    """Position-over-term key for a (component, monomial) pair."""
    comp, mono = term
    return (-comp, grevlex_key(mono))


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

    A polynomial is a PolyVec with every term in component 0. The
    constructor reduces coefficients through field.of and drops zeros, so
    equal vectors have equal term dicts.
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
    def variable(field, nvars: int, i: int) -> "PolyVec":
        """The polynomial x_i."""
        e = [0] * nvars
        e[i] = 1
        return PolyVec(field, nvars, {(0, tuple(e)): field.one})

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

    def mul_poly(self, p: "PolyVec") -> "PolyVec":
        """self times the polynomial p (a component-0 PolyVec)."""
        out: dict = {}
        for (_, m), c in p.terms.items():
            add_multiple(out, self.terms, self.field, m, c)
        return PolyVec.from_clean(self.field, self.nvars, out)

    def __eq__(self, other):
        return (isinstance(other, PolyVec) and other.nvars == self.nvars
                and other.field == self.field and other.terms == self.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def lead(self):
        """((component, monomial), coeff) of the POT-grevlex lead term: the
        term of least `lead_key`, taken once and kept."""
        if self._lead is None:
            t = min(self.terms, key=lead_key)
            self._lead = (t, self.terms[t])
        return self._lead

    def homogeneous_degree(self, twists: Sequence[int]):
        """Common degree of all terms under component twists, else None."""
        degs = {sum(m) + twists[comp] for (comp, m) in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def max_component(self) -> int:
        return max((c for (c, _) in self.terms), default=-1)

    def text(self, varnames: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        return "(" + ", ".join(self.component_text(i, varnames)
                               for i in range(self.max_component() + 1)) + ")"

    def component_text(self, comp: int, varnames: Sequence[str]) -> str:
        """Component comp as a polynomial, largest term first."""
        monos = sorted((m for c, m in self.terms if c == comp),
                       key=grevlex_key, reverse=True)
        if not monos:
            return "0"
        parts = []
        for m in monos:
            factors = []
            for v, e in zip(varnames, m):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            body = "*".join(factors)
            cs = self.field.scalar_str(self.terms[(comp, m)])
            if body:
                parts.append(body if cs == "1" else f"{cs}*{body}")
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"PolyVec({len(self.terms)} terms)"


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-|\(|\))")


def parse_poly(field, varnames: Sequence[str], text: str) -> PolyVec:
    """Parse integer/fraction coefficients, + - * ^ and parentheses into a
    polynomial, a PolyVec in component 0."""
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

    def atom() -> PolyVec:
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
            return PolyVec(field, nvars, {(0, (0,) * nvars): parse_scalar(field, t)})
        if t not in vi:
            raise ValueError(f"unknown variable {t!r}")
        e = 1
        if peek() == "^":
            take()
            e = int(take())
        mono = [0] * nvars
        mono[vi[t]] = e
        return PolyVec(field, nvars, {(0, tuple(mono)): field.one})

    def factor() -> PolyVec:
        out = atom()
        while peek() == "*" or (peek() is not None and peek() not in ("+", "-", ")", "^", "*")):
            if peek() == "*":
                take()
            out = atom().mul_poly(out)
        return out

    def expr() -> PolyVec:
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
