"""Seeded session scripts for the levelcert benchmark.

Each workload is a fixed batch of commands in the `levelcert` script
language.  The paper's fixed cases (residue fields, Koszul complexes,
the dual E = A^v of an artinian ring) come first; generated inputs
follow: two-term complexes with random linear-form differentials, their
tensor products with a second two-term complex, and cokernel modules.
Only the coefficients depend on the seed; the shapes, rings and commands
do not, so every seed runs the same kinds of work.

This generator is standalone on purpose: it never imports levelcert, so
a change in the program cannot change the inputs.

Every command comes with facts that hold by construction (number of
nonzero free terms, number of variables, whether the ring is
self-injective), which the checks in `checks.py` use.

Print a script to replay it with plain `levelcert`:

    python3 perfbench/gen.py --workload artinian --seed 3 > s.lvc
    PYTHONPATH=src python3 -m levelcert.cli s.lvc
"""

from __future__ import annotations

import argparse
import itertools
import random
from fractions import Fraction
from dataclasses import dataclass, field

CLASSES = ("Proj", "Inj", "Flat", "GP", "GI", "GF")


@dataclass
class Ring:
    """A monomial quotient k[vars]/(rels), or a polynomial ring when
    rels is None.  p is the field characteristic, 0 for Q."""

    name: str
    p: int
    vars: tuple
    rels: tuple | None = None

    @property
    def field(self) -> str:
        return f"F{self.p}" if self.p else "Q"

    @property
    def artinian(self) -> bool:
        return self.rels is not None

    def decl(self) -> str:
        vs = ", ".join(self.vars)
        if not self.artinian:
            return f"{self.name} = poly({self.field}; {vs})"
        return (f"{self.name} = artin({self.field}; {vs} | "
                f"{', '.join(self.rels)})")

    def _rel_exponents(self):
        out = []
        for rel in self.rels:
            e = [0] * len(self.vars)
            for factor in rel.split("*"):
                v, _, k = factor.partition("^")
                e[self.vars.index(v)] += int(k or 1)
            out.append(tuple(e))
        return out

    def standard_monomials(self):
        """Exponent vectors outside the monomial ideal, by degree."""
        rels = self._rel_exponents()
        top = max(sum(r) for r in rels)
        out = []
        for e in itertools.product(range(top + 1), repeat=len(self.vars)):
            if not any(all(a >= b for a, b in zip(e, r)) for r in rels):
                out.append(e)
        return sorted(out, key=lambda e: (sum(e), [-a for a in e]))

    @property
    def self_injective(self) -> bool:
        """A monomial artinian ring is Gorenstein iff its socle, the
        standard monomials killed by every variable, is one-dimensional."""
        std = set(self.standard_monomials())
        socle = [e for e in std
                 if all(_bump(e, i) not in std for i in range(len(e)))]
        return len(socle) == 1

    def dual_action(self) -> dict:
        """Action matrices of E = Hom_k(A, k): transposes of the
        multiplication matrices of A on its monomial basis."""
        std = self.standard_monomials()
        idx = {e: j for j, e in enumerate(std)}
        out = {}
        for i, v in enumerate(self.vars):
            mult = [[0] * len(std) for _ in std]
            for j, e in enumerate(std):
                k = idx.get(_bump(e, i))
                if k is not None:
                    mult[k][j] = 1
            out[v] = [list(r) for r in zip(*mult)]
        return out


def _bump(e, i):
    return tuple(a + (j == i) for j, a in enumerate(e))


def _mat_text(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]"


@dataclass
class Script:
    """Script lines plus one facts dict per command, in command order."""

    lines: list = field(default_factory=list)
    facts: list = field(default_factory=list)
    objects: dict = field(default_factory=dict)

    def ring(self, ring: Ring):
        self.lines.append(ring.decl())

    def obj(self, name: str, text: str, **facts):
        self.lines.append(text)
        self.objects[name] = facts

    def cmd(self, text: str):
        """Append a command; its facts are those of the named object."""
        words = text.split()
        facts = dict(self.objects[words[-1] if words[0] == "level"
                                  else words[1]])
        self.lines.append(text)
        self.facts.append({"command": text, **facts})

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class Gen:
    """Random linear forms over one ring, in general position.

    Coefficients are nonzero (1..p-1 over F_p, +-1..+-3 over Q), and the
    forms of one matrix are in general position: any min(#forms, n) of
    them are linearly independent.  Over a large field random forms are
    like this almost surely; asking for it everywhere makes every seed
    the same kind of input (over F3[x,y]/(x^2,y^2) it rules out
    proportional pairs, which change the homology), so seeds differ in
    coefficients and not in shape.
    """

    ATTEMPTS = 10000

    def __init__(self, rng: random.Random, ring: Ring):
        self.rng = rng
        self.ring = ring

    def coeff(self) -> int:
        if self.ring.p:
            return self.rng.randrange(1, self.ring.p)
        return self.rng.choice((-3, -2, -1, 1, 2, 3))

    def forms(self, count: int):
        """count coefficient vectors in general position."""
        n = len(self.ring.vars)
        out = []
        for _ in range(self.ATTEMPTS):
            if len(out) == count:
                return out
            cand = [self.coeff() for _ in range(n)]
            size = min(len(out), n - 1)
            if all(_independent([*sub, cand], self.ring.p)
                   for sub in itertools.combinations(out, size)):
                out.append(cand)
        raise ValueError(f"no {count} forms in general position over "
                         f"{self.ring.decl()}")

    def matrices(self, *shapes):
        """Matrices of the given shapes whose forms are, all together,
        in general position."""
        vecs = iter(self.forms(sum(r * c for r, c in shapes)))
        return [[[self._text(next(vecs)) for _ in range(c)]
                 for _ in range(r)] for r, c in shapes]

    def _text(self, cs) -> str:
        text = ""
        for c, v in zip(cs, self.ring.vars):
            mag = abs(c)
            term = v if mag == 1 else f"{mag}*{v}"
            if not text:
                text = ("-" if c < 0 else "") + term
            else:
                text += (" - " if c < 0 else " + ") + term
        return text


def _independent(vectors, p: int) -> bool:
    """Linear independence over F_p, or over Q when p is 0."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows))
                    if _reduce(rows[r][col], p)), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and _reduce(rows[r][col], p):
                f = rows[r][col] / rows[rank][col]
                rows[r] = [_reduce(a - f * b, p)
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(rows)


def _reduce(x: Fraction, p: int) -> Fraction:
    """x in F_p (as the integer representative), or x itself over Q."""
    if not p:
        return x
    return Fraction(x.numerator * pow(x.denominator, -1, p) % p)


def _identity(n: int):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _kron(a, b):
    """Entries a_ij * b_kl written as `(a)*(b)`; the parser multiplies."""
    return [[f"({a[i][j]})*({b[k][l]})"
             for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for k in range(len(b))]


def _hcat(left, right):
    return [l + r for l, r in zip(left, right)]


def two_term(s: Script, g: Gen, name: str, r1: int, r0: int):
    """A^r1 --M--> A^r0 in degrees 1, 0 with M of random linear forms."""
    m, = g.matrices((r0, r1))
    tw = ""
    if not g.ring.artinian:
        tw = f" ; twists 1 = [{', '.join(['1'] * r1)}]"
    s.obj(name, f"complex {name} over {g.ring.name} : range 1..0 ; "
                f"d1 = {_mat_text(m)}{tw}",
          kind="generated", terms=2, **ring_facts(g.ring))


def tensor(s: Script, g: Gen, name: str, a1: int, a0: int, b1: int,
           b0: int):
    """(A^a1 -M-> A^a0) (x) (A^b1 -N-> A^b0), a 3-term complex.

    d2 = [M (x) 1 ; -1 (x) N] onto C1(x)D0 + C0(x)D1 and
    d1 = [M (x) 1, 1 (x) N]; d1 d2 = -M(x)N + M(x)N = 0 because ring
    entries commute.
    """
    m, n = g.matrices((a0, a1), (b0, b1))
    # C1 (x) D1 -> C1 (x) D0 (+) C0 (x) D1
    d2 = _kron(_identity(a1), n)
    d2 = [[f"-{e}" for e in row] for row in d2] + _kron(m, _identity(b1))
    # C1 (x) D0 (+) C0 (x) D1 -> C0 (x) D0
    d1 = _hcat(_kron(m, _identity(b0)), _kron(_identity(a0), n))
    tw = ""
    if not g.ring.artinian:
        t2, t1 = a1 * b1, a1 * b0 + a0 * b1
        tw = (f" ; twists 2 = [{', '.join(['2'] * t2)}]"
              f" ; twists 1 = [{', '.join(['1'] * t1)}]")
    s.obj(name, f"complex {name} over {g.ring.name} : range 2..0 ; "
                f"d2 = {_mat_text(d2)} ; d1 = {_mat_text(d1)}{tw}",
          kind="generated", terms=3, **ring_facts(g.ring))


def coker(s: Script, g: Gen, name: str, nrows: int, ncols: int):
    m, = g.matrices((nrows, ncols))
    s.obj(name, f"module {name} over {g.ring.name} = coker {_mat_text(m)}",
          kind="coker", **ring_facts(g.ring))


def ring_facts(ring: Ring) -> dict:
    """Facts about the base ring that the checks rely on."""
    return {"nvars": len(ring.vars),
            "regular": not ring.artinian,
            "self_injective": ring.artinian and ring.self_injective,
            "square_zero": ring.rels == tuple(f"{v}^2" for v in ring.vars)}


def fixed_objects(s: Script, ring: Ring, tag: str):
    """Residue field k; over an artinian ring also the Koszul complex K
    on its (one or two) variables and E = A^v."""
    r, n = ring.name, len(ring.vars)
    common = ring_facts(ring)
    s.obj(f"k{tag}", f"module k{tag} over {r} = coker "
                     f"[[{', '.join(ring.vars)}]]",
          kind="residue", **common)
    if not ring.artinian:
        return
    if n == 1:
        kz = f"range 1..0 ; d1 = [[{ring.vars[0]}]]"
    else:
        x, y = ring.vars
        kz = f"range 2..0 ; d1 = [[{x}, {y}]] ; d2 = [[-{y}], [{x}]]"
    s.obj(f"K{tag}", f"complex K{tag} over {r} : {kz}",
          kind="koszul", terms=n + 1, **common)
    action = ", ".join(
        f"{v}: {_mat_text([[str(c) for c in row] for row in m])}"
        for v, m in ring.dual_action().items())
    s.obj(f"E{tag}", f"module E{tag} over {r} = action {{ {action} }}",
          kind="dual", **common)


# ---------------------------------------------------------------- workloads


def artinian(seed: int) -> Script:
    s = Script()
    rng = random.Random(seed)
    a2 = Ring("A", 2, ("x",), ("x^2",))
    a3 = Ring("B", 3, ("x", "y"), ("x^2", "y^2"))
    a101 = Ring("C", 101, ("x",), ("x^2",))
    n2 = Ring("N", 2, ("x", "y"), ("x^2", "x*y", "y^2"))
    for ring in (a2, a3, a101, n2):
        s.ring(ring)
    for ring in (a2, a3, a101):
        fixed_objects(s, ring, ring.name)
    s.obj("kN", "module kN over N = coker [[x, y]]", kind="residue",
          **ring_facts(n2))
    s.obj("CN", "complex CN over N : range 1..0 ; d1 = [[x]]",
          kind="generated", terms=2, **ring_facts(n2))
    for ring in (a2, a3, a101):
        g = Gen(rng, ring)
        t = ring.name
        two_term(s, g, f"C{t}1", 1, 1)
        two_term(s, g, f"C{t}2", 2, 1)
        two_term(s, g, f"C{t}3", 1, 2)
        tensor(s, g, f"T{t}1", 1, 1, 1, 1)
        coker(s, g, f"M{t}1", 1, 2)

    # fixed cases of the paper
    for cls in CLASSES:
        s.cmd(f"level {cls} KA")
    for t in ("A", "B", "C"):
        s.cmd(f"level GI k{t}")
        s.cmd(f"level Inj E{t}")
        s.cmd(f"bass E{t}")
        s.cmd(f"gid k{t}")
    s.cmd("bass KA")
    s.cmd("level Inj KB")
    s.cmd("level Inj KC")
    s.cmd("level GI KC")
    # G-classes over the non-Gorenstein ring
    s.cmd("level GP CN")
    s.cmd("level GF CN")
    s.cmd("level GI kN")
    s.cmd("gpd kN")
    s.cmd("gid kN")
    # generated inputs: every class on every Gorenstein ring
    for t in ("A", "B", "C"):
        for j, cls in enumerate(CLASSES):
            s.cmd(f"level {cls} C{t}{1 + j % 3}")
        s.cmd(f"level Proj T{t}1")
        if t != "B":  # both take seconds over F3[x,y]/(x^2,y^2)
            s.cmd(f"level GI T{t}1")
            s.cmd(f"level Inj M{t}1")
        s.cmd(f"gid M{t}1")
    return s


def regular(seed: int) -> Script:
    s = Script()
    rng = random.Random(seed)
    r3 = Ring("R", 101, ("x", "y", "z"))
    r4 = Ring("S", 101, ("x", "y", "z", "w"))
    s.ring(r3)
    s.ring(r4)
    fixed_objects(s, r3, "R")
    fixed_objects(s, r4, "S")
    g = Gen(rng, r3)
    two_term(s, g, "CR1", 2, 2)
    two_term(s, g, "CR2", 1, 2)
    tensor(s, g, "TR1", 1, 1, 1, 1)
    coker(s, g, "MR1", 2, 3)
    coker(s, g, "MR2", 1, 2)
    g = Gen(rng, r4)
    two_term(s, g, "CS1", 1, 2)
    coker(s, g, "MS1", 1, 3)

    # the residue field: pd + 1 = n + 1 is attained
    for cls in ("Proj", "Flat", "GP", "GF"):
        s.cmd(f"level {cls} kR")
    for verb in ("pd", "resolve", "adams", "splice"):
        s.cmd(f"{verb} kR")
    s.cmd("level Proj kS")
    for verb in ("pd", "resolve", "adams", "splice"):
        s.cmd(f"{verb} kS")
    # generated inputs
    s.cmd("level Proj CR1")
    s.cmd("level Flat CR2")
    s.cmd("level GP CR1")
    s.cmd("level GF CR2")
    s.cmd("adams CR1")
    s.cmd("splice CR2")
    s.cmd("level Proj TR1")
    # Flat and GF of TR1 put the batch's median command inside a group of
    # similar costs, so command_p50_s does not jump between two commands
    s.cmd("level Flat TR1")
    s.cmd("level GP TR1")
    s.cmd("level GF TR1")
    s.cmd("adams TR1")
    s.cmd("splice TR1")
    s.cmd("level Proj MR2")
    for verb in ("pd", "resolve"):
        for name in ("MR1", "MR2", "MS1"):
            s.cmd(f"{verb} {name}")
    s.cmd("level Proj CS1")
    s.cmd("splice CS1")
    return s


def rational(seed: int) -> Script:
    s = Script()
    rng = random.Random(seed)
    aq = Ring("AQ", 0, ("x",), ("x^2",))
    rq = Ring("RQ", 0, ("x", "y", "z"))
    s.ring(aq)
    s.ring(rq)
    fixed_objects(s, aq, "Q")
    fixed_objects(s, rq, "RQ")
    g = Gen(rng, aq)
    two_term(s, g, "CQ1", 1, 1)
    two_term(s, g, "CQ2", 2, 1)
    two_term(s, g, "CQ3", 1, 2)
    tensor(s, g, "TQ1", 1, 1, 1, 1)
    coker(s, g, "MQ1", 1, 2)

    for cls in CLASSES:
        s.cmd(f"level {cls} KQ")
    s.cmd("level GI kQ")
    s.cmd("level Inj EQ")
    s.cmd("bass EQ")
    s.cmd("gid kQ")
    for j, cls in enumerate(CLASSES):
        s.cmd(f"level {cls} CQ{1 + j % 3}")
    # these four put the batch's median command inside a group of
    # similar costs, so command_p50_s does not jump between two commands
    s.cmd("level Inj CQ1")
    s.cmd("level Flat CQ1")
    s.cmd("level Proj CQ3")
    s.cmd("level Flat CQ2")
    s.cmd("level GI TQ1")
    s.cmd("level Inj MQ1")
    s.cmd("gid MQ1")
    s.cmd("level Proj kRQ")
    s.cmd("pd kRQ")
    s.cmd("resolve kRQ")
    return s


GENERATORS = {"artinian": artinian, "regular": regular,
              "rational": rational}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> Script:
    return GENERATORS[workload](seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="print the session script of a benchmark workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(generate(args.workload, args.seed).text(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
