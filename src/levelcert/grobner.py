"""Groebner bases for submodules of free modules over polynomial rings.

Everything runs in POT-grevlex order. `buchberger` returns a reduced,
monic, canonically sorted basis together with two change-of-basis
records: each basis element expressed in the input generators, and each
input expressed in the basis. Syzygies come from Schreyer's construction
applied to the finished basis, so pair-selection shortcuts during the
build cannot lose relations.

The pair budget bounds the number of S-pairs processed; exceeding it
raises BudgetExceeded rather than returning a partial answer.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .poly import PolyVec, add_combination, mono_div, mono_lcm, mono_mul, pot_key


class BudgetExceeded(RuntimeError):
    def __init__(self, pairs_done: int):
        super().__init__(f"Groebner pair budget exceeded after {pairs_done} S-pairs")
        self.pairs_done = pairs_done


def normal_form(v: PolyVec, basis, track: bool = False):
    """Divide v by a list of monic PolyVecs.

    Returns the remainder, or (remainder, quotients) with track=True where
    quotients[k] is the polynomial coefficient on basis[k] and
    v = sum(basis[k] * quotients[k]) + remainder.

    The terms still to divide sit in one mutable dict, `work`, and a heap
    of their `lead_key`s pops the largest first. A term whose sum cancels
    is deleted from `work` only; its heap entry is skipped when popped.
    The popped term t = c * x^m is divided by the first basis element
    whose lead divides it, say t = c * x^q * lead(basis[k]): then
    c * x^q * basis[k] is subtracted in place, which touches only the
    terms of basis[k] (the lead cancels t and is skipped). A term that no
    lead divides moves to the remainder. Terms are taken largest first,
    so the remainder and the quotients are those of the term-by-term
    division algorithm.
    """
    field, nvars = v.field, v.nvars
    mul, sub, neg, is_zero = field.mul, field.sub, field.neg, field.is_zero
    divisors: dict = {}  # component -> [(k, lead term of basis[k])]
    for k, g in enumerate(basis):
        lt, _ = g.lead()
        divisors.setdefault(lt[0], []).append((k, lt))
    work = dict(v.terms)
    # a heap entry is lead_key((comp, m)) + (m,)
    heap = [(comp, -sum(m), m[::-1], m) for comp, m in work]
    heapify(heap)
    rem: dict = {}
    quots = [{} for _ in basis] if track else None
    while heap:
        comp, _, _, m = heappop(heap)
        t = (comp, m)
        c = work.pop(t, None)
        if c is None:
            continue
        for k, lt in divisors.get(comp, ()):
            q = mono_div(m, lt[1])
            if q is not None:
                break
        else:
            rem[t] = c
            continue
        if track:
            quots[k][(0, q)] = c
        for gt, gc in basis[k].terms.items():
            if gt is lt:
                continue
            nc, nm = gt[0], mono_mul(gt[1], q)
            nt = (nc, nm)
            old = work.get(nt)
            if old is None:
                work[nt] = neg(mul(gc, c))
                heappush(heap, (nc, -sum(nm), nm[::-1], nm))
            else:
                s = sub(old, mul(gc, c))
                if is_zero(s):
                    del work[nt]
                else:
                    work[nt] = s
    rem = PolyVec.from_clean(field, nvars, rem)
    if track:
        return rem, [PolyVec.from_clean(field, nvars, q) for q in quots]
    return rem


class GroebnerBasis:
    """Reduced Groebner basis with change-of-basis bookkeeping.

    basis[t] = sum_i U[t](component i) * inputs[i]
    inputs[i] = sum_t V[i](component t) * basis[t]
    """

    def __init__(self, field, nvars, inputs, basis, U, V, pairs_done):
        self.field = field
        self.nvars = nvars
        self.inputs = inputs
        self.basis = basis
        self.U = U
        self.V = V
        self.pairs_done = pairs_done

    def __len__(self):
        return len(self.basis)

    def normal_form(self, v: PolyVec) -> PolyVec:
        return normal_form(v, self.basis)

    def contains(self, v: PolyVec) -> bool:
        return self.normal_form(v).is_zero()

    def express(self, v: PolyVec):
        """Quotient polys over the basis if v is in the module, else None."""
        rem, quots = normal_form(v, self.basis, track=True)
        if not rem.is_zero():
            return None
        return quots

    def express_in_inputs(self, v: PolyVec):
        """v as a PolyVec over input indices, or None if not a member."""
        quots = self.express(v)
        if quots is None:
            return None
        return PolyVec.from_clean(self.field, self.nvars, add_combination(
            {}, self.U, _quot_terms(quots), self.field))


def _quot_terms(quots):
    """((k, m), c) for every term c * x^m of quots[k]: the quotients of
    normal_form as the coefficients of an add_combination."""
    return (((k, m), c) for k, q in enumerate(quots) for (_, m), c in q.terms.items())


def _pair_candidates(basis, i, j):
    (ci, mi), _ = basis[i].lead()
    (cj, mj), _ = basis[j].lead()
    if ci != cj:
        return None
    lcm = mono_lcm(mi, mj)
    return (sum(lcm), i, j, lcm, mono_div(lcm, mi), mono_div(lcm, mj))


def buchberger(gens, budget: int = 50000) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by gens.

    Pairs are popped from a heap, lowest lcm-degree first (ties by index). The
    coprimality shortcut is applied only when every generator lives in a
    single component, where it is valid.
    """
    assert gens, "need at least one generator (possibly zero)"
    field, nvars = gens[0].field, gens[0].nvars
    inputs = list(gens)
    rank1 = all(g.max_component() <= 0 for g in inputs)

    basis: list[PolyVec] = []
    U: list[PolyVec] = []
    for i, g in enumerate(inputs):
        if g.is_zero():
            continue
        _, lc = g.lead()
        inv = field.inv(lc)
        basis.append(g.scale(inv))
        U.append(PolyVec.unit(field, nvars, i).scale(inv))

    pending = []
    for j in range(len(basis)):
        for i in range(j):
            cand = _pair_candidates(basis, i, j)
            if cand is not None:
                pending.append(cand)
    heapify(pending)

    pairs_done = 0
    while pending:
        deg, i, j, lcm, qi, qj = heappop(pending)
        (ci, mi), _ = basis[i].lead()
        (cj, mj), _ = basis[j].lead()
        if rank1 and mono_mul(mi, mj) == lcm:
            continue  # coprime leads, S-pair reduces to zero
        pairs_done += 1
        if pairs_done > budget:
            raise BudgetExceeded(pairs_done)
        s = basis[i].mul_mono(qi) - basis[j].mul_mono(qj)
        rem, quots = normal_form(s, basis, track=True)
        if rem.is_zero():
            continue
        _, lc = rem.lead()
        inv = field.inv(lc)
        u = add_combination(dict((U[i].mul_mono(qi) - U[j].mul_mono(qj)).terms),
                            U, _quot_terms(quots), field, negate=True)
        basis.append(rem.scale(inv))
        U.append(PolyVec.from_clean(field, nvars, u).scale(inv))
        new = len(basis) - 1
        for k in range(new):
            cand = _pair_candidates(basis, k, new)
            if cand is not None:
                heappush(pending, cand)

    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for i, g in enumerate(basis):
        (ci, mi), _ = g.lead()
        redundant = False
        for j, h in enumerate(basis):
            if i == j:
                continue
            (cj, mj), _ = h.lead()
            if ci == cj and mono_div(mi, mj) is not None:
                # on equal leads keep the earlier element
                if (mi != mj) or (j < i):
                    redundant = True
                    break
        if not redundant:
            keep.append(i)
    basis = [basis[i] for i in keep]
    U = [U[i] for i in keep]

    # tail-reduce each element against the others
    for i in range(len(basis)):
        others = basis[:i] + basis[i + 1:]
        rem, quots = normal_form(basis[i], others, track=True)
        u = add_combination(dict(U[i].terms), U[:i] + U[i + 1:],
                            _quot_terms(quots), field, negate=True)
        basis[i] = rem
        U[i] = PolyVec.from_clean(field, nvars, u)

    order = sorted(range(len(basis)), key=lambda t: pot_key(basis[t].lead()[0]))
    basis = [basis[t] for t in order]
    U = [U[t] for t in order]

    V = []
    for f in inputs:
        rem, quots = normal_form(f, basis, track=True)
        assert rem.is_zero(), "input failed to reduce to zero against its own basis"
        V.append(PolyVec.from_clean(field, nvars, dict(_quot_terms(quots))))

    return GroebnerBasis(field, nvars, inputs, basis, U, V, pairs_done)


def schreyer_syzygies(gb: GroebnerBasis):
    """Generators of the syzygy module of gb.basis, as PolyVecs over basis indices.

    Every same-component pair of the finished basis contributes
    m_i e_i - m_j e_j - sum quots, using the recorded division to zero.
    """
    field, nvars = gb.field, gb.nvars
    out = []
    n = len(gb.basis)
    units = [PolyVec.unit(field, nvars, k) for k in range(n)]
    for j in range(n):
        for i in range(j):
            cand = _pair_candidates(gb.basis, i, j)
            if cand is None:
                continue
            _, _, _, lcm, qi, qj = cand
            s = gb.basis[i].mul_mono(qi) - gb.basis[j].mul_mono(qj)
            rem, quots = normal_form(s, gb.basis, track=True)
            assert rem.is_zero(), "S-pair of a Groebner basis must reduce to zero"
            syz = add_combination({(i, qi): field.one, (j, qj): field.neg(field.one)},
                                  units, _quot_terms(quots), field, negate=True)
            if syz:
                out.append(PolyVec.from_clean(field, nvars, syz))
    return out


def syzygies(gens, gb: GroebnerBasis | None = None):
    """Generators of {c : sum c_i gens[i] = 0}, as PolyVecs over input indices.

    Schreyer syzygies of the reduced basis are pushed through the
    basis-to-input expressions; the identities input = (input expressed in
    basis expressed in inputs) supply the rest.
    """
    if gb is None:
        gb = buchberger(gens)
    field, nvars = gb.field, gb.nvars
    out = []
    for syz in schreyer_syzygies(gb):
        vec = add_combination({}, gb.U, syz.terms.items(), field)
        if vec:
            out.append(PolyVec.from_clean(field, nvars, vec))
    for i in range(len(gb.inputs)):
        vec = add_combination({(i, (0,) * nvars): field.one}, gb.U,
                              gb.V[i].terms.items(), field, negate=True)
        if vec:
            out.append(PolyVec.from_clean(field, nvars, vec))
    return out
