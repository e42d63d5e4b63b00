"""Homology-cover towers over a bounded complex.

One projective step picks a degreewise free cover F of the homology of a
complex m, realizes it as a chain map phi: F -> m by lifting generators to
cycle representatives, and sets the next layer to the desuspended cone of
phi. Iterating gives a tower m = L0, L1, L2, ... whose connecting maps
induce zero on homology, and whose covers splice into a degreewise exact
sequence of free modules augmented onto H(m). On an artinian base, the
envelope step into degreewise dual-free modules is the vector-space dual
of a cover step on the dual complex.
"""

from dataclasses import dataclass
from types import MappingProxyType

from .modules import free_hom, free_module
from .complexes import ChainMap, Complex, Triangle


class AdamsError(ValueError):
    pass


def homology_stalks(x: Complex) -> Complex:
    """H(x) as a complex with zero differentials."""
    hd = x.hdata()
    mods = {i: hd.homology(i) for i in hd.nonzero_degrees()}
    return Complex(x.ring, mods, {})


@dataclass(frozen=True)
class AdamsStep:
    """One cover step F -> m with its cone and connecting map.

    phi induces a surjection on homology in every degree by construction,
    so H(delta) = 0 and the cone rotates to the degreewise short exact
    sequences 0 -> H(omega) -> F -> H(m) -> 0 on homology. A step is
    read-only: m keeps it, and every tower through m reads it.
    """

    m: Complex
    F: Complex
    phi: ChainMap
    cover: MappingProxyType  # degree -> module hom F_i -> H_i(m)
    omega: Complex       # next layer, shift(-1) of the cone
    delta: ChainMap      # m -> cone(phi) = shift(omega)
    triangle: Triangle


def adams_step_proj(m: Complex) -> AdamsStep:
    """Minimal free homology cover of m and the resulting layer triangle."""
    ring = m.ring
    hd = m.hdata()
    fmods, comps, cover = {}, {}, {}
    for i in hd.nonzero_degrees():
        H = hd.homology(i)
        hg, reps = hd.generator_cycles(i)
        Fi = free_module(ring, [H.degree(e) for e in hg])
        fmods[i] = Fi
        comps[i] = free_hom(Fi, m.module(i), reps)
        cover[i] = free_hom(Fi, H, hg)
    F = Complex(ring, fmods, {})
    # every generator image is a cycle, so phi commutes; the d^2 = 0
    # check of its cone, built in the triangle, confirms it
    phi = ChainMap(F, m, comps)
    tri = Triangle(phi)
    cd = tri.cone_data
    return AdamsStep(m, F, phi, MappingProxyType(cover),
                     cd.complex.shift(-1), cd.inclusion(), tri)


def cover_step(m: Complex) -> AdamsStep:
    """The cover step of m, built on first use and kept on m, like its
    homology, so every tower through m shares it."""
    return m.derived("cover_step", adams_step_proj, m)


@dataclass
class AdamsTower:
    """Layers L0 = m, L1, ..., Ln with covers F^s -> L_s.

    A capped walk along the cover steps each layer keeps: a reader takes
    walk(cap) once, which builds the steps it reaches only, and stops
    early at an exact layer and at the cap n.
    """

    m: Complex
    n: int

    def walk(self, cap: int):
        """The steps from layer 0, at most min(cap, n) of them."""
        cur = self.m
        for _ in range(min(cap, self.n)):
            if cur.is_exact():
                return
            st = cover_step(cur)
            yield st
            cur = st.omega

    @property
    def steps(self) -> list:
        """Every step of the tower, up to the cap."""
        return list(self.walk(self.n))

    def ghost_composite(self, n: int):
        """(m -> shift(L_n, n), its factors): the composite of the first n
        connecting maps, each shifted to follow the one before.

        Each factor induces zero on homology, so a nonzero homotopy
        class of the composite forces at least n + 1 free-cover layers.
        """
        factors = tuple(st.delta.shift(s) if s else st.delta
                        for s, st in enumerate(self.walk(n)))
        if not 1 <= n <= len(factors):
            raise AdamsError("tower too short for the requested composite")
        gamma = factors[0]
        for delta in factors[1:]:
            gamma = delta.compose(gamma)
        return gamma, factors

    def summary(self) -> dict:
        steps = self.steps
        out = {"side": "proj", "generators": "minimal",
               "layers": len(steps), "steps": []}
        for s, st in enumerate(steps):
            ranks = {str(i): st.F.module(i).free_rank for i in st.F.support()}
            out["steps"].append({
                "layer": s,
                "cover_ranks": ranks,
                "next_layer_support": [int(i) for i in st.omega.support()],
            })
        return out


def adams_tower(m: Complex, n: int) -> AdamsTower:
    """The tower of at most n cover steps starting from m."""
    return AdamsTower(m, n)


def _h_into_cover(step: AdamsStep, i: int):
    """H_i(omega) -> F_i, the connecting inclusion of the layer the step
    leaves into its cover.

    A class of omega = shift(cone(phi), -1) is represented by a cycle
    (f, m') with zero F-differential component; sending it to f is well
    defined because boundaries have zero F-component, and it is injective
    because phi is surjective on homology.
    """
    hd = step.omega.hdata()
    H = hd.homology(i)
    if H.is_zero_module():
        return None, H
    _, zeta = hd.cycles(i)
    pi = hd.homology_proj(i)
    pra = step.triangle.cone_data.pr_a[i + 1]
    incl = pra.compose(zeta).factor_through(pi)
    assert incl is not None
    return incl, H


def splice_complex(steps: list, i: int) -> Complex:
    """The degree-i splice 0 -> H_i(L_n) -> F^{n-1}_i -> ... -> H_i(m)
    of the n steps of a tower.

    Returned as a complex in degrees 0..n+1 whose exactness (including
    at both ends) is the splice property.
    """
    n = len(steps)
    if n == 0:
        raise AdamsError("tower too short for the requested splice")
    mods, diffs = {0: steps[0].m.hdata().homology(i)}, {}
    incls = {}
    for s, st in enumerate(steps, 1):
        mods[s] = st.F.module(i) if i in st.cover else None
        incls[s], top = _h_into_cover(st, i)
    mods[n + 1] = top
    for s in range(n + 1):
        src, tgt = mods[s + 1], mods[s]
        if src is None or tgt is None or src.is_zero_module() \
                or tgt.is_zero_module():
            continue
        if s == 0:
            diffs[1] = steps[0].cover[i]
        elif s == n:
            diffs[n + 1] = incls[n]
        else:
            diffs[s + 1] = incls[s].compose(steps[s].cover[i])
    clean = {d: m for d, m in mods.items() if m is not None}
    return Complex(steps[0].m.ring, clean, diffs).checked()


def verify_splice(tower: AdamsTower) -> dict:
    """Exactness of every degreewise splice through the tower's steps."""
    steps = tower.steps
    degs = set(tower.m.hdata().nonzero_degrees())
    for st in steps:
        degs |= set(st.F.support())
    per = {int(i): splice_complex(steps, i).is_exact() for i in sorted(degs)}
    return {"ok": all(per.values()), "per_degree": per,
            "layers": len(steps), "side": "proj"}


def adams_step_inj(m: Complex) -> AdamsStep:
    """The envelope step of m, on an artinian base: the cover step of the
    dual complex. Dualized, its cover phi: F -> m^v is the envelope
    m -> F^v into degreewise dual-free modules, injective on homology,
    and the dual of its next layer omega is the layer the envelope leaves.
    """
    return cover_step(m.dual())
