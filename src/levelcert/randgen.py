"""Seeded generators for randomized test instances.

Everything takes an explicit random.Random so runs are reproducible.
Complexes are built so the square-zero condition holds by construction:
each differential factors through the cycles of the previous one.
"""

from fractions import Fraction

from .linalg import Mat
from .modules import free_module, hom_space
from .complexes import Complex, cone, module_stalk, zero_chain_map


def random_hom(M, N, rng):
    hs = hom_space(M, N)
    if hs.dim == 0:
        return None
    f = M.ring.field
    col = Mat.column(f, [rng.randrange(f.p) if f.is_prime_field
                         else Fraction(rng.randint(-3, 3))
                         for _ in range(hs.dim)])
    return hs.from_coords(col)


def random_automorphism(M, rng, tries: int = 64):
    """A random invertible endomorphism; identity as a last resort."""
    if M.is_zero_module():
        return M.identity_hom()
    for _ in range(tries):
        h = random_hom(M, M, rng)
        if h is not None and h.is_iso():
            return h
    return M.identity_hom()


def random_artin_module(ring, rng, max_rank: int = 3):
    """Free module, a random quotient, or a random submodule of one."""
    rank = rng.randint(1, max_rank)
    F = free_module(ring, [0] * rank)
    shape = rng.randrange(3)
    if shape == 0:
        return F
    other = free_module(ring, [0] * rng.randint(1, max_rank))
    h = random_hom(other, F, rng) if shape == 1 else random_hom(F, other, rng)
    if h is None:
        return F
    if shape == 1:
        # cokernel of a random map into F
        return h.cokernel()[0]
    # kernel of a random map out of F
    return h.kernel()[0]


def random_graded_module(ring, rng, max_rank: int = 3, max_twist: int = 2):
    rank = rng.randint(1, max_rank)
    tw = [rng.randint(0, max_twist) for _ in range(rank)]
    F = free_module(ring, tw)
    if rng.randrange(2) == 0:
        return F
    other = free_module(ring, [rng.randint(0, max_twist)
                              for _ in range(rng.randint(1, max_rank))])
    h = random_hom(other, F, rng)
    if h is None or h.is_zero():
        return F
    return h.cokernel()[0]


def random_module(ring, rng, max_rank: int = 3):
    if ring.kind == "artin":
        return random_artin_module(ring, rng, max_rank)
    return random_graded_module(ring, rng, max_rank)


def random_complex(ring, rng, lo: int = 0, width: int = 3,
                   max_rank: int = 3) -> Complex:
    """Bounded complex with randomly chosen terms.

    The differential into degree i factors through the cycles of the
    differential below, which forces d^2 = 0 whatever the random picks.
    """
    mods = {lo: random_module(ring, rng, max_rank)}
    diffs = {}
    prev_cycles = None        # (Z, inclusion into mods[i])
    for i in range(lo + 1, lo + width + 1):
        M = random_module(ring, rng, max_rank)
        if M.is_zero_module():
            break
        mods[i] = M
        if prev_cycles is None:
            h = random_hom(M, mods[i - 1], rng)
            if h is None:
                break
            diffs[i] = h
        else:
            Z, zeta = prev_cycles
            if Z.is_zero_module():
                break
            h = random_hom(M, Z, rng)
            if h is None:
                break
            diffs[i] = zeta.compose(h)
        prev_cycles = diffs[i].kernel()
    return Complex(ring, mods, diffs).checked()


def _invert(g):
    """Inverse of an invertible module endomorphism via the hom space."""
    M = g.source
    hs = hom_space(M, M)
    sol = hs.compose_matrix(hs, post=g).solve(hs.coords(M.identity_hom()))
    if sol is None:
        raise ValueError("endomorphism is not invertible")
    return hs.from_coords(sol)


def _scramble(x: Complex, rng) -> Complex:
    """Conjugate the differentials by random automorphisms per degree."""
    autos = {i: random_automorphism(x.module(i), rng) for i in x.support()}
    inverses = {i: _invert(g) for i, g in autos.items()}
    diffs = {}
    for i in x.support():
        if i - 1 not in x.support():
            continue
        d = x.diff(i)
        if d.is_zero():
            continue
        diffs[i] = autos[i - 1].compose(d).compose(inverses[i])
    return Complex(x.ring, {i: x.module(i) for i in x.support()},
                   diffs).checked()


def _disk(M, at: int) -> Complex:
    """Exact two-term complex M -> M concentrated in degrees at, at-1."""
    return Complex(M.ring, {at: M, at - 1: M}, {at: M.identity_hom()})


def _sum(parts) -> Complex:
    """The direct sum of the parts, each added as the cone of a zero map."""
    out = parts[0]
    for y in parts[1:]:
        out = cone(zero_chain_map(out.shift(-1), y)).complex
    return out


def random_injective_homology_complex(ring, rng, lo: int = 0,
                                      width: int = 2,
                                      pieces: int = 3) -> Complex:
    """Artinian complex whose homology is a sum of injective stalks."""
    assert ring.has_dual
    E = free_module(ring, [0]).dual()
    parts = []
    for _ in range(pieces):
        at = rng.randint(lo, lo + width)
        if rng.randrange(2) == 0:
            parts.append(module_stalk(ring, E, at))
        else:
            parts.append(_disk(free_module(ring, [0] * rng.randint(1, 2)),
                               at))
    if not any(p.diffs == {} for p in parts):
        parts.append(module_stalk(ring, E, rng.randint(lo, lo + width)))
    return _scramble(_sum(parts), rng)


def random_free_homology_complex(ring, rng, lo: int = 0, width: int = 2,
                                 pieces: int = 3) -> Complex:
    """Complex of free modules whose cycles, boundaries, and homology
    are all free: sums of free stalks and exact free disks, conjugated
    by random automorphisms degree by degree."""
    parts = []
    for _ in range(pieces):
        at = rng.randint(lo, lo + width)
        F = free_module(ring, [0] * rng.randint(1, 2))
        if rng.randrange(2) == 0:
            parts.append(module_stalk(ring, F, at))
        else:
            parts.append(_disk(F, at))
    if not any(p.diffs == {} for p in parts):
        F = free_module(ring, [0])
        parts.append(module_stalk(ring, F, rng.randint(lo, lo + width)))
    return _scramble(_sum(parts), rng)
