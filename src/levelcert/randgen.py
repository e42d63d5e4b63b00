"""Seeded generators for randomized test instances.

Everything takes an explicit random.Random so runs are reproducible.
Complexes are built so the square-zero condition holds by construction:
each differential factors through the cycles of the previous one.
"""

from fractions import Fraction

from .linalg import Mat
from .modules import artin_free, free_module, graded_free, hom_space, zero_hom
from .complexes import Complex, complex_direct_sum, module_stalk


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
    F = artin_free(ring, rank)
    shape = rng.randrange(3)
    if shape == 0:
        return F
    other = artin_free(ring, rng.randint(1, max_rank))
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
    F = graded_free(ring, tw)
    if rng.randrange(2) == 0:
        return F
    other = graded_free(ring, [rng.randint(0, max_twist)
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
    return Complex(ring, mods, diffs, check=True)


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
                   diffs, check=True)


def _disk(M, at: int) -> Complex:
    """Exact two-term complex M -> M concentrated in degrees at, at-1."""
    return Complex(M.ring, {at: M, at - 1: M},
                   {at: M.identity_hom()}, check=False)


def random_injective_homology_complex(ring, rng, lo: int = 0,
                                      width: int = 2,
                                      pieces: int = 3) -> Complex:
    """Artinian complex whose homology is a sum of injective stalks."""
    assert ring.kind == "artin"
    E = artin_free(ring, 1).dual()
    parts = []
    for _ in range(pieces):
        at = rng.randint(lo, lo + width)
        if rng.randrange(2) == 0:
            parts.append(module_stalk(ring, E, at))
        else:
            parts.append(_disk(artin_free(ring, rng.randint(1, 2)), at))
    if not any(p.diffs == {} for p in parts):
        parts.append(module_stalk(ring, E, rng.randint(lo, lo + width)))
    return _scramble(complex_direct_sum(parts)[0], rng)


def random_free_homology_complex(ring, rng, lo: int = 0, width: int = 2,
                                 pieces: int = 3) -> Complex:
    """Complex of free modules whose cycles, boundaries, and homology
    are all free: sums of free stalks and exact free disks, conjugated
    by random automorphisms degree by degree."""
    parts = []
    for _ in range(pieces):
        at = rng.randint(lo, lo + width)
        F = free_module(ring, [0] * rng.randint(1, 2)
                        if ring.kind != "artin" else rng.randint(1, 2))
        if rng.randrange(2) == 0:
            parts.append(module_stalk(ring, F, at))
        else:
            parts.append(_disk(F, at))
    if not any(p.diffs == {} for p in parts):
        F = free_module(ring, [0] if ring.kind != "artin" else 1)
        parts.append(module_stalk(ring, F, rng.randint(lo, lo + width)))
    return _scramble(complex_direct_sum(parts)[0], rng)


def random_module_ses(ring, rng, max_rank: int = 3):
    """(f, g) with 0 -> source f -> middle -> target g -> 0 exact."""
    M = random_module(ring, rng, max_rank)
    while M.is_zero_module():
        M = random_module(ring, rng, max_rank)
    probe = random_hom(M, free_module(
        ring, [0] if ring.kind != "artin" else 1), rng)
    if probe is None:
        probe = zero_hom(M, free_module(
            ring, [0] if ring.kind != "artin" else 1))
    _, incl = probe.kernel()
    _, proj = incl.cokernel()
    return incl, proj
