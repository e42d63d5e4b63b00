import random

import pytest

from levelcert.rings import make_ring
from levelcert.randgen import (random_automorphism, random_complex,
                               random_free_homology_complex,
                               random_injective_homology_complex,
                               random_module)


@pytest.fixture(scope="module")
def A():
    return make_ring("artin(F2; x | x^2)")


@pytest.fixture(scope="module")
def B():
    return make_ring("artin(F2; x, y | x^2, x*y, y^2)")


@pytest.fixture(scope="module")
def R2():
    return make_ring("poly(F101; x, y)")


def test_random_complex_square_zero(A, R2):
    for ring in (A, R2):
        for seed in range(6):
            rng = random.Random(seed)
            x = random_complex(ring, rng)
            # the constructor itself enforces d^2 = 0; homology must be
            # computable at every degree without errors
            for i in x.support():
                x.hdata().homology(i)


def test_random_complex_deterministic(A):
    x1 = random_complex(A, random.Random(7))
    x2 = random_complex(A, random.Random(7))
    assert x1 == x2


def test_random_automorphism_invertible(B):
    rng = random.Random(1)
    for _ in range(5):
        M = random_module(B, rng)
        if M.is_zero_module():
            continue
        g = random_automorphism(M, rng)
        assert g.is_iso()


def test_injective_homology_instances(A, B):
    for ring in (A, B):
        for seed in range(5):
            rng = random.Random(seed)
            x = random_injective_homology_complex(ring, rng)
            hd = x.hdata()
            seen = False
            for i in x.support():
                h = hd.homology(i)
                if h.is_zero_module():
                    continue
                seen = True
                assert h.dual().is_free()
            assert seen


def test_free_homology_instances(A, R2):
    for ring in (A, R2):
        for seed in range(5):
            rng = random.Random(seed)
            x = random_free_homology_complex(ring, rng)
            hd = x.hdata()
            for i in x.support():
                assert hd.cycles(i)[0].is_free() \
                    or hd.cycles(i)[0].is_zero_module()
                assert hd.boundaries(i)[0].is_free() \
                    or hd.boundaries(i)[0].is_zero_module()
                h = hd.homology(i)
                assert h.is_free() or h.is_zero_module()
