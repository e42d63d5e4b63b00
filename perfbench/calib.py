"""A fixed reference task that measures how fast the machine runs now.

The benchmark runs on a shared host whose speed moves by 20% or more for
minutes at a time, on every CPU at once; a run that falls in a slow
period reads slow whatever the program does.  So the worker runs this
task before every command and after the last one, outside the timed
region, and run.py divides each round's command times by the round's
speed factor: the mean wall time of the task in that round over
REFERENCE_S.  On a quiet machine the factor is near 1, so the figures
stay close to wall seconds.

The task does the kinds of work levelcert spends its time on (Fraction
elimination, mod-p elimination on small numpy int64 arrays, and sparse
polynomial products in dicts) on fixed inputs.  It imports nothing from
levelcert, so a change to the program cannot change the factor.

    python3 perfbench/calib.py     # prints the task's median wall time
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import numpy as np

# median wall time of one task on a quiet 2-CPU Xeon VM (Python 3.11.7,
# numpy 2.4.6); only sets the scale, every run divides by the same value
REFERENCE_S = 0.0029

_P = 101
_rng = random.Random(0)
_QMAT = [[Fraction(_rng.randint(-3, 3)) for _ in range(7)] for _ in range(7)]
_PMAT = np.array([[_rng.randrange(_P) for _ in range(14)] for _ in range(14)],
                 dtype=np.int64)
_POLYS = [{(_rng.randrange(3), _rng.randrange(3), _rng.randrange(3)):
           _rng.randrange(1, _P) for _ in range(6)} for _ in range(4)]


def _rank_q(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _rank_p(a) -> int:
    a = a.copy()
    rank = 0
    for c in range(a.shape[1]):
        nz = np.nonzero(a[rank:, c])[0]
        if not len(nz):
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, _P) % _P
        col = a[:, c].copy()
        col[rank] = 0
        a = (a - np.outer(col, a[rank])) % _P
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def _poly_mul(f, g) -> dict:
    out = {}
    for m, a in f.items():
        for n, b in g.items():
            k = (m[0] + n[0], m[1] + n[1], m[2] + n[2])
            out[k] = (out.get(k, 0) + a * b) % _P
    return {k: v for k, v in out.items() if v}


def task() -> int:
    """The fixed work; returns a value so that none of it is skipped."""
    total = sum(_rank_q(_QMAT) for _ in range(2))
    total += sum(_rank_p(_PMAT) for _ in range(8))
    for _ in range(2):
        prod = _POLYS[0]
        for g in _POLYS[1:]:
            prod = _poly_mul(prod, g)
        for g in _POLYS:
            prod = _poly_mul(prod, g)
            prod = {k: v for k, v in prod.items() if sum(k) < 9}
        total += len(prod)
    return total


def measure() -> float:
    """Wall time of one run of the task."""
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


if __name__ == "__main__":
    task()
    print(statistics.median(measure() for _ in range(200)))
