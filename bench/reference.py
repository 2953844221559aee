"""Host speed, measured next to each operation.

The reference machine shares its host with other tenants, and its speed
drifts by up to 2x over minutes. `reference_seconds` times a fixed piece of
exact rational arithmetic of the kind hblcert spends its time in
(Gauss-Jordan elimination with `fractions.Fraction`, written here and
independent of the package). `run.py` times it just before and just after
each operation and scales the operation's time by `NOMINAL_S / (mean of
the two)`. That reports the time in seconds at the host speed at which the
reference takes NOMINAL_S.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# The reference's time on the reference machine in a quiet phase. A
# constant, so corrected times compare across runs and commits.
NOMINAL_S = 0.0025

_rng = random.Random(1729)
_MATRIX = [[Fraction(_rng.randint(-3, 3), _rng.randint(1, 3)) for _ in range(12)] for _ in range(9)]


def _eliminate(rows: list[list[Fraction]]) -> int:
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_seconds(repeats: int = 3) -> float:
    """Shortest of `repeats` timings of the fixed elimination."""
    best = float("inf")
    for _ in range(repeats):
        rows = [list(r) for r in _MATRIX]
        t0 = perf_counter()
        _eliminate(rows)
        best = min(best, perf_counter() - t0)
    return best
