"""Reference kernel: a fixed exact-arithmetic loop timed around every item.

The machine this benchmark runs on drifts in speed by more than the changes
it is meant to detect.  Dividing an item's wall time by the time of a fixed
piece of work measured just before and just after it cancels that drift, as
long as the drift is slow next to one item.  The kernel therefore does the
same kind of work as flatbeck (``Fraction`` elimination with small-integer
numerators and denominators) and imports nothing from flatbeck, so a change
to the program never changes the unit it is measured in.
"""

from __future__ import annotations

import time
from fractions import Fraction

SIDE = 7
REPEATS = 10
# one run's time on the reference 2-core machine when it is quiet; set-up
# time is reported as seconds at this kernel speed
NOMINAL_S = 0.006


def _matrix(n: int) -> list[list[Fraction]]:
    return [
        [Fraction((3 * i * j + i + 2 * j) % 11 - 5, (i + 2 * j) % 7 + 1) for j in range(n)]
        for i in range(n)
    ]


_MATRIX = _matrix(SIDE)


def fraction_det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    rows = [list(r) for r in m]
    n = len(rows)
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            d = -d
        pivot = rows[c][c]
        d *= pivot
        for i in range(c + 1, n):
            f = rows[i][c] / pivot
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


EXPECTED = fraction_det(_MATRIX) * REPEATS


def run() -> Fraction:
    acc = Fraction(0)
    for _ in range(REPEATS):
        acc += fraction_det(_MATRIX)
    return acc


def timed() -> float:
    """Seconds taken by one run of the kernel; checks its own result."""
    t0 = time.perf_counter()
    got = run()
    dt = time.perf_counter() - t0
    if got != EXPECTED:
        raise RuntimeError("reference kernel computed a wrong determinant")
    return dt


def window(seconds: float) -> float:
    """Mean seconds per kernel run over back-to-back runs lasting at least
    the given time (and at least one run).

    The machine's speed switches between states that last around a tenth
    of a second, so one short run says little about the speed during a
    long item; a window sized to the item averages over as many states.
    """
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(timed())
    return sum(runs) / len(runs)
