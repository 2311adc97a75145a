"""Computations made apart from flatbeck, used to check its outputs.

Nothing here imports flatbeck: ranks come from a textbook ``Fraction``
Gaussian elimination, not from ``flatbeck.exactlin``, so a fault in the
program's elimination kernel cannot hide itself by agreeing with the check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

Point = tuple[Fraction, ...]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a rational matrix given by its rows."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def lifted(p: Sequence) -> tuple:
    return tuple(p) + (Fraction(1),)


def affinely_independent(points: Sequence[Sequence]) -> bool:
    return rank([lifted(p) for p in points]) == len(points)


def in_general_position(points: Sequence[Sequence], n: int) -> bool:
    """No n + 1 of the points lie on a common hyperplane of Q^n."""
    return all(
        affinely_independent(combo) for combo in itertools.combinations(points, n + 1)
    )


def on_flat(p: Sequence, basepoint: Sequence, directions: Sequence[Sequence]) -> bool:
    """p lies on basepoint + span(directions)."""
    offset = [a - b for a, b in zip(p, basepoint)]
    return rank(list(directions) + [offset]) == rank(directions)


# -- minimal-position rank rules for a frame ---------------------------------


def frame_rank_table(frame) -> tuple[dict, list[str]]:
    """r(I, J) over block-level disjoint index sets, every atom pick, with
    each flat entering through its plain linearization (directions padded
    with 0, basepoint lifted with 1) instead of the program's orthogonal
    basis.  Returns the table and the rule violations.

    Rules (n_I is the dimension sum over I):
      r(I, {}) = n_I;  r(I, J) >= n_{I u J} + 1 for J nonempty;
      r(I, [k] - I) = n + 1.
    """
    k = len(frame.flats)
    n = frame.ambient_dim
    dims = [rank(f.directions) for f in frame.flats]
    lin = [
        [tuple(d) + (Fraction(0),) for d in f.directions] + [lifted(f.basepoint)]
        for f in frame.flats
    ]
    table: dict = {}
    problems: list[str] = []
    for i_size in range(k + 1):
        for i_set in itertools.combinations(range(k), i_size):
            slots = [(j, i) for j in i_set for i in range(len(frame.measures[j]))]
            rest = [j for j in range(k) if j not in i_set]
            for j_size in range(len(rest) + 1):
                for j_set in itertools.combinations(rest, j_size):
                    basis = [c for j in j_set for c in lin[j]]
                    ranks = set()
                    for pick in itertools.product(
                        *(frame.measures[j][i].atoms for j, i in slots)
                    ):
                        ranks.add(rank([lifted(p) for p, _ in pick] + basis))
                    if len(ranks) != 1:
                        problems.append(f"rank not constant at I={i_set} J={j_set}: {sorted(ranks)}")
                        continue
                    got = ranks.pop()
                    table[(i_set, j_set)] = got
                    n_i = sum(dims[j] for j in i_set)
                    n_ij = n_i + sum(dims[j] for j in j_set)
                    if not j_set and got != n_i:
                        problems.append(f"r(I,0)={got} != n_I={n_i} at I={i_set}")
                    if j_set and got < n_ij + 1:
                        problems.append(f"r(I,J)={got} < {n_ij + 1} at I={i_set} J={j_set}")
                    if j_set and len(i_set) + len(j_set) == k and got != n + 1:
                        problems.append(f"r(I,[k]-I)={got} != {n + 1} at I={i_set}")
    return table, problems


# -- the join-meet projection of a planar grid -------------------------------


def projected_grid_modulus(
    points: Sequence[Point], q_xy: tuple[Fraction, Fraction], screen_y: Fraction, eps, scale
) -> tuple[Fraction, Fraction]:
    """Kept mass and output modulus of the uniform measure on points of the
    plane z = 0 pushed from the vertical line q = {(qx, qy, t)} onto the
    screen line {y = screen_y, z = 0}, after trimming q(eps).

    The plane through q and a point (x, y, 0) is vertical, so it meets the
    screen where y = screen_y: at x' = qx + (x - qx)(screen_y - qy)/(y - qy).
    A point with y = qy spans a plane parallel to the screen and is dropped.
    The image lies on a line, whose proper subflats are points, so the
    modulus is the heaviest closed interval of half-width scale around an
    image point, over the kept mass.
    """
    qx, qy = q_xy
    images = []
    for x, y, _ in points:
        if (x - qx) ** 2 + (y - qy) ** 2 <= eps * eps or y == qy:
            continue
        images.append(qx + (x - qx) * (screen_y - qy) / (y - qy))
    best = max(sum(1 for b in images if abs(a - b) <= scale) for a in images)
    return Fraction(len(images), len(points)), Fraction(best, len(images))
