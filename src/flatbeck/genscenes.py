"""Seeded constructions of scenes: random flats, certified minimal frames,
segment grids and point clouds.

Everything is driven by a caller-supplied random.Random so a single recorded
seed reproduces a scene byte for byte.  Generic choices are drawn with small
rational coordinates and rejected until the required exact certificates hold
(the exceptional configurations all have measure zero, so rejection stops
quickly).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import mul
from typing import Sequence

from .exactlin import int_rref, norm2, vec
from .flats import AffineFlat, FlatChart, _lifted_integer_points, _normals
from .flatcollect import FlatCollection
from .measures import DiscreteMeasure
from .stability import CertificationResult, StableFrame, certify_stability


def random_point(rng: random.Random, n: int, span: int, den: int):
    return tuple(Fraction(rng.randint(-span, span), den) for _ in range(n))


def random_flat(rng: random.Random, n: int, dim: int) -> AffineFlat:
    """Random flat with independent small-integer directions."""
    base = random_point(rng, n, 2, 8)
    dirs: list[list[int]] = []
    while len(dirs) < dim:
        cand = [rng.randint(-3, 3) for _ in range(n)]
        if len(int_rref(dirs + [cand])[0]) == len(dirs) + 1:
            dirs.append(cand)
    return AffineFlat(base, dirs)


def random_minimal_flats(rng: random.Random, n: int, dims: Sequence[int]) -> list[AffineFlat]:
    """Flats of the given dimensions forming a minimal collection in Q^n."""
    if sum(dims) < n:
        raise ValueError("dimension sum below ambient dimension")
    for _ in range(500):
        flats = [random_flat(rng, n, d) for d in dims]
        if FlatCollection(flats).is_minimal():
            return flats
    raise RuntimeError("failed to draw a minimal collection")


def cluster_on_flat(rng: random.Random, f: AffineFlat, count: int) -> list[tuple]:
    """Distinct points of the flat clustered around a random chart point."""
    chart = FlatChart(f)
    center = random_point(rng, f.dim, 6, 32)
    pts = []
    seen = set()
    guard = 0
    while len(pts) < count:
        guard += 1
        if guard > 100 * count:
            raise RuntimeError("failed to sample distinct cluster points")
        offset = [c + Fraction(rng.randint(-4, 4), 512) for c in center]
        p = chart.to_ambient(offset)
        if p in seen:
            continue
        seen.add(p)
        pts.append(p)
    return pts


def random_minimal_frame(
    rng: random.Random,
    n: int,
    dims: Sequence[int],
    atoms_per_measure: int = 2,
) -> tuple[StableFrame, CertificationResult]:
    """Certified frame over a minimal collection: dim V_j cluster measures on
    each flat at resolution 1/1024, certified at the achieved
    normalized-minor floor."""
    for _ in range(200):
        try:
            flats = random_minimal_flats(rng, n, dims)
            grid = []
            ok = True
            for f in flats:
                row = []
                for _ in range(f.dim):
                    pts = cluster_on_flat(rng, f, atoms_per_measure)
                    if any(norm2(vec(p)) > 1 for p in pts):
                        ok = False
                        break
                    row.append(DiscreteMeasure.uniform(pts, Fraction(1, 1024)))
                if not ok:
                    break
                grid.append(row)
            if not ok:
                continue
            frame = StableFrame(flats, grid)
        except (ValueError, RuntimeError):
            continue
        cert = certify_stability(frame, Fraction(0))
        if cert.ok and cert.floor and cert.floor > 0:
            return frame, cert
    raise RuntimeError("failed to build a certified minimal frame")


def segment_grid(j: int, y_offset: Fraction = Fraction(0)) -> DiscreteMeasure:
    """Uniform measure on the 2^-j grid of the unit segment [0, 1] x {y} of
    the plane."""
    count = 2**j
    pts = [(Fraction(i, count), y_offset) for i in range(count)]
    return DiscreteMeasure.uniform(pts, Fraction(1, count))


def parallel_segments(j: int) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Two parallel unit segments at distance 1, discretized at 2^-j, the
    classic thin-tube scene."""
    return segment_grid(j), segment_grid(j, Fraction(1))


def square_grid(j: int) -> DiscreteMeasure:
    """Uniform measure on the 2^-j grid of the unit square."""
    g = 2**j
    pts = [
        (Fraction(a, g), Fraction(b, g)) for a in range(g) for b in range(g)
    ]
    return DiscreteMeasure.uniform(pts, Fraction(1, g))


GENERIC_SPAN = 16  # generic_points' coordinates are k / GENERIC_DEN, |k| <= GENERIC_SPAN
GENERIC_DEN = 16
GENERIC_TRIES = 100_000  # draws generic_points makes before it gives up


def generic_points(rng: random.Random, n: int, count: int) -> list[tuple]:
    """Distinct random rational points in general position (no n + 1 of
    them on a common hyperplane), verified exactly by incidence: a
    candidate x is refused when a.x = b for the hyperplane normal (a, b) of
    some n accepted points (a = 0 when they span none); an accepted point
    adds the normals of the n-subsets through it (flats._normals).  A
    refused point stays refused, so each decided point is tested once, and
    the sampling is exhausted once all (2 GENERIC_SPAN + 1)^n grid points
    are decided or after GENERIC_TRIES draws."""
    pts: list[tuple] = []
    decided: set[tuple] = set()
    lifted: list[tuple[int, ...]] = []
    normals: list[tuple[int, ...]] = []
    tries = 0
    while len(pts) < count:
        tries += 1
        if tries > GENERIC_TRIES or len(decided) == (2 * GENERIC_SPAN + 1) ** n:
            raise RuntimeError("rejection sampling exhausted")
        p = random_point(rng, n, GENERIC_SPAN, GENERIC_DEN)
        if p in decided:
            continue
        decided.add(p)
        (v,) = _lifted_integer_points([p])
        w = v[:-1] + (-v[-1],)  # (den x, -den): a.w = den (a.x - b)
        if any(not sum(map(mul, c, w)) for c in normals):
            continue
        lifted.append(v)
        new = [(*s, len(pts)) for s in itertools.combinations(range(len(pts)), n - 1)]
        normals += [c for _, cs in _normals([lifted] * n, new) for c in cs]
        pts.append(p)
    return pts


def psi_scene(
    rng: random.Random,
    n: int = 3,
    dims: Sequence[int] = (2, 1, 1),
    p: int = 1,
):
    """A full hyperplane-map context: random flats of the given dimensions,
    fixed atoms on every flat but the last, and an exactly aligned screen.

    Requires dims[0] >= p + 1 and sum(dims[:-1]) <= n (the joint flat must
    fit in the ambient space); the dimension surplus p = sum(dims) - n.
    """
    from .project import NonGenericConfiguration, make_psi_context

    if sum(dims) - n != p:
        raise ValueError("dimension surplus does not match p")
    if dims[0] < p + 1 or sum(dims[:-1]) > n:
        raise ValueError("infeasible dimension profile")
    for _ in range(100):
        flats = [random_flat(rng, n, d) for d in dims]
        fixed: dict[tuple[int, int], tuple] = {}
        try:
            for i, pt in enumerate(cluster_on_flat(rng, flats[0], dims[0] - p)):
                fixed[(0, p + i)] = pt
            for j in range(1, len(dims) - 1):
                for i, pt in enumerate(cluster_on_flat(rng, flats[j], dims[j])):
                    fixed[(j, i)] = pt
            return make_psi_context(flats, fixed, p, rng)
        except (NonGenericConfiguration, ValueError, RuntimeError):
            continue
    raise RuntimeError("failed to draw a psi scene")


def nc_line_collection(rng: random.Random, n: int = 3, count: int = 3) -> FlatCollection:
    """Random lines forming an NC collection in Q^n (rejection until exact)."""
    for _ in range(200):
        lines = [random_flat(rng, n, 1) for _ in range(count)]
        coll = FlatCollection(lines)
        if coll.is_nc():
            return coll
    raise RuntimeError("failed to draw an NC line collection")
