"""Fraction references for the integer linear algebra and span algebra:
plain Gauss-Jordan over ``Fraction`` on lists of rows, and the rank,
determinant, Gram determinant, kernel, solve, join, meet, join-meet
projection, flat-distance, Gram-adjugate distance form, chart-coordinate
and psi constructions built on it.  These take nothing from
``flatbeck.exactlin``, so they share no code with the integer kernels
they check.  Also a brute-force spanned-flat enumerator
that shares no code with ``flats.spanned_flats`` and the unbounded
dichotomy search on its flats, the dot-product pencil walk that
recomputes each node's residuals (it reuses ``_residual`` and
``_pencil_rows``, since it checks only the residuals ``flats._pencils``
carries down its walk), a brute-force ball mass
that shares none with the plate oracle, the hyperplane chart's box key
over ``Fraction``, the rejection loop of ``genscenes.generic_points``
with a reference rank per point subset, the pruning constants C1,
delta0 and K' that ``thin``'s docstrings derive, the Bell sweep over
every set partition that ``flatcollect``'s least-partition search replaced,
and, on fresh reference joins, the minimality test and the per-prefix
extension check that now read one ``FlatCollection``'s subset joins.
"""

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from flatbeck.exactlin import _residual
from flatbeck.flats import AffineFlat, _pencil_rows

Vector = tuple[Fraction, ...]


def vec(xs) -> Vector:
    return tuple(Fraction(x) for x in xs)


def vsub(a: Sequence, b: Sequence) -> Vector:
    return tuple(Fraction(x) - y for x, y in zip(a, b, strict=True))


def vscale(c, a: Sequence) -> Vector:
    return tuple(c * Fraction(x) for x in a)


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b, strict=True)), Fraction(0))


def columns(cols: Sequence[Sequence], height: int) -> list[Vector]:
    """The rows of the matrix with the given columns."""
    return [tuple(Fraction(c[i]) for c in cols) for i in range(height)]


def fraction_rref(rows: Sequence[Sequence]) -> list[Vector]:
    """Reference reduced row-echelon form: Gauss-Jordan over Fraction, zero
    rows at the bottom."""
    rows = [list(vec(r)) for r in rows]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    pr = 0
    for pc in range(nc):
        if pr >= nr:
            break
        piv = next((i for i in range(pr, nr) if rows[i][pc] != 0), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = 1 / rows[pr][pc]
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(nr):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pr += 1
    return [tuple(r) for r in rows]


def row_space(rows: Sequence[Sequence]) -> tuple[Vector, ...]:
    """The nonzero rows of the reference RREF."""
    return tuple(r for r in fraction_rref(rows) if any(r))


def reference_rank(rows: Sequence[Sequence]) -> int:
    return len(row_space(rows))


def reference_affinely_independent(points: Sequence[Sequence]) -> bool:
    """True iff the lifted points (p, 1) have full reference rank."""
    return reference_rank([tuple(p) + (1,) for p in points]) == len(points)


def reference_det(rows: Sequence[Sequence]) -> Fraction:
    """Gaussian elimination over Fraction: the signed product of the
    pivots of a square matrix."""
    rows = [list(vec(r)) for r in rows]
    n = len(rows)
    assert all(len(r) == n for r in rows)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return out


def reference_gram_det(cols: Sequence[Sequence]) -> Fraction:
    """det(C^T C) for the matrix C with the given columns."""
    return reference_det([[dot(u, v) for v in cols] for u in cols])


def _pivot_rows(red: Sequence[Vector]) -> dict[int, Vector]:
    """Pivot column -> RREF row, for the nonzero rows of red."""
    return {next(j for j, x in enumerate(r) if x): r for r in red if any(r)}


def reference_nullspace(rows: Sequence[Sequence], width: int) -> list[Vector]:
    """The free-column kernel basis of the rows in Q^width read off the
    reference RREF: 1 at the free column f and minus the RREF entry in
    column f at each pivot."""
    pivots = _pivot_rows(fraction_rref(rows))
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for c, r in pivots.items():
            v[c] = -r[f]
        basis.append(tuple(v))
    return basis


def reference_solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """The pivot solution of m x = rhs off the reference RREF of the
    augmented matrix, or None when a pivot lands in the rhs column."""
    width = len(rows[0])
    pivots = _pivot_rows(fraction_rref([vec(r) + (Fraction(b),) for r, b in zip(rows, rhs, strict=True)]))
    if width in pivots:
        return None
    return tuple(pivots[c][-1] if c in pivots else Fraction(0) for c in range(width))


def reference_chart_coords(f: AffineFlat, p: Sequence) -> Optional[Vector]:
    """Coordinates of p - f.basepoint in the basis f.directions by the
    reference solve, or None when p is off f."""
    r = vsub(p, f.basepoint)
    if not f.directions:
        return () if not any(r) else None
    return reference_solve(columns(f.directions, f.ambient_dim), r)


def flat_from_span(span_rows: Sequence[Sequence]) -> Optional[AffineFlat]:
    """The flat whose lifted span is span(span_rows): the first RREF row with
    a nonzero last coordinate, scaled to 1 there, is the lifted basepoint,
    and the other rows minus their multiple of it are the directions."""
    rows = row_space(span_rows)
    pivot = next((i for i, r in enumerate(rows) if r[-1] != 0), None)
    if pivot is None:
        return None
    base_row = vscale(1 / rows[pivot][-1], rows[pivot])
    dirs = [vsub(r, vscale(r[-1], base_row))[:-1] for i, r in enumerate(rows) if i != pivot]
    return AffineFlat(base_row[:-1], dirs)


def reference_join(fs: Sequence[AffineFlat]) -> AffineFlat:
    return flat_from_span([r for f in fs for r in f.canon])


def reference_meet(f: AffineFlat, g: AffineFlat) -> Optional[AffineFlat]:
    """v = B1^T a = B2^T b for the lifted bases B1, B2: the kernel of
    [B1^T | -B2^T] gives the coefficient vectors (a, b)."""
    b1, b2 = f.canon, g.canon
    m = columns(list(b1) + [vscale(-1, r) for r in b2], f.ambient_dim + 1)
    inter = []
    for coeffs in reference_nullspace(m, len(b1) + len(b2)):
        v = tuple(sum((c * row[i] for c, row in zip(coeffs, b1)), Fraction(0)) for i in range(f.ambient_dim + 1))
        if any(v):
            inter.append(v)
    return flat_from_span(inter) if inter else None


def reference_join_meet(q: AffineFlat, u: AffineFlat, x) -> Optional[AffineFlat]:
    """aff(x, q) meet u by reference_join, then reference_meet: the join and
    meet that the centre-screen projector replaces, for x a flat or a
    point; None when it is empty."""
    if not isinstance(x, AffineFlat):
        x = AffineFlat.point(x)
    return reference_meet(reference_join([x, q]), u)


def reference_dist2_flats(f: AffineFlat, g: AffineFlat) -> Fraction:
    """Normal equations: the residual of the offset between the basepoints
    after its least-squares fit by the directions of f and g."""
    r = vsub(g.basepoint, f.basepoint)
    cols = list(f.directions) + [vscale(-1, d) for d in g.directions]
    if not cols:
        return dot(r, r)
    x = reference_solve([[dot(u, v) for v in cols] for u in cols], [dot(u, r) for u in cols])
    assert x is not None  # normal equations are always consistent
    res = tuple(a - sum((c * u[i] for c, u in zip(x, cols)), Fraction(0)) for i, a in enumerate(r))
    return dot(res, res)


def reference_dist2_form(dirs: Sequence[Sequence[int]], n: int) -> tuple[int, list[list[int]]]:
    """The Gram-adjugate squared-distance form of the independent integer
    rows D = dirs in Z^n: with G = D D^T, g = det G and
    M = g I - D^T adj(G) D, every determinant by reference_det.  Dependent
    rows (g = 0) are a ValueError."""
    k = len(dirs)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in dirs] for u in dirs]
    g = int(reference_det(gram))
    if g == 0:
        raise ValueError("directions are linearly dependent")
    # adj(G)[i][j] = (-1)^(i+j) det(G without row j and column i)
    adj = [[(-1) ** (i + j) * int(reference_det([r[:i] + r[i + 1 :] for r in gram[:j] + gram[j + 1 :]]))
            for j in range(k)] for i in range(k)]
    return g, [
        [g * (a == b) - sum(dirs[i][a] * adj[i][j] * dirs[j][b] for i in range(k) for j in range(k))
         for b in range(n)]
        for a in range(n)
    ]


def reference_psi(ctx) -> tuple[AffineFlat, tuple[Vector, ...], Vector]:
    """(Q1, rows of M, y0) for a psi context by the Fraction references:
    Q1 = aff(E, F_1) meet F_k; the screen point with coordinates u is the
    screen basepoint plus u times its directions, its image is
    aff(that point, E) meet F_k, and y(u) = y0 + M u is the image in the
    basis of Q1's directions."""
    q1 = reference_meet(reference_join([ctx.e_flat, ctx.f1]), ctx.fk)
    screen = ctx.chart.screen

    def image(u):
        x = tuple(b + sum((c * d[i] for c, d in zip(u, screen.directions)), Fraction(0))
                  for i, b in enumerate(screen.basepoint))
        return reference_chart_coords(
            q1, reference_meet(reference_join([AffineFlat.point(x), ctx.e_flat]), ctx.fk).basepoint
        )

    y0 = image([0] * ctx.p)
    cols = [vsub(image([int(i == j) for j in range(ctx.p)]), y0) for i in range(ctx.p)]
    return q1, tuple(columns(cols, ctx.p)), y0


def reference_spanned_flats(points, dims) -> list[AffineFlat]:
    """Brute force over Fraction: every subset whose lifted points have full
    Fraction rank builds its flat from its first point and the reference
    RREF of its differences, and the flats are deduplicated on the reference
    RREF of the lifted subset."""
    seen = set()
    out = []
    for d in dims:
        for combo in itertools.combinations([vec(p) for p in points], d + 1):
            span = row_space([p + (Fraction(1),) for p in combo])
            if len(span) == d + 1 and span not in seen:
                seen.add(span)
                out.append(AffineFlat(combo[0], row_space([vsub(p, combo[0]) for p in combo[1:]])))
    return out


def reference_pencils(lifted: Sequence[Sequence[int]], rows: tuple, mask: int, depth: int) -> Iterator[tuple]:
    """The dot-product pencil walk that ``flats._pencils`` replaced: the same
    nodes (picks, rows, mask) in the same order, but every expanded node
    runs ``_residual`` on its own rows and takes each point's residual as
    dot products with the forms; only the carried columns differ."""
    yield (), lambda: rows, mask
    level = [((), rows, mask)] if lifted else []
    for left in range(depth - 1, -1, -1):
        nxt = []
        for picks, parent, on in level:
            pivots, free, forms = _residual(parent, len(lifted[0]))
            groups: dict[tuple[int, ...], list[int]] = {}
            for i, v in enumerate(lifted):
                if on >> i & 1:
                    continue
                w = [sum(a * x for a, x in zip(f, v)) for f in forms]
                g = math.gcd(*w)
                if next(filter(None, w)) < 0:
                    g = -g
                groups.setdefault(tuple([x // g for x in w]), [i, 0])[1] |= 1 << i
            for key, (k, group) in groups.items():
                if picks and k < picks[-1]:
                    continue
                built = _pencil_rows(parent, pivots, free, key)
                if left:
                    nxt.append(((*picks, k), built, on | group))
                yield (*picks, k), lambda built=built: built, on | group
        level = nxt


def reference_dichotomy(points, epsilon) -> Optional[tuple[int, list[AffineFlat]]]:
    """The unbounded dichotomy search over the brute-force flats: the flats
    of each dimension 1..n-1 from reference_spanned_flats, with their masks
    of the points on them by Fraction rank, stably sorted by popcount,
    highest first; then an exhaustive depth-first search for the first
    family, in decreasing dimension within dimension sum n - 1, that covers
    at least N - floor(epsilon N) points.  (covered, family), or None."""
    pts = [vec(p) for p in points]
    n = len(pts[0])
    need = len(pts) - math.floor(Fraction(epsilon) * len(pts))
    by_dim = {}
    for d in range(1, n):
        cands = []
        for f in reference_spanned_flats(pts, [d]):
            span = [x + (Fraction(0),) for x in f.directions] + [f.basepoint + (Fraction(1),)]
            mask = sum(1 << i for i, p in enumerate(pts) if reference_rank(span + [p + (Fraction(1),)]) == d + 1)
            cands.append((mask, f))
        by_dim[d] = sorted(cands, key=lambda t: -bin(t[0]).count("1"))

    def search(budget, mask, chosen, start):
        covered = bin(mask).count("1")
        if covered >= need:
            return covered, chosen
        for d in range(min(start, budget), 0, -1):
            for m, f in by_dim[d]:
                if m & ~mask:
                    hit = search(budget - d, mask | m, chosen + [f], d)
                    if hit is not None:
                        return hit
        return None

    return search(n - 1, 0, [], n - 1)


def reference_max_ball_mass(atoms, radius: Fraction) -> Fraction:
    """Brute force over Fraction: the heaviest closed ball of the radius
    about an atom, for atoms given as (point, weight) pairs."""
    r2 = radius * radius
    return max(
        sum((w for q, w in atoms if sum((a - b) ** 2 for a, b in zip(p, q)) <= r2), Fraction(0))
        for p, _ in atoms
    )


def reference_chart_key(points: Sequence[Sequence], s: Fraction) -> tuple[int, ...]:
    """The box of side s holding the chart point of the hyperplane through
    n affinely independent points of Q^n: with its Fraction normal a from
    the reference kernel of the differences, b = a.p for its first point p,
    and i the first index of maximal |a_i|, the key is i and the floors of
    a_j / a_i (j != i) and b / a_i over s."""
    pts = [vec(p) for p in points]
    (a,) = reference_nullspace([vsub(p, pts[0]) for p in pts[1:]], len(pts[0]))
    b = dot(a, pts[0])
    mags = [abs(x) for x in a]
    i = mags.index(max(mags))
    coords = [x / a[i] for j, x in enumerate(a) if j != i] + [b / a[i]]
    return (i, *[math.floor(x / s) for x in coords])


def reference_generic_points(
    rng, n: int, count: int, span: int = 16, den: int = 16, max_tries: int = 100_000
) -> list[Vector]:
    """genscenes.generic_points' draws and rejections, testing general
    position the plain way: a candidate joins when, with every n of the
    accepted points, its lifted point (p, 1) gives rank n + 1."""
    pts: list[Vector] = []
    tries = 0
    while len(pts) < count:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("rejection sampling exhausted")
        p = tuple(Fraction(rng.randint(-span, span), den) for _ in range(n))
        if p in pts:
            continue
        if not all(
            reference_rank([q + (1,) for q in combo + (p,)]) == n + 1 for combo in itertools.combinations(pts, n)
        ):
            continue
        pts.append(p)
    return pts


def reference_tail_sum(scales, eps: float) -> float:
    """S = the sum of s^eps over the scales, as a correctly rounded double."""
    return math.fsum(float(s) ** eps for s in scales)


def reference_c1(arity: int, scales, eps: float) -> float:
    """prune_planes' C1 = arity * S / eps."""
    return arity * reference_tail_sum(scales, eps) / eps


def reference_delta0(trims, scales, eps: Fraction) -> Fraction:
    """prune_against_measure's delta0: the largest scale s (the smallest
    when none) at which the tuples with squared margin below s^2 carry at
    most eps / 2 of the product mass; trims is one (squared margin, mass
    share) pair per tuple, the margin None for a tuple of one point."""
    for s in sorted(scales, reverse=True):
        if sum((w for m2, w in trims if m2 is not None and m2 < s * s), Fraction(0)) <= eps / 2:
            return s
    return min(scales)


def reference_k_prime(big_k: float, sigma: float, delta0: Fraction, scales, eps: float) -> float:
    """prune_against_measure's K' = K delta0^(-2 sigma) S / (eps / 2)."""
    return big_k * float(delta0) ** (-2 * sigma) * reference_tail_sum(scales, eps) / (eps / 2)


def iter_partitions(m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All Bell(m) set partitions of range(m), each with sorted blocks of
    sorted indices, index m - 1 placed last."""
    blocks: list[list[int]] = []

    def rec(i: int):
        if i == m:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def reference_least_partitions(m: int, block_cost: Callable[[tuple[int, ...]], int]):
    """The least sum of block_cost over the blocks of a set partition of
    range(m) and the sorted partitions that reach it, by the Bell sweep."""
    best, minimizers = None, []
    for p in iter_partitions(m):
        c = sum(block_cost(b) for b in p)
        if best is None or c < best:
            best, minimizers = c, [p]
        elif c == best:
            minimizers.append(p)
    return best, sorted(minimizers)


def reference_is_minimal(fs: Sequence[AffineFlat], ambient_dim: Optional[int] = None) -> bool:
    """The from-scratch minimality test: the flats join to dimension
    ambient_dim (the ambient space's by default), at most their dimension
    sum, and every proper nonempty subfamily, joined afresh, spans at least
    its own dimension sum."""
    if not fs:
        raise ValueError("empty collection")
    n = fs[0].ambient_dim if ambient_dim is None else ambient_dim
    if reference_join(fs).dim != n or n > sum(f.dim for f in fs):
        return False
    return all(
        reference_join(sub).dim >= sum(f.dim for f in sub)
        for size in range(1, len(fs))
        for sub in itertools.combinations(fs, size)
    )


def reference_extension_check(flats: Sequence[AffineFlat], costs: Sequence[int]) -> tuple[bool, Optional[str]]:
    """The per-prefix extension check over a trace's costs: on each plateau
    step i (costs[i] == costs[i + 1]), each minimizing partition of the first
    i flats, by the Bell sweep, takes flat i into each of its blocks in turn,
    and at most one of those partitions may cost the least cost of the first
    i + 1 flats."""

    @functools.cache
    def dim(block: tuple[int, ...]) -> int:
        return reference_join([flats[j] for j in block]).dim

    for i in range(len(costs) - 1):
        if costs[i] != costs[i + 1]:
            continue
        target, _ = reference_least_partitions(i + 1, dim)
        for part in reference_least_partitions(i, dim)[1]:
            extensions = sum(
                sum(dim(c + (i,) if k == b else c) for k, c in enumerate(part)) == target
                for b in range(len(part))
            )
            if extensions > 1:
                return False, f"partition {part} at step {i} has {extensions} minimizing extensions"
    return True, None
