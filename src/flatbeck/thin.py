"""Thin-tube and thin-plane graph machinery.

A graph lives over a tuple of measures: a set of index vectors, one atom
index per measure.  Verification bounds the mass each measure gives to
neighborhoods of spanned flats (plates for general arity, tubes for pairs)
by K * scale^sigma at every dyadic scale in the window, exactly: sigma = p/q
and K are rationals, the plate oracle gives each mass as an integer count
over its measure's weight denominator W, and the count must be at most
T = floor(W K scale^sigma), the largest T with T^q <= (W K)^q scale^p.  The
constants the program chooses (C1, delta0, A, B, the tube threshold, K')
are the ones their functions' docstrings derive, with no override, and
all but delta0 stay doubles; removal compares counts with floor(W b) for
each double bound b read exactly, and removed masses with their budgets
as Fractions.  A tube check reads its two measures (mu0, mu1) off its
graph, which must have arity 2.  Floats
remain only in report fields and in pushforward_frostman's mass column and
regression: its boxes are integer keys of an exact hyperplane chart.
Densities and section masses sum products of the oracles' integer weights.

_verdict turns (tuple, measure, per-scale counts) items into a
VerifyResult: the plane and tube checks generate them, and pruning and
tube-to-plane conversion hand it the counts they already hold.  One span
pass, _span_pass, serves every plane check and prune: it lifts the graph's
atoms once, over one denominator, into one plate oracle of them all
(_joint), builds each tuple's span once, and counts each chunk of
SPAN_CHUNK spans for every measure in one core call, a measure being a
weighting of its own block of rows.  The tube checks run one such pass
over every line x_i0 -> y_i1 (_tube_lines): a G-section is a weighting
masked per row to the lines it counts on, and the conversion reads both
directions' sections and both full counts off the same pass.  At arity n
the span is the tuple's cofactor normal (a, b) (flats._normals), a = 0 for
a dependent tuple, and the oracle's hyperplane core counts it, as it counts
the tubes when n = 2; the pushforward chart reads the same normals.  Below
arity n an int_rref rank test and the quadratic core remain.  The continuum
quantifier over scales is truncated at the data's resolution: below it a
discrete measure is atomic and the bounds say nothing.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .exactlin import BudgetExceeded, frac, int_rref
from .flats import _dist2_offset, _normals, _pick_span
from .flatcollect import FlatCollection
from .measures import SPAN_CHUNK, DiscreteMeasure, PlateMassOracle, _fit_line, support_dist2
from .project import rational_sqrt_lower


class TupleInDegenerateSet(ValueError):
    """A graph tuple whose points share a common lower-dimensional flat."""


class ThinGraph:
    """Graph over an ordered tuple of measures with claimed (sigma, K).

    sigma and K are kept exactly (a float argument as its exact dyadic
    value); the sigma and big_k properties are their doubles, for reports.
    """

    def __init__(
        self,
        measures: Sequence[DiscreteMeasure],
        tuples: Optional[Iterable[tuple[int, ...]]],
        sigma,
        big_k,
    ):
        self.measures = tuple(measures)
        if not self.measures:
            raise ValueError("graph needs at least one measure")
        n = self.measures[0].ambient_dim
        if any(m.ambient_dim != n for m in self.measures):
            raise ValueError("ambient dimensions differ")
        if any(m.total_mass == 0 for m in self.measures):
            raise ValueError("measure has zero total mass")
        self.ambient_dim = n
        self.sigma_exact = Fraction(sigma)
        self.k_exact = Fraction(big_k)
        if tuples is None:
            self.tuples: Optional[frozenset[tuple[int, ...]]] = None
        else:
            tups = frozenset(tuple(t) for t in tuples)
            sizes = [len(m) for m in self.measures]
            for t in tups:
                if len(t) != len(sizes):
                    raise ValueError("tuple arity mismatch")
                for idx, size in zip(t, sizes):
                    if not 0 <= idx < size:
                        raise ValueError(f"tuple {t} indexes a missing atom")
            self.tuples = tups
        self._density: Optional[Fraction] = None

    @classmethod
    def complete(cls, measures, sigma, big_k) -> "ThinGraph":
        return cls(measures, None, sigma, big_k)

    @property
    def sigma(self) -> float:
        return float(self.sigma_exact)

    @property
    def big_k(self) -> float:
        return float(self.k_exact)

    @property
    def arity(self) -> int:
        return len(self.measures)

    def iter_tuples(self) -> Iterator[tuple[int, ...]]:
        if self.tuples is None:
            yield from itertools.product(*(range(len(m)) for m in self.measures))
        else:
            yield from sorted(self.tuples)

    def density(self) -> Fraction:
        """Product-measure mass of the tuple set over the product of total
        masses; recomputed from the tuples, never trusted, from the oracles'
        integer weights."""
        if self._density is None:
            if self.tuples is None:
                self._density = Fraction(1)
            else:
                ws = [m.oracle.int_weights for m in self.measures]
                total = sum(math.prod(w[i] for w, i in zip(ws, t)) for t in self.tuples)
                self._density = Fraction(total, math.prod(map(sum, ws)))
        return self._density

    def without(self, removed: Iterable[tuple[int, ...]], sigma=None, big_k=None) -> "ThinGraph":
        removed = {tuple(t) for t in removed}
        kept = [t for t in self.iter_tuples() if t not in removed]
        return ThinGraph(
            self.measures,
            kept,
            self.sigma_exact if sigma is None else sigma,
            self.k_exact if big_k is None else big_k,
        )


@dataclass
class Witness:
    tuple_: tuple[int, ...]
    measure_index: int
    scale: Fraction
    mass: Fraction
    bound: float
    ratio: float


@dataclass
class VerifyResult:
    ok: bool
    max_ratio: float
    worst: Optional[Witness]
    density: Fraction
    table: list[tuple[Fraction, Fraction, float, float]]  # (scale, max mass seen, bound, ratio)
    failure: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _window(scales: Sequence, measures: Sequence[DiscreteMeasure] = ()) -> tuple[list, list]:
    """The dyadic window as Fractions, coarsest first, and its squared radii;
    refuses a window reaching below the resolution of any of the measures."""
    scales = sorted({frac(s) for s in scales}, reverse=True)
    if any(m.resolution > min(scales) for m in measures):
        raise ValueError("scale window reaches below a measure resolution")
    return scales, [s * s for s in scales]


# bit size allowed for the integer a cut takes the q-th root of: a sigma with
# a huge denominator (a binary float such as 0.1 has q = 2^55) is refused
_CUT_BITS = 1 << 20


def _iroot(n: int, q: int) -> int:
    """The largest t >= 0 with t^q <= n, for n >= 0 and q >= 1."""
    if q == 1 or n < 2:
        return n
    # Newton's step from above, starting at a power of two >= the root
    t = 1 << -(-n.bit_length() // q)
    while True:
        u = ((q - 1) * t + n // t ** (q - 1)) // q
        if u >= t:
            return t
        t = u


def _cut(w: int, big_k: Fraction, sigma: Fraction, s: Fraction) -> int:
    """T = floor(w K s^sigma) for a scale s > 0: a count c over w is within
    K s^sigma exactly when c <= T.  With w K = a/b, s = u/v and sigma = p/q,
    T is the largest integer with T^q <= a^q u^p / (b^q v^p) (a negative p
    trades u and v).  A negative K gives -1, below every count.  The bit
    size of the power is checked before it is formed."""
    wk = w * big_k
    if wk <= 0:
        return -1 if wk < 0 else 0
    a, b = wk.numerator, wk.denominator
    u, v = s.numerator, s.denominator
    p, q = sigma.numerator, sigma.denominator
    if p < 0:
        u, v, p = v, u, -p
    bits = q * max(a, b).bit_length() + p * max(u, v).bit_length()
    if bits > _CUT_BITS:
        raise BudgetExceeded(f"the cut for sigma = {sigma} needs a {bits}-bit root (cap {_CUT_BITS})")
    return _iroot(a**q * u**p // (b**q * v**p), q)


def _double_cuts(w: int, bounds: Sequence[float]) -> list[int]:
    """floor(w b) for each double bound b read as its exact dyadic value: a
    count over w exceeds b exactly when it exceeds floor(w b)."""
    return [math.floor(w * Fraction(b)) for b in bounds]


def _exceeds(counts: Sequence[int], cuts: Sequence[int]) -> bool:
    return any(map(int.__gt__, counts, cuts))


# failure wording, formatted with the worst Witness as w
_PLANE_FAILURE = "tuple {w.tuple_} measure {w.measure_index} at scale {w.scale}: mass {w.mass}"
_TUBE_FAILURE = "tube through atoms {w.tuple_} at radius {w.scale}: section mass {w.mass}"


def _verdict(
    g: ThinGraph, scales: list[Fraction], items: Iterable, failure: str, required_density=None, measures=None
) -> VerifyResult:
    """The one thin verdict: every (tuple, measure index j, counts at the
    window's scales) item, counts over the weight denominator W_j of
    measure j of measures (g's own by default), against K * scale^sigma of
    g.  Per (measure, scale) cell it keeps the peak count and the first item
    to reach it, and compares the peak with the cut floor(W_j K
    scale^sigma).  The witness is the peak with the worst float ratio among
    the failing cells (among all cells when none fails), the earlier item
    and then the coarser scale on a tie, named by the failure template.
    Ratios, bounds and the table of each scale's peak mass, bound and ratio
    are floats for the report.  The density is recomputed from g's tuples
    and compared exactly to a claim."""
    dens = [m.weight_den for m in measures or g.measures]
    peaks = [[-1] * len(scales) for _ in dens]  # -1: no item in the cell yet
    firsts: list[list] = [[None] * len(scales) for _ in dens]
    for n, (t, j, counts) in enumerate(items):
        peak = peaks[j]
        for i, c in enumerate(counts):
            if c > peak[i]:
                peak[i] = c
                firsts[j][i] = (n, t)
    bounds = [g.big_k * float(s) ** g.sigma for s in scales]
    ok, max_ratio = True, 0.0
    worst: Optional[Witness] = None
    rank = None
    for j, w in enumerate(dens):
        for i, (s, bound, c, first) in enumerate(zip(scales, bounds, peaks[j], firsts[j])):
            if first is None:
                continue
            fails = c > _cut(w, g.k_exact, g.sigma_exact, s)
            ok = ok and not fails
            mass = Fraction(c, w)
            ratio = float(mass) / bound if bound > 0 else (math.inf if fails else 0.0)
            max_ratio = max(max_ratio, ratio)
            cell_rank = (fails, ratio, -first[0], -i)
            if ratio > 0 and (rank is None or cell_rank > rank):
                rank, worst = cell_rank, Witness(first[1], j, s, mass, bound, ratio)
    density = g.density()
    text = None if ok else failure.format(w=worst) + f" > bound {worst.bound:.6g}"
    if required_density is not None and density < required_density:
        ok = False
        text = f"density {density} below required {required_density}"
    table = []
    for i, (s, b) in enumerate(zip(scales, bounds)):
        m = max(Fraction(max(p[i], 0), w) for p, w in zip(peaks, dens))
        table.append((s, m, b, float(m) / b if b > 0 else math.inf))
    return VerifyResult(ok, max_ratio, worst, density, sorted(table), text)


def verify_thin_planes(
    g: ThinGraph,
    scales: Sequence,
    required_density=None,
) -> VerifyResult:
    """Check mass(mu_j near span(tuple), delta) <= K * delta^sigma for every
    tuple, j and dyadic scale; recompute the density."""
    scales, radii2 = _window(scales, g.measures)
    return _verdict(g, scales, _plane_items(g, radii2), _PLANE_FAILURE, required_density)


def _plane_items(g: ThinGraph, radii2: list[Fraction]) -> Iterator:
    """(tuple, measure index, counts near its span at radii2) for every
    tuple of g and measure; a dependent tuple raises."""
    for t, counts in _span_pass(g.iter_tuples(), *_joint(g), radii2):
        if counts is None:
            raise TupleInDegenerateSet(f"tuple {t} is affinely dependent")
        for j, c in enumerate(counts):
            yield t, j, c


def _joint(g: ThinGraph) -> tuple[list, PlateMassOracle, list]:
    """What a span pass over g reads: per measure, its atoms as lifted
    integer points (den p, den) over one denominator den common to every
    atom of g; one plate oracle of every atom of g, measure after measure,
    on those points; and per measure its weighting of the oracle's rows,
    its int_weights on its own block and zeros elsewhere."""
    oracle = PlateMassOracle._of_points([p for m in g.measures for p in m.points()])
    rows, lifted, weightings, start = oracle._lifted, [], [], 0
    for m in g.measures:
        end = start + len(m)
        lifted.append(rows[start:end])
        weightings.append([0] * start + m.oracle.int_weights + [0] * (len(rows) - end))
        start = end
    return lifted, oracle, weightings


def _tuple_spans(lifted: list, tuples: Iterable) -> tuple[Iterator, Callable]:
    """(t, span) for each tuple t, in order, span None when t is affinely
    dependent, and the core that reads a chunk of live spans; lifted holds
    each measure's lifted atoms.  At arity n a span is t's normal (a, b),
    a = 0 when dependent, read as columns; below it, the first lifted point
    and the differences from it (flats._pick_span), if the rows have full rank."""
    if len(lifted) == len(lifted[0][0]) - 1:
        spans = ((t, v if any(v[:-1]) else None) for ts, cols in _normals(lifted, tuples) for t, v in zip(ts, zip(*cols)))
        return spans, lambda oracle, live, *rest: oracle._hyperplane_counts(list(zip(*live)), *rest)

    def span(t):
        rows = [pts[i] for pts, i in zip(lifted, t)]
        return _pick_span(rows) if len(int_rref(rows)[0]) == len(rows) else None

    return ((t, span(t)) for t in tuples), PlateMassOracle._counts


def _span_pass(tuples: Iterable, lifted: list, oracle: PlateMassOracle, weightings, radii2, masks=None) -> Iterator:
    """(t, counts) for each tuple t, in order: counts is None when t is
    affinely dependent, else per weighting of the oracle's rows its counts
    near the span of t's points at radii2.  Each span, from _tuple_spans,
    serves every weighting: one core call per SPAN_CHUNK tuples.  masks,
    when given, maps the index of a chunk's first tuple and the chunk's
    length to the chunk's masks as measures._tally reads them; the tuples
    of such a pass must all be independent."""
    spans, core = _tuple_spans(lifted, tuples)
    for start in itertools.count(0, SPAN_CHUNK):
        chunk = list(itertools.islice(spans, SPAN_CHUNK))
        if not chunk:
            return
        live = [span for _, span in chunk if span is not None]
        got = iter(core(oracle, live, radii2, weightings, masks and masks(start, len(live))))
        for t, span in chunk:
            yield t, None if span is None else next(got)


def verify_thin_tubes(g: ThinGraph, scales: Sequence, required_density=None) -> VerifyResult:
    """Tube check of an arity-2 graph g over (mu0, mu1): for every support
    point of mu0 and every tube in the discretized family through it
    (directions toward mu1 atoms, dyadic radii), the G-section mass of mu1
    inside the tube is at most K * r^sigma.

    The family is within a factor two in radius of worst-case tubes: any
    tube containing two support points lies inside the member tube through
    them at twice the radius.
    """
    scales, radii2 = _tube_window(g, scales)
    return _verdict(g, scales, _tube_items(g, _tube_lines(g, radii2, False), False), _TUBE_FAILURE, required_density)


def _tube_window(g: ThinGraph, scales: Sequence) -> tuple[list, list]:
    """The window of a tube check of g, after checking that g has arity 2
    and that its two supports are separated."""
    if g.arity != 2:
        raise ValueError("a tube check needs an arity-2 graph")
    mu0, mu1 = g.measures
    # finite supports are at distance 0 exactly when they share a point
    if set(mu0.points()) & set(mu1.points()):
        raise ValueError("supports are not separated")
    return _window(scales, g.measures)


def _tube_lines(g: ThinGraph, radii2: list[Fraction], both: bool) -> list:
    """Per line x_i0 -> y_i1 of g over (mu0, mu1), all |mu0| |mu1| of them
    in pair order (line i0 |mu1| + i1), its counts at radii2 of the
    G-section of mu1 at x_i0 (the atoms y_j with (i0, j) in g) and, when
    both, of all of mu1, of the G-section of mu0 at y_i1 and of all of mu0:
    one span pass over the joint oracle, every line independent since the
    supports are separated.  A G-section is a masked weighting: atom j of
    mu1 counts on the lines from the centres it pairs with, and atom i of
    mu0 on the lines to the atoms it pairs with."""
    lifted, oracle, (w0, w1) = _joint(g)
    n0, n1 = map(len, g.measures)
    centres, atoms = [0] * n1, [0] * n0  # per atom, the atoms of the other measure it pairs with
    for i0, i1 in g.iter_tuples():
        centres[i1] |= 1 << i0
        atoms[i0] |= 1 << i1
    blocks = str.maketrans({"0": "0" * n1, "1": "1" * n1})

    def masks(start: int, count: int) -> tuple:
        # the chunk's lines start from line off of centre lo and meet reach centres
        lo, off = divmod(start, n1)
        reach, window = -(-(off + count) // n1), (1 << count) - 1
        near = (1 << reach) - 1
        fwd = [0] * n0 + [int(format(c >> lo & near, "b").translate(blocks), 2) >> off & window for c in centres]
        if not both:
            return (fwd,)
        rep = sum(1 << n1 * k for k in range(reach))
        return fwd, None, [a * rep >> off & window for a in atoms] + [0] * n1, None

    weightings = (w1, w1, w0, w0) if both else (w1,)
    pairs = itertools.product(range(n0), range(n1))
    return [c for _, c in _span_pass(pairs, lifted, oracle, weightings, radii2, masks)]


def _tube_items(g: ThinGraph, lines: list, reverse: bool) -> Iterator:
    """((c, a), 1, counts) for every tube of g's family one way: per centre c
    of mu0 (of mu1 when reverse) that g pairs, in order, its lines to every
    atom a of the other measure, with the counts of that measure's G-section,
    lines[c |mu1| + a][0] (lines[a |mu1| + c][2] when reverse)."""
    n0, n1 = map(len, g.measures)
    if reverse:
        return (((c, a), 1, lines[a * n1 + c][2]) for c in sorted({t[1] for t in g.iter_tuples()}) for a in range(n0))
    return (((c, a), 1, lines[c * n1 + a][0]) for c in sorted({t[0] for t in g.iter_tuples()}) for a in range(n1))


def dyadic_tail_sum(scales: Sequence[Fraction], eps: float) -> float:
    # fsum rounds once: the same double on every Python
    return math.fsum(float(s) ** eps for s in scales)


def _epsilon(epsilon) -> tuple[Fraction, float]:
    """A pruning epsilon, exact and as a double; it must be positive."""
    eps_q = Fraction(epsilon)
    if eps_q <= 0:
        raise ValueError("epsilon must be positive")
    return eps_q, float(eps_q)


@dataclass
class PruneResult:
    graph: ThinGraph
    removed_mass: Fraction
    constant: float
    budget: float
    ok: bool
    check: VerifyResult  # the output graph's verdict, from the counts in hand
    witness: Optional[str] = None


def prune_planes(g: ThinGraph, epsilon, scales: Sequence) -> PruneResult:
    """Remove every tuple whose span neighborhood is too heavy for some
    measure at some dyadic scale: mass > C1 * K * delta^(sigma - eps).

    C1 = arity * S / eps with S the dyadic tail sum, the choice that makes
    the union bound over scales close below eps when each single-scale
    removal obeys the counting argument; the actually removed mass is
    measured exactly and compared against the eps budget.  The kept tuples
    are independent and their counts are all in hand, so they are verified
    at the output's (sigma - eps, C1 K) without a second pass.
    """
    eps_q, eps = _epsilon(epsilon)
    scales, radii2 = _window(scales, g.measures)
    c1 = g.arity * dyadic_tail_sum(scales, eps) / eps
    bounds = [c1 * g.big_k * float(s) ** (g.sigma - eps) for s in scales]
    cuts = [_double_cuts(m.weight_den, bounds) for m in g.measures]
    removed: set[tuple[int, ...]] = set()
    kept = []
    for t, counts in _span_pass(g.iter_tuples(), *_joint(g), radii2):
        if counts is None or any(map(_exceeds, counts, cuts)):
            removed.add(t)
        else:
            kept.extend((t, j, c) for j, c in enumerate(counts))
    out = g.without(removed, sigma=g.sigma_exact - eps_q, big_k=Fraction(c1) * g.k_exact)
    removed_mass = g.density() - out.density()
    ok = removed_mass <= eps_q
    return PruneResult(
        out,
        removed_mass,
        c1,
        eps,
        ok,
        _verdict(out, scales, kept, _PLANE_FAILURE),
        None if ok else f"removed mass {removed_mass} exceeds budget {eps}",
    )


@dataclass
class ConversionResult:
    graph: Optional[ThinGraph]
    a_const: float
    b_const: float
    removed_mass: Fraction
    ok: bool
    tube_checks: list[VerifyResult]
    planes_check: Optional[VerifyResult] = None
    witness: Optional[str] = None


def tubes_to_planes(g: ThinGraph, epsilon, scales: Sequence) -> ConversionResult:
    """Convert a two-sided thin-tube graph g over (mu0, mu1) into a thin
    1-planes graph.

    Pairs whose connecting tube is too heavy at some dyadic radius
    (mass > 10 eps^-2 C K r^(sigma - eps), either marginal) are removed;
    the output claims (sigma - eps, A K) with A = 10^(1 + sigma - eps) C / eps^2
    and the measured density loss must stay below B eps with B from the
    geometric series of the removal bound.  One pass over every line,
    _tube_lines, gives the two tube checks mu1's and mu0's G-sections and
    the removal and the output's verdict the full counts of mu1 and mu0 on
    the line of each pair in g.  Separated supports make every pair
    independent, and the tube checks have bounded the window by both
    resolutions.
    """
    eps_q, eps = _epsilon(epsilon)
    scales, radii2 = _tube_window(g, scales)
    mu0, mu1 = g.measures
    c_const = 1.0 / float(rational_sqrt_lower(support_dist2(mu0, mu1)))
    lines = _tube_lines(g, radii2, True)
    tube_fwd = _verdict(g, scales, _tube_items(g, lines, False), _TUBE_FAILURE)
    # the reverse check reads g's K, sigma and density, over (mu1, mu0)
    tube_rev = _verdict(g, scales, _tube_items(g, lines, True), _TUBE_FAILURE, measures=(mu1, mu0))
    if not (tube_fwd.ok and tube_rev.ok):
        return ConversionResult(
            None, 0.0, 0.0, Fraction(0), False, [tube_fwd, tube_rev],
            witness="precondition failed: input does not verify thin tubes both ways",
        )
    sigma, big_k = g.sigma, g.big_k
    threshold_scale = 10.0 * c_const * big_k / (eps * eps)
    bounds = [threshold_scale * float(s) ** (sigma - eps) for s in scales]
    cuts0 = _double_cuts(mu0.weight_den, bounds)
    cuts1 = _double_cuts(mu1.weight_den, bounds)
    removed = set()
    kept = []
    for t in g.iter_tuples():
        _, m1, _, m0 = lines[t[0] * len(mu1) + t[1]]
        if _exceeds(m1, cuts1) or _exceeds(m0, cuts0):
            removed.add(t)
        else:
            kept += [(t, 0, m0), (t, 1, m1)]
    a_const = (10.0 ** (1 + sigma - eps)) * c_const / (eps * eps)
    out = g.without(removed, sigma=g.sigma_exact - eps_q, big_k=Fraction(a_const) * g.k_exact)
    removed_mass = g.density() - out.density()
    b_const = 2.0 * (2.0**sigma) * eps * dyadic_tail_sum(scales, eps)
    loss_ok = removed_mass <= Fraction(b_const) * eps_q
    planes = _verdict(out, scales, kept, _PLANE_FAILURE)
    witness = None
    if not planes.ok:
        witness = planes.failure
    elif not loss_ok:
        witness = f"density loss {removed_mass} exceeds B*eps = {b_const * eps:.6g}"
    return ConversionResult(
        out, a_const, b_const, removed_mass, planes.ok and loss_ok, [tube_fwd, tube_rev], planes, witness
    )


@dataclass
class MeasurePruneResult:
    graph: ThinGraph
    removed_mass: Fraction
    k_prime: float
    delta0: Fraction
    margin_removed: Fraction
    ok: bool
    witness: Optional[str] = None


def _margin2(pts: Sequence[Sequence[int]], den: int) -> Fraction | float:
    """The affine-independence margin of the points pts / den: the least
    squared distance from one of them to the span of the others, 0 for a
    dependent tuple (one of its points lies on the span of the rest), and
    infinite for one point, which has no others.  The points may be lifted,
    (den p, den): their offsets end in 0."""
    best = math.inf
    for j, p in enumerate(pts if len(pts) > 1 else ()):
        base, *rest = pts[:j] + pts[j + 1 :]
        try:
            d2 = _dist2_offset(tuple(map(sub, p, base)), [tuple(map(sub, q, base)) for q in rest], den)
        except ValueError:  # the others are dependent, so the tuple is
            return Fraction(0)
        best = min(best, d2)
    return best


def prune_against_measure(g: ThinGraph, nu: DiscreteMeasure, epsilon, scales: Sequence) -> MeasurePruneResult:
    """Remove tuples whose span neighborhood captures too much of an
    auxiliary measure nu at some dyadic scale, after first enforcing an
    affine-independence margin delta0 on the tuples themselves.

    delta0 is the largest window scale whose margin trimming costs at most
    epsilon/2 of product mass (the finest scale when none does); K' is the
    budget constant K * delta0^(-2 sigma) * S / (eps/2), and the measured
    removal must stay within the epsilon budget.
    """
    eps_q, eps = _epsilon(epsilon)
    if nu.ambient_dim != g.ambient_dim:
        raise ValueError("ambient dimensions differ")
    scales, radii2 = _window(scales, (*g.measures, nu))
    lifted = _joint(g)[0]
    den = lifted[0][0][-1]
    margins = {t: _margin2([pts[i] for pts, i in zip(lifted, t)], den) for t in g.iter_tuples()}
    delta0 = min(scales)
    ws = [m.oracle.int_weights for m in g.measures]
    denom = math.prod(map(sum, ws))
    for s in scales:  # descending: prefer the largest affordable margin
        trimmed = sum(math.prod(w[i] for w, i in zip(ws, t)) for t, m2 in margins.items() if m2 < s * s)
        if Fraction(trimmed, denom) <= eps_q / 2:
            delta0 = s
            break
    margin_removed = {t for t, m2 in margins.items() if m2 < delta0 * delta0}
    k_prime = g.big_k * float(delta0) ** (-2 * g.sigma) * dyadic_tail_sum(scales, eps) / (eps / 2)
    cuts = _double_cuts(nu.weight_den, [k_prime * float(s) ** (g.sigma - eps) for s in scales])
    removed = set(margin_removed)
    unmarked = (t for t in g.iter_tuples() if t not in margin_removed)
    for t, counts in _span_pass(unmarked, lifted, nu.oracle, [nu.oracle.int_weights], radii2):
        if counts is None or _exceeds(counts[0], cuts):
            removed.add(t)
    out = g.without(removed, sigma=g.sigma_exact - eps_q)
    removed_mass = g.density() - out.density()
    margin_mass = g.density() - g.without(margin_removed).density()
    ok = removed_mass <= eps_q
    return MeasurePruneResult(
        out,
        removed_mass,
        k_prime,
        delta0,
        margin_mass,
        ok,
        None if ok else f"removed mass {removed_mass} exceeds budget {eps}",
    )


class NotMinimalStable(ValueError):
    pass


def product_graph(gs: Sequence[ThinGraph], frame, scales: Sequence) -> tuple[ThinGraph, VerifyResult]:
    """Concatenate per-flat graphs over a certified frame into one graph and
    re-verify it directly as thin (n-1)-planes.

    Requires the frame's dimension sums to fill the ambient space and the
    minimal-position rank certificates r(full, {}) = n and
    r(full minus block j, {j}) = n + 1 to hold exactly, both read from one
    minimal_rank_report table; a rank that depends on the picks is missing
    from the table and fails its certificate.
    """
    from .stability import minimal_rank_report

    n = frame.ambient_dim
    if sum(frame.dims()) != n:
        raise NotMinimalStable("dimension sums do not fill the ambient space")
    if len(gs) != frame.k:
        raise NotMinimalStable("one graph per frame flat required")
    for j, gj in enumerate(gs):
        if gj.arity != len(frame.measures[j]):
            raise NotMinimalStable(f"graph {j} arity differs from flat {j} measures")
        for a, mu in zip(gj.measures, frame.measures[j]):
            if a is not mu and a.atoms != mu.atoms:
                raise NotMinimalStable(f"graph {j} measures differ from the frame's")
    table = minimal_rank_report(frame)[0]
    if (got := table.get((tuple(range(frame.k)), ()))) != n:
        raise NotMinimalStable(f"rank certificate r(full, {{}}) = {got} != {n}")
    for j in range(frame.k):
        if (got := table.get((tuple(t for t in range(frame.k) if t != j), (j,)))) != n + 1:
            raise NotMinimalStable(f"rank certificate r(minus {j}, {{{j}}}) = {got} != {n + 1}")
    measures = [mu for j in range(frame.k) for mu in frame.measures[j]]
    tuples = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*(list(gj.iter_tuples()) for gj in gs))
    ]
    sigma = min(gj.sigma_exact for gj in gs)
    big_k = max(gj.k_exact for gj in gs)
    out = ThinGraph(measures, tuples, sigma, big_k)
    scales, radii2 = _window(scales, measures)
    items = list(_plane_items(out, radii2))
    check = _verdict(out, scales, items, _PLANE_FAILURE)
    if not check.ok:
        # report the achieved constant instead of failing: the least double
        # K' with every scale's peak mass m <= K' scale^sigma, found by halving
        # between 0 (fails) and twice the float estimate (holds), then
        # verified from the counts in hand
        def holds(k: float) -> bool:
            return all(
                m.numerator <= _cut(m.denominator, Fraction(k), sigma, s) for s, m, _, _ in check.table
            )

        lo = 0.0
        hi = 2 * max(float(m) / float(s) ** float(sigma) for s, m, _, _ in check.table)
        while (mid := (lo + hi) / 2) not in (lo, hi):
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        out = ThinGraph(measures, tuples, sigma, hi)
        check = _verdict(out, scales, items, _PLANE_FAILURE)
    return out, check


@dataclass
class PushforwardFit:
    constant: float
    exponent: float
    table: list[tuple[float, int, float]]  # (scale, occupied boxes, max box mass)


def _chart_boxes(g: ThinGraph, ks: Sequence[int]) -> list[dict[tuple[int, ...], int]]:
    """Per exponent k of ks, the boxes of side 2^-k occupied by the tuples'
    hyperplanes, each with its weight as an integer over prod W_j.

    The hyperplane {x : a.x = b} of a tuple, its normal from _normals, is
    charted by the first i with maximal |a_i| at the coordinates a_j / a_i
    (j != i) and b / a_i; at the finest exponent K its key is i and those
    coordinates' floors at scale 2^-K, by integer floor division of 2^K
    (a, b).  A coarser exponent k shifts the keys of a finer exponent k'
    right by k' - k, and floor(floor(y) / 2^m) = floor(y / 2^m) makes that
    the key at scale 2^-k."""
    top = max(ks)
    weights = [m.oracle.int_weights for m in g.measures]
    finest: dict[tuple[int, ...], int] = collections.defaultdict(int)
    for ts, cols in _normals(_joint(g)[0], g.iter_tuples(), top):
        w0 = math.prod(w[i] for w, i in zip(weights, ts[0][:-1]))
        for t, v in zip(ts, zip(*cols)):
            top_a = max(v[:-1], key=abs)  # the first of equal |a_i|
            i = v.index(top_a)
            ai = top_a >> top
            if not ai:
                raise TupleInDegenerateSet(f"tuple {t} does not span a hyperplane")
            finest[(i, *[x // ai for x in v[:i] + v[i + 1 :]])] += w0 * weights[-1][t[-1]]
    # each level from the next finer one, which has no more boxes
    levels = {top: finest}
    for k in sorted(ks, reverse=True)[1:]:
        finer = min(levels)
        levels[k] = boxes = collections.defaultdict(int)
        for (i, *xs), w in levels[finer].items():
            boxes[(i, *[x >> finer - k for x in xs])] += w
    return [levels[k] for k in ks]


def pushforward_frostman(g: ThinGraph, scales: Sequence) -> PushforwardFit:
    """Map every tuple to its spanned hyperplane's exact chart point (see
    _chart_boxes), accumulate integer product weights in dyadic boxes, and
    fit the box-counting exponent of the support of the resulting measure on
    hyperplane space (slope of log occupied-box count against log 1/scale);
    the per-scale table also records the heaviest box mass.  Scales must be
    2^-k for integers k >= 0.  Floats enter only the table and the fit.
    """
    if g.arity != g.ambient_dim:
        raise ValueError("spans must be hyperplanes: need n measures, no other chart is declared")
    scales = sorted({frac(s) for s in scales}, reverse=True)
    if len(scales) < 2:
        raise ValueError("need at least two distinct scales")
    for s in scales:
        if s.numerator != 1 or s.denominator & (s.denominator - 1):
            raise ValueError(f"scale {s} is not 2^-k for an integer k >= 0")
    boxes = _chart_boxes(g, [s.denominator.bit_length() - 1 for s in scales])
    total = sum(boxes[0].values())
    if total == 0:
        raise ValueError("graph carries no mass")
    table = [(float(s), len(bx), max(bx.values()) / total) for s, bx in zip(scales, boxes)]
    xs = [math.log(s) for s, _, _ in table]
    ys = [math.log(c) for _, c, _ in table]
    slope, intercept = _fit_line(xs, ys)
    return PushforwardFit(math.exp(intercept), -slope, table)


@dataclass
class MarginalReport:
    heavy_atoms: list[int]
    section_ratios: dict[int, Fraction]
    fubini_total: Fraction


def marginal_heavy_set(g: ThinGraph, i: int, threshold) -> MarginalReport:
    """Atoms of measure i whose graph-section mass ratio meets the
    threshold, with the Fubini accounting exposed: integrating the section
    ratios against measure i recovers the graph density exactly.  Sums run
    over the oracles' integer weights."""
    threshold = frac(threshold)
    ws = [m.oracle.int_weights for m in g.measures]
    others = ws[:i] + ws[i + 1 :]
    section = dict.fromkeys(range(len(ws[i])), 0)  # integer section masses
    for t in g.iter_tuples():
        section[t[i]] += math.prod(w[k] for w, k in zip(others, t[:i] + t[i + 1 :]))
    other_total = math.prod(map(sum, others))
    ratios = {a: Fraction(m, other_total) for a, m in section.items()}
    heavy = [a for a, r in sorted(ratios.items()) if r >= threshold]
    fubini = Fraction(sum(ws[i][a] * m for a, m in section.items()), sum(ws[i]) * other_total)
    return MarginalReport(heavy, ratios, fubini)


def thin_implies_nc(g: ThinGraph, scales: Sequence) -> tuple[bool, FlatCollection, VerifyResult]:
    """Verify the graph at arity n and test that the affine spans of the
    supports form an NC collection; with a positive margin at the smallest
    scale no support flat fits inside a spanned hyperplane, which is what
    drives the covering bound."""
    if g.arity != g.ambient_dim:
        raise ValueError("NC transfer needs an arity-n graph")
    check = verify_thin_planes(g, scales)
    coll = FlatCollection([m.support_flat() for m in g.measures])
    return (check.ok and coll.is_nc()), coll, check
