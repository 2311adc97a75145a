"""Stable-position machinery: augmented point/basis matrices, the rank
function over index pairs, minor-floor certificates, the stabilizing ball
search and stability of join-meet projections.

A frame holds flats V_j with an orthogonal rational basis of each
linearization and a grid of measures mu[j][i] supported on V_j.  For index
sets Ibar (atom slots) and J (flats), the matrix (B_Ibar(x), A_J) stacks
lifted picked atoms next to basis columns; c-stable position means the rank
of that matrix does not depend on the atom picks and some maximal minor is
quantitatively large.  Minor magnitudes are always compared after dividing
by the product of the squared norms of the participating columns, so the
floor is scale-free; with orthogonal (not orthonormal) bases this matches
the orthonormal convention up to recorded factors.

The frame scales every lifted atom and basis column to integers once and
keeps each one's squared norm, one block per flat and per atom entry.  The
minor kernel, exactlin._wedge, grows the row-subset minors of a column set
by a column; a chain of wedges over a matrix's columns gives its greedy
pivots (the rank) and every maximal minor of them (the cheap floor).  One
trie per call shares the chains, a node per block: an index pair's picks,
in product order, each descend from the first slot that changed.
minor_floors maximizes over every column set, for a pick whose cheap
floor is below c2 and for the stabilizing search's target.

One walker, _walks, is every rank walk: certify_stability, stabilize, the
minimal rank table and the rank inequalities read it, and product_graph's
certificates read the minimal rank table.  It checks the frame's (index
pair, pick) combinations, 2^k prod(1 + |supp mu|) over all index pairs,
against one budget, PICK_BUDGET as it reads when called unless the
caller gives one, before any index pair is built, and then walks each
pair's picks over one trie.
projected_stability_check moves flats and atoms with one flats.projector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .exactlin import (
    BudgetExceeded,
    Vector,
    _integerized_points,
    _wedge,
    norm2,
    orthogonalize,
    vscale,
)
from .flats import (
    AffineFlat,
    FlatChart,
    linearize,
    projector,
    radial_flat,
    radial_point,
    wedge_angle_sin2,
)
from .measures import DiscreteMeasure

AtomSlot = tuple[int, int]  # (flat index j, measure index i)

# the default bound on a frame's (index pair, pick) combinations
PICK_BUDGET = 200_000
# the ball radii stabilize tries, 1 down to 2^-(HALVINGS - 1)
HALVINGS = 40


@dataclass(frozen=True)
class IndexPair:
    atoms_index: frozenset[AtomSlot]
    flats_index: frozenset[int]

    @classmethod
    def of(cls, atoms: Iterable[AtomSlot] = (), flats: Iterable[int] = ()) -> "IndexPair":
        return cls(frozenset(atoms), frozenset(flats))

    def sorted_atoms(self) -> list[AtomSlot]:
        return sorted(self.atoms_index)

    def sorted_flats(self) -> list[int]:
        return sorted(self.flats_index)


class StableFrame:
    """Flats, orthogonal linearization bases and a grid of measures."""

    def __init__(
        self,
        flats: Sequence[AffineFlat],
        measures: Sequence[Sequence[DiscreteMeasure]],
    ):
        if len(flats) != len(measures):
            raise ValueError("one measure list per flat required")
        self.flats = list(flats)
        self.measures = [list(ms) for ms in measures]
        if not self.flats:
            raise ValueError("empty frame")
        n = self.flats[0].ambient_dim
        if any(f.ambient_dim != n for f in self.flats):
            raise ValueError("ambient dimensions differ")
        self.ambient_dim = n
        for j, (f, ms) in enumerate(zip(self.flats, self.measures)):
            if not ms:
                raise ValueError(f"flat {j} carries no measures")
            for i, mu in enumerate(ms):
                for p, _ in mu.atoms:
                    if not f.contains_point(p):
                        raise ValueError(f"measure ({j},{i}) has an atom off flat {j}")
                    if norm2(p) > 1:
                        raise ValueError(f"measure ({j},{i}) leaves the unit ball")
        self.bases = [orthogonalize(linearize(f)) for f in self.flats]
        # (scale, integer column, squared norm) per column, one block per key
        # of a matrix: a flat j's basis, an atom entry ((j, i), a)'s lifted atom
        self.blocks: dict = {j: [_int_column(b) for b in bs] for j, bs in enumerate(self.bases)}
        for j, i in self.atom_slots():
            for a, (p, _) in enumerate(self.measures[j][i].atoms):
                self.blocks[(j, i), a] = [_int_column(p + (Fraction(1),))]

    @property
    def k(self) -> int:
        return len(self.flats)

    def dims(self) -> list[int]:
        return [f.dim for f in self.flats]

    def atom_slots(self) -> list[AtomSlot]:
        return [
            (j, i) for j, ms in enumerate(self.measures) for i in range(len(ms))
        ]

    def block_atoms(self, flats_subset: Iterable[int]) -> frozenset[AtomSlot]:
        sel = set(flats_subset)
        return frozenset(s for s in self.atom_slots() if s[0] in sel)

    def support_sizes(self) -> dict[AtomSlot, int]:
        return {(j, i): len(self.measures[j][i]) for j, i in self.atom_slots()}

    def restricted(self, centers: dict[AtomSlot, Vector], radius: Fraction) -> "StableFrame":
        """Frame with every measure cut down to a closed ball around its
        designated center atom (weights kept as they are)."""
        r2 = radius * radius
        new_measures = []
        for j, ms in enumerate(self.measures):
            row = []
            for i, mu in enumerate(ms):
                ball = mu.oracle.atoms_near_flat(AffineFlat.point(centers[(j, i)]), r2)
                kept = [a for k, a in enumerate(mu.atoms) if ball >> k & 1]
                row.append(DiscreteMeasure(kept, mu.resolution))
            new_measures.append(row)
        return StableFrame(self.flats, new_measures)


Pick = dict[AtomSlot, int]
# (scale, integer column, squared norm): column c over Q is the integer
# column divided by the scale
Column = tuple[int, tuple[int, ...], int]


def _int_column(v: Vector) -> Column:
    """v as a Column, scaled by the lcm of its denominators."""
    (col,), scale = _integerized_points([v])
    return scale, col, sum(x * x for x in col)


def build_matrix(frame: StableFrame, pick: Pick, idx: IndexPair) -> list[Column]:
    """The frame's columns of (B_Ibar(x), A_J): lifted picked atoms over
    sorted Ibar, then the orthogonal basis columns of every flat in sorted
    J; slots outside Ibar are ignored."""
    cols = []
    for slot in idx.sorted_atoms():
        if slot not in pick:
            raise ValueError(f"pick missing atom slot {slot}")
        cols += frame.blocks[slot, pick[slot]]
    for j in idx.sorted_flats():
        cols += frame.blocks[j]
    return cols


# a chain of wedges: the minors of the pivot columns so far, their indices
# in the matrix, and the products of their squared norms and of their scales
WedgeState = tuple[dict[int, int], tuple[int, ...], int, int]
# a trie node: the wedge state after its columns, the next column's index in
# the matrix and its children, keyed by atom entry (slot, atom) or flat j
Node = tuple[WedgeState, int, dict]
Walk = list[tuple[tuple[int, ...], WedgeState]]


def _trie() -> Node:
    return ({0: 1}, (), 1, 1), 0, {}


def _child(frame: StableFrame, node: Node, key) -> Node:
    """node's child along key, made on first use by wedging key's block."""
    got = node[2].get(key)
    if got is None:
        state, c, _ = node
        for scale, col, norm in frame.blocks[key]:
            minors, pivots, nprod, sprod = state
            if len(pivots) < len(col) and (grown := _wedge(minors, col)):
                state = grown, pivots + (c,), nprod * norm, sprod * scale
            c += 1
        got = node[2][key] = state, c, {}
    return got


@dataclass
class RankInconsistency:
    idx: IndexPair
    pick_a: Pick
    rank_a: int
    pick_b: Pick
    rank_b: int


def _pick_states(frame: StableFrame, idx: IndexPair, trie: Node, constant: bool = True) -> Walk | RankInconsistency:
    """The index pair's picks in product order, each with the chain over
    build_matrix(frame, pick, idx) stopped at full rank: the trie's node
    after its atom entries, then J's flats.  Each pick descends from the
    first slot that changed, the last nonzero one, on the previous pick's
    path.  With constant, a rank change returns its RankInconsistency."""
    slots, flats = idx.sorted_atoms(), idx.sorted_flats()
    last = max(len(slots) - 1, 0)
    path = [trie]  # path[s]: the node after the previous pick's first s entries
    out: Walk = []
    for pick in itertools.product(*(range(len(frame.measures[j][i])) for j, i in slots)):
        e = last
        while e and not pick[e]:
            e -= 1
        del path[e + 1 :]
        for s in range(e, len(slots)):
            path.append(_child(frame, path[s], (slots[s], pick[s])))
        node = path[-1]
        for j in flats:
            node = _child(frame, node, j)
        if constant and out and len(node[0][1]) != len(out[0][1][1]):
            a, b = (dict(zip(slots, p)) for p in (out[0][0], pick))
            return RankInconsistency(idx, a, len(out[0][1][1]), b, len(node[0][1]))
        out.append((pick, node[0]))
    return out


def minor_floors(m: Sequence[Column], r: int) -> tuple[Fraction, Fraction]:
    """(normalized, raw) values of the largest squared r x r minor of the
    columns m, as build_matrix gives them, where the normalized form
    divides each det^2 by the product of the participating squared column
    norms, read off m.  It maximizes over all r-column subsets, walking
    them in combination order so that subsets sharing a prefix share their
    wedges; a dependent prefix ends its branch.  The pivot-only lower bound
    is certify_stability's, read off its trie.

    Scaling a column multiplies each minor through it by the column's
    factor, so the normalized value needs no rescaling on the integer
    columns and the raw one divides out the squared scales.
    """
    if r == 0:
        return Fraction(1), Fraction(1)
    best = [(0, 1), (0, 1)]  # normalized and raw maxima as (numerator, denominator)

    def walk(minors: dict[int, int], cs: tuple[int, ...], rest: Sequence[int]) -> None:
        if len(cs) == r:
            top = max(d * d for d in minors.values())
            dens = math.prod(m[c][2] for c in cs), math.prod(m[c][0] for c in cs) ** 2
            for k, den in enumerate(dens):
                if top * best[k][1] > best[k][0] * den:
                    best[k] = top, den
            return
        for k, c in enumerate(rest[: len(rest) - r + len(cs) + 1]):
            grown = _wedge(minors, m[c][1])
            if grown:
                walk(grown, cs + (c,), rest[k + 1 :])

    walk({0: 1}, (), range(len(m)))
    return Fraction(*best[0]), Fraction(*best[1])


@dataclass
class CertificationResult:
    ok: bool
    # least column-normalized squared minor floor over the picks; it can
    # rise with c2, since picks below c2 are rescored over all column sets
    floor: Optional[Fraction]
    ranks: dict[IndexPair, int]
    raw_floor: Optional[Fraction] = None  # unnormalized squared minor floor
    witness: Optional[str] = None


class CertificationBudgetExceeded(BudgetExceeded):
    pass


def _index_pairs(frame: StableFrame) -> list[IndexPair]:
    slots = frame.atom_slots()
    flats_range = range(frame.k)
    pairs = []
    for na in range(len(slots) + 1):
        for atoms in itertools.combinations(slots, na):
            for nf in range(frame.k + 1):
                for fl in itertools.combinations(flats_range, nf):
                    pairs.append(IndexPair.of(atoms, fl))
    return pairs


def _check_picks(frame: StableFrame, budget: int) -> None:
    """Refuse a frame whose (index pair, pick) combinations, summed over its
    index pairs in closed form, exceed the budget: every rank walk over the
    frame ranks some of them."""
    total = 2**frame.k * math.prod(1 + s for s in frame.support_sizes().values())
    if total > budget:
        raise CertificationBudgetExceeded(
            f"{total} (index, pick) combinations exceed budget {budget}"
        )


def _pick_budget(budget: Optional[int]) -> int:
    """The budget a rank walk is held to: PICK_BUDGET as it reads when
    called, unless the caller gives one."""
    return PICK_BUDGET if budget is None else budget


def _walks(
    frame: StableFrame, budget: Optional[int], pairs: Optional[Iterable[IndexPair]] = None, constant: bool = True
) -> Iterator[tuple[IndexPair, Walk | RankInconsistency]]:
    """(idx, _pick_states(frame, idx, trie, constant)) for each of the pairs
    (every index pair of the frame when None), walked lazily over one trie;
    the frame is refused by _check_picks at call time against
    _pick_budget(budget), before any index pair is built."""
    _check_picks(frame, _pick_budget(budget))
    trie = _trie()
    pairs = _index_pairs(frame) if pairs is None else pairs
    return ((idx, _pick_states(frame, idx, trie, constant)) for idx in pairs)


def certify_stability(
    frame: StableFrame,
    c2: Fraction,
    budget: Optional[int] = None,
) -> CertificationResult:
    """Certify c-stable position with the squared, column-normalized floor c2:
    every index pair must have a pick-independent rank, and every pick's
    normalized maximal minor must be at least c2.  A pick is scored on its
    pivot columns, a lower bound, and rescored over all column sets only
    when that is below c2: the verdict is exact, but the reported floor can
    rise with c2."""
    c2 = Fraction(c2)
    ranks: dict[IndexPair, int] = {}
    # least floors so far as (numerator, denominator), from 1/0 = infinity
    floor = raw_floor = (1, 0)
    for idx, got in _walks(frame, budget):
        if isinstance(got, RankInconsistency):
            return CertificationResult(
                False,
                None,
                ranks,
                witness=(
                    f"rank not constant on Ibar={sorted(idx.atoms_index)} "
                    f"J={sorted(idx.flats_index)}: {got.rank_a} vs {got.rank_b} "
                    f"at picks {got.pick_a} and {got.pick_b}"
                ),
            )
        ranks[idx] = len(got[0][1][1])
        for pick, (minors, pivots, nprod, sprod) in got:
            top = max(d * d for d in minors.values())
            val, raw = (top, nprod), (top, sprod * sprod)
            if top * c2.denominator < c2.numerator * nprod:
                p = dict(zip(idx.sorted_atoms(), pick))
                fval, fraw = minor_floors(build_matrix(frame, p, idx), len(pivots))
                if fval < c2:
                    return CertificationResult(
                        False,
                        fval,
                        ranks,
                        raw_floor=fraw,
                        witness=(
                            f"normalized minor {fval} < c2 {c2} at "
                            f"Ibar={sorted(idx.atoms_index)} J={sorted(idx.flats_index)} pick={p}"
                        ),
                    )
                val, raw = fval.as_integer_ratio(), fraw.as_integer_ratio()
            if val[0] * floor[1] < floor[0] * val[1]:
                floor = val
            if raw[0] * raw_floor[1] < raw_floor[0] * raw[1]:
                raw_floor = raw
    return CertificationResult(True, Fraction(*floor), ranks, raw_floor=Fraction(*raw_floor))


class StabilizationError(RuntimeError):
    pass


def stabilize(frame: StableFrame, budget: Optional[int] = None) -> tuple[StableFrame, Fraction]:
    """Find the atom tuple with the maximum possible rank-vector sum,
    restrict every measure to a ball around its chosen atom, and shrink the
    balls dyadically until certification passes with c2 equal to half the
    normalized-minor floor achieved by the chosen tuple."""
    slots = frame.atom_slots()
    # one rank per pick and index pair, then one more per pair: at least
    # the frame's 2^k prod(1 + |supp mu|) combinations, as 1 + s <= 2 s
    work = (math.prod(frame.support_sizes().values()) + 1) * 2 ** (len(slots) + frame.k)
    if work > (limit := _pick_budget(budget)):
        raise BudgetExceeded(f"{work} rank evaluations exceed budget {limit}")
    states = {idx: dict(walk) for idx, walk in _walks(frame, limit, constant=False)}

    def pivots(idx: IndexPair, p: Pick) -> tuple[int, ...]:
        return states[idx][tuple(p[s] for s in idx.sorted_atoms())][1]

    picks = (dict(zip(slots, p)) for p in itertools.product(*map(range, frame.support_sizes().values())))
    best_pick = max(picks, key=lambda p: sum(len(pivots(idx, p)) for idx in states))
    floor = min(minor_floors(build_matrix(frame, best_pick, idx), len(pivots(idx, best_pick)))[0] for idx in states)
    assert floor > 0
    target = floor / 2
    centers = {
        (j, i): frame.measures[j][i].atoms[best_pick[(j, i)]][0] for j, i in slots
    }
    radius = Fraction(1)
    for _ in range(HALVINGS):
        restricted = frame.restricted(centers, radius)
        cert = certify_stability(restricted, target, budget=limit)
        if cert.ok:
            return restricted, target
        radius /= 2
    raise StabilizationError("cannot stabilize at configured ball radii")


def dimension_sum(frame: StableFrame, flats_subset: Iterable[int]) -> int:
    return sum(frame.flats[j].dim for j in flats_subset)


@dataclass
class RankRuleViolation:
    rule: str
    i_set: tuple[int, ...]
    j_set: tuple[int, ...]
    got: int
    bound: int


def minimal_rank_report(
    frame: StableFrame, budget: Optional[int] = None
) -> tuple[dict[tuple[tuple[int, ...], tuple[int, ...]], int], list[RankRuleViolation]]:
    """Rank table r(I, J) over block-level disjoint index sets, checked
    against the minimal-position rules (dimension sums written n_I):

      r(I, emptyset) = n_I,
      r(I, J) >= n_{I u J} + 1   for J nonempty,
      r(I, [k] \\ I) = n + 1      for I a proper subset.

    Assumes every flat j carries dim V_j measures and the dimension sums
    add up to the ambient dimension (the p = 0 minimal case).
    """
    k = frame.k
    n = frame.ambient_dim
    pairs = {
        (i_set, j_set): IndexPair(frame.block_atoms(i_set), frozenset(j_set))
        for i_size in range(k + 1)
        for i_set in itertools.combinations(range(k), i_size)
        for j_size in range(k - i_size + 1)
        for j_set in itertools.combinations([j for j in range(k) if j not in i_set], j_size)
    }
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    violations: list[RankRuleViolation] = []
    for (i_set, j_set), (_, got) in zip(pairs, _walks(frame, budget, pairs.values())):
        if isinstance(got, RankInconsistency):
            violations.append(
                RankRuleViolation("rank-constant", i_set, j_set, got.rank_b, got.rank_a)
            )
            continue
        got = table[(i_set, j_set)] = len(got[0][1][1])
        n_i = dimension_sum(frame, i_set)
        n_ij = dimension_sum(frame, set(i_set) | set(j_set))
        if not j_set:
            if got != n_i:
                violations.append(
                    RankRuleViolation("r(I,0)=n_I", i_set, j_set, got, n_i)
                )
        else:
            if got < n_ij + 1:
                violations.append(
                    RankRuleViolation("r(I,J)>=n_IJ+1", i_set, j_set, got, n_ij + 1)
                )
            if set(i_set) | set(j_set) == set(range(k)) and got != n + 1:
                violations.append(
                    RankRuleViolation("r(I,[k]-I)=n+1", i_set, j_set, got, n + 1)
                )
    return table, violations


def rank_inequality_report(frame: StableFrame) -> list[RankRuleViolation]:
    """Exhaustive check, over every index pair, of the fill-step rank
    inequality

      r(Ibar + all of flat j's slots, J) >= r(Ibar, J + j) - 1.

    The one-step bounds r(Ibar + (j,i), J) <= r(Ibar, J) + 1 and
    r(Ibar, J + j) <= r(Ibar, J) + n_j + 1 need no check: with ranks
    independent of the picks, each grown matrix is one of (Ibar, J)'s
    matrices plus one column, or plus flat j's n_j + 1 basis columns.
    """
    ranks: dict[IndexPair, int] = {}
    for idx, got in _walks(frame, None):
        if isinstance(got, RankInconsistency):
            raise StabilizationError("rank not pick-independent; certify first")
        ranks[idx] = len(got[0][1][1])
    slots = frame.atom_slots()
    violations: list[RankRuleViolation] = []
    for idx in ranks:
        for j in range(frame.k):
            if j in idx.flats_index:
                continue
            up = ranks[IndexPair(idx.atoms_index, idx.flats_index | {j})]
            filled = ranks[
                IndexPair(idx.atoms_index | {s for s in slots if s[0] == j}, idx.flats_index)
            ]
            if filled < up - 1:
                violations.append(
                    RankRuleViolation("fill-step", tuple(sorted(idx.atoms_index)), tuple(sorted(idx.flats_index)), filled, up - 1)
                )
    return violations


@dataclass
class ProjectedStabilityReport:
    ok: bool
    sin2_theta: Fraction
    achieved_c2: Optional[Fraction]
    image_frame: Optional[StableFrame]
    witness: Optional[str] = None


def projected_stability_check(
    frame: StableFrame,
    i0: Iterable[AtomSlot],
    u: AffineFlat,
) -> ProjectedStabilityReport:
    """Project the measures outside i0 through the join-meet map with center
    spanned by the first atom of each i0 measure, re-certify stability of
    the image frame inside the screen u, and report the achieved floor and
    the squared sine between the center span and the screen."""
    i0 = sorted(set(i0))
    if not i0:
        raise ValueError("i0 must be nonempty")
    pts = [frame.measures[j][i].atoms[0][0] for j, i in i0]
    center = AffineFlat.from_points(pts)
    n = frame.ambient_dim
    n0 = center.dim
    if u.ambient_dim != n or u.dim != n - n0 - 1:
        raise ValueError(f"screen must have dimension {n - n0 - 1}")
    proj = projector(center, u)
    sin2 = wedge_angle_sin2(linearize(center), linearize(u))

    chart = FlatChart(u)
    image_flats = []
    image_atoms = []  # per flat, per measure: chart atoms and resolution
    for j, (f, ms) in enumerate(zip(frame.flats, frame.measures)):
        remaining = [mu for i, mu in enumerate(ms) if (j, i) not in i0]
        if not remaining:
            continue
        img = radial_flat(proj, f)
        if img is None:
            return ProjectedStabilityReport(False, sin2, None, None, witness=f"flat {j} projects to nothing")
        image_flats.append(chart.flat_to_coords(img))
        image_atoms.append(
            [([(chart.to_coords(radial_point(proj, p)), w) for p, w in mu.atoms], mu.resolution) for mu in remaining]
        )
    if not image_flats:
        raise ValueError("i0 covers every measure; nothing to project")
    # exact power-of-two rescale back into the unit ball if projection
    # pushed anything out (mirrors rescaling by ~1/C after projecting)
    peak = max(norm2(p) for row in image_atoms for atoms, _ in row for p, _ in atoms)
    lam = Fraction(1)
    while peak * lam * lam > 1:
        lam /= 2
    image_flats = [AffineFlat(vscale(lam, f.basepoint), f.directions) for f in image_flats]
    image_measures = [
        [DiscreteMeasure([(vscale(lam, p), w) for p, w in atoms], res) for atoms, res in row] for row in image_atoms
    ]
    try:
        image = StableFrame(image_flats, image_measures)
    except ValueError as e:
        return ProjectedStabilityReport(False, sin2, None, None, witness=str(e))
    cert = certify_stability(image, Fraction(0))
    if not cert.ok:
        return ProjectedStabilityReport(False, sin2, None, image, witness=cert.witness)
    ok = cert.floor is not None and cert.floor > 0
    return ProjectedStabilityReport(ok, sin2, cert.floor, image)
