"""Pushforwards of measures, the hyperplane chart on a flat, the hyperplane
map psi with its affine matrix form, and NC preservation and
irreducibility under radial projection.

psi sends a hyperplane W of the screen U inside the first flat to the meet
of aff(E, H_W) with the last flat, where H_W is the unique hyperplane of the
first flat through the center C lying over W.  For a generic screen U this
map is projective, not affine; it is exactly affine precisely when U is
chosen so that span(dir U, dir E) = span(dir Q1, dir E).  The context
builder constructs U inside that kernel (the choice of screen is ours to
make), checks the alignment certificate exactly, and psi_matrix then
recovers the exact (M, y0) parameter map and verifies it by substitution.
Every rank and kernel here runs on exactlin's integer rows.

Each centre-screen pair gets one flats.projector, and every radial image of
a point or flat is read off it (flats.radial_point, flats.radial_flat): a
PsiContext holds the projector of (E, F_k), projected_nc_report builds one
per centre and irreducible_projection_check one per call.  projector
refuses a centre and screen that are not complementary with a ValueError,
never NonGenericScreen.  hyperplane_map_psi alone joins and meets: it is
psi_matrix's independent substitution check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exactlin import (
    Vector,
    _integerized_rows,
    dot,
    frac,
    int_kernel,
    int_rref,
    vec,
    vadd,
    vsub,
    zero_vec,
)
from .flats import (
    AffineFlat,
    FlatChart,
    NonGenericScreen,
    _reduced,
    _span_meet,
    dist2_flats,
    join,
    meet,
    projector,
    radial_flat,
    radial_point,
)
from .flatcollect import FlatCollection, iter_partitions
from .measures import DiscreteMeasure, irreducibility_modulus


def pushforward(mu: DiscreteMeasure, point_map: Callable[[Vector], Sequence]) -> DiscreteMeasure:
    """Map atoms, keep weights, merge coincident images by weight addition."""
    merged: dict[Vector, Fraction] = {}
    order: list[Vector] = []
    for p, w in mu.atoms:
        img = vec(point_map(p))
        if img not in merged:
            merged[img] = Fraction(0)
            order.append(img)
        merged[img] += w
    return DiscreteMeasure([(p, merged[p]) for p in order], mu.resolution)


@dataclass(frozen=True)
class HyperplaneCoords:
    """Hyperplane {u : a . u = b} of the chart screen; a must be nonzero."""

    a: Vector
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", vec(self.a))
        object.__setattr__(self, "b", frac(self.b))
        if all(x == 0 for x in self.a):
            raise ValueError("zero normal")


class ChartFrame(FlatChart):
    """(u, t, w) affine chart on a host flat F with screen U = {(u,0,0)} and
    center C = {(0,1,w)}: the FlatChart of the flat through U's basepoint
    with U's directions, C's basepoint minus U's and C's directions.  Those
    lie in F and are independent (AffineFlat refuses them otherwise), so
    as many of them as dim F span F itself."""

    def __init__(self, host: AffineFlat, screen: AffineFlat, center: AffineFlat):
        if not (host.contains_flat(screen) and host.contains_flat(center)):
            raise ValueError("screen and center must lie inside the host flat")
        cols = list(screen.directions) + [vsub(center.basepoint, screen.basepoint)] + list(center.directions)
        if len(cols) != host.dim:
            raise ValueError("screen, transverse direction and center do not frame the host")
        super().__init__(AffineFlat(screen.basepoint, cols))
        self.host, self.screen, self.center, self.p = host, screen, center, screen.dim

    to_chart = FlatChart.to_coords

    def split(self, coords: Vector) -> tuple[Vector, Fraction, Vector]:
        u = coords[: self.p]
        t = coords[self.p]
        w = coords[self.p + 1 :]
        return u, t, w


def chart_project(cf: ChartFrame, coords: Sequence) -> Vector:
    """The center-fiber projection in chart coordinates: (u,t,w) -> u/(1-t)."""
    u, t, _ = cf.split(vec(coords))
    if t == 1:
        raise ValueError("center fiber")
    return tuple(x / (1 - t) for x in u)


def lift_hyperplane(cf: ChartFrame, hc: HyperplaneCoords) -> AffineFlat:
    """The unique hyperplane H_W of the host flat containing the center with
    chart equation a.u + b(t - 1) = 0; its points over t = 0 are exactly W."""
    if len(hc.a) != cf.p:
        raise ValueError("normal length differs from screen dimension")
    n1 = cf.host.dim
    row = hc.a + (hc.b,) + (Fraction(0),) * (n1 - cf.p - 1)
    base = [int(i == cf.p) for i in range(n1)]  # the chart point (0, 1, 0) always solves
    return cf.flat_to_ambient(AffineFlat(base, int_kernel(_integerized_rows([row]), n1)))


@dataclass
class PsiContext:
    """Everything the hyperplane map needs: the host flats, the fixed atom
    span E, the joint flat J, the target section Q1, and the aligned chart."""

    flats: list[AffineFlat]  # F_1 ... F_k
    p: int
    e_flat: AffineFlat
    j_flat: AffineFlat
    q1: AffineFlat
    chart: ChartFrame
    q1_chart: FlatChart
    fixed_atoms: dict[tuple[int, int], Vector]

    @property
    def f1(self) -> AffineFlat:
        return self.flats[0]

    @property
    def fk(self) -> AffineFlat:
        return self.flats[-1]

    @functools.cached_property
    def projector(self) -> list[list[int]]:
        """The projector of (E, F_k), which the point map reads."""
        return projector(self.e_flat, self.fk)


class NonGenericConfiguration(ValueError):
    pass


def make_psi_context(
    flats: Sequence[AffineFlat],
    fixed_atoms: dict[tuple[int, int], Sequence],
    p: int,
    rng,
    max_tries: int = 200,
) -> PsiContext:
    """Build the Setup context: E from the fixed atoms, J = aff(E, F_1),
    Q1 = J meet F_k, and an exactly aligned screen U in F_1 with its center
    C spanned by the fixed F_1 atoms.

    The screen direction is drawn inside the kernel subspace
    span(dir Q1, dir E) meet dir F_1, which is what makes psi exactly affine
    rather than merely projective; the alignment certificate
    span(dir U, dir E) = span(dir Q1, dir E) is re-checked exactly.  E and
    F_k must be complementary, checked once before any screen is drawn; then
    an aligned screen misses E and its point map sends no point to infinity.
    """
    flats = list(flats)
    k = len(flats)
    f1, fk = flats[0], flats[-1]
    n = f1.ambient_dim
    n1 = f1.dim
    if n1 < p + 1:
        raise ValueError("first flat must have dimension at least p + 1")
    fixed = {key: vec(pt) for key, pt in fixed_atoms.items()}
    f1_fixed = [pt for (j, _), pt in sorted(fixed.items()) if j == 0]
    if len(f1_fixed) != n1 - p:
        raise ValueError("need exactly dim F_1 - p fixed atoms on the first flat")
    center = AffineFlat.from_points(f1_fixed)
    if center.dim != n1 - p - 1:
        raise NonGenericConfiguration("fixed first-flat atoms are affinely dependent")
    e_flat = AffineFlat.from_points(sorted(fixed.values()))
    middle_dims = sum(flats[j].dim for j in range(1, k - 1))
    if e_flat.dim != (n1 + middle_dims) - p - 1:
        raise NonGenericConfiguration("fixed atoms span the wrong dimension")
    j_flat = join([e_flat, f1])
    if j_flat.dim != n1 + middle_dims:
        raise NonGenericConfiguration("joint flat has unexpected dimension")
    q1 = meet(j_flat, fk)
    if q1 is None or q1.dim != p:
        raise NonGenericConfiguration("target section is not a p-flat")
    # rank certificate: middle atoms with both end bases must fill the space
    cert = list(f1._rows) + list(fk._rows)
    cert += _integerized_rows(pt + (Fraction(1),) for (j, _), pt in sorted(fixed.items()) if j != 0)
    if len(int_rref(cert)[0]) != n + 1:
        raise NonGenericConfiguration("rank certificate failed (middle atoms, end flats)")

    aligned = _integerized_rows(q1.directions + e_flat.directions)
    kernels = int_kernel(aligned, n) + int_kernel(_integerized_rows(f1.directions), n)
    kernel = _reduced(_span_meet(kernels, n))
    if len(kernel) < p:
        raise NonGenericConfiguration("aligned screen kernel too small")
    ctx = PsiContext(
        flats=flats, p=p, e_flat=e_flat, j_flat=j_flat, q1=q1, chart=None, q1_chart=FlatChart(q1), fixed_atoms=fixed
    )
    try:
        ctx.projector
    except ValueError:
        raise NonGenericConfiguration("fixed atom span and last flat are not complementary") from None
    kd = len(kernel)
    for _ in range(max_tries):
        coeff_rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(kd)] for _ in range(p)
        ]
        dirs = [tuple(dot(row, col) for col in zip(*kernel)) for row in coeff_rows]
        # p + dim C independent directions: the screen's and the center's
        if len(int_rref(_integerized_rows(dirs + list(center.directions)))[0]) != p + center.dim:
            continue
        base_offsets = [Fraction(rng.randint(-4, 4), 8) for _ in range(n1)]
        u0 = FlatChart(f1).to_ambient(base_offsets)
        try:
            screen = AffineFlat(u0, dirs)
            ctx.chart = ChartFrame(f1, screen, center)
        except ValueError:
            continue
        if int_rref(_integerized_rows(screen.directions + e_flat.directions)) == int_rref(aligned):
            return ctx
    raise NonGenericConfiguration("failed to build an aligned screen")


def hyperplane_map_psi(ctx: PsiContext, w: HyperplaneCoords) -> AffineFlat:
    """psi(W) = aff(E, H_W) meet F_k, a (p-1)-flat inside Q1."""
    h_w = lift_hyperplane(ctx.chart, w)
    s_w = join([ctx.e_flat, h_w])
    if s_w.dim != ctx.j_flat.dim - 1:
        raise NonGenericConfiguration("joined hyperplane has wrong dimension")
    got = meet(s_w, ctx.fk)
    if got is None or got.dim != ctx.p - 1:
        raise NonGenericConfiguration("psi image is not a (p-1)-flat")
    if not ctx.q1.contains_flat(got):
        raise NonGenericConfiguration("psi image leaves the target section")
    return got


def psi_point_map(ctx: PsiContext, u_coords: Sequence) -> Vector:
    """The underlying point map: the screen point with chart coordinate u is
    joined with E and intersected with F_k."""
    coords = tuple(vec(u_coords)) + (Fraction(0),) * (ctx.f1.dim - ctx.p)
    return radial_point(ctx.projector, ctx.chart.to_ambient(coords))


@dataclass
class PsiMatrix:
    m: tuple[Vector, ...]  # the rows of M
    y0: Vector
    lipschitz2: float  # squared Frobenius norm of M, reported only

    def image_hyperplane(self, ctx: PsiContext, w: HyperplaneCoords) -> AffineFlat:
        """{y0 + M u : a . u = b} pushed to ambient coordinates through the
        Q1 chart."""
        a, b = w.a, w.b
        i = next(i for i, x in enumerate(a) if x != 0)
        base_u = [Fraction(0)] * ctx.p
        base_u[i] = b / a[i]
        base = vadd(self.y0, self._apply(base_u))
        dirs = [self._apply(d) for d in int_kernel(_integerized_rows([a]), ctx.p)]
        return ctx.q1_chart.flat_to_ambient(AffineFlat(base, dirs))

    def _apply(self, u: Sequence) -> Vector:
        return tuple(dot(r, vec(u)) for r in self.m)


def psi_matrix(ctx: PsiContext, verify_samples: int = 10, rng=None) -> PsiMatrix:
    """Exact affine form of the point map: y(u) = y0 + M u in Q1-chart
    coordinates, with M invertible; verified by substitution on sample
    hyperplanes when an rng is supplied."""
    y0 = ctx.q1_chart.to_coords(psi_point_map(ctx, zero_vec(ctx.p)))
    probes = [[int(t == i) for t in range(ctx.p)] for i in range(ctx.p)]
    m = tuple(zip(*(vsub(ctx.q1_chart.to_coords(psi_point_map(ctx, e)), y0) for e in probes)))
    if len(int_rref(_integerized_rows(m))[0]) < ctx.p:
        raise NonGenericConfiguration("singular parameter matrix; configuration bug")
    out = PsiMatrix(m=m, y0=y0, lipschitz2=sum(float(x) ** 2 for r in m for x in r))
    if rng is not None:
        for _ in range(verify_samples):
            while True:
                a = [Fraction(rng.randint(-6, 6)) for _ in range(ctx.p)]
                if any(x != 0 for x in a):
                    break
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            w = HyperplaneCoords(tuple(a), b)
            lhs = hyperplane_map_psi(ctx, w)
            rhs = out.image_hyperplane(ctx, w)
            if lhs != rhs:
                raise NonGenericConfiguration(
                    f"parameter map fails substitution at a={a} b={b}"
                )
    return out


@dataclass
class CenterProjectionOutcome:
    center: Vector
    nc: bool
    exceptional: bool
    witness: Optional[str] = None


def exceptional_center_certificate(
    coll: FlatCollection, center: Vector
) -> Optional[str]:
    """Exact certificate that a center is exceptional for NC preservation:
    a partition whose blockwise joins lose enough dimension through the
    center (the projected dimension of a join drops by one exactly when the
    center lies on it)."""
    n = coll.ambient_dim
    assert n is not None
    coll.check_cap()
    for part in iter_partitions(len(coll.flats)):
        total = 0
        members = []
        for block in part:
            joined = coll.subset_join(block)
            on_it = joined.contains_point(center)
            total += joined.dim - (1 if on_it else 0)
            if on_it:
                members.append(block)
        if total <= n - 2:
            return f"partition {part} drops to projected dimension sum {total} via blocks {members}"
    return None


def projected_nc_report(
    coll: FlatCollection,
    centers: Sequence[Sequence],
    screen: AffineFlat,
) -> list[CenterProjectionOutcome]:
    """Project the collection radially from each center onto the hyperplane
    screen and test NC of the image collection inside the screen chart.

    A failure is only acceptable when the center carries an exact
    exceptionality certificate; generic rational centers should give none.
    Only an empty meet with the screen, computed exactly, marks a center
    degenerate; any other error propagates.
    """
    chart = FlatChart(screen)
    out = []
    for c in centers:
        c = vec(c)
        proj = projector(AffineFlat.point(c), screen)
        images = [radial_flat(proj, f) for f in coll.flats]
        if None in images:
            out.append(CenterProjectionOutcome(c, False, True, witness="degenerate: projected flat misses the screen"))
            continue
        nc = FlatCollection([chart.flat_to_coords(g) for g in images]).is_nc()
        cert = None if nc else exceptional_center_certificate(coll, c)
        out.append(CenterProjectionOutcome(c, nc, cert is not None, witness=cert))
    return out


def rational_sqrt_lower(x: Fraction, precision_bits: int = 24) -> Fraction:
    """A rational lower bound for sqrt(x)."""
    x = frac(x)
    if x < 0:
        raise ValueError("negative input")
    if x == 0:
        return Fraction(0)
    scale = 1 << precision_bits
    val = math.isqrt(x.numerator * x.denominator * scale * scale)
    return Fraction(val, x.denominator * scale)


@dataclass
class ProjectedIrreducibilityReport:
    ok: bool
    input_modulus: Fraction
    output_modulus: Fraction
    scale: Fraction
    kept_mass: Fraction
    image_flat_dim: int
    singular_mass: Fraction = Fraction(0)
    witness: Optional[str] = None


def irreducible_projection_check(
    mu: DiscreteMeasure,
    v: AffineFlat,
    q: AffineFlat,
    u: AffineFlat,
    w,
    tau,
    eps,
) -> ProjectedIrreducibilityReport:
    """Join-meet pushforward of a (w, tau)-irreducible piece with the
    q(eps)-neighborhood trimmed away must be (c w, 2 tau)-irreducible in the
    image flat; c is the implementation's conservative rational constant
    derived from the center-screen distance.  All masses and memberships are
    exact; only the scale constant involves a rational square-root lower
    bound."""
    w = frac(w)
    tau = frac(tau)
    eps = frac(eps)
    if eps > w:
        raise ValueError("trimming radius must satisfy eps <= w")
    if tau > Fraction(1, 2):
        raise ValueError("needs tau <= 1/2")
    proj = projector(q, u)
    in_mod = irreducibility_modulus(mu, v, w, support_tolerance=max(w, mu.resolution))
    if in_mod > tau:
        raise ValueError(f"input modulus {in_mod} exceeds tau {tau}")
    trimmed = mu.oracle.atoms_near_flat(q, eps * eps)
    kept = []
    singular = Fraction(0)
    for i, (p, wt) in enumerate(mu.atoms):
        if trimmed >> i & 1:
            continue
        try:
            kept.append((radial_point(proj, p), wt))
        except NonGenericScreen:
            # the ray through the center is parallel to the screen; this
            # singular set lies in a proper subflat and is trimmed like q(eps)
            singular += wt
    kept_mass = sum((wt for _, wt in kept), Fraction(0))
    if kept_mass == 0:
        return ProjectedIrreducibilityReport(
            False, in_mod, Fraction(1), Fraction(0), Fraction(0), -1, singular,
            witness="trimming removed everything",
        )
    image_flat = radial_flat(proj, v)
    if image_flat is None or image_flat.dim < 1:
        return ProjectedIrreducibilityReport(
            False, in_mod, Fraction(1), Fraction(0), kept_mass, -1, singular,
            witness="image flat degenerate",
        )
    pushed = pushforward(DiscreteMeasure(kept, mu.resolution), lambda p: p)
    sep = rational_sqrt_lower(dist2_flats(q, u))
    scale = sep * w / 4
    out_mod = irreducibility_modulus(
        pushed, image_flat, scale, support_tolerance=max(scale, mu.resolution)
    )
    ok = out_mod <= 2 * tau
    return ProjectedIrreducibilityReport(
        ok,
        in_mod,
        out_mod,
        scale,
        kept_mass,
        image_flat.dim,
        singular,
        witness=None if ok else f"output modulus {out_mod} > 2 tau {2 * tau}",
    )
