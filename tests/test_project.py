import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flatbeck import flatcollect, project
from flatbeck.cli import EXIT_INPUT, EXIT_PASS, main
from flatbeck.flats import AffineFlat, FlatChart, join, projector, radial_flat, radial_point
from flatbeck.flatcollect import FlatCollection, PartitionSpaceTooLarge, bell_number
from flatbeck.genscenes import cluster_on_flat, nc_line_collection, psi_scene
from flatbeck.measures import DiscreteMeasure, PlateMassOracle
from flatbeck.project import (
    ChartFrame,
    HyperplaneCoords,
    NonGenericConfiguration,
    NonGenericScreen,
    PsiContext,
    exceptional_center_certificate,
    hyperplane_map_psi,
    irreducible_projection_check,
    lift_hyperplane,
    make_psi_context,
    projected_nc_report,
    psi_matrix,
    psi_point_map,
    pushforward,
    rational_sqrt_lower,
)
from fraction_reference import reference_least_partitions, reference_psi

RES = Fraction(1, 1024)
X_AXIS = AffineFlat([0, 0], [[1, 0]])


def from_point(x, screen=X_AXIS):
    """The projector from the point x onto the screen."""
    return projector(AffineFlat.point(x), screen)


def count_projectors(monkeypatch) -> list:
    """The (centre, screen) of each projector that project builds from now on."""
    built = []

    def counting(q, u):
        built.append((q, u))
        return projector(q, u)

    monkeypatch.setattr(project, "projector", counting)
    return built


class TestRadialToHyperplane:
    """Radial projection from a point onto a hyperplane: radial_point of its
    projector."""

    def test_vertical_ray(self):
        assert radial_point(from_point((0, 2)), (0, 1)) == (0, 0)

    def test_screen_point_fixed(self):
        assert radial_point(from_point((0, 2)), (Fraction(1, 3), 0)) == (
            Fraction(1, 3),
            0,
        )

    def test_parallel_ray(self):
        with pytest.raises(NonGenericScreen):
            radial_point(from_point((0, 1)), (1, 1))

    def test_center_on_screen_rejected(self):
        with pytest.raises(ValueError, match="centre and screen are not complementary"):
            from_point((1, 0))


class TestJoinMeet:
    """aff(v, q) meet z for a centre flat q: radial_point of the projector
    of (q, z)."""

    def test_point_center_matches_radial(self):
        got = radial_point(projector(AffineFlat.point([0, 2]), X_AXIS), (1, 1))
        assert got == (2, 0)

    def test_line_center_in_q3(self):
        q = AffineFlat([0, 0, 1], [[1, 0, 0]])
        z = AffineFlat([0, 0, 0], [[0, 1, 0]])
        v = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        y = radial_point(projector(q, z), v)
        # the image lies on the screen and on the join of v and q
        assert z.contains_point(y)
        assert join([AffineFlat.point(v), q]).contains_point(y)

    def test_center_point_rejected(self):
        q = AffineFlat([0, 0, 1], [[1, 0, 0]])
        z = AffineFlat([0, 0, 0], [[0, 1, 0]])
        with pytest.raises(ValueError):
            radial_point(projector(q, z), (0, 0, 1))

    @pytest.mark.parametrize(
        "screen",
        [
            AffineFlat([0, Fraction(1, 16), 5], [[1, 0, 0]]),  # meets the center
            AffineFlat([0, Fraction(-3, 4), 0], [[0, 0, 1]]),  # shares its direction
        ],
        ids=["meets", "shares-direction"],
    )
    def test_non_complementary_pair_is_an_input_error(self, screen):
        """Refused as a ValueError, never NonGenericScreen, so no such pair
        reads as a parallel ray or an exceptional center."""
        q = AffineFlat([Fraction(1, 16), Fraction(1, 16), 0], [[0, 0, 1]])
        with pytest.raises(ValueError, match="centre and screen are not complementary") as info:
            projector(q, screen)
        assert not isinstance(info.value, NonGenericScreen)


def q3_chart():
    host = AffineFlat.full_space(3)
    screen = AffineFlat([0, 0, 0], [[1, 0, 0]])  # u axis
    center = AffineFlat([0, 1, 0], [[0, 0, 1]])  # t = 1 fiber base with w dirs
    return ChartFrame(host, screen, center)


PLANE = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])


def line_through(base, direction):
    return AffineFlat(base, [direction])


class TestMakePsiContextRefusals:
    """Each refusal of make_psi_context, on a hand-built configuration that
    passes every check before it: PLANE is z = 0 in Q^3, and in Q^4
    the flats are spanned by unit vectors."""

    E = [[int(i == j) for j in range(4)] for i in range(4)]
    CASES = {
        "first flat too small": (
            [line_through([0, 0, 0], [1, 0, 0]), line_through([0, 0, 1], [0, 1, 0])], {}, ValueError,
            r"first flat must have dimension at least p \+ 1",
        ),
        "fixed atom count": (
            [PLANE, line_through([0, 0, 1], [1, 0, 0]), line_through([1, 1, 0], [0, 0, 1])], {}, ValueError,
            "need exactly dim F_1 - p fixed atoms on the first flat",
        ),
        "dependent first-flat atoms": (
            [AffineFlat([0] * 4, E[:3]), AffineFlat([0, 0, 0, 1], E[:1]), AffineFlat([1, 1, 0, 1], E[3:])],
            {(0, 1): (0, 0, 0, 0), (0, 2): (0, 0, 0, 0)}, NonGenericConfiguration,
            "fixed first-flat atoms are affinely dependent",
        ),
        "fixed atoms span": (
            [PLANE, line_through([0, 0, 1], [1, 0, 0]), line_through([1, 1, 0], [0, 0, 1])],
            {(0, 1): (0, 0, 0), (1, 0): (0, 0, 0)}, NonGenericConfiguration,
            "fixed atoms span the wrong dimension",
        ),
        "joint flat": (
            [PLANE, line_through([0, 0, 1], [1, 0, 0]), line_through([1, 1, 0], [0, 0, 1])],
            {(0, 1): (0, 0, 0), (1, 0): (1, 0, 0)}, NonGenericConfiguration,
            "joint flat has unexpected dimension",
        ),
        "target section": (
            [AffineFlat([0] * 4, E[:2]), AffineFlat([0, 0, 1, 0], E[3:]), AffineFlat([0] * 4, [E[0], E[2]])],
            {(0, 1): (0, 0, 0, 0), (1, 0): (0, 0, 1, 0)}, NonGenericConfiguration,
            "target section is not a p-flat",
        ),
        "rank certificate": (
            [AffineFlat([0] * 4, E[:2]), AffineFlat([0, 0, 1, 0], E[3:]), AffineFlat([0] * 4, E[:1])],
            {(0, 1): (0, 0, 0, 0), (1, 0): (0, 0, 1, 0)}, NonGenericConfiguration,
            "rank certificate failed",
        ),
        "screen kernel": (
            [PLANE, line_through([0, 0, 1], [1, 0, 0]), line_through([1, 1, 0], [0, 0, 1])],
            {(0, 1): (0, 0, 0), (1, 0): (0, 0, 1)}, NonGenericConfiguration,
            "aligned screen kernel too small",
        ),
        # E, the z axis, meets the last flat at (0, 0, 2)
        "complementary pair": (
            [PLANE, line_through([0, 0, 1], [1, 0, 0]), line_through([0, 0, 2], [1, 1, 0])],
            {(0, 1): (0, 0, 0), (1, 0): (0, 0, 1)}, NonGenericConfiguration,
            "fixed atom span and last flat are not complementary",
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_refusal(self, name):
        """Each refusal comes before the first screen is drawn."""
        flats, fixed, error, message = self.CASES[name]
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(error, match=message):
            make_psi_context(flats, fixed, 1, rng)
        assert rng.getstate() == state

    def test_no_screen_within_the_tries(self, monkeypatch):
        flats = [PLANE, line_through([0, 0, 1], [1, 0, 0]), line_through([1, 1, 0], [1, 0, 1])]
        fixed = {(0, 1): (0, 0, 0), (1, 0): (0, 0, 1)}
        with monkeypatch.context() as m:
            m.setattr(project, "SCREEN_TRIES", 0)
            with pytest.raises(NonGenericConfiguration, match="failed to build an aligned screen"):
                make_psi_context(flats, fixed, 1, random.Random(1))
        ctx = make_psi_context(flats, fixed, 1, random.Random(1))
        assert ctx.q1 == flats[2]

    def test_one_projector_per_context(self, monkeypatch):
        """The projector of (E, F_k) is built once, before the screens are
        drawn, and psi_matrix reads the context's own."""
        flats = [PLANE, line_through([0, 0, 1], [1, 0, 0]), line_through([1, 1, 0], [1, 0, 1])]
        built = count_projectors(monkeypatch)
        ctx = make_psi_context(flats, {(0, 1): (0, 0, 0), (1, 0): (0, 0, 1)}, 1, random.Random(1))
        assert built == [(ctx.e_flat, ctx.fk)]
        psi_matrix(ctx, verify_samples=2, rng=random.Random(0))
        assert len(built) == 1


class TestChartFrame:
    def test_is_the_chart_of_the_host(self, monkeypatch):
        """The chart of screen, transverse direction and centre directions,
        built with no elimination of its own."""

        def refuse(*args):
            raise AssertionError("ChartFrame ran int_rref")

        monkeypatch.setattr(project, "int_rref", refuse)
        cf = q3_chart()
        assert cf.flat == cf.host
        assert cf.to_coords((3, -1, 5)) == (3, -1, 5)

    @pytest.mark.parametrize(
        "screen, center, message",
        [
            (AffineFlat([0, 0, 1], [[1, 0, 0]]), AffineFlat([0, 1, 0], [[0, 0, 1]]), "must lie inside the host flat"),
            (AffineFlat.point([0, 0, 0]), AffineFlat.point([0, 1, 0]), "do not frame the host"),
            (AffineFlat([0, 0, 0], [[1, 0, 0]]), AffineFlat.point([1, 0, 0]), "directions are linearly dependent"),
        ],
        ids=["outside", "too-few-columns", "dependent-columns"],
    )
    def test_refusals(self, screen, center, message):
        """In the plane z = 0: a screen off it, a point screen and a point
        centre that give one column of two, and a centre on the screen
        line."""
        with pytest.raises(ValueError, match=message):
            ChartFrame(PLANE, screen, center)


class TestPushforward:
    def test_identity_keeps_measure(self):
        mu = DiscreteMeasure.uniform([(0, 0), (1, 0), (0, 1)], RES)
        out = pushforward(mu, lambda p: p)
        assert out.atoms == mu.atoms

    def test_constant_map_merges_everything(self):
        mu = DiscreteMeasure.uniform([(0, 0), (1, 0), (0, 1)], RES)
        out = pushforward(mu, lambda p: (0, 0))
        assert len(out) == 1 and out.total_mass == mu.total_mass

    def test_radial_map_preserves_mass(self):
        mu = DiscreteMeasure.uniform([(0, 1), (1, 1), (2, 1)], RES)
        proj = from_point((0, 2))
        out = pushforward(mu, lambda p: radial_point(proj, p))
        assert out.total_mass == mu.total_mass
        assert len(out) <= 3


class TestLiftHyperplane:
    def test_vertical_case(self):
        cf = q3_chart()
        h = lift_hyperplane(cf, HyperplaneCoords((1,), 0))
        # u = 0 plane: contains the center line and the w axis
        assert h.contains_flat(cf.center)
        assert h.contains_point(cf.to_ambient((0, 0, 5)))
        assert not h.contains_point(cf.to_ambient((1, 0, 0)))

    def test_slanted_case_contains_center(self):
        cf = q3_chart()
        h = lift_hyperplane(cf, HyperplaneCoords((1,), 1))
        # u + t = 1 in the chart
        assert h.contains_point(cf.to_ambient((1, 0, 0)))
        assert h.contains_point(cf.to_ambient((0, 1, 2)))
        assert h.contains_flat(cf.center)

    def test_projection_recovers_screen_hyperplane(self):
        cf = q3_chart()
        hc = HyperplaneCoords((2,), Fraction(3, 2))
        h = lift_hyperplane(cf, hc)
        # any chart point of H off the center fiber projects into W
        for coords in [(Fraction(3, 4), 0, 0), (Fraction(3, 8), Fraction(1, 2), 1)]:
            pt = cf.to_ambient(coords)
            assert h.contains_point(pt)
            u, t, _ = cf.to_coords(pt)
            assert hc.a[0] * u / (1 - t) == hc.b


class TestPsi:
    def test_scene_draw_retries_a_non_generic_configuration(self, monkeypatch):
        """Seed 44 of the (4, (2, 2, 1), 1) profile draws a non-generic
        configuration first; psi_scene draws again, and returns the second
        context.  This pins the retry that hypothesis's seeds reach only
        now and then."""
        outcomes = []
        make = project.make_psi_context

        def recorded(*args):
            try:
                ctx = make(*args)
            except NonGenericConfiguration:
                outcomes.append("non-generic")
                raise
            outcomes.append(ctx)
            return ctx

        monkeypatch.setattr(project, "make_psi_context", recorded)
        ctx = psi_scene(random.Random(44), n=4, dims=(2, 2, 1), p=1)
        assert outcomes == ["non-generic", ctx]
        q1, _, _ = reference_psi(ctx)
        assert (ctx.q1.basepoint, ctx.q1.directions) == (q1.basepoint, q1.directions)

    @pytest.mark.parametrize(
        "dims, p, message",
        [((2, 1, 1), 2, "dimension surplus does not match p"), ((1, 1, 2), 1, "infeasible dimension profile")],
        ids=["surplus", "profile"],
    )
    def test_scene_profile_refused(self, dims, p, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            psi_scene(random.Random(1), n=3, dims=dims, p=p)

    def test_cluster_on_a_point_gives_up(self):
        # a point flat holds one point, so a second distinct one never comes
        with pytest.raises(RuntimeError, match="^failed to sample distinct cluster points$"):
            cluster_on_flat(random.Random(1), AffineFlat.point([1, 2, 3]), 2)

    def test_p1_scene_dimensions(self):
        rng = random.Random(11)
        ctx = psi_scene(rng, n=3, dims=(2, 1, 1), p=1)
        assert ctx.q1.dim == 1
        w = HyperplaneCoords((1,), Fraction(1, 4))
        img = hyperplane_map_psi(ctx, w)
        assert img.dim == 0
        assert ctx.q1.contains_flat(img)

    def test_p1_support_tuple_identity(self):
        # psi of the hyperplane through the projected atom equals the span
        # of the joined-and-met atom itself
        rng = random.Random(12)
        ctx = psi_scene(rng, n=3, dims=(2, 1, 1), p=1)
        chart = ctx.chart
        for raw in [(Fraction(1, 8), Fraction(3, 16)), (Fraction(-1, 4), Fraction(1, 8))]:
            x = FlatChart(ctx.f1).to_ambient(raw)
            u, t = chart.to_coords(x)
            w = HyperplaneCoords((Fraction(1),), u / (1 - t))
            lhs = hyperplane_map_psi(ctx, w)
            y = radial_point(projector(ctx.e_flat, ctx.fk), x)
            assert lhs == AffineFlat.point(y)

    def test_parameter_map_exact_p1(self):
        rng = random.Random(13)
        ctx = psi_scene(rng, n=3, dims=(2, 1, 1), p=1)
        pm = psi_matrix(ctx, verify_samples=10, rng=rng)
        assert len(pm.m) == 1 and pm.lipschitz2 > 0

    def test_parameter_map_exact_p2(self):
        rng = random.Random(14)
        ctx = psi_scene(rng, n=4, dims=(3, 1, 2), p=2)
        w = HyperplaneCoords((1, 2), Fraction(1, 3))
        img = hyperplane_map_psi(ctx, w)
        assert img.dim == 1
        pm = psi_matrix(ctx, verify_samples=6, rng=rng)
        assert len(pm.m) == 2

    def test_point_map_is_affine(self):
        rng = random.Random(15)
        ctx = psi_scene(rng, n=3, dims=(2, 1, 1), p=1)
        y0 = psi_point_map(ctx, [Fraction(0)])
        y1 = psi_point_map(ctx, [Fraction(1)])
        y5 = psi_point_map(ctx, [Fraction(5)])
        predicted = tuple(a + 5 * (b - a) for a, b in zip(y0, y1))
        assert predicted == y5

    def test_section_flats_have_expected_dimensions(self):
        # the full (k-1)-block span meets the last flat in a (p-1)-flat and
        # the j-augmented spans meet it in p-flats
        rng = random.Random(16)
        ctx = psi_scene(rng, n=3, dims=(2, 1, 1), p=1)
        free = FlatChart(ctx.f1).to_ambient((Fraction(3, 16), Fraction(5, 32)))
        span = join(
            [AffineFlat.point(free)]
            + [AffineFlat.point(p) for p in ctx.fixed_atoms.values()]
        )
        from flatbeck.flats import meet

        q = meet(span, ctx.fk)
        assert q is not None and q.dim == ctx.p - 1
        assert ctx.q1.dim == ctx.p
        # the other augmented section: all first-flat atoms joined with the
        # middle flat, met with the last flat, is a p-flat as well
        first_flat_atoms = [AffineFlat.point(free)] + [
            AffineFlat.point(p) for (j, _), p in sorted(ctx.fixed_atoms.items()) if j == 0
        ]
        q2 = meet(join(first_flat_atoms + [ctx.flats[1]]), ctx.fk)
        assert q2 is not None and q2.dim == ctx.p

    def _identity_context(self):
        # U a translate of Q1's direction, E along the z axis: the point map
        # becomes the identity in matching charts
        f1 = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
        f2 = AffineFlat([0, 1, 1], [[0, 1, 1]])
        f3 = AffineFlat([0, 0, 1], [[1, 0, 0]])
        fixed = {(0, 1): (0, 1, 0), (1, 0): (0, 1, 1)}
        e_flat = AffineFlat.from_points(list(fixed.values()))
        j_flat = AffineFlat.full_space(3)
        q1 = f3
        screen = AffineFlat([0, 0, 0], [[1, 0, 0]])
        center = AffineFlat.point([0, 1, 0])
        return PsiContext(
            flats=[f1, f2, f3],
            p=1,
            e_flat=e_flat,
            j_flat=j_flat,
            q1=q1,
            chart=ChartFrame(f1, screen, center),
            q1_chart=FlatChart(q1),
            fixed_atoms={k: tuple(Fraction(x) for x in v) for k, v in fixed.items()},
        )

    def test_identity_configuration_gives_identity_matrix(self):
        ctx = self._identity_context()
        pm = psi_matrix(ctx, verify_samples=5, rng=random.Random(0))
        assert pm.m == ((1,),)
        assert pm.y0 == (Fraction(0),)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(3, (2, 1, 1), 1), (4, (3, 1, 2), 2), (4, (2, 2, 1), 1), (4, (2, 1, 2), 1)]),
        st.integers(0, 2**32),
    )
    def test_parameter_map_matches_the_fraction_reference(self, profile, seed):
        """Q1, its directions and (M, y0) against the Fraction joins, meets
        and solves of the point map, on seeded scenes of four dimension
        profiles."""
        n, dims, p = profile
        rng = random.Random(seed)
        ctx = psi_scene(rng, n=n, dims=dims, p=p)
        q1, m, y0 = reference_psi(ctx)
        assert (ctx.q1.basepoint, ctx.q1.directions) == (q1.basepoint, q1.directions)
        pm = psi_matrix(ctx, verify_samples=2, rng=rng)
        assert (pm.m, pm.y0) == (m, y0)

    @pytest.mark.parametrize(
        "screen, center, w, message",
        [
            # the centre (5, 5, 0) is off E, and H_W, the line through it
            # and the origin, misses E: aff(E, H_W) is all of Q^3
            (
                AffineFlat([0, 0, 0], [[1, 0, 0]]), AffineFlat.point([5, 5, 0]), HyperplaneCoords((1,), 0),
                "joined hyperplane has wrong dimension",
            ),
            # H_W is the line y = 1 of z = 0: aff(E, H_W), the plane y = 1,
            # misses F_3
            (
                AffineFlat([0, 0, 0], [[1, 1, 0]]), AffineFlat.point([0, 1, 0]), HyperplaneCoords((1,), 1),
                r"psi image is not a \(p-1\)-flat",
            ),
        ],
        ids=["centre-off-E", "parallel-image"],
    )
    def test_chart_off_the_configuration_refused(self, screen, center, w, message):
        ctx = self._identity_context()
        ctx.chart = ChartFrame(ctx.f1, screen, center)
        with pytest.raises(NonGenericConfiguration, match=message):
            hyperplane_map_psi(ctx, w)

    def test_image_off_the_target_section_refused(self):
        """A context whose target section is not aff(E, F_1) meet F_3."""
        ctx = self._identity_context()
        ctx.q1 = AffineFlat([0, 1, 1], [[1, 0, 0]])
        with pytest.raises(NonGenericConfiguration, match="psi image leaves the target section"):
            hyperplane_map_psi(ctx, HyperplaneCoords((1,), 0))

    def test_screen_through_e_gives_a_singular_matrix(self):
        """The screen x = z = 0 crosses E at (0, 1, 0): its points 0 and
        (0, 2, 0) both span with E the plane x = 0, one image point."""
        ctx = self._identity_context()
        ctx.chart = ChartFrame(ctx.f1, AffineFlat([0, 0, 0], [[0, 2, 0]]), AffineFlat.point([1, 0, 0]))
        with pytest.raises(NonGenericConfiguration, match="singular parameter matrix"):
            psi_matrix(ctx)

    def test_nonaligned_screen_rejected(self):
        # replacing the aligned screen with a generic one breaks the exact
        # affinity, which psi_matrix must detect rather than approximate
        ctx = self._identity_context()
        bad_screen = AffineFlat(
            (Fraction(0), Fraction(1, 8), Fraction(0)),
            [(Fraction(1), Fraction(1, 3), Fraction(0))],
        )
        ctx.chart = ChartFrame(ctx.f1, bad_screen, ctx.chart.center)
        with pytest.raises(NonGenericConfiguration):
            psi_matrix(ctx, verify_samples=10, rng=random.Random(1))


class TestProjectedNC:
    def test_generic_centers_preserve_nc(self):
        rng = random.Random(21)
        coll = nc_line_collection(rng, 3, 3)
        screen = AffineFlat([0, 0, -2], [[1, 0, 0], [0, 1, 0]])
        centers = []
        while len(centers) < 10:
            c = tuple(Fraction(rng.randint(-32, 32), 16) for _ in range(3))
            if all(not f.contains_point(c) for f in coll.flats) and not screen.contains_point(c):
                centers.append(c)
        outcomes = projected_nc_report(coll, centers, screen)
        bad = [o for o in outcomes if not o.nc and not o.exceptional]
        assert bad == []
        assert sum(1 for o in outcomes if o.nc) == len(centers)

    def test_one_projector_per_center(self, monkeypatch, tmp_path):
        """The README demo's 25 centres build 25 projectors, one for all
        three lines of each."""
        built = count_projectors(monkeypatch)
        scene = Path(__file__).resolve().parent.parent / "scenes" / "project-nc-lines.json"
        assert main(["project", "--scene", str(scene), "--centers", "25", "--out", str(tmp_path)]) == EXIT_PASS
        assert len(built) == 25

    def test_exceptional_center_is_certified(self):
        # two crossing lines: their joint point is exceptional (projecting
        # from it collapses both lines through one point)
        l1 = AffineFlat([0, 0, 0], [[1, 0, 0]])
        l2 = AffineFlat([0, 0, 0], [[0, 1, 0]])
        l3 = AffineFlat([0, 1, 1], [[1, 0, 1]])
        from flatbeck.flatcollect import FlatCollection

        coll = FlatCollection([l1, l2, l3])
        assert coll.is_nc()
        cert = exceptional_center_certificate(coll, (0, 0, 0))
        assert cert is not None

    def test_projection_dimension_drop_on_flat(self):
        line = AffineFlat([0, 0, 1], [[1, 0, 1]])
        screen = AffineFlat([0, 0, -1], [[1, 0, 0], [0, 1, 0]])
        on_center = (Fraction(1, 2), 0, Fraction(3, 2))
        img = radial_flat(from_point(on_center, screen), line)
        assert img.dim == 0  # center on the flat drops its dimension
        off_center = (0, 1, 0)
        img2 = radial_flat(from_point(off_center, screen), line)
        assert img2.dim == 1


    def test_degenerate_center_reads_exceptional(self):
        # the center and the first line span the plane z = 1, which misses
        # the screen z = 0
        coll = FlatCollection([
            AffineFlat([0, 0, 1], [[1, 0, 0]]),
            AffineFlat([0, 1, 0], [[0, 0, 1]]),
            AffineFlat([1, 0, 0], [[0, 1, 1]]),
        ])
        screen = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
        (out,) = projected_nc_report(coll, [(0, 5, 1)], screen)
        assert (out.nc, out.exceptional) == (False, True)
        assert out.witness == "degenerate: projected flat misses the screen"

    def test_failed_chart_is_not_a_pass(self, monkeypatch, tmp_path):
        """A ValueError from the screen chart is an error, not an
        exceptional center: the report raises and the command exits 2."""

        def broken(self, g):
            raise ValueError("subflat leaves the chart flat")

        monkeypatch.setattr(project.FlatChart, "flat_to_coords", broken)
        coll = FlatCollection([AffineFlat([0, 0, 0], [[1, 0, 0]]), AffineFlat([0, 1, 0], [[0, 0, 1]])])
        screen = AffineFlat([0, 0, -2], [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="subflat leaves the chart flat"):
            projected_nc_report(coll, [(Fraction(1, 3), Fraction(1, 5), 7)], screen)
        scene = Path(__file__).resolve().parent.parent / "scenes" / "project-nc-lines.json"
        code = main(["project", "--scene", str(scene), "--centers", "5", "--out", str(tmp_path)])
        assert code == EXIT_INPUT


class TestProjectedNcCertificate:
    """Three NC lines of Q^3, two of them through the origin."""

    LINES = [
        AffineFlat([0, 0, 0], [[1, 0, 0]]),
        AffineFlat([0, 0, 0], [[0, 1, 1]]),
        AffineFlat([0, 1, 3], [[1, 1, 0]]),
    ]

    def test_failure_at_an_exceptional_centre_is_certified(self):
        coll = FlatCollection(self.LINES)
        assert coll.is_nc()
        screen = AffineFlat([5, 0, 0], [[1, -1, 0], [1, 0, -1]])
        (out,) = projected_nc_report(coll, [(0, 0, 0)], screen)
        assert (out.nc, out.exceptional) == (False, True)
        assert out.witness.startswith("partition ((0,), (1,), (2,)) drops to projected dimension sum 1")

    def test_generic_centre_has_no_certificate(self):
        centre = (Fraction(1, 3), Fraction(2, 7), Fraction(-1, 5))
        assert exceptional_center_certificate(FlatCollection(self.LINES), centre) is None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3).filter(any), min_size=2, max_size=6))
    def test_verdict_matches_the_bell_sweep(self, dirs):
        """Lines through the origin and one line off it, centre by centre:
        the origin, a point of the first line, a point of the first two
        lines' plane, a point of the off line and a generic point.  There
        is a certificate exactly when some partition's projected dimension
        sum is at most n - 2 = 1, and it names the least such partition of
        the least sum."""
        coll = FlatCollection([AffineFlat([0, 0, 0], [d]) for d in dirs] + [self.LINES[2]])
        (a, b, c), (x, y, z) = dirs[:2]
        centres = [
            (0, 0, 0), (a, b, c), (a + x, b + y, c + z), (1, 2, 3), (Fraction(1, 3), Fraction(2, 7), Fraction(-1, 5))
        ]
        for centre in centres:

            def projected_dim(block):
                joined = coll.subset_join(block)
                return joined.dim - joined.contains_point(centre)

            least, minimizers = reference_least_partitions(len(coll.flats), projected_dim)
            cert = exceptional_center_certificate(coll, centre)
            assert (cert is not None) == (least <= 1)
            if cert is not None:
                assert cert.startswith(f"partition {minimizers[0]} drops to projected dimension sum {least} via")

    def test_one_join_per_index_subset(self, monkeypatch):
        """The search over five skew lines reads 31 blocks in (3^5 - 1) / 2
        = 121 (subset, block) steps, and joins each of the 31 index subsets
        once."""
        joins = []

        def counting(fs):
            joins.append(len(fs))
            return join(fs)

        for module in (flatcollect, project):
            monkeypatch.setattr(module, "join", counting)
        centre = (Fraction(1, 3), Fraction(2, 7), Fraction(-1, 5))
        assert exceptional_center_certificate(FlatCollection(skew_lines(5)), centre) is None
        assert len(joins) == 31


def plane_case():
    """(mu, v, q, u, w): a grid measure on the plane v: z = 0 in Q^3, a
    center line q crossing v at one point and a screen line u."""
    v = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
    grid = [
        (Fraction(i, 8), Fraction(j, 8), Fraction(0))
        for i in range(-4, 5)
        for j in range(-4, 5)
    ]
    mu = DiscreteMeasure.uniform(grid, RES)
    # center crosses the plane off-grid so the parallel singular line
    # (y = 1/16) carries no atoms; eps = 1/8 trims the four nearest atoms
    q = AffineFlat([Fraction(1, 16), Fraction(1, 16), 0], [[0, 0, 1]])
    u = AffineFlat([0, Fraction(-3, 4), 0], [[1, 0, 0]])
    return mu, v, q, u, Fraction(1, 8)


class TestIrreducibleProjection:
    def test_plane_measure_projects_irreducible(self):
        # the center line crosses the plane at one point, so trimming
        # around it is exercised
        mu, v, q, u, w = plane_case()
        report = irreducible_projection_check(
            mu, v, q, u, w=w, tau=Fraction(2, 5), eps=w
        )
        assert report.ok, report.witness
        assert report.kept_mass < mu.total_mass  # trimming removed something
        assert report.singular_mass == 0
        assert report.image_flat_dim == 1

    @pytest.mark.parametrize(
        "tau, eps, message",
        [
            (Fraction(2, 5), Fraction(1, 4), r"^trimming radius must satisfy eps <= w$"),
            (Fraction(3, 5), Fraction(1, 8), r"^needs tau <= 1/2$"),
            (Fraction(3, 10), Fraction(1, 8), r"^input modulus 1/3 exceeds tau 3/10$"),
        ],
        ids=["eps-above-w", "tau-above-half", "modulus-above-tau"],
    )
    def test_arguments_refused(self, tau, eps, message):
        """w = 1/8 on the plane case, whose input modulus is 1/3."""
        mu, v, q, u, w = plane_case()
        with pytest.raises(ValueError, match=message):
            irreducible_projection_check(mu, v, q, u, w=w, tau=tau, eps=eps)

    def test_two_plate_oracles_per_call(self, monkeypatch):
        """The input measure's oracle serves the input modulus and the
        q(eps) trim, and the pushed measure gets one: two integerizations
        per call, where building an oracle per use took three."""
        built = []
        init = PlateMassOracle.__init__

        def counting(self, mu):
            built.append(mu)
            init(self, mu)

        monkeypatch.setattr(PlateMassOracle, "__init__", counting)
        mu, v, q, u, w = plane_case()
        assert irreducible_projection_check(mu, v, q, u, w=w, tau=Fraction(2, 5), eps=w).ok
        assert len(built) == 2 and built[0] is mu and built[1] is not mu

    def test_atom_on_a_singular_ray_is_trimmed(self):
        """An atom at (1/2, 1/16, 0) spans with q a plane parallel to u: one
        of 82 atoms is singular, and the check still passes."""
        mu, v, q, u, w = plane_case()
        mu = DiscreteMeasure.uniform([p for p, _ in mu.atoms] + [(Fraction(1, 2), Fraction(1, 16), 0)], RES)
        report = irreducible_projection_check(mu, v, q, u, w=w, tau=Fraction(2, 5), eps=w)
        assert report.ok, report.witness
        assert report.singular_mass == Fraction(1, 82)

    def test_everything_trimmed_is_a_degenerate_report(self):
        """In the plane y = 1/16 with q the vertical line there, every atom
        is trimmed or spans with q the plane itself, which misses u."""
        _, _, _, u, w = plane_case()
        v = AffineFlat([0, Fraction(1, 16), 0], [[1, 0, 0], [0, 0, 1]])
        grid = [(Fraction(i, 8), Fraction(1, 16), Fraction(j, 8)) for i in range(-4, 5) for j in range(-4, 5)]
        q = AffineFlat([Fraction(1, 16), Fraction(1, 16), 0], [[0, 0, 1]])
        report = irreducible_projection_check(DiscreteMeasure.uniform(grid, RES), v, q, u, w=w, tau=Fraction(2, 5), eps=w)
        assert not report.ok
        assert (report.witness, report.kept_mass, report.image_flat_dim) == ("trimming removed everything", 0, -1)

    def test_point_image_flat_is_a_degenerate_report(self):
        """q inside v and u vertical: aff(v, q) = v meets u in one point."""
        mu, v, _, _, w = plane_case()
        q = AffineFlat([Fraction(1, 16), Fraction(1, 16), 0], [[1, 0, 0]])
        u = AffineFlat([0, Fraction(-3, 4), 0], [[0, 0, 1]])
        report = irreducible_projection_check(mu, v, q, u, w=w, tau=Fraction(2, 5), eps=w)
        assert not report.ok
        assert (report.witness, report.image_flat_dim) == ("image flat degenerate", -1)
        assert report.kept_mass > 0

    def test_sqrt_lower_bound(self):
        for x in [Fraction(2), Fraction(9), Fraction(1, 4), Fraction(7, 3)]:
            r = rational_sqrt_lower(x)
            assert r * r <= x
            assert (r + Fraction(1, 1000)) ** 2 > x

    def test_sqrt_lower_bound_at_zero_and_below(self):
        assert rational_sqrt_lower(Fraction(0)) == 0
        with pytest.raises(ValueError, match="negative input"):
            rational_sqrt_lower(Fraction(-1, 4))


def skew_lines(count):
    return [AffineFlat([i, 0, 0], [[0, 1, i + 1]]) for i in range(count)]


class TestPartitionCap:
    """A collection over its partition cap is refused before any walk; the
    refusal is a budget error, which no input-error handler may swallow."""

    def test_cap_error_is_not_an_input_error(self):
        assert issubclass(PartitionSpaceTooLarge, RuntimeError)
        assert not issubclass(PartitionSpaceTooLarge, ValueError)

    def test_exceptional_certificate_checks_the_cap(self, monkeypatch):
        monkeypatch.setattr(flatcollect, "PARTITION_CAP", 4)
        coll = FlatCollection(skew_lines(5))
        with pytest.raises(PartitionSpaceTooLarge, match=f"Bell\\(5\\) = {bell_number(5)} "):
            exceptional_center_certificate(coll, (0, 0, 1))

    def test_projected_nc_refuses_thirteen_lines(self):
        coll = FlatCollection(skew_lines(13))
        screen = AffineFlat([0, 0, -5], [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(PartitionSpaceTooLarge, match=str(bell_number(13))):
            projected_nc_report(coll, [(Fraction(1, 3), Fraction(1, 5), 7)], screen)


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: HyperplaneCoords((0, 0), 1), "zero normal"),
            (
                lambda: lift_hyperplane(q3_chart(), HyperplaneCoords((1, 2), 0)),
                "normal length differs from screen dimension",
            ),
        ],
        ids=["zero-normal", "normal-length"],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
