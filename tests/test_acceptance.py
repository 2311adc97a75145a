"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from flatbeck.beck import PointConfig, dichotomy_report, enumerate_spanned_flats
from flatbeck.decompose import decompose, verify_decomposition
from flatbeck.flats import AffineFlat, wedge_angle_sin2
from flatbeck.genscenes import (
    generic_points,
    nc_line_collection,
    parallel_segments,
    psi_scene,
    random_flat,
    random_minimal_frame,
    square_grid,
)
from flatbeck.measures import DiscreteMeasure, dyadic_scales, frostman_fit
from flatbeck.project import (
    hyperplane_map_psi,
    irreducible_projection_check,
    projected_nc_report,
    psi_matrix,
    HyperplaneCoords,
)
from flatbeck.stability import StableFrame, minimal_rank_report
from flatbeck.thin import (
    ThinGraph,
    product_graph,
    pushforward_frostman,
    thin_implies_nc,
    tubes_to_planes,
    verify_thin_planes,
    verify_thin_tubes,
)

RES = Fraction(1, 1024)


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion:2d} [{status}] {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class TestCriterion1RankTables:
    def test_rank_tables_on_seeded_minimal_frames(self):
        t0 = time.time()
        rng = random.Random(4161)
        frames = 50
        violations = []
        for i in range(frames):
            frame, cert = random_minimal_frame(rng, 4, (2, 1, 1), atoms_per_measure=2)
            table, viol = minimal_rank_report(frame)
            if viol:
                violations.append((i, viol))
        elapsed = time.time() - t0
        report(
            1,
            not violations and elapsed < 30,
            f"{frames} certified frames in Q^4 (dims 2+1+1), zero rank-rule "
            f"violations, {elapsed:.1f}s",
        )


class TestCriterion2PsiParameterMap:
    def test_psi_matrix_identity(self):
        rng = random.Random(271)
        configs = 25
        failures = 0
        for _ in range(configs):
            ctx = psi_scene(rng, n=3, dims=(2, 1, 1), p=1)
            try:
                pm = psi_matrix(ctx, verify_samples=10, rng=rng)
            except ValueError:
                failures += 1
                continue
            # independent double check on two more hyperplanes by direct comparison
            for _ in range(2):
                a = Fraction(rng.randint(1, 5))
                b = Fraction(rng.randint(-5, 5), 2)
                w = HyperplaneCoords((a,), b)
                if hyperplane_map_psi(ctx, w) != pm.image_hyperplane(ctx, w):
                    failures += 1
                    break
        report(
            2,
            failures == 0,
            f"{configs} seeded aligned configurations (k=3, p=1, n=3): psi(W(a,b)) "
            f"matches the (M, y0) parameter map exactly on 10 random hyperplanes each",
        )


class TestCriterion3DiscreteBeck:
    def test_counts_and_concentration(self):
        t0 = time.time()
        rng = random.Random(3030)
        pts = generic_points(rng, 3, 30)
        generic_count = len(enumerate_spanned_flats(PointConfig(pts), 2))

        coplanar = [
            (Fraction(i, 8), Fraction(j, 8), Fraction(0))
            for i in range(6)
            for j in range(5)
        ]
        coplanar_count = len(enumerate_spanned_flats(PointConfig(coplanar), 2))

        l1 = [(Fraction(i, 16), Fraction(0), Fraction(0)) for i in range(15)]
        l2 = [(Fraction(0), Fraction(1), Fraction(i, 16)) for i in range(15)]
        rep = dichotomy_report(PointConfig(l1 + l2), epsilon=0.1)
        elapsed = time.time() - t0
        ok = (
            generic_count == math.comb(30, 3) == 4060
            and coplanar_count == 1
            and rep.concentrated
            and sum(f.dim for f in rep.family) <= 2
            and elapsed < 10
        )
        report(
            3,
            ok,
            f"30 generic points: |P^2| = {generic_count} (= C(30,3)); coplanar: "
            f"{coplanar_count}; skew lines hit the concentration branch; {elapsed:.1f}s",
        )


class TestCriterion4Decomposition:
    def skew_scene(self):
        def weighted(points, total):
            w = Fraction(total) / len(points)
            return [(p, w) for p in points]

        line1 = [(Fraction(i, 8), Fraction(0), Fraction(0)) for i in range(8)]
        line2 = [(Fraction(0), Fraction(1), Fraction(i, 8)) for i in range(8)]
        cloud = [
            (Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)),
            (Fraction(2, 3), Fraction(1, 3), Fraction(3, 5)),
            (Fraction(1, 5), Fraction(2, 3), Fraction(4, 5)),
            (Fraction(3, 5), Fraction(1, 7), Fraction(2, 7)),
        ]
        atoms = (
            weighted(line1, Fraction(9, 20))
            + weighted(line2, Fraction(9, 20))
            + weighted(cloud, Fraction(1, 10))
        )
        return DiscreteMeasure(atoms, RES)

    def plateau_scene(self):
        def weighted(points, total):
            w = Fraction(total) / len(points)
            return [(p, w) for p in points]

        l1 = [(Fraction(i, 8), Fraction(0), Fraction(0)) for i in range(1, 8)]
        l2 = [(Fraction(0), Fraction(i, 8), Fraction(0)) for i in range(1, 7)]
        l3 = [
            (Fraction(i, 8), Fraction(i, 8) + Fraction(1, 2), Fraction(0))
            for i in range(1, 6)
        ]
        l4 = [(Fraction(i, 8), Fraction(0), Fraction(1)) for i in range(1, 5)]
        atoms = (
            weighted(l1, Fraction(35, 100))
            + weighted(l2, Fraction(30, 100))
            + weighted(l3, Fraction(20, 100))
            + weighted(l4, Fraction(15, 100))
        )
        return DiscreteMeasure(atoms, RES)

    def test_skew_lines_scene(self):
        result = decompose(self.skew_scene(), 3, 0, Fraction(2, 5))
        ver = verify_decomposition(result, 3, 0, Fraction(1, 2))
        costs = [t.cost for t in result.trace] + [result.final_cost]
        ok = (
            result.final_cost >= 3
            and ver.passed
            and all(a <= b for a, b in zip(costs, costs[1:]))
        )
        report(
            4,
            ok,
            f"skew-lines-plus-cloud: final cost {result.final_cost} >= 3, all "
            f"clauses pass, trace costs {costs} nondecreasing, plateau counts strict",
        )

    def test_plateau_exercises_count_decrease(self):
        result = decompose(self.plateau_scene(), 3, 0, Fraction(3, 10))
        ver = verify_decomposition(result, 3, 0, Fraction(1, 2))
        costs = [t.cost for t in result.trace]
        counts = [t.n_count for t in result.trace]
        has_plateau = any(a == b for a, b in zip(costs, costs[1:]))
        report(
            4,
            ver.passed and has_plateau,
            f"plateau scene: costs {costs}, counts {counts}, N strictly decreases "
            f"on the plateau (non-vacuous check)",
        )


class TestCriterion5PushforwardFrostman:
    def test_segment_sigma_and_line_space_exponent(self):
        t0 = time.time()
        mu0, mu1 = parallel_segments(10)
        sigma_fit = frostman_fit(mu0, dyadic_scales(6, 1))
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=8.0)
        fit = pushforward_frostman(g, dyadic_scales(6, 2))
        elapsed = time.time() - t0
        ok = (
            abs(sigma_fit.exponent - 1.0) <= 0.2
            and 1.8 <= fit.exponent <= 2.1
            and elapsed < 60
        )
        report(
            5,
            ok,
            f"delta = 2^-10 parallel segments: sigma fit {sigma_fit.exponent:.3f} "
            f"(within 1 +- 0.2), line-space exponent {fit.exponent:.3f} in [1.8, 2.1], "
            f"{elapsed:.1f}s",
        )


class TestCriterion6TubesToPlanes:
    def test_conversion_with_constants(self):
        mu0, mu1 = parallel_segments(5)
        scales = dyadic_scales(5, 1)
        eps = 0.25
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        fwd = verify_thin_tubes(g, scales)
        rev_graph = ThinGraph((mu1, mu0), [(b, a) for a, b in g.iter_tuples()], 1.0, 6.0)
        rev = verify_thin_tubes(rev_graph, scales)
        out = tubes_to_planes(g, epsilon=eps, scales=scales)
        ok = (
            fwd.ok
            and rev.ok
            and out.ok
            and out.planes_check.ok
            and out.graph.sigma == pytest.approx(0.75)
            and float(out.removed_mass) <= out.b_const * eps
        )
        report(
            6,
            ok,
            f"parallel segments: tubes verified both ways at (1, 6, 1-eps); "
            f"converted to planes at (0.75, A*K with A={out.a_const:.3g}); density "
            f"loss {float(out.removed_mass):.4g} <= B*eps = {out.b_const * eps:.4g}",
        )


class TestCriterion7ThinImpliesNC:
    def corpus(self):
        mu0, mu1 = parallel_segments(5)
        yield "parallel-segments", ThinGraph.complete([mu0, mu1], 1.0, 6.0), dyadic_scales(5, 1)

        lx = AffineFlat([0, 0], [[1, 0]])
        ly = AffineFlat([0, 0], [[0, 1]])
        mx = DiscreteMeasure.uniform(
            [(Fraction(8 + i, 32), Fraction(0)) for i in range(4)], RES
        )
        my = DiscreteMeasure.uniform(
            [(Fraction(0), Fraction(8 + i, 32)) for i in range(4)], RES
        )
        frame = StableFrame([lx, ly], [[mx], [my]])
        g0 = ThinGraph([mx], [(i,) for i in range(4)], 1.0, 8.0)
        g1 = ThinGraph([my], [(i,) for i in range(4)], 1.0, 8.0)
        prod, check = product_graph([g0, g1], frame, dyadic_scales(5, 1))
        assert check.ok
        yield "axes-product", prod, dyadic_scales(5, 1)

        diag0 = DiscreteMeasure.uniform(
            [(Fraction(i, 16), Fraction(i, 16)) for i in range(8)], RES
        )
        diag1 = DiscreteMeasure.uniform(
            [(Fraction(i, 16), Fraction(i, 16) + Fraction(3, 4)) for i in range(8)], RES
        )
        yield "diagonal-segments", ThinGraph.complete([diag0, diag1], 1.0, 8.0), dyadic_scales(4, 1)

        rng = random.Random(777)
        for trial in range(3):
            pts0 = [
                (Fraction(rng.randint(-8, 8), 32), Fraction(rng.randint(-8, 8), 32))
                for _ in range(5)
            ]
            pts1 = [
                (Fraction(16 + rng.randint(-8, 8), 32), Fraction(24 + rng.randint(-8, 8), 32))
                for _ in range(5)
            ]
            if len(set(pts0)) < 5 or len(set(pts1)) < 5:
                continue
            a = DiscreteMeasure.uniform(pts0, RES)
            b = DiscreteMeasure.uniform(pts1, RES)
            g = ThinGraph.complete([a, b], 1.0, 16.0)
            if verify_thin_planes(g, dyadic_scales(3, 1)).ok:
                yield f"seeded-clusters-{trial}", g, dyadic_scales(3, 1)

    def test_every_passing_graph_gives_nc_supports(self):
        outcomes = []
        for name, g, scales in self.corpus():
            ok, coll, check = thin_implies_nc(g, scales)
            outcomes.append((name, check.ok, coll.is_nc()))
        bad = [o for o in outcomes if o[1] and not o[2]]
        all_verified = all(o[1] for o in outcomes)
        report(
            7,
            not bad and all_verified,
            f"corpus {[(n, v, nc) for n, v, nc in outcomes]}: every graph passing "
            f"arity-n verification yields an NC support collection",
        )


class TestCriterion8ProjectionPreservation:
    def test_nc_preserved_for_seeded_centers(self):
        rng = random.Random(888)
        coll = nc_line_collection(rng, 3, 3)
        screen = None
        while screen is None:
            cand = random_flat(rng, 3, 2)
            if all(cand.canon != f.canon for f in coll.flats):
                screen = cand
        centers = []
        while len(centers) < 50:
            c = tuple(Fraction(rng.randint(-64, 64), 32) for _ in range(3))
            if all(not f.contains_point(c) for f in coll.flats) and not screen.contains_point(c):
                centers.append(c)
        outcomes = projected_nc_report(coll, centers, screen)
        uncertified = [o for o in outcomes if not o.nc and not o.exceptional]
        nc_count = sum(1 for o in outcomes if o.nc)
        report(
            8,
            not uncertified and nc_count == 50,
            f"50 seeded generic centers: {nc_count} NC collections preserved, "
            f"{len(uncertified)} uncertified failures",
        )

    def test_projected_irreducibility_modulus(self):
        v = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
        grid = [
            (Fraction(i, 8), Fraction(j, 8), Fraction(0))
            for i in range(-4, 5)
            for j in range(-4, 5)
        ]
        mu = DiscreteMeasure.uniform(grid, RES)
        q = AffineFlat([Fraction(1, 16), Fraction(1, 16), 0], [[0, 0, 1]])
        u = AffineFlat([0, Fraction(-3, 4), 0], [[1, 0, 0]])
        out = irreducible_projection_check(
            mu, v, q, u, w=Fraction(1, 8), tau=Fraction(2, 5), eps=Fraction(1, 8)
        )
        report(
            8,
            out.ok and out.output_modulus <= 2 * Fraction(2, 5),
            f"join-meet pushforward with q(eps) trimmed: modulus "
            f"{out.output_modulus} <= 2*tau at certified scale {out.scale} "
            f"(exact comparison)",
        )


class TestCriterion9AngleBound:
    def test_wedge_angle_floor_on_certified_frames(self):
        rng = random.Random(9009)
        checked = 0
        ok = True
        worst = None
        for _ in range(8):
            frame, cert = random_minimal_frame(rng, 3, (1, 1, 1), atoms_per_measure=2)
            c2 = cert.floor
            slots = frame.atom_slots()
            import itertools as it

            for j in range(frame.k):
                other_slots = [s for s in slots if s[0] != j]
                sizes = [len(frame.measures[a][b]) for a, b in other_slots]
                for combo in it.product(*(range(s) for s in sizes)):
                    pick = dict(zip(other_slots, combo))
                    cols = []
                    for slot in sorted(other_slots):
                        p = frame.measures[slot[0]][slot[1]].atoms[pick[slot]][0]
                        cols.append(p + (Fraction(1),))
                    sin2 = wedge_angle_sin2(cols, frame.bases[j])
                    checked += 1
                    if sin2 < c2:  # D(n) = 1 with column-normalized minors
                        ok = False
                        worst = (j, pick, sin2, c2)
        report(
            9,
            ok and checked > 0,
            f"{checked} (frame, j, pick) combinations: wedge_angle_sin2 >= c2 "
            f"with D(n) = 1, exact rational comparison"
            + (f"; worst {worst}" if worst else ""),
        )


class TestCriterion10NegativeControl:
    def test_high_sigma_grid_fails(self):
        mu = square_grid(5)
        tuples = [(0, 37), (100, 900), (500, 220), (33, 777), (4, 1000)]
        g = ThinGraph([mu, mu], tuples, sigma=1.5, big_k=4.0)
        out = verify_thin_planes(g, dyadic_scales(5, 1))
        report(
            10,
            not out.ok and out.worst is not None,
            f"sigma = 1.5 claim on a full-dimensional 2^-5 grid fails at dyadic "
            f"scale {out.worst.scale if out.worst else '?'} "
            f"(mass {out.worst.mass if out.worst else '?'} over bound)",
        )
