"""The four workloads: seeded inputs, the items timed in every pass, and the
checks of their outputs.

Every workload is a fixed list of items built from the seed.  An item's
``run`` is what gets timed; ``verify`` checks the first pass's result against
the computations in ``oracle``; ``digest`` must then read the same in every
later pass.  Functions are looked up on their flatbeck module at call time
(``stability.certify_stability``, not a name bound at import), so the traced
run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracle

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench-out"


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    verify: Callable[[object], list[str]]
    digest: Callable[[object], object] = lambda r: r
    # a result the program gets wrong because of a known fault: the item
    # counts as failed, not as a wrong answer
    known_fault: Callable[[object], Optional[str]] = lambda r: None


def _expect(problems: list[str], cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


# -- frames-certify -----------------------------------------------------------

FRAMES = 6


def build_frames_certify(seed: int) -> list[Item]:
    """Certified minimal frames in Q^4 (dims 2+1+1, two atoms per measure);
    each item re-certifies one frame at the floor its generator certified
    and builds its minimal-position rank table."""
    from flatbeck import genscenes, stability

    rng = random.Random(seed)
    items: list[Item] = []
    for f in range(FRAMES):
        frame, cert = genscenes.random_minimal_frame(rng, 4, (2, 1, 1), atoms_per_measure=2)

        def run(frame=frame, floor=cert.floor):
            got = stability.certify_stability(frame, floor)
            table, violations = stability.minimal_rank_report(frame)
            return got, table, violations

        def verify(result, frame=frame, floor=cert.floor, raw=cert.raw_floor):
            got, table, violations = result
            problems: list[str] = []
            _expect(problems, got.ok, f"certification failed: {got.witness}")
            _expect(problems, got.floor == floor and floor > 0, f"floor {got.floor} != generated {floor}")
            _expect(problems, got.raw_floor == raw, f"raw floor {got.raw_floor} != generated {raw}")
            _expect(problems, not violations, f"rank-rule violations {violations}")
            ref_table, ref_problems = oracle.frame_rank_table(frame)
            problems.extend(ref_problems)
            _expect(problems, table == ref_table, "rank table differs from the independent one")
            return problems

        def digest(result):
            got, table, violations = result
            return got.ok, got.floor, got.raw_floor, sorted(table.items()), len(violations)

        items.append(Item(f"frame{f}", run, verify, digest))
    return items


# -- beck-spans ---------------------------------------------------------------

GENERIC_SETS = 2
GENERIC_POINTS = 16
SKEW_POINTS = (8, 8)
GRID_SHAPE = (5, 4)


def _seeded_skew_lines(rng: random.Random) -> tuple[list, list, list]:
    """Points on two skew lines of Q^3; returns both point lists and the
    first line as (basepoint, direction)."""
    def small():
        return tuple(Fraction(rng.randint(-4, 4), 8) for _ in range(3))

    while True:
        p1, p2 = small(), small()
        d1 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        d2 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        gap = tuple(a - b for a, b in zip(p2, p1))
        if oracle.rank([d1, d2, gap]) == 3:
            break
    a, b = SKEW_POINTS
    l1 = [tuple(p + Fraction(t, 8) * d for p, d in zip(p1, d1)) for t in range(a)]
    l2 = [tuple(p + Fraction(t, 8) * d for p, d in zip(p2, d2)) for t in range(b)]
    return l1, l2, [p1, d1]


def _seeded_grid(rng: random.Random) -> list:
    """A rows x cols lattice in a seeded plane of Q^3."""
    while True:
        base = tuple(Fraction(rng.randint(-4, 4), 8) for _ in range(3))
        u = tuple(Fraction(rng.randint(-3, 3), 8) for _ in range(3))
        v = tuple(Fraction(rng.randint(-3, 3), 8) for _ in range(3))
        if oracle.rank([u, v]) == 2:
            break
    rows, cols = GRID_SHAPE
    return [
        tuple(b + i * x + j * y for b, x, y in zip(base, u, v))
        for i in range(rows)
        for j in range(cols)
    ]


def _beck_items(label: str, pts: list, expect_count: int, span_flat, expect_span: int,
                concentrated: bool) -> list[Item]:
    """Enumeration, dichotomy and span count on one point set.  A set that
    is not concentrated must be in general position, which is confirmed
    apart from the program before the closed form C(N,3) is trusted."""
    from flatbeck import beck

    config = beck.PointConfig(pts)
    n = len(pts)

    def check_dichotomy(rep) -> list[str]:
        problems: list[str] = []
        _expect(problems, rep.complete, f"{label}: dichotomy incomplete: {rep.note}")
        _expect(problems, rep.concentrated == concentrated, f"{label}: concentrated={rep.concentrated}")
        if concentrated:
            need = n - int(0.1 * n)
            _expect(problems, sum(f.dim for f in rep.family) <= 2, f"{label}: family too large")
            on = sum(
                1 for p in pts
                if any(oracle.on_flat(p, f.basepoint, f.directions) for f in rep.family)
            )
            _expect(problems, rep.covered == on >= need, f"{label}: covered {rep.covered}, on family {on}")
        else:
            _expect(problems, rep.hyperplane_count == expect_count, f"{label}: count {rep.hyperplane_count}")
        return problems

    def check_count(got) -> list[str]:
        problems: list[str] = []
        if not concentrated:
            _expect(problems, oracle.in_general_position(pts, 3), f"{label}: not in general position")
        _expect(problems, got == expect_count, f"{label}: {got} planes, expected {expect_count}")
        return problems

    def dichotomy_digest(rep):
        family = None if rep.family is None else [f.canon for f in rep.family]
        return rep.concentrated, rep.covered, rep.hyperplane_count, family

    return [
        Item(
            f"{label}-enumerate",
            lambda: len(beck.enumerate_spanned_flats(config, 2)),
            check_count,
        ),
        Item(f"{label}-dichotomy", lambda: beck.dichotomy_report(config), check_dichotomy, dichotomy_digest),
        Item(
            f"{label}-span-count",
            lambda: beck.concentrated_span_count(config, span_flat),
            lambda got: [] if got == expect_span else [f"{label}: {got} planes on the flat, expected {expect_span}"],
        ),
    ]


def build_beck_spans(seed: int) -> list[Item]:
    """Generic point sets of Q^3 (closed form C(N,3)), two skew lines (a + b
    planes) and a coplanar grid (one plane)."""
    from flatbeck import flats, genscenes

    rng = random.Random(seed)
    items: list[Item] = []
    for s in range(GENERIC_SETS):
        pts = genscenes.generic_points(rng, 3, GENERIC_POINTS)
        line = flats.AffineFlat.from_points(pts[:2])
        # a line through two points of a set in general position lies on
        # exactly one spanned plane per remaining point
        items += _beck_items(
            f"generic{s}", pts, math.comb(GENERIC_POINTS, 3), line, GENERIC_POINTS - 2, False
        )
    l1, l2, (p1, d1) = _seeded_skew_lines(rng)
    items += _beck_items(
        "skew", l1 + l2, len(l1) + len(l2), flats.AffineFlat(p1, [d1]), len(l2), True
    )
    grid = _seeded_grid(rng)
    items += _beck_items("grid", grid, 1, flats.AffineFlat.from_points(grid[:2]), 1, True)
    return items


# -- plate-mass ---------------------------------------------------------------

RES = Fraction(1, 1024)
W = Fraction(1, 8)
TAU = Fraction(2, 5)
EPS = Fraction(1, 8)
Q_XY = (Fraction(1, 16), Fraction(1, 16))
SCREEN_Y = Fraction(-3, 4)
# the 9 x 9 grid of spacing 1/8 has modulus 1/3 at w = 1/8 whatever its
# offset (see README): a row line holds its own row and the two rows at
# distance exactly 1/8
GRID_MODULUS = Fraction(1, 3)


def _plate_grid(ox: Fraction, oy: Fraction) -> list:
    return [
        (Fraction(i, 8) + ox, Fraction(j, 8) + oy, Fraction(0))
        for i in range(-4, 5)
        for j in range(-4, 5)
    ]


def build_plate_mass(seed: int) -> list[Item]:
    """irreducible_projection_check on the 81-atom grid of acceptance
    criterion 8 and on a seeded translate of it by odd multiples of 1/64."""
    from flatbeck import flats, measures, project

    rng = random.Random(seed)
    v = flats.AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
    q = flats.AffineFlat([Q_XY[0], Q_XY[1], 0], [[0, 0, 1]])
    u = flats.AffineFlat([0, SCREEN_Y, 0], [[1, 0, 0]])
    scale = (Q_XY[1] - SCREEN_Y) * W / 4
    odd = [Fraction(a, 64) for a in range(-7, 8, 2)]
    offsets = [(Fraction(0), Fraction(0)), (rng.choice(odd), rng.choice(odd))]
    items: list[Item] = []
    for k, (ox, oy) in enumerate(offsets):
        pts = _plate_grid(ox, oy)
        mu = measures.DiscreteMeasure.uniform(pts, RES)

        def run(mu=mu):
            return project.irreducible_projection_check(mu, v, q, u, W, TAU, EPS)

        def verify(out, pts=pts):
            kept, modulus = oracle.projected_grid_modulus(pts, Q_XY, SCREEN_Y, EPS, scale)
            problems: list[str] = []
            _expect(problems, out.input_modulus == GRID_MODULUS, f"input modulus {out.input_modulus}")
            _expect(problems, out.scale == scale, f"scale {out.scale} != {scale}")
            _expect(problems, out.kept_mass == kept, f"kept mass {out.kept_mass} != {kept}")
            _expect(problems, out.output_modulus == modulus, f"output modulus {out.output_modulus} != {modulus}")
            _expect(problems, out.ok == (modulus <= 2 * TAU), f"verdict {out.ok}")
            return problems

        def digest(out):
            return out.ok, out.input_modulus, out.output_modulus, out.scale, out.kept_mass

        items.append(Item("criterion8-grid" if k == 0 else "seeded-grid", run, verify, digest))
    return items


# -- cli-scenes ---------------------------------------------------------------

DEMO_COMMANDS = [
    ("beck", "beck --scene scenes/beck-generic20.json"),
    ("decompose", "decompose --scene scenes/decompose-skew-lines.json"),
    ("thin-verify", "thin-verify --scene scenes/thin-parallel-segments.json"),
    ("thin-prune", "thin-prune --scene scenes/thin-parallel-segments.json --mode tubes2planes"),
    ("pushforward-dim", "pushforward-dim --scene scenes/thin-parallel-segments.json --scales 2..5"),
    ("stability", "stability --scene scenes/stability-axes.json --stabilize"),
    ("project", "project --scene scenes/project-nc-lines.json --centers 25"),
]
THIRTEEN_LINES = "perfbench/scenes/thirteen-lines.json"
EXIT_BUDGET = 4


def _cli_item(label: str, argv: list[str], expect_exit: int, fault: Optional[str] = None) -> Item:
    from flatbeck import cli

    out = OUT_DIR / "cli-scenes" / label
    argv = argv + ["--out", str(out)]

    def run():
        for old in out.glob("*"):
            old.unlink()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
        return code, files

    def verify(result):
        code, files = result
        problems: list[str] = []
        if code == expect_exit and expect_exit == 0:
            _expect(problems, "report.json" in files, f"{label}: no report.json")
        return problems

    def known_fault(result):
        code, _ = result
        if code == expect_exit:
            return None
        return f"exit code {code}, expected {expect_exit}" + (f": {fault}" if fault else "")

    return Item(label, run, verify, known_fault=known_fault)


def build_cli_scenes(seed: int) -> list[Item]:
    """Every README demo command, run in-process through flatbeck.cli.main,
    plus `project --check nc` on 13 lines, whose partition space is over
    the cap."""
    items: list[Item] = []
    for label, cmd in DEMO_COMMANDS:
        items.append(_cli_item(label, cmd.split() + ["--seed", str(seed)], 0))
    items.append(
        _cli_item(
            "project-13-lines",
            ["project", "--scene", THIRTEEN_LINES, "--check", "nc", "--centers", "2", "--seed", "13"],
            EXIT_BUDGET,
            fault="project --check nc on 13 lines passes instead of exiting 4 (Bell(13) is over the cap)",
        )
    )
    return items


BUILDERS = {
    "frames-certify": build_frames_certify,
    "beck-spans": build_beck_spans,
    "plate-mass": build_plate_mass,
    "cli-scenes": build_cli_scenes,
}
