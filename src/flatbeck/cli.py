"""Command-line front end: scene ingestion, command dispatch, report and CSV
emission.

Scenes are JSON files with rationals written as strings ("1/3" stays 1/3);
every named object is resolved up front with field-level error context.  All
randomness flows from a single seed recorded in the report header, and
reports carry no timestamps, so identical scene + seed reproduce identical
bytes.

Exit codes: 0 all checks pass, 1 a verification failed (witness in the
report), 2 input error, 3 unknown command, 4 budget exceeded.

Usage:
    flatbeck <command> --scene <path> [--seed N] [--scales A..B] [--out DIR]
             [--budget N] [command-specific flags]

Commands: analyze-flats, decompose, stability, beck, thin-verify,
thin-prune, project, pushforward-dim.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .beck import EnumerationBudgetExceeded, PointConfig, dichotomy_report
from .decompose import NotDiscretelyNC, decompose, verify_decomposition
from .exactlin import BudgetExceeded, frac
from .flats import AffineFlat
from .flatcollect import FlatCollection, is_minimal
from .genscenes import random_flat
from .measures import DiscreteMeasure, dyadic_scales
from .project import irreducible_projection_check, projected_nc_report
from .stability import (
    StableFrame,
    certify_stability,
    minimal_rank_report,
    stabilize,
)
from .thin import (
    ThinGraph,
    prune_against_measure,
    prune_planes,
    pushforward_frostman,
    tubes_to_planes,
    verify_thin_planes,
    verify_thin_tubes,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_BUDGET = 4


class SceneError(ValueError):
    pass


def _rat(value, where: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise TypeError
        if isinstance(value, (int, str, Fraction)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError):
        pass
    raise SceneError(f"{where}: malformed rational {value!r}")


def _vec(value, n: Optional[int], where: str):
    if not isinstance(value, list):
        raise SceneError(f"{where}: expected a coordinate list")
    for i, x in enumerate(value):
        if isinstance(x, Fraction):  # a JSON decimal: coordinates must be exact strings
            raise SceneError(f"{where}[{i}]: malformed rational {float(x)!r}")
    out = tuple(_rat(x, f"{where}[{i}]") for i, x in enumerate(value))
    if n is not None and len(out) != n:
        raise SceneError(f"{where}: expected {n} coordinates, got {len(out)}")
    return out


def _resolve(table: dict, kind: str, names, where: str) -> list:
    """The scene objects of table named by names, one name or a list of
    them, in order; None names every object in sorted order, so a
    single-object flag left out takes the first.  A name the table lacks is
    a dangling reference, and so is one that is not a string."""
    if names is None:
        names = sorted(table) or [None]
    elif isinstance(names, str):
        names = [names]
    elif not isinstance(names, list):
        raise SceneError(f"{where}: expected a {kind} name or a list of them, got {names!r}")
    for x in names:
        if not isinstance(x, str) or x not in table:
            raise SceneError(f"{where}: dangling {kind} reference {x!r}")
    return [table[x] for x in names]


def _object(raw: dict, key: str) -> dict:
    """raw[key] as an object, {} when absent or empty; else an input error."""
    val = raw.get(key) or {}
    if not isinstance(val, dict):
        raise SceneError(f"{key}: expected an object")
    return val


def _list(value, where: str) -> list:
    """value when it is a list; else an input error."""
    if not isinstance(value, list):
        raise SceneError(f"{where}: expected a list")
    return value


class Scene:
    """Parsed scene: named points, flats, measures, graphs, frames, params."""

    def __init__(self, raw: dict, path: str = "<scene>"):
        if not isinstance(raw, dict):
            raise SceneError(f"{path}: top level must be an object")
        try:
            self.ambient_dim = int(raw["ambient_dim"])
        except (KeyError, TypeError, ValueError):
            raise SceneError(f"{path}: missing or malformed ambient_dim")
        n = self.ambient_dim
        self.points: dict[str, tuple] = {}
        for name, val in _object(raw, "points").items():
            self.points[name] = _vec(val, n, f"points.{name}")
        self.flats: dict[str, AffineFlat] = {}
        for name, val in _object(raw, "flats").items():
            where = f"flats.{name}"
            if not isinstance(val, dict) or "basepoint" not in val:
                raise SceneError(f"{where}: needs basepoint and directions")
            base = _vec(val["basepoint"], n, f"{where}.basepoint")
            dirs = [
                _vec(d, n, f"{where}.directions[{i}]")
                for i, d in enumerate(_list(val.get("directions", []), f"{where}.directions"))
            ]
            try:
                self.flats[name] = AffineFlat(base, dirs)
            except ValueError as e:
                raise SceneError(f"{where}: {e}")
        self.measures: dict[str, DiscreteMeasure] = {}
        for name, val in _object(raw, "measures").items():
            where = f"measures.{name}"
            if not isinstance(val, dict):
                raise SceneError(f"{where}: expected an object")
            res = _rat(val.get("resolution", "1/1024"), f"{where}.resolution")
            try:
                if "uniform_on" in val:
                    pts = [
                        _vec(p, n, f"{where}.uniform_on[{i}]")
                        for i, p in enumerate(_list(val["uniform_on"], f"{where}.uniform_on"))
                    ]
                    self.measures[name] = DiscreteMeasure.uniform(pts, res)
                else:
                    atoms = []
                    for i, entry in enumerate(_list(val.get("atoms", []), f"{where}.atoms")):
                        if not (isinstance(entry, list) and len(entry) == 2):
                            raise SceneError(
                                f"{where}.atoms[{i}]: expected [point, weight]"
                            )
                        atoms.append(
                            (
                                _vec(entry[0], n, f"{where}.atoms[{i}]"),
                                _rat(entry[1], f"{where}.atoms[{i}].weight"),
                            )
                        )
                    self.measures[name] = DiscreteMeasure(atoms, res)
            except SceneError:
                raise  # already located
            except ValueError as e:
                raise SceneError(f"{where}: {e}")
        self.graphs: dict[str, ThinGraph] = {}
        self.graph_density_claims: dict[str, Optional[Fraction]] = {}
        for name, val in _object(raw, "graphs").items():
            where = f"graphs.{name}"
            if not isinstance(val, dict) or "measures" not in val:
                raise SceneError(f"{where}: needs a measures list")
            ms = _resolve(self.measures, "measure", val["measures"], where)
            tuples = val.get("tuples", "complete")
            if tuples != "complete":
                for i, t in enumerate(_list(tuples, f"{where}.tuples")):
                    if not all(type(x) is int for x in _list(t, f"{where}.tuples[{i}]")):
                        raise SceneError(f"{where}.tuples[{i}]: expected integer atom indices")
            sigma = _rat(val.get("sigma", 1), f"{where}.sigma")
            big_k = _rat(val.get("K", 1), f"{where}.K")
            try:
                if tuples == "complete":
                    self.graphs[name] = ThinGraph.complete(ms, sigma, big_k)
                else:
                    self.graphs[name] = ThinGraph(ms, tuples, sigma, big_k)
            except ValueError as e:
                raise SceneError(f"{where}: {e}")
            self.graph_density_claims[name] = (
                _rat(val["c"], f"{where}.c") if "c" in val else None
            )
        self.frames: dict[str, StableFrame] = {}
        for name, val in _object(raw, "frames").items():
            where = f"frames.{name}"
            if not isinstance(val, dict) or "flats" not in val or "measures" not in val:
                raise SceneError(f"{where}: needs flats and measures lists")
            fl = _resolve(self.flats, "flat", val["flats"], where)
            rows = _list(val["measures"], f"{where}.measures")
            grid = [_resolve(self.measures, "measure", row, where) for row in rows]
            try:
                self.frames[name] = StableFrame(fl, grid)
            except ValueError as e:
                raise SceneError(f"{where}: {e}")
        self.params: dict = _object(raw, "params")
        seed = self.params.get("seed", 0)
        if type(seed) is not int:
            raise SceneError(f"params.seed: expected an integer, got {seed!r}")

    def param_rat(self, key: str, default) -> Fraction:
        if key not in self.params:
            return frac(default)
        return _rat(self.params[key], f"params.{key}")


def _decimal(text: str) -> Fraction:
    """A JSON decimal as its exact value.  A literal over 100 characters or
    with an exponent past the double range is refused: it would cost a huge
    numerator or denominator, or turn infinite as a float."""
    exp = text.lower().partition("e")[2]
    if len(text) > 100 or abs(int(exp or 0)) > 400 or math.isinf(float(text)):
        raise SceneError(f"decimal {text[:100]} too long or out of range")
    return Fraction(text)


def parse_scene(path: str) -> Scene:
    p = Path(path)
    if not p.exists():
        raise SceneError(f"scene file not found: {path}")
    try:
        # decimals arrive as their exact value; float knobs round them to
        # the double the literal names
        raw = json.loads(p.read_text(), parse_float=_decimal)
    except json.JSONDecodeError as e:
        raise SceneError(f"{path}: invalid JSON ({e})")
    return Scene(raw, path)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


class Reporter:
    def __init__(self, out_dir: str, command: str, scene_path: str, seed: int):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.body = {
            "tool": f"flatbeck {__version__}",
            "command": command,
            "scene": scene_path,
            "seed": seed,
            "verdicts": [],
        }

    def verdict(self, name: str, passed: bool, **info):
        entry = {"check": name, "passed": bool(passed)}
        entry.update({k: _jsonable(v) for k, v in info.items()})
        self.body["verdicts"].append(entry)
        status = "pass" if passed else "FAIL"
        print(f"[{status}] {name}" + (f" :: {info.get('witness')}" if not passed and info.get("witness") else ""))

    def info(self, key: str, value):
        self.body[key] = _jsonable(value)

    def csv_table(self, name: str, rows, header):
        path = self.dir / f"{name}.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([_jsonable(x) for x in row])
        return str(path)

    def finish(self) -> int:
        path = self.dir / "report.json"
        path.write_text(json.dumps(self.body, indent=2, sort_keys=True) + "\n")
        ok = all(v["passed"] for v in self.body["verdicts"])
        print(f"report: {path}")
        return EXIT_PASS if ok else EXIT_FAIL


def _budget(args) -> dict:
    """--budget as a keyword argument when given; left out, the called
    function keeps its own default: 60 points for beck, and for stability
    200,000 (index pair, pick) combinations, 2^k prod(1 + |supp mu|), for
    certification and the minimal rank table and, with --stabilize,
    (prod |supp mu| + 1) 2^(slots + k) rank evaluations."""
    return {} if args.budget is None else {"budget": args.budget}


def _scale_window(arg: Optional[str], scene: Scene) -> list[Fraction]:
    spec = arg or scene.params.get("scales") or "1..6"
    if isinstance(spec, list) and len(spec) == 2:
        coarse, fine = int(spec[0]), int(spec[1])
    else:
        try:
            coarse_s, fine_s = str(spec).split("..")
            coarse, fine = int(coarse_s), int(fine_s)
        except ValueError:
            raise SceneError(f"bad scale window {spec!r}; expected like 1..6")
    return dyadic_scales(fine, coarse)


def cmd_analyze_flats(scene: Scene, args, rep: Reporter) -> None:
    names = args.flats.split(",") if args.flats else sorted(scene.flats)
    flats = _resolve(scene.flats, "flat", names, "--flats")
    coll = FlatCollection(flats)
    cost = coll.cost()
    count, parts = coll.minimizing_census()
    rep.info("flats", {x: {"dim": f.dim} for x, f in zip(names, flats)})
    rep.info("cost", cost)
    rep.info("minimizing_partition_count", count)
    rep.info("minimizing_partitions", parts[:50])
    rep.verdict("nc", coll.is_nc(), cost=cost, ambient=scene.ambient_dim)
    rep.verdict("minimal", is_minimal(flats), note="minimality in the ambient space")


def cmd_decompose(scene: Scene, args, rep: Reporter) -> None:
    mu = _resolve(scene.measures, "measure", args.measure or None, "--measure")[0]
    w = scene.param_rat("w", "0")
    theta = scene.param_rat("theta", "1/2")
    tau = scene.param_rat("tau", "1/2")
    n = scene.ambient_dim
    try:
        result = decompose(mu, n, w, theta)
    except NotDiscretelyNC as e:
        rep.verdict("discretely-nc", False, witness=str(e))
        return
    rep.info(
        "trace",
        [
            {"step": t.step, "cost": t.cost, "n_count": t.n_count, "partition": t.chosen_partition}
            for t in result.trace
        ],
    )
    rep.info("final_cost", result.final_cost)
    rep.info("flat_dims", [f.dim for f in result.flats])
    report = verify_decomposition(result, n, w, tau)
    for clause in report.clauses:
        rep.verdict(f"decomposition-{clause.name}", clause.passed, witness=clause.witness)


def cmd_stability(scene: Scene, args, rep: Reporter) -> None:
    frame = _resolve(scene.frames, "frame", args.frame or None, "--frame")[0]
    c2 = scene.param_rat("c2", "0")
    if args.stabilize:
        frame, c2 = stabilize(frame, **_budget(args))
        rep.info("stabilized_c2", c2)
    cert = certify_stability(frame, c2, **_budget(args))
    rep.info("certified_floor", cert.floor)
    rep.info("certified_raw_floor", cert.raw_floor)
    rep.verdict("certified", cert.ok, witness=cert.witness, floor=cert.floor)
    if sum(frame.dims()) == frame.ambient_dim:
        table, violations = minimal_rank_report(frame, **_budget(args))
        rep.info(
            "rank_table",
            {f"I={list(i)} J={list(j)}": r for (i, j), r in sorted(table.items())},
        )
        rep.verdict(
            "minimal-rank-rules",
            not violations,
            witness="; ".join(
                f"{v.rule} at I={v.i_set} J={v.j_set}: {v.got} vs {v.bound}"
                for v in violations
            )
            or None,
        )


def cmd_beck(scene: Scene, args, rep: Reporter) -> None:
    pts = _resolve(scene.points, "point", args.points.split(",") if args.points else None, "--points")
    eps = scene.param_rat("epsilon", "1/10")
    report = dichotomy_report(PointConfig(pts), eps, **_budget(args))
    if not report.complete:
        raise EnumerationBudgetExceeded(report.note)
    rep.info("hyperplane_count", report.hyperplane_count)
    rep.info("point_count", len(pts))
    rep.info("ratio_to_n_power", report.ratio)
    rep.info("concentrated", report.concentrated)
    if report.concentrated:
        rep.info("family_dims", [f.dim for f in report.family])
        rep.info("covered", report.covered)
    rep.verdict("beck-analysis", True)


def cmd_thin_verify(scene: Scene, args, rep: Reporter) -> None:
    name = args.graph or min(scene.graphs, default=None)
    g = _resolve(scene.graphs, "graph", name, "--graph")[0]
    scales = _scale_window(args.scales, scene)
    claimed = scene.graph_density_claims.get(name)
    if args.tubes:
        if g.arity != 2:
            raise SceneError("tube verification needs an arity-2 graph")
        out = verify_thin_tubes(g.measures[0], g.measures[1], g, scales, required_density=claimed)
    else:
        out = verify_thin_planes(g, scales, required_density=claimed)
    rep.info("csv", rep.csv_table(f"{name}-scales", out.table, ["scale", "max_mass", "bound", "ratio"]))
    rep.info("density", out.density)
    rep.info("max_ratio", out.max_ratio)
    rep.verdict(
        "thin-" + ("tubes" if args.tubes else "planes"),
        out.ok,
        witness=out.failure,
        worst=None
        if out.worst is None
        else {
            "tuple": out.worst.tuple_,
            "measure": out.worst.measure_index,
            "scale": out.worst.scale,
            "mass": out.worst.mass,
        },
    )
    if not args.tubes and g.arity == g.ambient_dim:
        coll = FlatCollection([m.support_flat() for m in g.measures])
        rep.verdict("support-flats-nc", coll.is_nc())


def cmd_thin_prune(scene: Scene, args, rep: Reporter) -> None:
    g = _resolve(scene.graphs, "graph", args.graph or None, "--graph")[0]
    scales = _scale_window(args.scales, scene)
    eps = scene.param_rat("epsilon", "1/4")
    if args.mode == "planes":
        out = prune_planes(g, eps, scales)
        rep.info("removed_mass", out.removed_mass)
        rep.info("c1", out.constant)
        rep.verdict("prune-budget", out.ok, witness=out.witness)
        rep.verdict("pruned-graph-verifies", out.check.ok, witness=out.check.failure)
    elif args.mode == "tubes2planes":
        if g.arity != 2:
            raise SceneError("conversion needs an arity-2 graph")
        out = tubes_to_planes(g.measures[0], g.measures[1], g, eps, scales)
        rep.info("a_const", out.a_const)
        rep.info("b_const", out.b_const)
        rep.info("removed_mass", out.removed_mass)
        rep.verdict("tubes-to-planes", out.ok, witness=out.witness)
    elif args.mode == "against-measure":
        nu = _resolve(scene.measures, "measure", [args.nu], "--nu")[0]
        out = prune_against_measure(g, nu, eps, scales)
        rep.info("removed_mass", out.removed_mass)
        rep.info("k_prime", out.k_prime)
        rep.info("delta0", out.delta0)
        rep.verdict("prune-budget", out.ok, witness=out.witness)
    else:
        raise SceneError(f"unknown prune mode {args.mode!r}")


def cmd_project(scene: Scene, args, rep: Reporter) -> None:
    rng = random.Random(args.seed)
    if args.check == "nc":
        if args.centers < 1:
            raise SceneError(f"--centers {args.centers}: expected at least 1")
        flats = _resolve(scene.flats, "flat", args.flats.split(",") if args.flats else None, "--flats")
        coll = FlatCollection(flats)
        n = scene.ambient_dim
        screen = None
        for _ in range(100):
            cand = random_flat(rng, n, n - 1)
            if all(cand != f for f in flats):
                screen = cand
                break
        if screen is None:
            raise SceneError("failed to draw a screen")
        centers = []
        while len(centers) < args.centers:
            c = tuple(Fraction(rng.randint(-64, 64), 32) for _ in range(n))
            if all(not f.contains_point(c) for f in flats) and not screen.contains_point(c):
                centers.append(c)
        outcomes = projected_nc_report(coll, centers, screen)
        bad = [o for o in outcomes if not o.nc and not o.exceptional]
        rep.info("centers_tested", len(outcomes))
        rep.info("nc_preserved", sum(1 for o in outcomes if o.nc))
        rep.verdict(
            "projection-preserves-nc",
            not bad,
            witness="; ".join(str(o.center) for o in bad) or None,
        )
    elif args.check == "irreducible":
        needed = {"measure": args.measure, "flat": args.flat, "center": args.center, "screen": args.screen}
        for k, v in needed.items():
            if not v:
                raise SceneError(f"--{k} is required for --check irreducible")
        mu = _resolve(scene.measures, "measure", args.measure, "--measure")[0]
        v, q, u = (
            _resolve(scene.flats, "flat", getattr(args, k), f"--{k}")[0] for k in ("flat", "center", "screen")
        )
        w = scene.param_rat("w", "1/16")
        tau = scene.param_rat("tau", "1/2")
        eps = scene.param_rat("eps", w)
        out = irreducible_projection_check(mu, v, q, u, w, tau, eps)
        rep.info("input_modulus", out.input_modulus)
        rep.info("output_modulus", out.output_modulus)
        rep.info("scale", out.scale)
        rep.info("kept_mass", out.kept_mass)
        rep.verdict("projected-irreducibility", out.ok, witness=out.witness)
    else:
        raise SceneError(f"unknown project check {args.check!r}")


def cmd_pushforward_dim(scene: Scene, args, rep: Reporter) -> None:
    name = args.graph or min(scene.graphs, default=None)
    g = _resolve(scene.graphs, "graph", name, "--graph")[0]
    scales = _scale_window(args.scales, scene)
    fit = pushforward_frostman(g, scales)
    rows = [(s, c, m) for s, c, m in fit.table]
    rep.info("csv", rep.csv_table(f"{name}-pushforward", rows, ["scale", "boxes", "max_box_mass"]))
    rep.info("fitted_exponent", fit.exponent)
    rep.info("expected_exponent", g.arity * g.sigma)
    rep.verdict("pushforward-dim-computed", True, fitted=fit.exponent)


HANDLERS = {
    "analyze-flats": cmd_analyze_flats,
    "decompose": cmd_decompose,
    "stability": cmd_stability,
    "beck": cmd_beck,
    "thin-verify": cmd_thin_verify,
    "thin-prune": cmd_thin_prune,
    "project": cmd_project,
    "pushforward-dim": cmd_pushforward_dim,
}


def build_parser(command: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=f"flatbeck {command}")
    p.add_argument("--scene", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scales", default=None, help="dyadic window like 1..6")
    p.add_argument("--out", default="flatbeck-out")
    p.add_argument("--budget", type=int, default=None, help="left out: each command's own default")
    p.add_argument("--flats", default=None, help="comma-separated flat names")
    p.add_argument("--measure", default=None)
    p.add_argument("--frame", default=None)
    p.add_argument("--graph", default=None)
    p.add_argument("--points", default=None, help="comma-separated point names")
    p.add_argument("--tubes", action="store_true", help="verify tubes instead of planes")
    p.add_argument("--mode", default="planes", help="prune mode: planes|tubes2planes|against-measure")
    p.add_argument("--nu", default=None, help="auxiliary measure for against-measure pruning")
    p.add_argument("--stabilize", action="store_true")
    p.add_argument("--check", default="nc", help="project check: nc|irreducible")
    p.add_argument("--flat", default=None)
    p.add_argument("--center", default=None)
    p.add_argument("--screen", default=None)
    p.add_argument("--centers", type=int, default=20)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return EXIT_PASS
    command = argv[0]
    if command not in HANDLERS:
        print(f"unknown command {command!r}; expected one of {', '.join(HANDLERS)}", file=sys.stderr)
        return EXIT_UNKNOWN
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit:
        return EXIT_INPUT
    try:
        scene = parse_scene(args.scene)
    except SceneError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    if args.seed is None:
        args.seed = scene.params.get("seed", 0)
    rep = Reporter(args.out, command, args.scene, args.seed)
    try:
        HANDLERS[command](scene, args, rep)
    except SceneError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    return rep.finish()


if __name__ == "__main__":
    sys.exit(main())
