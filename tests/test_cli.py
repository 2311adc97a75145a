import json
import math
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import flatbeck.beck
import flatbeck.cli
import flatbeck.flatcollect
import flatbeck.flats
import flatbeck.measures
import flatbeck.stability
import flatbeck.thin
from flatbeck.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_UNKNOWN,
    Scene,
    SceneError,
    main,
    parse_scene,
)
from flatbeck.flats import AffineFlat
from flatbeck.genscenes import generic_points
from flatbeck.measures import PlateMassOracle, dyadic_scales
from flatbeck.thin import prune_against_measure

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
GOLDEN = ROOT / "tests" / "golden"
README_DEMOS = [
    line.split()[1:]
    for line in (ROOT / "README.md").read_text().splitlines()
    if line.startswith("flatbeck ") and " --scene scenes/" in line
]


def write_scene(tmp_path, body, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def beck_scene(tmp_path, count=20):
    rng = random.Random(7)
    pts = generic_points(rng, 3, count)
    body = {
        "ambient_dim": 3,
        "points": {f"p{i}": [str(c) for c in p] for i, p in enumerate(pts)},
        "params": {"epsilon": 0.1, "seed": 7},
    }
    return write_scene(tmp_path, body)


class TestParseScene:
    def test_minimal_scene(self, tmp_path):
        path = write_scene(tmp_path, {"ambient_dim": 2, "points": {"a": ["1/2", 0]}})
        scene = parse_scene(path)
        assert scene.points["a"] == (Fraction(1, 2), Fraction(0))

    def test_rational_normalization(self, tmp_path):
        path = write_scene(tmp_path, {"ambient_dim": 1, "points": {"a": ["2/4"]}})
        scene = parse_scene(path)
        assert scene.points["a"] == (Fraction(1, 2),)

    def test_float_rejected(self, tmp_path):
        path = write_scene(tmp_path, {"ambient_dim": 1, "points": {"a": [0.5]}})
        with pytest.raises(SceneError, match="malformed rational"):
            parse_scene(path)

    @pytest.mark.parametrize("number", ["1e400", "-2E+309", "1e-99999999999", "0." + "3" * 120])
    def test_decimal_out_of_range_rejected(self, tmp_path, number):
        path = tmp_path / "scene.json"
        path.write_text('{"ambient_dim": 1, "params": {"sigma": %s}}' % number)
        with pytest.raises(SceneError, match="too long or out of range"):
            parse_scene(str(path))

    def test_dangling_reference(self, tmp_path):
        body = {
            "ambient_dim": 2,
            "graphs": {"g": {"measures": ["nope"], "sigma": 1, "K": 2}},
        }
        with pytest.raises(SceneError, match="dangling measure reference"):
            parse_scene(write_scene(tmp_path, body))

    def test_dimension_mismatch(self, tmp_path):
        body = {"ambient_dim": 3, "points": {"a": ["1", "2"]}}
        with pytest.raises(SceneError, match="expected 3 coordinates"):
            parse_scene(write_scene(tmp_path, body))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SceneError, match="not found"):
            parse_scene(str(tmp_path / "nope.json"))


class TestExitCodes:
    def test_unknown_command(self, tmp_path):
        assert main(["frobnicate", "--scene", "x"]) == EXIT_UNKNOWN

    def test_input_error(self, tmp_path):
        assert main(["beck", "--scene", str(tmp_path / "missing.json")]) == EXIT_INPUT

    def test_budget_exceeded(self, tmp_path):
        path = beck_scene(tmp_path, count=12)
        assert main(["beck", "--scene", path, "--budget", "5", "--out", str(tmp_path / "o")]) == EXIT_BUDGET

    def test_pick_budget_exceeded(self, tmp_path, capsys):
        # (3 x 3 + 1) 2^(2 + 2) rank evaluations of the ball search against a
        # budget of 3: a budget overrun, not an input error
        argv = ["stability", "--scene", str(SCENES / "stability-axes.json"), "--stabilize"]
        assert main(argv + ["--budget", "3", "--out", str(tmp_path / "o")]) == EXIT_BUDGET
        assert "budget exceeded: 160 rank evaluations exceed budget 3" in capsys.readouterr().err

    def test_partition_cap_exceeded(self, tmp_path):
        # thirteen lines: Bell(13) partitions, over the default cap of 12
        body = {
            "ambient_dim": 3,
            "flats": {
                f"l{i:02d}": {"basepoint": [str(i), "0", "0"], "directions": [["0", "1", str(i + 1)]]}
                for i in range(13)
            },
        }
        path = write_scene(tmp_path, body)
        argv = ["project", "--scene", path, "--check", "nc", "--centers", "2", "--seed", "13"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_BUDGET

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_center_is_an_input_error(self, tmp_path, capsys, count):
        """A count below 1 tests nothing, so it is refused, not passed."""
        argv = ["project", "--scene", str(SCENES / "project-nc-lines.json"), "--centers", count]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: --centers {count}: expected at least 1\n"


class TestMalformedParams:
    """Malformed seeds and scale windows are input errors (exit 2) or run as
    given; none escapes as an exception, which would exit 1."""

    SEGMENTS = SCENES / "thin-parallel-segments.json"

    def scene_with(self, tmp_path, **params):
        body = json.loads(self.SEGMENTS.read_text())
        body["params"].update(params)
        return write_scene(tmp_path, body)

    @pytest.mark.parametrize("seed", ["x", "3", 1.5, True, None])
    def test_non_integer_seed_is_an_input_error(self, tmp_path, capsys, seed):
        path = self.scene_with(tmp_path, seed=seed)
        assert main(["thin-verify", "--scene", path, "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert "input error: params.seed: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["params", "points", "flats", "measures", "graphs", "frames"])
    def test_section_not_an_object_is_an_input_error(self, tmp_path, capsys, section):
        body = json.loads(self.SEGMENTS.read_text())
        body[section] = [1]
        path = write_scene(tmp_path, body)
        assert main(["thin-verify", "--scene", path, "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert f"input error: {section}: expected an object" in capsys.readouterr().err

    VALID = {
        "ambient_dim": 2,
        "flats": {"x": {"basepoint": ["0", "0"], "directions": [["1", "0"]]}},
        "measures": {"m": {"atoms": [[["1/2", "0"], "1"]]}},
        "graphs": {"g": {"measures": ["m", "m"]}},
        "frames": {"fr": {"flats": ["x"], "measures": [["m"]]}},
    }

    @pytest.mark.parametrize(
        "section, name, value, message",
        [
            ("flats", "x", ["0", "0"], "flats.x: needs basepoint and directions"),
            ("flats", "x", {"directions": []}, "flats.x: needs basepoint and directions"),
            ("flats", "x", {"basepoint": "0"}, "flats.x.basepoint: expected a coordinate list"),
            (
                "flats", "x", {"basepoint": ["0", "0"], "directions": [["1", "2"], ["2", "4"]]},
                "flats.x: directions are linearly dependent",
            ),
            ("measures", "m", ["x"], "measures.m: expected an object"),
            ("measures", "m", {"uniform_on": [["0"]]}, "measures.m.uniform_on[0]: expected 2 coordinates, got 1"),
            ("measures", "m", {"atoms": [["1/2", "0", "1"]]}, "measures.m.atoms[0]: expected [point, weight]"),
            ("measures", "m", {"atoms": [[["1/2", "0"], "-1"]]}, "measures.m: negative atom weight"),
            ("graphs", "g", {"tuples": "complete"}, "graphs.g: needs a measures list"),
            ("graphs", "g", {"measures": ["m", "m"], "tuples": [[0]]}, "graphs.g: tuple arity mismatch"),
            ("frames", "fr", {"flats": ["x"]}, "frames.fr: needs flats and measures lists"),
            ("frames", "fr", {"flats": ["x"], "measures": []}, "frames.fr: one measure list per flat required"),
        ],
        ids=[
            "flat-not-object", "flat-no-basepoint", "basepoint-not-list", "flat-dependent", "measure-not-object",
            "uniform-coordinates", "atom-not-pair", "atom-negative", "graph-no-measures", "graph-arity", "frame-no-measures",
            "frame-mismatch",
        ],
    )
    def test_malformed_entry_is_an_input_error(self, tmp_path, capsys, section, name, value, message):
        """Each malformed scene entry exits 2 with its own location; the
        scene is refused while it is parsed, before any command runs."""
        body = json.loads(json.dumps(self.VALID))
        parse_scene(write_scene(tmp_path, body, "valid.json"))
        body[section][name] = value
        path = write_scene(tmp_path, body)
        assert main(["analyze-flats", "--scene", path, "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {message}\n"

    LISTS = {
        "ambient_dim": 2,
        "flats": {"a": {"basepoint": ["0", "0"], "directions": [["1", "0"]]}},
        "measures": {"m": {"atoms": [[["0", "0"], "1/2"], [["1/2", "0"], "1/2"]]}},
        "graphs": {"g": {"measures": ["m", "m"], "tuples": [[0, 1]]}},
        "frames": {"f": {"flats": ["a"], "measures": [["m"]]}},
    }

    @pytest.mark.parametrize(
        "section, name, field, value, where",
        [
            ("flats", "a", "directions", 5, "flats.a.directions"),
            ("measures", "m", "atoms", 5, "measures.m.atoms"),
            ("measures", "m", "uniform_on", 5, "measures.m.uniform_on"),
            ("measures", "m", "uniform_on", [], "measures.m"),
            ("graphs", "g", "measures", 5, "graphs.g"),
            ("graphs", "g", "tuples", 5, "graphs.g.tuples"),
            ("graphs", "g", "tuples", [5], "graphs.g.tuples[0]"),
            ("graphs", "g", "tuples", [[0, 1.5]], "graphs.g.tuples[0]"),
            ("graphs", "g", "tuples", [[0, True]], "graphs.g.tuples[0]"),
            ("frames", "f", "flats", 5, "frames.f"),
            ("frames", "f", "flats", [["a"]], "frames.f"),
            ("frames", "f", "measures", 5, "frames.f.measures"),
            ("frames", "f", "measures", [5], "frames.f"),
        ],
        ids=[
            "directions", "atoms", "uniform-on", "uniform-on-empty", "graph-measures", "tuples",
            "tuple-not-list", "tuple-decimal-index", "tuple-bool-index", "frame-flats", "frame-flat-not-name", "frame-measures",
            "frame-measure-row",
        ],
    )
    def test_malformed_list_is_an_input_error(self, tmp_path, capsys, section, name, field, value, where):
        """A list field holding another JSON value, or a list of the wrong
        entries, exits 2 with one line that names the field; a TypeError
        would escape main and exit 1."""
        body = json.loads(json.dumps(self.LISTS))
        parse_scene(write_scene(tmp_path, body, "valid.json"))
        body[section][name][field] = value
        path = write_scene(tmp_path, body)
        assert main(["analyze-flats", "--scene", path, "--out", str(tmp_path / "o")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {where}: ") and err.count("\n") == 1

    def test_scales_above_one_run_as_given(self, tmp_path):
        """-1..3 is the window 2 down to 1/8, from the flag or the scene."""
        flag, param = tmp_path / "flag", tmp_path / "param"
        argv = ["thin-verify", "--scene", str(self.SEGMENTS), "--scales=-1..3", "--out", str(flag)]
        assert main(argv) == EXIT_PASS
        path = self.scene_with(tmp_path, scales=[-1, 3])
        assert main(["thin-verify", "--scene", path, "--out", str(param)]) == EXIT_PASS
        table = (flag / "segments-scales.csv").read_text()
        assert [row.split(",")[0] for row in table.splitlines()[1:]] == ["1/8", "1/4", "1/2", "1", "2"]
        assert (param / "segments-scales.csv").read_text() == table

    def test_pushforward_refuses_scales_above_one(self, tmp_path, capsys):
        argv = ["pushforward-dim", "--scene", str(self.SEGMENTS), "--scales=-2..3", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_INPUT
        assert "input error: scale 4 is not 2^-k" in capsys.readouterr().err


class TestBeckCommand:
    def test_generic_points_counted(self, tmp_path):
        path = beck_scene(tmp_path, count=20)
        out = tmp_path / "out"
        assert main(["beck", "--scene", path, "--out", str(out)]) == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        assert report["hyperplane_count"] == math.comb(20, 3) == 1140
        assert report["concentrated"] is False

    def test_decimal_epsilon_is_exact(self, tmp_path):
        # 71 of 100 points on the x axis, 29 on a parabola off it: epsilon
        # 0.29 leaves 29 uncovered, so the axis must do; as a double,
        # 0.29 * 100 = 28.999999999999996 would ask for 72
        line = [[str(i), "0"] for i in range(71)]
        parabola = [[str(x), str(x * x + 1)] for x in range(1, 30)]
        body = {
            "ambient_dim": 2,
            "points": {f"p{i:03d}": p for i, p in enumerate(line + parabola)},
            "params": {"epsilon": 0.29},
        }
        out = tmp_path / "out"
        argv = ["beck", "--scene", write_scene(tmp_path, body), "--budget", "100", "--out", str(out)]
        assert main(argv) == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        assert report["concentrated"] is True
        assert report["covered"] == 71
        assert report["family_dims"] == [1]

    def test_decimal_params_keep_their_doubles(self, tmp_path):
        body = {"ambient_dim": 1, "params": {"epsilon": 0.29, "sigma": 1e-3, "eps": "1/4", "bad": "x"}}
        scene = parse_scene(write_scene(tmp_path, body))
        assert scene.param_rat("epsilon", "1/10") == Fraction(29, 100)
        assert scene.param_rat("sigma", "0") == Fraction(1, 1000)
        assert scene.param_rat("eps", "0") == Fraction(1, 4)
        assert scene.param_rat("absent", "1/3") == Fraction(1, 3)
        with pytest.raises(SceneError, match="params.bad: malformed rational"):
            scene.param_rat("bad", "0")


def count_builds(monkeypatch) -> list:
    """Record every AffineFlat._from_rows call: the one constructor behind
    spanned_flats and from_points."""
    calls = []
    build = AffineFlat._from_rows.__func__

    def counting(cls, *args):
        calls.append(1)
        return build(cls, *args)

    monkeypatch.setattr(AffineFlat, "_from_rows", classmethod(counting))
    return calls


class TestBeckEnumeratesOnce:
    def test_each_spanned_flat_built_once(self, tmp_path, monkeypatch):
        calls = count_builds(monkeypatch)
        scene = str(SCENES / "beck-generic20.json")
        assert main(["beck", "--scene", scene, "--out", str(tmp_path)]) == EXIT_PASS
        # every line and every plane of 20 generic points, once each
        assert len(calls) == math.comb(20, 2) + math.comb(20, 3) == 1330

    def test_point_budget_checked_before_enumeration(self, tmp_path, monkeypatch):
        calls = count_builds(monkeypatch)
        scene = str(SCENES / "beck-generic20.json")
        code = main(["beck", "--scene", scene, "--budget", "19", "--out", str(tmp_path)])
        assert code == EXIT_BUDGET
        assert calls == []


class TestBeckPointBudget:
    """Left out, --budget leaves beck at dichotomy_report's own point budget
    of 60; given, it applies."""

    def scene(self, tmp_path):
        # 61 points on a parabola, no three collinear
        points = {f"p{x:02d}": [str(x), str(x * x)] for x in range(61)}
        return write_scene(tmp_path, {"ambient_dim": 2, "points": points})

    def test_default_cap_refuses_61_points_before_enumeration(self, tmp_path, monkeypatch, capsys):
        calls = count_builds(monkeypatch)
        assert main(["beck", "--scene", self.scene(tmp_path), "--out", str(tmp_path / "o")]) == EXIT_BUDGET
        assert "point count 61 exceeds budget 60" in capsys.readouterr().err
        assert calls == []

    def test_explicit_budget_applies(self, tmp_path):
        argv = ["beck", "--scene", self.scene(tmp_path), "--budget", "61", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_PASS


class TestStabilityPickBudget:
    """One --budget bounds certification and the minimal rank table: the
    2^2 (1 + 65)^2 = 17,424 (index pair, pick) combinations of the two axes
    of Q^2 with one 65-atom measure each."""

    def scene(self, tmp_path):
        def measure(axis):
            atoms = [["0", "0"] for _ in range(65)]
            for i, atom in enumerate(atoms):
                atom[axis] = f"{i + 1}/128"
            return {"resolution": "1/1024", "uniform_on": atoms}

        body = {
            "ambient_dim": 2,
            "flats": {
                "x_axis": {"basepoint": ["0", "0"], "directions": [["1", "0"]]},
                "y_axis": {"basepoint": ["0", "0"], "directions": [["0", "1"]]},
            },
            "measures": {"on_x": measure(0), "on_y": measure(1)},
            "frames": {"axes": {"flats": ["x_axis", "y_axis"], "measures": [["on_x"], ["on_y"]]}},
        }
        return ["stability", "--scene", write_scene(tmp_path, body), "--out", str(tmp_path / "o")]

    def test_default_budget_reaches_the_rank_table(self, tmp_path):
        assert main(self.scene(tmp_path)) == EXIT_PASS
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert [v["check"] for v in report["verdicts"]] == ["certified", "minimal-rank-rules"]

    def test_budget_one_below_the_combinations_refused_first(self, tmp_path, monkeypatch, capsys):
        def refuse(minors, col):
            raise AssertionError("a wedge ran before the budget check")

        monkeypatch.setattr(flatbeck.stability, "_wedge", refuse)
        assert main(self.scene(tmp_path) + ["--budget", "17423"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert "budget exceeded: 17424 (index, pick) combinations exceed budget 17423" in err

    def test_budget_at_the_combinations_passes(self, tmp_path):
        assert main(self.scene(tmp_path) + ["--budget", "17424"]) == EXIT_PASS


class TestBeckNodeBudget:
    """Past beck.COVER_NODE_BUDGET the cover search stops: beck exits 4 and
    writes no report, so a cut-off search never reads as not concentrated."""

    def scene(self, tmp_path):
        # two skew lines of 8 points: the search expands the root and the
        # node holding the first line
        l1 = [[f"{i}/8", "0", "0"] for i in range(8)]
        l2 = [["0", "1", f"{i}/8"] for i in range(8)]
        points = {f"p{i:02d}": p for i, p in enumerate(l1 + l2)}
        return write_scene(tmp_path, {"ambient_dim": 3, "points": points})

    def test_over_budget_exits_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(flatbeck.beck, "COVER_NODE_BUDGET", 1)
        out = tmp_path / "o"
        assert main(["beck", "--scene", self.scene(tmp_path), "--out", str(out)]) == EXIT_BUDGET
        assert "budget exceeded: cover search exceeds 1 nodes" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_within_budget_passes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flatbeck.beck, "COVER_NODE_BUDGET", 2)
        out = tmp_path / "o"
        assert main(["beck", "--scene", self.scene(tmp_path), "--out", str(out)]) == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        assert (report["concentrated"], report["covered"], report["family_dims"]) == (True, 16, [1, 1])


IRREDUCIBLE = ["project", "--scene", str(SCENES / "stability-axes.json"), "--check", "irreducible"]
DANGLING = [
    (["analyze-flats", "--scene", str(SCENES / "project-nc-lines.json"), "--flats", "l1,nope"], "--flats", "flat"),
    (["decompose", "--scene", str(SCENES / "decompose-skew-lines.json"), "--measure", "nope"], "--measure", "measure"),
    (["stability", "--scene", str(SCENES / "stability-axes.json"), "--frame", "nope"], "--frame", "frame"),
    (["beck", "--scene", str(SCENES / "beck-generic20.json"), "--points", "p00,nope"], "--points", "point"),
    (["thin-verify", "--scene", str(SCENES / "thin-parallel-segments.json"), "--graph", "nope"], "--graph", "graph"),
    (["thin-prune", "--scene", str(SCENES / "thin-parallel-segments.json"), "--graph", "nope"], "--graph", "graph"),
    (
        ["thin-prune", "--scene", str(SCENES / "thin-parallel-segments.json"), "--mode", "against-measure", "--nu", "nope"],
        "--nu",
        "measure",
    ),
    (["pushforward-dim", "--scene", str(SCENES / "thin-parallel-segments.json"), "--graph", "nope"], "--graph", "graph"),
    (["project", "--scene", str(SCENES / "project-nc-lines.json"), "--flats", "l1,nope"], "--flats", "flat"),
    (IRREDUCIBLE + ["--measure", "nope", "--flat", "x_axis", "--center", "y_axis", "--screen", "y_axis"], "--measure", "measure"),
    (IRREDUCIBLE + ["--measure", "on_x", "--flat", "nope", "--center", "y_axis", "--screen", "y_axis"], "--flat", "flat"),
    (IRREDUCIBLE + ["--measure", "on_x", "--flat", "x_axis", "--center", "nope", "--screen", "y_axis"], "--center", "flat"),
    (IRREDUCIBLE + ["--measure", "on_x", "--flat", "x_axis", "--center", "y_axis", "--screen", "nope"], "--screen", "flat"),
]


class TestDanglingReferences:
    @pytest.mark.parametrize("argv, flag, kind", DANGLING, ids=[f"{a[0]} {f}" for a, f, _ in DANGLING])
    def test_each_flag_names_its_dangling_reference(self, argv, flag, kind, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {flag}: dangling {kind} reference 'nope'\n"

    def test_a_left_out_nu_is_a_dangling_reference(self, tmp_path, capsys):
        argv = ["thin-prune", "--scene", str(SCENES / "thin-parallel-segments.json"), "--mode", "against-measure"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: --nu: dangling measure reference None\n"

    @pytest.mark.parametrize("section", ["flats", "measures"])
    def test_a_frame_names_its_dangling_reference(self, section, tmp_path):
        body = json.loads((SCENES / "stability-axes.json").read_text())
        body["frames"]["axes"][section] = [["nope"]] if section == "measures" else ["nope"]
        kind = section[:-1]
        with pytest.raises(SceneError, match=f"^frames.axes: dangling {kind} reference 'nope'$"):
            parse_scene(write_scene(tmp_path, body))


class TestThinVerifyCommand:
    def test_planted_violation_fails_with_witness(self, tmp_path):
        body = {
            "ambient_dim": 2,
            "measures": {
                "a": {"uniform_on": [["-1/2", "1"]], "resolution": "1/64"},
                "b": {
                    "uniform_on": [[str(Fraction(i, 8)), "1"] for i in range(8)],
                    "resolution": "1/64",
                },
            },
            "graphs": {
                "g": {"measures": ["a", "b"], "tuples": [[0, 0]], "sigma": 1.0, "K": 2.0}
            },
        }
        path = write_scene(tmp_path, body)
        out = tmp_path / "out"
        code = main(["thin-verify", "--scene", path, "--scales", "1..4", "--out", str(out)])
        assert code == EXIT_FAIL
        report = json.loads((out / "report.json").read_text())
        bad = [v for v in report["verdicts"] if not v["passed"]]
        assert bad and "tuple" in bad[0]["worst"]

    def test_parallel_segments_pass_and_write_csv(self, tmp_path):
        body = {
            "ambient_dim": 2,
            "measures": {
                "a": {
                    "uniform_on": [[str(Fraction(i, 16)), "0"] for i in range(16)],
                    "resolution": "1/16",
                },
                "b": {
                    "uniform_on": [[str(Fraction(i, 16)), "1"] for i in range(16)],
                    "resolution": "1/16",
                },
            },
            "graphs": {"g": {"measures": ["a", "b"], "sigma": 1.0, "K": 8.0}},
        }
        path = write_scene(tmp_path, body)
        out = tmp_path / "out"
        code = main(["thin-verify", "--scene", path, "--scales", "1..4", "--out", str(out)])
        assert code == EXIT_PASS
        csv_text = (out / "g-scales.csv").read_text().splitlines()
        assert csv_text[0] == "scale,max_mass,bound,ratio"
        assert len(csv_text) == 5

    def test_graph_verified_once(self, tmp_path, monkeypatch):
        import flatbeck.cli
        import flatbeck.thin

        calls = []
        verify = flatbeck.thin.verify_thin_planes

        def counting(*a, **kw):
            calls.append(1)
            return verify(*a, **kw)

        monkeypatch.setattr(flatbeck.cli, "verify_thin_planes", counting)
        monkeypatch.setattr(flatbeck.thin, "verify_thin_planes", counting)
        scene = str(SCENES / "thin-parallel-segments.json")
        assert main(["thin-verify", "--scene", scene, "--out", str(tmp_path)]) == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert [v["check"] for v in report["verdicts"]] == ["thin-planes", "support-flats-nc"]
        assert len(calls) == 1


class TestDecomposeCommand:
    def test_non_nc_scene_fails(self, tmp_path):
        body = {
            "ambient_dim": 3,
            "measures": {
                "m": {
                    "uniform_on": [[str(Fraction(i, 8)), "0", "0"] for i in range(8)],
                    "resolution": "1/64",
                }
            },
            "params": {"w": "0", "theta": "1/2", "tau": "1/2"},
        }
        path = write_scene(tmp_path, body)
        out = tmp_path / "out"
        code = main(["decompose", "--scene", path, "--out", str(out)])
        assert code == EXIT_FAIL
        report = json.loads((out / "report.json").read_text())
        assert "not discretely NC" in report["verdicts"][0]["witness"]

    def test_one_plate_oracle_per_measure(self, tmp_path, monkeypatch):
        """On the README demo, decompose and its verifier integerize each
        measure they read once: the input, the rest of each of the three
        steps and each of the three pieces."""
        built = []
        init = PlateMassOracle.__init__

        def counting(self, mu):
            built.append(mu)
            init(self, mu)

        monkeypatch.setattr(PlateMassOracle, "__init__", counting)
        scene = str(SCENES / "decompose-skew-lines.json")
        assert main(["decompose", "--scene", scene, "--out", str(tmp_path)]) == EXIT_PASS
        assert len({id(mu) for mu in built}) == len(built) == 7

    def test_one_tolerance_pass_per_piece(self, tmp_path, monkeypatch):
        """On the README demo (w = 0), each of the three pieces gets one
        one-flat core call at radii 0 and max(w, resolution)^2 = 1/1048576:
        the verifier's supports check, whose mask of the atoms on the flat
        the modulus walks, so the modulus makes no one-flat call of its
        own.  The nine calls before them are the extraction loop's."""
        radii = []
        counts = PlateMassOracle._flat_counts

        def counting(self, f, radii2, weights):
            radii.append(list(radii2))
            return counts(self, f, radii2, weights)

        monkeypatch.setattr(PlateMassOracle, "_flat_counts", counting)
        scene = str(SCENES / "decompose-skew-lines.json")
        assert main(["decompose", "--scene", scene, "--out", str(tmp_path)]) == EXIT_PASS
        assert radii == [[0]] * 9 + [[0, Fraction(1, 1048576)]] * 3

    def test_every_join_is_a_subset_join(self, tmp_path, monkeypatch):
        """On the README demo, every join the extraction loop and the
        verifier make is a FlatCollection.subset_join, which the partition
        sweep has already made: none is made outside it."""
        real, depth, inside, outside = flatbeck.flats.join, [0], [], []
        subset_join = flatbeck.flatcollect.FlatCollection.subset_join

        def tracking_subset_join(self, idx):
            depth[0] += 1
            try:
                return subset_join(self, idx)
            finally:
                depth[0] -= 1

        def tracking_join(fs):
            (inside if depth[0] else outside).append(len(fs))
            return real(fs)

        for name, module in list(sys.modules.items()):
            if name.startswith("flatbeck") and getattr(module, "join", None) is real:
                monkeypatch.setattr(module, "join", tracking_join)
        monkeypatch.setattr(flatbeck.flatcollect.FlatCollection, "subset_join", tracking_subset_join)
        scene = str(SCENES / "decompose-skew-lines.json")
        assert main(["decompose", "--scene", scene, "--out", str(tmp_path)]) == EXIT_PASS
        assert inside and outside == []


class TestDeterminism:
    def test_same_scene_same_seed_identical_reports(self, tmp_path):
        path = beck_scene(tmp_path, count=10)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["beck", "--scene", path, "--seed", "3", "--out", str(out1)]) == EXIT_PASS
        assert main(["beck", "--scene", path, "--seed", "3", "--out", str(out2)]) == EXIT_PASS
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_readme_lists_seven_demos(self):
        assert [argv[0] for argv in README_DEMOS] == [
            "beck", "decompose", "thin-verify", "thin-prune",
            "pushforward-dim", "stability", "project",
        ]

    @pytest.mark.parametrize("argv", README_DEMOS, ids=lambda argv: argv[0])
    def test_readme_demo_identical_outputs(self, argv, tmp_path, monkeypatch):
        # a relative --out, so the CSV paths the report records agree too
        argv = [str(ROOT / a) if a.startswith("scenes/") else a for a in argv]
        outputs = []
        for run in ("o1", "o2"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert main(argv + ["--seed", "3", "--out", "out"]) == EXIT_PASS
            outputs.append({p.name: p.read_bytes() for p in Path("out").iterdir()})
        assert "report.json" in outputs[0]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", README_DEMOS, ids=lambda argv: argv[0])
    def test_readme_demo_matches_golden(self, argv, tmp_path, monkeypatch):
        """Each README demo at --seed 3 writes the bytes in
        tests/golden/<command>/.  The command runs as README writes it, from
        a directory holding a copy of scenes/, with the relative --out out,
        so no path in the report depends on the checkout; a golden directory
        is refreshed by copying out/ from such a run."""
        shutil.copytree(SCENES, tmp_path / "scenes")
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--seed", "3", "--out", "out"]) == EXIT_PASS
        golden = GOLDEN / argv[0]
        got = {p.name: p.read_bytes() for p in Path("out").iterdir()}
        assert got == {p.name: p.read_bytes() for p in golden.iterdir()}


def count_numerator_passes(monkeypatch) -> list:
    """Record the number of spans in every call of the plate oracle's two
    integer cores, PlateMassOracle._counts and _hyperplane_counts, which
    each evaluate a batch of spans; every mass and count goes through one of
    them."""
    calls = []
    for name in ("_counts", "_hyperplane_counts"):

        def counting(self, spans, *args, core=getattr(PlateMassOracle, name)):
            calls.append(len(spans))
            return core(self, spans, *args)

        monkeypatch.setattr(PlateMassOracle, name, counting)
    return calls


class TestThinPruneMeasuresOnce:
    # 32 x 32 pairs: the planes prune measures each pair's span against
    # both measures once (2,048 spans); the conversion's two tube checks
    # measure each (centre, direction) line once each way (2,048), and
    # those counts also give the full line counts that the removal and the
    # output verdict read
    @pytest.mark.parametrize("mode, expected", [("planes", 2048), ("tubes2planes", 2048)])
    def test_output_verified_from_masses_in_hand(self, mode, expected, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the output was measured again")

        monkeypatch.setattr(flatbeck.cli, "verify_thin_planes", refuse)
        monkeypatch.setattr(flatbeck.thin, "verify_thin_planes", refuse)
        calls = count_numerator_passes(monkeypatch)
        scene = str(SCENES / "thin-parallel-segments.json")
        argv = ["thin-prune", "--scene", scene, "--mode", mode, "--out", str(tmp_path)]
        assert main(argv) == EXIT_PASS
        assert sum(calls) == expected

    def test_window_below_resolution_refused_before_pruning(self, tmp_path, monkeypatch, capsys):
        calls = count_numerator_passes(monkeypatch)
        scene = str(SCENES / "thin-parallel-segments.json")
        argv = ["thin-prune", "--scene", scene, "--scales", "1..9", "--out", str(tmp_path)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().out == ""
        assert calls == []


class TestThinPruneAgainstMeasure:
    def test_demo_graph_against_its_bottom_measure(self, tmp_path):
        """Pruning the demo graph against its own bottom measure removes
        nothing, and the report gives what prune_against_measure gives."""
        path = SCENES / "thin-parallel-segments.json"
        argv = ["thin-prune", "--scene", str(path), "--mode", "against-measure", "--nu", "bottom", "--out", str(tmp_path)]
        assert main(argv) == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert (report["delta0"], report["removed_mass"]) == ("1/2", "0")
        assert report["verdicts"] == [{"check": "prune-budget", "passed": True, "witness": None}]
        scene = parse_scene(str(path))
        out = prune_against_measure(scene.graphs["segments"], scene.measures["bottom"], Fraction(1, 4), dyadic_scales(5, 1))
        assert (out.delta0, out.removed_mass, out.k_prime, out.ok) == (Fraction(1, 2), 0, report["k_prime"], True)


class TestThinVerifyTubesAndDensity:
    def segments_body(self, claimed=None, **fields):
        g = {"measures": ["a", "b"], "sigma": 1.0, "K": 8.0, **fields}
        if claimed is not None:
            g["c"] = claimed
        return {
            "ambient_dim": 2,
            "measures": {
                "a": {
                    "uniform_on": [[str(Fraction(i, 16)), "0"] for i in range(16)],
                    "resolution": "1/16",
                },
                "b": {
                    "uniform_on": [[str(Fraction(i, 16)), "1"] for i in range(16)],
                    "resolution": "1/16",
                },
            },
            "graphs": {"g": g},
        }

    def test_tube_mode(self, tmp_path):
        path = write_scene(tmp_path, self.segments_body())
        out = tmp_path / "out"
        code = main(["thin-verify", "--scene", path, "--tubes", "--scales", "1..4", "--out", str(out)])
        assert code == EXIT_PASS

    def test_unsatisfiable_density_claim_fails(self, tmp_path):
        path = write_scene(tmp_path, self.segments_body(claimed=1.5))
        out = tmp_path / "out"
        code = main(["thin-verify", "--scene", path, "--scales", "1..4", "--out", str(out)])
        assert code == EXIT_FAIL

    @pytest.mark.parametrize(
        "claimed, code",
        [
            ("1/4", EXIT_PASS),
            ("1/2", EXIT_PASS),
            ("2/3", EXIT_FAIL),
            # 1/2 + 10^-20: a double cannot tell it from 1/2
            ("50000000000000000001/100000000000000000000", EXIT_FAIL),
        ],
    )
    def test_density_claim_is_exact(self, tmp_path, claimed, code):
        # the 128 of 256 pairs (i, j) with i + j odd: density exactly 1/2
        tuples = [[i, j] for i in range(16) for j in range(16) if (i + j) % 2]
        path = write_scene(tmp_path, self.segments_body(claimed, tuples=tuples))
        out = tmp_path / "out"
        assert main(["thin-verify", "--scene", path, "--scales", "1..4", "--out", str(out)]) == code
        verdict = json.loads((out / "report.json").read_text())["verdicts"][0]
        if code == EXIT_FAIL:
            assert verdict["witness"] == f"density 1/2 below required {Fraction(claimed)}"

    def test_rational_sigma_reads_as_its_decimal(self, tmp_path):
        # one scene path and output directory, so only sigma differs
        out = tmp_path / "out"
        runs = []
        for sigma in (0.5, "1/2"):
            path = write_scene(tmp_path, self.segments_body(sigma=sigma))
            code = main(["thin-verify", "--scene", path, "--scales", "1..4", "--out", str(out)])
            runs.append((code, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0] == runs[1]

    def test_sigma_and_k_are_exact(self, tmp_path):
        scene = parse_scene(write_scene(tmp_path, self.segments_body(sigma=0.29, K="20/3")))
        g = scene.graphs["g"]
        assert (g.sigma_exact, g.k_exact) == (Fraction(29, 100), Fraction(20, 3))
        assert (g.sigma, g.big_k) == (0.29, 20 / 3)

    def test_sigma_with_a_binary_denominator_exits_budget(self, tmp_path, capsys):
        # the double nearest 0.1, written exactly: its denominator is 2^55
        path = write_scene(tmp_path, self.segments_body(sigma=str(Fraction(0.1))))
        argv = ["thin-verify", "--scene", path, "--scales", "1..4", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_BUDGET
        assert "budget exceeded" in capsys.readouterr().err

    def test_prune_epsilon_is_exact(self, tmp_path):
        # epsilon 0.1 is 1/10, so the output claims sigma - eps = 9/10; as a
        # double it would have a 2^55 denominator and exceed the root budget
        body = self.segments_body()
        body["params"] = {"epsilon": 0.1}
        path = write_scene(tmp_path, body)
        argv = ["thin-prune", "--scene", path, "--scales", "1..4", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_PASS

    @pytest.mark.parametrize("field, value", [("sigma", "x"), ("sigma", True), ("K", [1]), ("c", "x")])
    def test_malformed_number_is_input_error(self, tmp_path, capsys, field, value):
        path = write_scene(tmp_path, self.segments_body(**{field: value}))
        assert main(["thin-verify", "--scene", path, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert f"graphs.g.{field}: malformed rational" in capsys.readouterr().err


class TestProjectIrreducibleCommand:
    GRID = [[str(Fraction(i, 8)), str(Fraction(j, 8)), "0"] for i in range(-4, 5) for j in range(-4, 5)]

    SCREEN = {"basepoint": ["0", "-3/4", "0"], "directions": [["1", "0", "0"]]}

    def run(self, tmp_path, measure, screen=SCREEN, scene=None, out=None, eps="1/8"):
        body = {
            "ambient_dim": 3,
            "flats": {
                "v": {"basepoint": ["0", "0", "0"], "directions": [["1", "0", "0"], ["0", "1", "0"]]},
                "q": {"basepoint": ["1/16", "1/16", "0"], "directions": [["0", "0", "1"]]},
                "u": screen,
            },
            "measures": {"m": measure},
            "params": {"w": "1/8", "tau": "2/5", "eps": eps},
        }
        path = write_scene(tmp_path, body)
        return main(
            [
                "project", "--scene", scene or path, "--check", "irreducible",
                "--measure", "m", "--flat", "v", "--center", "q", "--screen", "u",
                "--out", out or str(tmp_path / "out"),
            ]
        )

    def test_plane_scene(self, tmp_path):
        out = tmp_path / "out"
        code = self.run(tmp_path, {"uniform_on": self.GRID, "resolution": "1/1024"})
        assert code == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"][0]["check"] == "projected-irreducibility"

    def test_plane_scene_matches_golden(self, tmp_path, monkeypatch):
        """The report, run from the scene's directory with the relative
        --out out, is the bytes in tests/golden/project-irreducible/."""
        monkeypatch.chdir(tmp_path)
        code = self.run(tmp_path, {"uniform_on": self.GRID, "resolution": "1/1024"}, scene="scene.json", out="out")
        assert code == EXIT_PASS
        golden = GOLDEN / "project-irreducible"
        got = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert got == {p.name: p.read_bytes() for p in golden.iterdir()}

    def test_zero_eps_trims_nothing(self, tmp_path):
        """eps = 0 is read as given, not as w: no atom is trimmed."""
        code = self.run(tmp_path, {"uniform_on": self.GRID, "resolution": "1/1024"}, eps="0")
        assert code == EXIT_PASS
        assert json.loads((tmp_path / "out" / "report.json").read_text())["kept_mass"] == "1"

    @pytest.mark.parametrize(
        "screen",
        [
            {"basepoint": ["0", "1/16", "5"], "directions": [["1", "0", "0"]]},
            {"basepoint": ["0", "-3/4", "0"], "directions": [["0", "0", "1"]]},
        ],
        ids=["meets-center", "shares-direction"],
    )
    def test_non_complementary_screen_is_an_input_error(self, tmp_path, capsys, screen):
        """A screen that meets the center line, or runs along it, is refused
        before any atom is projected, not read as a failed check (exit 1)."""
        code = self.run(tmp_path, {"uniform_on": self.GRID, "resolution": "1/1024"}, screen)
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "input error: centre and screen are not complementary\n"

    def test_zero_mass_measure_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("candidates enumerated for a zero-mass measure")

        monkeypatch.setattr(flatbeck.measures, "_normals", refuse)
        code = self.run(tmp_path, {"atoms": [[p, "0"] for p in self.GRID], "resolution": "1/1024"})
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "input error: measure has zero total mass\n"


class TestAnalyzeFlats:
    def test_axes_are_nc(self, tmp_path):
        body = {
            "ambient_dim": 2,
            "flats": {
                "x": {"basepoint": ["0", "0"], "directions": [["1", "0"]]},
                "y": {"basepoint": ["0", "0"], "directions": [["0", "1"]]},
            },
        }
        path = write_scene(tmp_path, body)
        out = tmp_path / "out"
        assert main(["analyze-flats", "--scene", path, "--out", str(out)]) == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        assert report["cost"] == 2
        assert report["minimizing_partition_count"] == 2
