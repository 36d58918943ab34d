import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hnbody
from hnbody.cli import MAX_COUNT, main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


SIMULATE_DOC = {
    "R": 1.0,
    "masses": [1.0, 1.0],
    "bodies": [[0.0, 1.0, 0.6, 0.0], [0.0, 2.0, -0.6, 0.0]],
    "integrator": {"tol": 1e-10, "t_end": 1.0},
    "seed": 7,
}


class TestSimulate:
    def test_writes_trajectory_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIMULATE_DOC)
        code, out = run(tmp_path, "simulate", "--config", cfg)
        assert code == 0
        assert (out / "trajectory.csv").exists()
        sidecar = json.loads((out / "trajectory.json").read_text())
        assert sidecar["energy_drift"] < 1e-7
        assert sidecar["stats"]["steps"] > 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,k,re,im,vre,vim"
        stdout = json.loads(capsys.readouterr().out)
        assert stdout["ok"] is True

    def test_single_body_geodesic(self, tmp_path):
        doc = {
            "R": 1.0,
            "masses": [1.0],
            "bodies": [[0.0, 1.0, 1.0, 0.0]],
            "integrator": {"tol": 1e-11, "t_end": 1.0},
        }
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "simulate", "--config", cfg)
        assert code == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        for row in rows:
            _, _, re, im, _, _ = row.split(",")
            assert abs(math.hypot(float(re), float(im)) - 1.0) < 1e-8

    def test_invalid_body_exits_one(self, tmp_path, capsys):
        doc = dict(SIMULATE_DOC, bodies=[[0.0, -1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "simulate", "--config", cfg)
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "validation"
        assert "bodies[0].im" in err["message"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = dict(SIMULATE_DOC, extra=1)
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "simulate", "--config", cfg)
        assert code == 1
        assert "extra" in json.loads(capsys.readouterr().out)["error"]["message"]

    def test_collision_exits_two(self, tmp_path, capsys):
        doc = dict(SIMULATE_DOC, bodies=[[0.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "simulate", "--config", cfg)
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "singularity"


    def test_stage_verdict_message_carries_time(self, tmp_path, capsys):
        # this isometric image of the head-on pair ends on a stage singularity
        # re-raised after the step size collapses
        doc = {
            "R": 1.0,
            "masses": [1.0, 1.0],
            "bodies": [[-1.0161834498523206, 1.6966982366103516, 0.0, 0.0],
                       [-1.1414353363105139, 0.8545282634064033, 0.0, 0.0]],
            "integrator": {"tol": 1e-8, "t_end": 2.0},
        }
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "simulate", "--config", cfg)
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "singularity"
        assert err["message"].startswith("pair (0, 1) touched the singular set at t = 0.34")


class TestEquilibria:
    def test_find_elliptic(self, tmp_path):
        doc = {
            "R": 1.0,
            "masses": [1.0, 1.0],
            "bodies": [[0.0, 2.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]],
            "equilibria": {"class": "elliptic-cyclic", "symmetry": "axis"},
        }
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "equilibria", "find", "--config", cfg)
        assert code == 0
        rep = json.loads((out / "equilibrium.json").read_text())
        assert rep["residual_inf_norm"] < 1e-10
        a_star = math.sqrt(1.0 + math.sqrt(2.0))
        found = rep["state"]["bodies"][0][1]
        assert abs(found - a_star) < 1e-8
        # equal masses: the two circle parameters coincide (ordinates a, 1/a)
        other = rep["state"]["bodies"][1][1]
        assert found * other == pytest.approx(1.0, abs=1e-8)

    def test_find_nonexistent_class_exits_one(self, tmp_path, capsys):
        doc = {
            "R": 1.0,
            "masses": [1.0, 1.0],
            "bodies": [[0.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]],
            "equilibria": {"class": "parabolic-cyclic"},
        }
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "equilibria", "find", "--config", cfg)
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "nonexistent-class"
        assert "nonexistent class" in err["message"]

    def test_check_perturbed_state(self, tmp_path):
        doc = {
            "R": 1.0,
            "masses": [1.0, 1.0],
            "bodies": [[0.0, 1.9, 0.0, 0.0], [0.0, 0.52, 0.0, 0.0]],
            "equilibria": {"class": "elliptic-cyclic"},
        }
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "equilibria", "check", "--config", cfg)
        assert code == 0
        rep = json.loads((out / "equilibrium.json").read_text())
        assert rep["inf_norm"] > 0
        assert len(rep["residual"]) == 2

    def test_check_cyclic_params(self, tmp_path):
        doc = {
            "R": 1.0,
            "masses": [1.0, 1.0],
            "equilibria": {
                "class": "parabolic-cyclic",
                "alpha": [0.0, 0.0],
                "beta": [1.0, 2.0],
                "s": 0.0,
            },
        }
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "equilibria", "check", "--config", cfg)
        assert code == 0
        rep = json.loads((out / "equilibrium.json").read_text())
        assert rep["real_parts"] == [0.0, 0.0]

    @pytest.mark.parametrize("section", [
        {"class": "elliptic-cyclic"},
        {"class": "hyperbolic-normal"},
        {"class": "parabolic-cyclic", "alpha": [0.3, 0.3], "beta": [0.5, 0.5], "s": 0.1},
        {"class": "hyperbolic-cyclic", "alpha": [0.9, 0.9], "beta": [-0.2, -0.2]},
    ])
    def test_check_coincident_bodies_names_the_pair(self, tmp_path, capsys, section):
        doc = {
            "R": 1.0,
            "masses": [1.0, 1.0],
            "bodies": [[0.2, 1.0, 0.0, 0.0], [0.2, 1.0, 0.0, 0.0]],
            "equilibria": section,
        }
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "equilibria", "check", "--config", cfg)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert json.loads(captured.out)["error"] == {
            "code": "validation",
            "message": "pair (0, 1) touches the singular set (theta = 0)",
        }
        assert not out.exists()

    def test_no_convergence_exits_three(self, tmp_path, capsys):
        doc = {
            "R": 1.0,
            "masses": [1.0, 1.0],
            "bodies": [[0.0, 50.0, 0.0, 0.0], [0.0, 0.01, 0.0, 0.0]],
            "equilibria": {"class": "elliptic-cyclic", "symmetry": "axis", "max_iter": 2},
        }
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "equilibria", "find", "--config", cfg)
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "no-convergence"

    def test_class_flag_overrides(self, tmp_path, capsys):
        doc = {
            "R": 1.0,
            "masses": [1.0, 1.0],
            "bodies": [[0.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]],
            "equilibria": {"class": "elliptic-cyclic"},
        }
        cfg = write_config(tmp_path, doc)
        code, _ = run(
            tmp_path, "equilibria", "find", "--config", cfg, "--class", "hyperbolic-cyclic"
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "nonexistent-class"


class TestCertify:
    def test_parabolic_certificate(self, tmp_path):
        doc = {"seed": 7, "certify": {"class": "parabolic-cyclic", "n": 2, "samples": 100}}
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "certify", "--config", cfg)
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] is True
        assert cert["reference_sample"]["lhs"] == pytest.approx(1.0 / 64.0)
        assert cert["reference_sample"]["rhs"] == pytest.approx(-1.0 / 9.0)

    def test_samples_flag_overrides(self, tmp_path):
        doc = {"seed": 7, "certify": {"class": "hyperbolic-cyclic", "n": 3, "samples": 5}}
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "certify", "--config", cfg, "--samples", "17")
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["sample_count"] == 17

    def test_zero_samples_exits_one(self, tmp_path):
        doc = {"certify": {"class": "parabolic-cyclic", "n": 2, "samples": 0}}
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "certify", "--config", cfg)
        assert code == 1

    def test_invalid_class_exits_one(self, tmp_path):
        doc = {"certify": {"class": "elliptic-cyclic", "n": 2, "samples": 5}}
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "certify", "--config", cfg)
        assert code == 1


    @pytest.mark.parametrize("command", ["certify", "map"])
    def test_negative_seed_flag_exits_one(self, tmp_path, capsys, command):
        doc = {"certify": {"class": "parabolic-cyclic", "n": 2, "samples": 5}} if command == "certify" \
            else {"R": 1.0, "map": {"samples": 4}}
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, command, "--config", cfg, "--seed", "-1")
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "validation"
        assert err["message"].startswith("--seed")


class TestFlow:
    def test_parabolic_samples_match_closed_form(self, tmp_path):
        doc = {
            "flow": {
                "kind": "rotation",
                "sigma": 0,
                "points": [[0.0, 1.0]],
                "t_min": 0.0,
                "t_max": 0.7,
                "num": 8,
            }
        }
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "flow", "--config", cfg)
        assert code == 0
        rep = json.loads((out / "flow.json").read_text())
        assert rep["max_derivative_defect"] < 1e-6
        rows = (out / "flow.csv").read_text().splitlines()
        assert rows[0] == "t,s,k,re,im"
        from hnbody.flows import flow
        from hnbody.clifford import ROTATION_PARABOLIC

        t, s, k, re, im = rows[3].split(",")
        w = flow(ROTATION_PARABOLIC, 1j, float(t))
        assert float(re) == pytest.approx(w.real, abs=1e-14)
        assert float(im) == pytest.approx(w.imag, rel=1e-12)

    def test_pole_crossing_exits_one(self, tmp_path, capsys):
        doc = {
            "flow": {
                "kind": "rotation",
                "sigma": 0,
                "points": [[1.0, 1.0]],  # pole at pi/4
                "t_min": 0.0,
                "t_max": 1.2,
                "num": 5,
            }
        }
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "flow", "--config", cfg)
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "flow-pole"


    @pytest.mark.parametrize("sigma", [True, 1.0, 2, "1"])
    def test_sigma_must_be_an_integer_in_range(self, tmp_path, capsys, sigma):
        doc = {"flow": {"kind": "rotation", "sigma": sigma, "points": [[0.0, 1.0]], "t_max": 0.5}}
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "flow", "--config", cfg)
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "validation"
        assert err["message"].startswith("flow.sigma")


class TestInvariance:
    def test_geodesic_under_scaling(self, tmp_path):
        doc = {
            "R": 1.0,
            "masses": [1.0],
            "bodies": [[0.0, 1.0, 1.0, 0.0]],
            "integrator": {"tol": 1e-12, "t_end": 1.0, "max_step": 0.004},
            "invariance": {"kind": "normal", "group_time": 0.9},
        }
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "invariance", "--config", cfg)
        assert code == 0
        rep = json.loads((out / "invariance.json").read_text())
        assert rep["max_residual"] < 1e-8
        assert rep["transport"] == "normal"

    def test_loxodromic_kind(self, tmp_path):
        doc = {
            "R": 1.0,
            "masses": [1.0],
            "bodies": [[0.0, 1.0, 1.0, 0.0]],
            "integrator": {"tol": 1e-12, "t_end": 1.0, "max_step": 0.004},
            "invariance": {"kind": "loxodromic", "group_time": 0.5},
        }
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "invariance", "--config", cfg)
        assert code == 0
        rep = json.loads((out / "invariance.json").read_text())
        assert rep["transport"] == "loxodromic"
        assert rep["max_residual"] < 1e-8


class TestMap:
    def test_round_trip_points(self, tmp_path):
        doc = {"R": 2.0, "map": {"points": [[0.0, 2.0], [1.0, 0.5], [-3.0, 4.0]]}}
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "map", "--config", cfg)
        assert code == 0
        rep = json.loads((out / "map.json").read_text())
        assert rep["max_roundtrip_error"] < 1e-12
        assert rep["count"] == 3

    def test_seeded_samples(self, tmp_path):
        doc = {"R": 1.0, "seed": 5, "map": {"samples": 64}}
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "map", "--config", cfg)
        assert code == 0
        rep = json.loads((out / "map.json").read_text())
        assert rep["count"] == 64
        assert rep["max_roundtrip_error"] < 1e-12


class TestVlasov:
    def test_two_body_residual(self, tmp_path):
        doc = {
            "R": 1.0,
            "masses": [1.0, 1.0],
            "bodies": [
                [0.0, 1.5537739740300374, -1.4142135623730945, 0.0],
                [0.0, 0.6435942529055826, 0.5857864376269051, 0.0],
            ],
            "integrator": {"tol": 1e-12, "t_end": 2.0, "max_step": 0.005},
        }
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "vlasov", "--config", cfg)
        assert code == 0
        rep = json.loads((out / "vlasov.json").read_text())
        assert rep["residual"] < 1e-6
        assert rep["per_test"]["one"] == 0.0


    def test_six_tests_share_one_sampled_grid(self, tmp_path, monkeypatch):
        from hnbody.dynamics import Trajectory, default_test_functions

        calls = []
        sample_many = Trajectory.sample_many

        def counted(self, ts):
            calls.append(len(ts))
            return sample_many(self, ts)

        monkeypatch.setattr(Trajectory, "sample_many", counted)
        doc = {**SIMULATE_DOC, "vlasov": {"num_points": 101}}
        code, out = run(tmp_path, "vlasov", "--config", write_config(tmp_path, doc))
        assert code == 0
        rep = json.loads((out / "vlasov.json").read_text())
        assert len(rep["per_test"]) == len(default_test_functions()) == 6
        assert calls == [101]


class TestDeterminism:
    def test_certify_byte_identical(self, tmp_path):
        doc = {"seed": 11, "certify": {"class": "parabolic-cyclic", "n": 3, "samples": 50}}
        cfg = write_config(tmp_path, doc)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "certificate.json").read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SIMULATE_DOC)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            blobs.append(
                (out / "trajectory.csv").read_bytes() + (out / "trajectory.json").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_map_byte_identical_under_seed_flag(self, tmp_path):
        doc = {"R": 1.0, "map": {"samples": 32}}
        cfg = write_config(tmp_path, doc)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["map", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
            blobs.append((out / "map.csv").read_bytes())
        assert blobs[0] == blobs[1]


CERTIFY_DOC = {"certify": {"class": "parabolic-cyclic", "n": 2, "samples": 3}}
INVARIANCE_DOC = {**SIMULATE_DOC, "invariance": {"kind": "normal", "group_time": 0.5}}
FIND_DOC = {**SIMULATE_DOC, "equilibria": {"class": "elliptic-cyclic", "symmetry": "axis"}}


def _json_bytes(doc) -> bytes:
    return json.dumps(doc).encode()


# id -> (argv before --config/--out, config bytes, error field path, whole reason or
# None).  Every case exits 1 with one "validation" error object; "{out}" in argv
# stands for an existing file.
BAD_INPUTS = {
    "no-config": (["simulate"], None, "hnbody simulate", None),
    "seed-not-an-integer": (["certify", "--seed", "abc"], _json_bytes(CERTIFY_DOC), "--seed", None),
    "samples-not-an-integer": (["certify", "--samples", "x"], _json_bytes(CERTIFY_DOC), "--samples", None),
    "equilibria-without-mode": (["equilibria"], _json_bytes(FIND_DOC), "hnbody equilibria", None),
    "not-utf8": (["simulate"], b'{"R": 1.0, "\xff": 1}', "--config", None),
    "integer-over-4300-digits": (["simulate"], b'{"R": 1' + b"0" * 5000 + b"}", "--config", None),
    "deeply-nested": (["simulate"], b"[" * 200_000, "--config", None),
    "overflowing-integer": (
        ["simulate"], _json_bytes({**SIMULATE_DOC, "R": 10 ** 400}), "R", "must be finite"
    ),
    "out-is-a-file": (["certify", "--out", "{out}"], _json_bytes(CERTIFY_DOC), "--out", None),
    "loxodromic-sigma": (
        ["invariance"],
        _json_bytes({**INVARIANCE_DOC, "invariance": {"kind": "loxodromic", "sigma": "zzz", "group_time": 0.5}}),
        "invariance.sigma",
        "must be an integer",
    ),
    "invariance-kind": (
        ["invariance"],
        _json_bytes({**INVARIANCE_DOC, "invariance": {"kind": "spiral", "group_time": 0.5}}),
        "invariance.kind",
        "must be normal, nilpotent, rotation or loxodromic",
    ),
    "find-masses-shorter-than-bodies": (
        ["equilibria", "find"], _json_bytes({**FIND_DOC, "masses": [1.0]}), "masses", "length must match bodies"
    ),
}


class TestBadInputs:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_one_json_error_object(self, tmp_path, capsys, case):
        head, config, path, reason = BAD_INPUTS[case]
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = [str(blocker) if a == "{out}" else a for a in head]
        if config is not None:
            (tmp_path / "config.json").write_bytes(config)
            argv += ["--config", str(tmp_path / "config.json")]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert captured.out.startswith("{") and captured.out.endswith("}\n")
        err = json.loads(captured.out)["error"]  # raises on a second object
        assert err["code"] == "validation"
        assert err["message"].startswith(f"{path}: ")
        if reason is not None:
            assert err["message"] == f"{path}: {reason}"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hnbody simulate")


# field -> (row width, config holding the rows, command) for the three point readers
POINT_FIELDS = {
    "bodies": (4, lambda rows: {**SIMULATE_DOC, "masses": [1.0] * max(1, len(rows)), "bodies": rows}, "simulate"),
    "flow.points": (2, lambda rows: {"flow": {"kind": "normal", "points": rows, "t_max": 0.5}}, "flow"),
    "map.points": (2, lambda rows: {"R": 1.0, "map": {"points": rows}}, "map"),
}


def _after_good_row(bad_row):
    return lambda w: [[0.0, 1.0] + [0.0] * (w - 2), bad_row(w)]


# fault -> (rows given the width, field suffix, reason given the width)
POINT_FAULTS = {
    "empty": (lambda w: [], "", lambda w: "must be a nonempty list"),
    "not-a-list": (_after_good_row(lambda w: "x"), "[1]", lambda w: f"must be a list of {w} numbers"),
    "short": (_after_good_row(lambda w: [0.0] * (w - 1)), "[1]", lambda w: f"must be a list of {w} numbers"),
    "re-not-a-number": (_after_good_row(lambda w: ["a"] + [1.0] * (w - 1)), "[1].re", lambda w: "must be a number"),
    "im-not-positive": (_after_good_row(lambda w: [0.0, -1.0] + [0.0] * (w - 2)), "[1].im", lambda w: "must be > 0"),
    "im-overflows": (
        _after_good_row(lambda w: [0.0, 10 ** 400] + [0.0] * (w - 2)), "[1].im", lambda w: "must be finite"
    ),
}


@pytest.mark.parametrize("fault", sorted(POINT_FAULTS))
def test_three_point_fields_give_the_same_messages(tmp_path, capsys, fault):
    rows, suffix, reason = POINT_FAULTS[fault]
    for field, (width, make_doc, command) in POINT_FIELDS.items():
        cfg = write_config(tmp_path, make_doc(rows(width)), name=f"{command}.json")
        code, _ = run(tmp_path, command, "--config", cfg)
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["message"] == f"{field}{suffix}: {reason(width)}"


def test_non_finite_derivative_exits_three(tmp_path):
    # v = 1e300 squares to inf: the run must end as an integrator failure, not
    # loop on a NaN step size (a child process bounds the wait if it does not)
    doc = {"R": 1.0, "masses": [1.0], "bodies": [[0.0, 1.0, 1e300, 0.0]],
           "integrator": {"tol": 1e-10, "t_end": 0.1}}
    cfg = write_config(tmp_path, doc)
    src = os.path.dirname(os.path.dirname(hnbody.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hnbody", "simulate", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3
    err = json.loads(proc.stdout)["error"]
    assert err["code"] == "integrator-failure"
    assert err["message"] == "non-finite derivative at t = 0.0"


# count field -> (command, config holding the count)
COUNT_FIELDS = {
    "flow.num": ("flow", lambda c: {"flow": {"kind": "normal", "points": [[0.0, 1.0]], "t_max": 0.5, "num": c}}),
    "certify.n": ("certify", lambda c: {"certify": {"class": "parabolic-cyclic", "n": c, "samples": 3}}),
    "certify.samples": ("certify", lambda c: {"certify": {"class": "parabolic-cyclic", "n": 2, "samples": c}}),
    "invariance.num_points": (
        "invariance", lambda c: {**INVARIANCE_DOC, "invariance": {"kind": "normal", "group_time": 0.5, "num_points": c}}
    ),
    "map.samples": ("map", lambda c: {"R": 1.0, "map": {"samples": c}}),
    "vlasov.num_points": ("vlasov", lambda c: {**SIMULATE_DOC, "vlasov": {"num_points": c}}),
}


@pytest.mark.parametrize("count", [MAX_COUNT + 1, 10 ** 30])
@pytest.mark.parametrize("field", sorted(COUNT_FIELDS))
def test_counts_above_the_cap_are_validation_errors(tmp_path, capsys, field, count):
    command, make_doc = COUNT_FIELDS[field]
    cfg = write_config(tmp_path, make_doc(count))
    code, out = run(tmp_path, command, "--config", cfg)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert json.loads(captured.out)["error"] == {"code": "validation", "message": f"{field}: must be <= {MAX_COUNT}"}
    assert not out.exists()
