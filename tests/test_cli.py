import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hnbody
from hnbody import cli, dynamics, equilibria, reports
from hnbody.equilibria import SYMMETRIES, EquilibriumClass
from hnbody.cli import MAX_COUNT, MAX_WORK, _build_parser, main


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

    def test_max_steps_that_sum_short_of_t_end_end_on_it(self, tmp_path, capsys):
        # ten steps of 0.1 sum to 1 - 1.1e-16: the last one is stretched onto t_end
        doc = {"R": 1, "masses": [1], "bodies": [[0, 1, 0.001, 0]],
               "integrator": {"t_end": 1, "tol": 1e-10, "max_step": 0.1}}
        code, out = run(tmp_path, "simulate", "--config", write_config(tmp_path, doc))
        assert code == 0, capsys.readouterr().out
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 12 and rows[-1].startswith("1,0,")

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

    def test_step_underflow_far_from_the_singular_set_exits_three(self, tmp_path, capsys):
        # a speed of 1e16 gives a first step below the step floor with the pair at d ~ 3.3
        doc = {**SIMULATE_DOC, "bodies": [[0, 1, 0, -1e16], [5, 1, 0, 0]]}
        code, out = run(tmp_path, "simulate", "--config", write_config(tmp_path, doc))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        assert json.loads(captured.out)["error"] == {
            "code": "integrator-failure", "message": "step size underflow at t = 0.0"
        }
        assert not out.exists()

    @pytest.mark.parametrize("command, section", [
        ("simulate", {}),
        ("invariance", {"invariance": {"kind": "normal", "group_time": 0.5}}),
        ("vlasov", {"vlasov": {"num_points": 21}}),
    ])
    def test_a_run_past_its_step_budget_exits_three(self, tmp_path, capsys, monkeypatch, command, section):
        # the README orbit to t_end 1e12 took steps without end; the bound on the steps
        # max_step asks for, min(MAX_COUNT, MAX_WORK // n), also bounds the attempts
        monkeypatch.setattr(cli, "MAX_COUNT", 50)
        doc = {**SIMULATE_DOC, "integrator": {"tol": 1e-10, "t_end": 1e12}, **section}
        code, out = run(tmp_path, command, "--config", write_config(tmp_path, doc))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        err = json.loads(captured.out)["error"]  # one JSON object and nothing else
        assert err["code"] == "integrator-failure"
        assert re.fullmatch(r"step budget of 50 attempts exhausted at t = 0\.\d+(e-\d+)?", err["message"])
        assert not out.exists()


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

    @pytest.mark.parametrize("cls, masses, bodies, symmetry, unknowns", [
        ("elliptic-cyclic", [1.0, 2.0], [[0.0, 2.0], [0.0, 0.5]], "axis", 2),
        ("elliptic-cyclic", [1.0, 2.0, 1.5], [[0.0, 3.0], [0.0, 1.5], [0.0, 0.5]], "axis", 3),
        ("hyperbolic-normal", [1.0, 1.0], [[0.9, 1.0], [-0.9, 1.0]], "mirror", 2),
        ("elliptic-cyclic", [1.0, 2.0], [[0.05, 1.9], [-0.03, 0.52]], "none", 4),
    ])
    def test_find_builds_one_kernel_workspace_per_residual_shape(self, tmp_path, monkeypatch, cls, masses, bodies,
                                                                   symmetry, unknowns):
        # the solver's residual rows and the Jacobian's stacked (2p, p) rows keep one workspace each; the
        # report is the one of a workspace built afresh for every residual call, iterations and bytes
        n = len(bodies)
        doc = {"R": 1.0, "masses": masses, "bodies": [[*b, 0.0, 0.0] for b in bodies],
               "equilibria": {"class": cls, "symmetry": symmetry}}
        cfg = write_config(tmp_path, doc)

        def find(name):
            out = tmp_path / name
            assert main(["equilibria", "find", "--config", cfg, "--out", str(out)]) == 0
            return (out / "equilibrium.json").read_bytes()

        interaction = equilibria._interaction
        with monkeypatch.context() as patch:
            patch.setattr(equilibria, "_interaction", lambda w, masses, ws=None: interaction(w, masses))
            fresh = find("fresh")
        built = []

        class Counted(equilibria._Workspace):
            def __init__(self, shape):
                built.append(shape)
                super().__init__(shape)

        monkeypatch.setattr(equilibria, "_Workspace", Counted)
        assert find("kept") == fresh
        assert json.loads(fresh)["iterations"] > 0
        # the CLI's two condition_sides, the end check of the find, and the solver's two shapes
        assert sorted(built) == [(n,)] * 4 + [(2 * unknowns, n)]

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
        assert code == 2
        assert captured.err == ""
        assert json.loads(captured.out)["error"] == {
            "code": "singularity",
            "message": "pair (0, 1) touched the singular set (theta = 0.000e+00)",
        }
        assert not out.exists()

    def test_check_underflowing_kernel_divisor_names_the_pair(self, tmp_path, capsys):
        # theta = 1.6e-239 is positive, but theta^{3/2} underflows to 0
        doc = {
            "R": 1.0,
            "masses": [1.0, 1.0],
            "bodies": [[1e-120, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
            "equilibria": {"class": "elliptic-cyclic"},
        }
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "equilibria", "check", "--config", cfg)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert json.loads(captured.out)["error"] == {
            "code": "singularity",
            "message": "pair (0, 1) touched the singular set (theta = 1.600e-239)",
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

    @pytest.mark.parametrize("cls", ["parabolic-cyclic", "hyperbolic-cyclic"])
    def test_thousand_bodies_certify(self, tmp_path, cls):
        doc = {"seed": 1, "certify": {"class": cls, "n": 1000, "samples": 20}}
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "certify", "--config", cfg)
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] is True and cert["sample_count"] == 20

    @pytest.mark.parametrize("n", [10_000, 100_000])
    @pytest.mark.parametrize("cls", ["parabolic-cyclic", "hyperbolic-cyclic"])
    def test_large_n_certify(self, tmp_path, cls, n):
        # any distinct heights give exact-sign sides, so no draw is refused at large n
        doc = {"seed": 1, "certify": {"class": cls, "n": n, "samples": 3}}
        cfg = write_config(tmp_path, doc)
        code, out = run(tmp_path, "certify", "--config", cfg)
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] is True and cert["sample_count"] == 3

    @pytest.mark.parametrize("cls, n, seed, samples, size, digest", [
        ("hyperbolic-cyclic", 3, 7, 2049, 825855, "edbd73d67cd4ecc443567877bbbda16700c7ea46a2863e164c4816a5c71f8c14"),
        ("parabolic-cyclic", 8, 3, 5, 3831, "967fa084d7e005135848d03ec8be12ae6b23ae4ca6b8fb04f68f2104da95e45c"),
    ])
    def test_certificate_is_rendered_from_the_arrays(self, tmp_path, monkeypatch, cls, n, seed, samples, size, digest):
        # the file is the report tree of to_dict() as canonical_json renders it, and these bytes, written
        # without a CertificateSample; the digests are of the files rendered one report tree per certificate
        cert = equilibria.certify_nonexistence(cls, n, samples, seed=seed)
        payload = cert.to_dict()
        if cls == "parabolic-cyclic":
            lhs, rhs = equilibria.parabolic_contradiction_sides([1.0, 2.0], [1.0, 1.0], 1.0, k=0)
            payload["reference_sample"] = {"beta": [1.0, 2.0], "masses": [1.0, 1.0], "R": 1.0, "lhs": lhs, "rhs": rhs}

        def refused(*args, **kwargs):
            raise AssertionError("certify built a CertificateSample")

        monkeypatch.setattr(equilibria, "CertificateSample", refused)
        cfg = write_config(tmp_path, {"seed": seed, "certify": {"class": cls, "n": n, "samples": samples}})
        code, out = run(tmp_path, "certify", "--config", cfg)
        assert code == 0
        text = (out / "certificate.json").read_bytes()
        assert text == reports.canonical_json(payload).encode()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)

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
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "flow-pole"
        assert err["message"].startswith("flow.t_max: flow parameter 0.8999999999999999 leaves the admissible interval")

    def test_pole_at_negative_t_names_t_min(self, tmp_path, capsys):
        # the pole of [-1, 1] lies at t = -pi/4
        doc = {"flow": {"kind": "rotation", "sigma": 0, "points": [[-1.0, 1.0]], "t_min": -1.2, "t_max": 0.5}}
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "flow", "--config", cfg)
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "flow-pole"
        assert err["message"].startswith("flow.t_min: flow parameter -1.2 leaves the admissible interval")

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

    def test_pole_crossing_names_group_time(self, tmp_path, capsys):
        # the sigma = 0 rotation flow of every point has a pole before t = pi/2
        doc = {**SIMULATE_DOC, "invariance": {"kind": "rotation", "sigma": 0, "group_time": 1.6}}
        cfg = write_config(tmp_path, doc)
        code, _ = run(tmp_path, "invariance", "--config", cfg)
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "flow-pole"
        assert err["message"].startswith("invariance.group_time: flow parameter 1.6 leaves the admissible interval")


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

    @pytest.mark.parametrize(("command", "flag"), [("map", "--samples"), ("map", "--class"), ("flow", "--samples")])
    def test_flags_of_other_commands_are_usage_errors(self, tmp_path, capsys, command, flag):
        # --samples belongs to certify and --class to certify and equilibria; elsewhere argparse refuses them
        cfg = write_config(tmp_path, {"R": 1, "map": {}})  # argparse refuses the flag before the config is read
        code, out = run(tmp_path, command, "--config", cfg, flag, "5")
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "code": "validation", "message": f"hnbody: unrecognized arguments: {flag} 5"}
        assert not out.exists()


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
        from hnbody.dynamics import SystemState, Trajectory, default_test_functions, integrate

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
        # 101 points need no split of the steps, so Simpson adds one midpoint per step
        bodies = [complex(re, im) for re, im, _, _ in SIMULATE_DOC["bodies"]]
        velocities = [complex(vre, vim) for _, _, vre, vim in SIMULATE_DOC["bodies"]]
        traj = integrate(SystemState(0.0, bodies, velocities, SIMULATE_DOC["masses"], 1.0), 1.0, tol=1e-10)
        assert traj.stats.steps >= 100
        assert calls == [traj.stats.steps]


class TestParserCache:
    def test_one_parser_gives_what_a_fresh_parser_gives(self, tmp_path, capsys):
        # a usage error, then a valid certify and a valid flow, all through the one cached parser
        certify = write_config(tmp_path, {"seed": 3, "certify": {"class": "hyperbolic-cyclic", "n": 3, "samples": 4}},
                               "certify.json")
        flow = write_config(tmp_path, {"flow": {"kind": "rotation", "sigma": 0, "points": [[0.0, 1.0]], "t_max": 0.5,
                                                "num": 5}}, "flow.json")
        calls = [["certify", "--config", certify, "--seed", "x"], ["certify", "--config", certify],
                 ["flow", "--config", flow]]

        def outcomes(fresh):
            got = []
            for argv in calls:
                if fresh:
                    _build_parser.cache_clear()
                got.append((main([*argv, "--out", str(tmp_path / "out")]), capsys.readouterr().out))
            return got

        cached = outcomes(fresh=False)
        assert _build_parser() is _build_parser()
        assert [code for code, _ in cached] == [1, 0, 0]
        assert json.loads(cached[0][1])["error"]["message"].startswith("--seed: ")
        assert outcomes(fresh=True) == cached


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
    "newline-key": (["simulate"], _json_bytes({**SIMULATE_DOC, "bad\nkey": 1}), "bad\nkey", "unknown field"),
    # residuals, disk images and group elements that leave the floating-point range
    "check-underflowing-heights": (
        ["equilibria", "check", "--class", "hyperbolic-normal"],
        _json_bytes({**SIMULATE_DOC, "bodies": [[0, 1e-100, 0, 0], [1, 1e-100, 0, 0]], "equilibria": {}}),
        "bodies", "the residual leaves the floating-point range",
    ),
    "check-overflowing-radius": (
        ["equilibria", "check", "--class", "elliptic-cyclic"],
        _json_bytes({**SIMULATE_DOC, "R": 1e300, "bodies": [[0, 1e-100, 0, 0], [1, 1, 0, 0]], "equilibria": {}}),
        "bodies", "the residual leaves the floating-point range",
    ),
    "check-overflowing-cyclic-data": (
        ["equilibria", "check", "--class", "parabolic-cyclic"],
        _json_bytes({**SIMULATE_DOC, "equilibria": {"alpha": [1e300, 0], "beta": [1e300, 1]}}),
        "equilibria.alpha", "the residual leaves the floating-point range",
    ),
    "check-underflowing-cyclic-beta": (
        ["equilibria", "check", "--class", "parabolic-cyclic"],
        _json_bytes({**SIMULATE_DOC, "equilibria": {"alpha": [0, 1], "beta": [1e-200, 1]}}),
        "equilibria.alpha", "the residual leaves the floating-point range",
    ),
    "map-overflowing-points": (
        ["map"], _json_bytes({"R": 1e300, "map": {"points": [[1e300, 1e300]]}}), "map.points",
        "disk coordinate must satisfy |z| < R, got (nan+nanj)",
    ),
    "map-overflowing-radius": (
        ["map"], _json_bytes({"R": 1e300, "map": {"samples": 3}}), "R",
        "disk coordinate must satisfy |z| < R, got (inf+infj)",
    ),
    "map-point-rounded-onto-the-boundary": (
        ["map"], _json_bytes({"R": 1, "map": {"points": [[0, 1e20]]}}), "map.points",
        "disk coordinate must satisfy |z| < R, got (-1-0j)",
    ),
    "loxodromic-non-finite-element": (
        ["invariance"], _json_bytes({**INVARIANCE_DOC, "invariance": {"kind": "loxodromic", "group_time": 1e300}}),
        "invariance.group_time", "matrix must be unimodular, det = nan",
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

    def test_lone_surrogate_key_prints_ascii_json(self, tmp_path):
        # capsys does not encode stdout, so only a child process shows what a
        # surrogate in the message does to the byte stream
        cfg = tmp_path / "config.json"
        cfg.write_bytes(_json_bytes({**SIMULATE_DOC, "\ud800": 1}))
        src = os.path.dirname(os.path.dirname(hnbody.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "hnbody", "simulate", "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert proc.stderr == b""
        assert proc.stdout.isascii()
        err = json.loads(proc.stdout)["error"]  # one JSON object and nothing else
        assert err["code"] == "validation"
        assert err["message"].startswith("\ud800: ")

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
    assert proc.stderr == ""  # the overflow ends in the error object, not in numpy warnings
    err = json.loads(proc.stdout)["error"]
    assert err["code"] == "integrator-failure"
    assert err["message"] == "non-finite derivative at t = 0.0"


def test_overflowing_conserved_quantities_write_no_file(tmp_path):
    # mu = (R / Im w)^2 overflows in the conserved series; the run must end in
    # one error object before trajectory.csv is written, with no numpy warnings
    doc = {**SIMULATE_DOC, "R": 1e300, "masses": [1e300, 1e300]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    out.mkdir()
    src = os.path.dirname(os.path.dirname(hnbody.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hnbody", "simulate", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]  # one JSON object and nothing else
    assert err["code"] == "validation"
    assert err["message"] == "R: the conserved quantities overflow the floating-point range"
    assert list(out.iterdir()) == []


def test_bodies_drifting_past_the_position_bound_exit_three(tmp_path):
    # both bodies start inside |w| < 8e50 and separate past it near t = 0.33,
    # where the pair kernel divisor would overflow and hide the force
    doc = {"R": 1.0, "masses": [1.0, 1.0], "bodies": [[0, 4e50, 0, 4e50], [1e50, 6e50, 0, 6e50]],
           "integrator": {"tol": 1e-8, "t_end": 2.0}}
    cfg = write_config(tmp_path, doc)
    src = os.path.dirname(os.path.dirname(hnbody.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hnbody", "simulate", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]  # one JSON object and nothing else
    assert err["code"] == "integrator-failure"
    assert re.fullmatch(r"positions too large at t = 0\.3\d*: the pair kernel divisor 512 max\|w\|\^6 overflows",
                        err["message"])
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def _transport(**section):
    return {**INVARIANCE_DOC, "invariance": section}


# id -> (command, config, field path): runs whose flow, transport, position bound, pair
# kernel or find residual leaves the floating-point range, whose rotation samples
# pass s = tan t's pole, or whose span or step bound is below the integrator's step floor
RANGE_FAULTS = {
    "flow-overflow": ("flow", {"flow": {"kind": "normal", "sigma": -1, "points": [[0.0, 1.0]], "t_max": 800}},
                      "flow.t_max"),
    # e^{t/2} itself overflows at t_max, so the group element is not unimodular
    "flow-element-overflow": (
        "flow", {"flow": {"kind": "normal", "points": [[0.0, 1.0]], "t_min": -3.0, "t_max": 2000}}, "flow.t_max"
    ),
    "flow-element-underflow": (
        "flow", {"flow": {"kind": "normal", "points": [[0.0, 1.0]], "t_min": -2000, "t_max": 1.0}}, "flow.t_min"
    ),
    # e^{-400} i underflows to 0 at t_min: the flowed point leaves the half-plane
    "flow-underflow": (
        "flow", {"flow": {"kind": "normal", "points": [[0.0, 1.0]], "t_min": -800, "t_max": 0, "num": 3}}, "flow.t_min"
    ),
    "transport-overflow": ("invariance", _transport(kind="normal", group_time=1e308), "invariance.group_time"),
    "loxodromic-overflow": ("invariance", _transport(kind="loxodromic", group_time=800), "invariance.group_time"),
    "transport-underflow": ("invariance", _transport(kind="normal", group_time=-800), "invariance.group_time"),
    "theta-floor-overflow": ("simulate", {**SIMULATE_DOC, "bodies": [[0, 1e80, 0, 0], [0, 2e80, 0, 0]]}, "bodies"),
    "pair-theta-overflow": ("simulate", {**SIMULATE_DOC, "bodies": [[0, 1e78, 0, 0], [0, 2e78, 0, 0]]}, "bodies"),
    "kernel-divisor-overflow": (
        "simulate", {**SIMULATE_DOC, "bodies": [[0, 1e60, 0, 0], [0, 2e60, 0, 0]]}, "bodies"
    ),
    "transport-theta-floor-overflow": (
        "invariance", _transport(kind="nilpotent", group_time=1e308), "invariance.group_time"
    ),
    "rotation-samples-past-t-max": (
        "flow", {"flow": {"kind": "rotation", "sigma": -1, "points": [[0.0, 1.0]], "t_max": 2.0}}, "flow.t_max"
    ),
    "rotation-samples-past-t-min": (
        "flow", {"flow": {"kind": "rotation", "sigma": -1, "points": [[0.0, 1.0]], "t_min": -2.0, "t_max": 1.0}},
        "flow.t_min",
    ),
    # the lhs divides by 16 y^4, which underflows to 0 at y = 1e-100: the residual at the ansatz is not finite
    "find-residual-overflow": (
        "equilibria find",
        {"R": 1e300, "masses": [1.0, 1.0], "bodies": [[0, 1e-100, 0, 0], [1, 1, 0, 0]],
         "equilibria": {"class": "elliptic-cyclic"}},
        "bodies",
    ),
    "t-end-below-step-floor": (
        "simulate", {**SIMULATE_DOC, "integrator": {"tol": 1e-10, "t_end": 1e-15}}, "integrator.t_end"
    ),
    "max-step-below-step-floor": (
        "simulate", {**SIMULATE_DOC, "integrator": {"tol": 1e-10, "t_end": 1.0, "max_step": 1e-15}},
        "integrator.max_step",
    ),
    # below the double-precision epsilon: at 1e-160 the starting-step norm |y / sc|^2 overflowed
    # (exit 3), and at 1e-17 the run asked for an accuracy that doubles cannot hold
    "tol-below-double-precision": (
        "simulate", {**SIMULATE_DOC, "integrator": {"tol": 1e-17, "t_end": 1.0}}, "integrator.tol"
    ),
    "tol-whose-step-norm-overflows": (
        "simulate", {**SIMULATE_DOC, "integrator": {"tol": 1e-160, "t_end": 1.0}}, "integrator.tol"
    ),
    # 1e9 steps, each node kept in memory: a run with no bound on its work
    "max-step-above-the-step-count-bound": (
        "simulate", {**SIMULATE_DOC, "integrator": {"tol": 1e-10, "t_end": 1.0, "max_step": 1e-9}},
        "integrator.max_step",
    ),
}


@pytest.mark.parametrize("fault", sorted(RANGE_FAULTS))
def test_range_faults_name_the_field_without_warnings(tmp_path, fault):
    command, doc, field = RANGE_FAULTS[fault]
    cfg = write_config(tmp_path, doc)
    src = os.path.dirname(os.path.dirname(hnbody.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hnbody", *command.split(), "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]  # one JSON object and nothing else
    assert err["code"] == "validation"
    assert err["message"].startswith(f"{field}: ")


def test_underflowing_kernel_divisor_is_a_verdict_without_warnings(tmp_path):
    # the pair is at d = 0.96, but theta = 2e-239 and its theta^{3/2} underflows to 0
    doc = {**SIMULATE_DOC, "bodies": [[0, 1e-60, 0, 0], [1e-60, 1e-60, 0, 0]]}
    cfg = write_config(tmp_path, doc)
    src = os.path.dirname(os.path.dirname(hnbody.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "hnbody", "simulate", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == {  # one JSON object and nothing else
        "code": "singularity",
        "message": "pair (0, 1) touched the singular set at t = 0.0 (theta = 2.000e-239)",
    }


# id -> (bodies, theta in the message) of a pair in the singular set: coincident, and
# [i, i (1 + 5e-7)] at hyperbolic distance 5e-7
SINGULAR_PAIRS = {
    "coincident": ([[0.2, 1.0, 0.0, 0.0], [0.2, 1.0, 0.0, 0.0]], "0.000e+00"),
    "distance-5e-7": ([[0.0, 1.0, 0.0, 0.0], [0.0, 1.0 + 5e-7, 0.0, 0.0]], "4.000e-12"),
}
# command -> the config section it reads besides the system
SINGULAR_COMMANDS = {
    "simulate": {},
    "vlasov": {},
    "invariance": {"invariance": INVARIANCE_DOC["invariance"]},
    "equilibria check": {"equilibria": {"class": "elliptic-cyclic"}},
    "equilibria find": {"equilibria": FIND_DOC["equilibria"]},
}


@pytest.mark.parametrize("command", sorted(SINGULAR_COMMANDS))
@pytest.mark.parametrize("case", sorted(SINGULAR_PAIRS))
def test_every_command_refuses_a_pair_in_the_singular_set(tmp_path, capsys, case, command):
    bodies, theta = SINGULAR_PAIRS[case]
    doc = {**SIMULATE_DOC, "bodies": bodies, **SINGULAR_COMMANDS[command]}
    code, out = run(tmp_path, *command.split(), "--config", write_config(tmp_path, doc))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["code"] == "singularity"
    # the integrating commands time the verdict; the condition systems have no time
    pattern = rf"pair \(0, 1\) touched the singular set( at t = 0\.0)? \(theta = {re.escape(theta)}\)"
    assert re.fullmatch(pattern, err["message"])
    assert not out.exists()


# id -> (command, config): runs whose pairs stay far from the singular set in hyperbolic
# distance, at a small scale, beside a far body or carried far by an isometry
FAR_FROM_SINGULAR = {
    "small-scale-pair": ("simulate", {**SIMULATE_DOC, "bodies": [[0, 1e-4, 0, 0], [1e-4, 1e-4, 0, 0]],
                                      "integrator": {"tol": 1e-10, "t_end": 0.1}}),
    "far-third-body": ("simulate", {**SIMULATE_DOC, "masses": [1.0, 1.0, 1.0],
                                    "bodies": [[0, 0.07, 0, 0], [0.0008, 0.07, 0, 0], [30, 1, 0, 0]],
                                    "integrator": {"tol": 1e-10, "t_end": 1e-4}}),
    "nilpotent-transport": ("invariance", _transport(kind="nilpotent", group_time=1e40)),
}


@pytest.mark.parametrize("case", sorted(FAR_FROM_SINGULAR))
def test_pairs_far_from_the_singular_set_get_no_verdict(tmp_path, capsys, case):
    command, doc = FAR_FROM_SINGULAR[case]
    code, _ = run(tmp_path, command, "--config", write_config(tmp_path, doc))
    assert code == 0, capsys.readouterr().out


def test_find_refuses_an_end_point_where_both_sides_vanish(tmp_path, capsys):
    # Levenberg-Marquardt drifts to y ~ 4e5, where both sides fall below tol 1e-10
    doc = {**SIMULATE_DOC, "bodies": [[-0.5, 1.0, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0]],
           "equilibria": {"class": "hyperbolic-normal", "symmetry": "none"}}
    code, out = run(tmp_path, "equilibria", "find", "--config", write_config(tmp_path, doc))
    assert code == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "no-convergence"
    assert err["message"].startswith("both sides vanish at the end point (max |lhs| = ")
    assert "max |rhs| = " in err["message"]
    assert not (out / "equilibrium.json").exists()


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


# certify.n * certify.samples above MAX_WORK with both counts within MAX_COUNT,
# samples from the config or from --samples
@pytest.mark.parametrize(("n", "samples", "flag"), [(11, MAX_COUNT, False), (MAX_COUNT, 11, False), (1000, 1001, True)])
def test_certify_work_above_the_bound_is_a_validation_error(tmp_path, capsys, n, samples, flag):
    doc = {"certify": {"class": "hyperbolic-cyclic", "n": n, "samples": 1 if flag else samples}}
    cfg = write_config(tmp_path, doc)
    code, out = run(tmp_path, "certify", "--config", cfg, *(["--samples", str(samples)] if flag else []))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert json.loads(captured.out)["error"] == {
        "code": "validation",
        "message": f"certify.samples: must be <= {MAX_WORK // n} at n = {n} "
                   f"(n * samples <= {MAX_WORK})",
    }
    assert not out.exists()


# n * invariance.num_points or n * vlasov.num_points above MAX_WORK, refused before any integration
@pytest.mark.parametrize("field", ["invariance.num_points", "vlasov.num_points"])
def test_check_grids_above_the_work_bound_are_validation_errors(tmp_path, capsys, field):
    command, make_doc = COUNT_FIELDS[field]
    n = 128
    bodies = [[0.1 * k, 1.0 + 0.01 * k, 0.0, 0.0] for k in range(n)]
    doc = {**make_doc(MAX_WORK // n + 1), "masses": [1.0] * n, "bodies": bodies}
    code, out = run(tmp_path, command, "--config", write_config(tmp_path, doc))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert json.loads(captured.out)["error"] == {
        "code": "validation",
        "message": f"{field}: must be <= 7812 at n = 128 (n * num_points <= 1000000)",
    }
    assert not out.exists()


# more than 1000 bodies (n^2 above MAX_WORK), refused before any pair table is built
@pytest.mark.parametrize("command", ["simulate", "invariance", "vlasov", "equilibria find", "equilibria check",
                                     "equilibria check parabolic-cyclic"])
def test_more_bodies_than_the_work_bound_allows_are_a_validation_error(tmp_path, capsys, monkeypatch, command):
    n = 1001
    bodies = [[0.1 * k, 1.0 + 0.01 * k, 0.0, 0.0] for k in range(n)]
    sections = {
        "simulate": {},
        "invariance": {"invariance": {"kind": "normal", "group_time": 0.1}},
        "vlasov": {"vlasov": {"num_points": 21}},
        "equilibria find": {"equilibria": {"class": "elliptic-cyclic"}},
        "equilibria check": {"equilibria": {"class": "elliptic-cyclic"}},
        "equilibria check parabolic-cyclic": {
            "equilibria": {"class": "parabolic-cyclic", "alpha": [0.0] * n, "beta": [1.0 + k for k in range(n)]}},
    }
    doc = {"R": 1.0, "masses": [1.0] * n, "bodies": bodies, **sections[command]}
    if command in ("simulate", "invariance", "vlasov"):
        doc["integrator"] = {"tol": 1e-8, "t_end": 1e-6}
    field = "equilibria.alpha" if command.endswith("parabolic-cyclic") else "bodies"
    built = []

    class Counted(dynamics._Workspace):
        def __init__(self, shape):
            built.append(shape)
            super().__init__(shape)

    for module in (dynamics, equilibria):
        monkeypatch.setattr(module, "_Workspace", Counted)
        monkeypatch.setattr(module, "_pair_tables", lambda *args: built.append(args))
    code, out = run(tmp_path, *command.split()[:2], "--config", write_config(tmp_path, doc))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert json.loads(captured.out)["error"] == {
        "code": "validation",
        "message": f"{field}: must hold at most 1000 bodies, not 1001 (n^2 <= {MAX_WORK})",
    }
    assert built == []
    assert not out.exists()


# flow.points times flow.num (the rows of flow.csv) above MAX_WORK, refused before any sample
def test_flow_rows_above_the_work_bound_are_a_validation_error(tmp_path, capsys):
    points = [[0.001 * k, 1.0] for k in range(1001)]
    doc = {"flow": {"kind": "normal", "points": points, "t_max": 0.5, "num": 1000}}
    code, out = run(tmp_path, "flow", "--config", write_config(tmp_path, doc))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert json.loads(captured.out)["error"] == {
        "code": "validation",
        "message": f"flow.num: must be <= 999 at n = 1001 (n * num <= {MAX_WORK})",
    }
    assert not out.exists()


# flow times: inside the rotation kinds' |t| < pi/2 and at its edge, past a point's pole (the
# rotation kinds) and far enough out that the normal flow's e^{t/2} leaves the double range
_FLOW_TIMES = st.one_of(
    st.floats(-1.5, 1.5), st.sampled_from([-math.pi / 2, math.pi / 2]), st.floats(-2000.0, 2000.0)
)


# drawn flow configs must each end in exit 0 or 1, one JSON object on stdout, nothing on
# stderr and output files only on exit 0; when flip indexes a point, its Im is negated
@settings(max_examples=60)
@given(
    kind=st.sampled_from(["normal", "nilpotent", "rotation"]),
    sigma=st.sampled_from([-1, 0, 1]),
    points=st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(1e-3, 100.0)), min_size=1, max_size=40),
    flip=st.integers(0, 99),
    num=st.integers(2, 300),
    t_min=_FLOW_TIMES,
    span=st.one_of(st.floats(1e-3, 1.5), st.floats(1e-3, 4000.0)),
)
@example(kind="rotation", sigma=0, points=[(1.0, 1.0), (-2.0, 0.5)], flip=99, num=7, t_min=-0.5, span=1.7)  # poles
@example(kind="rotation", sigma=1, points=[(3.0, 1.0)], flip=99, num=50, t_min=-1.0, span=2.0)
@example(kind="rotation", sigma=-1, points=[(0.0, 1.0)], flip=99, num=3, t_min=0.0, span=math.pi / 2)
@example(kind="normal", sigma=-1, points=[(0.0, 1.0)], flip=99, num=3, t_min=-800.0, span=800.0)  # underflow
def test_flow_fuzz_ends_in_one_json_object(kind, sigma, points, flip, num, t_min, span):
    points = [[re, -im if k == flip else im] for k, (re, im) in enumerate(points)]
    doc = {"flow": {"kind": kind, "sigma": sigma, "points": points, "num": num, "t_min": t_min, "t_max": t_min + span}}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        out, stdout, stderr = os.path.join(tmp, "out"), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["flow", "--config", cfg, "--out", out])
        written = sorted(os.listdir(out)) if os.path.exists(out) else []
    assert stderr.getvalue() == ""
    assert stdout.getvalue().startswith("{") and stdout.getvalue().endswith("}\n")
    report = json.loads(stdout.getvalue())  # raises on a second object
    if code == 0:
        assert report == {"ok": True, "outputs": ["flow.csv", "flow.json"]}
        assert written == ["flow.csv", "flow.json"]
    else:
        assert code == 1
        assert report["error"]["code"] in ("validation", "flow-pole")
        assert report["error"]["message"].startswith("flow.")
        assert written == []


# a body [x, y, vx, vy]: heights log-uniform on [1e-2, 10] or [1e-300, 1e3], speed components
# zero or of magnitude 1e-3 to 10 or to 1e200, with either sign
_HEIGHTS = st.one_of(st.floats(-2.0, 1.0), st.floats(-300.0, 3.0)).map(lambda e: 10.0 ** e)
_SPEEDS = st.one_of(st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]), st.one_of(
    st.floats(-3.0, 1.0), st.floats(-3.0, 200.0))).map(lambda s: s[0] * 10.0 ** s[1]))
_BODIES = st.tuples(st.floats(-1e3, 1e3), _HEIGHTS, _SPEEDS, _SPEEDS)


# drawn simulate configs must each end in exit 0 to 3, one JSON object on stdout, nothing on
# stderr and report files only on exit 0; t_end bounds the work of each example
@settings(max_examples=60)
@given(
    bodies=st.lists(_BODIES.map(list), min_size=1, max_size=4),
    masses=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4),
    tol=st.floats(math.log10(np.finfo(float).eps), 1.0).map(lambda e: max(10.0 ** e, np.finfo(float).eps)),
    t_end=st.floats(1e-3, 1.0),
)
@example(bodies=[[0.0, 1.0, 0.3, 0.1]], masses=[1.0] * 4, tol=1e-10, t_end=1.0)  # n = 1
@example(bodies=[[0.5, 2.0, 0.0, 0.0], [0.5, 2.0, 0.1, 0.0]], masses=[1.0] * 4, tol=1e-10, t_end=1.0)  # coincident
@example(bodies=[[0.0, 1.0, 1e300, 0.0]], masses=[1.0] * 4, tol=1e-10, t_end=0.1)
@example(bodies=[[0.0, 5e-324, 0.0, 0.0], [1.0, 5e-324, 0.0, 1.0]], masses=[1.0] * 4, tol=1e-10, t_end=1.0)
def test_simulate_fuzz_ends_in_one_json_object(bodies, masses, tol, t_end):
    doc = {"R": 1.0, "masses": masses[: len(bodies)], "bodies": bodies, "integrator": {"tol": tol, "t_end": t_end}}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        out, stdout, stderr = os.path.join(tmp, "out"), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["simulate", "--config", cfg, "--out", out])
        written = sorted(os.listdir(out)) if os.path.exists(out) else []
    assert stderr.getvalue() == ""
    assert stdout.getvalue().startswith("{") and stdout.getvalue().endswith("}\n")
    report = json.loads(stdout.getvalue())  # raises on a second object
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert report == {"ok": True, "outputs": ["trajectory.csv", "trajectory.json"]}
        assert written == ["trajectory.csv", "trajectory.json"]
    else:
        assert set(report) == {"error"}
        assert written == []


# certify fields: valid values, with at most one field (bad[0]) replaced by another value, most of
# them ones it does not take; the valid counts (at most 12 bodies times 1500 samples) bound the
# work of each example
_CERTIFY_BAD = st.one_of(
    st.sampled_from([MAX_COUNT + 1, 2.5, "3", True, None, -1, 0, 1, "elliptic-cyclic", "hyperbolic-normal"]),
    st.text(max_size=8),
)


# drawn certify configs must each end in exit 0 to 3, one JSON object on stdout, nothing on
# stderr and certificate.json only on exit 0; with flag set, samples comes from --samples
@settings(max_examples=60)
@given(
    cls=st.sampled_from(["parabolic-cyclic", "hyperbolic-cyclic"]),
    n=st.integers(2, 12),
    samples=st.integers(1, 1500),
    seed=st.integers(0, 2**64),
    flag=st.booleans(),
    bad=st.one_of(st.none(), st.tuples(st.sampled_from(["cls", "n", "samples", "seed"]), _CERTIFY_BAD)),
)
@example(cls="parabolic-cyclic", n=3, samples=1000, seed=7, flag=True, bad=None)
@example(cls="hyperbolic-cyclic", n=2, samples=MAX_COUNT + 1, seed=0, flag=False, bad=None)
@example(cls="hyperbolic-cyclic", n=2, samples=MAX_COUNT + 1, seed=0, flag=True, bad=None)
@example(cls="parabolic-cyclic", n=MAX_COUNT + 1, samples=1, seed=0, flag=False, bad=None)
@example(cls="parabolic-cyclic", n=101, samples=9901, seed=0, flag=False, bad=None)  # n samples = MAX_WORK + 1
@example(cls="hyperbolic-cyclic", n=101, samples=9901, seed=0, flag=True, bad=None)
def test_certify_fuzz_ends_in_one_json_object(cls, n, samples, seed, flag, bad):
    fields = {"cls": cls, "n": n, "samples": samples, "seed": seed}
    if bad is not None:
        fields[bad[0]] = bad[1]
    cls, n, samples, seed = fields.values()
    section = {"class": cls, "n": n} if flag else {"class": cls, "n": n, "samples": samples}
    argv = ["--samples", str(samples)] if flag else []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump({"seed": seed, "certify": section}, fh)
        out, stdout, stderr = os.path.join(tmp, "out"), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["certify", "--config", cfg, "--out", out, *argv])
        written = sorted(os.listdir(out)) if os.path.exists(out) else []
        if code == 0:
            with open(os.path.join(out, "certificate.json")) as fh:
                certificate = json.load(fh)
    assert stderr.getvalue() == ""
    assert stdout.getvalue().startswith("{") and stdout.getvalue().endswith("}\n")
    report = json.loads(stdout.getvalue())  # raises on a second object
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert report == {"ok": True, "outputs": ["certificate.json"]}
        assert written == ["certificate.json"]
        asked = int(str(samples)) if flag else samples  # as argparse reads --samples
        assert (certificate["class"], certificate["n"], certificate["sample_count"], certificate["seed"]) == (
            cls, n, asked, seed)
        assert len(certificate["samples"]) == asked
        assert n * asked <= MAX_WORK
    else:
        assert set(report) == {"error"}
        assert written == []
    # the bounds on the counts, checked before the seed
    if cls in ("parabolic-cyclic", "hyperbolic-cyclic") and type(n) is type(samples) is int and n >= 2 and samples >= 1:
        if n > MAX_COUNT or samples > MAX_COUNT:
            path = "certify.n" if n > MAX_COUNT else "certify.samples"
            assert (code, report["error"]["message"]) == (1, f"{path}: must be <= {MAX_COUNT}")
        elif n * samples > MAX_WORK:
            message = f"certify.samples: must be <= {MAX_WORK // n} at n = {n} (n * samples <= {MAX_WORK})"
            assert (code, report["error"]["message"]) == (1, message)


def _main_once(argv: list, doc: dict):
    """main(argv) on the config doc with a fresh --out: (exit code, the one JSON object on stdout, the files
    written), after checking that stderr stayed empty and stdout holds one JSON object."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        out, stdout, stderr = os.path.join(tmp, "out"), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", cfg, "--out", out])
        written = sorted(os.listdir(out)) if os.path.exists(out) else []
    assert stderr.getvalue() == ""
    assert stdout.getvalue().startswith("{") and stdout.getvalue().endswith("}\n")
    return code, json.loads(stdout.getvalue()), written  # json.loads raises on a second object


def _check_outcome(code: int, report: dict, written: list, outputs: list) -> None:
    """Exit 0 to 3; the report files on exit 0 alone, else one error object and no file."""
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert report == {"ok": True, "outputs": outputs}
        assert written == sorted(outputs)
    else:
        assert set(report) == {"error"}
        assert written == []


def _simulate_message(doc):
    """simulate's error message on the bodies and integrator of doc, or None on exit 0."""
    code, report, _ = _main_once(["simulate"], {key: doc[key] for key in ("R", "masses", "bodies", "integrator")})
    return None if code == 0 else report["error"]["message"]


def _simulate_verdict(positions, masses, R):
    """simulate's singularity message on bodies at rest at positions if it comes at t = 0, without the time."""
    bodies = [[w.real, w.imag, 0.0, 0.0] for w in np.asarray(positions, dtype=complex).tolist()]
    message = _simulate_message({"R": R, "masses": list(masses), "bodies": bodies,
                                 "integrator": {"tol": 1e-8, "t_end": 1e-6}}) or ""
    return message.replace(" at t = 0.0 ", " ") if " at t = 0.0 (" in message else None


def _check_verdict(positions, masses, R):
    """equilibria check's singularity message on bodies at positions, or None: the singular set itself,
    which simulate widens at a step underflow."""
    bodies = [[w.real, w.imag, 0.0, 0.0] for w in np.asarray(positions, dtype=complex).tolist()]
    code, report, _ = _main_once(["equilibria", "check"], {"R": R, "masses": list(masses), "bodies": bodies,
                                                            "equilibria": {"class": "hyperbolic-normal"}})
    return report["error"]["message"] if code == 2 else None


# equilibria bodies [x, y] and, for the cyclic families' check, (alpha, beta) pairs; pair b is moved to
# pair a plus gap (gap 0: a copy), into or near the singular set
_EQUILIBRIA_PAIRS = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 5.0)), min_size=1, max_size=4)
_CLOSE = st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([0.0, 1e-9, 1e-3])))


# drawn equilibria configs, find and check over the five classes, the three symmetries and the cyclic
# families' alpha, beta and s, must each end in exit 0 to 3, one JSON object on stdout, nothing on
# stderr and equilibrium.json only on exit 0; max_iter bounds the work of each find.  An exit 2 names
# the pair and theta that simulate names for the bodies the command reads: the ansatz, or a family's
# positions at s, mirrored when every beta is negated.  A find from a non-singular ansatz whose
# symmetric start, the root finder's, is in the singular set exits 1 naming the symmetry and the
# verdict of check on that start.  Half the finds are of the two classes that exist.
@settings(max_examples=150)
@given(
    cls=st.one_of(st.sampled_from([c.value for c in EquilibriumClass]),
                  st.sampled_from(["hyperbolic-normal", "elliptic-cyclic"])),
    mode=st.sampled_from(["find", "check"]),
    symmetry=st.sampled_from(SYMMETRIES),
    pairs=_EQUILIBRIA_PAIRS,
    masses=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4),
    R=st.floats(0.1, 10.0),
    s=st.floats(-2.0, 2.0),
    close=_CLOSE,
    negate=st.booleans(),
    max_iter=st.integers(1, 30),
)
@example(cls="elliptic-cyclic", mode="find", symmetry="axis", pairs=[(0.0, 2.0), (0.0, 0.5)], masses=[1.0] * 4,
         R=1.0, s=0.0, close=None, negate=False, max_iter=30)  # converges
@example(cls="elliptic-cyclic", mode="find", symmetry="axis", pairs=[(0.0, 2.0), (1.0, 2.0)], masses=[1.0] * 4,
         R=1.0, s=0.0, close=None, negate=False, max_iter=30)  # equal heights: one point on the axis, exit 1
@example(cls="elliptic-cyclic", mode="find", symmetry="mirror", pairs=[(1e-8, 1.0), (5.0, 1.0)], masses=[1.0] * 4,
         R=1.0, s=0.0, close=None, negate=False, max_iter=30)  # the mirror image of body 0 is next to it: exit 1
@example(cls="parabolic-cyclic", mode="check", symmetry="none", pairs=[(0.5, 1.0), (0.5, 1.0), (0.0, 2.0)],
         masses=[1.0] * 4, R=1.0, s=0.3, close=None, negate=True, max_iter=1)  # coincident
@example(cls="hyperbolic-normal", mode="check", symmetry="none", pairs=[(0.3, 1.0), (0.3, 1.0)],
         masses=[1.0] * 4, R=1.0, s=0.0, close=(0, 1, 1e-9), negate=False, max_iter=1)
@example(cls="elliptic-cyclic", mode="find", symmetry="mirror", pairs=[(6e-8, 0.1), (0.9, 5.0)], masses=[1.0] * 4,
         R=0.1, s=0.0, close=None, negate=False, max_iter=1)  # a Jacobian probe of the start is singular: exit 3
def test_equilibria_fuzz_ends_in_one_json_object(cls, mode, symmetry, pairs, masses, R, s, close, negate, max_iter):
    pairs = [list(p) for p in pairs]
    if close is not None and max(close[:2]) < len(pairs) and close[0] != close[1]:
        a, b, gap = close
        pairs[b] = [pairs[a][0] + gap, pairs[a][1] + gap]
    n = len(pairs)
    family = mode == "check" and cls in ("parabolic-cyclic", "hyperbolic-cyclic")
    negate = negate and cls == "parabolic-cyclic"  # beta -> -beta mirrors the parabolic positions alone
    doc = {"R": R, "masses": masses[:n], "equilibria": {"class": cls, "symmetry": symmetry, "max_iter": max_iter}}
    if family:
        alpha, beta = (list(c) for c in zip(*pairs))
        if negate:
            beta = [-b for b in beta]
        doc["equilibria"] = {"class": cls, "alpha": alpha, "beta": beta, "s": s}
    else:
        doc["bodies"] = [[x, y, 0.0, 0.0] for x, y in pairs]
    code, report, written = _main_once(["equilibria", mode], doc)
    _check_outcome(code, report, written, ["equilibrium.json"])
    if family:
        w = equilibria._FAMILY_POSITIONS[cls.partition("-")[0]](equilibria.CyclicParams(alpha, beta, s))
        w = np.conjugate(w) if negate else w
    else:
        w = np.array([complex(x, y) for x, y in pairs])
    if code == 2:
        assert report["error"] == {"code": "singularity", "message": _simulate_verdict(w, masses[:n], R)}
    elif mode == "find" and cls in ("hyperbolic-normal", "elliptic-cyclic") and (symmetry != "mirror" or n == 2):
        start = equilibria._unpack(equilibria._pack(w, symmetry), n, symmetry)
        verdict = _check_verdict(start, masses[:n], R)
        if verdict is not None:  # the ansatz itself is not singular, or the command exits 2
            message = f"symmetry {symmetry!r} reduces the ansatz to a start where {verdict}"
            assert (code, report["error"]) == (1, {"code": "validation", "message": message})


# bodies [x, y, vx, vy] for the integrating fuzzes: heights log-uniform on [1e-2, 10] or [1e-300, 1e3] (_HEIGHTS),
# speed components zero or up to 10 (most draws) or 1e200, with either sign, and a pair moved close as above
_RUN_SPEEDS = st.one_of(st.just(0.0), st.floats(-10.0, 10.0), st.sampled_from([-1e200, 1e200]))
_RUN_BODIES = st.lists(st.tuples(st.floats(-10.0, 10.0), _HEIGHTS, _RUN_SPEEDS, _RUN_SPEEDS), min_size=1, max_size=3)
_RUN_TOL = st.floats(-12.0, -2.0).map(lambda e: 10.0 ** e)


def _run_doc(bodies, masses, tol, t_end, close):
    """A config of bodies, masses and integrator, with the bodies of close moved a gap apart as in the equilibria fuzz."""
    bodies = [list(b) for b in bodies]
    if close is not None and max(close[:2]) < len(bodies) and close[0] != close[1]:
        a, b, gap = close
        bodies[b][:2] = [bodies[a][0] + gap * bodies[a][1], bodies[a][1]]
    return {"R": 1.0, "masses": masses[: len(bodies)], "bodies": bodies, "integrator": {"tol": tol, "t_end": t_end}}


# drawn invariance configs must each end in exit 0 to 3, one JSON object on stdout, nothing on stderr and
# invariance.json only on exit 0; t_end and num_points bound the work.  An exit 2 is simulate's verdict on
# the same bodies and integrator.
@settings(max_examples=100)
@given(
    bodies=_RUN_BODIES,
    masses=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
    tol=_RUN_TOL,
    t_end=st.floats(1e-3, 0.3),
    close=_CLOSE,
    kind=st.sampled_from(["normal", "nilpotent", "rotation", "loxodromic", "elliptic"]),
    sigma=st.sampled_from([-1, 0, 1, 2]),
    group_time=st.one_of(st.floats(-2.0, 2.0), st.floats(-1000.0, 1000.0)),
    num_points=st.one_of(st.none(), st.integers(6, 300), st.just(MAX_COUNT + 1)),
)
@example(bodies=[(0.0, 1.0, 0.0, 0.0), (0.0, 2.0, 0.0, 0.0)], masses=[1.0] * 3, tol=1e-8, t_end=0.3, close=None,
         kind="rotation", sigma=-1, group_time=0.5, num_points=50)
@example(bodies=[(0.0, 1.0, 0.0, 0.0), (1.0, 2.0, 0.0, 0.0)], masses=[1.0] * 3, tol=1e-8, t_end=0.3,
         close=(0, 1, 1e-9), kind="normal", sigma=-1, group_time=0.5, num_points=None)  # singular at t = 0
@example(bodies=[(0.0, 1.0, 0.0, 0.0)], masses=[1.0] * 3, tol=1e-8, t_end=0.1, close=None, kind="rotation",
         sigma=1, group_time=2.0, num_points=None)  # past the pole of the tan-shift
def test_invariance_fuzz_ends_in_one_json_object(bodies, masses, tol, t_end, close, kind, sigma, group_time,
                                                 num_points):
    doc = _run_doc(bodies, masses, tol, t_end, close)
    doc["invariance"] = {"kind": kind, "sigma": sigma, "group_time": group_time}
    if num_points is not None:
        doc["invariance"]["num_points"] = num_points
    code, report, written = _main_once(["invariance"], doc)
    _check_outcome(code, report, written, ["invariance.json"])
    if code == 2:
        assert report["error"]["message"] == _simulate_message(doc)


# drawn vlasov configs, the same way; num_points (at least 21) bounds the work with t_end
@settings(max_examples=100)
@given(
    bodies=_RUN_BODIES,
    masses=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
    tol=_RUN_TOL,
    t_end=st.floats(1e-3, 0.3),
    close=_CLOSE,
    num_points=st.one_of(st.none(), st.integers(20, 400), st.just(MAX_COUNT + 1)),
)
@example(bodies=[(0.0, 1.0, 0.6, 0.0), (0.0, 2.0, -0.6, 0.0)], masses=[1.0] * 3, tol=1e-10, t_end=0.3, close=None,
         num_points=101)
@example(bodies=[(0.0, 1.0, 0.0, 0.0), (0.0, 2.0, 0.0, 0.0)], masses=[1.0] * 3, tol=1e-8, t_end=0.3,
         close=(1, 0, 0.0), num_points=None)  # coincident
def test_vlasov_fuzz_ends_in_one_json_object(bodies, masses, tol, t_end, close, num_points):
    doc = _run_doc(bodies, masses, tol, t_end, close)
    if num_points is not None:
        doc["vlasov"] = {"num_points": num_points}
    code, report, written = _main_once(["vlasov"], doc)
    _check_outcome(code, report, written, ["vlasov.json"])
    if code == 2:
        assert report["error"]["message"] == _simulate_message(doc)


# drawn map configs: R of any sign and size, explicit points (Im flipped at index flip; moderate or extreme
# coordinates) or a sample count; each ends in exit 0 or a validation error, and map.csv and map.json on exit 0
_MAP_POINTS = st.one_of(st.tuples(st.floats(-100.0, 100.0), st.floats(1e-3, 100.0)),
                        st.tuples(st.floats(-1e6, 1e6), st.floats(1e-300, 1e6)))


@settings(max_examples=100)
@given(
    R=st.one_of(st.floats(1e-3, 1e3), st.sampled_from([-1.0, 0.0, 1e-300, 1e300, 5e-324])),
    points=st.one_of(st.none(), st.lists(_MAP_POINTS, min_size=1, max_size=20)),
    flip=st.integers(0, 99),
    samples=st.one_of(st.none(), st.integers(0, 300), st.just(MAX_COUNT + 1)),
    seed=st.integers(0, 2 ** 64),
)
@example(R=1.0, points=None, flip=40, samples=None, seed=7)
@example(R=1e-300, points=[(1e6, 1e-300)], flip=40, samples=None, seed=0)
def test_map_fuzz_ends_in_one_json_object(R, points, flip, samples, seed):
    section = {} if samples is None else {"samples": samples}
    if points is not None:
        section["points"] = [[re, -im if k == flip else im] for k, (re, im) in enumerate(points)]
    code, report, written = _main_once(["map"], {"R": R, "seed": seed, "map": section})
    assert code in (0, 1)
    _check_outcome(code, report, written, ["map.csv", "map.json"])
    if code == 1:
        assert report["error"]["code"] == "validation"


# Each CLI call runs in a fresh process, so the package import is paid on every
# call.  The package runs on numpy alone: no command, and not two_body_elliptic
# either, loads scipy, whose optimize module takes most of a second to import.
COLD_START_PROBE = """
import json, os, sys
import hnbody.cli
out, configs = sys.argv[1], json.loads(sys.argv[2])
codes = []
for name, argv in (("simulate", ["simulate"]), ("flow", ["flow"]), ("certify", ["certify"]),
                   ("find", ["equilibria", "find"])):
    path = os.path.join(out, name + ".json")
    with open(path, "w") as fh:
        json.dump(configs[name], fh)
    codes.append(hnbody.cli.main([*argv, "--config", path, "--out", os.path.join(out, name)]))
from hnbody.equilibria import two_body_elliptic
beta = two_body_elliptic(1.0, 2.0, 2.0).hex()
print()
print(json.dumps({"codes": codes, "beta": beta,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_commands_run_without_loading_scipy(tmp_path):
    configs = {
        "simulate": SIMULATE_DOC,
        "flow": {"flow": {"kind": "rotation", "sigma": 0, "points": [[0.0, 1.0]], "t_max": 0.5, "num": 5}},
        "certify": CERTIFY_DOC,
        "find": FIND_DOC,
    }
    src = os.path.dirname(os.path.dirname(hnbody.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE, str(tmp_path), json.dumps(configs)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    record = proc.stdout.splitlines()[-1]
    # the companion circle of masses (1, 2) at alpha 2, to the last bit
    assert json.loads(record) == {"codes": [0, 0, 0, 0], "beta": "0x1.84eff8c6d1555p+0", "scipy": []}
