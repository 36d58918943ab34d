"""Tests of the benchmark harness itself (generators, gates, printed metric names).

Run from the root of a checkout: ``python -m pytest bench/test_bench.py``.
"""

import json
import math
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import gates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import hnbody.cli  # noqa: E402
from hnbody.geometry import hyperbolic_distance  # noqa: E402


def _configs(ops):
    return [json.dumps(op.config, sort_keys=True) for op in ops if not callable(op.config)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    assert _configs(make(5)) == _configs(make(5))
    assert _configs(make(5)) != _configs(make(6))


def test_cluster_separation_and_disk():
    bodies, masses = workloads.cluster_bodies(3, 128)
    points = [w for w, _ in bodies]
    assert len(points) == 128
    closest = min(hyperbolic_distance(a, b, 1.0) for i, a in enumerate(points) for b in points[i + 1:])
    assert closest >= 0.5
    assert max(hyperbolic_distance(w, 1j, 1.0) for w in points) <= 3.0 + 1e-9
    assert all(0.5 <= m <= 2.0 for m in masses)


def test_isometric_images_stay_in_the_box_and_keep_the_distance():
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(20):
        image = workloads.isometric_image(workloads.boxed_isometry(rng), workloads.HEAD_ON_BODIES)
        (w1, _), (w2, _) = image
        assert math.isclose(hyperbolic_distance(w1, w2, 1.0), math.log(2.0), rel_tol=1e-9)
        assert all(abs(w.real) <= 3.0 and 0.5 <= w.imag <= 5.0 and abs(w) >= 1.0 for w, _ in image)


def test_gate_rejects_a_tampered_report(tmp_path):
    op = workloads.control_ops()["flow"][0]
    runner = run.Runner([op], str(tmp_path / "work"), hnbody.cli)
    runner.run_pass(0)
    assert runner.failed == 0
    out = tmp_path / "work" / "out" / op.name
    report = json.loads((out / "flow.json").read_text())
    report["max_derivative_defect"] = 1e-3
    (out / "flow.json").write_text(json.dumps(report))
    with pytest.raises(gates.GateError):
        op.gate(gates.Output(str(out), {"ok": True, "outputs": ["flow.csv", "flow.json"]}))
    with pytest.raises(gates.GateError):  # bytes differ from the first pass
        runner.check(op, 0, json.dumps({"ok": True}), str(out))


def test_verdict_gate_checks_code_and_time(tmp_path):
    check = gates.verdict(workloads.VERDICT_TIME, 0.02)
    none = str(tmp_path / "none")
    singular = {"error": {"code": "singularity", "message": "pair (0, 1) touched the singular set"}}
    check(gates.Output(none, singular, 0.3400873))
    for out in (gates.Output(none, singular, 0.5), gates.Output(none, singular, None),
                gates.Output(none, {"error": {"code": "integrator-failure"}}, 0.3400873),
                gates.Output(none, {"ok": True, "outputs": []})):
        with pytest.raises(gates.GateError):
            check(out)


def test_printed_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    controls = workloads.control_ops()
    ops = [op for kind in workloads.KINDS for op in controls[kind]]
    runner = run.Runner(ops, str(tmp_path), hnbody.cli)
    tracer = tracing.Tracer()
    untraced, traced = run.measure(runner, 0.0, tracer)
    probes = tracing.kernel_probes(1)
    assert probes["dynamics.eom_rhs_pairs_computed.n128"] == 128 * 127
    e2e = run.result(runner, run.end_to_end(untraced, 0.5))
    layers = run.result(runner, run.per_layer(runner, tracer, untraced, traced, probes))
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] == 2 * len(ops)
    for printed, declared in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert {n: m["unit"] for n, m in printed["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
        assert all(m["value"] > 0 for n, m in printed["metrics"].items() if n != "trace.overhead_s")
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "orbit", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
