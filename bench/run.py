"""hnbody benchmark: CLI time-to-result, one closed-loop caller in one process.

Run from the root of a checkout:

    python3 bench/run.py --workload orbit --seed 1 --seconds 35 --trace 0

The workload's configurations are generated from the seed (see
``workloads.py``), then passes over its operations repeat until the time
budget would be exceeded.  Each operation calls ``hnbody.cli.main(argv)``
in-process, and its exit code and reports go through the gates of
``gates.py``.  Times are host-normalised (``hostspeed.py``).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, and with ``--trace 1`` the per-layer metrics of a run that
alternates untraced and traced passes (``tracing.py``).  Failed operations
are reported on stderr.  Scratch files go under ``.bench_run/`` in the
working directory; the span file of a traced run stays there.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout

import gates
from hostspeed import HostSpeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
# Host-normalised time of ``import hnbody`` in a fresh interpreter; numpy, which the
# reference loop needs, is already loaded, so the probe leaves out numpy's own import.
IMPORT_PROBE = ("import importlib, sys; sys.path[:0] = sys.argv[1:]; from hostspeed import HostSpeed; "
                "print(HostSpeed().call(importlib.import_module, 'hnbody')[1])")

UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_mb": "MB"}
PER_LAYER_UNITS = {
    "dynamics.accept_ratio": "ratio",
    "dynamics.energy_drift": "ratio",
    "flows.invariance_residual": "abs",
    "reports.bytes": "bytes",
}


def unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    stem = re.sub(r"\.n\d+$", "", name)  # kernel probes carry the body count as a suffix
    for suffix, u in UNITS.items():
        if stem.endswith(suffix):
            return u
    return "count"


class Runner:
    """Runs passes over one workload's operations and gates every operation's output."""

    def __init__(self, ops: list, work_dir: str, cli):
        self.ops = ops
        self.work = work_dir
        self.cli = cli
        self.speed = HostSpeed()
        self.written = set()
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        os.makedirs(os.path.join(work_dir, "configs"), exist_ok=True)

    def config_path(self, op, outputs: dict) -> str:
        path = os.path.join(self.work, "configs", op.name + ".json")
        if callable(op.config) or op.name not in self.written:
            doc = op.config(outputs) if callable(op.config) else op.config
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.written.add(op.name)
        return path

    def prepare(self):
        """Write the configurations that do not depend on earlier outputs."""
        for op in self.ops:
            if not callable(op.config):
                self.config_path(op, {})

    def check(self, op, code, stdout: str, out_dir: str, verdict_time=None):
        if code != op.expect:
            raise gates.GateError(f"exit code {code}, expected {op.expect}: {stdout.strip()}")
        op.gate(gates.Output(out_dir, json.loads(stdout), verdict_time))
        digest = gates.digest(out_dir)
        if self.digests.setdefault(op.name, digest) != digest:
            raise gates.GateError("report files differ from the first pass of this run")

    @contextmanager
    def recording_verdicts(self, times: list):
        """Collect the time of every singularity verdict ``hnbody.cli.integrate`` raises."""
        from hnbody.errors import SingularityError

        integrate = self.cli.integrate

        def recorded(*args, **kwargs):
            try:
                return integrate(*args, **kwargs)
            except SingularityError as exc:
                times.append(exc.time)
                raise

        self.cli.integrate = recorded
        try:
            yield
        finally:
            self.cli.integrate = integrate

    def run_pass(self, index: int, tracer=None) -> list:
        """One pass; returns (name, kind, host-normalised seconds) of every operation that returned."""
        times = []
        outputs = {}
        for op in self.ops:
            out_dir = os.path.join(self.work, "out", op.name)
            shutil.rmtree(out_dir, ignore_errors=True)
            self.attempted += 1
            try:
                argv = [*op.command, "--config", self.config_path(op, outputs), "--out", out_dir]
                buf = io.StringIO()
                verdicts = []
                with redirect_stdout(buf), self.recording_verdicts(verdicts):
                    if tracer is None:
                        code, seconds, _ = self.speed.call(self.cli.main, argv)
                    else:
                        code, seconds, raw = self.speed.call(tracer.call_op, index, self.cli.main, argv,
                                                             record=tracer.record_reference)
                        tracer.scales[len(tracer.op_pass) - 1] = seconds / raw
                times.append((op.name, op.kind, seconds))
                self.check(op, code, buf.getvalue(), out_dir, verdicts[-1] if verdicts else None)
            except Exception as exc:  # counted as a failed operation; the run goes on
                self.failed += 1
                print(f"FAILED {op.name} (pass {index}): {type(exc).__name__}: {exc}", file=sys.stderr)
            outputs[op.name] = out_dir
        return times


def setup(name: str, seed: int, src: str, work: str, cli):
    """Median over SETUP_REPEATS of: a fresh interpreter importing hnbody, plus config generation.

    Both parts are host-normalised like the operations.
    """
    from workloads import WORKLOADS

    def generate():
        runner = Runner(WORKLOADS[name](seed), work, cli)
        runner.prepare()
        return runner

    speed = HostSpeed()
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src, BENCH_DIR], capture_output=True,
                               text=True, check=True, timeout=120)
        runner, generated, _ = speed.call(generate)
        samples.append(float(probe.stdout) + generated)
    return statistics.median(samples), runner


def measure(runner, seconds: float, tracer=None):
    """Repeat passes while the next one is expected to end within ``seconds``.

    With a tracer every pass index runs twice, untraced then traced, so the
    tracing overhead is a difference over identical work.
    """
    start = time.perf_counter()
    untraced, traced = [], []
    index = 0
    while True:
        began = time.perf_counter()
        untraced.append(runner.run_pass(index))
        if tracer is not None:
            with tracer.installed():
                traced.append(runner.run_pass(index, tracer))
        index += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return untraced, traced


def per_op(passes) -> dict:
    """Operation name -> (kind, median of its times over the passes)."""
    times = {}
    for row in passes:
        for name, kind, seconds in row:
            times.setdefault(name, (kind, []))[1].append(seconds)
    return {name: (kind, statistics.median(ts)) for name, (kind, ts) in times.items()}


def pass_wall(passes) -> float:
    """One pass made of every operation's median time."""
    return sum(seconds for _, seconds in per_op(passes).values())


def end_to_end(passes, setup_s: float) -> dict:
    from workloads import KINDS

    ops = per_op(passes)
    values = {"setup_s": setup_s, "wall_s": pass_wall(passes)}
    for kind in KINDS:
        values[f"{kind}_s"] = sum(seconds for k, seconds in ops.values() if k == kind)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def per_layer(runner, tracer, untraced, traced, probes: dict) -> dict:
    import tracing

    values = tracing.layer_metrics(tracer)
    values.update(probes)
    values["host.reference_ms"] = 1e3 * statistics.median(runner.speed.samples)
    values["trace.untraced_wall_s"] = pass_wall(untraced)
    values["trace.traced_wall_s"] = pass_wall(traced)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    return values


def result(runner, values: dict) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in values.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["orbit", "cluster", "collision"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hnbody", "cli.py")):
        print("bench: ./src/hnbody not found; run from the root of an hnbody checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, BENCH_DIR]
    import hnbody.cli

    work = os.path.join(root, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, runner = setup(args.workload, args.seed, src, work, hnbody.cli)
        if args.trace:
            import tracing

            start = time.perf_counter()
            probes = tracing.kernel_probes(args.seed)
            tracer = tracing.Tracer()
            untraced, traced = measure(runner, args.seconds - (time.perf_counter() - start), tracer)
            values = per_layer(runner, tracer, untraced, traced, probes)
            tracer.write(os.path.join(root, ".bench_run", f"spans-{args.workload}-{args.seed}.csv"))
        else:
            values = end_to_end(measure(runner, args.seconds)[0], setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result(runner, values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
