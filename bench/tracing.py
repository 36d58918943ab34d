"""Spans at the module boundaries of hnbody, recorded from outside the package.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
names that callers look up at call time: the library functions that
``hnbody.cli`` imported, the ``hnbody.reports`` functions, the names
``hnbody.flows`` imported from ``clifford``, ``geometry`` and
``dynamics``, and ``Trajectory.sample_many``.  Each call records a span
(name, start, end, parent span, operation id) and the counts known at that
boundary.  Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import hnbody.cli
import hnbody.dynamics
import hnbody.flows
import hnbody.reports
from hnbody.dynamics import SystemState, conserved, eom_rhs
from hnbody.errors import SingularityError

import workloads
from hostspeed import HostSpeed


def _integrate(counts, result, exc, args):
    traj = result if exc is None else exc.trajectory  # a verdict carries the trajectory so far
    if traj is not None:
        counts["dynamics.steps"] += traj.stats.steps
        counts["dynamics.rejected"] += traj.stats.rejected


def _verify_invariance(counts, result, exc, args):
    counts["flows.transported_points"] += result.num_points * args[0].n
    counts["flows.invariance_residual"] = max(counts["flows.invariance_residual"], result.max_residual)


def _certify(counts, result, exc, args):
    counts["equilibria.certify_samples"] += len(result.samples)


def _find(counts, result, exc, args):
    counts["equilibria.lm_iterations"] += result[1].iterations


def _sidecar(counts, result, exc, args):
    counts["dynamics.energy_drift"] = max(counts["dynamics.energy_drift"], result["energy_drift"])


def _write_text(counts, result, exc, args):
    counts["reports.bytes"] += len(args[1].encode())


# (owner, attribute, span name, count hook).  A hook runs when the call
# returns; only the integrator hook also runs on a singularity verdict.
BOUNDARIES = (
    (hnbody.cli, "integrate", "dynamics.integrate", _integrate),
    (hnbody.cli, "verify_invariance", "flows.verify_invariance", _verify_invariance),
    (hnbody.cli, "vlasov_weak_residual", "dynamics.vlasov", None),
    (hnbody.cli, "certify_nonexistence", "equilibria.certify", _certify),
    (hnbody.cli, "find_equilibrium_detailed", "equilibria.find", _find),
    (hnbody.cli, "flow_samples", "flows.flow_samples", None),
    (hnbody.cli, "flow_derivative_check", "flows.derivative_check", None),
    (hnbody.reports, "trajectory_sidecar", "reports.sidecar", _sidecar),
    (hnbody.reports, "trajectory_csv", "reports.csv", None),
    (hnbody.reports, "flow_csv", "reports.csv", None),
    (hnbody.reports, "canonical_json", "reports.json", None),
    (hnbody.reports, "write_text", "reports.write", _write_text),
    (hnbody.flows, "exp_subgroup", "clifford.exp_subgroup", None),
    (hnbody.flows, "apply_mobius", "geometry.apply_mobius", None),
    (hnbody.flows, "eom_rhs", "dynamics.eom_rhs", None),
    (hnbody.dynamics.Trajectory, "sample_many", "dynamics.sample_many", None),
)

OP_SPAN = "cli.main"
REFERENCE_SPAN = "host.reference"  # host-speed reference taken inside an operation (hostspeed.py)


class Tracer:
    """In-memory spans and per-pass counts."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.op_pass = []  # op id -> pass index
        self.scales = {}  # op id -> host-speed factor (hostspeed.py), set by the caller
        self.counts = defaultdict(lambda: defaultdict(float))  # pass -> name -> value
        self._stack = []
        self._op = -1

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SingularityError as exc:
                self._close(index, name, start, parent)
                if hook is _integrate:
                    hook(self._counts(), None, exc, args)
                raise
            except BaseException:
                self._close(index, name, start, parent)
                raise
            self._close(index, name, start, parent)
            if hook is not None:
                hook(self._counts(), result, None, args)
            return result

        return traced

    def _close(self, index, name, start, parent):
        self.spans[index] = (name, start, time.perf_counter(), parent, self._op)
        self._stack.pop()

    def _counts(self):
        return self.counts[self.op_pass[self._op]]

    def record_reference(self, start: float, end: float):
        """A reference run inside the current span: a child span, so no layer's self time holds it."""
        self.spans.append((REFERENCE_SPAN, start, end, self._stack[-1] if self._stack else -1, self._op))

    def call_op(self, pass_index: int, fn, *args):
        """Run one CLI operation as a root span."""
        self._op = len(self.op_pass)
        self.op_pass.append(pass_index)
        return self.wrap(OP_SPAN, fn)(*args)

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in BOUNDARIES]
        try:
            for (owner, attr, name, hook), (_, _, original) in zip(BOUNDARIES, saved):
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_times(self):
        """Per pass and span name: summed self time (span minus its direct children,
        host-normalised with the factor of its operation) and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        calls = defaultdict(lambda: defaultdict(int))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[self.op_pass[op]][name] += (end - start - child[i]) * self.scales.get(op, 1.0)
            calls[self.op_pass[op]][name] += 1
        return out, calls

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op,pass\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op},{self.op_pass[op]}\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass self times and counts."""
    times, calls = tracer.self_times()
    per_pass = []
    for p in sorted(times):
        t, n, c = times[p], calls[p], tracer.counts[p]
        attempts = c["dynamics.steps"] + c["dynamics.rejected"]
        per_pass.append({
            "dynamics.integrate_s": t["dynamics.integrate"],
            "dynamics.attempt_us": 1e6 * t["dynamics.integrate"] / attempts,
            "dynamics.steps": c["dynamics.steps"],
            "dynamics.rejected": c["dynamics.rejected"],
            "dynamics.accept_ratio": c["dynamics.steps"] / attempts,
            "dynamics.sample_many_s": t["dynamics.sample_many"],
            "dynamics.vlasov_s": t["dynamics.vlasov"],
            "dynamics.eom_rhs_s": t["dynamics.eom_rhs"],
            "dynamics.energy_drift": c["dynamics.energy_drift"],
            "flows.verify_invariance_s": t["flows.verify_invariance"],
            "flows.transported_points": c["flows.transported_points"],
            "flows.invariance_residual": c["flows.invariance_residual"],
            "flows.flow_samples_s": t["flows.flow_samples"],
            "flows.derivative_check_s": t["flows.derivative_check"],
            "clifford.exp_subgroup_calls": n["clifford.exp_subgroup"],
            "clifford.exp_subgroup_s": t["clifford.exp_subgroup"],
            "geometry.apply_mobius_calls": n["geometry.apply_mobius"],
            "geometry.apply_mobius_s": t["geometry.apply_mobius"],
            "equilibria.certify_s": t["equilibria.certify"],
            "equilibria.certify_samples": c["equilibria.certify_samples"],
            "equilibria.find_s": t["equilibria.find"],
            "equilibria.lm_iterations": c["equilibria.lm_iterations"],
            "reports.sidecar_s": t["reports.sidecar"],
            "reports.csv_s": t["reports.csv"],
            "reports.json_s": t["reports.json"],
            "reports.write_s": t["reports.write"],
            "reports.bytes": c["reports.bytes"],
            "cli.self_s": t[OP_SPAN],
            "cli.ops": n[OP_SPAN],
        })
    return {name: statistics.median(row[name] for row in per_pass) for name in per_pass[0]}


def _per_call_us(fn, arg, speed: HostSpeed, batches: int = 15, batch_s: float = 0.004) -> float:
    """Median over batches of the host-normalised time of one call, in microseconds."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        if time.perf_counter() - start >= batch_s:
            break
        calls *= 2
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        samples.append((time.perf_counter() - start) / calls * speed.scale())
    return 1e6 * statistics.median(samples)


def kernel_probes(seed: int) -> dict:
    """eom_rhs and conserved on one state per size; n = 2 is the README orbit, larger n the cluster generator."""
    states = {2: SystemState(0.0, [w for w, _ in workloads.README_BODIES],
                             [v for _, v in workloads.README_BODIES], [1.0, 1.0], 1.0)}
    for n in (8, 32, 128):
        bodies, masses = workloads.cluster_bodies(seed, n)
        states[n] = SystemState(0.0, [w for w, _ in bodies], [v for _, v in bodies], masses, 1.0)
    speed = HostSpeed()
    out = {}
    for n, state in states.items():
        out[f"dynamics.eom_rhs_us.n{n}"] = _per_call_us(eom_rhs, state, speed)
        out[f"dynamics.eom_rhs_pairs_computed.n{n}"] = n * (n - 1)
    for n in (2, 128):
        out[f"dynamics.conserved_us.n{n}"] = _per_call_us(conserved, states[n], speed)
    return out
