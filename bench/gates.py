"""Output gates: checks on what one CLI operation wrote.

A gate takes the ``Output`` of one operation and raises ``GateError``
when it is wrong.  The runner
counts a raised gate, a wrong exit code or an exception as a failed
operation.  ``digest`` fingerprints the report files so the runner can
require them to be byte-identical between passes of one run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass


class GateError(Exception):
    """An operation's output failed a correctness check."""


@dataclass(frozen=True)
class Output:
    """What one operation produced: its report directory, parsed stdout and, for a
    singularity verdict, the time carried by the raised error."""

    out_dir: str
    stdout: dict
    verdict_time: float | None = None


def read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def digest(out_dir: str) -> dict:
    """SHA-256 of every report file an operation wrote, by file name."""
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _below(what: str, value: float, bound: float):
    if not value < bound:
        raise GateError(f"{what} = {value!r} is not below {bound!r}")


def _ok(out: Output):
    if out.stdout.get("ok") is not True:
        raise GateError(f"stdout does not report success: {out.stdout!r}")


def simulate(max_drift: float):
    def check(out):
        _ok(out)
        sidecar = read_json(out.out_dir, "trajectory.json")
        _below("energy_drift", sidecar["energy_drift"], max_drift)
        with open(os.path.join(out.out_dir, "trajectory.csv"), encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        expected = (sidecar["stats"]["steps"] + 1) * len(sidecar["masses"])
        if rows != expected:
            raise GateError(f"trajectory.csv has {rows} rows, expected {expected}")
    return check


def find(max_residual: float):
    def check(out):
        _ok(out)
        _below("residual_inf_norm", read_json(out.out_dir, "equilibrium.json")["residual_inf_norm"], max_residual)
    return check


def invariance(bound: float):
    def check(out):
        _ok(out)
        _below("invariance max_residual", read_json(out.out_dir, "invariance.json")["max_residual"], bound)
    return check


def vlasov(bound: float):
    def check(out):
        _ok(out)
        _below("vlasov residual", read_json(out.out_dir, "vlasov.json")["residual"], bound)
    return check


def certify(samples: int):
    def check(out):
        _ok(out)
        cert = read_json(out.out_dir, "certificate.json")
        if cert["verdict"] is not True or cert["sample_count"] != samples:
            raise GateError(f"certificate verdict {cert['verdict']!r} over {cert['sample_count']} samples, "
                            f"expected true over {samples}")
    return check


def flow(max_defect: float):
    def check(out):
        _ok(out)
        _below("flow max_derivative_defect", read_json(out.out_dir, "flow.json")["max_derivative_defect"], max_defect)
    return check


def verdict(t_star: float, tolerance: float):
    """Exit 2 with error code ``singularity`` at t_star +/- tolerance, and no report files.

    The time comes from the raised error: the CLI message carries it only
    when the verdict follows an accepted step (see NOTES.md).
    """

    def check(out):
        error = out.stdout.get("error", {})
        if error.get("code") != "singularity":
            raise GateError(f"expected a singularity verdict, got {out.stdout!r}")
        if out.verdict_time is None or not abs(out.verdict_time - t_star) <= tolerance:
            raise GateError(f"verdict at t = {out.verdict_time}, expected {t_star} +/- {tolerance}")
        if digest(out.out_dir):
            raise GateError("a verdict run wrote report files")
    return check
