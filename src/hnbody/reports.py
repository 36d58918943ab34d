"""Bit-stable serialization of reports and sample files.

All floating-point values are rendered with 17 significant digits (enough
to round-trip IEEE doubles) and object keys are emitted sorted, so a fixed
configuration and seed always produce byte-identical output.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import SystemState, Trajectory, conserved
from .errors import DomainError


def fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise DomainError("reports may not contain NaN or infinite values")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Render a report tree deterministically; returns text ending in a newline."""
    pieces = []
    _write_json(obj, pieces)
    return "".join(pieces) + "\n"


def _write_json(obj, out: list, indent: int = 0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise DomainError(f"report keys must be strings, got {key!r}")
            out.append(f'{pad}  "{key}": ')
            _write_json(obj[key], out, indent + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _write_json(item, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, bool) or obj is None:
        out.append({True: "true", False: "false", None: "null"}[obj])
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(obj))
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} into a report")


def write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

_CSV_BLOCK = 2048  # rows turned into Python floats at a time, to bound the memory they take


def _csv_rows(fmt: str, data: np.ndarray) -> list:
    """Render ``data`` of shape (fields, rows) with one %-format per row.

    Floats come out as fmt_float renders them: 17 significant digits and
    -0.0 written as 0.  ``data`` is normalised in place.
    """
    if not np.all(np.isfinite(data)):
        raise DomainError("reports may not contain NaN or infinite values")
    data += 0.0  # -0.0 + 0.0 == +0.0; every other value is unchanged
    return [fmt % row for a in range(0, data.shape[1], _CSV_BLOCK)
            for row in zip(*data[:, a:a + _CSV_BLOCK].tolist())]


def trajectory_csv(traj: Trajectory) -> str:
    """CSV body with header t,k,re,im,vre,vim, one row per node and body."""
    n = traj.n
    w, v = traj.ys[:, :n], traj.ys[:, n:]
    data = np.empty((6,) + w.shape)
    data[0], data[1] = traj.times[:, None], np.arange(n)
    data[2], data[3], data[4], data[5] = w.real, w.imag, v.real, v.imag
    rows = _csv_rows("%.17g,%d,%.17g,%.17g,%.17g,%.17g", data.reshape(6, -1))
    return "\n".join(["t,k,re,im,vre,vim", *rows, ""])


def trajectory_sidecar(traj: Trajectory) -> dict:
    """JSON sidecar: masses, R, conserved-quantity series, integrator stats."""
    n = traj.n
    q = conserved(SystemState(traj.times, traj.ys[:, :n], traj.ys[:, n:], traj.masses, traj.R))
    energies = q.energy
    scale = max(1.0, abs(float(energies[0])))
    drift = float(np.max(np.abs(energies - energies[0]))) / scale
    series = {"t": traj.times.tolist(), **{key: val.tolist() for key, val in q.as_dict().items()}}
    return {
        "masses": [float(m) for m in traj.masses],
        "R": float(traj.R),
        "conserved": series,
        "energy_drift": drift,
        "stats": {
            "steps": traj.stats.steps,
            "rejected_steps": traj.stats.rejected,
            "min_theta": None if math.isinf(traj.stats.min_theta) else traj.stats.min_theta,
        },
    }


def flow_csv(rows) -> str:
    """CSV body with header t,s,k,re,im for flow samples."""
    data = np.array(rows, dtype=float).reshape(-1, 5).T
    return "\n".join(["t,s,k,re,im", *_csv_rows("%.17g,%.17g,%d,%.17g,%.17g", data), ""])


def map_csv(rows) -> str:
    """CSV body with header re,im,disk_re,disk_im,back_re,back_im for disk round trips."""
    data = np.array(rows, dtype=float).reshape(-1, 6).T
    rows = _csv_rows("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g", data)
    return "\n".join(["re,im,disk_re,disk_im,back_re,back_im", *rows, ""])
