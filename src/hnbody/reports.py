"""Bit-stable serialization of reports and sample files.

All floating-point values are rendered with 17 significant digits (enough
to round-trip IEEE doubles) and object keys are emitted sorted, so a fixed
configuration and seed always produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import operator
from itertools import repeat

import numpy as np

from .dynamics import SystemState, Trajectory, conserved
from .errors import DomainError


def fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("reports may not contain NaN or infinite values")
    return format(x + 0.0, ".17g")  # -0.0 + 0.0 == +0.0


# the stdlib's C encoder: escapes quotes, backslashes, control and non-ASCII characters (lone surrogates too)
_json_string = json.encoder.encode_basestring_ascii


def canonical_json(obj) -> str:
    """Render a report tree deterministically; returns text ending in a newline."""
    return _json(obj, "") + "\n"


def _json(obj, pad: str) -> str:
    """The text of one node on a line indented by ``pad``; floats, most of a report, come first."""
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise DomainError(f"report keys must be strings, got {key!r}")
        items = [f"{inner}{_json_string(key)}: {_json(obj[key], inner)}" for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == {float}:  # the long series: one finiteness pass, one format
            if not all(map(math.isfinite, obj)):
                raise DomainError("reports may not contain NaN or infinite values")
            sep = ",\n" + inner
            body = sep.join(["%.17g"] * len(obj)) % tuple(map(operator.add, obj, repeat(0.0)))  # -0.0 -> 0.0
            return f"[\n{inner}{body}\n{pad}]"
        items = [inner + _json(item, inner) for item in obj]
        brackets = "[]"
    elif isinstance(obj, str):
        return _json_string(obj)
    elif isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    elif isinstance(obj, (int, np.integer)):
        return str(int(obj))
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} into a report")
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}" if items else brackets


def write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

_CSV_BLOCK = 2048  # rows turned into Python floats at a time, to bound the memory they take


def _csv(header: str, fmt: str, data: np.ndarray) -> str:
    """CSV text: ``header``, then ``data`` of shape (fields, rows) with one
    %-format per row, each line ending in a newline.

    Floats come out as fmt_float renders them: 17 significant digits and
    -0.0 written as 0.  ``data`` is normalised in place.
    """
    if not np.all(np.isfinite(data)):
        raise DomainError("reports may not contain NaN or infinite values")
    data += 0.0  # -0.0 + 0.0 == +0.0; every other value is unchanged
    rows = [fmt % row for a in range(0, data.shape[1], _CSV_BLOCK)
            for row in zip(*data[:, a:a + _CSV_BLOCK].tolist())]
    return "\n".join([header, *rows, ""])


def trajectory_csv(traj: Trajectory) -> str:
    """CSV body with header t,k,re,im,vre,vim, one row per node and body."""
    n = traj.n
    w, v = traj.ys[:, :n], traj.ys[:, n:]
    data = np.empty((6,) + w.shape)
    data[0], data[1] = traj.times[:, None], np.arange(n)
    data[2], data[3], data[4], data[5] = w.real, w.imag, v.real, v.imag
    return _csv("t,k,re,im,vre,vim", "%.17g,%d,%.17g,%.17g,%.17g,%.17g", data.reshape(6, -1))


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
    return _csv("t,s,k,re,im", "%.17g,%.17g,%d,%.17g,%.17g", data)


def map_csv(rows) -> str:
    """CSV body with header re,im,disk_re,disk_im,back_re,back_im for disk round trips."""
    data = np.array(rows, dtype=float).reshape(-1, 6).T
    return _csv("re,im,disk_re,disk_im,back_re,back_im", "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g", data)
