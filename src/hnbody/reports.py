"""Bit-stable serialization of reports and sample files.

All floating-point values are rendered with 17 significant digits (enough
to round-trip IEEE doubles) and object keys are emitted sorted, so a fixed
configuration and seed always produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import operator
from itertools import compress, repeat

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
_LITERALS = {True: "true", False: "false", None: "null"}.__getitem__


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
        records = _records(obj, inner) if len(obj) > 1 and type(obj[0]) is dict else None
        if records is not None:  # one template fits every item
            return f"[\n{records}\n{pad}]"
        items = [inner + _json(item, inner) for item in obj]
        brackets = "[]"
    elif isinstance(obj, str):
        return _json_string(obj)
    elif isinstance(obj, bool) or obj is None:
        return _LITERALS(obj)
    elif isinstance(obj, (int, np.integer)):
        return str(int(obj))
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} into a report")
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}" if items else brackets


# The exact leaf types a record template holds a slot for.
_SLOTS = {float: "%.17g", int: "%d", bool: "%s"}


def _records(records, pad: str):
    """The items of a list of records, each indented by ``pad``, in one %-format call, or None.

    The template is the text of the first record with one slot per float, int
    or bool leaf.  A flat plan walks each record: every dict or list is taken
    from a value list, its exact type and key set or length checked, and its
    children (a dict's in sorted key order) appended; the leaves are then
    picked in the template's slot order.  None unless every record fits, with
    exact leaf types and finite floats; the caller then renders the list item
    by item, which gives the same bytes or raises the first error.
    """
    steps, leaves = [], []  # (value index, sorted keys, key set or None for a list); (value index, type)
    count = 1  # values the steps yield, starting with the record itself

    def text(node, reg: int, pad: str):
        nonlocal count
        kind = type(node)
        if kind in _SLOTS:
            leaves.append((reg, kind))
            return _SLOTS[kind]
        inner = pad + "  "
        if kind is dict and all(type(key) is str for key in node):
            keys = sorted(node)
            steps.append((reg, keys, frozenset(keys)))
            heads = [f"{inner}{_json_string(key).replace('%', '%%')}: " for key in keys]
            children, brackets = [node[key] for key in keys], "{}"
        elif kind is list:
            steps.append((reg, len(node), None))
            heads, children, brackets = [inner] * len(node), node, "[]"
        else:
            return None
        first, count = count, count + len(children)
        texts = [text(child, first + i, inner) for i, child in enumerate(children)]
        if None in texts:
            return None
        parts = map(operator.add, heads, texts)
        return f"{brackets[0]}\n" + ",\n".join(parts) + f"\n{pad}{brackets[1]}" if texts else brackets

    template = text(records[0], 0, pad)
    if template is None:
        return None
    regs = [reg for reg, _ in leaves]
    slots = []
    for record in records:
        values = [record]
        for reg, order, keys in steps:
            node = values[reg]
            if keys is None:
                if type(node) is not list or len(node) != order:
                    return None
                values += node
            else:
                if type(node) is not dict or node.keys() != keys:
                    return None
                values += map(node.__getitem__, order)
        slots += map(values.__getitem__, regs)
    kinds = [kind for _, kind in leaves]
    if list(map(type, slots)) != kinds * len(records):
        return None
    floats = list(compress(slots, [kind is float for kind in kinds] * len(records)))
    if not all(map(math.isfinite, floats)):
        return None
    zero = 0.0 in floats  # true for -0.0 as well; otherwise the records' own floats are formatted
    width = len(kinds)
    for i, kind in enumerate(kinds):  # one column of slots per leaf
        if kind is bool:
            slots[i::width] = map(_LITERALS, slots[i::width])
        elif kind is float and zero:
            slots[i::width] = map(operator.add, slots[i::width], repeat(0.0))  # -0.0 + 0.0 == +0.0
    return ",\n".join([pad + template] * len(records)) % tuple(slots)


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
