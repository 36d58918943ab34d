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
        records = _RecordTemplate.of(obj[0], inner) if len(obj) > 1 and type(obj[0]) is dict else None
        if records is None:
            items = [inner + _json(item, inner) for item in obj]
        else:
            items = records.render(obj, inner)
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


# The leaf types a record template holds a slot for, and the slot of each.  bool and None
# leaves are rendered into their literal and strings into their escaped text first.
_SLOTS = {float: "%.17g", int: "%d", bool: "%s", type(None): "%s", str: "%s"}
_SEQUENCES = (list, tuple)


def _tuple_getter(indices):
    """A callable that picks ``indices`` from a sequence and always returns a tuple."""
    if len(indices) == 1:
        return lambda values, i=indices[0]: (values[i],)
    return operator.itemgetter(*indices) if indices else lambda values: ()


class _RecordTemplate:
    """One %-format template for the items of a list of records that share a shape.

    The template is the text of the first item, indented by ``pad``, with one
    slot per leaf.  The plan walks an item flat: each step takes a container
    from a value list, checks its exact type and its keys or length, and
    appends its children (a dict's in sorted key order); the leaves are then
    picked from that list in the template's slot order.
    """

    def __init__(self):
        self.steps = []  # (value index, frozenset of keys or None for a sequence, sorted keys or length)
        self.leaves = []  # (value index, exact type), in slot order
        self.count = 1  # values the steps yield, starting with the item itself

    @classmethod
    def of(cls, first, pad: str):
        """The template of ``first``, or None if it holds a leaf with no slot or a non-str key."""
        self = cls()
        text = self._text(first, 0, pad)
        if text is None:
            return None
        self.fmt = pad + text
        regs, types = zip(*self.leaves) if self.leaves else ((), ())
        self.types = types
        self.pick = _tuple_getter(regs)
        self.floats = [i for i, t in enumerate(types) if t is float]
        self.pick_floats = _tuple_getter(self.floats)
        self.strings = [(i, _json_string if t is str else _LITERALS)
                        for i, t in enumerate(types) if _SLOTS[t] == "%s"]
        return self

    def _text(self, node, reg: int, pad: str):
        kind = type(node)
        if kind in _SLOTS:
            self.leaves.append((reg, kind))
            return _SLOTS[kind]
        inner = pad + "  "
        if kind is dict:
            if not all(type(key) is str for key in node):
                return None
            keys = sorted(node)
            self.steps.append((reg, frozenset(keys), keys))
            heads = [f"{inner}{_json_string(key).replace('%', '%%')}: " for key in keys]
            children, brackets = [node[key] for key in keys], "{}"
        elif kind in _SEQUENCES:
            self.steps.append((reg, None, len(node)))
            heads, children, brackets = [inner] * len(node), node, "[]"
        else:
            return None
        first, self.count = self.count, self.count + len(children)
        parts = []
        for i, (head, child) in enumerate(zip(heads, children)):
            text = self._text(child, first + i, inner)
            if text is None:
                return None
            parts.append(head + text)
        return f"{brackets[0]}\n" + ",\n".join(parts) + f"\n{pad}{brackets[1]}" if parts else brackets

    def render(self, items, pad: str) -> list:
        """Texts of ``items``, the same bytes as ``pad + _json(item, pad)`` each.

        Each run of items that fit the template is one %-format call, whose
        text holds the whole run (fewer and larger strings take less peak
        memory than one per item); any other item takes the recursion, which
        renders it or raises as before.
        """
        texts, run, count = [], [], 0
        for item in items:
            slots = self._slots(item)
            if slots is None:
                if count:
                    texts.append(self._format(run, count))
                    run, count = [], 0
                texts.append(pad + _json(item, pad))
            else:
                run += slots
                count += 1
        if count:
            texts.append(self._format(run, count))
        return texts

    def _format(self, slots: list, count: int) -> str:
        return ",\n".join([self.fmt] * count) % tuple(slots)

    def _slots(self, item):
        """The slot values of ``item``, or None if it has another shape, leaf type or a non-finite float."""
        values = [item]
        for reg, keys, order in self.steps:
            node = values[reg]
            if keys is None:
                if type(node) not in _SEQUENCES or len(node) != order:
                    return None
                values += node
            else:
                if type(node) is not dict or node.keys() != keys:
                    return None
                values += map(node.__getitem__, order)
        leaves = self.pick(values)
        if tuple(map(type, leaves)) != self.types:
            return None
        floats = self.pick_floats(leaves)
        if not all(map(math.isfinite, floats)):
            return None
        zero = 0.0 in floats  # true for -0.0 as well
        if self.strings or zero:
            leaves = list(leaves)
            for i, string in self.strings:
                leaves[i] = string(leaves[i])
            if zero:
                for i in self.floats:
                    leaves[i] += 0.0  # -0.0 + 0.0 == +0.0
        return leaves


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
