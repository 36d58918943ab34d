"""Bit-stable serialization of reports and sample files.

All floating-point values are rendered with 17 significant digits (enough
to round-trip IEEE doubles) and object keys are emitted sorted, so a fixed
configuration and seed always produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator
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


def write_text(path, text: str, append: bool = False):
    with open(path, "a" if append else "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

_CSV_BLOCK = 2048  # rows rendered at a time, so the text and floats held at once stay small


def _csv(header: str, fmt: str, arrays, blocks) -> Iterator[str]:
    """CSV text in pieces: ``header`` with its newline, then one string per
    array of ``blocks``, each (rows, fields) and rendered with one %-format
    call, every row ending in a newline.

    Floats come out as fmt_float renders them: 17 significant digits and
    -0.0 written as 0.  Every value of ``arrays`` is checked for finiteness
    here, at the call; ``blocks``, which must hold only those values, is
    iterated as the pieces are.
    """
    if not all(np.isfinite(a).all() for a in arrays):
        raise DomainError("reports may not contain NaN or infinite values")
    return _csv_pieces(header, fmt, blocks)


def _csv_pieces(header: str, fmt: str, blocks) -> Iterator[str]:
    yield header + "\n"
    rows, template = 0, ""
    for block in blocks:
        if len(block) != rows:
            rows = len(block)
            template = "\n".join([fmt] * rows) + "\n"
        yield template % tuple((block + 0.0).ravel().tolist())  # -0.0 + 0.0 == +0.0


def trajectory_csv(traj: Trajectory) -> Iterator[str]:
    """CSV pieces with header t,k,re,im,vre,vim, one row per node and body;
    a block holds the rows of as many whole nodes as fit in _CSV_BLOCK rows
    (at least one node)."""
    n = traj.n
    step = max(1, _CSV_BLOCK // n)
    k = np.arange(n)

    def blocks():
        for a in range(0, len(traj.times), step):
            ys = traj.ys[a:a + step]
            w, v = ys[:, :n], ys[:, n:]
            columns = np.broadcast_arrays(traj.times[a:a + step, None], k, w.real, w.imag, v.real, v.imag)
            yield np.stack(columns, axis=-1).reshape(-1, 6)

    return _csv("t,k,re,im,vre,vim", "%.17g,%d,%.17g,%.17g,%.17g,%.17g", (traj.times, traj.ys), blocks())


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


def _row_blocks(data: np.ndarray):
    return (data[a:a + _CSV_BLOCK] for a in range(0, len(data), _CSV_BLOCK))


def flow_csv(rows) -> Iterator[str]:
    """CSV pieces with header t,s,k,re,im for flow samples."""
    data = np.array(rows, dtype=float).reshape(-1, 5)
    return _csv("t,s,k,re,im", "%.17g,%.17g,%d,%.17g,%.17g", (data,), _row_blocks(data))


def map_csv(rows) -> Iterator[str]:
    """CSV pieces with header re,im,disk_re,disk_im,back_re,back_im for disk round trips."""
    data = np.array(rows, dtype=float).reshape(-1, 6)
    return _csv("re,im,disk_re,disk_im,back_re,back_im", "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g", (data,),
                _row_blocks(data))
