"""Bit-stable serialization of reports and sample files.

All floating-point values are rendered with 17 significant digits (enough
to round-trip IEEE doubles) and object keys are emitted sorted, so a fixed
configuration and seed always produce byte-identical output.  A JSON list
whose items share one shape (see ``_shape``) is rendered from one template
in one %-format call; any other list item by item, which is the reference
for those bytes and raises the first error.  A list of records given as
columns (``Records``) takes the same template, filled from its arrays; it
and the CSV reports are rendered one block of records or rows at a time.
Every CSV report goes through one renderer (``_grouped_csv``): its rows
come in groups that share leading key columns, such as the time of a
trajectory node, and count an index k within the group; keys are formatted
once per group, k is a literal of the row template, and only the value
columns are formatted row by row.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator
from itertools import chain, repeat

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
        items = [f"{inner}{_json_string(key)}: {_json(obj[key], inner)}" for key in _sorted_keys(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        shape = _shape(obj, inner)
        if shape is not None:  # one template fits every item
            template, columns = shape
            values = columns[0] if len(columns) == 1 else chain.from_iterable(zip(*columns))
            body = (",\n" + inner).join([template] * len(obj)) % tuple(values)
            return f"[\n{inner}{body}\n{pad}]"
        items = [inner + _json(item, inner) for item in obj]
        brackets = "[]"
    elif isinstance(obj, str):
        return _json_string(obj)
    elif isinstance(obj, bool) or obj is None:
        return _LITERALS(obj)
    elif isinstance(obj, (int, np.integer)):
        return str(int(obj))
    elif isinstance(obj, Records):
        return "".join(obj.pieces(pad))
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} into a report")
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}" if items else brackets


def _sorted_keys(obj: dict) -> list:
    for key in obj:
        if not isinstance(key, str):
            raise DomainError(f"report keys must be strings, got {key!r}")
    return sorted(obj)


def _shape(nodes, pad: str):
    """(template, columns) when ``nodes`` share one shape, else None.

    The template is the text of one node on a line indented by ``pad``, with a
    %-slot for each float, int or bool leaf; ``columns`` holds, per slot, that
    leaf's value in every node, ready for the slot.  Nodes share a shape when
    they have one exact type: finite floats, ints or bools; dicts with one set
    of str keys whose values, key by key, share a shape; or lists of one
    length whose items, all lists' items together, share a shape.  On None the
    caller renders item by item, which gives the same bytes or raises the
    first error.
    """
    if len(set(map(type, nodes))) != 1:
        return None
    kind = type(nodes[0])
    if kind is float:
        if not all(map(math.isfinite, nodes)):
            return None
        return "%.17g", [tuple(map(operator.add, nodes, repeat(0.0)))]  # -0.0 + 0.0 == +0.0
    if kind is int:
        return "%d", [nodes]
    if kind is bool:
        return "%s", [tuple(map(_LITERALS, nodes))]
    inner = pad + "  "
    if kind is dict:
        keys = nodes[0].keys()
        if not (all(type(key) is str for key in keys) and all(map(keys.__eq__, map(dict.keys, nodes)))):
            return None
        parts, columns = [], []
        for key in sorted(keys):
            shape = _shape(list(map(operator.itemgetter(key), nodes)), inner)
            if shape is None:
                return None
            parts.append(f"{inner}{_json_string(key).replace('%', '%%')}: {shape[0]}")
            columns += shape[1]
        brackets = "{}"
    elif kind is list:
        size = len(nodes[0])
        if not all(len(node) == size for node in nodes):
            return None
        parts, columns = [], []
        if size:  # every list's items in one column, so item i's slots are every size-th value
            shape = _shape(list(chain.from_iterable(nodes)), inner)
            if shape is None:
                return None
            parts = [inner + shape[0]] * size
            columns = [column[i::size] for i in range(size) for column in shape[1]]
        brackets = "[]"
    else:
        return None
    template = f"{brackets[0]}\n" + ",\n".join(parts) + f"\n{pad}{brackets[1]}" if parts else brackets
    return template, columns


def json_pieces(obj) -> Iterator[str]:
    """The text of canonical_json(obj) in pieces, one per block of records of
    the Records nodes that obj reaches through dicts alone; the rest of the
    text joins the block before it (or the first block).  Everything else is
    rendered and every Records node checked here, at the call, so an error is
    raised before the first piece."""
    return _joined([*_parts(obj, ""), "\n"])


def _parts(obj, pad: str) -> list:
    """The text of one node on a line indented by ``pad``: strings and the block iterators of its Records."""
    if isinstance(obj, Records):
        return [obj.pieces(pad)]
    if not (isinstance(obj, dict) and obj):
        return [_json(obj, pad)]
    inner = pad + "  "
    parts = []
    for i, key in enumerate(_sorted_keys(obj)):
        parts.append(f"{',' if i else '{'}\n{inner}{_json_string(key)}: ")
        parts += _parts(obj[key], inner)
    parts.append(f"\n{pad}}}")
    return parts


def _joined(parts) -> Iterator[str]:
    text, blocks = "", 0
    for part in parts:
        if isinstance(part, str):
            text += part
            continue
        for piece in part:
            if blocks:
                yield text
                text = ""
            text += piece
            blocks += 1
    yield text


_RECORD_BLOCK = 2048  # records rendered at a time by json_pieces


class Records:
    """A list of records of one shape, given as columns, for a report tree.

    ``columns`` is a nested dict with str keys whose leaves are arrays of
    floats, ints or bools with the record on the leading axis; a leaf of
    shape (S, m) gives every record a list of m values.  In a tree it renders
    as the list ``tolist()`` does, from the template _shape makes of the first
    record, with each block of records filled from the columns in one %-format
    call: no per-record object is built.
    """

    def __init__(self, columns: dict):
        self.columns = columns
        # (S, slots) per leaf, in the order of the template's slots: keys sorted, then each leaf in C order
        self._leaves = [leaf.reshape(leaf.shape[0], math.prod(leaf.shape[1:])) for leaf in _leaves(columns)]
        if len({len(leaf) for leaf in self._leaves}) > 1:
            raise DomainError("record columns must have one length")
        if not all(leaf.dtype.kind in "biuf" for leaf in self._leaves):
            raise DomainError("record columns must hold floats, ints or bools")

    def __len__(self) -> int:
        return len(self._leaves[0]) if self._leaves else 0

    def tolist(self, start: int = 0, stop: int | None = None) -> list:
        """Records start to stop as nested dicts of Python values."""
        return _rows(self.columns, slice(start, stop))

    def pieces(self, pad: str) -> Iterator[str]:
        """The list's text on a line indented by ``pad``, one piece per block of
        records.  Floats come out as fmt_float renders them: 17 significant
        digits and -0.0 written as 0; they are checked for finiteness here, at
        the call."""
        if not all(np.isfinite(leaf).all() for leaf in self._leaves if leaf.dtype.kind == "f"):
            raise DomainError("reports may not contain NaN or infinite values")
        if not len(self):
            return iter(["[]"])
        return self._blocks(_shape(self.tolist(0, 1), pad + "  ")[0], pad)

    def _blocks(self, template: str, pad: str) -> Iterator[str]:
        inner = pad + "  "
        joint, size, rows, body = ",\n" + inner, len(self), 0, ""
        for a in range(0, size, _RECORD_BLOCK):
            block = [_slot_values(leaf[a:a + _RECORD_BLOCK]) for leaf in self._leaves]
            if len(block[0]) != rows:
                rows = len(block[0])
                body = joint.join([template] * rows)
            head = "[\n" + inner if a == 0 else joint
            tail = f"\n{pad}]" if a + rows == size else ""
            yield head + body % tuple(np.concatenate(block, axis=1).ravel().tolist()) + tail


def _leaves(node):
    if isinstance(node, dict):
        for key in _sorted_keys(node):
            yield from _leaves(node[key])
    else:
        yield np.asarray(node)


def _rows(node, rows: slice) -> list:
    if isinstance(node, dict):
        return [dict(zip(node, values)) for values in zip(*(_rows(child, rows) for child in node.values()))]
    return np.asarray(node)[rows].tolist()


def _slot_values(leaf: np.ndarray) -> np.ndarray:
    """The Python values of a block of one leaf's slots, as _shape's columns hold them."""
    if leaf.dtype.kind == "b":
        return np.where(leaf, "true", "false").astype(object)
    return (leaf + 0.0 if leaf.dtype.kind == "f" else leaf).astype(object)  # -0.0 + 0.0 == +0.0


def write_text(path, text: str, append: bool = False):
    with open(path, "a" if append else "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

_CSV_BLOCK = 2048  # rows rendered at a time, so the text and floats held at once stay small


def _grouped_csv(header: str, keys: np.ndarray, columns, index: bool = True) -> Iterator[str]:
    """CSV text in pieces: ``header`` with its newline, then one string per
    block of whole groups of rows, every row ending in a newline.

    Group g is m rows that share the key columns ``keys[g]`` (keys has shape
    (groups, K), K may be 0); row k of it holds those keys, then with
    ``index`` the number k = 0..m-1, then ``column[g, k]`` of each of
    ``columns``, arrays of shape (groups, m).  A block holds as many whole
    groups as fit in _CSV_BLOCK rows (at least one group).  A group's keys
    are formatted once and spliced into its rows through a %s slot, k is a
    literal of the template, and the values of a block fill the template in
    one %-format call.

    Floats come out as fmt_float renders them: 17 significant digits and
    -0.0 written as 0.  Every key and value is checked for finiteness here,
    at the call; the columns are read a block at a time as the pieces are.
    """
    if not all(np.isfinite(a).all() for a in (keys, *columns)):
        raise DomainError("reports may not contain NaN or infinite values")
    groups, width = keys.shape
    m = columns[0].shape[1]
    row = ("%s," if width else "") + "{}" + ",".join(["%.17g"] * len(columns)) + "\n"
    group = "".join(row.format(f"{k}," if index else "") for k in range(m))
    key_fmt = ",".join(["%.17g"] * width)
    step = max(1, _CSV_BLOCK // m)

    def pieces():
        yield header + "\n"
        size, template = 0, ""
        for a in range(0, groups, step):
            b = min(a + step, groups)
            if b - a != size:
                size = b - a
                template = group * size
            slots = np.empty((size, m, bool(width) + len(columns)), dtype=object)
            if width:  # -0.0 + 0.0 == +0.0
                texts = [key_fmt % key for key in map(tuple, (keys[a:b] + 0.0).tolist())]
                slots[:, :, 0] = np.array(texts, dtype=object)[:, None]
            for i, column in enumerate(columns, start=bool(width)):
                slots[:, :, i] = column[a:b] + 0.0
            yield template % tuple(slots.ravel().tolist())

    return pieces()


def trajectory_csv(traj: Trajectory) -> Iterator[str]:
    """CSV pieces with header t,k,re,im,vre,vim, one row per node and body:
    one group of n rows per node, keyed by its time."""
    n = traj.n
    w, v = traj.ys[:, :n], traj.ys[:, n:]
    return _grouped_csv("t,k,re,im,vre,vim", traj.times[:, None], (w.real, w.imag, v.real, v.imag))


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


def flow_csv(rows, m: int) -> Iterator[str]:
    """CSV pieces with header t,s,k,re,im for flow samples: ``rows`` (t, s, k,
    re, im) are t-major, as flow_samples gives them, with m seed points, so
    each time is one group of m rows sharing its t and s and counting k from
    0 to m - 1; rows in any other layout are a DomainError."""
    data = np.array(rows, dtype=float).reshape(-1, 5)
    if not (m >= 1 and len(data) % m == 0):
        raise DomainError(f"{len(data)} flow rows do not split into groups of m = {m}")
    grouped = data.reshape(-1, m, 5)
    # rendering checks finiteness first, so a non-finite key is reported as such
    pieces = _grouped_csv("t,s,k,re,im", grouped[:, 0, :2], (grouped[:, :, 3], grouped[:, :, 4]))
    if not ((grouped[:, :, 2] == np.arange(m)).all() and (grouped[:, :, :2] == grouped[:, :1, :2]).all()):
        raise DomainError(f"flow rows must be t-major: k = 0 to {m - 1} at each time, all with its t and s")
    return pieces


def map_csv(rows) -> Iterator[str]:
    """CSV pieces with header re,im,disk_re,disk_im,back_re,back_im for disk
    round trips: groups of one row and no key or index."""
    data = np.array(rows, dtype=float).reshape(-1, 6)
    return _grouped_csv("re,im,disk_re,disk_im,back_re,back_im", data[:, :0], data.T[:, :, None], index=False)
