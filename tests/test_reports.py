import argparse
import json
import math
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hnbody.clifford import KillingField
from hnbody.dynamics import IntegratorStats, SystemState, Trajectory, conserved, integrate
from hnbody.equilibria import EquilibriumClass, certify_nonexistence
from hnbody.errors import DomainError
from hnbody.flows import flow_samples
from hnbody import cli, reports
from hnbody.reports import canonical_json, flow_csv, fmt_float, map_csv, trajectory_csv, trajectory_sidecar

# values whose rendering is easy to get wrong: signed zero, subnormals, extremes
AWKWARD = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1.7976931348623157e308, 0.1, -1.0 / 3.0, 2.0 ** 53, 1e-5]


def _reference_trajectory_csv(traj):
    lines = ["t,k,re,im,vre,vim"]
    n = traj.n
    for t, y in zip(traj.times, traj.ys):
        for k in range(n):
            w, v = y[k], y[n + k]
            lines.append(",".join([fmt_float(t), str(k), fmt_float(w.real), fmt_float(w.imag),
                                   fmt_float(v.real), fmt_float(v.imag)]))
    return "\n".join(lines) + "\n"


def _awkward_trajectory(n=3, nodes=5, bad=None):
    rng = np.random.default_rng(7)
    values = np.array(AWKWARD)
    ys = rng.choice(values, (nodes, 2 * n)) + 1j * rng.choice(values, (nodes, 2 * n))
    if bad is not None:
        ys[2, 1] = complex(0.5, bad)
    times = np.resize([-0.0, 5e-324, 0.1, 1.0, 1e300], nodes)
    return Trajectory(times, ys, np.zeros_like(ys), np.ones(n), 1.0, IntegratorStats(nodes - 1, 0, 1.0, 1 + 6 * (nodes - 1), 0))


def test_trajectory_csv_matches_fmt_float():
    traj = _awkward_trajectory()
    text = "".join(trajectory_csv(traj))
    assert text == _reference_trajectory_csv(traj)
    assert "-0," not in text and ",-0\n" not in text


def test_flow_csv_matches_fmt_float():
    rng = np.random.default_rng(8)
    # 8 times of 5 points: every row of a time repeats its t and s
    rows = [(t, s, k, re, im) for (t, s), values in zip(rng.choice(AWKWARD, (8, 2)), rng.choice(AWKWARD, (8, 5, 2)))
            for k, (re, im) in enumerate(values)]
    expected = ["t,s,k,re,im"] + [
        ",".join([fmt_float(t), fmt_float(s), str(k), fmt_float(re), fmt_float(im)]) for t, s, k, re, im in rows
    ]
    assert "".join(flow_csv(rows, 5)) == "\n".join(expected) + "\n"
    assert "".join(flow_csv(np.array(rows), 5)) == "".join(flow_csv(rows, 5))


def test_map_csv_matches_fmt_float():
    rows = [tuple(row) for row in np.random.default_rng(9).choice(AWKWARD, (40, 6))]
    expected = ["re,im,disk_re,disk_im,back_re,back_im"] + [",".join(fmt_float(x) for x in row) for row in rows]
    assert "".join(map_csv(rows)) == "\n".join(expected) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_csv_rejects_nonfinite_values(bad):
    with pytest.raises(DomainError):
        trajectory_csv(_awkward_trajectory(bad=bad))
    with pytest.raises(DomainError):
        flow_csv([(0.0, 0.0, 0, 1.0, bad)], 1)
    with pytest.raises(DomainError):
        map_csv([(0.0, 1.0, 0.0, 0.0, 0.0, bad)])


def _reference_rows(header: str, rows, k: int | None = None) -> str:
    """CSV text of ``rows`` one value at a time, column ``k`` written as an int."""
    lines = [header] + [",".join(str(int(x)) if i == k else fmt_float(x) for i, x in enumerate(row)) for row in rows]
    return "\n".join(lines) + "\n"


# n = 3: a block holds the 2046 rows of 682 nodes
@pytest.mark.parametrize("nodes", [681, 682, 683, 1365])
def test_trajectory_csv_blocks_join_to_the_per_row_text(nodes):
    traj = _awkward_trajectory(nodes=nodes)
    pieces = list(trajectory_csv(traj))
    assert "".join(pieces) == _reference_trajectory_csv(traj)
    assert len(pieces) == 1 + -(-nodes // 682)
    assert all(piece.count("\n") <= reports._BLOCK for piece in pieces)


@pytest.mark.parametrize("count", [2047, 2048, 2049])
def test_flow_and_map_csv_blocks_join_to_the_per_row_text(count):
    rng = np.random.default_rng(count)
    flow_rows = [(t, s, 0, re, im) for t, s, re, im in rng.choice(AWKWARD, (count, 4))]  # one point per time
    map_rows = rng.choice(AWKWARD, (count, 6))
    pieces = list(flow_csv(flow_rows, 1))
    assert "".join(pieces) == _reference_rows("t,s,k,re,im", flow_rows, k=2)
    assert len(pieces) == 1 + -(-count // reports._BLOCK)
    assert "".join(map_csv(map_rows)) == _reference_rows("re,im,disk_re,disk_im,back_re,back_im", map_rows)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_csv_rejects_a_nonfinite_value_in_the_last_block_at_the_call(bad):
    traj = _awkward_trajectory(nodes=1365)
    traj.ys[-1, 4] = complex(bad, 0.5)
    with pytest.raises(DomainError):
        trajectory_csv(traj)
    traj = _awkward_trajectory(nodes=1365)
    traj.times[-1] = bad
    with pytest.raises(DomainError):
        trajectory_csv(traj)
    rows = np.ones((2049, 5))
    rows[:, 2] = 0  # one point per time
    rows[-1, 4] = bad
    with pytest.raises(DomainError):
        flow_csv(rows, 1)
    with pytest.raises(DomainError):
        map_csv(np.hstack([rows, rows[:, :1]]))


def _flow_rows(times: int, m: int, seed: int = 0) -> np.ndarray:
    """t-major rows (t, s, k, re, im): m points at each of ``times`` awkward keys."""
    rng = np.random.default_rng(seed)
    keys = np.repeat(rng.choice(AWKWARD, (times, 2)), m, axis=0)
    k = np.tile(np.arange(m), times)
    return np.column_stack([keys, k, rng.choice(AWKWARD, (times * m, 2))])


def _assert_whole_groups(pieces, m):
    """Every block but the header holds whole groups, at most _BLOCK rows unless one group is larger."""
    rows = [piece.count("\n") for piece in pieces[1:]]
    assert all(r % m == 0 and r <= max(reports._BLOCK, m) for r in rows)


# a block of 16 rows: groups of 3, 5 and 7 rows straddle its end, 16 fills it, 17 and 40 exceed it
@pytest.mark.parametrize("m", [1, 3, 5, 7, 16, 17, 40])
@pytest.mark.parametrize("times", [1, 2, 3, 5, 6, 11])
def test_grouped_blocks_are_whole_groups_and_join_to_the_per_row_text(monkeypatch, m, times):
    monkeypatch.setattr(reports, "_BLOCK", 16)
    rows = _flow_rows(times, m, seed=m * times)
    pieces = list(flow_csv(rows, m))
    assert "".join(pieces) == _reference_rows("t,s,k,re,im", rows, k=2)
    _assert_whole_groups(pieces, m)
    assert len(pieces) == 1 + -(-times // max(1, 16 // m))
    traj = _awkward_trajectory(n=m, nodes=times)
    pieces = list(trajectory_csv(traj))
    assert "".join(pieces) == _reference_trajectory_csv(traj)
    _assert_whole_groups(pieces, m)


@pytest.mark.parametrize("m", [2047, 2048, 2049, 4100])
def test_a_group_of_about_one_block_or_more_is_one_piece(m):
    rows = _flow_rows(3, m, seed=m)
    pieces = list(flow_csv(rows, m))
    assert "".join(pieces) == _reference_rows("t,s,k,re,im", rows, k=2)
    assert [piece.count("\n") for piece in pieces] == [1] + [m] * 3


def test_a_trajectory_of_one_body_is_one_row_per_node():
    traj = _awkward_trajectory(n=1, nodes=4097)
    pieces = list(trajectory_csv(traj))
    assert "".join(pieces) == _reference_trajectory_csv(traj)
    assert [piece.count("\n") for piece in pieces] == [1, 2048, 2048, 1]


@pytest.mark.parametrize("key", [-0.0, 5e-324, 1e300])
def test_keys_render_as_fmt_float(key):
    rows = _flow_rows(3, 4)
    rows[4:8, :2] = key
    text = "".join(flow_csv(rows, 4))
    assert text == _reference_rows("t,s,k,re,im", rows, k=2)
    assert f"\n{fmt_float(key)},{fmt_float(key)},3," in text
    traj = _awkward_trajectory(n=4, nodes=3)
    traj.times[1] = key
    text = "".join(trajectory_csv(traj))
    assert text == _reference_trajectory_csv(traj)
    assert f"\n{fmt_float(key)},3," in text


@pytest.mark.parametrize("field", [
    ("rotation", -1), ("rotation", 0), ("rotation", 1), ("normal", -1), ("nilpotent", -1),
])
def test_flow_samples_render_as_the_per_row_text(field):
    points = np.array([-0.3 + 0.2j, 0.0 + 0.5j, 0.25 + 0.25j, -0.0 + 0.05j, 0.1 + 0.1j])
    rows = flow_samples(KillingField(*field), points, np.linspace(-0.5, 0.5, 33))
    assert "".join(flow_csv(rows, len(points))) == _reference_rows("t,s,k,re,im", rows, k=2)


def test_flow_rows_not_t_major_are_refused():
    rows = _flow_rows(4, 3)
    point_major = rows.reshape(4, 3, 5).transpose(1, 0, 2).reshape(-1, 5)
    unrepeated = rows.copy()
    unrepeated[4, 0] = 0.125  # the second row of the second time has its own t
    unrepeated_s = rows.copy()
    unrepeated_s[11, 1] = 0.125
    shifted = rows.copy()
    shifted[:, 2] += 1  # k from 1 to 3
    for bad, m in [(point_major, 3), (unrepeated, 3), (unrepeated_s, 3), (shifted, 3), (rows, 4), (rows, 6),
                   (rows, 5), (rows, 0)]:
        with pytest.raises(DomainError):
            flow_csv(bad, m)
    assert "".join(flow_csv(rows, 3)) == _reference_rows("t,s,k,re,im", rows, k=2)
    assert "".join(flow_csv(np.empty((0, 5)), 3)) == "t,s,k,re,im\n"


def test_simulate_writes_no_trajectory_csv_with_a_nonfinite_last_node(tmp_path, monkeypatch, capsys):
    # two nodes a block: the bad node is in the last of several blocks
    integrate = cli.integrate

    def bad_last_time(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        traj.times[-1] = math.nan
        return traj

    monkeypatch.setattr(cli, "integrate", bad_last_time)
    monkeypatch.setattr(reports, "_BLOCK", 4)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"R": 1.0, "masses": [1.0, 1.0], "bodies": [[0.0, 1.0, 0.6, 0.0], [0.0, 2.0, -0.6, 0.0]],
                                  "integrator": {"tol": 1e-8, "t_end": 1.0}}))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == "reports may not contain NaN or infinite values"
    assert not (out / "trajectory.csv").exists()


def _emit_peak(tmp_path, nodes: int, n: int = 8) -> int:
    """tracemalloc's peak in bytes while cli._emit writes the trajectory.csv of nodes x n rows."""
    rng = np.random.default_rng(nodes)
    ys = rng.uniform(0.5, 2.0, (nodes, 2 * n)) + 1j * rng.uniform(0.5, 2.0, (nodes, 2 * n))
    traj = Trajectory(np.linspace(0.0, 1.0, nodes), ys, np.zeros_like(ys), np.ones(n), 1.0,
                      IntegratorStats(nodes - 1, 0, 1.0, 1 + 6 * (nodes - 1), 0))
    args = argparse.Namespace(out=str(tmp_path))
    tracemalloc.start()
    try:
        cli._emit(args, "trajectory.csv", trajectory_csv(traj))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trajectory.csv").read_text().count("\n") == 1 + nodes * n
    return peak


def test_writing_a_trajectory_csv_holds_one_block_not_the_file(tmp_path):
    # the 40,000-row file is about 4 MB; rendering it whole peaked at about three times that
    small = _emit_peak(tmp_path, 2500)
    large = _emit_peak(tmp_path, 5000)
    assert large < 1.5e6
    assert abs(large - small) < 0.2e6


def test_sidecar_series_equal_conserved_at_every_node():
    s = SystemState(0.0, [1j, 2j, 0.5 + 1.5j], [0.6 + 0j, -0.6 + 0j, 0.1j], [1.0, 1.0, 0.3], 1.0)
    traj = integrate(s, 1.0, tol=1e-10)
    series = trajectory_sidecar(traj)["conserved"]
    per_node = [conserved(state).as_dict() for state in traj.samples]
    assert np.array_equal(series.pop("t"), traj.times)
    assert list(series) == list(per_node[0])
    for key, values in series.items():
        assert np.array_equal(values, [quantities[key] for quantities in per_node])


# every character that JSON must escape or that ASCII output must spell as \uXXXX
ESCAPED = '"\\' + "".join(map(chr, range(0x20))) + "\x7f \u00e9 \u2603 \U0001f600 \ud800 \udfff"


@pytest.mark.parametrize("tree", [
    {},
    [],
    (),
    {"b": 1, "a": [], "c": {}, "d": ()},
    {"z": {"y": [1, [2, (3, {"x": None})]], "w": (True, False)}, "": -7, "0": 10 ** 30},
    [[[]], {"k": [{}]}, "s", 0, -1],
    {ESCAPED: [ESCAPED, {ESCAPED[::-1]: ESCAPED}], "\ud800": "\udc00"},
])
def test_canonical_json_equals_the_stdlib_on_float_free_trees(tree):
    assert canonical_json(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


def test_canonical_json_is_ascii_and_round_trips_strings():
    text = canonical_json({ESCAPED: ESCAPED})
    assert text.isascii()
    assert json.loads(text) == {ESCAPED: ESCAPED}


def test_canonical_json_floats_are_fmt_float():
    assert canonical_json(AWKWARD) == "[\n" + ",\n".join("  " + fmt_float(x) for x in AWKWARD) + "\n]\n"
    assert canonical_json({"x": -0.0}) == '{\n  "x": 0\n}\n'
    numpy_leaves = [np.float64(x) for x in AWKWARD] + [np.int64(-3), np.float32(0.5)]
    assert canonical_json(numpy_leaves) == canonical_json(AWKWARD + [-3, 0.5])


_RANDOM_BITS = np.random.default_rng(8).integers(0, 2 ** 64, 4000, dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize("values", [
    [-0.0],
    [-0.0, 0.0, -0.0],
    [5e-324, -5e-324, 2.2250738585072014e-308],
    [1.7976931348623157e308, -1.7976931348623157e308],
    AWKWARD,
    _RANDOM_BITS[np.isfinite(_RANDOM_BITS)].tolist(),
    [1, 2.0, -0.0, 3, 5e-324],
    [np.float64(-0.0), 1.5, np.float64(5e-324), 1.7976931348623157e308],
])
def test_canonical_json_float_lists_equal_the_per_item_path(values):
    # exact floats, np.float64 leaves and a float array of the values render alike
    per_item = [x if isinstance(x, (int, np.float64)) else np.float64(x) for x in values]
    expected = "[\n" + ",\n".join("  " + (str(x) if isinstance(x, int) else fmt_float(x)) for x in values) + "\n]\n"
    assert canonical_json(values) == canonical_json(per_item) == canonical_json(np.array(values, float)) == expected
    nested = {"a": {"b": [values, tuple(values)]}}
    assert canonical_json(nested) == canonical_json({"a": {"b": [per_item, tuple(per_item)]}})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_float_lists_reject_nonfinite_values(bad):
    for tree in ([bad], [1.0, -0.0, bad], {"a": (2.5, bad, 3.0)}):
        with pytest.raises(DomainError, match="NaN or infinite"):
            canonical_json(tree)


@pytest.mark.parametrize("tree", [
    float("nan"), float("inf"), -float("inf"), [1.0, np.float64("nan")], {"a": {"b": -np.inf}},
    {1: "a"}, {None: 1}, {"a": 1, 2: "b"}, {2: "b", "a": 1}, {("a",): 1},
    {1, 2}, b"bytes", 1j, np.array(1.0), np.array([1.0 + 0j]), np.array([1.0], dtype=object), np.bool_(True),
    {"a": object()},
])
def test_canonical_json_rejects_what_json_cannot_hold(tree):
    with pytest.raises(DomainError):
        canonical_json(tree)


# ---------------------------------------------------------------------------
# Lists of Python values: item by item, as each item renders alone
# ---------------------------------------------------------------------------

def _per_item(records, pad: str = "") -> str:
    """A list of records indented by ``pad``, each item rendered alone, so through the recursion."""
    items = [textwrap.indent(canonical_json(record)[:-1], pad + "  ") for record in records]
    return "[\n" + ",\n".join(items) + f"\n{pad}]"


def _with_samples_per_item(payload: dict) -> str:
    """A certificate with its samples rendered item by item."""
    return canonical_json({**payload, "samples": None}).replace(
        '"samples": null', '"samples": ' + _per_item(payload["samples"], "  "))


_KEY_PARTS = ["a", "b", "%", "%s", "%%", "%(a)s", '"', "\\", "\n", "\x00", "\x7f", "\u00e9", "\u2603", "\U0001f600", "\ud800"]
_texts = st.lists(st.sampled_from(_KEY_PARTS), max_size=3).map("".join)
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(AWKWARD + [5e-324, -5e-324])
_LEAVES = {
    "float": _finite,
    "int": st.integers(-(10 ** 30), 10 ** 30),
    "bool": st.booleans(),
    "none": st.none(),
    "str": _texts,
    "np.float64": _finite.map(np.float64),
    "np.int64": st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
}
_FLOAT_FREE = ["int", "bool", "none", "str"]


def _shapes(kinds):
    """Record shapes: dicts whose leaves are kinds of ``kinds`` or, with floats, ("floats", length) lists."""
    leaf = st.sampled_from(kinds)
    if "float" in kinds:
        leaf = leaf | st.tuples(st.just("floats"), st.integers(0, 3))
    return st.dictionaries(_texts, st.recursive(leaf, lambda inner: st.dictionaries(_texts, inner, max_size=3),
                                                max_leaves=6), max_size=4)


def _records_of(shape):
    """Records of one shape; their keys come in either insertion order."""
    if isinstance(shape, dict):
        fixed = st.fixed_dictionaries({key: _records_of(value) for key, value in shape.items()})
        return fixed | fixed.map(lambda record: dict(reversed(record.items())))
    if isinstance(shape, tuple):
        return st.lists(_finite, min_size=shape[1], max_size=shape[1])
    return _LEAVES[shape]


@st.composite
def _record_lists(draw, kinds=tuple(_LEAVES)):
    """Two or more records: most share the first one's shape, the others have shapes of their own."""
    shapes = _shapes(list(kinds))
    shape = draw(shapes)
    return draw(st.lists(_records_of(shape) | shapes.flatmap(_records_of), min_size=2, max_size=6))


@given(_record_lists())
def test_record_lists_equal_the_per_item_recursion(records):
    assert canonical_json(records) == _per_item(records) + "\n"
    assert canonical_json({"%": records}) == '{\n  "%": ' + _per_item(records, "  ") + "\n}\n"


@given(_record_lists(_FLOAT_FREE))
def test_float_free_record_lists_equal_the_stdlib(records):
    assert canonical_json(records) == json.dumps(records, indent=2, sort_keys=True) + "\n"


def _containers(node):
    yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from _containers(child)


@given(st.data())
def test_a_bad_later_record_raises_what_it_raises_alone(data):
    records = data.draw(_shapes(list(_LEAVES)).flatmap(lambda shape: st.lists(_records_of(shape), min_size=2, max_size=4)))
    bad = records[data.draw(st.integers(1, len(records) - 1))]
    target = data.draw(st.sampled_from(list(_containers(bad))))
    value = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.bool_(True)]))
    if isinstance(target, list):
        target.insert(data.draw(st.integers(0, len(target))), value)
    else:
        key = data.draw(st.sampled_from(["", "new %", *target, 1, None, ("a",)]))
        target[key] = value
    with pytest.raises(DomainError) as alone:
        canonical_json(bad)
    with pytest.raises(DomainError) as in_list:
        canonical_json(records)
    assert str(in_list.value) == str(alone.value)


def _assert_per_item(tree):
    assert canonical_json(tree) == _per_item(tree) + "\n"


_rows = st.integers(0, 4).flatmap(lambda size: st.lists(st.lists(_finite, min_size=size, max_size=size),
                                                        min_size=1, max_size=6))
_ragged_rows = st.lists(st.lists(_finite, max_size=4), min_size=1, max_size=6)


@given(_rows | _ragged_rows)
def test_lists_of_float_lists_equal_the_per_item_recursion(rows):
    _assert_per_item(rows)
    _assert_per_item(tuple(rows))
    _assert_per_item([rows, rows])
    assert canonical_json({"%": rows}) == '{\n  "%": ' + _per_item(rows, "  ") + "\n}\n"


@given(st.data())
def test_lists_of_record_lists_equal_the_per_item_recursion(data):
    shape = data.draw(_shapes(list(_LEAVES)))
    size = data.draw(st.integers(0, 3))
    rows = st.lists(_records_of(shape), min_size=size, max_size=size)
    _assert_per_item(data.draw(st.lists(rows | _record_lists(), min_size=1, max_size=4)))


@given(st.lists(_finite | st.integers(-3, 3), min_size=1, max_size=8))
def test_a_top_level_tuple_equals_the_per_item_recursion(values):
    _assert_per_item(tuple(values))
    _assert_per_item(tuple(map(float, values)))


@pytest.mark.parametrize("tree", [
    [(1.0, 2.0), (3.0, -0.0)],
    [[(1.0,)], [(2.0,)]],
    [{"a": (1, 2)}, {"a": (3, 4)}],
    [[1.0, (2.0,)], [3.0, (4.0,)]],
])
def test_nested_tuples_take_the_recursion(tree):
    _assert_per_item(tree)


@given(st.lists(st.integers(-(10 ** 30), 10 ** 30), min_size=1) | st.lists(st.booleans(), min_size=1)
       | st.lists(st.lists(st.booleans(), min_size=2, max_size=2), min_size=1, max_size=5)
       | st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1, max_size=5))
def test_lists_of_ints_and_bools_equal_the_per_item_recursion(values):
    _assert_per_item(values)


@pytest.mark.parametrize("tree", [
    [[]], [[], []], [{}], [{}, {}], [[[]], [[]]], [[{}, {}], [{}, {}]],
    [{"a": []}, {"a": []}], [{"a": {}, "%": [[]]}, {"%": [[]], "a": {}}],
])
def test_lists_of_empty_containers_equal_the_per_item_recursion(tree):
    _assert_per_item(tree)
    assert canonical_json(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_a_nonfinite_value_in_the_last_inner_list_raises_what_it_raises_alone(bad):
    rows = [[1.0, -0.0], [2.5, 3.0], [4.0, bad]]
    with pytest.raises(DomainError) as alone:
        canonical_json(rows[-1])
    for tree in (rows, tuple(rows), [[{"x": row}] for row in rows], {"a": [rows]}):
        with pytest.raises(DomainError) as in_list:
            canonical_json(tree)
        assert str(in_list.value) == str(alone.value)


def _count_json_calls(monkeypatch) -> list:
    """The nodes reports._json is called on from now on."""
    calls, render = [], reports._json
    monkeypatch.setattr(reports, "_json", lambda obj, pad: calls.append(obj) or render(obj, pad))
    return calls


def test_equilibrium_bodies_take_the_template(monkeypatch):
    # the masses, body rows and residual records render in one call of _json each, not one call per row
    rng = np.random.default_rng(50)
    positions = rng.normal(size=50) + 1j * rng.uniform(0.5, 2.0, 50)
    state = SystemState(0.0, positions, rng.normal(size=50) + 1j * rng.normal(size=50), np.ones(50), 1.0)
    residual = rng.choice(AWKWARD, 50) + 1j * rng.choice(AWKWARD, 50)
    payload = {"class": "hyperbolic-normal", "mode": "find", "state": cli._state_dict(state),
               "residual": cli._residual_dict(residual)}
    w, v = state.positions, state.velocities
    expected = canonical_json({**payload, "residual": payload["residual"].tolist(), "state": {
        "R": state.R, "masses": state.masses.tolist(), "bodies": [
            [x.real, x.imag, y.real, y.imag] for x, y in zip(w.tolist(), v.tolist())]}})
    assert payload["residual"].tolist() == [
        {"re": float(r.real), "im": float(r.imag), "abs": float(abs(r))} for r in residual]
    calls = _count_json_calls(monkeypatch)
    assert canonical_json(payload) == expected
    assert len(calls) < 20


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("cls", [EquilibriumClass.PARABOLIC_CYCLIC, EquilibriumClass.HYPERBOLIC_CYCLIC])
def test_certificates_equal_the_per_sample_recursion(cls, n):
    payload = certify_nonexistence(cls, n, 1000, seed=2026).to_dict()
    assert canonical_json(payload) == _with_samples_per_item(payload)


@pytest.mark.parametrize("cls", [EquilibriumClass.PARABOLIC_CYCLIC, EquilibriumClass.HYPERBOLIC_CYCLIC])
def test_certificates_take_the_template(monkeypatch, cls):
    # the report tree the CLI renders: 7 calls of _json in all, where its to_dict() takes 9 calls per sample
    cert = certify_nonexistence(cls, 3, 1000, seed=2026)
    expected = _with_samples_per_item(cert.to_dict())
    calls = _count_json_calls(monkeypatch)
    assert canonical_json(cert.to_report()) == expected
    assert len(calls) < 50


@pytest.mark.parametrize("odd", [(0, 1), (1, 0), (3, 5)])
def test_a_hand_built_certificate_renders_its_odd_samples_as_before(odd):
    payload = certify_nonexistence(EquilibriumClass.HYPERBOLIC_CYCLIC, 3, 8, seed=2026).to_dict()
    refuted, extended = odd
    payload["samples"][refuted]["witnesses"] = False
    payload["samples"][extended]["note"] = "100% of %s"
    assert canonical_json(payload) == _with_samples_per_item(payload)
    assert '"witnesses": false' in canonical_json(payload)


# ---------------------------------------------------------------------------
# Records: a list of records given as columns, rendered a block at a time
# ---------------------------------------------------------------------------

@st.composite
def _record_columns(draw):
    """Nested dicts of columns of one length: floats of shape (S,) or (S, m), ints and bools."""
    size = draw(st.integers(0, 7))

    def leaf():
        kind = draw(st.sampled_from(["float", "floats", "int", "bool"]))
        if kind == "int":
            return np.array(draw(st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), min_size=size, max_size=size)),
                            dtype=np.int64)
        if kind == "bool":
            return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
        width = 1 if kind == "float" else draw(st.integers(0, 3))
        values = np.array(draw(st.lists(_finite, min_size=size * width, max_size=size * width)), dtype=float)
        return values if kind == "float" else values.reshape(size, width)

    def node(depth):
        keys = draw(st.lists(_texts, min_size=1, max_size=3, unique=True))
        return {key: node(depth + 1) if depth < 2 and draw(st.booleans()) else leaf() for key in keys}

    return node(0)


@given(_record_columns(), st.integers(1, 3))
def test_records_render_as_their_list_in_blocks(columns, block):
    records = reports.Records(columns)
    listed = records.tolist()
    assert len(records) == len(listed)
    tree = {"%s": 1.5, "records": records, "z": {"inner": records, "tail": [True]}}
    expected = canonical_json({**tree, "records": listed, "z": {"inner": listed, "tail": [True]}})
    with mock.patch.object(reports, "_BLOCK", block):
        pieces = list(reports.json_pieces(tree))
        assert canonical_json(tree) == expected
    assert "".join(pieces) == expected
    assert len(pieces) == 2 * max(1, -(-len(listed) // block))  # a piece per block ("[]" for none)


def test_records_write_floats_as_fmt_float_and_keep_their_leaf_types():
    records = reports.Records({"x": np.array(AWKWARD), "k": np.arange(10), "ok": np.arange(10) % 2 == 0,
                               "row": np.array(AWKWARD * 2).reshape(10, 2)})
    text = "".join(reports.json_pieces(records))
    assert json.loads(text) == records.tolist()
    first = '[\n  {\n    "k": 0,\n    "ok": true,\n    "row": [\n      0,\n      0\n    ],\n    "x": 0\n  },'
    assert text.startswith(first)  # -0.0 written as 0
    assert [type(v) for v in records.tolist()[0].values()] == [float, int, bool, list]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_records_reject_a_nonfinite_value_at_the_call(bad):
    values = np.ones((5000, 2))
    values[-1, -1] = bad
    tree = {"samples": reports.Records({"lhs": np.ones(5000), "params": {"beta": values}})}
    with pytest.raises(DomainError, match="NaN or infinite"):
        reports.json_pieces(tree)  # before the first piece is asked for
    with pytest.raises(DomainError, match="NaN or infinite"):
        canonical_json(tree)


@pytest.mark.parametrize("columns", [
    {"a": np.ones(3), "b": np.ones(4)},
    {"a": np.ones(3), "b": {"c": np.ones((2, 3))}},
    {"a": np.array(["x", "y"])},
    {"a": np.ones(2) + 1j},
    {"a": np.array([None, 1.0])},
    {1: np.ones(2)},
    {"a": np.ones(2), "b": np.array(1.0)},
    np.array(1.0),
])
def test_records_refuse_columns_that_are_not_one_list(columns):
    with pytest.raises(DomainError):
        reports.Records(columns)


# ---------------------------------------------------------------------------
# Arrays in a report tree: one Records column, to the bytes of their tolist()
# ---------------------------------------------------------------------------

_ELEMENTS = {
    np.float64: _finite,
    np.int64: st.integers(-(2 ** 63), 2 ** 63 - 1),
    np.uint64: st.integers(0, 2 ** 64 - 1),
    np.bool_: st.booleans(),
}
_arrays = st.sampled_from(list(_ELEMENTS)).flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5), elements=_ELEMENTS[dtype]))


@given(_arrays)
def test_arrays_render_as_their_tolist(array):
    listed = array.tolist()
    assert canonical_json(array) == canonical_json(listed)
    tree = {"%s": [array, {"a": array.T}], "b": array}  # a transposed view too
    expected = canonical_json({"%s": [listed, {"a": array.T.tolist()}], "b": listed})
    assert canonical_json(tree) == "".join(reports.json_pieces(tree)) == expected


def test_awkward_arrays_render_as_their_tolist():
    values = np.array(AWKWARD)
    for array in (values, values.reshape(2, 5), values.reshape(5, 2)[::-1], values[:0], values.reshape(10, 1, 1),
                  np.arange(-5, 5), values > 0, (values > 0).reshape(5, 2), np.array([0.1, -0.0, 1e-5], np.float32)):
        assert canonical_json(array) == canonical_json(array.tolist())
        assert canonical_json(reports.Records(array)) == canonical_json(array)
    assert canonical_json(np.array([-0.0, 0.0])) == "[\n  0,\n  0\n]\n"
    assert canonical_json(np.empty((3, 0))) == "[\n  [],\n  [],\n  []\n]\n"
    columns = {"x": values, "k": np.arange(10), "ok": values > 0, "rows": {"%": values.reshape(10, 1)[::-1]}}
    records = reports.Records(columns)
    assert canonical_json(records) == canonical_json(records.tolist())
    assert records.tolist()[0] == {"x": -0.0, "k": 0, "ok": False, "rows": {"%": [1e-5]}}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("shape", [(7,), (3, 4), (4, 3)])
def test_a_nonfinite_value_anywhere_in_an_array_raises_fmt_floats_error_at_the_call(bad, shape):
    with pytest.raises(DomainError) as reference:
        fmt_float(bad)
    for i in range(math.prod(shape)):
        array = np.ones(shape)
        array.flat[i] = bad
        for render in (canonical_json, reports.json_pieces):  # json_pieces raises before the first piece
            with pytest.raises(DomainError) as raised:
                render({"a": [1.0], "b": array, "c": reports.Records({"x": np.ones(2)})})
            assert str(raised.value) == str(reference.value)
