"""Command-line front end.

Subcommands: simulate, equilibria find|check, certify, flow, invariance,
map, vlasov.  Every command reads one strict JSON configuration document,
writes bit-stable reports into the output directory, and exits 0 on
success, 1 on usage or validation problems or a nonexistent solution
class, 2 on a singularity verdict, and 3 when an iterative method fails.
Every failure prints one JSON error object on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import reports
from .clifford import (
    KillingField,
    NORMAL_A,
    ROTATION_ELLIPTIC,
    exp_subgroup,
)
from .dynamics import VLASOV_NUM_POINTS, SystemState, default_test_functions, integrate, step_floor
from .dynamics import vlasov_weak_residual
from .equilibria import (
    CyclicParams,
    EquilibriumClass,
    FindOptions,
    NONEXISTENT_CLASSES,
    SYMMETRIES,
    certify_nonexistence,
    condition_sides,
    find_equilibrium_detailed,
    parabolic_contradiction_sides,
    residual_hyperbolic_cyclic,
    residual_parabolic_cyclic,
)
from .errors import (
    ClassNotSolvableError,
    ConvergenceError,
    DomainError,
    HnbodyError,
    PoleError,
    SingularityError,
    StepSizeError,
    ValidationError,
)
from .flows import flow_derivative_check, flow_samples, verify_invariance
from .geometry import from_disk, to_disk

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SINGULARITY = 2
EXIT_NO_CONVERGENCE = 3


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def _require(doc: dict, path: str, key: str):
    if key not in doc:
        raise ValidationError(f"{path}{key}", "missing required field")
    return doc[key]


def _check_keys(doc: dict, path: str, allowed: set):
    if not isinstance(doc, dict):
        raise ValidationError(path.rstrip("."), "must be an object")
    for key in doc:
        if key not in allowed:
            raise ValidationError(f"{path}{key}", "unknown field")


def _section(doc: dict, name: str, keys: set) -> dict:
    """The required object ``name`` of the config, holding only ``keys``."""
    section = _require(doc, "", name)
    _check_keys(section, f"{name}.", keys)
    return section


def _real(value, path: str, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, "must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the double range
        raise ValidationError(path, "must be finite") from None
    if not math.isfinite(value):
        raise ValidationError(path, "must be finite")
    if positive and not value > 0:
        raise ValidationError(path, "must be > 0")
    return value


def _integer(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, "must be an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(path, f"must be >= {minimum}")
    return value


# The one upper bound of the count fields: flow.num, certify.n, certify.samples (also
# from --samples), map.samples, invariance.num_points and vlasov.num_points (at least
# this many evaluation points, the steps split evenly); above it is a validation error.
MAX_COUNT = 100_000
# The bound on n times certify.samples, invariance.num_points or vlasov.num_points, and on
# the number of flow.points times flow.num (the rows of flow.csv, which flow_samples holds
# at once): each holds its arrays over every body and sample or point at once.  It caps each
# array of a certificate at 8 MB; vlasov_weak_residual keeps about 96 bytes per body
# and asked-for point (positions, velocities and accelerations at twice the points,
# for Simpson's rule), so about 100 MB at the bound, and works on one block of at
# most 2^16 body-points at a time.  It bounds n^2 too (_bodies): a pair table holds about n^2 / 2 entries.
MAX_WORK = 1_000_000


def _count(value, path: str, minimum: int) -> int:
    value = _integer(value, path, minimum=minimum)
    if value > MAX_COUNT:
        raise ValidationError(path, f"must be <= {MAX_COUNT}")
    return value


def _work(count: int, path: str, n: int) -> int:
    """``count`` of the field ``path`` if n * count is within MAX_WORK."""
    if n * count > MAX_WORK:
        name = path.rpartition(".")[2]
        raise ValidationError(path, f"must be <= {MAX_WORK // n} at n = {n} (n * {name} <= {MAX_WORK})")
    return count


def _bodies(n: int, path: str) -> None:
    """Refuse n bodies, counted by the field ``path``, when n^2 exceeds MAX_WORK: before any pair table."""
    if n * n > MAX_WORK:
        raise ValidationError(path, f"must hold at most {math.isqrt(MAX_WORK)} bodies, not {n} (n^2 <= {MAX_WORK})")


def _reals(doc: dict, path: str, key: str, positive=False) -> list[float]:
    """The nonempty list of numbers ``doc[key]``."""
    raw = _require(doc, path, key)
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}{key}", "must be a nonempty list")
    return [_real(v, f"{path}{key}[{i}]", positive=positive) for i, v in enumerate(raw)]


def _points(raw, path: str, width: int) -> np.ndarray:
    """Rows [re, im] (width 2) or [re, im, vre, vim] (width 4) with im > 0.

    Returns complex columns of shape (width // 2, rows): the positions, then
    for width 4 the velocities.
    """
    if not isinstance(raw, list) or not raw:
        raise ValidationError(path, "must be a nonempty list")
    fields = ("re", "im", "vre", "vim")[:width]
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != width:
            raise ValidationError(f"{path}[{i}]", f"must be a list of {width} numbers")
        rows.append([_real(v, f"{path}[{i}].{name}", positive=name == "im")
                     for v, name in zip(row, fields)])
    return np.ascontiguousarray(np.array(rows).view(complex).T)


def _integrator(doc: dict, n: int) -> dict:
    """Keyword arguments of ``integrate`` from the ``integrator`` section: tol at least the double-precision
    epsilon, t_end and max_step at least the step floor, and max_step against the t_end / max_step steps
    it asks for at n bodies: at most MAX_COUNT, and n times it at most MAX_WORK.  The same bound limits
    the attempts, accepted and rejected, of the run (max_attempts)."""
    raw = _section(doc, "integrator", {"tol", "t_end", "max_step"})
    opts = {
        "tol": _real(_require(raw, "integrator.", "tol"), "integrator.tol", positive=True),
        "t_end": _real(_require(raw, "integrator.", "t_end"), "integrator.t_end", positive=True),
        "max_step": _real(raw["max_step"], "integrator.max_step", positive=True)
        if "max_step" in raw else None,
    }
    if opts["tol"] < np.finfo(float).eps:
        raise ValidationError("integrator.tol", f"must be >= {np.finfo(float).eps:g}, the double-precision epsilon")
    floor = step_floor(opts["t_end"])  # the largest floor over [0, t_end]
    for key in ("t_end", "max_step"):
        if opts[key] is not None and opts[key] < floor:
            raise ValidationError(f"integrator.{key}", f"must be >= {floor:g}, the integrator's step floor at t_end")
    steps = min(MAX_COUNT, MAX_WORK // n)
    if opts["max_step"] is not None and opts["t_end"] / opts["max_step"] > steps:
        raise ValidationError("integrator.max_step",
                              f"must be >= {opts['t_end'] / steps:g} at n = {n} (t_end / max_step <= {steps})")
    opts["max_attempts"] = steps  # the same bound on the steps the controller chooses
    return opts


def _system_state(doc: dict) -> SystemState:
    R = _real(_require(doc, "", "R"), "R", positive=True)
    masses = _reals(doc, "", "masses", positive=True)
    pos, vel = _points(_require(doc, "", "bodies"), "bodies", 4)
    _bodies(pos.size, "bodies")
    if len(masses) != pos.size:
        raise ValidationError("masses", "length must match bodies")
    try:
        return SystemState(0.0, pos, vel, masses, R)
    except DomainError as exc:
        raise ValidationError("bodies", str(exc)) from None


_FIELD_KINDS = ("normal", "nilpotent", "rotation")


def _kind_sigma(section: dict, path: str, kinds=_FIELD_KINDS) -> tuple[str, int]:
    kind = _require(section, path, "kind")
    if kind not in kinds:
        raise ValidationError(f"{path}kind", f"must be {', '.join(kinds[:-1])} or {kinds[-1]}")
    sigma = _integer(section.get("sigma", -1), f"{path}sigma")
    if sigma not in (-1, 0, 1):
        raise ValidationError(f"{path}sigma", "must be -1, 0 or 1")
    return kind, sigma


def _equilibrium_class(name, path: str) -> EquilibriumClass:
    try:
        return EquilibriumClass(name)
    except ValueError:
        valid = ", ".join(c.value for c in EquilibriumClass)
        raise ValidationError(path, f"must be one of: {valid}") from None


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError("--config", f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, huge or deep literals
        raise ValidationError("--config", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("<root>", "configuration must be a JSON object")
    return doc


def _seed(doc: dict, args) -> int:
    if args.seed is not None:
        return _integer(args.seed, "--seed", minimum=0)
    if "seed" in doc:
        return _integer(doc["seed"], "seed", minimum=0)
    return 0


def _emit(args, name: str, text) -> str:
    """Write ``text``, a str or the pieces of one (a CSV report's or a certificate's blocks), one at a time."""
    path = os.path.join(args.out, name)
    try:
        os.makedirs(args.out, exist_ok=True)
        if isinstance(text, str):
            reports.write_text(path, text)
        else:
            for i, piece in enumerate(text):
                reports.write_text(path, piece, append=i > 0)
    except OSError as exc:
        raise ValidationError("--out", f"cannot write {name}: {exc}") from None
    return name


def _state_dict(state: SystemState) -> dict:
    w, v = state.positions, state.velocities
    return {"R": state.R, "masses": state.masses, "bodies": np.column_stack([w.real, w.imag, v.real, v.imag])}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args, doc: dict) -> list[str]:
    state = _system_state(doc)
    traj = integrate(state, **_integrator(doc, state.n))
    with np.errstate(all="ignore"):  # an overflow ends in the error below, before any file is written
        sidecar = reports.trajectory_sidecar(traj)
    quantities = [series for key, series in sidecar["conserved"].items() if key != "t"]
    if not (math.isfinite(sidecar["energy_drift"]) and np.all(np.isfinite(quantities))):
        path = "R" if state.R >= state.masses.max() else "masses"
        raise ValidationError(path, "the conserved quantities overflow the floating-point range")
    return [
        _emit(args, "trajectory.csv", reports.trajectory_csv(traj)),
        _emit(args, "trajectory.json", reports.canonical_json(sidecar)),
    ]


_CYCLIC_RESIDUALS = {
    EquilibriumClass.PARABOLIC_CYCLIC: residual_parabolic_cyclic,
    EquilibriumClass.HYPERBOLIC_CYCLIC: residual_hyperbolic_cyclic,
}


def cmd_equilibria(args, doc: dict) -> list[str]:
    section = _section(
        doc, "equilibria", {"class", "symmetry", "tol", "max_iter", "alpha", "beta", "s"}
    )
    cls_name = args.cls or _require(section, "equilibria.", "class")
    cls = _equilibrium_class(cls_name, "equilibria.class")
    payload = {"class": cls.value, "mode": args.mode}

    if args.mode == "find" and cls in NONEXISTENT_CLASSES:
        raise ClassNotSolvableError(
            f"nonexistent class: no {cls.value} solutions exist "
            "(certified sign contradiction; see the certify command)"
        )
    with np.errstate(all="ignore"):  # a non-finite residual ends in a validation error
        if args.mode == "find":
            ansatz = _system_state(doc)
            symmetry = section.get("symmetry", "none")
            if symmetry not in SYMMETRIES:
                raise ValidationError("equilibria.symmetry", "must be none, axis or mirror")
            opts = FindOptions(
                symmetry=symmetry,
                tol=_real(section.get("tol", FindOptions.tol), "equilibria.tol", positive=True),
                max_iter=_integer(section.get("max_iter", FindOptions.max_iter), "equilibria.max_iter", minimum=1),
            )
            if not np.isfinite(np.subtract(*condition_sides(cls, ansatz))).all():
                raise ValidationError("bodies", "the residual at the ansatz leaves the floating-point range")
            state, report = find_equilibrium_detailed(cls, ansatz.masses, ansatz.R, ansatz, opts)
            lhs, rhs = condition_sides(cls, state)
            payload.update(
                state=_state_dict(state),
                residual=_residual_dict(lhs - rhs),
                iterations=report.iterations,
                residual_inf_norm=report.residual_norm,
            )
        elif cls in _CYCLIC_RESIDUALS:
            # check mode on the reparametrized family at the configured data
            R = _real(_require(doc, "", "R"), "R", positive=True)
            masses = np.array(_reals(doc, "", "masses", positive=True))
            params = CyclicParams(
                _reals(section, "equilibria.", "alpha"),
                _reals(section, "equilibria.", "beta"),
                _real(section.get("s", 0.0), "equilibria.s"),
            )
            _bodies(params.n, "equilibria.alpha")
            if params.n != masses.size:
                raise ValidationError("equilibria.alpha", "length must match masses")
            re_res, im_res = _CYCLIC_RESIDUALS[cls](params, masses, R)
            payload.update(real_parts=re_res, imaginary_parts=im_res, inf_norm=float(np.max(np.abs([re_res, im_res]))))
        else:
            lhs, rhs = condition_sides(cls, _system_state(doc))
            residual = lhs - rhs
            payload.update(residual=_residual_dict(residual), inf_norm=float(np.max(np.abs(residual))))
    if args.mode == "check" and not math.isfinite(payload["inf_norm"]):  # NaN or inf with any residual part
        raise ValidationError("equilibria.alpha" if cls in _CYCLIC_RESIDUALS else "bodies",
                              "the residual leaves the floating-point range")
    return [_emit(args, "equilibrium.json", reports.canonical_json(payload))]


def _residual_dict(residual: np.ndarray) -> reports.Records:
    # the scalar abs of each element: np.abs of the array rounds some of them differently in the last bit
    return reports.Records({"re": residual.real, "im": residual.imag,
                            "abs": np.fromiter(map(abs, residual), float, residual.size)})


def cmd_certify(args, doc: dict) -> list[str]:
    section = _section(doc, "certify", {"class", "n", "samples"})
    cls_name = args.cls or _require(section, "certify.", "class")
    cls = _equilibrium_class(cls_name, "certify.class")
    n = _count(_require(section, "certify.", "n"), "certify.n", 2)
    samples = args.samples if args.samples is not None else section.get("samples")
    if samples is None:
        raise ValidationError("certify.samples", "missing required field")
    samples = _work(_count(samples, "certify.samples", 1), "certify.samples", n)
    cert = certify_nonexistence(cls, n, samples, seed=_seed(doc, args))
    payload = cert.to_report()
    if cls is EquilibriumClass.PARABOLIC_CYCLIC:
        lhs, rhs = parabolic_contradiction_sides([1.0, 2.0], [1.0, 1.0], 1.0, k=0)
        payload["reference_sample"] = {
            "beta": [1.0, 2.0], "masses": [1.0, 1.0], "R": 1.0, "lhs": lhs, "rhs": rhs,
        }
    return [_emit(args, "certificate.json", reports.json_pieces(payload))]


def cmd_flow(args, doc: dict) -> list[str]:
    section = _section(doc, "flow", {"kind", "sigma", "points", "t_min", "t_max", "num"})
    field = KillingField(*_kind_sigma(section, "flow."))
    (points,) = _points(_require(section, "flow.", "points"), "flow.points", 2)
    t_min = _real(section.get("t_min", 0.0), "flow.t_min")
    t_max = _real(_require(section, "flow.", "t_max"), "flow.t_max")
    if not t_max > t_min:
        raise ValidationError("flow.t_max", "must exceed t_min")
    num = _work(_count(section.get("num", 33), "flow.num", 2), "flow.num", len(points))
    overflows = "the flow overflows the floating-point range"
    with np.errstate(all="ignore"):  # an overflow ends in the error below
        ts = np.linspace(t_min, t_max, num)
        try:
            rows = flow_samples(field, points, ts)
        except DomainError as exc:
            if field.kind == "rotation":  # |t| >= pi/2 at an end of the grid
                raise ValidationError("flow.t_max" if abs(t_min) < math.pi / 2 else "flow.t_min", str(exc)) from None
            # the normal kind's group element e^{+-t/2} leaves the floating-point range at the larger |t|
            raise ValidationError("flow.t_min" if abs(t_min) > abs(t_max) else "flow.t_max", overflows) from None
        except PoleError as exc:  # a point's flow meets a pole inside [t_min, t_max]
            path = "flow.t_min" if exc.pole_time < 0 else "flow.t_max"
            raise PoleError(f"{path}: {exc}", exc.pole_time, exc.interval) from None
        checks = [
            flow_derivative_check(field, points, float(t))
            for t in (t_min + 0.25 * (t_max - t_min), t_min + 0.75 * (t_max - t_min))
        ]
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(checks))):
        raise ValidationError("flow.t_max", overflows)
    off = rows[rows[:, 4] <= 0]  # a flowed point that underflowed onto the boundary
    if len(off):
        raise ValidationError("flow.t_min" if off[0, 0] < 0 else "flow.t_max",
                              "the flow underflows the floating-point range")
    payload = {
        "kind": field.describe(),
        "num_points": len(points),
        "num_times": num,
        "max_derivative_defect": float(np.max(checks)),
    }
    return [
        _emit(args, "flow.csv", reports.flow_csv(rows, len(points))),
        _emit(args, "flow.json", reports.canonical_json(payload)),
    ]


def cmd_invariance(args, doc: dict) -> list[str]:
    section = _section(doc, "invariance", {"kind", "sigma", "group_time", "num_points"})
    state = _system_state(doc)
    opts = _integrator(doc, state.n)
    group_time = _real(_require(section, "invariance.", "group_time"), "invariance.group_time")
    kind, sigma = _kind_sigma(section, "invariance.", _FIELD_KINDS + ("loxodromic",))
    num_points = section.get("num_points")
    if num_points is not None:
        num_points = _work(_count(num_points, "invariance.num_points", 7), "invariance.num_points", state.n)
    traj = integrate(state, **opts)
    with np.errstate(all="ignore"):  # an overflow or underflow of the transport ends in a group_time error
        try:
            if kind == "loxodromic":
                transport = exp_subgroup(NORMAL_A, group_time) @ exp_subgroup(ROTATION_ELLIPTIC, group_time)
            else:
                transport = KillingField(kind, sigma)
            report = verify_invariance(traj, transport, group_time, num_points=num_points)
        except DomainError as exc:  # transported bodies off the half-plane, or a non-finite element
            raise ValidationError("invariance.group_time", str(exc)) from None
        except PoleError as exc:  # the rotation flow meets a pole before group_time at a sampled position
            raise PoleError(f"invariance.group_time: {exc}", exc.pole_time, exc.interval) from None
    if not np.all(np.isfinite(report.per_body)):
        raise ValidationError("invariance.group_time", "the transport overflows the floating-point range")
    payload = report.to_dict()
    if kind == "loxodromic":
        payload["transport"] = "loxodromic"
    return [_emit(args, "invariance.json", reports.canonical_json(payload))]


def cmd_map(args, doc: dict) -> list[str]:
    section = _section(doc, "map", {"points", "samples"})
    R = _real(_require(doc, "", "R"), "R", positive=True)
    if "points" in section:
        points = _points(section["points"], "map.points", 2)[0].tolist()
    else:
        count = _count(section.get("samples", 100), "map.samples", 1)
        rng = np.random.default_rng([_seed(doc, args), 0])
        points = [
            complex(rng.normal(0.0, 1.0), math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            for _ in range(count)
        ]
    # one scalar map per point: the array maps round differently in the last bit
    rows, worst, path = [], 0.0, "map.points" if "points" in section else "R"
    for w in points:
        z = to_disk(w, R)
        try:
            back = from_disk(z, R)  # refuses a non-finite image, or one rounded onto the boundary
        except DomainError as exc:
            raise ValidationError(path, str(exc)) from None
        worst = max(worst, abs(back - w))
        rows.append((w.real, w.imag, z.real, z.imag, back.real, back.imag))
    payload = {"R": R, "count": len(points), "max_roundtrip_error": worst}
    return [
        _emit(args, "map.csv", reports.map_csv(rows)),
        _emit(args, "map.json", reports.canonical_json(payload)),
    ]


def cmd_vlasov(args, doc: dict) -> list[str]:
    section = _section(doc, "vlasov", {"num_points"}) if "vlasov" in doc else {}
    num_points = _count(section.get("num_points", VLASOV_NUM_POINTS), "vlasov.num_points", 21)
    state = _system_state(doc)
    num_points = _work(num_points, "vlasov.num_points", state.n)
    traj = integrate(state, **_integrator(doc, state.n))
    # the evaluation points are built once per trajectory and shared by the tests
    per_test = {
        tf.name: float(vlasov_weak_residual(traj, tests=(tf,), num_points=num_points))
        for tf in default_test_functions()
    }
    payload = {
        "num_points": num_points,
        "per_test": per_test,
        "residual": max(per_test.values()),
    }
    return [_emit(args, "vlasov.json", reports.canonical_json(payload))]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a ValidationError instead of exiting with status 2."""

    def error(self, message):
        name, sep, reason = message.partition(": ")
        if sep and name.startswith("argument "):  # "argument --seed: invalid int value: 'x'"
            raise ValidationError(name[len("argument "):], reason)
        raise ValidationError(self.prog, message)


@functools.cache  # parse_args leaves the parser unchanged, so one per process serves every main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hnbody",
        description="n-body dynamics on the hyperbolic upper half-plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=".", help="output directory for reports")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        return p

    def with_class(p):
        p.add_argument(
            "--class", dest="cls", default=None, help="override the solution class"
        )
        return p

    common(sub.add_parser("simulate", help="integrate a system and export the trajectory"))
    eq = sub.add_parser("equilibria", help="solve or check a solution-class condition system")
    eq.add_argument("mode", choices=["find", "check"])
    with_class(common(eq))
    cert = with_class(common(sub.add_parser("certify", help="sample a non-existence sign certificate")))
    cert.add_argument("--samples", type=int, default=None, help="override certify.samples")
    common(sub.add_parser("flow", help="sample a subgroup flow"))
    common(sub.add_parser("invariance", help="verify subgroup invariance of a trajectory"))
    common(sub.add_parser("map", help="round-trip the half-plane/disk identification"))
    common(sub.add_parser("vlasov", help="weak-form kinetic-equation check on a trajectory"))
    return parser


_SYSTEM_KEYS = {"R", "masses", "bodies", "integrator", "seed"}

# command -> (handler, top-level config keys)
_HANDLERS = {
    "simulate": (cmd_simulate, _SYSTEM_KEYS),
    "equilibria": (cmd_equilibria, _SYSTEM_KEYS | {"equilibria"}),
    "certify": (cmd_certify, {"seed", "certify"}),
    "flow": (cmd_flow, {"seed", "flow"}),
    "invariance": (cmd_invariance, _SYSTEM_KEYS | {"invariance"}),
    "map": (cmd_map, {"R", "seed", "map"}),
    "vlasov": (cmd_vlasov, _SYSTEM_KEYS | {"vlasov"}),
}

_ERROR_CODES = (
    (ValidationError, "validation", EXIT_VALIDATION),
    (ClassNotSolvableError, "nonexistent-class", EXIT_VALIDATION),
    (SingularityError, "singularity", EXIT_SINGULARITY),
    (StepSizeError, "integrator-failure", EXIT_NO_CONVERGENCE),
    (ConvergenceError, "no-convergence", EXIT_NO_CONVERGENCE),
    (PoleError, "flow-pole", EXIT_VALIDATION),
    (DomainError, "validation", EXIT_VALIDATION),
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        handler, keys = _HANDLERS[args.command]
        doc = _load_config(args.config)
        _check_keys(doc, "", keys)
        outputs = handler(args, doc)
    except HnbodyError as exc:
        for etype, code, status in _ERROR_CODES:
            if isinstance(exc, etype):
                sys.stdout.write(
                    reports.canonical_json({"error": {"code": code, "message": str(exc)}})
                )
                return status
        raise
    sys.stdout.write(reports.canonical_json({"ok": True, "outputs": outputs}))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
