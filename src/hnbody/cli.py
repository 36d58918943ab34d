"""Command-line front end.

Subcommands: simulate, equilibria find|check, certify, flow, invariance,
map, vlasov.  Every command reads one strict JSON configuration document,
writes bit-stable reports into the output directory, and exits 0 on
success, 1 on validation problems or a nonexistent solution class, 2 on a
singularity verdict, and 3 when an iterative method fails.
"""

from __future__ import annotations

import argparse
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
from .dynamics import SystemState, default_test_functions, integrate, vlasov_weak_residual
from .equilibria import (
    CyclicParams,
    EquilibriumClass,
    FindOptions,
    NONEXISTENT_CLASSES,
    certify_nonexistence,
    find_equilibrium_detailed,
    parabolic_contradiction_sides,
    residual_elliptic_cyclic,
    residual_hyperbolic_cyclic,
    residual_hyperbolic_normal,
    residual_parabolic_cyclic,
    residual_parabolic_nilpotent,
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


def _real(value, path: str, positive=False, nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, "must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(path, "must be finite")
    if positive and not value > 0:
        raise ValidationError(path, "must be > 0")
    if nonnegative and value < 0:
        raise ValidationError(path, "must be >= 0")
    return value


def _integer(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, "must be an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(path, f"must be >= {minimum}")
    return value


def _masses(doc: dict, path="") -> np.ndarray:
    raw = _require(doc, path, "masses")
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}masses", "must be a nonempty list")
    return np.array([_real(v, f"{path}masses[{i}]", positive=True) for i, v in enumerate(raw)])


def _bodies(doc: dict, path="", with_velocity=True) -> tuple[np.ndarray, np.ndarray]:
    raw = _require(doc, path, "bodies")
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}bodies", "must be a nonempty list")
    width = 4 if with_velocity else 2
    pos, vel = [], []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != width:
            raise ValidationError(
                f"{path}bodies[{i}]", f"must be a list of {width} numbers"
            )
        re = _real(row[0], f"{path}bodies[{i}].re")
        im = _real(row[1], f"{path}bodies[{i}].im")
        if not im > 0:
            raise ValidationError(f"{path}bodies[{i}].im", "must be > 0")
        pos.append(complex(re, im))
        if with_velocity:
            vre = _real(row[2], f"{path}bodies[{i}].vre")
            vim = _real(row[3], f"{path}bodies[{i}].vim")
            vel.append(complex(vre, vim))
    return np.array(pos), np.array(vel if with_velocity else [0j] * len(pos))


def _integrator(doc: dict) -> dict:
    raw = _require(doc, "", "integrator")
    _check_keys(raw, "integrator.", {"tol", "t_end", "max_step"})
    out = {
        "tol": _real(_require(raw, "integrator.", "tol"), "integrator.tol", positive=True),
        "t_end": _real(_require(raw, "integrator.", "t_end"), "integrator.t_end", positive=True),
        "max_step": None,
    }
    if "max_step" in raw:
        out["max_step"] = _real(raw["max_step"], "integrator.max_step", positive=True)
    return out


def _system_state(doc: dict) -> SystemState:
    R = _real(_require(doc, "", "R"), "R", positive=True)
    masses = _masses(doc)
    pos, vel = _bodies(doc)
    if masses.size != pos.size:
        raise ValidationError("masses", "length must match bodies")
    try:
        return SystemState(0.0, pos, vel, masses, R)
    except DomainError as exc:
        raise ValidationError("bodies", str(exc)) from None


def _field_from(section: dict, path: str) -> KillingField:
    kind = _require(section, path, "kind")
    if kind not in ("normal", "nilpotent", "rotation"):
        raise ValidationError(f"{path}kind", "must be normal, nilpotent or rotation")
    sigma = _integer(section.get("sigma", -1), f"{path}sigma")
    if sigma not in (-1, 0, 1):
        raise ValidationError(f"{path}sigma", "must be -1, 0 or 1")
    return KillingField(kind, sigma)


def _equilibrium_class(name, path: str) -> EquilibriumClass:
    try:
        return EquilibriumClass(name)
    except ValueError:
        valid = ", ".join(c.value for c in EquilibriumClass)
        raise ValidationError(path, f"must be one of: {valid}") from None


def _load_config(path: str) -> dict:
    if path is None:
        raise ValidationError("--config", "a configuration file is required")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError("--config", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
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


def _emit(args, name: str, text: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    reports.write_text(path, text)
    return name


def _state_dict(state: SystemState) -> dict:
    return {
        "R": state.R,
        "masses": [float(m) for m in state.masses],
        "bodies": [
            [w.real, w.imag, v.real, v.imag]
            for w, v in zip(state.positions, state.velocities)
        ],
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_COMMON_KEYS = {"R", "masses", "bodies", "integrator", "seed"}


def cmd_simulate(args) -> list[str]:
    doc = _load_config(args.config)
    _check_keys(doc, "", _COMMON_KEYS)
    state = _system_state(doc)
    opts = _integrator(doc)
    traj = integrate(state, opts["t_end"], tol=opts["tol"], max_step=opts["max_step"])
    sidecar = reports.trajectory_sidecar(traj)
    return [
        _emit(args, "trajectory.csv", reports.trajectory_csv(traj)),
        _emit(args, "trajectory.json", reports.canonical_json(sidecar)),
    ]


def cmd_equilibria(args) -> list[str]:
    doc = _load_config(args.config)
    _check_keys(doc, "", _COMMON_KEYS | {"equilibria"})
    section = _require(doc, "", "equilibria")
    _check_keys(
        section, "equilibria.",
        {"class", "symmetry", "tol", "max_iter", "alpha", "beta", "s"},
    )
    cls_name = args.cls or _require(section, "equilibria.", "class")
    cls = _equilibrium_class(cls_name, "equilibria.class")

    if args.mode == "find":
        if cls in NONEXISTENT_CLASSES:
            raise ClassNotSolvableError(
                f"nonexistent class: no {cls.value} solutions exist "
                "(certified sign contradiction; see the certify command)"
            )
        R = _real(_require(doc, "", "R"), "R", positive=True)
        masses = _masses(doc)
        pos, _ = _bodies(doc)
        symmetry = section.get("symmetry", "none")
        if symmetry not in ("none", "axis", "mirror"):
            raise ValidationError("equilibria.symmetry", "must be none, axis or mirror")
        opts = FindOptions(
            symmetry=symmetry,
            tol=_real(section.get("tol", 1e-10), "equilibria.tol", positive=True),
            max_iter=_integer(section.get("max_iter", 200), "equilibria.max_iter", minimum=1),
        )
        state, report = find_equilibrium_detailed(cls, masses, R, pos, opts)
        residual = _class_residual(cls, state)
        payload = {
            "class": cls.value,
            "mode": "find",
            "state": _state_dict(state),
            "residual": _residual_dict(residual),
            "iterations": report.iterations,
            "residual_inf_norm": report.residual_norm,
        }
        return [_emit(args, "equilibrium.json", reports.canonical_json(payload))]

    # check mode: evaluate the class residual on the configured data
    if cls in (EquilibriumClass.PARABOLIC_CYCLIC, EquilibriumClass.HYPERBOLIC_CYCLIC):
        R = _real(_require(doc, "", "R"), "R", positive=True)
        masses = _masses(doc)
        alpha = _require(section, "equilibria.", "alpha")
        beta = _require(section, "equilibria.", "beta")
        if not isinstance(alpha, list) or not isinstance(beta, list):
            raise ValidationError("equilibria.alpha", "alpha and beta must be lists")
        params = CyclicParams(
            [_real(v, f"equilibria.alpha[{i}]") for i, v in enumerate(alpha)],
            [_real(v, f"equilibria.beta[{i}]") for i, v in enumerate(beta)],
            _real(section.get("s", 0.0), "equilibria.s"),
        )
        if params.n != masses.size:
            raise ValidationError("equilibria.alpha", "length must match masses")
        if cls is EquilibriumClass.PARABOLIC_CYCLIC:
            re_res, im_res = residual_parabolic_cyclic(params, masses, R)
        else:
            re_res, im_res = residual_hyperbolic_cyclic(params, masses, R)
        payload = {
            "class": cls.value,
            "mode": "check",
            "real_parts": [float(x) for x in re_res],
            "imaginary_parts": [float(x) for x in im_res],
            "inf_norm": float(max(np.max(np.abs(re_res)), np.max(np.abs(im_res)))),
        }
        return [_emit(args, "equilibrium.json", reports.canonical_json(payload))]

    state = _system_state(doc)
    residual = _class_residual(cls, state)
    payload = {
        "class": cls.value,
        "mode": "check",
        "residual": _residual_dict(residual),
        "inf_norm": float(np.max(np.abs(residual))),
    }
    return [_emit(args, "equilibrium.json", reports.canonical_json(payload))]


def _class_residual(cls: EquilibriumClass, state: SystemState) -> np.ndarray:
    table = {
        EquilibriumClass.HYPERBOLIC_NORMAL: residual_hyperbolic_normal,
        EquilibriumClass.PARABOLIC_NILPOTENT: residual_parabolic_nilpotent,
        EquilibriumClass.ELLIPTIC_CYCLIC: residual_elliptic_cyclic,
    }
    return table[cls](state)


def _residual_dict(residual: np.ndarray) -> list:
    return [
        {"re": float(r.real), "im": float(r.imag), "abs": float(abs(r))} for r in residual
    ]


def cmd_certify(args) -> list[str]:
    doc = _load_config(args.config)
    _check_keys(doc, "", {"seed", "certify"})
    section = _require(doc, "", "certify")
    _check_keys(section, "certify.", {"class", "n", "samples"})
    cls_name = args.cls or _require(section, "certify.", "class")
    cls = _equilibrium_class(cls_name, "certify.class")
    n = _integer(_require(section, "certify.", "n"), "certify.n", minimum=2)
    samples = args.samples if args.samples is not None else section.get("samples")
    if samples is None:
        raise ValidationError("certify.samples", "missing required field")
    samples = _integer(samples, "certify.samples", minimum=1)
    cert = certify_nonexistence(cls, n, samples, seed=_seed(doc, args))
    payload = cert.to_dict()
    if cls is EquilibriumClass.PARABOLIC_CYCLIC:
        lhs, rhs = parabolic_contradiction_sides([1.0, 2.0], [1.0, 1.0], 1.0, k=0)
        payload["reference_sample"] = {
            "beta": [1.0, 2.0], "masses": [1.0, 1.0], "R": 1.0, "lhs": lhs, "rhs": rhs,
        }
    return [_emit(args, "certificate.json", reports.canonical_json(payload))]


def cmd_flow(args) -> list[str]:
    doc = _load_config(args.config)
    _check_keys(doc, "", {"seed", "flow"})
    section = _require(doc, "", "flow")
    _check_keys(section, "flow.", {"kind", "sigma", "points", "t_min", "t_max", "num"})
    field = _field_from(section, "flow.")
    raw_pts = _require(section, "flow.", "points")
    if not isinstance(raw_pts, list) or not raw_pts:
        raise ValidationError("flow.points", "must be a nonempty list")
    points = []
    for i, row in enumerate(raw_pts):
        if not isinstance(row, list) or len(row) != 2:
            raise ValidationError(f"flow.points[{i}]", "must be [re, im]")
        im = _real(row[1], f"flow.points[{i}].im")
        if not im > 0:
            raise ValidationError(f"flow.points[{i}].im", "must be > 0")
        points.append(complex(_real(row[0], f"flow.points[{i}].re"), im))
    t_min = _real(section.get("t_min", 0.0), "flow.t_min")
    t_max = _real(_require(section, "flow.", "t_max"), "flow.t_max")
    if not t_max > t_min:
        raise ValidationError("flow.t_max", "must exceed t_min")
    num = _integer(section.get("num", 33), "flow.num", minimum=2)
    ts = np.linspace(t_min, t_max, num)
    rows = flow_samples(field, points, ts)
    checks = [
        flow_derivative_check(field, np.array(points), float(t))
        for t in (t_min + 0.25 * (t_max - t_min), t_min + 0.75 * (t_max - t_min))
    ]
    payload = {
        "kind": field.describe(),
        "num_points": len(points),
        "num_times": num,
        "max_derivative_defect": float(np.max(checks)),
    }
    return [
        _emit(args, "flow.csv", reports.flow_csv(rows)),
        _emit(args, "flow.json", reports.canonical_json(payload)),
    ]


def cmd_invariance(args) -> list[str]:
    doc = _load_config(args.config)
    _check_keys(doc, "", _COMMON_KEYS | {"invariance"})
    section = _require(doc, "", "invariance")
    _check_keys(section, "invariance.", {"kind", "sigma", "group_time", "num_points"})
    state = _system_state(doc)
    opts = _integrator(doc)
    group_time = _real(_require(section, "invariance.", "group_time"), "invariance.group_time")
    kind = _require(section, "invariance.", "kind")
    if kind == "loxodromic":
        transport = exp_subgroup(NORMAL_A, group_time) @ exp_subgroup(
            ROTATION_ELLIPTIC, group_time
        )
    else:
        transport = _field_from(section, "invariance.")
    num_points = section.get("num_points")
    if num_points is not None:
        num_points = _integer(num_points, "invariance.num_points", minimum=7)
    traj = integrate(state, opts["t_end"], tol=opts["tol"], max_step=opts["max_step"])
    report = verify_invariance(traj, transport, group_time, num_points=num_points)
    payload = report.to_dict()
    if kind == "loxodromic":
        payload["transport"] = "loxodromic"
    return [_emit(args, "invariance.json", reports.canonical_json(payload))]


def cmd_map(args) -> list[str]:
    doc = _load_config(args.config)
    _check_keys(doc, "", {"R", "seed", "map"})
    section = _require(doc, "", "map")
    _check_keys(section, "map.", {"points", "samples"})
    R = _real(_require(doc, "", "R"), "R", positive=True)
    if "points" in section:
        raw = section["points"]
        if not isinstance(raw, list) or not raw:
            raise ValidationError("map.points", "must be a nonempty list")
        points = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != 2:
                raise ValidationError(f"map.points[{i}]", "must be [re, im]")
            im = _real(row[1], f"map.points[{i}].im")
            if not im > 0:
                raise ValidationError(f"map.points[{i}].im", "must be > 0")
            points.append(complex(_real(row[0], f"map.points[{i}].re"), im))
    else:
        count = _integer(section.get("samples", 100), "map.samples", minimum=1)
        rng = np.random.default_rng([_seed(doc, args), 0])
        points = [
            complex(rng.normal(0.0, 1.0), math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            for _ in range(count)
        ]
    lines = ["re,im,disk_re,disk_im,back_re,back_im"]
    worst = 0.0
    for w in points:
        z = to_disk(w, R)
        back = from_disk(z, R)
        worst = max(worst, abs(back - w))
        lines.append(
            ",".join(
                reports.fmt_float(x)
                for x in (w.real, w.imag, z.real, z.imag, back.real, back.imag)
            )
        )
    payload = {"R": R, "count": len(points), "max_roundtrip_error": worst}
    return [
        _emit(args, "map.csv", "\n".join(lines) + "\n"),
        _emit(args, "map.json", reports.canonical_json(payload)),
    ]


def cmd_vlasov(args) -> list[str]:
    doc = _load_config(args.config)
    _check_keys(doc, "", _COMMON_KEYS | {"vlasov"})
    section = doc.get("vlasov", {})
    _check_keys(section, "vlasov.", {"num_points"})
    num_points = _integer(section.get("num_points", 1001), "vlasov.num_points", minimum=21)
    state = _system_state(doc)
    opts = _integrator(doc)
    traj = integrate(state, opts["t_end"], tol=opts["tol"], max_step=opts["max_step"])
    # the weak-form grid is built once per trajectory and shared by the tests
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnbody",
        description="n-body dynamics on the hyperbolic upper half-plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=".", help="output directory for reports")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--samples", type=int, default=None, help="override the sample count")
        p.add_argument(
            "--class", dest="cls", default=None, help="override the solution class"
        )

    common(sub.add_parser("simulate", help="integrate a system and export the trajectory"))
    eq = sub.add_parser("equilibria", help="solve or check a solution-class condition system")
    eq.add_argument("mode", choices=["find", "check"])
    common(eq)
    common(sub.add_parser("certify", help="sample a non-existence sign certificate"))
    common(sub.add_parser("flow", help="sample a subgroup flow"))
    common(sub.add_parser("invariance", help="verify subgroup invariance of a trajectory"))
    common(sub.add_parser("map", help="round-trip the half-plane/disk identification"))
    common(sub.add_parser("vlasov", help="weak-form kinetic-equation check on a trajectory"))
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "equilibria": cmd_equilibria,
    "certify": cmd_certify,
    "flow": cmd_flow,
    "invariance": cmd_invariance,
    "map": cmd_map,
    "vlasov": cmd_vlasov,
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
    args = _build_parser().parse_args(argv)
    try:
        outputs = _HANDLERS[args.command](args)
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
