"""Closed-form flows of the five Killing fields and the invariance verifier.

The normal, nilpotent and elliptic-rotation flows act by the isometries
exp_subgroup(field, t) of the half-plane; the parabolic and hyperbolic
rotation flavours have explicit closed forms through the change of variable
s = tan t, with poles where a characteristic tangent blows up.  One chain
rule, ``_push``, moves positions, velocities and accelerations through every
flow map and every MobiusElement; ``transport``, ``flow_jacobian`` and
``verify_invariance`` read it.  ``verify_invariance`` implements the
relative-equilibrium definition operationally: transport an integrated
trajectory by a subgroup element and measure, at the accepted nodes, how
badly the transported curve violates the motion equations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .clifford import (
    KillingField,
    MobiusElement,
    NILPOTENT,
    NORMAL,
    ROTATION,
    exp_subgroup,
    killing_velocity,
)
from .dynamics import _POINT_BLOCK, SystemState, Trajectory, _step_points, eom_rhs
from .errors import DomainError, PoleError
from .geometry import apply_mobius, as_points, require_upper

_POLE_MARGIN = 1e-8


def admissible_interval(field: KillingField, w0):
    """Open t-interval around 0 on which the flow from w0 stays finite.

    An array of points gives arrays of interval ends.
    """
    w0 = as_points(w0)
    if field.kind in (NORMAL, NILPOTENT) or field.sigma == -1:
        return (-math.inf, math.inf)
    if field.sigma == 0:
        a = np.arctan(w0.real)
        return (-math.pi / 2 - a, math.pi / 2 - a)
    aa = np.arctan(w0.real + w0.imag)
    ab = np.arctan(w0.real - w0.imag)
    return (-math.pi / 2 - np.minimum(aa, ab), math.pi / 2 - np.maximum(aa, ab))


def _require_admissible(field: KillingField, w0, t):
    """Raise PoleError unless every t lies inside the admissible interval of its point."""
    lo, hi = admissible_interval(field, w0)
    outside = ~((lo + _POLE_MARGIN < t) & (t < hi - _POLE_MARGIN))
    if np.any(outside):
        i = np.unravel_index(np.argmax(outside), outside.shape)
        at, lo, hi = (float(np.broadcast_to(x, outside.shape)[i]) for x in (t, lo, hi))
        raise PoleError(
            f"flow parameter {at} leaves the admissible interval ({lo}, {hi})",
            pole_time=hi if at >= 0 else lo,
            interval=(lo, hi),
        )


def _image(field: KillingField, w, t):
    """Image u + iv of w = x + iy under the time-t flow map.

    The normal, nilpotent and elliptic-rotation flows act by the isometry
    exp_subgroup(field, t).  sigma=0: u = tan(t + atan x) and
    v = y (1 + u^2)/(1 + x^2).  sigma=+1: u + v and u - v are the tan-shifts
    of x + y and x - y.  These two raise PoleError, before any tan-shift,
    when a t leaves the admissible interval of its point.
    """
    if field.isometric:
        return apply_mobius(exp_subgroup(field, t), w)
    _require_admissible(field, w, t)
    x, y = w.real, w.imag
    if field.sigma == 0:
        u = np.tan(t + np.arctan(x))
        return u + 1j * (y * (1.0 + u * u) / (1.0 + x ** 2))
    p = np.tan(t + np.arctan(x + y))
    q = np.tan(t + np.arctan(x - y))
    return (p + q) / 2.0 + 1j * (p - q) / 2.0


def _tan_shift_partials(phi, s):
    """phi', phi'' and phi''' of the tan-shift phi(s) = tan(t + atan s), from phi."""
    ds = 1.0 + s * s
    d1 = (1.0 + phi * phi) / ds
    d2 = 2.0 * d1 * (phi - s) / ds
    return d1, d2, 2.0 * (d2 * (phi - 2.0 * s) + d1 * (d1 - 1.0)) / ds


def _push(spec, w, t, v, a):
    """Images of a position w, velocity v and acceleration a under a
    MobiusElement, or under the time-t flow map of a KillingField.

    An isometry g = (aw + b)/(den = cw + d) has g' = den^-2 and
    g'' = -2c den^-3.  The sigma = 0 and +1 flows move velocities by their
    Jacobian J and accelerations by J a + H[v, v], H the second partials of
    the tan-shift phi: u = phi(x) and v = y phi'(x) for sigma = 0, and
    u +- v = phi(x +- y) for +1.
    """
    if isinstance(spec, MobiusElement) or spec.isometric:
        g = spec if isinstance(spec, MobiusElement) else exp_subgroup(spec, t)
        den = g.c * w + g.d
        return apply_mobius(g, w), v / (den * den), (a - 2.0 * g.c * v * v / den) / (den * den)
    wt = _image(spec, w, t)
    if spec.sigma == 0:
        y, vx, vy, ax, ay = w.imag, v.real, v.imag, a.real, a.imag
        d1, d2, d3 = _tan_shift_partials(wt.real, w.real)
        at = d1 * ax + d2 * vx * vx + 1j * (y * (d2 * ax + d3 * vx * vx) + d1 * ay + 2.0 * d2 * vx * vy)
        return wt, d1 * vx + 1j * (y * d2 * vx + d1 * vy), at
    pushed = []
    for s in (1.0, -1.0):  # the characteristic coordinates x + y and x - y
        d1, d2, _ = _tan_shift_partials(wt.real + s * wt.imag, w.real + s * w.imag)
        vs = v.real + s * v.imag
        pushed.append((d1 * vs, d1 * (a.real + s * a.imag) + d2 * vs * vs))
    (vp, ap), (vq, aq) = pushed
    return wt, (vp + vq) / 2.0 + 1j * (vp - vq) / 2.0, (ap + aq) / 2.0 + 1j * (ap - aq) / 2.0


def flow(field: KillingField, w0, t):
    """Point of the flow of ``field`` through w0 at parameter t.

    Arrays of points and parameters broadcast against each other; scalars
    give a complex number.
    """
    w0 = require_upper(w0, "w0")
    return _image(field, w0, np.asarray(t, dtype=float)[()])


def flow_jacobian(field: KillingField, w, t: float):
    """Real 2x2 Jacobian of the time-t flow map at w: its columns are the
    pushes of the unit vectors 1 and i.

    An array of points gives shape w.shape + (2, 2).
    """
    w = require_upper(w)
    _, columns, _ = _push(field, np.asarray(w)[..., None], t, np.array([1.0, 1j]), 0.0)
    return np.stack([columns.real, columns.imag], axis=-2)


def transport(field: KillingField, w, v, t: float):
    """Push positions and velocities through the time-t flow map."""
    w = require_upper(w)
    return _push(field, w, t, as_points(v), 0.0)[:2]


def flow_derivative_check(field: KillingField, w0, t: float, h: float = 1e-6):
    """Relative defect of the flow against its generating field.

    Compares the centered d/dt of the flow with the field value at the
    flowed point.  An array of points gives one defect per point.
    """
    w1 = flow(field, w0, t)
    fd = (flow(field, w0, t + h) - flow(field, w0, t - h)) / (2.0 * h)
    vel = killing_velocity(field, w1)
    return (np.abs(fd - vel) / np.maximum(1.0, np.abs(vel)))[()]


# ---------------------------------------------------------------------------
# Invariance verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Worst motion-equation defect along a transported trajectory; per_body is a read-only array."""

    transport: str
    group_time: float
    max_residual: float
    per_body: np.ndarray
    num_points: int

    def __post_init__(self):
        self.per_body.flags.writeable = False

    def to_dict(self) -> dict:
        return asdict(self)


def verify_invariance(
    traj: Trajectory,
    transport_spec,
    group_time: float,
    num_points: int | None = None,
) -> ResidualReport:
    """Transport a trajectory by a subgroup element and test it as a solution.

    The positions, velocities and the accelerations stored at the accepted
    nodes move together through one _push: by the chain rule of the isometry
    for a MobiusElement or an isometric field, and by J a + H[v, v] of the
    tan-shift for the sigma = 0 and +1 rotations.  The report carries the
    largest defect against the motion equations at the transported nodes, or
    at the points of _step_points if num_points asks for more, and the number
    of points checked.  The points are pushed and checked in blocks of at most
    _POINT_BLOCK body-points (at least one point), so beyond the points
    themselves one block is held at a time; the per-body maximum runs over
    the blocks, which gives the value of one block exactly.
    """
    spec = transport_spec
    if not isinstance(spec, (KillingField, MobiusElement)):
        raise DomainError("transport must be a KillingField or a MobiusElement")
    if not traj.t1 - traj.t0 > 0:
        raise DomainError("trajectory must span a positive time interval")
    ts, W, V, A = _step_points(traj, num_points)
    block = max(1, _POINT_BLOCK // traj.n)
    per_body = np.zeros(traj.n)
    for a in range(0, len(ts), block):
        rows = slice(a, a + block)
        Wt, Vt, At = _push(spec, W[rows], group_time, V[rows], A[rows])
        defect = np.abs(At - eom_rhs(SystemState(ts[rows], Wt, Vt, traj.masses, traj.R)))
        per_body = np.maximum(per_body, defect.max(axis=0))
    return ResidualReport(
        transport=spec.describe() if isinstance(spec, KillingField) else "mobius-element",
        group_time=float(group_time),
        max_residual=float(per_body.max()),
        per_body=per_body,
        num_points=len(ts),
    )


def flow_samples(field: KillingField, points, ts) -> np.ndarray:
    """Rows (t, s, k, re, im) of the flow through each seed point, t-major.

    s is tan t for the rotation kinds (|t| < pi/2 required there) and t
    itself for the normal and nilpotent flows.
    """
    ts = np.asarray(ts, dtype=float)
    if field.kind == ROTATION:
        if not np.all(np.abs(ts) < math.pi / 2):
            raise DomainError("rotation-flow sampling needs |t| < pi/2 for s = tan t")
        s = np.tan(ts)
    else:
        s = ts
    w = flow(field, np.asarray(points, dtype=complex)[None, :], ts[:, None])
    t, k = np.broadcast_arrays(ts[:, None], np.arange(w.shape[1]))
    return np.column_stack([t.ravel(), np.repeat(s, w.shape[1]), k.ravel(), w.real.ravel(), w.imag.ravel()])
