"""Cotangent-potential n-body dynamics on the hyperbolic half-plane.

The pairwise interaction is the hyperbolic-cotangent potential written in
model coordinates; its singular set is the zero locus of the pairwise
function theta.  The motion equations combine the geodesic term with the
metric gradient of the potential, here kept in the fully explicit closed
form.  An embedded Runge-Kutta 5(4) pair with cubic Hermite dense output
integrates the first-order system; its step size follows Gustafsson's
predictive controller, which extrapolates the step-size trend into a
collision.  Noether functionals of the three isometric subgroups provide
conserved-quantity monitors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularityError, StepSizeError

# The interaction term of the closed-form motion equations equals
# GRADIENT_SIGN * (2/mu) * (2 R^2 / m_k) * dV/dwbar_k.  The sign is resolved
# by the finite-difference oracle (gradient_consistency) and frozen here;
# the matching potential-energy coupling makes E = T + 2 R^2 V conserved.
GRADIENT_SIGN = -1.0
ENERGY_COUPLING = 2.0


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float array: as a ufunc operand it skips the conversion a Python scalar takes."""
    array = np.array(value, dtype=float)
    array.flags.writeable = False
    return array


# The singular set: pairs with near/far = tanh^2(d/2) below tanh^2(5e-7), closer than d = 1e-6 at R = 1
# (Beardon, The Geometry of Discrete Groups, 7.2), and pairs whose kernel divisor theta^{3/2} underflows.
_NEAR_FAR_MIN = _constant(math.tanh(5e-7) ** 2)
_THETA_MIN = _constant(1e-200)
# the singular set widened 1e8-fold (d below about 1e-2 at R = 1): integrate's verdict at a step underflow
_NEAR_FAR_WIDE, _THETA_WIDE = _constant(1e8 * math.tanh(5e-7) ** 2), _constant(1e8 * 1e-200)
_FOUR, _THREE, _HALF = _constant(4.0), _constant(3.0), _constant(0.5)
VLASOV_NUM_POINTS = 1001  # default of vlasov_weak_residual and of the CLI's vlasov.num_points
_POINT_BLOCK = 1 << 16  # body-points per block of the evaluation points of _step_points and vlasov_weak_residual
_DIVISOR_OVERFLOWS = "the pair kernel divisor 512 max|w|^6 overflows"


def step_floor(t: float) -> float:
    """1e-14 max(1, |t|), the smallest step integrate takes at time t: a smaller one is an underflow."""
    return 1e-14 * max(1.0, abs(t))


def _divisor_bound(scale):
    """512 scale^6, a bound on the pair kernel's divisor theta^{3/2} at positions
    with max|w| = scale (theta <= 64 max|w|^4).  It is finite for scale below
    about 8e50; past that an overflowing theta or divisor would hide the force."""
    return 512.0 * scale * scale * scale * scale * scale * scale


@dataclass
class SystemState:
    """Time, per-body positions/velocities, masses and R.

    One state has positions and velocities of shape (n,) and a float time;
    a series of states sharing masses and R has (T, n) arrays and T times.
    """

    t: float
    positions: np.ndarray
    velocities: np.ndarray
    masses: np.ndarray
    R: float

    def __post_init__(self):
        self.positions = np.array(self.positions, dtype=complex, ndmin=1)
        self.velocities = np.array(self.velocities, dtype=complex, ndmin=1)
        self.masses = np.array(self.masses, dtype=float)
        self.R = float(self.R)
        rows = self.positions.shape[:-1]
        if len(rows) > 1:
            raise DomainError("positions must have shape (n,) or (T, n)")
        self.t = np.array(self.t, dtype=float) if rows else float(self.t)
        n = self.n
        if n < 1:
            raise DomainError("a system needs at least one body")
        if self.velocities.shape != self.positions.shape or self.masses.size != n:
            raise DomainError("positions, velocities and masses must have equal length")
        if rows and self.t.shape != rows:
            raise DomainError("a series needs one time per row")
        if not (self.masses > 0).all():
            raise DomainError("masses must be positive")
        if not (self.R > 0 and math.isfinite(self.R)):
            raise DomainError("curvature radius must be a positive real")
        if not (self.positions.imag > 0).all():
            raise DomainError("all bodies must lie in the open upper half-plane")
        # checked in Python floats, which overflow to inf without a warning
        if not math.isfinite(_divisor_bound(float(np.abs(self.positions).max(initial=1.0)))):
            raise DomainError(f"positions too large: {_DIVISOR_OVERFLOWS}")

    @property
    def n(self) -> int:
        return self.positions.shape[-1]


class _PairTables(NamedTuple):
    """Tables over body pairs (k, j) of positions wk = xk + i yk and wj = xj + i yj."""

    dx: np.ndarray  # xk - xj
    dy: np.ndarray  # yk - yj
    sy: np.ndarray  # yk + yj
    dx2: np.ndarray  # dx^2
    near: np.ndarray  # |wk - wj|^2 = dx^2 + dy^2
    far: np.ndarray  # |wk - conj(wj)|^2 = dx^2 + sy^2
    theta: np.ndarray  # 4 near far


class _Block:
    """A (7, ...) block of the _PairTables, with the views through which one ufunc call fills several tables."""

    __slots__ = ("array", "tables", "dxdy", "signed", "squares", "near_far")

    def __init__(self, shape: tuple, dtype=float):
        self.array = np.empty((7,) + shape, dtype)
        self.tables = _PairTables(*(self.array[i, ...] for i in range(7)))
        self.dxdy, self.signed = self.array[:2], self.array[:3]
        self.squares, self.near_far = self.array[3:6], self.array[4:6]

    def fill(self, k, j, yk, yj) -> _PairTables:
        """The pair tables of the points k = (xk, yk) against j = (xj, yj), each stacked on a first axis of
        length 2 and broadcast against the other to the block's shape; yk and yj are their second rows.

        theta = cross^2 - (conj(wk)-wk)^2 (conj(wj)-wj)^2 with
        cross = (conj(wk)+wk)(conj(wj)+wj) - 2(|wk|^2+|wj|^2) factors exactly
        as theta = 4 near far and cross = -(near + far).  Nothing subtracts two
        nearly equal quantities (a close coordinate difference is exact), so
        theta keeps its relative accuracy down to coincidence: it is >= 0,
        exactly 0 for coincident bodies, and symmetric in k, j bit for bit.
        """
        _, _, sy, dx2, near, far, th = self.tables
        np.subtract(k, j, self.dxdy)
        np.add(yk, yj, sy)
        np.multiply(self.signed, self.signed, self.squares)  # dx^2, dy^2, sy^2
        np.add(self.near_far, dx2, self.near_far)  # near = dy^2 + dx^2, far = sy^2 + dx^2
        np.multiply(near, far, th)
        np.multiply(th, _FOUR, th)
        return self.tables


def _stacked(x, y) -> np.ndarray:
    """x and y broadcast against each other and stacked on a new first axis, as floats or (symbolic) objects."""
    x, y = np.asarray(x), np.asarray(y)
    xy = np.empty((2,) + np.broadcast_shapes(x.shape, y.shape), np.result_type(x, y, 1.0))
    xy[0], xy[1] = x, y
    return xy


def _pair_tables(xk, yk, xj, yj) -> _PairTables:
    """Pair tables of xk + i yk against xj + i yj, broadcast, in a new _Block (of objects for symbolic input)."""
    k, j = _stacked(xk, yk), _stacked(xj, yj)
    block = _Block(np.broadcast_shapes(k.shape, j.shape)[1:], np.result_type(k, j))
    block.fill(k, j, k[1], j[1])
    return _PairTables(*block.array)


def _view(base: np.ndarray, shape: tuple, strides: tuple, offset: int = 0) -> np.ndarray:
    """A float view of base's buffer from byte offset, by byte strides (a new empty array if it has no entries)."""
    return np.ndarray(shape, float, base, offset, strides) if math.prod(shape) else np.empty(shape)


class _Workspace(_Block):
    """The pair kernel's buffers for positions of shape (..., n), built once and refilled by every call.

    Its pair tables are cyclic, (..., n // 2, n): row s - 1, column k holds the pair (k, (k + s) mod n), so the
    rows s < n/2 hold every unordered pair once and row n/2 (n even) both orders of its pairs.  The _Block fills
    them from strided views alone: the k side views the positions, the j side slides over them stored twice
    (w2).  Besides: m y^2 twice, with its window; -m_k y_k^2; the guard's boolean table; the (B, A) terms'
    accumulator, zeroed once, the forward terms in its first n // 2 rows and the mirrored ones, by a skewed
    view, in the rows after; the sums (B, A), c and the geodesic term.  Every result is a view of these buffers,
    overwritten by the next call."""

    __slots__ = ("w2", "k", "j", "yk", "yj", "y", "y2", "my2", "my2_j", "my2_k", "neg_my2_k", "mirrored", "singular",
                 "acc", "forward", "mirror", "mirror_num", "mirror_g", "sums", "B", "A", "c", "geodesic", "geodesic_re",
                 "geodesic_im")

    def __init__(self, shape: tuple):
        lead, n = shape[:-1], shape[-1]
        rows, self.mirrored = n // 2, (n - 1) // 2
        super().__init__(lead + (rows, n))
        self.w2 = np.empty(lead + (2, n), dtype=complex)
        # float views of (Re w, Im w): body k, broadcast over the rows, and the window of bodies k + 1 to k + n // 2
        outer, one = (8,) + self.w2.strides[:-2], self.w2.strides[-1]
        self.k = _view(self.w2, (2,) + lead + (1, n), outer + (0, one))
        self.j = _view(self.w2, (2,) + lead + (rows, n), outer + (one, one), one)
        self.yk, self.yj = self.k[1], self.j[1]
        self.y2, self.y = self.w2.imag, self.w2.imag[..., 0, :]
        self.my2 = np.empty(lead + (2, n))
        self.my2_j = _view(self.my2, lead + (rows, n), self.my2.strides[:-2] + (8, 8), 8)
        self.my2_k, self.neg_my2_k = self.my2[..., :1, :], np.empty(lead + (1, n))
        self.singular = np.empty((2,) + lead + (rows, n), dtype=bool)
        # the mirrored term of row s - 1, column k belongs to body (k + s) mod n: in rows of width n, the
        # entry r (n + 1) + k + s - 1 past the first mirrored row is column (k + s) mod n, of row r or r + 1
        self.acc = np.zeros((2,) + lead + (rows + self.mirrored + (self.mirrored > 0), n))
        self.forward = self.acc[..., :rows, :]
        self.mirror = _view(self.acc, (2,) + lead + (self.mirrored, n), self.acc.strides[:-2] + (8 * n + 8, 8),
                            8 * rows * n + 8)
        self.mirror_num = self.array[0:5:4, ..., :self.mirrored, :]  # dx and near, which takes dy sy + dx^2
        self.mirror_g = self.array[2, ..., :self.mirrored, :]  # sy's rows, which take -g_jk
        sums_c = np.empty((3,) + shape)
        self.sums, (self.B, self.A, self.c) = sums_c[:2], sums_c
        self.geodesic = np.empty(shape, dtype=complex)
        self.geodesic_re, self.geodesic_im = self.geodesic.real, self.geodesic.imag

    def cyclic(self, w: np.ndarray) -> _PairTables:
        """The cyclic pair tables of positions w."""
        np.copyto(self.w2, w[..., None, :])
        return self.fill(self.k, self.j, self.yk, self.yj)


def _guard(ws: _Workspace, w: np.ndarray, t=None, near_far_min=_NEAR_FAR_MIN, theta_min=_THETA_MIN) -> None:
    """The one singular-set verdict on positions w, shape (..., n), from their cyclic tables in ws.

    A pair is singular when near < near_far_min far or theta < theta_min (0-d; tanh^2(5e-7) and 1e-200 by
    default); one boolean table stacks both tests and one reduction decides.  Without a singular pair it
    returns, having written near_far_min far to far; else it raises the SingularityError of the first singular
    configuration, timed by ``t`` (a float, or an array over the leading axes) if given, from the refilled
    tables: entry (s - 1, k) is the pair (min, max) of k and (k + s) mod n, and the pair named, with its theta,
    has the smallest near/far (a NaN ratio first, ties to the first pair in k < j row-major order)."""
    _, _, _, _, near, far, th = ws.tables
    singular = ws.singular
    np.less(near, np.multiply(far, near_far_min, far), singular[0])
    np.less(th, theta_min, singular[1])
    if not np.logical_or.reduce(singular, None):
        return
    _, _, _, _, near, far, th = ws.cyclic(w)  # far, and whatever the caller overwrote, afresh
    hit = np.logical_or(singular[0], singular[1], singular[0])
    row = np.unravel_index(np.argmax(hit), hit.shape)[:-2]
    entries = np.flatnonzero(hit[row])
    s, k = np.divmod(entries, w.shape[-1])
    pairs = np.sort([k, (k + s + 1) % w.shape[-1]], axis=0)  # each entry's pair (min, max)
    order = np.lexsort(pairs[::-1])  # the entries in k < j row-major order
    with np.errstate(all="ignore"):  # 0/0 where heights underflow
        worst = order[np.argmin((near[row].flat[entries] / far[row].flat[entries])[order])]
    pair = tuple(pairs[:, worst].tolist())
    value = float(th[row].flat[entries[worst]])
    time = None if t is None else float(np.asarray(t)[row])
    when = "" if time is None else f" at t = {time}"
    message = f"pair {pair} touched the singular set{when} (theta = {value:.3e})"
    raise SingularityError(message, pair=pair, time=time, theta=value)


def _kernel(ws: _Workspace, w: np.ndarray, masses: np.ndarray, t=None):
    """Im w and the sums (A_k, B_k) = sum_j g_kj (dy sy - dx^2, dx), g_kj = m_j yj^2 / theta^{3/2}: the one
    pair kernel of positions w, shape (..., n), in the workspace ws of that shape.  Theta stays in the
    workspace's tables.

    Each entry (k, j) of a cyclic row s < n/2 serves both bodies: the forward term goes to body k, and the
    mirrored one, -g_jk (dx, dy sy + dx^2) with g_jk = m_k yk^2 / theta^{3/2} (the pair (j, k) has -dx and
    -dy), to body j through the skewed view; one reduction over the accumulator's rows gives (B, A)."""
    dx, dy, sy, dx2, near, far, th = ws.cyclic(w)
    _guard(ws, w, t)
    p = np.multiply(dy, sy, dy)
    d = np.sqrt(th, sy)
    d *= th  # theta^{3/2}
    np.multiply(masses, ws.y2, ws.my2)
    ws.my2 *= ws.y2
    np.divide(ws.my2_j, d, far)  # g_kj, into the spent far
    if ws.mirrored:
        np.add(p, dx2, near)  # into the spent near
        np.negative(ws.my2_k, ws.neg_my2_k)
        np.divide(ws.neg_my2_k, ws.mirror_g, ws.mirror_g)  # -g_jk, over theta^{3/2}
        np.multiply(ws.mirror_num, ws.mirror_g, ws.mirror)
    p -= dx2  # re = dy sy - dx^2
    np.multiply(ws.dxdy, far, ws.forward)  # g dx and g re
    np.add.reduce(ws.acc, -2, out=ws.sums)  # (B, A)
    return ws.y, ws.A, ws.B


def theta(wk: complex, wj: complex) -> float:
    """Pairwise singular-set function.

    [(conj(wk)+wk)(conj(wj)+wj) - 2(|wk|^2+|wj|^2)]^2
        - (conj(wk)-wk)^2 (conj(wj)-wj)^2  =  4 |wk - wj|^2 |wk - conj(wj)|^2,
    evaluated in the factored form, so it is nonnegative, zero exactly on
    collision/antipodal configurations, accurate to rounding near them,
    and theta(wk, wj) == theta(wj, wk) bit for bit.
    """
    return float(_pair_tables(np.real(wk), np.imag(wk), np.real(wj), np.imag(wj)).theta)


def min_pair_theta(positions: np.ndarray):
    """Smallest theta over distinct pairs per configuration of shape (n,) or (T, n), inf for one body
    (NaN if a pair's theta is); a series goes through the kernel's tables a few rows at a time."""
    w = np.asarray(positions, dtype=complex)
    return _over_rows(lambda ws, w: np.minimum.reduce(ws.cyclic(w).theta, axis=(-2, -1), initial=math.inf), w)


def _accel(ws: _Workspace, w: np.ndarray, v: np.ndarray, masses: np.ndarray, R: float, t=None, out=None):
    """Accelerations 2 wdot^2/(w - conj w) - (2 (w - conj w)^3 / R) S_k behind the
    _guard's verdict, written into ``out`` if given (else a new array); the _kernel
    runs in the workspace ws of w's shape.

    With w - conj w = 2iy, the geodesic term is -i wdot^2 / y = q - i p for
    wdot^2 / y = p + i q, and the force (16i y^3 / R) S_k = c (y B + i A / 2)
    for c = -128 y^3 / R and the pair sums (A, B) of the _kernel.
    """
    y, A, B = _kernel(ws, w, masses, t)
    c = np.power(y, _THREE, ws.c)
    c *= -128.0 / R
    B *= y
    np.multiply(ws.sums, c, ws.sums)  # B and A
    A *= _HALF
    geodesic = np.multiply(v, v, ws.geodesic)
    geodesic /= y
    out = np.empty_like(geodesic) if out is None else out
    np.add(ws.geodesic_im, B, out.real)
    np.subtract(A, ws.geodesic_re, out.imag)
    return out


_PAIR_CHUNK = 1 << 14  # cyclic pair-table entries, n (n // 2) per row, per kernel call over a series


def _over_rows(fn, w: np.ndarray, *series):
    """fn(ws, w, *series) on one configuration w of shape (n,), or on the rows of a series w of shape (T, n) and
    the same rows of each array in series, a few rows per call, so that no (T, n // 2, n) table is built; a
    series of zero rows is one call.  ws is a _Workspace of w's shape, one for all equal chunks of a series."""
    n = w.shape[-1]
    step = max(1, _PAIR_CHUNK // max(1, n * (n // 2)))
    if w.ndim == 1 or len(w) <= step:
        return fn(_Workspace(w.shape), w, *series)
    ws = _Workspace(w[:step].shape)
    parts = []
    for a in range(0, len(w), step):
        rows = slice(a, a + step)
        if len(w) - a < step:  # the last, shorter chunk
            ws = _Workspace(w[rows].shape)
        parts.append(fn(ws, w[rows], *(x[rows] for x in series)))
    return np.concatenate(parts)


def cotangent_potential(state: SystemState):
    """Total potential (1/R) * sum_{k<j} m_k m_j * cross_{kj} / sqrt(theta_{kj}), cross = -(near + far).

    Mobius invariant; a series gives one value per row.  The sum runs over the cyclic pair tables of a
    _Workspace, with the weights -m_k m_j / R halved on row n/2 (n even), which holds its pairs twice; behind
    their _guard, so a singular pair raises the verdict of eom_rhs on the same rows (pair, time, theta).
    """
    n, m = state.n, state.masses
    s = np.arange(1, n // 2 + 1)[:, None]
    mm = (m * m[(np.arange(n) + s) % n] * np.where(2 * s == n, -0.5 / state.R, -1.0 / state.R)).ravel()

    def rows(ws, w, t):
        *_, dx2, near, far, th = ws.cyclic(w)
        s = np.add(near, far, dx2)  # -cross, summed before _guard overwrites far
        _guard(ws, w, t)
        s /= np.sqrt(th, th)
        flat = s.reshape(w.shape[:-1] + (mm.size,))  # a view: one row per configuration
        # summed pairwise, not by a BLAS dot: from ~10^4 terms OpenBLAS wakes a worker thread that then spins
        flat *= mm
        return np.add.reduce(flat, -1)

    return _over_rows(rows, state.positions, state.t)


def eom_interaction(state: SystemState) -> np.ndarray:
    """Force part of the motion equations (geodesic term excluded):

    -(2 (wk - conj(wk))^3 / R) * S_k  per body, the accelerations at rest.
    """
    return eom_rhs(replace(state, velocities=np.zeros_like(state.velocities)))


def eom_rhs(state: SystemState) -> np.ndarray:
    """Accelerations: 2*wdot^2/(w - conj(w)) plus the interaction force."""
    return _over_rows(lambda ws, w, t, v: _accel(ws, w, v, state.masses, state.R, t), state.positions, state.t,
                      state.velocities)


# ---------------------------------------------------------------------------
# Gradient oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientReport:
    sign: float
    max_rel_error: float
    step: float


def gradient_consistency(state: SystemState, step: float | None = None) -> GradientReport:
    """Check the interaction force against the metric gradient of the potential.

    The force on body k is compared with c * (2/mu(wk)) * (2 R^2 / m_k) *
    dV/dwbar_k, the Wirtinger derivative taken by central finite differences
    in the real and imaginary parts.  Returns the sign c in {+1, -1} that
    minimizes the maximal relative error, together with that error.
    """
    scale = max(1.0, float(np.max(np.abs(state.positions))))
    h = step if step is not None else 1e-6 * scale
    if not h > 1e-13 * scale:
        raise DomainError(f"finite-difference step underflow: {h!r}")

    force = eom_interaction(state)
    n, R = state.n, state.R
    if n < 2:
        return GradientReport(GRADIENT_SIGN, 0.0, h)
    # the potential with body k moved by h, -h, ih and -ih, rows 4k to 4k + 3 of one series
    w = np.repeat(state.positions[None, :], 4 * n, axis=0)
    w[np.arange(4 * n), np.arange(4 * n) // 4] += np.tile([h, -h, 1j * h, -1j * h], n)
    V = cotangent_potential(SystemState(np.zeros(4 * n), w, np.zeros_like(w), state.masses, R)).reshape(n, 4)
    dwbar = 0.5 * ((V[:, 0] - V[:, 1]) / (2.0 * h) + 1j * ((V[:, 2] - V[:, 3]) / (2.0 * h)))
    target = (2.0 / (R / state.positions.imag) ** 2) * (2.0 * R ** 2 / state.masses) * dwbar

    denom = np.maximum(np.abs(force), 1e-300)
    best_sign, best_err = 1.0, math.inf
    for c in (1.0, -1.0):
        err = float(np.max(np.abs(force - c * target) / denom))
        if err < best_err:
            best_sign, best_err = c, err
    return GradientReport(best_sign, best_err, h)


# ---------------------------------------------------------------------------
# Conserved quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservedQuantities:
    """Energy and the three momentum maps of the isometric subgroup actions.

    Floats for one state; for a series, ``energy`` has shape (T,) and
    ``momenta`` shape (3, T).
    """

    energy: float
    momenta: np.ndarray  # pairing of the velocity with the fields w, 1, 1 + w^2

    def as_dict(self) -> dict:
        return {
            "energy": self.energy,
            "momentum_normal": self.momenta[0],
            "momentum_nilpotent": self.momenta[1],
            "momentum_rotation": self.momenta[2],
        }


def conserved(state: SystemState) -> ConservedQuantities:
    """Energy T + 2 R^2 V and the momenta J_xi = sum m mu Re(wdot conj(xi))."""
    w, v, m, R = state.positions, state.velocities, state.masses, state.R
    mu = (R / w.imag) ** 2
    kinetic = 0.5 * np.sum(m * mu * np.abs(v) ** 2, axis=-1)
    energy = kinetic + ENERGY_COUPLING * R * R * cotangent_potential(state)
    momenta = np.array(
        [np.sum(m * mu * (v * np.conjugate(xi)).real, axis=-1) for xi in (w, np.ones_like(w), 1.0 + w * w)]
    )
    return ConservedQuantities(energy, momenta)


# ---------------------------------------------------------------------------
# Adaptive integration (Dormand-Prince 5(4), FSAL, Hermite dense output)
# ---------------------------------------------------------------------------

# the motion equations are autonomous, so only the (complex, like the stages)
# weights are needed; the last row gives the 5th-order result y5 = 7th stage input
_DP_A = [np.array(a, dtype=complex) for a in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = np.append(_DP_A[6], 0.0) - _DP_B4  # 5th- minus 4th-order weights
_ERR_ACC_FLOOR = 1e-4  # floor of the remembered error norm in the predictive step-size rule


@dataclass(frozen=True)
class IntegratorStats:
    steps: int
    rejected: int  # all rejected attempts; rejected - stage_failures failed the error test
    min_theta: float
    rhs_calls: int
    stage_failures: int  # attempts rejected for a singular stage or one below the real axis
    singular_stages: int = 0  # the stage failures with a singular stage; the rest left the half-plane
    min_step: float = math.inf  # smallest and largest accepted step (inf and 0 before any)
    max_step: float = 0.0


@dataclass
class Trajectory:
    """Accepted integration nodes with enough data for dense evaluation.

    ``ys`` stacks (positions, velocities) per node as a complex vector of
    length 2n; ``fs`` holds the corresponding derivative, so each step
    carries a cubic Hermite interpolant for every state component.
    """

    times: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    masses: np.ndarray
    R: float
    stats: IntegratorStats
    # evaluation points by parts per step (_step_points)
    _points: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.ys.shape[1] // 2

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def sample_many(self, ts):
        """Positions and velocities at the times ts, each of shape (len(ts), n).

        Cubic Hermite interpolation between the accepted nodes.
        """
        ts = np.asarray(ts, dtype=float)
        nodes = self.times
        outside = ~((nodes[0] <= ts) & (ts <= nodes[-1]))
        if np.any(outside):
            raise DomainError(f"time {ts[outside][0]} outside the integrated span [{nodes[0]}, {nodes[-1]}]")
        i = np.clip(np.searchsorted(nodes, ts, side="right") - 1, 0, len(nodes) - 2)
        h = (nodes[i + 1] - nodes[i])[:, None]
        s = (ts - nodes[i])[:, None] / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        y = h00 * self.ys[i] + h10 * h * self.fs[i] + h01 * self.ys[i + 1] + h11 * h * self.fs[i + 1]
        return y[:, : self.n], y[:, self.n :]

    def sample(self, t: float):
        """Positions and velocities at time t."""
        w, v = self.sample_many([t])
        return w[0], v[0]

    @property
    def samples(self):
        """The accepted nodes as SystemState values (strictly increasing t)."""
        return [
            SystemState(t, y[: self.n], y[self.n :], self.masses, self.R)
            for t, y in zip(self.times, self.ys)
        ]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value ends in a StepSizeError
def integrate(
    state: SystemState,
    t_end: float,
    tol: float = 1e-10,
    max_step: float | None = None,
    max_attempts: int | None = None,
) -> Trajectory:
    """Integrate the motion equations from state.t to t_end.

    Embedded 5(4) pair with mixed absolute/relative per-component error
    control at ``tol``.  After an accepted step the next step is the smaller
    of the I-controller's proposal h min(5, max(0.2, 0.9 err^-1/5)) and
    Gustafsson's predictive proposal h max(0.2, 0.9 (h / h_acc)
    (err_acc / err^2)^1/5) from the previous accepted step (Hairer & Wanner,
    Solving ODEs II, IV.8); a rejection shrinks the step by
    max(0.2, 0.9 err^-1/5), a failed stage by 0.25.  A step that would pass
    t_end, or end less than step_floor(t_end) short of it, ends on
    t_end.  Halts with a singularity error if any pair enters the singular
    set.  At a step below step_floor(t) the verdict is that of a stage
    singular since the start, else the _guard's of the state against the
    singular set widened 1e8-fold (d below about 1e-2 at R = 1), which names
    the pair with its own theta; otherwise the underflow is a step-size
    error, as are a non-finite initial derivative, step size or error
    estimate, an accepted state past the position bound of SystemState, and
    a step that would be attempt number max_attempts + 1 (accepted and
    rejected attempts count; None sets no bound).  The CLI bounds the
    (t_end - state.t) / max_step steps that max_step asks for, and passes
    the same bound as max_attempts (hnbody.cli.MAX_COUNT, MAX_WORK).  A tol
    below the double-precision epsilon is a DomainError.

    ``stats.min_theta`` is the smallest pair theta of the accepted nodes
    (NaN-ignoring, +inf for one body), one reduction of the workspace's theta
    table per node: at state.t, and at each acceptance, when the table is
    still that of the FSAL stage, the new node.  The stages themselves only
    decide whether a pair is singular.

    Besides the accepted nodes, a run holds one kernel _Workspace, whose
    cyclic pair tables (about 5.5 n^2 floats with the accumulator) are
    built once and decide and name every verdict, and about ten stage
    vectors of 2n complex values (the stage input, the seven stage
    derivatives, the error estimate and its scale), all filled in place by
    every attempt.
    """
    if state.positions.ndim != 1:
        raise DomainError("integration starts from one state, not a series")
    if not tol >= np.finfo(float).eps:
        raise DomainError(f"tolerance must be at least the double-precision epsilon {np.finfo(float).eps!r}")
    t0, t1 = state.t, float(t_end)
    if not t1 > t0:
        raise DomainError("t_end must exceed the initial time")
    hmax = (t1 - t0) if max_step is None else float(max_step)
    if not hmax > 0:
        raise DomainError("max_step must be positive")

    n = state.n
    masses, R = state.masses, state.R
    # the run's buffers, which every attempt fills in place: the kernel's workspace with its theta
    # table, the stage input with its position, velocity and height views, the stage derivatives k
    # with the halves of their rows, the error estimate e with two float buffers of the error norm,
    # and tol and the attempt's step h as 0-d operands
    ws = _Workspace((n,))
    node_theta = ws.tables.theta
    stage = np.empty(2 * n, dtype=complex)
    stage_w, stage_v = stage[:n], stage[n:]
    stage_y = stage_w.imag
    k = np.empty((7, 2 * n), dtype=complex)
    halves = [(row[:n], row[n:]) for row in k]
    stages = [(_DP_A[i], k[:i]) for i in range(1, 7)]
    e, scale, size_y5 = np.empty(2 * n, dtype=complex), np.empty(2 * n), np.empty(2 * n)
    tolerance, hh = np.array(float(tol)), np.empty(())

    def rhs(t: float, i: int):
        """Write the derivative of the stage input into row i of k, its theta table into
        node_theta; a singularity verdict carries the time t."""
        if np.minimum.reduce(stage_y) <= 0:
            raise DomainError("body left the upper half-plane")
        dw, dv = halves[i]
        np.copyto(dw, stage_v)
        _accel(ws, stage_w, stage_v, masses, R, t, dv)

    y = np.concatenate([state.positions, state.velocities])
    np.copyto(stage, y)
    rhs(t0, 0)
    min_theta = np.fmin.reduce(node_theta, None, initial=math.inf)
    f = k[0].copy()
    if not np.all(np.isfinite(f)):
        raise StepSizeError(f"non-finite derivative at t = {t0}")
    times, ys, fs = [t0], [y], [f]

    # starting step size from the scaled derivative magnitudes
    sc = tol + tol * np.abs(y)
    d0 = float(np.sqrt(np.mean(np.abs(y / sc) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(f / sc) ** 2)))
    h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h = min(h, hmax, t1 - t0)
    if not math.isfinite(h):
        raise StepSizeError(f"non-finite step size at t = {t0}")

    t = t0
    steps = rejected = stage_failures = singular_stages = 0
    rhs_calls = 1
    h_acc = err_acc = None  # step and floored error norm of the last accepted step
    last_singularity = verdict = None
    size_y = np.abs(y)
    end_gap = step_floor(t1)  # a step leaving less than this before t_end ends on t_end
    while t < t1:
        h = min(h, hmax)
        if h < step_floor(t):
            # a verdict once a stage was singular, else for a pair of y in the singular set widened 1e8-fold
            if last_singularity is None:
                try:
                    ws.cyclic(y[:n])
                    _guard(ws, y[:n], t, _NEAR_FAR_WIDE, _THETA_WIDE)
                except SingularityError as exc:
                    last_singularity = exc
                else:
                    raise StepSizeError(f"step size underflow at t = {t}")
            verdict = last_singularity
            break
        if max_attempts is not None and steps + rejected >= max_attempts:
            raise StepSizeError(f"step budget of {max_attempts} attempts exhausted at t = {t}")
        last = t1 - t - h < end_gap
        if last:
            h = t1 - t
        hh[()] = h
        k[0] = f
        failed = False
        for i, (weights, ks) in enumerate(stages, 1):
            np.matmul(weights, ks, stage)
            stage *= hh
            stage += y
            try:
                rhs(t, i)
            except SingularityError as exc:
                last_singularity = exc
                singular_stages += 1
                failed = True
                break
            except DomainError:
                failed = True
                break
        rhs_calls += i  # stages 1 to i ran
        if failed:
            h *= 0.25
            rejected += 1
            stage_failures += 1
            continue
        np.abs(stage, size_y5)
        np.matmul(_DP_E, k, e)
        e *= hh
        np.maximum(size_y, size_y5, out=scale)
        scale *= tolerance
        scale += tolerance
        e /= scale
        norms = np.abs(e, scale)
        norms *= norms
        err = math.sqrt(np.add.reduce(norms) / e.size)
        if not math.isfinite(err):
            raise StepSizeError(f"non-finite error estimate at t = {t}")
        if err <= 1.0:
            t = t1 if last else t + h
            # the position bound of SystemState, on each accepted node
            if not math.isfinite(_divisor_bound(float(size_y5[:n].max()))):
                raise StepSizeError(f"positions too large at t = {t}: {_DIVISOR_OVERFLOWS}")
            # copies out of the stage buffers, which the next attempt overwrites
            y = stage.copy()
            size_y, size_y5 = size_y5, size_y
            # FSAL: the last stage is rhs(y5), which also guarded y5 against
            # the singular set and left its theta table in node_theta
            f = k[6].copy()
            times.append(t)
            ys.append(y)
            fs.append(f)
            steps += 1
            min_theta = min(min_theta, np.fmin.reduce(node_theta, None, initial=math.inf))
            if err > 1e-30:
                factor = min(5.0, max(0.2, 0.9 * err ** -0.2))
                if h_acc is not None:
                    factor = min(factor, max(0.2, 0.9 * (h / h_acc) * (err_acc / (err * err)) ** 0.2))
            else:
                factor = 5.0
            h_acc, err_acc = h, max(err, _ERR_ACC_FLOOR)
            h *= factor
        else:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)

    times = np.array(times)
    taken = np.diff(times)  # the accepted steps as the nodes give them
    h_range = (float(taken.min()), float(taken.max())) if steps else (math.inf, 0.0)
    traj = Trajectory(
        times, np.array(ys), np.array(fs), masses, R,
        IntegratorStats(steps, rejected, float(min_theta), rhs_calls, stage_failures, singular_stages, *h_range),
    )
    if verdict is not None:
        verdict.trajectory = traj
        raise verdict
    return traj


# ---------------------------------------------------------------------------
# Weak-form kinetic-equation check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseTestFunction:
    """Smooth phi(t, x, v) with analytic partials for the weak-form check.

    Each callable takes numpy arrays (t broadcast against the (T, n)
    positions x and velocities v) and returns values that broadcast to
    (T, n).  Gradients are encoded as complex numbers g with Re g =
    d/d(Re .) and Im g = d/d(Im .), so the pairing <V, grad phi> is
    Re(conj(V) * g).
    """

    name: str
    value: callable
    dt: callable
    grad_x: callable
    grad_v: callable


def _gaussian(x, v):
    return np.exp(-(np.abs(x - 1j) ** 2 + np.abs(v) ** 2) / 8.0)


def _gauss_gx(x, v):
    return -_gaussian(x, v) * (x - 1j) / 4.0


def _gauss_gv(x, v):
    return -_gaussian(x, v) * v / 4.0


def default_test_functions() -> tuple:
    """Fixed library: low-order polynomials and polynomial-times-Gaussian."""
    zero = lambda t, x, v: 0.0
    zeroc = lambda t, x, v: 0.0j
    return (
        PhaseTestFunction("one", lambda t, x, v: 1.0, zero, zeroc, zeroc),
        PhaseTestFunction("re_x", lambda t, x, v: x.real, zero, lambda t, x, v: 1.0 + 0.0j, zeroc),
        PhaseTestFunction("im_x", lambda t, x, v: x.imag, zero, lambda t, x, v: 1.0j, zeroc),
        PhaseTestFunction(
            "speed_sq", lambda t, x, v: np.abs(v) ** 2, zero, zeroc, lambda t, x, v: 2.0 * v,
        ),
        PhaseTestFunction(
            "re_x_gauss",
            lambda t, x, v: x.real * _gaussian(x, v),
            zero,
            lambda t, x, v: _gaussian(x, v) + x.real * _gauss_gx(x, v),
            lambda t, x, v: x.real * _gauss_gv(x, v),
        ),
        PhaseTestFunction(
            "t_im_x_gauss",
            lambda t, x, v: t * x.imag * _gaussian(x, v),
            lambda t, x, v: x.imag * _gaussian(x, v),
            lambda t, x, v: t * (1.0j * _gaussian(x, v) + x.imag * _gauss_gx(x, v)),
            lambda t, x, v: t * x.imag * _gauss_gv(x, v),
        ),
    )


def _step_points(traj: Trajectory, num_points: int | None = None, per_part: int = 1):
    """(ts, W, V, A), A the motion equations' acceleration, at the accepted nodes (ys
    and fs themselves) and at the points that split every step into per_part * m
    equal parts, m the fewest that give at least num_points points (1 for None);
    the split points cost one sample_many and one eom_rhs call per trajectory and
    block of at most _POINT_BLOCK body-points, so one block of temporaries is held."""
    steps = len(traj.times) - 1
    parts = per_part * (1 if num_points is None else max(1, -(-(num_points - 1) // steps)))
    points = traj._points.get(parts)
    if points is None:
        n, nodes = traj.n, traj.times
        ts = np.append((nodes[:-1, None] + np.arange(parts) / parts * np.diff(nodes)[:, None]).ravel(), nodes[-1])
        W, V, A = (np.empty((len(ts), n), dtype=complex) for _ in range(3))
        W[::parts], V[::parts], A[::parts] = traj.ys[:, :n], traj.ys[:, n:], traj.fs[:, n:]
        if parts > 1:
            inner = np.flatnonzero(np.arange(len(ts)) % parts)
            block = max(1, _POINT_BLOCK // n)
            for rows in np.split(inner, range(block, len(inner), block)):
                W[rows], V[rows] = traj.sample_many(ts[rows])
                A[rows] = eom_rhs(SystemState(ts[rows], W[rows], V[rows], traj.masses, traj.R))
        points = traj._points[parts] = (ts, W, V, A)
    return points


def vlasov_weak_residual(traj: Trajectory, tests=None, num_points: int = VLASOV_NUM_POINTS) -> float:
    """Weak-form defect of the kinetic equation under the point-mass ansatz.

    For the empirical measure sum_i m_i delta(v - V_i) delta(x - X_i), the
    weak formulation against phi reduces to

        d/dt sum_i m_i phi(t, X_i, V_i)
            = sum_i m_i [dphi/dt + <V_i, grad_x phi> + <a_i, grad_v phi>],

    with a_i the acceleration delivered by the motion equations.  Per accepted
    step, the change of the left side between its nodes is compared with
    composite Simpson of the right side over the 2m pieces of _step_points;
    the result is the largest sum of |defect| / span over the test functions.
    The test functions are evaluated over blocks of whole steps of at most
    _POINT_BLOCK body-points (at least one step), so beyond the points
    themselves one block is held at a time; the per-step defects are summed
    once, at the end.
    """
    if tests is None:
        tests = default_test_functions()
    ts, W, V, A = _step_points(traj, num_points, per_part=2)
    steps = len(traj.times) - 1
    pieces = (len(ts) - 1) // steps
    per_block = max(1, (_POINT_BLOCK // traj.n - 1) // pieces)
    h = np.diff(traj.times) / (3.0 * pieces)
    m = traj.masses
    worst = 0.0
    for tf in tests:
        defects = []
        for a in range(0, steps, per_block):
            b = min(a + per_block, steps)
            rows = slice(a * pieces, b * pieces + 1)  # steps a to b, their shared nodes once
            t, w, v, acc = ts[rows, None], W[rows], V[rows], A[rows]
            g = np.sum(m * np.broadcast_to(tf.value(t, w, v), w.shape), axis=1)
            rhs = np.sum(
                m * (tf.dt(t, w, v)
                     + (np.conjugate(v) * tf.grad_x(t, w, v)).real
                     + (np.conjugate(acc) * tf.grad_v(t, w, v)).real),
                axis=1,
            )
            r = rhs[:-1].reshape(-1, pieces)  # row i: step a + i's points but its last
            integral = h[a:b] * (r[:, 0] + 4.0 * r[:, 1::2].sum(1) + 2.0 * r[:, 2::2].sum(1) + rhs[pieces::pieces])
            defects.append(np.abs(np.diff(g[::pieces]) - integral))
        worst = max(worst, float(np.sum(np.concatenate(defects)) / (traj.t1 - traj.t0)))
    return worst
