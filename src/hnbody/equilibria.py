"""Residual systems for the five Mobius-solution classes and their solvers.

A Mobius solution (relative equilibrium) drifts along the orbit of a
one-parameter subgroup while solving the motion equations.  Matching the
drift ansatz against the equations turns each class into an algebraic
system over the configuration:

* hyperbolic normal  -- drift field w at rate 1/2,
* parabolic nilpotent -- drift field 1 (no solutions exist),
* elliptic cyclic    -- drift field 1 + w^2,
* parabolic cyclic   -- drift field 1 + w^2 - (w - conj w)^2/4 (none exist),
* hyperbolic cyclic  -- drift field 1 + w^2 - (w - conj w)^2/2 (none exist).

The first three systems act on positions directly; the two cyclic families
are written in the tan-reparametrized variables (alpha, beta, s) of their
explicit flows.  ``mobius_ansatz_defect`` is the independent oracle tying
every system back to the motion equations, and the two certifiers sample
the sign-contradiction identities behind the non-existence results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .clifford import (
    KillingField,
    NILPOTENT_N,
    NORMAL_A,
    ROTATION_ELLIPTIC,
    ROTATION_HYPERBOLIC,
    ROTATION_PARABOLIC,
    killing_velocity,
    killing_wirtinger,
)
from .dynamics import SystemState, _Workspace, _kernel, _pair_tables, eom_interaction
from .errors import ClassNotSolvableError, ConvergenceError, DomainError, SingularityError


class EquilibriumClass(str, Enum):
    HYPERBOLIC_NORMAL = "hyperbolic-normal"
    PARABOLIC_NILPOTENT = "parabolic-nilpotent"
    ELLIPTIC_CYCLIC = "elliptic-cyclic"
    PARABOLIC_CYCLIC = "parabolic-cyclic"
    HYPERBOLIC_CYCLIC = "hyperbolic-cyclic"


#: Drift field and rate under which each class solves the motion equations.
CLASS_DRIFT: dict[EquilibriumClass, tuple[KillingField, float]] = {
    EquilibriumClass.HYPERBOLIC_NORMAL: (NORMAL_A, 0.5),
    EquilibriumClass.PARABOLIC_NILPOTENT: (NILPOTENT_N, 1.0),
    EquilibriumClass.ELLIPTIC_CYCLIC: (ROTATION_ELLIPTIC, 1.0),
    EquilibriumClass.PARABOLIC_CYCLIC: (ROTATION_PARABOLIC, 1.0),
    EquilibriumClass.HYPERBOLIC_CYCLIC: (ROTATION_HYPERBOLIC, 1.0),
}

NONEXISTENT_CLASSES = (
    EquilibriumClass.PARABOLIC_NILPOTENT,
    EquilibriumClass.PARABOLIC_CYCLIC,
    EquilibriumClass.HYPERBOLIC_CYCLIC,
)
CERTIFIABLE_CLASSES = (EquilibriumClass.PARABOLIC_CYCLIC, EquilibriumClass.HYPERBOLIC_CYCLIC)


def equilibrium_velocity(cls: EquilibriumClass, w) -> np.ndarray:
    """Velocity field of the class drift at the given positions."""
    field, rate = CLASS_DRIFT[cls]
    return rate * killing_velocity(field, np.asarray(w, dtype=complex))


def mobius_ansatz_defect(
    field: KillingField, positions, masses, R: float, rate: float = 1.0
) -> np.ndarray:
    """Motion-equation defect of the drift ansatz wdot = rate * K(w).

    Independent oracle for all five residual systems: substitutes the drift
    velocity and its chain-rule acceleration into the equations of motion
    and returns the per-body complex defect.
    """
    w = np.asarray(positions, dtype=complex)
    force = eom_interaction(SystemState(0.0, w, np.zeros_like(w), masses, R))
    K = killing_velocity(field, w)
    dKw, dKwb = killing_wirtinger(field, w)
    wddot = rate * rate * (dKw * K + dKwb * np.conjugate(K))
    vel = rate * K
    return wddot - 2.0 * vel * vel / (w - np.conjugate(w)) - force


# ---------------------------------------------------------------------------
# Position-space residual systems
# ---------------------------------------------------------------------------

def _interaction(w: np.ndarray, masses: np.ndarray, ws: _Workspace | None = None) -> np.ndarray:
    """Interaction sums S_k = -4 (A - 2i y B) of the positions w, shape (..., n), from the dynamics _kernel,
    run in the workspace ws of w's shape if given, else in a new one.

    Raises the SingularityError of _pairs when a pair is in the singular set;
    it names the pair of the first such row.
    """
    if np.size(masses) != w.shape[-1]:
        raise DomainError("masses must match the number of bodies")
    y, A, B = _kernel(_Workspace(w.shape) if ws is None else ws, w, masses)
    return -4.0 * (A - 2j * y * B)


# the closed forms divide by (w - conj w)^4 = (2i Im w)^4, the real 16 (Im w)^4
def _lhs_hyperbolic_normal(w: np.ndarray, R: float) -> np.ndarray:
    wb = np.conjugate(w)
    return R * (w + wb) * w / (8.0 * (16.0 * w.imag ** 4))


def _lhs_parabolic_nilpotent(w: np.ndarray, R: float) -> np.ndarray:
    return -R / (4.0 * (16.0 * w.imag ** 4))


def _lhs_elliptic_cyclic(w: np.ndarray, R: float) -> np.ndarray:
    return R * (1.0 + w * w) * (1.0 + np.abs(w) ** 2) / (16.0 * w.imag ** 4)


def _lhs_parabolic_cyclic(w: np.ndarray, R: float) -> np.ndarray:
    wb = np.conjugate(w)
    num = (w - wb) ** 2 * (8.0 - w * w + 6.0 * np.abs(w) ** 2 + 3.0 * wb * wb) - 16.0 * (
        1.0 + w * w
    ) * (1.0 + np.abs(w) ** 2)
    return -R * num / (16.0 * (16.0 * w.imag ** 4))


#: Closed-form left side of each position-space condition system.
_CONDITION_LHS = {
    EquilibriumClass.HYPERBOLIC_NORMAL: _lhs_hyperbolic_normal,
    EquilibriumClass.PARABOLIC_NILPOTENT: _lhs_parabolic_nilpotent,
    EquilibriumClass.ELLIPTIC_CYCLIC: _lhs_elliptic_cyclic,
    EquilibriumClass.PARABOLIC_CYCLIC: _lhs_parabolic_cyclic,
}


def condition_sides(cls: EquilibriumClass, state: SystemState):
    """(lhs, rhs) of the algebraic condition system, per body.

    lhs is the class-specific closed form; rhs is the interaction sum
    S_k = sum_{j != k} m_j (conj(wj)-wj)^2 (wk-wj)(conj(wj)-wk)/theta^{3/2}.
    The hyperbolic-cyclic class is available only through its
    reparametrized family (residual_hyperbolic_cyclic).  A pair in the
    singular set raises the SingularityError of _pairs, as in eom_rhs.
    """
    if cls not in _CONDITION_LHS:
        raise DomainError(f"{cls.value} has no position-space condition system")
    w = state.positions
    return _CONDITION_LHS[cls](w, state.R), _interaction(w, state.masses)


def residual_hyperbolic_normal(state: SystemState) -> np.ndarray:
    """Per-body defect of R (w + conj w) w / [8 (w - conj w)^4] = S_k; SingularityError as condition_sides."""
    lhs, rhs = condition_sides(EquilibriumClass.HYPERBOLIC_NORMAL, state)
    return lhs - rhs


def residual_parabolic_nilpotent(state: SystemState) -> np.ndarray:
    """Per-body defect of -R / [4 (w - conj w)^4] = S_k.

    The left side is the strictly negative real -R/(64 Im(w)^4), which is
    what rules the class out.  SingularityError as condition_sides.
    """
    lhs, rhs = condition_sides(EquilibriumClass.PARABOLIC_NILPOTENT, state)
    return lhs - rhs


def residual_elliptic_cyclic(state: SystemState) -> np.ndarray:
    """Per-body defect of R (1 + w^2)(1 + |w|^2) / (w - conj w)^4 = S_k; SingularityError as condition_sides."""
    lhs, rhs = condition_sides(EquilibriumClass.ELLIPTIC_CYCLIC, state)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Reparametrized cyclic families
# ---------------------------------------------------------------------------

_POLE_TOL = 1e-10


@dataclass(frozen=True)
class CyclicParams:
    """Initial data (alpha_k, beta_k) and the tan-reparametrized variable s.

    The parabolic family uses w_k(0) = alpha_k + i beta_k (beta_k != 0);
    the hyperbolic family uses alpha_k = u_k(0) + v_k(0) and
    beta_k = u_k(0) - v_k(0), so alpha_k != beta_k keeps bodies off the
    real axis.
    """

    alpha: np.ndarray
    beta: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float).copy())
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float).copy())
        object.__setattr__(self, "s", float(self.s))
        if self.alpha.size != self.beta.size or self.alpha.size < 1:
            raise DomainError("alpha and beta must be nonempty and equally long")

    @property
    def n(self) -> int:
        return self.alpha.size


def _pole_check(factors: np.ndarray, what: str):
    if np.any(np.abs(factors) < _POLE_TOL):
        raise DomainError(f"reparametrization pole: {what} vanishes")


def _characteristic_letters(p: CyclicParams):
    """(A, B, 1 - alpha s): the half tangent-additions of the two characteristics at s."""
    fa = 1.0 - p.alpha * p.s
    fb = 1.0 - p.beta * p.s
    _pole_check(fa, "1 - alpha*s")
    _pole_check(fb, "1 - beta*s")
    return (p.alpha + p.s) / (2.0 * fa), (p.beta + p.s) / (2.0 * fb), fa


@dataclass(frozen=True)
class AuxLetters:
    """Per-body letters of the hyperbolic-cyclic flow and the pairwise Xi.

    A_l and B_l are the half tangent-additions of the two characteristics,
    C_l = A_l + B_l and D_l = A_l - B_l recover Re w and Im w, and
    Xi_{(k,j)} = u_k^2 + u_j^2 + v_k^2 + v_j^2 collects the squared
    coordinates w = u + i v of the parabolic parametrization (see
    theta_parametric).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Xi: np.ndarray


def aux_letters(p: CyclicParams) -> AuxLetters:
    """Evaluate A, B, C, D at s, plus the parabolic pairwise Xi table."""
    A, B, fa = _characteristic_letters(p)
    # parabolic-parametrization coordinates for Xi
    u = (p.alpha + p.s) / fa
    v2 = p.beta ** 2 * (1.0 + p.s ** 2) ** 2 / fa ** 4
    Xi = u[:, None] ** 2 + u[None, :] ** 2 + v2[:, None] + v2[None, :]
    return AuxLetters(A, B, A + B, A - B, Xi)


def positions_parabolic_cyclic(p: CyclicParams) -> np.ndarray:
    """w_k(s) = (alpha_k + s)/(1 - alpha_k s) + i beta_k (1 + s^2)/(1 - alpha_k s)^2."""
    fa = 1.0 - p.alpha * p.s
    _pole_check(fa, "1 - alpha*s")
    if np.any(p.beta == 0):
        raise DomainError("parabolic-cyclic bodies need beta != 0")
    return (p.alpha + p.s) / fa + 1j * p.beta * (1.0 + p.s ** 2) / fa ** 2


def positions_hyperbolic_cyclic(p: CyclicParams) -> np.ndarray:
    """w_k(s) = C_k(s) + i D_k(s) from the letters of the two characteristics."""
    if np.any(p.alpha == p.beta):
        raise DomainError("hyperbolic-cyclic bodies need alpha != beta")
    A, B, _ = _characteristic_letters(p)
    return (A + B) + 1j * (A - B)


_FAMILY_POSITIONS = {
    "parabolic": positions_parabolic_cyclic,
    "hyperbolic": positions_hyperbolic_cyclic,
}


def theta_parametric(p: CyclicParams, kind: str = "parabolic") -> np.ndarray:
    """Pairwise singular function of the parabolic or hyperbolic family.

    The pair-kernel theta table of the parametrized positions w_k(s); for
    the parabolic family it equals [4 u_j u_k - 2 Xi_{(k,j)}]^2
    - 16 v_k^2 v_j^2 with w = u + i v, evaluated without the cancellation
    of that expanded form.
    """
    if kind not in _FAMILY_POSITIONS:
        raise DomainError(f"unknown family {kind!r}: expected parabolic or hyperbolic")
    w = _FAMILY_POSITIONS[kind](p)
    return _pair_tables(w.real[:, None], w.imag[:, None], w.real[None, :], w.imag[None, :]).theta


def residual_parabolic_cyclic(p: CyclicParams, masses, R: float):
    """Real and imaginary condition families of the parabolic-cyclic ansatz.

    With w_k = u_k + i v_k the parametrized positions and S_k their
    interaction sums (see condition_sides), per body k:

      real:  -R (alpha_k+s)(1+alpha_k^2)(1-alpha_k s)^5 / [64 beta_k^4 (1+s^2)^5]
                 = -Im S_k / [8 v_k (1+s^2)^2]
                 = sum_j m_j beta_j^2 (u_j - u_k) / [Theta^{3/2} (1-alpha_j s)^4]
      imag:   R (1+alpha_k^2)[(1+alpha_k^2)(1-alpha_k s)^2 + 2 beta_k^2 (1+s^2)]
                 * (1-alpha_k s)^2 / [64 beta_k^4 (1+s^2)^4]
                 = Re S_k / [4 (1+s^2)^2]
                 = sum_j m_j beta_j^2 [(u_j-u_k)^2 + v_j^2 - v_k^2] / [Theta^{3/2} (1-alpha_j s)^4]

    for beta of either sign.  These are the real and imaginary parts of the
    motion-equation defect of the flow ansatz, scaled by
    R/(128 v_k^4 (1+s^2)^2) and R/(64 v_k^3 (1+s^2)^2) respectively.
    Bodies in the singular set raise SingularityError, as in condition_sides.
    """
    w = positions_parabolic_cyclic(p)
    S = _interaction(w, masses)
    fa = 1.0 - p.alpha * p.s
    s2 = 1.0 + p.s ** 2
    lhs_re = -R * (p.alpha + p.s) * (1.0 + p.alpha ** 2) * fa ** 5 / (64.0 * p.beta ** 4 * s2 ** 5)
    lhs_im = (
        R
        * (1.0 + p.alpha ** 2)
        * ((1.0 + p.alpha ** 2) * fa ** 2 + 2.0 * p.beta ** 2 * s2)
        * fa ** 2
        / (64.0 * p.beta ** 4 * s2 ** 4)
    )
    return lhs_re + S.imag / (8.0 * w.imag * s2 ** 2), lhs_im - S.real / (4.0 * s2 ** 2)


def residual_hyperbolic_cyclic(p: CyclicParams, masses, R: float):
    """Real and imaginary condition families of the hyperbolic-cyclic ansatz.

    Written through the letters: with u = C, v = D and the primed
    characteristic derivatives p' = (1+alpha^2)/(1-alpha s)^2,
    q' = (1+beta^2)/(1-beta s)^2, the left sides

      real:  (1+s^2)^2 u'' + 2 s (1+s^2) u' - 4 (1+s^2) u u'
      imag:  (1+s^2)^2 v'' + 2 s (1+s^2) v' + (1+s^2)^2 p' q' / D_k

    equal real and imaginary parts of the interaction force (16i D_k^3 / R) S_k
    of the positions w_k = C_k + i D_k, that is

      real:  (128 D_k^4 / R) sum_j m_j D_j^2 (C_j - C_k) / Theta^{3/2}
      imag:  (64 D_k^3 / R) sum_j m_j D_j^2 [(C_k-C_j)^2 - D_k^2 + D_j^2] / Theta^{3/2}.

    These are exactly the real and imaginary parts of the motion-equation
    defect of the flow ansatz.  Bodies in the singular set raise
    SingularityError, as in condition_sides.
    """
    w = positions_hyperbolic_cyclic(p)
    if np.any(w.imag <= 0):
        raise DomainError("parametrized bodies must stay in the upper half-plane")
    C, D = w.real, w.imag
    force = (16j * D ** 3 / R) * _interaction(w, masses)

    fa = 1.0 - p.alpha * p.s
    fb = 1.0 - p.beta * p.s
    s2 = 1.0 + p.s ** 2
    pp = (1.0 + p.alpha ** 2) / fa ** 2
    qp = (1.0 + p.beta ** 2) / fb ** 2
    ppp = 2.0 * p.alpha * (1.0 + p.alpha ** 2) / fa ** 3
    qpp = 2.0 * p.beta * (1.0 + p.beta ** 2) / fb ** 3
    up, vp = (pp + qp) / 2.0, (pp - qp) / 2.0
    upp, vpp = (ppp + qpp) / 2.0, (ppp - qpp) / 2.0

    lhs_re = s2 ** 2 * upp + 2.0 * p.s * s2 * up - 4.0 * s2 * C * up
    lhs_im = s2 ** 2 * vpp + 2.0 * p.s * s2 * vp + s2 ** 2 * pp * qp / D
    return lhs_re - force.real, lhs_im - force.imag


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

SYMMETRIES = ("none", "axis", "mirror")  # ansatz reductions of the root finder


@dataclass(frozen=True)
class FindOptions:
    symmetry: str = "none"  # one of SYMMETRIES
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if self.symmetry not in SYMMETRIES:
            raise DomainError(f"symmetry must be one of {SYMMETRIES}, got {self.symmetry!r}")


_FD_STEP = 1e-7  # relative step of the central-difference Jacobian
_LM_LAMBDA0 = 1e-3  # initial Levenberg-Marquardt damping


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual_norm: float


def _pack(cls_positions, symmetry: str):
    w = np.asarray(cls_positions, dtype=complex)
    if symmetry == "axis":
        return np.log(w.imag)
    if symmetry == "mirror":
        if w.size != 2:
            raise DomainError("mirror symmetry expects exactly two bodies")
        return np.array([w[0].real, math.log(w[0].imag)])
    return np.column_stack([w.real, np.log(w.imag)]).ravel()


def _unpack(x: np.ndarray, n: int, symmetry: str) -> np.ndarray:
    """Positions of shape (..., n) from unknowns of shape (..., p)."""
    # ordinates live on a log scale; clip so wild trial steps cannot underflow
    if symmetry == "axis":
        return 1j * np.exp(np.clip(x, -30.0, 30.0))
    if symmetry == "mirror":
        w0 = x[..., 0] + 1j * np.exp(np.clip(x[..., 1], -30.0, 30.0))
        return np.stack([w0, -np.conjugate(w0)], axis=-1)
    xs = x.reshape(*x.shape[:-1], n, 2)
    return xs[..., 0] + 1j * np.exp(np.clip(xs[..., 1], -30.0, 30.0))


def _jacobian(fun, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of fun at x from one call on the rows x + h_i e_i, then x - h_i e_i.

    It is C-contiguous: on a transpose, J.T @ J takes another BLAS path with other last digits.
    """
    h = _FD_STEP * np.maximum(1.0, np.abs(x))
    F = fun(np.concatenate([x + np.diag(h), x - np.diag(h)]))
    return np.ascontiguousarray(((F[: x.size] - F[x.size :]) / (2.0 * h)[:, None]).T)


def _levenberg_marquardt(fun, x0, opts: FindOptions):
    """Minimise |fun(x)|; fun maps unknowns of shape (..., p) to residuals of shape (..., m)."""
    x = np.asarray(x0, dtype=float).copy()
    with np.errstate(all="ignore"):  # a non-finite start is refused below, before any warning
        r = fun(x)
    if not np.isfinite(r).all():
        raise DomainError("the residual at the ansatz leaves the floating-point range")
    lam = _LM_LAMBDA0
    for it in range(opts.max_iter):
        if float(np.max(np.abs(r))) < opts.tol:
            return x, SolveReport(it, float(np.max(np.abs(r))))
        J = _jacobian(fun, x)
        JtJ = J.T @ J
        g = J.T @ r
        scale = np.diag(np.maximum(np.diag(JtJ), 1e-30))
        while True:
            try:
                step = np.linalg.solve(JtJ + lam * scale, -g)
            except np.linalg.LinAlgError:
                raise ConvergenceError(
                    "singular normal equations",
                    iterations=it,
                    residual_norm=float(np.max(np.abs(r))),
                ) from None
            try:
                r_trial = fun(x + step)
                ok = np.linalg.norm(r_trial) < np.linalg.norm(r)
            except (DomainError, SingularityError):  # off-domain trial step
                ok = False
            if ok:
                x = x + step
                r = r_trial
                lam = max(lam / 10.0, 1e-14)
                break
            lam *= 10.0
            if lam > 1e14:
                raise ConvergenceError(
                    "damping exhausted without an acceptable step",
                    iterations=it,
                    residual_norm=float(np.max(np.abs(r))),
                )
    norm = float(np.max(np.abs(r)))
    if norm < opts.tol:
        return x, SolveReport(opts.max_iter, norm)
    raise ConvergenceError(
        f"no convergence in {opts.max_iter} iterations (residual {norm:.3e})",
        iterations=opts.max_iter,
        residual_norm=norm,
    )


def find_equilibrium_detailed(
    cls: EquilibriumClass,
    masses,
    R: float,
    ansatz,
    opts: FindOptions | None = None,
):
    """Solve the class condition system; returns (state, report).

    ``ansatz`` provides starting positions (SystemState or complex array).
    The returned state carries the drift velocities of the class, so its
    trajectory follows the subgroup orbit.  An end point where both sides of
    the system fall below ``tol`` is a ConvergenceError: its residual says nothing.
    """
    cls = EquilibriumClass(cls)
    if cls in NONEXISTENT_CLASSES:
        raise ClassNotSolvableError(
            f"no {cls.value} solutions exist; the class is ruled out by a "
            "sign contradiction (see certify_nonexistence)"
        )
    opts = opts or FindOptions()
    positions = ansatz.positions if isinstance(ansatz, SystemState) else np.asarray(ansatz, dtype=complex)
    masses = np.asarray(masses, dtype=float)
    if masses.size != positions.size:
        raise DomainError("masses must match the ansatz size")

    n = positions.size
    spaces = {}  # one kernel workspace per shape of the positions: the residual's and the Jacobian's rows

    def fun(x):
        w = _unpack(x, n, opts.symmetry)
        # the sides of condition_sides in the workspace of w's shape; the state refuses off-domain trial steps
        state = SystemState(np.zeros(w.shape[:-1]), w, np.zeros_like(w), masses, R)
        if w.shape not in spaces:
            spaces[w.shape] = _Workspace(w.shape)
        r = _CONDITION_LHS[cls](w, state.R) - _interaction(w, masses, spaces[w.shape])
        return np.concatenate([r.real, r.imag], axis=-1)

    x, report = _levenberg_marquardt(fun, _pack(positions, opts.symmetry), opts)
    w = _unpack(x, n, opts.symmetry)
    state = SystemState(0.0, w, equilibrium_velocity(cls, w), masses, R)
    lhs_max, rhs_max = (float(np.max(np.abs(side))) for side in condition_sides(cls, state))
    if max(lhs_max, rhs_max) < opts.tol:
        raise ConvergenceError(
            f"both sides vanish at the end point (max |lhs| = {lhs_max:.3e}, max |rhs| = {rhs_max:.3e}, "
            f"tol = {opts.tol:.3e})",
            iterations=report.iterations, residual_norm=report.residual_norm,
        )
    return state, report


def find_equilibrium(cls, masses, R, ansatz, opts: FindOptions | None = None) -> SystemState:
    """Like find_equilibrium_detailed but returning only the solved state."""
    state, _ = find_equilibrium_detailed(cls, masses, R, ansatz, opts)
    return state


# ---------------------------------------------------------------------------
# Two-body elliptic pairing
# ---------------------------------------------------------------------------

def elliptic_pair_rate(m1, m2, alpha, beta, R: float = 1.0) -> float:
    """Squared drift rate making the circle pair a relative equilibrium."""
    state = SystemState(0.0, np.array([1j * alpha, 1j / beta]), np.zeros(2, dtype=complex), np.array([m1, m2]), R)
    lhs, rhs = condition_sides(EquilibriumClass.ELLIPTIC_CYCLIC, state)
    return float(rhs[0].real / lhs[0].real)


def two_body_elliptic(m1: float, m2: float, alpha: float, R: float = 1.0) -> float:
    """Companion circle parameter of the two-body rotating solution, in closed form.

    Body 1 rides the foliation circle through i*alpha and i/alpha, body 2
    the circle with parameter beta, the two bodies staying on one geodesic
    through i on opposite sides of it (positions i*alpha and i/beta on the
    axis).  Both condition equations hold with a common drift rate when
    lhs_0 rhs_1 = lhs_1 rhs_0 (see condition_sides).  On the axis the kernel's
    B sums vanish and theta = 4 (y_1^2 - y_2^2)^2, so with u = 1/beta this is

      m2 alpha^2 (1 - u^4) + m1 u^2 (1 - alpha^4) = 0,

    a quadratic in u^2 whose one positive root gives, without cancellation,

      beta = sqrt((hypot(m1 q, c) + m1 q) / c),  q = (alpha-1)(alpha+1)(alpha^2+1),  c = 2 m2 alpha^2.

    R scales both left sides alike, so beta does not depend on it.  In exact
    arithmetic beta > 1, as hypot >= c and m1 q > 0 for alpha > 1; a
    ConvergenceError reports rounding that lands beta on 1 (or overflow that
    sends it to infinity).  Equal masses give beta = alpha; the heavier
    companion rides the smaller circle.
    """
    if not (m1 > 0 and m2 > 0):
        raise DomainError("masses must be positive")
    if not alpha > 1:
        raise DomainError("alpha must exceed 1")
    m1q = m1 * ((alpha - 1.0) * (alpha + 1.0) * (alpha * alpha + 1.0))
    c = 2.0 * m2 * alpha * alpha
    beta = math.sqrt((math.hypot(m1q, c) + m1q) / c)
    if not 1.0 < beta < math.inf:
        raise ConvergenceError(f"floating point puts the companion circle at beta = {beta!r}, outside (1, inf)")
    return beta


# ---------------------------------------------------------------------------
# Non-existence certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateSample:
    params: dict
    lhs: float
    rhs: float

    @property
    def witnesses(self) -> bool:
        return self.lhs > 0 and self.rhs < 0


@dataclass(frozen=True, eq=False)
class NonexistenceCertificate:
    """Sampled sign-contradiction evidence that a solution class is empty.

    The S samples are kept as the arrays of the draw: ``beta`` and ``masses``
    of shape (S, n), and ``R``, ``k`` (the body whose identity is sampled),
    ``lhs`` and ``rhs`` of shape (S,).  A sample witnesses the contradiction
    when lhs > 0 and rhs < 0, and the verdict is true when every sample does.
    ``samples``, one CertificateSample per sample, is built on first access;
    ``to_report`` renders the samples from the arrays without it.
    """

    cls: EquilibriumClass
    n: int
    seed: int
    beta: np.ndarray
    masses: np.ndarray
    R: np.ndarray
    k: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        for name in ("beta", "masses", "R", "k", "lhs", "rhs"):  # read-only, so samples stays theirs
            getattr(self, name).flags.writeable = False

    @property
    def witnesses(self) -> np.ndarray:
        return (self.lhs > 0) & (self.rhs < 0)

    @property
    def verdict(self) -> bool:
        return bool(self.witnesses.all())

    @functools.cached_property
    def samples(self) -> tuple:
        return tuple(CertificateSample(s["params"], s["lhs"], s["rhs"]) for s in self._records().tolist())

    def _records(self):
        from .reports import Records  # loaded with the first certificate rendered, so import hnbody goes without it

        return Records({
            "params": {"beta": self.beta, "masses": self.masses, "R": self.R, "k": self.k},
            "lhs": self.lhs, "rhs": self.rhs, "witnesses": self.witnesses,
        })

    def to_report(self) -> dict:
        """The report tree of to_dict(), its samples one reports.Records node of the arrays."""
        return {
            "class": self.cls.value,
            "n": self.n,
            "seed": self.seed,
            "sample_count": len(self.lhs),
            "verdict": self.verdict,
            "samples": self._records(),
        }

    def to_dict(self) -> dict:
        report = self.to_report()
        return {**report, "samples": report["samples"].tolist()}


def _axis_row(heights: np.ndarray, k: np.ndarray):
    """Pair tables of the axis body i h_k against every axis body i h_j, per sample of
    shape (..., n) and body k of shape (...), their divisors theta^{3/2} and h_k.

    theta_kk is +inf, as in the dynamics _kernel, so the terms j = k vanish.  On the axis
    theta = 4 (h_k - h_j)^2 (h_k + h_j)^2, so a zero divisor (DomainError)
    means a body j != k with h_j^2 = h_k^2.
    """
    hk = np.take_along_axis(heights, k[..., None], axis=-1)
    tables = _pair_tables(0.0, hk, 0.0, heights)
    th = tables.theta
    np.put_along_axis(th, k[..., None], math.inf, axis=-1)
    divisor = th * np.sqrt(th)
    if not divisor.all():
        raise DomainError("degenerate sample: another body has the squared height of body k")
    return tables, divisor, hk[..., 0]


def parabolic_contradiction_sides(beta, masses, R, k: int = 0):
    """Two sides of the parabolic-cyclic axis identity, for one sample of shape
    (n,) or a stack of shape (S, n) (masses alike, R a float or one per sample).

    For bodies at i*beta_j (all alpha = 0, s = 0) the condition forces
    R/(64 beta_k^2) = -sum_{j != k} m_j beta_j^2 / (4 (beta_j^2 - beta_k^2)^2);
    the left side is positive, the right side negative, for every k.  The
    denominator is the pair kernel's theta_kj, free of cancellation.
    """
    beta = np.asarray(beta, dtype=float)
    tables, _, bk = _axis_row(beta, np.full(beta.shape[:-1], k))
    lhs = R / (64.0 * (bk * bk))
    rhs = -np.add.reduce(np.asarray(masses, dtype=float) * beta * beta / tables.theta, axis=-1)
    return (lhs.item(), rhs.item()) if beta.ndim == 1 else (lhs, rhs)


def hyperbolic_contradiction_sides(heights, masses, R, k=None):
    """Two sides of the hyperbolic-cyclic axis identity and the body k, for one
    sample of shape (n,) or a stack of shape (S, n) (masses alike, R a float or
    one per sample).

    Axis bodies at i*v_j correspond to alpha_j = -beta_j = v_j.  With k the
    topmost body,
      lhs = (alpha_k - beta_k)(1 + beta_k^2)
            + 2 (1 + alpha_k^2)(1 + beta_k^2)/(alpha_k - beta_k)  > 0,
      rhs = -(2 (alpha_k - beta_k)^3 / R) sum_j (alpha_j - beta_j)^2 m_j
            (D_k^2 - D_j^2) / Theta^{3/2}                          < 0,
    the imaginary left and right sides of residual_hyperbolic_cyclic at
    s = 0 for body k.  D_k^2 - D_j^2 is the pair kernel's dy sy.
    """
    v = np.asarray(heights, dtype=float)
    k = np.argmax(v, axis=-1) if k is None else np.full(v.shape[:-1], k)
    tables, divisor, vk = _axis_row(v, k)
    dk = 2.0 * vk  # alpha_k - beta_k
    bk = 1.0 + vk * vk  # 1 + alpha_k^2 = 1 + beta_k^2
    lhs = dk * bk + 2.0 * bk * bk / dk
    d = 2.0 * v  # alpha_j - beta_j
    terms = d * d * np.asarray(masses, dtype=float) * (tables.dy * tables.sy) / divisor
    rhs = -(2.0 * (dk * dk * dk) / R) * np.add.reduce(terms, axis=-1)
    return (lhs.item(), rhs.item(), k.item()) if v.ndim == 1 else (lhs, rhs, k)


def certify_nonexistence(cls, n: int, samples: int, seed: int = 0) -> NonexistenceCertificate:
    """Sample the contradiction identity of a cyclic class over admissible data.

    Draws axis configurations as the rows of one seeded uniform table (n log-sizes
    and n log-masses on [log 0.1, log 10], then 3u for R = (0.5, 1, 2)[floor(3u)]),
    so k samples are the first k rows of a longer draw.  Rows with two equal sizes
    are redrawn from the same generator (the one exception), in up to 100 rounds.
    Both sides are evaluated over all samples at once, and the certificate keeps
    the draw and the sides as those arrays.  The verdict is true exactly when
    every sample has a positive left and a negative right side.
    """
    cls = EquilibriumClass(cls)
    if cls not in CERTIFIABLE_CLASSES:
        raise DomainError(f"{cls.value} is not a certifiable class")
    if n < 2:
        raise DomainError("certification needs n >= 2 bodies")
    if samples < 1:
        raise DomainError("at least one sample is required")

    rng = np.random.default_rng(seed)
    low = np.append(np.full(2 * n, math.log(0.1)), 0.0)
    high = np.append(np.full(2 * n, math.log(10.0)), 3.0)  # the last column is 3u
    table, redraw = np.empty((samples, 2 * n + 1)), np.ones(samples, dtype=bool)
    for _ in range(100):
        table[redraw] = rng.uniform(low, high, (np.count_nonzero(redraw), 2 * n + 1))
        beta = np.exp(table[:, :n])
        redraw = (np.diff(np.sort(beta, axis=-1), axis=-1) == 0).any(axis=-1)
        if not redraw.any():
            break
    else:
        raise ConvergenceError("could not draw a nondegenerate sample")
    m, R = np.exp(table[:, n:-1]), np.array([0.5, 1.0, 2.0])[table[:, -1].astype(int)]
    if cls is EquilibriumClass.PARABOLIC_CYCLIC:
        lhs, rhs = parabolic_contradiction_sides(beta, m, R, k=0)
        k = np.zeros(samples, dtype=int)
    else:
        lhs, rhs, k = hyperbolic_contradiction_sides(beta, m, R)
    return NonexistenceCertificate(cls, n, seed, beta, m, R, k, lhs, rhs)
