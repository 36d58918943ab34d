import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from hnbody.clifford import (
    NORMAL_A,
    ROTATION_ELLIPTIC,
    ROTATION_HYPERBOLIC,
    ROTATION_PARABOLIC,
)
from hnbody.dynamics import SystemState, theta
from hnbody.equilibria import (
    _CONDITION_LHS,
    CLASS_DRIFT,
    CyclicParams,
    EquilibriumClass,
    FindOptions,
    aux_letters,
    certify_nonexistence,
    condition_sides,
    elliptic_pair_rate,
    find_equilibrium,
    find_equilibrium_detailed,
    hyperbolic_contradiction_sides,
    mobius_ansatz_defect,
    parabolic_contradiction_sides,
    positions_hyperbolic_cyclic,
    positions_parabolic_cyclic,
    residual_elliptic_cyclic,
    residual_hyperbolic_cyclic,
    residual_hyperbolic_normal,
    residual_parabolic_cyclic,
    residual_parabolic_nilpotent,
    theta_parametric,
    two_body_elliptic,
)
from hnbody.errors import ClassNotSolvableError, DomainError


def state_of(positions, masses=None, R=1.0):
    w = np.asarray(positions, dtype=complex)
    m = np.ones(w.size) if masses is None else np.asarray(masses, float)
    return SystemState(0.0, w, np.zeros_like(w), m, R)


def exact_theta(xk, yk, xj, yj):
    """theta from its original definition cross^2 - 16 yk^2 yj^2, on Fractions."""
    cross = 4 * xk * xj - 2 * (xk * xk + yk * yk + xj * xj + yj * yj)
    return cross * cross - 16 * yk * yk * yj * yj


def exact_interaction(w, m):
    """S_k of the float positions w in Fraction arithmetic; theta^{3/2} is
    rounded once (through one sqrt)."""
    x = [Fraction(float(c.real)) for c in w]
    y = [Fraction(float(c.imag)) for c in w]
    out = []
    for k in range(len(w)):
        re = im = Fraction(0)
        for j in range(len(w)):
            if j == k:
                continue
            th = exact_theta(x[k], y[k], x[j], y[j])
            g = th * Fraction(math.sqrt(th))
            dx = x[k] - x[j]
            # (conj(wj)-wj)^2 (wk-wj)(conj(wj)-wk) = -4 yj^2 (yk^2 - yj^2 - dx^2 - 2i yk dx)
            re -= 4 * Fraction(float(m[j])) * y[j] ** 2 * (y[k] ** 2 - y[j] ** 2 - dx * dx) / g
            im += 8 * Fraction(float(m[j])) * y[j] ** 2 * y[k] * dx / g
        out.append((re, im))
    return out


def exact_parabolic_residual(p, masses, R):
    """residual_parabolic_cyclic in Fraction arithmetic on the float positions:
    the right sides are -Im S_k / (8 v_k (1+s^2)^2) and Re S_k / (4 (1+s^2)^2)."""
    w = positions_parabolic_cyclic(p)
    s = Fraction(p.s)
    s2 = 1 + s * s
    re, im = [], []
    for k, (S_re, S_im) in enumerate(exact_interaction(w, masses)):
        a, b = Fraction(float(p.alpha[k])), Fraction(float(p.beta[k]))
        fa = 1 - a * s
        lhs_re = -R * (a + s) * (1 + a * a) * fa ** 5 / (64 * b ** 4 * s2 ** 5)
        lhs_im = R * (1 + a * a) * ((1 + a * a) * fa ** 2 + 2 * b * b * s2) * fa ** 2 / (64 * b ** 4 * s2 ** 4)
        re.append(float(lhs_re + S_im / (8 * Fraction(float(w[k].imag)) * s2 * s2)))
        im.append(float(lhs_im - S_re / (4 * s2 * s2)))
    return np.array(re), np.array(im)


def scalar_elliptic_gap(a: float, m: float = 1.0, R: float = 1.0) -> float:
    """Independent axis reduction for the equal-mass pair (ia, i/a)."""
    lhs = R * (a * a - 1) * (1 + a * a) / (16 * a**4)
    rhs = m / (2 * a * a * (a * a - 1 / (a * a)) ** 2)
    return lhs - rhs


class TestHyperbolicNormalResidual:
    def test_axis_bodies_have_zero_lhs(self):
        s = state_of([1j, 2j, 0.5j])
        lhs, rhs = condition_sides(EquilibriumClass.HYPERBOLIC_NORMAL, s)
        assert np.max(np.abs(lhs)) == 0.0
        assert np.allclose(residual_hyperbolic_normal(s), -rhs)

    def test_single_body_pure_lhs(self):
        s = state_of([0.4 + 1.2j])
        lhs, _ = condition_sides(EquilibriumClass.HYPERBOLIC_NORMAL, s)
        assert residual_hyperbolic_normal(s)[0] == lhs[0]
        assert lhs[0] != 0

    def test_matches_drift_ansatz_oracle(self):
        rng = np.random.default_rng(30)
        field, rate = CLASS_DRIFT[EquilibriumClass.HYPERBOLIC_NORMAL]
        assert (field, rate) == (NORMAL_A, 0.5)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            w = rng.normal(size=n) + 1j * rng.uniform(0.3, 2.5, n)
            m = rng.uniform(0.2, 2.0, n)
            R = float(rng.choice([0.5, 1.0, 2.0]))
            defect = mobius_ansatz_defect(field, w, m, R, rate)
            res = residual_hyperbolic_normal(state_of(w, m, R))
            mapped = -R * defect / (2.0 * (w - np.conjugate(w)) ** 3)
            assert np.max(np.abs(res - mapped)) < 1e-9 * max(1.0, np.max(np.abs(res)))


class TestParabolicNilpotentResidual:
    def test_lhs_hand_value(self):
        s = state_of([1j, 2j])
        lhs, _ = condition_sides(EquilibriumClass.PARABOLIC_NILPOTENT, s)
        assert lhs[0] == pytest.approx(-1.0 / 64.0, rel=1e-15)
        assert lhs[1] == pytest.approx(-1.0 / (64.0 * 16.0), rel=1e-15)

    def test_lhs_always_negative_real(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            w = rng.normal(size=3) + 1j * rng.uniform(0.2, 3.0, 3)
            lhs, _ = condition_sides(EquilibriumClass.PARABOLIC_NILPOTENT, state_of(w))
            assert np.max(np.abs(lhs.imag)) == 0.0
            assert np.all(lhs.real < 0)

    def test_single_body_residual_nonzero(self):
        s = state_of([2j])
        res = residual_parabolic_nilpotent(s)
        assert res[0] != 0


class TestEllipticCyclicResidual:
    def test_fixed_point_lhs_vanishes(self):
        s = state_of([1j, 3j])
        lhs, _ = condition_sides(EquilibriumClass.ELLIPTIC_CYCLIC, s)
        assert abs(lhs[0]) < 1e-15

    def test_matches_drift_ansatz_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            w = rng.normal(size=n) + 1j * rng.uniform(0.3, 2.5, n)
            m = rng.uniform(0.2, 2.0, n)
            R = float(rng.choice([0.5, 1.0, 2.0]))
            defect = mobius_ansatz_defect(ROTATION_ELLIPTIC, w, m, R, 1.0)
            res = residual_elliptic_cyclic(state_of(w, m, R))
            mapped = -R * defect / (2.0 * (w - np.conjugate(w)) ** 3)
            assert np.max(np.abs(res - mapped)) < 1e-9 * max(1.0, np.max(np.abs(res)))

    def test_axis_scalar_reduction_root(self):
        # bisection oracle on the one-dimensional reduction
        a_star = brentq(scalar_elliptic_gap, 1.1, 3.0, xtol=1e-14)
        assert a_star == pytest.approx(math.sqrt(1.0 + math.sqrt(2.0)), rel=1e-12)
        res = residual_elliptic_cyclic(state_of([1j * a_star, 1j / a_star]))
        assert np.max(np.abs(res)) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(33)
        w = rng.normal(size=4) + 1j * rng.uniform(0.4, 2.0, 4)
        m = rng.uniform(0.2, 2.0, 4)
        res = residual_elliptic_cyclic(state_of(w, m))
        perm = rng.permutation(4)
        res_p = residual_elliptic_cyclic(state_of(w[perm], m[perm]))
        assert np.max(np.abs(res_p - res[perm])) < 1e-12 * max(1.0, np.max(np.abs(res)))


class TestConditionSides:
    def test_array_lhs_matches_per_body_loop(self):
        # the closed forms take the whole position array; the per-body loop
        # rounds differently only in the last bits
        rng = np.random.default_rng(41)
        w = rng.normal(size=6) + 1j * rng.uniform(0.2, 3.0, 6)
        for cls, lhs_fn in _CONDITION_LHS.items():
            lhs, _ = condition_sides(cls, state_of(w, R=2.0))
            loop = np.array([lhs_fn(wk, 2.0) for wk in w])
            assert np.max(np.abs(lhs - loop) / np.abs(loop)) < 1e-14


class TestRelabelingInvariance:
    """Permuting the bodies permutes every residual evaluator's output."""

    def test_position_space_evaluators(self):
        rng = np.random.default_rng(37)
        w = rng.normal(size=4) + 1j * rng.uniform(0.4, 2.0, 4)
        m = rng.uniform(0.2, 2.0, 4)
        perm = rng.permutation(4)
        for fn in (residual_hyperbolic_normal, residual_parabolic_nilpotent,
                   residual_elliptic_cyclic):
            res = fn(state_of(w, m))
            res_p = fn(state_of(w[perm], m[perm]))
            scale = max(1.0, np.max(np.abs(res)))
            assert np.max(np.abs(res_p - res[perm])) < 1e-12 * scale

    def test_cyclic_family_evaluators(self):
        rng = np.random.default_rng(38)
        n = 4
        m = rng.uniform(0.2, 2.0, n)
        perm = rng.permutation(n)

        alpha = rng.normal(0, 0.4, n)
        beta = rng.uniform(0.3, 2.0, n)
        p = CyclicParams(alpha, beta, 0.2)
        pp = CyclicParams(alpha[perm], beta[perm], 0.2)
        re, im = residual_parabolic_cyclic(p, m, 1.0)
        re_p, im_p = residual_parabolic_cyclic(pp, m[perm], 1.0)
        scale = max(1.0, np.max(np.abs(re)), np.max(np.abs(im)))
        assert np.max(np.abs(re_p - re[perm])) < 1e-12 * scale
        assert np.max(np.abs(im_p - im[perm])) < 1e-12 * scale

        alpha = rng.uniform(0.2, 1.5, n)
        beta = alpha - rng.uniform(0.3, 1.2, n)
        p = CyclicParams(alpha, beta, 0.1)
        pp = CyclicParams(alpha[perm], beta[perm], 0.1)
        re, im = residual_hyperbolic_cyclic(p, m, 1.0)
        re_p, im_p = residual_hyperbolic_cyclic(pp, m[perm], 1.0)
        scale = max(1.0, np.max(np.abs(re)), np.max(np.abs(im)))
        assert np.max(np.abs(re_p - re[perm])) < 1e-12 * scale
        assert np.max(np.abs(im_p - im[perm])) < 1e-12 * scale


class TestAuxLetters:
    def test_values_at_zero(self):
        p = CyclicParams([0.4, -1.2], [0.1, 0.7], 0.0)
        L = aux_letters(p)
        assert np.allclose(L.A, p.alpha / 2, atol=0)
        assert np.allclose(L.B, p.beta / 2, atol=0)

    def test_equal_characteristics_give_zero_d(self):
        p = CyclicParams([0.3, 0.3], [0.3, 0.3], 0.27)
        L = aux_letters(p)
        assert np.max(np.abs(L.D)) < 1e-15

    def test_axis_configuration(self):
        p = CyclicParams([0.8, 1.1], [-0.8, -1.1], 0.0)
        L = aux_letters(p)
        assert np.max(np.abs(L.C)) == 0.0
        assert np.allclose(L.D, p.alpha, atol=0)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            aux_letters(CyclicParams([2.0], [0.1], 0.5))

    def test_xi_matches_coordinates(self):
        p = CyclicParams([0.2, -0.4], [0.5, 1.1], 0.3)
        L = aux_letters(p)
        w = positions_parabolic_cyclic(p)
        for k in range(2):
            for j in range(2):
                expect = (
                    w[j].real ** 2 + w[k].real ** 2 + w[j].imag ** 2 + w[k].imag ** 2
                )
                assert L.Xi[k, j] == pytest.approx(expect, rel=1e-13)


class TestParametrizedTheta:
    def test_parabolic_matches_positions(self):
        p = CyclicParams([0.2, -0.4, 0.1], [0.5, 1.1, 2.0], 0.3)
        th = theta_parametric(p, "parabolic")
        w = positions_parabolic_cyclic(p)
        for k in range(3):
            for j in range(3):
                if k != j:
                    assert th[k, j] == pytest.approx(theta(w[k], w[j]), rel=1e-12)

    def test_hyperbolic_matches_positions(self):
        p = CyclicParams([0.9, 1.4], [0.2, -0.5], 0.1)
        th = theta_parametric(p, "hyperbolic")
        w = positions_hyperbolic_cyclic(p)
        assert th[0, 1] == pytest.approx(theta(w[0], w[1]), rel=1e-12)

    def test_parabolic_near_collision_matches_exact(self):
        # bodies 1e-7 apart: the expanded cross^2 - 16 v_k^2 v_j^2 loses 3 digits
        p = CyclicParams([0.2, 0.2 + 1e-7], [0.5, 0.5 + 1e-7], 0.3)
        th = theta_parametric(p, "parabolic")
        w = positions_parabolic_cyclic(p)
        exact = exact_theta(*(Fraction(float(c)) for c in (w[0].real, w[0].imag, w[1].real, w[1].imag)))
        assert th[0, 1] == pytest.approx(float(exact), rel=1e-14, abs=0)
        assert th[1, 0] == th[0, 1]

    def test_parabolic_zero_beta_rejected(self):
        with pytest.raises(DomainError, match="beta != 0"):
            theta_parametric(CyclicParams([0.1, 0.2], [0.0, 1.0], 0.3), "parabolic")

    def test_parabolic_has_no_beta_pole(self):
        # 1 - beta*s vanishes for body 0, but the parabolic positions do not use it
        p = CyclicParams([0.1, 0.3], [2.0, 0.5], 0.5)
        th = theta_parametric(p, "parabolic")
        assert th[0, 1] > 0 and np.isfinite(th[0, 1])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="unknown family"):
            theta_parametric(CyclicParams([0.1, 0.2], [0.5, 1.0], 0.0), "bogus")


class TestParabolicCyclicFamily:
    def test_real_parts_vanish_on_axis_start(self):
        p = CyclicParams([0.0, 0.0, 0.0], [1.0, 2.0, 3.5], 0.0)
        re, im = residual_parabolic_cyclic(p, [1.0, 1.0, 1.0], 1.0)
        assert np.max(np.abs(re)) == 0.0

    def test_single_body_pure_lhs(self):
        p = CyclicParams([0.3], [1.2], 0.1)
        re, im = residual_parabolic_cyclic(p, [1.0], 1.0)
        s2 = 1.0 + p.s**2
        fa = 1.0 - p.alpha[0] * p.s
        lhs_re = -(p.alpha[0] + p.s) * (1 + p.alpha[0] ** 2) * fa**5 / (
            64 * p.beta[0] ** 4 * s2**5
        )
        assert re[0] == pytest.approx(lhs_re, rel=1e-14)

    def test_two_routes_agree_with_drift_oracle(self):
        # the family equations are scaled real/imag parts of the ansatz defect
        rng = np.random.default_rng(34)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            p = CyclicParams(
                rng.normal(0, 0.4, n), rng.uniform(0.3, 2.0, n), float(rng.uniform(-0.3, 0.3))
            )
            m = rng.uniform(0.2, 2.0, n)
            R = float(rng.choice([0.5, 1.0, 2.0]))
            re, im = residual_parabolic_cyclic(p, m, R)
            w = positions_parabolic_cyclic(p)
            defect = mobius_ansatz_defect(ROTATION_PARABOLIC, w, m, R, 1.0)
            v = w.imag
            s2 = 1.0 + p.s**2
            re_ref = defect.real * R / (128.0 * v**4 * s2**2)
            im_ref = defect.imag * R / (64.0 * v**3 * s2**2)
            scale = max(np.max(np.abs(re_ref)), np.max(np.abs(im_ref)), 1e-12)
            assert np.max(np.abs(re - re_ref)) < 1e-9 * scale
            assert np.max(np.abs(im - im_ref)) < 1e-9 * scale

    def test_two_routes_agree_with_condition_system(self):
        # at s = 0 the family residuals are rotations of the direct
        # substitution w_k(0) = alpha_k + i beta_k into the condition
        # system: re = -Im(cond)/(8 beta_k), im = Re(cond)/4
        rng = np.random.default_rng(36)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            p = CyclicParams(rng.normal(0, 0.4, n), rng.uniform(0.3, 2.0, n), 0.0)
            m = rng.uniform(0.2, 2.0, n)
            R = float(rng.choice([0.5, 1.0, 2.0]))
            re, im = residual_parabolic_cyclic(p, m, R)
            w0 = p.alpha + 1j * p.beta
            lhs, rhs = condition_sides(
                EquilibriumClass.PARABOLIC_CYCLIC, state_of(w0, m, R)
            )
            cond = lhs - rhs
            re_ref = -cond.imag / (8.0 * p.beta)
            im_ref = cond.real / 4.0
            scale = max(np.max(np.abs(re_ref)), np.max(np.abs(im_ref)), 1e-12)
            assert np.max(np.abs(re - re_ref)) < 1e-9 * scale
            assert np.max(np.abs(im - im_ref)) < 1e-9 * scale

    def test_zero_beta_rejected(self):
        with pytest.raises(DomainError):
            residual_parabolic_cyclic(CyclicParams([0.0], [0.0], 0.0), [1.0], 1.0)

    def test_near_collision_matches_exact(self):
        # bodies 1e-7 apart: the expanded theta lost 3 digits here
        p = CyclicParams([0.2, 0.2 + 1e-7], [0.5, 0.5 + 1e-7], 0.3)
        re, im = residual_parabolic_cyclic(p, [1.0, 1.3], 1.0)
        re_ref, im_ref = exact_parabolic_residual(p, [1.0, 1.3], 1.0)
        assert re == pytest.approx(re_ref, rel=1e-14, abs=0)
        assert im == pytest.approx(im_ref, rel=1e-14, abs=0)

    def test_either_sign_of_beta_matches_exact(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            beta = rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n)
            p = CyclicParams(rng.normal(0, 0.4, n), beta, float(rng.uniform(-0.3, 0.3)))
            m = rng.uniform(0.2, 2.0, n)
            re, im = residual_parabolic_cyclic(p, m, 2.0)
            re_ref, im_ref = exact_parabolic_residual(p, m, 2.0)
            scale = max(1.0, np.max(np.abs(re_ref)), np.max(np.abs(im_ref)))
            assert np.max(np.abs(re - re_ref)) < 1e-14 * scale
            assert np.max(np.abs(im - im_ref)) < 1e-14 * scale

    def test_coincident_bodies_name_the_pair(self):
        p = CyclicParams([0.1, 0.4, 0.1], [0.5, 1.0, 0.5], 0.2)
        with pytest.raises(DomainError, match=r"pair \(0, 2\) touches the singular set"):
            residual_parabolic_cyclic(p, [1.0, 1.0, 1.0], 1.0)


class TestHyperbolicCyclicFamily:
    def test_axis_real_parts_vanish(self):
        v = np.array([0.6, 1.3, 2.2])
        p = CyclicParams(v, -v, 0.0)
        re, im = residual_hyperbolic_cyclic(p, [1.0, 0.7, 1.4], 1.0)
        assert np.max(np.abs(re)) < 1e-14

    def test_axis_imaginary_sign_contradiction(self):
        # topmost body: positive left side, negative interaction side
        v = np.array([0.6, 1.3, 2.2])
        lhs, rhs, k = hyperbolic_contradiction_sides(v, [1.0, 0.7, 1.4], 1.0)
        assert k == 2
        assert lhs > 0 and rhs < 0

    def test_single_body_empty_sums(self):
        p = CyclicParams([0.9], [-0.2], 0.05)
        re, im = residual_hyperbolic_cyclic(p, [1.0], 1.0)
        assert np.isfinite(re[0]) and np.isfinite(im[0])

    def test_two_routes_agree_with_drift_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            alpha = rng.uniform(0.2, 1.5, n)
            beta = alpha - rng.uniform(0.3, 1.2, n)
            p = CyclicParams(alpha, beta, float(rng.uniform(-0.15, 0.15)))
            m = rng.uniform(0.2, 2.0, n)
            R = float(rng.choice([0.5, 1.0, 2.0]))
            re, im = residual_hyperbolic_cyclic(p, m, R)
            w = positions_hyperbolic_cyclic(p)
            defect = mobius_ansatz_defect(ROTATION_HYPERBOLIC, w, m, R, 1.0)
            scale = max(1.0, np.max(np.abs(defect)))
            assert np.max(np.abs(re - defect.real)) < 1e-9 * scale
            assert np.max(np.abs(im - defect.imag)) < 1e-9 * scale

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            residual_hyperbolic_cyclic(CyclicParams([0.5], [0.5], 0.0), [1.0], 1.0)


class TestFindEquilibrium:
    def test_elliptic_axis_matches_scalar_oracle(self):
        state, report = find_equilibrium_detailed(
            EquilibriumClass.ELLIPTIC_CYCLIC,
            [1.0, 1.0],
            1.0,
            np.array([2j, 0.5j]),
            FindOptions(symmetry="axis"),
        )
        assert report.residual_norm < 1e-10
        a_star = math.sqrt(1.0 + math.sqrt(2.0))
        assert state.positions[0] == pytest.approx(1j * a_star, rel=1e-8)
        assert state.positions[1] == pytest.approx(1j / a_star, rel=1e-8)
        # velocities carry the drift field
        assert state.velocities[0] == pytest.approx(1 + (1j * a_star) ** 2, rel=1e-8)

    def test_hyperbolic_normal_mirror(self):
        state, report = find_equilibrium_detailed(
            EquilibriumClass.HYPERBOLIC_NORMAL,
            [1.0, 1.0],
            1.0,
            np.array([0.9 + 1j, -0.9 + 1j]),
            FindOptions(symmetry="mirror"),
        )
        assert report.residual_norm < 1e-10
        assert np.max(np.abs(residual_hyperbolic_normal(state))) < 1e-10
        # mirror pair on the curve R x^3 (x^2+y^2)^{3/2} = 2 m y^6
        x, y = state.positions[0].real, state.positions[0].imag
        assert x**3 * (x * x + y * y) ** 1.5 == pytest.approx(2.0 * y**6, rel=1e-8)

    def test_unconstrained_two_body_elliptic(self):
        state = find_equilibrium(
            EquilibriumClass.ELLIPTIC_CYCLIC,
            [1.0, 1.0],
            1.0,
            np.array([0.05 + 1.9j, -0.03 + 0.52j]),
            FindOptions(symmetry="none", max_iter=400),
        )
        assert np.max(np.abs(residual_elliptic_cyclic(state))) < 1e-10

    @pytest.mark.parametrize(
        "cls",
        [
            EquilibriumClass.PARABOLIC_NILPOTENT,
            EquilibriumClass.PARABOLIC_CYCLIC,
            EquilibriumClass.HYPERBOLIC_CYCLIC,
        ],
    )
    def test_nonexistent_classes_rejected(self, cls):
        with pytest.raises(ClassNotSolvableError):
            find_equilibrium(cls, [1.0, 1.0], 1.0, np.array([1j, 2j]))


class TestTwoBodyElliptic:
    @pytest.mark.parametrize("alpha", [1.2, 2.0, 5.0])
    def test_equal_masses_pair_to_the_same_circle(self, alpha):
        assert two_body_elliptic(1.0, 1.0, alpha) == pytest.approx(alpha, abs=1e-8)

    def test_heavier_companion_smaller_circle(self):
        beta = two_body_elliptic(1.0, 2.0, 2.0)
        assert beta < 2.0

    def test_lighter_companion_larger_circle(self):
        beta = two_body_elliptic(2.0, 1.0, 2.0)
        assert beta > 2.0

    def test_opposite_sides_of_the_focus(self):
        from hnbody.geometry import geodesic_through

        alpha = 2.0
        beta = two_body_elliptic(1.0, 2.0, alpha)
        arc = geodesic_through(1j * alpha, 1j / beta)
        assert arc.kind == "vertical" and arc.x0 == 0.0
        # the rotation fixed point i lies strictly between the bodies
        assert 1.0 / beta < 1.0 < alpha

    def test_rate_positive_and_residual_proportional(self):
        m1, m2, alpha = 1.0, 3.0, 1.7
        beta = two_body_elliptic(m1, m2, alpha)
        lam = elliptic_pair_rate(m1, m2, alpha, beta)
        assert lam > 0
        s = SystemState(
            0.0,
            np.array([1j * alpha, 1j / beta]),
            np.zeros(2, complex),
            np.array([m1, m2]),
            1.0,
        )
        lhs, rhs = condition_sides(EquilibriumClass.ELLIPTIC_CYCLIC, s)
        assert np.max(np.abs(lam * lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            two_body_elliptic(-1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            two_body_elliptic(1.0, 1.0, 0.9)


class TestCertificates:
    def test_parabolic_hand_values(self):
        lhs, rhs = parabolic_contradiction_sides([1.0, 2.0], [1.0, 1.0], 1.0, k=0)
        assert lhs == pytest.approx(1.0 / 64.0, rel=1e-15)
        assert rhs == pytest.approx(-1.0 / 9.0, rel=1e-15)

    def test_parabolic_certificate(self):
        cert = certify_nonexistence(EquilibriumClass.PARABOLIC_CYCLIC, 3, 200, seed=7)
        assert cert.verdict is True
        assert len(cert.samples) == 200
        assert all(s.lhs > 0 and s.rhs < 0 for s in cert.samples)

    def test_hyperbolic_certificate(self):
        cert = certify_nonexistence(EquilibriumClass.HYPERBOLIC_CYCLIC, 2, 200, seed=11)
        assert cert.verdict is True
        assert all(s.lhs > 0 and s.rhs < 0 for s in cert.samples)

    def test_hyperbolic_sides_are_the_family_at_s_zero(self):
        # lhs - rhs is the imaginary residual of the hyperbolic-cyclic family
        # at the axis data alpha = v, beta = -v, s = 0, row k
        rng = np.random.default_rng(40)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            v = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
            m = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
            R = float(rng.choice([0.5, 1.0, 2.0]))
            lhs, rhs, k = hyperbolic_contradiction_sides(v, m, R)
            _, im = residual_hyperbolic_cyclic(CyclicParams(v, -v, 0.0), m, R)
            assert lhs - rhs == pytest.approx(im[k], rel=1e-12, abs=0)

    def test_deterministic_under_seed(self):
        a = certify_nonexistence(EquilibriumClass.PARABOLIC_CYCLIC, 2, 50, seed=3)
        b = certify_nonexistence(EquilibriumClass.PARABOLIC_CYCLIC, 2, 50, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            certify_nonexistence(EquilibriumClass.PARABOLIC_CYCLIC, 2, 0)
        with pytest.raises(DomainError):
            certify_nonexistence(EquilibriumClass.PARABOLIC_CYCLIC, 1, 10)
        with pytest.raises(DomainError):
            certify_nonexistence(EquilibriumClass.ELLIPTIC_CYCLIC, 2, 10)
