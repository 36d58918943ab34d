import dataclasses
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
from hnbody import equilibria, reports
from hnbody.dynamics import SystemState, theta
from hnbody.equilibria import (
    _CONDITION_LHS,
    _FD_STEP,
    _interaction,
    _jacobian,
    CERTIFIABLE_CLASSES,
    CLASS_DRIFT,
    CertificateSample,
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
from hnbody.dynamics import eom_rhs
from hnbody.errors import ClassNotSolvableError, ConvergenceError, DomainError, SingularityError


def state_of(positions, masses=None, R=1.0):
    w = np.asarray(positions, dtype=complex)
    m = np.ones(w.size) if masses is None else np.asarray(masses, float)
    return SystemState(0.0, w, np.zeros_like(w), m, R)


def exact_contradiction_sides(cls, params):
    """(lhs, rhs) of a certificate sample's contradiction identity on Fractions, in
    the paper's closed forms: for the parabolic class
    R/(64 b_k^2) and -sum_j m_j b_j^2 / (4 (b_j^2 - b_k^2)^2); for the hyperbolic
    class (alpha, beta) = (v, -v) and Theta = 4 (v_k^2 - v_j^2)^2, so that
    Theta^{3/2} = 8 |v_k^2 - v_j^2|^3 is rational."""
    b = [Fraction(x) for x in params["beta"]]
    m = [Fraction(x) for x in params["masses"]]
    R, k = Fraction(params["R"]), params["k"]
    others = [j for j in range(len(b)) if j != k]
    if cls is EquilibriumClass.PARABOLIC_CYCLIC:
        return R / (64 * b[k] ** 2), -sum(m[j] * b[j] ** 2 / (4 * (b[j] ** 2 - b[k] ** 2) ** 2) for j in others)
    dk, bk = 2 * b[k], 1 + b[k] ** 2
    gap = [b[k] ** 2 - b[j] ** 2 for j in range(len(b))]
    total = sum((2 * b[j]) ** 2 * m[j] * gap[j] / (8 * abs(gap[j]) ** 3) for j in others)
    return dk * bk + 2 * bk * bk / dk, -(2 * dk ** 3 / R) * total


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


    def test_closed_forms_match_the_complex_power_forms(self):
        # (w - conj w)^4 = 16 (Im w)^4 is real: the forms divide by it directly
        def quartic(w):
            return (w - np.conjugate(w)) ** 4

        reference = {
            EquilibriumClass.HYPERBOLIC_NORMAL: lambda w, R: R * (w + np.conjugate(w)) * w / (8.0 * quartic(w)),
            EquilibriumClass.PARABOLIC_NILPOTENT: lambda w, R: -R / (4.0 * quartic(w)),
            EquilibriumClass.ELLIPTIC_CYCLIC: lambda w, R: R * (1.0 + w * w) * (1.0 + np.abs(w) ** 2) / quartic(w),
            EquilibriumClass.PARABOLIC_CYCLIC: lambda w, R: -R * (
                (w - np.conjugate(w)) ** 2 * (8.0 - w * w + 6.0 * np.abs(w) ** 2 + 3.0 * np.conjugate(w) * np.conjugate(w))
                - 16.0 * (1.0 + w * w) * (1.0 + np.abs(w) ** 2)
            ) / (16.0 * quartic(w)),
        }
        assert reference.keys() == _CONDITION_LHS.keys()
        rng = np.random.default_rng(43)
        w = rng.normal(size=200) * 3.0 + 1j * np.exp(rng.uniform(-3.0, 3.0, 200))
        for cls, lhs_fn in _CONDITION_LHS.items():
            ref = reference[cls](w, 1.7)
            assert np.max(np.abs(lhs_fn(w, 1.7) - ref) / np.abs(ref)) <= 1e-15, cls

    def test_underflowing_divisor_names_the_pair(self):
        # theta = 1.6e-239 > 0, but the kernel's divisor theta^{3/2} underflows to 0
        w = [1e-120 + 1j, 1j]
        message = r"^pair \(0, 1\) touched the singular set \(theta = 1.600e-239\)$"
        with pytest.raises(SingularityError, match=message) as exc:
            condition_sides(EquilibriumClass.ELLIPTIC_CYCLIC, state_of(w))
        assert exc.value.pair == (0, 1)

    @pytest.mark.parametrize("eps", [5e-7, 2e-6])
    def test_every_evaluator_gives_the_verdict_of_eom_rhs(self, eps):
        # [i, i (1 + eps)] is at distance log1p(eps): inside the singular set (d < 1e-6) at 5e-7 only
        s = state_of([1j, 1j * (1.0 + eps)])
        evaluators = [lambda cls=cls: condition_sides(cls, s) for cls in _CONDITION_LHS]
        evaluators += [lambda: mobius_ansatz_defect(ROTATION_ELLIPTIC, s.positions, s.masses, 1.0), lambda: eom_rhs(s)]
        for evaluate in evaluators:
            if eps < 1e-6:
                with pytest.raises(SingularityError, match=r"^pair \(0, 1\) touched the singular set") as exc:
                    evaluate()
                assert exc.value.pair == (0, 1)
            else:
                assert np.isfinite(evaluate()).all()

    @pytest.mark.parametrize("eps", [2.5e-7, 2e-6])
    def test_cyclic_residuals_give_the_verdict_of_eom_rhs(self, eps):
        # at s = 0 both families put the bodies eps apart at height 0.5 or 0.55:
        # inside the singular set (d < 1e-6) at 2.5e-7 only
        families = (
            (CyclicParams([0.2, 0.2 + eps], [0.5, 0.5]), positions_parabolic_cyclic, residual_parabolic_cyclic),
            (CyclicParams([0.9, 0.9 + eps], [-0.2, -0.2 + eps]), positions_hyperbolic_cyclic,
             residual_hyperbolic_cyclic),
        )
        for p, positions, residual in families:
            s = state_of(positions(p))
            if eps < 1e-6:
                with pytest.raises(SingularityError) as verdict:
                    eom_rhs(s)
                with pytest.raises(SingularityError) as exc:
                    residual(p, [1.0, 1.0], 1.0)
                assert exc.value.pair == verdict.value.pair == (0, 1)
                assert exc.value.theta == verdict.value.theta
            else:
                assert np.isfinite(eom_rhs(s)).all()
                assert np.isfinite(residual(p, [1.0, 1.0], 1.0)).all()

    def test_stacked_interaction_matches_its_rows(self):
        rng = np.random.default_rng(45)
        w = rng.normal(size=(5, 4)) + 1j * rng.uniform(0.3, 3.0, (5, 4))
        m = rng.uniform(0.5, 2.0, 4)
        assert np.array_equal(_interaction(w, m), np.stack([_interaction(row, m) for row in w]))

    def test_stacked_interaction_names_the_pair_of_the_first_singular_row(self):
        # rows 0 and 2 are regular; in row 1, bodies 1 and 2 coincide
        w = np.array([[1j, 2j, 3j], [1j, 0.5 + 2j, 0.5 + 2j], [1j, 2j, 0.5j]])
        message = r"^pair \(1, 2\) touched the singular set \(theta = 0.000e\+00\)$"
        with pytest.raises(SingularityError, match=message) as exc:
            _interaction(w, np.ones(3))
        assert exc.value.pair == (1, 2)

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

    def test_hyperbolic_positions_and_theta_from_the_letters(self):
        # positions_hyperbolic_cyclic skips the Xi table but keeps the bits of C + i D
        rng = np.random.default_rng(44)
        for n in (1, 2, 5):
            p = CyclicParams(rng.uniform(0.5, 1.5, n), rng.uniform(-1.0, 0.0, n), float(rng.uniform(-0.3, 0.3)))
            L = aux_letters(p)
            w = positions_hyperbolic_cyclic(p)
            assert np.array_equal(w, L.C + 1j * L.D)
            th = theta_parametric(p, "hyperbolic")
            assert np.array_equal(th, [[theta(wk, wj) for wj in w] for wk in w])

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
        # bodies at d = 6.6e-6, just outside the singular set: the expanded
        # theta cross^2 - 16 v_k^2 v_j^2 is off by 1.4e-6 relative here
        p = CyclicParams([0.2, 0.2 + 2e-6], [0.5, 0.5 + 2e-6], 0.3)
        re, im = residual_parabolic_cyclic(p, [1.0, 1.3], 1.0)
        re_ref, im_ref = exact_parabolic_residual(p, [1.0, 1.3], 1.0)
        assert re == pytest.approx(re_ref, rel=1e-14, abs=0)
        assert im == pytest.approx(im_ref, rel=1e-14, abs=0)

    def test_near_collision_inside_the_singular_set_is_a_verdict(self):
        # offsets of 1e-7 put the bodies at d = 3.3e-7
        p = CyclicParams([0.2, 0.2 + 1e-7], [0.5, 0.5 + 1e-7], 0.3)
        with pytest.raises(SingularityError, match=r"^pair \(0, 1\) touched the singular set") as exc:
            residual_parabolic_cyclic(p, [1.0, 1.3], 1.0)
        assert exc.value.pair == (0, 1)

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
        message = r"^pair \(0, 2\) touched the singular set \(theta = 0.000e\+00\)$"
        with pytest.raises(SingularityError, match=message) as exc:
            residual_parabolic_cyclic(p, [1.0, 1.0, 1.0], 1.0)
        assert exc.value.pair == (0, 2)


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
    def test_non_finite_residual_at_the_ansatz_is_refused(self):
        # the unknowns clip the height 1e-100 to e^-30, where R = 1e300 over 16 y^4 overflows
        with pytest.raises(DomainError, match="^the residual at the ansatz leaves the floating-point range$"):
            find_equilibrium(EquilibriumClass.ELLIPTIC_CYCLIC, [1.0, 1.0], 1e300, [1e-100j, 1 + 1j])

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

    @pytest.mark.parametrize("symmetry", ["Axis", "", "mirrored", None])
    def test_unknown_symmetry_is_refused(self, symmetry):
        with pytest.raises(DomainError, match="symmetry must be one of"):
            FindOptions(symmetry=symmetry)

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


class _Captured(Exception):
    pass


def solver_inputs(monkeypatch, cls, masses, ansatz, symmetry):
    """The residual function and start point that find_equilibrium_detailed hands to the solver."""

    def solver(fun, x0, opts):
        raise _Captured(fun, x0)

    monkeypatch.setattr(equilibria, "_levenberg_marquardt", solver)
    with pytest.raises(_Captured) as info:
        find_equilibrium_detailed(cls, masses, 1.0, ansatz, FindOptions(symmetry=symmetry))
    return info.value.args


def loop_jacobian(fun, x):
    """Central differences one column at a time, two residual calls per unknown."""
    r = fun(x)
    J = np.empty((r.size, x.size))
    for i in range(x.size):
        h = _FD_STEP * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return J


class TestJacobian:
    @pytest.mark.parametrize(
        "cls, symmetry, ansatz",
        [
            ("elliptic-cyclic", "axis", (2j, 0.5j)),
            ("elliptic-cyclic", "axis", (3j, 1.5j, 0.5j)),
            ("elliptic-cyclic", "axis", (4j, 2j, 1j, 0.5j)),
            ("elliptic-cyclic", "none", (0.05 + 1.9j, -0.03 + 0.52j)),
            ("elliptic-cyclic", "none", (0.01 + 3j, -0.02 + 1.5j, 0.03 + 0.5j)),
            ("elliptic-cyclic", "none", (0.1 + 4j, -0.2 + 2j, 0.3 + 1j, 0.1 + 0.5j)),
            ("hyperbolic-normal", "none", (0.9 + 1j, -0.8 + 1.1j)),
            ("hyperbolic-normal", "mirror", (0.9 + 1j, -0.9 + 1j)),
            ("elliptic-cyclic", "mirror", (0.2 + 1.5j, -0.2 + 1.5j)),
        ],
    )
    def test_stacked_call_equals_the_column_loop_bit_for_bit(self, monkeypatch, cls, symmetry, ansatz):
        rng = np.random.default_rng(len(ansatz))
        masses = rng.uniform(0.5, 2.0, len(ansatz))
        fun, x0 = solver_inputs(monkeypatch, cls, masses, np.array(ansatz), symmetry)
        for x in (x0, x0 + rng.normal(0.0, 0.05, x0.size)):
            J = _jacobian(fun, x)
            assert J.flags.c_contiguous
            assert np.array_equal(J, loop_jacobian(fun, x))

    def test_one_residual_call_per_iteration_builds_its_jacobian(self, monkeypatch):
        shapes = []
        solve = equilibria._levenberg_marquardt

        def counting(fun, x0, opts):
            return solve(lambda x: shapes.append(np.shape(x)) or fun(x), x0, opts)

        monkeypatch.setattr(equilibria, "_levenberg_marquardt", counting)
        _, report = find_equilibrium_detailed(
            "elliptic-cyclic", [1.0, 2.0, 1.5], 1.0, np.array([3j, 1.5j, 0.5j]), FindOptions(symmetry="axis")
        )
        assert report.iterations > 0
        assert shapes.count((6, 3)) == report.iterations
        # the residual at the start, then per iteration one stacked call and its trial steps
        assert shapes[0] == (3,) and shapes[-1] == (3,)
        assert all(a == (3,) or b == (3,) for a, b in zip(shapes, shapes[1:]))
        assert set(shapes) == {(3,), (6, 3)}


def bisected_companion(m1, m2, alpha):
    """The companion circle as the root of the kernel's pairing condition
    lhs_0 rhs_1 - lhs_1 rhs_0, bisected until the midpoint is one of the ends."""

    def g(beta):
        lhs, rhs = condition_sides(EquilibriumClass.ELLIPTIC_CYCLIC, state_of([1j * alpha, 1j / beta], [m1, m2]))
        return (lhs[0] * rhs[1] - lhs[1] * rhs[0]).real

    lo, hi = 1.0 + 1e-9, max(4.0 * alpha, 8.0)
    glo = g(lo)
    while g(hi) * glo > 0:
        hi *= 4.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if g(mid) * glo > 0 else (lo, mid)
    return lo


class TestTwoBodyElliptic:
    @pytest.mark.parametrize("alpha", [1.2, 2.0, 3.0, 5.0])
    def test_equal_masses_pair_to_the_same_circle(self, alpha):
        assert two_body_elliptic(1.0, 1.0, alpha) == alpha

    def test_pinned_bits(self):
        assert two_body_elliptic(1.0, 2.0, 2.0).hex() == "0x1.84eff8c6d1555p+0"

    def test_closed_form_is_the_bisected_root(self):
        # masses log-uniform on [e^-3, e^3], alpha = 1 + e^U with U uniform on [-6, 3]
        rng = np.random.default_rng(21)
        for _ in range(300):
            m1, m2 = np.exp(rng.uniform(-3.0, 3.0, 2)).tolist()
            alpha = 1.0 + math.exp(rng.uniform(-6.0, 3.0))
            assert two_body_elliptic(m1, m2, alpha) == pytest.approx(bisected_companion(m1, m2, alpha), rel=4e-15)

    def test_does_not_depend_on_R(self):
        assert two_body_elliptic(1.0, 3.0, 1.7, R=0.25) == two_body_elliptic(1.0, 3.0, 1.7, R=8.0)

    # (m1, m2, alpha) -> (beta, bound on the relative gap of the two bodies' rates) at
    # mass ratios that put beta within 1e-9 of 1 or near 1e9
    EXTREME_MASSES = {
        (1e-9, 1.0, 2.0): (1.0000000009374999, 1e-6),
        (1e-10, 1.0, 1.5): (1.0000000000451388, 1e-5),
        (1.0, 1e-17, 2.0): (612372435.6957946, 1e-13),
        (3e17, 1.0, 2.0): (1060660171.7798213, 1e-13),
    }

    @pytest.mark.parametrize("args", sorted(EXTREME_MASSES))
    def test_extreme_mass_ratios_pair_with_a_common_rate(self, args):
        # near beta = 1 the rates agree less closely: beta - 1 is about 1e-9 and the
        # height 1/beta carries a rounding error of about 1e-16
        expected, gap = self.EXTREME_MASSES[args]
        beta = two_body_elliptic(*args)
        assert beta == expected and beta > 1.0
        lhs, rhs = condition_sides(EquilibriumClass.ELLIPTIC_CYCLIC, state_of([1j * args[2], 1j / beta], args[:2]))
        rates = rhs.real / lhs.real
        assert rates[0] == elliptic_pair_rate(*args[:3], beta) > 0
        assert abs(rates[1] - rates[0]) < gap * rates[0]

    @pytest.mark.parametrize(("args", "beta"), [((1e-20, 1.0, 2.0), "1.0"), ((1.0, 1.0, 1e100), "inf")])
    def test_companion_rounded_to_the_unit_circle_or_overflowed_is_refused(self, args, beta):
        with pytest.raises(ConvergenceError, match=f"beta = {beta}, outside"):
            two_body_elliptic(*args)

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

    def test_stack_gives_the_one_sample_sides_bit_for_bit(self):
        rng = np.random.default_rng(82)
        for n in (2, 3, 9, 40):
            beta = np.exp(rng.uniform(math.log(0.1), math.log(10.0), (25, n)))
            m = np.exp(rng.uniform(math.log(0.1), math.log(10.0), (25, n)))
            R = rng.choice([0.5, 1.0, 2.0], 25)
            for k in (0, n - 1):
                lhs, rhs = parabolic_contradiction_sides(beta, m, R, k=k)
                rows = [parabolic_contradiction_sides(b, mm, float(r), k=k) for b, mm, r in zip(beta, m, R)]
                assert [type(x) for x in rows[0]] == [float, float]
                assert rows == list(zip(lhs.tolist(), rhs.tolist()))
            lhs, rhs, k = hyperbolic_contradiction_sides(beta, m, R)
            rows = [hyperbolic_contradiction_sides(b, mm, float(r)) for b, mm, r in zip(beta, m, R)]
            assert [type(x) for x in rows[0]] == [float, float, int]
            assert rows == list(zip(lhs.tolist(), rhs.tolist(), k.tolist()))

    def test_equal_squared_heights_raise(self):
        b = 1.5
        match = "another body has the squared height of body k"
        with pytest.raises(DomainError, match=match):
            parabolic_contradiction_sides([b, 0.3, 2.0, b], [1.0] * 4, 1.0, k=0)
        with pytest.raises(DomainError, match=match):
            hyperbolic_contradiction_sides([0.3, b, 0.7, b], [1.0] * 4, 1.0)
        with pytest.raises(DomainError, match=match):
            parabolic_contradiction_sides([b, 0.3, -b], [1.0] * 3, 1.0, k=0)
        # one bad row of a stack is enough
        stack = np.array([[0.3, 0.7, 2.0], [0.3, b, b]])
        with pytest.raises(DomainError, match=match):
            hyperbolic_contradiction_sides(stack, np.ones((2, 3)), 1.0)
        # adjacent floats are distinct heights with finite sides of the proven signs
        pair = [b, math.nextafter(b, 2.0)]
        lhs, rhs = parabolic_contradiction_sides(pair, [1.0, 1.0], 1.0, k=0)
        assert lhs > 0 and -math.inf < rhs < 0
        lhs, rhs, k = hyperbolic_contradiction_sides(pair, [1.0, 1.0], 1.0)
        assert k == 1 and lhs > 0 and -math.inf < rhs < 0

    @pytest.mark.parametrize("cls", list(CERTIFIABLE_CLASSES))
    def test_sides_match_exact_arithmetic(self, cls):
        # the acceptance-seed certificates and a pair of adjacent floats, within 2e-15
        certs = [certify_nonexistence(cls, n, 1000, seed=2026) for n in (2, 3, 4)]
        cases = [(s.params, (s.lhs, s.rhs)) for cert in certs for s in cert.samples]
        parabolic = cls is EquilibriumClass.PARABOLIC_CYCLIC
        pair = {"beta": [1.5, math.nextafter(1.5, 2.0)], "masses": [1.0, 1.0], "R": 1.0, "k": 0 if parabolic else 1}
        sides = parabolic_contradiction_sides if parabolic else hyperbolic_contradiction_sides
        cases.append((pair, sides(pair["beta"], pair["masses"], pair["R"], k=pair["k"])[:2]))
        for params, got in cases:
            for value, exact in zip(got, exact_contradiction_sides(cls, params)):
                assert abs(Fraction(value) - exact) <= Fraction(2e-15) * abs(exact)

    @pytest.mark.parametrize("cls", list(CERTIFIABLE_CLASSES))
    @pytest.mark.parametrize("seed", [0, 7, 2026])
    def test_shorter_certificate_is_a_prefix(self, cls, seed):
        short = certify_nonexistence(cls, 3, 50, seed=seed)
        assert short.samples == certify_nonexistence(cls, 3, 200, seed=seed).samples[:50]

    def test_draws_cover_their_ranges(self):
        cert = certify_nonexistence(EquilibriumClass.HYPERBOLIC_CYCLIC, 3, 1000, seed=5)
        values = np.array([s.params["beta"] + s.params["masses"] for s in cert.samples])
        assert values.min() >= 0.1 and values.max() <= 10.0
        assert {s.params["R"] for s in cert.samples} == {0.5, 1.0, 2.0}

    @staticmethod
    def _repeating_generator(monkeypatch, bad_rounds, rows=slice(None)):
        """Replace default_rng by a generator whose first bad_rounds tables repeat a size in the given rows."""
        real = np.random.default_rng
        rounds = []

        class Repeating:
            def __init__(self, seed):
                self.rng = real(seed)

            def uniform(self, low, high, size):
                table = self.rng.uniform(low, high, size)
                rounds.append(size[0])
                if len(rounds) <= bad_rounds:
                    table[rows, 1] = table[rows, 0]
                return table

        monkeypatch.setattr(np.random, "default_rng", Repeating)
        return rounds

    def test_redraw_gives_up_after_100_rounds(self, monkeypatch):
        rounds = self._repeating_generator(monkeypatch, bad_rounds=math.inf)
        with pytest.raises(ConvergenceError, match="could not draw a nondegenerate sample"):
            certify_nonexistence(EquilibriumClass.PARABOLIC_CYCLIC, 3, 20, seed=1)
        assert rounds == [20] * 100

    def test_redraw_replaces_only_the_repeating_rows(self, monkeypatch):
        clean = certify_nonexistence(EquilibriumClass.HYPERBOLIC_CYCLIC, 3, 20, seed=1).samples
        rounds = self._repeating_generator(monkeypatch, bad_rounds=1, rows=slice(None, None, 3))
        cert = certify_nonexistence(EquilibriumClass.HYPERBOLIC_CYCLIC, 3, 20, seed=1)
        assert rounds == [20, 7]
        assert cert.verdict is True
        assert all(len(set(s.params["beta"])) == 3 for s in cert.samples)
        for i, (got, was) in enumerate(zip(cert.samples, clean)):
            assert (got == was) == (i % 3 != 0)

    @staticmethod
    def _per_sample_certificate(cls, n, samples, seed):
        """(samples, to_dict(), verdict) built one sample at a time: the certificate's draw, then
        each sample's sides from the one-sample functions and one CertificateSample per sample."""
        rng = np.random.default_rng(seed)
        low = np.append(np.full(2 * n, math.log(0.1)), 0.0)
        high = np.append(np.full(2 * n, math.log(10.0)), 3.0)
        table, redraw = np.empty((samples, 2 * n + 1)), np.ones(samples, dtype=bool)
        while redraw.any():
            table[redraw] = rng.uniform(low, high, (np.count_nonzero(redraw), 2 * n + 1))
            beta = np.exp(table[:, :n])
            redraw = (np.diff(np.sort(beta, axis=-1), axis=-1) == 0).any(axis=-1)
        m, R = np.exp(table[:, n:-1]), np.array([0.5, 1.0, 2.0])[table[:, -1].astype(int)]
        out = []
        for b, mm, r in zip(beta.tolist(), m.tolist(), R.tolist()):
            if cls is EquilibriumClass.PARABOLIC_CYCLIC:
                (lhs, rhs), k = parabolic_contradiction_sides(b, mm, r, k=0), 0
            else:
                lhs, rhs, k = hyperbolic_contradiction_sides(b, mm, r)
            out.append(CertificateSample({"beta": b, "masses": mm, "R": r, "k": k}, lhs, rhs))
        verdict = all(s.witnesses for s in out)
        payload = {
            "class": cls.value, "n": n, "seed": seed, "sample_count": len(out), "verdict": verdict,
            "samples": [{"params": s.params, "lhs": s.lhs, "rhs": s.rhs, "witnesses": s.witnesses} for s in out],
        }
        return tuple(out), payload, verdict

    @pytest.mark.parametrize("cls", list(CERTIFIABLE_CLASSES))
    def test_the_arrays_give_the_per_sample_certificate(self, cls):
        for n, samples, seed in [(2, 1, 0), (3, 300, 1), (4, 1000, 2026), (8, 50, 5), (40, 7, 3)]:
            cert = certify_nonexistence(cls, n, samples, seed=seed)
            assert (cert.samples, cert.to_dict(), cert.verdict) == self._per_sample_certificate(cls, n, samples, seed)
            assert cert.verdict is True
            assert cert.samples is cert.samples  # built once, on first access
            assert all(type(s.params["k"]) is int and type(s.lhs) is float for s in cert.samples)

    def test_a_refuted_sample_makes_the_verdict_false(self):
        drawn = certify_nonexistence(EquilibriumClass.HYPERBOLIC_CYCLIC, 3, 20, seed=1)
        with pytest.raises(ValueError, match="read-only"):
            drawn.rhs[4] = 0.0
        cert = dataclasses.replace(drawn, rhs=np.where(np.arange(20) == 4, 0.0, drawn.rhs))
        assert drawn.verdict is True and cert.verdict is False
        assert [s["witnesses"] for s in cert.to_dict()["samples"]] == [i != 4 for i in range(20)]

    @staticmethod
    def _blocks_equal_the_tree(cert):
        pieces = list(reports.json_pieces(cert.to_report()))
        assert "".join(pieces) == reports.canonical_json(cert.to_dict())
        assert len(pieces) == -(-len(cert.lhs) // reports._RECORD_BLOCK)  # one piece per block of samples

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("cls", list(CERTIFIABLE_CLASSES))
    def test_block_rendering_equals_the_report_tree(self, monkeypatch, cls, n):
        B = 16  # the real block size takes the redrawn-row case below and the CLI digests
        monkeypatch.setattr(reports, "_RECORD_BLOCK", B)
        for seed in range(6):
            for samples in (1, B - 1, B, B + 1, 2 * B + 1):
                self._blocks_equal_the_tree(certify_nonexistence(cls, n, samples, seed=seed))

    def test_block_rendering_of_a_redrawn_row_equals_the_report_tree(self, monkeypatch):
        rows = reports._RECORD_BLOCK + 1
        rounds = self._repeating_generator(monkeypatch, bad_rounds=1, rows=slice(reports._RECORD_BLOCK - 1, None))
        cert = certify_nonexistence(EquilibriumClass.HYPERBOLIC_CYCLIC, 3, rows, seed=1)
        assert rounds == [rows, 2]
        self._blocks_equal_the_tree(cert)

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
