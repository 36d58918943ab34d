import math
import re

import numpy as np
import pytest

from hnbody.clifford import (
    CliffordNumber,
    IwasawaFactors,
    KillingField,
    MobiusElement,
    NILPOTENT_N,
    NORMAL_A,
    ROTATION_ELLIPTIC,
    ROTATION_HYPERBOLIC,
    ROTATION_PARABOLIC,
    classify_subgroup,
    clifford_mul,
    exp_subgroup,
    iwasawa_decompose,
    iwasawa_reconstruct,
    killing_velocity,
    killing_wirtinger,
    random_unimodular,
)
from hnbody.errors import DomainError
from hnbody.geometry import apply_mobius


def coeffs_close(x: CliffordNumber, y: CliffordNumber, tol=1e-12):
    return all(abs(a - b) <= tol for a, b in zip(x.coeffs(), y.coeffs()))


class TestCliffordProduct:
    @pytest.mark.parametrize("sigma", [-1, 0, 1])
    def test_generator_relations(self, sigma):
        one, e0, e1, e01 = CliffordNumber.basis(sigma)
        assert coeffs_close(e0 * e0, -1.0 * one, tol=0)
        assert coeffs_close(e1 * e1, float(sigma) * one, tol=0)
        anti = e0 * e1 + e1 * e0
        assert all(c == 0 for c in anti.coeffs())
        assert coeffs_close(e0 * e1, e01, tol=0)

    @pytest.mark.parametrize("sigma", [-1, 0, 1])
    def test_bivector_square(self, sigma):
        one, _, _, e01 = CliffordNumber.basis(sigma)
        assert coeffs_close(e01 * e01, float(sigma) * one, tol=0)

    @pytest.mark.parametrize("sigma", [-1, 0, 1])
    def test_associativity(self, sigma):
        rng = np.random.default_rng(10 + sigma)
        for _ in range(3334):
            x, y, z = (
                CliffordNumber(*rng.normal(size=4), sigma) for _ in range(3)
            )
            left = (x * y) * z
            right = x * (y * z)
            scale = max(1.0, left.norm(), right.norm())
            assert all(
                abs(a - b) <= 1e-12 * scale for a, b in zip(left.coeffs(), right.coeffs())
            )

    def test_sigma_mismatch(self):
        x = CliffordNumber(1, 0, 0, 0, -1)
        y = CliffordNumber(1, 0, 0, 0, 0)
        with pytest.raises(DomainError):
            clifford_mul(x, y)

    def test_mobius_clifford_view_rotation(self):
        # the rotation block's representation has e0 entries off the diagonal
        A = exp_subgroup(ROTATION_ELLIPTIC, 0.7)
        view = A.clifford_view(-1)
        assert view[0][0].c1 == pytest.approx(math.cos(0.7))
        assert view[0][1].c_e0 == pytest.approx(math.sin(0.7))
        assert view[1][0].c_e0 == pytest.approx(math.sin(0.7))
        assert view[1][1].c1 == pytest.approx(math.cos(0.7))


class TestMobiusElement:
    def test_determinant_enforced(self):
        with pytest.raises(DomainError):
            MobiusElement(2.0, 0.0, 0.0, 1.0)

    def test_determinant_message_names_the_first_failing_float(self):
        with pytest.raises(DomainError, match=r"det = nan$"):
            MobiusElement(np.float64(math.nan), 0.0, 0.0, 1.0)
        ones = np.ones(3)
        with pytest.raises(DomainError, match=r"det = 2\.0$"):
            MobiusElement(np.array([1.0, 2.0, 3.0]), 0.0 * ones, 0.0 * ones, ones)

    def test_inverse(self):
        rng = np.random.default_rng(11)
        A = random_unimodular(rng)
        I = A @ A.inverse()
        assert I.a == pytest.approx(1.0, abs=1e-12)
        assert I.d == pytest.approx(1.0, abs=1e-12)
        assert abs(I.b) < 1e-12 and abs(I.c) < 1e-12


class TestIwasawa:
    def test_identity(self):
        f = iwasawa_decompose(MobiusElement.identity())
        assert (f.alpha, f.nu, f.phi) == (1.0, 0.0, 0.0)

    def test_lower_shear(self):
        # alpha^{-1} = sqrt(c^2+d^2), nu = ac+bd, phi = -arctan(c/d)
        f = iwasawa_decompose(MobiusElement(1, 0, 1, 1))
        assert f.alpha == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert f.nu == pytest.approx(1.0, abs=0)
        assert f.phi == pytest.approx(-math.pi / 4, rel=1e-15)

    def test_upper_shear(self):
        f = iwasawa_decompose(MobiusElement(1, 1, 0, 1))
        assert (f.alpha, f.nu, f.phi) == (1.0, 1.0, 0.0)

    def test_reconstruct_examples(self):
        A = iwasawa_reconstruct(IwasawaFactors(1.0, 0.0, 0.0))
        assert A.entries() == (1.0, 0.0, 0.0, 1.0)
        B = iwasawa_reconstruct(IwasawaFactors(1 / math.sqrt(2), 1.0, -math.pi / 4))
        assert B.a == pytest.approx(1.0, rel=1e-15)
        assert abs(B.b) < 1e-16
        assert B.c == pytest.approx(1.0, rel=1e-15)
        assert B.d == pytest.approx(1.0, rel=1e-15)

    def test_zero_d_branch(self):
        f = iwasawa_decompose(MobiusElement(0.0, -1.0, 1.0, 0.0))
        assert f.phi == pytest.approx(math.pi / 2)
        assert f.sign == -1.0  # folded from the -pi/2 branch
        rebuilt = iwasawa_reconstruct(f)
        assert f.sign * rebuilt.a == pytest.approx(0.0, abs=1e-15)
        assert f.sign * rebuilt.b == pytest.approx(-1.0, rel=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(10_000):
            A = random_unimodular(rng, spread=1.5)
            f = iwasawa_decompose(A)
            B = iwasawa_reconstruct(f)
            err = max(
                abs(f.sign * x - y) for x, y in zip(B.entries(), A.entries())
            )
            worst = max(worst, err)
        assert worst < 1e-10


class TestSubgroups:
    def test_normal_at_zero(self):
        assert exp_subgroup(NORMAL_A, 0.0).entries() == (1.0, 0.0, 0.0, 1.0)

    def test_nilpotent_matrix(self):
        assert exp_subgroup(NILPOTENT_N, 3.0).entries() == (1.0, 3.0, 0.0, 1.0)

    def test_quarter_rotation(self):
        A = exp_subgroup(ROTATION_ELLIPTIC, math.pi / 2)
        assert A.a == pytest.approx(0.0, abs=1e-16)
        assert A.b == pytest.approx(1.0)
        assert A.c == pytest.approx(-1.0)
        assert A.d == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("field", [ROTATION_PARABOLIC, ROTATION_HYPERBOLIC], ids=["sigma0", "sigma1"])
    def test_non_isometric_flavours_have_no_subgroup(self, field):
        # the elliptic rotation block used to stand in for them, though its
        # action's t-derivative 1 + w^2 misses the flavour term of their fields
        with pytest.raises(DomainError, match=re.escape(field.describe())):
            exp_subgroup(field, 0.3)

    @pytest.mark.parametrize("field", [NORMAL_A, NILPOTENT_N, ROTATION_ELLIPTIC])
    def test_group_law(self, field):
        rng = np.random.default_rng(13)
        for _ in range(300):
            s, t = rng.normal(size=2)
            left = exp_subgroup(field, s) @ exp_subgroup(field, t)
            right = exp_subgroup(field, s + t)
            scale = max(1.0, *(abs(e) for e in right.entries()))
            assert all(
                abs(x - y) <= 1e-12 * scale
                for x, y in zip(left.entries(), right.entries())
            )


class TestKillingFields:
    def test_values_at_i(self):
        assert killing_velocity(ROTATION_ELLIPTIC, 1j) == 0.0
        assert killing_velocity(ROTATION_PARABOLIC, 1j) == pytest.approx(1.0, abs=0)
        assert killing_velocity(ROTATION_HYPERBOLIC, 1j) == pytest.approx(2.0, abs=0)
        assert killing_velocity(NORMAL_A, 0.3 + 1j) == 0.3 + 1j
        assert killing_velocity(NILPOTENT_N, 5j) == 1.0

    @pytest.mark.parametrize("field", [NORMAL_A, NILPOTENT_N, ROTATION_ELLIPTIC])
    def test_field_is_action_derivative(self, field):
        # finite-difference t-derivative of the Mobius action at t = 0
        rng = np.random.default_rng(14)
        h = 1e-6
        for _ in range(200):
            w = rng.normal() + 1j * rng.uniform(0.2, 3.0)
            fd = (
                apply_mobius(exp_subgroup(field, h), w)
                - apply_mobius(exp_subgroup(field, -h), w)
            ) / (2 * h)
            vel = killing_velocity(field, w)
            assert abs(fd - vel) <= 1e-6 * max(1.0, abs(vel))

    def test_wirtinger_derivatives(self):
        rng = np.random.default_rng(15)
        h = 1e-6
        for field in (NORMAL_A, NILPOTENT_N, ROTATION_ELLIPTIC,
                      ROTATION_PARABOLIC, ROTATION_HYPERBOLIC):
            w = rng.normal() + 1j * rng.uniform(0.5, 2.0)
            dKw, dKwb = killing_wirtinger(field, w)
            fx = (killing_velocity(field, w + h) - killing_velocity(field, w - h)) / (2 * h)
            fy = (killing_velocity(field, w + 1j * h) - killing_velocity(field, w - 1j * h)) / (2 * h)
            assert abs((fx - 1j * fy) / 2 - dKw) < 1e-8
            assert abs((fx + 1j * fy) / 2 - dKwb) < 1e-8

    def test_real_coordinate_systems(self):
        # parabolic: udot = 1 + u^2, vdot = 2uv; hyperbolic adds v^2 to udot
        rng = np.random.default_rng(16)
        for _ in range(100):
            w = rng.normal() + 1j * rng.uniform(0.1, 2.0)
            u, v = w.real, w.imag
            kp = killing_velocity(ROTATION_PARABOLIC, w)
            assert kp.real == pytest.approx(1 + u * u, rel=1e-14)
            assert kp.imag == pytest.approx(2 * u * v, rel=1e-14, abs=1e-14)
            kh = killing_velocity(ROTATION_HYPERBOLIC, w)
            assert kh.real == pytest.approx(1 + u * u + v * v, rel=1e-14)
            assert kh.imag == pytest.approx(2 * u * v, rel=1e-14, abs=1e-14)

    def test_invalid_kind(self):
        with pytest.raises(DomainError):
            KillingField("spiral")
        with pytest.raises(DomainError):
            KillingField("rotation", 2)


class TestClassifier:
    def test_normal_generator(self):
        assert classify_subgroup([[0.5, 0.0], [0.0, -0.5]]) == "A"

    def test_nilpotent_generator(self):
        assert classify_subgroup([[0.0, 1.0], [0.0, 0.0]]) == "N"

    def test_rotation_generator(self):
        assert classify_subgroup([[0.0, 1.0], [-1.0, 0.0]]) == "K"

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            classify_subgroup([[0.0, 0.0], [0.0, 0.0]])

    def test_trace_enforced(self):
        with pytest.raises(DomainError):
            classify_subgroup([[1.0, 0.0], [0.0, 1.0]])

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(17)
        gens = {
            "A": np.array([[0.5, 0.0], [0.0, -0.5]]),
            "N": np.array([[0.0, 1.0], [0.0, 0.0]]),
            "K": np.array([[0.0, 1.0], [-1.0, 0.0]]),
        }
        for _ in range(1000):
            M = random_unimodular(rng)
            Mm = np.array([[M.a, M.b], [M.c, M.d]])
            Minv = np.array([[M.d, -M.b], [-M.c, M.a]])
            for label, X in gens.items():
                Y = Mm @ X @ Minv
                Y = (Y - Y.T * 0)  # keep as-is; trace is preserved exactly enough
                Y[1, 1] = -Y[0, 0]  # kill rounding in the trace
                assert classify_subgroup(Y) == label
