import math

import numpy as np
import pytest
from scipy.integrate import quad

from hnbody.clifford import MobiusElement, exp_subgroup, NORMAL_A, NILPOTENT_N, random_unimodular
from hnbody.errors import DomainError
from hnbody.geometry import (
    GeodesicArc,
    HalfPlanePoint,
    apply_mobius,
    conformal_factor,
    from_disk,
    geodesic_residual,
    geodesic_through,
    hyperbolic_distance,
    to_disk,
)


def vertical_length(a: float, b: float, R: float) -> float:
    """Independent oracle: arc length of the segment [ia, ib] by quadrature."""
    val, _ = quad(lambda y: R / y, a, b, epsabs=1e-13, epsrel=1e-13)
    return val


class TestConformalFactor:
    def test_at_i(self):
        assert conformal_factor(1j, 1.0) == pytest.approx(1.0, abs=0)

    def test_at_2i(self):
        assert conformal_factor(2j, 1.0) == pytest.approx(0.25, abs=0)

    def test_independent_of_real_part(self):
        for x in (-5.0, 0.0, 0.3, 12.0):
            assert conformal_factor(x + 1j, 3.0) == pytest.approx(9.0, rel=1e-15)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            conformal_factor(1.0 - 1j, 1.0)
        with pytest.raises(DomainError):
            conformal_factor(1.0 + 0j, 1.0)


class TestDistance:
    def test_coincident(self):
        assert hyperbolic_distance(1j, 1j, 1.0) == 0.0

    def test_imaginary_axis_closed_form(self):
        # oracle: integrate ds = R dy/y along the axis
        assert vertical_length(1.0, math.e, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert hyperbolic_distance(1j, 1j * math.e, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_axis_with_radius_two(self):
        expected = 2.0 * math.log(2.0)  # frozen from the quadrature oracle
        assert vertical_length(1.0, 2.0, 2.0) == pytest.approx(expected, abs=1e-12)
        assert hyperbolic_distance(1j, 2j, 2.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2])
    def test_close_axis_pairs_match_log1p(self, eps):
        # i and i y are R log(y) apart; y - 1 is exact for y = 1 + eps in floats
        y = 1.0 + eps
        assert hyperbolic_distance(1j, 1j * y, 1.5) == pytest.approx(1.5 * math.log1p(y - 1.0), rel=1e-15, abs=0)

    @pytest.mark.parametrize("height", [1e-200, 1e200])
    def test_far_from_unit_heights(self, height):
        # i h and 2i h are log 2 apart at every height h, though h^2 leaves the double range
        assert hyperbolic_distance(1j * height, 2j * height, 1.0) == pytest.approx(math.log(2.0), rel=1e-15, abs=0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w1 = rng.normal() + 1j * rng.uniform(0.1, 3.0)
            w2 = rng.normal() + 1j * rng.uniform(0.1, 3.0)
            assert hyperbolic_distance(w1, w2, 1.5) == hyperbolic_distance(w2, w1, 1.5)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            A = random_unimodular(rng)
            w1 = rng.normal() + 1j * rng.uniform(0.1, 3.0)
            w2 = rng.normal() + 1j * rng.uniform(0.1, 3.0)
            d0 = hyperbolic_distance(w1, w2, 1.0)
            d1 = hyperbolic_distance(apply_mobius(A, w1), apply_mobius(A, w2), 1.0)
            assert abs(d1 - d0) < 1e-10


class TestGeodesicResidual:
    def test_exponential_vertical_line(self):
        for t in (-1.0, 0.0, 0.5, 2.0):
            w = 1j * math.exp(t)
            assert abs(geodesic_residual(w, w * 1j / 1j, 1j * math.exp(t))) < 1e-14
            # explicitly: w(t) = i e^t has wdot = wddot = i e^t
            assert abs(geodesic_residual(w, 1j * math.exp(t), 1j * math.exp(t))) == 0.0

    def test_rest_point(self):
        assert geodesic_residual(1j, 0.0, 0.0) == 0.0

    def test_unit_horizontal_jet(self):
        assert geodesic_residual(1j, 1.0, 0.0) == pytest.approx(1j, abs=0)

    def test_tanh_sech_circle(self):
        # unit-speed circle geodesic: w = c + r tanh(t) + i r sech(t)
        c, r = 0.4, 1.7
        for t in (-0.9, 0.0, 0.3, 1.8):
            sh, ch = math.sinh(t), math.cosh(t)
            w = c + r * sh / ch + 1j * r / ch
            wd = r / ch**2 - 1j * r * sh / ch**2
            wdd = -2 * r * sh / ch**3 - 1j * r * (1 / ch - sh * sh / ch) / ch**2
            assert abs(geodesic_residual(w, wd, wdd)) < 1e-10

    def test_mobius_transported_geodesics_stay_geodesic(self):
        # isometries preserve affinely parametrized geodesics: push the
        # vertical-line jet through the map with its exact derivatives
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = random_unimodular(rng)
            for t in (-0.5, 0.2, 1.0):
                w = 1j * math.exp(t)
                wd = wdd = 1j * math.exp(t)
                den = A.c * w + A.d
                f1 = 1.0 / den**2
                f2 = -2.0 * A.c / den**3
                res = geodesic_residual(
                    apply_mobius(A, w), f1 * wd, f2 * wd * wd + f1 * wdd
                )
                assert abs(res) < 1e-10 * max(1.0, abs(apply_mobius(A, w)) ** 2)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            geodesic_residual(1.0 + 0j, 1.0, 0.0)


class TestMobiusAction:
    def test_identity(self):
        w = 0.3 + 1.2j
        assert apply_mobius(MobiusElement.identity(), w) == w

    def test_scaling_subgroup(self):
        w = 0.7 + 0.4j
        t = 0.83
        A = exp_subgroup(NORMAL_A, t)
        assert apply_mobius(A, w) == pytest.approx(math.exp(t) * w, rel=1e-14)

    def test_shift_subgroup(self):
        w = -0.2 + 2.1j
        A = exp_subgroup(NILPOTENT_N, 1.7)
        assert apply_mobius(A, w) == pytest.approx(w + 1.7, rel=1e-14)

    def test_projective_sign(self):
        rng = np.random.default_rng(6)
        A = random_unimodular(rng)
        w = 0.5 + 0.8j
        assert apply_mobius(A, w) == pytest.approx(apply_mobius(-A, w), rel=1e-14)

    def test_preserves_half_plane_and_composes(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            A = random_unimodular(rng)
            B = random_unimodular(rng)
            w = rng.normal() + 1j * rng.uniform(0.05, 5.0)
            img = apply_mobius(A, apply_mobius(B, w))
            assert apply_mobius(B, w).imag > 0
            direct = apply_mobius(A @ B, w)
            assert abs(img - direct) <= 1e-12 * max(1.0, abs(direct))


class TestDiskMap:
    def test_center(self):
        for R in (0.5, 1.0, 2.0):
            assert abs(to_disk(1j * R, R)) < 1e-15

    def test_unit_case(self):
        assert to_disk(1j, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            R = rng.choice([0.5, 1.0, 2.0])
            w = rng.normal() + 1j * rng.uniform(0.05, 5.0)
            z = to_disk(w, R)
            assert abs(z) < R
            assert abs(from_disk(z, R) - w) < 1e-12 * max(1.0, abs(w))

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            from_disk(1.0, 1.0)
        with pytest.raises(DomainError):
            to_disk(0.5 + 0j, 1.0)


class TestGeodesicThrough:
    def test_vertical(self):
        arc = geodesic_through(1j, 2j)
        assert arc.kind == "vertical"
        assert arc.x0 == 0.0

    def test_symmetric_circle(self):
        arc = geodesic_through(-1 + 1j, 1 + 1j)
        assert arc.kind == "circle"
        assert arc.center == pytest.approx(0.0, abs=1e-15)
        assert arc.radius == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_offset_circle(self):
        arc = geodesic_through(1j, 1 + 1j)
        assert arc.kind == "circle"
        assert arc.center == pytest.approx(0.5, rel=1e-15)
        assert arc.radius == pytest.approx(math.sqrt(5.0) / 2.0, rel=1e-15)

    def test_contains_both_points(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            w1 = rng.normal() + 1j * rng.uniform(0.1, 3.0)
            w2 = rng.normal() + 1j * rng.uniform(0.1, 3.0)
            if abs(w1 - w2) < 1e-6:
                continue
            arc = geodesic_through(w1, w2)
            assert arc.point_defect(w1) < 1e-9
            assert arc.point_defect(w2) < 1e-9

    def test_coincident_rejected(self):
        with pytest.raises(DomainError):
            geodesic_through(1j, 1j)


class TestTypes:
    def test_halfplane_point_validates(self):
        HalfPlanePoint(1j)
        with pytest.raises(DomainError):
            HalfPlanePoint(1.0 - 0.5j)

    def test_arc_defect_vertical(self):
        arc = GeodesicArc("vertical", x0=1.0)
        assert arc.point_defect(1.0 + 5j) == 0.0
        assert arc.point_defect(1.5 + 5j) == pytest.approx(0.5)
