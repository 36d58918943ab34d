import math
import tracemalloc

import numpy as np
import pytest

import hnbody.dynamics
import hnbody.flows
from hnbody.clifford import (
    KillingField,
    NILPOTENT_N,
    NORMAL_A,
    ROTATION_ELLIPTIC,
    ROTATION_HYPERBOLIC,
    ROTATION_PARABOLIC,
    exp_subgroup,
    killing_velocity,
)
from hnbody.dynamics import SystemState, _step_points, eom_rhs, integrate
from hnbody.equilibria import EquilibriumClass, FindOptions, find_equilibrium
from hnbody.errors import DomainError, PoleError
from hnbody.geometry import apply_mobius, mobius_derivative
from hnbody.flows import (
    _POLE_MARGIN,
    admissible_interval,
    flow,
    flow_derivative_check,
    flow_jacobian,
    flow_samples,
    transport,
    verify_invariance,
)

ALL_FIELDS = (NORMAL_A, NILPOTENT_N, ROTATION_ELLIPTIC, ROTATION_PARABOLIC, ROTATION_HYPERBOLIC)


def d4(fn, t, h):
    """4th-order central derivative."""
    return (-fn(t + 2 * h) + 8 * fn(t + h) - 8 * fn(t - h) + fn(t - 2 * h)) / (12 * h)


class TestClosedForms:
    def test_scaling_flow(self):
        assert flow(NORMAL_A, 1j, math.log(2.0)) == pytest.approx(2j, rel=1e-15)

    def test_shift_flow(self):
        assert flow(NILPOTENT_N, 0.3 + 1j, 1.2) == pytest.approx(1.5 + 1j, rel=1e-15)

    def test_parabolic_unit_sample(self):
        # from i with tan t = 1: real part 1, imaginary part 1 + s^2 = 2
        w = flow(ROTATION_PARABOLIC, 1j, math.pi / 4)
        assert w == pytest.approx(1 + 2j, rel=1e-12)

    def test_elliptic_fixed_point(self):
        for t in (-1.2, 0.4, 3.0):
            assert flow(ROTATION_ELLIPTIC, 1j, t) == pytest.approx(1j, rel=1e-14)

    def test_hyperbolic_characteristics(self):
        w0 = 0.4 + 0.9j
        a, b = w0.real + w0.imag, w0.real - w0.imag
        t = 0.2
        p = math.tan(t + math.atan(a))
        q = math.tan(t + math.atan(b))
        assert flow(ROTATION_HYPERBOLIC, w0, t) == pytest.approx(
            (p + q) / 2 + 1j * (p - q) / 2, rel=1e-14
        )

    def test_stays_in_upper_half_plane(self):
        rng = np.random.default_rng(40)
        for field in ALL_FIELDS:
            for _ in range(100):
                w0 = rng.normal() + 1j * rng.uniform(0.1, 2.0)
                lo, hi = admissible_interval(field, w0)
                t = rng.uniform(max(lo, -1.2) * 0.8, min(hi, 1.2) * 0.8)
                assert flow(field, w0, t).imag > 0


class TestGroupProperty:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_composition(self, field):
        rng = np.random.default_rng(41)
        for _ in range(200):
            w0 = rng.normal() + 1j * rng.uniform(0.2, 2.0)
            lo, hi = admissible_interval(field, w0)
            span = min(hi, 1.0) - max(lo, -1.0)
            s = rng.uniform(0.05, 0.4) * span / 2
            t = rng.uniform(0.05, 0.4) * span / 2
            try:
                two_step = flow(field, flow(field, w0, s), t)
                one_step = flow(field, w0, s + t)
            except PoleError:
                continue
            assert abs(two_step - one_step) < 1e-10 * max(1.0, abs(one_step))


class TestFlowOde:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_derivative_matches_field(self, field):
        rng = np.random.default_rng(42)
        h = 1e-3
        checked = 0
        while checked < 1000:
            w0 = rng.normal() + 1j * rng.uniform(0.2, 2.0)
            lo, hi = admissible_interval(field, w0)
            t = rng.uniform(max(lo + 0.1, -1.0), min(hi - 0.1, 1.0))
            try:
                if abs(flow(field, w0, t)) > 10.0:
                    continue  # keep the stencil away from large excursions
                fd = d4(lambda u: flow(field, w0, u), t, h)
                vel = killing_velocity(field, flow(field, w0, t))
            except PoleError:
                continue
            assert abs(fd - vel) < 1e-6 * max(1.0, abs(vel))
            checked += 1

    @pytest.mark.parametrize("field,sigma", [(ROTATION_PARABOLIC, 0), (ROTATION_HYPERBOLIC, 1)])
    def test_real_coordinate_systems(self, field, sigma):
        # udot = 1 + u^2 (+ v^2 in the hyperbolic case), vdot = 2uv, to 1e-8
        rng = np.random.default_rng(43)
        h = 1e-3
        for _ in range(200):
            w0 = rng.normal(0, 0.5) + 1j * rng.uniform(0.2, 1.5)
            lo, hi = admissible_interval(field, w0)
            t = rng.uniform(max(lo + 0.2, -0.6), min(hi - 0.2, 0.6))
            try:
                w = flow(field, w0, t)
                fd = d4(lambda u: flow(field, w0, u), t, h)
            except PoleError:
                continue
            u, v = w.real, w.imag
            udot = 1 + u * u + (v * v if sigma == 1 else 0.0)
            vdot = 2 * u * v
            scale = max(1.0, abs(udot), abs(vdot))
            assert abs(fd.real - udot) < 1e-8 * scale
            assert abs(fd.imag - vdot) < 1e-8 * scale

    def test_derivative_check_examples(self):
        assert flow_derivative_check(ROTATION_PARABOLIC, 1 + 2j, 0.3) < 1e-6
        assert flow_derivative_check(NORMAL_A, 1j, 1.0) < 1e-10
        # linear flow: only rounding in the difference quotient remains
        assert flow_derivative_check(NILPOTENT_N, 0.5 + 1.5j, -2.0) < 1e-10

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_derivative_check_is_the_central_difference_against_the_field(self, field):
        # the one oracle: the centered d/dt of the flow against killing_velocity at the flowed point
        h = 1e-6
        points = np.array([0.2 + 0.5j, -0.3 + 1.2j, 0.05 + 0.3j, -0.15 + 0.65j])
        for t in (-0.25, 0.0, 0.3, 0.55):
            fd = (flow(field, points, t + h) - flow(field, points, t - h)) / (2.0 * h)
            vel = killing_velocity(field, flow(field, points, t))
            plain = np.abs(fd - vel) / np.maximum(1.0, np.abs(vel))
            assert np.array_equal(flow_derivative_check(field, points, t), plain)
            assert flow_derivative_check(field, complex(points[1]), t) == plain[1]


class TestPoles:
    def test_parabolic_interval(self):
        w0 = 1.0 + 1j  # alpha = 1: pole at pi/2 - pi/4 = pi/4
        lo, hi = admissible_interval(ROTATION_PARABOLIC, w0)
        assert hi == pytest.approx(math.pi / 4, rel=1e-12)
        assert lo == pytest.approx(-3 * math.pi / 4, rel=1e-12)
        with pytest.raises(PoleError) as info:
            flow(ROTATION_PARABOLIC, w0, math.pi / 4 + 0.01)
        assert info.value.pole_time == pytest.approx(hi, rel=1e-9)

    def test_hyperbolic_interval_intersects_characteristics(self):
        w0 = 0.5 + 0.5j  # alpha = 1, beta = 0
        lo, hi = admissible_interval(ROTATION_HYPERBOLIC, w0)
        assert hi == pytest.approx(math.pi / 4, rel=1e-12)
        assert lo == pytest.approx(-math.pi / 2, rel=1e-12)

    @pytest.mark.parametrize("field", [ROTATION_PARABOLIC, ROTATION_HYPERBOLIC], ids=["sigma0", "sigma1"])
    def test_admissible_margin_is_the_one_pole_test(self, field):
        w0 = 1.0 + 1j
        lo, hi = admissible_interval(field, w0)
        for t in (hi - 2 * _POLE_MARGIN, lo + 2 * _POLE_MARGIN):
            w, v = transport(field, w0, 0.3 - 0.2j, t)
            assert np.isfinite(flow(field, w0, t)) and np.isfinite(w) and np.isfinite(v)
        for t in (hi - _POLE_MARGIN / 2, lo + _POLE_MARGIN / 2):
            for fn in (lambda: flow(field, w0, t), lambda: transport(field, w0, 0.3 - 0.2j, t)):
                with pytest.raises(PoleError, match="leaves the admissible interval") as info:
                    fn()
                assert info.value.interval == (lo, hi)
                assert info.value.pole_time == (hi if t > 0 else lo)

    def test_isometric_kinds_have_no_poles(self):
        for field in (NORMAL_A, NILPOTENT_N, ROTATION_ELLIPTIC):
            lo, hi = admissible_interval(field, 0.3 + 1j)
            assert lo == -math.inf and hi == math.inf
            flow(field, 0.3 + 1j, 37.0)


class TestTransport:
    def test_scaling_velocity(self):
        w, v = transport(NORMAL_A, 0.4 + 1.1j, 0.3 - 0.2j, 0.8)
        assert w == pytest.approx(math.exp(0.8) * (0.4 + 1.1j), rel=1e-14)
        assert v == pytest.approx(math.exp(0.8) * (0.3 - 0.2j), rel=1e-12)

    def test_shift_velocity_unchanged(self):
        _, v = transport(NILPOTENT_N, 0.4 + 1.1j, 0.3 - 0.2j, -1.1)
        assert v == pytest.approx(0.3 - 0.2j, rel=1e-14)

    def test_fd_jacobian_matches_analytic_for_elliptic(self):
        # compute the elliptic Jacobian both ways
        w, tau = 0.7 + 1.3j, 0.5
        J_an = flow_jacobian(ROTATION_ELLIPTIC, w, tau)
        step = 1e-6
        J_fd = np.empty((2, 2))
        for col, dz in enumerate((step, 1j * step)):
            fp = flow(ROTATION_ELLIPTIC, w + dz, tau)
            fm = flow(ROTATION_ELLIPTIC, w - dz, tau)
            J_fd[0, col] = (fp.real - fm.real) / (2 * step)
            J_fd[1, col] = (fp.imag - fm.imag) / (2 * step)
        assert np.max(np.abs(J_an - J_fd)) < 1e-8

    @pytest.mark.parametrize("field", [ROTATION_PARABOLIC, ROTATION_HYPERBOLIC], ids=["sigma0", "sigma1"])
    @pytest.mark.parametrize("tau", [-0.3, 0.3])
    def test_closed_form_jacobian_matches_central_differences(self, field, tau):
        rng = np.random.default_rng(17)
        w = rng.uniform(-1.0, 1.0, 50) + 1j * rng.uniform(0.2, 1.0, 50)
        step = 1e-6
        columns = []
        for dz in (step, 1j * step):
            d = (flow(field, w + dz, tau) - flow(field, w - dz, tau)) / (2 * step)
            columns.append(np.stack([d.real, d.imag], axis=-1))
        J_fd = np.stack(columns, axis=-1)
        J_an = flow_jacobian(field, w, tau)
        assert J_an.shape == (50, 2, 2)
        gap = np.max(np.abs(J_an - J_fd), axis=(-2, -1))
        assert np.all(gap <= 1e-8 * np.max(np.abs(J_an), axis=(-2, -1)))

    def test_jacobian_beyond_the_pole_raises(self):
        with pytest.raises(PoleError):
            flow_jacobian(ROTATION_PARABOLIC, 1.0 + 1j, 1.2)  # the pole is at pi/4

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_jacobian_below_the_real_axis_raises(self, field):
        with pytest.raises(DomainError, match="open upper half-plane"):
            flow_jacobian(field, 0.3 - 1j, 0.1)


@pytest.fixture(scope="module")
def geodesic_traj():
    s = SystemState(0.0, [1j], [1.0 + 0j], [1.0], 1.0)
    return integrate(s, 1.0, tol=1e-12, max_step=0.004)


@pytest.fixture(scope="module")
def elliptic_traj():
    eq = find_equilibrium(
        EquilibriumClass.ELLIPTIC_CYCLIC,
        [1.0, 1.0],
        1.0,
        np.array([2j, 0.5j]),
        FindOptions(symmetry="axis"),
    )
    return integrate(eq, 1.0, tol=1e-12, max_step=0.004)


class TestVerifyInvariance:
    def test_geodesic_under_scaling(self, geodesic_traj):
        rep = verify_invariance(geodesic_traj, NORMAL_A, 0.9)
        assert rep.max_residual < 1e-8

    def test_equilibrium_under_rotation(self, elliptic_traj):
        rep = verify_invariance(elliptic_traj, ROTATION_ELLIPTIC, 0.7)
        assert rep.max_residual < 1e-8

    def test_group_time_independence(self, elliptic_traj):
        for tau in np.linspace(-1.5, 1.5, 10):
            rep = verify_invariance(elliptic_traj, ROTATION_ELLIPTIC, float(tau))
            assert rep.max_residual < 1e-8

    def test_loxodromic_composition(self, elliptic_traj):
        M = exp_subgroup(NORMAL_A, 0.6) @ exp_subgroup(ROTATION_ELLIPTIC, 0.6)
        rep = verify_invariance(elliptic_traj, M, 0.6)
        assert rep.transport == "mobius-element"
        assert rep.max_residual < 1e-8

    def test_nonisometric_transport_breaks_solutions(self, geodesic_traj):
        # the parabolic-rotation flow is not a half-plane isometry: pushing a
        # true solution through it must leave a visible defect
        rep = verify_invariance(geodesic_traj, ROTATION_PARABOLIC, 0.4)
        assert rep.max_residual > 1e-4

    def test_report_shape(self, geodesic_traj):
        # 301 points on 250 steps split every step in two: 501 points checked
        assert len(geodesic_traj.times) == 251
        rep = verify_invariance(geodesic_traj, NORMAL_A, 0.3, num_points=301)
        assert rep.num_points == 501
        assert verify_invariance(geodesic_traj, NORMAL_A, 0.3).num_points == 251
        assert len(rep.per_body) == 1
        d = rep.to_dict()
        assert d["transport"] == "normal"


    @pytest.mark.parametrize("spec", [ROTATION_ELLIPTIC, ROTATION_HYPERBOLIC], ids=["isometric", "sigma1"])
    def test_blocks_bound_the_memory_and_keep_the_report(self, spec, monkeypatch):
        # 40,000 asked-for points at n = 4 are 163,100 body-points: 40 blocks of 4096
        s = SystemState(0.0, [1j, 2j, 0.5 + 1.5j, -1 + 1j], [0.3, -0.3, 0.1j, 0.2 - 0.1j], [1.0, 0.5, 2.0, 1.0], 1.0)
        traj = integrate(s, 1.0, tol=1e-8)
        _step_points(traj, 40_000)  # the kept points, built once before the runs

        def run(block):
            monkeypatch.setattr(hnbody.flows, "_POINT_BLOCK", block)
            tracemalloc.start()
            try:
                report = verify_invariance(traj, spec, 0.3, num_points=40_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return report, peak

        report, blocked = run(1 << 12)
        whole_report, whole = run(1 << 40)
        assert report.num_points * traj.n == 163_100
        assert all(np.array_equal(value, getattr(whole_report, key)) for key, value in vars(report).items())
        assert blocked < 500 * (1 << 12)  # bytes per body-point of one block
        assert whole > 5 * blocked


@pytest.fixture(scope="module")
def readme_orbit():
    """The README's sim.json orbit: two bodies passing each other, t in [0, 10]."""
    s = SystemState(0.0, [1j, 2j], [0.6 + 0j, -0.6 + 0j], [1.0, 1.0], 1.0)
    return integrate(s, 10.0, tol=1e-10)


class TestExactOracles:
    @pytest.mark.parametrize("spec, tau", [
        (ROTATION_ELLIPTIC, 0.7), (NORMAL_A, 0.7), (NILPOTENT_N, 0.7),
        (exp_subgroup(NORMAL_A, 0.5) @ exp_subgroup(ROTATION_ELLIPTIC, 0.5), 0.5),
    ], ids=["elliptic", "normal", "nilpotent", "loxodromic"])
    def test_isometries_keep_the_readme_orbit_a_solution(self, readme_orbit, spec, tau):
        assert verify_invariance(readme_orbit, spec, tau).max_residual < 1e-9

    def test_hyperbolic_rotation_breaks_the_readme_orbit(self, readme_orbit):
        assert verify_invariance(readme_orbit, ROTATION_HYPERBOLIC, 0.1).max_residual > 1.0

    def test_nodes_cost_one_eom_rhs_call_on_the_transported_nodes(self, monkeypatch):
        calls = []

        def counted(state):
            calls.append(state)
            return eom_rhs(state)

        monkeypatch.setattr(hnbody.flows, "eom_rhs", counted)
        monkeypatch.setattr(hnbody.dynamics, "eom_rhs", counted)
        traj = integrate(SystemState(0.0, [1j, 2j], [0.6 + 0j, -0.6 + 0j], [1.0, 1.0], 1.0), 1.0, tol=1e-10)
        rep = verify_invariance(traj, ROTATION_ELLIPTIC, 0.7)
        assert rep.num_points == len(traj.times) and len(calls) == 1
        n, g = traj.n, exp_subgroup(ROTATION_ELLIPTIC, 0.7)
        assert np.array_equal(calls[0].t, traj.times)
        assert np.array_equal(calls[0].positions, apply_mobius(g, traj.ys[:, :n]))


def _transport_per_point(spec, W, V, tau):
    """Scalar reference: move every sampled point on its own."""
    Wt, Vt = np.empty_like(W), np.empty_like(V)
    for idx in np.ndindex(W.shape):
        w, v = complex(W[idx]), complex(V[idx])
        if isinstance(spec, KillingField):
            Wt[idx], Vt[idx] = transport(spec, w, v, tau)
        else:
            Wt[idx], Vt[idx] = apply_mobius(spec, w), mobius_derivative(spec, w) * v
    return Wt, Vt


TRANSPORTS = ALL_FIELDS + (exp_subgroup(NORMAL_A, 0.3) @ exp_subgroup(ROTATION_ELLIPTIC, 0.3),)


class TestArrayTransport:
    @pytest.mark.parametrize("spec", TRANSPORTS)
    def test_transported_states_match_per_point(self, elliptic_traj, spec):
        tau = 0.2
        W, V = elliptic_traj.sample_many(np.linspace(elliptic_traj.t0, elliptic_traj.t1, 41))
        if isinstance(spec, KillingField):
            Wt, Vt = transport(spec, W, V, tau)
        else:
            Wt, Vt = apply_mobius(spec, W), mobius_derivative(spec, W) * V
        Wr, Vr = _transport_per_point(spec, W, V, tau)
        assert Wt.shape == Vt.shape == W.shape
        assert np.max(np.abs(Wt - Wr) / np.abs(Wr)) <= 1e-12
        assert np.max(np.abs(Vt - Vr) / np.abs(Vr)) <= 1e-12

    @pytest.mark.parametrize("spec", TRANSPORTS)
    def test_report_matches_per_point_reference(self, elliptic_traj, spec):
        # at every node, the curve w + e v + e^2 a / 2 through the node's position,
        # velocity and acceleration is pushed through the transport, and its
        # central differences in e give the transported velocity and acceleration
        tau, eps, traj = 0.2, 3e-4, elliptic_traj
        n = traj.n

        def moved(w):
            return flow(spec, w, tau) if isinstance(spec, KillingField) else apply_mobius(spec, w)

        rep = verify_invariance(traj, spec, tau)
        per_body = np.zeros(n)
        for t, y, f in zip(traj.times, traj.ys, traj.fs):
            Wt, Vt, At = (np.empty(n, dtype=complex) for _ in range(3))
            for k in range(n):
                w, v, a = complex(y[k]), complex(y[n + k]), complex(f[n + k])
                ahead, here, back = (moved(w + e * v + e * e * a / 2.0) for e in (eps, 0.0, -eps))
                Wt[k], Vt[k], At[k] = here, (ahead - back) / (2.0 * eps), (ahead - 2.0 * here + back) / eps ** 2
            state = SystemState(float(t), Wt, Vt, traj.masses, traj.R)
            per_body = np.maximum(per_body, np.abs(At - eom_rhs(state)))
        assert rep.num_points == len(traj.times)
        tol = 1e-6 * max(1.0, per_body.max())
        assert np.max(np.abs(np.array(rep.per_body) - per_body)) <= tol
        assert abs(rep.max_residual - per_body.max()) <= tol

    def test_flow_grid_matches_per_point(self):
        points = np.array([0.2 + 0.5j, -0.3 + 1.2j, 0.05 + 0.3j])
        ts = np.linspace(-0.4, 0.4, 7)
        for field in ALL_FIELDS:
            grid = flow(field, points[None, :], ts[:, None])
            ref = np.array([[flow(field, complex(w), float(t)) for w in points] for t in ts])
            assert np.max(np.abs(grid - ref) / np.abs(ref)) <= 1e-14
            assert isinstance(flow(field, complex(points[0]), 0.1), complex)

    def test_derivative_check_on_arrays(self):
        points = np.array([0.2 + 0.5j, -0.3 + 1.2j, 0.05 + 0.3j])
        for field in ALL_FIELDS:
            defects = flow_derivative_check(field, points, 0.3)
            ref = [flow_derivative_check(field, complex(w), 0.3) for w in points]
            assert defects.shape == (3,) and np.max(np.abs(defects - ref)) < 1e-9

    def test_one_pole_crossing_point_raises(self, geodesic_traj):
        points = np.array([0.1 + 0.2j, 1j, 1.0 + 1j])  # the last one's pole is at pi/4
        t = math.pi / 4 + 0.01
        with pytest.raises(PoleError) as info:
            flow(ROTATION_PARABOLIC, points, t)
        assert info.value.pole_time == pytest.approx(math.pi / 4, rel=1e-9)
        with pytest.raises(PoleError):
            transport(ROTATION_PARABOLIC, points, np.zeros(3, complex), t)
        # the geodesic runs from i to Re w ~ 0.76; past arctan(0.5) only its later points cross
        with pytest.raises(PoleError):
            verify_invariance(geodesic_traj, ROTATION_PARABOLIC, math.pi / 2 - math.atan(0.5))

    def test_arrays_keep_the_half_plane_check(self):
        points = np.array([1j, 0.5 - 0.1j])
        with pytest.raises(DomainError):
            flow(NORMAL_A, points, 0.1)
        with pytest.raises(DomainError):
            apply_mobius(exp_subgroup(ROTATION_ELLIPTIC, 0.3), points)
        with pytest.raises(DomainError):
            transport(ROTATION_HYPERBOLIC, points, points, 0.1)


ARRAY_POINTS = np.array([0.1 + 0.2j, -0.3 + 1.2j, 0.05 + 0.3j, 1.0 + 1j])
ARRAY_VELOCITIES = np.array([0.3 - 0.2j, -1.1 + 0.4j, 0.0 + 2.0j, 0.7 + 0.0j])


def _counting_pole_tests(monkeypatch):
    """Count the calls of the flows' one pole test."""
    calls = []
    original = hnbody.flows._require_admissible

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hnbody.flows, "_require_admissible", counted)
    return calls


class TestOneFlowMap:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_transport_image_is_the_flow_bit_for_bit(self, field):
        w, _ = transport(field, ARRAY_POINTS, ARRAY_VELOCITIES, 0.3)
        assert w.shape == ARRAY_POINTS.shape
        assert w.tobytes() == flow(field, ARRAY_POINTS, 0.3).tobytes()

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_transport_velocity_is_the_jacobian_product(self, field):
        _, v = transport(field, ARRAY_POINTS, ARRAY_VELOCITIES, 0.3)
        J = flow_jacobian(field, ARRAY_POINTS, 0.3)
        ref = J @ np.stack([ARRAY_VELOCITIES.real, ARRAY_VELOCITIES.imag], axis=-1)[..., None]
        ref = ref[..., 0, 0] + 1j * ref[..., 1, 0]
        scale = np.abs(J).max(axis=(-2, -1)) * np.abs(ARRAY_VELOCITIES)
        assert np.all(np.abs(v - ref) <= 4 * np.finfo(float).eps * scale)

    def test_normal_flow_is_the_subgroup_action_bit_for_bit(self):
        image = apply_mobius(exp_subgroup(NORMAL_A, 0.3), ARRAY_POINTS)
        assert flow(NORMAL_A, ARRAY_POINTS, 0.3).tobytes() == image.tobytes()

    @pytest.mark.parametrize("field", [NORMAL_A, NILPOTENT_N, ROTATION_ELLIPTIC])
    def test_isometric_transport_velocity_is_v_over_den_squared(self, field):
        g = exp_subgroup(field, 0.3)
        den = g.c * ARRAY_POINTS + g.d
        _, v = transport(field, ARRAY_POINTS, ARRAY_VELOCITIES, 0.3)
        assert v.tobytes() == (ARRAY_VELOCITIES / den ** 2).tobytes()

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_jacobian_columns_are_the_transported_unit_vectors(self, field):
        J = flow_jacobian(field, ARRAY_POINTS, 0.3)
        for col, e in enumerate((1.0, 1j)):
            _, v = transport(field, ARRAY_POINTS, np.full(ARRAY_POINTS.shape, e, dtype=complex), 0.3)
            assert J[..., 0, col].tobytes() == v.real.tobytes()
            assert J[..., 1, col].tobytes() == v.imag.tobytes()

    @pytest.mark.parametrize("spec", TRANSPORTS)
    def test_verify_invariance_makes_one_push(self, elliptic_traj, spec, monkeypatch):
        calls = []
        push = hnbody.flows._push
        monkeypatch.setattr(hnbody.flows, "_push", lambda *args: calls.append(args) or push(*args))
        verify_invariance(elliptic_traj, spec, 0.2)
        assert len(calls) == 1

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_transport_runs_at_most_one_pole_test(self, field, monkeypatch):
        calls = _counting_pole_tests(monkeypatch)
        transport(field, ARRAY_POINTS, ARRAY_VELOCITIES, 0.3)
        assert len(calls) == (0 if field.isometric else 1)

    @pytest.mark.parametrize("field, t", [(ROTATION_PARABOLIC, 0.8), (ROTATION_HYPERBOLIC, 0.5)],
                             ids=["sigma0", "sigma1"])
    def test_point_past_its_pole_raises_one_pole_error(self, field, t, monkeypatch):
        # only the last point, 1 + i, has its pole before t (pi/4 and pi/2 - atan 2)
        lo, hi = admissible_interval(field, ARRAY_POINTS)
        assert np.flatnonzero(hi - _POLE_MARGIN <= t).tolist() == [3]
        calls = _counting_pole_tests(monkeypatch)
        with pytest.raises(PoleError, match="leaves the admissible interval") as info:
            transport(field, ARRAY_POINTS, ARRAY_VELOCITIES, t)
        assert len(calls) == 1
        assert info.value.pole_time == hi[3] and info.value.interval == (lo[3], hi[3])


class TestFlowSamples:
    def test_rows_match_closed_form(self):
        pts = [1j, 0.5 + 1j]
        ts = [0.0, 0.2, 0.4]
        rows = flow_samples(ROTATION_PARABOLIC, pts, ts)
        assert len(rows) == 6
        t, s, k, re, im = rows[2]
        assert (t, k) == (0.2, 0)
        assert s == pytest.approx(math.tan(0.2), rel=1e-15)
        w = flow(ROTATION_PARABOLIC, 1j, 0.2)
        assert re == pytest.approx(w.real, rel=1e-14, abs=1e-14)
        assert im == pytest.approx(w.imag, rel=1e-14)

    def test_s_equals_t_for_isometric_translations(self):
        rows = flow_samples(NORMAL_A, [1j], [0.3])
        assert rows[0][1] == 0.3

    def test_rotation_window_enforced(self):
        with pytest.raises(DomainError):
            flow_samples(ROTATION_ELLIPTIC, [1j], [2.0])
