import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hnbody import dynamics
from hnbody.clifford import exp_subgroup, NORMAL_A, NILPOTENT_N, random_unimodular
from hnbody.dynamics import (
    ConservedQuantities,
    SystemState,
    Trajectory,
    conserved,
    cotangent_potential,
    eom_interaction,
    eom_rhs,
    gradient_consistency,
    integrate,
    min_pair_theta,
    theta,
    vlasov_weak_residual,
)
from hnbody.dynamics import _PAIR_CHUNK, _Workspace, _kernel, _pair_tables, _pairs
from hnbody.errors import DomainError, SingularityError, StepSizeError
from hnbody.geometry import apply_mobius, geodesic_through
from hnbody.equilibria import CLASS_DRIFT, EquilibriumClass, FindOptions, _interaction, find_equilibrium
from hnbody.flows import flow


def two_body(positions, velocities=(0j, 0j), masses=(1.0, 1.0), R=1.0, t=0.0):
    return SystemState(t, positions, velocities, masses, R)


@pytest.fixture(scope="module")
def elliptic_pair():
    return find_equilibrium(
        EquilibriumClass.ELLIPTIC_CYCLIC,
        [1.0, 1.0],
        1.0,
        np.array([2j, 0.5j]),
        FindOptions(symmetry="axis"),
    )


def _reference_kernel(w, v, masses, R, t=None):
    """The pair kernel's arithmetic written out op for op: (accelerations, interaction sums
    S_k = -4 (A - 2i y B)), or the verdict (pair, time, theta, message) of a singular input."""
    wk, wj = w[..., :, None], w[..., None, :]
    dx = wk.real - wj.real
    dy = wk.imag - wj.imag
    sy = wk.imag + wj.imag
    dx2 = dx * dx
    near = dy * dy
    near += dx2
    far = sy * sy
    far += dx2
    th = near * far
    th *= 4.0
    for table in near, th:
        table += np.diag(np.full(w.shape[-1], math.inf))
    singular = (near < 1.0 * math.tanh(5e-7) ** 2 * far) | (th < 1.0 * 1e-200)
    if singular.any():
        row = np.unravel_index(np.argmax(singular), singular.shape)[:-2]
        with np.errstate(all="ignore"):
            worst = int(np.argmin(np.where(singular[row], near[row] / far[row], math.inf)))
        pair, value = divmod(worst, w.shape[-1]), float(th[row].flat[worst])
        time = None if t is None else float(np.asarray(t)[row])
        when = "" if time is None else f" at t = {time}"
        return pair, time, value, f"pair {pair} touched the singular set{when} (theta = {value:.3e})"
    y = w.imag
    g = np.sqrt(th)
    g *= th
    np.divide((masses * y * y)[..., None, :], g, out=g)
    re = dy * sy
    re -= dx2
    re *= g
    g *= dx
    A, B = np.add.reduce(re, axis=-1), np.add.reduce(g, axis=-1)
    interaction = -4.0 * (A - 2j * w.imag * B)
    c = y ** 3
    c *= -128.0 / R
    B *= y
    B *= c
    A *= c
    A *= 0.5
    geodesic = v * v
    geodesic /= y
    out = np.empty_like(geodesic)
    np.add(geodesic.imag, B, out=out.real)
    np.subtract(A, geodesic.real, out=out.imag)
    return out, interaction


class TestTheta:
    def test_axis_pair(self):
        # on the axis the cross terms drop: theta(ia, ib) = 4 (a^2 - b^2)^2
        assert theta(1j, 2j) == 36.0
        for a, b in ((0.5, 2.0), (1.0, 3.0), (2.0, 2.5)):
            assert theta(1j * a, 1j * b) == pytest.approx(4 * (a * a - b * b) ** 2, rel=1e-14)

    def test_coincident_is_zero(self):
        for w in (1j, 0.7 + 2.3j, -4 + 0.1j, 1e8 + 1e-8j):
            assert theta(w, w) == 0.0
        assert min_pair_theta(np.array([0.7 + 2.3j, 0.7 + 2.3j])) == 0.0

    def test_hand_value(self):
        assert theta(1 + 1j, 1 + 2j) == 36.0

    def test_min_pair_theta_of_a_nan_position_is_nan(self):
        # per configuration, without a verdict or a warning
        w = np.array([[1j, 2j, 3j], [1j, complex(math.nan, 1.0), 2j]])
        got = min_pair_theta(w)
        assert got[0] == 36.0 and math.isnan(got[1])

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            w1 = rng.normal() + 1j * rng.uniform(0.05, 4.0)
            w2 = rng.normal() + 1j * rng.uniform(0.05, 4.0)
            assert theta(w1, w2) == theta(w2, w1)

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            w1 = rng.normal() + 1j * rng.uniform(0.05, 4.0)
            w2 = rng.normal() + 1j * rng.uniform(0.05, 4.0)
            assert theta(w1, w2) >= 0.0

    def test_verdict_state_to_rounding(self):
        # the head-on pair at its verdict: the expanded form cross^2 - 16 y1^2 y2^2
        # cancels 13 digits here and was off by 7.7e-5 relative
        w1, w2 = 1.4142133653892559j, 1.4142137576758775j
        exact = _exact_theta(w1, w2)
        factored = 4.0 * abs(w1 - w2) ** 2 * abs(w1 - w2.conjugate()) ** 2
        assert float(exact) == pytest.approx(factored, rel=1e-14, abs=0)
        assert theta(w1, w2) == pytest.approx(float(exact), rel=1e-14, abs=0)
        assert min_pair_theta(np.array([w1, w2])) == theta(w1, w2)

    @pytest.mark.parametrize("where", ["near-collision", "near-imaginary-axis", "near-real-axis"])
    def test_near_singular_pairs_to_rounding(self, where):
        rng = np.random.default_rng(24)
        for _ in range(300):
            if where == "near-collision":
                w1 = rng.normal() + 1j * rng.uniform(0.05, 4.0)
            elif where == "near-imaginary-axis":
                w1 = 1e-9 * rng.normal() + 1j * rng.uniform(0.05, 4.0)
            else:
                w1 = rng.normal() + 1j * rng.uniform(1e-9, 1e-6)
            eps = 10.0 ** rng.uniform(-12, -3) * w1.imag
            w2 = w1 + eps * complex(rng.normal(), rng.normal())
            if w2.imag <= 0:
                continue
            t12, t21 = theta(w1, w2), theta(w2, w1)
            assert t12 == t21
            assert t12 >= 0.0
            assert t12 == pytest.approx(float(_exact_theta(w1, w2)), rel=1e-14, abs=0)


def _exact_theta(w1: complex, w2: complex) -> Fraction:
    """theta = cross^2 - 16 y1^2 y2^2 with cross = 4 x1 x2 - 2 (|w1|^2 + |w2|^2),
    in exact rational arithmetic on the float coordinates."""
    x1, y1, x2, y2 = (Fraction(c) for c in (w1.real, w1.imag, w2.real, w2.imag))
    cross = 4 * x1 * x2 - 2 * (x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2)
    return cross * cross - 16 * y1 * y1 * y2 * y2


class TestPotential:
    def test_hand_value(self):
        s = two_body([1j, 2j])
        assert cotangent_potential(s) == pytest.approx(-5.0 / 3.0, rel=1e-15)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = rng.integers(2, 5)
            w = rng.normal(size=n) + 1j * rng.uniform(0.2, 3.0, n)
            m = rng.uniform(0.2, 2.0, n)
            s = SystemState(0.0, w, np.zeros(n, complex), m, 1.0)
            v0 = cotangent_potential(s)
            A = random_unimodular(rng)
            w2 = np.array([apply_mobius(A, wk) for wk in w])
            s2 = SystemState(0.0, w2, np.zeros(n, complex), m, 1.0)
            assert abs(cotangent_potential(s2) - v0) < 1e-10 * max(1.0, abs(v0))

    def test_scaling_flow_invariance(self):
        w = np.array([0.3 + 1j, -0.4 + 2j])
        s = two_body(w)
        v0 = cotangent_potential(s)
        for t in (-1.0, 0.5, 2.0):
            s2 = two_body(math.exp(t) * w)
            assert cotangent_potential(s2) == pytest.approx(v0, rel=1e-12)

    def test_single_body_zero(self):
        s = SystemState(0.0, [1j], [0j], [1.0], 1.0)
        assert cotangent_potential(s) == 0.0

    def test_collision_raises(self):
        with pytest.raises(SingularityError):
            cotangent_potential(two_body([1j, 1j + 1e-30]))


class TestEomRhs:
    def test_rest_pair_hand_value(self):
        s = two_body([1j, 2j])
        acc = eom_rhs(s)
        assert abs(acc[0] - (32.0 / 9.0) * 1j) < 1e-12
        # attraction: the upper body accelerates downward
        assert acc[1].imag < 0

    def test_single_body_pure_geodesic(self):
        s = SystemState(0.0, [0.5 + 2j], [1.0 + 0.5j], [1.0], 1.0)
        w, v = s.positions[0], s.velocities[0]
        assert eom_rhs(s)[0] == 2.0 * v * v / (w - np.conjugate(w))

    def test_axis_pair_accelerations_imaginary(self):
        for a, b in ((1.0, 2.0), (0.5, 3.0)):
            s = two_body([1j * a, 1j * b])
            acc = eom_rhs(s)
            assert np.max(np.abs(acc.real)) < 1e-14
            # equal masses attract toward each other along the axis
            assert acc[0].imag * acc[1].imag < 0

    def test_equivariance_under_isometric_subgroups(self):
        rng = np.random.default_rng(23)
        for field, tau in ((NORMAL_A, 0.7), (NILPOTENT_N, -1.3), (NORMAL_A, -0.4)):
            A = exp_subgroup(field, tau)
            for _ in range(40):
                n = rng.integers(2, 5)
                w = rng.normal(size=n) + 1j * rng.uniform(0.3, 3.0, n)
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                m = rng.uniform(0.2, 2.0, n)
                s = SystemState(0.0, w, v, m, 1.0)
                acc = eom_rhs(s)
                den = A.c * w + A.d
                f1 = 1.0 / den**2
                f2 = -2.0 * A.c / den**3
                wt = np.array([apply_mobius(A, wk) for wk in w])
                st = SystemState(0.0, wt, f1 * v, m, 1.0)
                transported = f2 * v * v + f1 * acc
                err = np.max(np.abs(eom_rhs(st) - transported))
                assert err < 1e-9 * max(1.0, float(np.max(np.abs(transported))))

    def test_interaction_matches_the_complex_pair_sum(self):
        # per-pair reference of the closed form, theta in exact arithmetic
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            w = rng.normal(size=n) + 1j * rng.uniform(0.2, 3.0, n)
            m = rng.uniform(0.2, 2.0, n)
            R = float(rng.uniform(0.5, 2.0))
            ref = np.zeros(n, complex)
            for k in range(n):
                for j in range(n):
                    if j != k:
                        wk, wj = w[k], w[j]
                        th = float(_exact_theta(complex(wk), complex(wj)))
                        ref[k] += m[j] * (wj.conjugate() - wj) ** 2 * (wk - wj) * (wj.conjugate() - wk) / th ** 1.5
                ref[k] *= -2.0 * (w[k] - w[k].conjugate()) ** 3 / R
            got = eom_interaction(SystemState(0.0, w, np.zeros(n, complex), m, R))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_singularity_guard_reports_pair(self):
        with pytest.raises(SingularityError) as info:
            eom_rhs(two_body([1j, 1j + 1e-9]))
        assert info.value.pair == (0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 128, "axis dive"])
    def test_integrator_rhs_is_eom_rhs_bit_for_bit(self, n):
        # the integrator writes the same kernel into its stage buffers, which every
        # attempt overwrites: no node may keep a view of them, and a run that ends in
        # a verdict may leave nothing behind that a later run reads
        if n == "axis dive":  # the dive of test_stage_below_the_real_axis_is_a_stage_failure
            s, run = SystemState(0.0, [0.001j, 5.0 + 1j], [-0.005j, 0j], [1.0, 1.0], 1.0), dict(t_end=2.0, tol=1e-8)
        else:
            rng = np.random.default_rng(n)
            w = np.linspace(-0.2, 0.2, n) * n + 1j * rng.uniform(0.5, 2.0, n)
            v = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            s = SystemState(0.0, w, v, rng.uniform(0.2, 2.0, n), float(rng.uniform(0.5, 2.0)))
            run = dict(t_end=0.01, tol=1e-8, max_step=0.002)
        traj = integrate(s, **run)
        if n == "axis dive":
            assert traj.stats.rejected > traj.stats.stage_failures > 0  # both kinds of rejection
        for y, f in zip(traj.ys, traj.fs):
            assert np.array_equal(f[:s.n], y[s.n:])
            assert np.array_equal(f[s.n:], eom_rhs(SystemState(0.0, y[:s.n], y[s.n:], s.masses, s.R)))
        # in address order, two overlapping rows would include a neighbouring pair
        rows = sorted([*traj.ys, *traj.fs], key=lambda row: row.__array_interface__["data"][0])
        assert not any(np.shares_memory(a, b) for a, b in zip(rows, rows[1:]))
        with pytest.raises(SingularityError):
            integrate(two_body([1j, 2j]), 1.0, tol=1e-8)
        again = integrate(s, **run)
        assert np.array_equal(again.times, traj.times)
        assert np.array_equal(again.ys, traj.ys) and np.array_equal(again.fs, traj.fs)
        assert again.stats == traj.stats

    # the last shape is a series of more than three _over_rows chunks
    @pytest.mark.parametrize("shape", [(1,), (2,), (5,), (8,), (4, 1), (4, 3), (6, 7), (3 * _PAIR_CHUNK // 64 + 5, 8)])
    def test_inf_diagonal_guard_matches_the_triu_gather(self, shape):
        rng = np.random.default_rng(sum(shape))
        w = rng.normal(size=shape) + 1j * rng.uniform(0.1, 3.0, shape)
        iu = np.triu_indices(shape[-1], k=1)
        x, y = w.real, w.imag
        full = _pair_tables(x[..., :, None], y[..., :, None], x[..., None, :], y[..., None, :]).theta
        gathered = full[..., iu[0], iu[1]]
        expect = gathered.min(axis=-1, initial=math.inf)
        table = _pairs(w).theta
        assert np.array_equal(table[..., iu[0], iu[1]], gathered)
        assert np.array_equal(table[..., iu[1], iu[0]], gathered)
        assert np.all(np.diagonal(table, axis1=-2, axis2=-1) == math.inf)
        assert np.array_equal(table.min(axis=(-2, -1)), expect)
        assert np.array_equal(min_pair_theta(w), expect)
        if shape[-1] == 1:
            assert np.all(min_pair_theta(w) == math.inf)
        # the potential against the k < j sum of m_k m_j cross / sqrt(theta) / R, cross = -(near + far)
        m, R = rng.uniform(0.2, 2.0, shape[-1]), 1.7
        pairs = _pair_tables(x[..., iu[0]], y[..., iu[0]], x[..., iu[1]], y[..., iu[1]])
        terms = m[iu[0]] * m[iu[1]] * -(pairs.near + pairs.far) / np.sqrt(pairs.theta)
        reference = np.sum(terms, axis=-1) / R
        potential = cotangent_potential(SystemState(np.zeros(shape[:-1]), w, np.zeros_like(w), m, R))
        assert np.shape(potential) == shape[:-1]
        assert np.allclose(potential, reference, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("w, pair", [
        ([-1e-8 + 1j, 1j, 1e-8 + 1j], (0, 1)),  # (0, 1) ties (1, 2)
        ([-1e-8 + 1j, 1e-8 + 1j, 1j], (0, 2)),  # (0, 2) ties (1, 2)
        ([3j, -1e-8 + 1j, 5j, 1j, 1e-8 + 1j], (1, 3)),  # (1, 3) ties (3, 4)
    ])
    def test_tied_pairs_give_the_first_pair_in_triu_order(self, w, pair):
        w = np.array(w)
        s = SystemState(0.0, w, np.zeros_like(w), np.ones(w.size), 1.0)
        with pytest.raises(SingularityError) as info:
            eom_rhs(s)
        with pytest.raises(SingularityError) as potential:
            cotangent_potential(s)
        assert info.value.pair == pair == potential.value.pair
        assert info.value.theta == potential.value.theta
        assert str(potential.value) == str(info.value)

    @pytest.mark.parametrize("d", [5e-7, 8e-7, 1.25e-6, 2e-6, 1e-3])
    def test_verdict_depends_only_on_the_hyperbolic_distance(self, d):
        # the vertical pair i, i e^d at distance d, its images under random
        # isometries, scales by 1e-6 and 1e6 and a nilpotent shift by 1e40
        # (exact on a vertical pair): a verdict exactly when d < 1e-6
        pair = np.array([1j, 1j * math.exp(d)])
        rng = np.random.default_rng(26)
        images = [np.array([apply_mobius(A, w) for w in pair]) for A in (random_unimodular(rng) for _ in range(20))]
        images += [pair, 1e-6 * pair, 1e6 * pair, pair + 1e40]
        for w in images:
            s = two_body(w)
            if d < 1e-6:
                with pytest.raises(SingularityError):
                    _pairs(w)
                with pytest.raises(SingularityError):
                    cotangent_potential(s)
            else:
                _pairs(w)
                cotangent_potential(s)

    def test_far_body_leaves_the_pair_verdict_alone(self):
        # the pair at d = 0.0114 is no closer with a third body at 30 + i
        pair = [0.07j, 0.0008 + 0.07j]
        for w in (pair, pair + [30 + 1j]):
            s = SystemState(0.0, w, np.zeros(len(w), complex), np.ones(len(w)), 1.0)
            _pairs(s.positions)  # no verdict
            eom_rhs(s)
            cotangent_potential(s)

    def test_potential_verdict_over_chunks_names_the_row_of_eom_rhs(self):
        # a series of several _over_rows chunks with one singular row
        n, T, bad = 8, 3 * _PAIR_CHUNK // 64 + 5, 2 * _PAIR_CHUNK // 64 + 17
        rng = np.random.default_rng(5)
        w = np.linspace(-3.0, 3.0, n) + 1j * rng.uniform(0.5, 2.0, (T, n))
        w[bad, 5] = w[bad, 2] + 1e-9j
        s = SystemState(np.linspace(0.0, 1.0, T), w, np.zeros_like(w), np.ones(n), 1.0)
        with pytest.raises(SingularityError) as potential:
            cotangent_potential(s)
        with pytest.raises(SingularityError) as row:
            eom_rhs(SystemState(s.t[bad], w[bad], np.zeros(n, complex), s.masses, s.R))
        assert potential.value.time == s.t[bad]
        assert potential.value.pair == row.value.pair == (2, 5)
        assert potential.value.theta == row.value.theta

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 128])
    def test_kernel_is_the_reference_arithmetic_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        m, R = rng.uniform(0.2, 2.0, n), float(rng.uniform(0.5, 2.0))
        w = np.linspace(-0.3, 0.3, n) * n + 1j * rng.uniform(0.3, 3.0, (3, n))
        v = 0.3 * (rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)))
        for rows in (w[0], v[0]), (w, v):  # one state, and a (T, n) series
            s = SystemState(np.zeros(rows[0].shape[:-1]), *rows, m, R)
            accel, _ = _reference_kernel(*rows, m, R)
            at_rest, _ = _reference_kernel(rows[0], np.zeros_like(rows[1]), m, R)
            assert np.array_equal(eom_rhs(s), accel)
            assert np.array_equal(eom_interaction(s), at_rest)
        # the residual systems of equilibria, on the stacked (2p, p) rows of a Jacobian
        p = min(n, 8)
        stacked = np.repeat(w[0, None, :p], 2 * p, axis=0)
        stacked[np.arange(2 * p), np.arange(2 * p) // 2] += np.tile([1e-7, 1e-7j], p)
        _, interaction = _reference_kernel(stacked, np.zeros_like(stacked), m[:p], R)
        assert np.array_equal(_interaction(stacked, m[:p]), interaction)

    def test_kernel_verdict_of_a_singular_row_is_the_reference_verdict(self):
        n, T, bad = 8, 5, 3
        rng = np.random.default_rng(9)
        w = np.linspace(-3.0, 3.0, n) + 1j * rng.uniform(0.5, 2.0, (T, n))
        w[bad, 6] = w[bad, 1] + 3e-8 + 1e-7j
        t = np.linspace(0.0, 0.4, T)
        pair, time, value, message = _reference_kernel(w, np.zeros_like(w), np.ones(n), 1.0, t)
        with pytest.raises(SingularityError) as info:
            eom_rhs(SystemState(t, w, np.zeros_like(w), np.ones(n), 1.0))
        assert (info.value.pair, info.value.time, info.value.theta, str(info.value)) == (pair, time, value, message)
        assert pair == (1, 6) and time == t[bad]

    @pytest.mark.parametrize("w", [[1e-170j], [1e-170j, 1 + 1e-170j]])
    def test_tiny_heights_keep_the_geodesic_term(self, w):
        # far_kk = 4 y_k^2 underflows to 0 here, so the +inf diagonal of theta
        # must not come from near's (inf * 0 is nan)
        s = SystemState(0.0, w, [0.1] * len(w), [1.0] * len(w), 1.0)
        rhs = eom_rhs(s)
        assert np.array_equal(rhs, _reference_kernel(s.positions, s.velocities, s.masses, 1.0)[0])
        assert np.all(rhs == -(0.1 * 0.1 / 1e-170) * 1j)  # -1e168 i per body
        assert np.all(np.diagonal(_pairs(s.positions).theta) == math.inf)
        ws = _Workspace(s.positions.shape)
        _kernel(ws, s.positions, s.masses)
        low = np.fmin.reduce(ws.tables.theta, None, initial=math.inf)  # as integrate reads it per node
        assert low == (math.inf if len(w) == 1 else 4.0)

    def test_non_finite_state_raises_without_warnings(self):
        # RuntimeWarnings are errors under the suite's settings
        s = SystemState(0.0, [1j], [1e300], [1.0], 1.0)
        with pytest.raises(StepSizeError, match="non-finite derivative"):
            integrate(s, 0.1)


class TestGradientConsistency:
    def test_two_body_example(self):
        rep = gradient_consistency(two_body([1j, 2j]))
        assert rep.sign == -1.0
        assert rep.max_rel_error < 1e-6

    def test_three_bodies_radius_two(self):
        rng = np.random.default_rng(24)
        w = rng.normal(size=3) + 1j * rng.uniform(0.5, 2.5, 3)
        m = rng.uniform(0.5, 2.0, 3)
        s = SystemState(0.0, w, np.zeros(3, complex), m, 2.0)
        rep = gradient_consistency(s)
        assert rep.sign == -1.0
        assert rep.max_rel_error < 1e-5

    def test_single_body_trivial(self):
        s = SystemState(0.0, [1j], [0j], [1.0], 1.0)
        rep = gradient_consistency(s)
        assert rep.max_rel_error == 0.0

    def test_sign_is_global(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            w = rng.normal(size=n) + 1j * rng.uniform(0.5, 2.5, n)
            # keep pairs comfortably separated so the FD oracle is well-scaled
            if min_pair_theta(w) < 1e-2:
                continue
            m = rng.uniform(0.2, 2.0, n)
            R = float(rng.choice([0.5, 1.0, 2.0]))
            s = SystemState(0.0, w, np.zeros(n, complex), m, R)
            rep = gradient_consistency(s)
            assert rep.sign == -1.0
            assert rep.max_rel_error < 1e-5

    def test_step_underflow_rejected(self):
        with pytest.raises(DomainError):
            gradient_consistency(two_body([1j, 2j]), step=1e-20)


class TestConserved:
    def test_single_body_kinetic(self):
        s = SystemState(0.0, [1j], [1.0 + 0j], [1.0], 1.0)
        q = conserved(s)
        assert q.energy == pytest.approx(0.5, rel=1e-15)

    def test_rotation_momentum_vanishes_at_fixed_point(self):
        s = SystemState(0.0, [1j, 3j], [0.7 + 0.2j, 0j], [1.0, 1.0], 1.0)
        # the body at i contributes nothing to the rotation momentum
        q_with = conserved(s)
        s0 = SystemState(0.0, [3j], [0j], [1.0], 1.0)
        assert q_with.momenta[2] == pytest.approx(conserved(s0).momenta[2], abs=1e-15)

    def test_zero_velocities_zero_momenta(self):
        s = two_body([0.4 + 1j, -0.3 + 2j])
        assert np.all(conserved(s).momenta == 0.0)

    def test_is_dataclass_with_dict(self):
        q = conserved(two_body([1j, 2j], (0.1 + 0j, 0j)))
        d = q.as_dict()
        assert set(d) == {"energy", "momentum_normal", "momentum_nilpotent", "momentum_rotation"}


def test_a_series_of_zero_rows_gives_empty_results():
    empty = SystemState(np.zeros(0), np.zeros((0, 2), complex) + 1j, np.zeros((0, 2), complex), [1, 1], 1)
    for fn in (eom_rhs, eom_interaction):
        got = fn(empty)
        assert got.shape == (0, 2) and got.dtype == complex
    assert cotangent_potential(empty).shape == (0,)
    q = conserved(empty)
    assert q.energy.shape == (0,) and q.momenta.shape == (3, 0)


class TestIntegrate:
    def test_free_motion_follows_geodesic(self):
        s = SystemState(0.0, [1j], [1.0 + 0j], [1.0], 1.0)
        traj = integrate(s, 1.0, tol=1e-11)
        # tangent 1 at i: the unit half-circle about the origin
        arc = geodesic_through(1j, traj.sample(1.0)[0][0])
        assert arc.kind == "circle"
        for t in np.linspace(0.0, 1.0, 23):
            w = traj.sample(t)[0][0]
            assert abs(abs(w) - 1.0) < 1e-8

    def test_time_reversal(self):
        s = two_body([1j, 2j], (0.6 + 0j, -0.6 + 0j))
        traj = integrate(s, 3.0, tol=1e-11)
        w1, v1 = traj.sample(3.0)
        back = integrate(SystemState(0.0, w1, -v1, s.masses, s.R), 3.0, tol=1e-11)
        w0, v0 = back.sample(3.0)
        assert np.max(np.abs(w0 - s.positions)) < 1e-6
        assert np.max(np.abs(v0 + s.velocities)) < 1e-6

    def test_equilibrium_orbit_follows_flow(self, elliptic_pair):
        from hnbody.clifford import ROTATION_ELLIPTIC

        traj = integrate(elliptic_pair, 2.0, tol=1e-12)
        for t in np.linspace(0.0, 2.0, 17):
            w, _ = traj.sample(t)
            ref = np.array([flow(ROTATION_ELLIPTIC, w0, t) for w0 in elliptic_pair.positions])
            assert np.max(np.abs(w - ref)) < 1e-8

    def test_transported_equilibrium_reintegrates(self, elliptic_pair):
        # pushing the initial data along the rotation flow yields another
        # solution that still rides the flow
        from hnbody.clifford import ROTATION_ELLIPTIC
        from hnbody.flows import transport

        tau = 0.55
        moved = [
            transport(ROTATION_ELLIPTIC, w, v, tau)
            for w, v in zip(elliptic_pair.positions, elliptic_pair.velocities)
        ]
        s = SystemState(
            0.0,
            [m[0] for m in moved],
            [m[1] for m in moved],
            elliptic_pair.masses,
            elliptic_pair.R,
        )
        traj = integrate(s, 1.0, tol=1e-12)
        for t in np.linspace(0.0, 1.0, 9):
            w, _ = traj.sample(t)
            ref = np.array([flow(ROTATION_ELLIPTIC, w0, t) for w0 in s.positions])
            assert np.max(np.abs(w - ref)) < 1e-8

    def test_collision_gives_singularity_verdict(self):
        # with theta exact to rounding near the singular set, the step size
        # follows the approach down to the singular set in bounded work
        for tol in (1e-8, 1e-10):
            with pytest.raises(SingularityError) as info:
                integrate(two_body([1j, 2j]), 2.0, tol=tol)
            assert info.value.time == pytest.approx(0.34, abs=0.02)
            stats = info.value.trajectory.stats
            assert stats.steps < 500
            # bounded work: the verdict within 211 attempts at tol 1e-8 and 501 at 1e-10
            assert stats.steps + stats.rejected <= {1e-8: 211, 1e-10: 501}[tol]
            if tol == 1e-8:
                # the predictive controller follows the shrinking step without
                # alternating accept and reject (the I-controller made 206 + 201)
                assert stats.rejected <= 20
                assert stats.stage_failures <= stats.rejected
                assert stats.rhs_calls <= 1 + 6 * (stats.steps + stats.rejected)
            # head-on along the imaginary axis no stage leaves the half-plane: every
            # stage failure is a singular stage
            assert stats.singular_stages == stats.stage_failures > 0
            taken = np.diff(info.value.trajectory.times)
            assert (stats.min_step, stats.max_step) == (taken.min(), taken.max())

    def test_step_underflow_verdict_carries_the_theta_of_the_last_state(self):
        # at R = 1e-8 the approach takes t ~ 3.4e-5, where h falls below the
        # absolute 1e-14 while the pair is still at d ~ 4.3e-6, outside the
        # singular set but within its 1e8 margin (at R = 1e-6 a stage enters it first)
        with pytest.raises(SingularityError) as info:
            integrate(two_body([1j, 2j], R=1e-8), 1.0, tol=1e-10)
        assert str(info.value) == "pair (0, 1) touched the singular set at t = 3.4008737868722533e-05 (theta = 1.183e-09)"
        traj = info.value.trajectory
        assert info.value.pair == (0, 1)
        assert info.value.time == traj.times[-1]
        assert info.value.theta == min_pair_theta(traj.ys[-1][:2]) == traj.stats.min_theta

    def test_step_underflow_outside_the_widened_singular_set_is_a_step_size_error(self):
        # the pair is at d ~ 3.3, far outside the singular set widened 1e8-fold, but
        # a speed of 1e16 makes the first step fall below the step floor at once
        s = SystemState(0.0, [1j, 5 + 1j], [-1e16j, 0j], [1.0, 1.0], 1.0)
        with pytest.raises(StepSizeError, match=r"^step size underflow at t = 0\.0$"):
            integrate(s, 1.0, tol=1e-10)

    def test_position_bound_stops_the_run_at_the_first_node_past_it(self, monkeypatch):
        # the bodies pass |w| of about 8e50 at t = 0.328 after 216 accepted steps; a
        # check after the loop kept stepping, with a silently zero force, to t_end
        # (1,009 accepted steps and 6,259 kernel calls)
        import hnbody.dynamics as dynamics

        calls = []
        accel = dynamics._accel
        monkeypatch.setattr(dynamics, "_accel", lambda *args, **kwargs: calls.append(1) or accel(*args, **kwargs))
        s = two_body([4e50j, 1e50 + 6e50j], (4e50j, 6e50j))
        with pytest.raises(StepSizeError, match=r"^positions too large at t = 0\.32844293929898793: "):
            integrate(s, 2.0, tol=1e-8)
        assert len(calls) <= 1 + 6 * 220

    def test_stage_below_the_real_axis_is_a_stage_failure(self, monkeypatch):
        # a light body dives at the axis: stages of the larger trial steps land
        # below it, and each such attempt is rejected as a stage failure
        import hnbody.dynamics as dynamics

        raised = []

        class Counted(DomainError):
            def __init__(self, *args):
                raised.append(args)
                super().__init__(*args)

        monkeypatch.setattr(dynamics, "DomainError", Counted)
        s = SystemState(0.0, [0.001j, 5.0 + 1j], [-0.005j, 0j], [1.0, 1.0], 1.0)
        traj = integrate(s, 2.0, tol=1e-8)
        assert raised and all(args == ("body left the upper half-plane",) for args in raised)
        assert traj.stats.stage_failures == len(raised)
        assert traj.stats.singular_stages == 0
        taken = np.diff(traj.times)
        assert (traj.stats.min_step, traj.stats.max_step) == (taken.min(), taken.max())
        assert np.all(traj.ys[:, :2].imag > 0)

    def test_max_attempts_bounds_accepted_and_rejected_steps(self):
        s = SystemState(0.0, [0.001j, 5.0 + 1j], [-0.005j, 0j], [1.0, 1.0], 1.0)
        traj = integrate(s, 2.0, tol=1e-8)  # no bound by default
        attempts = traj.stats.steps + traj.stats.rejected
        assert traj.stats.rejected > 0
        assert integrate(s, 2.0, tol=1e-8, max_attempts=attempts).stats == traj.stats
        # one attempt short: the last, accepted step onto t_end is not tried
        message = f"step budget of {attempts - 1} attempts exhausted at t = {traj.times[-2]}"
        with pytest.raises(StepSizeError, match=f"^{re.escape(message)}$"):
            integrate(s, 2.0, tol=1e-8, max_attempts=attempts - 1)
        with pytest.raises(StepSizeError, match=r"^step budget of 0 attempts exhausted at t = 0\.0$"):
            integrate(s, 2.0, tol=1e-8, max_attempts=0)

    def test_monotone_times_and_stats(self):
        s = two_body([1j, 2j], (0.6 + 0j, -0.6 + 0j))
        traj = integrate(s, 1.0, tol=1e-9)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.stats.steps == len(traj.times) - 1
        assert traj.stats.min_theta > 0

    @pytest.mark.parametrize(("t_end", "steps"), [(1.0, 10), (10.0, 100)])
    def test_max_steps_that_sum_short_of_t_end_end_on_it(self, t_end, steps):
        # the sums of max_step fall short of t_end by 1.1e-16 and 2e-14; the
        # remainder used to be taken as the next step and refused as an underflow
        traj = integrate(SystemState(0.0, [1j], [1e-3], [1.0], 1.0), t_end, tol=1e-10, max_step=0.1)
        assert traj.stats.steps == steps
        assert traj.times[-1] == t_end
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize("case", ["readme-orbit", "cluster-32", "axis-dive", "head-on"])
    def test_min_theta_is_the_smallest_pair_theta_of_the_nodes(self, case):
        # the minimum is taken once per accepted node, from the theta table the FSAL stage
        # left in the kernel's workspace; rejected and failed attempts must not reach it
        tol = 1e-10
        if case == "readme-orbit":
            s, t_end = two_body([1j, 2j], (0.6 + 0j, -0.6 + 0j)), 10.0
        elif case == "cluster-32":
            rng = np.random.default_rng(32)
            w = np.linspace(-30.0, 30.0, 32) + 1j * rng.uniform(1.0, 2.0, 32)
            s, t_end = SystemState(0.0, w, 0.05 * rng.normal(size=32) + 0j, rng.uniform(0.5, 2.0, 32), 1.0), 0.2
        elif case == "axis-dive":  # error rejections and stages below the real axis
            s, t_end, tol = SystemState(0.0, [0.001j, 5.0 + 1j], [-0.005j, 0j], [1.0, 1.0], 1.0), 2.0, 1e-8
        else:  # singular stages, then the verdict
            s, t_end, tol = two_body([1j, 2j]), 2.0, 1e-8
        if case == "head-on":
            with pytest.raises(SingularityError) as info:
                integrate(s, t_end, tol=tol)
            traj = info.value.trajectory
            assert traj.stats.singular_stages > 0
        else:
            traj = integrate(s, t_end, tol=tol)
        if case == "axis-dive":
            assert traj.stats.rejected > traj.stats.stage_failures > 0
        assert traj.stats.min_theta == min_pair_theta(traj.ys[:, : s.n]).min()
        if case == "readme-orbit":
            assert traj.stats.min_theta == 0.0018581648127334676

    def test_invalid_inputs(self):
        s = two_body([1j, 2j])
        with pytest.raises(DomainError):
            integrate(s, 1.0, tol=-1e-9)
        # below the double-precision epsilon: the starting step norm |y / sc|^2 overflows
        # at 1e-160, and at 1e-18 a unit orbit takes 11,456 steps for digits doubles lack
        for tol in (1e-18, 1e-160, np.finfo(float).eps / 2):
            with pytest.raises(DomainError, match="double-precision epsilon"):
                integrate(s, 1.0, tol=tol)
        integrate(s, 1e-3, tol=np.finfo(float).eps)
        with pytest.raises(DomainError):
            integrate(s, -1.0)


# Global error of integrate against the closed-form Mobius orbits w(t) = flow(field, w0, rate t),
# (field, rate) = CLASS_DRIFT[class]: the largest |w - w(t)| over the accepted nodes and over the
# step midpoints (cubic Hermite), as factors of tol.  Each is about 2.5 times the value measured.
# The equilibria are found at tol 1e-13, so their own defect stays below the integrator's error.
# (case, t_end) -> {tol: (node factor, midpoint factor)}
EXACT_ORBIT_FACTORS = {
    ("elliptic", 1.0): {1e-8: (6, 160), 1e-10: (5, 400), 1e-12: (5, 1000)},
    # the node error accumulates to about 100 tol over ten time units
    ("elliptic", 10.0): {1e-8: (250, 300), 1e-10: (300, 600), 1e-12: (300, 1100)},
    # a short span: the positions grow as e^{t/2}, and by t = 10 the pair is off by 7e-7 at any tol
    ("hyperbolic", 2.0): {1e-8: (3, 250), 1e-10: (3, 600), 1e-12: (4, 1500)},
}
EXACT_ORBIT_PAIRS = {  # case -> (class, ansatz, symmetry)
    "elliptic": (EquilibriumClass.ELLIPTIC_CYCLIC, [2j, 0.5j], "axis"),
    "hyperbolic": (EquilibriumClass.HYPERBOLIC_NORMAL, [0.9 + 1j, -0.9 + 1j], "mirror"),
}


class TestExactOrbits:
    @pytest.fixture(scope="class")
    def pairs(self):
        return {
            case: find_equilibrium(cls, [1.0, 1.0], 1.0, np.array(ansatz), FindOptions(symmetry=symmetry, tol=1e-13))
            for case, (cls, ansatz, symmetry) in EXACT_ORBIT_PAIRS.items()
        }

    @pytest.mark.parametrize(("case", "t_end", "tol"), [
        (case, t_end, tol) for (case, t_end), factors in EXACT_ORBIT_FACTORS.items() for tol in factors
    ])
    def test_integrate_follows_the_closed_form_orbit(self, pairs, case, t_end, tol):
        state = pairs[case]
        field, rate = CLASS_DRIFT[EXACT_ORBIT_PAIRS[case][0]]

        def orbit(ts):
            return flow(field, state.positions, rate * ts[:, None])

        traj = integrate(state, t_end, tol=tol)
        node_factor, midpoint_factor = EXACT_ORBIT_FACTORS[case, t_end][tol]
        assert np.max(np.abs(traj.ys[:, : traj.n] - orbit(traj.times))) < node_factor * tol
        midpoints = 0.5 * (traj.times[:-1] + traj.times[1:])
        positions, _ = traj.sample_many(midpoints)
        assert np.max(np.abs(positions - orbit(midpoints))) < midpoint_factor * tol


def _hermite_reference(traj, t):
    """Per-point cubic Hermite evaluation, the scalar form of sample_many."""
    ts = traj.times
    i = min(max(int(np.searchsorted(ts, t, side="right")) - 1, 0), len(ts) - 2)
    h = ts[i + 1] - ts[i]
    s = (t - ts[i]) / h
    y = ((1 + 2 * s) * (1 - s) ** 2 * traj.ys[i] + s * (1 - s) ** 2 * h * traj.fs[i]
         + s * s * (3 - 2 * s) * traj.ys[i + 1] + s * s * (s - 1) * h * traj.fs[i + 1])
    return y[: traj.n], y[traj.n:]


class TestArraySampling:
    @pytest.fixture(scope="class")
    def traj(self):
        s = two_body([1j, 2j], (0.6 + 0j, -0.6 + 0j))
        return integrate(s, 2.0, tol=1e-9)

    def test_sample_many_matches_per_point_hermite(self, traj):
        rng = np.random.default_rng(30)
        ts = np.concatenate([traj.times[:5], rng.uniform(traj.t0, traj.t1, 200), [traj.t1]])
        W, V = traj.sample_many(ts)
        assert W.shape == V.shape == (ts.size, 2)
        for t, w, v in zip(ts, W, V):
            w_ref, v_ref = _hermite_reference(traj, t)
            assert np.max(np.abs(w - w_ref)) <= 1e-15 * np.max(np.abs(w_ref))
            assert np.max(np.abs(v - v_ref)) <= 1e-15 * np.max(np.abs(v_ref))
            w1, v1 = traj.sample(float(t))
            assert np.array_equal(w1, w) and np.array_equal(v1, v)

    @pytest.mark.parametrize("bad", [-1e-9, 2.0 + 1e-9, float("nan")])
    def test_sample_many_rejects_times_outside_the_span(self, traj, bad):
        with pytest.raises(DomainError):
            traj.sample_many([0.5, bad, 1.0])
        with pytest.raises(DomainError):
            traj.sample(bad)

    def test_series_equal_per_state_values(self, traj):
        ts = np.linspace(0.0, 2.0, 9)
        W, V = traj.sample_many(ts)
        series = SystemState(ts, W, V, traj.masses, traj.R)
        acc = eom_rhs(series)
        q = conserved(series)
        assert acc.shape == W.shape and q.energy.shape == ts.shape and q.momenta.shape == (3, ts.size)
        for i, t in enumerate(ts):
            state = SystemState(t, W[i], V[i], traj.masses, traj.R)
            assert np.array_equal(acc[i], eom_rhs(state))
            one = conserved(state)
            assert q.energy[i] == one.energy and np.array_equal(q.momenta[:, i], one.momenta)

    def test_series_verdict_names_the_row_time(self):
        W = np.array([[1j, 2j], [1j, 1j + 1e-9], [1j, 3j]])
        series = SystemState([0.0, 0.25, 0.5], W, np.zeros_like(W), [1.0, 1.0], 1.0)
        with pytest.raises(SingularityError) as info:
            eom_rhs(series)
        assert info.value.time == 0.25 and info.value.pair == (0, 1)
        assert "at t = 0.25" in str(info.value)

    def test_series_shape_checks(self):
        W = np.array([[1j, 2j], [1j, 3j]])
        with pytest.raises(DomainError):
            SystemState([0.0], W, W, [1.0, 1.0], 1.0)
        with pytest.raises(DomainError):
            SystemState([0.0, 1.0], W, W[:, :1], [1.0, 1.0], 1.0)
        with pytest.raises(DomainError):
            integrate(SystemState([0.0, 1.0], W, W, [1.0, 1.0], 1.0), 1.0)


class TestConservation:
    def test_two_body_drift(self):
        # the README orbit; the predictive step-size rule seldom binds on it,
        # so it keeps the 3,277 steps of the I-controller alone within 5%
        s = two_body([1j, 2j], (0.6 + 0j, -0.6 + 0j))
        traj = integrate(s, 10.0, tol=1e-10)
        assert abs(traj.stats.steps - 3277) <= 0.05 * 3277
        assert traj.stats.rhs_calls == 1 + 6 * (traj.stats.steps + traj.stats.rejected)
        e0 = conserved(traj.samples[0]).energy
        j0 = conserved(traj.samples[0]).momenta
        for state in traj.samples[:: max(1, len(traj.times) // 200)]:
            q = conserved(state)
            assert abs(q.energy - e0) / max(1.0, abs(e0)) < 1e-7
            assert np.max(np.abs(q.momenta - j0)) / max(1.0, np.max(np.abs(j0))) < 1e-7

    def test_three_body_drift(self, elliptic_pair):
        w = np.concatenate([elliptic_pair.positions, [2.0 + 3.0j]])
        v = np.concatenate([elliptic_pair.velocities, [-0.3 + 0.2j]])
        s = SystemState(0.0, w, v, [1.0, 1.0, 0.05], 1.0)
        traj = integrate(s, 10.0, tol=1e-10)
        assert traj.stats.min_theta > 1e-2
        e0 = conserved(traj.samples[0]).energy
        j0 = conserved(traj.samples[0]).momenta
        for state in traj.samples[:: max(1, len(traj.times) // 200)]:
            q = conserved(state)
            assert abs(q.energy - e0) / max(1.0, abs(e0)) < 1e-7
            assert np.max(np.abs(q.momenta - j0)) / max(1.0, np.max(np.abs(j0))) < 1e-7


class TestVlasovWeakForm:
    def test_constant_test_function_exact(self, elliptic_pair):
        from hnbody.dynamics import default_test_functions

        traj = integrate(elliptic_pair, 1.0, tol=1e-12, max_step=0.005)
        only_one = (default_test_functions()[0],)
        assert vlasov_weak_residual(traj, tests=only_one, num_points=501) == 0.0

    def test_coordinate_test_function(self, elliptic_pair):
        from hnbody.dynamics import default_test_functions

        traj = integrate(elliptic_pair, 2.0, tol=1e-12, max_step=0.005)
        re_x = (default_test_functions()[1],)
        assert vlasov_weak_residual(traj, tests=re_x, num_points=1001) < 1e-6

    def test_speed_squared_test_function(self, elliptic_pair):
        from hnbody.dynamics import default_test_functions

        traj = integrate(elliptic_pair, 2.0, tol=1e-12, max_step=0.005)
        vsq = (default_test_functions()[3],)
        assert vlasov_weak_residual(traj, tests=vsq, num_points=1001) < 1e-5

    def test_full_library(self, elliptic_pair):
        traj = integrate(elliptic_pair, 2.0, tol=1e-12, max_step=0.005)
        assert vlasov_weak_residual(traj, num_points=1001) < 1e-6

    def test_readme_orbit(self):
        s = SystemState(0.0, [1j, 2j], [0.6 + 0j, -0.6 + 0j], [1.0, 1.0], 1.0)
        assert vlasov_weak_residual(integrate(s, 10.0, tol=1e-10)) < 1e-4

    def test_perturbed_node_raises_the_residual(self, elliptic_pair):
        traj = integrate(elliptic_pair, 2.0, tol=1e-12, max_step=0.005)
        clean = vlasov_weak_residual(traj, num_points=1001)
        ys = traj.ys.copy()
        ys[len(ys) // 2, 0] += 1e-6
        bent = Trajectory(traj.times, ys, traj.fs, traj.masses, traj.R, traj.stats)
        assert clean < 1e-8
        assert vlasov_weak_residual(bent, num_points=1001) > 1e-7

    def test_refining_keeps_the_residual(self, elliptic_pair):
        traj = integrate(elliptic_pair, 2.0, tol=1e-12, max_step=0.005)
        coarse, fine = (vlasov_weak_residual(traj, num_points=num) for num in (21, 5001))
        assert abs(fine - coarse) <= 0.1 * coarse

    def test_matches_per_point_reference(self):
        from hnbody.dynamics import default_test_functions

        s = SystemState(0.0, [1j, 2j, 0.5 + 1.5j], [0.6 + 0j, -0.6 + 0j, 0.1j], [1.0, 0.5, 2.0], 1.0)
        traj = integrate(s, 1.0, tol=1e-10)
        num = 201
        pieces = 2 * math.ceil((num - 1) / (len(traj.times) - 1))  # Simpson over 2m pieces per step
        m = traj.masses
        steps = []  # per step: its width and (t, w, v, a) at its pieces + 1 points
        for t0, t1 in zip(traj.times[:-1], traj.times[1:]):
            points = []
            for t in [t0 + j / pieces * (t1 - t0) for j in range(pieces)] + [t1]:
                w, v = traj.sample(t)
                points.append((t, w, v, eom_rhs(SystemState(t, w, v, traj.masses, traj.R))))
            steps.append((t1 - t0, points))
        for tf in default_test_functions():
            total = 0.0
            for h, points in steps:
                g, rhs = np.zeros(pieces + 1), np.zeros(pieces + 1)
                for i, (t, w, v, a) in enumerate(points):
                    for k in range(traj.n):
                        x, vk = complex(w[k]), complex(v[k])
                        g[i] += m[k] * tf.value(t, x, vk)
                        rhs[i] += m[k] * (tf.dt(t, x, vk) + (np.conjugate(vk) * tf.grad_x(t, x, vk)).real
                                          + (np.conjugate(a[k]) * tf.grad_v(t, x, vk)).real)
                simpson = rhs[0] + rhs[-1] + sum((4.0 if j % 2 else 2.0) * rhs[j] for j in range(1, pieces))
                total += abs(g[-1] - g[0] - h / (3.0 * pieces) * simpson)
            expected = total / (traj.t1 - traj.t0)
            got = vlasov_weak_residual(traj, tests=(tf,), num_points=num)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-15), tf.name

    def test_blocks_bound_the_memory_and_keep_the_value(self, monkeypatch):
        # 40,000 asked-for points at n = 4 are over 80,000 evaluation points: about five blocks of _POINT_BLOCK
        s = SystemState(0.0, [1j, 2j, 0.5 + 1.5j, -1 + 1j], [0.3, -0.3, 0.1j, 0.2 - 0.1j], [1.0, 0.5, 2.0, 1.0], 1.0)
        traj = integrate(s, 1.0, tol=1e-8)

        def run():
            fresh = Trajectory(traj.times, traj.ys, traj.fs, traj.masses, traj.R, traj.stats)
            tracemalloc.start()
            try:
                value = vlasov_weak_residual(fresh, num_points=40_000)
                kept, peak = tracemalloc.get_traced_memory()  # kept: the evaluation points of the trajectory
            finally:
                tracemalloc.stop()
            assert kept > 48 * 80_000 * 4  # positions, velocities and accelerations
            return value, peak - kept

        block = dynamics._POINT_BLOCK
        value, blocked = run()
        monkeypatch.setattr(dynamics, "_POINT_BLOCK", 1 << 40)
        whole_value, whole = run()
        assert value == whole_value
        assert blocked < 200 * block  # bytes per body-point of one block
        assert whole > 3 * blocked


class TestSystemStateValidation:
    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            SystemState(0.0, [1j, 1 - 1j], [0j, 0j], [1.0, 1.0], 1.0)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(DomainError):
            SystemState(0.0, [1j], [0j], [0.0], 1.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            SystemState(0.0, [1j], [0j], [1.0], -2.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            SystemState(0.0, [1j, 2j], [0j], [1.0, 1.0], 1.0)

    @pytest.mark.parametrize("scale", [1e300, 1e80, 8.5e50])
    def test_rejects_positions_whose_kernel_divisor_overflows(self, scale):
        with pytest.raises(DomainError, match=re.escape("divisor 512 max|w|^6 overflows")):
            SystemState(0.0, [0.5j * scale, 1j * scale], [0j, 0j], [1.0, 1.0], 1.0)

    def test_kernel_stays_finite_just_below_the_position_limit(self):
        # the largest theta for |w| <= s: bodies at -s/sqrt2 + i s/sqrt2 and s/sqrt2 + i s/sqrt2
        s = 8.3e50
        state = SystemState(0.0, [s * (-1 + 1j) / math.sqrt(2), s * (1 + 1j) / math.sqrt(2)], [0j, 0j],
                            [1.0, 1.0], 1.0)
        force = eom_interaction(state)  # RuntimeWarning is an error under pytest
        assert np.all(np.isfinite(force)) and np.all(force != 0)
