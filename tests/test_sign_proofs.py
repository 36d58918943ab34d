"""Symbolic proofs of the two sign contradictions behind the empty classes.

The certifiers evaluate every term of the parabolic-cyclic and
hyperbolic-cyclic axis identities through the pair kernel's tables.  Here
``dynamics._pair_tables`` itself runs on symbolic axis positions i h, each
kernel-form term is shown equal to the paper's closed form, and its sign is
shown for every pair of distinct positive heights: one height is written as
the other plus a positive gap d, in both orders.  The same axis tables show
that two_body_elliptic's closed form is a root of the two-body pairing
condition of the elliptic-cyclic class.
"""

import pytest

from hnbody.dynamics import _pair_tables

sp = pytest.importorskip("sympy")

h, d, m, R = sp.symbols("h d m R", positive=True)
# (h_k, h_j) with body k above body j, and with body k below body j
ORDERS = {"k above j": (h + d, h), "k below j": (h, h + d)}


def axis_tables(hk, hj):
    """The pair tables of the axis bodies i hk and i hj, as the kernel builds them."""
    return _pair_tables(0, hk, 0, hj)


def kernel_theta(tables):
    # factored, so that the positive symbols resolve theta^{1/2}
    return sp.factor(sp.nsimplify(tables.theta))


def paper_theta(hk, hj):
    """theta = cross^2 - (conj wk - wk)^2 (conj wj - wj)^2 from its definition, at wk = i hk, wj = i hj."""
    wk, wj = sp.I * hk, sp.I * hj
    cross = (sp.conjugate(wk) + wk) * (sp.conjugate(wj) + wj) - 2 * (wk * sp.conjugate(wk) + wj * sp.conjugate(wj))
    theta = cross ** 2 - (sp.conjugate(wk) - wk) ** 2 * (sp.conjugate(wj) - wj) ** 2
    return sp.factor(sp.expand(theta))


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_kernel_theta_is_the_paper_theta_on_the_axis(order):
    hk, hj = ORDERS[order]
    assert sp.simplify(kernel_theta(axis_tables(hk, hj)) - paper_theta(hk, hj)) == 0


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_parabolic_terms_are_the_closed_form_and_negative(order):
    # rhs = -sum_j m_j beta_j^2 / theta_kj against the paper's -sum_j m_j beta_j^2 / (4 (beta_j^2 - beta_k^2)^2)
    bk, bj = ORDERS[order]
    term = -m * bj * bj / kernel_theta(axis_tables(bk, bj))
    assert sp.simplify(term + m * bj ** 2 / (4 * (bj ** 2 - bk ** 2) ** 2)) == 0
    assert term.is_negative
    assert (R / (64 * bk * bk)).is_positive


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_hyperbolic_terms_are_the_closed_form_with_the_sign_of_the_height_gap(order):
    # sum_j (alpha_j - beta_j)^2 m_j (D_k^2 - D_j^2) / Theta^{3/2} with alpha = v, beta = -v
    vk, vj = ORDERS[order]
    tables = axis_tables(vk, vj)
    th = kernel_theta(tables)
    term = (2 * vj) ** 2 * m * (tables.dy * tables.sy) / (th * sp.sqrt(th))
    closed = (vj - (-vj)) ** 2 * m * (vk ** 2 - vj ** 2) / paper_theta(vk, vj) ** sp.Rational(3, 2)
    assert sp.simplify(term - closed) == 0
    sign = sp.sign(sp.simplify(vk - vj))
    assert sign in (1, -1) and sp.sign(sp.simplify(term)) == sign
    # with k the topmost body, every term is positive, so rhs = -(2 dk^3 / R) * sum < 0 < lhs
    dk, bk = 2 * vk, 1 + vk ** 2
    assert (dk * bk + 2 * bk * bk / dk).is_positive
    assert (2 * dk ** 3 / R).is_positive


def test_companion_circle_closed_form_is_a_root_of_the_axis_pairing_condition():
    # body 1 at i y1 above body 2 at i y2: the elliptic-cyclic sides lhs_k = R (1 + w^2)(1 + |w|^2) / (16 y^4)
    # and rhs_k = -4 (A_k - 2i y_k B_k), with the kernel's sums over its axis tables
    m1, m2, a = sp.symbols("m1 m2 a", positive=True)
    y1, y2 = h + d, h

    def rhs(yk, yj, mj):
        tables = axis_tables(yk, yj)
        th = kernel_theta(tables)
        assert tables.dx == 0  # so B_k vanishes
        return -4 * mj * yj ** 2 * (tables.dy * tables.sy - tables.dx2) / (th * sp.sqrt(th))

    def lhs(y):
        w = sp.I * y
        return R * (1 + w ** 2) * (1 + w * sp.conjugate(w)) / (16 * y ** 4)

    pairing = lhs(y1) * rhs(y2, y1, m1) - lhs(y2) * rhs(y1, y2, m2)
    # the kernel's theta is 4 (y1^2 - y2^2)^2, and lhs_0 rhs_1 = lhs_1 rhs_0 is the quadratic in y2^2
    assert sp.simplify(kernel_theta(axis_tables(y1, y2)) - 4 * (y1 ** 2 - y2 ** 2) ** 2) == 0
    def quadratic(y1, y2):
        return m2 * y1 ** 2 * (1 - y2 ** 4) + m1 * y2 ** 2 * (1 - y1 ** 4)

    assert sp.simplify(pairing * 32 * (y1 ** 2 - y2 ** 2) ** 2 * y1 ** 2 * y2 ** 2 / R - quadratic(y1, y2)) == 0
    # two_body_elliptic's root, for alpha = 1 + a > 1 at y1 = alpha and y2 = 1/beta
    alpha = 1 + a
    q, c = (alpha - 1) * (alpha + 1) * (alpha ** 2 + 1), 2 * m2 * alpha ** 2
    beta = sp.sqrt((sp.sqrt((m1 * q) ** 2 + c ** 2) + m1 * q) / c)
    assert sp.simplify(quadratic(alpha, 1 / beta)) == 0
