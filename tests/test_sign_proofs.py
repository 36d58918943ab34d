"""Symbolic proofs of the two sign contradictions behind the empty classes.

The certifiers evaluate every term of the parabolic-cyclic and
hyperbolic-cyclic axis identities through the pair kernel's tables.  Here
``dynamics._pair_tables`` itself runs on symbolic axis positions i h, each
kernel-form term is shown equal to the paper's closed form, and its sign is
shown for every pair of distinct positive heights: one height is written as
the other plus a positive gap d, in both orders.
"""

import types

import pytest

from hnbody.dynamics import _pair_tables

sp = pytest.importorskip("sympy")

h, d, m, R = sp.symbols("h d m R", positive=True)
# (h_k, h_j) with body k above body j, and with body k below body j
ORDERS = {"k above j": (h + d, h), "k below j": (h, h + d)}


def axis_tables(hk, hj):
    """The pair tables of the axis bodies i hk and i hj, as the kernel builds them."""
    return _pair_tables(types.SimpleNamespace(real=0, imag=hk), types.SimpleNamespace(real=0, imag=hj))


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
