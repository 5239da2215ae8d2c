"""Tests for symmetric-power bases, operators, and closed forms."""

from fractions import Fraction as F
from math import factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st

from modwron.cli import PAIR_LAMBDA
from modwron.etaprod import eta, named_series
from modwron.modpoly import (E4, E6, G4, MFPoly, theta_derivation, theta_h,
                             to_qseries)
from modwron.poly import Poly
from modwron.qseries import DEFAULT_PREC, QSeries, first_mismatch
from modwron import symmpow
from modwron.symmpow import (SymWronskianMismatch, _divisors, _eta_power,
                             _rational_roots, apply, d_operator,
                             kz_coeff, r12_vanishing_roots, r_recursion,
                             sym_basis, sym_quotient_closed_form,
                             sym_wronskian_check)
from modwron.wronskian import normalize, quotient_form, wronskian
from test_qseries import (qseries_strategy, series_products,
                          truncated_and_completion)

N = F(20)


def agree(a, b):
    ps = [p for p in (a.prec, b.prec) if p is not None]
    if not ps:
        return a == b
    p = min(ps)
    return a.truncate(p) == b.truncate(p)


@pytest.fixture(scope="module")
def ch_pair():
    return named_series("ch1", N), named_series("ch2", N)


@pytest.fixture(scope="module")
def weber_pair():
    return named_series("weber8_1", N), named_series("weber8_2", N)


@pytest.fixture(scope="module")
def a1_pair():
    return named_series("a1_f1", N), named_series("a1_f2", N)


# ---- Poly over Q --------------------------------------------------------------

def test_ratpoly_ring_operations():
    x = Poly((0, 1))
    assert (x + 1) * (x - 1) == x * x - 1
    assert (x * x - 1)(F(3)) == 8
    assert -(x - F(1, 2)) == F(1, 2) - x
    assert not Poly()
    assert Poly((0, 0, 0)) == 0
    assert (2 * x).degree() == 1 and Poly().degree() == -1


# ---- sym_basis --------------------------------------------------------------

def test_sym_basis_m1_is_pair_reversed(ch_pair):
    ch1, ch2 = ch_pair
    assert sym_basis(ch1, ch2, 1) == [ch2, ch1]


def test_sym_basis_weber_offsets(weber_pair):
    w1, w2 = weber_pair
    vals = [s.valuation() for s in sym_basis(w1, w2, 2)]
    assert vals == [F(2, 3), F(1, 6), F(-1, 3)]


def test_sym_basis_ch_offsets(ch_pair):
    ch1, ch2 = ch_pair
    vals = [s.valuation() for s in sym_basis(ch1, ch2, 12)]
    assert vals == [F(i - 1, 5) for i in range(13)]


def test_sym_basis_rejects_nonpositive(ch_pair):
    ch1, ch2 = ch_pair
    with pytest.raises(ValueError, match="positive"):
        sym_basis(ch1, ch2, 0)


# ---- Wronskian factorization -------------------------------------------------

@pytest.mark.parametrize("name,m", [
    ("ch", 1), ("ch", 2), ("ch", 3),
    ("weber", 1), ("weber", 2), ("weber", 3),
    ("a1", 1), ("a1", 2), ("a1", 3),
])
def test_sym_wronskian_factorization(name, m, ch_pair, weber_pair, a1_pair):
    f, g = {"ch": ch_pair, "weber": weber_pair, "a1": a1_pair}[name]
    rep = sym_wronskian_check(f, g, m)
    expect_const = 1
    for k in range(2, m + 1):
        expect_const *= factorial(k)
    assert rep.constant == expect_const
    assert rep.power == m * (m + 1) // 2
    assert rep.eta_power == 2 * m * (m + 1)
    assert rep.precision is not None


def test_sym_wronskian_ch_m12_is_delta_power(ch_pair):
    ch1, ch2 = ch_pair
    rep = sym_wronskian_check(ch1, ch2, 12)
    assert rep.eta_power == 312
    w = normalize(wronskian(sym_basis(ch1, ch2, 12)))
    assert agree(w, (eta(1, rep.precision) ** 24) ** 13)


def test_sym_wronskian_m1_matches_pair(a1_pair):
    f1, f2 = a1_pair
    rep = sym_wronskian_check(f1, f2, 1)
    assert rep.constant == 1 and rep.power == 1 and rep.eta_power == 4


def test_sym_wronskian_check_reuses_given_wronskian(weber_pair):
    f, g = weber_pair
    ws = wronskian(sym_basis(f, g, 3))
    assert sym_wronskian_check(f, g, 3, ws=ws) == sym_wronskian_check(f, g, 3)
    bad = ws + QSeries.monomial(2, ws.valuation() + 1)
    with pytest.raises(SymWronskianMismatch) as info:
        sym_wronskian_check(f, g, 3, ws=bad)
    assert info.value.check == "factorization"
    assert info.value.exponent == ws.valuation() + 1
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("bound", [F(16), F(149, 6), F(30), F(45), F(60),
                                   F(DEFAULT_PREC)])
def test_eta_power_is_the_pentagonal_power(bound):
    # the pentagonal series raised by repeated products is the reference;
    # prec must agree too, since it bounds the window the check compares
    for k in [4] + [2 * m * (m + 1) for m in range(1, 15)]:
        assert fields(_eta_power(k, bound)) == fields(eta(1, bound) ** k), k


def test_sym_wronskian_check_rejects_a_wrong_eta_power(monkeypatch,
                                                        weber_pair):
    f, g = weber_pair
    right = _eta_power
    monkeypatch.setattr(symmpow, "_eta_power",
                        lambda k, bound: right(k if k == 4 else k + 1, bound))
    with pytest.raises(SymWronskianMismatch) as info:
        sym_wronskian_check(f, g, 3)
    assert info.value.check == "eta power"
    # eta^24 and eta^25 part at the valuation of eta^24
    assert info.value.exponent == 1


# ---- r_recursion -------------------------------------------------------------

def test_r_recursion_seeds_and_weights():
    rs = r_recursion(G4, 5)
    assert rs[0] == 5 * G4
    assert rs[1] == 5 * theta_derivation(G4)
    assert [r.weight for r in rs] == [2 * i + 2 for i in range(1, 6)]


def test_r_recursion_m1_weber_constant():
    assert r_recursion(F(-40) * G4, 1) == [F(-1, 18) * E4]


def test_r_recursion_rejects_bad_weight():
    with pytest.raises(ValueError, match="weight 4"):
        r_recursion(E6, 3)


# ---- d_operator ----------------------------------------------------------------

def test_d_operator_order2_coefficients():
    op = d_operator(G4, 2)
    assert len(op) == 4
    assert op[0] == 2 * theta_derivation(G4)
    assert op[1] == 4 * G4
    assert op[2].is_zero()
    assert op[3] == MFPoly.constant(F(1))
    assert [c.weight for c in op] == [6, 4, 2, 0]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_d_operator_constant_term_matches_recursion(m):
    q = F(-40) * G4
    op = d_operator(q, m)
    assert len(op) == m + 2
    assert op[0] == r_recursion(q, m)[-1]
    assert op[-1] == MFPoly.constant(F(1))
    assert [c.weight for c in op] == [2 * (m + 1 - j) for j in range(m + 2)]


@pytest.mark.parametrize("name,lam", [
    ("ch", F(-11, 5)), ("weber", F(-40)), ("a1", F(-25, 4)),
])
def test_order2_ode_annihilates_pair(name, lam, ch_pair, weber_pair, a1_pair):
    f, g = {"ch": ch_pair, "weber": weber_pair, "a1": a1_pair}[name]
    op = d_operator(lam * G4, 1)
    assert apply(op, f).is_zero()
    assert apply(op, g).is_zero()


@pytest.mark.parametrize("name,lam", [
    ("ch", F(-11, 5)), ("weber", F(-40)), ("a1", F(-25, 4)),
])
def test_sym_power_operator_annihilates_basis(name, lam, ch_pair, weber_pair,
                                              a1_pair):
    f, g = {"ch": ch_pair, "weber": weber_pair, "a1": a1_pair}[name]
    for m in (2, 3):
        op = d_operator(lam * G4, m)
        for y in sym_basis(f, g, m):
            assert apply(op, y).is_zero()


def test_operator_does_not_annihilate_foreign_series(ch_pair):
    ch1, _ = ch_pair
    assert not apply(d_operator(F(-40) * G4, 1), ch1).is_zero()


def apply_by_products(op, y):
    """Reference: every coefficient, the constant too, multiplied in as its
    q-expansion."""
    target = y.prec if y.prec is not None else F(DEFAULT_PREC)
    ys = [y]
    for j in range(len(op) - 1):
        ys.append(theta_h(ys[-1], 2 * j, target))
    out = QSeries.zero(target)
    for c, yj in zip(op, ys):
        if not c.is_zero():
            out = out + to_qseries(c, target) * yj
    return out


# d_operator's, and constants before theta^0 and theta^1 with a zero between
OPERATORS = [d_operator(lam * G4, m) for lam in (F(-11, 5), F(-40))
             for m in (1, 2, 3)] + [
    (MFPoly.constant(F(-3, 2)),),
    (MFPoly.constant(F(2)), MFPoly.constant(F(1, 3))),
    (-G4, MFPoly.zero(2), MFPoly.constant(F(5))),
]


def fields(x):
    return x.offset, x.step_den, x.nums, x.den, x.prec


@settings(max_examples=80, deadline=None)
@given(qseries_strategy(), st.booleans(), st.sampled_from(OPERATORS))
def test_apply_scales_by_a_constant_as_its_product_would(y, exact, op):
    """A constant coefficient multiplies as a scalar, with the value and the
    precision of its product with the one-slot to_qseries of it: at any
    offset and precision of y, below zero too, and on exact and zero y."""
    if exact:
        y = QSeries(y.offset, y.nums, y.step_den, y.den)
    assert fields(apply(op, y)) == fields(apply_by_products(op, y))


@pytest.mark.parametrize("name,lam", [
    ("ch", F(-11, 5)), ("weber", F(-40)), ("a1", F(-25, 4)),
])
def test_apply_runs_no_product_with_a_one_slot_form(
        monkeypatch, name, lam, ch_pair, weber_pair, a1_pair):
    f, g = {"ch": ch_pair, "weber": weber_pair, "a1": a1_pair}[name]
    ys = {1: f, 2: f * g}
    calls = series_products(monkeypatch)
    for m, y in ys.items():
        assert apply(d_operator(lam * G4, m), y).is_zero()
    assert calls and all(len(a.nums) > 1 and len(b.nums) > 1
                         for a, b in calls)


# ---- kz_coeff -------------------------------------------------------------------

def kz_by_recursion(l, alpha):
    """Reference: the coefficient of x^(2l) by the theta recursion for the
    normalized coefficients g_l = l!/6^l * G_l (Kaneko-Zagier): g_0 = 1,
    g_1 = 0, g_j = theta(g_(j-1)) - (j-1)(3 alpha - j + 2) E4/18 g_(j-2)."""
    m = 3 * F(alpha)
    g_prev = MFPoly.constant(F(1))
    if l == 0:
        return g_prev
    g_cur = MFPoly.zero(2)
    q = F(-1, 18) * E4
    for j in range(2, l + 1):
        g_prev, g_cur = g_cur, (theta_derivation(g_cur)
                                + (j - 1) * (m - j + 2) * q * g_prev)
    return F(6 ** l, factorial(l)) * g_cur


def test_kz_degenerate_cases():
    for kz in (kz_coeff, kz_by_recursion):
        assert kz(0, F(5, 3)) == MFPoly.constant(F(1))
        assert kz(1, F(5, 3)).is_zero()


def test_kz_low_order_normalized_values():
    m = 5
    assert F(2, 36) * kz_coeff(2, F(m, 3)) == F(-m, 18) * E4
    assert F(6, 216) * kz_coeff(3, F(m, 3)) == F(m, 54) * E6


@pytest.mark.parametrize("m", [1, 2, 4, 5, 7, 12])
def test_kz_variants_agree(m):
    for l in range(11):
        assert kz_coeff(l, F(m, 3)) == kz_by_recursion(l, F(m, 3))


def test_kz_matches_the_recursion_off_thirds():
    # the two agree for every rational alpha, not only at alpha = m/3
    for alpha in (F(1, 2), F(-7, 5), F(3, 7), F(-1), F(0), F(11, 4)):
        for l in range(13):
            assert kz_coeff(l, alpha) == kz_by_recursion(l, alpha), (l, alpha)


def kz_closed_by_falling_per_term(l, alpha):
    """Reference: the closed double sum, one falling factorial per (r, s)."""
    terms = {}
    for s in range(l // 3 + 1):
        if (l - 3 * s) % 2:
            continue
        r = (l - 3 * s) // 2
        fall = F(1)
        for t in range(r + s):
            fall *= alpha - t
        c = fall / (factorial(r) * factorial(s)) * ((-3) ** r * 2 ** s)
        if c:
            terms[(r, s)] = c
    return MFPoly(2 * l, terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 60), st.fractions(min_value=-20, max_value=20,
                                        max_denominator=12))
def test_kz_closed_matches_falling_per_term(l, alpha):
    assert kz_coeff(l, alpha) == kz_closed_by_falling_per_term(l, alpha)


def test_kz_rejects_negative_order():
    with pytest.raises(ValueError, match="nonnegative"):
        kz_coeff(-1, F(1, 3))


# ---- closed form and three-route agreement -----------------------------------

def test_closed_form_low_orders():
    assert sym_quotient_closed_form(1) == F(-1, 18) * E4
    assert sym_quotient_closed_form(2) == F(-1, 27) * E6


@pytest.mark.parametrize("m", [3, 6, 9, 12])
def test_closed_form_vanishes_at_multiples_of_three(m):
    form = sym_quotient_closed_form(m)
    assert form.is_zero()
    assert form.weight == 2 * m + 2


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_three_routes_agree(m, weber_pair):
    w1, w2 = weber_pair
    route1 = quotient_form(sym_basis(w1, w2, m))
    rlast = r_recursion(F(-40) * G4, m)[-1]
    route2 = rlast if m % 2 else -rlast
    route3 = sym_quotient_closed_form(m)
    assert route1 == route2 == route3


# ---- rational vanishing set of R_12 ------------------------------------------

def test_r12_vanishing_roots_exact_set():
    assert r12_vanishing_roots() == {F(0), F(-11, 5), F(-25, 4), F(-15), F(-40)}


def test_r12_lambda_one_nonzero():
    assert not r_recursion(G4, 12)[-1].is_zero()


def test_r12_symbolic_coefficient_degrees():
    lam = Poly((0, 1))
    q = MFPoly.monomial(lam * F(1, 720), 1, 0)
    r12 = r_recursion(q, 12)[-1]
    assert all(p.degree() <= 6 for p in r12.terms.values())


def rational_roots_by_fractions(p):
    """Reference: every candidate nu/de evaluated as a Fraction."""
    roots = set()
    c = list(p.coeffs)
    while c and not c[0]:
        c.pop(0)
        roots.add(F(0))
    if len(c) <= 1:
        return roots
    den = 1
    for x in c:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in c]
    for nu in _divisors(abs(ints[0])):
        for de in _divisors(abs(ints[-1])):
            for cand in (F(nu, de), F(-nu, de)):
                if cand not in roots and p(cand) == 0:
                    roots.add(cand)
    return roots


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), max_size=3),
       st.lists(st.integers(-6, 6), min_size=1, max_size=3),
       st.integers(0, 2), st.sampled_from([1, 3, F(1, 2), F(-5, 6)]))
def test_rational_roots_match_fraction_evaluation(planted, cofactor, zeros, scale):
    if not any(cofactor):
        cofactor[-1] = 1
    p = Poly((scale,)) * Poly([0] * zeros + [1]) * Poly(cofactor)
    for nu, de in planted:
        p = p * Poly((-nu, de))          # the root nu/de
    roots = _rational_roots(p)
    assert roots == rational_roots_by_fractions(p)
    assert {F(nu, de) for nu, de in planted} <= roots
    assert all(p(r) == 0 for r in roots)


@settings(max_examples=40, deadline=None)
@given(truncated_and_completion(), st.sampled_from(sorted(PAIR_LAMBDA.values())),
       st.integers(1, 3))
def test_apply_precision_soundness(fc, lam, m):
    """No completion of the input beyond its precision, with a term right
    at it and one off its lattice, changes a coefficient of
    apply(d_operator(lambda G4, m), y) below the precision reported for it."""
    f, full = fc
    full = full + QSeries.monomial(1, f.prec + F(1, 5))
    op = d_operator(lam * G4, m)
    lo, hi = apply(op, f), apply(op, full)
    assert first_mismatch(lo, hi) is None
    assert lo.prec <= hi.prec
