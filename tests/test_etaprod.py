"""Tests for eta products, restricted q-products, the named series, and
the theta-sum reference they are compared against.

Expected coefficient prefixes were computed by an independent integer
convolution script and are frozen here verbatim.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import modwron.etaprod as etaprod
from modwron.etaprod import (
    NAMES,
    ProductSpec,
    _int_window,
    eta,
    named_series,
    product_series,
)
from modwron.qseries import QSeries, first_mismatch
from test_qseries import ThetaSpec, euler_product_by_loop, theta_sum

F = Fraction

ETA_UNIT = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]
ETA4 = [1, -4, 2, 8, -5, -4, -10, 8, 9, 0, 14, -16]
ETA24 = [1, -24, 252, -1472, 4830, -6048, -16744, 84480]
CH1 = [1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 6, 8, 9]
CH2 = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9, 10, 12, 14]
RR = [1, -1, 1, 0, -1, 1, -1, 1, 0, -1, 2, -3, 2, 0, -2, 4]
F1 = [1, 3, 4, 7, 13, 19, 29, 43, 62, 90, 126, 174, 239, 325, 435, 580]
F2 = [2, 2, 6, 8, 14, 20, 34, 46, 70, 96, 138, 186, 262, 346, 472, 620]
W2 = [1, 8, 36, 128, 394, 1088, 2776, 6656, 15155, 33056, 69508, 141568]
W1_HALF = [1, 8, 28, 64, 134, 288, 568, 1024, 1809, 3152, 5316, 8704,
           13990, 22208, 34696, 53248]
ETA5_OVER_ETA = [1, 1, 2, 3, 5, 6, 10, 13, 19, 25, 34, 44, 60, 76, 100, 127]


# the theta quotients by the Jacobi triple product: q^prefactor * theta / eta,
# the reference that the product rows of named_series are compared against
THETA_QUOTIENTS = {
    "ch1": (ThetaSpec(5, 3, "alternating"), F(9, 40)),
    "ch2": (ThetaSpec(5, 1, "alternating"), F(1, 40)),
    "a1_f1": (ThetaSpec(2, 0), 0),
    "a1_f2": (ThetaSpec(2, 2), F(1, 4)),
}


def by_theta(name, N):
    spec, prefactor = THETA_QUOTIENTS[name]
    t = theta_sum(spec, N + 1)
    # eta is known through its leading term even when N + 1 <= 1/24
    d = eta(1, max(N + 1, 1))
    return (QSeries.monomial(1, prefactor) * t / d).truncate(N)


def fields(s):
    """Every field of a series, so that equal tuples mean equal builds."""
    return (s.offset, s.step_den, s.nums, s.den, s.prec)


def slots(s, count):
    """First `count` coefficients on the series' own slot lattice."""
    return [s.coeff_at(s.offset + F(k, s.step_den)) for k in range(count)]


def test_eta_pentagonal_prefix():
    e = eta(1, 20)
    assert e.offset == F(1, 24)
    assert slots(e, 16) == [F(c) for c in ETA_UNIT]


def test_eta_fourth_power():
    e4 = eta(1, 12) ** 4
    assert e4.offset == F(1, 6)
    assert slots(e4, 12) == [F(c) for c in ETA4]


def test_eta_24th_power_is_tau():
    e24 = eta(1, 9) ** 24
    assert e24.offset == 1
    assert slots(e24, 8) == [F(c) for c in ETA24]


def test_eta_rescale_offset_and_step():
    e5 = eta(5, 20)
    assert e5.offset == F(5, 24)
    assert e5.coeff_at(F(5, 24)) == 1
    assert e5.coeff_at(F(5, 24) + 5) == -1
    assert e5.coeff_at(F(5, 24) + 1) == 0
    ehalf = eta(F(1, 2), 3)
    assert ehalf.offset == F(1, 48)
    assert ehalf.coeff_at(F(1, 48) + F(1, 2)) == -1


def test_eta_quotient_5_over_1():
    quot = eta(5, 18) / eta(1, 18)
    assert quot.offset == F(1, 6)
    assert slots(quot, 16) == [F(c) for c in ETA5_OVER_ETA]


def test_eta_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        eta(0, 10)


def test_ch1_product_prefix():
    s = named_series("ch1", 16)
    assert s.offset == F(11, 60)
    assert s.prec == 16
    assert slots(s, 16) == [F(c) for c in CH1]


def test_ch2_product_prefix():
    s = named_series("ch2", 16)
    assert s.offset == F(-1, 60)
    assert slots(s, 16) == [F(c) for c in CH2]


@pytest.mark.parametrize("name", sorted(THETA_QUOTIENTS))
def test_theta_route_agrees_with_product(name):
    for N in (25, F(17, 3), 500):
        a = named_series(name, N)
        assert fields(a) == fields(by_theta(name, N)) and a.prec == N


def test_rr_cf_prefix():
    s = named_series("rr_cf", 16)
    assert s.offset == F(1, 5)
    assert slots(s, 16) == [F(c) for c in RR]


def test_a1_f1_prefix():
    s = named_series("a1_f1", 16)
    assert s.offset == F(-1, 24)
    assert slots(s, 16) == [F(c) for c in F1]


def test_a1_f2_prefix():
    s = named_series("a1_f2", 16)
    assert s.offset == F(5, 24)
    assert slots(s, 16) == [F(c) for c in F2]


def test_weber8_1_prefix():
    s = named_series("weber8_1", 8)
    assert s.offset == F(-1, 6)
    assert s.step_den == 2
    assert slots(s, 16) == [F(c) for c in W1_HALF]


def test_weber8_2_prefix():
    s = named_series("weber8_2", 12)
    assert s.offset == F(1, 3)
    assert s.step_den == 1
    assert slots(s, 12) == [F(c) for c in W2]


def test_ch_product_identity():
    prod = named_series("ch1", 15) * named_series("ch2", 15)
    quot = eta(5, 15) / eta(1, 15)
    assert first_mismatch(prod, quot) is None


def test_a1_pair_product_identity():
    prod = named_series("a1_f1", 12) * named_series("a1_f2", 12)
    quot = 2 * (eta(2, 12) / eta(1, 12)) ** 4
    assert first_mismatch(prod, quot) is None


@pytest.mark.parametrize("name,lead", [
    ("ch1", 1), ("ch2", 1), ("a1_f1", 1), ("a1_f2", 2),
    ("weber8_1", 1), ("weber8_2", 1),
])
def test_named_series_nonnegative_integer_coeffs(name, lead):
    s = named_series(name, 30)
    assert s.leading_coefficient() == lead
    for _, c in s.coeffs():
        assert c.denominator == 1 and c >= 0


def test_named_series_prec_is_exactly_requested():
    for name in NAMES:
        s = named_series(name, F(21, 2))
        assert s.prec == F(21, 2)


def test_named_series_unknown_name():
    with pytest.raises(ValueError, match="unknown series"):
        named_series("nope", 10)


def test_product_spec_validates_residues():
    with pytest.raises(ValueError):
        ProductSpec([(5, 5, 1)])
    with pytest.raises(ValueError):
        ProductSpec([(0, 0, 1)])


@pytest.mark.parametrize("factor", [
    (1, 2, F(3, 2)), (1, 2, 1.5), (1.7, 2.2, 1), (1, "3", 1), (1, 2, True),
    (0, 2, float("nan"))], ids=repr)
def test_product_spec_refuses_what_int_would_truncate_or_parse(factor):
    bad = next(x for x in factor if type(x) is not int)
    with pytest.raises(ValueError, match=re.escape("integers, got %r" % (bad,))):
        ProductSpec([factor])


def test_product_spec_accepts_integral_numbers():
    spec = ProductSpec([(1.0, F(4, 2), -3.0)])
    assert spec.factors == [(1, 2, -3)]
    assert all(type(x) is int for x in spec.factors[0])


@pytest.mark.parametrize("prefactor", ["1/3", 0.1, True], ids=repr)
def test_product_spec_refuses_a_prefactor_fraction_would_parse(prefactor):
    with pytest.raises(ValueError, match=re.escape(
            "prefactor must be an int or a Fraction, got %r" % (prefactor,))):
        ProductSpec([(0, 1, 1)], prefactor)


def test_product_spec_accepts_int_and_fraction_prefactors():
    assert ProductSpec([(0, 1, 1)], F(-1, 60)).prefactor == F(-1, 60)
    spec = ProductSpec([(0, 1, 1)], 0)
    assert type(spec.prefactor) is F and spec.prefactor == 0
    assert product_series(spec, 2) == QSeries(0, [1, -1], 1, 1, 2)


def test_product_series_euler_inverse():
    spec = ProductSpec([(0, 1, -1)])
    p = product_series(spec, 10)
    assert slots(p, 10) == [F(c) for c in [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]]


def test_product_series_zero_window():
    spec = ProductSpec([(0, 1, 1)], prefactor=5)
    assert product_series(spec, 3).is_zero()


# ---- the products against one pass per factor --------------------------------

def product_series_by_passes(spec, N):
    """Reference: one pass over the coefficients per factor and unit power."""
    N = F(N)
    h = spec.prefactor
    L = _int_window(N, h)
    if L == 0:
        return QSeries.zero(N)
    c = [0] * L
    c[0] = 1
    for r, m, e in spec.factors:
        start = r if r else m
        for n in range(start, L, m):
            if e > 0:
                for _ in range(e):
                    for k in range(L - 1, n - 1, -1):
                        c[k] -= c[k - n]
            else:
                for _ in range(-e):
                    for k in range(n, L):
                        c[k] += c[k - n]
    return QSeries(h, c, 1, 1, N)


def half_step_product_by_passes(exponent_count, N):
    """Reference: one pass per odd j and unit power of (1 + x^j)."""
    slots = _int_window(2 * F(N), 0)
    c = [0] * max(slots, 1)
    c[0] = 1
    for j in range(1, slots, 2):
        for _ in range(exponent_count):
            for k in range(slots - 1, j - 1, -1):
                c[k] += c[k - j]
    return QSeries(0, c, 2, 1, F(N))


@st.composite
def product_specs(draw):
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, 12))
        factors.append((draw(st.integers(0, m - 1)), m,
                        draw(st.integers(-12, 12))))
    prefactor = F(draw(st.integers(-12, 12)), draw(st.integers(1, 60)))
    return ProductSpec(factors, prefactor)


@settings(max_examples=120, deadline=None)
@given(product_specs(), st.fractions(min_value=-2, max_value=60,
                                     max_denominator=12))
def test_product_series_matches_repeated_passes(spec, N):
    assert product_series(spec, N) == product_series_by_passes(spec, N)


@pytest.mark.parametrize("factors", [
    [(2, 4, 8), (1, 2, -8)], [(0, 4, 8), (0, 2, -8)], [(1, 2, 8)],
    [(0, 2, 8), (0, 1, -8)]])
def test_weber_product_specs_match_repeated_passes(factors):
    spec = ProductSpec(factors)
    for N in (0, 1, 17, 101):
        assert product_series(spec, N) == product_series_by_passes(spec, N)


@pytest.mark.parametrize("count", range(1, 9))
def test_half_step_product_matches_repeated_passes(count):
    # prod (1 + x^j)^count over odd j, x = q^(1/2), as the weber8_1 table
    # entry writes it: 1 + x^j = (1 - x^(2j)) / (1 - x^j) on step 1/2
    spec = ProductSpec([(2, 4, count), (1, 2, -count)])
    for N in (F(-1), F(0), F(1, 6), F(7, 2), F(40) + F(1, 6)):
        assert (product_series(spec, 2 * N).rescale(F(1, 2))
                == half_step_product_by_passes(count, N))


def test_weber8_1_is_the_half_step_product():
    for N in (F(-1), F(0), F(1, 6), F(7, 2), F(40) + F(1, 6)):
        ref = half_step_product_by_passes(8, N + F(1, 6))
        assert (named_series("weber8_1", N)
                == (QSeries.monomial(1, F(-1, 6)) * ref).truncate(N))


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6),
       st.fractions(min_value=-1, max_value=30, max_denominator=12),
       st.fractions(min_value=F(1, 120), max_value=4, max_denominator=120))
def test_eta_precision_soundness(scale, N, more):
    """A larger N never changes a coefficient of eta(scale tau) below the
    precision reported at N, and every such coefficient is that of
    q^(scale/24) prod (1 - q^(scale n)) as a product over the q^scale
    lattice."""
    lo = eta(scale, N)
    hi = eta(scale, N + more)
    assert first_mismatch(lo, hi) is None
    assert lo.prec <= hi.prec
    ref = product_series(ProductSpec([(0, 1, 1)], F(1, 24)), N / scale)
    assert first_mismatch(lo, ref.rescale(scale)) is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NAMES),
       st.fractions(min_value=-2, max_value=20, max_denominator=12),
       st.fractions(min_value=F(1, 120), max_value=4, max_denominator=120))
def test_named_series_precision_soundness(name, N, more):
    """A larger N never changes a coefficient of a named series below the
    precision reported at N, N < 0 too; the four theta quotients equal the
    theta reference field for field at both precisions."""
    lo = named_series(name, N)
    hi = named_series(name, N + more)
    assert first_mismatch(lo, hi) is None
    assert lo.prec <= hi.prec
    if name in THETA_QUOTIENTS:
        for s, n in ((lo, N), (hi, N + more)):
            assert fields(s) == fields(by_theta(name, n))


def _fresh(name, N):
    """named_series built with an empty memo, which is restored after."""
    kept = dict(etaprod._BUILT)
    etaprod._BUILT.clear()
    try:
        return named_series(name, N)
    finally:
        etaprod._BUILT.clear()
        etaprod._BUILT.update(kept)


_requests = st.lists(
    st.tuples(st.sampled_from(NAMES),
              st.fractions(min_value=-3, max_value=40, max_denominator=12)),
    min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(_requests, st.booleans())
def test_named_series_memo_matches_a_fresh_build(requests, decreasing):
    """A request served from the longest expansion kept equals a fresh
    build, precision included, for N <= 0, fractional N and N that falls."""
    if decreasing:
        requests = sorted(requests, key=lambda r: r[1], reverse=True)
    etaprod._BUILT.clear()
    for name, N in requests:
        got = named_series(name, N)
        assert got == _fresh(name, N)
        assert got.prec == N
    assert set(etaprod._BUILT) <= set(NAMES)


@pytest.mark.parametrize("name, route", [("ch1", "theta"), ("ch2", "theta"),
                                         ("a1_f1", None), ("a1_f2", None)])
def test_named_series_theta_route_below_its_first_term(name, route):
    """A fresh build at N = -3, below the first term of each name, is the
    empty series O(q^-3); so is the theta reference (route "theta") of ch1
    and ch2, where the theta sum is asked for no term at all."""
    assert _fresh(name, -3) == QSeries.zero(-3)
    if route == "theta":
        assert by_theta(name, -3) == QSeries.zero(-3)


@pytest.mark.parametrize("name, route", [("a1_f1", None), ("a1_f2", None),
                                         ("ch1", "theta")])
def test_theta_route_too_large_for_memory_fails_at_once(name, route):
    """A precision no list can hold fails at once, where the slot list is
    allocated: in named_series, whose products allocate before they
    expand, and in the theta reference (route "theta") of ch1, whose theta
    sum allocates before it enumerates a term, instead of walking
    ~sqrt(N) indices first."""
    with pytest.raises(OverflowError):
        named_series(name, 10**400)
    if route == "theta":
        with pytest.raises(OverflowError):
            by_theta(name, 10**400)


def test_theta_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        ThetaSpec(0, 1)
    with pytest.raises(ValueError, match="sign"):
        ThetaSpec(1, 0, sign="weird")


def test_theta_sum_square_exponents():
    t = theta_sum(ThetaSpec(2, 0), 26)
    assert t.offset == 0
    expect = {0: 1, 1: 2, 4: 2, 9: 2, 16: 2, 25: 2}
    for n in range(26):
        assert t.coeff_at(n) == expect.get(n, 0)


def test_theta_sum_collision_adds_coefficients():
    t = theta_sum(ThetaSpec(2, 2), 13)
    expect = {0: 2, 2: 2, 6: 2, 12: 2}
    for n in range(13):
        assert t.coeff_at(n) == expect.get(n, 0)


def test_theta_sum_alternating_pentagonal():
    t = theta_sum(ThetaSpec(3, -1, "alternating"), 16)
    assert first_mismatch(t, eta(1, 16) / QSeries.monomial(1, F(1, 24))) is None


@settings(max_examples=60, deadline=None)
@given(A=st.fractions(min_value=F(1, 3), max_value=6, max_denominator=4),
       B=st.fractions(min_value=-120, max_value=120, max_denominator=4),
       N=st.fractions(min_value=-40, max_value=120, max_denominator=4),
       sign=st.sampled_from(ThetaSpec.SIGNS))
def test_theta_sum_matches_brute_force(A, B, N, sign):
    """Every term below N, and only those, for rational A and B, a shift
    -B/(2A) far from 0 and N of either sign."""
    t = theta_sum(ThetaSpec(A, B, sign), N)
    # for |n| >= M, (A n^2 + B n)/2 >= |n| (|B| + 2|N|)/2 >= |N|
    M = int(2 * (abs(B) + abs(N)) / A) + 2
    brute = {}
    for n in range(-M, M + 1):
        e = (A * n * n + B * n) / 2
        if e < N:
            c = -1 if sign == "alternating" and n % 2 else 1
            brute[e] = brute.get(e, 0) + c
    assert dict(t.coeffs()) == {e: c for e, c in brute.items() if c}
    assert t.prec == N


@pytest.mark.parametrize("factors", [[(0, 4, 8), (0, 2, -8)], [(0, 5, 1)],
                                     [(3, 6, 2), (0, 6, -1)]])
@pytest.mark.parametrize("N", [1, F(7, 2), 12, 61])
def test_product_on_a_coarser_lattice_is_its_fine_expansion(factors, N):
    """The spec's product, whose factors lie on gZ, equals the recurrence
    run on every slot: each coefficient and the precision."""
    spec = ProductSpec(factors, F(1, 3))
    L = _int_window(N, spec.prefactor)
    w = [0] * L
    for r, m, e in factors:
        for n in range(r if r else m, L, m):
            w[n] += e
    got = product_series(spec, N)
    want = QSeries(spec.prefactor, euler_product_by_loop(w, L), 1, 1, F(N))
    assert (got.offset, got.step_den, got.nums, got.den, got.prec) == \
        (want.offset, want.step_den, want.nums, want.den, want.prec)
