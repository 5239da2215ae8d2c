from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from modwron.qseries import QSeries, first_mismatch, LATTICE_CAP, _euler_product


# ---- construction and normal form -------------------------------------

def test_leading_zeros_advance_offset():
    s = QSeries(F(1, 3), [0, 0, 5, 7], step_den=2, prec=F(10))
    assert s.offset == F(1, 3) + F(2, 2)
    assert s.nums == [5, 7]


def test_content_gcd_is_reduced():
    s = QSeries(0, [2, 4], den=6, prec=F(8))
    assert s.nums == [1, 2] and s.den == 3


def test_stride_compression():
    s = QSeries(0, [1, 0, 3], step_den=2, prec=F(9))
    assert s.step_den == 1 and s.nums == [1, 3]


def test_exponents_beyond_prec_are_dropped():
    s = QSeries(0, [1, 1, 1, 1], prec=F(2))
    assert s.nums == [1, 1]


def test_zero_series_form():
    s = QSeries(F(7, 2), [0, 0], prec=F(9))
    assert s.is_zero() and s.offset == 0 and s.step_den == 1 and s.den == 1
    with pytest.raises(ValueError, match="valuation undefined"):
        s.valuation()


# ---- ring operations ----------------------------------------------------

def test_add_aligns_offsets_on_common_lattice():
    a = QSeries(F(-1, 5), [1, 2], prec=F(4))
    b = QSeries(0, [3], prec=F(4))
    c = a + b
    assert c.coeff_at(F(-1, 5)) == 1
    assert c.coeff_at(0) == 3
    assert c.coeff_at(F(4, 5)) == 2
    assert c.prec == F(4)


def test_add_lattice_cap_enforced():
    a = QSeries(F(1, 60), [1], prec=F(3))
    b = QSeries(F(1, 7), [1], prec=F(3))
    with pytest.raises(ValueError, match="exceeds cap"):
        a + b
    assert LATTICE_CAP == 120


def test_mul_offsets_add():
    a = QSeries(F(11, 60), [1, 2, 3], prec=F(5))
    b = QSeries(F(-1, 60), [1, 1], prec=F(5))
    c = a * b
    assert c.offset == F(1, 6)
    assert c.nums == [1, 3, 5, 3]


def test_scalar_mul_keeps_precision():
    a = QSeries(0, [1, 2], prec=F(7))
    assert (a * F(1, 3)).den == 3
    assert (F(1, 3) * a).prec == F(7)
    assert (0 * a).is_zero()


def test_mul_precision_rule():
    a = QSeries(2, [1, 1], prec=F(10))
    b = QSeries(3, [1, 1], prec=F(12))
    assert (a * b).prec == F(13)  # min(10+3, 12+2)


def test_add_precision_rule():
    a = QSeries(0, [1], prec=F(10))
    b = QSeries(0, [1], prec=F(4))
    assert (a + b).prec == F(4)


# ---- inversion and division ---------------------------------------------

def test_invert_geometric():
    a = QSeries(0, [1, -1])          # 1 - q, exact
    inv = a.invert(8)
    assert inv.nums == [1] * 8


def test_invert_monomial():
    m = QSeries(F(1, 5), [1], prec=F(30))
    assert m.invert().offset == F(-1, 5)


def test_invert_precision_rule():
    a = QSeries(2, [1, 1], prec=F(10))
    assert a.invert().prec == F(6)   # 10 - 2*2


def test_invert_zero_raises():
    with pytest.raises(ValueError, match="series not invertible"):
        QSeries.zero(F(5)).invert()


def test_division_rational_path():
    a = QSeries(0, [3, 1], prec=F(6))
    b = QSeries(0, [2, 1], prec=F(6))
    q = a / b
    assert q.coeff_at(0) == F(3, 2)
    assert first_mismatch(q * b, a) is None


def test_division_unit_lead_integer_path():
    num = QSeries(0, [1, 5, 7], prec=F(20))
    den = QSeries(0, [1, -1], prec=F(20))
    q = num / den
    assert q.den == 1
    assert first_mismatch(q * den, num) is None


# ---- powers ----------------------------------------------------------------

def test_pow_int_matches_repeated_mul():
    a = QSeries(0, [1, 1, 2], prec=F(10))
    assert a.pow_int(3) == a * a * a
    assert a.pow_int(0) == QSeries.one()


def test_pow_negative():
    a = QSeries(0, [1, 1], prec=F(9))
    assert first_mismatch(a.pow_int(-2) * a * a, QSeries.one()) is None


# ---- derivation ------------------------------------------------------------

def test_derive_multiplies_by_exponent():
    a = QSeries(F(11, 60), [5], prec=F(3))
    d = a.derive()
    assert d.coeff_at(F(11, 60)) == F(11, 60) * 5


def test_derive_kills_constant_term():
    a = QSeries(0, [4, 3], prec=F(5))
    d = a.derive()
    assert d.offset == 1 and d.coeff_at(1) == 3


def test_derive_of_constant_is_zero():
    assert QSeries.constant(7, prec=F(5)).derive().is_zero()


# ---- rescale ----------------------------------------------------------------

def test_rescale_integer():
    a = QSeries(F(1, 24), [1, -1], prec=F(10))
    b = a.rescale(5)
    assert b.offset == F(5, 24)
    assert b.coeff_at(F(5, 24) + 5) == -1
    assert b.prec == F(50)


def test_rescale_round_trip():
    a = QSeries(F(1, 24), [1, -1, 0, 2], prec=F(10))
    assert a.rescale(5).rescale(F(1, 5)) == a


def test_rescale_fractional_step():
    a = QSeries(0, [1, 1], prec=F(4))
    b = a.rescale(F(1, 2))
    assert b.step_den == 2 and b.coeff_at(F(1, 2)) == 1


def test_rescale_cap():
    a = QSeries(0, [1, 1], step_den=60, prec=F(4))
    with pytest.raises(ValueError, match="exceeds cap"):
        a.rescale(F(1, 7))


# ---- coefficient access -------------------------------------------------------

def test_coeff_at_beyond_precision_raises():
    a = QSeries(0, [1], prec=F(3))
    with pytest.raises(ValueError, match="beyond precision"):
        a.coeff_at(3)


def test_coeff_at_off_lattice_is_zero():
    a = QSeries(0, [1, 1], prec=F(5))
    assert a.coeff_at(F(1, 2)) == 0


# ---- serialization -------------------------------------------------------------

def test_json_round_trip():
    a = QSeries(F(11, 60), [1, 0, -2], den=3, prec=F(7))
    d = a.to_json()
    assert set(d) == {"offset", "step_den", "prec", "coeffs"}
    assert d["offset"] == "11/60"
    assert d["coeffs"] == ["1/3", "0", "-2/3"]
    assert QSeries.from_json(d) == a


def test_json_zero():
    z = QSeries.zero(F(5))
    assert QSeries.from_json(z.to_json()).is_zero()


# ---- property suites -------------------------------------------------------------

_offsets = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 12]))
_coeff_lists = st.lists(st.integers(-9, 9), min_size=0, max_size=6)


@st.composite
def qseries_strategy(draw, nonzero=False):
    nums = draw(_coeff_lists)
    if nonzero and not any(nums):
        nums = nums + [draw(st.integers(1, 9))]
    off = draw(_offsets)
    sd = draw(st.sampled_from([1, 2, 3]))
    den = draw(st.integers(1, 4))
    extra = draw(st.integers(0, 3))
    prec = off + F(len(nums) + extra, sd)
    return QSeries(off, nums, sd, den, prec)


@settings(max_examples=60, deadline=None)
@given(qseries_strategy(), qseries_strategy(), qseries_strategy())
def test_ring_axioms(a, b, c):
    assert first_mismatch((a + b) + c, a + (b + c)) is None
    assert first_mismatch(a + b, b + a) is None
    assert a * b == b * a
    assert first_mismatch((a * b) * c, a * (b * c)) is None
    assert first_mismatch(a * (b + c), a * b + a * c) is None


@settings(max_examples=60, deadline=None)
@given(qseries_strategy(), qseries_strategy())
def test_derive_is_a_derivation(a, b):
    lhs = (a * b).derive()
    rhs = a.derive() * b + a * b.derive()
    assert first_mismatch(lhs, rhs) is None


@settings(max_examples=40, deadline=None)
@given(qseries_strategy(nonzero=True))
def test_invert_round_trip(a):
    assert first_mismatch(a.invert().invert(), a) is None
    assert first_mismatch(a * a.invert(), QSeries.one()) is None


@settings(max_examples=40, deadline=None)
@given(qseries_strategy(nonzero=True), st.integers(0, 3), st.integers(0, 3))
def test_pow_additivity(a, m, n):
    assert first_mismatch(a.pow_int(m) * a.pow_int(n), a.pow_int(m + n)) is None


def _refine(a):
    """Extend a with two extra known coefficients beyond its current window."""
    w = (a.prec - a.offset) * a.step_den
    known = max(-((-w.numerator) // w.denominator), len(a.nums))
    pad = a.nums + [0] * (known - len(a.nums)) + [1, 1]
    return QSeries(a.offset, pad, a.step_den, a.den, a.prec + F(2, a.step_den))


@settings(max_examples=40, deadline=None)
@given(qseries_strategy(nonzero=True), qseries_strategy(nonzero=True))
def test_precision_soundness(a, b):
    """Recomputing with more precise inputs never changes known coefficients."""
    a_hi = _refine(a)
    b_hi = _refine(b)
    lo = a * b + a.derive()
    hi = a_hi * b_hi + a_hi.derive()
    assert first_mismatch(lo, hi) is None
    assert lo.prec is None or hi.prec is None or hi.prec >= lo.prec


@st.composite
def truncated_and_completion(draw, divisor=False):
    """A truncated series and an exact completion of it: its known terms, a
    term right at its precision, and terms further out, on or off its
    lattice.  A divisor gets a unit or non-unit leading slot."""
    off = F(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3, 4])))
    nums = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
    if divisor:
        nums[0] = draw(st.sampled_from([1, -1, 2, -3, 4, 6]))
    prec = off + F(draw(st.integers(1, 10)), draw(st.sampled_from([1, 2, 3, 6])))
    f = QSeries(off, nums, draw(st.sampled_from([1, 2, 3])),
                draw(st.integers(1, 4)), prec)
    g = QSeries(f.offset, f.nums, f.step_den, f.den)
    g = g + QSeries.monomial(draw(st.sampled_from([1, -2, 3])), prec)
    for j, d, c in draw(st.lists(st.tuples(
            st.integers(1, 6), st.sampled_from([1, 2, 3, 6]),
            st.integers(-3, 3)), max_size=2)):
        g = g + QSeries.monomial(c, prec + F(j, d))
    return f, g


@settings(max_examples=80, deadline=None)
@given(truncated_and_completion(), truncated_and_completion(divisor=True))
def test_division_precision_soundness(uc, vc):
    """No completion of the inputs beyond their precision changes a
    coefficient of u/v or 1/v below the precision reported for it."""
    (u, u_full), (v, v_full) = uc, vc
    for lo, num in ((u / v, u_full), (v.invert(), QSeries.one())):
        hi = num / v_full
        assert first_mismatch(hi * v_full, num) is None
        assert first_mismatch(lo, hi) is None
        assert lo.prec <= hi.prec


@settings(max_examples=80, deadline=None)
@given(truncated_and_completion(),
       st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6))
def test_rescale_precision_soundness(fc, s):
    """No completion of the input beyond its precision changes a
    coefficient of f(q^s) below the precision reported for it."""
    f, f_full = fc
    lo = f.rescale(s)
    hi = f_full.truncate(f.prec + 7).rescale(s)
    assert first_mismatch(lo, hi) is None
    assert lo.prec <= hi.prec


# ---- the Euler-product kernel --------------------------------------------------

def euler_product_by_passes(w, n):
    """Reference: multiply in each (1 - q^d)^w[d] one factor at a time."""
    c = [0] * n
    if n:
        c[0] = 1
    for d in range(1, min(len(w), n)):
        if w[d] > 0:
            for _ in range(w[d]):
                for k in range(n - 1, d - 1, -1):
                    c[k] -= c[k - d]
        else:
            for _ in range(-w[d]):
                for k in range(d, n):
                    c[k] += c[k - d]
    return c


def test_euler_product_small_cases():
    assert _euler_product([0, 1], 0) == []
    assert _euler_product([], 4) == [1, 0, 0, 0]
    assert _euler_product([0, 1], 4) == [1, -1, 0, 0]
    assert _euler_product([0, -1], 8) == [1, 1, 1, 1, 1, 1, 1, 1]
    assert _euler_product([0] + [-1] * 9, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-12, 12), max_size=80), st.integers(0, 80))
def test_euler_product_matches_repeated_passes(w, n):
    assert _euler_product(w, n) == euler_product_by_passes(w, n)


def test_euler_product_non_integral_step_raises():
    # (1 - q)^(1/2) = 1 - q/2 - ...: the first step is not an integer
    with pytest.raises(ArithmeticError, match="inexact"):
        _euler_product([0, F(1, 2)], 3)
