import random
import struct
from contextlib import contextmanager, nullcontext
from fractions import Fraction as F
from math import floor, gcd, lcm
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import modwron.qseries as qs
from modwron.etaprod import eta
from modwron.modpoly import E4
from modwron.poly import Poly
from modwron.qseries import (QSeries, first_mismatch, DEFAULT_PREC, LATTICE_CAP,
                             _add_prec, _ceil, _conv_trunc, _divexact,
                             _euler_product, _kron, _min_prec, _packs,
                             _upsample)

# run lengths (and twice each) and a tap width that the draws below straddle
SHORT, LONG, TAP_BITS = 32, 200, 32


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
    a = QSeries(0, [1, -1], prec=F(8))   # 1 - q + O(q^8)
    inv = a.invert()
    assert inv.nums == [1] * 8 and inv.prec == F(8)
    # an exact operand is inverted through DEFAULT_PREC
    assert (QSeries(0, [1, -1]).invert()
            == QSeries(0, [1] * DEFAULT_PREC, prec=F(DEFAULT_PREC)))


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


def series_products(monkeypatch):
    """The list of (self, other) of every series product from now on, by a
    spy on QSeries multiplication; a product by a number is not listed."""
    calls, real = [], QSeries.__mul__

    def spy(self, other):
        if isinstance(other, QSeries):
            calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(QSeries, "__mul__", spy)
    monkeypatch.setattr(QSeries, "__rmul__", spy)
    return calls


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


def conv_by_loop(a, b, n=None):
    """Reference: the schoolbook truncated product."""
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    if n is None or n > la + lb - 1:
        n = la + lb - 1
    rb = b[::-1]
    out = []
    for t in range(n):
        lo = max(t - lb + 1, 0)
        hi = min(t, la - 1)
        out.append(sum(map(mul, a[lo:hi + 1], rb[lb - 1 - t + lo:lb - t + hi]))
                   if hi >= lo else 0)
    return out


def divexact_by_loop(u, v, w):
    """Reference: the row-by-row exact triangular solve."""
    v0 = 0
    while not v[v0]:
        v0 += 1
    lead, tail = v[v0], v[v0 + 1:]
    out = []
    for n in range(w - v0):
        acc = u[n + v0] if n + v0 < len(u) else 0
        jm = min(len(tail), n)
        if jm:
            acc -= sum(map(mul, tail[:jm], out[n - jm:n][::-1]))
        q, r = divmod(acc, lead)
        if r:
            raise ArithmeticError("inexact division in fraction-free elimination")
        out.append(q)
    return out


# lengths on both sides of LONG and of 2 * LONG
_lengths = st.one_of(
    st.integers(0, 1200),
    st.sampled_from([LONG - 1, LONG, LONG + 1,
                     2 * LONG - 1, 2 * LONG, 2 * LONG + 1]))


@st.composite
def int_vectors(draw, max_bits=3000):
    """A signed int list: one sign pattern, one magnitude pattern, and runs
    of zeros, expanded from a drawn seed so that long lists stay cheap."""
    n = draw(_lengths)
    # the loop reference costs n^2 big-int products: long lists get
    # narrower entries
    bits = draw(st.integers(0, max_bits if n <= 400 else min(max_bits, 600)))
    sign = draw(st.sampled_from(["+", "-", "+-"]))
    size = draw(st.sampled_from(["max", "uniform", "mixed"]))
    zeros = draw(st.sampled_from([0, 0.3, 0.9]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    out = []
    while len(out) < n:
        if zeros and rng.random() < zeros:
            out += [0] * rng.randint(1, 60)
            continue
        b = bits if size != "mixed" else rng.randint(0, bits)
        x = (1 << b) - 1 if size == "max" else rng.getrandbits(b) if b else 0
        negative = sign == "-" or (sign == "+-" and rng.random() < 0.5)
        out.append(-x if negative else x)
    return out[:n]


def _cut(draw, la, lb):
    """None, a truncation inside the full product, or one past it."""
    full = la + lb - 1
    return draw(st.one_of(st.none(), st.integers(0, max(full, 0)),
                          st.integers(full + 1, full + 50)))


@settings(max_examples=60, deadline=None)
@given(int_vectors(), int_vectors(), st.data())
def test_conv_trunc_matches_loop(a, b, data):
    n = _cut(data.draw, len(a), len(b))
    assert _conv_trunc(a, b, n) == conv_by_loop(a, b, n)


@pytest.mark.parametrize("bits", range(0, 34))
def test_conv_trunc_slot_width_worst_case(bits):
    # equal-signed maximal entries put the largest slot right at the bound
    for sign in (1, -1):
        a = [sign * ((1 << bits) - 1)] * 256
        b = [(1 << (bits + 3)) - 1] * 300
        assert _conv_trunc(a, b) == conv_by_loop(a, b)


@settings(max_examples=6, deadline=None)
@given(st.integers(LONG, LONG + 60), st.integers(0, 2 ** 32), st.data())
def test_conv_trunc_fraction_entries_stay_exact(la, seed, data):
    rng = random.Random(seed)
    a = [F(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(la)]
    lb = data.draw(st.integers(LONG, 300))
    b = [rng.randint(-99, 99) for _ in range(lb)]
    b[rng.randrange(len(b))] = F(1, 3)
    n = _cut(data.draw, la, len(b))
    assert _conv_trunc(a, b, n) == conv_by_loop(a, b, n)
    assert _conv_trunc(b, b, LONG) == conv_by_loop(b, b, LONG)


def _val(v):
    return next(i for i, c in enumerate(v) if c)


@st.composite
def divisors(draw):
    """A slot vector that leads at slot 0 with a unit or non-unit lead, as
    _divexact requires."""
    lead = draw(st.sampled_from([1, -1, 2, -3, 7, 2 ** 61 - 1]))
    return [lead] + draw(int_vectors(max_bits=200))


def _outcome(solve, *args):
    try:
        return solve(*args)
    except ArithmeticError as e:
        return str(e)


@settings(max_examples=40, deadline=None)
@given(divisors(), int_vectors(max_bits=200), st.data())
def test_divexact_matches_loop(v, x, data):
    v0 = _val(v)
    w = v0 + len(x)
    u = conv_by_loop(v, x, w)
    assert _divexact(u, v, w) == divexact_by_loop(u, v, w) == x
    # a dividend shorter than the window: exact for a unit lead, and for
    # another lead both solves stop at the same inexact step
    short = u[:data.draw(st.integers(0, len(u)))]
    assert (_outcome(_divexact, short, v, w)
            == _outcome(divexact_by_loop, short, v, w))


@settings(max_examples=20, deadline=None)
@given(divisors(), st.integers(2 * LONG + 1, 1200), st.integers(0, 2 ** 32))
def test_divexact_inexact_step_past_the_split_raises(v, n, seed):
    rng = random.Random(seed)
    v0 = _val(v)
    if v[v0] in (1, -1):
        v[v0] *= 3
    x = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
    u = conv_by_loop(v, x, v0 + n)
    u[v0 + rng.randint(2 * LONG, n - 1)] += 1
    for solve in (_divexact, divexact_by_loop):
        with pytest.raises(ArithmeticError, match="inexact division"):
            solve(u, v, v0 + n)


@st.composite
def euler_weights(draw):
    """Sparse small exponents: the passes reference costs sum |w| * n."""
    n = draw(_lengths)
    density = draw(st.sampled_from([0.005, 0.05, 0.3]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]


@settings(max_examples=20, deadline=None)
@given(euler_weights(), _lengths)
def test_euler_product_matches_passes_past_the_cut_off(w, n):
    assert _euler_product(w, n) == euler_product_by_passes(w, n)


def test_euler_product_inexact_step_past_the_cut_off_raises():
    # s_j gains -401/2 at multiples of 401, so step 401 is not an integer;
    # the Fraction entries keep the solve on the loop
    w = [0, -1] + [0] * 399 + [F(1, 2)]
    with pytest.raises(ArithmeticError, match="inexact"):
        _euler_product(w, 900)
    # below step 401 every slot is an int, and the split solve runs
    assert _euler_product(w, 401) == euler_product_by_passes(w[:401], 401)


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


# ---- the structure-aware solve ------------------------------------------------

def euler_product_by_loop(w, n):
    """Reference: the log-derivative recurrence k c_k = sum s_j c_{k-j},
    row by row."""
    if n <= 0:
        return []
    s = [0] * n
    for d in range(1, min(len(w), n)):
        for j in range(d, n, d):
            s[j] -= d * w[d]
    c = [1] + [0] * (n - 1)
    for k in range(1, n):
        x = sum(map(mul, s[1:k + 1], c[k - 1::-1]))
        q, r = divmod(x, k)
        if r:
            raise ArithmeticError("inexact step in the Euler-product recurrence")
        c[k] = q
    return c


class ThetaSpec:
    """Reference: sum over n in Z of sign(n) * q^((A*n^2 + B*n)/2), A > 0."""

    SIGNS = ("trivial", "alternating")

    def __init__(self, A, B, sign="trivial"):
        self.A = F(A)
        self.B = F(B)
        if self.A <= 0:
            raise ValueError("theta quadratic coefficient must be positive")
        if sign not in self.SIGNS:
            raise ValueError("sign must be one of %r" % (self.SIGNS,))
        self.sign = sign


def theta_sum(spec, N):
    """Reference: a ThetaSpec expanded exactly, to absolute precision N.

    The integer n0 nearest -B/(2A) has the lowest exponent e0, and
    e(n0 + t) - e0 = A t(t-1)/2 + d t with d = e(n0 + 1) - e0: the slots
    below N, on e0 + gcd(A, d) Z, are allocated before t walks out from 0."""
    N = F(N)
    A, B = spec.A, spec.B
    alt = spec.sign == "alternating"
    n0 = floor(F(1, 2) - B / (2 * A))
    e0 = (A * n0 * n0 + B * n0) / 2
    d = A * n0 + (A + B) / 2
    step = lcm(A.denominator, d.denominator)
    nums = [0] * max(_ceil((N - e0) * step), 0)
    a, d = int(A * step), int(d * step)      # A and d in slots
    for t, dt in ((0, 1), (-1, -1)):
        while (s := a * t * (t - 1) // 2 + d * t) < len(nums):
            nums[s] += -1 if alt and (n0 + t) % 2 else 1
            t += dt
    return QSeries(e0, nums, step, 1, N)


def _sparse(tail):
    """True when _solve runs tap by tap on this tail."""
    return 4 * (len(tail) - tail.count(0)) < len(tail)


class _KronCounter:
    """Counts the packed products of a solve."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = qs._kron

        def counted(a, b, n, start=0):
            self.calls += 1
            return real(a, b, n, start)
        monkeypatch.setattr(qs, "_kron", counted)


def _round_trip(v, x):
    """u = v * x, then both solves must give x back."""
    w = _val(v) + len(x)
    u = conv_by_loop(v, x, w)
    assert _divexact(u, v, w) == divexact_by_loop(u, v, w) == x


def _inexact_at(v, x, pos):
    """v * x with 1 added at slot pos of the quotient window: both solves
    must stop there (v's lead is not a unit)."""
    v0 = _val(v)
    u = conv_by_loop(v, x, v0 + len(x))
    u[v0 + pos] += 1
    for solve in (_divexact, divexact_by_loop):
        with pytest.raises(ArithmeticError, match="inexact division"):
            solve(u, v, v0 + len(x))


# lengths on both sides of SHORT, 2 * SHORT and 2 * LONG
_solve_lengths = st.one_of(
    st.integers(0, 900),
    st.sampled_from([SHORT - 1, SHORT, SHORT + 1,
                     2 * SHORT - 1, 2 * SHORT, 2 * SHORT + 1,
                     2 * LONG - 1, 2 * LONG, 2 * LONG + 1]))


def _real_divisor(name, n):
    if name == "eta":
        return eta(1, n).nums[:n]
    if name == "theta":
        # the theta sum of a1_f2: content 2, lead 2, taps at n(n+1)
        return theta_sum(ThetaSpec(2, 2), n).nums[:n]
    # eta(5 tau) on the 1/5 lattice, as rw1 divides by it
    return _upsample(eta(5, n).nums, 5)[:n]


@pytest.mark.parametrize("name", ["eta", "theta", "eta5"])
@pytest.mark.parametrize("n", [31, 32, 33, 64, 65, 399, 400, 401, 900])
def test_divexact_by_eta_and_theta_divisors(name, n):
    v = _real_divisor(name, n)
    if n >= 400:
        assert _sparse(v[1:])
    rng = random.Random(n)
    _round_trip(v, [rng.randint(-2 ** 40, 2 ** 40) for _ in range(n)])
    _round_trip(v, [rng.randint(-9, 9) for _ in range(n)])


@st.composite
def tails(draw, above=False):
    """A divisor tail with at most a quarter nonzero taps (the sparse path),
    or, with above, the fewest taps that keep it dense."""
    m = draw(_solve_lengths)
    most = -(-m // 4)          # the fewest taps with 4 * nnz >= m
    k = most if above else draw(st.integers(0, max(most - 1, 0)))
    bits = draw(st.sampled_from([1, 8, TAP_BITS, TAP_BITS + 1, 200]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    tail = [0] * m
    for j in rng.sample(range(m), min(k, m)):
        tail[j] = rng.choice([-1, 1]) * rng.randint(1, 2 ** bits - 1)
    return tail


@settings(max_examples=40, deadline=None)
@given(tails(), st.sampled_from([1, -1, 2, -3, 7]), st.integers(0, 2 ** 32))
def test_divexact_sparse_tails_match_loop(tail, lead, seed):
    assert _sparse(tail) or not tail
    rng = random.Random(seed)
    x = [rng.randint(-2 ** 30, 2 ** 30) for _ in range(len(tail) + 1)]
    _round_trip([lead] + tail, x)


@settings(max_examples=25, deadline=None)
@given(tails(above=True), st.sampled_from([1, -1, 2, -3, 7]),
       st.integers(0, 2 ** 32))
def test_divexact_just_dense_tails_match_loop(tail, lead, seed):
    assert not _sparse(tail)
    rng = random.Random(seed)
    x = [rng.randint(-2 ** 30, 2 ** 30) for _ in range(len(tail) + 1)]
    _round_trip([lead] + tail, x)


@settings(max_examples=30, deadline=None)
@given(_solve_lengths, st.integers(0, TAP_BITS + 1),
       st.sampled_from([1, -1, 3, -5]), st.integers(0, 2 ** 32))
def test_divexact_small_taps_match_loop(n, bits, lead, seed):
    # dense taps of at most 33 bits, on runs that split
    rng = random.Random(seed)
    tail = [rng.choice([-1, 1]) * rng.randint(1, 2 ** max(bits, 1) - 1)
            for _ in range(n)]
    x = [rng.randint(-2 ** 60, 2 ** 60) for _ in range(n + 1)]
    _round_trip([lead] + tail, x)


def test_small_tap_solve_packs_its_cross_products(monkeypatch):
    counter = _KronCounter(monkeypatch)
    rng = random.Random(5)
    _round_trip([1] + [rng.randint(-9, 9) or 1 for _ in range(127)],
                [rng.randint(-99, 99) for _ in range(128)])
    assert counter.calls >= 3      # 128 -> 2 x 64 -> 4 x 32 slots, or finer
    # a quotient far wider than the taps (the width cliff) or a sparse tail
    # never reaches _kron
    counter.calls = 0
    _round_trip([1] * 128, [2 ** 3000 + i for i in range(128)])
    _round_trip([1] + [0] * 60 + [5] + [0] * 60, list(range(128)))
    assert counter.calls == 0
    # a wide tap over narrow quotients packs or loops as priced; either way
    # the round trip holds
    _round_trip([1, 2 ** 40] + [1] * 127, list(range(128)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([0.0, 0.1, 0.24]))
def test_divexact_inexact_step_in_a_sparse_solve_raises(seed, density):
    rng = random.Random(seed)
    n = rng.randint(10, 700)
    tail = [rng.randint(-99, 99) if rng.random() < density else 0
            for _ in range(n)]
    if not _sparse(tail):
        tail = [0] * n
    _inexact_at([3] + tail, [rng.randint(-99, 99) for _ in range(n)],
                rng.randrange(1, n))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_divexact_inexact_step_in_a_small_leaf_raises(seed):
    rng = random.Random(seed)
    n = rng.randint(2 * SHORT, 300)
    tail = [rng.randint(1, 2 ** 20) for _ in range(n)]
    # past the first split
    _inexact_at([-3] + tail, [rng.randint(-99, 99) for _ in range(n)],
                rng.randrange(SHORT + 1, n))


@st.composite
def euler_weights_by_width(draw):
    """Dense weights whose sums s_j are small (at most 32 bits) or wide."""
    n = draw(_solve_lengths)
    if n > 500:
        n //= 2
    wide = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    top = 2 ** 40 if wide else 5
    return [0] + [rng.randint(-top, top) if rng.random() < 0.5 else 0
                  for _ in range(n)], n


@settings(max_examples=30, deadline=None)
@given(euler_weights_by_width())
def test_euler_product_small_and_wide_taps_match_loop(wn):
    w, n = wn
    c = _euler_product(w, n)
    assert c == euler_product_by_loop(w, n)
    # prod (1 - q^d)^w[d] times prod (1 - q^d)^(-w[d]) is 1
    inverse = _euler_product([-x for x in w], n)
    assert _conv_trunc(c, inverse, n) == [1] + [0] * (n - 1) if n else c == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 160), st.booleans(),
       st.integers(0, 2 ** 32))
def test_euler_product_on_a_coarser_lattice_matches_loop(g, n, wide, seed):
    """Weights on gZ run the recurrence in q^g; g = 0 draws all-zero weights,
    whose product is 1."""
    rng = random.Random(seed)
    top = 2 ** 40 if wide else 5
    w = [0] * (n + rng.randint(0, 3))
    if g:
        for d in range(g, len(w), g):
            w[d] = rng.randint(-top, top) if rng.random() < 0.6 else 0
    assert _euler_product(w, n) == euler_product_by_loop(w, n)


def test_euler_product_inexact_step_in_a_sparse_solve_raises():
    # a weight at 10 alone sets one tap in ten; s_10 = -5 divides by 10
    # inexactly
    w = [0] * 10 + [F(1, 2)] + [0] * 100
    with pytest.raises(ArithmeticError, match="inexact"):
        _euler_product(w, 100)
    # one tap in five, all exact
    w = [0, 0, 0, 0, 0, 1] + [0] * 400
    assert _euler_product(w, 400) == euler_product_by_passes(w, 400)


# ---- the middle product of the split solve -----------------------------------

# run lengths on both sides of SHORT, of two such runs, and of 2 * LONG
_straddle = st.sampled_from([SHORT - 1, SHORT, SHORT + 1,
                             2 * SHORT - 1, 2 * SHORT,
                             2 * SHORT + 1, 2 * LONG - 1,
                             2 * LONG, 2 * LONG + 1])


@settings(max_examples=40, deadline=None)
@given(_straddle, _straddle, st.integers(0, 80), st.sampled_from([1, 8, 40]),
       st.integers(0, 2 ** 32), st.data())
def test_middle_product_is_a_window_of_the_product(la, lb, extra, bits, seed,
                                                   data):
    rng = random.Random(seed)
    a = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(la)]
    b = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(lb)]
    n = data.draw(st.integers(1, la + lb + extra))
    start = data.draw(st.sampled_from([0, la - 1, n // 2, n - 1, n]))
    start = min(start, n)
    full = conv_by_loop(a, b, n)
    assert _kron(a, b, n, start) == full[start:]


@settings(max_examples=30, deadline=None)
@given(_straddle, st.sampled_from([1, TAP_BITS, TAP_BITS + 1, 200]),
       st.sampled_from([1, -1, 3, -5]), st.integers(0, 2 ** 32))
def test_split_solve_on_straddling_lengths_matches_loop(n, bits, lead, seed):
    # small and wide taps split at the lengths the cost model picks; every
    # cross product is a middle product
    rng = random.Random(seed)
    tail = [rng.choice([-1, 1]) * rng.randint(1, 2 ** bits - 1)
            for _ in range(n)]
    v = [lead] + tail
    x = [rng.randint(-2 ** 60, 2 ** 60) for _ in range(n + 1)]
    _round_trip(v, x)
    # a dividend off by one at a slot past the first split: both solves stop
    # at the same step, or both succeed when the lead is a unit
    u = conv_by_loop(v, x, n + 1)
    u[rng.randint(min(n, n // 2 + 1), n)] += 1
    assert (_outcome(_divexact, u, v, n + 1)
            == _outcome(divexact_by_loop, u, v, n + 1))


@settings(max_examples=20, deadline=None)
@given(_straddle, st.booleans(), st.integers(0, 2 ** 32))
def test_euler_product_on_straddling_lengths_matches_loop(n, wide, seed):
    rng = random.Random(seed)
    top = 2 ** 40 if wide else 5
    w = [0] + [rng.randint(-top, top) for _ in range(n)]
    assert _euler_product(w, n) == euler_product_by_loop(w, n)


# ---- long division by a divisor with content -------------------------------------

def _series_val(x):
    """Valuation of a series for precision bounds: a series known to be
    zero below its precision has no term below it."""
    return x.offset if x.nums else x.prec


def long_div_keeping_content(u, v, prec=None):
    """Reference: _long_div before it divided out the divisor's content."""
    out_prec = _min_prec(_add_prec(u.prec, -v.offset),
                         _add_prec(v.prec, _series_val(u) - 2 * v.offset))
    if out_prec is None:
        out_prec = F(prec if prec is not None else DEFAULT_PREC)
    offset = u.offset - v.offset
    L = lcm(u.step_den, v.step_den)
    n_out = max(_ceil((out_prec - offset) * L), 0)
    if n_out == 0:
        return QSeries.zero(out_prec)
    a = u.nums if u.step_den == L else _upsample(u.nums, L // u.step_den)
    b = v.nums if v.step_den == L else _upsample(v.nums, L // v.step_den)
    scale = b[0] ** n_out
    q = divexact_by_loop([x * scale * v.den for x in a[:n_out]], b, n_out)
    return QSeries(offset, q, L, u.den * scale, out_prec)


@settings(max_examples=80, deadline=None)
@given(qseries_strategy(nonzero=True), st.integers(0, 2 ** 32),
       st.sampled_from([2, 3, 4, 6, 12, 2 ** 20]),
       st.sampled_from([1, -1, 5, -7]))
def test_division_by_a_divisor_with_content(u, seed, g, lead):
    rng = random.Random(seed)
    tail = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(rng.randint(0, 40))]
    # a primitive vector lead, tail[...]; its multiple by g has content g
    tail.append(1)
    off = F(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    # a denominator prime to g and to the lead keeps the content in the
    # numerators, also when prec keeps the lead alone
    v = QSeries(off, [g * lead] + [g * c for c in tail], rng.choice([1, 2, 5]),
                rng.choice([d for d in (1, 5, 7) if gcd(d, lead) == 1]),
                rng.choice([None, off + F(rng.randint(1, 60), 2)]))
    assert v.nums[0] == g * lead and gcd(*v.nums) > 1
    for num in (u, QSeries.one()):
        assert (num / v).to_json() == long_div_keeping_content(num, v).to_json()


# ---- schedules chosen by the cost model ----------------------------------------

def _forced(packs):
    """The kernels with _packs answering packs for every product."""
    return mock.patch.object(qs, "_packs", lambda *args: packs)


@settings(max_examples=40, deadline=None)
@given(int_vectors(max_bits=600), st.data())
def test_square_matches_the_product_with_a_copy(a, data):
    # the same list on both sides is one packed square, or the loop that
    # doubles each a_i a_j, i < j; a list equal to a but for one slot is a
    # product.  Four loops per example: at most 2 * LONG + 1 slots
    a = a[:2 * LONG + 1]
    n = _cut(data.draw, len(a), len(a))
    other = list(a)
    if other:
        other[data.draw(st.integers(0, len(a) - 1))] += 1
    square, product = conv_by_loop(a, list(a), n), conv_by_loop(a, other, n)
    for packs in (None, True, False):
        with _forced(packs) if packs is not None else nullcontext():
            assert _conv_trunc(a, a, n) == square
            assert _conv_trunc(a, other, n) == product
    if square:
        assert _kron(a, a, len(square)) == square
    fracs = [F(x, 3) for x in a[:60]]
    assert _conv_trunc(fracs, fracs, n) == conv_by_loop(fracs, list(fracs), n)


@settings(max_examples=30, deadline=None)
@given(int_vectors(max_bits=200), _offsets, st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 6]), st.integers(0, 2 ** 32))
def test_series_square_and_power_match_copies(nums, off, sd, den, seed):
    rng = random.Random(seed)
    prec = rng.choice([None, off + F(rng.randint(0, 2 * len(nums) + 2), sd)])
    x = QSeries(off, nums, sd, den, prec)
    copy = QSeries(x.offset, x.nums, x.step_den, x.den, x.prec)
    assert copy.nums is not x.nums
    assert x * x == x * copy
    if x.nums:
        assert x ** 3 == (x * copy) * copy


def mul_upsampled(x, y):
    """Reference: the product with both operands upsampled to the common
    lattice."""
    prec = _min_prec(_add_prec(x.prec, _series_val(y)),
                     _add_prec(y.prec, _series_val(x)))
    L = lcm(x.step_den, y.step_den)
    offset = x.offset + y.offset
    n = None if prec is None else max(_ceil((prec - offset) * L), 0)
    a = _upsample(x.nums, L // x.step_den)
    b = _upsample(y.nums, L // y.step_den)
    return QSeries(offset, conv_by_loop(a, b, n), L, x.den * y.den, prec)


@st.composite
def lattice_pair(draw, divisor=False):
    """A series on a lattice s = 2..6 times coarser than the common lattice
    of the pair, and one on that lattice or on another coarse one; long or
    rational coefficients, offsets, exact or truncated, with a precision
    on or off the lattice.  As a divisor, the coarse one has a small lead
    and taps."""
    s = draw(st.integers(2, 6))
    c = draw(st.sampled_from([1, 2, 3]))
    fine = draw(st.sampled_from([c * s, s]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    bits = draw(st.sampled_from([1, 8, 60, 300]))

    def series(step, n, small):
        nums = [rng.randint(-9, 9) if small else
                rng.choice([-1, 1]) * rng.getrandbits(bits) for _ in range(n)]
        nums[0] = rng.choice([1, -1, 2, 3]) if small else nums[0] or 1
        if n > 1 and not nums[1]:
            nums[1] = 1        # keeps the series on its own lattice
        off = F(rng.randint(-6, 6), rng.choice([1, 2, step]))
        prec = rng.choice([
            None,
            off + F(rng.randint(small, n + 20), step),                 # on
            off + F(rng.randint(small, n + 20), step) + F(1, 7 * step)])  # off
        return QSeries(off, nums, step, rng.choice([1, 1, 6, 35]), prec)

    lengths = st.sampled_from([1, 2, 7, 40, 150])
    coarse = series(c, draw(lengths), divisor)
    other = series(fine, draw(lengths), False)
    if divisor and lcm(c, fine) > 6:
        # an exact quotient runs to DEFAULT_PREC: keep the loop reference
        # to a few hundred slots
        other = other.truncate(other.offset + 30)
    return coarse, other


@settings(max_examples=60, deadline=None)
@given(lattice_pair())
def test_coarse_lattice_product_matches_upsampled(pair):
    coarse, other = pair
    for x, y in ((coarse, other), (other, coarse)):
        assert x * y == mul_upsampled(x, y)


@settings(max_examples=40, deadline=None)
@given(lattice_pair(divisor=True))
def test_coarse_lattice_quotient_matches_upsampled(pair):
    v, u = pair
    assert u / v == long_div_keeping_content(u, v)
    assert v.invert() == long_div_keeping_content(QSeries.one(), v)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300),
       st.sampled_from([(20000, 40), (40, 20000), (3000, 1), (1, 3000)]),
       st.integers(0, 2 ** 32), st.data())
def test_conv_trunc_unequal_widths_match_loop(la, lb, widths, seed, data):
    rng = random.Random(seed)
    a, b = ([rng.choice([-1, 1]) * rng.getrandbits(w) for _ in range(k)]
            for k, w in ((la, widths[0]), (lb, widths[1])))
    n = _cut(data.draw, la, lb)
    assert _conv_trunc(a, b, n) == conv_by_loop(a, b, n)


def test_cost_model_loops_past_the_width_cliff():
    # 1000 slots: 20000 x 40 bits loops either way round, 4000 x 4000 packs
    assert not _packs(1000, 1000, 20000, 40, 1000)
    assert not _packs(1000, 1000, 40, 20000, 1000)
    assert _packs(1000, 1000, 4000, 4000, 1000)
    # narrow lists pack from a few dozen slots on, and so do their squares
    assert _packs(64, 64, 32, 32, 127) and _packs(64, 64, 32, 32, 127, 0, True)
    assert not _packs(4, 4, 32, 32, 7)
    # a middle product of a solve on 32-bit taps: 64 solved slots pack,
    # 3000-bit ones do not
    assert _packs(64, 127, 32, 32, 127, 63)
    assert not _packs(64, 127, 3000, 32, 127, 63)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 200), st.integers(300, 700), st.sampled_from([1, 8, 40]),
       st.integers(0, 2 ** 32))
def test_divexact_short_dense_divisor_long_quotient(lt, n, bits, seed):
    # taps far shorter than the run: a middle product has fewer slots than
    # the right half it feeds
    rng = random.Random(seed)
    tail = [rng.choice([-1, 1]) * rng.randint(1, 2 ** bits) for _ in range(lt)]
    _round_trip([rng.choice([1, -1, 3])] + tail,
                [rng.randint(-2 ** 20, 2 ** 20) for _ in range(n)])


@pytest.mark.parametrize("step", [1, 5, 40])
@pytest.mark.parametrize("sign", [1, -1])
def test_kron_slot_width_worst_case_on_widening_entries(step, sign):
    # equal-signed maximal entries widening along the lists: the widest
    # slot below n is the one the field width is cut to
    for la, lb in ((60, 60), (60, 25), (25, 60)):
        a = [sign * ((1 << (1 + step * i)) - 1) for i in range(la)]
        b = [(1 << (3 + step * j)) - 1 for j in range(lb)]
        for n in (1, la // 2, la, la + lb - 1):
            full = conv_by_loop(a, b, n)
            assert _kron(a, b, n) == full
            assert _kron(a, b, n, n // 2) == full[n // 2:]
        assert _kron(a, a, la) == conv_by_loop(a, list(a), la)


@contextmanager
def pack_widths():
    """The slot width in bytes of every _pack call inside the block."""
    widths = []
    real = qs._pack

    def spy(xs, nbytes, bias):
        widths.append(nbytes)
        return real(xs, nbytes, bias)

    with mock.patch.object(qs, "_pack", spy):
        yield widths


# the slot a _kron call takes for each exact need of 1-9 bytes: up to 8
# bytes widened to a struct size, 9 the first wide slot
STRUCT_WIDTH = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 9}


@pytest.mark.parametrize("need", sorted(STRUCT_WIDTH))
@pytest.mark.parametrize("length", [1, 2, 5, 40])
@pytest.mark.parametrize("edge", ["low", "high"])
def test_kron_takes_each_slot_width_exactly(need, length, edge):
    # lists of maximal entries +-(2^w - 1) whose summed widths top put the
    # slot need (top + bit length of the length + 8 bits, a sign bit and
    # the carries) at either end of `need` bytes: all positive, all
    # negative and alternating signs; products, middle products, and the
    # square of the narrower list
    room = 8 * need - 8 - length.bit_length()
    top = max(room, 0) if edge == "low" else room + 7
    assert (top + length.bit_length() + 8) // 8 == need or top == 0
    wa, wb = top // 2, top - top // 2
    for signs in ((1, 1), (-1, -1), (1, -1)):
        a = [signs[i % 2] * ((1 << wa) - 1) for i in range(length)]
        b = [-signs[i % 2] * ((1 << wb) - 1) for i in range(length)]
        full = conv_by_loop(a, b)
        with pack_widths() as widths:
            assert _kron(a, b, len(full)) == full
            for start in (1, length - 1, len(full) - 1, len(full)):
                assert _kron(a, b, len(full), start) == full[start:]
        assert set(widths) == {STRUCT_WIDTH[need]}, widths
        square = conv_by_loop(a, list(a))
        with pack_widths() as widths:
            assert _kron(a, a, len(square)) == square
        # a square packs its even and its odd entries, at one width
        assert widths == 2 * [STRUCT_WIDTH[
            (2 * wa + length.bit_length() + 8) // 8]], widths


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 80),
       st.integers(0, 80), st.integers(0, 2 ** 32), st.data())
def test_kron_matches_the_loop_on_every_slot_width(la, lb, ba, bb, seed,
                                                   data):
    # entries at their width's extremes as often as inside it, on both
    # paths, for products, squares and windows starting anywhere up to and
    # past the clamped n = la + lb - 1
    rng = random.Random(seed)

    def entry(bits):
        x = rng.choice([(1 << bits) - 1, rng.randint(0, (1 << bits) - 1)])
        return rng.choice([1, -1]) * x

    a = [entry(ba) for _ in range(la)]
    b = a if data.draw(st.booleans()) else [entry(bb) for _ in range(lb)]
    n = data.draw(st.integers(1, len(a) + len(b) + 3))
    start = data.draw(st.integers(0, n + 2))
    full = conv_by_loop(a, list(b), n)
    assert _kron(a, b, n, start) == full[start:]


@pytest.mark.parametrize("n", [1, 3, 7])
def test_kron_window_past_the_clamped_length_is_empty(n):
    # n is clamped to len(a) + len(b) - 1 = n; a window from there or
    # further holds no slot on either path
    for bits in (1, 50, 100):
        a = [(1 << bits) - 1] * ((n + 1) // 2)
        b = [-(1 << bits) + 1] * (n + 1 - len(a))
        for start in (n, n + 1, 3 * n):
            assert _kron(a, b, 4 * n, start) == []
            assert _kron(a, a, 4 * n, start) == []


# entry widths whose slots take 1, 2, 4 and 8 bytes through struct, and 9
# and 16 bytes wide
@pytest.mark.parametrize("bits", [1, 5, 12, 28, 33, 60])
@pytest.mark.parametrize("la, lb", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 6),
                                    (6, 1), (2, 7), (7, 2), (5, 8), (8, 5),
                                    (6, 6), (7, 7)])
def test_kron_even_and_odd_halves_match_the_loop(bits, la, lb):
    # entries +-(2^bits - 1): all positive, all negative, alternating and
    # mixed signs; every n up to and past the clamped la + lb - 1, odd and
    # even; windows from 0, 1, an odd slot, n - 1, n and past n; products
    # and squares.  The even and the odd slots of the product come from
    # h(X) +- h(-X), so each of them, and their interleave, is checked
    rng = random.Random(bits * 100 + la * 10 + lb)
    top = (1 << bits) - 1
    for signs in ((1,), (-1,), (1, -1), tuple(rng.choice([1, -1])
                                             for _ in range(la + lb))):
        a = [signs[i % len(signs)] * top for i in range(la)]
        b = [-signs[(i + 1) % len(signs)] * top for i in range(lb)]
        for n in range(1, la + lb + 2):
            full, square = conv_by_loop(a, b, n), conv_by_loop(a, list(a), n)
            for start in (0, 1, 3, n - 1, n, n + 2):
                assert _kron(a, b, n, start) == full[start:]
                assert _kron(a, a, n, start) == square[start:]


@pytest.mark.parametrize("nbytes", [1, 2, 4, 8, 9, 16])
def test_pack_takes_every_entry_of_its_field_and_refuses_the_rest(nbytes):
    # the bias may reach past the entries: _kron passes the one of its
    # n slots to both operands
    half = 1 << (8 * nbytes - 1)
    xs = [-half, half - 1, 0, -1, 1, -half + 1, half - 2, -half]
    for extra in (0, 1, 5):
        bias = sum(half << (8 * nbytes * i) for i in range(len(xs) + extra))
        assert qs._pack(xs, nbytes, bias) == sum(
            x << (8 * nbytes * i) for i, x in enumerate(xs))
        assert qs._pack([], nbytes, bias) == 0
        for bad in (half, -half - 1, 2 * half):
            with pytest.raises((struct.error, OverflowError)):
                qs._pack([0, bad, 0], nbytes, bias)


@pytest.mark.parametrize("stride", [1, 2, 5])
def test_upsample_spreads_the_slots_stride_apart(stride):
    assert _upsample([], stride) == []
    assert _upsample([7], stride) == [7]
    nums = [3, 0, -1, 5]
    out = _upsample(nums, stride)
    assert len(out) == 3 * stride + 1
    assert out == [nums[i // stride] if i % stride == 0 else 0
                   for i in range(len(out))]


@settings(max_examples=25, deadline=None)
@given(_solve_lengths, st.integers(33, 128), st.sampled_from([8, 64, 600]),
       st.sampled_from([3, -5]), st.integers(0, 2 ** 32))
def test_divexact_wide_taps_match_loop(n, bits, xbits, lead, seed):
    # taps of 33-128 bits and quotients narrower or far wider than them:
    # the split solve packs a middle product or loops the right half
    rng = random.Random(seed)
    tail = [rng.choice([-1, 1]) * rng.randint(1, 2 ** bits - 1)
            for _ in range(n)]
    v = [lead] + tail
    x = [rng.choice([-1, 1]) * rng.getrandbits(xbits) for _ in range(n + 1)]
    _round_trip(v, x)
    # an inexact step in either half of the top split, and in the last slot
    u = conv_by_loop(v, x, n + 1)
    for pos in {n // 4, n // 2 + 1, n, rng.randint(0, n)} - {n + 1}:
        u[pos] += 1
        with pytest.raises(ArithmeticError, match="inexact division"):
            _divexact(u, v, n + 1)
        u[pos] -= 1


# ---- printing -------------------------------------------------------------

@pytest.mark.parametrize("terms,text", [
    ([(F(-1, 3), "E6"), (F(1, 2), "")], "-(1/3)*E6 + 1/2"),
    ([(F(1), "x^2"), (F(-1), "x")], "x^2 - x"),
    ([(F(-1), "q"), (F(1), "q^2")], "-q + q^2"),
    ([(F(-3), "E4^3*E6"), (F(-5, 2), "")], "-3*E4^3*E6 - 5/2"),
    ([(F(-5, 2), "")], "-5/2"),
    ([(F(0), "")], "0"),
    ([], "0"),
    # a polynomial coefficient, as in an MFPoly over Q[lambda]
    ([(Poly((0, F(-1, 2))), "E4")], "(-(1/2)*x)*E4"),
])
def test_fmt_sum_table(terms, text):
    assert qs._fmt_sum(terms) == text


def test_leading_negative_fraction_prints_alike_in_every_ring():
    assert str(QSeries.monomial(F(-1, 2), 1)) == "-(1/2)*q"
    assert str(Poly((0, F(-1, 2)))) == "-(1/2)*x"
    assert str(F(-1, 2) * E4) == "-(1/2)*E4"
