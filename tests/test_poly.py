"""Tests for the one polynomial type, over Q and over F_p."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from modwron.poly import Poly, _coeff

X = Poly((0, 1))


def test_rational_coefficients_are_fractions():
    f = Poly((1, F(1, 2), 0, 0))
    assert f.coeffs == (F(1), F(1, 2)) and f.p is None
    assert all(type(c) is F for c in f.coeffs)
    assert all(type(c) is F for c in (f * f).coeffs)
    assert Poly((0, 0)).coeffs == () and Poly().degree() == -1


def test_divmod_and_gcd_over_q():
    f = (X - F(1, 2)) * (X + 3) * (X * X + 1)
    q, r = divmod(f, 2 * X + 6)
    assert not r and q == F(1, 2) * (X - F(1, 2)) * (X * X + 1)
    assert f % (X - 1) == f(1)
    assert f.gcd((X + 3) * (X - 5)) == X + 3
    assert f.gcd(f.derivative()) == 1
    assert Poly().gcd(Poly()).is_zero()
    assert (3 * X - 1).monic() == X - F(1, 3)
    with pytest.raises(ZeroDivisionError):
        divmod(f, Poly())


def test_scalars_act_as_constants():
    assert Poly((3,)) == 3 and Poly() == 0 and Poly((F(1, 2),)) == F(1, 2)
    assert hash(Poly((3,))) == hash(3) and hash(Poly()) == hash(0)
    assert 1 - X == -(X - 1) and 2 + X == X + 2
    assert {Poly((1, 1)): "a"}[X + 1] == "a"
    x7 = Poly((0, 1), 7)
    assert x7 + 8 == x7 + 1 and F(1, 2) * x7 == 4 * x7


@given(st.integers(-12, 12), st.sampled_from([None, 5, 7]),
       st.one_of(st.integers(-12, 12), st.fractions(max_denominator=6)))
def test_scalar_equality_agrees_with_the_hash(a, p, c):
    # a constant equals a scalar exactly when its coefficient does, with no
    # reduction mod p, so a set finds it by the scalar just when they are equal
    x = Poly((a,), p)
    assert (x == c) == (c == x) == (c in {x}) == (x.coeff(0) == c)
    assert Poly((1,), 5) != 6 and Poly((3,), 5) != F(1, 2)
    assert Poly((1,), 5) == 1 and 1 in {Poly((1,), 5)}


def test_fields_never_mix():
    x7 = Poly((0, 1), 7)
    assert X != x7
    with pytest.raises(ValueError, match="characteristics 0 and 7"):
        X + x7
    with pytest.raises(ValueError, match="characteristics 7 and 0"):
        x7 * X


def test_roots_are_enumerated_over_fp_only():
    with pytest.raises(ValueError, match="F_p only"):
        X.roots()
    assert (Poly((0, 1), 5) ** 2 - 4).roots() == {2, 3}


def test_exponent_must_be_a_nonnegative_int():
    assert X ** 0 == 1
    for e in (-1, F(1, 2)):
        with pytest.raises(ValueError, match="nonnegative"):
            X ** e


def test_reduction_mod_p_of_a_rational_polynomial():
    f = Poly((F(-432000, 691), 1))
    assert Poly(f.coeffs, 13) == Poly((8, 1), 13)
    assert str(Poly((F(2, 3), 0, -1), 7)) == "6*x^2 + 3"


def test_str_over_q():
    assert str(X * X - F(1, 2) * X) == "x^2 - (1/2)*x"
    assert str(-X) == "-x" and str(F(-3, 4) * X) == "-(3/4)*x"
    assert repr(X + 1) == "Poly((Fraction(1, 1), Fraction(1, 1)))"
    assert repr(Poly((1, 1), 5)) == "Poly((1, 1), p=5)"


def test_power_reduced_mod_a_polynomial():
    x = Poly((0, 1), 7)
    m = x ** 3 + 2 * x + 5
    for e in (0, 1, 2, 3, 7, 49, 100):
        assert pow(x + 3, e, m) == (x + 3) ** e % m
    assert pow(x - 1, 3, Poly((3,), 7)) == 0    # a unit divides everything
    assert pow(X, 4, X ** 2 + 1) == 1       # over Q, x^2 = -1


_coeffs = st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
                   max_size=5)


@settings(max_examples=60, deadline=None)
@given(_coeffs, _coeffs, st.sampled_from([None, 5, 7, 13]))
def test_division_with_remainder(a, b, p):
    try:
        u, v = Poly(a, p), Poly(b, p)
    except ValueError:      # a denominator divisible by p
        return
    if not v:
        return
    q, r = divmod(u, v)
    assert q * v + r == u and r.degree() < v.degree()
    g = u.gcd(v)
    assert g.coeffs[-1] == 1
    assert not u % g and not v % g


def value_by_coeff(f, a):
    """Reference: Horner's rule with each step normalized by _coeff."""
    out = 0
    for c in reversed(f.coeffs):
        out = _coeff(out * a + c, f.p)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=9),
       st.sampled_from([5, 7, 13, 31, 97]))
def test_values_and_roots_over_fp_match_coeff_evaluation(coeffs, p):
    f = Poly(coeffs, p)
    assert all(f(a) == value_by_coeff(f, a) for a in range(-p, 2 * p))
    assert f.roots() == {a for a in range(p) if value_by_coeff(f, a) == 0}


def test_values_over_q():
    f = (X - F(1, 2)) * (X + 3)
    assert f(F(1, 2)) == 0 and f(2) == F(15, 2) and type(f(2)) is F
    assert f(F(1, 3)) == value_by_coeff(f, F(1, 3))
    assert Poly((3, 1), 7)(F(1, 2)) == 0        # x + 3 at 1/2 = 4 in F_7
