"""Tests for the supersingular-polynomial constructions over F_p."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import modwron.ssing as ssing
from modwron.modpoly import (DELTA, E4, E6, MFPoly, NotIdentifiable,
                             dim_modular, divisor_polynomial, eisenstein,
                             h_poly, identify, to_qseries)
from modwron.poly import Poly
from modwron.ssing import (CongruenceReport, congruence_constant_check,
                           epsilon_factors, hasse_oracle, legendre_symbol,
                           linear_quadratic_split, ss_poly_deligne,
                           ss_poly_wronskian, ss_tilde, supersingular_report)
from modwron.symmpow import kz_coeff
from test_modpoly import to_qseries_by_terms, weight_basis

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def primes_between(lo, hi):
    return [p for p in range(max(lo, 5), hi + 1)
            if all(p % d for d in range(2, int(p ** 0.5) + 1))]


# deg S_p = floor(p/12) + this, by p mod 12 (Eichler-Deuring count)
EICHLER_DEURING = {1: 0, 5: 1, 7: 1, 11: 2}


# ---- Poly over F_p ------------------------------------------------------------

def test_fppoly_normal_form():
    f = Poly((8, 14, 7), 7)
    assert f.coeffs == (1,)
    assert f.degree() == 0
    assert Poly((0, 0), 7).is_zero()
    assert Poly((), 7).degree() == -1


def test_fppoly_rejects_bad_characteristic():
    for p in (4, 3, 1, 9, -5):
        with pytest.raises(ValueError, match="prime"):
            Poly((1,), p)


def test_fppoly_arithmetic():
    p = 11
    x = Poly((0, 1), p)
    assert (x + 3) * (x - 3) == x * x - 9
    assert (x + 1) ** 3 == x ** 3 + 3 * x * x + 3 * x + 1
    q, r = divmod(x ** 5 - 1, x - 1)
    assert r.is_zero()
    assert q == x ** 4 + x ** 3 + x * x + x + 1
    assert (x * x + 1)(3) == 10
    assert (x ** 4).derivative() == 4 * x ** 3


def test_fppoly_monic_and_exact_div():
    p = 13
    x = Poly((0, 1), p)
    f = 3 * (x + 2) * (x + 5)
    assert f.monic() == (x + 2) * (x + 5)
    assert f.exact_div(x + 2) == 3 * (x + 5)
    with pytest.raises(ValueError, match="not exact"):
        f.exact_div(x + 1)


def test_fppoly_roots_and_gcd():
    p = 11
    x = Poly((0, 1), p)
    f = (x - 2) * (x - 7) * (x * x + 1)
    assert f.roots() == {2, 7}
    assert f.gcd((x - 2) * (x - 3)) == x - 2
    assert f.gcd(f.derivative()).degree() == 0


def test_fppoly_mixed_characteristic_rejected():
    with pytest.raises(ValueError, match="characteristic"):
        Poly((1,), 5) + Poly((1,), 7)


def test_fppoly_str():
    assert str(Poly((1, 0, 3), 7)) == "3*x^2 + 1"
    assert str(Poly((0, 1), 7)) == "x"
    assert str(Poly((), 7)) == "0"


# ---- reducing rational coefficients mod p ---------------------------------------

def test_reduce_x_minus_1728_mod_7():
    assert Poly((F(-1728), F(1)), 7) == Poly((1, 1), 7)


def test_reduce_rational_coefficient_mod_13():
    f = Poly((F(-432000, 691), F(1)), 13)
    assert f == Poly((-5, 1), 13)


def test_reduce_rejects_denominator_divisible_by_p():
    with pytest.raises(ValueError, match="1/7.*x\\^0"):
        Poly((F(1, 7),), 7)


# ---- the two constructions ------------------------------------------------------

def test_ss_deligne_spot_values():
    assert ss_poly_deligne(5) == Poly((0, 1), 5)
    assert ss_poly_deligne(7) == Poly((1, 1), 7)
    assert ss_poly_deligne(13) == Poly((-5, 1), 13)


def test_ss_wronskian_spot_values():
    assert ss_poly_wronskian(5) == Poly((0, 1), 5)
    assert ss_poly_wronskian(7) == Poly((1, 1), 7)
    assert ss_poly_wronskian(13) == Poly((-5, 1), 13)


@pytest.mark.parametrize("p", primes_between(5, 199))
def test_deligne_equals_the_identification_over_q(p):
    # the reference identifies E_{p-1} over Q and reduces its divisor
    # polynomial; the route reduces E_{p-1} and solves in F_p
    n = dim_modular(p - 1) + ssing.DELIGNE_MARGIN
    form = identify(eisenstein(p - 1, "E", n), p - 1)
    assert (ss_poly_deligne(p)
            == Poly(divisor_polynomial(form).coeffs, p).monic())


@pytest.mark.parametrize("w,p", [(4, 7), (10, 7), (12, 7), (36, 37),
                                 (96, 97), (150, 151), (198, 199)])
def test_ladder_mod_p_is_the_exact_ladder_reduced(w, p):
    table = ssing._ladder_mod_p(w, p)
    n = len(table[0])
    assert n == max(ssing._window(p) + 1, dim_modular(w) + ssing.DELIGNE_MARGIN)
    basis = weight_basis(w)
    assert len(table) == len(basis)
    for i, (col, b) in enumerate(zip(table, basis)):
        exact = to_qseries_by_terms(b, n)
        assert exact.offset == i and exact.den == 1
        slots = [c % p for c in exact.nums]
        assert col == slots + [0] * (n - i - len(slots))


def test_the_report_and_the_congruence_share_one_ladder(monkeypatch):
    built = []
    real = ssing._ladder

    def counted(weight, n, p=None):
        built.append((weight, n, p))
        return real(weight, n, p)

    monkeypatch.setattr(ssing, "_ladder", counted)
    monkeypatch.setattr(ssing, "_LADDERS", {})
    for p in (37, 41):
        assert supersingular_report(p).routes_agree
        assert congruence_constant_check(p).ok
    assert built == [(36, 51, 37), (40, 51, 41)]
    assert sorted(ssing._LADDERS) == [(36, 37), (40, 41)]


@pytest.mark.parametrize("p", primes_between(5, 199))
def test_eisenstein_p_minus_1_is_1_mod_p(p):
    # von Staudt-Clausen: p divides the denominator of B_{p-1} once, so
    # Deligne's route may back-substitute 1 in place of E_{p-1}
    n = dim_modular(p - 1) + ssing.DELIGNE_MARGIN
    series = eisenstein(p - 1, "E", n)
    assert series.offset == 0 and series.prec == n and series.step_den == 1
    inv = pow(series.den, -1, p)                # p is not in the denominator
    residues = [c * inv % p for c in series.nums]
    assert residues + [0] * (n - len(residues)) == [1] + [0] * (n - 1)


def test_deligne_rejects_a_planted_residual_slot(monkeypatch):
    p = 37
    n = dim_modular(p - 1) + ssing.DELIGNE_MARGIN
    truth = ss_poly_deligne(p)
    real = ssing._ladder_mod_p

    def plant(c):
        # member 0 leads the solve with coordinate 1; slot n - 1 lies past
        # dim M_{p-1}, where only the residual check reads it
        def planted(w, q):
            table = [list(col) for col in real(w, q)]
            table[0][n - 1] = (table[0][n - 1] + c) % q
            return table
        monkeypatch.setattr(ssing, "_ladder_mod_p", planted)

    assert dim_modular(p - 1) < n - 1
    plant(p)                                    # zero mod p: no change
    assert ss_poly_deligne(p) == truth
    plant(1)
    with pytest.raises(NotIdentifiable,
                       match="residual is nonzero at exponent %d" % (n - 1)):
        ss_poly_deligne(p)


@pytest.mark.parametrize("p", PRIMES)
def test_routes_agree(p):
    assert ss_poly_deligne(p) == ss_poly_wronskian(p)


@pytest.mark.parametrize("p", PRIMES)
def test_roots_match_hasse_oracle(p):
    assert ss_poly_deligne(p).roots() == hasse_oracle(p).roots()


@pytest.mark.parametrize("p", PRIMES)
def test_ss_poly_squarefree(p):
    s = ss_poly_deligne(p)
    assert s.gcd(s.derivative()).degree() == 0


def test_hasse_oracle_small_primes():
    assert hasse_oracle(5).roots() == {0}
    assert hasse_oracle(7).roots() == {6}
    assert hasse_oracle(13).roots() == {5}


def hasse_by_full_power(p):
    """Reference: expand all of (x^3 + ax + b)^((p-1)/2) for every j."""
    out = set()
    e = (p - 1) // 2
    for j in range(p):
        if j == 0:
            a, b = 0, 1
        elif j == 1728 % p:
            a, b = 1, 0
        else:
            a = 3 * j * (1728 - j) % p
            b = 2 * j * (1728 - j) ** 2 % p
        if (Poly((b, a, 0, 1), p) ** e).coeff(p - 1) == 0:
            out.add(j)
    return out


@pytest.mark.parametrize("p", primes_between(5, 97))
def test_hasse_oracle_matches_full_power(p):
    assert hasse_oracle(p).roots() == hasse_by_full_power(p)


@pytest.mark.parametrize("p", primes_between(5, 199))
def test_hasse_oracle_equals_deligne(p):
    # the Legendre-family route gives all of S_p, quadratic factors included
    assert hasse_oracle(p) == ss_poly_deligne(p)


def _bump_binomial(monkeypatch, e, i):
    """Add 1 to C(e, i) inside ssing, which changes one coefficient of H_p
    for e = (p-1)/2; the peel's binomials C(3k, i) have 3k < e."""
    real = ssing.comb
    monkeypatch.setattr(ssing, "comb",
                        lambda a, b: real(a, b) + ((a, b) == (e, i)))


@pytest.mark.parametrize("p,i,message", [
    # a constant change is symmetric, but leaves 3n times it at mu^1
    (97, 0, "H_97 over its forced factors leaves a remainder at mu^1"),
    # any other change breaks the symmetry lambda -> 1 - lambda
    (97, 24, "H_97 over its forced factors has an odd part at mu^0"),
    (73, 5, "H_73 over its forced factors has an odd part at mu^0"),
    # with forced factors, no other change divides by them
    (83, 3, "division is not exact"),
    (31, 0, "division is not exact"),
])
def test_hasse_oracle_rejects_a_changed_coefficient_of_h(monkeypatch, p, i,
                                                          message):
    _bump_binomial(monkeypatch, (p - 1) // 2, i)
    with pytest.raises(ValueError, match=re.escape(message)):
        hasse_oracle(p)


# ---- epsilon factors and the tilde polynomial ------------------------------------

def test_epsilon_factors():
    assert epsilon_factors(5) == (1, 0)
    assert epsilon_factors(7) == (0, 1)
    assert epsilon_factors(11) == (1, 1)


def epsilon_reference(p):
    """The retired formula: j = 0 is forced unless p = 1 mod 3, and
    j = 1728 unless p = 1 mod 4."""
    return (0 if p % 3 == 1 else 1, 0 if p % 4 == 1 else 1)


@pytest.mark.parametrize("p", primes_between(5, 199))
def test_epsilon_factors_match_the_congruence_formula(p):
    eps_omega, eps_i = epsilon_reference(p)
    assert epsilon_factors(p) == (eps_omega, eps_i)
    x = Poly((0, 1), p)
    forced = x ** eps_omega * (x - 1728) ** eps_i
    assert Poly(h_poly(p - 1).coeffs, p) == forced


def test_ss_tilde_trivial_for_small_primes():
    for p in (5, 7, 11):
        assert ss_tilde(p) == Poly((1,), p)


@pytest.mark.parametrize("p", PRIMES)
def test_ss_tilde_division_exact(p):
    eps_omega, eps_i = epsilon_reference(p)
    x = Poly((0, 1), p)
    forced = x ** eps_omega * (x - 1728) ** eps_i
    assert ss_tilde(p) * forced == ss_poly_deligne(p)


def test_linear_quadratic_split_p37():
    assert epsilon_factors(37) == (0, 0)
    roots, quads = linear_quadratic_split(ss_tilde(37))
    assert roots == [8]
    assert quads == [Poly((31, 31, 1), 37)]
    assert not quads[0].roots()


@pytest.mark.parametrize("p", PRIMES)
def test_tilde_splits_into_linears_and_quadratics(p):
    roots, quads = linear_quadratic_split(ss_tilde(p))
    rebuilt = Poly((1,), p)
    x = Poly((0, 1), p)
    for a in roots:
        rebuilt = rebuilt * (x - a)
    for q in quads:
        rebuilt = rebuilt * q
        assert q.degree() == 2 and not q.roots()
    assert rebuilt == ss_tilde(p)


def test_report_builds_deligne_once(monkeypatch):
    from modwron import ssing
    calls = []
    real = ssing.ss_poly_deligne

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(ssing, "ss_poly_deligne", counted)
    rep = supersingular_report(37)
    assert calls == [37]
    assert list(rep.quadratic_factors) == [Poly((31, 31, 1), 37)]


def test_split_rejects_irreducible_cubic():
    # x^3 + x + 1 has no roots mod 5 and no quadratic factor
    with pytest.raises(ValueError, match="leftover"):
        linear_quadratic_split(Poly((1, 1, 0, 1), 5))


def test_split_rejects_repeated_root():
    x = Poly((0, 1), 13)
    for f in ((x - 3) ** 2, (x - 3) ** 2 * (x - 5), (x - 3) ** 2 * (x * x + 2)):
        with pytest.raises(ValueError, match="leftover"):
            linear_quadratic_split(f)


def test_split_rejects_square_of_irreducible_quadratic():
    x = Poly((0, 1), 13)
    q = x * x + 2          # -2 is not a square mod 13
    assert not q.roots()
    for f in (q ** 2, q ** 2 * (x - 1), q ** 2 * (x * x + 5)):
        with pytest.raises(ValueError, match="leftover"):
            linear_quadratic_split(f)


def split_by_search(f):
    """Reference: divide out every monic quadratic x^2 + bx + c in turn."""
    p = f.p
    rem = f.monic()
    roots = sorted(rem.roots())
    for a in roots:
        rem = rem.exact_div(Poly((-a, 1), p))
    quads = []
    for b in range(p):
        for c in range(p):
            if rem.degree() < 2:
                break
            cand = Poly((c, b, 1), p)
            q, r = divmod(rem, cand)
            if r.is_zero() and not cand.roots():
                quads.append(cand)
                rem = q
    if rem != 1:
        raise ValueError("leftover factor %s" % (rem,))
    return roots, quads


@pytest.mark.parametrize("p", primes_between(5, 151))
def test_split_matches_search_on_ss_tilde(p):
    assert linear_quadratic_split(ss_tilde(p)) == split_by_search(ss_tilde(p))


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_split_separates_every_pair_of_quadratics(p):
    # x^(p^2) - x over x^p - x is the product of all monic irreducible
    # quadratics, so each pair of them must be told apart by some x + t
    x = Poly((0, 1), p)
    roots, quads = linear_quadratic_split((x ** (p * p) - x).exact_div(x ** p - x))
    assert roots == [] and len(quads) == p * (p - 1) // 2
    assert all(q.degree() == 2 and not q.roots() for q in quads)
    assert quads == sorted(quads, key=lambda q: (q.coeff(1), q.coeff(0)))


@st.composite
def split_products(draw):
    p = draw(st.sampled_from(primes_between(5, 31)))
    irreducible = [(c, b) for b in range(p) for c in range(p)
                   if not Poly((c, b, 1), p).roots()]
    roots = draw(st.lists(st.integers(0, p - 1), max_size=4, unique=True))
    quads = draw(st.lists(st.sampled_from(irreducible), max_size=6,
                          unique=True))
    return p, roots, quads


@settings(max_examples=120, deadline=None)
@given(split_products())
def test_split_matches_search_on_random_products(case):
    p, roots, quads = case
    x = Poly((0, 1), p)
    f = Poly((1,), p)
    for a in roots:
        f = f * (x - a)
    for c, b in quads:
        f = f * Poly((c, b, 1), p)
    got = linear_quadratic_split(f)
    assert got == split_by_search(f)
    assert got[0] == sorted(roots)
    assert [(q.coeff(1), q.coeff(0)) for q in got[1]] == sorted(
        (b, c) for c, b in quads)


# ---- the constant congruence -------------------------------------------------------

def test_legendre_symbol_second_supplement():
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(2, 5) == -1
    assert legendre_symbol(0, 5) == 0


def test_congruence_constant_p5():
    r = congruence_constant_check(5)
    assert r.constant == 3 and r.expected == 3
    assert r.nonconstant_vanish and r.ok


@pytest.mark.parametrize("p", PRIMES)
def test_congruence_constant_all_primes(p):
    r = congruence_constant_check(p)
    assert isinstance(r, CongruenceReport)
    assert r.ok, (r.constant, r.expected, r.nonconstant_vanish)


def congruence_by_fractions(p, upto=50):
    """Reference: (constant, nonconstant_vanish) from one Fraction per
    coefficient."""
    m = (p - 3) // 2
    series = to_qseries(ssing.sym_quotient_closed_form(m), F(upto + 1))
    constant, vanish = 0, True
    for e, c in series.coeffs():
        if c.denominator % p == 0:
            raise ValueError(
                "coefficient at exponent %s has denominator divisible by %d"
                % (e, p))
        r = c.numerator * pow(c.denominator, -1, p) % p
        if e == 0:
            constant = r
        elif r:
            vanish = False
    return constant, vanish


def _congruence_outcome(check, p):
    try:
        r = check(p)
    except ValueError as e:
        return str(e)
    return (r.constant, r.nonconstant_vanish) if isinstance(r, CongruenceReport) else r


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29, 53, 97, 101, 151])
@pytest.mark.parametrize("upto", [0, 1, 50])
def test_congruence_matches_fractions(p, upto):
    # the window is p's alone, and every shorter window is a prefix of it:
    # the same constant, and vanishing there whenever it vanishes through
    # the whole window
    r = congruence_constant_check(p)
    assert r.checked_through == max(50, (p - 1) // 12)
    assert ((r.constant, r.nonconstant_vanish)
            == congruence_by_fractions(p, r.checked_through))
    constant, vanish = congruence_by_fractions(p, upto)
    assert constant == r.constant and vanish >= r.nonconstant_vanish


@pytest.mark.parametrize("p,through", [(5, 50), (601, 50), (607, 50),
                                       (613, 51), (1009, 84)])
def test_congruence_window_reaches_sturms_bound(p, through):
    # weight p - 1: a form vanishing mod p through q^floor((p-1)/12)
    # vanishes mod p, so the window never stops short of that exponent
    r = congruence_constant_check(p)
    assert r.checked_through == through and r.ok


@pytest.mark.parametrize("form", [
    MFPoly(4, {(1, 0): F(1, 7)}),           # a 7 in every denominator
    DELTA * F(1, 7) + E4 ** 3,              # in none at exponent 0
    3 * E6,
    DELTA,                                  # no constant term
    MFPoly.zero(10),
])
def test_congruence_matches_fractions_on_other_forms(form, monkeypatch):
    monkeypatch.setattr(ssing, "sym_quotient_closed_form", lambda m: form)
    assert (_congruence_outcome(congruence_constant_check, 7)
            == _congruence_outcome(congruence_by_fractions, 7))


@pytest.mark.parametrize("p", PRIMES)
def test_kz_collapses_to_power_of_twelve(p):
    l = (p - 1) // 2
    series = to_qseries(kz_coeff(l, F(p - 3, 6)), F(21))
    for e, c in series.coeffs():
        r = c.numerator * pow(c.denominator, -1, p) % p
        assert r == (pow(12, l, p) if e == 0 else 0)


# ---- aggregate report ----------------------------------------------------------------

def test_supersingular_report_p31():
    rep = supersingular_report(31)
    assert rep.polynomial == Poly((2, 22, 2, 1), 31)
    assert rep.fp_roots == (2, 4, 23)
    assert rep.quadratic_factors == ()
    assert rep.routes_agree and rep.oracle_match
    assert rep.epsilon == (0, 1)


@pytest.mark.parametrize("p", primes_between(101, 199))
def test_supersingular_report_past_97(p):
    rep = supersingular_report(p)
    assert rep.routes_agree and rep.oracle_match
    assert rep.polynomial.degree() == p // 12 + EICHLER_DEURING[p % 12]
    roots, quads = linear_quadratic_split(ss_tilde(p))
    assert tuple(quads) == rep.quadratic_factors
    x = Poly((0, 1), p)
    rebuilt = Poly((1,), p)
    for a in roots:
        rebuilt = rebuilt * (x - a)
    for q in quads:
        assert q.degree() == 2 and not q.roots()
        rebuilt = rebuilt * q
    assert rebuilt == ss_tilde(p)


def swap_a_quadratic(s):
    """s, with no forced factor, with its first irreducible quadratic factor
    swapped for the first monic irreducible quadratic that does not
    divide it."""
    p = s.p
    q = linear_quadratic_split(s)[1][0]
    other = next(c for c in (Poly((a, b, 1), p) for b in range(p)
                             for a in range(p))
                 if not c.roots() and s % c)
    return s.exact_div(q) * other


# the mutations of Deligne's S_p that the oracle must reject, by name:
# (p, mutation); S_97 has three quadratic factors and no forced one, S_83
# both forced factors, and x^3 + x + 1 lacks the forced factor x of S_5
MUTANTS = {
    "swapped quadratic": (97, swap_a_quadratic),
    "dropped forced factor": (83, lambda s: s.exact_div(Poly((0, 1), s.p))),
    "wrong leading unit": (97, lambda s: 2 * s),
    "cubic without forced factor": (5, lambda s: Poly((1, 1, 0, 1), s.p)),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_oracle_rejects_a_mutated_deligne_polynomial(monkeypatch, name):
    p, mutate = MUTANTS[name]
    truth = supersingular_report(p)
    real = ssing.ss_poly_deligne
    monkeypatch.setattr(ssing, "ss_poly_deligne", lambda q: mutate(real(q)))
    rep = supersingular_report(p)
    assert rep.polynomial == mutate(truth.polynomial) != truth.polynomial
    assert not rep.oracle_match and not rep.routes_agree
    # the roots and quadratic factors are the oracle's
    assert rep.fp_roots == truth.fp_roots
    assert rep.quadratic_factors == truth.quadratic_factors


def test_supersingular_report_p37_has_quadratic():
    rep = supersingular_report(37)
    assert rep.routes_agree and rep.oracle_match
    assert rep.fp_roots == (8,)
    assert rep.quadratic_factors == (Poly((31, 31, 1), 37),)
