"""Top-level acceptance checks, one test per published guarantee.

Each test verifies one end-to-end claim with exact arithmetic and asserts
an explicit wall-clock budget, so `pytest -v tests/test_acceptance.py`
reads as a one-line-per-guarantee report.
"""

from fractions import Fraction as F
from math import factorial, prod
from time import perf_counter

from modwron.cli import verify
from modwron.etaprod import ProductSpec, eta, named_series, product_series
from modwron.modpoly import (G4, MFPoly, theta_derivation, theta_h,
                             to_qseries)
from modwron.partitions import ColorSpec, colored_count, verify_recurrences
from modwron.qseries import QSeries
from modwron.poly import Poly
from modwron.ssing import (congruence_constant_check, hasse_oracle,
                           linear_quadratic_split, ss_tilde,
                           supersingular_report)
from modwron.symmpow import (kz_coeff, r12_vanishing_roots, r_recursion,
                             sym_basis, sym_quotient_closed_form,
                             sym_wronskian_check)
from modwron.wronskian import (normalize, quotient_form, vanishing_check,
                               wronskian)
from test_symmpow import kz_by_recursion

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_a01_continued_fraction_identities():
    t0 = perf_counter()
    eleven = verify("rw2_char", 100)
    assert eleven.status == "pass" and eleven.precision >= 100
    fifth = verify("rw1", 20)
    assert fifth.status == "pass" and fifth.precision >= 20
    assert perf_counter() - t0 < 10


def test_a02_weber_and_a1_identities():
    t0 = perf_counter()
    for name in ("a1_quot", "a1_const", "weber_prod"):
        rep = verify(name, 100)
        assert rep.status == "pass" and rep.precision >= 100, name
    assert perf_counter() - t0 < 10


def test_a03_ode_annihilation():
    t0 = perf_counter()
    for name in ("ode_rr", "ode_weber", "ode_a1"):
        rep = verify(name, 60)
        assert rep.status == "pass" and rep.precision >= 60, name
    assert perf_counter() - t0 < 5


def test_a04_r12_root_set():
    t0 = perf_counter()
    assert r12_vanishing_roots() == {
        F(0), F(-11, 5), F(-25, 4), F(-15), F(-40)}
    assert not r_recursion(G4, 12)[-1].is_zero()
    assert perf_counter() - t0 < 5


def test_a05_three_routes_agree_for_all_m():
    t0 = perf_counter()
    f = named_series("weber8_1", F(60))
    g = named_series("weber8_2", F(60))
    q = F(-40) * G4
    # m = 1..14 covers m = (p-3)/2 for every default prime up to 31
    for m in range(1, 15):
        determinant = quotient_form(sym_basis(f, g, m))
        last = r_recursion(q, m)[-1]
        recursion = last if m % 2 else -last
        closed = sym_quotient_closed_form(m)
        assert determinant == recursion == closed, m
    assert perf_counter() - t0 < 60


def test_a06_mod_p_constant_congruence():
    t0 = perf_counter()
    for p in PRIMES:
        rep = congruence_constant_check(p)
        assert rep.ok, p
        sign = 1 if (p - 1) // 2 % 2 == 0 else -1
        two = pow(2, (p - 1) // 2, p)
        two = -1 if two == p - 1 else two
        expected = sign * two * factorial((p - 1) // 2) % p
        assert rep.constant == rep.expected == expected, p
        assert rep.nonconstant_vanish and rep.checked_through >= 50, p
    assert perf_counter() - t0 < 120


def test_a07_supersingular_routes_and_oracle():
    t0 = perf_counter()
    for p in PRIMES:
        rep = supersingular_report(p)
        assert rep.routes_agree and rep.oracle_match, p
        assert rep.polynomial.coeffs[-1] == 1, p
        assert set(rep.fp_roots) == hasse_oracle(p).roots(), p
        roots, quads = linear_quadratic_split(ss_tilde(p))
        assert all(q.degree() == 2 and not q.roots() for q in quads), p
    assert supersingular_report(5).polynomial == Poly((0, 1), 5)
    assert supersingular_report(7).polynomial == Poly((1, 1), 7)
    assert supersingular_report(13).polynomial == Poly((13 - 5, 1), 13)
    assert hasse_oracle(5).roots() == {0}
    assert hasse_oracle(7).roots() == {6}
    assert hasse_oracle(13).roots() == {5}
    assert perf_counter() - t0 < 120


def test_a08_wronskian_factorization_and_eta_power():
    t0 = perf_counter()
    for pair in (("ch1", "ch2"), ("weber8_1", "weber8_2")):
        f = named_series(pair[0], F(30))
        g = named_series(pair[1], F(30))
        for m in range(1, 7):
            rep = sym_wronskian_check(f, g, m)
            assert rep.constant == prod(factorial(k) for k in range(1, m + 1))
            assert rep.power == m * (m + 1) // 2
            assert rep.eta_power == 2 * m * (m + 1)
    f = named_series("ch1", F(45))
    g = named_series("ch2", F(45))
    w12 = normalize(wronskian(sym_basis(f, g, 12)))
    assert w12.prec >= 41
    assert w12.truncate(F(41)) == (eta(1, F(41)) ** 312).truncate(F(41))
    assert perf_counter() - t0 < 60


def test_a09_vanishing_relations():
    t0 = perf_counter()
    f = named_series("ch1", F(25))
    g = named_series("ch2", F(25))
    rep = vanishing_check(sym_basis(f, g, 12))
    assert rep.forced_zero and rep.r == 2
    assert rep.relation == (F(1), F(-11), F(-1))
    assert rep.constant == 1
    f = named_series("a1_f1", F(25))
    g = named_series("a1_f2", F(25))
    rep = vanishing_check(sym_basis(f, g, 6))
    assert rep.forced_zero and rep.r == 1
    assert rep.relation == (F(1), F(-1))
    assert rep.constant == 2
    assert perf_counter() - t0 < 30


def test_a10_partition_recurrences():
    t0 = perf_counter()
    rec = verify_recurrences(50)
    assert rec.ok and rec.upto == 50
    assert rec.colored_counterexamples == ()
    assert rec.restricted_counterexamples == ()
    lhs = ColorSpec(5, (11, 1, 1, 11, 0))
    mid = ColorSpec(5, (6, 6, 6, 6, 0))
    rhs = ColorSpec(5, (1, 11, 11, 1, 0))
    assert colored_count(lhs, 2) == 67
    assert 67 == 11 * colored_count(mid, 1) + colored_count(rhs, 0)
    gen = product_series(ProductSpec(
        [(1, 5, -11), (2, 5, -1), (3, 5, -1), (4, 5, -11)]), 3)
    assert [gen.coeff_at(n) for n in range(3)] == [1, 11, 67]
    assert perf_counter() - t0 < 2


def test_a11_property_suites():
    import random

    t0 = perf_counter()
    # derivation/series commuting square on every generator monomial
    n = F(25)
    for w in range(4, 31, 2):
        for a in range(w // 4 + 1):
            if (w - 4 * a) % 6:
                continue
            mono = MFPoly.monomial(F(1), a, (w - 4 * a) // 6)
            lhs = to_qseries(theta_derivation(mono), n)
            rhs = theta_h(to_qseries(mono, n), w, n)
            assert lhs == rhs, (a, (w - 4 * a) // 6)
    # Wronskian valuation is the exponent sum; its leading coefficient is
    # the product of leading coefficients times the Vandermonde determinant
    families = [
        [named_series("ch1", n), named_series("ch2", n)],
        sym_basis(named_series("weber8_1", n), named_series("weber8_2", n), 3),
        sym_basis(named_series("a1_f1", n), named_series("a1_f2", n), 4),
    ]
    for fam in families:
        w = wronskian(fam)
        exps = [s.valuation() for s in fam]
        leads = [s.leading_coefficient() for s in fam]
        vandermonde = prod(exps[j] - exps[i]
                           for j in range(len(fam)) for i in range(j))
        assert w.valuation() == sum(exps)
        assert w.leading_coefficient() == prod(leads) * vandermonde
    # the quotient W'/W only depends on the spanned space
    rng = random.Random(20250825)
    f = named_series("weber8_1", n)
    g = named_series("weber8_2", n)
    expected = F(-40) * G4
    done = 0
    while done < 20:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c == 0:
            continue
        fam = [a * f + b * g, c * f + d * g]
        assert quotient_form(fam) == expected, (a, b, c, d)
        done += 1
    # closed form and recursion for the x^(2l) coefficients agree
    for m in (2, 5, 12):
        alpha = F(m, 3)
        for l in range(0, 9):
            assert kz_coeff(l, alpha) == kz_by_recursion(l, alpha), (l, m)
    assert perf_counter() - t0 < 60
