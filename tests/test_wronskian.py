"""Tests for Wronskian determinants, echelon bases, and W'/W data."""

import random
from contextlib import contextmanager
from fractions import Fraction
from fractions import Fraction as F
from importlib import import_module
from itertools import permutations
from math import lcm, prod
from operator import mul as _mul_op
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from modwron.cli import (IDENTITIES, PAIR_NAMES, _pair, _parse_basis,
                         _reduced_pair, symcheck_report)
from modwron.etaprod import eta, named_series
from modwron.modpoly import E4, G4, InsufficientPrecision, MFPoly
from modwron.qseries import (QSeries, _INEXACT, _ceil, _check_cap,
                             _conv_trunc, _min_prec, _upsample, first_mismatch)
from modwron.symmpow import sym_basis
from modwron.wronskian import (echelonize, identify_quotient, normalize,
                               quotient_form, vanishing_check, wronskian,
                               wronskian_derived, wronskians)

N = F(20)


# ---- the cofactor oracle -------------------------------------------------

def cofactor_wronskian(fs):
    """det[D^j f_i] by cofactor expansion over exact series arithmetic."""
    rows = [list(fs)]
    for _ in range(len(fs) - 1):
        rows.append([f.derive() for f in rows[-1]])
    return _cofactor(rows)


def _cofactor(m):
    k = len(m)
    if k == 1:
        return m[0][0]
    total = None
    for c, entry in enumerate(m[0]):
        minor = [[row[cc] for cc in range(k) if cc != c] for row in m[1:]]
        term = entry * _cofactor(minor)
        if c % 2:
            term = -term
        total = term if total is None else total + term
    return total


def oracle_pair(fs):
    """(W, W') of a family by the cofactor oracle."""
    return (cofactor_wronskian(fs),
            cofactor_wronskian([f.derive() for f in fs]))


def agree(a, b):
    """Equality of two series on their common known window."""
    if a.prec is None:
        p = b.prec
    elif b.prec is None:
        p = a.prec
    else:
        p = min(a.prec, b.prec)
    return a.truncate(p) == b.truncate(p)


def sym_family(f, g, m):
    return [f ** i * g ** (m - i) for i in range(m + 1)]


def exponents(family):
    return tuple(f.valuation() for f in family)


@pytest.fixture(scope="module")
def ch_pair():
    return named_series("ch1", N), named_series("ch2", N)


@pytest.fixture(scope="module")
def weber_pair():
    return named_series("weber8_1", N), named_series("weber8_2", N)


@pytest.fixture(scope="module")
def a1_pair():
    return named_series("a1_f1", N), named_series("a1_f2", N)


@pytest.fixture(scope="module")
def rr12(ch_pair):
    ch1, ch2 = ch_pair
    return sym_family(ch1, ch2, 12)


# ---- determinants --------------------------------------------------------

def test_single_series_is_its_own_wronskian(ch_pair):
    ch1, _ = ch_pair
    assert wronskian([ch1]) == ch1


def test_single_series_derived(ch_pair):
    ch1, _ = ch_pair
    assert wronskian_derived([ch1]) == ch1.derive()


def test_pair_wronskian_is_eta4_over_5(ch_pair):
    ch1, ch2 = ch_pair
    w = wronskian([ch2, ch1])
    assert w.valuation() == F(1, 6)
    assert w.leading_coefficient() == F(1, 5)
    assert agree(normalize(w), eta(1, 22) ** 4)


def test_column_swap_flips_sign(ch_pair):
    ch1, ch2 = ch_pair
    assert agree(wronskian([ch1, ch2]), -wronskian([ch2, ch1]))


def test_repeated_member_vanishes(ch_pair):
    ch1, _ = ch_pair
    w = wronskian([ch1, ch1])
    assert w.is_zero() and w.prec is not None


def test_derived_wronskian_of_polynomial_pair_is_exact_zero():
    w = wronskian_derived([QSeries.one(), QSeries.monomial(1, 1)])
    assert w.is_zero() and w.prec is None


def test_monomial_family_gives_exact_vandermonde():
    fs = [QSeries.monomial(1, i) for i in range(5)]
    expected = QSeries.monomial(288, 10)    # 1! 2! 3! 4! = 288, ord 0+1+2+3+4
    assert wronskian(fs) == expected
    assert cofactor_wronskian(fs) == expected


def test_engines_agree_on_random_exact_families():
    rng = random.Random(11)
    for trial in range(8):
        fs = []
        for _ in range(5):
            off = F(rng.randint(0, 6), rng.choice([1, 2, 3]))
            nums = [rng.randint(-5, 5) for _ in range(rng.randint(3, 6))]
            nums[0] = rng.choice([1, 2, -3])
            fs.append(QSeries(off, nums, 1, rng.randint(1, 4)))
        if trial == 5:
            fs[4] = 2 * fs[0] - 3 * fs[2]   # dependent family: determinant 0
        w, wd = oracle_pair(fs)
        assert agree(wronskian(fs), w)
        assert agree(wronskian_derived(fs), wd)


def test_engines_agree_on_fractional_lattice(ch_pair):
    ch1, ch2 = ch_pair
    fs = sym_family(ch1, ch2, 4)
    assert agree(wronskian(fs), cofactor_wronskian(fs))


# ---- W and W' from one elimination ----------------------------------------

def assert_joint_matches(fs):
    w, wd = wronskians(fs)
    assert w == wronskian(fs) and wd == wronskian_derived(fs)
    ow, owd = oracle_pair(fs)
    assert agree(w, ow) and agree(wd, owd)
    return w, wd


def test_joint_single_series(ch_pair):
    ch1, _ = ch_pair
    assert wronskians([ch1]) == (ch1, ch1.derive())


def test_joint_dependent_family(ch_pair):
    ch1, ch2 = ch_pair
    w, wd = assert_joint_matches([ch1, ch2, 3 * ch1 - F(1, 2) * ch2])
    assert w.is_zero() and wd.is_zero()
    assert w.prec is not None and wd.prec is not None


def test_joint_family_with_constant_member(weber_pair):
    w1, w2 = weber_pair
    w, wd = assert_joint_matches([QSeries.one(), w1, w2])
    assert not w.is_zero() and wd.is_zero()


def test_joint_exact_monomial_families():
    fs = [QSeries.monomial(1, i) for i in range(5)]
    w, wd = assert_joint_matches(fs)
    assert w == QSeries.monomial(288, 10)
    assert wd.is_zero() and wd.prec is None
    fs = [QSeries.monomial(1, F(i, 2)) for i in range(1, 5)]
    w, wd = assert_joint_matches(fs)
    assert w.prec is None and wd.prec is None
    assert (w, wd) == oracle_pair(fs)


def test_joint_ch_sym5_fine_offset_lattice():
    ch1, ch2 = named_series("ch1", F(8)), named_series("ch2", F(8))
    fs = sym_family(ch1, ch2, 5)
    assert {f.offset.denominator for f in fs} >= {60}
    assert {f.step_den for f in fs} == {1}
    w, wd = assert_joint_matches(fs)
    assert w.valuation() == sum(f.valuation() for f in fs)


def test_identify_quotient_matches_quotient_form(weber_pair):
    fs = sym_family(*weber_pair, 2)
    assert identify_quotient(*wronskians(fs), 6) == quotient_form(fs)


# ---- precision soundness ---------------------------------------------------

@st.composite
def family_and_completion(draw):
    """A truncated family with fractional offsets and steps, and an exact
    completion of each member: its known terms, a term right at its
    precision, and terms further out, on or off its lattice."""
    family, completion = [], []
    for _ in range(draw(st.integers(1, 4))):
        off = F(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3, 4])))
        nums = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
        nums[0] = draw(st.sampled_from([1, -1, 2, 3]))
        step = draw(st.sampled_from([1, 2, 3]))
        prec = off + F(draw(st.integers(1, 12)),
                       draw(st.sampled_from([1, 2, 3, 6])))
        f = QSeries(off, nums, step, draw(st.integers(1, 3)), prec)
        g = QSeries(f.offset, f.nums, f.step_den, f.den)
        g = g + QSeries.monomial(draw(st.sampled_from([1, -2, 3])), prec)
        for j, d, c in draw(st.lists(st.tuples(
                st.integers(1, 6), st.sampled_from([1, 2, 3, 6]),
                st.integers(-3, 3)), max_size=2)):
            g = g + QSeries.monomial(c, prec + F(j, d))
        family.append(f)
        completion.append(g)
    return family, completion


@settings(max_examples=80, deadline=None)
@given(family_and_completion())
def test_precision_soundness(fc):
    """No completion of the inputs beyond their precision changes a
    coefficient of W or W' below the precision reported for it."""
    family, completion = fc
    w, wd = wronskians(family)
    assert w == wronskian(family) and wd == wronskian_derived(family)
    truth = oracle_pair(completion)
    assert first_mismatch(w, truth[0]) is None
    assert first_mismatch(wd, truth[1]) is None
    refined = wronskians(completion)
    assert first_mismatch(refined[0], truth[0]) is None
    assert first_mismatch(refined[1], truth[1]) is None


@pytest.mark.parametrize("name,m", [("weber", 6), ("rr", 3)])
def test_ord_sum_and_vandermonde_lead(ch_pair, weber_pair, name, m):
    f, g = weber_pair if name == "weber" else ch_pair
    basis = echelonize(sym_family(f, g, m))
    w = wronskian(basis)
    k = len(basis)
    exps = exponents(basis)
    vandermonde = prod(exps[j] - exps[i]
                       for i in range(k) for j in range(i + 1, k))
    lcs = prod(s.leading_coefficient() for s in basis)
    assert w.valuation() == sum(exps)
    assert w.leading_coefficient() == lcs * vandermonde


def test_sym12_lead_is_vandermonde(rr12):
    basis = echelonize(rr12)
    w = wronskian(basis)
    exps = exponents(basis)
    vandermonde = prod(exps[j] - exps[i]
                       for i in range(13) for j in range(i + 1, 13))
    assert w.valuation() == 13
    assert w.leading_coefficient() == vandermonde


def test_truncated_beyond_valuation_is_zero(rr12):
    short = [f.truncate(2) for f in rr12]
    assert wronskian(short).is_zero()    # the determinant starts at q^13
    with pytest.raises(ValueError, match="Wronskian vanishes"):
        quotient_form(short)


def test_zero_derived_wronskian_needs_the_identify_window():
    # Sym^3 of the Weber pair has W' = 0; at prec 1 the quotient is known
    # through 2/3 only, short of the 11 coefficients a weight-8 form needs
    pair = [named_series(name, 1) for name in ("weber8_1", "weber8_2")]
    w, wd = wronskians(sym_basis(*pair, 3))
    assert wd.is_zero()
    with pytest.raises(InsufficientPrecision, match="need 11 coefficients"):
        identify_quotient(w, wd, 8)


def test_empty_family_rejected():
    for take in (wronskian, wronskian_derived, wronskians, quotient_form):
        with pytest.raises(ValueError, match="empty family"):
            take([])


@pytest.mark.parametrize("take", [wronskian, wronskian_derived, wronskians,
                                  quotient_form, echelonize, vanishing_check])
def test_family_members_must_be_series(take):
    with pytest.raises(TypeError, match="expected QSeries members"):
        take([QSeries.one(), 1])


# ---- quotient forms ------------------------------------------------------

def test_quotient_form_ch_pair(ch_pair):
    ch1, ch2 = ch_pair
    assert quotient_form([ch2, ch1]) == F(-11, 3600) * E4
    assert quotient_form([ch2, ch1]) == F(-11, 5) * G4


def test_quotient_form_weber_pair(weber_pair):
    assert quotient_form(list(weber_pair)) == F(-1, 18) * E4


def test_quotient_form_a1_pair(a1_pair):
    assert quotient_form(list(a1_pair)) == F(-25, 4) * G4


def test_quotient_form_accepts_basis_and_ignores_order(ch_pair):
    ch1, ch2 = ch_pair
    expected = F(-11, 3600) * E4
    assert quotient_form([ch1, ch2]) == expected
    assert quotient_form(echelonize([ch1, ch2])) == expected


def test_quotient_form_sym12_is_zero_form(rr12):
    qf = quotient_form(rr12)
    assert qf == MFPoly.zero(26)
    assert qf.weight == 26


def test_quotient_form_invariant_under_basis_change(weber_pair):
    w1, w2 = weber_pair
    expected = F(-1, 18) * E4
    rng = random.Random(7)
    done = 0
    while done < 20:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c == 0:
            continue
        assert quotient_form([a * w1 + b * w2, c * w1 + d * w2]) == expected
        done += 1


def test_normalize_rejects_zero():
    with pytest.raises(ValueError, match="normalize"):
        normalize(QSeries.zero(10))


# ---- echelon bases -------------------------------------------------------

def test_echelonize_sorts_by_leading_exponent(ch_pair):
    ch1, ch2 = ch_pair
    basis = echelonize([ch1, ch2])
    assert exponents(basis) == (F(-1, 60), F(11, 60))
    assert basis == (ch2, ch1)


def test_echelonize_single_elimination_step():
    one_plus_q = QSeries.from_fractions(0, [1, 1])
    basis = echelonize([one_plus_q, QSeries.one()])
    assert exponents(basis) == (F(0), F(1))
    assert basis == (one_plus_q, QSeries.monomial(-1, 1))


def test_echelonize_names_dependent_member(ch_pair):
    ch1, _ = ch_pair
    with pytest.raises(ValueError, match="index 1"):
        echelonize([ch1, ch1])
    with pytest.raises(ValueError, match="index 0"):
        echelonize([QSeries.zero(10)])


def _shuffled(family, seed):
    out = list(family)
    random.Random(seed).shuffle(out)
    return out


def _paper_families(ch_pair, weber_pair, a1_pair):
    yield sym_family(*ch_pair, 12)
    yield sym_family(*a1_pair, 6)
    for m in range(1, 5):
        yield sym_family(*weber_pair, m)


def test_echelonize_returns_the_members_by_increasing_valuation(
        ch_pair, weber_pair, a1_pair):
    for seed, family in enumerate(_paper_families(ch_pair, weber_pair,
                                                  a1_pair)):
        family = _shuffled(family, seed)
        basis = echelonize(family)
        assert type(basis) is tuple
        assert sorted(map(id, basis)) == sorted(map(id, family))
        exps = exponents(basis)
        assert all(a < b for a, b in zip(exps, exps[1:]))
        assert echelonize(basis) == basis


def test_vanishing_check_reads_the_same_report_in_any_form(
        ch_pair, weber_pair, a1_pair):
    """A family, a shuffled copy and its echelon form give one report: the
    exponents are always the members' valuations after echelonizing."""
    for seed, family in enumerate(_paper_families(ch_pair, weber_pair,
                                                  a1_pair)):
        vc = vanishing_check(family)
        assert vanishing_check(_shuffled(family, seed)) == vc
        assert vanishing_check(echelonize(family)) == vc


def test_empty_family_has_no_integer_exponent():
    assert echelonize([]) == ()
    vc = vanishing_check([])
    assert not vc.forced_zero and vc.integer_indices == ()
    assert vc.diagnostic == "no member has an integer leading exponent"


def test_echelonize_sym12_exponents(rr12):
    exps = exponents(echelonize(rr12))
    assert exps == tuple(sorted(F(i - 1, 5) for i in range(13)))
    assert sum(exps) == 13
    assert all(a < b for a, b in zip(exps, exps[1:]))


# ---- vanishing certificates ----------------------------------------------

def test_vanishing_check_rr_sym12(rr12):
    vc = vanishing_check(rr12)
    assert vc.forced_zero
    assert vc.r == 2
    assert vc.integer_indices == (1, 6, 11)
    assert vc.relation == (F(1), F(-11), F(-1))
    assert vc.constant == 1


def test_vanishing_check_a1_sym6(a1_pair):
    f1, f2 = a1_pair
    vc = vanishing_check(sym_family(f1, f2, 6))
    assert vc.forced_zero
    assert vc.r == 1
    assert vc.integer_indices == (1, 5)
    assert vc.relation == (F(1), F(-1))
    assert vc.constant == 2


def test_vanishing_check_weber_sym6_has_no_relation(weber_pair):
    w1, w2 = weber_pair
    vc = vanishing_check(sym_family(w1, w2, 6))
    assert vc.forced_zero
    assert vc.r == 2
    assert vc.relation is None
    assert "-1" in vc.diagnostic


def test_vanishing_check_refuses_a_wrong_exponent_sum():
    # exponents 0, 1 would force W'/W = 0, but W = q has order 1 at the
    # cusp where a zero-free weight-2 Wronskian has order 2*1/12
    vc = vanishing_check([QSeries.one(20), QSeries.monomial(1, 1, 20)])
    assert not vc.forced_zero
    assert vc.relation is None and vc.constant is None
    assert "sum to 1, not k(k-1)/12 = 1/6" in vc.diagnostic


@pytest.mark.parametrize("m", [1, 2, 3, 6, 12])
@pytest.mark.parametrize("pair", ["ch", "weber", "a1"])
def test_exponent_sum_matches_the_eta_power_of_w(ch_pair, weber_pair,
                                                 a1_pair, pair, m):
    """The premise vanishing_check reads off the exponents, checked on the
    whole of W: a zero-free W of weight k(k-1) is a power of eta."""
    f, g = {"ch": ch_pair, "weber": weber_pair, "a1": a1_pair}[pair]
    basis = echelonize(sym_family(f, g, m))
    k = m + 1
    val = sum(exponents(basis))
    assert val == F(k * (k - 1), 12)
    w = normalize(wronskian(basis))
    assert w == (eta(1, w.prec) ** int(24 * val)).truncate(w.prec)


@pytest.mark.parametrize("name,pair,m", [("rw2_char", "ch", 12),
                                         ("a1_const", "a1", 6)])
def test_vanishing_relation_derives_the_registered_identity(
        ch_pair, a1_pair, name, pair, m):
    """The relation the theorem returns, applied to the echelon members,
    is the left side of the registered identity."""
    f, g = {"ch": ch_pair, "a1": a1_pair}[pair]
    basis = echelonize(sym_family(f, g, m))
    vc = vanishing_check(basis)
    combo = sum((lam * basis[i]
                 for lam, i in zip(vc.relation, vc.integer_indices)),
                QSeries.zero())
    assert combo.prec == vc.precision
    (lhs, rhs), = IDENTITIES[name](vc.precision)
    assert combo == lhs.truncate(combo.prec)
    assert combo == vc.constant * QSeries.one(combo.prec) == rhs.truncate(combo.prec)


def test_vanishing_check_reports_forcing_when_the_solve_runs_short():
    # at N = 1 the members are known below 19/24: the exponents force
    # W'/W = 0, but the q^1 coefficient that solves lambda_1 is unknown
    f1, f2 = named_series("a1_f1", 1), named_series("a1_f2", 1)
    vc = vanishing_check(sym_basis(f1, f2, 6))
    assert vc.forced_zero and vc.r == 1
    assert vc.relation is None and vc.constant is None and vc.checked == 0
    assert "too little precision to solve the relation" in vc.diagnostic
    assert "verified" not in vc.diagnostic


@pytest.mark.parametrize("n,checked", [(2, 0), (3, 1), (25, 23)])
def test_vanishing_check_counts_the_coefficients_it_compared(n, checked):
    # the members on the integer lattice are known below n - 5/24; q^0 and
    # q^1 solve the relation, and only the slots past them check it
    f1, f2 = named_series("a1_f1", n), named_series("a1_f2", n)
    vc = vanishing_check(sym_basis(f1, f2, 6))
    assert vc.forced_zero and vc.r == 1
    assert vc.relation == (F(1), F(-1)) and vc.constant == 2
    assert vc.checked == checked
    assert ("verified" in vc.diagnostic) == (checked > 0)


def test_vanishing_check_of_exact_members_checks_every_coefficient():
    vc = vanishing_check([QSeries.one()])
    assert vc.forced_zero and vc.relation == (F(1),) and vc.checked is None
    assert "verified to precision None on all coefficients" in vc.diagnostic


def test_vanishing_check_without_integer_exponents(ch_pair):
    ch1, ch2 = ch_pair
    vc = vanishing_check([ch2, ch1])
    assert not vc.forced_zero
    assert "no member has an integer leading exponent" in vc.diagnostic


def test_vanishing_check_below_floor():
    family = [QSeries.one(20)]
    family += [QSeries.monomial(1, F(j, 7), 20) for j in range(1, 6)]
    vc = vanishing_check(family)
    assert not vc.forced_zero
    assert "floor(k/6) = 1" in vc.diagnostic


def test_vanishing_check_names_where_the_relation_fails():
    # 1 + q^2 leads at 0, so the relation is f itself, constant only to q^2
    family = [QSeries.from_fractions(0, [F(1), F(0), F(1)], 1, F(10))]
    vc = vanishing_check(family)
    assert vc.forced_zero and vc.r == 0 and vc.relation is None
    assert "fails first at exponent 2" in vc.diagnostic


def test_vanishing_report_precision(a1_pair):
    f1, f2 = a1_pair
    family = sym_family(f1, f2, 6)
    vc = vanishing_check(family)
    assert vc.precision == min(f.prec for f in family)


# ---- the per-entry elimination step, kept as the reference -----------------

# the package binds the name `wronskian` to the function
W_MOD = import_module("modwron.wronskian")


def _vec_sub(a, b):
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    else:
        a = list(a)
    for i, x in enumerate(b):
        if x:
            a[i] -= x
    return a


def _vec_val(v, w):
    """Index of the first nonzero slot within the window, or None."""
    for i in range(min(len(v), w)):
        if v[i]:
            return i
    return None


def divexact_by_loop(u, v, w):
    """u / v slot by slot, known to w - val(v) slots: unlike
    qseries._divexact, v may lead past slot 0."""
    v0 = _vec_val(v, w)
    lead, tail = v[v0], v[v0 + 1:]
    out = []
    for n in range(v0, w):
        acc = u[n] if n < len(u) else 0
        q, r = divmod(acc - sum(map(_mul_op, tail, reversed(out))), lead)
        if r:
            raise ArithmeticError(_INEXACT)
        out.append(q)
    return out


def row_step_by_entry(a, mrt, piv, b, prev, wcur):
    """The elimination step entry by entry: two truncated products, one
    subtraction and one exact triangular division per (row, column),
    known to wcur - val(prev) slots.  prev may lead past slot 0, as the
    pivots of reference_bareiss may."""
    out = []
    for ac, bc in zip(a, b):
        num = _vec_sub(_conv_trunc(ac, piv, wcur), _conv_trunc(mrt, bc, wcur))
        out.append(num if prev is None else divexact_by_loop(num, prev, wcur))
    return out


def _fields(call, fs):
    """The fields of each series call(fs) returns, or the error it raises."""
    try:
        return [(s.offset, s.step_den, s.nums, s.den, s.prec)
                for s in call(fs)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _minors(fs, ends):
    return _fields(lambda f: W_MOD._bareiss(f, ends), fs)


def bareiss_by_entry(fs, ends):
    """_bareiss with the reference step: the same pivots and windows."""
    with mock.patch.object(W_MOD, "_row_step", row_step_by_entry):
        return _minors(fs, ends)


@st.composite
def integer_family(draw):
    """Families on lattices up to 1/6, exact or truncated close to their
    leading terms, with offsets that zero out derivative rows (so the
    pivots of reference_bareiss swap), entries up to 2^60, and an optional
    dependent last member."""
    fs = []
    for _ in range(draw(st.integers(1, 5))):
        off = F(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3])))
        bits = draw(st.sampled_from([3, 20, 60]))
        nums = draw(st.lists(st.integers(-2 ** bits, 2 ** bits),
                             min_size=1, max_size=9))
        nums[0] = draw(st.sampled_from([1, -2, 3, 2 ** bits]))
        step = draw(st.sampled_from([1, 2, 3]))
        prec = draw(st.one_of(st.none(), st.builds(
            lambda n, d: off + F(n, d), st.integers(0, 10),
            st.sampled_from([1, 2, 3]))))
        fs.append(QSeries(off, nums, step, draw(st.integers(1, 3)), prec))
    if len(fs) > 2 and draw(st.booleans()):
        fs[-1] = 2 * fs[0] - 3 * fs[1]
    return fs


@settings(max_examples=150, deadline=None)
@given(integer_family())
def test_packed_step_matches_the_per_entry_step(fs):
    k = len(fs)
    for ends in ((0,), (k,), (0, k)):
        assert _minors(fs, ends) == bareiss_by_entry(fs, ends)


def test_packed_step_matches_on_the_paper_families(ch_pair, weber_pair,
                                                   a1_pair):
    for pair in (ch_pair, weber_pair, a1_pair):
        for m in (1, 4, 8):
            fs = sym_family(*pair, m)
            assert _minors(fs, (0, m + 1)) == bareiss_by_entry(fs, (0, m + 1))


@contextmanager
def packed_widths():
    """The field width of every _pack_slots call made inside the block."""
    widths = []
    pack = W_MOD._pack_slots

    def spy(cols, n, w):
        widths.append(w)
        return pack(cols, n, w)

    with mock.patch.object(W_MOD, "_pack_slots", spy):
        yield widths


def test_row_step_outgrows_its_first_width():
    # 1 / (1 - 90 q) = sum 90^i q^i: the quotients outgrow the first width,
    # which only leaves room for x_0, three times
    row = ([[1], [2]], [0], [1], [[0], [0]], [1, -90], 6)
    with packed_widths() as widths:
        got = W_MOD._row_step(*row)
    assert widths == [9, 9, 18, 18, 36, 36, 72, 72]
    assert got == [[90 ** i for i in range(6)], [2 * 90 ** i for i in range(6)]]
    assert got == row_step_by_entry(*row)


@pytest.mark.parametrize("seed", range(6))
def test_row_step_widens_a_narrow_width_and_agrees(seed):
    # prev's tap is large next to its lead, so the quotients grow
    # geometrically past the first width
    rng = random.Random(seed)
    prev = [rng.choice([1, -1]), rng.choice([1, -1]) * rng.randint(60, 90)]
    a = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 2))]
         for _ in range(rng.randint(1, 3))]
    row = (a, [0], [1], [[0]] * len(a), prev, rng.randint(6, 8))
    with packed_widths() as widths:
        got = W_MOD._row_step(*row)
    assert widths[-1] > widths[0]
    assert got == row_step_by_entry(*row)


@pytest.mark.parametrize("w", [None, 8])
@pytest.mark.parametrize("fields", [(1, 0), (3, 1)])
def test_row_step_raises_on_an_inexact_field(w, fields):
    # 3 divides neither the fields nor the packed integer (1 or 3 + 2^w);
    # at w = 8 a third field 96, a multiple of 3, sets the first width
    a = [[f] for f in fields] + ([[96]] if w else [])
    with packed_widths() as widths, \
            pytest.raises(ArithmeticError, match="inexact division"):
        W_MOD._row_step(a, [0], [1], [[0]] * len(a), [3], 1)
    assert set(widths) == {w or max(fields).bit_length() + 1}


def test_row_step_raises_when_only_the_packed_integer_divides():
    # fields (1, -1) at the first width w = 2 pack to 1 - 4 = -3, which 3
    # divides, but 3 divides neither field: -1 unpacks to (-1, 0), and
    # 3 * 1 reaches 2^(w-1)
    assert (1 - 1 * 2 ** 2) % 3 == 0
    with packed_widths() as widths, \
            pytest.raises(ArithmeticError, match="inexact division"):
        W_MOD._row_step([[1], [-1]], [0], [1], [[0], [0]], [3], 1)
    assert widths == [2, 2]


# ---- families off the integer lattice --------------------------------------

@st.composite
def coarsenable_family(draw):
    """Families on lattices 1, 1/2 and 1/4 with offsets in (1/6)Z, exact or
    truncated.  Offsets half an integer apart are drawn often, and so are
    families whose members all start on one class, so a member m_i + c m_j
    often has its terms off its class cleared by m_j.  A dependent member
    may join, and the order is shuffled."""
    fs = []
    steps = draw(st.sampled_from([[1], [1, 1, 2, 4]]))
    for _ in range(draw(st.integers(1, 5))):
        if fs and draw(st.booleans()):
            off = draw(st.sampled_from(fs)).offset + F(
                draw(st.integers(-3, 3)), 2)
        else:
            off = F(draw(st.integers(-6, 6)), 6)
        nums = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
        nums[0] = draw(st.sampled_from([1, -2, 3]))
        prec = draw(st.one_of(st.none(), st.builds(
            lambda n, d: off + F(n, d), st.integers(1, 12),
            st.sampled_from([1, 2, 4]))))
        fs.append(QSeries(off, nums, draw(st.sampled_from(steps)),
                          draw(st.integers(1, 3)), prec))
    for _ in range(draw(st.integers(0, 3))):
        pairs = list(permutations(range(len(fs)), 2))
        if not pairs:
            break
        half = [(i, j) for i, j in pairs
                if (fs[j].offset - fs[i].offset - F(1, 2)).denominator == 1]
        i, j = draw(st.sampled_from(half or pairs))
        c = F(draw(st.sampled_from([1, -1, 2, 8])), draw(st.integers(1, 3)))
        fs[i] = fs[i] + c * fs[j]
    if len(fs) > 1 and draw(st.booleans()):
        fs.append(fs[0] - 2 * fs[-1])
    return [fs[i] for i in draw(st.permutations(range(len(fs))))]


# dependent families, whose minors vanish: one exact, one known to q^(5/4)
DEPENDENT_EXACT = [QSeries(F(-1, 6), [1]), QSeries(0, [1]),
                   QSeries(F(-1, 6), [1, 1]), QSeries(0, [1, 1]),
                   QSeries(F(-1, 6), [1, -2, 0, 0, 0, 0, 0, -2], 6)]
DEPENDENT_TRUNCATED = [QSeries(F(1, 6), [1]), QSeries(0, [1]),
                       QSeries(0, [1]), QSeries(0, [1]),
                       QSeries(0, [1, 1], prec=F(5, 4)),
                       QSeries(0, [-2, 1, 0, 0, 0, 0, -2], 6, prec=F(5, 4))]
# a member with no known term, O(q^(1/2)), on one class at offset 0, where
# the other member has a term off its class
UNKNOWN_MEMBER = [QSeries(0, [], prec=F(1, 2)),
                  QSeries(F(-1, 2), [-1, -1], 2, prec=F(1, 2))]
# members that share a leading exponent, which the elimination reduces
# first; the exact members make W and W' 0
SHARED_LEADS = [QSeries(F(-1, 6), [1]), QSeries(0, [1], prec=1),
                QSeries(0, [1]), QSeries(F(-1, 6), [1, -2], 6)]


# ---- the reduced Weber pair ----------------------------------------------

def wronskian_list(fs):
    return [wronskian(fs)]


# each public call, with the end orders of the _bareiss run it makes
CALLS = ((wronskians, lambda k: (0, k)),
         (wronskian_list, lambda k: (0,)),
         (lambda fs: [wronskian_derived(fs)], lambda k: (k,)))


def assert_calls_keep(fs, given, calls=CALLS):
    """Each call on fs returns field for field what _bareiss returns on the
    family `given`, or raises the same error."""
    assert ([_fields(call, fs) for call, _ in calls]
            == [_minors(given, ends(len(given))) for _, ends in calls])


def assert_reduced_pair_keeps(pair, prec, ms, calls=CALLS):
    """The calls on Sym^m of the reduced pair the CLI builds from give, for
    each m in ms, the fields _bareiss gives on Sym^m of the named pair as
    given; so does the pair Wronskian W(g, f).  Returns whether the pair
    was reduced."""
    f, g = _pair(pair, prec)
    rf, rg = _reduced_pair(pair, prec)
    if (rf, rg) == (f, g):
        # every elimination sees the very same family
        return False
    assert _fields(wronskian_list, [rg, rf]) == _minors([g, f], (0,))
    for m in ms:
        assert_calls_keep(sym_basis(rf, rg, m), sym_basis(f, g, m), calls)
    return True


@pytest.mark.parametrize("prec", [F(9, 2), F(16), F(60), F(1, 3)])
@pytest.mark.parametrize("pair", sorted(PAIR_NAMES))
def test_coarsening_keeps_the_paper_sym_minors(pair, prec):
    # only the Weber pair reduces, at 9/2 too, once weber8_2 has a known
    # term: it leads at q^(1/3); at prec 60 one elimination gives W and W'
    # for all three calls
    reduced = assert_reduced_pair_keeps(pair, prec, range(1, 13),
                                        CALLS[:1] if prec == 60 else CALLS)
    assert reduced == (pair == "weber" and prec > F(1, 3))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 240), st.integers(1, 6))
def test_reduced_pair_keeps_the_sym_minors_at_any_prec(twelfths, m):
    prec = F(twelfths, 12)
    assert all(h.step_den == 1 for h in _reduced_pair("weber", prec))
    assert_reduced_pair_keeps("weber", prec, [m])


@contextmanager
def step_windows():
    """The window n of every _row_step call made inside the block."""
    windows = []
    step = W_MOD._row_step

    def spy(a, mrt, piv, b, prev, n):
        windows.append(n)
        return step(a, mrt, piv, b, prev, n)

    with mock.patch.object(W_MOD, "_row_step", spy):
        yield windows


def test_weber_sym_eliminates_on_the_integer_lattice():
    # weber8_1's terms off its class are 8 * weber8_2 exactly, so the pair
    # reduces onto one class and Sym^m of it at prec 16 takes 16 slots, not 32
    f, g = _pair("weber", 16)
    assert f.step_den == 2 and g.step_den == 1
    off = [f.offset + n + F(1, 2) for n in range(16)]
    assert all(f.coeff_at(e) == 8 * g.coeff_at(e) for e in off)
    rf, rg = _reduced_pair("weber", 16)
    assert (rf, rg) == (f - 8 * g, g) and rf.step_den == 1
    for m in range(1, 13):
        fs = sym_basis(rf, rg, m)
        assert all(h.step_den == 1 for h in fs)
        with step_windows() as windows:
            wronskians(fs)
        assert windows and max(windows) <= 16, m


@contextmanager
def eliminated_families():
    """The members of every family _bareiss is given inside the block."""
    families = []
    bareiss = W_MOD._bareiss

    def spy(fs, ends):
        families.append(list(fs))
        return bareiss(fs, ends)

    with mock.patch.object(W_MOD, "_bareiss", spy):
        yield families


@pytest.mark.parametrize("m", range(1, 13))
def test_cli_weber_sym_reaches_the_elimination_on_the_integer_lattice(m):
    # the CLI builds Sym^m from (weber8_1 - 8 weber8_2, weber8_2)
    with eliminated_families() as families, step_windows() as windows:
        assert symcheck_report("weber", m, 16).status == "pass"
        wronskians(_parse_basis("sym:weber:%d" % m, 16))
    assert len(families) == 3
    assert all(h.step_den == 1 for fs in families for h in fs)
    assert windows and max(windows) <= 16


@pytest.mark.parametrize("pair", ["rr", "a1"])
def test_rr_and_a1_pairs_are_taken_as_named(pair):
    # rr and a1 already lie on the integer lattice: the CLI takes them as named
    named = _pair(pair, 16)
    assert _reduced_pair(pair, 16) == named
    for m in range(1, 13):
        assert all(h.step_den == 1 for h in sym_family(*named, m))


# ---- the full-pivot elimination, kept as the reference ---------------------

# The elimination that came before the Wronskian recursion, as it was: every
# row of the stack of orders 1..k-1 and the end orders is updated at every
# step, pivots of minimal valuation are searched for and swapped in, each
# pivot spends its valuation of the window, and Sylvester's identity bounds
# the minors once the pivot rows vanish on it.  Its pivots may lead past
# slot 0, so it steps by row_step_by_entry, not by the _row_step it checks.

def reference_bareiss(fs, ends):
    """The minors det[D^j f_i] over the orders j in {1..k-1, e}, one for
    each end order e in ends (0 gives W, k gives W').

    Rows 1..k-1 of the derivative stack come first, then one row per end
    order.  After k-1 pivots drawn from rows 1..k-1 only, the last column
    of each end row holds its minor up to sign.
    """
    k = len(fs)
    if not k:
        raise ValueError("cannot take the Wronskian of an empty family")
    zeros = [f for f in fs if f.is_zero()]
    if zeros:
        if any(f.prec is None for f in zeros):
            return [QSeries.zero()] * len(ends)
        total = sum((f.offset if f.nums else f.prec for f in fs), Fraction(0))
        return [QSeries.zero(total)] * len(ends)
    base = sum((f.offset for f in fs), Fraction(0))
    # every input term beyond its prec moves the minors only from
    # base + bound on, whatever lattice it sits on
    bound = _min_prec(*(None if f.prec is None else f.prec - f.offset
                        for f in fs))
    # slot vectors live on Lv; L also clears the offset denominators, so
    # the derivative factor of slot n in column i is L*h_i + n*L/Lv
    Lv = lcm(*(f.step_den for f in fs))
    L = lcm(Lv, *(f.offset.denominator for f in fs))
    _check_cap(L)
    exact = bound is None
    if exact:
        window = sum((len(f.nums) - 1) * (Lv // f.step_den) for f in fs) + 1
    else:
        window = _ceil(bound * Lv)

    orders = list(range(1, k)) + list(ends)
    M = [[None] * k for _ in orders]
    denprod = 1
    for i, f in enumerate(fs):
        stride = Lv // f.step_den
        run = (f.nums if stride == 1 else _upsample(f.nums, stride))[:window]
        denprod *= f.den
        hl = int(f.offset * L)
        facs = [hl + n * (L // Lv) for n in range(len(run))]
        for j in range(max(orders) + 1):
            if j:
                run = [x * y for x, y in zip(run, facs)]
            if j in orders:
                M[orders.index(j)][i] = run

    def result(nums, e, w_end):
        # row j carries a factor L^j, so the minor over orders 1..k-1 and e
        # carries L^(k(k-1)/2 + e)
        den = denprod * L ** (k * (k - 1) // 2 + e)
        # exact inputs give polynomial minors of degree below window, known
        # in full while no pivot valuation has been spent
        known = exact and wcur == window
        prec = None if known else base + _min_prec(bound, Fraction(w_end, Lv))
        return QSeries(base, nums, Lv, den, prec)

    sign = 1
    prev = None
    prev_val = 0
    wcur = window
    for t in range(k - 1):
        best, br, bc = None, t, t
        for r in range(t, k - 1):
            for c in range(t, k):
                v = _vec_val(M[r][c], wcur)
                if v is not None and (best is None or v < best):
                    best, br, bc = v, r, c
            if best == 0:
                break
        if best is None:
            # the remaining pivot rows vanish on the window; by Sylvester's
            # identity each minor times prev^(k-1-t) is a determinant with
            # k-1-t such rows, which bounds its valuation
            w0 = max((k - 1 - t) * (wcur - prev_val), 0)
            return [result([], e, w0) for e in ends]
        if br != t:
            M[br], M[t] = M[t], M[br]
            sign = -sign
        if bc != t:
            for row in M:
                row[bc], row[t] = row[t], row[bc]
            sign = -sign
        piv = M[t][t]
        for r in range(t + 1, len(orders)):
            M[r][t + 1:] = row_step_by_entry(M[r][t + 1:], M[r][t], piv,
                                             M[t][t + 1:], prev, wcur)
            M[r][t] = None
        wcur -= prev_val
        prev = piv
        prev_val = best

    out = []
    for r, e in enumerate(ends, start=k - 1):
        # row e sits below rows 1..k-1; moving row 0 to the top takes k-1 swaps
        s = -sign if e == 0 and k % 2 == 0 else sign
        nums = M[r][k - 1]
        out.append(result([-x for x in nums] if s < 0 else nums, e, wcur))
    return out


def _no_lower(new, ref):
    """new.prec is at least ref.prec, None counting as the highest."""
    return new.prec is None or (ref.prec is not None and new.prec >= ref.prec)


def assert_matches_the_reference(fs):
    """On every end, the minors agree with the reference through the
    smaller precision, and no precision is lower than the reference's."""
    k = len(fs)
    for ends in ((0,), (k,), (0, k)):
        got, ref = W_MOD._bareiss(fs, ends), reference_bareiss(fs, ends)
        assert all(agree(g, r) and _no_lower(g, r) for g, r in zip(got, ref))


@settings(max_examples=150, deadline=None)
@given(st.one_of(integer_family(), coarsenable_family()))
@example(DEPENDENT_EXACT)
@example(DEPENDENT_TRUNCATED)
@example(UNKNOWN_MEMBER)
@example(SHARED_LEADS)
def test_recursion_matches_the_reference(fs):
    assert_matches_the_reference(fs)


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 2, 1, 3)])
def test_shared_leads_pivot_on_the_most_precise_member(order):
    # 1 + O(q) and the exact 1 share a lead: the exact one is the pivot in
    # either order, which leaves 1 + O(q) as O(q), so W and W' are exact 0
    fs = [SHARED_LEADS[i] for i in order]
    assert wronskians(fs) == (QSeries.zero(), QSeries.zero())


def test_bareiss_guard_raises_on_a_pivot_past_slot_0():
    # 1 and 1 + q share a lead; left unreduced, the pivot W(1, 1 + q) = q
    # leads at slot 1, and the guard raises once it is the pivot
    fs = [QSeries(0, [1]), QSeries(0, [1, 1])]
    assert wronskians(fs) == (QSeries.monomial(1, 1), QSeries.zero())
    with mock.patch.object(W_MOD, "_distinct_leads",
                           lambda fs: (list(enumerate(fs)), None)), \
            pytest.raises(ArithmeticError, match="does not lead at the sum"):
        wronskians(fs)


@pytest.mark.parametrize("prec", [F(9, 2), F(16), F(60)])
@pytest.mark.parametrize("pair", sorted(PAIR_NAMES))
def test_recursion_equals_the_reference_on_the_paper_pairs(pair, prec):
    # the distinct leading exponents of Sym^m leave every pivot at slot 0,
    # where the reference spends no window either
    fs = _reduced_pair(pair, prec)
    for m in range(1, 13):
        basis = sym_basis(*fs, m)
        ends = (0, m + 1)
        assert _minors(basis, ends) == _fields(
            lambda f: reference_bareiss(f, ends), basis)


@st.composite
def refined_family(draw):
    """A family of integer_family or coarsenable_family, and the exact
    family that keeps each member's known terms and adds random terms at
    and beyond its precision, on its lattice or off it."""
    fs = draw(st.one_of(integer_family(), coarsenable_family()))
    refined = []
    for f in fs:
        g = QSeries(f.offset, f.nums, f.step_den, f.den)
        if f.prec is not None:
            for j, d, c in draw(st.lists(st.tuples(
                    st.integers(0, 4), st.sampled_from([1, 2, 3, 6]),
                    st.sampled_from([1, -2, 3, 2 ** 20])),
                    min_size=1, max_size=3)):
                g = g + QSeries.monomial(c, f.prec + F(j, d))
        refined.append(g)
    return fs, refined


def _refined(fs):
    """fs, and the exact family with a term added at each member's prec."""
    return fs, [QSeries(f.offset, f.nums, f.step_den, f.den)
                + (0 if f.prec is None else QSeries.monomial(3, f.prec))
                for f in fs]


@settings(max_examples=150, deadline=None)
@given(refined_family())
@example(_refined(DEPENDENT_EXACT))
@example(_refined(DEPENDENT_TRUNCATED))
@example(_refined(UNKNOWN_MEMBER))
@example(_refined(SHARED_LEADS))
def test_reported_precision_is_sound(fc):
    """W and W' equal the determinant of every refinement of the family
    through their reported precision, and exactly for an exact family."""
    fs, refined = fc
    got, truth = wronskians(fs), oracle_pair(refined)
    for g, t in zip(got, truth):
        assert first_mismatch(g, t) is None
        if all(f.prec is None for f in fs):
            assert g == t


@pytest.mark.parametrize("fs", [
    # two members share a leading exponent, so the lead reduction runs
    [QSeries.from_fractions(0, [1, 1]), QSeries.from_fractions(0, [1, 2]),
     QSeries.monomial(1, F(1, 3))],
    [QSeries.from_fractions(0, [1, 1], prec=F(7)),
     QSeries.from_fractions(0, [1, 2, 0, 5], prec=F(6)),
     QSeries.monomial(1, F(1, 3), prec=F(13, 3))],
    # a dependent member, exact and truncated
    [QSeries.from_fractions(F(1, 2), [1, 0, 3]), QSeries.monomial(2, 1),
     QSeries.from_fractions(F(1, 2), [2, -3, 6])],
    [QSeries.from_fractions(F(1, 2), [1, 0, 3], prec=F(9)),
     QSeries.monomial(2, 1, prec=F(8)),
     QSeries.from_fractions(F(1, 2), [2, -3, 6], prec=F(17, 2))],
])
def test_minors_equal_the_cofactor_oracle(fs):
    w, wd = wronskians(fs)
    assert (w, wd) == (wronskian(fs), wronskian_derived(fs))
    truth = oracle_pair(fs)
    if all(f.prec is None for f in fs):
        assert (w, wd) == truth
    else:
        assert first_mismatch(w, truth[0]) is None
        assert first_mismatch(wd, truth[1]) is None
        assert w.prec is not None and wd.prec is not None
    assert_matches_the_reference(fs)


@pytest.mark.parametrize("m", range(1, 13))
def test_one_row_step_per_pivot(m):
    # k - 1 pivots give W, and the constant column takes one more for W'
    fs = sym_basis(*_reduced_pair("weber", 16), m)
    k = m + 1
    for call, steps in ((wronskian, k - 1), (wronskian_derived, k),
                        (wronskians, k)):
        with step_windows() as windows:
            call(fs)
        assert len(windows) == steps
