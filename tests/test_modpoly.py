"""Tests for the E4/E6 polynomial ring, Eisenstein series, and divisor data.

Numeric prefixes are classical table values, frozen independently of the
implementation.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import modwron.modpoly as modpoly
from modwron.etaprod import eta
from modwron.modpoly import (
    DELTA,
    E4,
    E6,
    G4,
    G6,
    IDENTIFY_MARGIN,
    InsufficientPrecision,
    MFPoly,
    NotIdentifiable,
    _compose,
    _eis,
    _ladder,
    _weight_shape,
    bernoulli,
    decompose,
    dim_modular,
    divisor_polynomial,
    eisenstein,
    h_poly,
    identify,
    theta_derivation,
    theta_h,
    to_qseries,
)
from modwron.poly import Poly
from modwron.qseries import QSeries, _ceil, first_mismatch
from modwron.symmpow import sym_quotient_closed_form
from test_qseries import truncated_and_completion

F = Fraction

E4_PREFIX = [1, 240, 2160, 6720, 17520, 30240, 60480, 82560, 140400]
E6_PREFIX = [1, -504, -16632, -122976, -532728, -1575504, -4058208, -8471232]
E2_PREFIX = [1, -24, -72, -96, -168, -144, -288, -192, -360, -312, -432]
E10_PREFIX = [1, -264, -135432, -5196576, -69341448]
J_PREFIX = [1, 744, 196884, 21493760, 864299970, 20245856256]

BERNOULLI = {0: F(1), 1: F(-1, 2), 2: F(1, 6), 4: F(-1, 30), 6: F(1, 42),
             8: F(-1, 30), 10: F(5, 66), 12: F(-691, 2730), 14: F(7, 6)}


def test_bernoulli_table():
    for n, b in BERNOULLI.items():
        assert bernoulli(n) == b
    for n in (3, 5, 7, 9, 11, 13):
        assert bernoulli(n) == 0


def bernoulli_by_recurrence(upto):
    """Reference: B_n = -sum_{j<n} C(n+1, j) B_j / (n + 1), in Fractions."""
    b = [Fraction(1)]
    for n in range(1, upto + 1):
        b.append(-sum(comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return b


def test_bernoulli_matches_the_recurrence():
    assert [bernoulli(n) for n in range(301)] == bernoulli_by_recurrence(300)


@pytest.mark.parametrize("k,prefix", [(4, E4_PREFIX), (6, E6_PREFIX), (2, E2_PREFIX)])
def test_eisenstein_prefixes(k, prefix):
    e = eisenstein(k, "E", len(prefix))
    assert [e.coeff_at(n) for n in range(len(prefix))] == [F(c) for c in prefix]


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(ValueError, match="even"):
        eisenstein(3)
    with pytest.raises(ValueError, match="even"):
        eisenstein(0)
    with pytest.raises(ValueError, match="normalization"):
        eisenstein(4, "H")


def test_eisenstein_g_normalization():
    assert eisenstein(2, "G", 5).coeff_at(0) == F(-1, 12) * 1
    assert eisenstein(4, "G", 5).coeff_at(0) == F(1, 720)
    assert eisenstein(6, "G", 5).coeff_at(0) == F(-1, 30240)
    assert first_mismatch(eisenstein(4, "G", 12),
                          F(1, 720) * eisenstein(4, "E", 12)) is None


def test_eisenstein_precision_is_requested():
    assert eisenstein(4, "E", 5).prec == 5
    assert eisenstein(4, "E", F(7, 2)).prec == F(7, 2)


def test_e12_has_691_denominator():
    e12 = eisenstein(12, "E", 4)
    assert e12.coeff_at(0) == 1
    assert e12.coeff_at(1) == F(65520, 691)


def test_theta_on_generators():
    assert theta_derivation(E4) == MFPoly.monomial(F(-1, 3), 0, 1)
    assert theta_derivation(E6) == MFPoly.monomial(F(-1, 2), 2, 0)


def test_theta_annihilates_discriminant():
    assert theta_derivation(E4 ** 3 - E6 ** 2).is_zero()
    assert theta_derivation(DELTA).is_zero()


def test_theta_g_normalized_identities():
    assert theta_derivation(G4) == 14 * G6
    assert theta_derivation(G6) == F(60, 7) * (G4 * G4)


def test_theta_derivation_weight_step():
    p = E4 * E6
    assert theta_derivation(p).weight == 12


def test_theta_h_on_constants():
    assert theta_h(QSeries.one(20), 0).is_zero()
    assert theta_h(QSeries.one(20), 4, 10).prec == 10


def test_theta_h_e4():
    got = theta_h(eisenstein(4, "E", 25), 4)
    want = F(-1, 3) * eisenstein(6, "E", 25)
    assert first_mismatch(got, want) is None


def test_theta_h_kills_delta():
    assert theta_h(to_qseries(DELTA, 25), 12).is_zero()


def test_commuting_square_all_monomials_to_weight_30():
    for a in range(8):
        for b in range(6):
            w = 4 * a + 6 * b
            if w == 0 or w > 30:
                continue
            p = MFPoly.monomial(F(1), a, b)
            lhs = to_qseries(theta_derivation(p), 20)
            rhs = theta_h(to_qseries(p, 20), w)
            assert first_mismatch(lhs, rhs) is None, (a, b)


def test_delta_std_is_eta_24():
    assert first_mismatch(to_qseries(DELTA, 18), eta(1, 18) ** 24) is None
    d = to_qseries(DELTA, 10)
    assert d.valuation() == 1 and d.leading_coefficient() == 1


def test_j_series_prefix():
    # j = E4^3 / Delta, two orders short of its operands' precision
    j = to_qseries(E4 ** 3, 7) / to_qseries(DELTA, 7)
    assert j.valuation() == -1
    assert [j.coeff_at(n) for n in range(-1, 5)] == [F(c) for c in J_PREFIX]
    assert j.prec == 5


def test_to_qseries_e4_e6_product():
    e10 = to_qseries(E4 * E6, 5)
    assert [e10.coeff_at(n) for n in range(5)] == [F(c) for c in E10_PREFIX]


def test_identify_round_trips():
    for p, w in [(E4, 4), (E6, 6), (DELTA, 12), (E4 * E6, 10),
                 (3 * E4 ** 7 - F(5, 2) * (E4 ** 2 * E6 ** 2 * E4 ** 2)
                  + 7 * (DELTA * E4 ** 4), 28)]:
        assert identify(to_qseries(p, 30), w) == p


def test_identify_e12():
    got = identify(eisenstein(12, "E", 20), 12)
    assert got == MFPoly(12, {(3, 0): F(441, 691), (0, 2): F(250, 691)})


def test_identify_rejects_non_modular():
    y = QSeries.one(20) + QSeries.monomial(1, 1, 20)
    with pytest.raises(NotIdentifiable, match="not identifiable"):
        identify(y, 4)


def test_identify_rejects_fractional_exponents():
    with pytest.raises(NotIdentifiable, match="not identifiable"):
        identify(QSeries.monomial(1, F(1, 2), 20), 4)


def test_identify_rejects_wrong_weight():
    with pytest.raises(NotIdentifiable, match="not identifiable"):
        identify(eisenstein(4, "E", 20), 8)


def test_identify_rejects_weight_with_no_forms():
    with pytest.raises(NotIdentifiable, match="not identifiable"):
        identify(eisenstein(4, "E", 20), 2)


def test_identify_insufficient_precision():
    # the margin is fixed at 10 beyond dim M_4 = 1
    with pytest.raises(ValueError, match="insufficient precision"):
        identify(eisenstein(4, "E", 10), 4)
    assert identify(eisenstein(4, "E", 11), 4) == E4


def test_identify_zero_series():
    # the zero series is a form only when it is known through dim + margin
    assert identify(QSeries.zero(11), 8).is_zero()
    assert identify(QSeries.zero(), 8).is_zero()
    with pytest.raises(InsufficientPrecision, match="need 11 coefficients"):
        identify(QSeries.zero(10), 8)


def test_identify_exact_input():
    # no q-polynomial is a form of positive weight, however many terms
    # match: an exact 11-term truncation of E4 is not E4
    e4 = to_qseries(E4, 11)
    with pytest.raises(NotIdentifiable, match="not identifiable: a nonzero exact"):
        identify(QSeries(0, e4.nums, 1, e4.den), 4)
    # an exact constant is a form of weight 0, and every term is checked
    assert identify(QSeries.constant(F(-3, 2)), 0) == MFPoly.constant(F(-3, 2))
    with pytest.raises(ValueError, match="nonzero at exponent 40"):
        identify(QSeries(0, [1] + [0] * 39 + [5]), 0)
    assert identify(QSeries.zero(), 0).is_zero()


def eisenstein_power_by_sums(k, e, slots):
    """Reference: E_k^e to `slots` coefficients, from divisor sums and e
    repeated products."""
    sigma = [sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
             for n in range(slots)]
    ek = QSeries.from_fractions(
        0, [F(1)] + [-2 * k * sigma[n] / bernoulli(k) for n in range(1, slots)],
        1, slots)
    out = QSeries.one(slots)
    for _ in range(e):
        out = out * ek
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([2, 4, 6, 12, 22]), st.integers(1, 40)),
                min_size=1, max_size=8),
       st.booleans())
def test_eisenstein_memo_matches_a_fresh_build(requests, decreasing):
    """E_k served from the longest expansion kept equals a fresh build, for
    slot counts that rise and fall, and the memo holds one entry per k."""
    if decreasing:
        requests = sorted(requests, key=lambda r: r[1], reverse=True)
    modpoly._EIS.clear()
    for k, slots in requests:
        assert _eis(k, slots) == eisenstein_power_by_sums(k, 1, slots)
    assert set(modpoly._EIS) == {k for k, _ in requests}
    assert all(modpoly._EIS[k].prec == max(n for j, n in requests if j == k)
               for k in modpoly._EIS)


def test_ladder_power_chain_runs_as_a_loop():
    # weight 6000 reaches E4^1500, past the default recursion limit
    members = list(_ladder(6000, 3))
    assert len(members) == 501
    assert members[0] == eisenstein_power_by_sums(4, 1500, 3).nums
    assert members[1] == (eisenstein_power_by_sums(4, 1497, 2)
                          * QSeries(0, [1, -24], 1, 1, 2)).nums
    assert members[2] == [1] and not any(members[3:])


def test_ladder_members_are_fresh_lists():
    e4 = eisenstein_power_by_sums(4, 1, 20)
    for w in (4, 6, 10, 12, 16, 36):
        for member in _ladder(w, 20):
            member[:] = [7] * len(member)
    assert eisenstein(4, "E", 20) == e4
    assert eisenstein(6, "E", 20) == eisenstein_power_by_sums(6, 1, 20)
    assert list(_ladder(4, 20))[0] == e4.nums


# ---- the Fraction-per-term layer, kept as the reference -------------------------

def weight_basis(w):
    """Reference: the Delta-ladder basis of M_w as MFPolys, Delta^i
    E4^(delta + 3(t-i)) E6^epsilon for i = 0..t, by products of DELTA."""
    delta, eps, t = _weight_shape(w)
    basis = []
    power = MFPoly.constant(F(1))
    for i in range(t + 1):
        basis.append(power * MFPoly.monomial(F(1), delta + 3 * (t - i), eps))
        power = power * DELTA
    return basis


def to_qseries_by_terms(p, N):
    """Reference: E4^a E6^b by repeated QSeries products of the Eisenstein
    series, then one Fraction times QSeries and one QSeries sum per term."""
    N = F(N)
    slots = max(_ceil(N), 1)
    powers = []
    for k, g in ((4, 0), (6, 1)):
        e, pw = eisenstein(k, "E", slots), [QSeries.one(slots)]
        for _ in range(max((ab[g] for ab in p.terms), default=0)):
            pw.append(pw[-1] * e)
        powers.append(pw)
    out = QSeries.zero(N)
    for (a, b), c in sorted(p.terms.items()):
        out = out + F(c) * (powers[0][a] * powers[1][b])
    return out.truncate(N)


def identify_by_fractions(y, weight, margin=10):
    """Reference: back-substitution over QSeries of the expanded basis, for
    an input of finite precision."""
    d = dim_modular(weight)
    if y.prec < d + margin:
        raise InsufficientPrecision(
            "insufficient precision: need %d coefficients of a weight-%d "
            "candidate, have precision %s" % (d + margin, weight, y.prec))
    if y.is_zero():
        return MFPoly.zero(weight)
    if y.offset < 0 or y.offset.denominator != 1 or y.step_den != 1:
        raise NotIdentifiable(
            "not identifiable: series has negative or non-integral exponents")
    if d == 0:
        raise NotIdentifiable("not identifiable: no nonzero forms of weight %d" % weight)
    basis = weight_basis(weight)
    basis_q = [to_qseries_by_terms(b, y.prec) for b in basis]
    residual = y
    solution = MFPoly.zero(weight)
    for i in range(d):
        c = residual.coeff_at(i)
        if c:
            residual = residual - c * basis_q[i]
            solution = solution + c * basis[i]
    if not residual.is_zero():
        raise NotIdentifiable(
            "not identifiable: residual is nonzero at exponent %s"
            % residual.valuation())
    return solution


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


def _same_as_reference(form, w, N):
    y = to_qseries(form, N)
    assert y == to_qseries_by_terms(form, N)
    got = _outcome(identify, y, w)
    assert got == _outcome(identify_by_fractions, y, w)
    # one more term off the form: the residual names the same exponent
    bumped = y + QSeries.monomial(F(1, 7), _ceil(F(N)) - 1)
    assert (_outcome(identify, bumped, w)
            == _outcome(identify_by_fractions, bumped, w))
    return got


def test_integer_slot_layer_matches_fractions_on_every_weight():
    for w in range(-4, 101):
        d = dim_modular(w)
        for N in (d + 10, d + F(37, 3)):
            if d == 0:
                y = eisenstein(4, "E", N) + QSeries.monomial(1, 2, N)
                assert (_outcome(identify, y, w)
                        == _outcome(identify_by_fractions, y, w))
                continue
            form = MFPoly.zero(w)
            for i, b in enumerate(weight_basis(w)):
                form = form + F((-1) ** i * (i + 2), 2 * i + 3) * b
            assert _same_as_reference(form, w, N) == form
            assert _same_as_reference(form, w, N - 3)[0] is InsufficientPrecision


def test_integer_slot_layer_matches_fractions_on_the_closed_forms():
    for m in range(1, 48):
        form = sym_quotient_closed_form(m)
        w = form.weight
        for N in (dim_modular(w) + 10, dim_modular(w) + F(25, 2)):
            assert _same_as_reference(form, w, N) == form


@st.composite
def forms(draw):
    """A form of weight 4..40 with rational coefficients on the monomials."""
    w = draw(st.sampled_from(range(4, 41, 2)))
    monos = [(a, (w - 4 * a) // 6) for a in range(w // 4 + 1)
             if (w - 4 * a) % 6 == 0]
    cs = draw(st.lists(st.fractions(min_value=-50, max_value=50,
                                    max_denominator=30),
                       min_size=len(monos), max_size=len(monos)))
    return MFPoly(w, dict(zip(monos, cs)))


@settings(max_examples=80, deadline=None)
@given(forms(), st.sampled_from([-2, -1, F(-1, 2), 0, F(1, 3), 1, 9]))
def test_identify_returns_the_form_or_asks_for_more(form, shift):
    w = form.weight
    need = dim_modular(w) + 10
    y = to_qseries(form, need + shift)
    try:
        got = identify(y, w)
    except InsufficientPrecision:
        assert shift < 0
    else:
        assert shift >= 0
        assert got == form
        assert got.is_zero() == form.is_zero()
    if not form.is_zero():
        with pytest.raises(NotIdentifiable, match="not identifiable"):
            identify(QSeries(y.offset, y.nums, 1, y.den), w)


def test_decompose_simple_cases():
    d = decompose(E4)
    assert (d.t, d.delta, d.epsilon, d.f_tilde.coeffs) == (0, 1, 0, (F(1),))
    d = decompose(E4 * E6)
    assert (d.t, d.delta, d.epsilon) == (0, 1, 1)
    assert d.F.coeffs == (F(0), F(-1728), F(1))
    d = decompose(DELTA)
    assert (d.t, d.delta, d.epsilon, d.f_tilde.coeffs) == (1, 0, 0, (F(1),))


def test_decompose_e12():
    p = MFPoly(12, {(3, 0): F(441, 691), (0, 2): F(250, 691)})
    assert decompose(p).f_tilde.coeffs == (F(-432000, 691), F(1))


def test_decompose_weight_14_case():
    d = decompose(E4 ** 2 * E6)
    assert (d.t, d.delta, d.epsilon) == (0, 2, 1)
    assert d.F.coeffs == (F(0), F(0), F(-1728), F(1))


def test_decompose_reassembly():
    for p in [eisensteinish := MFPoly(12, {(3, 0): F(441, 691), (0, 2): F(250, 691)}),
              E4 ** 7,
              3 * E4 ** 7 - F(5, 2) * (E4 ** 4 * E6 ** 2) + 7 * (DELTA * E4 ** 4),
              E6 ** 3,
              DELTA ** 2 * E6]:
        d = decompose(p)
        rebuilt = MFPoly.zero(p.weight)
        for i, c in enumerate(d.f_tilde.coeffs):
            rebuilt = rebuilt + c * (DELTA ** (d.t - i) * E4 ** (3 * i)
                                     * E4 ** d.delta * E6 ** d.epsilon)
        assert rebuilt == p
        assert d.f_tilde.degree() <= d.t


def decompose_by_fraction_powers(p):
    """Reference: f_tilde with a Fraction(-1728) power per (term, r)."""
    delta, eps, t = _weight_shape(p.weight)
    ftilde = [F(0)] * (t + 1)
    for (a, b), c in p.terms.items():
        i, s = (a - delta) // 3, (b - eps) // 2
        for r in range(s + 1):
            ftilde[i + r] += F(c) * comb(s, r) * F(-1728) ** (s - r)
    return Poly(ftilde)


@settings(max_examples=40, deadline=None)
@given(forms())
def test_decompose_matches_fraction_powers(form):
    if not form.is_zero():
        assert decompose(form).f_tilde == decompose_by_fraction_powers(form)


def test_decompose_zero_rejected():
    with pytest.raises(ValueError, match="zero form"):
        decompose(MFPoly.zero(12))


def test_divisor_polynomials():
    assert divisor_polynomial(E4) == Poly((0, 1))
    assert divisor_polynomial(E4).coeffs == (F(0), F(1))
    assert divisor_polynomial(E6).coeffs == (F(-1728), F(1))
    assert divisor_polynomial(DELTA).coeffs == (F(1),)
    assert divisor_polynomial(E4 ** 2).coeffs == (F(0), F(0), F(1))


def test_h_poly_rejects_odd():
    with pytest.raises(ValueError):
        h_poly(7)


def test_eisenstein_p_minus_1_congruence():
    for p in (5, 7, 11, 13):
        e = eisenstein(p - 1, "E", 50)
        for _, c in (e - QSeries.one(50)).coeffs():
            assert c.denominator % p != 0
            assert c.numerator % p == 0


def test_dim_modular():
    dims = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1, 26: 2}
    for w, d in dims.items():
        assert dim_modular(w) == d
    assert dim_modular(-4) == 0 and dim_modular(5) == 0


# ---- the retired weight-residue encodings, kept as references ---------------

_X = Poly((0, 1))
HK_REFERENCE = {0: Poly((1,)), 2: _X * _X * (_X - 1728), 4: _X, 6: _X - 1728,
                8: _X * _X, 10: _X * (_X - 1728)}


def dim_modular_reference(w):
    if w < 0 or w % 2:
        return 0
    if w % 12 == 2:
        return w // 12
    return w // 12 + 1


def gen_for_weight_reference(u):
    """Some monomial (a, b) with 4a+6b = u; u even, nonnegative, not 2."""
    if u % 4 == 0:
        return (u // 4, 0)
    return ((u - 6) // 4, 1)


def test_weight_table_matches_retired_encodings():
    delta_powers = [MFPoly.constant(F(1))]
    for w in range(-4, 401, 2):
        d = dim_modular_reference(w)
        assert dim_modular(w) == d
        assert h_poly(w) == HK_REFERENCE[w % 12]
        delta, eps, t = _weight_shape(w)
        assert 4 * delta + 6 * eps + 12 * t == w
        assert w < 0 or t + 1 == d
        while len(delta_powers) < d:
            delta_powers.append(delta_powers[-1] * DELTA)
        expected = [delta_powers[i] * MFPoly.monomial(
                        F(1), *gen_for_weight_reference(w - 12 * i))
                    for i in range(d)]
        assert weight_basis(w) == expected
        # coordinate vector e_i composes to basis element i
        assert [_compose(w, [0] * i + [1] + [0] * (d - 1 - i), 1)
                for i in range(d)] == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(-2, 100), st.data())
def test_compose_is_the_inverse_of_decompose(h, data):
    w = 2 * h
    delta, eps, t = _weight_shape(w)
    coords = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                min_size=t + 1, max_size=t + 1))
    den = data.draw(st.integers(1, 10 ** 4))
    form = _compose(w, coords, den)
    if not any(coords):
        assert form.is_zero()
        return
    d = decompose(form)
    assert (d.weight, d.t, d.delta, d.epsilon) == (w, t, delta, eps)
    assert d.f_tilde == Poly([F(k, den) for k in reversed(coords)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([w for w in range(0, 121, 2) if dim_modular(w)]),
       st.integers(0, 12), st.data())
def test_identify_inverts_to_qseries(w, extra, data):
    monomials = [((w - 6 * b) // 4, b) for b in range(w // 6 + 1)
                 if (w - 6 * b) % 4 == 0]
    coeff = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
    form = MFPoly(w, {ab: data.draw(coeff) for ab in monomials})
    y = to_qseries(form, dim_modular(w) + IDENTIFY_MARGIN + extra)
    assert identify(y, w) == form


def theta_power(y, j):
    """theta_{2(j-1)} o ... o theta_0 on a weight-0 series, as symmpow.apply
    iterates it."""
    for i in range(j):
        y = theta_h(y, 2 * i)
    return y


@settings(max_examples=60, deadline=None)
@given(truncated_and_completion(), st.sampled_from([0, 2, 4, 12]),
       st.integers(1, 3))
def test_theta_h_and_theta_power_precision_soundness(fc, h, j):
    """No completion of the input beyond its precision, with a term right
    at it and one off its lattice, changes a coefficient of theta_h or
    of its iterate below the precision reported for it."""
    f, full = fc
    full = full + QSeries.monomial(1, f.prec + F(1, 5))
    for lo, hi in ((theta_h(f, h), theta_h(full, h)),
                   (theta_power(f, j), theta_power(full, j))):
        assert first_mismatch(lo, hi) is None
        assert lo.prec <= hi.prec


def test_theta_power_composition():
    f = eta(1, 20) ** 4 / eta(1, 20) ** 4
    assert first_mismatch(theta_power(f, 1), theta_h(f, 0)) is None
    assert theta_power(QSeries.one(15), 3).is_zero()


def test_mfpoly_algebra_guards():
    with pytest.raises(ValueError, match="weights"):
        _ = E4 + E6
    with pytest.raises(ValueError, match="weight"):
        MFPoly(4, {(0, 1): F(1)})
    with pytest.raises(ValueError, match="negative"):
        MFPoly.monomial(1, -1, 0)
    assert (E4 - E4).is_zero()
    assert E4 ** 0 == MFPoly.constant(F(1))


def test_zero_forms_hash_alike():
    # zero has no weight, so the zeros of every weight are one value
    zeros = [MFPoly.zero(w) for w in (0, 4, 6, 12)] + [E4 - E4]
    assert all(z == zeros[0] for z in zeros)
    assert len(set(zeros)) == 1
    assert len({E4, E6, MFPoly.zero(4), 2 * E4}) == 4


def test_mfpoly_str():
    assert str(theta_derivation(E4)) == "-(1/3)*E6"
    assert str(E4 ** 2 + E4 ** 2) == "2*E4^2"
    assert str(MFPoly.zero(8)) == "0"


_weights = st.sampled_from([4, 6, 8, 10, 12])
_coeffs = st.integers(min_value=-5, max_value=5)


def _poly_for_weight(w, cs):
    out = MFPoly.zero(w)
    monos = [(a, b) for a in range(w // 4 + 1) for b in range(w // 6 + 1)
             if 4 * a + 6 * b == w]
    for (a, b), c in zip(monos, cs):
        out = out + MFPoly.monomial(F(c), a, b)
    return out


@settings(max_examples=40, deadline=None)
@given(w1=_weights, w2=_weights, cs1=st.lists(_coeffs, min_size=3, max_size=3),
       cs2=st.lists(_coeffs, min_size=3, max_size=3))
def test_theta_derivation_leibniz(w1, w2, cs1, cs2):
    p = _poly_for_weight(w1, cs1)
    r = _poly_for_weight(w2, cs2)
    lhs = theta_derivation(p * r)
    rhs = theta_derivation(p) * r + p * theta_derivation(r)
    assert lhs == rhs
