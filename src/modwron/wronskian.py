"""Wronskians of q-series families and the modular data they carry.

For series f_1, ..., f_k the Wronskian is the determinant of the k x k
matrix whose (j, i) entry is D^j f_i with D = q d/dq; the derived
Wronskian applies the same determinant to (D f_1, ..., D f_k).  A family is
any sequence of QSeries.  On top of the determinants this module provides
echelon forms as tuples by leading exponent, monic normalization,
identification of the quotient W'/W of a k-member family as a holomorphic
form of weight 2k, and a certificate that W'/W vanishes based on
leading-exponent data alone: the exponents decide both the forcing pattern
and the holomorphy of W'/W it rests on.

Every determinant comes from one fraction-free recursion on integer
coefficient vectors, the Wronskian form of Sylvester's identity,
W(W(F, g), W(F, h)) = W(F) W(F, g, h), the identity behind E. H. Bareiss,
Math. Comp. 22, 1968 (_bareiss): one row step per pivot.  Each column's
leading exponent h_i and denominator are pulled out first, so the vectors
only need the lattice Lv = lcm of the step denominators; the finer L that
also clears the offset denominators only scales the derivative factors
L*h_i + n*L/Lv.  Every division is an exact integer division because the
quotients are again minors of the integer matrix.

Column operations f_i -= c f_j (j != i, no member ever scaled) leave
every minor of the derivative stack, and so W and W', exactly as they
were.  The recursion first applies them until the leading exponents are
distinct, so each pivot W(f_1..f_t) leads at slot 0, with the product of
the leading coefficients times the Vandermonde of the h_i: no pivot is
searched for, and no division spends any of the known window.  That an
exact divisor leads at slot 0 is the contract of the row step and of
qseries._divexact; the guard in _bareiss is the one place it is checked.
wronskian, wronskian_derived and wronskians eliminate their family as
given, on the lattice of its members.

Each step works on one whole row.  Slot s of the row's remaining entries
packs into one integer sum_c x_c 2^(w c) with balanced w-bit fields, so
the numerator a_c * piv - mrt * b_c costs two scalar-times-packed dot
products per slot, not per entry, and the division by the previous pivot
is one run of the integer triangular solve (qseries._divexact) on the
packed numerators.  The packed arithmetic is exact, so a packed remainder
means an inexact field division, and the solve raises.  w comes from a
bound on the numerator fields, and a row is redone at twice the width
whenever the accumulator bound could reach 2^(w-1).  Below that bound a
balanced representation is unique: a packed accumulator that divides by
the leading slot, with lead times every quotient field below 2^(w-1) as
well, divided exactly field by field, and any other outcome raises.

W and W' share one pass, as W' = (-1)^k W(f_1, ..., f_k, 1).  A reported
precision is the sum of the offsets plus the smallest prec_i - h_i once
the leads are distinct, which bounds the effect of any change of an input
beyond its precision.
"""

from fractions import Fraction
from itertools import chain, repeat
from math import lcm, prod
from operator import mul as _mul_op
from typing import NamedTuple

from .modpoly import identify
from .qseries import (QSeries, _INEXACT, _ceil, _check_cap, _divexact,
                      _min_prec, _upsample, first_mismatch)


# ---- echelon bases -------------------------------------------------------

def echelonize(series):
    """Column-reduce a family until the leading exponents are all distinct.

    Returns the tuple of members sorted by leading exponent, as
    _distinct_leads reduces them: members are never rescaled, so a member
    that already leads at a fresh exponent comes back unchanged, and so
    does the most precise of the members that share one.  An echelon
    family comes back as itself in order.  The span is preserved
    throughout.  A member that reduces to zero -- to its known precision --
    raises a ValueError naming its position in the input.
    """
    reduced, zero = _distinct_leads(_series_list(series))
    if zero is not None:
        raise ValueError("series at index %d is linearly dependent on the "
                         "others to working precision" % zero)
    return tuple(f for _, f in reduced)


def _distinct_leads(fs):
    """Column operations f_i -= c f_j on fs, no member rescaled, until the
    leading exponents of the members not zero to their precision are
    distinct.

    Returns the pairs (position in fs, member), the nonzero members by
    increasing leading exponent and then the zero ones, with the position
    of the first member found zero, or None.  Each pass sets the zero
    members aside and finishes the member of lowest leading exponent;
    every other member that shares its lead absorbs a multiple of it.  On
    a tie an exact member goes first, then the largest prec, then the
    earliest: f - c piv keeps min(prec_f, prec_piv), so the most precise
    pivot leaves every member as precise as any pivot could.
    """
    work, done, zeros = list(enumerate(fs)), [], []
    while work:
        zeros += [(idx, f) for idx, f in work if f.is_zero()]
        work = [(idx, f) for idx, f in work if not f.is_zero()]
        if not work:
            break
        ranks = [(f.valuation(), f.prec is not None, -(f.prec or 0))
                 for _, f in work]
        at = ranks.index(min(ranks))
        done.append(work.pop(at))
        piv = done[-1][1]
        h, lead = piv.valuation(), piv.leading_coefficient()
        work = [(idx, f - (f.leading_coefficient() / lead) * piv)
                if f.valuation() == h else (idx, f) for idx, f in work]
    return done + zeros, zeros[0][0] if zeros else None


def _series_list(family):
    out = list(family)
    for f in out:
        if not isinstance(f, QSeries):
            raise TypeError("expected QSeries members, got %r" % (f,))
    return out


# ---- determinants --------------------------------------------------------

def wronskian(family):
    """det[D^j f_i] for j = 0..k-1, columns in the given order, D = q d/dq."""
    return _bareiss(_series_list(family), (0,))[0]


def wronskian_derived(family):
    """Wronskian of the termwise derivatives (D f_1, ..., D f_k), which is
    det[D^j f_i] for j = 1..k."""
    fs = _series_list(family)
    return _bareiss(fs, (len(fs),))[0]


def wronskians(family):
    """(W, W') of a family, both from one elimination."""
    fs = _series_list(family)
    return tuple(_bareiss(fs, (0, len(fs))))


def _pack_slots(cols, n, w):
    """Slots 0..n-1 of the int lists cols, each packed into one integer
    sum_c cols[c][s] * 2^(w c); an entry past the end of its list is 0."""
    out = [0] * n
    for col in reversed(cols):
        out = [(y << w) + x for y, x in zip(out, chain(col, repeat(0)))]
    return out


def _dots(x, ys, n):
    """Slots 0..n-1 of the product of the int list x and the list ys,
    which holds at least n slots."""
    x, yr = x[:n], ys[n - 1::-1]
    # slot e pairs x[j] with ys[e - j]
    return [sum(map(_mul_op, x, yr[n - 1 - e:])) for e in range(n)]


def _height(cols):
    return max(max(map(abs, c), default=0) for c in cols)


def _row_step(a, mrt, piv, b, prev, n):
    """One step of the fraction-free recursion on one row: the lists
    (a_c * piv - mrt * b_c) / prev over the columns c, through n slots.
    prev leads at slot 0, as every pivot does once _bareiss has checked
    it, and the first divisor is 1.

    The row's slots pack into balanced w-bit fields, and _divexact divides
    the packed numerators by prev (module docstring).  The quotients unpack
    in order while their fields stay within lim, which keeps every
    accumulator field below 2^(w-1).  At the first slot past lim, w
    doubles and the row is redone, or, when lead times that field reaches
    2^(w-1), the division was inexact and ArithmeticError is raised.  w
    starts with room for x_0 = numerator / lead in every slot.
    """
    alead = abs(prev[0])
    taps = sum(map(abs, prev[1:n]))
    # a numerator field is at most nb; an accumulator field is at most
    # nb + taps * max|x| over the quotient fields solved before it
    nb = (sum(map(abs, piv[:n])) * _height(a)
          + sum(map(abs, mrt[:n])) * _height(b))
    w = (nb + taps * (nb // alead)).bit_length() + 1
    while True:
        half, top = 1 << (w - 1), w * (len(a) - 1)
        mask, bias = (1 << w) - 1, sum(half << s for s in range(0, top + 1, w))
        low = range(0, top, w)
        num = [p - q for p, q in zip(
            _dots(piv, _pack_slots(a, n, w), n),
            _dots(mrt, _pack_slots(b, n, w), n))]
        # below xlim the accumulator bound stays below half; fields of
        # lead * x must stay below half too
        xlim = (half - 1 - nb) // taps if taps else half
        lim = min(xlim, (half - 1) // alead)
        rows = []
        for x in _divexact(num, prev[:n], n):
            x += bias
            row = [((x >> s) & mask) - half for s in low] + [(x >> top) - half]
            big = max(max(row), -min(row))
            if big > lim:
                if big * alead >= half:
                    raise ArithmeticError(_INEXACT)
                break
            rows.append(row)
        else:
            return [list(col) for col in zip(*rows)]
        w *= 2


def _bareiss(fs, ends):
    """The minors det[D^j f_i] over the orders j = 0..k-1 (end 0, W) and
    j = 1..k (end k, W'), one for each end order in ends.

    _distinct_leads runs first, and a member it leaves zero to its
    precision makes every minor vanish.  Otherwise the row A_t(c) =
    W(f_1..f_t, f_c) over the columns c past t leads at slot 0, and
    Sylvester's identity gives A_{t+1}(c) = (A_t(p) D A_t(c) - D A_t(p)
    A_t(c)) / W(f_1..f_t) for the pivot p = f_{t+1}; the divisor is the
    previous pivot A_{t-1}(f_t), or 1 at t = 0.  The constant 1 is a last
    column for W' = (-1)^k W(f_1..f_k, 1), so W is the row after k-1 steps
    and W' the row after k.
    """
    k = len(fs)
    if not k:
        raise ValueError("cannot take the Wronskian of an empty family")
    reduced, zero = _distinct_leads(fs)
    fs = [f for _, f in sorted(reduced)]
    if zero is not None:
        if any(f.prec is None for f in fs if f.is_zero()):
            return [QSeries.zero()] * len(ends)
        total = sum((f.offset if f.nums else f.prec for f in fs), Fraction(0))
        return [QSeries.zero(total)] * len(ends)
    base = sum((f.offset for f in fs), Fraction(0))
    # every input term beyond its prec moves the minors only from
    # base + bound on, whatever lattice it sits on
    bound = _min_prec(*(None if f.prec is None else f.prec - f.offset
                        for f in fs))
    # slot vectors live on Lv; L also clears the offset denominators, so D
    # multiplies slot n of a minor over the columns S by L*sum_S h_i +
    # n*L/Lv.  The pivots' share of the sum is common to A_t(p) and A_t(c)
    # and cancels in A_t(p) D A_t(c) - D A_t(p) A_t(c), which leaves column
    # c the factor L*h_c + n*L/Lv at every step.
    Lv = lcm(*(f.step_den for f in fs))
    L = lcm(Lv, *(f.offset.denominator for f in fs))
    _check_cap(L)
    if bound is None:
        # exact inputs give polynomial minors of degree below window
        window = sum((len(f.nums) - 1) * (Lv // f.step_den) for f in fs) + 1
    else:
        # a nonzero member is known past its offset, so window >= 1
        window = _ceil(bound * Lv)

    row = [(f.nums if f.step_den == Lv else
            _upsample(f.nums, Lv // f.step_den))[:window] for f in fs]
    hls = [int(f.offset * L) for f in fs]
    if k in ends:
        row.append([1])
        hls.append(0)
    facs = [[h + n * (L // Lv) for n in range(window)] for h in hls]
    prev = [1]
    while len(row) > 1:
        if not row[0][0]:
            raise ArithmeticError("a Wronskian pivot does not lead at the sum "
                                  "of its members' offsets")
        da = [list(map(_mul_op, a, fac)) for a, fac in zip(row, facs)]
        del facs[0]
        prev, row = row[0], _row_step(da[1:], da[0], row[0], row[1:], prev,
                                      window)
    w, wd = (prev, row[0]) if k in ends else (row[0], None)
    denprod = prod(f.den for f in fs)
    prec = None if bound is None else base + bound
    out = []
    for e in ends:
        nums = w if e == 0 else wd if k % 2 == 0 else [-x for x in wd]
        # D^j carries L^j, so the minor carries L^(k(k-1)/2 + e)
        den = denprod * L ** (k * (k - 1) // 2 + e)
        out.append(QSeries(base, nums, Lv, den, prec))
    return out


# ---- normalization and the quotient form --------------------------------

def normalize(w):
    """Scale a series so its leading coefficient is one."""
    if w.is_zero():
        raise ValueError(
            "cannot normalize a series with no nonzero term to precision")
    return w / w.leading_coefficient()


def quotient_form(family):
    """Identify W'/W as a holomorphic form of weight 2k, k the family size.

    W is the Wronskian of the family and W' the Wronskian of its termwise
    derivatives, whose k columns each carry one more D, of weight 2.  If W'
    vanishes identically to the working precision the zero form is
    returned when W'/W is known through the identify window, and
    InsufficientPrecision is raised otherwise; a vanishing W raises
    instead, since the quotient is then undefined.
    """
    fs = _series_list(family)
    return identify_quotient(*wronskians(fs), 2 * len(fs))


def identify_quotient(w, wd, weight):
    """quotient_form for a W and W' already in hand, which do not carry k."""
    if w.is_zero():
        raise ValueError(
            "Wronskian vanishes to working precision; the quotient is undefined")
    return identify(wd / w, weight)


# ---- vanishing certificate -----------------------------------------------

class VanishingReport(NamedTuple):
    """Outcome of the leading-exponent test for W'/W = 0.

    forced_zero     -- True when the exponent pattern forces W'/W to vanish
                       and W has no zero on the upper half-plane
    r               -- largest integer order reached (exponents run 0..r)
    integer_indices -- positions, in echelon order, of the members whose
                       leading exponent is an integer
    relation        -- coefficients (lambda_0, ..., lambda_r), lambda_0 = 1,
                       making sum_j lambda_j f_{i_j} constant, or None
    constant        -- the nonzero constant value of that combination
    precision       -- smallest known precision among the members
    diagnostic      -- human-readable explanation of the outcome
    checked         -- coefficients of the combination compared with the
                       constant beyond q^0..q^r, which solve the relation:
                       0 when none was, None when the members are exact
    """

    forced_zero: bool
    r: object
    integer_indices: tuple
    relation: object
    constant: object
    precision: object
    diagnostic: str
    checked: object = 0


def vanishing_check(family):
    """Test whether leading exponents alone force W'/W to vanish.

    The family is echelonized; its k members are weight-0 functions whose
    span SL2(Z) maps to itself.  When W'/W is holomorphic and members with
    integer leading exponents 0, 1, ..., r all exist for some
    r >= floor(k/6), then W'/W = 0.  If furthermore those are the only
    members with integer leading exponent, some combination
    lambda_0 f_{i_0} + ... + lambda_r f_{i_r} with lambda_0 = 1 is a
    nonzero constant; it is solved from the coefficients of q^0..q^r and
    verified against every further coefficient known for the members.  The
    report counts those further coefficients and claims a verification
    only when there is at least one.  Forcing rests on the exponents alone,
    so it is reported even when the relation cannot be solved.

    Holomorphy is read off the exponents too, once they would force
    W'/W = 0.  W has weight k(k-1) and a character of order dividing 12,
    so by the valence formula for W^12 it has no zero on the upper
    half-plane exactly when its order at the cusp, the exponent sum, is
    k(k-1)/12.  The cusp needs no check: each D f_i leads no lower than
    f_i, so W' vanishes there at least to the order of W.
    """
    basis = echelonize(family)
    exps = tuple(f.valuation() for f in basis)
    k = len(exps)
    floor_k6 = k // 6
    integer_ix = tuple(i for i, h in enumerate(exps) if h.denominator == 1)
    prec = _min_prec(*(f.prec for f in basis))

    report = VanishingReport(False, None, integer_ix, None, None, prec,
                             "")._replace

    orders = {int(exps[i]) for i in integer_ix}
    if not orders:
        return report(diagnostic="no member has an integer leading exponent")
    if 0 not in orders:
        return report(diagnostic="integer leading exponents (%s) do not "
                                 "include 0"
                      % ", ".join(str(h) for h in sorted(orders)))
    r = 0
    while r + 1 in orders:
        r += 1
    if r < floor_k6:
        return report(diagnostic="integer orders reach only %d, below the "
                                 "required floor(k/6) = %d" % (r, floor_k6))
    val, need = sum(exps, Fraction(0)), Fraction(k * (k - 1), 12)
    if val != need:
        return report(diagnostic="leading exponents sum to %s, not k(k-1)/12 "
                                 "= %s, so W'/W need not be holomorphic"
                      % (val, need))
    forced = "integer orders 0..%d force W'/W = 0, but " % r
    extra = sorted(orders - set(range(r + 1)))
    if extra:
        return report(forced_zero=True, r=r,
                      diagnostic=forced + "further integer leading exponents "
                      "(%s) rule out the constant relation"
                      % ", ".join(str(h) for h in extra))
    members = [basis[exps.index(Fraction(j))] for j in range(r + 1)]
    derived = [f.derive() for f in members]
    lam = [Fraction(1)]
    try:
        for e in range(1, r + 1):
            lam.append(-sum(lam[j] * derived[j].coeff_at(e) for j in range(e))
                       / derived[e].coeff_at(e))
        combo = sum((lj * f for lj, f in zip(lam, members)), QSeries.zero())
        c0 = combo.coeff_at(0)
    except ValueError as exc:
        return report(forced_zero=True, r=r, diagnostic=forced + "there is "
                      "too little precision to solve the relation: %s" % exc)
    at = first_mismatch(combo, QSeries.constant(c0))
    if at is not None:
        return report(forced_zero=True, r=r, diagnostic=forced + "the "
                      "candidate relation fails first at exponent %s" % at)
    if c0 == 0:
        return report(forced_zero=True, r=r, diagnostic=forced + "the "
                      "combination has zero constant term")
    # the members lead at the integers 0..r, so the combination lives on
    # the lattice of their steps; its slots below its precision were compared
    checked = (None if combo.prec is None else
               _ceil(combo.prec * lcm(*(f.step_den for f in members))) - r - 1)
    if checked == 0:
        outcome = "relation solved from q^0..q^%d, and no further " \
                  "coefficient is known to verify it" % r
    else:
        outcome = "relation verified to precision %s on %s coefficients " \
                  "beyond q^%d" % (combo.prec, checked or "all", r)
    return report(forced_zero=True, r=r, relation=tuple(lam), constant=c0,
                  checked=checked,
                  diagnostic="integer orders 0..%d with r >= floor(k/6) = %d "
                             "force W'/W = 0; %s" % (r, floor_k6, outcome))
