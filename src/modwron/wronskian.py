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

Every determinant comes from one fraction-free (Bareiss) elimination on
integer coefficient vectors.  Each column's leading exponent h_i and
denominator are pulled out first, so the vectors only need the lattice Lv =
lcm of the step denominators; the finer L that also clears the offset
denominators only scales the derivative factors L*h_i + n*L/Lv.  Every
division is an exact integer division because the intermediate entries are
again minors of the integer matrix, and pivots are chosen with minimal
q-valuation, so each division costs as little of the known coefficient
window as possible.

Column operations f_i -= c f_j (j != i, no member ever scaled) leave
every minor of the derivative stack, and so W and W', exactly as they
were.  coarsen uses them to move members onto single exponent classes
where it can: a member's term off its class offset + Z is cleared by a
member on one class that leads at that exponent.  That member leads above
the reduced one, so each reduced member keeps its offset and is known to at
least offset + bound.  The reduced family is returned only when Lv drops
and the window covers the same exponents, so a minor that vanishes on it
is reported to the same precision.  wronskian, wronskian_derived and
wronskians eliminate coarsen of their family; a family already on the
integer lattice passes through untouched.  By Weber's identity f^8 =
f_1^8 + f_2^8 the terms of weber8_1 off its class are 8 weber8_2, so
coarsen turns the Weber pair into (weber8_1 - 8 weber8_2, weber8_2), both
on the integer lattice, and every Sym^m member of the named pair lands
there too.  The CLI builds Sym^m from the reduced pair: (f - 8g)^i g^(m-i)
is a unit-triangular change of the Sym^m basis with the same minors, and
the window halves, so only two series are reduced, not m+1 members.

Each step works on whole rows (E. H. Bareiss, Math. Comp. 22, 1968, for
the elimination).  Slot s of a row's remaining entries packs into one
integer sum_c x_c 2^(w c) with balanced w-bit fields, so the numerator
a_c * piv - mrt * b_c costs two scalar-times-packed dot products per
(row, slot), not per entry, and the division by the previous pivot is one
run of the integer triangular solve (qseries._divexact) on the packed
numerators.  The packed arithmetic is exact, so a packed remainder means
an inexact field division, and the solve raises.  w comes from a bound on the
numerator fields, and a row is redone at twice the width whenever the
accumulator bound could reach 2^(w-1).  Below that bound a balanced
representation is unique: a packed accumulator that divides by the leading
slot, with lead times every quotient field below 2^(w-1) as well, divided
exactly field by field, and any other outcome raises.

W and W' share the derivative orders 1..k-1: the elimination runs on the
stack of orders 1..k-1, 0 and k with pivots from orders 1..k-1 only, and
after k-1 steps the two remaining entries are W and W' up to sign.  A
reported precision never exceeds the sum of the offsets plus the smallest
prec_i - h_i, which bounds the effect of any change of an input beyond its
precision.
"""

from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import mul as _mul_op
from typing import NamedTuple

from .modpoly import identify
from .qseries import (QSeries, _ceil, _check_cap, _divexact, _min_prec,
                      _upsample, first_mismatch)

_INEXACT = "inexact division in fraction-free elimination"


# ---- echelon bases -------------------------------------------------------

def echelonize(series):
    """Column-reduce a family until the leading exponents are all distinct.

    Returns the tuple of members sorted by leading exponent.  Whenever two
    members share a leading exponent, the one appearing later in the input
    absorbs a multiple of the earlier one; members are never rescaled, so a
    member that already leads at a fresh exponent comes back unchanged, and
    an echelon family comes back as itself in order.  The span is preserved
    throughout.  A member that reduces to zero -- to its known precision --
    raises a ValueError naming its position in the input.
    """
    work = [(f, idx) for idx, f in enumerate(_series_list(series))]
    out = []
    while work:
        for f, idx in work:
            if f.is_zero():
                raise ValueError(
                    "series at index %d is linearly dependent on the others "
                    "to working precision" % idx)
        at = min(range(len(work)), key=lambda i: work[i][0].valuation())
        piv, _ = work.pop(at)
        h = piv.valuation()
        lead = piv.leading_coefficient()
        work = [(f - (f.leading_coefficient() / lead) * piv, idx)
                if f.valuation() == h else (f, idx)
                for f, idx in work]
        out.append(piv)
    return tuple(out)


def _series_list(family):
    out = list(family)
    for f in out:
        if not isinstance(f, QSeries):
            raise TypeError("expected QSeries members, got %r" % (f,))
    return out


# ---- determinants --------------------------------------------------------

def wronskian(family):
    """det[D^j f_i] for j = 0..k-1, columns in the given order, D = q d/dq."""
    return _bareiss(coarsen(_series_list(family)), (0,))[0]


def wronskian_derived(family):
    """Wronskian of the termwise derivatives (D f_1, ..., D f_k), which is
    det[D^j f_i] for j = 1..k."""
    fs = _series_list(family)
    return _bareiss(coarsen(fs), (len(fs),))[0]


def wronskians(family):
    """(W, W') of a family, both from one elimination."""
    fs = _series_list(family)
    return tuple(_bareiss(coarsen(fs), (0, len(fs))))


def _vec_val(v, w):
    """Index of the first nonzero slot within the window, or None."""
    for i in range(min(len(v), w)):
        if v[i]:
            return i
    return None


def _pack_slots(cols, n, w):
    """Slots 0..n-1 of the int lists cols, each packed into one integer
    sum_c cols[c][s] * 2^(w c); an entry past the end of its list is 0."""
    out = [0] * n
    for col in reversed(cols):
        out = [(y << w) + x for y, x in zip(out, chain(col, repeat(0)))]
    return out


def _dots(x, ys, lo, hi):
    """Slots lo..hi-1 of the product of the int list x and the list ys,
    which holds at least hi slots."""
    x0 = _vec_val(x, hi)
    if x0 is None:
        return [0] * (hi - lo)
    x, yr = x[x0:hi], ys[hi - 1::-1]
    # slot e pairs x[x0 + j] with ys[e - x0 - j]
    return [sum(map(_mul_op, x, yr[hi - 1 - d:]))
            for d in range(lo - x0, hi - x0)]


def _height(cols):
    return max(max(map(abs, c), default=0) for c in cols)


def _row_step(a, mrt, piv, b, prev, wcur):
    """One Bareiss step on one row: the lists (a_c * piv - mrt * b_c) / prev
    over the columns c, known to wcur - val(prev) slots (to wcur slots, with
    no division, when prev is None).

    The row's slots pack into balanced w-bit fields, and _divexact divides
    the packed numerators by prev (module docstring).  The quotients unpack
    in order while their fields stay within lim, which keeps every
    accumulator field below 2^(w-1).  At the first slot past lim, w
    doubles and the row is redone, or, when lead times that field reaches
    2^(w-1), the division was inexact and ArithmeticError is raised.  w
    starts with room for x_0 = numerator / lead in every slot.
    """
    v0 = 0 if prev is None else _vec_val(prev, wcur)
    if wcur <= v0:
        return [[] for _ in a]
    lead = 1 if prev is None else prev[v0]
    alead = abs(lead)
    taps = 0 if prev is None else sum(map(abs, prev[v0 + 1:wcur]))
    # a numerator field is at most nb; an accumulator field is at most
    # nb + taps * max|x| over the quotient fields solved before it
    nb = (sum(map(abs, piv[:wcur])) * _height(a)
          + sum(map(abs, mrt[:wcur])) * _height(b))
    w = (nb + taps * (nb // alead)).bit_length() + 1
    while True:
        half, top = 1 << (w - 1), w * (len(a) - 1)
        mask, bias = (1 << w) - 1, sum(half << s for s in range(0, top + 1, w))
        low = range(0, top, w)
        num = [p - q for p, q in zip(
            _dots(piv, _pack_slots(a, wcur, w), v0, wcur),
            _dots(mrt, _pack_slots(b, wcur, w), v0, wcur))]
        # below xlim the accumulator bound stays below half; fields of
        # lead * x must stay below half too
        xlim = (half - 1 - nb) // taps if taps else half
        lim = min(xlim, (half - 1) // alead)
        # with no division every field is a numerator field, at most nb < half
        xs = num if prev is None else _divexact(num, prev[v0:wcur], wcur - v0)
        rows = []
        for x in xs:
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


def _off_class(f, above):
    """The lowest exponent above `above` of a term of f off its class
    f.offset + Z, or None."""
    s = f.step_den
    rel = (above - f.offset) * s
    for n in range(rel.numerator // rel.denominator + 1, len(f.nums)):
        if f.nums[n] and n % s:
            return f.offset + Fraction(n, s)
    return None


def coarsen(fs):
    """The family with members moved onto single exponent classes by
    column operations f_i -= c f_j, when that puts it on a coarser lattice
    and the elimination reports every minor of it exactly as of fs;
    otherwise fs itself.

    Walking up a member's terms off its class offset + Z, each is cleared
    by a member on one class (step_den 1) that leads at its exponent, until
    none does or the member lies on one class too.  The subtracted member
    leads above the reduced one, whose offset and lead stay as they were.
    A member that lands on one class may clear terms of the others, so the
    walk repeats until no member lands.

    The reduced family is returned only when it lowers the lattice lcm Lv
    of the steps and the elimination window covers the same exponents on
    both lattices.  The window holds the slots below bound = min(prec_i -
    offset_i) on Lv, the exponents below ceil(bound Lv)/Lv; on a coarser
    lattice that can reach further, and a minor that vanishes on the window
    is then known to vanish further.  An exact family takes its window from
    its members' lengths on their lattice, which the reduction changes, so
    it is returned as given, and so is a family on the integer lattice,
    whose Lv = 1 cannot drop.
    """
    if all(f.step_den == 1 for f in fs):
        return fs
    bound = _min_prec(*(None if f.prec is None else f.prec - f.offset
                        for f in fs))
    if bound is None:
        return fs
    out = list(fs)
    # a member with no known term leads nowhere
    lead = {g.offset: g for g in out if g.step_den == 1 and g.nums}
    landed = True
    while landed:
        landed = False
        for i, f in enumerate(out):
            e = f.offset
            while f.step_den > 1:
                e = _off_class(f, e)
                g = lead.get(e)
                if g is None:
                    break
                f -= f.coeff_at(e) / g.leading_coefficient() * g
                if f.step_den == 1 and f.nums:
                    lead.setdefault(f.offset, f)
                    landed = True
            out[i] = f
    lv, lv_out = (lcm(*(f.step_den for f in g)) for g in (fs, out))
    if lv_out < lv and (_ceil(bound * lv) * lv_out
                        == _ceil(bound * lv_out) * lv):
        return out
    return fs


def _bareiss(fs, ends):
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
            M[r][t + 1:] = _row_step(M[r][t + 1:], M[r][t], piv, M[t][t + 1:],
                                     prev, wcur)
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
