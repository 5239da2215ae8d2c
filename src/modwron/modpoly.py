"""The graded ring of level-one modular forms as polynomials in E4 and E6.

Provides Eisenstein q-expansions, the weight-raising theta derivation (both
on the polynomial ring and on q-series), identification of q-series as
modular forms, and divisor polynomials on the j-line.  Forms meet q-series
at one place, the Delta-ladder basis Delta^i E4^(delta+3(t-i)) E6^epsilon
of M_w in integer slots: q-expansion sums a form's `decompose` coordinates
against it over one denominator, and identify back-substitutes in integers
against it and composes the MFPoly from the coordinates.  The same ladder,
built in F_p, and the same back-substitution serve the supersingular
routes (ssing).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import add, mul, sub
from typing import NamedTuple

from .poly import Poly
from .qseries import (DEFAULT_PREC, QSeries, _ceil, _conv_trunc, _divexact,
                      _euler_product, _fmt_sum, _power)


@lru_cache(maxsize=None)
def bernoulli(n):
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), with the tangent numbers
    T_1..T_k from Brent and Harvey's integer recurrence (2011).
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    k = n // 2
    t = [0, 1]
    for i in range(2, k + 1):
        t.append((i - 1) * t[-1])
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    b = Fraction(n * t[k], 4 ** k * (4 ** k - 1))
    return b if k % 2 else -b


# k -> E_k at the most slots built so far
_EIS = {}


def _eis(k, slots):
    """E_k to `slots` coefficients, E-normalized (constant term 1):
    1 - (2k / B_k) sum sigma_(k-1)(n) q^n.  A shorter one is the truncation
    of the longest kept, which equals a fresh build."""
    built = _EIS.get(k)
    if built is None or built.prec < slots:
        sig = [0] * slots
        for d in range(1, slots):
            dk = d ** (k - 1)
            for n in range(d, slots, d):
                sig[n] += dk
        f = Fraction(2 * k) / bernoulli(k)
        nums = [-f.numerator * x for x in sig]
        nums[0] = f.denominator
        built = _EIS[k] = QSeries(0, nums, 1, f.denominator, slots)
    return built if built.prec == slots else built.truncate(slots)


def eisenstein(k, normalization="E", N=DEFAULT_PREC):
    """q-expansion of the weight-k Eisenstein series.

    E-normalization has constant term 1; G-normalization is scaled by
    -B_k/k! (so G2 = -E2/12, G4 = E4/720, G6 = -E6/30240).
    """
    if k < 2 or k % 2:
        raise ValueError("Eisenstein weight must be even and at least 2")
    norm = normalization.upper()
    if norm not in ("E", "G"):
        raise ValueError("normalization must be 'E' or 'G'")
    N = Fraction(N)
    series = _eis(k, max(_ceil(N), 1)).truncate(N)
    if norm == "G":
        series = series * (-bernoulli(k) / factorial(k))
    return series


class MFPoly:
    """Isobaric polynomial in E4 and E6: a dict (a, b) -> coefficient.

    Coefficients are normally Fractions but any commutative ring element
    supporting +, *, unary -, == and truthiness works (used for polynomial
    coefficients in a formal parameter).
    """

    __slots__ = ("weight", "terms")

    def __init__(self, weight, terms=None):
        self.weight = weight
        clean = {}
        for (a, b), c in (terms or {}).items():
            if a < 0 or b < 0:
                raise ValueError("negative generator exponent (%r, %r)" % (a, b))
            if 4 * a + 6 * b != weight:
                raise ValueError(
                    "monomial E4^%d E6^%d has weight %d, not %d"
                    % (a, b, 4 * a + 6 * b, weight))
            if c:
                clean[(a, b)] = c
        self.terms = clean

    @classmethod
    def zero(cls, weight=0):
        return cls(weight, {})

    @classmethod
    def monomial(cls, coeff, a, b):
        return cls(4 * a + 6 * b, {(a, b): coeff})

    @classmethod
    def constant(cls, c):
        return cls(0, {(0, 0): c})

    def is_zero(self):
        return not self.terms

    def __neg__(self):
        return MFPoly(self.weight, {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, MFPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.weight != other.weight:
            raise ValueError(
                "cannot add forms of weights %d and %d" % (self.weight, other.weight))
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return MFPoly(self.weight, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MFPoly):
            out = {}
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in other.terms.items():
                    k = (a1 + a2, b1 + b2)
                    p = c1 * c2
                    out[k] = out[k] + p if k in out else p
            return MFPoly(self.weight + other.weight, out)
        return MFPoly(self.weight, {k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a ring element")
        return _power(self, e, mul) if e else MFPoly.constant(Fraction(1))

    def __eq__(self, other):
        if not isinstance(other, MFPoly):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.weight == other.weight and self.terms == other.terms

    def __hash__(self):
        # the zero form has no weight: every zero compares equal
        if self.is_zero():
            return hash(0)
        return hash((self.weight, tuple(sorted(self.terms.items()))))

    def __str__(self):
        def monomial(a, b):
            return "*".join(g if e == 1 else "%s^%d" % (g, e)
                            for g, e in (("E4", a), ("E6", b)) if e)
        return _fmt_sum((self.terms[ab], monomial(*ab))
                        for ab in sorted(self.terms, reverse=True))

    def __repr__(self):
        return "MFPoly(weight=%d: %s)" % (self.weight, self)


E4 = MFPoly.monomial(Fraction(1), 1, 0)
E6 = MFPoly.monomial(Fraction(1), 0, 1)
DELTA = MFPoly(12, {(3, 0): Fraction(1, 1728), (0, 2): Fraction(-1, 1728)})
G4 = MFPoly.monomial(Fraction(1, 720), 1, 0)
G6 = MFPoly.monomial(Fraction(-1, 30240), 0, 1)


def theta_derivation(p):
    """The derivation -(E6/3)d/dE4 - (E4^2/2)d/dE6, weight w -> w+2."""
    out = {}
    for (a, b), c in p.terms.items():
        if a:
            k = (a - 1, b + 1)
            v = c * Fraction(-a, 3)
            out[k] = out[k] + v if k in out else v
        if b:
            k = (a + 2, b - 1)
            v = c * Fraction(-b, 2)
            out[k] = out[k] + v if k in out else v
    return MFPoly(p.weight + 2, out)


def to_qseries(p, N=DEFAULT_PREC):
    """q-expansion of an MFPoly with rational coefficients, precision N: its
    `decompose` coordinates c_i = f~_(t-i) summed against the Delta-ladder in
    integer slots over their common denominator."""
    N = Fraction(N)
    if p.is_zero():
        return QSeries.zero(N)
    slots = max(_ceil(N), 1)
    d = decompose(p)
    coords = [d.f_tilde.coeff(d.t - i) for i in range(min(d.t + 1, slots))]
    den = lcm(*[c.denominator for c in coords])
    acc = [0] * slots
    _ladder_sum(acc, [c.numerator * (den // c.denominator) for c in coords],
                _ladder(p.weight, slots))
    return QSeries(0, acc, 1, den, N)


def theta_h(y, h, N=None):
    """Weight-h Serre-type derivative q d/dq + h*G2, acting on a q-series."""
    if y.is_zero():
        return y if N is None else y.truncate(N)
    h = Fraction(h)
    val = y.valuation()
    target = Fraction(N) if N is not None else y.prec
    if target is None:
        target = val + DEFAULT_PREC
    out = y.derive()
    if h:
        g2 = eisenstein(2, "G", target - val + 1)
        out = out + h * (g2 * y)
    return out.truncate(target)


# w mod 12 -> (delta, epsilon): every form of even weight w is
# E4^delta E6^epsilon Delta^t f~(j) with 4 delta + 6 epsilon + 12 t = w, and
# delta, epsilon are the orders of its forced zeros at j = 0 and j = 1728.
_DELTA_EPS = {0: (0, 0), 2: (2, 1), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1)}


def _weight_shape(w):
    """(delta, epsilon, t) of an even weight w; t = -1 when M_w = 0."""
    delta, eps = _DELTA_EPS[w % 12]
    return delta, eps, (w - 4 * delta - 6 * eps) // 12


def dim_modular(w):
    """Dimension of the space of holomorphic level-one forms of weight w."""
    if w < 0 or w % 2:
        return 0
    return _weight_shape(w)[2] + 1


# Delta / (q E4^3) = 1 / (q j) at the most slots built so far
_STEP = []


def _ladder_step(n):
    """The first n integer slots of Delta / (q E4^3), the factor from one
    member of the Delta-ladder to the next: Delta / q from the checked Euler
    product, divided exactly by E4^3, which leads with 1.  A shorter one is
    a prefix of the longest kept."""
    if len(_STEP) < n:
        e4 = _eis(4, n).nums
        _STEP[:] = _divexact(_euler_product([0] + [24] * (n - 1), n),
                             _conv_trunc(_conv_trunc(e4, e4, n), e4, n), n)
    return _STEP[:n]


def _ladder(weight, n, p=None):
    """The Delta-ladder basis of M_weight in integer slots: member i = 0..t,
    Delta^i E4^(delta+3(t-i)) E6^epsilon, as a fresh list of its slots from
    exponent i, where it starts with 1, through exponent n - 1.  Member 0
    is a square-and-multiply power of E4 (times E6), and member i + 1 is
    member i times Delta / (q E4^3), formed to the slots it reads.  Given p,
    every factor and product is reduced mod p: the ladder over F_p, and no
    exact power of E4 is formed."""
    def red(xs):
        return xs if p is None else [x % p for x in xs]

    def times(a, b, m=n):
        return red(_conv_trunc(a, b, m))

    delta, eps, t = _weight_shape(weight)
    if t < 0:
        return
    e = delta + 3 * t
    member = _power(red(_eis(4, n).nums), e, times) if e else [1]
    if eps:
        member = times(member, red(_eis(6, n).nums))
    step = red(_ladder_step(n - 1)) if t else []
    for i in range(t + 1):
        if i:
            member = times(member, step, n - i)
        yield member[:]


def _ladder_sum(acc, coords, ladder):
    """Add sum_i coords[i] * (member i of `ladder`, from exponent i) into the
    slot list acc, in place, through its last slot."""
    for i, (k, col) in enumerate(zip(coords, ladder)):
        if k:
            acc[i:i + len(col)] = map(add, acc[i:], map(k.__mul__, col))


class InsufficientPrecision(ValueError):
    """A series is known through too few coefficients to certify a form."""


class NotIdentifiable(ValueError):
    """A series known well enough to decide is no form of the weight asked."""


def _back_substitute(residual, ladder, p=None):
    """The coordinates of the integer slots `residual` on `ladder`, whose
    member i is slots from exponent i led by 1 (read only below
    len(residual)), over Z, or over F_p when p is given (residual and
    members then hold residues).  `residual` is reduced in place, and a
    slot left nonzero raises NotIdentifiable."""
    coords = []
    for i, col in enumerate(ladder):
        k = residual[i] if p is None else residual[i] % p
        if k:
            residual[i:i + len(col)] = map(sub, residual[i:], map(k.__mul__, col))
        coords.append(k)
    for e, k in enumerate(residual):
        if k if p is None else k % p:
            raise NotIdentifiable(
                "not identifiable: residual is nonzero at exponent %d" % e)
    return coords


IDENTIFY_MARGIN = 10     # coefficients identify demands beyond dim M_weight


def identify(y, weight):
    """Express a q-series as an MFPoly of the given weight, or fail loudly.

    Solves against the Delta-ladder basis of M_weight and then demands that
    every known coefficient of y matches — a full-residual check, not just
    enough coefficients to pin the solution down.  y must be known through
    dim + IDENTIFY_MARGIN coefficients, the zero series too, or
    InsufficientPrecision is raised; no caller can lower this gate.  Any
    other failure raises NotIdentifiable.  An exact y (prec=None) is checked
    through its last term, and a nonzero one is no form of positive weight:
    y^(k/2)|f| is invariant under SL2(Z), yet a q-polynomial's tends to 0
    as Im tau -> 0.

    Basis element i, Delta^i E4^(delta+3(t-i)) E6^epsilon, is integer slots
    with slot 1 at exponent i, so c_i is the residual's slot i over y.den.
    """
    d = dim_modular(weight)
    need = d + IDENTIFY_MARGIN
    if y.prec is not None and y.prec < need:
        raise InsufficientPrecision(
            "insufficient precision: need %d coefficients of a weight-%d "
            "candidate, have precision %s" % (need, weight, y.prec))
    if y.is_zero():
        return MFPoly.zero(weight)
    if y.offset < 0 or y.offset.denominator != 1 or y.step_den != 1:
        raise NotIdentifiable(
            "not identifiable: series has negative or non-integral exponents")
    if d == 0:
        raise NotIdentifiable("not identifiable: no nonzero forms of weight %d" % weight)
    off = int(y.offset)
    if y.prec is None:
        if weight:
            raise NotIdentifiable(
                "not identifiable: a nonzero exact q-series is no form of "
                "weight %d" % weight)
        n = max(need, off + len(y.nums))
    else:
        n = _ceil(y.prec)
    residual = [0] * off + y.nums
    residual += [0] * (n - len(residual))
    coords = _back_substitute(residual, _ladder(weight, n))
    return _compose(weight, coords, y.den)


def _compose(weight, coords, den):
    """The MFPoly sum_i (coords[i] / den) Delta^i E4^(delta+3(t-i)) E6^epsilon
    of the weight, the inverse of `decompose`: with 1728 Delta = E4^3 - E6^2,
    the coefficient of E4^(delta+3(t-s)) E6^(epsilon+2s) is summed in
    integers over den * 1728^t."""
    delta, eps, t = _weight_shape(weight)
    acc = [0] * (t + 1)
    for i, k in enumerate(coords):
        if k:
            k *= 1728 ** (t - i)
            for s in range(i + 1):
                acc[s] += (-1) ** s * comb(i, s) * k
    scale = den * 1728 ** t
    return MFPoly(weight, {(delta + 3 * (t - s), eps + 2 * s): Fraction(x, scale)
                           for s, x in enumerate(acc)})


def h_poly(k):
    """x^delta (x - 1728)^epsilon, the forced zeros at j = 0, 1728 in weight k."""
    if k % 2:
        raise ValueError("h_k is defined for even weights only")
    delta, eps, _ = _weight_shape(k)
    h = Poly([0] * delta + [1])
    return h * Poly((-1728, 1)) if eps else h


class DivisorData(NamedTuple):
    """f = Delta^t E4^delta E6^epsilon f_tilde(j), and F = h_k * f_tilde."""

    weight: int
    t: int
    delta: int
    epsilon: int
    f_tilde: Poly
    F: Poly


def decompose(p):
    """Peel Delta^t E4^delta E6^epsilon off a form and return the j-polynomial."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero form")
    w = p.weight
    delta, eps, t = _weight_shape(w)
    # summed in integers over the coefficients' common denominator
    terms = [(ab, Fraction(c)) for ab, c in p.terms.items()]
    den = lcm(*[c.denominator for _, c in terms])
    acc = [0] * (t + 1)
    for (a, b), c in terms:
        i = (a - delta) // 3
        s = (b - eps) // 2
        assert a - delta == 3 * i and b - eps == 2 * s and i + s == t
        # E4^a E6^b = E4^delta E6^eps (E4^3)^i (E4^3 - 1728*Delta)^s
        k = c.numerator * (den // c.denominator)
        for r in range(s + 1):
            acc[i + r] += k * comb(s, r) * (-1728) ** (s - r)
    ftilde = Poly([Fraction(x, den) for x in acc])
    return DivisorData(w, t, delta, eps, ftilde, h_poly(w) * ftilde)


def divisor_polynomial(p):
    """F(p, x) = h_{weight mod 12}(x) * f_tilde(p, x), a Poly over Q."""
    return decompose(p).F
