"""Symmetric powers of two-dimensional ODE solution spaces.

A pair (f, g) of weight-0 series solving theta^2 y + Q y = 0 spans a
two-dimensional space U; its m-th symmetric power is spanned by the
products f^i g^(m-i).  This module builds that basis, verifies the
factorization of its Wronskian through the pair Wronskian, produces the
order-(m+1) differential operator annihilating the symmetric power, runs
the constant-coefficient recursion R_1, ..., R_m, and evaluates the
hypergeometric-style coefficient extraction from (1 - 3 E4 x^4 + 2 E6
x^6)^alpha that gives the quotient W'/W of the symmetric-power basis in
closed form.

All operators are kept in theta-powers (theta^j means the weight ladder
theta_{2(j-1)} o ... o theta_0 on weight-0 input), which keeps every
coefficient homogeneous.
"""

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple

from .etaprod import ProductSpec, product_series
from .modpoly import (InsufficientPrecision, MFPoly, theta_derivation,
                      theta_h, to_qseries)
from .poly import Poly
from .qseries import DEFAULT_PREC, QSeries, _add_prec, first_mismatch
from .wronskian import normalize, wronskian


# ---- rational roots of a polynomial over Q ---------------------------------

def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def _rational_roots(p):
    """All rational roots of a nonzero Poly over Q, found exactly."""
    roots = set()
    c = list(p.coeffs)
    while c and not c[0]:
        c.pop(0)
        roots.add(Fraction(0))
    if len(c) <= 1:
        return roots
    den = 1
    for x in c:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in c]
    n = len(ints) - 1
    for nu in _divisors(abs(ints[0])):
        for de in _divisors(abs(ints[-1])):
            if gcd(nu, de) > 1:
                continue
            # de^n p(x/de) = sum_i ints[i] x^i de^(n-i), by homogeneous Horner
            for x in (nu, -nu):
                h, dp = ints[n], 1
                for ci in reversed(ints[:n]):
                    dp *= de
                    h = h * x + ci * dp
                if not h:
                    roots.add(Fraction(x, de))
    return roots


# ---- symmetric-power bases -------------------------------------------------

def _check_m(m):
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")


def sym_basis(f, g, m):
    """The m-th symmetric power basis [f^i g^(m-i) for i = 0..m]."""
    _check_m(m)
    fp = [QSeries.one()]
    gp = [QSeries.one()]
    for _ in range(m):
        fp.append(fp[-1] * f)
        gp.append(gp[-1] * g)
    return [fp[i] * gp[m - i] for i in range(m + 1)]


class SymWronskianReport(NamedTuple):
    """Verified factorization of a symmetric-power Wronskian.

    m         -- symmetric power taken
    constant  -- the factor prod_{k=1..m} k! relating the two Wronskians
    power     -- the exponent m(m+1)/2 on the pair Wronskian
    eta_power -- 2m(m+1) when the pair Wronskian is a multiple of eta^4 and
                 the normalized symmetric-power Wronskian was checked to be
                 that power of eta; None when the eta comparison was skipped
    precision -- absolute precision to which the factorization was checked
    """

    m: int
    constant: int
    power: int
    eta_power: object
    precision: object


class SymWronskianMismatch(ValueError):
    """A sym_wronskian_check identity failed.

    check    -- "factorization" or "eta power"
    exponent -- the exponent of the first mismatching coefficient
    """

    def __init__(self, check, exponent):
        super().__init__("%s identity fails first at exponent %s"
                         % (check, exponent))
        self.check = check
        self.exponent = exponent


def _normalized(w, name):
    """normalize(w), or InsufficientPrecision when w is zero to its prec."""
    if w.is_zero() and w.prec is not None:
        raise InsufficientPrecision("the %s Wronskian vanishes through q^(%s)"
                                    % (name, w.prec))
    return normalize(w)


def _eta_power(k, bound):
    """eta^k as one Euler product, to the precision eta(1, bound) ** k has:
    a k-th power of a series of valuation 1/24 known below bound is known
    below bound + (k - 1)/24."""
    return product_series(ProductSpec([(0, 1, k)], Fraction(k, 24)),
                          bound + Fraction(k - 1, 24))


def sym_wronskian_check(f, g, m, ws=None):
    """Verify W(f^i g^(m-i)) = (prod k!) * W(g, f)^(m(m+1)/2) exactly.

    When the normalized pair Wronskian is the 4th power of the eta unit,
    additionally verifies that the normalized symmetric-power Wronskian is
    eta^(2m(m+1)).  ws is W(sym_basis(f, g, m)) when the caller already
    has it.  Any coefficient mismatch raises a SymWronskianMismatch naming
    the failed identity and the exponent of the first discrepancy; a W
    that vanishes to its precision raises InsufficientPrecision.
    """
    if ws is None:
        ws = wronskian(sym_basis(f, g, m))
    wu = wronskian([g, f])
    constant = 1
    for k in range(2, m + 1):
        constant *= factorial(k)
    power = m * (m + 1) // 2
    at = first_mismatch(ws, constant * wu ** power)
    if at is not None:
        raise SymWronskianMismatch("factorization", at)
    eta_power = None
    bound = ws.prec if ws.prec is not None else Fraction(DEFAULT_PREC)
    if first_mismatch(_normalized(wu, "pair"), _eta_power(4, bound)) is None:
        eta_power = 4 * power
        at = first_mismatch(_normalized(ws, "Sym^%d" % m),
                            _eta_power(eta_power, bound))
        if at is not None:
            raise SymWronskianMismatch("eta power", at)
    return SymWronskianReport(m=m, constant=constant, power=power,
                              eta_power=eta_power, precision=ws.prec)


# ---- the constant-coefficient recursion ------------------------------------

def r_recursion(Q, m):
    """The sequence R_1, ..., R_m with R_1 = mQ, R_2 = m theta(Q) and
    R_{i+1} = theta(R_i) + (i+1)(m-i) Q R_{i-1}; R_i has weight 2i+2."""
    if Q.weight != 4:
        raise ValueError("Q must be homogeneous of weight 4")
    _check_m(m)
    rs = [m * Q]
    if m >= 2:
        rs.append(m * theta_derivation(Q))
    for i in range(2, m):
        rs.append(theta_derivation(rs[-1]) + (i + 1) * (m - i) * Q * rs[-2])
    return rs


def r12_vanishing_roots():
    """All rational lambda for which R_12 = 0 when Q = lambda * G4.

    R_12 is computed once with lambda a formal variable, so its
    coefficients are polynomials in lambda; the result is the exact set of
    common rational roots of those coefficient polynomials.
    """
    lam = Poly((0, 1))
    q = MFPoly.monomial(lam * Fraction(1, 720), 1, 0)   # lambda * G4
    r12 = r_recursion(q, 12)[-1]
    polys = list(r12.terms.values())
    g = polys[0]
    for p in polys[1:]:
        g = g.gcd(p)
    return _rational_roots(g)


# ---- the annihilating operator ---------------------------------------------

def d_operator(Q, m):
    """The monic order-(m+1) operator annihilating the m-th symmetric power
    of the solution space of theta^2 y + Q y = 0, as the tuple of its
    coefficients: entry j, of weight 2(m+1-j), multiplies theta^j, and the
    last is the constant 1.

    Built from D_0 = 1, D_1 = theta, D_{i+1} = theta D_i + i(m-i+1) Q
    D_{i-1}; the returned operator is D_{m+1} and its theta-free
    coefficient equals the last entry of r_recursion(Q, m).
    """
    if Q.weight != 4:
        raise ValueError("Q must be homogeneous of weight 4")
    _check_m(m)
    one = MFPoly.constant(Fraction(1))
    prev = [one]
    cur = [MFPoly.zero(2), one]
    for i in range(1, m + 1):
        nxt = []
        for j in range(i + 2):
            c = MFPoly.zero(2 * (i + 1 - j))
            if j <= i:
                c = c + theta_derivation(cur[j])
            if 1 <= j:
                c = c + cur[j - 1]
            if j <= i - 1:
                c = c + i * (m - i + 1) * Q * prev[j]
            nxt.append(c)
        prev, cur = cur, nxt
    return tuple(cur)


def apply(op, y):
    """Evaluate (sum_j R_j theta^j) y for a weight-0 series y, op the
    coefficient tuple (R_0, ..., R_order) of d_operator."""
    target = y.prec if y.prec is not None else Fraction(DEFAULT_PREC)
    ys = [y]
    for j in range(len(op) - 1):
        ys.append(theta_h(ys[-1], 2 * j, target))
    out = QSeries.zero(target)
    for c, yj in zip(op, ys):
        if c.is_zero():
            continue
        if c.weight:
            out = out + to_qseries(c, target) * yj
            continue
        # a constant scales yj, truncated where its product with the
        # one-slot to_qseries(c, target) would be known
        v = yj.offset if yj.nums else yj.prec
        out = out + (c.terms[(0, 0)] * yj).truncate(
            _add_prec(v, target))
    return out


# ---- coefficient extraction from (1 - 3 E4 x^4 + 2 E6 x^6)^alpha ------------

def kz_coeff(l, alpha):
    """Coefficient of x^(2l) in (1 - 3 E4 x^4 + 2 E6 x^6)^alpha, a form of
    weight 2l: the double sum over (r, s) with 2r + 3s = l of
    alpha (alpha - 1) ... (alpha - r - s + 1) (-3)^r 2^s E4^r E6^s / (r! s!).
    """
    if not isinstance(l, int) or l < 0:
        raise ValueError("l must be a nonnegative integer")
    alpha = Fraction(alpha)
    # falling[n] = alpha (alpha - 1) ... (alpha - n + 1), n <= l / 2
    falling = [Fraction(1)]
    for n in range(l // 2):
        falling.append(falling[-1] * (alpha - n))
    terms = {}
    for s in range(l // 3 + 1):
        rem = l - 3 * s
        if rem % 2:
            continue
        r = rem // 2
        c = (falling[r + s]
             / (factorial(r) * factorial(s)) * ((-3) ** r * 2 ** s))
        if c:
            terms[(r, s)] = c
    return MFPoly(2 * l, terms)


def sym_quotient_closed_form(m):
    """W'/W for the m-th symmetric power of the weight-0 pair solving
    theta^2 y - 40 G4 y = 0, in closed form.

    Equals (-1)^(m+1) (m+1)!/6^(m+1) times the coefficient of x^(2m+2) in
    (1 - 3 E4 x^4 + 2 E6 x^6)^(m/3); a form of weight 2m+2, and the zero
    form exactly when 3 divides m.
    """
    _check_m(m)
    g = kz_coeff(m + 1, Fraction(m, 3))
    form = Fraction(factorial(m + 1), 6 ** (m + 1)) * g
    return form if m % 2 else -form
