"""Supersingular polynomials in characteristic p by independent routes.

The supersingular locus S_p(x) is the monic polynomial over F_p whose
roots are the supersingular j-invariants.  This module computes it two
ways -- from the divisor polynomial of the Eisenstein series E_{p-1}, and
from the divisor polynomial of the normalized symmetric-power Wronskian
quotient of the Weber pair at m = (p-3)/2 -- and certifies both against a
brute-force Hasse-invariant oracle.  It also peels off the forced linear
factors at j = 0 and j = 1728 and splits the remainder into linear and
irreducible quadratic factors over F_p.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .modpoly import (dim_modular, divisor_polynomial, eisenstein, identify,
                      to_qseries)
from .symmpow import sym_quotient_closed_form


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_prime(p):
    if not isinstance(p, int) or p < 5 or not _is_prime(p):
        raise ValueError("p must be a prime >= 5, got %r" % (p,))


@dataclass(frozen=True)
class FpPoly:
    """Univariate polynomial over F_p, coefficients ascending in [0, p).

    Normal form strips trailing zeros, so the leading coefficient of a
    nonzero polynomial is nonzero; the zero polynomial has no coefficients.
    """

    p: int
    coeffs: tuple

    def __post_init__(self):
        _check_prime(self.p)
        c = [int(x) % self.p for x in self.coeffs]
        while c and not c[-1]:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def monic(self):
        if self.is_zero():
            raise ValueError("the zero polynomial cannot be made monic")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        inv = pow(lead, -1, self.p)
        return FpPoly(self.p, tuple(inv * x for x in self.coeffs))

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FpPoly):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d"
                                 % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpPoly(self.p, (other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return FpPoly(self.p, tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return FpPoly(self.p, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return FpPoly(self.p, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return FpPoly(self.p, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = FpPoly(self.p, (1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        dv = other.degree()
        inv = pow(other.coeffs[-1], -1, self.p)
        q = [0] * max(len(r) - dv, 0)
        for i in range(len(r) - 1 - dv, -1, -1):
            t = r[i + dv] * inv % self.p
            if t:
                q[i] = t
                for j, y in enumerate(other.coeffs):
                    r[i + j] -= t * y
        return FpPoly(self.p, tuple(q)), FpPoly(self.p, tuple(r))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact: remainder %s" % (r,))
        return q

    # -- evaluation and factor helpers ---------------------------------------

    def __call__(self, a):
        out = 0
        for c in reversed(self.coeffs):
            out = (out * a + c) % self.p
        return out

    def derivative(self):
        return FpPoly(self.p,
                      tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def roots(self):
        """All roots in F_p, by exhaustive evaluation."""
        return {a for a in range(self.p) if self(a) == 0}

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                x = "x" if i == 1 else "x^%d" % i
                parts.append(x if c == 1 else "%d*%s" % (c, x))
        return " + ".join(parts)


def fp_gcd(a, b):
    """Monic gcd of two F_p polynomials."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def reduce_mod_p(coeffs, p):
    """Coefficientwise reduction of a rational polynomial to an FpPoly.

    coeffs lists the coefficients ascending; a denominator divisible by p
    makes the reduction undefined and raises with the offending
    coefficient.
    """
    _check_prime(p)
    out = []
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ValueError(
                "coefficient %s of x^%d has denominator divisible by %d"
                % (c, i, p))
        out.append(c.numerator * pow(c.denominator, -1, p))
    return FpPoly(p, tuple(out))


# ---- the two constructions ---------------------------------------------------

def ss_poly_deligne(p):
    """S_p(x) from the divisor polynomial of E_{p-1} reduced mod p."""
    _check_prime(p)
    n = dim_modular(p - 1) + 16
    form = identify(eisenstein(p - 1, "E", n), p - 1)
    return reduce_mod_p(divisor_polynomial(form), p).monic()


def ss_poly_wronskian(p):
    """S_p(x) from the symmetric-power Wronskian quotient at m = (p-3)/2.

    The closed-form quotient W'/W of the m-th symmetric power of the Weber
    pair is rescaled so its q-expansion leads with coefficient 1, and the
    divisor polynomial of the rescaled form is reduced mod p.
    """
    _check_prime(p)
    m = (p - 3) // 2
    form = sym_quotient_closed_form(m)
    window = Fraction(dim_modular(form.weight) + 2)
    lead = to_qseries(form, window).leading_coefficient()
    form = (Fraction(1) / lead) * form
    return reduce_mod_p(divisor_polynomial(form), p).monic()


# ---- the brute-force oracle ---------------------------------------------------

def hasse_oracle(p):
    """Supersingular j-invariants in F_p by the Hasse-invariant test.

    j is supersingular exactly when the x^(p-1) coefficient of
    (x^3 + ax + b)^((p-1)/2) vanishes, for any curve y^2 = x^3 + ax + b
    over F_p with invariant j; the curve used is a = 3j(1728-j),
    b = 2j(1728-j)^2, with the degenerate invariants j = 0 and j = 1728
    handled by (0, 1) and (1, 0).
    """
    _check_prime(p)
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
        cubic = FpPoly(p, (b, a, 0, 1))
        if (cubic ** e).coeff(p - 1) == 0:
            out.add(j)
    return out


# ---- forced factors and the factor split --------------------------------------

def epsilon_factors(p):
    """(eps_omega, eps_i): multiplicities of the forced roots j = 0, 1728."""
    _check_prime(p)
    eps_omega = 0 if p % 3 == 1 else 1
    eps_i = 0 if p % 4 == 1 else 1
    return eps_omega, eps_i


def ss_tilde(p):
    """S_p with the forced factors x^eps_omega (x-1728)^eps_i divided out."""
    return _strip_forced(ss_poly_deligne(p))


def _strip_forced(s):
    eps_omega, eps_i = epsilon_factors(s.p)
    forced = (FpPoly(s.p, (0, 1)) ** eps_omega
              * FpPoly(s.p, (-1728, 1)) ** eps_i)
    return s.exact_div(forced)


def linear_quadratic_split(f):
    """Split a squarefree monic FpPoly into linear and irreducible
    quadratic factors; raises if any other factor type remains.

    Returns (sorted list of roots, list of monic irreducible quadratics).
    """
    p = f.p
    rem = f.monic()
    roots = sorted(rem.roots())
    for a in roots:
        rem = rem.exact_div(FpPoly(p, (-a, 1)))
    quads = []
    for b in range(p):
        for c in range(p):
            if rem.degree() < 2:
                break
            cand = FpPoly(p, (c, b, 1))
            q, r = divmod(rem, cand)
            if r.is_zero() and not cand.roots():
                quads.append(cand)
                rem = q
    if rem != FpPoly(p, (1,)):
        raise ValueError(
            "leftover factor %s is neither linear nor an irreducible "
            "quadratic" % (rem,))
    return roots, quads


# ---- the constant congruence ---------------------------------------------------

def legendre_symbol(a, p):
    """(a/p) in {-1, 0, 1} by Euler's criterion."""
    _check_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@dataclass(frozen=True)
class CongruenceReport:
    """Mod-p collapse of the symmetric-power quotient at m = (p-3)/2.

    constant  -- residue of the constant q-coefficient
    expected  -- (-1)^((p-1)/2) (2/p) ((p-1)/2)! mod p
    nonconstant_vanish -- True when every q-coefficient above the constant
                          reduces to 0 through the checked window
    checked_through    -- the exponent bound used
    ok        -- both conditions hold
    """

    p: int
    constant: int
    expected: int
    nonconstant_vanish: bool
    checked_through: int
    ok: bool


def congruence_constant_check(p, upto=50):
    """Check that the m = (p-3)/2 quotient reduces mod p to the constant
    (-1)^((p-1)/2) (2/p) ((p-1)/2)! with all other coefficients 0."""
    _check_prime(p)
    m = (p - 3) // 2
    series = to_qseries(sym_quotient_closed_form(m), Fraction(upto + 1))
    constant = None
    vanish = True
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
    constant = 0 if constant is None else constant
    half = (p - 1) // 2
    expected = ((-1) ** half * legendre_symbol(2, p) * factorial(half)) % p
    return CongruenceReport(p=p, constant=constant, expected=expected,
                            nonconstant_vanish=vanish,
                            checked_through=upto,
                            ok=vanish and constant == expected)


# ---- aggregate report ------------------------------------------------------------

@dataclass(frozen=True)
class SupersingularReport:
    """Everything the pipeline knows about one prime."""

    p: int
    polynomial: FpPoly
    fp_roots: tuple
    quadratic_factors: tuple
    routes_agree: bool
    oracle_match: bool
    epsilon: tuple


def supersingular_report(p):
    """Run both constructions, the oracle, and the factor split for p."""
    sd = ss_poly_deligne(p)
    sw = ss_poly_wronskian(p)
    roots = sorted(sd.roots())
    oracle = sorted(hasse_oracle(p))
    _, quads = linear_quadratic_split(_strip_forced(sd))
    return SupersingularReport(
        p=p, polynomial=sd, fp_roots=tuple(roots),
        quadratic_factors=tuple(quads), routes_agree=sd == sw,
        oracle_match=roots == oracle, epsilon=epsilon_factors(p))
