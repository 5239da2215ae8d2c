"""Dense univariate polynomials over Q or over a prime field F_p.

One class serves both fields.  Coefficients are an ascending tuple with no
trailing zeros, so the zero polynomial has none.  p=None means Q, with
Fraction coefficients; otherwise the field is F_p and the coefficients are
ints in [0, p).  Only the normalization of a coefficient and the inverse
of the leading coefficient depend on the field; the ring operations,
division with remainder, gcd, derivative, evaluation and printing are
shared.  Products use the same convolution kernel as the q-series.
"""

from fractions import Fraction
from operator import mul

from .qseries import _conv_trunc, _fmt_sum, _power


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p):
    """Reject anything but a prime p >= 5, the characteristics in use."""
    if not isinstance(p, int) or p < 5 or not _is_prime(p):
        raise ValueError("p must be a prime >= 5, got %r" % (p,))


def _coeff(x, p, i=0):
    """x as a coefficient of Q (p None) or of F_p; i names its degree in
    the error for a denominator divisible by p."""
    if p is None:
        return Fraction(x)
    if isinstance(x, int):
        return x % p
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError("coefficient %s of x^%d has denominator divisible "
                         "by %d" % (x, i, p))
    return x.numerator * pow(x.denominator, -1, p) % p


class Poly:
    """Polynomial in x over Q (p=None) or F_p, coefficients ascending.

    Building an F_p polynomial from rational coefficients reduces them
    mod p.  Ints and Fractions act as constants in +, -, * and divmod.  A
    constant polynomial equals a scalar when its coefficient does, with no
    reduction mod p, so equal values hash alike.
    """

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs=(), p=None):
        if p is not None:
            check_prime(p)
        self._fill(coeffs, p)

    def _fill(self, coeffs, p):
        c = [_coeff(x, p, i) for i, x in enumerate(coeffs)]
        while c and not c[-1]:
            c.pop()
        self.coeffs = tuple(c)
        self.p = p

    def _new(self, coeffs):
        """A polynomial over this one's field, whose p is already checked."""
        out = object.__new__(Poly)
        out._fill(coeffs, self.p)
        return out

    def _inverse(self, c):
        return 1 / c if self.p is None else pow(c, -1, self.p)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d"
                                 % (self.p or 0, other.p or 0))
            return other
        if isinstance(other, (int, Fraction)):
            return self._new((other,))
        return None

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def monic(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial cannot be made monic")
        lead = self.coeffs[-1]
        return self if lead == 1 else self * self._inverse(lead)

    # -- ring operations -----------------------------------------------------

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
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-x for x in self.coeffs])

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
        # list slices in the kernel; tuple slices would pile up in the
        # interpreter's tuple free lists and raise the peak memory; a square
        # passes one list
        a = list(self.coeffs)
        return self._new(_conv_trunc(a, a if other is self else
                                     list(other.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, e, mod=None):
        """self^e by square and multiply; pow(f, e, m) reduces mod m."""
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if mod is None:
            return _power(self, e, mul) if e else self._new((1,))
        if not e:
            return self._new((1,)) % mod
        return _power(self % mod, e, lambda f, g: f * g % mod)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        dv = len(b) - 1
        inv = self._inverse(b[-1])
        r = list(self.coeffs)
        q = [0] * max(len(r) - dv, 0)
        for i in range(len(r) - 1 - dv, -1, -1):
            t = _coeff(r[i + dv] * inv, self.p)
            if t:
                q[i] = t
                for j, y in enumerate(b):
                    r[i + j] -= t * y
        return self._new(q), self._new(r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise ValueError("division is not exact: remainder %s" % (r,))
        return q

    def gcd(self, other):
        """Monic greatest common divisor; zero only when both are zero."""
        a, b = self, self._coerce(other)
        while b:
            a, b = b, a % b
        return a.monic() if a else a

    # -- calculus, evaluation and roots --------------------------------------

    def derivative(self):
        return self._new([i * c for i, c in enumerate(self.coeffs) if i])

    def __call__(self, a):
        """The value at a, by Horner's rule; over F_p, a is reduced first
        and each step is reduced inline."""
        p = self.p
        a, out = _coeff(a, p), 0
        if p is None:
            for c in reversed(self.coeffs):
                out = out * a + c
        else:
            for c in reversed(self.coeffs):
                out = (out * a + c) % p
        return out

    def roots(self):
        """All roots in F_p, by exhaustive evaluation."""
        if self.p is None:
            raise ValueError("roots are enumerated over F_p only")
        return {a for a in range(self.p) if self(a) == 0}

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return len(self.coeffs) < 2 and self.coeff(0) == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as its coefficient, as it compares equal to it
        if len(self.coeffs) < 2:
            return hash(self.coeff(0))
        return hash((self.p, self.coeffs))

    def __str__(self):
        return _fmt_sum((c, "" if i == 0 else "x" if i == 1 else "x^%d" % i)
                        for i, c in reversed(list(enumerate(self.coeffs)))
                        if c)

    def __repr__(self):
        field = "" if self.p is None else ", p=%d" % self.p
        return "Poly(%r%s)" % (self.coeffs, field)
