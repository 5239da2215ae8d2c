"""Exact truncated q-series with rational exponent offsets.

A series is q^offset * sum_n (nums[n]/den) * q^(n/step_den), with coefficients
known exactly for every exponent < prec.  prec is a rational bound (prec=None
means the series is exact at all orders, e.g. an integer polynomial in q).
All arithmetic is exact rational; nothing here ever touches floating point.

Two integer kernels carry every product and quotient.  _conv_trunc is the
truncated product of coefficient lists; lists of at least PACK_MIN Python
ints go to _kron, which packs each into one integer, a fixed number of
bytes per slot, and multiplies once (Kronecker substitution).  _solve is
the exact triangular solve behind _divexact and _euler_product, scheduled
by its taps.  Sparse taps (eta, theta sums, upsampled divisors) run the
recurrence over the nonzero taps only, in O(n * nnz).  Dense int taps split
long runs in half, and the left half reaches the right through one middle
product by _kron, which unpacks only the slots the right half needs: taps
of at most SMALL_TAP_BITS bits split down to SMALL_LEAF slots, wider ones
down to PACK_MIN slots.  Non-int taps run the row-by-row loop.  Every step
divides the same integer as that loop, so an inexact step still raises.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul as _mul_op

LATTICE_CAP = 120     # largest allowed exponent-lattice denominator
DEFAULT_PREC = 100    # truncation order used when fully exact inputs need one
# shortest int operands that _conv_trunc packs into one integer product:
# below 200 slots, 200-3000-bit determinant entries multiply faster by the loop
PACK_MIN = 200
# _solve: taps with fewer than 1/SPARSE_DENSITY nonzero entries run tap by
# tap; int taps of at most SMALL_TAP_BITS bits split down to SMALL_LEAF slots
SPARSE_DENSITY = 4
SMALL_TAP_BITS = 32
SMALL_LEAF = 32


def _as_frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def _check_cap(d):
    if d > LATTICE_CAP:
        raise ValueError(
            "exponent lattice denominator %d exceeds cap %d" % (d, LATTICE_CAP))
    return d


def _ceil(x):
    """Ceiling of a Fraction as an int."""
    return -((-x.numerator) // x.denominator)


def _min_prec(*ps):
    m = None
    for p in ps:
        if p is not None:
            m = p if m is None else min(m, p)
    return m


def _add_prec(p, v):
    return None if p is None else p + v


def _all_ints(xs):
    """True when every entry of xs is a Python int."""
    return set(map(type, xs)) <= {int}


def _pack(xs, nbytes):
    """xs as one integer, nbytes little-endian bytes per slot; the positive
    and the negative parts are packed apart and subtracted."""
    z = bytes(nbytes)
    pos = b"".join([x.to_bytes(nbytes, "little") if x > 0 else z for x in xs])
    neg = b"".join([(-x).to_bytes(nbytes, "little") if x < 0 else z for x in xs])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kron(a, b, n, start=0):
    """Coefficients start..n-1 of the product of the nonempty int lists a
    and b, as one product of two packed integers (Kronecker substitution)."""
    n = min(n, len(a) + len(b) - 1)
    a, b = a[:n], b[:n]
    # |slot| < min(len) * 2^(bits(a) + bits(b)), plus one bit for the sign
    nbytes = (max(map(int.bit_length, a)) + max(map(int.bit_length, b))
              + min(len(a), len(b)).bit_length() + 8) // 8
    size = nbytes * max(n - start, 0)
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * n, "little")
    # each biased slot lies in [0, 2^(8 nbytes)), so none borrows from the
    # next; the shift drops the first start slots and the mask keeps the
    # slots up to n
    packed = (((_pack(a, nbytes) * _pack(b, nbytes) + bias)
               >> (8 * nbytes * start)) & ((1 << (8 * size)) - 1))
    buf = packed.to_bytes(size, "little")
    return [int.from_bytes(buf[i:i + nbytes], "little") - half
            for i in range(0, size, nbytes)]


def _conv_trunc(a, b, n=None):
    """The first n coefficients (all when n is None) of the product of the
    coefficient lists a and b.

    Lists of at least PACK_MIN Python ints are multiplied by _kron; every
    other call, Fraction entries included, runs the schoolbook loop.
    """
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    if n is None or n > la + lb - 1:
        n = la + lb - 1
    if (min(la, lb, n) >= PACK_MIN and _all_ints(a[:n])
            and _all_ints(b[:n])):
        return _kron(a, b, n)
    rb = b[::-1]
    out = []
    for t in range(n):
        lo = t - lb + 1
        if lo < 0:
            lo = 0
        hi = t if t < la else la - 1
        if hi < lo:
            out.append(0)
        else:
            out.append(sum(map(_mul_op, a[lo:hi + 1], rb[lb - 1 - t + lo:lb - t + hi])))
    return out


def _solve(acc, t, div, out, lo, hi, what):
    """Fill out[lo:hi] with x_i = (acc_i + sum_{j>=1} t[j-1] x_{i-j}) / div[i].

    acc[lo:hi] must already hold the terms from out[:lo].  Every step must
    divide exactly, and an inexact step raises ArithmeticError(what).  The
    taps choose the schedule (see the module docstring), and each acc_i is
    the same integer as in the row-by-row loop.
    """
    lt = len(t)
    if SPARSE_DENSITY * (lt - t.count(0)) < lt:
        taps = [(j, c) for j, c in enumerate(t, 1) if c]
        k, live = 0, []
        for i in range(lo, hi):
            # live holds the taps j <= i - lo, which reach back into
            # out[lo:i]; each step adds at most one
            if k < len(taps) and taps[k][0] <= i - lo:
                k += 1
                live = taps[:k]
            x = acc[i]
            if live:
                x += sum([c * out[i - j] for j, c in live])
            if x:
                q, r = divmod(x, div[i])
                if r:
                    raise ArithmeticError(what)
                out[i] = q
        return
    # the solved slots are ints (quotients of divmod by the int divisors),
    # so int taps make a cross product that _kron can pack
    if not lt or not _all_ints(t):
        leaf = 0
    elif max(map(int.bit_length, t)) <= SMALL_TAP_BITS:
        leaf = SMALL_LEAF
    else:
        leaf = PACK_MIN
    _relaxed(acc, t, t[::-1], div, out, lo, hi, what, leaf)


def _relaxed(acc, t, rt, div, out, lo, hi, what, leaf):
    """_solve on dense taps t (rt is t reversed).  A run of 2 * leaf > 0
    slots or more splits in half, and the solved left half reaches
    acc[mid:hi] through one middle product by _kron (the slots mid - lo - 1
    .. hi - lo - 2 of the cross product); other runs loop."""
    lt = len(t)
    if leaf and hi - lo >= 2 * leaf and lt >= leaf:
        mid = (lo + hi) // 2
        _relaxed(acc, t, rt, div, out, lo, mid, what, leaf)
        c = _kron(out[lo:mid], t[:hi - lo - 1], hi - lo - 1, mid - lo - 1)
        for i, x in enumerate(c, mid):
            acc[i] += x
        _relaxed(acc, t, rt, div, out, mid, hi, what, leaf)
        return
    for i in range(lo, hi):
        x = acc[i]
        jm = min(lt, i - lo)
        if jm:
            x += sum(map(_mul_op, rt[lt - jm:], out[i - jm:i]))
        if x:
            q, r = divmod(x, div[i])
            if r:
                raise ArithmeticError(what)
            out[i] = q


def _divexact(u, v, w):
    """Exact quotient u/v of integer slot vectors, known to w - val(v) slots.

    The one integer triangular solve: every step must divide exactly by
    the leading slot of v, and an inexact step raises.
    """
    v0 = 0
    while not v[v0]:
        v0 += 1
    n = w - v0
    if n <= 0:
        return []
    acc = u[v0:v0 + n]
    acc += [0] * (n - len(acc))
    out = [0] * n
    _solve(acc, [-c for c in v[v0 + 1:]], [v[v0]] * n, out, 0, n,
           "inexact division in fraction-free elimination")
    return out


def _euler_product(w, n):
    """First n coefficients of prod_{d>=1} (1 - q^d)^w[d] (w[0] unused).

    The one product kernel: the log-derivative recurrence
    k c_k = sum_{j<=k} s_j c_{k-j}, with s_j = -sum_{d|j} d w[d], solved by
    the triangular solve whatever the exponents are.  Every step must
    divide exactly by k, and an inexact step raises.
    """
    if n <= 0:
        return []
    s = [0] * n
    for d in range(1, min(len(w), n)):
        if w[d]:
            dw = d * w[d]
            for j in range(d, n, d):
                s[j] -= dw
    # c_0 = 1 puts s_k into slot k before the solve
    c = [0] * n
    c[0] = 1
    _solve(s, s[1:], range(n), c, 1, n,
           "inexact step in the Euler-product recurrence")
    return c


class QSeries:
    """Truncated q-series with exact rational coefficients and offset."""

    __slots__ = ("offset", "step_den", "nums", "den", "prec")

    def __init__(self, offset, nums, step_den=1, den=1, prec=None):
        offset = _as_frac(offset)
        if prec is not None:
            prec = _as_frac(prec)
        if not isinstance(step_den, int) or step_den < 1:
            raise ValueError("step_den must be a positive integer")
        _check_cap(step_den)
        if not isinstance(den, int) or den == 0:
            raise ValueError("den must be a nonzero integer")
        nums = list(nums)
        if den < 0:
            den = -den
            nums = [-c for c in nums]
        # drop stored exponents >= prec
        if prec is not None:
            limit = (prec - offset) * step_den
            keep = max(_ceil(limit), 0)
            if keep < len(nums):
                del nums[keep:]
        # strip leading zeros, advancing the offset
        k = 0
        while k < len(nums) and not nums[k]:
            k += 1
        if k:
            offset += Fraction(k, step_den)
            del nums[:k]
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            self.offset = Fraction(0)
            self.step_den = 1
            self.nums = []
            self.den = 1
            self.prec = prec
            return
        g = den
        for c in nums:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            nums = [c // g for c in nums]
        # compress the stride when every populated slot lies on a coarser lattice
        if step_den > 1:
            s = 0
            for i in range(len(nums) - 1, 0, -1):
                if nums[i]:
                    s = gcd(s, i)
                    if s == 1:
                        break
            s = gcd(s, step_den)
            if s > 1:
                nums = nums[::s]
                step_den //= s
        self.offset = offset
        self.step_den = step_den
        self.nums = nums
        self.den = den
        self.prec = prec

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, prec=None):
        return cls(0, [], 1, 1, prec)

    @classmethod
    def constant(cls, c, prec=None):
        c = _as_frac(c)
        return cls(0, [c.numerator], 1, c.denominator, prec)

    @classmethod
    def one(cls, prec=None):
        return cls(0, [1], 1, 1, prec)

    @classmethod
    def monomial(cls, c, e, prec=None):
        c = _as_frac(c)
        return cls(_as_frac(e), [c.numerator], 1, c.denominator, prec)

    @classmethod
    def from_fractions(cls, offset, coeffs, step_den=1, prec=None):
        coeffs = [_as_frac(c) for c in coeffs]
        den = 1
        for c in coeffs:
            den = lcm(den, c.denominator)
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        return cls(offset, nums, step_den, den, prec)

    # ---- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.nums

    def valuation(self):
        if not self.nums:
            raise ValueError("valuation undefined to this precision")
        return self.offset

    def leading_coefficient(self):
        if not self.nums:
            raise ValueError("valuation undefined to this precision")
        return Fraction(self.nums[0], self.den)

    def coeff_at(self, e):
        e = _as_frac(e)
        if self.prec is not None and e >= self.prec:
            raise ValueError(
                "coefficient at exponent %s is beyond precision %s" % (e, self.prec))
        rel = (e - self.offset) * self.step_den
        if rel.denominator != 1 or rel < 0 or rel >= len(self.nums):
            return Fraction(0)
        return Fraction(self.nums[int(rel)], self.den)

    def coeffs(self):
        """List of (exponent, coefficient) pairs for the nonzero stored terms."""
        out = []
        for n, c in enumerate(self.nums):
            if c:
                out.append((self.offset + Fraction(n, self.step_den),
                            Fraction(c, self.den)))
        return out

    def truncate(self, prec):
        prec = None if prec is None else _as_frac(prec)
        return QSeries(self.offset, self.nums, self.step_den, self.den,
                       _min_prec(self.prec, prec))

    # ---- ring operations ----------------------------------------------

    def __neg__(self):
        return QSeries(self.offset, [-c for c in self.nums], self.step_den,
                       self.den, self.prec)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other)
        elif not isinstance(other, QSeries):
            return NotImplemented
        prec = _min_prec(self.prec, other.prec)
        if self.is_zero():
            return other.truncate(prec)
        if other.is_zero():
            return self.truncate(prec)
        delta = other.offset - self.offset
        L = lcm(self.step_den, other.step_den, delta.denominator)
        _check_cap(L)
        base = min(self.offset, other.offset)
        da = int((self.offset - base) * L)
        db = int((other.offset - base) * L)
        sa = L // self.step_den
        sb = L // other.step_den
        den = lcm(self.den, other.den)
        fa = den // self.den
        fb = den // other.den
        out = [0] * (max(da + (len(self.nums) - 1) * sa,
                         db + (len(other.nums) - 1) * sb) + 1)
        for i, c in enumerate(self.nums):
            if c:
                out[da + i * sa] += c * fa
        for i, c in enumerate(other.nums):
            if c:
                out[db + i * sb] += c * fb
        return QSeries(base, out, L, den, prec)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other)
        elif not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_frac(other)
            if c == 0:
                return QSeries.zero()
            return QSeries(self.offset, [n * c.numerator for n in self.nums],
                           self.step_den, self.den * c.denominator, self.prec)
        if not isinstance(other, QSeries):
            return NotImplemented
        if (self.is_zero() and self.prec is None) or \
           (other.is_zero() and other.prec is None):
            return QSeries.zero()
        va = self.offset if self.nums else self.prec
        vb = other.offset if other.nums else other.prec
        prec = _min_prec(_add_prec(self.prec, vb), _add_prec(other.prec, va))
        if self.is_zero() or other.is_zero():
            return QSeries.zero(prec)
        L = lcm(self.step_den, other.step_den)
        _check_cap(L)
        offset = self.offset + other.offset
        sa = L // self.step_den
        sb = L // other.step_den
        a = self.nums if sa == 1 else _upsample(self.nums, sa)
        b = other.nums if sb == 1 else _upsample(other.nums, sb)
        if prec is None:
            n_out = None
        else:
            n_out = max(_ceil((prec - offset) * L), 0)
            if n_out == 0:
                return QSeries.zero(prec)
        out = _conv_trunc(a, b, n_out)
        return QSeries(offset, out, L, self.den * other.den, prec)

    __rmul__ = __mul__

    def pow_int(self, k):
        """k-th power with repeated-multiplication truncation semantics."""
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k == 0:
            return QSeries.one()
        if k < 0:
            return self.invert().pow_int(-k)
        return _power(self, k, _mul_op)

    __pow__ = pow_int

    def invert(self):
        """Multiplicative inverse, truncated; q^v*(c+...) -> q^(-v)*(1/c+...).
        The precision follows the operand's; DEFAULT_PREC if it is exact."""
        return _long_div(QSeries.one(), self)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_frac(other)
            if c == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * Fraction(c.denominator, c.numerator)
        if not isinstance(other, QSeries):
            return NotImplemented
        return _long_div(self, other)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _long_div(QSeries.constant(other), self)
        return NotImplemented

    # ---- calculus and substitution -------------------------------------

    def derive(self):
        """The operator q*d/dq: multiplies each coefficient by its exponent."""
        if not self.nums:
            return QSeries(0, [], 1, 1, self.prec)
        p, q = self.offset.numerator, self.offset.denominator
        d = self.step_den
        nums = [c * (p * d + n * q) for n, c in enumerate(self.nums)]
        return QSeries(self.offset, nums, d, self.den * q * d, self.prec)

    def rescale(self, s):
        """Substitute q -> q^s for a positive rational s."""
        s = _as_frac(s)
        if s <= 0:
            raise ValueError("rescale factor must be positive")
        if not self.nums:
            return QSeries(0, [], 1, 1,
                           None if self.prec is None else self.prec * s)
        p, q = s.numerator, s.denominator
        g = gcd(p, q * self.step_den)
        stride = p // g
        new_d = q * self.step_den // g
        _check_cap(new_d)
        nums = self.nums if stride == 1 else _upsample(self.nums, stride)
        prec = None if self.prec is None else self.prec * s
        return QSeries(self.offset * s, nums, new_d, self.den, prec)

    # ---- comparison and display -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.offset == other.offset and self.step_den == other.step_den
                and self.nums == other.nums and self.den == other.den
                and self.prec == other.prec)

    def __hash__(self):
        return hash((self.offset, self.step_den, tuple(self.nums), self.den,
                     self.prec))

    def __str__(self):
        if not self.nums:
            binder = "0" if self.prec is None else "O(q^(%s))" % self.prec
            return binder
        terms = []
        shown = 0
        for n, c in enumerate(self.nums):
            if not c:
                continue
            if shown == 8:
                terms.append("...")
                break
            e = self.offset + Fraction(n, self.step_den)
            coef = Fraction(c, self.den)
            terms.append(_fmt_term(coef, e, not terms))
            shown += 1
        body = " ".join(terms)
        if self.prec is not None:
            body += " + O(q^(%s))" % self.prec
        return body

    __repr__ = __str__

    # ---- serialization ---------------------------------------------------

    def to_json(self):
        return {
            "offset": str(self.offset),
            "step_den": self.step_den,
            "prec": None if self.prec is None else str(self.prec),
            "coeffs": [str(Fraction(c, self.den)) for c in self.nums],
        }

    @classmethod
    def from_json(cls, d):
        offset = Fraction(d["offset"])
        prec = None if d.get("prec") is None else Fraction(d["prec"])
        coeffs = [Fraction(c) for c in d["coeffs"]]
        return cls.from_fractions(offset, coeffs, int(d["step_den"]), prec)


def _fmt_term(coef, e, first):
    sign = "" if first else ("+ " if coef > 0 else "- ")
    if not first and coef < 0:
        coef = -coef
    if e == 0:
        return sign + str(coef)
    if e == 1:
        qpart = "q"
    elif e.denominator == 1 and e >= 0:
        qpart = "q^%s" % e
    else:
        qpart = "q^(%s)" % e
    if coef == 1:
        return sign + qpart
    if coef == -1 and first:
        return "-" + qpart
    cs = str(coef) if coef.denominator == 1 else "(%s)" % coef
    return sign + cs + "*" + qpart


def _power(x, e, mul):
    """x^e for an int e >= 1 by square and multiply with the product mul,
    in one order for every ring: on truncated operands it decides the
    precision of the result."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = mul(x, x)


def _upsample(nums, stride):
    out = [0] * ((len(nums) - 1) * stride + 1)
    for i, c in enumerate(nums):
        if c:
            out[i * stride] = c
    return out


def _long_div(u, v):
    """Exact long division u/v of truncated series, by one fraction-free
    integer solve; through DEFAULT_PREC when both are exact."""
    if not v.nums:
        raise ValueError("series not invertible")
    if not u.nums:
        return QSeries.zero(_add_prec(u.prec, -v.offset))
    out_prec = _min_prec(_add_prec(u.prec, -v.offset),
                         _add_prec(v.prec, u.offset - 2 * v.offset))
    if out_prec is None:
        out_prec = Fraction(DEFAULT_PREC)
    offset = u.offset - v.offset
    L = lcm(u.step_den, v.step_den)
    _check_cap(L)
    n_out = max(_ceil((out_prec - offset) * L), 0)
    if n_out == 0:
        return QSeries.zero(out_prec)
    a = u.nums if u.step_den == L else _upsample(u.nums, L // u.step_den)
    b = v.nums if v.step_den == L else _upsample(v.nums, L // v.step_den)
    # the divisor's content g goes into the denominator, so that b0 is as
    # small as it can be
    g = gcd(*b)
    if g > 1:
        b = [x // g for x in b]
    # slot n of a/b has a denominator dividing b0^(n+1), so scaling the
    # dividend by b0^n_out makes every step of the solve exact; v.den
    # rides along in the same scale
    scale = b[0] ** n_out
    factor = scale * v.den
    qs = _divexact([x * factor for x in a[:n_out]], b, n_out)
    return QSeries(offset, qs, L, u.den * scale * g, out_prec)


def first_mismatch(a, b):
    """Smallest exponent where a and b differ, or None if they agree on the
    common known window."""
    d = a - b
    if d.is_zero():
        return None
    return d.valuation()
