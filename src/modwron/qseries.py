"""Exact truncated q-series with rational exponent offsets.

A series is q^offset * sum_n (nums[n]/den) * q^(n/step_den), with coefficients
known exactly for every exponent < prec.  prec is a rational bound (prec=None
means the series is exact at all orders, e.g. an integer polynomial in q).
All arithmetic is exact rational; nothing here ever touches floating point.

Two integer kernels carry every product and quotient.  _conv_trunc is the
truncated product of coefficient lists: int lists go to _kron, which packs
the even and the odd entries of each at the slot width of the widest
product below the truncation and forms the product's even and odd slots
from two products of half-size integers, its values at +-2^(W/2) for slot
width W (two-point Kronecker substitution), when the one cost function
_packs prices that below the schoolbook loop, from the lengths, the bit
widths, the truncation and whether both lists are the same (a square
squares its two values; the loop halves its products).  A slot of at most
8 bytes is widened to 1, 2, 4 or 8 and goes through struct, in C, both
ways; a wider one is packed in one biased pass, one to_bytes per entry,
and read back by one from_bytes per slot.  _solve is the exact triangular
solve behind _euler_product and _divexact, which divides series and, on
packed rows, every step of the Wronskian elimination (wronskian module).
Sparse taps (an eta divisor) run the recurrence over the nonzero taps
only, in O(n * nnz).  Dense int taps split a run in half, and once the
left half is solved, _packs chooses how it reaches the right half: one
_kron middle product, which unpacks only the slots the right half needs,
or the loop.  Non-int taps run the row-by-row loop.  Every step divides
the same integer as that loop, so an inexact step still raises.  An
operand on an s times coarser lattice meets the s residue classes of the
other one by one (_by_class).
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from numbers import Real
from operator import add, mul as _mul_op
import struct

LATTICE_CAP = 120     # largest allowed exponent-lattice denominator
DEFAULT_PREC = 100    # truncation order used when fully exact inputs need one
# _solve: taps with fewer than 1/SPARSE_DENSITY nonzero entries run tap by tap
SPARSE_DENSITY = 4
_INEXACT = "inexact division in fraction-free elimination"
# _packs prices in 30-bit digit products (about 1 ns) the interpreter's
# overhead per product of the loop, per slot _kron packs or unpacks and per
# _kron call, fitted to timings of both on 4-1000 slots of 1-20000 bits
# with a to_bytes and a from_bytes per slot, when _kron made one product
# at the full slot width.  Struct slots (at most 8 bytes) cost less, but
# PACK_SLOT 90 or 160 and PACK_CALL 6000 or 15000 won no paired
# identities_ssing runs against these, and pricing the two half-size
# products of two-point substitution ran at parity with pricing one
# full-size product under these constants.  CPython multiplies
# ints of KARATSUBA_CUTOFF digits or more by Karatsuba.
LOOP_STEP = 70
PACK_SLOT = 125
PACK_CALL = 10000
KARATSUBA_CUTOFF = 70
# struct's signed codes for the slot widths that _pack and _kron take in C
_STRUCT_CODE = {1: "b", 2: "h", 4: "i", 8: "q"}


def _as_frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def _integral(x, what):
    """x as an int: integral numbers such as 2.0 are accepted, anything
    that int() would truncate or parse (1.5, 3/2, "3") or a bool is
    refused."""
    if type(x) is bool or not isinstance(x, Real) or x != x // 1:
        raise ValueError("%s must be integers, got %r" % (what, x))
    return int(x)


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


def _width(xs):
    """Bit length of the widest entry of the int list xs."""
    return max(map(int.bit_length, xs), default=0)


def _digit_work(x, y):
    """Digit products in CPython's product of an x-digit and a y-digit int:
    schoolbook below the Karatsuba cut-off, else Karatsuba on chunks of the
    longer one as long as the shorter (3^log2(x/cut-off) base cases each)."""
    if x > y:
        x, y = y, x
    if x < KARATSUBA_CUTOFF:
        return x * y
    return y * KARATSUBA_CUTOFF * (x / KARATSUBA_CUTOFF) ** 0.585


def _pairs(la, lb, m):
    """Products a_i b_j with i + j < m of lists of lengths la and lb: the
    triangle below m, less the parts past either list (inclusion-exclusion)."""
    a, b, c, d = m, max(m - la, 0), max(m - lb, 0), max(m - la - lb, 0)
    return (a * (a + 1) - b * (b + 1) - c * (c + 1) + d * (d + 1)) // 2


def _packs(la, lb, ba, bb, n, start=0, square=False):
    """True when _kron forms slots start..n-1 of the product of int lists
    of lengths la, lb <= n and bit widths ba, bb cheaper than the loop.

    The one cost function of the kernels.  The loop pays LOOP_STEP and the
    digit products of each a_i b_j; _kron pays PACK_CALL, PACK_SLOT per slot
    and two products of half the packed lengths at the summed slot width,
    so it loses when one side is much wider.  A square halves both and
    packs one list.
    """
    halve = 2 if square else 1
    products = (_pairs(la, lb, n) - _pairs(la, lb, start)) / halve
    slots = la + n - start + (0 if square else lb)
    digits = (ba + bb + min(la, lb).bit_length() + 8) // 8 * 8 / 30
    return (PACK_CALL + PACK_SLOT * slots
            + _digit_work(la * digits / 2, lb * digits / 2) * 2 / halve
            < products * (LOOP_STEP + _digit_work(-(-ba // 30), -(-bb // 30))))


def _pack(xs, nbytes, bias):
    """xs as one integer sum x_i 2^(8 nbytes i), packed in one pass: each
    entry in two's complement in one little-endian slot of nbytes bytes,
    by struct in C for 1, 2, 4 or 8 bytes and by one to_bytes each for
    wider slots.  bias holds half = 2^(8 nbytes - 1) in each of at least
    len(xs) slots: flipping the top bit of every slot adds it, and it is
    subtracted once (a slot past xs goes 0 -> half -> 0).  An entry
    outside [-half, half) raises (struct.error or OverflowError)."""
    if nbytes in _STRUCT_CODE:
        raw = struct.pack("<%d%s" % (len(xs), _STRUCT_CODE[nbytes]), *xs)
    else:
        raw = b"".join([x.to_bytes(nbytes, "little", signed=True)
                        for x in xs])
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _kron(a, b, n, start=0):
    """Coefficients start..n-1 of the product h of the nonempty int lists
    a and b, by two-point Kronecker substitution: at slot width W = 8 nbytes
    and X = 2^(W/2), h(X) and h(-X) are two products of half-size packed
    integers, and (h(X) + h(-X)) / 2 and (h(X) - h(-X)) / 2X pack the even
    and the odd coefficients at width W.  A square (b is a) squares its
    two values.  A slot of at most 8 bytes is widened to 1, 2, 4 or 8 and
    struct packs and unpacks it in C; a wider one is read back by one
    from_bytes per slot.
    """
    n = min(n, len(a) + len(b) - 1)
    start = min(start, n)
    square = a is b
    a = a[:n]
    b = a if square else b[:n]
    if start:
        # a middle product meets the widest slots of a with the first of b:
        # the summed widths are about as tight, and cheaper to find
        top = _width(a) + _width(b)
    else:
        # the widest a_i b_j with i + j < n (b_j meets the widest of a_0 ..
        # a_(n-1-j)): entries that widen along a truncated product get
        # narrower slots
        reach = list(accumulate(map(int.bit_length, a), max))
        j0 = n - len(a)
        top = max(_width(b[:j0]) + reach[-1], max(map(add, map(
            int.bit_length, b[j0:]), reversed(reach[n - len(b):n - j0]))))
    # every slot below n: |slot| < min(len) * 2^top, plus a sign bit; top
    # is at least the widest entry of a and of b, so _pack takes them too
    nbytes = (top + min(len(a), len(b)).bit_length() + 8) // 8
    if nbytes <= 8:
        nbytes = 1 << (nbytes - 1).bit_length()
    w = 4 * nbytes
    # half in each of the (n + 1) // 2 slots of an even or odd half, for
    # the operands and the product
    bias = int.from_bytes((1 << (8 * nbytes - 1)).to_bytes(nbytes, "little")
                          * ((n + 1) // 2), "little")
    ea, oa = _pack(a[::2], nbytes, bias), _pack(a[1::2], nbytes, bias) << w
    if square:
        plus, minus = (ea + oa) ** 2, (ea - oa) ** 2
    else:
        eb, ob = _pack(b[::2], nbytes, bias), _pack(b[1::2], nbytes, bias) << w
        plus, minus = (ea + oa) * (eb + ob), (ea - oa) * (eb - ob)
    # both divisions are exact: h(X) +- h(-X) is 2 He(X^2) or 2X Ho(X^2);
    # the unpacking then holds the two halves, one full product's size
    even, odd = (plus + minus) >> 1, (plus - minus) >> (w + 1)
    del plus, minus
    out = [0] * (n - start)
    from_bytes = int.from_bytes
    for x, i, lo, hi in ((even, start & 1, (start + 1) // 2, (n + 1) // 2),
                         (odd, 1 - (start & 1), start // 2, n // 2)):
        # each biased slot lies in [0, 2^(8 nbytes)), so none borrows from
        # the next, and flipping its top bit again leaves the slot in two's
        # complement; the shift drops the first lo slots of the half and
        # the mask keeps the slots up to hi
        size = nbytes * (hi - lo)
        buf = ((((x + bias) ^ bias) >> (8 * nbytes * lo))
               & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        out[i::2] = (
            struct.unpack("<%d%s" % (hi - lo, _STRUCT_CODE[nbytes]), buf)
            if nbytes in _STRUCT_CODE else
            [from_bytes(buf[k:k + nbytes], "little", signed=True)
             for k in range(0, size, nbytes)])
    return out


def _conv_trunc(a, b, n=None):
    """The first n coefficients (all when n is None) of the product of the
    coefficient lists a and b.

    Int lists go to _kron when _packs prices it below the schoolbook loop;
    every other call, Fraction entries included, runs the loop.  A square
    (b is a) forms each product a_i a_j, i < j, once and doubles it.
    """
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    if n is None or n > la + lb - 1:
        n = la + lb - 1
    square = a is b
    # products whose loop overhead is below _kron's own loop without a look
    # at their entries
    if _pairs(la, lb, n) * LOOP_STEP > PACK_CALL + PACK_SLOT * (la + lb + n):
        a = a[:n]
        b = a if square else b[:n]
        la, lb = len(a), len(b)
        if _all_ints(a) and (square or _all_ints(b)):
            ba = _width(a)
            if _packs(la, lb, ba, ba if square else _width(b), n, 0, square):
                return _kron(a, b, n)
    rb = b[::-1]
    out = []
    for t in range(n):
        lo = t - lb + 1
        if lo < 0:
            lo = 0
        if square:
            # the pairs i < t - i, doubled, and the middle square
            x = 2 * sum(map(_mul_op, a[lo:(t + 1) // 2], rb[lb - 1 - t + lo:]))
            out.append(x if t & 1 else x + a[t // 2] * a[t // 2])
            continue
        hi = t if t < la else la - 1
        if hi < lo:
            out.append(0)
        else:
            out.append(sum(map(_mul_op, a[lo:hi + 1], rb[lb - 1 - t + lo:lb - t + hi])))
    return out


def _by_class(f, s, n, kernel):
    """The n slots whose residue class r mod s is kernel(f[r::s], n_r), n_r
    the class's slots below n: a product or a quotient whose other operand
    lies on a lattice s times coarser, formed class by class on it."""
    out = [0] * n
    for r in range(min(s, n)):
        c = kernel(f[r::s], len(range(r, n, s)))
        out[r:r + s * len(c):s] = c
    return out


def _solve(acc, t, div, out, lo, hi, what):
    """Fill out[lo:hi] with x_i = (acc_i + sum_{j>=1} t[j-1] x_{i-j}) / div[i].

    The one integer triangular solve, behind _divexact (the series division
    and the Wronskian elimination) and _euler_product.
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
    bt = _width(t) if _all_ints(t) else None
    _relaxed(acc, t, t[::-1], div, out, lo, hi, what, bt)


def _relaxed(acc, t, rt, div, out, lo, hi, what, bt):
    """_solve on dense taps t (rt is t reversed) of bit width bt, None
    when some tap is not an int.

    The left half of a run is solved first.  Its cross product with the
    taps reaches acc[mid:hi] (slots h - 1 .. hi - lo - 2, h = mid - lo), and
    _packs prices that middle product with the solved slots in hand:
    packed, _kron carries it and the right half recurses; otherwise the
    right half loops over the taps back to lo.  A run whose middle product
    would not pack for slots as wide as the taps loops from the start.
    """
    lt = len(t)
    h = (hi - lo) // 2
    mid, m = lo + h, min(lt, hi - lo - 1)
    start = lo
    if bt is not None and h and _packs(h, m, bt, bt, hi - lo - 1, h - 1):
        _relaxed(acc, t, rt, div, out, lo, mid, what, bt)
        solved = out[lo:mid]
        if _packs(h, m, _width(solved), bt, hi - lo - 1, h - 1):
            c = _kron(solved, t[:m], hi - lo - 1, h - 1)
            acc[mid:mid + len(c)] = map(add, acc[mid:mid + len(c)], c)
            _relaxed(acc, t, rt, div, out, mid, hi, what, bt)
            return
        start = mid
    for i in range(start, hi):
        x = acc[i]
        jm = min(lt, i - lo)
        if jm:
            x += sum(map(_mul_op, rt[lt - jm:], out[i - jm:i]))
        if x:
            q, r = divmod(x, div[i])
            if r:
                raise ArithmeticError(what)
            out[i] = q


def _divexact(u, v, n):
    """Exact quotient u/v of integer slot vectors through n slots.

    v must lead at slot 0.  Each caller guarantees it: a series divisor
    has no leading zero slot, E4^3 leads with 1, and _bareiss checks every
    Wronskian pivot before it becomes a divisor.  One run of _solve: every
    step must divide exactly by v[0], and an inexact step raises.
    """
    acc = u[:n]
    acc += [0] * (n - len(acc))
    out = [0] * n
    _solve(acc, [-c for c in v[1:]], [v[0]] * n, out, 0, n, _INEXACT)
    return out


def _euler_product(w, n):
    """First n coefficients of prod_{d>=1} (1 - q^d)^w[d] (w[0] unused).

    The one product kernel: the log-derivative recurrence
    k c_k = sum_{j<=k} s_j c_{k-j}, with s_j = -sum_{d|j} d w[d], solved by
    the triangular solve whatever the exponents are.  Every step must
    divide exactly by k, and an inexact step raises.  When every d with
    w[d] != 0 is a multiple of g, the product is one in q^g: the recurrence
    runs on the slots of that lattice and the result is spread back.
    """
    if n <= 0:
        return []
    ds = [d for d in range(1, min(len(w), n)) if w[d]]
    g = gcd(*ds) or 1
    m = len(range(0, n, g))
    s = [0] * m
    for d in ds:
        e = d // g
        ew = e * w[d]
        for j in range(e, m, e):
            s[j] -= ew
    # c_0 = 1 puts s_k into slot k before the solve
    cg = [0] * m
    cg[0] = 1
    _solve(s, s[1:], range(m), cg, 1, m,
           "inexact step in the Euler-product recurrence")
    c = [0] * n
    c[::g] = cg
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
        # a is the operand on the coarser lattice, s times coarser than L;
        # b is upsampled to L, and a multiplies its s residue classes
        a, b = self.nums, other.nums
        s, sb = L // self.step_den, L // other.step_den
        if s < sb:
            a, b, s, sb = b, a, sb, s
        if sb > 1:
            b = _upsample(b, sb)
        if prec is None:
            n_out = (len(a) - 1) * s + len(b)
        else:
            n_out = max(_ceil((prec - offset) * L), 0)
            if n_out == 0:
                return QSeries.zero(prec)
        out = (_conv_trunc(a, b, n_out) if s == 1 else
               _by_class(b, s, n_out, lambda f, n: _conv_trunc(a, f, n)))
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
        """The first eight terms, "..." when there are more, and O(q^prec)."""
        terms = []
        for n, c in enumerate(self.nums):
            if c:
                e = self.offset + Fraction(n, self.step_den)
                terms.append((Fraction(c, self.den),
                              "" if e == 0 else "q" if e == 1 else
                              "q^%s" % e if e.denominator == 1 and e > 0 else
                              "q^(%s)" % e))
                if len(terms) > 8:
                    break
        body = _fmt_sum(terms[:8]) + " ..." * (len(terms) > 8)
        if self.prec is None:
            return body
        return (body + " + " if terms else "") + "O(q^(%s))" % self.prec

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


def _fmt_sum(terms):
    """A sum of (coefficient, monomial) pairs as text, "" the monomial 1:
    each sign stands outside its term, and a coefficient before a monomial
    is parenthesized unless it is a whole number (x^2 - (1/2)*x, -(1/3)*E6,
    5/2).  A coefficient that is not rational, such as the Poly coefficients
    of an MFPoly over Q[lambda], has no sign and prints whole.  The empty
    sum is "0"."""
    out = []
    for c, mono in terms:
        neg = isinstance(c, (int, Fraction)) and c < 0
        mag = -c if neg else c
        text = str(mag)
        if mono:
            text = mono if mag == 1 else "%s*%s" % (
                text if text.isdigit() else "(%s)" % text, mono)
        sign = ("- " if neg else "+ ") if out else ("-" if neg else "")
        out.append(sign + text)
    return " ".join(out) or "0"


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
    out[::stride] = nums
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
    # the divisor stays on its own lattice, s times coarser than L, and
    # divides each residue class mod s of the dividend
    s = L // v.step_den
    # the divisor's content g goes into the denominator, so that b0 is as
    # small as it can be
    b = v.nums
    g = gcd(*b)
    if g > 1:
        b = [x // g for x in b]
    # slot n of a/b has a denominator dividing b0^(n+1), so scaling the
    # dividend by b0^n_out makes every step of the solve exact; v.den
    # rides along in the same scale
    scale = b[0] ** n_out
    factor = scale * v.den
    a = [x * factor for x in a[:n_out]]
    qs = (_divexact(a, b, n_out) if s == 1 else
          _by_class(a, s, n_out, lambda f, n: _divexact(f, b, n)))
    return QSeries(offset, qs, L, u.den * scale * g, out_prec)


def first_mismatch(a, b):
    """Smallest exponent where a and b differ, or None if they agree on the
    common known window."""
    d = a - b
    if d.is_zero():
        return None
    return d.valuation()
