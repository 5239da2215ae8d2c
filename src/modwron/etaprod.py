"""Eta products, congruence-restricted q-products, and theta sums.

The named series used throughout are rows of two tables, one name to a row:
product specs for the Rogers-Ramanujan characters ch1/ch2, the continued
fraction R(q) and the eighth powers of the two half-integral Weber
functions, and theta sums over eta for the weight-0 pair attached to
level-2 theta functions.  named_series keeps the longest expansion of each
name built so far and serves shorter precisions as its truncation.
"""

from fractions import Fraction
from math import floor, lcm

from .qseries import QSeries, _ceil, _euler_product

ONE_24TH = Fraction(1, 24)


class ProductSpec:
    """q^prefactor times a product of (1-q^n)^e over n > 0, n == r (mod m)."""

    def __init__(self, factors, prefactor=0):
        self.factors = []
        for r, m, e in factors:
            if m < 1 or not 0 <= r < m:
                raise ValueError("factor residue %r out of range mod %r" % (r, m))
            self.factors.append((int(r), int(m), int(e)))
        self.prefactor = Fraction(prefactor)


class ThetaSpec:
    """sum over n in Z of sign(n) * q^((A*n^2 + B*n)/2), with A > 0."""

    SIGNS = ("trivial", "alternating")

    def __init__(self, A, B, sign="trivial"):
        self.A = Fraction(A)
        self.B = Fraction(B)
        if self.A <= 0:
            raise ValueError("theta quadratic coefficient must be positive")
        if sign not in self.SIGNS:
            raise ValueError("sign must be one of %r" % (self.SIGNS,))
        self.sign = sign


def _int_window(N, h):
    """Number of integer-exponent slots known below absolute precision N."""
    return max(_ceil(Fraction(N) - h), 0)


def product_series(spec, N):
    """Expand a ProductSpec exactly, to absolute precision N."""
    N = Fraction(N)
    h = spec.prefactor
    L = _int_window(N, h)
    if L == 0:
        return QSeries.zero(N)
    w = [0] * L
    for r, m, e in spec.factors:
        for n in range(r if r else m, L, m):
            w[n] += e
    return QSeries(h, _euler_product(w, L), 1, 1, N)


def _eta_unit(nslots):
    """Coefficients of prod(1-q^n) by the pentagonal number theorem."""
    c = [0] * nslots
    k = 0
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 >= nslots and e2 >= nslots:
            break
        s = 1 if k % 2 == 0 else -1
        if e1 < nslots:
            c[e1] += s
        if k and e2 < nslots:
            c[e2] += s
        k += 1
    return c


def eta(scale, N):
    """q-expansion of eta(scale * tau) = q^(scale/24) prod(1 - q^(scale*n))."""
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("eta scale must be positive")
    N = Fraction(N)
    base_prec = _int_window(N / scale, ONE_24TH) + 1
    base = QSeries(ONE_24TH, _eta_unit(base_prec), 1, 1, ONE_24TH + base_prec)
    return base.rescale(scale).truncate(N)


def theta_sum(spec, N):
    """Expand a ThetaSpec exactly, to absolute precision N.

    The integer n0 nearest -B/(2A) has the lowest exponent e0, and
    e(n0 + t) - e0 = A t(t-1)/2 + d t with d = e(n0 + 1) - e0: the slots
    below N, on e0 + gcd(A, d) Z, are allocated before t walks out from 0."""
    N = Fraction(N)
    A, B = spec.A, spec.B
    alt = spec.sign == "alternating"
    n0 = floor(Fraction(1, 2) - B / (2 * A))
    e0 = (A * n0 * n0 + B * n0) / 2
    d = A * n0 + (A + B) / 2
    step = lcm(A.denominator, d.denominator)
    nums = [0] * max(_ceil((N - e0) * step), 0)
    a, d = int(A * step), int(d * step)      # A and d in slots
    for t, dt in ((0, 1), (-1, -1)):
        while (s := a * t * (t - 1) // 2 + d * t) < len(nums):
            nums[s] += -1 if alt and (n0 + t) % 2 else 1
            t += dt
    return QSeries(e0, nums, step, 1, N)


# name -> (ProductSpec, lattice step): the spec's product in x = q^step.
# weber8_1 is prod (1 + x^j)^8 over odd j, x = q^(1/2), written with
# 1 + x^j = (1 - x^(2j)) / (1 - x^j).
PRODUCTS = {
    "ch1": (ProductSpec([(2, 5, -1), (3, 5, -1)], Fraction(11, 60)), 1),
    "ch2": (ProductSpec([(1, 5, -1), (4, 5, -1)], Fraction(-1, 60)), 1),
    "rr_cf": (ProductSpec([(1, 5, 1), (4, 5, 1), (2, 5, -1), (3, 5, -1)],
                          Fraction(1, 5)), 1),
    "weber8_1": (ProductSpec([(2, 4, 8), (1, 2, -8)], Fraction(-1, 3)),
                 Fraction(1, 2)),
    "weber8_2": (ProductSpec([(0, 2, 8), (0, 1, -8)], Fraction(1, 3)), 1),
}

# name -> (ThetaSpec, prefactor): q^prefactor * theta / eta(tau).
THETAS = {
    "a1_f1": (ThetaSpec(2, 0), 0),
    "a1_f2": (ThetaSpec(2, 2), Fraction(1, 4)),
}

NAMES = tuple(sorted(set(PRODUCTS) | set(THETAS)))

# name -> the longest expansion built so far, at most one per name
_BUILT = {}


def named_series(name, N):
    """Build one of the named weight-0 series to absolute precision N.

    Each name has one construction, from its row in PRODUCTS or THETAS.
    Both are prefix-stable, so truncating the longest expansion kept equals
    a fresh build.
    """
    if name not in NAMES:
        raise ValueError("unknown series %r (choose from %s)" % (name, ", ".join(NAMES)))
    N = Fraction(N)
    built = _BUILT.get(name)
    if built is not None and N <= built.prec:
        return built.truncate(N)
    if name in PRODUCTS:
        spec, step = PRODUCTS[name]
        out = product_series(spec, N / step).rescale(step)
    else:
        spec, prefactor = THETAS[name]
        t = theta_sum(spec, N + 1)
        # eta is known through its leading term even when N + 1 <= 1/24
        d = eta(1, max(N + 1, 1))
        out = (QSeries.monomial(1, prefactor) * t / d).truncate(N)
    if out.prec == N:
        _BUILT[name] = out
    return out
