"""Eta products and congruence-restricted q-products.

The named series used throughout are the rows of one table, one name to a
row: a product spec, its lattice step and a constant.  The rows are the
Rogers-Ramanujan characters ch1/ch2, the continued fraction R(q), the eighth
powers of the two half-integral Weber functions, and the weight-0 pair
theta3/eta, theta2/eta attached to level-2 theta functions, written as eta
quotients by the Jacobi triple product.  named_series keeps the longest
expansion of each name built so far and serves shorter precisions as its
truncation.
"""

from fractions import Fraction

from .qseries import QSeries, _ceil, _euler_product, _integral

ONE_24TH = Fraction(1, 24)


class ProductSpec:
    """q^prefactor times a product of (1-q^n)^e over n > 0, n == r (mod m)."""

    def __init__(self, factors, prefactor=0):
        self.factors = []
        for factor in factors:
            r, m, e = [_integral(x, "product factors") for x in factor]
            if m < 1 or not 0 <= r < m:
                raise ValueError("factor residue %r out of range mod %r" % (r, m))
            self.factors.append((r, m, e))
        if type(prefactor) not in (int, Fraction):
            raise ValueError("prefactor must be an int or a Fraction, got %r"
                             % (prefactor,))
        self.prefactor = Fraction(prefactor)


def _int_window(N, h):
    """Number of integer-exponent slots known below absolute precision N."""
    return max(_ceil(Fraction(N) - h), 0)


def product_series(spec, N):
    """Expand a ProductSpec exactly, to absolute precision N."""
    N = Fraction(N)
    h = spec.prefactor
    L = _int_window(N, h)
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


# name -> (ProductSpec, lattice step, constant): the constant times the
# spec's product in x = q^step.
# weber8_1 is prod (1 + x^j)^8 over odd j, x = q^(1/2), written with
# 1 + x^j = (1 - x^(2j)) / (1 - x^j).  By the Jacobi triple product
# a1_f1 = theta3/eta = eta(2 tau)^5 / (eta(tau)^3 eta(4 tau)^2) and
# a1_f2 = theta2/eta = 2 eta(4 tau)^2 / (eta(tau) eta(2 tau)).
PRODUCTS = {
    "ch1": (ProductSpec([(2, 5, -1), (3, 5, -1)], Fraction(11, 60)), 1, 1),
    "ch2": (ProductSpec([(1, 5, -1), (4, 5, -1)], Fraction(-1, 60)), 1, 1),
    "rr_cf": (ProductSpec([(1, 5, 1), (4, 5, 1), (2, 5, -1), (3, 5, -1)],
                          Fraction(1, 5)), 1, 1),
    "weber8_1": (ProductSpec([(2, 4, 8), (1, 2, -8)], Fraction(-1, 3)),
                 Fraction(1, 2), 1),
    "weber8_2": (ProductSpec([(0, 2, 8), (0, 1, -8)], Fraction(1, 3)), 1, 1),
    "a1_f1": (ProductSpec([(1, 4, -3), (3, 4, -3), (2, 4, 2)],
                          Fraction(-1, 24)), 1, 1),
    "a1_f2": (ProductSpec([(1, 2, -1), (2, 4, -2)], Fraction(5, 24)), 1, 2),
}

NAMES = tuple(sorted(PRODUCTS))

# name -> the longest expansion built so far, at most one per name
_BUILT = {}


def named_series(name, N):
    """Build one of the named weight-0 series to absolute precision N.

    Each name has one construction, from its row in PRODUCTS.  The product
    is prefix-stable, so truncating the longest expansion kept equals a
    fresh build.
    """
    if name not in NAMES:
        raise ValueError("unknown series %r (choose from %s)" % (name, ", ".join(NAMES)))
    N = Fraction(N)
    built = _BUILT.get(name)
    if built is not None and N <= built.prec:
        return built.truncate(N)
    spec, step, c = PRODUCTS[name]
    out = c * product_series(spec, N / step).rescale(step)
    if out.prec == N:
        _BUILT[name] = out
    return out
