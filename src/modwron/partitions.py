"""Colored-partition counting and congruence-restricted part counting.

A color specification assigns to each residue class mod m a number of
available colors; the counted objects are partitions where a part of size
j carries one of the colors allowed for j's residue.  The generating
function is the product of 1/(1-q^j) taken once per color, and counting
expands that product with the one Euler-product kernel of `qseries`.
"""

from typing import NamedTuple

from .qseries import _euler_product, _integral


class _ColorCounts(NamedTuple):
    modulus: int
    counts: tuple


class ColorSpec(_ColorCounts):
    """Color counts per residue class mod `modulus`.

    counts[i-1] is the number of colors for parts congruent to i, for
    i = 1..modulus, with index modulus standing for residue 0.
    """

    __slots__ = ()

    def __new__(cls, modulus, counts):
        if type(modulus) is bool or not isinstance(modulus, int) \
                or modulus < 1:
            raise ValueError("modulus must be a positive integer")
        counts = tuple(_integral(c, "color counts") for c in counts)
        if len(counts) != modulus:
            raise ValueError("need exactly %d color counts, got %d"
                             % (modulus, len(counts)))
        if any(c < 0 for c in counts):
            raise ValueError("color counts must be nonnegative")
        return super().__new__(cls, modulus, counts)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)

    def colors(self, j):
        """Number of colors available to a part of size j."""
        r = j % self.modulus
        return self.counts[r - 1] if r else self.counts[self.modulus - 1]


def _count_array(colors_of, n):
    """Coefficients 0..n of prod_j (1 - q^j)^(-colors_of(j))."""
    w = [0] + [-colors_of(j) for j in range(1, n + 1)]
    return _euler_product(w, n + 1)


def colored_count(spec, n):
    """Number of partitions of n colored according to spec."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _count_array(spec.colors, n)[n]


def _pab_array(a, b, n):
    """Counts 0..n of partitions into parts not congruent to 0, +-b mod a."""
    banned = {0, b, a - b}
    return _count_array(lambda j: 0 if j % a in banned else 1, n)


def pab_count(a, b, n):
    """Number of partitions of n into parts not congruent to 0, +-b mod a."""
    if not 0 < b < a:
        raise ValueError("need 0 < b < a")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _pab_array(a, b, n)[n]


class RecurrenceReport(NamedTuple):
    """Outcome of checking both two-step recurrences for 2 <= n <= upto.

    Counterexample entries are (n, left, right) triples; ok means both
    lists are empty.
    """

    upto: int
    colored_counterexamples: tuple
    restricted_counterexamples: tuple
    ok: bool


def verify_recurrences(upto):
    """Check the mod-5 colored recurrence and the mod-27 restricted one.

    For every 2 <= n <= upto:
      P_{11,1,1,11,0}(n) = 11 P_{6,6,6,6,0}(n-1) + P_{1,11,11,1,0}(n-2)
      P_{27,12}(n) = P_{27,6}(n-1) + P_{27,3}(n-2)
    """
    if upto < 2:
        raise ValueError("upto must be at least 2")

    def bad(lhs, c, mid, rhs):
        # the n where lhs(n) = c mid(n-1) + rhs(n-2) fails
        return tuple((n, lhs[n], right) for n in range(2, upto + 1)
                     if (right := c * mid[n - 1] + rhs[n - 2]) != lhs[n])

    lhs = _count_array(ColorSpec(5, (11, 1, 1, 11, 0)).colors, upto)
    mid = _count_array(ColorSpec(5, (6, 6, 6, 6, 0)).colors, upto)
    rhs = _count_array(ColorSpec(5, (1, 11, 11, 1, 0)).colors, upto)
    colored_bad = bad(lhs, 11, mid, rhs)
    p12, p6, p3 = (_pab_array(27, b, upto) for b in (12, 6, 3))
    restricted_bad = bad(p12, 1, p6, p3)
    return RecurrenceReport(upto=upto,
                            colored_counterexamples=colored_bad,
                            restricted_counterexamples=restricted_bad,
                            ok=not colored_bad and not restricted_bad)
