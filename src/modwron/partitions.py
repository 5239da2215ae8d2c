"""Colored-partition counting and congruence-restricted part counting.

A color specification assigns to each residue class mod m a number of
available colors; the counted objects are partitions where a part of size
j carries one of the colors allowed for j's residue.  The generating
function is the product of 1/(1-q^j) taken once per color, and counting
expands that product with the one Euler-product kernel of `qseries`.
"""

from dataclasses import dataclass

from .qseries import _euler_product


@dataclass(frozen=True)
class ColorSpec:
    """Color counts per residue class mod `modulus`.

    counts[i-1] is the number of colors for parts congruent to i, for
    i = 1..modulus, with index modulus standing for residue 0.
    """

    modulus: int
    counts: tuple

    def __post_init__(self):
        if not isinstance(self.modulus, int) or self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != self.modulus:
            raise ValueError("need exactly %d color counts, got %d"
                             % (self.modulus, len(counts)))
        if any(c < 0 for c in counts):
            raise ValueError("color counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

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


def pab_count(a, b, n):
    """Number of partitions of n into parts not congruent to 0, +-b mod a."""
    if not 0 < b < a:
        raise ValueError("need 0 < b < a")
    if n < 0:
        raise ValueError("n must be nonnegative")
    banned = {0, b % a, (a - b) % a}
    return _count_array(lambda j: 0 if j % a in banned else 1, n)[n]


def partition_function(n):
    """Ordinary partition numbers p(0..n) by Euler's pentagonal recurrence."""
    p = [0] * (n + 1)
    p[0] = 1
    for i in range(1, n + 1):
        total = 0
        k = 1
        while True:
            e1 = k * (3 * k - 1) // 2
            e2 = k * (3 * k + 1) // 2
            if e1 > i and e2 > i:
                break
            s = 1 if k % 2 else -1
            if e1 <= i:
                total += s * p[i - e1]
            if e2 <= i:
                total += s * p[i - e2]
            k += 1
        p[i] = total
    return p


@dataclass(frozen=True)
class RecurrenceReport:
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
    lhs = _count_array(ColorSpec(5, (11, 1, 1, 11, 0)).colors, upto)
    mid = _count_array(ColorSpec(5, (6, 6, 6, 6, 0)).colors, upto)
    rhs = _count_array(ColorSpec(5, (1, 11, 11, 1, 0)).colors, upto)
    colored_bad = []
    for n in range(2, upto + 1):
        left = lhs[n]
        right = 11 * mid[n - 1] + rhs[n - 2]
        if left != right:
            colored_bad.append((n, left, right))
    p12 = _count_array(lambda j: 0 if j % 27 in {0, 12, 15} else 1, upto)
    p6 = _count_array(lambda j: 0 if j % 27 in {0, 6, 21} else 1, upto)
    p3 = _count_array(lambda j: 0 if j % 27 in {0, 3, 24} else 1, upto)
    restricted_bad = []
    for n in range(2, upto + 1):
        left = p12[n]
        right = p6[n - 1] + p3[n - 2]
        if left != right:
            restricted_bad.append((n, left, right))
    return RecurrenceReport(upto=upto,
                            colored_counterexamples=tuple(colored_bad),
                            restricted_counterexamples=tuple(restricted_bad),
                            ok=not colored_bad and not restricted_bad)
