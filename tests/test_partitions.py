"""Tests for colored and congruence-restricted partition counting."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from modwron.etaprod import ProductSpec, named_series, product_series
from modwron.partitions import (ColorSpec, RecurrenceReport, _count_array,
                                colored_count, pab_count, verify_recurrences)


def partition_function(n):
    """Ordinary partition numbers p(0..n) by Euler's pentagonal recurrence,
    a reference independent of the Euler-product kernel."""
    p = [1] + [0] * n
    for i in range(1, n + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= i:
            s = 1 if k % 2 else -1
            p[i] += s * p[i - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= i:
                p[i] += s * p[i - k * (3 * k + 1) // 2]
            k += 1
    return p


def test_colorspec_validation():
    with pytest.raises(ValueError, match="exactly 5"):
        ColorSpec(5, (1, 1, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        ColorSpec(2, (1, -1))
    with pytest.raises(ValueError, match="positive"):
        ColorSpec(0, ())


def test_colorspec_replace_validates():
    spec = ColorSpec(2, (1, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        spec._replace(counts=(1, -1))
    with pytest.raises(ValueError, match="exactly 2"):
        spec._replace(counts=(1,))
    assert spec._replace(counts=[3, 4.0]).counts == (3, 4)


def test_colorspec_normalizes_counts_to_an_int_tuple():
    counts = ColorSpec(2, [1, 2.0]).counts
    assert counts == (1, 2) and type(counts) is tuple
    assert all(type(c) is int for c in counts)


@pytest.mark.parametrize("modulus,counts,match", [
    (2, [1.5, 2.9], "integers, got 1.5"),
    (1, ["3"], "integers, got '3'"),
    (1, [True], "integers, got True"),
    (1, [float("nan")], "integers, got nan"),
    (True, (1,), "positive integer"),
])
def test_colorspec_refuses_what_int_would_truncate_or_parse(modulus, counts,
                                                            match):
    with pytest.raises(ValueError, match=match):
        ColorSpec(modulus, counts)
    spec = ColorSpec(len(counts), (1,) * len(counts))
    with pytest.raises(ValueError, match=match):
        spec._replace(modulus=modulus, counts=counts)


def test_colorspec_accepts_integral_numbers():
    assert ColorSpec(2, [F(4, 2), 3.0]).counts == (2, 3)


def test_colorspec_keyword_construction():
    spec = ColorSpec(modulus=3, counts=[1, 0, 2])
    assert spec == ColorSpec(3, (1, 0, 2))
    assert (spec.modulus, spec.counts) == (3, (1, 0, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        ColorSpec(counts=(-1,), modulus=1)


def test_colorspec_residue_indexing():
    spec = ColorSpec(5, (10, 20, 30, 40, 50))
    assert [spec.colors(j) for j in (1, 2, 3, 4, 5, 6, 10)] == \
        [10, 20, 30, 40, 50, 10, 50]


def test_all_ones_is_partition_function():
    ones = ColorSpec(1, (1,))
    p = partition_function(200)
    for n in range(201):
        assert colored_count(ones, n) == p[n]
    assert p[200] == 3972999029388


def test_ordinary_partitions_of_four():
    assert colored_count(ColorSpec(5, (1, 1, 1, 1, 1)), 4) == 5


def test_empty_partition():
    assert colored_count(ColorSpec(3, (7, 0, 2)), 0) == 1
    assert pab_count(27, 12, 0) == 1


def test_anchor_67():
    assert colored_count(ColorSpec(5, (11, 1, 1, 11, 0)), 2) == 67
    assert 11 * colored_count(ColorSpec(5, (6, 6, 6, 6, 0)), 1) \
        + colored_count(ColorSpec(5, (1, 11, 11, 1, 0)), 0) == 67


def test_anchor_is_coefficient_display_of_ch1_ch2_11():
    ch1 = named_series("ch1", F(5))
    ch2 = named_series("ch2", F(5))
    prod = ch1 * ch2 ** 11
    assert [prod.coeff_at(n) for n in range(3)] == [1, 11, 67]


def test_colored_count_matches_product_series():
    spec = ColorSpec(5, (11, 1, 1, 11, 0))
    ps = ProductSpec([(1, 5, -11), (2, 5, -1), (3, 5, -1), (4, 5, -11)])
    s = product_series(ps, F(40))
    for n in range(40):
        assert s.coeff_at(n) == colored_count(spec, n)


def count_array_by_passes(colors_of, n):
    """Reference: one pass over the counts per part size and color."""
    arr = [0] * (n + 1)
    arr[0] = 1
    for j in range(1, n + 1):
        for _ in range(colors_of(j)):
            for k in range(j, n + 1):
                arr[k] += arr[k - j]
    return arr


@st.composite
def color_specs(draw):
    m = draw(st.integers(1, 8))
    return ColorSpec(m, tuple(draw(st.lists(st.integers(0, 12), min_size=m,
                                            max_size=m))))


@settings(max_examples=100, deadline=None)
@given(color_specs(), st.integers(0, 80))
def test_count_array_matches_repeated_passes(spec, n):
    assert _count_array(spec.colors, n) == count_array_by_passes(spec.colors, n)


def test_pab_matches_ch2_coefficients():
    ch2 = named_series("ch2", F(20))
    for n in range(20):
        assert pab_count(5, 2, n) == ch2.coeff_at(F(-1, 60) + n)


def test_pab_three_term_instance():
    assert pab_count(27, 12, 2) == pab_count(27, 6, 1) + pab_count(27, 3, 0)


def test_pab_validation():
    with pytest.raises(ValueError, match="0 < b < a"):
        pab_count(5, 5, 3)
    with pytest.raises(ValueError, match="0 < b < a"):
        pab_count(5, 0, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        pab_count(5, 2, -1)


def test_verify_recurrences_to_50():
    r = verify_recurrences(50)
    assert isinstance(r, RecurrenceReport)
    assert r.ok
    assert r.colored_counterexamples == ()
    assert r.restricted_counterexamples == ()
    assert r.upto == 50


def test_verify_recurrences_minimal():
    assert verify_recurrences(2).ok
    with pytest.raises(ValueError, match="at least 2"):
        verify_recurrences(1)


def test_recurrence_fails_when_perturbed():
    # the recurrence is a sharp statement: shifting the colored spec breaks it
    lhs = colored_count(ColorSpec(5, (11, 2, 1, 11, 0)), 2)
    rhs = 11 * colored_count(ColorSpec(5, (6, 6, 6, 6, 0)), 1) \
        + colored_count(ColorSpec(5, (1, 11, 11, 1, 0)), 0)
    assert lhs != rhs
