from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invforge.ratio import (
    format_ratio,
    int_nth_root_floor,
    int_root_ceil,
    parse_ratio,
    pth_power_split,
    rational_root_ceil,
)


def test_parse_and_format_roundtrip():
    assert parse_ratio("3/4") == Fraction(3, 4)
    assert parse_ratio("-7") == Fraction(-7)
    assert format_ratio(Fraction(3, 4)) == "3/4"
    assert format_ratio(5) == "5/1"
    assert parse_ratio(format_ratio(Fraction(-22, 7))) == Fraction(-22, 7)


_BIG = 1 << 200
_FRACTIONS = st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG))


@given(
    st.one_of(
        st.integers(-_BIG, _BIG),
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
        _FRACTIONS,
        _FRACTIONS.map(lambda f: f"{f.numerator * 3}/{f.denominator * 3}"),
        st.sampled_from([0, 0.0, -0.0, False, "0/5", "-0/1", Fraction(0), Fraction(0, -7)]),
    )
)
def test_format_ratio_matches_fraction_copy(value):
    """Fractions are written as they are and other values after coercion, as Fraction(value) writes them."""
    copy = Fraction(value)
    assert format_ratio(value) == f"{copy.numerator}/{copy.denominator}"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ratio("1/0")
    with pytest.raises(ValueError):
        parse_ratio("abc")


@pytest.mark.parametrize("text", ["1e400", "1E5", "2.5e-3", " 3e2 ", "-1e0"])
def test_parse_rejects_exponent_notation(text):
    with pytest.raises(ValueError, match="bad rational literal"):
        parse_ratio(text)


@pytest.mark.parametrize("m,p,expected", [(0, 3, 0), (1, 5, 1), (8, 3, 2), (9, 2, 3), (26, 3, 2), (27, 3, 3)])
def test_int_nth_root_floor(m, p, expected):
    assert int_nth_root_floor(m, p) == expected


@given(st.integers(min_value=0, max_value=1 << 5000), st.integers(min_value=1, max_value=8))
def test_int_nth_root_floor_brackets_large_m(m, p):
    """Exact far past float range: a float first guess overflows at m >= 2^1024."""
    r = int_nth_root_floor(m, p)
    assert r**p <= m < (r + 1) ** p


def test_int_root_ceil():
    assert int_root_ceil(Fraction(8), 2) == 3
    assert int_root_ceil(Fraction(9), 2) == 3
    assert int_root_ceil(Fraction(1, 2), 4) == 1
    assert int_root_ceil(Fraction(54), 2) == 8


def test_rational_root_ceil_is_tight():
    for value in (Fraction(53), Fraction(2), Fraction(5, 7)):
        for p in (1, 2, 3):
            root = rational_root_ceil(value, p)
            assert root**p >= value
            assert (root - Fraction(1, 64)) ** p < value or root == Fraction(1, 64)


def test_pth_power_split_exact():
    for value, p in [(Fraction(8), 2), (Fraction(54), 2), (Fraction(5, 3), 4), (Fraction(1), 3), (Fraction(1000), 3)]:
        k, s = pth_power_split(value, p)
        assert k * s**p == value
        assert k >= 1 and s > 0
    # 8 = 2 * 2**2: the square part comes out
    assert pth_power_split(Fraction(8), 2) == (2, Fraction(2))
