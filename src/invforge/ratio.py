"""Rational and integer parsing, formatting and exact integer-root helpers."""

from __future__ import annotations

from fractions import Fraction


P_MAX = 64  # the largest norm exponent accepted; a constant, not an enumeration cap


def check_p(p: int) -> int:
    """p if 1 <= p <= P_MAX, else a ValueError naming p, before any input is raised to p."""
    if not 1 <= p <= P_MAX:
        raise ValueError(f"p = {p} is outside [1, {P_MAX}]")
    return p


def parse_ratio(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer) into a Fraction.

    Exponent notation is refused before Fraction sees it: Fraction would
    expand "1e100000000" into a hundred-million-digit integer.
    """
    try:
        if "e" in text.lower():
            raise ValueError("exponent notation")
        return Fraction(text.strip())
    except (AttributeError, ValueError, ZeroDivisionError) as exc:  # AttributeError: not a str
        raise ValueError(f"bad rational literal: {text!r}") from exc


def json_int(doc, key: str) -> int:
    """doc[key] if it is a JSON integer; a bool, float or string is refused, not truncated."""
    value = doc[key]
    if type(value) is not int:
        raise ValueError(f"{key} {value!r} is not an integer")
    return value


def format_ratio(value) -> str:
    """Canonical "num/den" form in lowest terms, always with a denominator; zero is "0/1"."""
    frac = value if isinstance(value, Fraction) else Fraction(value)
    return f"{frac.numerator}/{frac.denominator}" if frac else "0/1"


def scaled_int(x, lam: int) -> int:
    """x * lam as an int, for a rational x whose denominator divides lam."""
    return x.numerator * (lam // x.denominator)


def int_nth_root_floor(m: int, p: int) -> int:
    """Largest integer r with r**p <= m, for m >= 0 and p >= 1."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if p < 1:
        raise ValueError("p must be positive")
    if m < 2 or p == 1:
        return m
    # Integer Newton from above: r**p > m at the start. By AM-GM no step
    # falls below the root, and every step from above the root falls.
    r = 1 << -(-m.bit_length() // p)
    while True:
        s = ((p - 1) * r + m // r ** (p - 1)) // p
        if s >= r:
            return r
        r = s


def int_root_ceil(value, p: int) -> int:
    """Smallest positive integer b with b**p >= value."""
    value = Fraction(value)
    if value <= 1:
        return 1
    ceil_value = -(-value.numerator // value.denominator)
    b = int_nth_root_floor(ceil_value, p)
    while Fraction(b) ** p < value:
        b += 1
    return b


def rational_root_ceil(value, p: int) -> Fraction:
    """Smallest k/64 (k >= 1) whose p-th power is >= value."""
    value = Fraction(value)
    if value <= 0:
        return Fraction(1, 64)
    hi = int_root_ceil(value, p) * 64
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if Fraction(mid, 64) ** p >= value:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, 64)


def pth_power_split(value, p: int) -> tuple[int, Fraction]:
    """Write a positive rational as k * s**p with integer k and rational s.

    k is kept as small as trial-division factoring up to 100,000
    allows; an unfactored leftover that is not itself a perfect p-th power
    is absorbed into k. Exactness always holds: k * s**p == value.
    """
    value = Fraction(value)
    if value <= 0:
        raise ValueError("value must be positive")
    if p < 1:
        raise ValueError("p must be positive")
    num, den = value.numerator, value.denominator
    base = num * den ** (p - 1)
    s = Fraction(1, den)
    k = 1

    remainder = base
    factor = 2
    exponents: dict[int, int] = {}
    while factor * factor <= remainder and factor <= 100_000:
        while remainder % factor == 0:
            exponents[factor] = exponents.get(factor, 0) + 1
            remainder //= factor
        factor += 1 if factor == 2 else 2
    if remainder > 1:
        root = int_nth_root_floor(remainder, p)
        if root**p == remainder:
            s *= root
        else:
            k *= remainder
    for prime, exponent in exponents.items():
        s *= Fraction(prime) ** (exponent // p)
        k *= prime ** (exponent % p)
    assert k * s**p == value
    return k, s
