"""Outward-rounded interval arithmetic over dyadic rationals.

An interval stores two integer mantissas at a shared power-of-two scale:
``DyadicInterval(lo_num, hi_num, bits)`` stands for the closed interval
[lo_num * 2^-bits, hi_num * 2^-bits].  Every operation rounds the lower
endpoint toward -inf and the upper endpoint toward +inf, so the true real
result of the corresponding exact operation is always contained in the
output.  That directed rounding is what makes strict-inequality
certificates meaningful: if two intervals are separated, the underlying
reals are provably ordered.  The arithmetic takes another interval or an
int; the comparisons also take a Fraction.

Intervals are immutable and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal,
                     Inexact, Overflow, Rounded, localcontext)
from fractions import Fraction
from math import isqrt

__all__ = ["DyadicInterval"]


def _floor_shift(x: int, shift: int) -> int:
    # Python's >> floors for negative ints, which is exactly rounding down.
    return x >> shift if shift >= 0 else x << -shift


def _ceil_shift(x: int, shift: int) -> int:
    if shift <= 0:
        return x << -shift
    return -((-x) >> shift)


def _floor_scaled(value: Fraction, bits: int) -> int:
    return (value.numerator << bits) // value.denominator


def _ceil_scaled(value: Fraction, bits: int) -> int:
    return -(((-value.numerator) << bits) // value.denominator)


def _scaled_diff(num: int, bits: int, value) -> int:
    """An integer with the sign of num * 2^-bits - value, for an exact
    number value; cross-multiplied, so no Fraction is built for an int
    or a Fraction."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return num * value.denominator - (value.numerator << bits)


def _float_text(value, spec: str, rounding: str = ROUND_CEILING) -> str:
    """``format(float(value), spec)`` for an exact number; past the float
    range, as many significant digits rounded in the given direction,
    which a decimal context with an unbounded exponent computes without
    overflow.  The default direction suits magnitudes; spec "" gives
    ``str(float)`` text and 17 digits past the range."""
    try:
        return format(float(value), spec)
    except OverflowError:
        precision, kind = (int(spec[1:-1]), spec[-1]) if spec else (17, "g")
        digits = precision + (kind == "e")
        with localcontext(Context(prec=digits, rounding=rounding, Emax=MAX_EMAX)):
            quotient = Decimal(value.numerator) / value.denominator
            return format(quotient.normalize(), f".{precision}{kind}")


# Decimal arithmetic that cannot round: any result that would need more
# than MAX_PREC digits raises instead of printing a wrong digit.  It is
# entered by localcontext, which works on a copy and restores the
# caller's context.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, Overflow],
)

# ints up to this many bits go to Decimal directly; _int_str splits
# larger ones
_PIECE_BITS = 2048


def _int_str(n: int) -> str:
    """str(n) without CPython's int to str, which is quadratic in the
    digits.

    n = hi * 2^w + lo is split by shifts down to pieces of at most
    _PIECE_BITS bits, each piece is converted by Decimal(piece), and the
    pieces are recombined as hi * 2^w + lo in exact Decimal, whose
    products are subquadratic and whose str() is linear.
    """
    powers = {}  # w -> 2^w as a Decimal; each level of the split has two w

    def power(w):
        if w not in powers:
            powers[w] = (Decimal(1 << w) if w <= _PIECE_BITS
                         else power(w >> 1) * power(w - (w >> 1)))
        return powers[w]

    def convert(m, bits):
        # m = hi * 2^w + lo with 0 <= lo < 2^w holds for either sign of m
        if bits <= _PIECE_BITS:
            return Decimal(m)
        w = bits >> 1
        hi = m >> w
        return convert(hi, bits - w) * power(w) + convert(m - (hi << w), w)

    with localcontext(_EXACT):
        return str(convert(n, n.bit_length()))


def _directed_decimal(num: int, bits: int, digits: int, round_up: bool) -> str:
    """num * 2^-bits to `digits` decimal places, rounded down or up."""
    scaled = num * 10**digits
    n = _ceil_shift(scaled, bits) if round_up else _floor_shift(scaled, bits)
    sign = "-" if n < 0 else ""
    text = _int_str(abs(n)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


@dataclass(frozen=True)
class DyadicInterval:
    lo_num: int
    hi_num: int
    bits: int

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be a positive integer")
        if self.lo_num > self.hi_num:
            raise ValueError("interval endpoints out of order")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_int(cls, value: int, bits: int) -> "DyadicInterval":
        return cls(value << bits, value << bits, bits)

    @classmethod
    def from_fraction(cls, value, bits: int) -> "DyadicInterval":
        """Tightest enclosure of an exact rational on the 2^-bits grid."""
        value = Fraction(value)
        return cls(_floor_scaled(value, bits), _ceil_scaled(value, bits), bits)

    @classmethod
    def from_bounds(cls, lo, hi, bits: int) -> "DyadicInterval":
        """Outward-rounded enclosure of the rational interval [lo, hi]."""
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        return cls(_floor_scaled(lo, bits), _ceil_scaled(hi, bits), bits)

    @classmethod
    def sqrt_of_int(cls, value: int, bits: int) -> "DyadicInterval":
        """Enclosure of sqrt(value) for a nonnegative integer, via isqrt."""
        if value < 0:
            raise ValueError("square root of a negative integer")
        m = value << (2 * bits)
        s = isqrt(m)
        return cls(s, s if s * s == m else s + 1, bits)

    # ------------------------------------------------------------------
    # views (for output; the comparisons read the integer mantissas)
    # ------------------------------------------------------------------
    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, 1 << self.bits)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, 1 << self.bits)

    @property
    def width(self) -> Fraction:
        return Fraction(self.hi_num - self.lo_num, 1 << self.bits)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(self.lo_num + self.hi_num, 1 << (self.bits + 1))

    def contains(self, value) -> bool:
        return (_scaled_diff(self.lo_num, self.bits, value) <= 0
                <= _scaled_diff(self.hi_num, self.bits, value))

    def strictly_below(self, other) -> bool:
        """Certified ``self < other`` (interval or exact number)."""
        if isinstance(other, DyadicInterval):
            _, b, c, _, _ = self._aligned(other)
            return b < c
        return _scaled_diff(self.hi_num, self.bits, other) < 0

    def strictly_above(self, other) -> bool:
        if isinstance(other, DyadicInterval):
            a, _, _, d, _ = self._aligned(other)
            return a > d
        return _scaled_diff(self.lo_num, self.bits, other) > 0

    def is_positive(self) -> bool:
        return self.lo_num > 0

    def is_negative(self) -> bool:
        return self.hi_num < 0

    def __repr__(self):
        return (
            f"DyadicInterval({_float_text(self.lo, '.17g', ROUND_FLOOR)}, "
            f"{_float_text(self.hi, '.17g')}, bits={self.bits})"
        )

    def decimal_bounds(self, digits: int) -> tuple[str, str]:
        """Decimal endpoints, lower rounded down and upper rounded up."""
        return (
            _directed_decimal(self.lo_num, self.bits, digits, round_up=False),
            _directed_decimal(self.hi_num, self.bits, digits, round_up=True),
        )

    # ------------------------------------------------------------------
    # arithmetic (all outward-rounded)
    # ------------------------------------------------------------------
    def _aligned(self, other: "DyadicInterval"):
        bits = max(self.bits, other.bits)
        a = self.lo_num << (bits - self.bits)
        b = self.hi_num << (bits - self.bits)
        c = other.lo_num << (bits - other.bits)
        d = other.hi_num << (bits - other.bits)
        return a, b, c, d, bits

    def __neg__(self) -> "DyadicInterval":
        return DyadicInterval(-self.hi_num, -self.lo_num, self.bits)

    def __add__(self, other) -> "DyadicInterval":
        if isinstance(other, DyadicInterval):
            a, b, c, d, bits = self._aligned(other)
            return DyadicInterval(a + c, b + d, bits)
        if isinstance(other, int):
            shift = other << self.bits
            return DyadicInterval(self.lo_num + shift, self.hi_num + shift, self.bits)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "DyadicInterval":
        if isinstance(other, (DyadicInterval, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "DyadicInterval":
        return (-self) + other

    def __mul__(self, other) -> "DyadicInterval":
        if isinstance(other, DyadicInterval):
            a, b, c, d, bits = self._aligned(other)
            products = (a * c, a * d, b * c, b * d)
            return DyadicInterval(
                _floor_shift(min(products), bits),
                _ceil_shift(max(products), bits),
                bits,
            )
        if isinstance(other, int):
            if other >= 0:
                return DyadicInterval(self.lo_num * other, self.hi_num * other, self.bits)
            return DyadicInterval(self.hi_num * other, self.lo_num * other, self.bits)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self) -> "DyadicInterval":
        """1/self for a sign-definite interval."""
        if self.lo_num > 0:
            one = 1 << (2 * self.bits)
            return DyadicInterval(
                one // self.hi_num, -((-one) // self.lo_num), self.bits
            )
        if self.hi_num < 0:
            return -((-self).reciprocal())
        raise ZeroDivisionError("reciprocal of an interval containing zero")

    def __truediv__(self, other) -> "DyadicInterval":
        if isinstance(other, DyadicInterval):
            return self * other.reciprocal()
        return NotImplemented

    def __pow__(self, exponent: int) -> "DyadicInterval":
        """Integer power by repeated squaring; negative via reciprocal."""
        if exponent < 0:
            return (self ** (-exponent)).reciprocal()
        result = DyadicInterval.from_int(1, self.bits)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def half(self) -> "DyadicInterval":
        """Exact division by two (the scale just deepens by one bit)."""
        return DyadicInterval(self.lo_num, self.hi_num, self.bits + 1)

    def rescaled(self, bits: int) -> "DyadicInterval":
        """Outward re-rounding onto the 2^-bits grid."""
        shift = self.bits - bits
        return DyadicInterval(
            _floor_shift(self.lo_num, shift), _ceil_shift(self.hi_num, shift), bits
        )
