from decimal import ROUND_FLOOR, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbonacci import DyadicInterval, SequenceParams, binet_dominant
from qkbonacci.numerics.dyadic import _float_text

from _oracles import directed_decimal_text


rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=2**20
)


def interval_around(value: Fraction, bits: int = 48) -> DyadicInterval:
    return DyadicInterval.from_fraction(value, bits)


# small mantissas at mixed scales, so that endpoints of different
# intervals and numbers often coincide exactly
dyadics = st.builds(
    lambda lo, width, bits: DyadicInterval(lo, lo + width, bits),
    st.integers(-(1 << 12), 1 << 12), st.integers(0, 1 << 6), st.integers(1, 12),
)
exact_numbers = st.one_of(
    st.integers(-20, 20),
    st.builds(lambda num, scale: Fraction(num, 1 << scale),
              st.integers(-(1 << 12), 1 << 12), st.integers(0, 14)),
    st.fractions(min_value=-20, max_value=20, max_denominator=1000),
)


@st.composite
def interval_and_number(draw):
    x = draw(dyadics)
    value = draw(st.one_of(exact_numbers, st.sampled_from((x.lo, x.hi))))
    return x, value


class TestConstruction:
    def test_from_fraction_is_outward(self):
        x = DyadicInterval.from_fraction(Fraction(1, 3), 8)
        assert x.lo <= Fraction(1, 3) <= x.hi
        assert x.width == Fraction(1, 256)

    def test_exact_dyadic_is_a_point(self):
        x = DyadicInterval.from_fraction(Fraction(5, 8), 8)
        assert x.lo == x.hi == Fraction(5, 8)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            DyadicInterval(2, 1, 8)

    def test_sqrt_of_int(self):
        x = DyadicInterval.sqrt_of_int(2, 64)
        assert x.lo * x.lo <= 2 <= x.hi * x.hi
        assert x.width <= Fraction(1, 2**64)
        exact = DyadicInterval.sqrt_of_int(9, 16)
        assert exact.lo == exact.hi == 3


class TestComparisons:
    def test_strict_separation(self):
        a = DyadicInterval.from_bounds(Fraction(1), Fraction(2), 16)
        b = DyadicInterval.from_bounds(Fraction(3), Fraction(4), 16)
        assert a.strictly_below(b)
        assert b.strictly_above(a)
        assert not a.strictly_below(Fraction(3, 2))
        assert a.strictly_below(Fraction(5, 2))

    @given(x=dyadics, y=dyadics)
    @settings(max_examples=300, deadline=None)
    def test_interval_comparisons_match_fraction_views(self, x, y):
        assert x.strictly_below(y) == (x.hi < y.lo)
        assert x.strictly_above(y) == (x.lo > y.hi)

    @given(case=interval_and_number())
    @settings(max_examples=300, deadline=None)
    def test_number_comparisons_match_fraction_views(self, case):
        x, value = case
        assert x.strictly_below(value) == (x.hi < value)
        assert x.strictly_above(value) == (x.lo > value)
        assert x.contains(value) == (x.lo <= value <= x.hi)

    def test_contains(self):
        x = DyadicInterval.from_bounds(Fraction(-1), Fraction(1), 8)
        assert x.contains(0)
        assert x.contains(Fraction(-1))
        assert not x.contains(Fraction(9, 8))


class TestArithmetic:
    @given(a=rationals, b=rationals)
    @settings(max_examples=200, deadline=None)
    def test_add_sub_mul_contain_exact(self, a, b):
        x, y = interval_around(a), interval_around(b)
        assert (x + y).contains(a + b)
        assert (x - y).contains(a - b)
        assert (x * y).contains(a * b)

    @given(a=rationals, b=rationals)
    @settings(max_examples=100, deadline=None)
    def test_midpoint_containment(self, a, b):
        # spot-evaluation at the operand midpoints lies in every output
        x, y = interval_around(a), interval_around(b)
        mx, my = x.midpoint, y.midpoint
        assert (x + y).contains(mx + my)
        assert (x * y).contains(mx * my)
        assert (-x).contains(-mx)

    @given(a=rationals.filter(lambda f: abs(f) > Fraction(1, 100)))
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_contains_exact(self, a):
        x = interval_around(a, bits=60)
        if x.is_positive() or x.is_negative():
            assert x.reciprocal().contains(1 / a)

    def test_reciprocal_rejects_zero_straddle(self):
        x = DyadicInterval.from_bounds(Fraction(-1), Fraction(1), 8)
        with pytest.raises(ZeroDivisionError):
            x.reciprocal()

    @given(
        a=rationals.filter(lambda f: Fraction(1, 50) < abs(f) < 40),
        n=st.integers(-6, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_pow_contains_exact(self, a, n):
        x = interval_around(a, bits=80)
        assert (x**n).contains(a**n)

    def test_pow_zero_is_one(self):
        x = interval_around(Fraction(7, 3))
        p = x**0
        assert p.lo == p.hi == 1

    def test_scalar_ops(self):
        x = interval_around(Fraction(5, 7), bits=40)
        assert (x + 3).contains(Fraction(5, 7) + 3)
        assert (x * -2).contains(Fraction(-10, 7))
        assert (3 - x).contains(Fraction(16, 7))

    @given(a=rationals, b=rationals.filter(lambda f: abs(f) > Fraction(1, 100)))
    @settings(max_examples=100, deadline=None)
    def test_interval_division_contains_exact(self, a, b):
        x, y = interval_around(a, bits=60), interval_around(b, bits=60)
        if y.is_positive() or y.is_negative():
            assert (x / y).contains(a / b)

    def test_half_is_exact(self):
        x = DyadicInterval.from_bounds(Fraction(1), Fraction(3), 8)
        h = x.half()
        assert h.lo == Fraction(1, 2) and h.hi == Fraction(3, 2)

    def test_widths_never_shrink_true_range(self):
        # interval product of [1,2] and [-3,4] must cover all sign cases
        x = DyadicInterval.from_bounds(Fraction(1), Fraction(2), 16)
        y = DyadicInterval.from_bounds(Fraction(-3), Fraction(4), 16)
        p = x * y
        assert p.lo <= -6 and p.hi >= 8

    def test_rescaled_outward(self):
        x = DyadicInterval.from_fraction(Fraction(1, 3), 64)
        r = x.rescaled(8)
        assert r.lo <= x.lo and r.hi >= x.hi
        assert r.bits == 8


class TestDecimal:
    def test_directed_decimal_endpoints(self):
        x = DyadicInterval.from_fraction(Fraction(1, 3), 30)
        lo, hi = x.decimal_bounds(6)
        assert lo == "0.333333"
        assert hi == "0.333334"

    def test_negative_values(self):
        x = DyadicInterval.from_fraction(Fraction(-1, 3), 30)
        lo, hi = x.decimal_bounds(4)
        assert lo == "-0.3334"
        assert hi == "-0.3333"

    @given(case=st.builds(
        lambda bits, rng, lo_size, spread, digits: (
            DyadicInterval(lo := rng.getrandbits(lo_size) - rng.getrandbits(lo_size),
                           lo + rng.getrandbits(spread), bits),
            int(bits * 0.30103) + 1 if digits is None else digits),
        st.integers(1, 20_000), st.randoms(use_true_random=False),
        st.integers(0, 20_064), st.integers(0, 20_064), st.none() | st.integers(0, 40)))
    @settings(max_examples=60, deadline=None)
    @example(case=(DyadicInterval(-3, 5, 2), 0))
    @example(case=(DyadicInterval(-1, 1, 1), 1))
    @example(case=(DyadicInterval(0, 0, 7), 0))
    @example(case=(DyadicInterval(-(3 << 19_990), 7 << 19_990, 20_000), 6_022))
    @example(case=(DyadicInterval((1 << 20_000) + 1, (1 << 20_001) - 1, 20_000), 6_022))
    def test_bounds_are_fraction_floor_and_ceiling(self, case):
        x, digits = case
        assert x.decimal_bounds(digits) == (directed_decimal_text(x.lo, digits, round_up=False),
                                            directed_decimal_text(x.hi, digits, round_up=True))


class TestRepr:
    def test_float_range_text(self):
        x = DyadicInterval.from_fraction(Fraction(1, 3), 8)
        assert repr(x) == "DyadicInterval(0.33203125, 0.3359375, bits=8)"

    def test_beyond_float_range(self):
        # g(gamma) * gamma^900 is about 2.7e466, past the largest float
        dominant = binet_dominant(SequenceParams(3, 2), 900, 64)
        assert "DyadicInterval(2.71765002217695" in repr(dominant)
        term = dominant.interval
        lo_text, hi_text, _ = repr(term)[len("DyadicInterval("):].split(", ")
        assert lo_text.endswith("e+466") and hi_text.endswith("e+466")
        # the endpoints are rounded outward
        assert Fraction(Decimal(lo_text)) <= term.lo
        assert Fraction(Decimal(hi_text)) >= term.hi
        assert repr(-term) == f"DyadicInterval(-{hi_text}, -{lo_text}, bits={term.bits})"

    @pytest.mark.parametrize("spec", ["", ".3g", ".6g", ".1e", ".3e"])
    def test_witness_text(self, spec):
        # in range it is the float's text; past it, as many digits
        # rounded in the given direction
        assert _float_text(Fraction(1, 3), spec) == format(1 / 3, spec)
        huge = Fraction(10**400, 3)
        lo, hi = _float_text(huge, spec, ROUND_FLOOR), _float_text(huge, spec)
        assert lo.endswith("e+399") and hi.endswith("e+399")
        assert Fraction(Decimal(lo)) < huge < Fraction(Decimal(hi))
