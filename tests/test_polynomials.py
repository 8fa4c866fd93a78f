from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbonacci import AuxPoly, CharPoly, SequenceParams, dominant_root
from qkbonacci.numerics.polynomials import _IntPoly

from _oracles import exact_sign


def poly_times_t_minus_1(coefficients):
    # (t - 1) * p(t), ascending coefficients
    shifted = (0,) + tuple(coefficients)
    negated = tuple(-c for c in coefficients) + (0,)
    return tuple(s + n for s, n in zip(shifted, negated))


def near_zero_coefficients(num, scale, degree, value):
    """Coefficients whose polynomial is exactly value * 2^-(degree*scale)
    at t = num * 2^-scale, for odd num: c_degree .. c_1 are chosen in
    [0, 2^scale) from the lowest bits up, and c_0 takes what is left.

    For |value| small and scale > 64 that is below the fixed-point
    rounding of sign_at_dyadic, which only its error bound then catches.
    """
    mod = 1 << scale
    coeffs = [0] * (degree + 1)
    rest = value
    for i in range(degree, 0, -1):
        power = num**i
        coeffs[i] = rest * pow(power, -1, mod) % mod
        rest = (rest - coeffs[i] * power) >> scale  # exact division
    coeffs[0] = rest
    return tuple(coeffs)


def dyadic_points(min_scale, max_scale, min_t, max_t):
    """(num, scale) with scale in [min_scale, max_scale] and num anywhere
    in [min_t, max_t] * 2^scale."""
    return st.integers(min_scale, max_scale).flatmap(
        lambda s: st.tuples(st.integers(min_t << s, max_t << s), st.just(s)))


POLY_KINDS = st.sampled_from((CharPoly, AuxPoly))


class TestShapes:
    def test_char_poly_coefficients(self):
        phi = CharPoly.of(SequenceParams(3, 2))
        assert phi.coefficients == (-1, -3, 1)
        phi5 = CharPoly.of(SequenceParams(4, 5))
        assert phi5.coefficients == (-1, -1, -1, -1, -4, 1)
        assert phi5.coefficients[-1] == 1
        assert phi5.coefficients[0] == -1

    def test_aux_poly_coefficients(self):
        h = AuxPoly.of(SequenceParams(3, 2))
        assert h.coefficients == (1, 2, -4, 1)
        h4 = AuxPoly.of(SequenceParams(5, 4))
        assert h4.coefficients == (1, 0, 0, 4, -6, 1)


class TestEvaluation:
    def test_spec_values(self):
        phi = CharPoly.of(SequenceParams(3, 2))
        aux = AuxPoly.of(SequenceParams(3, 2))
        assert phi.eval(3) == -1
        assert aux.eval(1) == 0
        assert phi.eval(4) == 3

    def test_phi_at_q_is_negative_geometric_sum(self):
        for q in (3, 5, 9):
            for k in (2, 4, 7):
                phi = CharPoly.of(SequenceParams(q, k))
                assert phi.eval(q) == -sum(q**i for i in range(k - 1))

    def test_rational_points(self):
        phi = CharPoly.of(SequenceParams(3, 2))
        x = Fraction(7, 2)
        assert phi.eval(x) == x * x - 3 * x - 1

    @given(num=st.integers(-(2**20), 2**20), scale=st.integers(0, 24),
           q=st.integers(1, 6), k=st.integers(2, 7))
    @settings(max_examples=120, deadline=None)
    def test_dyadic_sign_matches_exact(self, num, scale, q, k):
        phi = CharPoly.of(SequenceParams(q, k))
        value = phi.eval(Fraction(num, 1 << scale))
        assert phi.sign_at_dyadic(num, scale) == (value > 0) - (value < 0)


class TestSignAtDyadic:
    """sign_at_dyadic against exact_sign, an integer sum of explicit
    powers that shares no code with it."""

    @given(kind=POLY_KINDS, q=st.integers(1, 10), k=st.integers(2, 32),
           point=dyadic_points(0, 4096, -12, 12))
    # t = 1 is an exact zero of AuxPoly, so neither fixed-point test holds
    @example(kind=AuxPoly, q=3, k=5, point=(1 << 4096, 4096))
    @example(kind=AuxPoly, q=10, k=32, point=(1 << 4096, 4096))
    @example(kind=AuxPoly, q=1, k=2, point=(1, 0))
    @example(kind=AuxPoly, q=3, k=5, point=((1 << 4096) + 1, 4096))
    @example(kind=AuxPoly, q=3, k=5, point=((1 << 4096) - 1, 4096))
    @example(kind=CharPoly, q=4, k=9, point=(-(5 << 4096) - 1, 4096))
    @example(kind=CharPoly, q=2, k=7, point=(0, 4096))
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_anywhere(self, kind, q, k, point):
        poly = kind.of(SequenceParams(q, k))
        num, scale = point
        assert poly.sign_at_dyadic(num, scale) == exact_sign(poly.coefficients, num, scale)

    @given(kind=POLY_KINDS, q=st.integers(1, 10), k=st.integers(2, 32),
           scale=st.integers(0, 4096), delta=st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_next_to_gamma(self, kind, q, k, scale, delta):
        # floor(gamma * 2^scale) is the lower end of the dominant_root
        # cell at that scale, or of its descendant below 8 bits
        params = SequenceParams(q, k)
        cell = dominant_root(params, max(scale, 8)).interval
        num = (cell.lo_num >> (cell.bits - scale)) + delta
        poly = kind.of(params)
        assert poly.sign_at_dyadic(num, scale) == exact_sign(poly.coefficients, num, scale)

    @given(point=dyadic_points(65, 600, 1, 16), degree=st.integers(3, 10),
           value=st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_values_below_the_rounding_are_decided_exactly(self, point, degree, value):
        # t in [1, 16], where the rounding loss grows like t^degree
        num, scale = point[0] | 1, point[1]
        coeffs = near_zero_coefficients(num, scale, degree, value)
        poly = _IntPoly(SequenceParams(3, 2), coeffs)
        expected = (value > 0) - (value < 0)
        assert exact_sign(coeffs, num, scale) == expected
        assert poly.sign_at_dyadic(num, scale) == expected


class TestAuxIdentity:
    def test_h_equals_t_minus_1_times_phi_full_grid(self):
        for q in range(1, 11):
            for k in range(2, 17):
                params = SequenceParams(q, k)
                phi = CharPoly.of(params)
                aux = AuxPoly.of(params)
                assert poly_times_t_minus_1(phi.coefficients) == aux.coefficients
