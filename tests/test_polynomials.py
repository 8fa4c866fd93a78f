from fractions import Fraction
from math import isqrt

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbonacci import AuxPoly, CharPoly, Quadratic, SequenceParams, dominant_root
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


# q 3-10 x k 2-64, the cells the exact Lemma laws are pinned on
KERNEL_CELLS = [(q, k) for q in range(3, 11) for k in range(2, 65)]


def kernel_quadratics(q, k):
    """Q, D, and the weight bounds' D - (q+1)(t-1) and D - q(t-1)."""
    d = Quadratic.weight_denominator(q, k)
    return {"Q": Quadratic.companion(q), "D": d,
            "D - (q+1)(t-1)": Quadratic(d.a, d.b - q - 1, d.c + q + 1),
            "D - q(t-1)": Quadratic(d.a, d.b - q, d.c + q)}


def enclosure_disagreements(sign_at):
    """The (q, k, quadratic, upper) of the kernel cells at which
    sign_at(quad, u, v, upper) on Phi reduced by the quadratic differs from
    the sign of Phi at both ends of the root's 512-bit enclosure."""
    found = []
    for q, k in KERNEL_CELLS:
        phi = CharPoly.of(SequenceParams(q, k))
        for name, quad in kernel_quadratics(q, k).items():
            u, v = quad.reduce(phi.coefficients)
            for upper in (True, False):
                root = quad.root(upper, 512)
                ends = {phi.sign_at_dyadic(root.lo_num, root.bits),
                        phi.sign_at_dyadic(root.hi_num, root.bits)}
                # no root of Phi lies within 2^-512 of these roots
                assert len(ends) == 1 and 0 not in ends, (q, k, name, upper)
                if sign_at(quad, u, v, upper) not in ends:
                    found.append((q, k, name, upper))
    return found


def rational_root_quadratics():
    """a (t - r1)(t - r2) for rationals r1 = n1/d1 and r2 = n2/d2, as
    Quadratic(d1 d2, -(n1 d2 + n2 d1), n1 n2), with its roots."""
    return st.tuples(st.integers(-40, 40), st.integers(1, 12),
                     st.integers(-40, 40), st.integers(1, 12)).map(
        lambda r: (Quadratic(r[1] * r[3], -(r[0] * r[3] + r[2] * r[1]), r[0] * r[2]),
                   sorted((Fraction(r[0], r[1]), Fraction(r[2], r[3])))))


class TestQuadratic:
    def test_kernel_signs_match_enclosures(self):
        assert enclosure_disagreements(Quadratic.sign_at) == []

    def test_wrong_root_branch_is_caught(self):
        # the mutation reads each sign at the other root; the roots of D and
        # D - q(t-1) all lie below gamma, so it shows where a root is above
        wrong = enclosure_disagreements(lambda quad, u, v, upper: quad.sign_at(u, v, not upper))
        assert len(wrong) == len(KERNEL_CELLS) * 2 * 2
        assert {name for _, _, name, _ in wrong} == {"Q", "D - (q+1)(t-1)"}

    def test_perfect_square_discriminants_are_covered(self):
        # D's upper root is rational on 18 of the cells, where u + v c can
        # only be told from zero by the exact comparison of squares
        squares = [(q, k) for q, k in KERNEL_CELLS
                   if isqrt(Quadratic.weight_denominator(q, k).disc) ** 2
                   == Quadratic.weight_denominator(q, k).disc]
        assert len(squares) == 18
        for q, k in squares:
            d = Quadratic.weight_denominator(q, k)
            c = Fraction(-d.b + isqrt(d.disc), 2 * d.a)
            phi = CharPoly.of(SequenceParams(q, k))
            u, v = d.reduce(phi.coefficients)
            assert u + v * c == phi.eval(c) * d.a ** k
            assert d.sign_at(u, v, True) == -1

    @given(case=rational_root_quadratics(),
           coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    @example(case=(Quadratic(1, -5, 6), [Fraction(2), Fraction(3)]), coeffs=[-3, 1])
    @example(case=(Quadratic(1, -5, 6), [Fraction(2), Fraction(3)]), coeffs=[-2, 1])
    @example(case=(Quadratic(4, -4, 1), [Fraction(1, 2), Fraction(1, 2)]), coeffs=[-1, 2])
    def test_reduce_and_sign_at_rational_roots(self, case, coeffs):
        # at a rational root P times a^deg is u + v rho exactly, and sign_at
        # is its sign, zero included
        quad, (lower, upper) = case
        u, v = quad.reduce(coeffs)
        for root, is_upper in ((lower, False), (upper, True)):
            value = sum(c * root**i for i, c in enumerate(coeffs)) * quad.a ** (len(coeffs) - 1)
            assert u + v * root == value
            assert quad.sign_at(u, v, is_upper) == (value > 0) - (value < 0)

    def test_false_weight_claim_is_certified_false(self):
        # 1/(q+1) < g(gamma) holds as gamma lies below the upper root of
        # D - (q+1)(t-1), where Phi is positive: the reversed claim
        # g(gamma) < 1/(q+1), which needs Phi < 0 there, is false on every cell
        for q, k in KERNEL_CELLS:
            quad = kernel_quadratics(q, k)["D - (q+1)(t-1)"]
            u, v = quad.reduce(CharPoly.of(SequenceParams(q, k)).coefficients)
            assert quad.sign_at(u, v, True) == 1, (q, k)

    def test_root_holds_the_root(self):
        # a root's enclosure at 2^-(bits + 4) is at most two units wide and
        # holds it: the quadratic changes sign across it, or is zero at an end
        for q, k in KERNEL_CELLS[::7]:
            for quad in kernel_quadratics(q, k).values():
                poly = (quad.c, quad.b, quad.a)
                for upper in (True, False):
                    root = quad.root(upper, 64)
                    assert root.bits == 68 and root.hi_num - root.lo_num <= 2
                    lo = exact_sign(poly, root.lo_num, root.bits)
                    hi = exact_sign(poly, root.hi_num, root.bits)
                    assert lo * hi <= 0, (q, k, quad, upper)
