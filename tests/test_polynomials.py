from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qkbonacci import AuxPoly, CharPoly, SequenceParams


def poly_times_t_minus_1(coefficients):
    # (t - 1) * p(t), ascending coefficients
    shifted = (0,) + tuple(coefficients)
    negated = tuple(-c for c in coefficients) + (0,)
    return tuple(s + n for s, n in zip(shifted, negated))


class TestShapes:
    def test_char_poly_coefficients(self):
        phi = CharPoly.of(SequenceParams(3, 2))
        assert phi.coefficients == (-1, -3, 1)
        phi5 = CharPoly.of(SequenceParams(4, 5))
        assert phi5.coefficients == (-1, -1, -1, -1, -4, 1)
        assert phi5.degree == 5
        assert phi5.coefficients[-1] == 1
        assert phi5.coefficients[0] == -1

    def test_aux_poly_coefficients(self):
        h = AuxPoly.of(SequenceParams(3, 2))
        assert h.coefficients == (1, 2, -4, 1)
        h4 = AuxPoly.of(SequenceParams(5, 4))
        assert h4.coefficients == (1, 0, 0, 4, -6, 1)
        assert h4.degree == 5


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


class TestAuxIdentity:
    def test_h_equals_t_minus_1_times_phi_full_grid(self):
        for q in range(1, 11):
            for k in range(2, 17):
                params = SequenceParams(q, k)
                phi = CharPoly.of(params)
                aux = AuxPoly.of(params)
                assert poly_times_t_minus_1(phi.coefficients) == aux.coefficients

    def test_derivative_coefficients(self):
        phi = CharPoly.of(SequenceParams(3, 2))
        # d/dt (t^2 - 3t - 1) = 2t - 3
        assert phi.derivative_coefficients() == (-3, 2)
