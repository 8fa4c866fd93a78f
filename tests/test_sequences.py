import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbonacci import (
    CompanionKind,
    DomainError,
    RegimeError,
    SequenceParams,
    companion_term,
    series_coefficients,
    term_definition,
    term_fast,
    term_shortcut,
    term_table,
    theorem3_term,
)
from qkbonacci.sequences import _shiftmod, _sqrmod

from _oracles import (
    ERRATUM_CORRECT_VALUE,
    brute_force_terms,
    char_poly_mulmod,
    fibonacci,
    pell,
    theorem3_convolution,
)


@st.composite
def table_cases(draw):
    q = draw(st.integers(1, 10))
    k = draw(st.integers(2, 40))
    return q, k, draw(st.integers(2 - k, 300))


class TestParams:
    def test_valid(self):
        p = SequenceParams(3, 2)
        assert p.min_index == 0

    @pytest.mark.parametrize("q,k", [(0, 2), (-1, 3), (3, 1), (3, 0), (1, -2)])
    def test_rejects_bad_parameters(self, q, k):
        with pytest.raises(DomainError):
            SequenceParams(q, k)


class TestDefinition:
    def test_spec_values(self):
        assert term_definition(SequenceParams(3, 2), 6) == 360
        assert term_definition(SequenceParams(4, 3), 8) == 24671
        assert term_definition(SequenceParams(7, 5), 0) == 0

    def test_classical_fibonacci(self):
        p = SequenceParams(1, 2)
        assert term_definition(p, 10) == 55
        for n in range(0, 20):
            assert term_definition(p, n) == fibonacci(n)

    def test_pell(self):
        p = SequenceParams(2, 2)
        for n in range(0, 15):
            assert term_definition(p, n) == pell(n)

    def test_initial_conditions(self):
        for k in range(2, 9):
            p = SequenceParams(3, k)
            for n in range(2 - k, 1):
                assert term_definition(p, n) == 0
            assert term_definition(p, 1) == 1

    def test_below_domain_rejected(self):
        with pytest.raises(DomainError):
            term_definition(SequenceParams(3, 2), -1)
        with pytest.raises(DomainError):
            term_definition(SequenceParams(3, 5), -4)

    def test_matches_brute_force(self):
        for q, k in [(1, 3), (3, 4), (5, 2), (6, 7)]:
            oracle = brute_force_terms(q, k, 50)
            p = SequenceParams(q, k)
            for n, expected in oracle.items():
                assert term_definition(p, n) == expected

    def test_table_matches_pointwise(self):
        p = SequenceParams(4, 3)
        table = term_table(p, 30)
        for n in range(p.min_index, 31):
            assert table[n - p.min_index] == term_definition(p, n)

    # n_max from 2-k, so tables that end inside the zero seeds are drawn
    @given(case=table_cases())
    @settings(max_examples=80, deadline=None)
    @example(case=(3, 40, -38))
    @example(case=(1, 2, 300))
    def test_table_matches_brute_force(self, case):
        q, k, n_max = case
        oracle = brute_force_terms(q, k, n_max)
        assert term_table(SequenceParams(q, k), n_max) == [
            oracle[n] for n in range(2 - k, n_max + 1)]


class TestShortcut:
    def test_spec_values(self):
        assert term_shortcut(SequenceParams(3, 2), 3) == 10  # 4*3 - 2*1 - 0
        assert term_shortcut(SequenceParams(4, 4), 9) == 107280
        assert term_shortcut(SequenceParams(3, 5), 3) == 10

    def test_low_indices_delegate(self):
        p = SequenceParams(5, 4)
        for n in range(p.min_index, 3):
            assert term_shortcut(p, n) == term_definition(p, n)


class TestFast:
    def test_spec_values(self):
        assert term_fast(SequenceParams(3, 2), 6) == 360
        assert term_fast(SequenceParams(2, 2), 5) == 29  # Pell: 1,2,5,12,29
        p = SequenceParams(5, 3)
        assert term_fast(p, 40) == term_definition(p, 40)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            term_fast(SequenceParams(3, 2), 0)

    # every n whose exponent n+k-2 is 2^m - 1, 2^m or 2^m + 1: runs of
    # squarings each followed by a step by x, runs with none, and one
    # step at each end
    @pytest.mark.parametrize("q", [1, 2, 3, 10])
    @pytest.mark.parametrize("k", [2, 3, 8, 32, 40])
    def test_exponent_bit_patterns(self, q, k):
        p = SequenceParams(q, k)
        exponents = {(1 << m) + d for m in range(15) for d in (-1, 0, 1)}
        ns = sorted(e - k + 2 for e in exponents if e - k + 2 >= 1)
        table = term_table(p, ns[-1])
        for n in ns:
            assert term_fast(p, n) == table[n - p.min_index], n

    @given(
        q=st.integers(1, 10),
        a=st.integers(2, 40).flatmap(lambda k: st.lists(
            st.integers(-(2**256), 2**256), min_size=k, max_size=k)),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernels_match_schoolbook_division(self, q, a):
        k = len(a)
        x = [0, 1] + [0] * (k - 2)
        assert _sqrmod(a, q, k) == char_poly_mulmod(a, a, q, k)
        assert _shiftmod(a, q, k) == char_poly_mulmod(x, a, q, k)

    @pytest.mark.parametrize("k", [2, 3, 8, 32])
    def test_square_forms_each_product_once(self, k):
        # products are counted only between two residue coefficients, so
        # the fold's small multipliers and the doubling do not count
        products = []

        class Coefficient(int):
            def __mul__(self, other):
                if isinstance(other, Coefficient):
                    products.append((int(self), int(other)))
                return int(self) * int(other)

            __rmul__ = __mul__

        values = [3**i + 7 for i in range(k)]
        a = [Coefficient(v) for v in values]
        assert _sqrmod(a, 4, k) == char_poly_mulmod(values, values, 4, k)
        # k(k+1)/2 products, each pair once; a general product makes k^2
        assert sorted(sorted(pair) for pair in products) == [
            [values[i], values[j]] for i in range(k) for j in range(i, k)]
        products.clear()
        assert _shiftmod(a, 4, k) == char_poly_mulmod(
            [0, 1] + [0] * (k - 2), values, 4, k)
        assert products == []


class TestCompanions:
    def test_spec_values(self):
        assert companion_term(3, CompanionKind.U, 5) == 116
        assert companion_term(3, CompanionKind.V, 2) == 4
        assert companion_term(3, CompanionKind.U, 3) == 10  # 4*3 - 2*1

    def test_seeds(self):
        assert companion_term(5, CompanionKind.U, 1) == 1
        assert companion_term(5, CompanionKind.U, 2) == 5
        assert companion_term(5, CompanionKind.V, 1) == 1
        assert companion_term(5, CompanionKind.V, 2) == 6

    def test_regime_and_domain_errors(self):
        with pytest.raises(RegimeError):
            companion_term(2, CompanionKind.U, 4)
        with pytest.raises(DomainError):
            companion_term(3, CompanionKind.V, 0)


class TestTheorem3:
    def test_spec_values(self):
        assert theorem3_term(SequenceParams(3, 2), 4) == 33  # U4 - V1*F1 = 34 - 1
        assert theorem3_term(SequenceParams(3, 2), 5) == 109  # 116 - (3 + 4)
        assert theorem3_term(SequenceParams(4, 3), 4) == 73  # n <= k+1 branch

    def test_equals_companion_up_to_k_plus_1(self):
        for q in (3, 4):
            for k in (2, 4, 6):
                p = SequenceParams(q, k)
                for n in range(1, k + 2):
                    assert theorem3_term(p, n) == companion_term(q, CompanionKind.U, n)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            theorem3_term(SequenceParams(1, 2), 5)

    def test_index_below_one_is_domain_error(self):
        with pytest.raises(DomainError, match="n >= 1"):
            theorem3_term(SequenceParams(3, 2), 0)

    # n = k+1 is the last index with an empty sum; k+2 and k+3 the first
    # with one and two terms
    @given(q=st.integers(3, 10), k=st.integers(2, 16), n=st.integers(1, 500))
    @example(q=3, k=2, n=3)
    @example(q=3, k=2, n=4)
    @example(q=3, k=2, n=5)
    @example(q=10, k=16, n=17)
    @example(q=10, k=16, n=18)
    @example(q=10, k=16, n=19)
    @example(q=10, k=16, n=500)
    @settings(max_examples=60, deadline=None)
    def test_equals_convolution_oracle(self, q, k, n):
        assert theorem3_term(SequenceParams(q, k), n) == theorem3_convolution(q, k, n)


class TestSeries:
    def test_spec_values(self):
        assert series_coefficients(SequenceParams(4, 3), 6) == [0, 1, 4, 17, 73, 313]
        assert series_coefficients(SequenceParams(3, 2), 3) == [0, 1, 3]

    def test_oracle_equivalence_65_terms(self):
        for q in (1, 2, 3, 5):
            for k in (2, 4, 10):
                p = SequenceParams(q, k)
                coeffs = series_coefficients(p, 65)
                for n in range(65):
                    assert coeffs[n] == term_definition(p, n)

    def test_count_validation(self):
        with pytest.raises(DomainError):
            series_coefficients(SequenceParams(3, 2), 0)


class TestInvariants:
    def test_strategy_agreement_small_grid(self):
        for q in (1, 3, 5):
            for k in (2, 5, 9):
                p = SequenceParams(q, k)
                table = term_table(p, 80)
                for n in range(p.min_index, 81):
                    expected = table[n - p.min_index]
                    assert term_shortcut(p, n) == expected
                    if n >= 1:
                        assert term_fast(p, n) == expected
                        if q >= 3:
                            assert theorem3_term(p, n) == expected

    # k up to 40 reaches k > n, where x^(n+k-2) needs few reductions
    @given(q=st.integers(1, 8), k=st.integers(2, 40), n=st.integers(-8, 120))
    @settings(max_examples=60, deadline=None)
    def test_strategy_agreement_random(self, q, k, n):
        p = SequenceParams(q, k)
        if n < p.min_index:
            with pytest.raises(DomainError):
                term_definition(p, n)
            return
        expected = term_definition(p, n)
        assert term_shortcut(p, n) == expected
        if n >= 1:
            assert term_fast(p, n) == expected

    def test_growth_step(self):
        # F_{n+1} >= q F_n since the dropped back-terms are nonnegative
        for q in (1, 3, 6):
            for k in (2, 5):
                p = SequenceParams(q, k)
                table = term_table(p, 60)
                off = p.min_index
                for n in range(1, 60):
                    assert table[n + 1 - off] >= q * table[n - off]

    def test_monotone_in_k(self):
        for q in (3, 4):
            for k in range(2, 8):
                lo = SequenceParams(q, k)
                hi = SequenceParams(q, k + 1)
                for n in range(1, 40):
                    a, b = term_definition(lo, n), term_definition(hi, n)
                    assert b >= a
                    if n <= k + 1:
                        assert a == b

    def test_erratum_value(self):
        # all strategies agree on the recurrence value, not the misprint
        p = SequenceParams(4, 5)
        assert term_definition(p, 9) == ERRATUM_CORRECT_VALUE
        assert term_shortcut(p, 9) == ERRATUM_CORRECT_VALUE
        assert term_fast(p, 9) == ERRATUM_CORRECT_VALUE
        assert theorem3_term(p, 9) == ERRATUM_CORRECT_VALUE
        assert series_coefficients(p, 10)[9] == ERRATUM_CORRECT_VALUE
        assert ERRATUM_CORRECT_VALUE != 132565
