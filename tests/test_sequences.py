import pytest
from hypothesis import given, settings
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

from _oracles import (
    ERRATUM_CORRECT_VALUE,
    brute_force_terms,
    fibonacci,
    pell,
)


class TestParams:
    def test_valid(self):
        p = SequenceParams(3, 2)
        assert p.min_index == 0
        assert p.bounds_certified

    def test_compute_only_regime(self):
        assert not SequenceParams(1, 2).bounds_certified
        assert not SequenceParams(2, 5).bounds_certified

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
