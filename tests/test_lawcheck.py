from fractions import Fraction

import pytest

from qkbonacci import (
    DomainError,
    Grid,
    RegimeError,
    SequenceParams,
    check_identities,
    check_reconstruction,
    check_root_laws,
    check_term_bounds,
    error_decay_probe,
    run_laws,
    term_table,
)
from qkbonacci.lawcheck import LAW_IDS

from _oracles import (
    ERRATUM_CELL,
    ERRATUM_CORRECT_VALUE,
    PUBLISHED_TABLE_Q3,
    PUBLISHED_TABLE_Q4,
    fibonacci,
)


class TestGrid:
    def test_default(self):
        g = Grid.default()
        assert g.q_values == (3, 4, 5)
        assert g.k_values == tuple(range(2, 9))
        assert g.n_max == 300

    def test_normalization(self):
        g = Grid((5, 3, 3), (4, 2), 10)
        assert g.q_values == (3, 5)
        assert g.k_values == (2, 4)

    def test_json_round_trip(self):
        g = Grid((3,), (2, 3), 9)
        assert g.to_json() == {"q": [3], "k": [2, 3], "n_max": 9}


class TestIdentities:
    def test_paper_grid_passes(self):
        reports = check_identities(Grid((3, 4), (2, 3, 4, 5), 9))
        assert [r.law_id for r in reports] == [
            "identity-theorem2", "identity-theorem3", "series-oracle",
        ]
        assert all(r.verdict == "pass" for r in reports)
        assert all(r.witnesses == () for r in reports)
        assert all(r.bits_used == 0 for r in reports)

    def test_values_reproduce_published_tables_except_erratum(self):
        for q, published in ((3, PUBLISHED_TABLE_Q3), (4, PUBLISHED_TABLE_Q4)):
            for k, row in published.items():
                params = SequenceParams(q, k)
                table = term_table(params, 9)
                for n, value in enumerate(row, start=1):
                    computed = table[n - params.min_index]
                    if (q, k, n) == ERRATUM_CELL:
                        assert computed == ERRATUM_CORRECT_VALUE
                        assert computed != value
                    else:
                        assert computed == value

    def test_fibonacci_cross_check(self):
        reports = check_identities(Grid((1,), (2,), 20))
        assert all(r.verdict == "pass" for r in reports)
        # the shortcut reads F_n = 2F_{n-1} - 0*F_{n-2} - F_{n-3} here
        for n in range(3, 21):
            assert fibonacci(n) == 2 * fibonacci(n - 1) - fibonacci(n - 3)

    def test_empty_grid_is_domain_error(self):
        for q_values, k_values, n_max in (((), (2,), 9), ((3,), (), 9),
                                          ((3,), (2,), 0)):
            with pytest.raises(DomainError):
                Grid(q_values, k_values, n_max)
        # the shortcut identity starts at n = 3
        with pytest.raises(DomainError):
            check_identities(Grid((3,), (2,), 2))

    def test_grid_preconditions(self):
        with pytest.raises(DomainError):
            check_identities(Grid((11,), (2,), 9))
        with pytest.raises(DomainError):
            check_identities(Grid((3,), (17,), 9))
        with pytest.raises(DomainError):
            check_identities(Grid((3,), (2,), 501))


class TestRootLaws:
    def test_default_style_grid_passes(self):
        reports = check_root_laws(Grid((3,), tuple(range(2, 9)), 10), 128)
        assert [r.law_id for r in reports] == [
            "lemma1-monotone", "lemma1-sandwich", "lemma2-sandwich",
        ]
        for r in reports:
            assert r.verdict == "pass"
            assert r.bits_used == 128

    def test_wide_k_grid_passes(self):
        # the monotonicity and sandwich claims hold out to k = 10
        reports = check_root_laws(Grid((3, 4, 5), tuple(range(2, 11)), 10), 128)
        assert all(r.verdict == "pass" for r in reports)

    def test_sandwich_endpoints_3_2(self):
        # alpha_3 (1 - 1/9) ~ 3.0348 and alpha_3 ~ 3.41421 bracket gamma
        from qkbonacci import dominant_root

        enc = dominant_root(SequenceParams(3, 2), 128).interval
        assert enc.strictly_above(Fraction(30348, 10000))
        assert enc.strictly_below(Fraction(34143, 10000))

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            check_root_laws(Grid((2, 3), (2,), 10), 64)

    def test_unseparated_witness_text(self):
        # at q = 10, gamma_39, gamma_40 and alpha lie within about 7e-40
        # of each other, finer than the 8-bit request's 128-bit cap
        reports = check_root_laws(Grid((10,), (39, 40), 10), 8)
        by_id = {r.law_id: r for r in reports}
        monotone = by_id["lemma1-monotone"]
        assert (monotone.verdict, monotone.bits_used) == ("inconclusive", 128)
        assert [w.detail for w in monotone.witnesses] == [
            "gamma_39 vs gamma_40 not separated at 128 bits",
        ]
        sandwich = by_id["lemma1-sandwich"]
        assert (sandwich.verdict, sandwich.bits_used) == ("inconclusive", 128)
        assert [w.detail for w in sandwich.witnesses] == [
            "gamma < alpha not separated at 128 bits",
            "alpha(1 - q^-k) < gamma not separated at 128 bits",
            "gamma < alpha not separated at 128 bits",
        ]
        assert [(w.k, w.kind) for w in sandwich.witnesses] == [
            (39, "inconclusive"), (40, "inconclusive"), (40, "inconclusive"),
        ]
        weight = by_id["lemma2-sandwich"]
        assert (weight.verdict, weight.bits_used) == ("pass", 16)


class TestTermBounds:
    def test_small_grid_passes(self):
        reports = check_term_bounds(Grid((3, 4), (2, 3), 60), 128)
        by_id = {r.law_id: r for r in reports}
        assert by_id["error-bound"].verdict == "pass"
        assert by_id["growth-bounds"].verdict == "pass"
        assert by_id["error-bound"].strict_also_certified

    def test_n_zero_and_one_cases(self):
        # |E_0| = g(gamma) < 1/q and |1 - g(gamma)gamma| <= 1/q
        reports = check_term_bounds(Grid((3,), (2, 5), 1), 128)
        assert all(r.verdict == "pass" for r in reports)

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            check_term_bounds(Grid((1,), (2,), 10), 64)

    def test_inconclusive_at_starved_precision(self):
        # 8-bit request caps at 128 bits, far too little for n = 300
        reports = check_term_bounds(Grid((3,), (2,), 300), 8)
        by_id = {r.law_id: r for r in reports}
        assert by_id["error-bound"].verdict == "inconclusive"
        assert all(w.kind == "inconclusive" for w in by_id["error-bound"].witnesses)
        assert by_id["error-bound"].bits_used == 128
        # each cell escalates both laws together, so the growth chain
        # reports the bits the error bound climbed to
        assert by_id["growth-bounds"].verdict == "pass"
        assert by_id["growth-bounds"].bits_used == 128


class TestReconstructionLaw:
    def test_small_grid_passes(self):
        reports = check_reconstruction(Grid((3, 4), (2, 3, 6), 60), 256)
        (report,) = reports
        assert report.law_id == "reconstruction"
        assert report.verdict == "pass"
        assert report.bits_used == 256

    def test_covers_negative_indices(self):
        (report,) = check_reconstruction(Grid((3,), (8,), 5), 256)
        assert report.verdict == "pass"


class TestDecayProbe:
    def test_small_k_passes(self):
        probe = error_decay_probe(Grid((3,), (2, 3, 4), 40), 192)
        assert probe.passed

    def test_known_counterexample_certified(self):
        # |E_40| ~ 1.3e-3 at (3, 8): the probe must certify the violation
        probe = error_decay_probe(Grid((3,), (8,), 40), 192)
        assert not probe.passed
        (witness,) = probe.failures
        assert witness.kind == "fail"
        assert witness.n == 40


class TestReports:
    def test_deterministic(self):
        grid = Grid((3,), (2, 4), 40)
        first = [r.to_json() for r in check_root_laws(grid, 96)]
        second = [r.to_json() for r in check_root_laws(grid, 96)]
        assert first == second

    def test_json_schema_fields(self):
        (report,) = check_reconstruction(Grid((3,), (2,), 10), 256)
        payload = report.to_json()
        assert list(payload) == ["law_id", "grid", "verdict", "witnesses", "bits_used"]
        assert payload["law_id"] in LAW_IDS

    def test_run_laws_all_order(self):
        reports = run_laws("all", Grid((3,), (2, 3), 30), 128)
        assert [r.law_id for r in reports] == list(LAW_IDS)
        assert all(r.verdict == "pass" for r in reports)

    def test_run_laws_filters(self):
        grid = Grid((3,), (2,), 20)
        assert [r.law_id for r in run_laws("lemma1", grid, 96)] == [
            "lemma1-monotone", "lemma1-sandwich",
        ]
        assert [r.law_id for r in run_laws("lemma2", grid, 96)] == ["lemma2-sandwich"]
        assert [r.law_id for r in run_laws("growth", grid, 96)] == ["growth-bounds"]
        assert [r.law_id for r in run_laws("error-bound", grid, 96)] == ["error-bound"]
        assert [r.law_id for r in run_laws("reconstruction", grid, 96)] == [
            "reconstruction",
        ]

    def test_run_laws_caps_reconstruction_grid(self):
        # reconstruction is checked to n = 60 at >= 256 bits even when the
        # surrounding grid asks for more
        reports = run_laws("reconstruction", Grid((3,), (2,), 300), 128)
        (report,) = reports
        assert report.grid.n_max == 60
        assert report.bits_used == 256
        assert report.verdict == "pass"

    def test_unknown_selector(self):
        with pytest.raises(DomainError):
            run_laws("bogus", Grid((3,), (2,), 10), 64)
