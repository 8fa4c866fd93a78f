import hashlib
from collections import Counter
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
    dominant_root,
    error_decay_probe,
    run_laws,
    term_table,
)
from qkbonacci import lawcheck
from qkbonacci.lawcheck import LAW_IDS, CellContext
from qkbonacci.numerics import binet, roots
from qkbonacci.numerics.binet import _rungs
from qkbonacci.numerics.polynomials import _IntPoly

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
        reports = check_identities(CellContext(Grid((3, 4), (2, 3, 4, 5), 9), 192))
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
        reports = check_identities(CellContext(Grid((1,), (2,), 20), 192))
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
            check_identities(CellContext(Grid((3,), (2,), 2), 192))

    def test_whole_domain_passes(self):
        # every grid the identity checks accept lies inside this one
        reports = check_identities(CellContext(Grid(range(1, 11), range(2, 17), 500), 192))
        assert [(r.verdict, r.witnesses) for r in reports] == [("pass", ())] * 3

    def test_one_wrong_term_is_caught(self, monkeypatch):
        real = lawcheck.term_table

        def off_by_one(params, n_max):
            table = real(params, n_max)
            if params == SequenceParams(3, 4):
                table[40 - params.min_index] += 1
            return table

        monkeypatch.setattr(lawcheck, "term_table", off_by_one)
        reports = check_identities(CellContext(Grid((3, 4), (2, 3, 4, 5), 100), 192))
        # F_40 feeds the shortcut at n = 40, 41, 42, 45 and the companion
        # sum at every n >= 45; counts and texts were pinned from the
        # companion sum taken term by term
        value = "489280091470272672400, definition gives 489280091470272672401"
        expected = {
            "identity-theorem2": (4, f"shortcut gives {value}",
                "108b7ae9c7e80a6c9712514f1196c8d6dbfcf47a270e500f4bd6d79558ecb8f7"),
            "identity-theorem3": (57, f"companion form gives {value}",
                "99a6f351fdcdfe27ad668ef34df8ea1786e416f9c455da6bb0bb147ff3dbf147"),
            "series-oracle": (1, f"series coefficient {value}",
                "7249487a920119c6d0bc093ba1fce386e0a2e48d44d5d13273891d42fe90e7aa"),
        }
        for r in reports:
            count, first, digest = expected[r.law_id]
            assert r.verdict == "fail"
            assert len(r.witnesses) == count
            assert all((w.q, w.k, w.kind) == (3, 4, "fail") for w in r.witnesses)
            assert (r.witnesses[0].n, r.witnesses[0].detail) == (40, first)
            details = "\n".join(w.detail for w in r.witnesses)
            assert hashlib.sha256(details.encode()).hexdigest() == digest

    def test_grid_preconditions(self):
        with pytest.raises(DomainError):
            check_identities(CellContext(Grid((11,), (2,), 9), 192))
        with pytest.raises(DomainError):
            check_identities(CellContext(Grid((3,), (17,), 9), 192))
        with pytest.raises(DomainError):
            check_identities(CellContext(Grid((3,), (2,), 501), 192))


class TestRootLaws:
    def test_default_style_grid_passes(self):
        reports = check_root_laws(CellContext(Grid((3,), tuple(range(2, 9)), 10), 128))
        assert [r.law_id for r in reports] == [
            "lemma1-monotone", "lemma1-sandwich", "lemma2-sandwich",
        ]
        for r in reports:
            assert r.verdict == "pass"
            assert r.bits_used == 128

    def test_wide_k_grid_passes(self):
        # the monotonicity and sandwich claims hold out to k = 10
        reports = check_root_laws(CellContext(Grid((3, 4, 5), tuple(range(2, 11)), 10), 128))
        assert all(r.verdict == "pass" for r in reports)

    def test_sandwich_endpoints_3_2(self):
        # alpha_3 (1 - 1/9) ~ 3.0348 and alpha_3 ~ 3.41421 bracket gamma
        enc = dominant_root(SequenceParams(3, 2), 128).interval
        assert enc.strictly_above(Fraction(30348, 10000))
        assert enc.strictly_below(Fraction(34143, 10000))

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            check_root_laws(CellContext(Grid((2, 3), (2,), 10), 64))

    def test_one_bracket_bisection_per_cell(self, monkeypatch):
        # the three laws share one enclosure per (q, k) and refine it
        calls = []

        def counted(params, bits):
            calls.append((params.q, params.k))
            return dominant_root(params, bits)

        monkeypatch.setattr(lawcheck, "dominant_root", counted)
        grid = Grid.default()
        reports = check_root_laws(CellContext(grid, 192))
        assert all(r.verdict == "pass" for r in reports)
        assert sorted(calls) == grid.cells

    def test_single_k_monotone_is_never_vacuous(self):
        # one k compares gamma_k with gamma_(k+1); at q = 10 those lie
        # about 5e-61 apart, so the 8-bit request's 128-bit cap cannot
        # separate them and the law is not a pass
        reports = run_laws("lemma1", Grid((10,), (60,), 5), 8)
        monotone = reports[0]
        assert (monotone.law_id, monotone.verdict, monotone.bits_used) == (
            "lemma1-monotone", "inconclusive", 128)
        assert [(w.k, w.detail) for w in monotone.witnesses] == [
            (61, "gamma_60 vs gamma_61 not separated at 128 bits"),
        ]

    def test_monotone_fail_text(self):
        # hand k = 4 the enclosure of k = 2: gamma_4 then lies certified
        # below gamma_3, and the law must fail there
        cells = CellContext(Grid((3,), (3, 4), 10), 64)
        real_root = cells.root
        cells.root = lambda q, k: real_root(q, 2 if k == 4 else k)
        monotone = check_root_laws(cells)[0]
        assert (monotone.law_id, monotone.verdict, monotone.bits_used) == (
            "lemma1-monotone", "fail", 64)
        assert [(w.k, w.n, w.kind, w.detail) for w in monotone.witnesses] == [
            (4, None, "fail", "gamma_3 vs gamma_4 certified false"),
        ]

    def test_unseparated_witness_text(self):
        # at q = 10, gamma_39, gamma_40 and alpha lie within about 7e-40
        # of each other, finer than the 8-bit request's 128-bit cap
        reports = check_root_laws(CellContext(Grid((10,), (39, 40), 10), 8))
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
        reports = check_term_bounds(CellContext(Grid((3, 4), (2, 3), 60), 128))
        by_id = {r.law_id: r for r in reports}
        assert by_id["error-bound"].verdict == "pass"
        assert by_id["growth-bounds"].verdict == "pass"
        assert by_id["error-bound"].strict_also_certified

    def test_n_zero_and_one_cases(self):
        # |E_0| = g(gamma) < 1/q and |1 - g(gamma)gamma| <= 1/q
        reports = check_term_bounds(CellContext(Grid((3,), (2, 5), 1), 128))
        assert all(r.verdict == "pass" for r in reports)

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            check_term_bounds(CellContext(Grid((1,), (2,), 10), 64))

    def test_inconclusive_at_starved_precision(self):
        # 8-bit request caps at 128 bits, far too little for n = 300
        reports = check_term_bounds(CellContext(Grid((3,), (2,), 300), 8))
        by_id = {r.law_id: r for r in reports}
        assert by_id["error-bound"].verdict == "inconclusive"
        assert all(w.kind == "inconclusive" for w in by_id["error-bound"].witnesses)
        assert by_id["error-bound"].bits_used == 128
        # each cell escalates both laws together, so the growth chain
        # reports the bits the error bound climbed to
        assert by_id["growth-bounds"].verdict == "pass"
        assert by_id["growth-bounds"].bits_used == 128

    def test_wrong_terms_are_caught(self, monkeypatch):
        real = lawcheck.term_table

        def wrong(params, n_max):
            table = real(params, n_max)
            if params == SequenceParams(3, 4):
                table[40 - params.min_index] += 1
                table[60 - params.min_index] *= 2
                table[80 - params.min_index] = table[80 - params.min_index] * 3 // 4
            return table

        monkeypatch.setattr(lawcheck, "term_table", wrong)
        reports = check_term_bounds(CellContext(Grid((3, 4), (2, 3, 4, 5), 100), 192))
        # F_40 + 1 breaks only the error bound; 2 F_60 passes the upper
        # growth bound and 3/4 F_80 falls below the lower one. Texts were
        # pinned from the interval-object checker
        expected = {
            "error-bound": ([40, 60, 80],
                "94d375d2a035da0623226e909b49e89695982ba7e2132b83174bfe72813920e3"),
            "growth-bounds": ([60, 80],
                "4fb6a6356e9f30bb137d8f78016b2a6a6a36f1ab6b66c88e0a22be19af7d9dd0"),
        }
        for r in reports:
            ns, digest = expected[r.law_id]
            assert (r.verdict, r.bits_used) == ("fail", 384)
            assert [w.n for w in r.witnesses] == ns
            assert all((w.q, w.k, w.kind) == (3, 4, "fail") for w in r.witnesses)
            details = "\n".join(w.detail for w in r.witnesses)
            assert hashlib.sha256(details.encode()).hexdigest() == digest
        assert [w.detail for w in reports[1].witnesses] == [
            "F_n < gamma^(n-1)(q+2)/q certified false",
            "gamma^(n-1)(q-1)/q < F_n certified false",
        ]

    def test_growth_ratios_are_pinned(self, monkeypatch):
        # F_50 = 3/2 gamma^49 sits between the ratios 2/3 and 5/3 of the
        # chain, and F_70 = 1/2 gamma^69 falls below 2/3; either ratio
        # moved past 3/2 or 1/2 changes the witnesses
        gamma = dominant_root(SequenceParams(3, 4), 512).interval.midpoint
        real = lawcheck.term_table

        def planted(params, n_max):
            table = real(params, n_max)
            if params == SequenceParams(3, 4):
                table[50 - params.min_index] = gamma**49 * 3 // 2
                table[70 - params.min_index] = gamma**69 // 2
            return table

        monkeypatch.setattr(lawcheck, "term_table", planted)
        error, growth = check_term_bounds(CellContext(Grid((3, 4), (2, 3, 4, 5), 100), 192))
        assert (growth.verdict, growth.bits_used) == ("fail", 384)
        assert [(w.q, w.k, w.n, w.detail) for w in growth.witnesses] == [
            (3, 4, 70, "gamma^(n-1)(q-1)/q < F_n certified false")]
        assert error.verdict == "fail"
        assert [w.n for w in error.witnesses] == [50, 70]

    @pytest.mark.parametrize("grid, bits", [
        (Grid((3, 4), (2, 3), 60), 128),
        (Grid((3, 5), (2, 6), 300), 192),
        (Grid((3,), (2, 3), 300), 8),
        (Grid((4, 8), (2, 5), 200), 32),
        (Grid((6,), (2,), 500), 8),
        # E_{n_max} fits 2/q by less than a factor of 4 at the first rung kept
        (Grid((4,), (12,), 42), 23),
        (Grid((7,), (4,), 128), 46),
    ])
    def test_reports_equal_full_climb(self, monkeypatch, grid, bits):
        # rungs skipped as hopeless would only have been inconclusive, so
        # every report field matches a climb over the whole ladder
        reports = check_term_bounds(CellContext(grid, bits))
        monkeypatch.setattr(lawcheck, "_root_ladder", lambda enclosure, n, limit: (
            dominant_root(enclosure.params, work) for work in _rungs(enclosure.interval.bits)))
        assert reports == check_term_bounds(CellContext(grid, bits))


class TestReconstructionLaw:
    def test_small_grid_passes(self):
        reports = check_reconstruction(CellContext(Grid((3, 4), (2, 3, 6), 60), 256))
        (report,) = reports
        assert report.law_id == "reconstruction"
        assert report.verdict == "pass"
        assert report.bits_used == 256

    def test_covers_negative_indices(self):
        (report,) = check_reconstruction(CellContext(Grid((3,), (8,), 5), 256))
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


class TestCellContext:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()

        def count(owner, name):
            real = getattr(owner, name)

            def counted(*args):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, counted)

        # every module binding of dominant_root, as the benchmark's tracer
        # wraps them; all_roots reaches it through roots' own
        for module in (lawcheck, binet, roots):
            count(module, "dominant_root")
        for name in ("term_table", "check_identities", "check_root_laws",
                     "check_term_bounds", "check_reconstruction"):
            count(lawcheck, name)
        count(_IntPoly, "sign_at_dyadic")
        return counts

    def test_one_table_and_one_bisection_per_cell(self, counts):
        grid = Grid.default()
        reports = run_laws("all", grid, 192)
        assert all(r.verdict == "pass" for r in reports)
        cells = len(grid.cells)
        assert (counts["dominant_root"], counts["term_table"]) == (cells, cells) == (21, 21)
        for name in ("check_identities", "check_root_laws", "check_term_bounds",
                     "check_reconstruction"):
            assert counts[name] == 1, name
        # a bracket bisection per law and cell made 25,914 sign tests
        assert counts["sign_at_dyadic"] < 25_914

    def test_laws_read_only_what_they_need(self, counts):
        run_laws("identities", Grid.default(), 192)
        assert (counts["term_table"], counts["dominant_root"]) == (21, 0)
        counts.clear()
        run_laws("lemma1", Grid.default(), 192)
        assert (counts["term_table"], counts["dominant_root"]) == (0, 21)

    def test_views_share_cells(self, counts):
        # a view cut by up_to reads the cells its parent made, and a table
        # a shorter view builds first already reaches the parent's n_max
        params = SequenceParams(3, 5)
        cells = CellContext(Grid((3,), (5,), 40), 64)
        short = cells.up_to(10)
        assert (short.grid, short.bits) == (Grid((3,), (5,), 10), 64)
        assert short.table(3, 5)[:14] == term_table(params, 10)
        assert cells.table(3, 5) == term_table(params, 40)
        assert short.table(3, 5) is cells.table(3, 5)
        assert short.root(3, 5) is cells.root(3, 5)
        assert cells.root(3, 5) == dominant_root(params, 64)
        assert (counts["term_table"], counts["dominant_root"]) == (1, 1)

    def test_one_table_per_cell_past_the_identity_cap(self, counts):
        # the identity laws read a view cut at n = 500 before the growth
        # chain reads n_max: the view's table must already reach n_max
        run_laws("all", Grid((3,), (2, 3), 600), 192)
        assert counts["term_table"] == 2

    def test_single_k_monotone_compares_the_next_k(self, counts):
        reports = run_laws("lemma1", Grid((3, 4), (5,), 10), 96)
        assert all(r.verdict == "pass" for r in reports)
        assert counts["dominant_root"] == 4


class TestReports:
    def test_deterministic(self):
        grid = Grid((3,), (2, 4), 40)
        first = [r.to_json() for r in check_root_laws(CellContext(grid, 96))]
        second = [r.to_json() for r in check_root_laws(CellContext(grid, 96))]
        assert first == second

    def test_json_schema_fields(self):
        (report,) = check_reconstruction(CellContext(Grid((3,), (2,), 10), 256))
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
