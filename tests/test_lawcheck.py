import hashlib
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from qkbonacci.numerics.dyadic import _float_text
from qkbonacci.numerics.polynomials import CharPoly, Quadratic, _IntPoly

import _oracles
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
        # q = 3 puts a cell of the companion-pair identity on the grid
        reports = check_identities(CellContext(Grid((1, 3), (2,), 20), 192))
        assert all(r.verdict == "pass" for r in reports)
        # at q = 1 the shortcut reads F_n = 2F_{n-1} - 0*F_{n-2} - F_{n-3}
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

    @pytest.mark.parametrize("n_bad", (0, 1, 3, 30))
    def test_wrong_end_terms_are_caught(self, monkeypatch, n_bad):
        # each identity's values are compared with its slice of the table
        # as one list: a wrong F_n at the first n of a slice (0, 1 or 3) or
        # at n_max still gives a witness at that n
        real = lawcheck.term_table

        def off_by_one(params, n_max):
            table = real(params, n_max)
            table[n_bad - params.min_index] += 1
            return table

        monkeypatch.setattr(lawcheck, "term_table", off_by_one)
        first = {"identity-theorem2": 3, "identity-theorem3": 1, "series-oracle": 0}
        for r in check_identities(CellContext(Grid((3,), (2, 4), 30), 192)):
            for k in (2, 4):
                ns = {w.n for w in r.witnesses if w.k == k}
                assert (n_bad in ns) == (n_bad >= first[r.law_id])

    def test_grid_preconditions(self):
        with pytest.raises(DomainError):
            check_identities(CellContext(Grid((11,), (2,), 9), 192))
        with pytest.raises(DomainError):
            check_identities(CellContext(Grid((3,), (17,), 9), 192))
        with pytest.raises(DomainError):
            check_identities(CellContext(Grid((3,), (2,), 501), 192))
        # without a q >= 3 the companion-pair identity would pass unchecked
        with pytest.raises(DomainError, match="q >= 3"):
            check_identities(CellContext(Grid((1, 2), (2, 3), 20), 192))


def phi_plus_one(first):
    """A stand-in for lawcheck's CharPoly: the true Phi_first, then each
    later Phi_(j+1) built as t Phi_j + 1 where Phi_(j+1) = t Phi_j - 1."""
    def of(params):
        coeffs = CharPoly.of(SequenceParams(params.q, first)).coefficients
        return SimpleNamespace(coefficients=(1,) * (params.k - first) + coeffs)

    return SimpleNamespace(of=of)


class TestRootLaws:
    def test_default_style_grid_passes(self):
        reports = check_root_laws(CellContext(Grid((3,), tuple(range(2, 9)), 10), 128))
        assert [r.law_id for r in reports] == [
            "lemma1-monotone", "lemma1-sandwich", "lemma2-sandwich",
        ]
        for r in reports:
            assert r.verdict == "pass"
            assert r.bits_used == 0

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
        # the root laws make no enclosure, so the laws sharing a context
        # bisect once per (q, k), for the term laws
        calls = []

        def counted(params, bits):
            calls.append((params.q, params.k))
            return dominant_root(params, bits)

        monkeypatch.setattr(lawcheck, "dominant_root", counted)
        grid = Grid.default()
        cells = CellContext(grid, 192)
        assert all(r.verdict == "pass" for r in check_root_laws(cells))
        assert calls == []
        assert all(r.verdict == "pass" for r in check_term_bounds(cells))
        assert sorted(calls) == grid.cells

    def test_no_root_enclosure_and_no_climb(self, monkeypatch):
        # the Lemma laws are exact: no bisection, refinement, weight
        # enclosure or precision climb, on any module binding
        calls = Counter()
        for module, name in ((lawcheck, "dominant_root"), (binet, "dominant_root"),
                             (roots, "dominant_root"), (binet, "refine_root"),
                             (roots, "refine_root"), (binet, "g_eval"),
                             (lawcheck, "_root_ladder")):
            def counted(*args, real=getattr(module, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        reports = check_root_laws(CellContext(Grid.default(), 192))
        assert [(r.verdict, r.bits_used) for r in reports] == [("pass", 0)] * 3
        assert calls == Counter()
        # the count is live: a term law makes each of these calls
        check_term_bounds(CellContext(Grid((3,), (2,), 10), 192))
        assert set(calls) == {"dominant_root", "refine_root", "g_eval", "_root_ladder"}

    def test_single_k_monotone_is_never_vacuous(self, monkeypatch):
        # one k compares gamma_k with gamma_(k+1): at q = 10 those lie about
        # 5e-61 apart, which the exact law settles at any bits, and a wrong
        # Phi_61 fails there
        (monotone, _) = run_laws("lemma1", Grid((10,), (60,), 5), 8)
        assert (monotone.law_id, monotone.verdict, monotone.bits_used) == (
            "lemma1-monotone", "pass", 0)
        monkeypatch.setattr(lawcheck, "CharPoly", phi_plus_one(60))
        (monotone, _) = run_laws("lemma1", Grid((10,), (60,), 5), 8)
        assert [(w.k, w.kind, w.detail) for w in monotone.witnesses] == [
            (61, "fail", "gamma_60 vs gamma_61: Phi_(j+1) != t Phi_j - 1 for some j in [60, 61)"),
        ]

    def test_monotone_compares_adjacent_k(self, monkeypatch):
        # each k is checked against the next grid k only, through the Phi_j
        # between: a wrong chain leaves one witness per adjacent pair
        grid = Grid((10,), (60, 61, 63), 5)
        monkeypatch.setattr(lawcheck, "CharPoly", phi_plus_one(60))
        monotone = check_root_laws(CellContext(grid, 8))[0]
        assert (monotone.verdict, monotone.bits_used) == ("fail", 0)
        assert [(w.k, w.detail) for w in monotone.witnesses] == [
            (61, "gamma_60 vs gamma_61: Phi_(j+1) != t Phi_j - 1 for some j in [60, 61)"),
            (63, "Phi_61: coefficients not - then +"),
            (63, "gamma_61 vs gamma_63: Phi_(j+1) != t Phi_j - 1 for some j in [61, 63)"),
        ]
        # the true chain passes over the gap from 61 to 63
        monkeypatch.undo()
        assert check_root_laws(CellContext(grid, 8))[0].verdict == "pass"

    def test_monotone_fail_text(self, monkeypatch):
        # Phi_4 built as t Phi_3 + 1 breaks the chain, and gamma_3 < gamma_4
        # no longer follows: the law fails at k = 4
        monkeypatch.setattr(lawcheck, "CharPoly", phi_plus_one(3))
        monotone, sandwich, weight = check_root_laws(CellContext(Grid((3,), (3, 4), 10), 64))
        assert (monotone.law_id, monotone.verdict, monotone.bits_used) == (
            "lemma1-monotone", "fail", 0)
        assert [(w.k, w.n, w.kind, w.detail) for w in monotone.witnesses] == [
            (4, None, "fail", "gamma_3 vs gamma_4: Phi_(j+1) != t Phi_j - 1 for some j in [3, 4)"),
        ]
        # the sandwiches rest on the same sign change at k = 4
        for report in (sandwich, weight):
            assert report.verdict == "fail"
            assert (4, "Phi_4: coefficients not - then +") in [
                (w.k, w.detail) for w in report.witnesses]

    def test_sign_change_must_run_minus_then_plus(self, monkeypatch):
        # -Phi also changes sign once, but is positive below gamma, so
        # "t < gamma exactly when Phi(t) < 0" fails and so does every law
        monkeypatch.setattr(lawcheck, "CharPoly", SimpleNamespace(of=lambda params: SimpleNamespace(
            coefficients=tuple(-c for c in CharPoly.of(params).coefficients))))
        for report in check_root_laws(CellContext(Grid((3,), (4,), 10), 64)):
            assert report.verdict == "fail"
            assert "Phi_4: coefficients not - then +" in [w.detail for w in report.witnesses]

    def test_touching_comparison_fails_at_its_rung(self, monkeypatch):
        # Phi = (t - 4)(t + 1) at (3, 2) has gamma = q + 1 exactly: the strict
        # bracket gamma < q+1 meets a zero of Phi, which certifies it false
        # at once, with no precision to climb
        monkeypatch.setattr(lawcheck, "CharPoly", SimpleNamespace(
            of=lambda params: SimpleNamespace(coefficients=(-4, -3, 1))))
        sandwich = check_root_laws(CellContext(Grid((3,), (2,), 10), 64))[1]
        assert (sandwich.law_id, sandwich.verdict, sandwich.bits_used) == (
            "lemma1-sandwich", "fail", 0)
        assert (2, None, "fail", "bracket gamma < q+1 certified false") in [
            (w.k, w.n, w.kind, w.detail) for w in sandwich.witnesses]

    def test_false_claims_fail_as_certified_false(self, monkeypatch):
        # D(t) - t^2 has its upper root near 3.58, past gamma ~ 3.405 at
        # (3, 4), so Phi is positive there and "c < gamma" is certified false
        real = Quadratic.weight_denominator

        def shifted(q, k):
            d = real(q, k)
            return Quadratic(d.a - 1, d.b, d.c)

        monkeypatch.setattr(Quadratic, "weight_denominator", staticmethod(shifted))
        weight = check_root_laws(CellContext(Grid((3,), (4,), 10), 64))[2]
        assert weight.verdict == "fail"
        assert "c < gamma certified false" in [w.detail for w in weight.witnesses]

    def test_close_roots_pass_exactly(self):
        # at q = 10, gamma_39, gamma_40 and alpha lie within about 7e-40 of
        # each other, finer than the 8-bit request's 128-bit cap that left
        # interval comparisons inconclusive; the exact laws pass
        reports = check_root_laws(CellContext(Grid((10,), (39, 40), 10), 8))
        assert [(r.verdict, r.witnesses, r.bits_used) for r in reports] == [("pass", (), 0)] * 3

    @pytest.mark.parametrize("grid", [
        Grid.default(),
        Grid(range(3, 11), range(2, 65), 5),
        Grid((10**6,), (2, 3), 20),
        Grid((10,), range(60, 65), 5),
    ], ids=["default", "q3-10-k2-64", "q1e6", "q10-k60-64"])
    def test_verdicts_do_not_depend_on_bits(self, grid):
        reports = [run_laws(selection, grid, bits)
                   for bits in (8, 16, 32, 64, 192) for selection in ("lemma1", "lemma2")]
        for found in reports:
            assert [(r.verdict, r.witnesses, r.bits_used) for r in found] == [
                ("pass", (), 0)] * len(found)
        assert reports[:2] * 5 == reports

    @given(q=st.integers(2, 67).flatmap(
               lambda b: st.integers(max(3, 1 << (b - 1)), min(10**20, (1 << b) - 1))),
           k=st.integers(2, 400))
    @settings(max_examples=25, deadline=None)
    @example(q=10**20, k=400)
    def test_log_uniform_cells_pass_in_budget(self, q, k):
        # q log-uniform by bit length up to 10^20: no reduction here grows
        # like k^2 log q bits, as one by the alpha(1 - q^-k) quadratic
        # would, so even (10^20, 400) settles in milliseconds
        start = perf_counter()
        reports = run_laws("lemma1", Grid((q,), (k,), 5), 8) + run_laws(
            "lemma2", Grid((q,), (k,), 5), 8)
        assert perf_counter() - start < 2.0
        assert [(r.verdict, r.bits_used) for r in reports] == [("pass", 0)] * 3


class TestTermBounds:
    def test_small_grid_passes(self):
        reports = check_term_bounds(CellContext(Grid((3, 4), (2, 3), 60), 128))
        by_id = {r.law_id: r for r in reports}
        assert by_id["error-bound"].verdict == "pass"
        assert by_id["growth-bounds"].verdict == "pass"

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

    def test_each_cell_climbs_on_its_own(self, monkeypatch):
        # with every rung of the ladder offered, a cell is checked once per
        # rung from the request up, only until it settles: a cell that
        # settles early is not checked again while another climbs
        rungs_by_cell, real = {}, lawcheck.dominant_term_sweep

        def sweep(enclosure, n_lo, n_hi):
            params = enclosure.params
            rungs_by_cell.setdefault((params.q, params.k), []).append(enclosure.interval.bits)
            return real(enclosure, n_lo, n_hi)

        monkeypatch.setattr(lawcheck, "dominant_term_sweep", sweep)
        monkeypatch.setattr(lawcheck, "_root_ladder", lambda enclosure, n, limit: (
            dominant_root(enclosure.params, work) for work in _rungs(enclosure.interval.bits)))
        grid = Grid((3, 10), (2, 39), 10)
        error, growth = check_term_bounds(CellContext(grid, 8))
        assert (error.verdict, growth.verdict) == ("pass", "pass")
        assert sorted(rungs_by_cell) == grid.cells
        ladder = _rungs(8)
        for rungs in rungs_by_cell.values():
            assert rungs == ladder[:len(rungs)]
        climbed = sorted(len(rungs) for rungs in rungs_by_cell.values())
        assert climbed[0] < climbed[-1] == ladder.index(error.bits_used) + 1

    def test_one_comparison_per_bound_and_link(self, monkeypatch):
        # nothing is decided twice: the integer compares settle every |E_n|
        # and growth link of a passing grid with no _inside call and no
        # Fraction built, and an E_n they miss takes one _inside call
        calls, fractions = [], []
        real_inside, real_fraction, real_sweep = (
            lawcheck._inside, lawcheck.Fraction, lawcheck.dominant_term_sweep)

        def counted(lo, hi, edge):
            calls.append((lo, hi, edge))
            return real_inside(lo, hi, edge)

        def built(*args):
            fractions.append(args)
            return real_fraction(*args)

        monkeypatch.setattr(lawcheck, "_inside", counted)
        monkeypatch.setattr(lawcheck, "Fraction", built)
        grid = Grid((3,), tuple(range(2, 9)), 10)
        reports = check_term_bounds(CellContext(grid, 192))
        assert [(r.verdict, r.bits_used) for r in reports] == [("pass", 192)] * 2
        assert (calls, fractions) == ([], [])

        # at (3, 5)'s first rung, E_6's term enclosure ends one unit lower,
        # so E_6 reaches past 1/q from inside, and gamma^10's lower end is
        # put on the ceiling of gamma^9 (q+2)/q, so the last link touches;
        # no other n reads either entry
        expected, forged = [], []

        def sweep(enclosure, n_lo, n_hi):
            rows = real_sweep(enclosure, n_lo, n_hi)
            if (enclosure.params.k, forged) == (5, []):
                power_lo, power_hi, term_lo, term_hi = rows
                q, work = 3, enclosure.interval.bits
                forged.append(work)
                term_lo[6 - n_lo] -= 1 << work
                power_lo[-1] = -((-power_hi[-2] * (q + 2)) // q)
                exact = term_table(SequenceParams(3, 5), 10)
                scaled = exact[6 + 5 - 2] << work
                expected.append((q * (scaled - term_hi[6 - n_lo]),
                                 q * (scaled - term_lo[6 - n_lo]), 1 << work))
            return rows

        monkeypatch.setattr(lawcheck, "dominant_term_sweep", sweep)
        error, growth = check_term_bounds(CellContext(grid, 192))
        assert forged == [192]
        # the forged cell climbs one rung, where nothing misses
        assert [(r.verdict, r.bits_used) for r in (error, growth)] == [("pass", 384)] * 2
        assert len(calls) == 1 and calls == expected

    @pytest.mark.parametrize("miss", (0, 1))
    @pytest.mark.parametrize("link", range(4))
    @pytest.mark.parametrize("q", (3, 4, 7))
    def test_growth_links_on_their_boundary(self, monkeypatch, q, link, miss):
        # each link's free power end is forged so that its multiplied form
        # holds with no slack, x = q(a+1) for floor(x/q) > a or y = q(b-1)
        # for ceil(y/q) < b (miss 0), or misses by one unit of x or y (miss
        # 1).  Links 1 and 4 set a or b, a power end, and put x or y on the
        # needed residue mod q through the other end; y = hi (q+2) is even
        # at even q, so link 4 misses by two there.  Links 2 and 3 meet
        # F_n 2^w, so w is the first from 192 at which x or y lands on it
        # exactly, where one does (at odd q, q(F_n 2^w - 1) is odd and
        # link 2 can only miss).  With no slack the integer compares certify
        # the link; past it, the link gives the floor/ceiling rule's witness
        n_max, real_sweep = 6, lawcheck.dominant_term_sweep
        table = term_table(SequenceParams(q, 3), n_max)
        n = 1 if link in (0, 2) else n_max
        on_f_n = {1: lambda w: (q * ((table[n + 1] << w) - 1) + miss) % (q - 1) == 0,
                  2: lambda w: (q * ((table[n + 1] << w) + 1) - miss) % (q + 2) == 0}
        bits = next((w for w in range(192, 204) if on_f_n[link](w)), 192) if link in on_f_n else 192
        seen = []

        def sweep(enclosure, n_lo, n_hi):
            rows = real_sweep(enclosure, n_lo, n_hi)
            power_lo, power_hi = rows[:2]
            f_n = table[n + 1] << bits
            if link == 0:  # n = 1: gamma^(-1) below gamma^0 (q-1)/q
                lo = power_lo[-n_lo] = power_lo[-n_lo] - (power_lo[-n_lo] - miss) % q
                power_hi[-1 - n_lo] = (lo * (q - 1) + miss) // q - 1
            elif link == 1:  # n = n_max: gamma^(n-1) (q-1)/q below F_n
                power_hi[-2] = q * (f_n - 1) // (q - 1) + miss
            elif link == 2:  # n = 1: F_1 below gamma^0 (q+2)/q
                power_lo[-n_lo] = -(-q * (f_n + 1) // (q + 2)) - miss
            else:  # n = n_max: gamma^(n-1) (q+2)/q below gamma^n
                slack = miss * (2 - q % 2)
                hi = next(h for h in range(power_hi[-2], power_hi[-2] + q)
                          if (h * (q + 2) - slack) % q == 0)
                power_hi[-2], power_lo[-1] = hi, (hi * (q + 2) - slack) // q + 1
            seen.append((enclosure.interval.bits, rows))
            return rows

        monkeypatch.setattr(lawcheck, "dominant_term_sweep", sweep)
        monkeypatch.setattr(lawcheck, "_root_ladder", lambda enclosure, n, limit: [enclosure])
        error, growth = check_term_bounds(CellContext(Grid((q,), (3,), n_max), bits))
        ((work, rows),) = seen
        _, expected = _oracles.term_bound_witnesses(q, 3, n_max, table, rows, work, _float_text)
        assert work == bits and error.verdict == "pass"
        assert [(w.q, w.k, w.n, w.kind, w.detail) for w in growth.witnesses] == expected
        if miss:
            label = _oracles.GROWTH_LINKS[link]
            assert expected == [(q, 3, n, "inconclusive", f"{label} not separated at {bits} bits")]
        else:
            assert (growth.verdict, expected) == ("pass", [])

    @pytest.mark.parametrize("miss", (0, 1))
    @pytest.mark.parametrize("link", range(4))
    @pytest.mark.parametrize("q", (3, 4, 7))
    def test_growth_links_on_their_refute_form(self, monkeypatch, q, link, miss):
        # each link is forged onto its refute form with no slack, q a_lo =
        # y1, x1 = S, S = y2 or x2 = q b_hi (miss 0), which certifies it
        # false, or one unit of the forged end short of it (miss 1), which
        # leaves it unseparated.  Links 1 and 4 compare two power rows, so
        # only a forged sweep refutes them: gamma^(-1) at n = 1 and
        # gamma^(n_max) at n = n_max, which no other link reads, go on
        # gamma^0 (q-1)/q and gamma^(n_max-1) (q+2)/q, that end first put
        # on a multiple of q.  Links 2 and 3 put gamma^(n-1) on S/(q-1) or
        # S/(q+2), at the first n where that is an integer
        n_max, bits, real_sweep = 12, 192, lawcheck.dominant_term_sweep
        table = term_table(SequenceParams(q, 3), n_max)
        scaled = [q * f_n << bits for f_n in table[2:]]  # S at n = 1..n_max
        divisor = {1: q - 1, 2: q + 2}.get(link)
        n = {0: 1, 3: n_max}.get(link) or next(
            m for m in range(2, n_max) if scaled[m - 1] % divisor == 0)
        seen = []

        def sweep(enclosure, n_lo, n_hi):
            rows = real_sweep(enclosure, n_lo, n_hi)
            power_lo, power_hi = rows[:2]
            i = n - 1 - n_lo  # gamma^(n-1)
            if link == 0:
                power_hi[i] += -power_hi[i] % q
                end = power_hi[i] * (q - 1) // q
                power_lo[i - 1], power_hi[i - 1] = end - miss, end
            elif link == 1:
                end = scaled[n - 1] // (q - 1)
                power_lo[i], power_hi[i] = end - miss, end
            elif link == 2:
                end = scaled[n - 1] // (q + 2)
                power_lo[i], power_hi[i] = end, end + miss
            else:
                power_lo[i] = next(lo for lo in range(power_lo[i], power_lo[i] + q)
                                   if lo * (q + 2) % q == 0)
                power_hi[i] = max(power_hi[i], power_lo[i])
                end = power_lo[i] * (q + 2) // q
                power_lo[i + 1], power_hi[i + 1] = end, end + miss
            seen.append((enclosure.interval.bits, rows))
            return rows

        monkeypatch.setattr(lawcheck, "dominant_term_sweep", sweep)
        monkeypatch.setattr(lawcheck, "_root_ladder", lambda enclosure, n, limit: [enclosure])
        error, growth = check_term_bounds(CellContext(Grid((q,), (3,), n_max), bits))
        ((work, rows),) = seen
        _, expected = _oracles.term_bound_witnesses(q, 3, n_max, table, rows, work, _float_text)
        label = _oracles.GROWTH_LINKS[link]
        assert expected == [(q, 3, n, "inconclusive", f"{label} not separated at {bits} bits")
                            if miss else (q, 3, n, "fail", f"{label} certified false")]
        assert [(w.q, w.k, w.n, w.kind, w.detail) for w in growth.witnesses] == expected
        assert (error.verdict, growth.verdict) == ("pass", "inconclusive" if miss else "fail")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 11), st.integers(2, 20), st.integers(1, 300),
           st.sampled_from((8, 16, 64, 192)))
    @example(3, 2, 300, 8)
    @example(7, 20, 1, 16)
    def test_reports_match_the_per_n_oracle(self, q, k, n_max, bits):
        # the integer pass against the per-n floor/ceiling oracle, on every
        # rung the cell climbs; starved bits fill both laws with
        # inconclusive witnesses
        grid = Grid((q,), (k,), n_max)
        cells = CellContext(grid, bits)
        # each rung's witnesses by the oracle, up to the first rung with no
        # inconclusive one, and the bits of the rung the cell stopped at
        for enclosure in lawcheck._root_ladder(cells.root(q, k), n_max, (2, q)):
            work = enclosure.interval.bits
            rows = lawcheck.dominant_term_sweep(enclosure, min(2 - k, -1), n_max)
            found = _oracles.term_bound_witnesses(
                q, k, n_max, cells.table(q, k), rows, work, _float_text)
            if all(w[3] == "fail" for witnesses in found for w in witnesses):
                break
        per_n = [lawcheck._report(law_id, grid, [lawcheck.Witness(*w) for w in witnesses],
                                  max(bits, work))
                 for law_id, witnesses in zip(("error-bound", "growth-bounds"), found)]
        assert check_term_bounds(CellContext(grid, bits)) == per_n

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

    def test_enclosure_just_inside_the_bound_settles(self, monkeypatch):
        # at q = 3 and even w, 2^w - 1 is a multiple of q, so the E_20
        # enclosure can end one unit of q 2^w inside -1/q and 1/q: the
        # integer compares settle it at its rung, with no _inside call
        real_sweep, real_inside = lawcheck.dominant_term_sweep, lawcheck._inside
        exact = term_table(SequenceParams(3, 3), 20)[-1]
        rungs, calls = [], []

        def sweep(enclosure, n_lo, n_hi):
            rows = real_sweep(enclosure, n_lo, n_hi)
            work = enclosure.interval.bits
            rungs.append(work)
            # q (F_n 2^w - t) = 2^w - 1 at t_lo and -(2^w - 1) at t_hi
            scaled, edge = 3 * exact << work, 1 << work
            rows[2][20 - n_lo] = (scaled - edge + 1) // 3
            rows[3][20 - n_lo] = (scaled + edge - 1) // 3
            return rows

        monkeypatch.setattr(lawcheck, "dominant_term_sweep", sweep)
        monkeypatch.setattr(lawcheck, "_inside", lambda *args: calls.append(args) or real_inside(*args))
        error, growth = check_term_bounds(CellContext(Grid((3,), (3,), 40), 64))
        assert len(rungs) == 1 and rungs[0] % 2 == 0
        assert [(r.verdict, r.bits_used) for r in (error, growth)] == [("pass", rungs[0])] * 2
        assert calls == []

    @pytest.mark.parametrize("side", (-1, 1))
    def test_enclosure_on_the_bound_climbs(self, monkeypatch, side):
        # at q = 4, 1/q is the integer 2^(w-2) at scale 2^-w, so the E_20
        # enclosure can be widened to end exactly on +-1/q at the first
        # rung; the strict bound is not settled there, so the cell climbs
        real = lawcheck.dominant_term_sweep
        exact = term_table(SequenceParams(4, 3), 20)[-1]
        rungs, touch = [], False

        def sweep(enclosure, n_lo, n_hi):
            rows = real(enclosure, n_lo, n_hi)
            work = enclosure.interval.bits
            rungs.append(work)
            if touch and len(rungs) == 1:
                # E_n = F_n - term, so the term's ends set E_n's other ends
                term_lo, term_hi = rows[2:]
                if side > 0:
                    term_lo[20 - n_lo] = (exact << work) - (1 << work) // 4
                else:
                    term_hi[20 - n_lo] = (exact << work) + (1 << work) // 4
            return rows

        monkeypatch.setattr(lawcheck, "dominant_term_sweep", sweep)
        grid = Grid((4,), (3,), 40)
        untouched = check_term_bounds(CellContext(grid, 64))
        first = rungs[0]
        assert rungs == [first]
        assert [(r.verdict, r.bits_used) for r in untouched] == [("pass", first)] * 2
        rungs.clear()
        touch = True
        error, growth = check_term_bounds(CellContext(grid, 64))
        assert rungs == [first, 2 * first]
        assert (error.verdict, error.bits_used) == ("pass", 2 * first)
        assert growth.verdict == "pass"

    @pytest.mark.parametrize("side", (-1, 1))
    def test_enclosure_inside_from_the_bound_fails(self, monkeypatch, side):
        # an E_20 enclosure whose inner end lies exactly on +-1/q certifies
        # |E_20| >= 1/q, which falsifies the strict bound at that rung
        real = lawcheck.dominant_term_sweep
        exact = term_table(SequenceParams(4, 3), 20)[-1]
        rungs = []

        def sweep(enclosure, n_lo, n_hi):
            rows = real(enclosure, n_lo, n_hi)
            work = enclosure.interval.bits
            rungs.append(work)
            if len(rungs) == 1:
                # E_n = F_n - term: the term's end nearer F_n 2^w sets
                # E_n's inner end, put on +-1/q = +-2^(w-2); the other
                # end lies one unit past it
                term_lo, term_hi = rows[2:]
                inner = (exact << work) - side * ((1 << work) // 4)
                term_lo[20 - n_lo], term_hi[20 - n_lo] = sorted((inner, inner - side))
            return rows

        monkeypatch.setattr(lawcheck, "dominant_term_sweep", sweep)
        error, growth = check_term_bounds(CellContext(Grid((4,), (3,), 40), 64))
        assert len(rungs) == 1
        assert (error.verdict, error.bits_used) == ("fail", rungs[0])
        (witness,) = error.witnesses
        assert (witness.n, witness.kind) == (20, "fail")
        assert witness.detail.startswith("|E_20| certified above 1/q: ")
        assert growth.verdict == "pass"

    def test_report_digest(self, monkeypatch):
        # report JSON over passing, starved and forged grids, pinned when
        # each comparison had two paths; any moved verdict, witness, text
        # or bits_used changes it
        def forged(params, n_max):
            table, first = term_table(params, n_max), params.min_index
            table[40 - first] += 1
            table[60 - first] *= 2
            table[80 - first] = table[80 - first] * 3 // 4
            return table

        runs = [(Grid.default(), bits) for bits in (8, 16, 192)]
        runs.append((Grid((3, 7, 11), (2, 3, 10, 20), 200), 64))
        payload = [[r.to_json() for r in check_term_bounds(CellContext(grid, bits))]
                   for grid, bits in runs]
        monkeypatch.setattr(lawcheck, "term_table", forged)
        payload += [[r.to_json() for r in check_term_bounds(
            CellContext(Grid((3, 4, 7), (2, 4, 9), 130), bits))] for bits in (8, 192)]
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e350aa6783b116b886799c6b2b0d73f60568c51d5c3d93d85ec026ae4138df2c")

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

    def test_disc_wider_than_its_centre_is_inconclusive(self, monkeypatch):
        # a disc that reaches 0 bounds no term: the sum is refused, which
        # proves nothing about F_n
        real_discs = binet._secondary_discs

        def wide_discs(params, bits):
            return tuple(replace(s, radius_num=abs(s.re_num) + abs(s.im_num) + 1)
                         for s in real_discs(params, bits))

        monkeypatch.setattr(binet, "_secondary_discs", wide_discs)
        (report,) = check_reconstruction(CellContext(Grid((3,), (2, 3), 10), 256))
        assert report.verdict == "inconclusive"
        assert [(w.k, w.n, w.kind) for w in report.witnesses] == [
            (2, None, "inconclusive"), (3, None, "inconclusive")]
        assert all("too wide to bound its term" in w.detail for w in report.witnesses)


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

    @pytest.mark.parametrize("bits", [16, 64])
    def test_decided_below_the_cap(self, bits):
        # E_40 is about -5.3e-14 at (4, 3) and far smaller at (4, 2): each
        # is decided against 1e-15 past a 2^-32 wide enclosure, below the cap
        probe = error_decay_probe(Grid((4,), (2, 3), 40), bits, threshold=Fraction(1, 10**15))
        assert [(w.q, w.k, w.kind, w.detail) for w in probe.failures] == [
            (4, 3, "fail", "|E_40| certified >= 1.0e-15: [-5.32128e-14, -5.32128e-14]")]

    def test_inconclusive_only_at_the_cap(self):
        # at 8 bits no rung up to the 16x cap pins E_300 below 1e-6
        grid = Grid.default()
        probe = error_decay_probe(grid, 8, n_probe=300)
        assert [(w.q, w.k) for w in probe.failures] == grid.cells
        assert {(w.kind, w.detail) for w in probe.failures} == {
            ("inconclusive", "E_300 enclosure too wide at 128 bits")}


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
        assert (counts["term_table"], counts["dominant_root"]) == (0, 0)
        run_laws("error-bound", Grid.default(), 192)
        assert (counts["term_table"], counts["dominant_root"]) == (21, 21)

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

    def test_tables_reach_only_what_the_chosen_laws_read(self, monkeypatch):
        # reconstruction stops at n = 60, so a grid to n = 5000 builds no
        # term past it; the identities stop at 500
        built, real_table = [], lawcheck.term_table

        def table(params, n_max):
            built.append((params.k, n_max))
            return real_table(params, n_max)

        monkeypatch.setattr(lawcheck, "term_table", table)
        (report,) = run_laws("reconstruction", Grid((3,), (2, 3), 5000), 256)
        assert (report.verdict, report.grid.n_max) == ("pass", 60)
        assert built == [(2, 60), (3, 60)]
        built.clear()
        run_laws("identities", Grid((3,), (2,), 800), 192)
        assert built == [(2, 500)]

    def test_single_k_monotone_compares_the_next_k(self, counts, monkeypatch):
        built, real = [], lawcheck.CharPoly.of
        monkeypatch.setattr(lawcheck.CharPoly, "of", lambda params: built.append(
            (params.q, params.k)) or real(params))
        reports = run_laws("lemma1", Grid((3, 4), (5,), 10), 96)
        assert all(r.verdict == "pass" for r in reports)
        assert built == [(3, 5), (3, 6), (4, 5), (4, 6)]
        assert counts["dominant_root"] == 0


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

    def test_selectors_cover_each_law_once(self):
        # the selectors but "all" split LAW_IDS in canonical order, so each
        # law id is in exactly one of them; the CLI lists them in this order
        assert list(lawcheck._SELECTORS) == [
            "identities", "lemma1", "lemma2", "error-bound", "growth", "reconstruction", "all"]
        assert lawcheck._SELECTORS["all"] == LAW_IDS
        assert len(set(LAW_IDS)) == len(LAW_IDS)
        split = [law_id for selector, law_ids in lawcheck._SELECTORS.items()
                 if selector != "all" for law_id in law_ids]
        assert tuple(split) == LAW_IDS

    def test_unknown_selector(self):
        with pytest.raises(DomainError):
            run_laws("bogus", Grid((3,), (2,), 10), 64)
