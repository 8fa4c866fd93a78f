"""Acceptance suite: one check per stated criterion, each printing a
single PASS/FAIL line (run with -s or see captured output on failure).

Criterion 4's decay clause as stated (certified |E_40| < 1e-6 across the
whole default grid) is false: the largest secondary-root modulus on the
grid is ~0.92, so |E_40| still sits near 1e-3 for the large-k cells.  Its
check therefore runs the stated probe unchanged and asserts that the
probe certifies exactly the counterexamples an independent oracle
(tests/_oracles.py) finds, and that the decay the proxy stands for is
certified at the grid's own n_max = 300.
"""
import time
from fractions import Fraction

import pytest

from qkbonacci import (
    AuxPoly,
    CharPoly,
    CompanionKind,
    Grid,
    SequenceParams,
    all_roots,
    check_reconstruction,
    check_root_laws,
    check_term_bounds,
    companion_term,
    dominant_root,
    error_decay_probe,
    error_term,
    series_coefficients,
    term_fast,
    term_shortcut,
    term_table,
    theorem3_term,
    u_closed_form,
)
from qkbonacci.cli import main

from _oracles import (
    ERRATUM_CELL,
    ERRATUM_CORRECT_VALUE,
    PUBLISHED_TABLE_Q3,
    PUBLISHED_TABLE_Q4,
    error_term_at_bracket_ends,
)

DEFAULT_GRID = Grid.default()  # q in {3,4,5}, k in {2..8}, n_max = 300


def announce(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {tag}] {status}{suffix}")


@pytest.fixture(scope="module")
def term_bound_reports():
    return {r.law_id: r for r in check_term_bounds(DEFAULT_GRID, 192)}


def test_criterion_1_published_table_regression(capsys):
    start = time.perf_counter()
    entries = {}
    notes = ""
    for q in (3, 4):
        code = main(["table", "--q", str(q), "--k-min", "2", "--k-max", "5",
                     "--n-max", "9"])
        captured = capsys.readouterr()
        assert code == 0
        notes += captured.err
        for line in captured.out.strip().split("\n")[1:]:
            qq, k, n, value = (int(part) for part in line.split(","))
            entries[(qq, k, n)] = value
    elapsed = time.perf_counter() - start

    mismatches = []
    for q, published in ((3, PUBLISHED_TABLE_Q3), (4, PUBLISHED_TABLE_Q4)):
        for k, row in published.items():
            for n, value in enumerate(row, start=1):
                if (q, k, n) == ERRATUM_CELL:
                    if entries[(q, k, n)] != ERRATUM_CORRECT_VALUE:
                        mismatches.append((q, k, n))
                elif entries[(q, k, n)] != value:
                    mismatches.append((q, k, n))
    ok = not mismatches and "132565" in notes and elapsed < 1.0
    announce("1: published-table regression", ok,
             f"{len(entries)} entries, {elapsed:.2f}s, erratum noted on stderr")
    assert mismatches == []
    assert "132565" in notes, "erratum note missing from stderr"
    assert elapsed < 1.0


def test_criterion_2_cross_strategy_equivalence():
    start = time.perf_counter()
    mismatches = []
    for q in range(1, 6):
        for k in range(2, 11):
            params = SequenceParams(q, k)
            table = term_table(params, 200)
            offset = params.min_index

            def expect(n):
                return table[n - offset]

            for n in range(offset, 201):
                if term_shortcut(params, n) != expect(n):
                    mismatches.append(("shortcut", q, k, n))
            coeffs = series_coefficients(params, 201)
            for n in range(0, 201):
                if coeffs[n] != expect(n):
                    mismatches.append(("series", q, k, n))
            for n in range(1, 201):
                if term_fast(params, n) != expect(n):
                    mismatches.append(("fast", q, k, n))
            if q >= 3:
                for n in range(1, 201):
                    if theorem3_term(params, n) != expect(n):
                        mismatches.append(("theorem3", q, k, n))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    announce("2: cross-strategy equivalence", ok,
             f"q in 1..5, k in 2..10, n to 200; {elapsed:.2f}s")
    assert mismatches == []
    assert elapsed < 60.0


def test_criterion_3_binet_reconstruction():
    grid = Grid((3, 4, 5), tuple(range(2, 9)), 60)
    (report,) = check_reconstruction(grid, 256)
    ok = report.verdict == "pass"
    announce("3: full-roots reconstruction", ok,
             "n in [2-k, 60] at 256 bits; guards residual, imag < 1/4")
    assert ok, [w.detail for w in report.witnesses]


def test_criterion_4_error_bound_certified(term_bound_reports):
    report = term_bound_reports["error-bound"]
    ok = report.verdict == "pass"
    announce("4: error bound |E_n| <= 1/q", ok,
             f"n in [2-k, 300], settled at {report.bits_used} bits, "
             f"strict also certified: {report.strict_also_certified}")
    assert ok, [w.detail for w in report.witnesses]


def test_criterion_4_decay_proxy_as_stated():
    # stated threshold: certified |E_40| < 1e-6 on the whole default grid
    threshold = Fraction(1, 10**6)
    probe = error_decay_probe(DEFAULT_GRID, 192, n_probe=40,
                              threshold=threshold)

    # the oracle must put both ends of each cell's gamma bracket on one
    # side of the threshold; a cell it cannot place fails the test
    oracle = {cell: error_term_at_bracket_ends(*cell, 40)
              for cell in DEFAULT_GRID.cells}
    undecided = [cell for cell, (a, b) in oracle.items()
                 if (abs(a) >= threshold) != (abs(b) >= threshold)]
    expected = {cell for cell, (a, _) in oracle.items() if abs(a) >= threshold}
    reported = {(w.q, w.k) for w in probe.failures}
    malformed = [w for w in probe.failures if w.kind != "fail" or w.n != 40]
    outside = [
        (q, k) for (q, k), ends in oracle.items()
        if not all(error_term(SequenceParams(q, k), 40, 192).interval.contains(e)
                   for e in ends)
    ]

    # the decay the proxy stands for, certified at the grid's own n_max
    decay = error_decay_probe(DEFAULT_GRID, 192, n_probe=DEFAULT_GRID.n_max,
                              threshold=threshold)

    ok = (not undecided and reported == expected and not malformed
          and not outside and decay.passed)
    announce("4: decay proxy |E_40| < 1e-6 on default grid matches oracle", ok,
             f"{len(probe.failures)} certified counterexamples; "
             f"|E_{DEFAULT_GRID.n_max}| < 1e-6 certified: {decay.passed}")
    assert undecided == [], "oracle cannot place these cells: " + repr(undecided)
    assert reported == expected, (
        f"probe-only cells {sorted(reported - expected)}, "
        f"oracle-only cells {sorted(expected - reported)}"
    )
    assert malformed == [], [(w.q, w.k, w.n, w.kind, w.detail) for w in malformed]
    assert outside == [], "oracle E_40 outside the error_term enclosure at " + repr(outside)
    assert decay.passed, [(w.q, w.k, w.kind, w.detail) for w in decay.failures]


def test_criterion_5_growth_chain(term_bound_reports):
    report = term_bound_reports["growth-bounds"]
    ok = report.verdict == "pass"
    announce("5: growth chain gamma^(n-2) < ... < gamma^n", ok,
             f"1 <= n <= 300, settled at {report.bits_used} bits")
    assert ok, [w.detail for w in report.witnesses]


def test_criterion_6_root_laws():
    reports = check_root_laws(DEFAULT_GRID, 192)
    verdicts = {r.law_id: r.verdict for r in reports}
    bracket_ok = True
    unit_circle_ok = True
    for q in DEFAULT_GRID.q_values:
        for k in DEFAULT_GRID.k_values:
            params = SequenceParams(q, k)
            enclosure = dominant_root(params, 192).interval
            if not (enclosure.strictly_above(q) and enclosure.strictly_below(q + 1)):
                bracket_ok = False
            if not all_roots(params, 192).certified_inside_unit_circle():
                unit_circle_ok = False
    # the grid must span all three proof regimes of the weight lemma
    regimes_ok = all(
        2 in DEFAULT_GRID.k_values
        and any(3 <= k <= q for k in DEFAULT_GRID.k_values)
        and any(k >= q + 1 for k in DEFAULT_GRID.k_values)
        for q in DEFAULT_GRID.q_values
    )
    ok = (
        all(v == "pass" for v in verdicts.values())
        and bracket_ok
        and unit_circle_ok
        and regimes_ok
    )
    announce("6: root laws (monotone, sandwiches, bracket, unit circle)", ok,
             f"verdicts {verdicts}")
    assert ok


def test_criterion_7_closed_form_u():
    failures = []
    for q in (3, 4, 5):
        for n in range(1, 61):
            enclosure = u_closed_form(q, n, 192)
            exact = companion_term(q, CompanionKind.U, n)
            if not enclosure.contains(exact) or not enclosure.width < Fraction(1, 2):
                failures.append((q, n))
    ok = not failures
    announce("7: closed-form U encloses exact terms", ok,
             "q in {3,4,5}, n <= 60 at 192 bits, width < 1/2")
    assert failures == []


def test_criterion_8_polynomial_identity():
    failures = []
    for q in range(1, 11):
        for k in range(2, 17):
            params = SequenceParams(q, k)
            phi = CharPoly.of(params).coefficients
            product = tuple(a - b for a, b in zip((0,) + phi, phi + (0,)))
            if product != AuxPoly.of(params).coefficients:
                failures.append((q, k))
    ok = not failures
    announce("8: (t-1) * Phi = h coefficient-exact", ok, "q <= 10, k <= 16")
    assert failures == []


def test_criterion_9_performance(capsys):
    params = SequenceParams(3, 2)
    start = time.perf_counter()
    big = term_fast(params, 10**6)
    fast_elapsed = time.perf_counter() - start
    agree = term_fast(params, 10**4) == term_shortcut(params, 10**4)

    code = main(["bench", "--q", "3", "--k", "2", "--n", "100000",
                 "--reps", "1"])
    captured = capsys.readouterr()
    assert code == 0
    timings = {}
    for line in captured.out.strip().split("\n")[1:]:
        parts = line.split(",")
        timings[parts[0]] = float(parts[-1])
    fast_wins = timings["fast"] < timings["def"] and timings["fast"] < timings["shortcut"]

    ok = fast_elapsed < 5.0 and agree and fast_wins
    announce("9: performance", ok,
             f"fast n=1e6 in {fast_elapsed:.2f}s ({big.bit_length()} bits); "
             f"bench n=1e5: fast={timings['fast']:.3f}s "
             f"def={timings['def']:.3f}s shortcut={timings['shortcut']:.3f}s")
    assert fast_elapsed < 5.0
    assert agree
    assert fast_wins
