import contextlib
import decimal
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbonacci import SequenceParams, cli, dominant_root, term_definition, term_table
from qkbonacci.cli import main

from _oracles import (
    ERRATUM_CORRECT_VALUE,
    PUBLISHED_TABLE_Q3,
    brute_force_terms,
    directed_decimal_text,
    sqrt_approx,
    table_text,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(*argv):
    """main(argv) with stdout and stderr captured, for tests that cannot
    take a function-scoped fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def no_digit_limit():
    """CPython's int-to-str digit limit lifted, and restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def module_env():
    """The environment for a ``python -m qkbonacci`` child that imports the
    package the suite imported, installed or not."""
    import qkbonacci

    package_root = os.path.dirname(os.path.dirname(qkbonacci.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))


def digit_limit():
    """CPython's int-to-str digit limit, or None where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.fixture
def default_digit_limit():
    """CPython's default int-to-str digit limit, whatever an earlier
    in-process call set; restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(before)


class TestTerm:
    def test_basic(self, capsys):
        code, out, err = run_cli(capsys, "term", "--q", "3", "--k", "2", "--n", "6")
        assert (code, out) == (0, "360\n")

    def test_initial_condition(self, capsys):
        code, out, _ = run_cli(capsys, "term", "--q", "3", "--k", "2", "--n", "0")
        assert (code, out) == (0, "0\n")

    def test_erratum_cell_fast(self, capsys):
        code, out, err = run_cli(
            capsys, "term", "--q", "4", "--k", "5", "--n", "9", "--method", "fast"
        )
        assert code == 0
        assert out == f"{ERRATUM_CORRECT_VALUE}\n"
        assert "132565" in err

    def test_methods_agree(self, capsys):
        outputs = set()
        for method in ("def", "shortcut", "fast", "theorem3"):
            code, out, _ = run_cli(
                capsys, "term", "--q", "4", "--k", "3", "--n", "12",
                "--method", method,
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_theorem3_digest(self, capsys):
        # pins the companion form around n = k+1, where its sum starts,
        # and far past the identity checks' n_max
        outputs = []
        for q in (3, 5, 10):
            for k in (2, 7, 16):
                for n in (1, k + 1, k + 2, 100, 500, 2000):
                    code, out, _ = run_cli(
                        capsys, "term", "--q", str(q), "--k", str(k),
                        "--n", str(n), "--method", "theorem3")
                    assert code == 0
                    outputs.append(out)
        assert hashlib.sha256("".join(outputs).encode()).hexdigest() == (
            "c4d8d30ccc3026a91ded8cc09a28d61c246d2ece285aa18887848a155c3bbe97")

    def test_binet_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "term", "--q", "3", "--k", "2", "--n", "6", "--method", "binet"
        )
        assert code == 0
        assert out == "360\n"

    def test_binet_digest(self, capsys):
        # the certified full-roots sum prints what the recurrence prints, at
        # a working precision and at one far below it, n = 155 included
        for bits in (256, 32):
            for q in (1, 2, 3, 4, 6):
                for k in (2, 3, 5, 9, 16):
                    for n in (1, 5, 30, 60, 100, 155):
                        argv = ("term", "--q", str(q), "--k", str(k), "--n", str(n))
                        binet = run_cli(capsys, *argv, "--method", "binet", "--bits", str(bits))
                        assert binet == run_cli(capsys, *argv, "--method", "def"), argv
                        assert binet[0] == 0

    def test_binet_at_large_q(self, capsys):
        # the secondary roots polish at the default 256 bits at q = 10^4
        argv = ("term", "--q", "10000", "--k", "8", "--n", "20")
        binet = run_cli(capsys, *argv, "--method", "binet")
        assert binet == run_cli(capsys, *argv, "--method", "def")
        assert binet[0] == 0

    @pytest.mark.parametrize("q", ["1000000000", "1000000000000"])
    def test_binet_weight_rounding_at_huge_q(self, capsys, q):
        # the dominant precision covers the weight's rounding times gamma^n,
        # one factor q + 1 more than the term's width; sized from
        # (q+1)^(n-1) alone, q = 10^9 was refused with radius 121
        argv = ("term", "--q", q, "--k", "2", "--n", "30")
        binet = run_cli(capsys, *argv, "--method", "binet")
        assert binet == run_cli(capsys, *argv, "--method", "def")
        assert binet[0] == 0

    def test_domain_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "term", "--q", "3", "--k", "2", "--n", "-1")
        assert code == 2
        assert out == ""
        assert "n >= 2-k" in err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["term", "--q", "3"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_digits_past_the_str_limit(self, capsys, default_digit_limit):
        # F_5000 at (10, 2) has 5,021 digits, past the 4,300 that CPython
        # converts by default; every method prints all of them, and main
        # leaves the limit as it found it
        limit = digit_limit()
        methods = (*cli._ROUTES, "binet")
        outputs = [
            run_cli(capsys, "term", "--q", "10", "--k", "2", "--n", "5000",
                    "--method", method)
            for method in methods
        ]
        assert digit_limit() == limit
        with no_digit_limit():
            digits = str(term_definition(SequenceParams(10, 2), 5000))
        assert len(digits) == 5021
        assert outputs == [(0, digits + "\n", "")] * len(methods)


class TestTable:
    def test_reproduces_published_q3_table(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--q", "3", "--k-min", "2", "--k-max", "5",
            "--n-max", "9",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q,k,n,value"
        seen = {}
        for line in lines[1:]:
            q, k, n, value = line.split(",")
            seen[(int(q), int(k), int(n))] = int(value)
        for k, row in PUBLISHED_TABLE_Q3.items():
            for n, value in enumerate(row, start=1):
                assert seen[(3, k, n)] == value
        assert err == ""

    def test_erratum_note_on_stderr_only(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--q", "4", "--k-min", "5", "--k-max", "5",
            "--n-max", "9",
        )
        assert code == 0
        assert out.strip().split("\n")[-1] == f"4,5,9,{ERRATUM_CORRECT_VALUE}"
        assert "132565" in err
        assert "132565" not in out

    def test_single_seed_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--q", "3", "--k-min", "2", "--k-max", "2",
            "--n-max", "1",
        )
        assert (code, out) == (0, "q,k,n,value\n3,2,1,1\n")

    def test_byte_stable(self, capsys):
        args = ("table", "--q", "5", "--k-min", "2", "--k-max", "4", "--n-max", "20")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--q", "3", "--k-min", "2", "--k-max", "2",
            "--n-max", "3", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {"q": 3, "k": 2, "n": 1, "value": 1},
            {"q": 3, "k": 2, "n": 2, "value": 3},
            {"q": 3, "k": 2, "n": 3, "value": 10},
        ]

    @pytest.mark.parametrize("n_max, k_max", [(1, 2), (3, 2), (4, 5)])
    def test_json_bytes(self, capsys, n_max, k_max):
        # rows are written without the json module, byte for byte as
        # json.dumps(..., indent=2) writes them; (1, 2) is a one-row table
        code, out, _ = run_cli(
            capsys, "table", "--q", "7", "--k-min", "2", "--k-max", str(k_max),
            "--n-max", str(n_max), "--format", "json",
        )
        assert code == 0
        expected = json.dumps(json.loads(out), indent=2) + "\n"
        assert out == expected
        assert len(json.loads(out)) == (k_max - 1) * n_max

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--q", "3", "--k-min", "2", "--k-max", "2",
            "--n-max", "1", "--format", "markdown",
        )
        assert code == 0
        assert out.split("\n")[0] == "| q | k | n | value |"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "table", "--q", "3", "--k-min", "2", "--k-max", "2",
            "--n-max", "2", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "q,k,n,value\n3,2,1,1\n3,2,2,3\n"

    def test_invalid_range_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--q", "3", "--k-min", "4", "--k-max", "2",
            "--n-max", "9",
        )
        assert code == 2
        assert "invalid table range" in err

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(
            capsys, "table", "--q", "3", "--k-min", "2", "--k-max", "3",
            "--n-max", "5", "--output", str(missing),
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --output {missing}: No such file or directory\n"
        code, _, err = run_cli(
            capsys, "table", "--q", "3", "--k-min", "2", "--k-max", "3",
            "--n-max", "5", "--output", str(tmp_path),
        )
        assert code == 2
        assert err.startswith("error: cannot write --output")

    @given(q=st.integers(1, 10), k_min=st.integers(2, 16), span=st.integers(0, 2),
           n_max=st.integers(1, 400), fmt=st.sampled_from(("csv", "json", "markdown")))
    @settings(max_examples=60, deadline=None)
    # q = 1 steps by (q - 1) F_{n-1} = 0
    @example(q=1, k_min=2, span=2, n_max=60, fmt="csv")
    @example(q=3, k_min=2, span=1, n_max=1, fmt="json")
    # the benchmark menu's largest table
    @example(q=6, k_min=6, span=2, n_max=1916, fmt="markdown")
    def test_bytes_match_independent_writer(self, q, k_min, span, n_max, fmt):
        code, out, _ = run_captured(
            "table", "--q", str(q), "--k-min", str(k_min), "--k-max", str(k_min + span),
            "--n-max", str(n_max), "--format", fmt)
        assert code == 0
        assert out == table_text(q, k_min, k_min + span, n_max, fmt)

    # digests recorded from the int-arithmetic table writer that the
    # Decimal one replaced; the first has rows of 5,021 digits
    @pytest.mark.parametrize("argv, digest", [
        ("--q 10 --k-min 2 --k-max 2 --n-max 5000 --format csv",
         "a7f0d0b6fa29002776499f29746b44217d3d025760b8529378392c6af7ce9651"),
        ("--q 10 --k-min 2 --k-max 3 --n-max 5000 --format json",
         "019f136658976020234f830ae70e5d357ed0ab1a1de32d37730173488dabae52"),
        ("--q 6 --k-min 6 --k-max 8 --n-max 1916 --format markdown",
         "add46cfbfcbe9571c77d74759be394eedb7e91138afb4eac4de0ba813c672d90"),
        ("--q 1 --k-min 2 --k-max 4 --n-max 400 --format json",
         "aa3f411dd4e82a16fab8fa139d9fb1b37f6c112ee9959f63b65b335e433e955b"),
    ])
    def test_digest(self, capsys, tmp_path, default_digit_limit, argv, digest):
        limit = digit_limit()
        code, out, _ = run_cli(capsys, "table", *argv.split())
        assert code == 0
        assert digit_limit() == limit
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        target = tmp_path / "table.out"
        code, out, _ = run_cli(capsys, "table", *argv.split(), "--output", str(target))
        assert (code, out) == (0, "")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


class TestExactDecimal:
    """The table and term printers compute in Decimal; nothing may round."""

    def test_narrow_context_raises(self):
        # F_2000 at (6, 8) has about 1,640 digits; a 50-digit context with
        # the printers' traps must refuse it, not round it
        narrow = decimal.Context(
            prec=50, traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow])
        with decimal.localcontext(narrow), pytest.raises(decimal.DecimalException) as info:
            term_table(SequenceParams(6, 8), 2000, decimal.Decimal(1))
        # the C decimal module raises the first trapped signal and lists all
        assert decimal.Rounded in info.value.args[0]

    def test_cli_context_cannot_round(self):
        exact = cli._EXACT
        assert exact.prec == decimal.MAX_PREC
        assert exact.traps[decimal.Inexact] and exact.traps[decimal.Rounded]
        with decimal.localcontext(exact):
            values = term_table(SequenceParams(6, 8), 2000, decimal.Decimal(1))
        assert values == term_table(SequenceParams(6, 8), 2000)

    # F_1500 at (3, 2) has 2,584 bits, so _int_str splits it
    @pytest.mark.parametrize("argv, expected", [
        (("table", "--q", "6", "--k-min", "7", "--k-max", "8", "--n-max", "300"),
         table_text(6, 7, 8, 300, "csv")),
        (("term", "--q", "3", "--k", "2", "--n", "1500", "--method", "fast"),
         f"{term_definition(SequenceParams(3, 2), 1500)}\n"),
        (("series", "--q", "4", "--k", "3", "--count", "6"),
         "0\n1\n4\n17\n73\n313\n"),
    ], ids=("table", "term", "series"))
    def test_caller_context_unchanged(self, argv, expected):
        with decimal.localcontext() as caller:
            caller.prec = 17
            caller.traps[decimal.Inexact] = False
            caller.traps[decimal.Rounded] = False
            before = (caller.prec, dict(caller.traps))
            code, out, _ = run_captured(*argv)
            after = decimal.getcontext()
            assert (after.prec, dict(after.traps)) == before
        assert (code, out) == (0, expected)

    @given(n=st.builds(
        lambda bits, rng, sign: sign * rng.getrandbits(bits),
        st.integers(0, 200_000), st.randoms(use_true_random=False),
        st.sampled_from((1, -1))))
    @settings(max_examples=40, deadline=None)
    @example(n=0)
    @example(n=2**2048 - 1)
    @example(n=2**2048)
    @example(n=2**2048 + 1)
    @example(n=-(2**4097 + 1))
    @example(n=10**617)
    @example(n=10**4300)
    @example(n=10**60000)
    def test_int_str_matches_str(self, n):
        with no_digit_limit():
            assert cli._int_str(n) == str(n)


class TestRoot:
    def test_enclosure_contains_known_root(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--q", "3", "--k", "2",
                               "--bits", "64")
        assert code == 0
        assert out.startswith("[") and out.rstrip().endswith("]")
        lo_text, hi_text = out.strip()[1:-1].split(", ")
        gamma = (3 + sqrt_approx(13)) / 2
        assert Fraction(lo_text) <= gamma <= Fraction(hi_text)
        # 64-bit enclosure has ~19 identical leading digits
        assert lo_text[:15] == hi_text[:15] == "3.3027756377319"

    def test_places_past_the_str_limit(self, capsys, default_digit_limit):
        # 14,300 bits print to 4,305 decimal places, past the 4,300 digits
        # CPython converts by default
        limit = digit_limit()
        code, out, _ = run_cli(capsys, "root", "--q", "3", "--k", "2", "--bits", "14300")
        assert digit_limit() == limit
        box = dominant_root(SequenceParams(3, 2), 14300).interval
        lo = directed_decimal_text(box.lo, 4305, round_up=False)
        hi = directed_decimal_text(box.hi, 4305, round_up=True)
        assert (code, out) == (0, f"[{lo}, {hi}]\n")

    def test_compute_only_regime_digest(self, capsys):
        # pins the enclosures of q = 1 and q = 2, whose bisection starts
        # from (q, q+1) like every other q
        outputs = []
        for q in (1, 2):
            for k in range(2, 41):
                for bits in (8, 9, 64):
                    code, out, _ = run_cli(
                        capsys, "root", "--q", str(q), "--k", str(k), "--bits", str(bits))
                    assert code == 0
                    outputs.append(out)
        assert hashlib.sha256("".join(outputs).encode()).hexdigest() == (
            "c35bd112f2856f3872b882731ffd858c7b6864c5078952526ecd3405d8078671")


class TestSeries:
    def test_published_column(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--q", "4", "--k", "3",
                               "--count", "6")
        assert code == 0
        assert out == "0\n1\n4\n17\n73\n313\n"

    def test_coefficients_past_the_str_limit(self, capsys, default_digit_limit):
        # c_4999 = F_4999 at (10, 2) has 5,020 digits, past the 4,300 that
        # CPython converts by default; each line is str() of the int
        limit = digit_limit()
        code, out, _ = run_cli(capsys, "series", "--q", "10", "--k", "2",
                               "--count", "5000")
        assert digit_limit() == limit
        terms = brute_force_terms(10, 2, 4999)
        with no_digit_limit():
            lines = ["0"] + [str(terms[n]) for n in range(1, 5000)]
        assert len(lines[-1]) > 4300
        assert (code, out) == (0, "\n".join(lines) + "\n")


class TestVerify:
    def test_identities_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--law", "identities", "--q", "3",
            "--k-min", "2", "--k-max", "4", "--n-max", "30",
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["law_id"] for r in reports] == [
            "identity-theorem2", "identity-theorem3", "series-oracle",
        ]
        assert all(r["verdict"] == "pass" for r in reports)

    def test_report_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--law", "lemma2", "--q", "3",
            "--k-min", "2", "--k-max", "3", "--n-max", "10", "--bits", "96",
        )
        assert code == 0
        (report,) = json.loads(out)
        assert list(report) == ["law_id", "grid", "verdict", "witnesses",
                                "bits_used"]
        assert report["grid"] == {"q": [3], "k": [2, 3], "n_max": 10}

    def test_inconclusive_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--law", "error-bound", "--q", "3",
            "--k-min", "2", "--k-max", "2", "--n-max", "300", "--bits", "8",
        )
        assert code == 1
        (report,) = json.loads(out)
        assert report["verdict"] == "inconclusive"
        assert all(w["kind"] == "inconclusive" for w in report["witnesses"])

    def test_root_solve_refusal_is_inconclusive(self, capsys):
        # the solver's refusal at q = 10^20 proves nothing about F_n
        code, out, _ = run_cli(
            capsys, "verify", "--law", "reconstruction", "--q", str(10**20),
            "--k-min", "17", "--k-max", "17", "--n-max", "20", "--bits", "64",
        )
        assert code == 1
        (report,) = json.loads(out)
        assert report["verdict"] == "inconclusive"
        assert report["witnesses"] == [{"q": 10**20, "k": 17, "n": None, "kind": "inconclusive",
                                        "detail": "two inclusion discs overlap"}]

    def test_widths_past_float_range_are_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--law", "error-bound", "--q", "6",
            "--k-max", "2", "--n-max", "500", "--bits", "8",
        )
        assert code == 1
        (report,) = json.loads(out)
        assert (report["verdict"], report["bits_used"]) == ("inconclusive", 128)
        assert all(w["kind"] == "inconclusive" for w in report["witnesses"])
        assert report["witnesses"][-1]["detail"] == (
            "E_500 enclosure width 3.02e+357 not inside [-1/q, 1/q] at 128 bits")

    def test_regime_violation_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--law", "lemma1", "--q", "2",
            "--k-min", "2", "--k-max", "3", "--n-max", "10",
        )
        assert code == 2
        assert "q >= 3" in err

    @pytest.mark.parametrize("argv", [
        ("--k-min", "5", "--k-max", "2"),
        ("--law", "identities", "--n-max", "-3"),
        # the shortcut identity starts at n = 3
        ("--law", "all", "--q", "3", "--k-max", "3", "--n-max", "2"),
        # the companion-pair identity needs a q >= 3
        ("--law", "identities", "--q", "1", "--q", "2", "--k-min", "2", "--k-max", "3",
         "--n-max", "20"),
    ])
    def test_empty_grid_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_help_lists_the_selectors(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["verify", "--help"])
        assert exited.value.code == 0
        assert ("{identities,lemma1,lemma2,error-bound,growth,reconstruction,all}"
                in capsys.readouterr().out)

    def test_byte_stable(self, capsys):
        args = ("verify", "--law", "lemma1", "--q", "4", "--k-min", "2",
                "--k-max", "4", "--n-max", "10", "--bits", "96")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_default_grid_digest(self, capsys):
        # pins every verdict, witness and bits_used on the default grid, so
        # a precision change that moves any of them fails here
        code, out, _ = run_cli(capsys, "verify", "--law", "all")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ab34b8fe96a308c7077df51bafb73a19450d5a47433a2060b408f43323fbb0b1")

    def test_inconclusive_error_bound_digest(self, capsys):
        # an 8-bit request caps at 128 bits, too few for these n, so this
        # pins the inconclusive witness text that the default grid never
        # reaches
        code, out, _ = run_cli(
            capsys, "verify", "--law", "error-bound", "--q", "3", "--q", "7",
            "--k-min", "2", "--k-max", "9", "--n-max", "300", "--bits", "8")
        assert code == 1
        (report,) = json.loads(out)
        assert (report["verdict"], report["bits_used"]) == ("inconclusive", 128)
        assert len(report["witnesses"]) == 3893
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "42238da2747e94725480a9e038edd01bc8be1517f91b378e94d0ed35c4110cf5")

    def test_identities_whole_domain_digest(self, capsys):
        # q 1-10, k 2-16, n_max 500: every cell the identity checks accept
        argv = ["verify", "--law", "identities"]
        for q in range(1, 11):
            argv += ["--q", str(q)]
        code, out, _ = run_cli(capsys, *argv, "--k-min", "2", "--k-max", "16",
                               "--n-max", "500")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "99fa732f3e39eb938beac9bffa4b1ce6dc947caa1099bac4a94550f8ba3f6c19")

    @pytest.mark.parametrize("argv, code, digest", [
        (("--law", "lemma1", "--q", "3", "--q", "10", "--k-min", "2", "--k-max", "40",
          "--bits", "8"), 0, "090e56daedd7f21dd43209d93d8fc3a470fe3972bca48e902a3fb538b63daf61"),
        (("--law", "lemma2", "--q", "3", "--q", "10", "--k-min", "2", "--k-max", "40",
          "--bits", "8"), 0, "0717b26195834a4f8d7118b31a2871a6730ac485232a7b874d0df89f5d6283d5"),
        (("--law", "all", "--bits", "16"), 1,
         "25b1bc111cc14f3b827fcac33af3c5d391879bbc1814fb0978beaaa175455abb"),
        (("--law", "lemma1", "--q", "10", "--k-min", "60", "--k-max", "64", "--bits", "8"), 0,
         "0b36540f224dfc9109c2e6543762a93323885f28f02535016fd4c82869675a13"),
    ], ids=["lemma1-q3-q10-k2-40-bits8", "lemma2-q3-q10-k2-40-bits8", "all-default-bits16",
            "lemma1-q10-k60-64-bits8"])
    def test_root_law_rungs_digest(self, capsys, argv, code, digest):
        # grids whose interval root laws once settled at different rungs or
        # not at all at 8 bits: the exact laws pass them with bits_used 0,
        # and --bits 16 leaves only error-bound's climb, inconclusive
        exit_code, out, _ = run_cli(capsys, "verify", *argv)
        assert exit_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_full_run_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--law", "all", "--q", "3",
            "--k-min", "2", "--k-max", "8", "--n-max", "300",
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 9
        assert all(r["verdict"] == "pass" for r in reports)

    @pytest.mark.parametrize("law", [
        "identities", "lemma1", "lemma2", "error-bound", "growth", "reconstruction", "all",
    ])
    def test_bits_below_eight_exit_2(self, capsys, law):
        # refused before any law runs, whether or not the law bisects
        code, out, err = run_cli(
            capsys, "verify", "--law", law, "--q", "3", "--k-min", "2",
            "--k-max", "2", "--n-max", "10", "--bits", "7")
        assert (code, out) == (2, "")
        assert err == "error: bits must be >= 8, got 7\n"

    def test_benchmark_menu_digest(self):
        # every verify request of the benchmark's verify menu, in label
        # order: pins each exit code and every stdout byte
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads_menu", path)
        workloads = importlib.util.module_from_spec(spec)
        # dataclasses look their module up by name
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
        menu = sorted((req for req in workloads.verify_menu(random.Random(1))
                       if req.kind.startswith("verify:")), key=lambda req: req.label)
        assert len(menu) == 36
        digest = hashlib.sha256()
        for req in menu:
            code, out, _ = run_captured(*req.args[-1])
            digest.update(f"{req.label}\n{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "bba8653ad4032d285648d61476ba4658679d88ca1ea9384ae18c7fc84aab48a2")


class TestBench:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--q", "3", "--k", "2", "--n", "200",
            "--reps", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "strategy,q,k,n,reps,best_seconds"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "def", "shortcut", "fast",
        ]

    @pytest.mark.parametrize("methods, rows", [
        (("fast",), ["fast"]),
        # once each, in the order asked
        (("fast", "def", "fast"), ["fast", "def"]),
    ])
    def test_method_selects_routes(self, capsys, methods, rows):
        argv = ["bench", "--q", "3", "--k", "2", "--n", "200", "--reps", "1"]
        for method in methods:
            argv += ["--method", method]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == rows

    def test_agreement_checked_only_between_routes(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._ALL_Q_ROUTES, "shortcut", lambda params, n: -1)
        argv = ("bench", "--q", "3", "--k", "2", "--n", "50", "--reps", "1")
        code, _, _ = run_cli(capsys, *argv, "--method", "shortcut")
        assert code == 0
        code, _, err = run_cli(capsys, *argv, "--method", "def", "--method", "shortcut")
        assert code == 2
        assert err == "error: strategy shortcut disagrees at n=50\n"

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_exit_2(self, capsys, reps):
        code, out, err = run_cli(
            capsys, "bench", "--q", "3", "--k", "2", "--n", "10", "--reps", reps,
        )
        assert (code, out) == (2, "")
        assert err == f"error: --reps must be >= 1, got {reps}\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_exit_2(self, capsys, n):
        # rejected before the CSV header or any row is printed
        code, out, err = run_cli(
            capsys, "bench", "--q", "3", "--k", "2", "--n", n, "--reps", "1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: --n must be >= 1, got {n}\n"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qkbonacci", "term", "--q", "3", "--k", "2",
             "--n", "6"],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "360\n"

        proc = subprocess.run(
            [sys.executable, "-m", "qkbonacci", "term", "--q", "3", "--k", "2",
             "--n", "-5"],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 2

    def test_closed_pipe_exits_2_quietly(self):
        # like `table ... | head -1`: the reader leaves after one line,
        # long before the ~210 kB table is written
        proc = subprocess.Popen(
            [sys.executable, "-m", "qkbonacci", "table", "--q", "3",
             "--k-min", "2", "--k-max", "4", "--n-max", "500"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=module_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert first == b"q,k,n,value\n"
        assert err == b""


# each subcommand's integer options with a tiny valid range; one below
# it is out of the domain for some or all of the other values
_FUZZ_OPTIONS = {
    "term": (("--q", 1, 6), ("--k", 2, 6), ("--n", 0, 40), ("--bits", 8, 96)),
    "table": (("--q", 1, 6), ("--k-min", 2, 5), ("--k-max", 2, 6), ("--n-max", 1, 30)),
    "root": (("--q", 1, 10), ("--k", 2, 12), ("--bits", 8, 160)),
    "series": (("--q", 1, 6), ("--k", 2, 6), ("--count", 1, 40)),
    "verify": (("--q", 3, 6), ("--k-min", 2, 4), ("--k-max", 2, 4), ("--n-max", 3, 20),
               ("--bits", 8, 64)),
    "bench": (("--q", 1, 4), ("--k", 2, 5), ("--n", 0, 30), ("--reps", 1, 2)),
}


@st.composite
def cli_argv(draw):
    """Tiny, partly invalid invocations of every subcommand."""
    command = draw(st.sampled_from(tuple(_FUZZ_OPTIONS)))
    options = _FUZZ_OPTIONS[command]
    # at most one option is left out (a missing required argument or a
    # default), not an integer, or one below its range
    spoil = draw(st.sampled_from((None, None, "drop", "x", "low")))
    spoiled = draw(st.integers(0, len(options) - 1))
    argv = [command]
    for i, (flag, lo, hi) in enumerate(options):
        if spoil and i == spoiled:
            argv += {"drop": [], "x": [flag, "x"], "low": [flag, str(lo - 1)]}[spoil]
        else:
            argv += [flag, str(draw(st.integers(lo, hi)))]
    if command == "term":
        argv += ["--method", draw(st.sampled_from(
            ("def", "shortcut", "fast", "theorem3", "binet", "bogus")))]
    elif command == "table":
        argv += ["--format", draw(st.sampled_from(("csv", "json", "markdown", "bogus")))]
        if draw(st.integers(0, 9)) == 0:
            missing = os.path.join(os.path.dirname(__file__), "no-such-dir", "t.csv")
            argv += ["--output", missing]
    elif command == "bench" and draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(("def", "shortcut", "fast", "bogus")))]
    elif command == "verify":
        argv += ["--law", draw(st.sampled_from(
            ("all", "identities", "lemma1", "lemma2", "error-bound", "growth", "bogus")))]
    return argv


class TestExitCodeContract:
    @given(argv=cli_argv())
    @settings(max_examples=60, deadline=None)
    # an inconclusive law, the one way to exit 1
    @example(argv=["verify", "--law", "error-bound", "--q", "3", "--k-min", "2",
                   "--k-max", "2", "--n-max", "300", "--bits", "8"])
    # integers past CPython's default 4,300-digit int-to-str limit
    @example(argv=["term", "--q", "10", "--k", "2", "--n", "5000"])
    @example(argv=["table", "--q", "10", "--k-min", "2", "--k-max", "2", "--n-max", "5000"])
    @example(argv=["table", "--q", "10", "--k-min", "2", "--k-max", "2", "--n-max", "5000",
                   "--format", "json"])
    @example(argv=["table", "--q", "10", "--k-min", "2", "--k-max", "2", "--n-max", "5000",
                   "--format", "markdown"])
    @example(argv=["series", "--q", "10", "--k", "2", "--count", "5000"])
    # q = 10^6 at 8 bits: alpha lies within about 1e-6 of q, which the
    # exact Lemma laws settle with no enclosure
    @example(argv=["verify", "--law", "lemma1", "--q", "1000000", "--k-min", "2",
                   "--k-max", "3", "--n-max", "20", "--bits", "8"])
    # bench must refuse n = 0 before it prints the CSV header
    @example(argv=["bench", "--q", "3", "--k", "2", "--n", "0", "--reps", "1"])
    def test_exit_codes(self, argv):
        # 0 pass, 1 a law failed or was inconclusive, 2 usage or domain
        # error; anything else escaping main fails here with its traceback
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            # a refused request prints nothing to stdout
            assert out.getvalue() == ""
        if code == 1:
            assert argv[0] == "verify"
