import json
from fractions import Fraction

import pytest

from qkbonacci.cli import main

from _oracles import (
    ERRATUM_CORRECT_VALUE,
    PUBLISHED_TABLE_Q3,
    sqrt_approx,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_binet_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "term", "--q", "3", "--k", "2", "--n", "6", "--method", "binet"
        )
        assert code == 0
        assert out.startswith("360 residual=")

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


class TestSeries:
    def test_published_column(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--q", "4", "--k", "3",
                               "--count", "6")
        assert code == 0
        assert out == "0\n1\n4\n17\n73\n313\n"


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
    ])
    def test_empty_grid_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_byte_stable(self, capsys):
        args = ("verify", "--law", "lemma1", "--q", "4", "--k-min", "2",
                "--k-max", "4", "--n-max", "10", "--bits", "96")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_full_run_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--law", "all", "--q", "3",
            "--k-min", "2", "--k-max", "8", "--n-max", "300",
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 9
        assert all(r["verdict"] == "pass" for r in reports)


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


class TestEntryPoint:
    def test_module_invocation(self):
        import os
        import subprocess
        import sys

        import qkbonacci

        # the child imports the package the suite imported, installed or not
        package_root = os.path.dirname(os.path.dirname(qkbonacci.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (package_root, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "qkbonacci", "term", "--q", "3", "--k", "2",
             "--n", "6"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "360\n"

        proc = subprocess.run(
            [sys.executable, "-m", "qkbonacci", "term", "--q", "3", "--k", "2",
             "--n", "-5"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
