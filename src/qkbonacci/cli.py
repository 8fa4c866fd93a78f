"""Command-line surface: compute terms, reproduce first-terms tables,
print certified root enclosures, run the law checker, extract series
coefficients, and benchmark the term strategies.

Exit codes: 0 success / all laws pass, 1 verification failure or
inconclusive, 2 usage or domain error, or stdout closed by its reader.
Identical invocations produce byte-identical stdout (bench timings
excepted).
"""
from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys
import time

from .errors import QkError
from .lawcheck import _SELECTORS, Grid, run_laws
from .numerics import binet_reconstruct, dominant_root
from .numerics.dyadic import _EXACT, _int_str
from .sequences import (
    SequenceParams,
    series_coefficients,
    term_definition,
    term_fast,
    term_shortcut,
    term_table,
    theorem3_term,
)

# the widely circulated first-terms table misprints this one entry; the
# recurrence value is emitted and the discrepancy is flagged on stderr
_ERRATUM_CELL = (4, 5, 9)
_ERRATUM_PUBLISHED = 132565

_ERRATUM_NOTE = (
    "note: entry (q=4, k=5, n=9) is 107562 by the defining recurrence; "
    f"a widely circulated table prints {_ERRATUM_PUBLISHED}, which does not "
    "satisfy the recurrence."
)


# the exact term routes by --method name, in choice order; bench times
# the ones defined for every q >= 1, and binet, a rounded sum over all
# roots, is handled apart
_ALL_Q_ROUTES = {
    "def": term_definition,
    "shortcut": term_shortcut,
    "fast": term_fast,
}
_ROUTES = {**_ALL_Q_ROUTES, "theorem3": theorem3_term}

def _digits_for_bits(bits: int) -> int:
    # 2^-bits resolved in decimal
    return max(1, int(bits * 0.30103) + 1)


def _cmd_term(args) -> int:
    params = SequenceParams(args.q, args.k)
    if args.method == "binet":
        value = binet_reconstruct(params, args.n, args.bits)
    else:
        value = _ROUTES[args.method](params, args.n)
    print(_int_str(value))
    if (args.q, args.k, args.n) == _ERRATUM_CELL:
        print(_ERRATUM_NOTE, file=sys.stderr)
    return 0


# per format: the header, a row as a template over (q, k) that leaves one
# over (n, value), the text between rows and the footer
_TABLE_LAYOUTS = {
    "csv": ("q,k,n,value\n", "%d,%d,%%d,%%s", "\n", "\n"),
    # the bytes of json.dumps(rows as dicts, indent=2), whose indent
    # argument would force the pure-Python encoder
    "json": ("[\n", '  {\n    "q": %d,\n    "k": %d,\n    "n": %%d,\n'
             '    "value": %%s\n  }', ",\n", "\n]\n"),
    "markdown": ("| q | k | n | value |\n| --- | --- | --- | --- |\n",
                 "| %d | %d | %%d | %%s |", "\n", "\n"),
}


def _emit_table(blocks, n_max: int, fmt: str, stream) -> None:
    """Write F_1..F_{n_max} of each SequenceParams in `blocks`, one block
    per k.  The terms are exact Decimals, so each str() is linear in its
    digits."""
    header, row, between, footer = _TABLE_LAYOUTS[fmt]
    stream.write(header)
    with decimal.localcontext(_EXACT):
        for i, params in enumerate(blocks):
            # F_1 sits at k - 1
            values = term_table(params, n_max, decimal.Decimal(1))[params.k - 1:]
            block_row = row % (params.q, params.k)
            if i:
                stream.write(between)
            stream.write(between.join(
                [block_row % cell for cell in enumerate(values, start=1)]))
    stream.write(footer)


def _cmd_table(args) -> int:
    if args.k_min < 2 or args.k_max < args.k_min or args.n_max < 1:
        raise QkError(
            "invalid table range: need k-min >= 2, k-max >= k-min, n-max >= 1"
        )
    # built before any output, so a q out of the domain prints nothing
    blocks = [SequenceParams(args.q, k) for k in range(args.k_min, args.k_max + 1)]
    if args.output:
        try:
            handle = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            raise QkError(f"cannot write --output {args.output}: {exc.strerror}") from exc
        with handle:
            _emit_table(blocks, args.n_max, args.format, handle)
    else:
        _emit_table(blocks, args.n_max, args.format, sys.stdout)
    eq, ek, en = _ERRATUM_CELL
    if args.q == eq and args.k_min <= ek <= args.k_max and args.n_max >= en:
        print(_ERRATUM_NOTE, file=sys.stderr)
    return 0


def _cmd_root(args) -> int:
    enclosure = dominant_root(SequenceParams(args.q, args.k), args.bits)
    lo, hi = enclosure.interval.decimal_bounds(_digits_for_bits(args.bits))
    print(f"[{lo}, {hi}]")
    return 0


def _cmd_series(args) -> int:
    # exact Decimals, as in table, so each str() is linear in its digits
    with decimal.localcontext(_EXACT):
        for c in series_coefficients(SequenceParams(args.q, args.k), args.count,
                                     decimal.Decimal(1)):
            print(c)
    return 0


def _cmd_verify(args) -> int:
    q_values = tuple(args.q) if args.q else Grid.default().q_values
    grid = Grid(q_values, tuple(range(args.k_min, args.k_max + 1)), args.n_max)
    reports = run_laws(args.law, grid, args.bits)
    print(json.dumps([r.to_json() for r in reports], indent=2))
    return 0 if all(r.verdict == "pass" for r in reports) else 1


def _cmd_bench(args) -> int:
    if args.reps < 1:
        raise QkError(f"--reps must be >= 1, got {args.reps}")
    if args.n < 1:
        raise QkError(f"--n must be >= 1, got {args.n}")
    params = SequenceParams(args.q, args.k)
    print("strategy,q,k,n,reps,best_seconds")
    reference = None
    # the routes asked for, once each, in the order asked; the values are
    # compared only when two or more are timed
    for name in dict.fromkeys(args.method or _ALL_Q_ROUTES):
        route = _ALL_Q_ROUTES[name]
        best = None
        for _ in range(args.reps):
            start = time.perf_counter()
            value = route(params, args.n)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        if reference is None:
            reference = value
        elif value != reference:
            raise QkError(f"strategy {name} disagrees at n={args.n}")
        print(f"{name},{args.q},{args.k},{args.n},{args.reps},{best:.6f}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkbonacci",
        description="Exact and certified computation for weighted k-step "
        "Fibonacci sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    term = sub.add_parser("term", help="print one term")
    term.add_argument("--q", type=int, required=True)
    term.add_argument("--k", type=int, required=True)
    term.add_argument("--n", type=int, required=True)
    term.add_argument(
        "--method",
        choices=(*_ROUTES, "binet"),
        default="def",
    )
    term.add_argument("--bits", type=int, default=256,
                      help="precision of the secondary-root discs for --method "
                           "binet; the dominant term's precision follows n")
    term.set_defaults(func=_cmd_term)

    table = sub.add_parser("table", help="emit a (q, k, n, value) grid")
    table.add_argument("--q", type=int, required=True)
    table.add_argument("--k-min", type=int, required=True)
    table.add_argument("--k-max", type=int, required=True)
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument("--format", choices=("csv", "json", "markdown"),
                       default="csv")
    table.add_argument("--output", help="write to a file instead of stdout")
    table.set_defaults(func=_cmd_table)

    root = sub.add_parser("root", help="certified dominant-root enclosure")
    root.add_argument("--q", type=int, required=True)
    root.add_argument("--k", type=int, required=True)
    root.add_argument("--bits", type=int, default=128)
    root.set_defaults(func=_cmd_root)

    series = sub.add_parser("series", help="generating-function coefficients")
    series.add_argument("--q", type=int, required=True)
    series.add_argument("--k", type=int, required=True)
    series.add_argument("--count", type=int, required=True)
    series.set_defaults(func=_cmd_series)

    verify = sub.add_parser("verify", help="run the law checker")
    verify.add_argument(
        "--law",
        choices=tuple(_SELECTORS),
        default="all",
    )
    grid = Grid.default()
    verify.add_argument("--q", type=int, action="append", help="grid q value "
                        f"(repeatable; default {' '.join(map(str, grid.q_values))})")
    verify.add_argument("--k-min", type=int, default=grid.k_values[0])
    verify.add_argument("--k-max", type=int, default=grid.k_values[-1])
    verify.add_argument("--n-max", type=int, default=grid.n_max)
    verify.add_argument("--bits", type=int, default=192)
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="time the term strategies")
    bench.add_argument("--q", type=int, required=True)
    bench.add_argument("--k", type=int, required=True)
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--method", action="append", choices=tuple(_ALL_Q_ROUTES),
                       help="a route to time (repeatable; default all three)")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed the pipe shows up here, not at exit
        sys.stdout.flush()
        return code
    except QkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush of the
        # unwritten rest stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
