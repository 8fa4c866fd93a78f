"""Request menus, request execution and output oracles for the benchmark.

Each workload is a fixed menu of requests.  A run is a sequence of
rounds; every round holds the whole menu once, in an order drawn from the
seed, and the `terms` menu also draws small offsets of n from the seed.
Runs on different seeds therefore do the same work in a different order,
which keeps their metrics comparable.

The oracles never call the route being measured: term values are checked
against this file's own modular powering and recurrence, root enclosures
against this file's own integer sign evaluation.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from math import log2

# A fixed 61-bit prime (the Mersenne prime 2^61 - 1).
PRIME = (1 << 61) - 1
# Slack, in bits, for the float estimate of log2(gamma) * n.
LOG2_SLACK = 1e-6


@dataclass(frozen=True)
class Request:
    kind: str
    # the menu entry, the same on every seed
    slot: str
    # unique within a run; includes the values drawn from the seed
    label: str
    args: tuple


# ----------------------------------------------------------------------
# independent integer oracles
# ----------------------------------------------------------------------

def recurrence_terms(q: int, k: int, n_max: int) -> list[int]:
    """F_0..F_{n_max} by a running window sum (F_0 first)."""
    window = [0] * (k - 1) + [1]  # F_{2-k}..F_1
    total = 1
    out = [0, 1]
    for _ in range(2, n_max + 1):
        nxt = total + (q - 1) * window[-1]
        total += nxt - window[-k]
        window.append(nxt)
        out.append(nxt)
    return out[: n_max + 1]


def term_mod_prime(q: int, k: int, n: int) -> int:
    """F_n mod PRIME: x^(n+k-2) reduced modulo the characteristic polynomial.

    With G_j = F_{j+2-k}, the seeds are G_0..G_{k-2} = 0 and G_{k-1} = 1,
    so G_m is the x^(k-1) coefficient of x^m mod (x^k - q x^(k-1) - ... - 1).
    """

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % PRIME
            if c:
                prod[d - 1] += q * c
                for j in range(d - k, d - 1):
                    prod[j] += c
        return [c % PRIME for c in prod[:k]]

    result = [1] + [0] * (k - 1)
    base = [0, 1] + [0] * (k - 2)
    e = n + k - 2
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result[k - 1]


def char_poly_sign(q: int, k: int, num: int, scale: int) -> int:
    """Sign of x^k - q x^(k-1) - ... - 1 at x = num * 2^-scale."""
    acc = num ** k - q * (num ** (k - 1) << scale)
    for i in range(k - 1):
        acc -= num ** i << ((k - i) * scale)
    return (acc > 0) - (acc < 0)


def log2_dominant_root(q: int, k: int) -> float:
    """Float bisection of the characteristic polynomial on (1, q + 1)."""
    lo, hi = 1.0, q + 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        value = mid ** k - q * mid ** (k - 1) - sum(mid ** i for i in range(k - 1))
        if value < 0:
            lo = mid
        else:
            hi = mid
    return log2((lo + hi) / 2)


def bit_length_window(q: int, k: int, n: int) -> tuple[int, int]:
    """Bit lengths of F_n allowed by the growth chain.

    For q >= 3 the stated chain gamma^(n-1)(q-1)/q < F_n < gamma^(n-1)(q+2)/q
    is used; for q in {1, 2} its outer links gamma^(n-2) < F_n < gamma^n.
    """
    lg = log2_dominant_root(q, k)
    if q >= 3:
        lo = (n - 1) * lg + log2((q - 1) / q)
        hi = (n - 1) * lg + log2((q + 2) / q)
    else:
        lo, hi = (n - 2) * lg, n * lg
    # 2^(b-1) <= F_n < 2^b meets (2^lo, 2^hi) exactly when lo < b < hi + 1
    return int(lo - LOG2_SLACK) + 1, int(hi + LOG2_SLACK) + 1


# ----------------------------------------------------------------------
# terms: single exact terms from three routes
# ----------------------------------------------------------------------

ROUTES = {"def": "term_definition", "shortcut": "term_shortcut", "fast": "term_fast"}
# every light cell appears this many times per round, at distinct n offsets
LIGHT_COPIES = 3
N_OFFSETS = 100


def _term(route, q, k, n, offset=0):
    slot = f"{route} q={q} k={k} n=1e{len(str(n)) - 1}"
    return Request(route, slot, f"{route} q={q} k={k} n={n + offset}",
                   (q, k, n + offset))


def terms_menu(rng) -> list[Request]:
    """The aim-1 grid cells inside the per-call budget.

    Cells that take milliseconds run at every q, three times per round at
    n + offset with offsets drawn from the seed; cells that take seconds
    run once per round, at q = 2 for k = 32 and q = 3 otherwise, so that a
    run holds three rounds.
    """
    light = []
    for q in range(1, 6):
        for route in ("def", "shortcut"):
            light += [(route, q, k, 10**4) for k in (2, 8, 32)]
        light += [("fast", q, 2, 10**4), ("fast", q, 2, 10**5), ("fast", q, 8, 10**4)]
    heavy = [("fast", 2, 32, 10**4), ("fast", 3, 8, 10**5), ("fast", 3, 2, 10**6),
             ("def", 3, 8, 10**5)]
    menu = []
    for cell in light:
        menu += [_term(*cell, offset) for offset in rng.sample(range(N_OFFSETS), LIGHT_COPIES)]
    menu += [_term(*cell, rng.randrange(N_OFFSETS)) for cell in heavy]
    return menu


def terms_oracle(req: Request):
    q, k, n = req.args
    return term_mod_prime(q, k, n), bit_length_window(q, k, n)


def terms_execute(mods, req: Request):
    q, k, n = req.args
    route = getattr(mods.sequences, ROUTES[req.kind])
    return route(mods.sequences.SequenceParams(q, k), n)


def _outcome(ok: bool) -> str:
    return "ok" if ok else "wrong"


def terms_check(req: Request, expected, value) -> str:
    residue, (b_lo, b_hi) = expected
    return _outcome(isinstance(value, int) and value % PRIME == residue
                    and b_lo <= value.bit_length() <= b_hi)


# ----------------------------------------------------------------------
# verify: in-process CLI calls (law checker and tables)
# ----------------------------------------------------------------------

LAW_COUNT = {"identities": 3, "lemma1": 2, "lemma2": 1, "error-bound": 1,
             "growth": 1, "reconstruction": 1, "all": 9}

# (law, q values, k_min, k_max, n_max)
VERIFY_GRIDS = [
    ("identities", (3, 4, 5, 6), 2, 12, 100),
    ("identities", (4, 6), 3, 9, 300),
    ("identities", (5,), 2, 4, 500),
    ("identities", (3,), 2, 4, 100),
    ("identities", (6,), 9, 12, 300),
    ("lemma1", (3, 4, 5, 6), 2, 12, 100),
    ("lemma1", (3, 5), 4, 10, 300),
    ("lemma1", (6,), 2, 8, 500),
    ("lemma1", (4,), 2, 6, 300),
    ("lemma1", (5, 6), 6, 12, 100),
    ("lemma2", (3, 4), 2, 12, 100),
    ("lemma2", (5, 6), 2, 12, 300),
    ("lemma2", (3, 6), 6, 12, 500),
    ("lemma2", (4,), 3, 9, 500),
    ("lemma2", (5,), 2, 5, 100),
    ("error-bound", (3,), 2, 12, 100),
    ("error-bound", (4,), 2, 3, 300),
    ("error-bound", (3,), 2, 2, 500),
    ("error-bound", (5,), 2, 3, 100),
    ("growth", (5,), 2, 12, 100),
    ("growth", (6,), 3, 3, 300),
    ("growth", (4,), 2, 2, 500),
    ("growth", (3,), 2, 3, 100),
    ("reconstruction", (3, 4, 5, 6), 2, 12, 100),
    ("reconstruction", (5,), 2, 12, 300),
    ("reconstruction", (6,), 2, 12, 500),
    ("reconstruction", (3,), 2, 6, 100),
    ("all", (6,), 2, 8, 100),
    ("all", (5,), 2, 3, 300),
    ("all", (4,), 2, 2, 500),
    ("all", (6,), 2, 3, 100),
    # the CLI's default grid, as timed in the ROADMAP baseline
    ("all", (3, 4, 5), 2, 8, 300),
    ("reconstruction", (3, 4, 5), 2, 8, 300),
    # known defect: q = 6 at n_max 500 overflows a float (ROADMAP item 5)
    ("error-bound", (6,), 2, 4, 500),
    ("growth", (6,), 2, 4, 500),
    ("all", (6,), 2, 4, 500),
]
TABLE_REQUESTS = 140
TABLE_FORMATS = ("csv", "json", "markdown")
VERIFY_BITS = 192


def _cli(kind, argv, args):
    label = " ".join(argv)
    return Request(kind, label, label, args + (tuple(argv),))


def verify_menu(rng) -> list[Request]:
    """Law checks and tables; the seed only orders them."""
    menu = []
    for law, qs, k_min, k_max, n_max in VERIFY_GRIDS:
        argv = ["verify", "--law", law]
        for q in qs:
            argv += ["--q", str(q)]
        argv += ["--k-min", str(k_min), "--k-max", str(k_max),
                 "--n-max", str(n_max), "--bits", str(VERIFY_BITS)]
        menu.append(_cli(f"verify:{law}", argv, (law, qs, k_min, k_max, n_max)))
    # n_max on a geometric ladder from 100 to 2000, so that table times,
    # and with them the median latency, have no gaps
    for i in range(TABLE_REQUESTS):
        n_max = round(100 * 20 ** (i / (TABLE_REQUESTS - 1)))
        q, k_min = 1 + i % 6, 2 + i % 7
        k_max, fmt = k_min + i % 3, TABLE_FORMATS[i % 3]
        argv = ["table", "--q", str(q), "--k-min", str(k_min), "--k-max",
                str(k_max), "--n-max", str(n_max), "--format", fmt]
        menu.append(_cli(f"table:{fmt}", argv, (fmt, q, k_min, k_max, n_max)))
    return menu


def rows_digest(rows) -> str:
    # a digest keeps the expected tables out of the process's peak memory
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def verify_oracle(req: Request):
    if req.kind.startswith("verify:"):
        return LAW_COUNT[req.args[0]]
    _, q, k_min, k_max, n_max, _ = req.args
    return rows_digest([(q, k, n, value)
                        for k in range(k_min, k_max + 1)
                        for n, value in enumerate(recurrence_terms(q, k, n_max)) if n >= 1])


def verify_execute(mods, req: Request):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.main(list(req.args[-1]))
    return code, out.getvalue()


def parse_table(fmt: str, text: str) -> list[tuple]:
    if fmt == "json":
        return [(r["q"], r["k"], r["n"], r["value"]) for r in json.loads(text)]
    lines = text.splitlines()
    if fmt == "csv":
        cells = [line.split(",") for line in lines[1:]]
    else:
        cells = [line.strip("| ").split(" | ") for line in lines[2:]]
    return [tuple(int(c) for c in row) for row in cells]


def verify_check(req: Request, expected, value) -> str:
    code, text = value
    if code == 2:
        return "refused"
    if code != 0:
        return "wrong"
    try:
        if req.kind.startswith("verify:"):
            reports = json.loads(text)
            return _outcome(len(reports) == expected
                            and all(r["verdict"] == "pass" for r in reports))
        return _outcome(rows_digest(parse_table(req.args[0], text)) == expected)
    except (ValueError, KeyError, TypeError):
        return "wrong"


# ----------------------------------------------------------------------
# certify: one-shot high-precision numerics calls
# ----------------------------------------------------------------------

RECONSTRUCT_BITS = 256
ERROR_BITS = 192
# binet_reconstruct sums the roots in fixed point with no error bound, and
# at 256 bits it returns wrong values or refuses from about n = 140
# (ROADMAP item 1).  Requests past this index are known defects: they
# still count as failed, but they do not make the run incorrect.
RECONSTRUCT_DEFECT_N = RECONSTRUCT_BITS // 2


def certify_menu(rng) -> list[Request]:
    """Root enclosures, root sets, error terms and reconstructions; the
    seed only orders them."""
    menu = []

    def add(kind, *args):
        names = ("q", "k", "bits") if len(args) == 3 else ("q", "k", "n", "bits")
        label = f"{kind} " + " ".join(f"{a}={v}" for a, v in zip(names, args))
        menu.append(Request(kind, label, label, args))

    for k in range(2, 17):
        add("dominant_root", 1 + k % 5, k, 256)
        add("dominant_root", 1 + (k + 2) % 5, k, 256)
    for k in range(2, 17, 2):
        add("dominant_root", 3 + k % 3, k, 1024)
    for q, k in ((3, 8), (4, 2), (5, 5), (1, 11)):
        add("dominant_root", q, k, 4096)
    for bits in (128, 256, 512):
        for k in (2, 4, 8, 16, 24, 32):
            q = 3 if (k, bits) == (16, 256) else 1 + (k + bits // 128) % 5
            add("all_roots", q, k, bits)
    for k in (3, 5, 6, 7, 10, 12):
        add("all_roots", 1 + k % 5, k, 128)
    for i in range(30):
        q, k = 3 + i % 3, 2 + (7 * i) % 11
        n = (2 - k) + round(i * (300 - (2 - k)) / 29)
        add("error_term", q, k, n, ERROR_BITS)
    for i in range(20):
        add("binet_reconstruct", 1 + i % 5, 2 + (3 * i) % 11, 15 * (i + 1),
            RECONSTRUCT_BITS)
    return menu


def certify_oracle(req: Request):
    if req.kind == "binet_reconstruct":
        q, k, n, _ = req.args
        return recurrence_terms(q, k, n)[n]
    return None


def certify_execute(mods, req: Request):
    numerics, params = mods.numerics, mods.sequences.SequenceParams
    q, k, *rest = req.args
    return getattr(numerics, req.kind)(params(q, k), *rest)


def certify_check(req: Request, expected, value) -> str:
    return _outcome(_certified(req, expected, value))


def _certified(req: Request, expected, value) -> bool:
    q, k = req.args[:2]
    if req.kind == "dominant_root":
        box = value.interval
        bits = req.args[2]
        return (char_poly_sign(q, k, box.lo_num, box.bits) < 0
                < char_poly_sign(q, k, box.hi_num, box.bits)
                and (box.hi_num - box.lo_num) << bits <= 1 << box.bits)
    if req.kind == "all_roots":
        bits = req.args[2]
        box = value.dominant.interval
        if len(value.secondary) != k - 1:
            return False
        # sum of the roots is q (Vieta), at a common scale of 2^-work
        work = max([box.bits + 1] + [s.bits for s in value.secondary])
        re_sum = (box.lo_num + box.hi_num) << (work - box.bits - 1)
        re_sum += sum(s.re_num << (work - s.bits) for s in value.secondary)
        im_sum = sum(s.im_num << (work - s.bits) for s in value.secondary)
        tol = 1 << (work - bits // 2)
        return abs(re_sum - (q << work)) <= tol and abs(im_sum) <= tol
    if req.kind == "error_term":
        box = value.interval
        one = 1 << box.bits
        inside = -one <= q * box.lo_num and q * box.hi_num <= one
        narrow = value.capped or (box.hi_num - box.lo_num) << 32 <= one
        return inside and narrow
    return value == expected


def certify_known_defect(req: Request) -> bool:
    return req.kind == "binet_reconstruct" and req.args[2] > RECONSTRUCT_DEFECT_N


def verify_known_defect(req: Request) -> bool:
    if not req.kind.startswith("verify:"):
        return False
    law, qs, _, _, n_max = req.args[:5]
    return law in ("error-bound", "growth", "all") and 6 in qs and n_max >= 500


@dataclass(frozen=True)
class Workload:
    menu: object
    oracle: object
    execute: object
    check: object
    known_defect: object
    warmup: Request
    # ROADMAP "Baseline measured in this review" rows that fall in the menu
    roadmap_rows: dict


WORKLOADS = {
    "terms": Workload(
        terms_menu, terms_oracle, terms_execute, terms_check,
        lambda req: False, _term("def", 3, 8, 10**4),
        {
            "term_fast q=3 k=2 n=1e6 (matrix)": "fast q=3 k=2 n=1e6",
            "term_fast q=3 k=8 n=1e5 (matrix)": "fast q=3 k=8 n=1e5",
            "term_definition q=3 k=8 n=1e5": "def q=3 k=8 n=1e5",
        },
    ),
    "verify": Workload(
        verify_menu, verify_oracle, verify_execute, verify_check,
        verify_known_defect,
        _cli("verify:lemma1", ["verify", "--law", "lemma1", "--q", "3", "--k-max", "4",
                               "--n-max", "100"], ("lemma1", (3,), 2, 4, 100)),
        {
            "verify --law all, default grid (in process)":
                "verify --law all --q 3 --q 4 --q 5 --k-min 2 --k-max 8 "
                "--n-max 300 --bits 192",
            "reconstruction law (n <= 60), default grid (in process)":
                "verify --law reconstruction --q 3 --q 4 --q 5 --k-min 2 "
                "--k-max 8 --n-max 300 --bits 192",
        },
    ),
    "certify": Workload(
        certify_menu, certify_oracle, certify_execute, certify_check,
        certify_known_defect, Request("dominant_root", "warm-up", "warm-up", (3, 8, 1024)),
        {
            "dominant_root q=3 k=8 at 4096 bits (bisection)":
                "dominant_root q=3 k=8 bits=4096",
            "all_roots k=16 at 256 bits": "all_roots q=3 k=16 bits=256",
        },
    ),
}
