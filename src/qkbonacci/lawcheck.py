"""Machine-checkable verification of the stated identities, lemmas and
bounds over configurable (q, k, n) grids.

A pass verdict always means every individual comparison was settled by
exact integer arithmetic or by certified interval separation; interval
comparisons that cannot be separated escalate their working precision
(doubling, capped at 16x the request) and are reported inconclusive if
the cap is reached, never pass.  The laws of one run_laws call read
each (q, k) cell's terms and dominant root from one shared CellContext.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from decimal import ROUND_FLOOR
from fractions import Fraction
from itertools import combinations

from .errors import DomainError, ReconstructionError, RegimeError, RootSolveError
from .numerics import (
    DyadicInterval,
    asymptote_c,
    dominant_root,
    dominant_term_sweep,
    error_term,
    g_eval,
    quadratic_roots,
    reconstruction_sweep,
    refine_root,
)
from .numerics.binet import _root_ladder, _rungs
from .numerics.dyadic import _float_text
from .sequences import (
    SequenceParams,
    _theorem3_forms,
    series_coefficients,
    term_table,
)

__all__ = [
    "LAW_IDS",
    "Grid",
    "Witness",
    "LawReport",
    "CellContext",
    "DecayProbe",
    "check_identities",
    "check_root_laws",
    "check_term_bounds",
    "check_reconstruction",
    "error_decay_probe",
    "run_laws",
]

LAW_IDS = (
    "identity-theorem2",
    "identity-theorem3",
    "series-oracle",
    "lemma1-monotone",
    "lemma1-sandwich",
    "lemma2-sandwich",
    "error-bound",
    "growth-bounds",
    "reconstruction",
)

RECONSTRUCTION_N_CAP = 60
RECONSTRUCTION_MIN_BITS = 256


@dataclass(frozen=True)
class Grid:
    """The (q, k, n) ranges a law is checked over."""

    q_values: tuple
    k_values: tuple
    n_max: int

    def __post_init__(self):
        object.__setattr__(self, "q_values", tuple(sorted(set(self.q_values))))
        object.__setattr__(self, "k_values", tuple(sorted(set(self.k_values))))
        if not self.q_values or not self.k_values:
            raise DomainError("a grid needs at least one q value and one k value")
        if self.n_max < 1:
            raise DomainError(f"a grid needs n_max >= 1, got {self.n_max}")

    @classmethod
    def default(cls) -> "Grid":
        # spans all three proof regimes of the weight lemma:
        # k = 2, 3 <= k <= q, and k >= q+1
        return cls(q_values=(3, 4, 5), k_values=tuple(range(2, 9)), n_max=300)

    @property
    def cells(self):
        return [(q, k) for q in self.q_values for k in self.k_values]

    def to_json(self) -> dict:
        return {
            "q": list(self.q_values),
            "k": list(self.k_values),
            "n_max": self.n_max,
        }


@dataclass(frozen=True)
class Witness:
    """One failing or inconclusive grid point with its offending values."""

    q: int
    k: int
    n: int | None
    kind: str  # "fail" | "inconclusive"
    detail: str

    def to_json(self) -> dict:
        return asdict(self)


def _sorted_witnesses(witnesses) -> tuple:
    return tuple(
        sorted(witnesses, key=lambda w: (w.q, w.k, w.n if w.n is not None else -(1 << 62)))
    )


@dataclass(frozen=True)
class LawReport:
    law_id: str
    grid: Grid
    verdict: str
    witnesses: tuple
    bits_used: int
    # True when every settled comparison also held strictly (the proofs
    # conclude strict inequalities; the stated bound is non-strict).
    # Not part of the serialized schema.
    strict_also_certified: bool = True

    def to_json(self) -> dict:
        return {
            "law_id": self.law_id,
            "grid": self.grid.to_json(),
            "verdict": self.verdict,
            "witnesses": [w.to_json() for w in self.witnesses],
            "bits_used": self.bits_used,
        }


class CellContext:
    """The term table and the dominant-root enclosure of each (q, k) cell
    of a grid, each made when a law first reads it."""

    def __init__(self, grid: Grid, bits: int):
        if bits < 8:
            raise DomainError(f"bits must be >= 8, got {bits}")
        self.grid, self.bits = grid, bits
        # views cut by up_to build their tables to this length too, so a
        # shorter view read first never leaves a table to be built again
        self._tables, self._roots, self._n_table = {}, {}, grid.n_max

    def up_to(self, n_max: int) -> "CellContext":
        """This context over its grid cut at n_max, sharing its cells."""
        view = CellContext(replace(self.grid, n_max=min(self.grid.n_max, n_max)), self.bits)
        view._tables, view._roots, view._n_table = self._tables, self._roots, self._n_table
        return view

    def table(self, q: int, k: int) -> list:
        """term_table to the n_max of the context the view was cut from."""
        if (q, k) not in self._tables:
            self._tables[q, k] = term_table(SequenceParams(q, k), self._n_table)
        return self._tables[q, k]

    def root(self, q: int, k: int):
        """The cell's dominant_root at the context's bits; refine_root deepens it."""
        if (q, k) not in self._roots:
            self._roots[q, k] = dominant_root(SequenceParams(q, k), self.bits)
        return self._roots[q, k]


def _verdict(witnesses) -> str:
    if any(w.kind == "fail" for w in witnesses):
        return "fail"
    if witnesses:
        return "inconclusive"
    return "pass"


def _report(law_id, grid, witnesses, bits_used, strict=True) -> LawReport:
    witnesses = _sorted_witnesses(witnesses)
    return LawReport(law_id, grid, _verdict(witnesses), witnesses, bits_used, strict)


def _order(a, b) -> int:
    """+1 when a < b is certified, -1 when a > b is certified, else 0.

    At least one side is a DyadicInterval; the other may be an exact
    number."""
    if not isinstance(a, DyadicInterval):
        return -_order(b, a)
    if a.strictly_below(b):
        return 1
    return -1 if a.strictly_above(b) else 0


def _order_mantissas(a, b) -> int:
    """_order for (lo, hi) integer mantissa pairs at one scale."""
    if a[1] < b[0]:
        return 1
    return -1 if a[0] > b[1] else 0


def _chain(checks, q, k, n, work, fails, unsettled, order=_order) -> None:
    """Certify each (label, a, b) in checks as a < b; a certified
    a > b goes to fails and an unseparated pair to unsettled."""
    for label, a, b in checks:
        sign = order(a, b)
        if sign < 0:
            fails.append(Witness(q, k, n, "fail", f"{label} certified false"))
        elif sign == 0:
            unsettled.append(Witness(
                q, k, n, "inconclusive", f"{label} not separated at {work} bits"))


def _climb(ladder, attempt):
    """Call attempt(rung) up the precision ladder until none of the
    witness lists it returns is inconclusive; returns the last lists and
    the rung they were found at."""
    for rung in ladder:
        found = attempt(rung)
        if all(w.kind == "fail" for witnesses in found for w in witnesses):
            break
    return found, rung


def _require_identities_grid(grid: Grid) -> None:
    if any(q < 1 or q > 10 for q in grid.q_values):
        raise DomainError("identity checks accept q in [1, 10]")
    if any(k < 2 or k > 16 for k in grid.k_values):
        raise DomainError("identity checks accept k in [2, 16]")
    # the shortcut identity starts at n = 3
    if not 3 <= grid.n_max <= 500:
        raise DomainError("identity checks accept n_max in [3, 500]")


def _require_certified_regime(grid: Grid) -> None:
    if any(q < 3 for q in grid.q_values):
        raise RegimeError(
            "certified law checks require q >= 3 everywhere on the grid"
        )


# ----------------------------------------------------------------------
# exact-integer identities
# ----------------------------------------------------------------------

def check_identities(cells: CellContext) -> list[LawReport]:
    """Shortcut identity, companion-pair identity, and series oracle,
    all by exact integer equality (never inconclusive)."""
    grid = cells.grid
    _require_identities_grid(grid)
    witnesses = {law_id: [] for law_id in LAW_IDS[:3]}
    for q, k in grid.cells:
        params = SequenceParams(q, k)
        table = cells.table(q, k)
        # F_n sits at n + k - 2; each check is (law id, witness prefix,
        # first n, the values it gives for F_n from there on)
        checks = [(
            # order-(k+1) shortcut, stated for n >= 3
            "identity-theorem2", "shortcut gives", 3,
            ((q + 1) * table[n + k - 3] - (q - 1) * table[n + k - 4] - table[n - 3]
             for n in range(3, grid.n_max + 1)),
        )]
        if q >= 3:
            checks.append(("identity-theorem3", "companion form gives", 1,
                           _theorem3_forms(params, table, grid.n_max)))
        # generating-function long division
        checks.append(("series-oracle", "series coefficient", 0,
                       series_coefficients(params, grid.n_max + 1)))
        for law_id, prefix, first, values in checks:
            for n, value in enumerate(values, start=first):
                exact = table[n + k - 2]
                if value != exact:
                    witnesses[law_id].append(Witness(
                        q, k, n, "fail", f"{prefix} {value}, definition gives {exact}"))
    return [_report(law_id, grid, found, 0) for law_id, found in witnesses.items()]


# ----------------------------------------------------------------------
# root laws (certified interval separations)
# ----------------------------------------------------------------------

def check_root_laws(cells: CellContext) -> list[LawReport]:
    """Dominant-root monotonicity in k, the alpha sandwich, the weight
    sandwich, and the asymptote ordering, all by interval separation."""
    grid, bits = cells.grid, cells.bits
    _require_certified_regime(grid)
    reports = []

    # a single k is compared with k + 1, so the law never passes unchecked
    ks = grid.k_values if len(grid.k_values) > 1 else (grid.k_values[0], grid.k_values[0] + 1)

    def monotone(work):
        fails, unsettled = [], []
        for q in grid.q_values:
            gammas = {k: refine_root(cells.root(q, k), work).interval for k in ks}
            for k1, k2 in combinations(ks, 2):
                _chain(((f"gamma_{k1} vs gamma_{k2}", gammas[k1], gammas[k2]),),
                       q, k2, None, work, fails, unsettled)
        return (fails + unsettled,)

    def sandwich(q, k, gamma, work):
        alpha = quadratic_roots(q, work).alpha
        return (
            ("bracket q < gamma", q, gamma),
            ("bracket gamma < q+1", gamma, q + 1),
            ("alpha(1 - q^-k) < gamma", alpha * Fraction(q**k - 1, q**k), gamma),
            ("gamma < alpha", gamma, alpha),
        )

    def weight(q, k, gamma, work):
        params = SequenceParams(q, k)
        gval = g_eval(params, gamma)
        return (
            ("1/(q+1) < g(gamma)", Fraction(1, q + 1), gval),
            ("g(gamma) < 1/q", gval, Fraction(1, q)),
            ("c < gamma", asymptote_c(params, work), gamma),
        )

    def chained(checks):
        # each cell's (label, a, b) checks at the rung, certified as a < b
        def compare(work):
            fails, unsettled = [], []
            for q, k in grid.cells:
                gamma = refine_root(cells.root(q, k), work).interval
                _chain(checks(q, k, gamma, work), q, k, None, work, fails, unsettled)
            return (fails + unsettled,)
        return compare

    for law_id, compare in (
        ("lemma1-monotone", monotone),
        ("lemma1-sandwich", chained(sandwich)),
        ("lemma2-sandwich", chained(weight)),
    ):
        (witnesses,), used = _climb(_rungs(bits), compare)
        reports.append(_report(law_id, grid, witnesses, used))
    return reports


# ----------------------------------------------------------------------
# error bound and growth chain
# ----------------------------------------------------------------------

# the growth chain's four links, between consecutive members of
# gamma^(n-2), gamma^(n-1)(q-1)/q, F_n, gamma^(n-1)(q+2)/q, gamma^n
_GROWTH_LINKS = (
    "gamma^(n-2) < gamma^(n-1)(q-1)/q",
    "gamma^(n-1)(q-1)/q < F_n",
    "F_n < gamma^(n-1)(q+2)/q",
    "gamma^(n-1)(q+2)/q < gamma^n",
)


def check_term_bounds(cells: CellContext) -> list[LawReport]:
    """|E_n| <= 1/q for n in [2-k, n_max] and the growth chain
    gamma^(n-2) < gamma^(n-1)(q-1)/q < F_n < gamma^(n-1)(q+2)/q < gamma^n
    for n in [1, n_max], certified against exact integers.

    Both laws compare integer mantissas at the enclosure's scale 2^-w:
    the dominant-term sweep's rows, and F_n * 2^w."""
    grid, bits = cells.grid, cells.bits
    _require_certified_regime(grid)
    error_witnesses, growth_witnesses = [], []
    used = bits
    error_strict = True

    for q, k in grid.cells:
        table = cells.table(q, k)
        first, lowest = 2 - k, min(2 - k, -1)

        def attempt(enclosure):
            nonlocal error_strict
            work = enclosure.interval.bits
            power_lo, power_hi, term_lo, term_hi = dominant_term_sweep(
                enclosure, grid.n_max)
            err_pending, err_fail = [], []
            edge = 1 << work
            for n, exact, t_lo, t_hi in zip(
                    range(first, grid.n_max + 1), table, term_lo, term_hi):
                # E_n against +-1/q, scaled by q * 2^work
                scaled = exact << work
                e_lo, e_hi = scaled - t_hi, scaled - t_lo
                lo, hi = q * e_lo, q * e_hi
                if -edge <= lo and hi <= edge:
                    if not (-edge < lo and hi < edge):
                        error_strict = False
                    continue
                e = DyadicInterval(e_lo, e_hi, work)
                if lo > edge or hi < -edge:
                    err_fail.append(Witness(
                        q, k, n, "fail",
                        f"|E_{n}| certified above 1/q: "
                        f"[{_float_text(e.lo, '.6g', ROUND_FLOOR)}, "
                        f"{_float_text(e.hi, '.6g')}]",
                    ))
                else:
                    err_pending.append(Witness(
                        q, k, n, "inconclusive",
                        f"E_{n} enclosure width {_float_text(e.width, '.3g')} "
                        f"not inside [-1/q, 1/q] at {work} bits",
                    ))
            grow_pending, grow_fail = [], []
            for n in range(1, grid.n_max + 1):
                i = n - 1 - lowest  # the index of gamma^(n-1)
                lo, hi = power_lo[i], power_hi[i]
                # times (q-1)/q and (q+2)/q, floored and ceiled
                low = ((lo * (q - 1)) // q, -((-hi * (q - 1)) // q))
                high = ((lo * (q + 2)) // q, -((-hi * (q + 2)) // q))
                exact = table[n - first] << work
                chain = ((power_lo[i - 1], power_hi[i - 1]), low, (exact, exact),
                         high, (power_lo[i + 1], power_hi[i + 1]))
                _chain(zip(_GROWTH_LINKS, chain, chain[1:]), q, k, n, work,
                       grow_fail, grow_pending, _order_mantissas)
            return err_fail + err_pending, grow_fail + grow_pending

        # a rung whose E_{n_max} enclosure is wider than 2/q cannot settle
        # that n, so it could only climb on
        ladder = _root_ladder(cells.root(q, k), grid.n_max, Fraction(2, q))
        (cell_error, cell_growth), enclosure = _climb(ladder, attempt)
        error_witnesses += cell_error
        growth_witnesses += cell_growth
        used = max(used, enclosure.interval.bits)

    return [
        _report("error-bound", grid, error_witnesses, used, error_strict),
        _report("growth-bounds", grid, growth_witnesses, used),
    ]


# ----------------------------------------------------------------------
# full-roots reconstruction
# ----------------------------------------------------------------------

def check_reconstruction(cells: CellContext) -> list[LawReport]:
    """Rounded full-roots sums equal the exact terms, at 256 bits or more."""
    grid, bits = cells.grid, max(cells.bits, RECONSTRUCTION_MIN_BITS)
    _require_certified_regime(grid)
    witnesses = []
    for q, k in grid.cells:
        table = cells.table(q, k)
        try:
            sweep = reconstruction_sweep(cells.root(q, k), 2 - k, grid.n_max, bits)
            for n, value, radius in sweep:
                if value is None:
                    witnesses.append(Witness(q, k, n, "inconclusive", "certified radius "
                                             f"{_float_text(radius, '.3g')} is not below 1/2"))
                elif value != table[n + k - 2]:
                    witnesses.append(Witness(
                        q, k, n, "fail",
                        f"reconstruction {value} != exact {table[n + k - 2]} "
                        f"(radius {_float_text(radius, '.3g')})",
                    ))
        except RootSolveError as exc:
            witnesses.append(Witness(q, k, None, "fail", f"root solve failed: {exc}"))
        except ReconstructionError as exc:
            witnesses.append(Witness(q, k, None, "inconclusive", str(exc)))
    return [_report("reconstruction", grid, witnesses, bits)]


# ----------------------------------------------------------------------
# heuristic decay probe (not a law: the vanishing limit has no finite
# certificate, so this is labeled and reported separately)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecayProbe:
    """Certified spot check that |E_n| is already tiny at a probe index."""

    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def error_decay_probe(
    grid: Grid,
    bits: int,
    n_probe: int = 40,
    threshold: Fraction = Fraction(1, 10**6),
) -> DecayProbe:
    """Check certified |E_{n_probe}| < threshold on every grid cell.

    This is a heuristic stand-in for the vanishing-limit statement; a
    cell fails only when the enclosure certifies the violation.
    """
    _require_certified_regime(grid)
    threshold = Fraction(threshold)
    failures = []
    for q, k in grid.cells:
        params = SequenceParams(q, k)
        err = error_term(params, n_probe, bits)
        e = err.interval
        # E_n against +-threshold, scaled by its denominator * 2^bits
        den = threshold.denominator
        lo, hi, edge = den * e.lo_num, den * e.hi_num, threshold.numerator << e.bits
        if -edge < lo and hi < edge:
            continue
        if lo >= edge or hi <= -edge:
            failures.append(Witness(
                q, k, n_probe, "fail",
                f"|E_{n_probe}| certified >= {_float_text(threshold, '.1e')}: "
                f"[{_float_text(e.lo, '.6g', ROUND_FLOOR)}, {_float_text(e.hi, '.6g')}]",
            ))
        else:
            failures.append(Witness(
                q, k, n_probe, "inconclusive",
                f"E_{n_probe} enclosure too wide at {err.bits_used} bits",
            ))
    return DecayProbe(_sorted_witnesses(failures))


# ----------------------------------------------------------------------
# dispatcher
# ----------------------------------------------------------------------

# CLI selector -> the law ids it reports
_SELECTORS = {
    "identities": ("identity-theorem2", "identity-theorem3", "series-oracle"),
    "lemma1": ("lemma1-monotone", "lemma1-sandwich"),
    "lemma2": ("lemma2-sandwich",),
    "error-bound": ("error-bound",),
    "growth": ("growth-bounds",),
    "reconstruction": ("reconstruction",),
    "all": LAW_IDS,
}


def run_laws(selection: str, grid: Grid, bits: int) -> list[LawReport]:
    """All reports for a CLI selector, in canonical law order."""
    if selection not in _SELECTORS:
        raise DomainError(f"unknown law selector {selection!r}")
    wanted = set(_SELECTORS[selection])
    cells = CellContext(grid, bits)
    # each checker with the slice of LAW_IDS it reports
    checkers = (
        (LAW_IDS[0:3], lambda: check_identities(cells.up_to(500))),
        (LAW_IDS[3:6], lambda: check_root_laws(cells)),
        (LAW_IDS[6:8], lambda: check_term_bounds(cells)),
        (LAW_IDS[8:9], lambda: check_reconstruction(cells.up_to(RECONSTRUCTION_N_CAP))),
    )
    reports: list[LawReport] = []
    for law_ids, check in checkers:
        if wanted.intersection(law_ids):
            reports += check()
    return [r for r in reports if r.law_id in wanted]
