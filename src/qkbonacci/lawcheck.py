"""Machine-checkable verification of the stated identities, lemmas and
bounds over configurable (q, k, n) grids.

A pass verdict always means every individual comparison was settled by
exact integer arithmetic or by certified interval separation; interval
comparisons that cannot be separated escalate their working precision
(doubling, capped at 16x the request) and are reported inconclusive if
the cap is reached, never pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, RegimeError, ReconstructionError, RootSolveError
from .numerics import (
    DyadicInterval,
    asymptote_c,
    dominant_root,
    dominant_term_sweep,
    error_term,
    g_eval,
    quadratic_roots,
    reconstruction_sweep,
)
from .numerics.binet import _rungs
from .sequences import (
    CompanionKind,
    SequenceParams,
    _theorem3_sum,
    companion_table,
    series_coefficients,
    term_table,
)

__all__ = [
    "LAW_IDS",
    "Grid",
    "Witness",
    "LawReport",
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
        return {"q": self.q, "k": self.k, "n": self.n, "kind": self.kind,
                "detail": self.detail}


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


def _chain(checks, q, k, n, work, fails, unsettled) -> None:
    """Certify each (label, a, b) in checks as a < b; a certified
    a > b goes to fails and an unseparated pair to unsettled."""
    for label, a, b in checks:
        order = _order(a, b)
        if order < 0:
            fails.append(Witness(q, k, n, "fail", f"{label} certified false"))
        elif order == 0:
            unsettled.append(Witness(
                q, k, n, "inconclusive", f"{label} not separated at {work} bits"))


def _climb(bits: int, attempt):
    """Call attempt(work) up the precision ladder until none of the
    witness lists it returns is inconclusive; returns the last lists and
    the bits they were found at."""
    for work in _rungs(bits):
        found = attempt(work)
        if all(w.kind == "fail" for witnesses in found for w in witnesses):
            break
    return found, work


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

def check_identities(grid: Grid) -> list[LawReport]:
    """Shortcut identity, companion-pair identity, and series oracle,
    all by exact integer equality (never inconclusive)."""
    _require_identities_grid(grid)
    shortcut_witnesses = []
    companion_witnesses = []
    series_witnesses = []
    for q, k in grid.cells:
        params = SequenceParams(q, k)
        table = term_table(params, grid.n_max)

        def f(n):
            return table[n - params.min_index]

        # order-(k+1) shortcut, stated for n >= 3
        for n in range(3, grid.n_max + 1):
            expected = (q + 1) * f(n - 1) - (q - 1) * f(n - 2) - f(n - k - 1)
            if f(n) != expected:
                shortcut_witnesses.append(Witness(
                    q, k, n, "fail",
                    f"shortcut gives {expected}, definition gives {f(n)}",
                ))

        # companion-pair identity, q >= 3 only
        if q >= 3:
            u = companion_table(q, CompanionKind.U, grid.n_max)
            v = companion_table(q, CompanionKind.V, max(1, grid.n_max - k - 1))
            for n in range(1, grid.n_max + 1):
                expected = _theorem3_sum(u, v, table, k, n)
                if f(n) != expected:
                    companion_witnesses.append(Witness(
                        q, k, n, "fail",
                        f"companion form gives {expected}, definition gives {f(n)}",
                    ))

        # generating-function long division
        coeffs = series_coefficients(params, grid.n_max + 1)
        for n, c in enumerate(coeffs):
            if c != f(n):
                series_witnesses.append(Witness(
                    q, k, n, "fail",
                    f"series coefficient {c}, definition gives {f(n)}",
                ))

    return [
        _report("identity-theorem2", grid, shortcut_witnesses, 0),
        _report("identity-theorem3", grid, companion_witnesses, 0),
        _report("series-oracle", grid, series_witnesses, 0),
    ]


# ----------------------------------------------------------------------
# root laws (certified interval separations)
# ----------------------------------------------------------------------

def check_root_laws(grid: Grid, bits: int) -> list[LawReport]:
    """Dominant-root monotonicity in k, the alpha sandwich, the weight
    sandwich, and the asymptote ordering, all by interval separation."""
    _require_certified_regime(grid)
    reports = []

    def monotone(work):
        fails, unsettled = [], []
        for q in grid.q_values:
            gammas = {
                k: dominant_root(SequenceParams(q, k), work).interval
                for k in grid.k_values
            }
            ks = list(grid.k_values)
            for i, k1 in enumerate(ks):
                for k2 in ks[i + 1:]:
                    order = _order(gammas[k1], gammas[k2])
                    if order < 0:
                        fails.append(Witness(
                            q, k2, None, "fail",
                            f"gamma_{k2} certified below gamma_{k1}",
                        ))
                    elif order == 0:
                        unsettled.append(Witness(
                            q, k2, None, "inconclusive",
                            f"gamma_{k1} vs gamma_{k2} not separated at {work} bits",
                        ))
        return (fails + unsettled,)

    def sandwich(work):
        fails, unsettled = [], []
        for q in grid.q_values:
            alpha = quadratic_roots(q, work).alpha
            for k in grid.k_values:
                gamma = dominant_root(SequenceParams(q, k), work).interval
                _chain((
                    ("bracket q < gamma", q, gamma),
                    ("bracket gamma < q+1", gamma, q + 1),
                    ("alpha(1 - q^-k) < gamma", alpha * Fraction(q**k - 1, q**k), gamma),
                    ("gamma < alpha", gamma, alpha),
                ), q, k, None, work, fails, unsettled)
        return (fails + unsettled,)

    def weight(work):
        fails, unsettled = [], []
        for q in grid.q_values:
            for k in grid.k_values:
                params = SequenceParams(q, k)
                gamma = dominant_root(params, work).interval
                gval = g_eval(params, gamma)
                _chain((
                    ("1/(q+1) < g(gamma)", Fraction(1, q + 1), gval),
                    ("g(gamma) < 1/q", gval, Fraction(1, q)),
                    ("c < gamma", asymptote_c(params, work), gamma),
                ), q, k, None, work, fails, unsettled)
        return (fails + unsettled,)

    for law_id, compare in (
        ("lemma1-monotone", monotone),
        ("lemma1-sandwich", sandwich),
        ("lemma2-sandwich", weight),
    ):
        (witnesses,), used = _climb(bits, compare)
        reports.append(_report(law_id, grid, witnesses, used))
    return reports


# ----------------------------------------------------------------------
# error bound and growth chain
# ----------------------------------------------------------------------

def check_term_bounds(grid: Grid, bits: int) -> list[LawReport]:
    """|E_n| <= 1/q for n in [2-k, n_max] and the growth chain
    gamma^(n-2) < gamma^(n-1)(q-1)/q < F_n < gamma^(n-1)(q+2)/q < gamma^n
    for n in [1, n_max], certified against exact integers."""
    _require_certified_regime(grid)
    error_witnesses, growth_witnesses = [], []
    used = bits
    error_strict = True

    for q, k in grid.cells:
        params = SequenceParams(q, k)
        table = term_table(params, grid.n_max)

        def f(n):
            return table[n - params.min_index]

        bound = Fraction(1, q)

        def attempt(work):
            nonlocal error_strict
            _, _, powers, terms = dominant_term_sweep(params, grid.n_max, work)
            err_pending, err_fail = [], []
            for n in range(params.min_index, grid.n_max + 1):
                e = (-terms[n]) + f(n)
                if -bound <= e.lo and e.hi <= bound:
                    if not (-bound < e.lo and e.hi < bound):
                        error_strict = False
                    continue
                if e.lo > bound or e.hi < -bound:
                    err_fail.append(Witness(
                        q, k, n, "fail",
                        f"|E_{n}| certified above 1/q: "
                        f"[{float(e.lo):.6g}, {float(e.hi):.6g}]",
                    ))
                else:
                    err_pending.append(Witness(
                        q, k, n, "inconclusive",
                        f"E_{n} enclosure width {float(e.width):.3g} "
                        f"not inside [-1/q, 1/q] at {work} bits",
                    ))
            grow_pending, grow_fail = [], []
            for n in range(1, grid.n_max + 1):
                low = powers[n - 1] * Fraction(q - 1, q)
                high = powers[n - 1] * Fraction(q + 2, q)
                _chain((
                    ("gamma^(n-2) < gamma^(n-1)(q-1)/q", powers[n - 2], low),
                    ("gamma^(n-1)(q-1)/q < F_n", low, f(n)),
                    ("F_n < gamma^(n-1)(q+2)/q", f(n), high),
                    ("gamma^(n-1)(q+2)/q < gamma^n", high, powers[n]),
                ), q, k, n, work, grow_fail, grow_pending)
            return err_fail + err_pending, grow_fail + grow_pending

        (cell_error, cell_growth), work = _climb(bits, attempt)
        error_witnesses += cell_error
        growth_witnesses += cell_growth
        used = max(used, work)

    return [
        _report("error-bound", grid, error_witnesses, used, error_strict),
        _report("growth-bounds", grid, growth_witnesses, used),
    ]


# ----------------------------------------------------------------------
# full-roots reconstruction
# ----------------------------------------------------------------------

def check_reconstruction(grid: Grid, bits: int) -> list[LawReport]:
    """Rounded full-roots sums equal the exact terms across the grid."""
    _require_certified_regime(grid)
    witnesses = []
    for q, k in grid.cells:
        params = SequenceParams(q, k)
        table = term_table(params, grid.n_max)
        try:
            sweep = reconstruction_sweep(params, params.min_index, grid.n_max, bits)
            for n, rec, residual, imag in sweep:
                if rec is None:
                    witnesses.append(Witness(
                        q, k, n, "fail",
                        f"rounding guard failed: residual={float(residual):.3g}, "
                        f"imag={float(imag):.3g}",
                    ))
                    continue
                exact = table[n - params.min_index]
                if rec.value != exact:
                    witnesses.append(Witness(
                        q, k, n, "fail",
                        f"reconstruction {rec.value} != exact {exact} "
                        f"(residual {float(residual):.3g})",
                    ))
        except (RootSolveError, ReconstructionError) as exc:
            witnesses.append(Witness(q, k, None, "fail", f"root solve failed: {exc}"))
    return [_report("reconstruction", grid, witnesses, bits)]


# ----------------------------------------------------------------------
# heuristic decay probe (not a law: the vanishing limit has no finite
# certificate, so this is labeled and reported separately)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecayProbe:
    """Certified spot check that |E_n| is already tiny at a probe index."""

    grid: Grid
    bits: int
    n_probe: int
    threshold: Fraction
    failures: tuple = field(default_factory=tuple)

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
    failures = []
    for q, k in grid.cells:
        params = SequenceParams(q, k)
        err = error_term(params, n_probe, bits)
        e = err.interval
        if -threshold < e.lo and e.hi < threshold:
            continue
        if e.lo >= threshold or e.hi <= -threshold:
            failures.append(Witness(
                q, k, n_probe, "fail",
                f"|E_{n_probe}| certified >= {float(threshold):.1e}: "
                f"[{float(e.lo):.6g}, {float(e.hi):.6g}]",
            ))
        else:
            failures.append(Witness(
                q, k, n_probe, "inconclusive",
                f"E_{n_probe} enclosure too wide at {err.bits_used} bits",
            ))
    return DecayProbe(grid, bits, n_probe, threshold, _sorted_witnesses(failures))


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
    # each checker with the slice of LAW_IDS it reports
    checkers = (
        (LAW_IDS[0:3], lambda: check_identities(
            Grid(grid.q_values, grid.k_values, min(grid.n_max, 500)))),
        (LAW_IDS[3:6], lambda: check_root_laws(grid, bits)),
        (LAW_IDS[6:8], lambda: check_term_bounds(grid, bits)),
        (LAW_IDS[8:9], lambda: check_reconstruction(
            Grid(grid.q_values, grid.k_values, min(grid.n_max, RECONSTRUCTION_N_CAP)),
            max(bits, RECONSTRUCTION_MIN_BITS))),
    )
    reports: list[LawReport] = []
    for law_ids, check in checkers:
        if wanted.intersection(law_ids):
            reports += check()
    return [r for r in reports if r.law_id in wanted]
