"""Machine-checkable verification of the stated identities, lemmas and
bounds over configurable (q, k, n) grids.

A pass verdict always means every individual comparison was settled by
exact integer arithmetic or by certified interval separation.  The
identity and Lemma 1 and 2 laws are exact, with bits_used 0 and verdicts
that no --bits moves.  Interval comparisons that cannot be separated
escalate their working precision (doubling, capped at 16x the request)
and are reported inconclusive if the cap is reached, never pass.  The
laws of one run_laws call read each (q, k) cell's terms and dominant
root from one shared CellContext.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from decimal import ROUND_FLOOR
from fractions import Fraction

from .errors import DomainError, ReconstructionError, RegimeError, RootSolveError
from .numerics import (
    AuxPoly,
    CharPoly,
    Quadratic,
    dominant_root,
    dominant_term_sweep,
    reconstruction_sweep,
)
from .numerics.binet import _root_ladder
from .numerics.dyadic import _float_text
from .sequences import (
    SequenceParams,
    _theorem3_forms,
    series_coefficients,
    term_definition,
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

IDENTITY_N_CAP = 500
RECONSTRUCTION_N_CAP = 60
RECONSTRUCTION_MIN_BITS = 256

# one row per law, in canonical order: its id, the CLI selector that
# reports it, the name of the checker that computes it and the last n
# that checker reads (None: the grid's n_max).  run_laws looks each
# checker up by name when it calls it, so a rebound lawcheck.check_* is
# the one called
_LAWS = (
    ("identity-theorem2", "identities", "check_identities", IDENTITY_N_CAP),
    ("identity-theorem3", "identities", "check_identities", IDENTITY_N_CAP),
    ("series-oracle", "identities", "check_identities", IDENTITY_N_CAP),
    ("lemma1-monotone", "lemma1", "check_root_laws", None),
    ("lemma1-sandwich", "lemma1", "check_root_laws", None),
    ("lemma2-sandwich", "lemma2", "check_root_laws", None),
    ("error-bound", "error-bound", "check_term_bounds", None),
    ("growth-bounds", "growth", "check_term_bounds", None),
    ("reconstruction", "reconstruction", "check_reconstruction", RECONSTRUCTION_N_CAP),
)
LAW_IDS = tuple(law_id for law_id, _, _, _ in _LAWS)
# CLI selector -> the law ids it reports
_SELECTORS = {selector: tuple(law_id for law_id, s, _, _ in _LAWS if s == selector)
              for _, selector, _, _ in _LAWS} | {"all": LAW_IDS}


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
    """One law's verdict over a grid.  Inequality laws certify the strict
    form their proofs conclude: error-bound passes on |E_n| < 1/q."""

    law_id: str
    grid: Grid
    verdict: str
    witnesses: tuple
    bits_used: int

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
    kinds = {w.kind for w in witnesses}
    return "fail" if "fail" in kinds else "inconclusive" if kinds else "pass"


def _report(law_id, grid, witnesses, bits_used) -> LawReport:
    witnesses = _sorted_witnesses(witnesses)
    return LawReport(law_id, grid, _verdict(witnesses), witnesses, bits_used)


def _inside(lo, hi, edge) -> int:
    """+1 when [lo, hi] lies strictly inside (-edge, edge), -1 when it
    lies on or past an end, which certifies |x| < edge false, else 0."""
    return 1 if -edge < lo and hi < edge else -1 if lo >= edge or hi <= -edge else 0


def _require_identities_grid(grid: Grid) -> None:
    if any(q < 1 or q > 10 for q in grid.q_values):
        raise DomainError("identity checks accept q in [1, 10]")
    if any(k < 2 or k > 16 for k in grid.k_values):
        raise DomainError("identity checks accept k in [2, 16]")
    # the shortcut identity starts at n = 3
    if not 3 <= grid.n_max <= IDENTITY_N_CAP:
        raise DomainError(f"identity checks accept n_max in [3, {IDENTITY_N_CAP}]")
    # the companion-pair identity is stated for q >= 3
    if grid.q_values[-1] < 3:
        raise DomainError("identity checks need a q >= 3 on the grid")


def _require_certified_regime(grid: Grid) -> None:
    # q_values is sorted
    if grid.q_values[0] < 3:
        raise RegimeError("certified law checks require q >= 3 everywhere on the grid")


# ----------------------------------------------------------------------
# exact-integer identities
# ----------------------------------------------------------------------

def check_identities(cells: CellContext) -> list[LawReport]:
    """Shortcut identity, companion-pair identity, and series oracle,
    all by exact integer equality (never inconclusive)."""
    grid = cells.grid
    _require_identities_grid(grid)
    witnesses = {law_id: [] for law_id in _SELECTORS["identities"]}
    for q, k in grid.cells:
        params = SequenceParams(q, k)
        table = cells.table(q, k)
        # F_n sits at n + k - 2; each check is (law id, witness prefix,
        # first n, the values it gives for F_n from there on)
        checks = [(
            # order-(k+1) shortcut, stated for n >= 3
            "identity-theorem2", "shortcut gives", 3,
            [(q + 1) * table[n + k - 3] - (q - 1) * table[n + k - 4] - table[n - 3]
             for n in range(3, grid.n_max + 1)],
        )]
        if q >= 3:
            checks.append(("identity-theorem3", "companion form gives", 1,
                           _theorem3_forms(params, table, grid.n_max)))
        # generating-function long division
        checks.append(("series-oracle", "series coefficient", 0,
                       series_coefficients(params, grid.n_max + 1)))
        for law_id, prefix, first, values in checks:
            # one list equality with the table's F_first..; per n only on a mismatch
            if values == table[first + k - 2:grid.n_max + k - 1]:
                continue
            for n, value in enumerate(values, start=first):
                exact = table[n + k - 2]
                if value != exact:
                    witnesses[law_id].append(Witness(
                        q, k, n, "fail", f"{prefix} {value}, definition gives {exact}"))
    return [_report(law_id, grid, found, 0) for law_id, found in witnesses.items()]


# ----------------------------------------------------------------------
# root laws (exact signs of Phi)
# ----------------------------------------------------------------------

def _minus_then_plus(j: int, coeffs) -> tuple:
    signs = [c > 0 for c in coeffs if c]
    return f"Phi_{j}: coefficients not - then +", sorted(signs) == signs and signs[:1] != signs[-1:]


def check_root_laws(cells: CellContext) -> list[LawReport]:
    """Dominant-root monotonicity in k, the alpha sandwich, the weight
    sandwich and the asymptote ordering, decided exactly.  Phi's
    coefficients change sign once, - to +, checked per cell, so t < gamma
    exactly when Phi(t) < 0 for t > 0: gamma against a quadratic's upper
    root is the sign of Phi there.  A false fact fails under its claim."""
    grid = cells.grid
    _require_certified_regime(grid)
    # each k is compared with the next grid k, which orders every pair by
    # transitivity; a single k with k + 1, so the law never passes unchecked
    ks = grid.k_values if len(grid.k_values) > 1 else (grid.k_values[0], grid.k_values[0] + 1)
    found = {law_id: [] for law_id in _SELECTORS["lemma1"] + _SELECTORS["lemma2"]}
    for q in grid.q_values:
        phis = {k: CharPoly.of(SequenceParams(q, k)).coefficients for k in ks}
        facts = []  # (law id, k, detail, holds)
        for k0, k in zip(ks, ks[1:]):
            # Phi_(j+1) = t Phi_j - 1 is -1 at gamma_j, so gamma_j < gamma_(j+1); from j = k0
            # to k - 1 it prepends k - k0 coefficients -1 to Phi_k0's, still - then +
            facts += [("lemma1-monotone", k, *_minus_then_plus(k0, phis[k0])), (
                "lemma1-monotone", k, f"gamma_{k0} vs gamma_{k}: Phi_(j+1) != t Phi_j - 1 "
                f"for some j in [{k0}, {k})", phis[k] == (-1,) * (k - k0) + phis[k0])]
        for k in grid.k_values:
            phi, d = phis[k], Quadratic.weight_denominator(q, k)
            # at gamma, (t-1) Phi = t^(k-1) Q + 1 reads (alpha - gamma)(gamma - beta) =
            # gamma^(1-k); as q < gamma, beta < 1 and alpha beta = q - 1, alpha - gamma is
            # below q^(1-k) / (q - beta), at most alpha q^-k once q alpha > 2q - 1
            aux = tuple(x - y for x, y in zip((0,) + phi, phi + (0,)))
            facts += [(law_id, k, *_minus_then_plus(k, phi))
                      for law_id in ("lemma1-sandwich", "lemma2-sandwich")] + [
                ("lemma1-sandwich", k, "alpha(1 - q^-k) < gamma: (t-1) Phi != t^(k-1) Q + 1",
                 aux == AuxPoly.of(SequenceParams(q, k)).coefficients),
                ("lemma1-sandwich", k, "alpha(1 - q^-k) < gamma: q alpha <= 2q - 1",
                 Quadratic.companion(q).sign_at(1 - 2 * q, q, True) > 0)]
            # g = (t-1) / D, D(gamma) > 0 once c < gamma: the weight bounds are D - m(t-1) < 0
            # and > 0 at gamma, m = q+1 and q; each, like D, is negative at 1 < q < gamma
            over, under = (Quadratic(d.a, d.b - m, d.c + m) for m in (q + 1, q))
            for law_id, claim, quad, sign in (
                    ("lemma1-sandwich", "bracket q < gamma", Quadratic(1, -q, 0), -1),
                    ("lemma1-sandwich", "bracket gamma < q+1", Quadratic(1, -q - 1, 0), 1),
                    ("lemma1-sandwich", "gamma < alpha", Quadratic.companion(q), 1),
                    ("lemma2-sandwich", "1/(q+1) < g(gamma)", over, 1),
                    ("lemma2-sandwich", "g(gamma) < 1/q", under, -1),
                    ("lemma2-sandwich", "c < gamma", d, -1)):
                facts.append((law_id, k, f"{claim} certified false",
                              quad.sign_at(*quad.reduce(phi), True) == sign))
        for law_id, k, detail, holds in facts:
            if not holds:
                found[law_id].append(Witness(q, k, None, "fail", detail))
    return [_report(law_id, grid, witnesses, 0) for law_id, witnesses in found.items()]


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
    """|E_n| < 1/q for n in [2-k, n_max] and the growth chain
    gamma^(n-2) < gamma^(n-1)(q-1)/q < F_n < gamma^(n-1)(q+2)/q < gamma^n
    for n in [1, n_max], certified against exact integers.  Both are the
    strict forms the proofs conclude: an E_n enclosure that reaches +-1/q
    from within climbs, and one that lies on or past it fails.

    Each rung makes one dominant_term_sweep, from min(2-k, -1) to n_max at
    scale 2^-w, and decides each comparison once by integer compares, with
    S = q F_n 2^w: E_n passes when -2^w < S - q t_hi and S - q t_lo < 2^w,
    t the term's ends.  Let [lo, hi], [a_lo, a_hi] and [b_lo, b_hi] be the
    ends of gamma^(n-1), gamma^(n-2) and gamma^n, x1, y1 = lo (q-1), hi (q-1)
    and x2, y2 = lo (q+2), hi (q+2); each link is settled or refuted by

        link 1: x1 >= q (a_hi + 1)  or  q a_lo >= y1
        link 2: y1 <= S - q         or  x1 >= S
        link 3: x2 >= S + q         or  S >= y2
        link 4: y2 <= q (b_lo - 1)  or  x2 >= q b_hi

    the separations of floor(x/q) and ceil(y/q) from the other members."""
    grid = cells.grid
    _require_certified_regime(grid)
    errors, growth, used = [], [], cells.bits
    for q, k in grid.cells:
        table = cells.table(q, k)
        # the growth chain reaches gamma^(n-2) at n = 1, so rows go to -1
        first, lowest = 2 - k, min(2 - k, -1)
        # every enclosure a rung compares lies inside its coarser rung's, so
        # a comparison settled or refuted at a rung stays so above it: the
        # cell stops at its first rung with no inconclusive witness, with the
        # witnesses the finest rung would give, and is not checked again
        # while another cell climbs.  A rung whose E_{n_max} enclosure is
        # wider than 2/q cannot settle that n, so the ladder skips it
        for enclosure in _root_ladder(cells.root(q, k), grid.n_max, (2, q)):
            work = enclosure.interval.bits
            power_lo, power_hi, term_lo, term_hi = dominant_term_sweep(
                enclosure, lowest, grid.n_max)
            cell_errors, cell_growth, edge = [], [], 1 << work
            for n, exact, t_lo, t_hi in zip(range(first, grid.n_max + 1), table,
                                            term_lo[first - lowest:], term_hi[first - lowest:]):
                scaled = q * exact << work
                if scaled - edge < q * t_lo and q * t_hi < scaled + edge:
                    continue
                e_lo, e_hi = scaled - q * t_hi, scaled - q * t_lo
                lo, hi = Fraction(e_lo, q << work), Fraction(e_hi, q << work)
                if _inside(e_lo, e_hi, edge) < 0:
                    cell_errors.append(Witness(q, k, n, "fail", f"|E_{n}| certified above 1/q: "
                        f"[{_float_text(lo, '.6g', ROUND_FLOOR)}, {_float_text(hi, '.6g')}]"))
                else:
                    cell_errors.append(Witness(q, k, n, "inconclusive", f"E_{n} enclosure width "
                        f"{_float_text(hi - lo, '.3g')} not inside [-1/q, 1/q] at {work} bits"))
            for n, exact, a_lo, a_hi, lo, hi, b_lo, b_hi in zip(
                    range(1, grid.n_max + 1), table[1 - first:],
                    power_lo[-1 - lowest:], power_hi[-1 - lowest:], power_lo[-lowest:],
                    power_hi[-lowest:], power_lo[1 - lowest:], power_hi[1 - lowest:]):
                scaled = q * exact << work
                if (lo * (q - 1) >= q * (a_hi + 1) and hi * (q - 1) <= scaled - q
                        and lo * (q + 2) >= scaled + q and hi * (q + 2) <= q * (b_lo - 1)):
                    continue
                x1, y1, x2, y2 = lo * (q - 1), hi * (q - 1), lo * (q + 2), hi * (q + 2)
                settled = (x1 >= q * (a_hi + 1), y1 <= scaled - q,
                           x2 >= scaled + q, y2 <= q * (b_lo - 1))
                refuted = (q * a_lo >= y1, x1 >= scaled, scaled >= y2, x2 >= q * b_hi)
                links = [(r, label) for label, s, r in zip(_GROWTH_LINKS, settled, refuted)
                         if not s]
                # refuted links first, then unsettled ones, each in link order
                cell_growth += [Witness(q, k, n, "fail", f"{label} certified false")
                                for r, label in links if r] + [
                    Witness(q, k, n, "inconclusive", f"{label} not separated at {work} bits")
                    for r, label in links if not r]
            if all(w.kind == "fail" for w in cell_errors + cell_growth):
                break
        errors += cell_errors
        growth += cell_growth
        used = max(used, work)
    return [
        _report("error-bound", grid, errors, used),
        _report("growth-bounds", grid, growth, used),
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
            for n, value, (half, scale) in sweep:
                if value == table[n + k - 2]:
                    continue
                radius = _float_text(Fraction(half, 1 << scale), '.3g')
                witnesses.append(
                    Witness(q, k, n, "inconclusive", f"certified radius {radius} is not below 1/2")
                    if value is None else
                    Witness(q, k, n, "fail", f"reconstruction {value} != exact "
                                             f"{table[n + k - 2]} (radius {radius})"))
        # a refusal of the solver or of the sum proves nothing about F_n
        except (RootSolveError, ReconstructionError) as exc:
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
    cell fails only when the enclosure certifies the violation, and each
    cell climbs _root_ladder until it is decided or reaches the 16x cap.
    """
    _require_certified_regime(grid)
    threshold = Fraction(threshold)
    num, den = threshold.numerator, threshold.denominator
    failures = []
    for q, k in grid.cells:
        params = SequenceParams(q, k)
        exact = term_definition(params, n_probe)
        # a rung whose E_n enclosure is wider than 2 threshold cannot settle it
        for enclosure in _root_ladder(dominant_root(params, bits), n_probe, (2 * num, den)):
            work = enclosure.interval.bits
            _, _, (t_lo,), (t_hi,) = dominant_term_sweep(enclosure, n_probe, n_probe)
            lo, hi = (exact << work) - t_hi, (exact << work) - t_lo
            # E_n against +-threshold, scaled by its denominator * 2^work
            sign = _inside(den * lo, den * hi, num << work)
            if sign:
                break
        if sign < 0:
            lo, hi = Fraction(lo, 1 << work), Fraction(hi, 1 << work)
            failures.append(Witness(q, k, n_probe, "fail", f"|E_{n_probe}| certified >= "
                f"{_float_text(threshold, '.1e')}: "
                f"[{_float_text(lo, '.6g', ROUND_FLOOR)}, {_float_text(hi, '.6g')}]"))
        elif not sign:
            failures.append(Witness(q, k, n_probe, "inconclusive",
                                    f"E_{n_probe} enclosure too wide at {work} bits"))
    return DecayProbe(_sorted_witnesses(failures))


# ----------------------------------------------------------------------
# dispatcher
# ----------------------------------------------------------------------

def run_laws(selection: str, grid: Grid, bits: int) -> list[LawReport]:
    """All reports for a CLI selector, in canonical law order."""
    if selection not in _SELECTORS:
        raise DomainError(f"unknown law selector {selection!r}")
    wanted = set(_SELECTORS[selection])
    # each chosen checker's name -> the n_max it reads the grid to
    chosen = {checker: grid.n_max if n_cap is None else min(grid.n_max, n_cap)
              for law_id, _, checker, n_cap in _LAWS if law_id in wanted}
    # the context's grid, and with it every table, is cut at the longest
    # view a chosen checker reads
    cells = CellContext(replace(grid, n_max=max(chosen.values())), bits)
    reports: list[LawReport] = []
    for checker, n_max in chosen.items():
        reports += globals()[checker](cells.up_to(n_max))
    return [r for r in reports if r.law_id in wanted]
