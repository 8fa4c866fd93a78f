"""Exact and certified-interval computation for the family of weighted
k-step Fibonacci sequences F_n = q*F_{n-1} + F_{n-2} + ... + F_{n-k}.

The package splits into exact big-integer engines (`sequences`),
certified numerics over dyadic intervals (`numerics`), a law checker
that certifies the stated identities and bounds over grids (`lawcheck`),
and a command-line front end (`cli`).
"""

from .errors import (
    DomainError,
    PoleInIntervalError,
    QkError,
    ReconstructionError,
    RegimeError,
    RootSolveError,
)
from .lawcheck import (
    Grid,
    LawReport,
    Witness,
    check_identities,
    check_reconstruction,
    check_root_laws,
    check_term_bounds,
    error_decay_probe,
    run_laws,
)
from .numerics import (
    AuxPoly,
    CharPoly,
    DominantTerm,
    DyadicInterval,
    ErrorEnclosure,
    Quadratic,
    RootEnclosure,
    RootSet,
    SecondaryRoot,
    all_roots,
    binet_dominant,
    binet_reconstruct,
    dominant_root,
    error_term,
    g_eval,
    u_closed_form,
)
from .sequences import (
    CompanionKind,
    SequenceParams,
    companion_term,
    series_coefficients,
    term_definition,
    term_fast,
    term_shortcut,
    term_table,
    theorem3_term,
)

__version__ = "0.1.0"

__all__ = [
    "QkError",
    "DomainError",
    "RegimeError",
    "PoleInIntervalError",
    "RootSolveError",
    "ReconstructionError",
    "SequenceParams",
    "CompanionKind",
    "term_definition",
    "term_table",
    "term_shortcut",
    "term_fast",
    "companion_term",
    "theorem3_term",
    "series_coefficients",
    "DyadicInterval",
    "CharPoly",
    "AuxPoly",
    "RootEnclosure",
    "Quadratic",
    "RootSet",
    "SecondaryRoot",
    "dominant_root",
    "all_roots",
    "DominantTerm",
    "ErrorEnclosure",
    "g_eval",
    "u_closed_form",
    "binet_dominant",
    "error_term",
    "binet_reconstruct",
    "Grid",
    "Witness",
    "LawReport",
    "check_identities",
    "check_root_laws",
    "check_term_bounds",
    "check_reconstruction",
    "error_decay_probe",
    "run_laws",
]
