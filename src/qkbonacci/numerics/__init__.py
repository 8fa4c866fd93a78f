"""Certified real and complex numerics for the characteristic polynomial."""

from .dyadic import DyadicInterval
from .polynomials import AuxPoly, CharPoly, Quadratic
from .roots import (
    RootEnclosure,
    RootSet,
    SecondaryRoot,
    all_roots,
    dominant_root,
    refine_root,
)
from .binet import (
    DominantTerm,
    ErrorEnclosure,
    binet_dominant,
    binet_reconstruct,
    dominant_term_sweep,
    error_term,
    g_eval,
    reconstruction_sweep,
    u_closed_form,
)

__all__ = [
    "DyadicInterval",
    "AuxPoly",
    "CharPoly",
    "Quadratic",
    "RootEnclosure",
    "RootSet",
    "SecondaryRoot",
    "all_roots",
    "dominant_root",
    "refine_root",
    "DominantTerm",
    "ErrorEnclosure",
    "binet_dominant",
    "binet_reconstruct",
    "dominant_term_sweep",
    "error_term",
    "g_eval",
    "reconstruction_sweep",
    "u_closed_form",
]
