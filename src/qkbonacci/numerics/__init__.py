"""Certified real and complex numerics for the characteristic polynomial."""

from .dyadic import DyadicInterval
from .polynomials import AuxPoly, CharPoly
from .roots import (
    QuadraticRoots,
    RootEnclosure,
    RootSet,
    SecondaryRoot,
    all_roots,
    dominant_root,
    quadratic_roots,
    refine_root,
)
from .binet import (
    DominantTerm,
    ErrorEnclosure,
    Reconstruction,
    asymptote_c,
    binet_dominant,
    binet_reconstruct,
    dominant_term_sweep,
    error_term,
    g_eval,
    reconstruct_detailed,
    reconstruction_sweep,
    u_closed_form,
)

__all__ = [
    "DyadicInterval",
    "AuxPoly",
    "CharPoly",
    "QuadraticRoots",
    "RootEnclosure",
    "RootSet",
    "SecondaryRoot",
    "all_roots",
    "dominant_root",
    "quadratic_roots",
    "refine_root",
    "DominantTerm",
    "ErrorEnclosure",
    "Reconstruction",
    "asymptote_c",
    "binet_dominant",
    "binet_reconstruct",
    "dominant_term_sweep",
    "error_term",
    "g_eval",
    "reconstruct_detailed",
    "reconstruction_sweep",
    "u_closed_form",
]
