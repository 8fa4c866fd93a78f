"""The characteristic polynomial and its auxiliary multiple, exactly.

Coefficients are integers stored in ascending order (c_0 first).  Exact
rational evaluation backs the sign certificates used by root isolation;
``sign_at_dyadic`` avoids Fraction overhead inside the bisection loop.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..sequences import SequenceParams

__all__ = ["CharPoly", "AuxPoly"]


@dataclass(frozen=True)
class _IntPoly:
    params: SequenceParams
    coefficients: tuple

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def eval(self, point) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative_coefficients(self) -> tuple:
        return tuple(i * c for i, c in enumerate(self.coefficients) if i > 0)

    def sign_at_dyadic(self, num: int, scale: int) -> int:
        """Sign at the dyadic point num * 2^-scale, pure integer Horner.

        Works on the value scaled by 2^(degree*scale), which shares the
        sign of the true value.
        """
        deg = self.degree
        acc = self.coefficients[-1]
        for i in range(deg - 1, -1, -1):
            acc = acc * num + (self.coefficients[i] << ((deg - i) * scale))
        return (acc > 0) - (acc < 0)


@dataclass(frozen=True)
class CharPoly(_IntPoly):
    """t^k - q t^(k-1) - t^(k-2) - ... - t - 1."""

    @classmethod
    def of(cls, params: SequenceParams) -> "CharPoly":
        q, k = params.q, params.k
        return cls(params, tuple([-1] * (k - 1) + [-q, 1]))


@dataclass(frozen=True)
class AuxPoly(_IntPoly):
    """t^(k+1) - (q+1) t^k + (q-1) t^(k-1) + 1, i.e. (t-1) times CharPoly."""

    @classmethod
    def of(cls, params: SequenceParams) -> "AuxPoly":
        q, k = params.q, params.k
        coeffs = [0] * (k + 2)
        coeffs[0] = 1
        coeffs[k - 1] = q - 1
        coeffs[k] = -(q + 1)
        coeffs[k + 1] = 1
        return cls(params, tuple(coeffs))
