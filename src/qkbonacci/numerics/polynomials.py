"""The characteristic polynomial, its auxiliary multiple and quadratics, exactly.

Coefficients are integers stored in ascending order (c_0 first).
``eval`` is exact rational Horner.  ``sign_at_dyadic`` backs the sign
certificates of root isolation without Fractions: a fixed-point Horner
at 2^-(scale + 64), with a certified bound on its rounding, decides the
sign, and exact integer Horner runs only where that bound cannot, at a
negative point or at a scale of at most 64 bits.  ``Quadratic`` gives the
exact sign of such a polynomial at a root of an integer quadratic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..sequences import SequenceParams
from .dyadic import DyadicInterval

__all__ = ["CharPoly", "AuxPoly", "Quadratic"]


@dataclass(frozen=True)
class Quadratic:
    """a t^2 + b t + c, integers with a > 0 and real roots (disc >= 0)."""

    a: int
    b: int
    c: int

    @classmethod
    def companion(cls, q: int) -> "Quadratic":
        """Q(t) = t^2 - (q+1)t + (q-1), with roots alpha > beta."""
        return cls(1, -(q + 1), q - 1)

    @classmethod
    def weight_denominator(cls, q: int, k: int) -> "Quadratic":
        """D(t) = (k+1)t^2 - (q+1)k t + (q-1)(k-1), with upper root c."""
        return cls(k + 1, -(q + 1) * k, (q - 1) * (k - 1))

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def reduce(self, coeffs) -> tuple[int, int]:
        """(u, v) with P(t) a^deg = u + v t modulo this quadratic, P of ascending
        coeffs, by Horner in Z[t]: there a t (u + v t) = -c v + (a u - b v) t."""
        u, v, scale = coeffs[-1], 0, 1
        for coeff in coeffs[-2::-1]:
            scale *= self.a
            u, v = coeff * scale - self.c * v, self.a * u - self.b * v
        return u, v

    def sign_at(self, u: int, v: int, upper: bool) -> int:
        """The exact sign of u + v rho at the upper or lower root rho: 2a (u + v rho) =
        X + Y sqrt(disc), X = 2au - bv, Y = +-v, takes the sign of the larger term in size."""
        x, y = 2 * self.a * u - self.b * v, v if upper else -v
        sx, sy, gap = (x > 0) - (x < 0), (y > 0) - (y < 0), x * x - y * y * self.disc
        return sx if sx == sy or gap > 0 else sy if gap < 0 else 0

    def root(self, upper: bool, bits: int) -> DyadicInterval:
        """The upper or lower root, enclosed at 2^-(bits + 4)."""
        s = DyadicInterval.sqrt_of_int(self.disc, bits + 4)
        top = s - self.b if upper else -self.b - s
        return DyadicInterval(top.lo_num // (2 * self.a), -(-top.hi_num // (2 * self.a)), top.bits)


@dataclass(frozen=True)
class _IntPoly:
    params: SequenceParams
    coefficients: tuple

    def eval(self, point) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        x = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def sign_at_dyadic(self, num: int, scale: int) -> int:
        """Sign at the dyadic point t = num * 2^-scale.

        For num >= 0, scale > 64 and degree >= 2 this is Horner in fixed
        point.  The first step is exact at 2^-scale.  Each later step but
        the last is rounded down to 2^-p, p = scale + 64, which is shorter
        than the exact product.  The last step is exact, so degree 2 is
        exact throughout.  A rounded step loses less than 2^-p and
        multiplies the loss before it by t <= ceil(t), so the final v at
        2^-e has v <= Phi(t) * 2^e <= v + E, where E is num times the sum
        of ceil(t)^j over the rounded steps.  v > 0 gives +1 and v + E < 0
        gives -1.  Otherwise Phi(t) is within the rounding bound of zero,
        an exact zero included, and exact integer Horner decides, as it
        does for num < 0 and for scales up to 64, where its numbers are
        short anyway.
        """
        coeffs = self.coefficients
        if num >= 0 and scale > 64 and len(coeffs) > 2:
            p = scale + 64
            acc, exp = coeffs[-1] * num + (coeffs[-2] << scale), scale
            for c in coeffs[-3:0:-1]:
                acc = (acc * num >> (exp - 64)) + (c << p)
                exp = p
            acc = acc * num + (coeffs[0] << (exp + scale))
            if acc > 0:
                return 1
            ceil_t, err = -(-num >> scale), 0
            for _ in range(len(coeffs) - 3):
                err = err * ceil_t + 1
            if acc + err * num < 0:
                return -1
        return _exact_sign(coeffs, num, scale)


def _exact_sign(coeffs: tuple, num: int, scale: int) -> int:
    """Sign at num * 2^-scale by integer Horner on the value scaled by
    2^(degree*scale), which is exact and shares the true value's sign."""
    deg = len(coeffs) - 1
    acc = coeffs[-1]
    for i in range(deg - 1, -1, -1):
        acc = acc * num + (coeffs[i] << ((deg - i) * scale))
    return (acc > 0) - (acc < 0)


@dataclass(frozen=True)
class CharPoly(_IntPoly):
    """t^k - q t^(k-1) - t^(k-2) - ... - t - 1."""

    @classmethod
    def of(cls, params: SequenceParams) -> "CharPoly":
        return cls(params, (-1,) * (params.k - 1) + (-params.q, 1))


@dataclass(frozen=True)
class AuxPoly(_IntPoly):
    """t^(k-1) Q(t) + 1 = t^(k+1) - (q+1) t^k + (q-1) t^(k-1) + 1, i.e.
    (t-1) times CharPoly, with Q = Quadratic.companion(q)."""

    @classmethod
    def of(cls, params: SequenceParams) -> "AuxPoly":
        quad = Quadratic.companion(params.q)
        return cls(params, (1,) + (0,) * (params.k - 2) + (quad.c, quad.b, quad.a))
