"""Root machinery for the characteristic polynomial.

Two deliberately different routes:

* the dominant root gets a certified enclosure from pure bisection with
  exact integer sign tests (unconditionally convergent inside the
  (q, q+1) bracket, which the polynomial family guarantees);
* the remaining roots are isolated by simultaneous Aberth-Ehrlich
  iteration in floats, then each is polished by Newton steps in integer
  fixed-point complex arithmetic at the requested precision, and
  reported together with residual magnitudes |Phi(z)| rather than
  enclosures.

Precision is always an argument; nothing here keeps ambient state.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import frexp, isqrt

from ..errors import DomainError, RegimeError, RootSolveError
from ..sequences import SequenceParams
from .dyadic import DyadicInterval
from .polynomials import CharPoly

__all__ = [
    "RootEnclosure",
    "QuadraticRoots",
    "SecondaryRoot",
    "RootSet",
    "dominant_root",
    "refine_root",
    "quadratic_roots",
    "all_roots",
]

_NEWTON_MAX_STEPS = 80
_FLOAT_MAX_ITER = 400


@dataclass(frozen=True)
class RootEnclosure:
    """Certified bracket around the single root larger than one.

    The sign pair (negative at lo, positive at hi) is the certificate: it
    is established by exact integer evaluation, so a real root lies
    strictly inside the interval.
    """

    params: SequenceParams
    interval: DyadicInterval


@dataclass(frozen=True)
class QuadraticRoots:
    """Enclosures of the roots of t^2 - (q+1)t + (q-1)."""

    q: int
    alpha: DyadicInterval
    beta: DyadicInterval


@dataclass(frozen=True)
class SecondaryRoot:
    """Fixed-point approximation (re + im*i) * 2^-bits with a residual
    bound on |Phi| at the approximation."""

    re_num: int
    im_num: int
    bits: int
    residual: Fraction

    @property
    def real(self) -> Fraction:
        return Fraction(self.re_num, 1 << self.bits)

    @property
    def imag(self) -> Fraction:
        return Fraction(self.im_num, 1 << self.bits)

    @property
    def modulus_squared(self) -> Fraction:
        return Fraction(
            self.re_num * self.re_num + self.im_num * self.im_num,
            1 << (2 * self.bits),
        )

    def distance_bound(self, degree: int) -> Fraction:
        """Distance from this approximation to some true root.

        For a monic polynomial |Phi(z)| is the product of the distances
        to all roots, so the nearest root is within |Phi(z)|^(1/degree).
        Returned as a power-of-two upper bound.
        """
        if self.residual == 0:
            return Fraction(0)
        # smallest e with residual <= 2^-e, then floor(e/degree)
        e = 0
        while Fraction(1, 1 << (e + 1)) >= self.residual:
            e += 1
        return Fraction(1, 1 << (e // degree))


@dataclass(frozen=True)
class RootSet:
    """Dominant enclosure plus residual-certified secondary approximations."""

    params: SequenceParams
    bits: int
    dominant: RootEnclosure
    secondary: tuple

    def certified_inside_unit_circle(self) -> bool:
        """True when every secondary root provably has modulus < 1.

        Uses the residual-derived distance bound, so this is a genuine
        certificate about true roots, not just about the approximations.
        """
        degree = self.params.k
        for root in self.secondary:
            margin = 1 - root.distance_bound(degree)
            if not root.modulus_squared < margin * margin:
                return False
        return True


def _bisect(params: SequenceParams, lo: int, scale: int, bits: int) -> RootEnclosure:
    """Halve the sign-certified unit cell [lo, lo + 1] * 2^-scale down to
    scale bits."""
    poly = CharPoly.of(params)
    while scale < bits:
        lo, scale = 2 * lo, scale + 1
        sign = poly.sign_at_dyadic(lo + 1, scale)
        if sign == 0:
            # rational-root theorem rules dyadic roots out for this family
            raise RuntimeError("internal error: exact dyadic root encountered")
        if sign < 0:
            lo += 1
    # the sign pair already puts the root strictly inside, so an endpoint
    # may sit on q or q + 1 itself
    q = params.q
    if not (lo >= q << scale and lo + 1 <= (q + 1) << scale):
        raise RuntimeError("internal error: enclosure escaped the (q, q+1) bracket")
    return RootEnclosure(params, DyadicInterval(lo, lo + 1, scale))


def dominant_root(params: SequenceParams, bits: int) -> RootEnclosure:
    """Certified enclosure of width 2^-bits via sign-test bisection.

    The starting bracket is (q, q+1) for every q >= 1: Phi(q) =
    -(1 + q + ... + q^(k-2)) < 0 < Phi(q+1), and by Descartes' rule of
    signs Phi has no other positive root.  Every cell it halves is a unit
    cell [j, j+1] * 2^-scale.
    """
    if bits < 8:
        raise DomainError(f"bits must be >= 8, got {bits}")
    poly = CharPoly.of(params)
    q = params.q
    if not (poly.sign_at_dyadic(q, 0) < 0 < poly.sign_at_dyadic(q + 1, 0)):
        raise RuntimeError("internal error: sign change missing at (q, q+1)")
    return _bisect(params, q, 0, bits)


def refine_root(enclosure: RootEnclosure, bits: int) -> RootEnclosure:
    """``dominant_root(enclosure.params, bits)``, reached from an enclosure
    that dominant_root or refine_root returned at any precision.

    At each scale exactly one unit cell holds the root, and each splits
    into two, so a coarser enclosure is bisected on and a finer one gives
    its ancestor, the cell whose index is its own shifted right.  The
    enclosure must be a unit cell with the sign pair at its ends.
    """
    if bits < 8:
        raise DomainError(f"bits must be >= 8, got {bits}")
    cell = enclosure.interval
    lo, scale = cell.lo_num, cell.bits
    poly = CharPoly.of(enclosure.params)
    if not (cell.hi_num == lo + 1
            and poly.sign_at_dyadic(lo, scale) < 0 < poly.sign_at_dyadic(lo + 1, scale)):
        raise DomainError("enclosure is not a sign-certified cell of the bisection lattice")
    if scale > bits:
        lo, scale = lo >> (scale - bits), bits
    return _bisect(enclosure.params, lo, scale, bits)


def quadratic_roots(q: int, bits: int) -> QuadraticRoots:
    """Enclosures of alpha and beta, ((q+1) +- sqrt(q^2-2q+5)) / 2."""
    if q < 3:
        raise RegimeError(f"quadratic companions require q >= 3, got q={q}")
    root = DyadicInterval.sqrt_of_int(q * q - 2 * q + 5, bits + 2)
    alpha = (root + (q + 1)).half()
    beta = ((q + 1) - root).half()
    if not (alpha.strictly_above(q) and alpha.strictly_below(q + 1)):
        raise RuntimeError("internal error: alpha escaped (q, q+1)")
    if not (beta.strictly_above(0) and beta.strictly_below(1)):
        raise RuntimeError("internal error: beta escaped (0, 1)")
    return QuadraticRoots(q, alpha, beta)


# ----------------------------------------------------------------------
# fixed-point complex arithmetic (integer mantissas at scale 2^-bits)
# ----------------------------------------------------------------------

def _round_shift(x: int, shift: int) -> int:
    if shift <= 0:
        return x << -shift
    return (x + (1 << (shift - 1))) >> shift


def _to_fixed(value: float, bits: int) -> int:
    # via frexp so huge scales never round-trip through float
    mantissa, exponent = frexp(value)
    scaled = int(mantissa * (1 << 53))
    shift = bits + exponent - 53
    return scaled << shift if shift >= 0 else _round_shift(scaled, -shift)


def _round_div(a: int, b: int) -> int:
    # nearest integer to a/b for b > 0
    q, r = divmod(a, b)
    return q + (1 if 2 * r >= b else 0)


def _cmul(a, b, bits):
    ar, ai = a
    br, bi = b
    return (
        _round_shift(ar * br - ai * bi, bits),
        _round_shift(ar * bi + ai * br, bits),
    )


def _cdiv(a, b, bits):
    ar, ai = a
    br, bi = b
    den = br * br + bi * bi
    if den == 0:
        raise ZeroDivisionError("fixed-point complex division by zero")
    return (
        _round_div((ar * br + ai * bi) << bits, den),
        _round_div((ai * br - ar * bi) << bits, den),
    )


def _cpoly(coeffs, z, bits):
    # Horner; coeffs are plain ints, ascending
    acc = (coeffs[-1] << bits, 0)
    for c in reversed(coeffs[:-1]):
        acc = _cmul(acc, z, bits)
        acc = (acc[0] + (c << bits), acc[1])
    return acc


def _cabs2(z):
    return z[0] * z[0] + z[1] * z[1]


def _residual(value, bits):
    # |value| rounded up at scale 2^-bits
    return Fraction(isqrt(_cabs2(value)) + 1, 1 << bits)


def _aberth_float(coeffs, dcoeffs) -> list[complex]:
    """Machine-precision simultaneous refinement used only for seeding;
    the integer coefficients enter complex arithmetic as floats."""
    degree = len(coeffs) - 1

    def ev(cs, z):
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    for offset in (0.4, 1.1, 1.9):
        zs = [
            radius * cmath.exp(1j * (2 * cmath.pi * j / degree + offset))
            for j in range(degree)
        ]
        for _ in range(_FLOAT_MAX_ITER):
            biggest = 0.0
            for i in range(degree):
                p = ev(coeffs, zs[i])
                dp = ev(dcoeffs, zs[i])
                if dp == 0:
                    biggest = float("inf")
                    break
                newton = p / dp
                repulse = sum(
                    1 / (zs[i] - zs[j]) for j in range(degree) if j != i
                )
                den = 1 - newton * repulse
                if den == 0:
                    biggest = float("inf")
                    break
                step = newton / den
                zs[i] -= step
                biggest = max(biggest, abs(step) / max(1.0, abs(zs[i])))
            if biggest < 1e-13:
                return zs
    raise RootSolveError(
        "float-precision seeding failed to converge",
        residuals=[abs(ev(coeffs, z)) for z in zs],
    )


def _newton_fixed(coeffs, dcoeffs, seed, bits, accuracy_bits):
    """Polish one isolated seed to ~2^-accuracy_bits by Newton steps in
    fixed point at scale 2^-bits.

    The seeds have already converged in floats, where Aberth's repulsion
    kept them apart, so at this scale its correction factor is 1 to well
    below the step tolerance and a plain Newton step is all that is left.
    """
    z = (_to_fixed(seed.real, bits), _to_fixed(seed.imag, bits))
    step_cap = 1 << max(1, bits - accuracy_bits)
    for _ in range(_NEWTON_MAX_STEPS):
        p = _cpoly(coeffs, z, bits)
        if p == (0, 0):
            return z
        dp = _cpoly(dcoeffs, z, bits)
        if dp == (0, 0):
            raise RootSolveError(
                "derivative vanished during refinement", residuals=[_residual(p, bits)]
            )
        step = _cdiv(p, dp, bits)
        z = (z[0] - step[0], z[1] - step[1])
        if _cabs2(step) <= step_cap * step_cap:
            return z
    raise RootSolveError(
        "Newton polishing did not reach the step tolerance",
        residuals=[_residual(_cpoly(coeffs, z, bits), bits)],
    )


def all_roots(params: SequenceParams, bits: int) -> RootSet:
    """Dominant enclosure plus the k-1 secondary approximations.

    Residuals |Phi(z)| must come out below 2^-(bits/2) and all pairwise
    separations above 2^-(bits/4); anything else raises RootSolveError
    with diagnostics rather than returning a silently bad answer.
    """
    poly = CharPoly.of(params)
    coeffs, dcoeffs = poly.coefficients, poly.derivative_coefficients()
    degree = poly.degree
    enclosure = dominant_root(params, bits)
    work = bits + 64

    seeds = _aberth_float(coeffs, dcoeffs)
    refined = [_newton_fixed(coeffs, dcoeffs, z, work, bits + 16) for z in seeds]

    # Horner rounding slack: per step at most one ulp, amplified by |z|
    # per remaining step; all roots sit inside the Cauchy radius q + 1
    slack = Fraction(2 * degree * (params.q + 2) ** degree, 1 << work)
    residuals = [_residual(_cpoly(coeffs, z, work), work) + slack for z in refined]

    one_sq = 1 << (2 * work)
    outside = [i for i, z in enumerate(refined) if _cabs2(z) > one_sq]
    if len(outside) != 1:
        raise RootSolveError(
            f"expected exactly one root outside the unit circle, found {len(outside)}",
            residuals=residuals,
        )
    dom_idx = outside[0]
    dom_z = refined[dom_idx]
    mid = enclosure.interval.midpoint
    agree = Fraction(1, 1 << (bits // 2))
    if abs(Fraction(dom_z[0], 1 << work) - mid) > agree or abs(
        Fraction(dom_z[1], 1 << work)
    ) > agree:
        raise RootSolveError(
            "refined dominant root disagrees with the certified enclosure",
            residuals=residuals,
        )

    residual_cap = Fraction(1, 1 << (bits // 2))
    bad = [float(r) for r in residuals if r >= residual_cap]
    if bad:
        raise RootSolveError(
            f"residuals above 2^-{bits // 2}: {bad}", residuals=residuals
        )

    separation = Fraction(1, 1 << (bits // 4))
    sep_sq = separation * separation
    for i in range(degree):
        for j in range(i + 1, degree):
            dz = (refined[i][0] - refined[j][0], refined[i][1] - refined[j][1])
            if Fraction(_cabs2(dz), 1 << (2 * work)) <= sep_sq:
                raise RootSolveError(
                    "two roots closer than the separation tolerance "
                    f"2^-{bits // 4}; the expansion assumes simple roots",
                    residuals=residuals,
                )

    unit_tol = 1 + Fraction(1, 1 << (bits // 4))
    secondary = []
    for i, z in enumerate(refined):
        if i == dom_idx:
            continue
        root = SecondaryRoot(z[0], z[1], work, residuals[i])
        if not root.modulus_squared < unit_tol * unit_tol:
            raise RootSolveError(
                "secondary root outside the unit circle tolerance",
                residuals=residuals,
            )
        secondary.append(root)
    secondary.sort(key=lambda r: (r.re_num, r.im_num))
    return RootSet(params, bits, enclosure, tuple(secondary))
