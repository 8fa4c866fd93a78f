"""Root machinery for the characteristic polynomial.

Two deliberately different routes:

* the dominant root's enclosure is halved from the (q, q+1) bracket to
  64 bits, then narrowed by Newton rungs that about double the precision,
  each unit cell certified by integer sign tests whose answer is exact;
* the remaining roots are seeded one per branch of the AuxPoly identity
  r^(k-1) = -1/Q(r) in floats, polished by Newton steps in integer
  fixed-point complex arithmetic whose precision about doubles per step
  up to the requested one, and certified by an inclusion disc of radius
  k|Phi(z)|/|Phi'(z)| around the polished point, with Phi and Phi'
  evaluated in fixed point and widened by an a-priori rounding bound.

Precision is always an argument; nothing here keeps ambient state.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
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

@dataclass(frozen=True)
class RootEnclosure:
    """Certified bracket around the single root larger than one.

    The sign pair (negative at lo, positive at hi) is the certificate: it
    is established by integer sign tests whose answer is exact, so a real
    root lies strictly inside the interval.
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
    """Inclusion disc around a root of modulus < 1: centre (re + im*i) and
    radius radius_num, all integer mantissas at scale 2^-bits.

    The disc holds exactly one root of Phi, a different one for each
    secondary of a RootSet.
    """

    re_num: int
    im_num: int
    bits: int
    radius_num: int


@dataclass(frozen=True)
class RootSet:
    """Dominant enclosure plus k-1 disjoint inclusion discs, one per
    secondary root."""

    params: SequenceParams
    bits: int
    dominant: RootEnclosure
    secondary: tuple

    def certified_inside_unit_circle(self) -> bool:
        """True when every secondary disc lies inside the unit circle,
        |centre| + radius < 1, so the true roots provably have modulus < 1."""
        return all(map(_inside_unit_circle, self.secondary))


def _inside_unit_circle(s: SecondaryRoot) -> bool:
    return (s.radius_num < 1 << s.bits
            and _cabs2((s.re_num, s.im_num)) < ((1 << s.bits) - s.radius_num) ** 2)


def _halve(poly: CharPoly, lo: int, scale: int, bits: int) -> tuple[int, int]:
    """Halve the sign-certified unit cell [lo, lo + 1] * 2^-scale down to
    bits, one sign test per bit; returns (lo, scale)."""
    while scale < bits:
        lo, scale = 2 * lo, scale + 1
        sign = poly.sign_at_dyadic(lo + 1, scale)
        if sign == 0:
            # rational-root theorem rules dyadic roots out for this family
            raise RuntimeError("internal error: exact dyadic root encountered")
        if sign < 0:
            lo += 1
    return lo, scale


def _phi_and_slope(coeffs: tuple, x: int, w: int) -> tuple[int, int]:
    """Phi and Phi' at x * 2^-w by Horner, truncated to 2^-w."""
    p, dp = coeffs[-1] << w, 0
    for c in coeffs[-2::-1]:
        dp, p = (dp * x >> w) + p, (p * x >> w) + (c << w)
    return p, dp


def _newton_cell(poly: CharPoly, lo: int, scale: int, bits: int) -> int | None:
    """The sign-certified cell at bits in [lo, lo + 1] * 2^-scale, or None.
    It is found by one Newton step from the midpoint, which lands within
    1/8 of a cell of the root as |Phi''/2Phi'| < k/2 near gamma and
    2 scale >= bits + bit_length(k), and at most two one-cell moves."""
    w, shift = bits + poly.params.k.bit_length() + 16, bits - scale
    x = (2 * lo + 1) << (w - scale - 1)
    p, dp = _phi_and_slope(poly.coefficients, x, w)
    if dp <= 0:
        return None
    # the root is inside [lo, lo + 1], so a step past it is pulled back
    cell = min(max((x - (p << w) // dp) >> (w - bits), lo << shift), ((lo + 1) << shift) - 1)
    below, above = poly.sign_at_dyadic(cell, bits), poly.sign_at_dyadic(cell + 1, bits)
    for _ in range(2):
        if below > 0:
            cell, above, below = cell - 1, below, poly.sign_at_dyadic(cell - 1, bits)
        elif above < 0:
            cell, below, above = cell + 1, above, poly.sign_at_dyadic(cell + 2, bits)
    return cell if below < 0 < above else None


def _bisect(params: SequenceParams, lo: int, scale: int, bits: int) -> RootEnclosure:
    """Narrow the sign-certified unit cell [lo, lo + 1] * 2^-scale to bits:
    halving to 64 bits, then Newton rungs that about double the scale, or
    halving where Newton finds no sign pair.  Phi has one positive root,
    so the cell at each scale is unique, however it was found."""
    poly = CharPoly.of(params)
    lo, scale = _halve(poly, lo, scale, min(bits, 64))
    rungs, rung, slack = [], bits, params.k.bit_length()
    while rung > scale:
        rungs.append(rung)
        rung = (rung + slack + 1) // 2
    for rung in reversed(rungs):
        cell = _newton_cell(poly, lo, scale, rung)
        lo, scale = (cell, rung) if cell is not None else _halve(poly, lo, scale, rung)
    # the sign pair already puts the root strictly inside, so an endpoint
    # may sit on q or q + 1 itself
    q = params.q
    if not (lo >= q << scale and lo + 1 <= (q + 1) << scale):
        raise RuntimeError("internal error: enclosure escaped the (q, q+1) bracket")
    return RootEnclosure(params, DyadicInterval(lo, lo + 1, scale))


def dominant_root(params: SequenceParams, bits: int) -> RootEnclosure:
    """Certified enclosure of width 2^-bits, a sign-certified unit cell.

    The starting bracket is (q, q+1) for every q >= 1: Phi(q) =
    -(1 + q + ... + q^(k-2)) < 0 < Phi(q+1), and by Descartes' rule of
    signs Phi has no other positive root.  Every cell it narrows to is a
    unit cell [j, j+1] * 2^-scale.
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
    into two, so a coarser enclosure is narrowed on and a finer one gives
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


def _cpow(z, exponent, bits):
    # square and multiply; exact on Gaussian integers at bits = 0
    if exponent < 0:
        z, exponent = _cdiv((1 << bits, 0), z, bits), -exponent
    result = (1 << bits, 0)
    while exponent:
        if exponent & 1:
            result = _cmul(result, z, bits)
        exponent >>= 1
        if exponent:
            z = _cmul(z, z, bits)
    return result


def _cpoly(coeffs, z, bits):
    # Horner; coeffs are plain ints, ascending
    acc = (coeffs[-1] << bits, 0)
    for c in reversed(coeffs[:-1]):
        acc = _cmul(acc, z, bits)
        acc = (acc[0] + (c << bits), acc[1])
    return acc


def _cabs2(z):
    return z[0] * z[0] + z[1] * z[1]


def _cubics(params):
    """The cubics h and g of (t-1) Phi = t^(k-2) h + 1 and (t-1)^2 Phi' =
    t^(k-2) g - 1, from the AuxPoly identity (t-1) Phi(t) = t^(k-1) Q(t) + 1,
    Q(t) = t^2 - (q+1) t + (q-1), so h = t Q; coefficients ascending."""
    q, k = params.q, params.k
    return ((0, q - 1, -(q + 1), 1),
            (-(k - 1) * (q - 1), 2 * ((k - 1) * q + 1), q - k * (q + 2), k))


def _branch_seeds(params) -> list[complex]:
    """One float seed per secondary root.  A root r of Phi solves r^(k-1) =
    -1/Q(r), so each branch z -> omega (1/Q(z))^(1/(k-1)), omega^(k-1) = -1,
    is stepped from z = omega on the unit circle, far from the root above
    q, and float Newton on Phi/Phi' = (z-1)(z^(k-2) h + 1)/(z^(k-2) g - 1)
    finishes it.  A miss is left to the certificate; float errors propagate."""
    q, k = params.q, params.k
    h, g = _cubics(params)
    seeds = []
    for j in range(k - 1):
        omega = z = cmath.exp(1j * cmath.pi * (2 * j + 1) / (k - 1))
        for _ in range(4):
            z = omega * (1 / (z * z - (q + 1) * z + (q - 1))) ** (1 / (k - 1))
        for _ in range(8):
            power = z ** (k - 2)
            hz = ((z + h[2]) * z + h[1]) * z
            gz = ((k * z + g[2]) * z + g[1]) * z + g[0]
            step = (z - 1) * (power * hz + 1) / (power * gz - 1)
            z -= step
            if abs(step) < 1e-12:
                break
        seeds.append(z)
    return seeds


def _scaled_phi(params, z, scale):
    """(z-1) Phi(z) and (z-1)^2 Phi'(z) in fixed point at 2^-scale, as
    z^(k-2) h(z) + 1 and z^(k-2) g(z) - 1 with _cubics' h and g: one power
    and two cubics, not two degree-k Horner passes."""
    h, g = _cubics(params)
    one, power = 1 << scale, _cpow(z, params.k - 2, scale)
    num = _cmul(power, _cpoly(h, z, scale), scale)
    den = _cmul(power, _cpoly(g, z, scale), scale)
    return (num[0] + one, num[1]), (den[0] - one, den[1])


def _newton_step(params, z, scale):
    """Phi(z)/Phi'(z) in fixed point at 2^-scale, taken as (z-1) times the
    ratio of _scaled_phi's pair.  |z| < 1, so nothing grows."""
    num, den = _scaled_phi(params, z, scale)
    return _cmul((z[0] - (1 << scale), z[1]), _cdiv(num, den, scale), scale)


def _polish(params, z, rungs, accuracy_bits):
    """Newton from a seed at scale 2^-rungs[0]: one step per rung, each
    about doubling the precision, then at most two at the top rung, the
    last within 2^-accuracy_bits.  A point that reaches the unit circle
    is refused before it costs a step."""
    scale = rungs[0]
    for rung in rungs + rungs[-1:]:
        z, scale = (z[0] << (rung - scale), z[1] << (rung - scale)), rung
        if _cabs2(z) >= 1 << (2 * scale):
            raise RootSolveError("a secondary seed reached the unit circle")
        step = _newton_step(params, z, scale)
        z = (z[0] - step[0], z[1] - step[1])
        if rung == rungs[-1] and _cabs2(step) <= 1 << (2 * (scale - accuracy_bits)):
            return z
    raise RootSolveError("Newton polishing did not reach the step tolerance")


def _inclusion_radius(params, z, scale):
    """Mantissa at 2^-scale of k|Phi(z)|/|Phi'(z)|, rounded up.

    Phi'/Phi = sum 1/(z - root) over the k roots, so some root lies within
    that distance of z, k |z-1| |num| / |den| with num = (t-1) Phi =
    t^(k-2) h + 1 and den = (t-1)^2 Phi' = t^(k-2) g - 1.  _scaled_phi
    gives both at w = scale + guard; bounds fixed beforehand widen them.
    In ulps of 2^-w, with M = 2^t >= max(1, |z|) and z 2^w exact: a
    round-half shift errs by at most 1/2 per part, so _cmul of values of
    modulus <= M^i and <= M^j erring by e_i and e_j errs by at most
    M^i e_j + M^j e_i + e_i e_j 2^-w + 1/sqrt(2), and not at all when one
    factor is an integer.  By induction _cpow's z^m, m >= 1, errs by at
    most (m-1) M^(m-1), as 2^w > 4 k^2 M^k keeps e_i e_j 2^-w + 1/sqrt(2)
    below 1 <= M^(i+j-1).  A _cpoly cubic errs by < M + 1 <= 2M, as its
    first product is exact, and |h(z)| <= H M^3 with H = sum |h_i|, so num
    errs by at most M^(k-2) 2M + H M^3 max(k-3, 0) M^(k-3) + 1 <=
    (H k + 4) M^k = E_num; den by E_den, with G = sum |g_i|.  So |num| +
    E_num and |den| - E_den bound the exact moduli; |den| <= E_den, as at
    z = 1, is refused.  E_num widens the radius by k |z-1| E_num /
    (|d| 2^guard) ulps of 2^-scale, d = (z-1)^2 Phi'(z): under 2^-64 / |d|,
    as |z-1| <= 2M.  Where |z| >= 1, _inside_unit_circle refuses the disc.
    """
    k, (h, g) = params.k, _cubics(params)
    t = max(0, (_cabs2(z).bit_length() + 1) // 2 - scale)
    err_num, err_den = ((sum(map(abs, c)) * k + 4) << t * k for c in (h, g))
    guard = 65 + t + (k * err_num).bit_length()
    w, zw = scale + guard, (z[0] << guard, z[1] << guard)
    num, den = _scaled_phi(params, zw, w)
    num = isqrt(_cabs2(num)) + 1 + err_num
    den = isqrt(_cabs2(den)) - err_den
    if den <= 0:
        raise RootSolveError("derivative vanished at a polished root")
    # z != 1 here, so the bound is >= 1
    bound = -(-k * k * _cabs2((z[0] - (1 << scale), z[1])) * num * num // (den * den))
    return isqrt(bound - 1) + 1


def all_roots(params: SequenceParams, bits: int) -> RootSet:
    """Dominant enclosure plus k-1 certified inclusion discs."""
    return RootSet(params, bits, dominant_root(params, bits), _secondary_discs(params, bits))


def _secondary_discs(params: SequenceParams, bits: int) -> tuple:
    """The k-1 certified inclusion discs, sorted by centre.

    _branch_seeds gives one float seed per branch, and _polish takes each
    from near 48 bits to bits + 64 by Newton rungs that about double the
    precision.  The k-1 polished points get discs of radius
    k|Phi|/|Phi'|, each holding at least one root.  They must be pairwise
    disjoint and lie inside the unit circle; with the dominant root
    certified in (q, q+1), each disc then holds exactly one root.
    Anything else, a float failure in seeding included, raises
    RootSolveError rather than returning a silently bad answer.
    """
    # precision rungs from the top down, each about half the one above
    # plus a slack for Newton's constant, which grows with k
    work, slack = bits + 64, params.k.bit_length()
    rungs = [work]
    while rungs[-1] > 48 + slack:
        rungs.append((rungs[-1] + slack) // 2)
    rungs.reverse()
    try:
        seeds = [(_to_fixed(z.real, rungs[0]), _to_fixed(z.imag, rungs[0]))
                 for z in _branch_seeds(params)]
        refined = [_polish(params, z, rungs, bits + 16) for z in seeds]
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        # a float seed that is not finite, or a vanishing derivative
        raise RootSolveError(f"seeding or polishing failed: {exc}") from None

    secondary = [
        SecondaryRoot(z[0], z[1], work, _inclusion_radius(params, z, work))
        for z in refined
    ]
    secondary.sort(key=lambda r: (r.re_num, r.im_num))
    overlap = any(
        _cabs2((s.re_num - t.re_num, s.im_num - t.im_num))
        <= (s.radius_num + t.radius_num) ** 2
        for i, s in enumerate(secondary) for t in secondary[i + 1:]
    )
    if overlap or not all(map(_inside_unit_circle, secondary)):
        raise RootSolveError(
            "two inclusion discs overlap" if overlap
            else "an inclusion disc reaches the unit circle"
        )
    return tuple(secondary)
