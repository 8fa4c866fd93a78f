"""Dominant-term approximation, error term, and full-roots reconstruction.

The dominant route is fully certified: interval weight times interval
root power, contained by construction.  dominant_term_sweep is the one
chain of g(gamma) * gamma^n over a range of n, anchored at its n nearest
0, which binet_dominant, the term-bound laws, the decay probe and the
full reconstruction all read.  The reconstruction takes one secondary
term per conjugate pair (or real root) as one power at the first n and
one product per later n, in fixed point at the inclusion-disc centres;
a certified radius covers the discs and every rounding, and the sum is
rounded only when that radius is below 1/2.  reconstruction_sweep yields
(n, value, radius) triples, the radius an integer mantissa pair (half,
scale) for half * 2^-scale, and binet_reconstruct reads one item.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_FLOOR
from fractions import Fraction
from math import isqrt

from ..errors import DomainError, PoleInIntervalError, RegimeError, ReconstructionError
from ..sequences import SequenceParams, term_definition, _check_index
from .dyadic import DyadicInterval, _ceil_shift, _float_text
from .roots import (
    RootEnclosure,
    _cabs2,
    _cdiv,
    _cpow,
    _round_shift,
    _secondary_discs,
    dominant_root,
    refine_root,
)
from .polynomials import Quadratic

__all__ = [
    "DominantTerm",
    "ErrorEnclosure",
    "g_eval",
    "u_closed_form",
    "binet_dominant",
    "error_term",
    "binet_reconstruct",
    "dominant_term_sweep",
    "reconstruction_sweep",
]

# output-width target for the dominant term, and the cap of the precision
# ladder that it, the law checker and the decay probe climb
WIDTH_TARGET_BITS = 32
ESCALATION_CAP_FACTOR = 16


def _rungs(bits: int) -> list[int]:
    """The precision ladder: bits, doubling, up to the 16x cap."""
    # the cap factor is a power of two, so the doublings end on it
    return [bits << i for i in range(ESCALATION_CAP_FACTOR.bit_length())]


def _root_ladder(enclosure: RootEnclosure, n: int, limit: tuple[int, int]):
    """The given dominant-root enclosure, at bits, refined up each rung of
    _rungs(bits) without a bisection from the bracket, less the leading
    rungs at which the g(gamma) * gamma^n enclosure is certainly wider
    than limit = num / den, given as (num, den) and read only at n >= 1;
    the cap rung always stays.

    A rung-w root enclosure [a, b] is exactly 2^-w wide and lies inside
    every coarser one, outward-rounded powers are at least b^n - a^n >=
    n a^(n-1) 2^-w wide, and the weight's lower end only rises with w.
    So with a and g_lo read off a probe at the coarser of bits and 64,
    the term is at least g_lo n a^(n-1) 2^-w wide, and adding an exact
    integer keeps that width.
    """
    params, bits = enclosure.params, enclosure.interval.bits
    rungs = _rungs(bits)
    if n >= 1:
        num, den = limit
        gamma = refine_root(enclosure, min(bits, 64)).interval
        weight = g_eval(params, gamma)
        # g_lo n a^(n-1) 2^-w > num / den, scaled by 2^(scale + w) den
        wide = weight.lo_num * n * gamma.lo_num ** (n - 1) * den
        scale = weight.bits + gamma.bits * (n - 1)
        while len(rungs) > 1 and wide > num << (scale + rungs[0]):
            del rungs[0]
    for work in rungs:
        enclosure = refine_root(enclosure, work)
        yield enclosure


def _weight_denominator(d: Quadratic, re: int, im: int, one: int):
    """The weight's denominator d = D as D(z) one^2, z = (re + im i) / one, in (real, imag) ints."""
    return (d.a * (re * re - im * im) + d.b * re * one + d.c * one * one,
            d.a * 2 * re * im + d.b * im * one)


def g_eval(params: SequenceParams, x: DyadicInterval) -> DyadicInterval:
    """Outward-rounded image of the weight (x-1) / D(x) over an interval,
    D = Quadratic.weight_denominator(q, k).

    The denominator's sign must be constant on the interval; that is
    decided exactly (endpoint values plus the parabola vertex), and a
    non-constant sign raises PoleInIntervalError.

    On an enclosure of the dominant root the image is nonnegative: there
    x >= q >= 1, and D > 0 as gamma^(k-2) D(gamma) = (gamma-1) Phi'(gamma) > 0.
    """
    q, k, w = params.q, params.k, x.bits
    quad, lo, hi, one = Quadratic.weight_denominator(q, k), x.lo_num, x.hi_num, 1 << w
    # D 4a 4^w is an integer at both ends and at the vertex -b/2a, -disc 4^w there
    dens = [4 * quad.a * _weight_denominator(quad, m, 0, one)[0] for m in (lo, hi)]
    if 2 * quad.a * lo < -quad.b * one < 2 * quad.a * hi:
        dens.append(-quad.disc << 2 * w)
    den_min, den_max = min(dens), max(dens)
    if den_min <= 0 <= den_max:
        raise PoleInIntervalError(
            "denominator sign is not constant on the interval "
            f"[{_float_text(x.lo, '', ROUND_FLOOR)}, {_float_text(x.hi, '')}] "
            f"for (q={q}, k={k})"
        )
    # (m - 1) / D on the 2^-w grid is (m - 2^w) 4a 4^w / d, floored or ceiled
    nums = [(m - one) * 4 * quad.a << 2 * w for m in (lo, hi)]
    return DyadicInterval(min(n // d for n in nums for d in (den_min, den_max)),
                          max(-(-n // d) for n in nums for d in (den_min, den_max)), w)


def u_closed_form(q: int, n: int, bits: int) -> DyadicInterval:
    """Interval evaluation of the closed form of U_n in terms of the
    quadratic roots alpha and beta; encloses the exact integer."""
    if q < 3:
        raise RegimeError(f"u_closed_form requires q >= 3, got q={q}")
    if n < 1:
        raise DomainError(f"u_closed_form requires n >= 1, got n={n}")
    if bits < 1:
        raise DomainError(f"u_closed_form requires bits >= 1, got bits={bits}")
    # alpha < q + 1, so alpha^n's enclosure is about n alpha^(n-1) ulps wide
    work = bits + 8 + n * (q + 1).bit_length() + n.bit_length()
    companion = Quadratic.companion(q)
    alpha, beta, disc = companion.root(True, work), companion.root(False, work), companion.disc
    root = DyadicInterval.sqrt_of_int(disc, work)
    # times root over root: the divisor 2(q-1) root^2 is the integer 2(q-1) disc
    top = root * ((alpha**n) * (root + (q - 3)) + (beta**n) * (root + (3 - q)))
    den = 2 * (q - 1) * disc
    return DyadicInterval(top.lo_num // den, -(-top.hi_num // den), top.bits).rescaled(bits)


@dataclass(frozen=True)
class DominantTerm:
    """Enclosure of g(gamma) * gamma^n with the precision bookkeeping."""

    interval: DyadicInterval
    bits_used: int
    capped: bool


def binet_dominant(params: SequenceParams, n: int, bits: int) -> DominantTerm:
    """Certified enclosure of the dominant term g(gamma) * gamma^n.

    Working precision climbs _root_ladder from `bits`, doubling, until the
    output is narrower than 2^-32 or the cap of 16x the request is
    reached; a capped result is flagged, never silently degraded.  The
    rungs the ladder skips could not have met that width.  Each rung's
    term is a one-row dominant_term_sweep.
    """
    if params.q < 3:
        raise RegimeError(f"binet_dominant requires q >= 3, got q={params.q}")
    _check_index(params, n)
    for enclosure in _root_ladder(dominant_root(params, bits), n, (1, 1 << WIDTH_TARGET_BITS)):
        w = enclosure.interval.bits
        _, _, (lo,), (hi,) = dominant_term_sweep(enclosure, n, n)
        if (hi - lo) << WIDTH_TARGET_BITS <= 1 << w:
            return DominantTerm(DyadicInterval(lo, hi, w), w, False)
    return DominantTerm(DyadicInterval(lo, hi, w), w, True)


@dataclass(frozen=True)
class ErrorEnclosure:
    """Enclosure of E_n = F_n - g(gamma) * gamma^n."""

    interval: DyadicInterval
    bits_used: int
    capped: bool


def error_term(params: SequenceParams, n: int, bits: int) -> ErrorEnclosure:
    """E_n as exact integer minus the certified dominant enclosure."""
    dominant = binet_dominant(params, n, bits)
    exact = term_definition(params, n)
    return ErrorEnclosure((-dominant.interval) + exact, dominant.bits_used, dominant.capped)


def dominant_term_sweep(enclosure: RootEnclosure, n_lo: int, n_hi: int):
    """Integer mantissas, at the 2^-w scale of the given gamma enclosure,
    of gamma^n and g(gamma) * gamma^n for n in [n_lo, n_hi], n_lo <= n_hi.

    Returns (power_lo, power_hi, term_lo, term_hi), entry i of each row
    for n = n_lo + i. The rows are the DyadicInterval chain from gamma**a,
    a the n of the range nearest 0, up by gamma^n = gamma^(n-1) * gamma,
    down by gamma^n = gamma^(n+1) * gamma.reciprocal(), and g(gamma) *
    gamma^n, rounded outward just as it rounds, so past one power and one
    reciprocal a whole row costs only integer products; one row is g_eval's
    image times gamma**n, exactly.
    """
    gamma = enclosure.interval
    w, anchor = gamma.bits, min(max(n_lo, 0), n_hi)
    # gamma lies in its bracket (q, q+1), so every power is positive,
    # and so is the weight (see g_eval): ends multiply ends
    first = gamma**anchor
    up, down = ([first.lo_num], [first.hi_num]), ([first.lo_num], [first.hi_num])
    # the reciprocal is made only when a row lies below the anchor
    for (lows, highs), step, count in ((up, gamma, n_hi - anchor), (
            down, n_lo < anchor and gamma.reciprocal(), anchor - n_lo)):
        for _ in range(count):
            lows.append((lows[-1] * step.lo_num) >> w)
            highs.append(-((-highs[-1] * step.hi_num) >> w))
    power_lo, power_hi = (d[:0:-1] + u for d, u in zip(down, up))
    weight = g_eval(enclosure.params, gamma)
    return (power_lo, power_hi, [(weight.lo_num * p) >> w for p in power_lo],
            [-((-weight.hi_num * p) >> w) for p in power_hi])


# ----------------------------------------------------------------------
# full reconstruction over all k roots
# ----------------------------------------------------------------------

def _secondary_term(params: SequenceParams, root, n_lo: int, n_hi: int):
    """The fixed-point weight g(c) at the disc centre c and a radius bounding
    |g(r) r^n - _cmul(weight, p_n)| for the disc's root r and every n in
    [n_lo, n_hi], with p_(n_lo) = _cpow(c, n_lo) and p_(n+1) =
    _cmul(p_n, c); mantissas at 2^-root.bits = u.

    P = (|c| - rho)^-(m+1), m = max(0, -n_lo), bounds |z|^n and |z|^(n-1)
    on the disc of radius rho (inside the unit circle), and N = max |n|.
    The radius is P (|g(r) - weight| + |weight| N (rho + 5u)) + u: the
    first from the exact residual (c-1) - weight D(c), g = (z-1)/D(z) and
    |D'| <= d1 on the disc; then |r^n - c^n| <= N P rho; the powers'
    rounding, as each product rounds by u and j factors are off by a
    relative (3j-2) u while 9 N^2 u <= 4; and the last product's rounding.
    At the mirror disc every term and bound is the conjugate: g is real.
    """
    q, k, w = params.q, params.k, root.bits
    one, rho, (cr, ci) = 1 << w, root.radius_num, (root.re_num, root.im_num)
    # D(c) exactly at 2^-2w, then the residual (c - 1) - weight D(c) at 2^-3w;
    # |D'(z)| = |2az + b| <= 2a + |b| = d1 for |z| < 1
    d = Quadratic.weight_denominator(q, k)
    den, d1 = _weight_denominator(d, cr, ci, one), 2 * d.a + abs(d.b)
    lo, den_lo = isqrt(_cabs2((cr, ci))) - rho, (isqrt(_cabs2(den)) >> w) - rho * d1
    if lo <= 0 or den_lo <= 0:
        raise ReconstructionError(f"a secondary disc at (q={q}, k={k}) is too wide "
                                  "to bound its term; increase the working precision")
    gr, gi = weight = _cdiv(((cr - one) << w, ci << w), den, w)
    residual = (((cr - one) << 2 * w) - gr * den[0] + gi * den[1],
                (ci << 2 * w) - gr * den[1] - gi * den[0])
    g_up = isqrt(_cabs2(weight)) + 1
    numerator = (_ceil_shift(isqrt(_cabs2(residual)) + 1, 2 * w) + rho
                 + _ceil_shift(rho * g_up * d1, w))
    m, spread = max(0, -n_lo), max(abs(n_lo), abs(n_hi))
    inner = -(-(numerator << w) // den_lo) + _ceil_shift(g_up * spread * (rho + 5), w)
    power = -(-(1 << w * (m + 2)) // lo ** (m + 1))
    return weight, _ceil_shift(power * inner, w) + 1


def binet_reconstruct(params: SequenceParams, n: int, bits: int = 256) -> int:
    """Sum g(root) * root^n over all k roots and round it to the exact
    term, or raise ReconstructionError when the sum's certified radius is
    not below 1/2.  Valid for every q >= 1: the expansion only needs the
    roots to be simple."""
    ((_, value, (half, scale)),) = reconstruction_sweep(dominant_root(params, bits), n, n, bits)
    if value is None:
        raise ReconstructionError(
            f"full-roots sum at (q={params.q}, k={params.k}, n={n}) has radius "
            f"{_float_text(Fraction(half, 1 << scale), '.3g')}, not below 1/2; "
            "increase the working precision")
    return value


def reconstruction_sweep(enclosure: RootEnclosure, n_lo: int, n_hi: int, bits: int):
    """Yield (n, value, (half, scale)) for every n in [n_lo, n_hi]: value
    is the full-roots sum rounded to an int, or None when the certified
    radius half * 2^-scale of the disc around the computed sum that holds
    the exact sum is not below 1/2.

    The dominant term is dominant_term_sweep's row from n_lo to n_hi, at
    the given enclosure refined to a precision that follows n_hi and q.
    The k-1 secondary terms are summed in fixed point at all_roots' disc
    centres, whose precision `bits` sets, and add one radius
    (_secondary_term's) for the whole sweep.  A mirror disc's term is the
    conjugate of its upper disc's: a pair adds twice a real part and radius.
    Each disc runs one loop over local integers, p_(n+1) = p_n z and
    Re(g p_n), every product rounded as (x + 2^(u-1)) >> u at 2^-u: the
    integers that _cmul(p_n, z, u) and _round_shift(Re(g p_n), u) give.
    """
    params = enclosure.params
    _check_index(params, n_lo)
    if n_hi < n_lo:
        return
    discs = [s for s in _secondary_discs(params, bits) if s.im_num >= 0]
    work = discs[0].bits
    # the term for n is about n gamma^(n-1) 2^-w wide and the weight's 2^-w
    # rounding times gamma^n, gamma < q + 1; 16 bits cover the chain's rounding
    growth = ((params.q + 1) ** max(n_hi, 0) - 1).bit_length()
    enclosure = refine_root(enclosure, max(bits, growth + n_hi.bit_length() + 16))
    _, _, term_lo, term_hi = dominant_term_sweep(enclosure, n_lo, n_hi)
    w = enclosure.interval.bits
    weights, radii = zip(*(_secondary_term(params, s, n_lo, n_hi) for s in discs))
    copies = [2 if s.im_num else 1 for s in discs]
    # centre and radius at 2^-scale: a midpoint needs one more bit
    scale, size = max(w, work) + 1, n_hi - n_lo + 1
    secondary = sum(c * r for c, r in zip(copies, radii)) << (scale - work)
    # only the real part of each weight * power reaches the sum
    sums, rounding = [0] * size, (1 << work) >> 1
    for s, (gr, gi), c in zip(discs, weights, copies):
        zr, zi = s.re_num, s.im_num
        pr, pi = _cpow((zr, zi), n_lo, work)
        for i in range(size):
            if i:
                pr, pi = ((pr * zr - pi * zi + rounding) >> work,
                          (pr * zi + pi * zr + rounding) >> work)
            sums[i] += c * ((gr * pr - gi * pi + rounding) >> work)
    for n, lo, hi, total in zip(range(n_lo, n_hi + 1), term_lo, term_hi, sums):
        centre = ((lo + hi) << (scale - w - 1)) + (total << (scale - work))
        half = ((hi - lo) << (scale - w - 1)) + secondary
        value = _round_shift(centre, scale) if 2 * half < 1 << scale else None
        yield n, value, (half, scale)
