"""Dominant-term approximation, error term, and full-roots reconstruction.

The dominant route is fully certified: interval weight times interval
root power, contained by construction.  The full reconstruction takes
each of the k terms as one power at the first n and one product per later
n, the k-1 secondary ones in fixed point at the inclusion-disc centres; a
certified radius covers the discs and every rounding, and the sum is
rounded only when that radius is below 1/2.  reconstruction_sweep yields
(n, value, radius) triples, and binet_reconstruct reads a one-item sweep.
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
    _cmul,
    _cpow,
    _round_shift,
    _secondary_discs,
    dominant_root,
    quadratic_roots,
    refine_root,
)

__all__ = [
    "DominantTerm",
    "ErrorEnclosure",
    "g_eval",
    "asymptote_c",
    "u_closed_form",
    "binet_dominant",
    "error_term",
    "binet_reconstruct",
    "dominant_term_sweep",
    "reconstruction_sweep",
]

# output-width target for the dominant term, and the cap of the precision
# ladder that it and the law checker climb
WIDTH_TARGET_BITS = 32
ESCALATION_CAP_FACTOR = 16


def _rungs(bits: int) -> list[int]:
    """The precision ladder: bits, doubling, up to the 16x cap."""
    rungs = [bits]
    while rungs[-1] < ESCALATION_CAP_FACTOR * bits:
        rungs.append(min(2 * rungs[-1], ESCALATION_CAP_FACTOR * bits))
    return rungs


def _root_ladder(enclosure: RootEnclosure, n: int, limit: Fraction):
    """The given dominant-root enclosure, at bits, refined up each rung of
    _rungs(bits) without a bisection from the bracket, less the leading
    rungs at which the g(gamma) * gamma^n enclosure is certainly wider
    than limit; the cap rung always stays.

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
        gamma = refine_root(enclosure, min(bits, 64)).interval
        weight = g_eval(params, gamma)
        # g_lo n a^(n-1) 2^-w > limit, scaled by 2^(scale + w) and the
        # denominator of limit
        wide = weight.lo_num * n * gamma.lo_num ** (n - 1) * limit.denominator
        scale = weight.bits + gamma.bits * (n - 1)
        while len(rungs) > 1 and wide > limit.numerator << (scale + rungs[0]):
            del rungs[0]
    for work in rungs:
        enclosure = refine_root(enclosure, work)
        yield enclosure


def _g_denominator(params: SequenceParams, x: Fraction) -> Fraction:
    q, k = params.q, params.k
    return (k + 1) * x * x - (q + 1) * k * x + (q - 1) * (k - 1)


def g_eval(params: SequenceParams, x: DyadicInterval) -> DyadicInterval:
    """Outward-rounded image of the weight
    (x-1) / ((k+1)x^2 - (q+1)k x + (q-1)(k-1)) over an interval.

    The denominator's sign must be constant on the interval; that is
    decided exactly (endpoint values plus the parabola vertex), and a
    non-constant sign raises PoleInIntervalError.

    On an enclosure of the dominant root the image is nonnegative: there
    x >= q >= 1, and D > 0 as gamma^(k-2) D(gamma) = (gamma-1) Phi'(gamma) > 0.
    """
    q, k = params.q, params.k
    a, b = x.lo, x.hi
    den_values = [_g_denominator(params, a), _g_denominator(params, b)]
    vertex = Fraction((q + 1) * k, 2 * (k + 1))
    if a < vertex < b:
        den_values.append(_g_denominator(params, vertex))
    den_min, den_max = min(den_values), max(den_values)
    if den_min <= 0 <= den_max:
        raise PoleInIntervalError(
            "denominator sign is not constant on the interval "
            f"[{_float_text(a, '', ROUND_FLOOR)}, {_float_text(b, '')}] "
            f"for (q={q}, k={k})"
        )
    quotients = [
        num / den
        for num in (a - 1, b - 1)
        for den in (den_min, den_max)
    ]
    return DyadicInterval.from_bounds(min(quotients), max(quotients), x.bits)


def asymptote_c(params: SequenceParams, bits: int) -> DyadicInterval:
    """Enclosure of the larger zero of the weight's denominator,
    ((q+1)k + sqrt(k^2(q^2-2q+5) + 4(q-1))) / (2(k+1))."""
    if params.q < 3:
        raise RegimeError(f"asymptote is certified for q >= 3, got q={params.q}")
    q, k = params.q, params.k
    disc = k * k * (q * q - 2 * q + 5) + 4 * (q - 1)
    root = DyadicInterval.sqrt_of_int(disc, bits + 4)
    return (root + (q + 1) * k) * Fraction(1, 2 * (k + 1))


def u_closed_form(q: int, n: int, bits: int) -> DyadicInterval:
    """Interval evaluation of the closed form of U_n in terms of the
    quadratic roots alpha and beta; encloses the exact integer."""
    if q < 3:
        raise RegimeError(f"u_closed_form requires q >= 3, got q={q}")
    if n < 1:
        raise DomainError(f"u_closed_form requires n >= 1, got n={n}")
    work = bits + 8
    pair = quadratic_roots(q, work)
    root = DyadicInterval.sqrt_of_int(q * q - 2 * q + 5, work)
    numerator = (pair.alpha**n) * (root + (q - 3)) + (pair.beta**n) * (root + (3 - q))
    return (numerator / (root * (2 * (q - 1)))).rescaled(bits)


@dataclass(frozen=True)
class DominantTerm:
    """Enclosure of g(gamma) * gamma^n with the precision bookkeeping."""

    interval: DyadicInterval
    bits_used: int
    capped: bool


def binet_dominant(params: SequenceParams, n: int, bits: int) -> DominantTerm:
    """Certified enclosure of the dominant term g(gamma) * gamma^n.

    Working precision starts at `bits` and doubles until the output is
    narrower than 2^-32 or the cap of 16x the request is reached; a
    capped result is flagged, never silently degraded.  Rungs that
    cannot reach that width are skipped (see _root_ladder).
    """
    if params.q < 3:
        raise RegimeError(f"binet_dominant requires q >= 3, got q={params.q}")
    _check_index(params, n)
    ladder = _root_ladder(dominant_root(params, bits), n, Fraction(1, 1 << WIDTH_TARGET_BITS))
    for enclosure in ladder:
        gamma = enclosure.interval
        term = g_eval(params, gamma) * gamma**n
        if (term.hi_num - term.lo_num) << WIDTH_TARGET_BITS <= 1 << term.bits:
            return DominantTerm(term, gamma.bits, False)
    return DominantTerm(term, gamma.bits, True)


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


def _power_rows(lo: int, hi: int, count: int, bits: int):
    """Mantissas of x^0 .. x^count for x = [lo, hi] * 2^-bits with lo >= 0,
    by the outward-rounded chain x^m = x^(m-1) * x: on nonnegative
    intervals a product's ends are lo * lo floored and hi * hi ceiled."""
    rows_lo, rows_hi = [1 << bits], [1 << bits]
    for _ in range(count):
        rows_lo.append((rows_lo[-1] * lo) >> bits)
        rows_hi.append(-((-rows_hi[-1] * hi) >> bits))
    return rows_lo, rows_hi


def dominant_term_sweep(enclosure: RootEnclosure, n_max: int):
    """Integer mantissas, at the 2^-w scale of the given gamma enclosure,
    of gamma^n for n in [min(2-k, -1), n_max] and of g(gamma) * gamma^n
    for n in [2-k, n_max].

    Returns (power_lo, power_hi, term_lo, term_hi): entry i of a power
    row is for n = min(2-k, -1) + i, entry i of a term row for n = 2-k+i.
    The rows are the DyadicInterval chain gamma^n = gamma^(n-1) * gamma,
    gamma^n = gamma^(n+1) * gamma.reciprocal() below 0 and g(gamma) *
    gamma^n, rounded outward just as it rounds, so a whole law-check row
    costs n_max integer products and no interval objects.
    """
    params = enclosure.params
    _check_index(params, n_max)
    gamma = enclosure.interval
    w = gamma.bits
    # the growth chain reaches gamma^(n-2) at n = 1, so always go to -1
    lowest = min(params.min_index, -1)
    # gamma lies in its bracket (q, q+1), so every power is positive,
    # and so is the weight (see g_eval): ends multiply ends
    up_lo, up_hi = _power_rows(gamma.lo_num, gamma.hi_num, n_max, w)
    inverse = gamma.reciprocal()
    down_lo, down_hi = _power_rows(inverse.lo_num, inverse.hi_num, -lowest, w)
    size = n_max - lowest + 1
    power_lo = (down_lo[:0:-1] + up_lo)[:size]
    power_hi = (down_hi[:0:-1] + up_hi)[:size]
    weight, first = g_eval(params, gamma), params.min_index - lowest
    term_lo = [(weight.lo_num * p) >> w for p in power_lo[first:]]
    term_hi = [-((-weight.hi_num * p) >> w) for p in power_hi[first:]]
    return power_lo, power_hi, term_lo, term_hi


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
    """
    q, k, w = params.q, params.k, root.bits
    one, rho, (cr, ci) = 1 << w, root.radius_num, (root.re_num, root.im_num)
    # D(c) exactly at 2^-2w, then the residual (c - 1) - weight D(c) at 2^-3w
    den = ((k + 1) * (cr * cr - ci * ci) - (q + 1) * k * cr * one + (q - 1) * (k - 1) * one * one,
           (k + 1) * 2 * cr * ci - (q + 1) * k * ci * one)
    d1 = 2 * (k + 1) + (q + 1) * k
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
    ((_, value, radius),) = reconstruction_sweep(dominant_root(params, bits), n, n, bits)
    if value is None:
        raise ReconstructionError(
            f"full-roots sum at (q={params.q}, k={params.k}, n={n}) has radius "
            f"{_float_text(radius, '.3g')}, not below 1/2; increase the working precision")
    return value


def reconstruction_sweep(enclosure: RootEnclosure, n_lo: int, n_hi: int, bits: int):
    """Yield (n, value, radius) for every n in [n_lo, n_hi]: value is the
    full-roots sum rounded to an int, or None when the certified radius
    of the disc around the computed sum that holds the exact sum is not
    below 1/2.

    The dominant term is g(gamma) * gamma**n_lo, then stepped up by gamma
    with outward rounding, at the given enclosure refined to a precision
    that follows n_hi and q.  The k-1 secondary terms are summed in fixed
    point at all_roots' disc centres, whose precision `bits` sets, and add
    one radius (_secondary_term's) for the whole sweep.
    """
    params = enclosure.params
    _check_index(params, n_lo)
    if n_hi < n_lo:
        return
    discs = _secondary_discs(params, bits)
    work = discs[0].bits
    # the term for n is about n gamma^(n-1) 2^-w wide with gamma < q + 1;
    # 16 bits more cover the weight and the chain's rounding
    growth = ((params.q + 1) ** max(n_hi - 1, 0) - 1).bit_length()
    gamma = refine_root(enclosure, max(bits, growth + n_hi.bit_length() + 16)).interval
    # each step multiplies the rounding of gamma^n_lo >= (q+1)^n_lo by gamma,
    # which exact finer mantissas make up for; all ends are >= 0 (see g_eval)
    gamma = gamma.rescaled(gamma.bits + ((params.q + 1) ** max(-n_lo, 0)).bit_length())
    dominant = g_eval(params, gamma) * gamma**n_lo
    lo, hi, w = dominant.lo_num, dominant.hi_num, dominant.bits
    weights, radii = zip(*(_secondary_term(params, s, n_lo, n_hi) for s in discs))
    points = [(s.re_num, s.im_num) for s in discs]
    powers = [_cpow(z, n_lo, work) for z in points]
    # centre and radius at 2^-scale: a midpoint needs one more bit
    scale = max(w, work) + 1
    secondary = sum(radii) << (scale - work)
    for n in range(n_lo, n_hi + 1):
        if n > n_lo:
            powers = [_cmul(p, z, work) for p, z in zip(powers, points)]
            lo, hi = (lo * gamma.lo_num) >> w, -((-hi * gamma.hi_num) >> w)
        centre = (lo + hi) << (scale - w - 1)
        centre += sum(_cmul(g, p, work)[0] for g, p in zip(weights, powers)) << (scale - work)
        half = ((hi - lo) << (scale - w - 1)) + secondary
        value = _round_shift(centre, scale) if 2 * half < 1 << scale else None
        yield n, value, Fraction(half, 1 << scale)
