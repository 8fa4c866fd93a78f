"""Independent oracles shared by the tests.

Everything here is deliberately written against the standard library
only (fractions + decimal + isqrt + itertools + json + sys + complex
floats + plain loops), never against the package's own interval or root
machinery, so cross-checks stay independent.
"""
import json
import sys
from decimal import ROUND_FLOOR
from fractions import Fraction
from itertools import compress, count, pairwise, product
from math import isqrt


def sqrt_enclosure(value: int, bits: int = 300) -> tuple[Fraction, Fraction]:
    """[lo, hi] with lo <= sqrt(value) <= hi and hi - lo <= 2^-bits."""
    s = isqrt(value << (2 * bits))
    scale = 1 << bits
    return Fraction(s, scale), Fraction(s + 1, scale)


def sqrt_approx(value: int, bits: int = 300) -> Fraction:
    return sqrt_enclosure(value, bits)[0]


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def pell(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, 2 * b + a
    return a


def brute_force_terms(q: int, k: int, n_max: int) -> dict:
    """F_n for n in [2-k, n_max] straight from the definition."""
    vals = {n: 0 for n in range(2 - k, 1)}
    vals[1] = 1
    for n in range(2, n_max + 1):
        vals[n] = q * vals[n - 1] + sum(vals[n - i] for i in range(2, k + 1))
    return vals


def table_text(q: int, k_min: int, k_max: int, n_max: int, fmt: str) -> str:
    """What `qkbonacci table` prints for these arguments: the rows
    (q, k, n, F_n) for k in [k_min, k_max] and n in [1, n_max], from plain
    int recurrences.  JSON goes through json.dumps(..., indent=2); CSV and
    markdown are written by hand.
    """
    rows = []
    for k in range(k_min, k_max + 1):
        terms = brute_force_terms(q, k, n_max)
        rows += [(q, k, n, terms[n]) for n in range(1, n_max + 1)]
    if fmt == "json":
        keys = ("q", "k", "n", "value")
        return json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
    if fmt == "csv":
        return "q,k,n,value\n" + "".join(f"{q},{k},{n},{v}\n" for q, k, n, v in rows)
    head = "| q | k | n | value |\n| --- | --- | --- | --- |\n"
    return head + "".join(f"| {q} | {k} | {n} | {v} |\n" for q, k, n, v in rows)


def char_poly_mulmod(a: list[int], b: list[int], q: int, k: int) -> list[int]:
    """a * b modulo x^k - q x^(k-1) - x^(k-2) - ... - 1, for residues given
    as k coefficients, lowest degree first.

    The schoolbook product, then long division by the monic polynomial:
    from the top down, each degree d >= k is cancelled by subtracting its
    coefficient times x^(d-k) times the polynomial.
    """
    c = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            c[i + j] += ai * bj
    divisor = [-1] * (k - 1) + [-q, 1]  # lowest degree first
    for d in range(2 * k - 2, k - 1, -1):
        lead = c[d]
        for i, di in enumerate(divisor):
            c[d - k + i] -= lead * di
    return c[:k]


def theorem3_convolution(q: int, k: int, n: int) -> int:
    """The companion form U_n - sum_{j=1}^{n-k-1} V_j * F_{n-k-j} for
    q >= 3 and n >= 1, summed term by term.

    U and V follow X_j = (q+1) X_{j-1} - (q-1) X_{j-2} from the seeds
    U_1, U_2 = 1, q and V_1, V_2 = 1, q+1; F comes from the definition.
    """
    def companion(x1, x2):
        vals = [x1, x2]
        while len(vals) < n:
            vals.append((q + 1) * vals[-1] - (q - 1) * vals[-2])
        return vals

    u, v = companion(1, q), companion(1, q + 1)
    f = brute_force_terms(q, k, max(1, n - k - 1))
    return u[n - 1] - sum(v[j - 1] * f[n - k - j] for j in range(1, n - k))


def binary_word_term(q: int, k: int, n: int) -> int:
    """F_n for n >= 1 by enumerating binary words of length n - 2.

    A word marks, at each of the n - 2 gaps between n - 1 units in a
    row, whether a part ends there (1) or runs on (0); so the words are
    the compositions of n - 1.  F_n is the sum of q^(number of parts
    equal to 1) over the words whose parts are all <= k: a first part of
    size j leaves a composition of n - 1 - j, weighted q for j = 1 and 1
    for 2 <= j <= k, which is the recurrence.  For n <= k + 1 every word
    counts.  n = 1 has the one, empty, composition of 0.

    Derived here from the abstract's claim that the paper characterizes
    the first (q,k)-generalized Fibonacci numbers in terms of binary
    sequences; it is not the paper's theorem text, which the repository
    does not hold.
    """
    if n == 1:
        return 1
    total = 0
    for word in product((0, 1), repeat=n - 2):
        ends = [0, *compress(count(1), word), n - 1]
        parts = [b - a for a, b in pairwise(ends)]
        if max(parts) <= k:
            total += q ** parts.count(1)
    return total


def dominant_root_bracket(q: int, k: int, bits: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] with lo < gamma < hi and hi - lo = 2^-bits, where gamma is
    the root in (q, q+1) of x^k - q x^(k-1) - x^(k-2) - ... - 1.

    Exact-rational bisection on the scaled integer x = m / 2^bits; the
    sign of the polynomial is taken by homogeneous Horner in integers.
    gamma is irrational (a non-integer root of a monic integer
    polynomial), so no midpoint is ever a root.
    """
    scale = 1 << bits
    coeffs = [-q] + [-1] * (k - 1)

    def sign_at(m: int) -> int:
        acc, power = 1, 1
        for c in coeffs:
            power *= scale
            acc = acc * m + c * power
        return (acc > 0) - (acc < 0)

    lo, hi = q * scale, (q + 1) * scale
    assert sign_at(lo) < 0 < sign_at(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sign_at(mid) < 0:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, scale), Fraction(hi, scale)


def exact_sign(coeffs, num: int, scale: int) -> int:
    """Sign of sum c_i t^i at t = num / 2^scale, coefficients ascending.

    The value times 2^(degree*scale) is the integer sum of
    c_i num^i 2^((degree-i)*scale), summed term by term from explicit
    powers rather than by Horner.
    """
    degree = len(coeffs) - 1
    total = sum(c * num**i << (degree - i) * scale for i, c in enumerate(coeffs))
    return (total > 0) - (total < 0)


def char_poly_roots(q: int, k: int) -> list[complex]:
    """All k roots of x^k - q x^(k-1) - x^(k-2) - ... - 1 in floats, by
    Durand-Kerner (Weierstrass) iteration.

    Every root moves at once by p(z_i) / prod_{j != i} (z_i - z_j), from
    the usual non-symmetric start (0.4 + 0.9i)^i scaled past the Cauchy
    bound q + 2.
    """
    coeffs = [1, -q] + [-1] * (k - 1)  # descending

    def p(z):
        acc = 0j
        for c in coeffs:
            acc = acc * z + c
        return acc

    zs = [(q + 2) * (0.4 + 0.9j) ** i for i in range(k)]
    for _ in range(2000):
        biggest = 0.0
        for i, z in enumerate(zs):
            den = 1 + 0j
            for j, w in enumerate(zs):
                if j != i:
                    den *= z - w
            step = p(z) / den
            zs[i] = z - step
            biggest = max(biggest, abs(step) / max(1.0, abs(z)))
        if biggest < 1e-14:
            return zs
    raise AssertionError(f"Durand-Kerner did not converge at q={q}, k={k}")


def error_term_at_bracket_ends(q: int, k: int, n: int) -> tuple[Fraction, Fraction]:
    """E_n = F_n - g(x) x^n at both ends x of a bracket of gamma, with
    g(x) = (x - 1) / ((k+1) x^2 - (q+1) k x + (q-1)(k-1)).

    The bracket is narrow enough that g(x) x^n moves by well under
    2^-256 across it: its width is 2^-bits with bits exceeding
    n log2(q+1) + log2(n) by 256, far finer than the package's own
    enclosures at 192 bits.  F_n comes straight from the definition.
    """
    bits = n * (q + 1).bit_length() + n.bit_length() + 256
    exact = brute_force_terms(q, k, n)[n]

    def at(x: Fraction) -> Fraction:
        weight = (x - 1) / ((k + 1) * x * x - (q + 1) * k * x + (q - 1) * (k - 1))
        return exact - weight * x**n

    lo, hi = dominant_root_bracket(q, k, bits)
    return at(lo), at(hi)


def weight_mantissas(q: int, k: int, lo_num: int, hi_num: int, bits: int):
    """Mantissas at 2^-bits of an outward-rounded image of the weight
    g(x) = (x - 1) / D(x), D(x) = (k+1) x^2 - (q+1) k x + (q-1)(k-1), over
    [lo_num, hi_num] * 2^-bits, or None when D's sign is not constant there.

    In exact rationals: D at both ends and, when inside, at the vertex
    (q+1)k / (2(k+1)) gives D's range; the four quotients of the ends of
    x - 1 by the ends of that range give the image, floored and ceiled.
    """
    def den(x: Fraction) -> Fraction:
        return (k + 1) * x * x - (q + 1) * k * x + (q - 1) * (k - 1)

    a, b = Fraction(lo_num, 1 << bits), Fraction(hi_num, 1 << bits)
    values = [den(a), den(b)]
    vertex = Fraction((q + 1) * k, 2 * (k + 1))
    if a < vertex < b:
        values.append(den(vertex))
    if min(values) <= 0 <= max(values):
        return None
    quotients = [(x - 1) / d for x in (a, b) for d in (min(values), max(values))]
    lo, hi = min(quotients), max(quotients)
    return ((lo.numerator << bits) // lo.denominator,
            -((-hi.numerator << bits) // hi.denominator))


# The fixed-point complex kernel in its one-call-per-product form: Gaussian
# integer mantissas at 2^-bits, each product rounded half up by a shift.
# The package fuses these into inline shifts, which must give the same
# integers.

def round_shift(x: int, shift: int) -> int:
    if shift <= 0:
        return x << -shift
    return (x + (1 << (shift - 1))) >> shift


def round_div(a: int, b: int) -> int:
    # nearest integer to a/b for b > 0
    q, r = divmod(a, b)
    return q + (1 if 2 * r >= b else 0)


def cmul(a, b, bits):
    ar, ai = a
    br, bi = b
    return (
        round_shift(ar * br - ai * bi, bits),
        round_shift(ar * bi + ai * br, bits),
    )


def cdiv(a, b, bits):
    ar, ai = a
    br, bi = b
    den = br * br + bi * bi
    return (
        round_div((ar * br + ai * bi) << bits, den),
        round_div((ai * br - ar * bi) << bits, den),
    )


def cpow(z, exponent, bits):
    # square and multiply; exact on Gaussian integers at bits = 0
    if exponent < 0:
        z, exponent = cdiv((1 << bits, 0), z, bits), -exponent
    result = (1 << bits, 0)
    while exponent:
        if exponent & 1:
            result = cmul(result, z, bits)
        exponent >>= 1
        if exponent:
            z = cmul(z, z, bits)
    return result


def cpoly(coeffs, z, bits):
    # Horner; coeffs are plain ints, ascending
    acc = (coeffs[-1] << bits, 0)
    for c in reversed(coeffs[:-1]):
        acc = cmul(acc, z, bits)
        acc = (acc[0] + (c << bits), acc[1])
    return acc


def scaled_phi(q: int, k: int, z, scale: int):
    """(z-1) Phi(z) and (z-1)^2 Phi'(z) at 2^-scale as z^(k-2) h(z) + 1 and
    z^(k-2) g(z) - 1: h = t Q, Q(t) = t^2 - (q+1) t + (q-1), and g = (t-1)
    ((k-2) Q + h') - h, from the derivative of (t-1) Phi = t^(k-2) h + 1."""
    h = (0, q - 1, -(q + 1), 1)
    g = (-(k - 1) * (q - 1), 2 * ((k - 1) * q + 1), q - k * (q + 2), k)
    one, power = 1 << scale, cpow(z, k - 2, scale)
    num = cmul(power, cpoly(h, z, scale), scale)
    den = cmul(power, cpoly(g, z, scale), scale)
    return (num[0] + one, num[1]), (den[0] - one, den[1])


# The term-bound laws and the full-roots sum in their per-n form: every
# E_n and growth link through the tri-state order on (lo, hi) mantissa
# pairs, the growth members floored and ceiled by a division by q, and
# every secondary product and real part through cmul and round_shift.
# The package decides each n by strict integer compares first, which must
# give the same witnesses and the same triples.

def order(a, b) -> int:
    # +1 when a < b is certified, -1 when a >= b is, else 0
    if a[1] < b[0]:
        return 1
    return -1 if a[0] >= b[1] else 0


def inside(lo, hi, edge) -> int:
    return min(order((-edge, -edge), (lo, hi)), order((lo, hi), (edge, edge)))


def chain(checks, q, k, n, work) -> list:
    fails, unsettled = [], []
    for label, a, b in checks:
        sign = order(a, b)
        if sign < 0:
            fails.append((q, k, n, "fail", f"{label} certified false"))
        elif sign == 0:
            unsettled.append((q, k, n, "inconclusive", f"{label} not separated at {work} bits"))
    return fails + unsettled


GROWTH_LINKS = (
    "gamma^(n-2) < gamma^(n-1)(q-1)/q",
    "gamma^(n-1)(q-1)/q < F_n",
    "F_n < gamma^(n-1)(q+2)/q",
    "gamma^(n-1)(q+2)/q < gamma^n",
)


def term_bound_witnesses(q, k, n_max, table, rows, work, float_text):
    """The error-bound and growth-bounds witnesses of one cell at one rung,
    as (q, k, n, kind, detail) tuples, from the term table F_(2-k).. and
    the four rows of a sweep from min(2-k, -1) to n_max at 2^-work.
    float_text formats an exact number as the package does."""
    first, lowest = 2 - k, min(2 - k, -1)
    power_lo, power_hi, term_lo, term_hi = rows
    errors = []
    edge = 1 << work
    for n, exact, t_lo, t_hi in zip(range(first, n_max + 1), table,
                                    term_lo[first - lowest:], term_hi[first - lowest:]):
        scaled = exact << work
        e_lo, e_hi = scaled - t_hi, scaled - t_lo
        sign = inside(q * e_lo, q * e_hi, edge)
        if sign > 0:
            continue
        if sign < 0:
            errors.append((
                q, k, n, "fail",
                f"|E_{n}| certified above 1/q: "
                f"[{float_text(Fraction(e_lo, edge), '.6g', ROUND_FLOOR)}, "
                f"{float_text(Fraction(e_hi, edge), '.6g')}]",
            ))
        else:
            errors.append((
                q, k, n, "inconclusive",
                f"E_{n} enclosure width {float_text(Fraction(e_hi - e_lo, edge), '.3g')} "
                f"not inside [-1/q, 1/q] at {work} bits",
            ))
    growth = []
    for n in range(1, n_max + 1):
        i = n - 1 - lowest
        lo, hi = power_lo[i], power_hi[i]
        low = ((lo * (q - 1)) // q, -((-hi * (q - 1)) // q))
        high = ((lo * (q + 2)) // q, -((-hi * (q + 2)) // q))
        exact = table[n - first] << work
        members = ((power_lo[i - 1], power_hi[i - 1]), low, (exact, exact),
                   high, (power_lo[i + 1], power_hi[i + 1]))
        growth += chain(zip(GROWTH_LINKS, members, members[1:]), q, k, n, work)
    return errors, growth


def reconstruction_triples(n_lo, n_hi, term_lo, term_hi, w, discs, terms):
    """(n, value, (half, scale)) for n in [n_lo, n_hi] from the dominant
    rows at 2^-w, the upper discs as (re, im, work) mantissas and each
    disc's (weight, radius) at 2^-work; and the centre, the computed sum
    at 2^-scale, that each value rounds."""
    work = discs[0][2]
    weights, radii = zip(*terms)
    points = [(re, im) for re, im, _ in discs]
    powers = [cpow(z, n_lo, work) for z in points]
    copies = [2 if im else 1 for _, im, _ in discs]
    scale = max(w, work) + 1
    secondary = sum(c * r for c, r in zip(copies, radii)) << (scale - work)
    triples, centres = [], []
    for n, lo, hi in zip(range(n_lo, n_hi + 1), term_lo, term_hi):
        if n > n_lo:
            powers = [cmul(p, z, work) for p, z in zip(powers, points)]
        centre = (lo + hi) << (scale - w - 1)
        centre += sum(c * round_shift(g[0] * p[0] - g[1] * p[1], work)
                      for c, g, p in zip(copies, weights, powers)) << (scale - work)
        half = ((hi - lo) << (scale - w - 1)) + secondary
        value = round_shift(centre, scale) if 2 * half < 1 << scale else None
        triples.append((n, value, (half, scale)))
        centres.append(centre)
    return triples, centres


def directed_decimal_text(value: Fraction, digits: int, round_up: bool) -> str:
    """value to `digits` decimal places, rounded up or down, by a Fraction
    floor or ceiling and str() with CPython's digit limit lifted."""
    scaled = value * 10**digits
    n = scaled.numerator // scaled.denominator
    if round_up and n != scaled:
        n += 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = str(abs(n)).rjust(digits + 1, "0")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    whole, places = text[:len(text) - digits], text[len(text) - digits:]
    return ("-" if n < 0 else "") + whole + ("." + places if digits else "")


# First-terms tables as published; every entry satisfies the recurrence
# except (q=4, k=5, n=9), where the published 132565 is a misprint for
# 107562 (= 4*25003 + 5812 + 1351 + 314 + 73).
PUBLISHED_TABLE_Q3 = {
    2: [1, 3, 10, 33, 109, 360, 1189, 3927, 12970],
    3: [1, 3, 10, 34, 115, 389, 1316, 4452, 15061],
    4: [1, 3, 10, 34, 116, 395, 1345, 4580, 15596],
    5: [1, 3, 10, 34, 116, 396, 1351, 4609, 15724],
}
PUBLISHED_TABLE_Q4 = {
    2: [1, 4, 17, 72, 305, 1292, 5473, 23184, 98209],
    3: [1, 4, 17, 73, 313, 1342, 5754, 24671, 105780],
    4: [1, 4, 17, 73, 314, 1350, 5804, 24953, 107280],
    5: [1, 4, 17, 73, 314, 1351, 5812, 25003, 132565],
}
ERRATUM_CELL = (4, 5, 9)
ERRATUM_CORRECT_VALUE = 107562
