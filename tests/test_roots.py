import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbonacci import (
    CharPoly,
    CompanionKind,
    DomainError,
    DyadicInterval,
    Quadratic,
    RegimeError,
    RootSolveError,
    SequenceParams,
    all_roots,
    companion_term,
    dominant_root,
    u_closed_form,
)
from qkbonacci.numerics import RootEnclosure, refine_root, roots

import _oracles
from _oracles import char_poly_roots, sqrt_enclosure

# (q, k, bits) of every all_roots request in perfbench's certify menu
CERTIFY_CELLS = [
    (1, 4, 128), (1, 5, 128), (1, 8, 256), (1, 10, 128), (1, 16, 512),
    (1, 24, 128), (2, 2, 512), (2, 4, 256), (2, 6, 128), (2, 24, 256),
    (2, 32, 512), (3, 7, 128), (3, 8, 512), (3, 12, 128), (3, 16, 128),
    (3, 16, 256), (4, 2, 128), (4, 3, 128), (4, 4, 512), (4, 24, 512),
    (4, 32, 128), (5, 2, 256), (5, 8, 128), (5, 32, 256),
]


def _radius_sq_exact(q, k, re, im, scale):
    """(k |Phi(z)| / |Phi'(z)|)^2 in units of 2^-2scale at z = (re + im i)
    2^-scale, by exact Gaussian-integer Horner on Phi and Phi' themselves."""
    def abs_sq(coeffs):
        # |p(z)|^2 2^(2 degree scale)
        degree = len(coeffs) - 1
        acc_re, acc_im = 0, 0
        for i in range(degree, -1, -1):
            acc_re, acc_im = (acc_re * re - acc_im * im + (coeffs[i] << (degree - i) * scale),
                              acc_re * im + acc_im * re)
        return acc_re * acc_re + acc_im * acc_im

    coeffs = CharPoly.of(SequenceParams(q, k)).coefficients
    slope = [i * c for i, c in enumerate(coeffs)][1:]
    return Fraction(k * k * abs_sq(coeffs), abs_sq(slope))


def _centre(s):
    """A disc centre's real and imaginary parts, read off its mantissas."""
    return Fraction(s.re_num, 1 << s.bits), Fraction(s.im_num, 1 << s.bits)


def _centre_inside_unit_circle(s):
    return s.re_num**2 + s.im_num**2 < 1 << 2 * s.bits


def _assert_vieta(rs, q, k, bits):
    # sum of all roots is q; product is (-1)^k * (-1)
    total = rs.dominant.interval.midpoint + sum(
        (_centre(s)[0] for s in rs.secondary), Fraction(0)
    )
    tol = Fraction(1, 2 ** (bits // 2))
    assert abs(total - q) < tol
    prod_re, prod_im = Fraction(1), Fraction(0)
    for s in rs.secondary:
        re, im = _centre(s)
        prod_re, prod_im = prod_re * re - prod_im * im, prod_re * im + prod_im * re
    prod_re *= rs.dominant.interval.midpoint
    prod_im *= rs.dominant.interval.midpoint
    expected = Fraction(-1) if k % 2 == 0 else Fraction(1)
    assert abs(prod_re - expected) < tol
    assert abs(prod_im) < tol


class TestDominantRoot:
    def test_known_root_3_2(self):
        # gamma = (3 + sqrt 13) / 2, by the quadratic formula oracle
        enc = dominant_root(SequenceParams(3, 2), 128)
        lo, hi = sqrt_enclosure(13)
        gamma_lo, gamma_hi = (3 + lo) / 2, (3 + hi) / 2
        assert enc.interval.lo <= gamma_hi and enc.interval.hi >= gamma_lo
        assert enc.interval.width <= Fraction(1, 2**128)

    def test_bracket_certified(self):
        for q in (3, 4, 5):
            for k in range(2, 9):
                params = SequenceParams(q, k)
                enc = dominant_root(params, 96)
                assert enc.interval.strictly_above(q)
                assert enc.interval.strictly_below(q + 1)
                phi = CharPoly.of(params)
                assert phi.eval(enc.interval.lo) < 0 < phi.eval(enc.interval.hi)

    def test_monotone_in_k(self):
        g4 = dominant_root(SequenceParams(3, 4), 128).interval
        g5 = dominant_root(SequenceParams(3, 5), 128).interval
        assert g4.strictly_below(g5)

    def test_compute_only_regime(self):
        # golden and silver ratios via the same oracle style
        phi_enc = dominant_root(SequenceParams(1, 2), 96).interval
        lo, hi = sqrt_enclosure(5)
        assert phi_enc.lo <= (1 + hi) / 2 and phi_enc.hi >= (1 + lo) / 2
        pell_enc = dominant_root(SequenceParams(2, 2), 96).interval
        lo, hi = sqrt_enclosure(2)
        assert pell_enc.lo <= 1 + hi and pell_enc.hi >= 1 + lo

    def test_width_request_honored(self):
        for bits in (16, 64, 200):
            enc = dominant_root(SequenceParams(4, 6), bits)
            assert enc.interval.width <= Fraction(1, 2**bits)

    def test_tiny_bits_rejected(self):
        with pytest.raises(DomainError):
            dominant_root(SequenceParams(3, 2), 4)

    def test_cells_digest(self):
        # every cell (lo_num, bits) for q 1-10, k 2-16, 24 and 32 at 8-1024
        # bits, and the benchmark's four 4096-bit cells, in order: how a
        # sign test is decided may change, the cells it bisects to may not
        digest = hashlib.sha256()
        cells = [(q, k, bits) for q in range(1, 11)
                 for k in [*range(2, 17), 24, 32] for bits in (8, 64, 256, 1024)]
        cells += [(3, 8, 4096), (4, 2, 4096), (5, 5, 4096), (1, 11, 4096)]
        for q, k, bits in cells:
            cell = dominant_root(SequenceParams(q, k), bits).interval
            digest.update(f"{cell.lo_num} {cell.bits}\n".encode())
        assert digest.hexdigest() == (
            "c331333d37df4bff75b534500fd69ca612c89da7e48fef178fc56b01148f977a")

    def test_enclosure_may_end_on_the_bracket(self):
        # at q = 1 the root nears 2 = q + 1 as k grows, so a coarse
        # enclosure can end exactly there; the sign pair still certifies
        # a root strictly inside
        def charpoly(k, x):
            return x**k - sum(x**i for i in range(k))

        for k in range(9, 41):
            for bits in (8, 9):
                enc = dominant_root(SequenceParams(1, k), bits)
                lo, hi = enc.interval.lo, enc.interval.hi
                assert 1 <= lo and hi <= 2
                assert hi - lo == Fraction(1, 2**bits)
                assert charpoly(k, lo) < 0 < charpoly(k, hi)


class TestRefineRoot:
    @given(q=st.integers(1, 10), k=st.integers(2, 40),
           b1=st.integers(8, 512), b2=st.integers(8, 512))
    @settings(max_examples=60, deadline=None)
    def test_equals_fresh_bisection(self, q, k, b1, b2):
        # finer or coarser, the refined enclosure is the one a fresh
        # bisection to b2 bits returns
        params = SequenceParams(q, k)
        refined = refine_root(dominant_root(params, b1), b2).interval
        fresh = dominant_root(params, b2).interval
        assert (refined.lo_num, refined.hi_num, refined.bits) == (
            fresh.lo_num, fresh.hi_num, fresh.bits)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_coarsens_to_the_ancestor_cell(self, q):
        params = SequenceParams(q, 5)
        fine = dominant_root(params, 300)
        for bits in (8, 9, 64, 299, 300):
            assert refine_root(fine, bits) == dominant_root(params, bits)

    def test_rejects_cells_off_the_lattice(self):
        # a neighbouring cell misses the root, and a wider one is not a
        # cell; refining either would enclose something other than gamma
        for q in (1, 2, 3, 5):
            params = SequenceParams(q, 4)
            cell = dominant_root(params, 16).interval
            for lo, hi in ((cell.lo_num + 1, cell.hi_num + 1),
                           (cell.lo_num - 1, cell.hi_num - 1),
                           (cell.lo_num, cell.hi_num + 1)):
                stray = RootEnclosure(params, DyadicInterval(lo, hi, cell.bits))
                with pytest.raises(DomainError):
                    refine_root(stray, 32)

    def test_tiny_bits_rejected(self):
        with pytest.raises(DomainError):
            refine_root(dominant_root(SequenceParams(3, 2), 64), 4)


def _halving_enclosure(params, bits):
    # the plain halving path from the (q, q+1) bracket, no Newton rung
    lo, scale = roots._halve(CharPoly.of(params), params.q, 0, bits)
    return RootEnclosure(params, DyadicInterval(lo, lo + 1, scale))


def _record_halvings(monkeypatch):
    # the target scale of every _halve call, in order
    real_halve, halved = roots._halve, []

    def halve(poly, lo, scale, bits):
        halved.append(bits)
        return real_halve(poly, lo, scale, bits)

    monkeypatch.setattr(roots, "_halve", halve)
    return halved


class TestNewtonRungs:
    """The sign pair, not Newton, decides each cell: Newton only proposes."""

    @given(q=st.integers(1, 10), k=st.integers(2, 64),
           bits=st.integers(8, 4096), start=st.integers(8, 4096))
    @example(q=1, k=64, bits=64, start=4096)
    @example(q=3, k=8, bits=65, start=64)
    # no float seed at q = 10**20; at k = 1000 a naive x**k overflows a double
    @example(q=10**20, k=5, bits=300, start=100)
    @example(q=3, k=1000, bits=200, start=20)
    @settings(max_examples=12, deadline=None)
    def test_equals_pure_halving(self, q, k, bits, start):
        # directly, and refined from a coarser or a finer enclosure
        params = SequenceParams(q, k)
        expected = _halving_enclosure(params, bits)
        assert dominant_root(params, bits) == expected
        assert refine_root(dominant_root(params, start), bits) == expected

    @pytest.mark.parametrize("mislead", [
        lambda p, dp, w: (p + (1 << w), dp),   # Phi off by one
        lambda p, dp, w: (-p, dp),             # the step reversed
        lambda p, dp, w: (p, 0),               # a vanishing slope
        lambda p, dp, w: (p, -dp),             # a negative slope
    ])
    def test_misled_newton_falls_back_to_halving(self, monkeypatch, mislead):
        cells = [(1, 64, 300), (3, 8, 1024), (10, 2, 200), (4, 5, 129)]
        expected = [_halving_enclosure(SequenceParams(q, k), bits) for q, k, bits in cells]
        real_eval = roots._phi_and_slope

        def misled(coeffs, x, w):
            return mislead(*real_eval(coeffs, x, w), w)

        monkeypatch.setattr(roots, "_phi_and_slope", misled)
        halved = _record_halvings(monkeypatch)
        for (q, k, bits), enclosure in zip(cells, expected):
            halved.clear()
            assert dominant_root(SequenceParams(q, k), bits) == enclosure
            # some rung was refused and halved instead, up to the last
            assert halved[-1] == bits and len(halved) > 1


    @pytest.mark.parametrize("seed", [
        lambda q: math.nan,
        lambda q: math.inf,
        lambda q: q + 3.5,   # past the (q, q+1) bracket
        lambda q: 1.0,       # the other root of Q(t) + t^(1-k)
        lambda q: -0.7,      # near Phi's negative root at even k
        lambda q: 64.0 * (q + 1),   # far above the bracket
    ])
    def test_bad_float_seed_falls_back_to_halving(self, monkeypatch, seed):
        cells = [(2, 5, 300), (3, 8, 1024), (10, 2, 200), (1, 3, 129), (4, 6, 30)]
        expected = [_halving_enclosure(SequenceParams(q, k), bits) for q, k, bits in cells]
        monkeypatch.setattr(roots, "_float_root", lambda q, k: seed(q))
        halved = _record_halvings(monkeypatch)
        for (q, k, bits), enclosure in zip(cells, expected):
            halved.clear()
            assert dominant_root(SequenceParams(q, k), bits) == enclosure
            # the seed scale is halved to, and the Newton rungs go on from it
            assert halved == [min(bits, 48 - (q + 1).bit_length())], (q, k, bits)


def alpha_beta(q, bits):
    companion = Quadratic.companion(q)
    return companion.root(True, bits), companion.root(False, bits)


class TestQuadraticRoots:
    def test_alpha_beta_q3(self):
        alpha, beta = alpha_beta(3, 128)
        lo, hi = sqrt_enclosure(2)
        assert alpha.lo <= 2 + hi and alpha.hi >= 2 + lo
        assert beta.lo <= 2 - lo and beta.hi >= 2 - hi
        assert beta.strictly_above(0) and beta.strictly_below(1)

    def test_width(self):
        for root in alpha_beta(5, 200):
            assert root.width <= Fraction(1, 2**200)

    def test_vieta(self):
        for q in (3, 4, 7):
            alpha, beta = alpha_beta(q, 128)
            assert (alpha + beta).contains(q + 1)
            assert (alpha * beta).contains(q - 1)

    def test_regime_error(self):
        # the roots of Q exist for every q; U_n's closed form from them is
        # stated for q >= 3, and refuses q = 2
        alpha, beta = alpha_beta(2, 64)
        lo, hi = sqrt_enclosure(5)
        assert alpha.lo <= (3 + hi) / 2 and alpha.hi >= (3 + lo) / 2
        assert beta.lo <= (3 - lo) / 2 and beta.hi >= (3 - hi) / 2
        with pytest.raises(RegimeError):
            u_closed_form(2, 5, 64)

    def test_wide_enclosures_at_large_q(self):
        # alpha - q is about 1/(q - 1), so 8 bits cannot tell alpha from q
        # or beta from 1; both enclosures still hold their root
        # ((q+1) +- sqrt(d)) / 2, and U_5 from them holds the exact term
        q = 10**6
        d = q * q - 2 * q + 5

        def holds_root(lo, hi, w):
            # lo <= sqrt(d) 2^w <= hi, in integers
            return (lo <= 0 or lo * lo <= d << 2 * w) and 0 <= hi and d << 2 * w <= hi * hi

        alpha, beta = alpha_beta(q, 8)
        top = (q + 1) << alpha.bits
        assert holds_root(2 * alpha.lo_num - top, 2 * alpha.hi_num - top, alpha.bits)
        top = (q + 1) << beta.bits
        assert holds_root(top - 2 * beta.hi_num, top - 2 * beta.lo_num, beta.bits)
        u = u_closed_form(q, 5, 8)
        assert u.lo_num <= companion_term(q, CompanionKind.U, 5) << u.bits <= u.hi_num


class TestAllRoots:
    def test_quadratic_case(self):
        rs = all_roots(SequenceParams(3, 2), 128)
        assert len(rs.secondary) == 1
        other = rs.secondary[0]
        lo, hi = sqrt_enclosure(13)
        expected = (3 - hi) / 2, (3 - lo) / 2
        re, im = _centre(other)
        assert expected[0] - Fraction(1, 2**64) <= re <= expected[1] + Fraction(1, 2**64)
        assert abs(im) <= Fraction(1, 2**64)
        assert _centre_inside_unit_circle(other)

    def test_exactly_one_root_outside_unit_circle(self):
        for q in (3, 5):
            for k in (3, 6, 8):
                rs = all_roots(SequenceParams(q, k), 160)
                assert len(rs.secondary) == k - 1
                assert all(map(_centre_inside_unit_circle, rs.secondary))
                assert rs.certified_inside_unit_circle()

    @given(q=st.integers(1, 10), k=st.integers(2, 16), bits=st.integers(64, 320))
    @example(q=3, k=3, bits=160)
    @example(q=4, k=5, bits=160)
    @example(q=5, k=8, bits=160)
    @settings(max_examples=100, deadline=None)
    def test_vieta_sum_and_product(self, q, k, bits):
        _assert_vieta(all_roots(SequenceParams(q, k), bits), q, k, bits)

    @pytest.mark.parametrize("q, k", [(10, 32), (2, 48)])
    def test_former_cap_cells_certify(self, q, k):
        # a residual cap of 2^-32 plus a Horner slack that ignored |z|
        # refused these at 64 bits; their discs are disjoint and inside
        # the unit circle
        rs = all_roots(SequenceParams(q, k), 64)
        assert len(rs.secondary) == k - 1
        assert rs.certified_inside_unit_circle()
        for i, s in enumerate(rs.secondary):
            for t in rs.secondary[i + 1:]:
                gap_sq = (s.re_num - t.re_num) ** 2 + (s.im_num - t.im_num) ** 2
                assert gap_sq > (s.radius_num + t.radius_num) ** 2

    def test_overlapping_discs_refuse(self, monkeypatch):
        # two seeds polished to one root give two discs around one root
        real_seeding = roots._branch_seeds

        def duplicated(params):
            seeds = real_seeding(params)
            seeds[1] = seeds[0]  # both inside the unit circle
            return seeds

        monkeypatch.setattr(roots, "_branch_seeds", duplicated)
        with pytest.raises(RootSolveError, match="overlap"):
            all_roots(SequenceParams(3, 6), 128)

    @given(q=st.integers(1, 10), k=st.integers(2, 64), bits=st.integers(64, 512))
    @example(q=1, k=2, bits=64)
    @example(q=7, k=10, bits=256)
    @example(q=10, k=64, bits=512)
    @settings(max_examples=25, deadline=None)
    def test_discs_are_mirror_symmetric(self, q, k, bits):
        # the lower half-plane is the exact mirror of the upper one, with
        # equal radii; even k has one real disc, on the negative root, and
        # odd k none; every disc, mirrors included, bounds k|Phi|/|Phi'| at
        # its own centre, by exact Horner on Phi and Phi'
        secondary = all_roots(SequenceParams(q, k), bits).secondary
        radii = {(s.re_num, s.im_num): s.radius_num for s in secondary}
        assert all(radii.get((s.re_num, -s.im_num)) == s.radius_num for s in secondary)
        real = [s for s in secondary if s.im_num == 0]
        assert len(real) == 1 - k % 2 and all(s.re_num < 0 for s in real)
        assert sum(s.im_num for s in secondary) == 0
        for s in secondary:
            assert _radius_sq_exact(q, k, s.re_num, s.im_num, s.bits) <= s.radius_num ** 2

    @pytest.mark.parametrize("position, mislead, cells", [
        # within its radius of the axis; at k = 3 that disc has no other
        # disc to overlap, only its own mirror
        (0, lambda z, first: (z[0], 1), ((10, 3, 256), (3, 6, 128), (1, 24, 64))),
        # on the first root again
        (1, lambda z, first: first, ((10, 5, 256), (3, 6, 128), (1, 24, 64))),
    ])
    def test_misplaced_upper_points_refuse(self, monkeypatch, position, mislead, cells):
        # the first (k-1)//2 polished points are the non-real ones
        real_polish, polished = roots._polish, []

        def polish(params, z, rungs):
            polished.append(real_polish(params, z, rungs))
            if len(polished) == position + 1:
                return mislead(polished[-1], polished[0])
            return polished[-1]

        monkeypatch.setattr(roots, "_polish", polish)
        for q, k, bits in cells:
            polished.clear()
            with pytest.raises(RootSolveError, match="overlap"):
                all_roots(SequenceParams(q, k), bits)

    @pytest.mark.parametrize("stray", [
        lambda seeds: seeds[:1] * 2 + seeds[2:],    # one root seeded twice
        lambda seeds: [1.5 + 0.5j] + seeds[1:],     # outside the unit circle
        lambda seeds: [complex("nan")] + seeds[1:],
        lambda seeds: [complex("inf")] + seeds[1:],
    ])
    def test_stray_seeds_refuse(self, monkeypatch, stray):
        # a seed that misses ends in RootSolveError, never in a disc or a
        # float exception
        real_seeding = roots._branch_seeds
        monkeypatch.setattr(
            roots, "_branch_seeds", lambda params: stray(real_seeding(params)))
        for q, k, bits in ((3, 6, 128), (1, 24, 64), (10, 3, 256)):
            with pytest.raises(RootSolveError):
                all_roots(SequenceParams(q, k), bits)

    @pytest.mark.parametrize("failure", [ZeroDivisionError, OverflowError])
    def test_float_failures_in_seeding_refuse(self, monkeypatch, failure):
        def failing(params):
            raise failure("float seeding")

        monkeypatch.setattr(roots, "_branch_seeds", failing)
        with pytest.raises(RootSolveError, match="seeding"):
            all_roots(SequenceParams(3, 6), 128)

    @pytest.mark.parametrize("k", [48, 64, 96, 128])
    @pytest.mark.parametrize("q", [1, 3, 10])
    def test_large_k(self, q, k):
        # k - 1 discs inside the unit circle, and Vieta's sum and product
        # of all the roots, as in test_vieta_sum_and_product
        rs = all_roots(SequenceParams(q, k), 128)
        assert len(rs.secondary) == k - 1
        assert rs.certified_inside_unit_circle()
        _assert_vieta(rs, q, k, 128)

    @pytest.mark.parametrize("q, k, bits", [
        (10**4, 8, 256), (10**4, 16, 256), (10**9, 32, 1024), (10**12, 16, 64), (10**12, 32, 64)])
    def test_large_q(self, q, k, bits):
        # at a large q the low rungs' Newton steps fall short of doubling,
        # so the top rung may need steps past the ladder, and past q = 2^16
        # it works with a guard bit per bit of q: without them (10^12, 16)
        # stalled and (10^12, 32) reached the unit circle at 64 bits; each
        # disc still holds its bound, checked by exact Horner
        rs = all_roots(SequenceParams(q, k), bits)
        assert len(rs.secondary) == k - 1
        assert rs.certified_inside_unit_circle()
        for s in rs.secondary:
            assert s.bits == bits + 64 + max(0, q.bit_length() - 16)
            assert s.radius_num <= 1 << (s.bits - bits - 24)
            assert _radius_sq_exact(q, k, s.re_num, s.im_num, s.bits) <= s.radius_num ** 2
        _assert_vieta(rs, q, k, bits)

    def test_ladder_alone_reaches_the_radius_target(self, monkeypatch):
        # for q <= 10 the ladder's one step per rung leaves every radius
        # at most 2^40 ulps of 2^-(bits + 64), so no point takes a second
        # step at the top rung
        top = []
        real_step = roots._newton_step

        def counted(params, z, scale):
            top.append(scale == work)
            return real_step(params, z, scale)

        monkeypatch.setattr(roots, "_newton_step", counted)
        for k in (2, 3, 4, 5, 6, 8, 11, 12, 16, 24, 32, 64, 128):
            for q in range(1, 11):
                for bits in (8, 64, 128, 256, 512, 1024):
                    top.clear()
                    work = bits + 64
                    secondary = all_roots(SequenceParams(q, k), bits).secondary
                    assert max(s.radius_num for s in secondary) <= 1 << 40, (q, k, bits)
                    assert sum(top) == k // 2, (q, k, bits)

    @pytest.mark.parametrize("q, k, bits", [
        (3, 2, 128), (1, 5, 64), (3, 16, 256), (2, 32, 512), (10**4, 8, 256), (10**12, 16, 64)])
    def test_polish_a_rung_short_still_meets_the_target(self, monkeypatch, q, k, bits):
        # a _polish that skips the top rung's step leaves a point about
        # 2^-(work/2) off; _disc then steps it at the top rung until its
        # radius meets the target (or refuses, as the stall test shows),
        # and never returns a wider disc: on these cells every point
        # certifies, each centre in one disc of the full ladder's
        params = SequenceParams(q, k)
        full = all_roots(params, bits).secondary
        real_polish, scales = roots._polish, []
        real_step = roots._newton_step

        def short(params, z, rungs):
            z, shift = real_polish(params, z, rungs[:-1]), rungs[-1] - rungs[-2]
            return z[0] << shift, z[1] << shift

        def counted(params, z, scale):
            scales.append(scale)
            return real_step(params, z, scale)

        monkeypatch.setattr(roots, "_polish", short)
        monkeypatch.setattr(roots, "_newton_step", counted)
        secondary = all_roots(params, bits).secondary
        work = full[0].bits
        assert scales.count(work) >= k // 2
        for s in secondary:
            assert s.bits == work and s.radius_num <= 1 << (work - bits - 24)
            assert sum((s.re_num - t.re_num) ** 2 + (s.im_num - t.im_num) ** 2 <= t.radius_num ** 2
                       for t in full) == 1

    def test_stalled_top_rung_refuses(self, monkeypatch):
        # a step that does not cut the radius 4x stops polishing at the
        # second top-rung step, the first past the ladder
        steps = []

        def constant(params, z, scale):
            steps.append(scale)
            return 1 << (scale - 40), 0

        monkeypatch.setattr(roots, "_newton_step", constant)
        with pytest.raises(RootSolveError, match="radius target"):
            all_roots(SequenceParams(3, 2), 128)
        assert steps[-2:] == [128 + 64] * 2 and steps.count(128 + 64) == 2

    def test_disc_reaching_the_unit_circle_refuses(self, monkeypatch):
        # at k = 2 there is one disc, so no overlap; radius 1 from a centre
        # inside the circle reaches past it
        monkeypatch.setattr(
            roots, "_inclusion_radius", lambda params, z, scale: 1 << scale)
        with pytest.raises(RootSolveError, match="unit circle"):
            all_roots(SequenceParams(3, 2), 128)

    @pytest.mark.parametrize("q, k, bits", [
        (1, 2, 64), (3, 7, 128), (10, 12, 96), (2, 32, 512), (5, 24, 256), (3, 64, 128)])
    def test_radius_is_k_phi_over_dphi_rounded_up(self, q, k, bits):
        for s in all_roots(SequenceParams(q, k), bits).secondary:
            bound_sq = _radius_sq_exact(q, k, s.re_num, s.im_num, s.bits)
            assert (s.radius_num - 1) ** 2 < bound_sq <= s.radius_num ** 2

    @given(q=st.integers(1, 10), k=st.integers(2, 20),
           re=st.integers(-3 << 95, 3 << 95),
           im=st.integers(-3 << 94, 3 << 94).map(lambda v: 2 * v + 1))
    @settings(max_examples=60, deadline=None)
    def test_radius_rounds_outward_anywhere(self, q, k, re, im):
        # away from a root the radius has about 96 bits, so a modulus
        # rounded the wrong way from its leading bits shows in the last
        # ones; an odd imaginary part keeps z off 1 and off the real roots
        # of Phi'
        radius = roots._inclusion_radius(SequenceParams(q, k), (re, im), 96)
        bound_sq = _radius_sq_exact(q, k, re, im, 96)
        assert bound_sq <= radius ** 2
        assert (radius - 1) ** 2 < bound_sq * (1 + Fraction(1, 2**58))

    def test_vanishing_derivative_refuses(self):
        # Phi = t^2 - t - 1 has Phi' = 2t - 1 = 0 at t = 1/2
        params = SequenceParams(1, 2)
        with pytest.raises(RootSolveError, match="derivative vanished"):
            roots._inclusion_radius(params, (1 << 95, 0), 96)
        # 2^-76 to its right the derivative is 2^-75, small but certified
        z = ((1 << 95) + (1 << 20), 0)
        radius = roots._inclusion_radius(params, z, 96)
        bound_sq = _radius_sq_exact(1, 2, *z, 96)
        assert bound_sq <= radius ** 2
        assert (radius - 1) ** 2 < bound_sq * (1 + Fraction(1, 2**58))

    def test_radii_below_cap(self):
        bits = 192
        rs = all_roots(SequenceParams(4, 7), bits)
        assert all(s.radius_num < 1 << (s.bits - bits) for s in rs.secondary)

    @given(q=st.integers(1, 10), k=st.integers(2, 16), bits=st.integers(64, 320))
    @settings(max_examples=60, deadline=None)
    def test_discs_match_an_independent_solver(self, q, k, bits):
        # each disc, widened by 1e-9, holds exactly one float root of
        # modulus < 1, a different one for each disc; the root > 1 lies
        # in the dominant cell
        rs = all_roots(SequenceParams(q, k), bits)
        oracle = char_poly_roots(q, k)
        inner = [z for z in oracle if abs(z) < 1]
        (outer,) = [z for z in oracle if abs(z) >= 1]
        matched = set()
        for s in rs.secondary:
            centre = complex(s.re_num / 2**s.bits, s.im_num / 2**s.bits)
            reach = s.radius_num / 2**s.bits + 1e-9
            hits = [i for i, z in enumerate(inner) if abs(z - centre) <= reach]
            assert len(hits) == 1
            matched.update(hits)
        assert len(matched) == len(inner) == k - 1
        cell = rs.dominant.interval
        assert abs(outer.imag) <= 1e-9
        assert float(cell.lo) - 1e-9 <= outer.real <= float(cell.hi) + 1e-9

    def test_centres_digest(self):
        # every secondary centre of the benchmark's 24 all_roots cells, in
        # order: the certificate may change without moving them; a new
        # seeding or polish moves their low bits, and each moved centre
        # must then lie in exactly one of the old discs
        digest = hashlib.sha256()
        for q, k, bits in CERTIFY_CELLS:
            for s in all_roots(SequenceParams(q, k), bits).secondary:
                digest.update(f"{s.re_num} {s.im_num} {s.bits}\n".encode())
        assert digest.hexdigest() == (
            "4ae54ba416e7df4aa213ac3da6e7d3b394b32a1fa92e07100a722de62eed5d28")

    def test_radii_digest(self):
        # every secondary radius of the benchmark's cells and three at
        # large k, in order: a new way of bounding the radius must give
        # the same outward-rounded integers; a new polish moves them with
        # the centres, as a mirror disc takes its upper disc's radius
        digest = hashlib.sha256()
        for q, k, bits in CERTIFY_CELLS + [(3, 64, 128), (10, 48, 256), (1, 128, 128)]:
            for s in all_roots(SequenceParams(q, k), bits).secondary:
                digest.update(f"{s.radius_num} {s.bits}\n".encode())
        assert digest.hexdigest() == (
            "354541c573b9bfab2101148c6860b90377b3d0d08d7015a76bab5181d9daf8b0")

    def test_compute_only_regime_allowed(self):
        rs = all_roots(SequenceParams(1, 4), 128)
        assert len(rs.secondary) == 3
        assert all(map(_centre_inside_unit_circle, rs.secondary))

    def test_pairwise_separation(self):
        bits = 160
        rs = all_roots(SequenceParams(3, 7), bits)
        points = [(rs.dominant.interval.midpoint, Fraction(0))]
        points += [_centre(s) for s in rs.secondary]
        tol_sq = Fraction(1, 2 ** (bits // 2))
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                dx = points[i][0] - points[j][0]
                dy = points[i][1] - points[j][1]
                assert dx * dx + dy * dy > tol_sq


class TestSignCertificates:
    def test_exact_rational_signs_at_endpoints(self):
        # re-derive the certificate with CharPoly.eval (exact Fractions), a
        # different code path than the integer Horner used by bisection
        from qkbonacci import CharPoly

        for q, k in [(1, 2), (2, 4), (3, 2), (4, 8), (5, 5), (9, 3)]:
            params = SequenceParams(q, k)
            enc = dominant_root(params, 128)
            phi = CharPoly.of(params)
            assert phi.eval(enc.interval.lo) < 0
            assert phi.eval(enc.interval.hi) > 0


@st.composite
def _kernel_cases(draw):
    """(bits, a, b, exponent, q, k): Gaussian mantissas of modulus up to
    about 2 at 2^-bits, negative parts included, and a power from -400 to
    400."""
    bits = draw(st.integers(0, 1100))
    part = st.integers(-(2 << bits), 2 << bits)
    return (bits, draw(st.tuples(part, part)), draw(st.tuples(part, part)),
            draw(st.integers(-400, 400)), draw(st.integers(1, 10**6)), draw(st.integers(2, 64)))


class TestFixedPointComplex:
    """White-box checks of the integer fixed-point complex kernel against
    exact Fraction arithmetic."""

    def _exact(self, z, bits):
        return Fraction(z[0], 1 << bits), Fraction(z[1], 1 << bits)

    def test_mul_error_bound(self):
        from qkbonacci.numerics.roots import _cmul

        bits = 64
        ulp = Fraction(1, 1 << bits)
        cases = [
            ((3, 4), (5, -7)),
            ((-123456789, 987654), (42, -1)),
            ((1 << 70, -(1 << 69)), (3 << 40, 5 << 30)),
        ]
        for a_m, b_m in cases:
            a = tuple(v << 10 for v in a_m)
            b = tuple(v << 10 for v in b_m)
            got = self._exact(_cmul(a, b, bits), bits)
            ar, ai = self._exact(a, bits)
            br, bi = self._exact(b, bits)
            want = (ar * br - ai * bi, ar * bi + ai * br)
            assert abs(got[0] - want[0]) <= ulp
            assert abs(got[1] - want[1]) <= ulp

    def test_div_error_bound(self):
        from qkbonacci.numerics.roots import _cdiv

        bits = 64
        ulp = Fraction(1, 1 << bits)
        a = (123 << bits, -(45 << bits))
        b = (7 << bits, 9 << bits)
        got = self._exact(_cdiv(a, b, bits), bits)
        ar, ai = self._exact(a, bits)
        br, bi = self._exact(b, bits)
        den = br * br + bi * bi
        want = ((ar * br + ai * bi) / den, (ai * br - ar * bi) / den)
        assert abs(got[0] - want[0]) <= ulp
        assert abs(got[1] - want[1]) <= ulp
        # _secondary_discs turns this into a RootSolveError
        with pytest.raises(ZeroDivisionError):
            _cdiv(a, (0, 0), bits)

    def test_poly_eval_matches_exact_on_small_inputs(self):
        # _scaled_phi's (z-1) Phi(z) and (z-1)^2 Phi'(z) against exact
        # Fractions, each within the bound (H k + 4) M^k ulps that
        # _inclusion_radius widens by: H sums the cubic's |coefficients|,
        # and M = 2 >= |z|
        bits = 96
        z = (Fraction(5, 4), Fraction(-3, 8))
        z_fixed = ((5 << bits) // 4, -(3 << bits) // 8)

        def exact(poly, factors):
            acc = (Fraction(0), Fraction(0))
            for c in reversed(poly):
                acc = (acc[0] * z[0] - acc[1] * z[1] + c, acc[0] * z[1] + acc[1] * z[0])
            for _ in range(factors):
                acc = (acc[0] * (z[0] - 1) - acc[1] * z[1], acc[0] * z[1] + acc[1] * (z[0] - 1))
            return acc

        for q, k in ((3, 2), (1, 3), (10, 7), (2, 12)):
            params = SequenceParams(q, k)
            coeffs = CharPoly.of(params).coefficients
            slope = [i * c for i, c in enumerate(coeffs)][1:]
            for got, want, cubic in zip(roots._scaled_phi(params, z_fixed, bits),
                                        (exact(coeffs, 1), exact(slope, 2)),
                                        roots._cubics(params)):
                slack = Fraction((sum(map(abs, cubic)) * k + 4) << k, 1 << bits)
                assert abs(Fraction(got[0], 1 << bits) - want[0]) <= slack
                assert abs(Fraction(got[1], 1 << bits) - want[1]) <= slack

    @given(case=_kernel_cases())
    @example(case=(0, (-3, 2), (5, -7), -3, 1, 2))
    @settings(max_examples=80, deadline=None)
    def test_fused_kernel_matches_one_shift_per_product(self, case):
        # the inline round-half shifts give, bit for bit, the integers of
        # the kernel written with one _round_shift per product part; at
        # bits = 0 both are exact on Gaussian integers
        from qkbonacci.numerics.roots import _cmul, _cpow

        bits, a, b, exponent, q, k = case
        assert _cmul(a, b, bits) == _oracles.cmul(a, b, bits)
        if exponent < 0 and a == (0, 0):
            with pytest.raises(ZeroDivisionError):
                _cpow(a, exponent, bits)
        else:
            assert _cpow(a, exponent, bits) == _oracles.cpow(a, exponent, bits)
        assert (roots._scaled_phi(SequenceParams(q, k), a, bits)
                == _oracles.scaled_phi(q, k, a, bits))
