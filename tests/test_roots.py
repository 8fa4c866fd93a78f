import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbonacci import (
    CharPoly,
    DomainError,
    DyadicInterval,
    RegimeError,
    RootSolveError,
    SequenceParams,
    all_roots,
    dominant_root,
    quadratic_roots,
)
from qkbonacci.numerics import RootEnclosure, refine_root, roots

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


class TestNewtonRungs:
    """The sign pair, not Newton, decides each cell: Newton only proposes."""

    @given(q=st.integers(1, 10), k=st.integers(2, 64),
           bits=st.integers(8, 4096), start=st.integers(8, 4096))
    @example(q=1, k=64, bits=64, start=4096)
    @example(q=3, k=8, bits=65, start=64)
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
        real_eval, real_halve, halved = roots._phi_and_slope, roots._halve, []

        def misled(coeffs, x, w):
            return mislead(*real_eval(coeffs, x, w), w)

        def halve(poly, lo, scale, bits):
            halved.append(bits)
            return real_halve(poly, lo, scale, bits)

        monkeypatch.setattr(roots, "_phi_and_slope", misled)
        monkeypatch.setattr(roots, "_halve", halve)
        for (q, k, bits), enclosure in zip(cells, expected):
            halved.clear()
            assert dominant_root(SequenceParams(q, k), bits) == enclosure
            # some rung was refused and halved instead, up to the last
            assert halved[-1] == bits and len(halved) > 1


class TestQuadraticRoots:
    def test_alpha_beta_q3(self):
        pair = quadratic_roots(3, 128)
        lo, hi = sqrt_enclosure(2)
        assert pair.alpha.lo <= 2 + hi and pair.alpha.hi >= 2 + lo
        assert pair.beta.lo <= 2 - lo and pair.beta.hi >= 2 - hi
        assert pair.beta.strictly_above(0) and pair.beta.strictly_below(1)

    def test_width(self):
        pair = quadratic_roots(5, 200)
        assert pair.alpha.width <= Fraction(1, 2**200)
        assert pair.beta.width <= Fraction(1, 2**200)

    def test_vieta(self):
        for q in (3, 4, 7):
            pair = quadratic_roots(q, 128)
            total = pair.alpha + pair.beta
            product = pair.alpha * pair.beta
            assert total.contains(q + 1)
            assert product.contains(q - 1)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            quadratic_roots(2, 64)


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

    @pytest.mark.parametrize("stray", [
        lambda seeds: [seeds[0]] + seeds[:-1],      # one root seeded twice
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
            "81be9d77a49435c5fb6e5f7a41a73b7d5469ccad19b212e4ace0b64a788d3bac")

    def test_radii_digest(self):
        # every secondary radius of the benchmark's cells and three at
        # large k, in order: a new way of bounding the radius must give
        # the same outward-rounded integers
        digest = hashlib.sha256()
        for q, k, bits in CERTIFY_CELLS + [(3, 64, 128), (10, 48, 256), (1, 128, 128)]:
            for s in all_roots(SequenceParams(q, k), bits).secondary:
                digest.update(f"{s.radius_num} {s.bits}\n".encode())
        assert digest.hexdigest() == (
            "4812c6c98c7d775a81979b1f34f39be4ec91139578bf613e2f08de399eb326fa")

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

    def test_poly_eval_matches_exact_on_small_inputs(self):
        from qkbonacci.numerics.roots import _cpoly

        bits = 96
        coeffs = [-1, -3, 1]  # t^2 - 3t - 1
        z = (Fraction(5, 4), Fraction(-3, 8))
        z_fixed = ((5 << bits) // 4, -(3 << bits) // 8)
        got = self._exact(_cpoly(coeffs, z_fixed, bits), bits)
        zr, zi = z
        want = (
            zr * zr - zi * zi - 3 * zr - 1,
            2 * zr * zi - 3 * zi,
        )
        slack = Fraction(8, 1 << bits)
        assert abs(got[0] - want[0]) <= slack
        assert abs(got[1] - want[1]) <= slack
