from dataclasses import replace
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbonacci import (
    CompanionKind,
    DyadicInterval,
    Grid,
    PoleInIntervalError,
    ReconstructionError,
    RegimeError,
    SecondaryRoot,
    SequenceParams,
    all_roots,
    asymptote_c,
    binet_dominant,
    binet_reconstruct,
    check_reconstruction,
    companion_term,
    dominant_root,
    error_term,
    g_eval,
    quadratic_roots,
    term_definition,
    term_fast,
    u_closed_form,
)
from qkbonacci.lawcheck import CellContext
from qkbonacci.numerics import binet, dominant_term_sweep, reconstruction_sweep, refine_root
from qkbonacci.numerics.binet import _root_ladder, _rungs
from qkbonacci.numerics.roots import _cmul, _cpow

from _oracles import sqrt_enclosure


class TestWeight:
    def test_value_at_dominant_root_3_2(self):
        # g(gamma) = 1 / sqrt(13) for (q, k) = (3, 2)
        p = SequenceParams(3, 2)
        enc = dominant_root(p, 160)
        g = g_eval(p, enc.interval)
        lo, hi = sqrt_enclosure(13)
        assert g.lo <= 1 / lo and g.hi >= 1 / hi
        assert g.strictly_above(Fraction(1, 4))
        assert g.strictly_below(Fraction(1, 3))

    def test_value_at_alpha(self):
        # at alpha the denominator collapses to alpha^2 - (q-1); for q = 3
        # that makes g(alpha) exactly 1/4, the boundary of the estimate
        pair = quadratic_roots(3, 160)
        g = g_eval(SequenceParams(3, 2), pair.alpha)
        assert g.contains(Fraction(1, 4))
        assert g.width < Fraction(1, 2**100)
        for q in (4, 5):
            pair = quadratic_roots(q, 160)
            g = g_eval(SequenceParams(q, 2), pair.alpha)
            assert g.strictly_above(Fraction(1, q + 1))
            assert g.strictly_below(Fraction(1, q))

    def test_pole_detected(self):
        p = SequenceParams(3, 2)
        c = asymptote_c(p, 64)
        wide = DyadicInterval.from_bounds(c.lo - 1, c.hi + 1, 64)
        with pytest.raises(PoleInIntervalError):
            g_eval(p, wide)

    def test_same_k_dependence(self):
        # the weight depends on k, not just on the evaluation point
        x = DyadicInterval.from_fraction(Fraction(7, 2), 64)
        g2 = g_eval(SequenceParams(3, 2), x)
        g5 = g_eval(SequenceParams(3, 5), x)
        assert g2.hi < g5.lo or g5.hi < g2.lo


class TestAsymptote:
    def test_known_value_3_2(self):
        # c = (8 + sqrt 40) / 6
        c = asymptote_c(SequenceParams(3, 2), 128)
        lo, hi = sqrt_enclosure(40)
        assert c.lo <= (8 + hi) / 6 and c.hi >= (8 + lo) / 6

    def test_below_dominant_root(self):
        for q in (3, 4, 5):
            for k in (2, 5, 8):
                p = SequenceParams(q, k)
                c = asymptote_c(p, 96)
                gamma = dominant_root(p, 96).interval
                assert c.strictly_below(gamma)

    def test_approaches_alpha(self):
        # the gap behaves like alpha/(k+1): about 3.4e-3 by k = 1000
        for q in (3, 5):
            alpha = quadratic_roots(q, 96).alpha
            gap_1000 = alpha - asymptote_c(SequenceParams(q, 1000), 96)
            assert gap_1000.hi < Fraction(1, 100)
            gap_100 = alpha - asymptote_c(SequenceParams(q, 100), 96)
            assert gap_100.lo > gap_1000.hi  # still closing monotonically

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            asymptote_c(SequenceParams(2, 4), 64)


class TestClosedFormU:
    def test_spec_values(self):
        u3 = u_closed_form(3, 3, 96)
        assert u3.contains(10) and u3.width < Fraction(1, 2)
        u1 = u_closed_form(3, 1, 96)
        assert u1.contains(1)
        u44 = u_closed_form(4, 4, 96)
        assert u44.contains(companion_term(4, CompanionKind.U, 4))

    def test_grid_encloses_exact(self):
        for q in (3, 4, 5):
            for n in (1, 2, 10, 35, 60):
                enc = u_closed_form(q, n, 192)
                assert enc.contains(companion_term(q, CompanionKind.U, n))
                assert enc.width < Fraction(1, 2)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            u_closed_form(2, 5, 64)


class TestDominantTerm:
    def test_close_to_table_values(self):
        term = binet_dominant(SequenceParams(3, 2), 6, 128)
        assert not term.capped
        assert term.interval.hi > 360 - Fraction(1, 3)
        assert term.interval.lo < 360 + Fraction(1, 3)
        term = binet_dominant(SequenceParams(4, 3), 8, 128)
        assert term.interval.hi > 24671 - Fraction(1, 4)
        assert term.interval.lo < 24671 + Fraction(1, 4)

    def test_n_zero_is_weight(self):
        p = SequenceParams(3, 2)
        term = binet_dominant(p, 0, 128)
        lo, hi = sqrt_enclosure(13)
        assert term.interval.lo <= 1 / lo and term.interval.hi >= 1 / hi

    def test_width_target(self):
        term = binet_dominant(SequenceParams(5, 8), 250, 192)
        assert term.interval.width <= Fraction(1, 2**32)
        assert not term.capped
        assert term.bits_used <= 16 * 192

    def test_precision_cap_is_flagged(self):
        # 2^-32 output width at n = 300 needs far more than 16 x 32 bits
        term = binet_dominant(SequenceParams(5, 8), 300, 32)
        assert term.capped
        assert term.bits_used == 16 * 32
        assert term.interval.width > Fraction(1, 2**32)


def full_climb(params, n, bits):
    """binet_dominant's ladder with no rung skipped."""
    for work in _rungs(bits):
        gamma = dominant_root(params, work).interval
        term = g_eval(params, gamma) * gamma**n
        if term.width <= Fraction(1, 2**32):
            return term, work, False
    return term, work, True


@st.composite
def dominant_cases(draw):
    q = draw(st.integers(3, 8))
    k = draw(st.integers(2, 12))
    return SequenceParams(q, k), draw(st.integers(2 - k, 600)), draw(st.integers(8, 256))


class TestRungSkipping:
    @given(case=dominant_cases())
    @settings(max_examples=80, deadline=None)
    # each settles, at the first rung kept, within 2^-32 by less than a
    # factor of 4, so a bound 4x too large would skip that rung
    @example(case=(SequenceParams(3, 2), 484, 218))
    @example(case=(SequenceParams(3, 5), 84, 92))
    @example(case=(SequenceParams(6, 8), 31, 29))
    def test_equals_full_climb(self, case):
        # skipped rungs could never have met the width target, so the
        # result is the full climb's, rung for rung
        params, n, bits = case
        term = binet_dominant(params, n, bits)
        assert (term.interval, term.bits_used, term.capped) == full_climb(params, n, bits)

    def test_settles_past_skipped_rungs(self):
        # g(gamma) gamma^300 for (5, 8) has ~760 integer bits: the 192 and
        # 384 bit rungs cannot reach 2^-32 and are skipped; 768 can
        params = SequenceParams(5, 8)
        ladder = _root_ladder(dominant_root(params, 192), 300, Fraction(1, 2**32))
        assert [enclosure.interval.bits for enclosure in ladder] == [768, 1536, 3072]
        term = binet_dominant(params, 300, 192)
        assert (term.interval, term.bits_used, term.capped) == full_climb(params, 300, 192)
        assert term.bits_used == 768


class TestErrorTerm:
    def test_bounded_by_inverse_q(self):
        e = error_term(SequenceParams(3, 2), 10, 128)
        third = Fraction(1, 3)
        assert -third < e.interval.lo and e.interval.hi < third

    def test_n_zero_is_minus_weight(self):
        p = SequenceParams(3, 4)
        e = error_term(p, 0, 128)
        assert e.interval.hi < 0
        assert -Fraction(1, 3) < e.interval.lo

    def test_decays_at_k3(self):
        e = error_term(SequenceParams(3, 3), 40, 192)
        bound = Fraction(1, 10**6)
        assert -bound < e.interval.lo and e.interval.hi < bound

    def test_error_recurrence_midpoints(self):
        # midpoints satisfy the order-(k+1) recurrence within the widths
        for q, k in [(3, 2), (4, 3), (5, 5)]:
            p = SequenceParams(q, k)
            *_, term_lo, term_hi = dominant_term_sweep(dominant_root(p, 256), 40)
            mid = {}
            widths = {}
            for n, lo, hi in zip(range(p.min_index, 41), term_lo, term_hi):
                e = (-DyadicInterval(lo, hi, 256)) + term_definition(p, n)
                mid[n], widths[n] = e.midpoint, e.width
            for n in range(p.min_index + k + 1, 41):
                lhs = mid[n]
                rhs = (q + 1) * mid[n - 1] - (q - 1) * mid[n - 2] - mid[n - k - 1]
                slack = (
                    widths[n]
                    + (q + 1) * widths[n - 1]
                    + (q - 1) * widths[n - 2]
                    + widths[n - k - 1]
                )
                assert abs(lhs - rhs) <= slack


@st.composite
def sweep_cases(draw):
    q = draw(st.integers(3, 8))
    k = draw(st.integers(2, 12))
    return SequenceParams(q, k), draw(st.integers(1, 600)), draw(st.integers(8, 512))


class TestWeightSign:
    def test_nonnegative_on_dominant_enclosures(self):
        # g(gamma) >= 0, which the dominant rows and the full-roots sum's
        # stepped term rely on; coarser enclosures are the 256-bit one's
        # ancestors, as refine_root gives them
        for q in range(1, 11):
            for k in (*range(2, 17), 24, 32, 48, 64):
                enclosure = dominant_root(SequenceParams(q, k), 256)
                for bits in (8, 64, 256):
                    gamma = refine_root(enclosure, bits).interval
                    assert g_eval(SequenceParams(q, k), gamma).lo_num >= 0, (q, k, bits)


class TestDominantTermSweep:
    @given(case=sweep_cases())
    @settings(max_examples=60, deadline=None)
    @example(case=(SequenceParams(8, 12), 600, 8))
    def test_equals_interval_chain(self, case):
        # the mantissa rows are the DyadicInterval chain, rounding for rounding
        params, n_max, bits = case
        enclosure = dominant_root(params, bits)
        gamma = enclosure.interval
        lowest = min(params.min_index, -1)
        powers = {0: DyadicInterval.from_int(1, bits)}
        for n in range(1, n_max + 1):
            powers[n] = powers[n - 1] * gamma
        for n in range(-1, lowest - 1, -1):
            powers[n] = powers[n + 1] * gamma.reciprocal()
        weight = g_eval(params, gamma)
        power_lo, power_hi, term_lo, term_hi = dominant_term_sweep(enclosure, n_max)
        assert list(zip(power_lo, power_hi)) == [
            (powers[n].lo_num, powers[n].hi_num) for n in range(lowest, n_max + 1)]
        terms = [weight * powers[n] for n in range(params.min_index, n_max + 1)]
        assert list(zip(term_lo, term_hi)) == [(t.lo_num, t.hi_num) for t in terms]


class TestDifferentialOracle:
    """Pit the whole certified pipeline against an independent route:
    Newton iteration on the characteristic polynomial carried out in exact
    Fraction arithmetic (no intervals, no bisection, no fixed point)."""

    @staticmethod
    def _newton_root(q, k, steps=8):
        coeffs = [-1] * (k - 1) + [-q, 1]
        dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]

        def ev(cs, x):
            acc = Fraction(0)
            for c in reversed(cs):
                acc = acc * x + c
            return acc

        # truncating between steps keeps the fractions small without
        # hurting Newton's self-correcting convergence
        x = Fraction(q) + Fraction(1, 2)
        prec = 40
        for _ in range(steps):
            x -= ev(coeffs, x) / ev(dcoeffs, x)
            prec = min(2 * prec, 320)
            x = Fraction((x.numerator << prec) // x.denominator, 1 << prec)
        return x

    def test_dominant_term_agrees(self):
        slack = Fraction(1, 2**60)
        for q, k, n in [(3, 2, 12), (4, 5, 9), (5, 8, 20)]:
            p = SequenceParams(q, k)
            gamma = self._newton_root(q, k)
            weight = (gamma - 1) / (
                (k + 1) * gamma**2 - (q + 1) * k * gamma + (q - 1) * (k - 1)
            )
            independent = weight * gamma**n
            certified = binet_dominant(p, n, 192).interval
            assert certified.lo - slack <= independent <= certified.hi + slack

    def test_dominant_root_agrees(self):
        for q, k in [(3, 2), (3, 8), (5, 4)]:
            gamma = self._newton_root(q, k)
            enclosure = dominant_root(SequenceParams(q, k), 160).interval
            assert enclosure.lo - Fraction(1, 2**100) <= gamma
            assert gamma <= enclosure.hi + Fraction(1, 2**100)


# F_155 at (3, 2), printed wrong before the sum was certified, and the
# benchmark's binet_reconstruct requests that came out wrong or refused
_MUST_CERTIFY = (
    (3, 2, 155, 256), (4, 4, 135, 256), (5, 7, 150, 256), (3, 5, 195, 256),
    (4, 8, 210, 256), (5, 11, 225, 256), (2, 6, 255, 256), (3, 9, 270, 256),
    (4, 12, 285, 256), (5, 4, 300, 256),
)


def _certified_examples(test):
    for q, k, n, bits in _MUST_CERTIFY:
        test = example(q=q, k=k, n=n, bits=bits)(test)
    return test


class TestReconstruction:
    def test_spec_values(self):
        assert binet_reconstruct(SequenceParams(3, 2), 6, 256) == 360
        assert binet_reconstruct(SequenceParams(4, 5), 5, 256) == 314
        assert binet_reconstruct(SequenceParams(3, 3), 0, 256) == 0

    def test_guard_magnitudes_reported(self):
        p = SequenceParams(3, 4)
        ((_, value, radius),) = reconstruction_sweep(dominant_root(p, 256), 20, 20, 256)
        assert value == term_definition(SequenceParams(3, 4), 20)
        assert radius < Fraction(1, 2)

    def test_wide_discs_are_refused(self, monkeypatch):
        # discs a quarter of their centre's modulus wide still bound every
        # term, but the certified radius passes 1/2: the call must refuse,
        # and the law must report that as inconclusive, never pass
        real_discs = binet._secondary_discs

        def wide_discs(params, bits):
            return tuple(
                replace(s, radius_num=isqrt(s.re_num**2 + s.im_num**2) // 4)
                for s in real_discs(params, bits))

        monkeypatch.setattr(binet, "_secondary_discs", wide_discs)
        with pytest.raises(ReconstructionError, match="not below 1/2"):
            binet_reconstruct(SequenceParams(3, 2), 40, 256)
        (report,) = check_reconstruction(CellContext(Grid((3,), (2,), 40), 256))
        assert report.verdict == "inconclusive"
        assert {w.kind for w in report.witnesses} == {"inconclusive"}

    def test_coarse_dominant_enclosure_is_refused(self, monkeypatch):
        # the 64-bit enclosure of gamma, not refined for n = 155,
        # makes the dominant row far wider than 1: refused, never rounded
        monkeypatch.setattr(binet, "refine_root", lambda enclosure, bits: enclosure)
        with pytest.raises(ReconstructionError, match="not below 1/2"):
            binet_reconstruct(SequenceParams(3, 2), 155, 64)

    def test_sweep_values_are_plain_ints(self, monkeypatch):
        # the coarse 64-bit enclosure certifies the small n and refuses the
        # large ones: a value is an int exactly when its radius is below 1/2
        monkeypatch.setattr(binet, "refine_root", lambda enclosure, bits: enclosure)
        p = SequenceParams(3, 2)
        sweep = list(reconstruction_sweep(dominant_root(p, 64), 0, 155, 64))
        assert [n for n, _, _ in sweep] == list(range(156))
        for n, value, radius in sweep:
            assert (value is None) == (radius >= Fraction(1, 2))
            assert value is None or (type(value) is int and value == term_definition(p, n))
        assert {value is None for _, value, _ in sweep} == {False, True}

    def test_certified_wrong_value_fails_the_law(self, monkeypatch):
        # a rounded sum moved by exactly one certifies a value one off the
        # exact term, which the law must report as a fail
        real_round = binet._round_shift
        monkeypatch.setattr(binet, "_round_shift", lambda x, shift: real_round(x, shift) + 1)
        (report,) = check_reconstruction(CellContext(Grid((3,), (2,), 10), 256))
        assert report.verdict == "fail"
        assert len(report.witnesses) == 11

    def test_no_dominant_rows(self, monkeypatch):
        # the sum steps its dominant term itself; the rows serve only
        # check_term_bounds
        def no_rows(enclosure, n_max):
            raise AssertionError("dominant_term_sweep called")

        monkeypatch.setattr(binet, "dominant_term_sweep", no_rows)
        p = SequenceParams(3, 4)
        assert binet_reconstruct(p, 40, 256) == term_definition(p, 40)
        (report,) = check_reconstruction(CellContext(Grid((3,), (2, 4), 40), 256))
        assert (report.verdict, report.witnesses) == ("pass", ())

    def test_large_n(self):
        # one power of gamma, not a row up to n
        p = SequenceParams(3, 5)
        assert binet_reconstruct(p, 5000) == term_fast(p, 5000)

    def test_low_precision_never_silently_plausible(self):
        # the dominant term's precision follows n, and 32 bits put the
        # secondary discs far inside the radius budget: every value is exact
        p = SequenceParams(3, 2)
        for n in range(40, 64):
            assert binet_reconstruct(p, n, 32) == term_definition(p, n)

    @given(q=st.integers(1, 10), k=st.integers(2, 16), n=st.integers(-14, 400),
           bits=st.integers(8, 320))
    @settings(max_examples=40, deadline=None)
    @_certified_examples
    def test_exact_or_refused(self, q, k, n, bits):
        p = SequenceParams(q, k)
        n = max(n, p.min_index)
        try:
            value = binet_reconstruct(p, n, bits)
        except ReconstructionError:
            assert (q, k, n, bits) not in _MUST_CERTIFY
            return
        assert value == term_definition(p, n)

    def test_negative_indices(self):
        p = SequenceParams(3, 6)
        for n in range(p.min_index, 1):
            assert binet_reconstruct(p, n, 256) == 0

    def test_compute_only_regime(self):
        # the expansion needs only simple roots, so q in {1, 2} works too:
        # at (q, k) = (1, 2) it is the classical closed form
        fib = SequenceParams(1, 2)
        for n in (0, 1, 10, 30):
            assert binet_reconstruct(fib, n, 256) == term_definition(fib, n)
        pell = SequenceParams(2, 4)
        assert binet_reconstruct(pell, 25, 256) == term_definition(pell, 25)

    @given(q=st.integers(1, 6), k=st.integers(2, 8), n_lo=st.integers(-6, 40),
           span=st.integers(0, 20), turn=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_secondary_radius_covers_the_root(self, q, k, n_lo, span, turn):
        # move each disc centre 2^-30 off its root, in one of eight
        # directions, with a radius just covering the root: the fixed-point
        # terms at the centre, chained as the sweep chains them, stay
        # within the radius of g(r) r^n, taken in floats at the root
        p = SequenceParams(q, k)
        n_lo = max(n_lo, p.min_index)
        work = 96
        for root in all_roots(p, 128).secondary:
            shift = root.bits - work
            dx, dy = ((2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1), (0, -2), (1, -1))[turn]
            centre = ((root.re_num >> shift) + (dx << 65), (root.im_num >> shift) + (dy << 65))
            disc = SecondaryRoot(*centre, work, (3 << 65) + 2)
            weight, radius = binet._secondary_term(p, disc, n_lo, n_lo + span)
            r = complex(float(root.real), float(root.imag))
            g = (r - 1) / ((k + 1) * r * r - (q + 1) * k * r + (q - 1) * (k - 1))
            power = _cpow(centre, n_lo, work)
            for n in range(n_lo, n_lo + span + 1):
                if n > n_lo:
                    power = _cmul(power, centre, work)
                term = _cmul(weight, power, work)
                error = abs(g * r**n - complex(term[0], term[1]) / 2.0**work)
                assert error <= radius / 2.0**work + 1e-12, (n, error, radius / 2.0**work)
