import hashlib
from dataclasses import replace
from decimal import ROUND_FLOOR
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkbonacci import (
    CompanionKind,
    DomainError,
    DyadicInterval,
    Grid,
    PoleInIntervalError,
    Quadratic,
    ReconstructionError,
    RegimeError,
    SecondaryRoot,
    SequenceParams,
    all_roots,
    binet_dominant,
    binet_reconstruct,
    check_reconstruction,
    companion_term,
    dominant_root,
    error_term,
    g_eval,
    run_laws,
    term_definition,
    term_fast,
    u_closed_form,
)
from qkbonacci.lawcheck import CellContext
from qkbonacci.numerics import binet, dominant_term_sweep, reconstruction_sweep, refine_root
from qkbonacci.numerics.binet import _root_ladder, _rungs
from qkbonacci.numerics.dyadic import _float_text
from qkbonacci.numerics.roots import _cmul, _cpow

import _oracles
from _oracles import sqrt_enclosure, weight_mantissas


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
        g = g_eval(SequenceParams(3, 2), Quadratic.companion(3).root(True, 160))
        assert g.contains(Fraction(1, 4))
        assert g.width < Fraction(1, 2**100)
        for q in (4, 5):
            g = g_eval(SequenceParams(q, 2), Quadratic.companion(q).root(True, 160))
            assert g.strictly_above(Fraction(1, q + 1))
            assert g.strictly_below(Fraction(1, q))

    def test_pole_detected(self):
        p = SequenceParams(3, 2)
        c = Quadratic.weight_denominator(3, 2).root(True, 64)
        wide = DyadicInterval.from_bounds(c.lo - 1, c.hi + 1, 64)
        with pytest.raises(PoleInIntervalError):
            g_eval(p, wide)

    def test_same_k_dependence(self):
        # the weight depends on k, not just on the evaluation point
        x = DyadicInterval.from_fraction(Fraction(7, 2), 64)
        g2 = g_eval(SequenceParams(3, 2), x)
        g5 = g_eval(SequenceParams(3, 5), x)
        assert g2.hi < g5.lo or g5.hi < g2.lo


@st.composite
def weight_cases(draw):
    """A dominant-root enclosure, or an interval of up to 200 bits about
    the weight's vertex, either zero of its denominator, or any point of
    [-2, q + 3], from a point to a few units wide."""
    params = SequenceParams(draw(st.integers(1, 10)), draw(st.integers(2, 64)))
    q, k = params.q, params.k
    if draw(st.booleans()):
        bits = draw(st.sampled_from((8, 9, 64, 192, 768, 3072)))
        return params, dominant_root(params, bits).interval
    bits = draw(st.integers(1, 200))
    root = (k * k * (q * q - 2 * q + 5) + 4 * (q - 1)) ** 0.5
    marks = [(q + 1) * k / (2 * (k + 1)), ((q + 1) * k - root) / (2 * (k + 1)),
             ((q + 1) * k + root) / (2 * (k + 1))]
    centre = draw(st.sampled_from(marks) | st.floats(-2, q + 3))
    lo = int(centre * 2**bits) - draw(st.integers(0, 1 << (bits + 1)))
    return params, DyadicInterval(lo, lo + draw(st.integers(0, 1 << (bits + 2))), bits)


class TestWeightMantissas:
    @given(case=weight_cases())
    @settings(max_examples=300, deadline=None)
    # q = 1: D(0) = 0, and D(2k/(k+1)) = 0 at the dyadic 3/2 for k = 3
    @example(case=(SequenceParams(1, 3), DyadicInterval(0, 0, 1)))
    @example(case=(SequenceParams(1, 3), DyadicInterval(3, 3, 1)))
    @example(case=(SequenceParams(1, 3), DyadicInterval(5, 7, 2)))
    # the vertex (q+1)k / (2(k+1)) = 3/2 at an end, then just inside
    @example(case=(SequenceParams(3, 3), DyadicInterval(6, 8, 2)))
    @example(case=(SequenceParams(3, 3), DyadicInterval(11, 16, 3)))
    @example(case=(SequenceParams(10, 64), dominant_root(SequenceParams(10, 64), 3072).interval))
    def test_matches_fraction_formula(self, case):
        params, x = case
        expected = weight_mantissas(params.q, params.k, x.lo_num, x.hi_num, x.bits)
        if expected is None:
            with pytest.raises(PoleInIntervalError) as info:
                g_eval(params, x)
            assert str(info.value) == (
                "denominator sign is not constant on the interval "
                f"[{_float_text(x.lo, '', ROUND_FLOOR)}, {_float_text(x.hi, '')}] "
                f"for (q={params.q}, k={params.k})")
        else:
            assert g_eval(params, x) == DyadicInterval(*expected, x.bits)

    def test_dominant_enclosure_builds_no_fraction(self, monkeypatch):
        cells = [(SequenceParams(q, k), bits) for q in (1, 3, 10) for k in (2, 8, 64)
                 for bits in (8, 192, 3072)]
        enclosures = [(params, dominant_root(params, bits).interval) for params, bits in cells]
        built = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        for params, gamma in enclosures:
            g_eval(params, gamma)
        monkeypatch.undo()
        assert built == []
        # the count is live: the views build one Fraction each
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        view = enclosures[0][1].lo
        monkeypatch.undo()
        assert len(built) == 1 and view == built[0][0] / built[0][1]

    def test_laws_and_reconstruction_build_no_fraction(self, monkeypatch):
        # the laws compare integer mantissas, and a sweep's radius is an
        # integer pair: a Fraction is built only for witness or error text
        built = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        reports = run_laws("all", Grid.default(), 192)
        value = binet_reconstruct(SequenceParams(3, 5), 100, 256)
        monkeypatch.undo()
        assert built == []
        assert {r.verdict for r in reports} == {"pass"}
        assert value == term_definition(SequenceParams(3, 5), 100)


def asymptote(q, k, bits):
    return Quadratic.weight_denominator(q, k).root(True, bits)


class TestAsymptote:
    def test_known_value_3_2(self):
        # c = (8 + sqrt 40) / 6
        c = asymptote(3, 2, 128)
        lo, hi = sqrt_enclosure(40)
        assert c.lo <= (8 + hi) / 6 and c.hi >= (8 + lo) / 6

    def test_below_dominant_root(self):
        for q in (3, 4, 5):
            for k in (2, 5, 8):
                c = asymptote(q, k, 96)
                gamma = dominant_root(SequenceParams(q, k), 96).interval
                assert c.strictly_below(gamma)

    def test_approaches_alpha(self):
        # the gap behaves like alpha/(k+1): about 3.4e-3 by k = 1000
        for q in (3, 5):
            alpha = Quadratic.companion(q).root(True, 96)
            gap_1000 = alpha - asymptote(q, 1000, 96)
            assert gap_1000.hi < Fraction(1, 100)
            gap_100 = alpha - asymptote(q, 100, 96)
            assert gap_100.lo > gap_1000.hi  # still closing monotonically

    def test_regime_error(self):
        # c is compared with gamma only where the laws are certified, q >= 3
        with pytest.raises(RegimeError):
            run_laws("lemma2", Grid((2,), (4,), 10), 64)

    def test_matches_the_closed_form(self):
        # ((q+1)k + sqrt(k^2(q^2-2q+5) + 4(q-1))) / (2(k+1)): the root of D
        # is that closed form's enclosure, mantissa for mantissa
        for q in range(3, 11):
            for k in range(2, 65):
                disc = k * k * (q * q - 2 * q + 5) + 4 * (q - 1)
                top = DyadicInterval.sqrt_of_int(disc, 100) + (q + 1) * k
                den = 2 * (k + 1)
                assert asymptote(q, k, 96) == DyadicInterval(
                    top.lo_num // den, -(-top.hi_num // den), 100), (q, k)


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

    @pytest.mark.parametrize("q, n, bits", [
        (3, 200, 64), (4, 100, 64), (10**6, 5, 8), (10**9, 50, 8), (10**20, 3, 8),
    ])
    def test_large_n_and_q_pin_the_digits(self, q, n, bits):
        # the working precision grows with n log2(q + 1), and the divisor
        # is an integer, so the enclosure is at most two ulps wide however
        # large U_n is
        enc = u_closed_form(q, n, bits)
        assert enc.bits == bits
        assert enc.contains(companion_term(q, CompanionKind.U, n))
        assert enc.width <= Fraction(2, 1 << bits)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            u_closed_form(2, 5, 64)

    def test_index_below_one_is_domain_error(self):
        with pytest.raises(DomainError, match="n >= 1"):
            u_closed_form(3, 0, 64)

    @pytest.mark.parametrize("bits", (0, -3))
    def test_nonpositive_bits_is_domain_error(self, bits):
        with pytest.raises(DomainError, match="bits >= 1"):
            u_closed_form(3, 5, bits)
        assert u_closed_form(3, 5, 1).contains(companion_term(3, CompanionKind.U, 5))


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

    def test_regime_error(self):
        with pytest.raises(RegimeError, match="q >= 3"):
            binet_dominant(SequenceParams(2, 3), 5, 64)

    def test_results_digest(self):
        # (interval, bits_used, capped) over q 3-8, eight k and four
        # requests, at every n from 2-k to 40 and at 100 and 300
        digest, count = hashlib.sha256(), 0
        for q in range(3, 9):
            for k in (2, 3, 4, 5, 7, 9, 12, 16):
                p = SequenceParams(q, k)
                for bits in (8, 16, 64, 192):
                    for n in (*range(2 - k, 41), 100, 300):
                        term = binet_dominant(p, n, bits)
                        i = term.interval
                        digest.update(f"{q} {k} {bits} {n} {i.lo_num} {i.hi_num} {i.bits} "
                                      f"{term.bits_used} {term.capped}\n".encode())
                        count += 1
        assert count == 9264
        assert digest.hexdigest() == (
            "ea29af898ab08ed213746266718038797b1df4ee38775203aba91f8d69488616")


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

    def test_settles_past_skipped_rungs(self, monkeypatch):
        # g(gamma) gamma^300 for (5, 8) has ~760 integer bits: the 192 and
        # 384 bit rungs cannot reach 2^-32 and are skipped; 768 can
        params = SequenceParams(5, 8)
        ladder = _root_ladder(dominant_root(params, 192), 300, (1, 2**32))
        assert [enclosure.interval.bits for enclosure in ladder] == [768, 1536, 3072]
        expected = full_climb(params, 300, 192)
        # binet_dominant computes no term on the skipped rungs either
        weighed, real = [], binet.g_eval
        monkeypatch.setattr(binet, "g_eval", lambda p, x: weighed.append(x.bits) or real(p, x))
        term = binet_dominant(params, 300, 192)
        assert (term.interval, term.bits_used, term.capped) == expected
        assert term.bits_used == 768
        assert 768 in weighed and not {192, 384} & set(weighed)


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
            *_, term_lo, term_hi = dominant_term_sweep(dominant_root(p, 256), p.min_index, 40)
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
    # n_lo is the term bounds' start, the chain's anchor 0, or a positive
    # start, which begins with one power
    q = draw(st.integers(3, 8))
    k = draw(st.integers(2, 12))
    n_hi = draw(st.integers(1, 600))
    n_lo = draw(st.sampled_from((min(2 - k, -1), 0, draw(st.integers(1, n_hi)))))
    return SequenceParams(q, k), n_lo, n_hi, draw(st.integers(8, 512))


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
    @example(case=(SequenceParams(8, 12), -10, 600, 8))
    @example(case=(SequenceParams(3, 2), 300, 600, 8))
    def test_equals_interval_chain(self, case):
        # the mantissa rows are the DyadicInterval chain, rounding for
        # rounding: gamma**max(n_lo, 0), up by gamma, and down from 1
        params, n_lo, n_hi, bits = case
        enclosure = dominant_root(params, bits)
        gamma = enclosure.interval
        start = max(n_lo, 0)
        powers = {start: gamma**start}
        for n in range(start + 1, n_hi + 1):
            powers[n] = powers[n - 1] * gamma
        for n in range(-1, n_lo - 1, -1):
            powers[n] = powers[n + 1] * gamma.reciprocal()
        weight = g_eval(params, gamma)
        power_lo, power_hi, term_lo, term_hi = dominant_term_sweep(enclosure, n_lo, n_hi)
        span = range(n_lo, n_hi + 1)
        assert list(zip(power_lo, power_hi)) == [(powers[n].lo_num, powers[n].hi_num) for n in span]
        terms = [weight * powers[n] for n in span]
        assert list(zip(term_lo, term_hi)) == [(t.lo_num, t.hi_num) for t in terms]

    def test_one_row_is_binet_dominant(self):
        # a one-row sweep anchors at its own n, so at every n, below 0 too,
        # it is gamma**n times the weight, as binet_dominant returns it
        for q, k in ((3, 2), (4, 7), (7, 12)):
            p = SequenceParams(q, k)
            for bits in (8, 64, 192):
                for n in (*range(2 - k, 40), 100, 300):
                    term = binet_dominant(p, n, bits)
                    *_, term_lo, term_hi = dominant_term_sweep(
                        dominant_root(p, term.bits_used), n, n)
                    assert (term_lo, term_hi) == ([term.interval.lo_num], [term.interval.hi_num])


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
        ((_, value, (half, scale)),) = reconstruction_sweep(dominant_root(p, 256), 20, 20, 256)
        assert value == term_definition(SequenceParams(3, 4), 20)
        assert 2 * half < 1 << scale

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
        for n, value, (half, scale) in sweep:
            assert (value is not None) == (2 * half < 1 << scale)
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

    def test_one_n_asks_for_one_row(self, monkeypatch):
        # the sum reads its dominant term off dominant_term_sweep, asked
        # for exactly [n, n], so one n still costs one power
        asked = []
        real_sweep = binet.dominant_term_sweep

        def sweep(enclosure, n_lo, n_hi):
            asked.append((n_lo, n_hi))
            return real_sweep(enclosure, n_lo, n_hi)

        monkeypatch.setattr(binet, "dominant_term_sweep", sweep)
        p = SequenceParams(3, 4)
        for n, exact in ((-2, 0), (0, 0), (40, term_definition(p, 40)), (5000, term_fast(p, 5000))):
            asked.clear()
            assert binet_reconstruct(p, n, 256) == exact
            assert asked == [(n, n)]

    def test_sweep_digest(self):
        # every (n, value) of the sweeps over q 1-6 and k 2-12 from n = 2-k,
        # at 64 bits to n = 60 and at 256 bits to n = 300, including q 1-2,
        # which no law reaches; none of them is a refusal
        digest = hashlib.sha256()
        for bits, n_hi in ((64, 60), (256, 300)):
            for q in range(1, 7):
                for k in range(2, 13):
                    sweep = reconstruction_sweep(dominant_root(SequenceParams(q, k), bits),
                                                 2 - k, n_hi, bits)
                    for n, value, _ in sweep:
                        digest.update(f"{bits} {q} {k} {n} {value}\n".encode())
        assert digest.hexdigest() == (
            "b884cef94d381b2478213c739faef758e0e640275be9c4f9ba97d8b351845093")

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

    @given(q=st.integers(3, 11), k=st.integers(2, 20), n_max=st.integers(1, 300),
           n_lo=st.integers(-18, 300), single=st.booleans(),
           bits=st.sampled_from((8, 16, 64, 192)))
    @settings(max_examples=100, deadline=None)
    @example(q=3, k=7, n_max=40, n_lo=-5, single=False, bits=64)
    @example(q=5, k=4, n_max=300, n_lo=-2, single=True, bits=192)
    @example(q=4, k=12, n_max=60, n_lo=0, single=False, bits=16)
    @example(q=11, k=20, n_max=300, n_lo=-18, single=False, bits=8)
    def test_sweep_matches_the_per_n_oracle(self, q, k, n_max, n_lo, single, bits):
        # the sum's one loop over local integers against the per-n cmul and
        # round_shift loop it replaced, on the same dominant rows, discs and
        # weights; n_lo < 0, a single n and even k (a real disc) included.
        # A value is a rounding, so the centre each value rounds is compared too
        p = SequenceParams(q, k)
        n_lo = min(max(n_lo, p.min_index), n_max)
        n_hi = n_lo if single else n_max
        rows, terms, centres = [], [], []
        real_sweep, real_term, real_round = (
            binet.dominant_term_sweep, binet._secondary_term, binet._round_shift)

        def sweep(enclosure, lo, hi):
            rows.append((enclosure.interval.bits, real_sweep(enclosure, lo, hi)))
            return rows[-1][1]

        def term(params, disc, lo, hi):
            terms.append(((disc.re_num, disc.im_num, disc.bits), real_term(params, disc, lo, hi)))
            return terms[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(binet, "dominant_term_sweep", sweep)
            patch.setattr(binet, "_secondary_term", term)
            patch.setattr(binet, "_round_shift",
                          lambda x, shift: centres.append(x) or real_round(x, shift))
            fused = list(reconstruction_sweep(dominant_root(p, bits), n_lo, n_hi, bits))
        ((w, (_, _, term_lo, term_hi)),) = rows
        discs, weights = zip(*terms)
        assert any(im == 0 for _, im, _ in discs) == (k % 2 == 0)
        triples, sums = _oracles.reconstruction_triples(
            n_lo, n_hi, term_lo, term_hi, w, discs, weights)
        assert fused == triples
        assert centres == [c for c, (_, value, _) in zip(sums, triples) if value is not None]

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
            r = complex(root.re_num / 2**root.bits, root.im_num / 2**root.bits)
            g = (r - 1) / ((k + 1) * r * r - (q + 1) * k * r + (q - 1) * (k - 1))
            power = _cpow(centre, n_lo, work)
            for n in range(n_lo, n_lo + span + 1):
                if n > n_lo:
                    power = _cmul(power, centre, work)
                term = _cmul(weight, power, work)
                error = abs(g * r**n - complex(term[0], term[1]) / 2.0**work)
                assert error <= radius / 2.0**work + 1e-12, (n, error, radius / 2.0**work)
