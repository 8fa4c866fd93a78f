"""The names the benchmark's layer tracer and request menus reach into.

`perfbench/spans.py` patches `DyadicInterval` and `_IntPoly` methods by
name and `perfbench/workloads.py` calls package functions by name, so a
rename or deletion there passes every other test but stops
`perfbench/run.py --trace 1` with a KeyError.  The tracer also reads
`dominant_root`'s bits from its second positional argument or its `bits`
keyword, and spans only the functions a layer lists in `__all__`.  The
`certify` oracles read result fields, so one request of each kind, and
every `all_roots` and `binet_reconstruct` request, goes through them here.
The files are only read.
"""
import importlib
import importlib.util
import inspect
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from qkbonacci import AuxPoly, Grid, SequenceParams, cli, lawcheck, numerics, sequences
from qkbonacci.numerics import binet, roots
from qkbonacci.numerics.dyadic import DyadicInterval
from qkbonacci.numerics.polynomials import _IntPoly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_patched_dyadic_methods_exist(spans):
    for attr in spans.DYADIC_OPS + spans.DYADIC_COMPARES + spans.DYADIC_VIEWS:
        assert attr in DyadicInterval.__dict__, attr


def test_patched_polynomial_methods_exist(spans):
    for attr in ("sign_at_dyadic", "eval"):
        assert attr in _IntPoly.__dict__, attr


def test_layer_modules_import(spans):
    for module_name in spans.LAYERS:
        importlib.import_module(module_name)


def test_routes_and_certify_kinds_exist(workloads):
    for name in workloads.ROUTES.values():
        assert callable(getattr(sequences, name)), name
    kinds = {req.kind for req in workloads.certify_menu(random.Random(1))}
    for kind in kinds:
        assert callable(getattr(numerics, kind)), kind


def test_certify_kinds_pass_their_oracles(workloads):
    # the oracles read fields of RootEnclosure, RootSet and ErrorEnclosure
    # and compare values; a change to those fails here, not in a run
    # every all_roots request, since each k and bits is its own root set,
    # and every binet_reconstruct request, each certified to the exact term
    mods = SimpleNamespace(numerics=numerics, sequences=sequences)
    menu = workloads.certify_menu(random.Random(1))
    first = {}
    for req in menu:
        first.setdefault(req.kind, req)
    every = ("all_roots", "binet_reconstruct")
    for req in [r for r in menu if r.kind in every or first[r.kind] is r]:
        value = workloads.certify_execute(mods, req)
        assert workloads.certify_check(req, workloads.certify_oracle(req), value) == "ok", req


def test_law_count_matches_selectors(workloads):
    # the verify oracle expects LAW_COUNT[selector] reports, so a law
    # report added here without it turns every `verify --law all` wrong
    assert {name: len(ids) for name, ids in lawcheck._SELECTORS.items()} == workloads.LAW_COUNT


def test_traced_run_laws_spans_each_checker(spans):
    # run_laws calls each checker through its lawcheck binding, which the
    # tracer replaces, so the per-checker self times have spans to read
    tracer = spans.Tracer()
    tracer.install()
    try:
        lawcheck.run_laws("all", Grid((3,), (2, 3), 30), 64)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans if span[0].startswith("lawcheck.")]
    assert names == ["lawcheck.run_laws", "lawcheck.check_identities",
                     "lawcheck.check_root_laws", "lawcheck.check_term_bounds",
                     "lawcheck.check_reconstruction"]


def test_tracer_records_and_restores(spans, workloads):
    # one small request per workload kind under an installed tracer; every
    # binding the tracer replaced is the original object again afterwards
    Request = workloads.Request
    requests = [
        (workloads.terms_execute, workloads.terms_oracle, workloads.terms_check,
         Request("fast", "", "", (3, 8, 1000))),
        (workloads.verify_execute, workloads.verify_oracle, workloads.verify_check,
         workloads._cli("verify:all", ["verify", "--law", "all", "--q", "4", "--k-max", "3",
                                       "--n-max", "40", "--bits", "64"], ("all",))),
        (workloads.verify_execute, workloads.verify_oracle, workloads.verify_check,
         workloads._cli("table:json", ["table", "--q", "3", "--k-min", "2", "--k-max", "3",
                                       "--n-max", "30", "--format", "json"],
                        ("json", 3, 2, 3, 30))),
        *((workloads.certify_execute, workloads.certify_oracle, workloads.certify_check,
           Request(kind, "", "", args)) for kind, args in (
              ("dominant_root", (3, 5, 128)), ("all_roots", (3, 5, 64)),
              ("error_term", (3, 5, 40, 64)), ("binet_reconstruct", (3, 5, 40, 256)))),
    ]
    owners = [module for name, module in sys.modules.items()
              if name == "qkbonacci" or name.startswith("qkbonacci.")]
    owners += [DyadicInterval, _IntPoly]
    before = [(owner, dict(vars(owner))) for owner in owners]
    mods = SimpleNamespace(cli=cli, numerics=numerics, sequences=sequences)
    tracer, unwrapped = spans.Tracer(), numerics.dominant_root
    tracer.install()
    try:
        assert numerics.dominant_root is not unwrapped
        for execute, oracle, check, req in requests:
            tracer.request = req.kind
            assert check(req, oracle(req), execute(mods, req)) == "ok", req.kind
    finally:
        tracer.uninstall()
    for owner, bindings in before:
        for attr, value in bindings.items():
            assert vars(owner)[attr] is value, (owner, attr)
    names = {span[0] for span in tracer.spans}
    for name in ("cli.main", "lawcheck.run_laws", "sequences.term_fast",
                 "numerics.roots.dominant_root", "numerics.roots.all_roots",
                 "numerics.binet.error_term", "numerics.binet.binet_reconstruct"):
        assert name in names, name
    assert tracer.counts["numerics.polynomials.sign_tests"] > 0
    assert tracer.counts["numerics.roots.dominant_root.bits_total"] >= 128


def test_dominant_root_bits_argument():
    # spans.py counts dominant_root.bits_total from args[1] or kwargs["bits"]
    first, second = list(inspect.signature(roots.dominant_root).parameters)[:2]
    assert (first, second) == ("params", "bits")


def test_sign_tests_per_dominant_root(monkeypatch):
    # numerics.polynomials.sign_tests counts calls by the method name: two
    # bracket checks, then at the float seed's scale, 48 - bit_length(q + 1)
    # bits or fewer, a sign pair and at most two one-cell moves, and past
    # that the same for each Newton rung, of which there are at most
    # bit_length(bits) - 5; an exact fallback inside the method is not a
    # second call
    calls = []
    real_sign = _IntPoly.sign_at_dyadic

    def counted(self, num, scale):
        calls.append(scale)
        return real_sign(self, num, scale)

    monkeypatch.setattr(_IntPoly, "sign_at_dyadic", counted)
    for q, k, bits in ((1, 2, 8), (3, 8, 64), (10, 32, 256), (5, 5, 1024),
                       (3, 8, 4096), (1, 64, 4096)):
        calls.clear()
        roots.dominant_root(SequenceParams(q, k), bits)
        seed = min(bits, 48 - (q + 1).bit_length())
        at_seed = calls.count(seed)
        assert calls[:4] == [0, 0, seed, seed] and at_seed <= 4, (q, k, bits)
        assert calls[2:2 + at_seed] == [seed] * at_seed, (q, k, bits)
        rungs = max(0, bits.bit_length() - 5)
        assert len(calls) - 2 - at_seed <= 4 * rungs, (q, k, bits)
    # a double holds no bit of gamma's fraction at q = 10**20, so the seed
    # falls back to halving, one test per bit up to 64
    for bits in (64, 256):
        calls.clear()
        roots.dominant_root(SequenceParams(10**20, 5), bits)
        assert calls[:66] == [0, 0, *range(1, 65)], bits
        assert len(calls) - 66 <= 4 * (bits.bit_length() - 5), bits
    calls.clear()
    # t = 1 is an exact zero of AuxPoly, decided by the exact fallback
    assert AuxPoly.of(SequenceParams(3, 5)).sign_at_dyadic(1 << 4096, 4096) == 0
    assert calls == [4096]


def test_secondary_work_per_conjugate_pair(monkeypatch):
    # all_roots polishes and bounds one point per conjugate pair, and the
    # real root of even k, floor(k/2) in all; a sweep bounds one term for
    # each of them; the lower half-plane is their mirror and costs nothing
    counts = {}
    for module, name in ((roots, "_polish"), (roots, "_inclusion_radius"),
                         (binet, "_secondary_term")):
        def counted(*args, real=getattr(module, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    for q, k, bits in ((1, 2, 64), (3, 3, 128), (3, 8, 128), (4, 25, 512), (10, 64, 64)):
        counts.clear()
        root_set = roots.all_roots(SequenceParams(q, k), bits)
        assert len(root_set.secondary) == k - 1
        assert counts == {"_polish": k // 2, "_inclusion_radius": k // 2}, (q, k, bits)
        counts.clear()
        for _ in binet.reconstruction_sweep(root_set.dominant, 2 - k, 40, bits):
            pass
        assert counts == dict.fromkeys(("_polish", "_inclusion_radius", "_secondary_term"),
                                       k // 2), (q, k, bits)


def test_refine_root_is_spanned(spans):
    assert "qkbonacci.numerics.roots" in spans.LAYERS
    assert "refine_root" in roots.__all__


def test_term_sweep_is_spanned_once_per_rung(spans, monkeypatch):
    # check_term_bounds reaches the sweep through lawcheck's module
    # binding, which the tracer replaces, once per rung it attempts; so
    # numerics.binet.dominant_term_sweep.self_s holds the row products
    assert "qkbonacci.numerics.binet" in spans.LAYERS
    assert "dominant_term_sweep" in binet.__all__
    assert lawcheck.dominant_term_sweep is binet.dominant_term_sweep
    attempted, swept = [], []
    real_sweep = lawcheck.dominant_term_sweep

    def full_ladder(enclosure, n, limit):
        # every rung, none skipped, so that cells climb
        for work in binet._rungs(enclosure.interval.bits):
            attempted.append((enclosure.params, work))
            yield roots.dominant_root(enclosure.params, work)

    def sweep(enclosure, n_lo, n_hi):
        swept.append((enclosure.params, enclosure.interval.bits))
        return real_sweep(enclosure, n_lo, n_hi)

    monkeypatch.setattr(lawcheck, "_root_ladder", full_ladder)
    monkeypatch.setattr(lawcheck, "dominant_term_sweep", sweep)
    grid = Grid((3, 7), (2, 9), 300)
    lawcheck.check_term_bounds(lawcheck.CellContext(grid, 8))
    assert swept == attempted
    assert len(swept) > len(grid.cells)


def test_secondary_newton_steps_per_root_set(monkeypatch):
    # all_roots polishes only the floor(k/2) secondary seeds in the closed
    # upper half-plane, exactly one Newton step per rung of a ladder that
    # about doubles from near 48 bits up to bits + 64, so no step polishes
    # the root outside the unit circle or a mirrored root, and none repeats
    # a full-precision pass
    steps = []
    real_step = roots._newton_step

    def counted(params, z, scale):
        steps.append((z, scale))
        return real_step(params, z, scale)

    monkeypatch.setattr(roots, "_newton_step", counted)
    for q, k, bits in ((1, 2, 64), (3, 8, 128), (4, 24, 512), (2, 32, 512),
                       (10, 64, 64), (3, 128, 256)):
        steps.clear()
        roots.all_roots(SequenceParams(q, k), bits)
        slack = k.bit_length()
        rungs = [bits + 64]
        while rungs[-1] > 48 + slack:
            rungs.append((rungs[-1] + slack) // 2)
        assert len(steps) == (k // 2) * len(rungs), (q, k, bits)
        assert sorted(scale for _, scale in steps) == sorted(rungs * (k // 2)), (q, k, bits)
        top = [z for z, scale in steps if scale == bits + 64]
        assert len(top) == k // 2, (q, k, bits)
        assert all(z[0] ** 2 + z[1] ** 2 < 1 << (2 * (bits + 64)) for z in top), (q, k, bits)
