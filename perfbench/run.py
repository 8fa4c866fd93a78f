"""Closed-loop benchmark of qkbonacci: one client, one process, one thread,
no think time, like a researcher's script that waits for each answer.

    python3 perfbench/run.py --workload terms --seed 1 --seconds 30 --trace 0

Workloads (menus and oracles in workloads.py): `terms` (exact big-integer
terms), `verify` (in-process `qkbonacci verify` and `table` calls) and
`certify` (one-shot certified numerics calls).  A run repeats rounds of
the workload's menu, each in a seeded order, until one more round would
pass `--seconds`, and never fewer than three rounds.  Every answer is
checked against an oracle off the clock.

A shared host can run the same call 2x slower for seconds or minutes.
So a timer signal runs a small fixed probe every GAUGE_TICK_S, during
requests too, and every time is reported scaled to a host on which the
probe takes GAUGE_REF_S: the request's seconds, less the probes run inside
it, times the mean of GAUGE_REF_S / probe over the ticks during and near
it.  Each request's scaled time is then the median over the run's rounds.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  With `--trace 1` the rounds alternate
untraced and traced, and the ops/s difference between them is the tracing
overhead.  The full result record and the spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import types
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import VERIFY_BITS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_ROUNDS = 3
# set-ups timed before the rounds, and again after them
SETUP_REPS = 5
GAUGE_STEPS = 2000
# about the probe's time on a quiet host
GAUGE_REF_S = 3e-4
GAUGE_TICK_S = 0.03
# ticks this close to a short request gauge it too
GAUGE_MARGIN_S = 0.1

# `start` and `end` as measured; `scaled` as on a host where the probe
# takes GAUGE_REF_S; `reports` holds (bits_used, verdict) per verify law report
Sample = namedtuple("Sample", "round request outcome start end scaled reports error")


def probe() -> float:
    """Seconds taken by a fixed big-integer loop."""
    start = perf_counter()
    a, b = 0, 1
    for _ in range(GAUGE_STEPS):
        a, b = b, 3 * b + a
    return perf_counter() - start


class Gauge:
    """The host's speed, probed every GAUGE_TICK_S from a timer signal."""

    def __init__(self):
        self.ends: list[float] = []
        self.probes: list[float] = []

    def _tick(self, signum, frame):
        self.probes.append(probe())
        self.ends.append(perf_counter())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_TICK_S, GAUGE_TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end, less the probes run in between, as
        on a host where the probe takes GAUGE_REF_S."""
        inside = self.probes[bisect_right(self.ends, start):bisect_right(self.ends, end)]
        near = self.probes[bisect_left(self.ends, start - GAUGE_MARGIN_S):
                           bisect_right(self.ends, end + GAUGE_MARGIN_S)]
        speed = statistics.fmean(GAUGE_REF_S / p for p in near) if near else 1.0
        return (end - start - sum(inside)) * speed


def fresh_import():
    """Import the package from this checkout's sources, discarding any
    copy already loaded, so that every set-up pays the full import."""
    for name in [m for m in sys.modules if m == "qkbonacci" or m.startswith("qkbonacci.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("qkbonacci")
    return types.SimpleNamespace(
        cli=importlib.import_module("qkbonacci.cli"),
        sequences=importlib.import_module("qkbonacci.sequences"),
        numerics=importlib.import_module("qkbonacci.numerics"),
    )


def timed_setup(workload, seed):
    """Import, input generation and one warm-up request, timed together."""
    start = perf_counter()
    mods = fresh_import()
    rng = random.Random(seed)
    menu = workload.menu(rng)
    workload.execute(mods, workload.warmup)
    return (start, perf_counter()), mods, menu, rng


def git_sha():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """Outcomes and latencies of every request of one run."""

    def __init__(self, workload, mods, oracles):
        self.workload, self.mods, self.oracles = workload, mods, oracles
        self.samples: list[Sample] = []
        self.round_times: list[float] = []

    def round(self, order, tracer=None):
        index = len(self.round_times)
        start = perf_counter()
        for req in order:
            if tracer:
                tracer.request = len(self.samples)
            t0 = perf_counter()
            try:
                value, error = self.workload.execute(self.mods, req), None
            except Exception as exc:  # a crash is a failed request, not a failed run
                value, error = None, exc
            span = (t0, perf_counter())
            if tracer:
                tracer.request = None
            if error is None:
                outcome = self.workload.check(req, self.oracles[req.label], value)
            elif error.__class__.__module__.startswith("qkbonacci"):
                outcome = "refused"
            else:
                outcome = "raised"
            self.samples.append(
                Sample(index, req, outcome, *span, None, law_reports(req, value), error))
        self.round_times.append(perf_counter() - start)

    def scale(self, gauge):
        """Fill in the scaled times, once the gauge has the ticks after
        the last request."""
        self.samples = [s._replace(scaled=gauge.scaled(s.start, s.end))
                        for s in self.samples]

    def select(self, rounds):
        return [s for s in self.samples if s.round in rounds]


def law_reports(req, value):
    if not req.kind.startswith("verify:") or value is None or value[0] == 2:
        return []
    try:
        return [(r["bits_used"], r["verdict"]) for r in json.loads(value[1])]
    except (ValueError, KeyError, TypeError):
        return []


def per_label(samples, scaled=True):
    """Per label: (request, median seconds over rounds, whether every
    request was ok)."""
    times, ok, reqs = {}, {}, {}
    for s in samples:
        label = s.request.label
        reqs[label] = s.request
        times.setdefault(label, []).append(s.scaled if scaled else s.end - s.start)
        ok[label] = ok.get(label, True) and s.outcome == "ok"
    return {label: (reqs[label], statistics.median(t), ok[label])
            for label, t in times.items()}


def quantile_ms(values, index):
    if len(values) < 2:
        return 1000 * values[0] if values else 0.0
    return 1000 * statistics.quantiles(values, n=10, method="inclusive")[index]


def summarize(samples, scaled=True):
    """One pass over the menu, each request at its median over rounds."""
    rows = per_label(samples, scaled).values()
    ok = [seconds for _, seconds, good in rows if good]
    busy = sum(seconds for _, seconds, _ in rows)
    return {
        "ops_per_s": len(ok) / busy if busy else 0.0,
        "latency_p50_ms": quantile_ms(ok, 4),
        "latency_p90_ms": quantile_ms(ok, 8),
        "correct_requests": len(ok),
    }


def per_kind(samples):
    kinds = {}
    rows = per_label(samples).values()
    for kind in sorted({s.request.kind for s in samples}):
        outcomes = Counter(s.outcome for s in samples if s.request.kind == kind)
        ok = [seconds for req, seconds, good in rows if good and req.kind == kind]
        kinds[kind] = {
            **{name: outcomes.get(name, 0) for name in ("ok", "wrong", "refused", "raised")},
            "labels_ok": len(ok),
            "latency_p50_ms": quantile_ms(ok, 4) if ok else None,
            "latency_p90_ms": quantile_ms(ok, 8) if ok else None,
            "latency_max_ms": 1000 * max(ok) if ok else None,
        }
    return kinds


def per_slot(samples):
    """Median over a slot's copies of their scaled seconds, and outcomes."""
    slots = {}
    for req, seconds, _ in per_label(samples).values():
        slots.setdefault(req.slot, []).append(seconds)
    outcomes = {}
    for s in samples:
        outcomes.setdefault(s.request.slot, Counter())[s.outcome] += 1
    return {slot: {"scaled_s": statistics.median(times), "outcomes": dict(outcomes[slot])}
            for slot, times in sorted(slots.items())}


def layer_metrics(run, tracer, traced, untraced):
    """Per-layer metrics, per traced round (one pass over the menu)."""
    rounds = len(traced)
    selves = tracer.self_times()
    counts = tracer.counts
    samples = run.select(traced)
    reports = [report for s in samples for report in s.reports]
    rungs = sum(int(math.log2(used / VERIFY_BITS))
                for used, _ in reports if used >= VERIFY_BITS)
    recon = Counter(s.outcome for s in samples if s.request.kind == "binet_reconstruct")
    base = summarize(run.select(untraced))["ops_per_s"]
    overhead = base - summarize(samples)["ops_per_s"]

    def per_round(value):
        return value / rounds

    metrics = {}
    for name in ("sequences.term_fast", "sequences.term_definition",
                 "sequences.term_shortcut", "sequences.term_table", "sequences",
                 "numerics.dyadic", "lawcheck", "lawcheck.check_identities",
                 "lawcheck.check_root_laws", "lawcheck.check_term_bounds",
                 "lawcheck.check_reconstruction", "numerics.binet",
                 "numerics.binet.dominant_term_sweep", "numerics.roots",
                 "numerics.roots.dominant_root", "numerics.roots.all_roots",
                 "numerics.polynomials", "cli"):
        metrics[f"{name}.self_s"] = (per_round(selves[name]), "s")
    for name in ("numerics.dyadic.ops", "numerics.dyadic.compares",
                 "numerics.dyadic.fraction_views", "numerics.polynomials.sign_tests",
                 "numerics.roots.dominant_root.calls"):
        metrics[name] = (per_round(counts[name]), "count")
    for name in ("sequences.result_bits", "numerics.roots.dominant_root.bits_total"):
        metrics[name] = (per_round(counts[name]), "bits")
    metrics["lawcheck.rungs"] = (per_round(rungs), "count")
    metrics["lawcheck.bits_used_max"] = (max([used for used, _ in reports], default=0), "bits")
    metrics["lawcheck.inconclusive"] = (
        per_round(sum(v == "inconclusive" for _, v in reports)), "count")
    metrics["numerics.binet.reconstruct.wrong"] = (per_round(recon["wrong"]), "count")
    metrics["numerics.binet.reconstruct.refused"] = (per_round(recon["refused"]), "count")
    metrics["trace.overhead_ops_per_s"] = (overhead, "1/s")
    metrics["trace.overhead_share"] = (overhead / base if base else 0.0, "ratio")
    return metrics


def measure(workload, args, tracer):
    """Set-ups, then rounds until the next would pass --seconds, then
    set-ups again; with a tracer, untraced and traced rounds alternate."""
    setups = []
    for _ in range(SETUP_REPS):
        span, mods, menu, rng = timed_setup(workload, args.seed)
        setups.append(span)
    oracles = {req.label: workload.oracle(req) for req in menu}
    # keep the oracles' objects out of the collector's reach, so that
    # collections during requests cost what the program's own objects cost
    gc.freeze()

    run = Run(workload, mods, oracles)
    pattern = (False, True) if tracer else (False,)
    traced, untraced = set(), set()
    start = perf_counter()
    while True:
        for trace_this in pattern:
            order = rng.sample(menu, len(menu))
            if trace_this:
                traced.add(len(run.round_times))
                tracer.install()
                try:
                    run.round(order, tracer)
                finally:
                    tracer.uninstall()
            else:
                untraced.add(len(run.round_times))
                run.round(order)
        done = len(run.round_times)
        projected = (perf_counter() - start) * (done + len(pattern)) / done
        if done >= MIN_ROUNDS and projected > args.seconds:
            break
    for _ in range(SETUP_REPS):
        setups.append(timed_setup(workload, args.seed)[0])
    return run, menu, setups, traced, untraced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "qkbonacci" / "__init__.py").is_file():
        print(f"error: no qkbonacci sources under {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    with Gauge() as gauge:
        run, menu, setups, traced, untraced = measure(workload, args, tracer)
    run.scale(gauge)
    setups = [gauge.scaled(*span) for span in setups]

    unexpected = [s for s in run.samples
                  if s.outcome != "ok" and not workload.known_defect(s.request)]
    for s in unexpected[:10]:
        print(f"unexpected {s.outcome}: {s.request.label}: {s.error!r}", file=sys.stderr)
    failed = sum(s.outcome != "ok" for s in run.samples)
    summary = summarize(run.select(untraced))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        metrics = layer_metrics(run, tracer, traced, untraced)
    else:
        metrics = {
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "latency_p50_ms": (summary["latency_p50_ms"], "ms"),
            "latency_p90_ms": (summary["latency_p90_ms"], "ms"),
            "correct_ratio": ((len(run.samples) - failed) / len(run.samples), "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    result = {
        "correct": not unexpected,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    slots = per_slot(run.select(untraced))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "rounds": len(run.round_times),
        "traced_rounds": sorted(traced), "round_seconds": run.round_times,
        "setup_seconds": setups, "menu_size": len(menu),
        "correct_requests_per_pass": summary["correct_requests"],
        "probe_median_s": statistics.median(gauge.probes),
        "unscaled": summarize(run.select(untraced), scaled=False),
        "failed_ratio": failed / len(run.samples),
        "known_defects_per_round": sum(map(workload.known_defect, menu)),
        "result": result, "per_kind": per_kind(run.samples),
        "roadmap_rows_scaled_s": {row: slots.get(slot, {}).get("scaled_s")
                                   for row, slot in workload.roadmap_rows.items()},
        "slots": slots,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
