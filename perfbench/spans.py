"""Layer spans recorded from outside the package.

`Tracer.install` replaces every module binding of a layer's public
functions (``lawcheck`` imports ``dominant_root`` by name, ``cli`` imports
``term_table``, and so on) with a wrapper that records a span: name,
start, end, parent span and request id.  Spans stay in memory and are
written out once, at the end of the run.

The `DyadicInterval` methods and the polynomial sign tests run millions
of times per request, so they are not spans: each call is counted, and
the time of the outermost call is charged to the enclosing span as leaf
time.  A span's self time is its duration minus its child spans and its
leaf time.
"""
from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "qkbonacci"
# module -> layer name; the layers are the package modules
LAYERS = {
    "qkbonacci.cli": "cli",
    "qkbonacci.lawcheck": "lawcheck",
    "qkbonacci.numerics.binet": "numerics.binet",
    "qkbonacci.numerics.roots": "numerics.roots",
    "qkbonacci.numerics.polynomials": "numerics.polynomials",
    "qkbonacci.numerics.dyadic": "numerics.dyadic",
    "qkbonacci.sequences": "sequences",
}
DYADIC = "numerics.dyadic"
POLYNOMIALS = "numerics.polynomials"
DYADIC_OPS = ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__pow__", "reciprocal", "half",
              "rescaled", "from_int", "from_fraction", "from_bounds", "sqrt_of_int")
DYADIC_COMPARES = ("contains", "strictly_below", "strictly_above",
                   "is_positive", "is_negative")
DYADIC_VIEWS = ("lo", "hi", "width", "midpoint")
RESULT_BITS = ("sequences.term_definition", "sequences.term_shortcut",
               "sequences.term_fast")


class Tracer:
    """Spans and counters of one run; `install` before each traced round
    and `uninstall` after it."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, request id, leaf seconds]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._leaf_depth = 0
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _span(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if name == "numerics.roots.dominant_root":
                counts[name + ".bits_total"] += args[1] if len(args) > 1 else kwargs["bits"]
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name in RESULT_BITS:
                counts["sequences.result_bits"] += result.bit_length()
            return result

        return wrapper

    def _span_generator(self, fn, name):
        # each resumption of the generator is one span
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    index = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item

            return resumed()

        return wrapper

    def _leaf(self, fn, key, layer):
        counts, leaf_s, spans, stack = self.counts, self.leaf_s, self.spans, self._stack

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if self._leaf_depth:
                return fn(*args, **kwargs)
            self._leaf_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._leaf_depth = 0
                leaf_s[layer] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for module_name, layer in LAYERS.items():
            module = sys.modules[module_name]
            for attr in getattr(module, "__all__", ["main"]):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module_name:
                    name = f"{layer}.{attr}"
                    make = (self._span_generator if inspect.isgeneratorfunction(fn)
                            else self._span)
                    wrappers[id(fn)] = make(fn, name)
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

        dyadic = sys.modules["qkbonacci.numerics.dyadic"].DyadicInterval
        for attr in DYADIC_OPS:
            self._patch_method(dyadic, attr, f"{DYADIC}.ops", DYADIC)
        for attr in DYADIC_COMPARES:
            self._patch_method(dyadic, attr, f"{DYADIC}.compares", DYADIC)
        for attr in DYADIC_VIEWS:
            self._patch_method(dyadic, attr, f"{DYADIC}.fraction_views", DYADIC)
        poly = sys.modules["qkbonacci.numerics.polynomials"]._IntPoly
        self._patch_method(poly, "sign_at_dyadic", f"{POLYNOMIALS}.sign_tests", POLYNOMIALS)
        self._patch_method(poly, "eval", f"{POLYNOMIALS}.evals", POLYNOMIALS)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr, key, layer) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            wrapped = property(self._leaf(raw.fget, key, layer))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._leaf(raw.__func__, key, layer))
        else:
            wrapped = self._leaf(raw, key, layer)
        self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def self_times(self) -> Counter:
        """Self seconds per span name and per layer (leaf layers included)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for index, (name, start, end, _, _, leaf) in enumerate(self.spans):
            own = (end - start) - child[index] - leaf
            out[name] += own
            out[name.rsplit(".", 1)[0]] += own
        for layer, seconds in self.leaf_s.items():
            out[layer] += seconds
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request, leaf in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "request": request, "leaf_s": leaf,
                }) + "\n")
