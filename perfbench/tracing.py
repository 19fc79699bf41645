"""Span tracing of escapemaps, installed from the benchmark's side.

``Tracer.install`` replaces each traced public function at every binding
inside the ``escapemaps`` package (the defining module, the modules that
imported it by name, and the package namespace) and wraps the traced
``MarkovMap`` methods on the class; ``uninstall`` puts the originals back.
Benchmark code must therefore call the library through module attributes
(``em.synthesize(...)``), never through names bound at its own import.

A span records (name, start, end, parent span, operation id).  Spans stay in
memory until the run ends.  The three hot ``MarkovMap`` point queries are
only counted: they run hundreds of thousands of times per pass, and their
time is part of the self time of whichever traced call made them.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

SPANNED = {
    "synthesis": ("feasibility_check", "perron_widths", "synthesize"),
    "transitions": ("transition_data", "is_primitive"),
    "orbits": ("classify_point", "build_orbit_tree"),
    "operators": (
        "realize",
        "check_relations",
        "image_decomposition_check",
        "faithfulness_certificate",
    ),
    "equivalence": ("compare_points", "classify_corpus"),
    "cli": ("main",),
}
SPANNED_METHODS = ("validate",)
COUNTED_METHODS = ("locate", "interval_image", "branch_inverse")


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.op: object = None
        self.active = True
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def activated(self):
        """Trace the calls made inside the block, even where the caller has
        switched tracing off."""
        was, self.active = self.active, True
        try:
            yield
        finally:
            self.active = was

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import escapemaps.cli  # noqa: F401  (loads every layer module)
        from escapemaps.maps import MarkovMap

        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == "escapemaps" or name.startswith("escapemaps.")
        ]
        for layer, names in SPANNED.items():
            home = sys.modules[f"escapemaps.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span_wrapper(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        for mname in SPANNED_METHODS:
            original = vars(MarkovMap)[mname]
            self._patch(MarkovMap, mname, original, self._span_wrapper(f"maps.{mname}", original))
        for mname in COUNTED_METHODS:
            original = vars(MarkovMap)[mname]
            self._patch(MarkovMap, mname, original, self._count_wrapper(f"maps.{mname}", original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.op)
            tracer._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        tracer = self
        calls = self.calls

        def counted(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- sizes read off results -----------------------------------------

    def maximum(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _observe(self, name: str, result) -> None:
        c = self.counters
        if name == "synthesis.feasibility_check":
            c["synthesis.checked"] += 1
            c["synthesis.feasible"] += int(result.feasible)
        elif name == "synthesis.synthesize":
            self.maximum(
                "synthesis.coef_bits_max",
                max(max(_bits(b.slope), _bits(b.intercept)) for b in result.map.branches),
            )
        elif name == "orbits.classify_point":
            steps = getattr(result, "escape_time", None)
            if steps is None:
                steps = getattr(result, "hit_step", None)
            if steps is None:
                steps = result.checked_depth
            c["orbits.forward_steps"] += steps
            point = getattr(result, "final_point", getattr(result, "hit_point", None))
            if point is not None:
                self.maximum("orbits.point_bits_max", _bits(point))
        elif name == "orbits.build_orbit_tree":
            c["orbits.window_nodes"] += result.node_count
            self.maximum("orbits.point_bits_max", max(_bits(p) for p in result.points))
        elif name == "operators.realize":
            c["operators.basis_size"] += result.dim
        elif name == "operators.check_relations":
            c["operators.relation_checks"] += len(result.checks)
        elif name == "equivalence.compare_points":
            verdict = result.verdict
            c["equivalence.refinement_rounds"] += getattr(
                verdict, "rounds", getattr(verdict, "separating_round", 0)
            )
            c["equivalence.intertwiner_pairs"] += len(getattr(result.intertwiner, "pairs", ()))
        elif name == "equivalence.classify_corpus":
            c["equivalence.refinement_rounds"] += result.rounds

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        """Self time and call count per span name, plus counters and maxima.
        Self time is a span's duration minus that of its direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls = Counter(self.calls)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[sid]
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


def write_spans(path, tag: str, spans) -> None:
    """Append spans to a JSON-lines file, one
    [process tag, span id, name, start, end, parent, operation] per line."""
    with open(path, "a") as fh:
        for sid, (name, start, end, parent, op) in enumerate(spans):
            fh.write(json.dumps([tag, sid, name, start, end, parent, op]) + "\n")


def merge(summaries) -> dict:
    """Combine summaries of several processes: sums, except maxima."""
    out = {"self_s": Counter(), "calls": Counter(), "counters": Counter(), "maxima": {}}
    for s in summaries:
        for key in ("self_s", "calls", "counters"):
            out[key].update(s[key])
        for key, value in s["maxima"].items():
            out["maxima"][key] = max(out["maxima"].get(key, 0), value)
    return out
