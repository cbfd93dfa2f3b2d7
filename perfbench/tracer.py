"""Spans around the public calls into each gcdheights module.

The tracer wraps functions at their module boundary from the outside: it
replaces the function object in every loaded ``gcdheights`` module that holds
it, so both ``gcdheights.mulgrp.cz_classify`` and the name imported into
``gcdheights.experiments`` record a span.  The program itself is not changed.

Spans are kept in memory as ``[name, start, end, parent, request]`` and
written out by ``write``.  Self time of a span is its duration minus the
durations of its direct children.  Tracing is only valid at ``jobs=1``: spans
recorded in pool workers would stay in the workers.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, function) pairs that get a span.
SPANNED = [
    ("cli", "main"),
    ("experiments", "run"),
    ("experiments", "summarize"),
    ("experiments", "render_csv"),
    ("experiments", "render_json"),
    ("mulgrp", "gcd_pair"),
    ("mulgrp", "cz_classify"),
    ("mulgrp", "s_unit_enumerate"),
    ("elliptic", "add"),
    ("elliptic", "denominator_D"),
    ("elliptic", "naive_height"),
    ("elliptic", "canonical_height"),
    ("arith", "factor"),
    ("gcd_height", "check_pn"),
    ("gcd_height", "check_mixed"),
]
# Spans that enclose other spans, so that self time differs from total time.
NESTING = {"cli.main", "experiments.run", "elliptic.canonical_height",
           "gcd_height.check_mixed"}
# Cheap calls that only get a call counter.
COUNTED = [("arith", "is_prime")]
# Classes whose constructions get a span.
CONSTRUCTED = [("arith", "PrimeSet")]


def span_names() -> list[str]:
    return [f"{m}.{f}" for m, f in SPANNED + CONSTRUCTED]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, perf_counter(), 0.0, parent, self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module: str, attr: str, make) -> None:
        """Replace ``attr`` wherever a gcdheights module holds the same object."""
        original = getattr(sys.modules[f"gcdheights.{module}"], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "gcdheights" or name.startswith("gcdheights."):
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        self.counts["arith.factor.incomplete"] = 0

        def on_factor(result) -> None:
            if not result.complete:
                self.counts["arith.factor.incomplete"] += 1

        for module, fn in SPANNED:
            hook = on_factor if (module, fn) == ("arith", "factor") else None
            self._patch(module, fn,
                        lambda f, n=f"{module}.{fn}", h=hook: self._span(n, f, h))
        for module, fn in COUNTED:
            self._patch(module, fn, lambda f, n=f"{module}.{fn}": self._counter(n, f))
        for module, cls_name in CONSTRUCTED:
            cls = getattr(sys.modules[f"gcdheights.{module}"], cls_name)
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._span(f"{module}.{cls_name}", cls.__init__)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """calls and total seconds per spanned name, self seconds where spans nest."""
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            if name in NESTING:
                out[f"{name}.self_s"] = 0.0
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            if name in NESTING:
                out[f"{name}.self_s"] += own
        for name, n in self.counts.items():
            out[name if name.endswith("incomplete") else f"{name}.calls"] = n
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
