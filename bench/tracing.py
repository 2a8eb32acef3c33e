"""Per-layer tracing from outside the program: wrappers around metra's public functions.

``Tracer`` replaces each listed function, in its defining module and in every
metra module that imported it by name (``metra.congruence.check_pseudometric``
is the same object as ``metra.extmetric.check_pseudometric``), and in the
benchmark modules given as ``callers``, with a wrapper
that records a span: name, start, end and the enclosing span.  Self time is a
span's duration minus the time of the wrapped spans inside it.  The hottest
functions get a counting wrapper only.  Leaving the ``with`` block restores
every original.

Metric names: ``<module>.<function>.calls`` and ``<module>.<function>.self_ms``;
methods read ``<module>.<Class>.<method>``, with ``init`` for ``__init__``,
``hash`` for ``__hash__``, ``add`` for ``__add__``, and ``compare`` for the
five ordering and equality methods of ``ExtRat`` together.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from functools import wraps

SPANNED = {
    "extmetric": ["scaled_int_array", "pseudometric_from_scaled", "metric_identification",
                  "check_metric", "check_pseudometric", "hausdorff_distance",
                  "gromov_hausdorff", "SquareMatrix.__init__"],
    "congruence": ["closure_fixpoint", "join", "meet", "compose", "is_congruential",
                   "decompose_product", "grid_congruences"],
    "terms": ["enumerate_terms", "evaluate"],
    "algebra": ["MetricAlgebra.__init__", "product", "quotient", "generate_subalgebra",
                "kernel", "is_reflexive_quotient"],
    "filters": ["reduced_product", "pointwise_limit_metric"],
    "logic": ["free_algebra", "satisfies", "entails", "equicontinuity_check",
              "weak_compactness_search", "closure_suite"],
    "cli": ["parse_workspace", "run_workspace", "render_json"],
}
COUNTED = {
    "extmetric": ["SquareMatrix.get", "ExtRat.__init__", "ExtRat.__add__", "ExtRat.__eq__",
                  "ExtRat.__lt__", "ExtRat.__le__", "ExtRat.__gt__", "ExtRat.__ge__"],
    "terms": ["App.__hash__"],
    "logic": ["satisfies_under"],
}
SHORT = {"__init__": "init", "__hash__": "hash", "__add__": "add", "__eq__": "compare",
         "__lt__": "compare", "__le__": "compare", "__gt__": "compare", "__ge__": "compare"}
MAX_SPANS = 200_000


def metric_name(module: str, qualname: str) -> str:
    *owner, attr = qualname.split(".")
    return ".".join([module, *owner, SHORT.get(attr, attr)])


def span_names():
    return sorted({metric_name(m, q) for m, names in SPANNED.items() for q in names})


def count_names():
    return sorted({metric_name(m, q) for m, names in COUNTED.items() for q in names})


class Tracer:
    """Installs the wrappers on entry and removes them on exit."""

    def __init__(self, callers=()):
        self.callers = list(callers)
        self.calls = dict.fromkeys(span_names() + count_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.spans: list[tuple] = []
        self.opened = 0
        self.dropped = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        calls, self_s, spans, stack = self.calls, self.self_s, self.spans, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1][0] if stack else -1
            frame = [self.opened, 0.0]
            self.opened += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if len(spans) < MAX_SPANS:
                    spans.append((frame[0], parent, name, start, end))
                else:
                    self.dropped += 1
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _install(self, table, make):
        for module, names in table.items():
            mod = importlib.import_module(f"metra.{module}")
            for qualname in names:
                name = metric_name(module, qualname)
                if "." in qualname:
                    owner_name, attr = qualname.split(".")
                    owner = getattr(mod, owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, make(name, original))
                    continue
                original = getattr(mod, qualname)
                wrapper = make(name, original)
                holders = [m for k, m in sys.modules.items() if k == "metra" or k.startswith("metra.")]
                for other in holders + self.callers:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, original, wrapper)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def __enter__(self):
        self._install(SPANNED, self._spanned)
        self._install(COUNTED, self._counted)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, value in self.calls.items():
            out[f"{name}.calls"] = {"value": value, "unit": "count"}
        for name, value in self.self_s.items():
            out[f"{name}.self_ms"] = {"value": value * 1000.0, "unit": "ms"}
        return out

    def write(self, path) -> None:
        """Spans as JSON lines of [id, parent, name, start, end], after a header."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
