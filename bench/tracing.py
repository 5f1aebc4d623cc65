"""Layer tracing installed from outside the package.

`Recorder.install` replaces every public function of the layer modules with a
wrapper that records a span, in every `curvejac` namespace that binds the
function (for example `rank_exact` is bound in linalg, incidence,
construction and cli), so module-internal calls are seen as well.  No file of
the package changes.  Spans (name, start, end, parent) stay in memory and are
written out by `write` when the op ends.

A layer is the module of the innermost wrapped function on the stack; the
time of private helpers and methods counts towards it.  Fingerprints and
entry bit lengths are taken outside the measured span, in a span of the
pseudo-layer `trace`, so that no layer is charged for them and the self times
of all layers still sum to the op's traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from importlib import import_module
from time import perf_counter

LAYERS = ("cli", "construction", "incidence", "poly", "linalg")
ELIMINATIONS = ("linalg.rank_exact", "linalg.kernel_exact", "linalg.det_exact")
COMPOSE = "poly.compose_with_curve"
PROBE = "trace.probe"


def _entry_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, outermost]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.matrices: list[tuple[int, int]] = []  # (fingerprint, max entry bits)
        self.compositions: list[int] = []  # fingerprints

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "curvejac" or name.startswith("curvejac.")]
        for layer in LAYERS:
            module = import_module(f"curvejac.{layer}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)

    def _wrap(self, name: str, fn):
        if name in ELIMINATIONS:
            probe = self._probe_matrix
        elif name == COMPOSE:
            probe = self._probe_composition
        else:
            probe = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                self._run(PROBE, probe, args)
            return self._run(name, fn, *args, **kwargs)

        return wrapper

    def _run(self, name: str, fn, /, *args, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, not self.active[name]]
        self.spans.append(span)
        self.stack.append(idx)
        self.active[name] += 1
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.active[name] -= 1
            self.stack.pop()

    def _probe_matrix(self, args) -> None:
        m = args[0]
        bits = max((_entry_bits(x) for x in m.entries), default=0)
        self.matrices.append((hash((m.rows, m.cols, m.entries)), bits))

    def _probe_composition(self, args) -> None:
        f, comps = args[0], args[1]
        key = (frozenset(f.terms.items()), tuple(c.coeffs for c in comps))
        self.compositions.append(hash(key))

    def summary(self) -> dict:
        """Counts, outermost inclusive times and per-layer self times."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _, outermost), inner in zip(self.spans, child_time):
            calls[name] += 1
            if outermost:
                incl[name] += end - start
            self_s[name.split(".")[0]] += end - start - inner
        return {
            "calls": dict(calls),
            "incl_s": dict(incl),
            "self_s": dict(self_s),
            "root_s": sum(end - start for _, start, end, parent, _ in self.spans if parent < 0),
            "matrices": len(self.matrices),
            "distinct_matrices": len({fp for fp, _ in self.matrices}),
            "max_entry_bits": max((b for _, b in self.matrices), default=0),
            "compositions": len(self.compositions),
            "distinct_compositions": len(set(self.compositions)),
        }

    def write(self, path: str, op_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans]}, fh)
