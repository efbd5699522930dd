"""Outside-in tracing of the package's layers.

The tracer wraps public functions and methods of each module from the
benchmark's side, without touching the package's source. Modules import these
names directly (``from .exactmath import exact_rank``), so a function is
replaced in every loaded ``seshadri`` namespace that holds it, not only where
it is defined.

Each call records a span (layer, start, end, parent span, request id). Spans
stay in memory and are written out when the run ends. A layer's self time is
its span minus its direct child spans, minus the time the tracer spent
measuring sizes inside the span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional


def _cells(matrix) -> dict:
    return {"cells": matrix.rows * matrix.cols}


def _bits(x) -> int:
    """Bit size of a rational, or of the larger part of a + b*sqrt(D)."""
    if hasattr(x, "numerator"):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max(_bits(x.a), _bits(x.b))


def _rank_sizes(matrix) -> dict:
    bits = max((_bits(x) for row in matrix.entries for x in row), default=0)
    return {"cells": matrix.rows * matrix.cols, "max_bits": bits}


class _SystemSizes:
    """Ambient size of every linear system built, and which were built before."""

    def __init__(self):
        self.seen: set = set()

    def __call__(self, system) -> dict:
        key = (system.nvars, system.degree, system.constraints)
        fresh = key not in self.seen
        self.seen.add(key)
        return {"ambient": len(system.monomials), "distinct": int(fresh)}


# (layer, module, attribute path, size hook). The hook sees the call's
# arguments and result and returns counts to add to the layer; a count named
# max_* keeps its maximum instead.
def _layers():
    systems = _SystemSizes()
    return (
        ("cli.main", "seshadri.cli", "main", None),
        ("cli.emit", "seshadri.cli", "emit", lambda a, r: {"bytes": len(r.encode())}),
        ("jets.LinearSystem", "seshadri.jets", "LinearSystem.__init__", lambda a, r: systems(a[0])),
        ("jets.jet_separation", "seshadri.jets", "jet_separation", None),
        ("exactmath.exact_rank", "seshadri.exactmath", "exact_rank", lambda a, r: _rank_sizes(a[0])),
        ("exactmath.nullspace_basis", "seshadri.exactmath", "nullspace_basis", lambda a, r: _cells(a[0])),
        ("exactmath.rref", "seshadri.exactmath", "rref", lambda a, r: _cells(a[0])),
        ("exactmath.jet_coefficients", "seshadri.exactmath", "jet_coefficients", None),
        ("exactmath.WPolynomial.shift", "seshadri.exactmath", "WPolynomial.shift", None),
        ("exactmath.WPolynomial.substitute", "seshadri.exactmath", "WPolynomial.substitute", None),
        ("exactmath.parse_polynomial", "seshadri.exactmath", "parse_polynomial", None),
        ("exactmath.is_negative_definite", "seshadri.exactmath", "is_negative_definite", None),
        ("exactmath.solve_unique", "seshadri.exactmath", "solve_unique", None),
        ("valuations.galois_min_mult", "seshadri.valuations", "galois_min_mult", None),
        ("valuations.valuation_eval", "seshadri.valuations", "valuation_eval", None),
        ("valuations.izumi_check", "seshadri.valuations", "izumi_check", None),
        ("valuations.ideal_min_multiplicity", "seshadri.valuations", "ideal_min_multiplicity", None),
        ("surfaces.zariski_decomposition", "seshadri.surfaces", "zariski_decomposition", None),
        ("surfaces.ruled_surface_model", "seshadri.surfaces", "ruled_surface_model", None),
        ("surfaces.seshadri_at_marked_point", "seshadri.surfaces", "seshadri_at_marked_point", None),
        ("bounds.best_volume_bound", "seshadri.bounds", "best_volume_bound", None),
        ("bounds.grid_volume_bound_minimum", "seshadri.bounds", "grid_volume_bound_minimum", None),
        ("wps.wps_seshadri", "seshadri.wps", "wps_seshadri", None),
        ("wps.whs_record", "seshadri.wps", "whs_record", None),
        ("reproduce.run_reproduction", "seshadri.reproduce", "run_reproduction", None),
    )


class Tracer:
    """Installs span-recording wrappers while ``active()`` is entered."""

    def __init__(self):
        # span = (layer, start, end, parent index, request id, measuring time)
        self.spans: list[Optional[tuple]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple[object, str, object, object]] = []
        layers = _layers()
        self.layers = [name for name, *_ in layers]
        for name, module, path, hook in layers:
            self._plan(name, module, path, hook)

    def _plan(self, name: str, module: str, path: str, hook: Optional[Callable]):
        owner = importlib.import_module(module)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(name)
            return
        wrapper = self._wrap(name, original, hook)
        if owners:  # a method: patch the class
            self._patches.append((owner, attr, original, wrapper))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "seshadri" or mod_name.startswith("seshadri."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            measuring = 0.0
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    t0 = time.perf_counter()
                    for key, value in hook(args, result).items():
                        if key.startswith("max_"):
                            counts[name][key] = max(counts[name][key], value)
                        else:
                            counts[name][key] += value
                    measuring = time.perf_counter() - t0
                return result
            finally:
                stack.pop()
                spans[index] = (name, start, time.perf_counter(), parent, self._request, measuring)

        return wrapper

    @contextmanager
    def active(self, request_id: int):
        self._request = request_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def table(self) -> dict[str, float]:
        """Per-layer metrics: calls, self seconds and the size counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, measuring) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i] - measuring
        out: dict[str, float] = {}
        for name in self.layers:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            for key, value in self.counts[name].items():
                out[f"{name}.{key}"] = value
        built = calls["jets.LinearSystem"]
        distinct = out.pop("jets.LinearSystem.distinct", 0)
        out["jets.LinearSystem.distinct_ratio"] = distinct / built if built else 0.0
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, request, measuring in self.spans:
                record = {"layer": name, "start": start, "end": end, "parent": parent,
                          "request": request, "measuring": measuring}
                handle.write(json.dumps(record) + "\n")
