"""Span tracer for the krylovgrowth layers, installed from outside the library.

Each layer's public functions on the CLI path are wrapped, and every name in
a ``krylovgrowth`` module namespace that refers to one of them is rebound to
the wrapper. ``cli`` binds names with ``from .x import``, so patching only
the defining module would miss those calls. A function a later version
removes is skipped and reports 0 calls.

A span is (function key, start, end, parent span, invocation). Spans stay in
memory until :meth:`Tracer.dump`. A function's self time is its span time
minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional

PACKAGE = "krylovgrowth"

# Public functions on the CLI paths, by layer (``errors`` does no work).
# ``bch`` is on no CLI path today, and the ``verify`` path (``cli.verify``,
# ``fock.evolve_state``, ...) has no workload; both stay wrapped, reading 0,
# so that a later workload or route through them shows up.
LAYERS: Dict[str, tuple] = {
    "cli": ("main", "run_sweep", "verify", "rows_to_csv", "rows_to_json"),
    "algebra": ("build_liouvillian",),
    "fock": ("build_ladders", "matrix_bandwidth", "evolve_state", "guard_band_mass"),
    "lanczos": ("lanczos_tridiagonalize", "propagate_chain", "chain_complexity"),
    "coherent": (
        "closed_form_params", "phi_zero", "phi_series", "moment_n",
        "complexity_closed", "schrodinger_complexity_t", "autocorrelator_t",
        "autocorrelator_alt_closed_form", "mehler_normalization_check",
        "late_time_growth_exponent",
    ),
    "bch": ("decompose_exponential", "apply_displacement_squeeze", "bogoliubov"),
}

# (name, unit, better) of the counters; work counts first, then failures.
COUNTERS = (
    ("algebra.L_bytes", "B", "lower"),
    ("fock.evolve_dim3", "count", "lower"),
    ("lanczos.sites", "count", "lower"),
    ("coherent.terms", "count", "lower"),
    ("cli.out_bytes", "B", "lower"),
    ("fock.overflow", "count", "lower"),
    ("lanczos.edge_leak", "count", "lower"),
    ("coherent.nonconvergent", "count", "lower"),
    ("cli.uncaught", "count", "lower"),
)

# Exceptions counted where they leave a function: key -> (class name, counter).
_RAISES = {
    "fock.evolve_state": ("TruncationOverflow", "fock.overflow"),
    "lanczos.propagate_chain": ("EdgeLeak", "lanczos.edge_leak"),
    "coherent.phi_series": ("NonConvergent", "coherent.nonconvergent"),
}

# Functions whose per-call times are grouped by a size, for the comparison
# with the ROADMAP baseline table: key -> size of (args, result).
def _first_dim(args, result):
    return getattr(args[0], "dim", None) if args else None


def _result_dim(args, result):
    return getattr(result, "dim", None)


def _k_max(args, result):
    return getattr(result, "k_max", None)


SIZED = {
    "algebra.build_liouvillian": _result_dim,
    "fock.evolve_state": _first_dim,
    "lanczos.lanczos_tridiagonalize": _first_dim,
    "coherent.phi_series": _k_max,
}


def _count_work(counts: Dict[str, float], key: str, args, result) -> None:
    """Add the work counts of one call (result is None when it raised)."""
    if key == "algebra.build_liouvillian":
        counts["algebra.L_bytes"] += getattr(getattr(result, "entries", None), "nbytes", 0)
    elif key == "fock.evolve_state":
        dim = _first_dim(args, result)
        counts["fock.evolve_dim3"] += dim ** 3 if dim else 0
    elif key == "lanczos.lanczos_tridiagonalize":
        counts["lanczos.sites"] += getattr(result, "m", 0)
    elif key == "coherent.phi_series" and result is not None:
        counts["coherent.terms"] += getattr(result, "k_max", -1) + 1


def function_keys() -> List[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_specs() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for key in function_keys():
        specs.append((f"{key}.self_s", "s", "lower"))
        specs.append((f"{key}.calls", "count", "lower"))
    specs.extend(COUNTERS)
    specs.append(("fock.overflow_ratio", "1", "lower"))
    specs.append(("trace_overhead", "1", "lower"))
    return specs


def _is_a(exc: BaseException, class_name: str) -> bool:
    return any(cls.__name__ == class_name for cls in type(exc).__mro__)


class Tracer:
    """Wraps functions and records one span per call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []  # [key, start, end, parent, invocation, size]
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {name: 0 for name, _, _ in COUNTERS}
        self.invocation = 0
        self.missing: List[str] = []
        self.patches: List[tuple] = []  # (module, attribute, original)

    def wrap(self, key: str, fn: Callable) -> Callable:
        raises = _RAISES.get(key)
        sized = SIZED.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [key, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.invocation, None]
            self.spans.append(span)
            self.stack.append(idx)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = self.clock()
                self.stack.pop()
                _count_work(self.counts, key, args, None)
                if raises and _is_a(exc, raises[0]):
                    self.counts[raises[1]] += 1
                raise
            span[2] = self.clock()
            self.stack.pop()
            _count_work(self.counts, key, args, result)
            if sized:
                span[5] = sized(args, result)
            return result

        return traced

    def install(self, package: str = PACKAGE) -> None:
        """Wrap every listed function and rebind all references to it."""
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.missing.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for modname, mod in list(sys.modules.items()):
                    if mod is None or not (modname == package or modname.startswith(package + ".")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self.patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every name :meth:`install` rebound."""
        for mod, attr, fn in reversed(self.patches):
            setattr(mod, attr, fn)
        self.patches.clear()

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        return {
            "functions": aggregate(self.spans),
            "sized": sized_times(self.spans),
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def aggregate(spans: List[list]) -> Dict[str, dict]:
    """Per function key: calls, self seconds and total seconds."""
    child = [0.0] * len(spans)
    for key, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, dict] = {}
    for i, (key, start, end, *_rest) in enumerate(spans):
        row = out.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        row["total_s"] += end - start
    return out


def sized_times(spans: List[list]) -> Dict[str, Dict[str, List[float]]]:
    """Per-call durations of the sized functions, grouped by size."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for key, start, end, _parent, _inv, size in spans:
        if key in SIZED and size is not None:
            out.setdefault(key, {}).setdefault(str(size), []).append(end - start)
    return out


def layer_metrics(functions: Dict[str, dict], counts: Dict[str, float],
                  trace_overhead: Optional[float]) -> Dict[str, float]:
    """Flatten an aggregate into the per-layer metric values."""
    values: Dict[str, float] = {}
    for layer, fns in LAYERS.items():
        values[f"{layer}.self_s"] = sum(
            functions.get(f"{layer}.{fn}", {}).get("self_s", 0.0) for fn in fns)
    for key in function_keys():
        row = functions.get(key, {})
        values[f"{key}.self_s"] = row.get("self_s", 0.0)
        values[f"{key}.calls"] = row.get("calls", 0)
    values.update(counts)
    evolves = functions.get("fock.evolve_state", {}).get("calls", 0)
    values["fock.overflow_ratio"] = counts["fock.overflow"] / evolves if evolves else 0.0
    values["trace_overhead"] = trace_overhead
    return values
