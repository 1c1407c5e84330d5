"""Layer spans recorded from outside the package, and the arithmetic on them.

`Tracer.install()` imports every module of `qaoa_landscape`, wraps each public
function defined in a layer module, and rebinds the wrapper at every module
attribute that held the original (its binding sites).  Calls made through
`from .landscape import f1_closed`, through module globals and through
`_kernels.apply_mixer` are therefore all seen, and the wrapped set follows
the package as functions are added, renamed or deleted.  The package itself
is not edited; `uninstall()` puts the originals back.

A layer is the module that defines a function (`_kernels.*` is `kernels`).
`core` holds the value types and small helpers every layer calls, so its time
stays in the caller's self time.

Each span records its name, layer, parent span, start and end, and a few work
facts read from its arguments or result at the boundary.  A span's self time
is its duration minus the part of it that child spans cover.  A layer's entry
span is one whose parent lies in another layer (or that has none); the self
time of same-layer descendants is charged to their entry span, so nested
calls inside one layer are neither lost nor counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import pkgutil
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

PACKAGE = "qaoa_landscape"
LAYERS = (
    "problems",
    "structure",
    "kernels",
    "landscape",
    "analytic",
    "optimize",
    "experiments",
    "storage",
    "cli",
)
UNTRACED_MODULES = ("core",)

NO_PARENT = -1


class Span(NamedTuple):
    name: str
    layer: str
    parent: int  # index into the span list, NO_PARENT at the top
    start: float
    end: float
    facts: tuple | None  # (kind, amount, ...) read at the boundary


# ---------------------------------------------------------------------------
# computed work of the two kernels, from array sizes


def pairwise_bytes(m: int, n: int) -> int:
    """Bytes of the arrays the pairwise-profile kernel touches for m states.

    The m uint64 input states, the m x m int64 distance matrix it
    materialises, and the (m, n+1) int64 profile matrix it returns.  Cache
    misses are ignored: these bytes are computed, not measured.
    """
    return 8 * m + 8 * m * m + 8 * m * (n + 1)


def mixer_updates(n: int) -> int:
    """Amplitude updates of one mixer application: n passes over 2^n amplitudes."""
    return n << n


def mixer_bytes(n: int) -> int:
    """Bytes one mixer application moves: each pass reads and writes every
    complex128 amplitude once (computed, not measured)."""
    return 2 * 16 * mixer_updates(n)


# ---------------------------------------------------------------------------
# statistics


TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float] | None:
    """(p, value) of the highest percentile with at least ten samples beyond it.

    Uses the nearest-rank value, so `len(samples) - rank` samples lie beyond
    it; returns None when even the median has fewer than ten beyond it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(round(p * count / 100.0, 9)))  # 99.9% of 10000 is 9990
        if count - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent != NO_PARENT:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(span.start, span.end, children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def entry_spans(spans: list[Span]) -> list[int]:
    """For each span, the index of the span through which its layer was entered."""
    entry = []
    for i, span in enumerate(spans):
        parent = span.parent
        if parent != NO_PARENT and spans[parent].layer == span.layer:
            entry.append(entry[parent])
        else:
            entry.append(i)
    return entry


# work at the layer boundaries, beside each layer's self time and calls
COUNTERS = (
    "kernels.pairwise_s", "kernels.pairwise_pairs", "kernels.pairwise_bytes",
    "kernels.mixer_s", "kernels.mixer_updates", "kernels.mixer_bytes",
    "structure.targets", "structure.pairs",
    "landscape.grid_s", "landscape.grid_points",
    "landscape.point_s", "landscape.point_evals", "landscape.statevectors",
    "optimize.searches", "optimize.objective_evals",
    "experiments.shots_s", "experiments.shots",
    "problems.instances",
    "storage.read_s", "storage.read_bytes", "storage.write_s", "storage.write_bytes",
)


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer times and counts from the spans of `wall_s` seconds of commands.

    Kernel times are kernel self times; grid, point and storage times are the
    self time of their layer segment; experiments.shots_s is the whole time
    spent drawing shots, statevector preparation included.
    """
    own = self_times(spans)
    entry = entry_spans(spans)
    exclusive = defaultdict(float)  # entry span -> self time of its layer segment
    for i, t in enumerate(own):
        exclusive[entry[i]] += t

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    out.update(dict.fromkeys(COUNTERS, 0))
    enumerations = accepted = 0

    for i, span in enumerate(spans):
        layer, facts = span.layer, span.facts
        if layer in LAYERS:
            out[f"{layer}.self_s"] += own[i]
            if entry[i] == i:
                out[f"{layer}.calls"] += 1
        if facts is None:
            continue
        kind = facts[0]
        if kind == "pairwise":
            m, n = facts[1], facts[2]
            out["kernels.pairwise_s"] += own[i]
            out["kernels.pairwise_pairs"] += m * m
            out["kernels.pairwise_bytes"] += pairwise_bytes(m, n)
        elif kind == "mixer":
            n = facts[1]
            out["kernels.mixer_s"] += own[i]
            out["kernels.mixer_updates"] += mixer_updates(n)
            out["kernels.mixer_bytes"] += mixer_bytes(n)
            if span.parent != NO_PARENT and spans[span.parent].layer == "landscape":
                out["landscape.statevectors"] += 1
        elif kind == "targets":
            out["structure.targets"] += facts[1]
            out["structure.pairs"] += facts[1] ** 2
        elif kind == "shots":
            out["experiments.shots_s"] += span.end - span.start
            out["experiments.shots"] += facts[1]
        elif kind == "enumerate":
            enumerations += 1
            accepted += facts[1]
        elif entry[i] != i:
            continue  # the remaining kinds count once, at the layer boundary
        elif kind == "grid":
            out["landscape.grid_s"] += exclusive[i]
            out["landscape.grid_points"] += facts[1]
        elif kind == "point":
            out["landscape.point_s"] += exclusive[i]
            out["landscape.point_evals"] += 1
        elif kind == "search":
            out["optimize.searches"] += 1
            out["optimize.objective_evals"] += facts[1]
        elif kind == "instances":
            out["problems.instances"] += facts[1]
        elif kind in ("read", "write"):
            out[f"storage.{kind}_s"] += exclusive[i]
            out[f"storage.{kind}_bytes"] += facts[1]

    # no enumeration means no candidate was ever rejected
    out["problems.accept_ratio"] = accepted / enumerations if enumerations else 1.0
    out["trace.wall_s"] = wall_s
    out["trace.self_share"] = sum(own) / wall_s if wall_s > 0 else 0.0
    return out


# ---------------------------------------------------------------------------
# work facts, read at each boundary


def _bound(signature, args, kwargs) -> dict:
    """Arguments by parameter name; empty if the call does not fit the signature."""
    try:
        return signature.bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def _kernel_probe(fn):
    name = fn.__name__
    signature = inspect.signature(fn)
    if "pairwise" in name:
        def probe(args, kwargs, result):
            bound = _bound(signature, args, kwargs)
            if "states" not in bound or "n" not in bound:
                return None
            return ("pairwise", len(bound["states"]), int(bound["n"]))
    elif "mixer" in name:
        def probe(args, kwargs, result):
            n = _bound(signature, args, kwargs).get("n")
            return None if n is None else ("mixer", int(n))
    else:
        return None
    return probe


def _landscape_probe(fn):
    def probe(args, kwargs, result):
        if isinstance(result, (float, np.floating)):
            return ("point",)
        if isinstance(result, np.ndarray) and result.dtype.kind == "f":
            return ("grid", int(result.size))
        return None
    return probe


def _optimize_probe(fn):
    def probe(args, kwargs, result):
        evaluations = getattr(result, "evaluations", None)
        return None if evaluations is None else ("search", int(evaluations))
    return probe


def _structure_probe(fn):
    def probe(args, kwargs, result):
        t_size = getattr(result, "t_size", None)
        return None if t_size is None else ("targets", int(t_size))
    return probe


def _problems_probe(fn):
    if fn.__name__.startswith("enumerate"):
        return lambda args, kwargs, result: ("enumerate", int(result is not None))

    def probe(args, kwargs, result):
        instances = getattr(result, "instances", None)
        return None if instances is None else ("instances", len(instances))
    return probe


def _storage_probe(fn):
    signature = inspect.signature(fn)

    def probe(args, kwargs, result):
        paths = [
            value for value in _bound(signature, args, kwargs).values()
            if isinstance(value, (str, os.PathLike)) and os.path.isfile(value)
        ]
        if not paths:
            return None
        size = sum(os.path.getsize(p) for p in paths)
        # loaders return what they read; writers return None
        return ("write" if result is None else "read", size)
    return probe


def _experiments_probe(fn):
    signature = inspect.signature(fn)
    if "shots" not in signature.parameters:
        return None

    def probe(args, kwargs, result):
        if not isinstance(result, (int, np.integer)) or isinstance(result, bool):
            return None
        shots = _bound(signature, args, kwargs).get("shots")
        return None if shots is None else ("shots", int(shots))
    return probe


PROBES = {
    "kernels": _kernel_probe,
    "landscape": _landscape_probe,
    "optimize": _optimize_probe,
    "structure": _structure_probe,
    "problems": _problems_probe,
    "storage": _storage_probe,
    "experiments": _experiments_probe,
}


# ---------------------------------------------------------------------------
# the tracer


def layer_of(obj) -> str | None:
    """The layer that defines a callable, or None if it is not traced."""
    if isinstance(obj, type) or not callable(obj):
        return None
    module = getattr(obj, "__module__", None) or ""
    name = getattr(obj, "__name__", "") or ""
    parts = module.split(".")
    if parts[0] != PACKAGE or len(parts) < 2 or name.startswith("_"):
        return None
    layer = parts[1].lstrip("_")
    return None if layer in UNTRACED_MODULES else layer


def package_modules() -> list:
    """The package and every submodule that imports here (optional ones may not)."""
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.walk_packages(package.__path__, PACKAGE + "."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass  # an optional compiled module that is not built
    return [m for name, m in sorted(sys.modules.items())
            if (name == PACKAGE or name.startswith(PACKAGE + ".")) and m is not None]


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []  # (module, attribute, original)

    def install(self) -> int:
        """Wrap every traced function at each binding site; returns the count."""
        wrappers = {}
        for module in package_modules():
            for attr, obj in list(vars(module).items()):
                layer = layer_of(obj)
                if layer is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                self._restore.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        return len(wrappers)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        make_probe = PROBES.get(layer)
        try:
            probe = make_probe(fn) if make_probe is not None else None
        except (TypeError, ValueError):  # a compiled function without a signature
            probe = None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else NO_PARENT
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(name, layer, parent, start, clock(), None)
                raise
            finally:
                stack.pop()
            facts = None if probe is None else probe(args, kwargs, result)
            spans[index] = Span(name, layer, parent, start, clock(), facts)
            return result

        return traced


def write_spans(spans: list[Span], path) -> None:
    """One CSV row per span: index, parent, name, start and end in seconds."""
    origin = spans[0].start if spans else 0.0
    with open(path, "w") as out:
        out.write("index,parent,name,start_s,end_s\n")
        for i, s in enumerate(spans):
            out.write(f"{i},{s.parent},{s.name},{s.start - origin:.9f},{s.end - origin:.9f}\n")
