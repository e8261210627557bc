"""Span tracing of tourmat's layers, installed from outside the program.

The tracer wraps the public functions of each layer module where other code
looks them up: in the namespace of every tourmat module that imported them by
name, and on the defining module itself for calls made through a module
attribute (``experiments.montecarlo_rank``).  A few methods that other layers
call on the benchmarked paths are wrapped on their class.  A wrapper records a
span only when the call enters a layer from a different one, so a layer's
internal calls cost a pass-through and nothing else.

Spans are (name, start, end, parent, run id) rows kept in flat arrays, so a
million spans take a few tens of MiB; ``save`` writes them out once the
benchmark is done.  ``fields``, ``bounds`` and ``families`` are not wrapped:
their time lands in the self time of the layer that called them.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "experiments", "tournaments", "rng", "matrices", "rank", "report")

# Methods other layers call on the benchmarked paths.  Class methods are shared
# by every caller, so they are listed rather than wrapped wholesale: wrapping
# DenseMatrix.at would put a wrapper on every entry access inside matrices.
METHODS = {
    "matrices": ("DenseMatrix.raw_rows", "DenseMatrix.principal_submatrix"),
    "report": ("Report.to_json", "Report.to_csv"),
    "rng": ("ByteStream.take_bytes", "ByteStream.bits", "ByteStream.randrange",
            "ByteStream.shuffled"),
}

_clock = time.perf_counter


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[int, Counter] = {}
        self.run_id = -1
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, layer: str, qualname: str, fn):
        name_id = self._intern(f"{layer}.{qualname}")
        observe = _OBSERVERS.get(layer)
        stack = self._stack
        names, parents, runs = self.name, self.parent, self.run
        starts, ends = self.start, self.end
        # rng's own methods draw through take_bytes, so it counts every byte
        # drawn even when the call is internal to the layer.
        count_nested = qualname == "ByteStream.take_bytes"

        def enter(call, args, kwargs):
            if stack and stack[-1][1] == layer:
                result = call(*args, **kwargs)
                if count_nested:
                    self.counters[self.run_id]["rng.bytes"] += len(result)
                return result
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append((idx, layer))
            starts.append(_clock())
            try:
                result = call(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()
            if observe is not None:
                observe(self.counters[self.run_id], args, result)
            return result

        if inspect.isgeneratorfunction(fn):
            # One span per item: the generator's body runs inside next().
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = enter(next, (it,), {})
                    except StopIteration:
                        return
                    yield item
        else:
            def traced(*args, **kwargs):
                return enter(fn, args, kwargs)
        return traced

    def _set(self, obj, attr: str, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        """Wrap every layer's public functions and listed methods."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "tourmat" or name.startswith("tourmat.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"tourmat.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(layer, attr, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        for layer, qualnames in METHODS.items():
            mod = modules[f"tourmat.{layer}"]
            for qualname in qualnames:
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if inspect.isfunction(fn):  # a method renamed away reads as zero
                    self._set(cls, meth, self._wrap(layer, qualname, fn))

    def begin_run(self) -> int:
        """Start a new run id; spans and counters recorded from now on carry it."""
        self.run_id += 1
        self.counters[self.run_id] = Counter()
        return self.run_id

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results ----------------------------------------------------------

    def stats(self) -> dict:
        """Per run id: spans, wall time, and per-layer and per-name totals.

        A layer's self time is the duration of its spans minus the part their
        child spans cover; its busy time sums the spans that have no ancestor
        in the same layer.
        """
        layer_of = [n.split(".", 1)[0] for n in self.names]
        names, parents, runs = self.name, self.parent, self.run
        starts, ends = self.start, self.end
        ancestors = [frozenset()] * len(starts)
        extend = {}
        out = {}
        for i in range(len(starts)):
            run = out.get(runs[i])
            if run is None:
                run = out[runs[i]] = {
                    "spans": 0, "wall_s": 0.0, "calls": Counter(), "busy_s": Counter(),
                    "self_s": Counter(), "count_by_name": Counter(), "time_by_name": Counter()}
            dur = ends[i] - starts[i]
            layer = layer_of[names[i]]
            p = parents[i]
            if p < 0:
                run["wall_s"] += dur
            else:
                up = layer_of[names[p]]
                run["self_s"][up] -= dur
                key = (ancestors[p], up)
                if key not in extend:
                    extend[key] = ancestors[p] | {up}
                ancestors[i] = extend[key]
            run["spans"] += 1
            run["calls"][layer] += 1
            run["self_s"][layer] += dur
            if layer not in ancestors[i]:
                run["busy_s"][layer] += dur
            run["count_by_name"][self.names[names[i]]] += 1
            run["time_by_name"][self.names[names[i]]] += dur
        return out

    def save(self, path):
        """Write every recorded span as a numpy .npz archive."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 run=np.frombuffer(self.run, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _observe_rank(counters, args, result):
    """Count one elimination: its nominal k^3/3 operations and whether it was full rank."""
    m = args[0]
    k = args[1] if len(args) > 1 else min(m.n_rows, m.n_cols)
    if hasattr(result, "rank"):
        full = result.rank == k
    elif hasattr(result, "is_zero"):
        full = not result.is_zero()
    else:
        return
    counters["rank.eliminations"] += 1
    counters["rank.full_rank"] += full
    counters["rank.ops_computed"] += k ** 3 / 3


def _observe_report(counters, args, result):
    counters["report.bytes"] += len(result.encode("utf-8"))


def _observe_experiments(counters, args, result):
    records = getattr(result, "records", None)
    if records is not None:
        counters["experiments.records_held"] += len(records)


_OBSERVERS = {
    "rank": _observe_rank,
    "report": _observe_report,
    "experiments": _observe_experiments,
}
