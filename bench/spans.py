"""Call tracing for holosim's modules, installed from outside the package.

The tracer wraps the public functions of each holosim module (plus the
model classes' batch methods, ExperimentReport.write and numpy.linalg.svd)
and records one span per call: name, start, end, parent span and op id.
A name bound by `from .x import y` is patched in every module namespace
that holds it, so holonomy.eigh_batch and cli.run_experiment are traced
too. Nothing in the package is edited; uninstall() restores every name.

Self time is a span's duration minus the time of its child spans. Calls of
the functions in ROLLED_UP (hundreds of thousands per op) and everything
they call are merged into one record per (parent record, op, name) holding
a call count and summed times, which keeps memory bounded. Spans opened on
worker threads (noise-study's pool) have no parent.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("cli", "experiments", "models", "linalg", "abelian", "holonomy", "adiabatic", "report")

# Elementwise helpers whose cost is comparable to a wrapper's; their time
# stays in their callers' self time.
SKIP = {"dagger", "max_abs", "hermiticity_defect", "norm_scale", "wrap_angle", "angle_distance"}

ROLLED_UP = {
    "models.qubit_ground_state",
    "linalg.gauge_fix",
    "linalg.nearest_unitary",
    "numpy.linalg.svd",
    "abelian.berry_curvature_plaquette",
}


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


# work done per call, counted next to the call count: name -> (args, kwargs, result) -> int
WORK = {
    "holonomy.eigenframe_path": lambda a, k, r: r.samples,
    "holonomy.wilson_line": lambda a, k, r: r.samples,
    "holonomy.usb_eta_pair": lambda a, k, r: _arg(a, k, 1, "n_samples", 2**14),
    "abelian.solid_angle": lambda a, k, r: len(_arg(a, k, 0, "directions")),
    "abelian.band_state_chain": lambda a, k, r: len(r),
    "adiabatic.evolve_schrodinger": lambda a, k, r: r.steps,
    "linalg.eigh_batch": lambda a, k, r: int(np.prod(r[0].shape[:-1])),
    "models.evaluate_batch": lambda a, k, r: r.shape[0],
    "report.write": lambda a, k, r: sum(p.stat().st_size for p in r),
}


def _zero_stats() -> list:
    return [0, 0.0, 0, 0.0]  # calls, self_s, work, total_s


class Tracer:
    """Patches the traced names on install(), records spans and per-name stats."""

    def __init__(self):
        self.records: list[list] = []  # [name, parent, op, start, end, calls, dur_s, self_s]
        self.stats: dict[str, list] = defaultdict(_zero_stats)
        self.op_id = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rolled: dict[tuple, int] = {}
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _targets(self):
        import holosim

        for mod_name in MODULES:
            module = getattr(holosim, mod_name)
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in SKIP
                ):
                    yield f"{mod_name}.{attr}", None, obj
        base = holosim.models.HamiltonianModel
        for cls in vars(holosim.models).values():
            if inspect.isclass(cls) and issubclass(cls, base) and cls is not base:
                for method in ("evaluate_batch", "energies_batch"):
                    if method in vars(cls):
                        yield f"models.{method}", (cls, method), vars(cls)[method]
        yield "report.write", (holosim.report.ExperimentReport, "write"), (
            holosim.report.ExperimentReport.write
        )
        yield "numpy.linalg.svd", (np.linalg, "svd"), np.linalg.svd

    def install(self) -> None:
        holders = [m for n, m in sys.modules.items() if n == "holosim" or n.startswith("holosim.")]
        for name, owner, fn in list(self._targets()):
            wrapper = self._wrap(name, fn)
            if owner is not None:
                self._patch(owner[0], owner[1], fn, wrapper)
                continue
            for module in holders:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, fn, wrapper)

    def _patch(self, holder, attr, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        work = WORK.get(name)
        rolled_up = name in ROLLED_UP
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            start = perf_counter()
            with tracer._lock:
                if rolled_up or (parent is not None and parent[3]):
                    key = (parent[0] if parent else None, tracer.op_id, name)
                    record = tracer._rolled.get(key)
                    if record is None:
                        record = tracer._rolled[key] = tracer._new_record(name, parent, start)
                    merged = True
                else:
                    record = tracer._new_record(name, parent, start)
                    merged = False
            frame = [record, start, 0.0, merged]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                with tracer._lock:
                    rec = tracer.records[record]
                    rec[4] = end
                    rec[5] += 1
                    rec[6] += dur
                    rec[7] += dur - frame[2]
                    st = tracer.stats[name]
                    st[0] += 1
                    st[1] += dur - frame[2]
                    st[3] += dur
            if work is not None:
                amount = work(args, kwargs, result)
                with tracer._lock:
                    tracer.stats[name][2] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def _new_record(self, name, parent, start) -> int:
        self.records.append([name, parent[0] if parent else None, self.op_id, start, start, 0, 0.0, 0.0])
        return len(self.records) - 1

    def take_stats(self) -> dict[str, list]:
        """Per-name [calls, self_s, work, total_s] since the last call, then reset."""
        with self._lock:
            stats, self.stats = dict(self.stats), defaultdict(_zero_stats)
            self._rolled.clear()
        return stats

    def write(self, path: Path) -> None:
        """Write every span, one JSON object per line."""
        keys = ("name", "parent", "op", "start", "end", "calls", "dur_s", "self_s")
        with open(path, "w", encoding="utf-8") as f:
            for i, rec in enumerate(self.records):
                f.write(json.dumps({"id": i, **dict(zip(keys, rec))}) + "\n")
