"""Span recording around the package's public functions, from outside the package.

`Tracer.install()` replaces every binding of each traced object in every
loaded `realtwoqubit` module with a wrapper (the CLI, synthesis and geometry
import names directly, so patching the defining module alone would miss
calls); classes are traced through `__init__`, which covers construction and
validation however the class is reached.  `uninstall()` restores the
originals.  A traced name missing from the package is reported as absent.

Each call records its self time: its span minus the spans of the traced calls
it made.  Spans stay in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "realtwoqubit"

TRACED = (
    "states.RealState",
    "states.to_bell",
    "states.from_bell",
    "states.sign_residual",
    "states.concurrence",
    "gates.Gate",
    "gates.Circuit.to_dict",
    "gates.Circuit.inverse",
    "simulator.apply",
    "simulator.gate_matrix",
    "geometry.entanglement_distance",
    "geometry.classify",
    "geometry.entropy_from_distance",
    "geometry.orbit_mesh",
    "geometry.mesh_to_csv",
    "geometry.mesh_to_dict",
    "synthesis.prepare",
    "synthesis.local_connect",
    "synthesis.cz_connect",
    "synthesis.intersection_state",
    "cli.main",
)

LAYERS = ("states", "gates", "simulator", "geometry", "synthesis", "cli")

APPLY = "simulator.apply"

#: Percentiles tried for the tail, highest first; the first with at least
#: ten samples beyond it is reported.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


def _resolve(name: str):
    """(owner, attribute, object) for a traced name, or None when the package lacks it."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
    obj = getattr(owner, path[-1], None) if owner is not None else None
    if obj is None:
        return None
    if isinstance(obj, type):
        return obj, "__init__", obj.__init__
    return owner, path[-1], obj


class Tracer:
    """Self-time samples per traced name, and the simulator applies made under each caller."""

    def __init__(self):
        self.self_ns: dict[str, array] = {name: array("q") for name in TRACED}
        self.root_ns = 0
        self.applies_under: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        samples = self.self_ns[name]
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self
        is_apply = name == APPLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_apply and stack:
                tracer.applies_under[stack[-1][0]] += 1
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stack.pop()
                samples.append(span - frame[1])
                if stack:
                    stack[-1][1] += span
                else:
                    tracer.root_ns += span

        return traced

    def install(self) -> None:
        resolved = {name: _resolve(name) for name in TRACED}
        modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        self.absent = [name for name, found in resolved.items() if found is None]
        for name, found in resolved.items():
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if attr == "__init__" or isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, items: int, out_bytes: int, overhead: float) -> tuple[dict, dict]:
        """Per-layer metrics {name: (value, unit)} and the detail behind them."""
        out: dict[str, tuple[float, str]] = {}
        tails: dict[str, float] = {}
        layer_ns = Counter()
        for name in TRACED:
            ns = np.frombuffer(self.self_ns[name], dtype=np.int64) if len(self.self_ns[name]) else np.zeros(0)
            us = ns / 1e3
            layer_ns[name.split(".")[0]] += int(ns.sum())
            out[f"{name}.calls_per_item"] = (len(us) / items, "count")
            p50, tail, pct = 0.0, 0.0, None
            if len(us):
                p50 = float(np.percentile(us, 50))
                pct = next((p for p in TAIL_LADDER if len(us) * (1.0 - p / 100.0) >= 10), 50.0)
                tail = float(np.percentile(us, pct))
            out[f"{name}.self_us_p50"] = (p50, "us")
            out[f"{name}.self_us_tail"] = (tail, "us")
            tails[name] = pct
        total = self.root_ns or 1
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (layer_ns[layer] / total, "share")
        local_calls = len(self.self_ns["synthesis.local_connect"])
        applies = self.applies_under["synthesis.local_connect"]
        out["synthesis.local_connect.apply_calls"] = (applies / local_calls if local_calls else 0.0, "count")
        out["cli.out_bytes_per_item"] = (out_bytes / items, "B")
        out["trace.overhead_share"] = (overhead, "ratio")
        detail = {
            "absent": self.absent,
            "tail_percentile": tails,
            "calls": {name: len(self.self_ns[name]) for name in TRACED},
            "applies_by_caller": dict(self.applies_under),
        }
        return out, detail
