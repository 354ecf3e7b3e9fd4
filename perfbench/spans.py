"""Spans around calls into the public functions of each diskarea layer.

The spans are recorded from here, not from inside the program: every public
function of a layer module is replaced by a wrapper wherever the package
holds a reference to it.  That covers names bound by ``from .x import y``,
the package namespace and module-level dispatch tables such as
``verify._AREA_DISPATCH``, ``runner._AREA_METHODS`` and
``runner._SUITE_RUNNERS``.  Each span records its name, thread, parent span
on the same thread, start and end.  Spans are kept in memory and summarised
when the pass ends.

A layer's public functions are the functions in its namespace whose names
do not start with ``_`` and that are defined in the layer itself or in a
private module of the package (``pair_sums`` re-exports the pair sums of its
backend module).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("circle_maps", "poisson", "area", "pair_sums", "verify", "proof_checks", "runner", "cli")
PACKAGE = "diskarea"


def _pair_count(args, kwargs) -> int:
    """M for a pair sum, from its length-M kernel row; computed, not measured."""
    return len(args[0] if args else kwargs["kernel_row"])


PAIR_SUMS = {"pair_sums.sin_pair_sum", "pair_sums.gap_pair_sums"}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, thread, parent id, start, end, pair-sum M or 0)
        self.functions = {}  # "layer.name" -> number of places the wrapper was bound
        self.absent_layers = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _wrap(self, name: str, fn):
        ids, local, spans = self._ids, self._local, self.spans
        counts_pairs = name in PAIR_SUMS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            size = _pair_count(args, kwargs) if counts_pairs else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, threading.get_ident(), parent, start, end, size))

        return traced

    def install(self) -> None:
        """Wrap every public layer function and rebind it everywhere in the package."""
        wrappers = {}  # id(original) -> (name, wrapper)
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent_layers.append(layer)
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or id(obj) in wrappers:
                    continue
                home = obj.__module__ or ""
                if home == module.__name__ or home.startswith(f"{PACKAGE}._"):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (name, self._wrap(name, obj))
                    self.functions[name] = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            tables = [namespace] + [v for v in namespace.values() if isinstance(v, dict) and v is not namespace]
            for table in tables:
                for key, value in list(table.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None:
                        table[key] = hit[1]
                        self.functions[hit[0]] += 1

    def summary(self) -> dict:
        """Per-function calls and self time, per-layer self time, and the runner's overlap.

        Self time is a span's duration minus the durations of its children,
        which are on the same thread by construction.  ``span_overlap`` is
        the summed time of the first non-runner spans below the runner's
        ``run_*`` suites (on any thread) over the suites' wall time.
        """
        child_time = {}
        by_id = {}
        for sid, name, thread, parent, start, end, _ in self.spans:
            by_id[sid] = (name, thread, parent)
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        functions = {name: {"calls": 0, "self_s": 0.0, "bound": n} for name, n in self.functions.items()}
        layers = {layer: 0.0 for layer in LAYERS if layer not in self.absent_layers}
        main = threading.main_thread().ident
        suite_wall = below_suites = 0.0
        pairs = 0
        for sid, name, thread, parent, start, end, size in self.spans:
            pairs += size * size
            own = (end - start) - child_time.get(sid, 0.0)
            entry = functions[name]
            entry["calls"] += 1
            entry["self_s"] += own
            layer = name.split(".", 1)[0]
            layers[layer] += own
            parent_name = by_id[parent][0] if parent else None
            parent_is_runner = parent_name is not None and parent_name.startswith("runner.")
            if name.startswith("runner.run_") and thread == main and not parent_is_runner:
                suite_wall += end - start
            elif layer != "runner" and (parent_is_runner or (not parent and thread != main)):
                below_suites += end - start
        return {
            "functions": functions,
            "layers": layers,
            "absent_layers": self.absent_layers,
            "pairs_computed": pairs,
            "span_overlap": below_suites / suite_wall if suite_wall else 0.0,
            "spans": len(self.spans),
        }
