"""Span tracing of eigensearch from outside the package.

``Tracer`` replaces every public function and public method of the
package's modules with a timing wrapper while it is active, and puts the
originals back when it exits.  Names bound with ``from .x import y`` are
rebound too, so a call such as ``selective_inversion.raw_estimate_forward``
or ``pipeline.eig_unitary`` is recorded under its defining module.

Each call becomes a span (name, start, end, parent, pass id).  Spans stay in
memory; ``write_spans`` dumps them as JSON lines.  A span's self time is its
duration minus the time covered by its child spans, so per pass the self
times of all spans plus the uncovered remainder equal the pass wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYER_NAMES = ("numerics", "spectra", "search_core", "phase_estimation",
               "selective_inversion", "pipeline", "cli")

KERNELS = ("raw_walsh_hadamard", "raw_controlled_powers", "raw_qft",
           "raw_inverse_qft")


def _observe_kernel(stats, args, kwargs, result):
    # amplitudes the kernel read, computed from the input array's shape
    stats["amps"] += args[0].size


def _observe_apply(stats, args, kwargs, result):
    stats["register_bytes"] = max(stats["register_bytes"], args[1].amps.nbytes)


def _observe_halfway(stats, args, kwargs, result):
    stats["steps"] += result.steps


def _observe_schedule(stats, args, kwargs, result):
    stats["rounds"] += result.rounds_used
    stats["failed_rounds"] += sum(not r.verified for r in result.records)


OBSERVERS = {
    **{f"phase_estimation.{k}": _observe_kernel for k in KERNELS},
    "selective_inversion.InversionOperator.apply": _observe_apply,
    "search_core.evolve_to_halfway": _observe_halfway,
    "pipeline.run_schedule": _observe_schedule,
}


class Tracer:
    """Context manager that records a span per call into the package."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._stats: dict[str, defaultdict] = {}
        self._restore: list[tuple] = []

    # -- per-pass bookkeeping ------------------------------------------------

    def start_pass(self, pass_id: int):
        self.pass_id = pass_id
        self._stats = defaultdict(lambda: defaultdict(float))

    def pass_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and observer counts for this pass."""
        return {name: dict(s) for name, s in self._stats.items()}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack, child_time = self.spans, self._stack, self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            child_time.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                covered = child_time.pop()
                if child_time:
                    child_time[-1] += end - start
                spans[index] = (name, start, end, parent, self.pass_id)
                stats = self._stats[name]
                stats["calls"] += 1
                stats["self_s"] += end - start - covered
                if observe is not None and result is not None:
                    observe(stats, args, kwargs, result)

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        wrapped = {}
        for prefix in LAYER_NAMES:
            module = importlib.import_module(f"eigensearch.{prefix}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{prefix}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{prefix}.{attr}")
        # Every binding of an original function, including the names other
        # modules imported with ``from .x import y``, gets the wrapper.
        modules = [m for n, m in sys.modules.items()
                   if n == "eigensearch" or n.startswith("eigensearch.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])
        return self

    def _wrap_class(self, cls, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(f"{prefix}.{attr}", raw))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def write_spans(self, path):
        with open(path, "w") as f:
            for index, span in enumerate(self.spans):
                name, start, end, parent, pass_id = span
                f.write(json.dumps({"id": index, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "pass": pass_id}) + "\n")

