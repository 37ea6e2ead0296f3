"""Benchmark-side spans around the public functions of each layer.

The traced run wraps each layer's entry points *from outside the
program*: the original callables are swapped for thin wrappers that
record ``(id, parent, name, t0, t1)`` in memory, and swapped back
afterwards.  Nothing inside ``src/`` changes, so the untraced run
measures exactly the code a user runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: name of each wrapped callable -> the layer that owns it
LAYER_OF = {
    "run_resolved": "sim",
    "run_experiment": "harness",
    "resolve_context": "harness",
    "collect_traces": "core",
    "generate_config": "core",
    "ResultCache.get_or_run": "cache",
    "ResultCache.load_entry": "cache",
    "ResultCache.store_entry": "cache",
    "SharedResultStore.get_or_run": "service",
    "SharedResultStore.load_entry": "service",
    "SharedResultStore.store_entry": "service",
    "SharedResultStore.store_chunk": "service",
    "SharedResultStore.merge_chunks": "service",
    "JobQueue.lease": "service",
    "ServiceClient.submit_sweep": "service",
    "ServiceClient.collect_sweep": "service",
}

#: module-level functions: (defining module, name)
_FUNCTIONS = [
    ("repro.harness.experiment", "run_resolved"),
    ("repro.harness.experiment", "run_experiment"),
    ("repro.harness.experiment", "resolve_context"),
    ("repro.core.collection", "collect_traces"),
    ("repro.core.config", "generate_config"),
]
#: methods: (defining module, class, name)
_METHODS = [
    ("repro.harness.cache", "ResultCache", "get_or_run"),
    ("repro.harness.cache", "ResultCache", "load_entry"),
    ("repro.harness.cache", "ResultCache", "store_entry"),
    ("repro.service.store", "SharedResultStore", "store_chunk"),
    ("repro.service.store", "SharedResultStore", "merge_chunks"),
    ("repro.service.queue", "JobQueue", "lease"),
    ("repro.service.client", "ServiceClient", "submit_sweep"),
    ("repro.service.client", "ServiceClient", "collect_sweep"),
]


class SpanRecorder:
    """In-memory span list with a parent stack (single-threaded use)."""

    def __init__(self) -> None:
        #: ``[id, parent, name, t0, t1]`` per span, in start order
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_method(self, fn, attr):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            with self.span(f"{type(obj).__name__}.{attr}"):
                return fn(obj, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Swap every layer entry point for its span-recording wrapper.

        A function is replaced in every loaded ``repro`` module that
        bound it by name, since ``from x import f`` copies the binding.
        """
        for modname, attr in _FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(original, attr)
            for module in [m for n, m in sys.modules.items() if n.startswith("repro")]:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
        for modname, clsname, attr in _METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap_method(original, attr))
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def self_times(self, norm) -> dict:
        """Per span id: normalized duration minus its children's."""
        child_sum: dict = defaultdict(float)
        dur = {}
        for sid, parent, _name, t0, t1 in self.spans:
            dur[sid] = norm(t0, t1)
            if parent is not None:
                child_sum[parent] += dur[sid]
        return {sid: dur[sid] - child_sum[sid] for sid in dur}

    def write(self, path, norm) -> None:
        """Write the spans as JSON lines, with normalized and self time."""
        selfs = self.self_times(norm)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "layer": LAYER_OF.get(name, "other"),
                            "start": t0,
                            "end": t1,
                            "norm_s": norm(t0, t1),
                            "self_s": selfs[sid],
                        }
                    )
                    + "\n"
                )
