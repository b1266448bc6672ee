"""Outside-in span tracer for zapvss.

The tracer replaces the module-level names that ``zapvss.harness``,
``zapvss.filtercore`` and ``zapvss.cli`` look up at call time with timing
wrappers, and wraps the ``update`` method of every controller that
``make_controller`` returns. No program file is changed.

Each call becomes a span (name, start, end, parent span, run id). Spans are
kept in typed arrays in memory (28 bytes each; a traced grid makes a few
million) and written out once, when the traced run ends. Times are integer
nanoseconds, so the self times of a subtree add up exactly to the duration
of its root.

Only one process may be traced: a forked worker would carry the wrappers
into a process whose spans are never collected, so the tracer is installed
only around single-process runs and removed before anything forks.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

TRACED_MODULES = ("harness", "filtercore", "cli")
# calls whose arguments are logged, to count distinct inputs per realization
KEYED_SPANS = ("signal.generate_input", "channel.generate_sparse",
               "channel.generate_dispersive", "channel.load_channel")
RUN_SPAN = "harness.run_scenario"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.keys: dict[str, list] = {}
        self._stack = [-1]
        self._current_run = [-1]
        self._next_run = [0]
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._intern(name)
        name_id, parent, run, start, end = (
            self.name_id, self.parent, self.run, self.start, self.end)
        stack, current_run, next_run = (
            self._stack, self._current_run, self._next_run)
        keys = self.keys.setdefault(name, []) if name in KEYED_SPANS else None
        starts_run = name == RUN_SPAN
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(end)
            if starts_run:
                current_run[0] = next_run[0]
                next_run[0] += 1
            if keys is not None:
                keys.append(repr(args) + repr(sorted(kwargs.items())))
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(current_run[0])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if starts_run:
                    current_run[0] = -1

        traced.__wrapped__ = fn
        return traced

    def install(self, zapvss) -> None:
        """Wrap every public zapvss function visible in the traced modules.

        A span is named after the module that defines the function, so
        ``harness.step`` records as ``filtercore.step``.
        """
        for mod_name in TRACED_MODULES:
            module = getattr(zapvss, mod_name)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("zapvss.")):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                if attr == "make_controller":
                    traced = self._wrap_factory(obj)
                else:
                    traced = self.wrap(obj, f"{layer}.{attr}")
                self._patched.append((module, attr, obj))
                setattr(module, attr, traced)

    def _wrap_factory(self, make_controller):
        traced_make = self.wrap(make_controller, "stepsize.make_controller")
        wrap = self.wrap

        def make(kind, *args, **kwargs):
            controller = traced_make(kind, *args, **kwargs)
            controller.update = wrap(controller.update, f"stepsize.update.{kind}")
            return controller

        make.__wrapped__ = make_controller
        return make

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    A traced process has one thread, so the children of a span run one
    after another inside it and the part they cover is their summed
    duration.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered.astype(np.int64)


def subtree_end(start: np.ndarray, end: np.ndarray, root: int) -> int:
    """One past the last span index inside ``root``'s subtree.

    Spans are numbered in call order, so a subtree is the contiguous run of
    spans that begin before its root ends.
    """
    later = np.flatnonzero(start[root + 1:] >= end[root])
    return root + 1 + int(later[0]) if later.size else start.size


def summarize(names: list[str], name_id: np.ndarray, self_ns: np.ndarray,
              dur_ns: np.ndarray) -> dict[str, dict]:
    """Per span name: call count, total self time and total duration (s)."""
    k = len(names)
    count = np.bincount(name_id, minlength=k)
    self_s = np.bincount(name_id, weights=self_ns, minlength=k) / 1e9
    dur_s = np.bincount(name_id, weights=dur_ns, minlength=k) / 1e9
    return {name: {"count": int(count[i]), "self_s": float(self_s[i]),
                   "total_s": float(dur_s[i])}
            for i, name in enumerate(names)}
