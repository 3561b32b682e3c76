"""Outside-in layer tracer: wraps the public functions of each layer module.

Nothing under ``src/`` is edited.  :class:`LayerTracer` replaces the
public methods of each layer's classes (and the module-level functions a
layer exports, at every module that imported them) with wrappers, and
restores the originals on :meth:`LayerTracer.uninstall`.

Each wrapped call is a span on two clocks:

* wall: ``time.perf_counter_ns`` around the call;
* simulated: the seconds charged to *any* machine clock while the call
  was open, taken from the process-wide clock observer
  (``repro.sim.clock.set_clock_observer``), chained in front of whatever
  observer was installed before (the cluster's own tracer, when the
  ``tracing`` gate is on).

A layer's *self* time is its spans' time minus the time of the wrapped
calls nested inside them, so the layers' self times add up to the traced
window.  A call that returns a generator is traced again on every resume,
so lazily iterated scans land in the layer that does the work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict
from contextlib import closing
from importlib import import_module

from repro.sim import clock as clock_module

# layer -> (module, class names or None for the module's public functions).
# The crc layer is the one function both the log and the datanodes call;
# it is wrapped wherever a module imported it by name.
LAYER_MODULES: dict[str, list[tuple[str, tuple[str, ...] | None]]] = {
    "client": [("repro.core.client", ("Client",))],
    "server": [("repro.core.tablet_server", ("TabletServer",))],
    "txn": [("repro.txn.mvocc", ("TransactionManager",))],
    "wal": [("repro.wal.repository", ("LogRepository",))],
    "record": [("repro.wal.record", ("LogRecord",)), ("repro.wal.record", None)],
    "crc": [("repro.util.crc", None)],
    "dfs": [("repro.dfs.filesystem", ("DFS", "DFSWriter", "DFSReader"))],
    "datanode": [("repro.dfs.datanode", ("DataNode",))],
    "block_cache": [("repro.dfs.block_cache", ("BlockCache",))],
    "read_cache": [("repro.core.read_cache", ("ReadCache",))],
    "index": [
        ("repro.index.interface", ("MultiversionIndex",)),
        ("repro.index.blink", ("BLinkTreeIndex",)),
    ],
    "scheduler": [("repro.sim.scheduler", ("ConcurrentScheduler",))],
    "recovery": [("repro.core.recovery", None)],
    "compaction": [
        ("repro.wal.compaction", ("CompactionJob", "IncrementalCompactionJob"))
    ],
    "cluster": [("repro.core.cluster", ("LogBaseCluster",))],
    "monitor": [("repro.obs.monitor", ("ClusterMonitor",))],
}

LAYERS = tuple(LAYER_MODULES)

# Callers whose crc work the reports split out: replica verification on
# the read path and record framing on the write/scan paths.
CRC_VERIFY_CALLER = "DataNode.verify_replica"
CRC_RECORD_CALLERS = ("LogRecord.encode", "LogRecord.decode")


class _Frame:
    __slots__ = ("key", "wall0", "sim0", "child_wall", "child_sim")

    def __init__(self, key, wall0, sim0):
        self.key = key
        self.wall0 = wall0
        self.sim0 = sim0
        self.child_wall = 0
        self.child_sim = 0.0


class LayerTracer:
    """Per-(phase, layer, function) call counts and self time on both clocks.

    Wrappers record only while :attr:`phase` is set; set it to None to
    pause (set-up and output checks are never traced).
    """

    def __init__(self) -> None:
        self.phase: str | None = None
        self.sim_total = 0.0
        self._stack: list[_Frame] = []
        # (phase, layer, function) -> [calls, wall_self_ns, sim_self_s]
        self.stats: dict[tuple[str, str, str], list] = defaultdict(
            lambda: [0, 0, 0.0]
        )
        # (phase, calling function) -> [bytes, wall_self_ns] of crc32c
        self.crc_by_caller: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0]
        )
        # phase -> wall ns the phase was traced for
        self.phase_wall_ns: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self._prev_observer = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and chain the clock observer."""
        for layer, targets in LAYER_MODULES.items():
            for module_name, class_names in targets:
                module = import_module(module_name)
                if class_names is None:
                    self._wrap_module_functions(module, layer)
                else:
                    for class_name in class_names:
                        self._wrap_class(getattr(module, class_name), layer)
        self._prev_observer = clock_module._OBSERVER
        prev = self._prev_observer

        def observe(clock, seconds, _self=self, _prev=prev):
            _self.sim_total += seconds
            if _prev is not None:
                _prev(clock, seconds)

        clock_module.set_clock_observer(observe)

    def uninstall(self) -> None:
        """Restore every original function and the previous clock observer."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        clock_module.set_clock_observer(self._prev_observer)
        self.phase = None

    def _replace(self, owner, name, new) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                self._replace(cls, name, classmethod(self._wrap(attr.__func__, layer, label)))
            elif isinstance(attr, staticmethod):
                self._replace(cls, name, staticmethod(self._wrap(attr.__func__, layer, label)))
            elif isinstance(attr, types.FunctionType):
                self._replace(cls, name, self._wrap(attr, layer, label))

    def _wrap_module_functions(self, module, layer: str) -> None:
        for name, fn in list(vars(module).items()):
            if (
                name.startswith("_")
                or not isinstance(fn, types.FunctionType)
                or fn.__module__ != module.__name__
            ):
                continue
            wrapped = self._wrap(fn, layer, name)
            # Every import site: ``from module import fn`` copied the
            # reference into the importer's namespace.
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if (
                    namespace is not None
                    and getattr(other, "__name__", "").startswith("repro")
                    and namespace.get(name) is fn
                ):
                    self._replace(other, name, wrapped)

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, layer: str, label: str):
        tracer = self
        perf = time.perf_counter_ns
        key = (layer, label)
        is_crc = layer == "crc"
        is_gen = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = _Frame(key, perf(), tracer.sim_total)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                wall, sim = tracer._pop(frame, calls=1)
                if is_crc:
                    caller = stack[-1].key[1] if stack else "-"
                    entry = tracer.crc_by_caller[(tracer.phase, caller)]
                    entry[0] += len(args[0])
                    entry[1] += wall - frame.child_wall
            if is_gen:
                return tracer._traced_generator(result, key)
            return result

        return wrapper

    def _pop(self, frame: _Frame, *, calls: int) -> tuple[int, float]:
        stack = self._stack
        stack.pop()
        wall = time.perf_counter_ns() - frame.wall0
        sim = self.sim_total - frame.sim0
        entry = self.stats[(self.phase, *frame.key)]
        entry[0] += calls
        entry[1] += wall - frame.child_wall
        entry[2] += sim - frame.child_sim
        if stack:
            parent = stack[-1]
            parent.child_wall += wall
            parent.child_sim += sim
        return wall, sim

    def _traced_generator(self, gen, key):
        with closing(gen):
            while True:
                frame = None
                if self.phase is not None:
                    frame = _Frame(key, time.perf_counter_ns(), self.sim_total)
                    self._stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        self._pop(frame, calls=0)
                yield item

    # -- phases -------------------------------------------------------------

    def run_phase(self, phase: str, fn, *args, **kwargs):
        """Run ``fn`` with tracing on, attributed to ``phase``."""
        self.phase = phase
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.phase_wall_ns[phase] += time.perf_counter_ns() - start
            self.phase = None

    # -- reports ------------------------------------------------------------

    def layer_totals(self, phases=None) -> dict[str, list]:
        """layer -> [calls, wall_self_ns, sim_self_s] over ``phases``
        (all phases when None); every layer is present."""
        totals = {layer: [0, 0, 0.0] for layer in LAYERS}
        for (phase, layer, _), (calls, wall, sim) in self.stats.items():
            if phases is None or phase in phases:
                entry = totals[layer]
                entry[0] += calls
                entry[1] += wall
                entry[2] += sim
        return totals

    def calls(self, phase: str, label: str) -> int:
        """Calls of one wrapped function (``Class.method``) in ``phase``."""
        return sum(
            entry[0]
            for (p, _, name), entry in self.stats.items()
            if p == phase and name == label
        )

    def crc(self, phase: str, callers=None) -> tuple[int, int]:
        """(bytes, wall_self_ns) of crc32c in ``phase``, optionally only
        under the given calling functions."""
        nbytes = wall = 0
        for (p, caller), (b, w) in self.crc_by_caller.items():
            if p == phase and (callers is None or caller in callers):
                nbytes += b
                wall += w
        return nbytes, wall

    def wall_table(self, phase: str, top: int = 3) -> list[str]:
        """Markdown rows: where the traced wall time of ``phase`` went."""
        phase_ns = self.phase_wall_ns.get(phase, 0) or 1
        per_layer = self.layer_totals({phase})
        functions: dict[str, list] = defaultdict(list)
        for (p, layer, name), (_, wall, _) in self.stats.items():
            if p == phase:
                functions[layer].append((wall, name))
        rows = [
            "| layer | calls | wall self ms | % of phase | sim self ms | top functions (self ms) |",
            "|---|---:|---:|---:|---:|---|",
        ]
        for layer, (calls, wall, sim) in sorted(
            per_layer.items(), key=lambda item: -item[1][1]
        ):
            if not calls and not wall:
                continue
            tops = ", ".join(
                f"{name} {w / 1e6:.0f}"
                for w, name in sorted(functions[layer], reverse=True)[:top]
            )
            rows.append(
                f"| {layer} | {calls} | {wall / 1e6:.1f} | "
                f"{100.0 * wall / phase_ns:.1f} | {sim * 1e3:.2f} | {tops} |"
            )
        for caller, (nbytes, wall) in sorted(
            (
                (c, v)
                for (p, c), v in self.crc_by_caller.items()
                if p == phase
            ),
            key=lambda item: -item[1][1],
        ):
            rows.append(
                f"| crc under {caller} | | {wall / 1e6:.1f} | "
                f"{100.0 * wall / phase_ns:.1f} | | {nbytes} bytes |"
            )
        return rows
