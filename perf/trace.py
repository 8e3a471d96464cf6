"""Boundary spans around the public ``repro`` layers, recorded from here.

Nothing in ``src/`` is edited: :meth:`Tracer.install` replaces, on the
classes named in :data:`BOUNDARIES`, each method with a wrapper that
pushes a span on a stack when the call crosses from one layer into
another, and :meth:`Tracer.start` puts the tracer on the simulator's
existing ``profiler`` hook, so every dispatched event is a root span.

* A span has a name, start, end, parent and the id of the packet it
  works on (inherited from its parent when the call carries none).
* A layer's self time is its spans' duration minus their child spans.
  ``engine`` additionally gets the run time no root span covers (the
  dispatch loop itself, and this tracer's own per-event bookkeeping),
  so the twelve shares sum to 1 — checked on integer nanoseconds.
* A call that stays inside its layer is counted but opens no span.
* A root span's layer is the layer of the module that defines the
  event's callback (:data:`MODULE_LAYERS`); a periodic
  ``repro.sim.engine.Process`` counts as its body.
* A class or method that no longer resolves is listed under
  ``unresolved`` and its time folds into its caller.

Aggregates and the first :data:`KEEP_SPANS` full spans stay in memory
and are written out once, after the run.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "engine", "link", "pisa", "manager", "sro", "ewo",
    "controller", "antientropy", "nf", "obs", "chaos", "driver",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}
ENGINE = _INDEX["engine"]

KEEP_SPANS = 20000

#: (layer, module, class, method patterns).  A trailing ``+`` on the
#: class also takes every subclass that exists when install() runs.
BOUNDARIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("engine", "repro.sim.engine", "Simulator", ("schedule",)),
    ("engine", "repro.sim.engine", "Event", ("cancel",)),
    ("link", "repro.net.link", "Node", ("deliver", "send")),
    ("link", "repro.net.link", "Link", ("*",)),
    ("link", "repro.net.link", "Channel", ("*",)),
    ("link", "repro.net.routing", "RoutingTable", ("*",)),
    ("link", "repro.net.multicast", "MulticastRegistry", ("*",)),
    ("pisa", "repro.switch.pisa", "PisaSwitch", ("*",)),
    ("pisa", "repro.switch.control", "ControlPlaneAgent", ("*",)),
    ("manager", "repro.core.manager", "SwiShmemManager", ("*",)),
    ("sro", "repro.protocols.sro", "SroEngine", ("*",)),
    ("ewo", "repro.protocols.ewo", "EwoEngine", ("*",)),
    ("controller", "repro.protocols.controller", "CentralController", ("*",)),
    ("controller", "repro.protocols.election", "ControllerCluster", ("*",)),
    ("controller", "repro.protocols.failover", "FailoverCoordinator", ("*",)),
    ("antientropy", "repro.protocols.antientropy", "ScrubAgent", ("*",)),
    ("antientropy", "repro.protocols.antientropy", "ScrubCoordinator", ("*",)),
    ("nf", "repro.nf.base", "NetworkFunction+", ("*",)),
    ("obs", "repro.obs.metrics", "Counter", ("inc",)),
    ("obs", "repro.obs.metrics", "Gauge", ("set", "inc", "dec")),
    ("obs", "repro.obs.metrics", "Histogram", ("observe",)),
    ("obs", "repro.obs.flightrec", "FlightRecorder", ("record",)),
    ("obs", "repro.obs.accessprof", "AccessProfiler", ("on_*",)),
    ("obs", "repro.obs.slo", "SLOMonitor", ("observe", "observe_event")),
    ("chaos", "repro.chaos.nemesis", "Nemesis", ("*",)),
    ("chaos", "repro.chaos.faults", "FaultInjector", ("*",)),
    ("chaos", "repro.chaos.invariants", "InvariantSuite", ("*",)),
    ("driver", "repro.net.endhost", "EndHost", ("*",)),
    ("driver", "repro.workload.flows", "FlowGenerator", ("*",)),
)

#: Methods that take a callback and run it later: the callback gets a
#: span of the layer that defines it.  Value: the callback's positional
#: index, self included.
CALLBACK_TAKERS = {"ControlPlaneAgent.submit": 1}

#: Layer of a module, for callbacks; the longest matching prefix wins.
MODULE_LAYERS = (
    ("repro.sim", "engine"),
    ("repro.net", "link"),
    ("repro.net.endhost", "driver"),
    ("repro.switch", "pisa"),
    ("repro.core", "manager"),
    ("repro.protocols", "manager"),
    ("repro.protocols.sro", "sro"),
    ("repro.protocols.ewo", "ewo"),
    ("repro.crdt", "ewo"),
    ("repro.protocols.controller", "controller"),
    ("repro.protocols.election", "controller"),
    ("repro.protocols.failover", "controller"),
    ("repro.protocols.releveling", "controller"),
    ("repro.protocols.antientropy", "antientropy"),
    ("repro.nf", "nf"),
    ("repro.sketch", "nf"),
    ("repro.obs", "obs"),
    ("repro.chaos", "chaos"),
    ("repro.workload", "driver"),
    ("repro.testing", "driver"),
    ("__main__", "driver"),
)


def _module_layer(module: str) -> Optional[int]:
    best = ""
    layer = None
    for prefix, name in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best, layer = prefix, _INDEX[name]
    return layer


def _unwrapped(callback: Callable) -> Callable:
    func = getattr(callback, "__func__", callback)
    while hasattr(func, "__wrapped__"):
        func = func.__wrapped__
    return func


class _Stat:
    """Aggregate of one boundary or root-span name."""

    __slots__ = ("name", "layer", "calls", "spans", "total_ns", "self_ns")

    def __init__(self, name: str, layer: int) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.spans = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.active = False
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.spans = [0] * len(LAYERS)
        #: open spans: [layer, start_ns, child_ns, span id, packet id, stat]
        self.stack: List[List[Any]] = []
        self.next_id = 0
        #: (span id, parent id, stat, start_ns, end_ns, packet id)
        self.records: List[Tuple[Any, ...]] = []
        self.stats: Dict[str, _Stat] = {}
        self.root_ns = 0
        self.run_ns = 0
        self.started_ns = 0
        self._resumed_ns = 0
        self.unresolved: List[str] = []
        self._roots: Dict[Any, Tuple[int, _Stat]] = {}
        self._packet_type: Optional[type] = None
        self._process_type: Optional[type] = None

    def _stat(self, name: str, layer: int) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat(name, layer)
        return stat

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary method.  Call before the world is built,
        so that bound methods captured at construction are wrappers."""
        from repro.net.packet import Packet
        from repro.sim.engine import Process

        self._packet_type = Packet
        self._process_type = Process
        for layer, module_name, class_name, patterns in BOUNDARIES:
            subclasses = class_name.endswith("+")
            class_name = class_name.rstrip("+")
            try:
                module = importlib.import_module(module_name)
                targets = [getattr(module, class_name)]
            except (ImportError, AttributeError):
                self.unresolved.append(f"{module_name}.{class_name}")
                continue
            if subclasses:
                targets += _all_subclasses(targets[0])
            for pattern in patterns:
                wrapped = sum(
                    self._wrap_matching(target, pattern, _INDEX[layer])
                    for target in targets
                )
                if not wrapped:
                    self.unresolved.append(f"{module_name}.{class_name}.{pattern}")

    def _wrap_matching(self, cls: type, pattern: str, layer: int) -> int:
        count = 0
        for name, attr in list(vars(cls).items()):
            if (
                name.startswith("__")
                or not fnmatch.fnmatchcase(name, pattern)
                or not callable(attr)
                or isinstance(attr, (staticmethod, classmethod, type))
                or hasattr(attr, "__wrapped__")
            ):
                continue
            qualified = f"{cls.__name__}.{name}"
            at = CALLBACK_TAKERS.get(qualified)
            if at is not None:
                attr = self._adopting(attr, at)
            setattr(cls, name, self._boundary(attr, layer, self._stat(qualified, layer)))
            count += 1
        return count

    # -- the wrappers -------------------------------------------------------
    def _boundary(self, fn: Callable, layer: int, stat: _Stat) -> Callable:
        tracer = self
        stack = self.stack
        clock = self.clock
        calls = self.calls

        @functools.wraps(fn)
        def boundary(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[layer] += 1
            stat.calls += 1
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                return fn(*args, **kwargs)
            frame = tracer._open(layer, parent, args, stat)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, parent, clock())

        return boundary

    def _adopting(self, fn: Callable, at: int) -> Callable:
        @functools.wraps(fn)
        def adopting(*args: Any, **kwargs: Any) -> Any:
            if self.active and len(args) > at:
                args = args[:at] + (self.adopt(args[at]),) + args[at + 1:]
            return fn(*args, **kwargs)

        return adopting

    def adopt(self, callback: Callable) -> Callable:
        """``callback``, run inside a span of the layer that defines it."""
        if hasattr(getattr(callback, "__func__", callback), "__wrapped__"):
            return callback  # a boundary method already
        layer, stat = self._root(callback)
        return self._boundary(callback, layer, stat)

    def _open(self, layer: int, parent: Optional[List[Any]], args: Tuple[Any, ...],
              stat: _Stat) -> List[Any]:
        span_id = self.next_id
        self.next_id = span_id + 1
        packet = parent[4] if parent is not None else None
        if span_id < KEEP_SPANS:
            packet_type = self._packet_type
            for arg in args:
                if type(arg) is packet_type:
                    packet = arg.uid
                    break
        frame = [layer, 0, 0, span_id, packet, stat]
        self.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _close(self, frame: List[Any], parent: Optional[List[Any]], end: int) -> None:
        self.stack.pop()
        layer, start, child, span_id, packet, stat = frame
        duration = end - start
        own = duration - child
        self.self_ns[layer] += own
        self.spans[layer] += 1
        stat.spans += 1
        stat.total_ns += duration
        stat.self_ns += own
        if parent is not None:
            parent[2] += duration
        else:
            self.root_ns += duration
        if span_id < KEEP_SPANS:
            self.records.append(
                (span_id, parent[3] if parent is not None else None, stat,
                 start, end, packet)
            )

    # -- root spans: the simulator's profiler hook ------------------------
    def dispatch(self, event: Any) -> None:
        callback = event.callback
        layer, stat = self._root(callback)
        stat.calls += 1
        frame = self._open(layer, None, event.args, stat)
        try:
            callback(*event.args)
        finally:
            self._close(frame, None, self.clock())

    def _root(self, callback: Callable) -> Tuple[int, _Stat]:
        """(layer, stat) of a callback, by the module that defines it."""
        owner = getattr(callback, "__self__", None)
        if owner is not None and type(owner) is self._process_type:
            return self._root(owner.body)
        func = _unwrapped(callback)
        key = getattr(func, "__code__", None) or type(func)
        found = self._roots.get(key)
        if found is None:
            module = getattr(func, "__module__", None) or ""
            layer = _module_layer(module)
            if layer is None:
                layer = ENGINE
                if f"module:{module}" not in self.unresolved:
                    self.unresolved.append(f"module:{module}")
            name = getattr(func, "__qualname__", None) or type(func).__name__
            found = self._roots[key] = (layer, self._stat(f"event:{name}", layer))
        return found

    # -- run ---------------------------------------------------------------
    def start(self, sim: Any) -> None:
        """Trace ``sim.run`` calls until :meth:`stop`; may be repeated."""
        sim.profiler = self
        self.active = True
        self._resumed_ns = self.clock()
        if not self.run_ns:
            self.started_ns = self._resumed_ns

    def stop(self, sim: Any) -> None:
        self.run_ns += self.clock() - self._resumed_ns
        self.active = False
        sim.profiler = None

    # -- results -------------------------------------------------------------
    def ledger(self) -> Dict[str, Any]:
        total = self.run_ns
        self_ns = list(self.self_ns)
        # what no root span covered is the dispatch loop's
        self_ns[ENGINE] += total - self.root_ns
        if sum(self_ns) != total or self.stack:
            raise AssertionError(
                f"layer self times {sum(self_ns)} ns != run time {total} ns"
            )
        layers = {
            name: {
                "self_ns": self_ns[i],
                "self_share": self_ns[i] / total,
                "calls": self.calls[i],
                "spans": self.spans[i],
            }
            for i, name in enumerate(LAYERS)
        }
        return {
            "run_ns": total,
            "layers": layers,
            "top_layer": max(LAYERS, key=lambda name: layers[name]["self_ns"]),
            "spans_total": self.next_id,
            "unresolved": list(self.unresolved),
        }

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """``header`` plus per-name aggregates and the kept spans."""
        document = dict(header)
        document["boundaries"] = [
            {"name": s.name, "layer": LAYERS[s.layer], "calls": s.calls,
             "spans": s.spans, "total_ns": s.total_ns, "self_ns": s.self_ns}
            for s in sorted(self.stats.values(), key=lambda s: -s.self_ns)
            if s.calls
        ]
        document["span_fields"] = [
            "id", "parent", "name", "layer", "start_ns", "end_ns", "packet"
        ]
        document["spans"] = [
            [span_id, parent, stat.name, LAYERS[stat.layer],
             start - self.started_ns, end - self.started_ns, packet]
            for span_id, parent, stat, start, end, packet in sorted(
                self.records, key=lambda record: record[0]
            )
        ]
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found
