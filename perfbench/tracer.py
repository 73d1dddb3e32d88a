"""Layer-attributed span tracer, installed by wrapping classes of the program.

The tracer never edits ``src/repro``: :func:`install` replaces the public
entry points of each layer with thin wrappers at class level, in the traced
child process only.  Every wrapper opens a span on entry and closes it on
exit.  Time is charged at each span boundary to the span on top of the
stack, so a layer's *self time* is its spans' duration minus the part their
child spans cover, and the self times of all layers plus the time no span
covered partition the measured interval exactly.

Accounting is split by *phase*, switched by the child process:

* ``setup`` -- interpreter start to the first fired event (and, in a sweep,
  each later cell's build-to-first-event interval);
* ``wall`` -- the interval the end-to-end ``wall_s`` metric measures;
* ``off`` -- after the measured result (e.g. the warm store re-run).

Spans are aggregated in memory per (layer, parent layer) and written out by
the child at exit; nothing is kept per event.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer, first match wins (so ``repro.radio.mac`` is
#: checked before ``repro.radio``).  ``repro.sim.network`` owns exactly one
#: event callback, the mobility tick, so it is charged to mobility.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.events", "engine"),
    ("repro.sim.network", "mobility"),
    ("repro.sim.medium", "medium"),
    ("repro.sim.spatial", "medium"),
    ("repro.sim.position_store", "medium"),
    ("repro.sim.node", "node"),
    ("repro.sim.packet", "node"),
    ("repro.sim.statistics", "stats"),
    ("repro.sim.tap", "stats"),
    ("repro.monitors", "stats"),
    ("repro.radio.mac", "mac"),
    ("repro.radio", "radio"),
    ("repro.mobility", "mobility"),
    ("repro.roadnet", "mobility"),
    ("repro.protocols", "protocol"),
    ("repro.workloads", "workload"),
    ("repro.harness.sweep", "sweep"),
    ("repro.harness", "harness"),
    ("repro.store", "store"),
)

#: Layers whose wall-phase self times, plus ``unattributed``, sum to the
#: traced wall time.
LAYERS: Tuple[str, ...] = (
    "engine",
    "mobility",
    "mac",
    "medium",
    "radio",
    "node",
    "protocol",
    "workload",
    "stats",
    "harness",
    "sweep",
    "store",
)

UNATTRIBUTED = "unattributed"


def layer_of_module(module: Optional[str]) -> str:
    """The layer that owns code defined in ``module``."""
    if module:
        for prefix, layer in LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return UNATTRIBUTED


class Tracer:
    """Span stack plus per-phase, per-layer accumulators.

    The bookkeeping of a span is inlined into :meth:`span`'s wrapper: at a
    few million spans per traced run, every call saved there is a visible
    share of the tracing overhead.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: phase -> layer -> seconds charged while that layer was on top.
        self.by_phase: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: The current phase's accumulator.
        self.acc: Dict[str, float] = self.by_phase["setup"]
        #: Open spans: (layer, counter, start time).
        self.stack: List[Tuple[str, str, float]] = []
        self.last = clock()
        #: counter -> spans opened.
        self.counts: Dict[str, int] = defaultdict(int)
        #: counter -> summed span duration, child spans included.
        self.total_s: Dict[str, float] = defaultdict(float)
        #: (layer, parent layer) -> [spans, summed duration].
        self.edges: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])

    # ------------------------------------------------------------ accounting
    def set_phase(self, phase: str) -> None:
        """Close the current phase's accounting and start ``phase``."""
        now = self.clock()
        stack = self.stack
        self.acc[stack[-1][0] if stack else UNATTRIBUTED] += now - self.last
        self.last = now
        self.acc = self.by_phase[phase]

    def phase_self(self, phase: str) -> Dict[str, float]:
        """Self seconds per layer (``unattributed`` included) in ``phase``."""
        out = {layer: 0.0 for layer in LAYERS + (UNATTRIBUTED,)}
        out.update(self.by_phase.get(phase, {}))
        return out

    def dump(self) -> Dict[str, Any]:
        """Aggregates in a JSON-ready form (the trace file's content)."""
        return {
            "self_s": {phase: dict(sorted(acc.items())) for phase, acc in self.by_phase.items()},
            "counts": dict(sorted(self.counts.items())),
            "total_s": dict(sorted(self.total_s.items())),
            "edges": [
                {"layer": layer, "parent": parent, "spans": int(n), "total_s": s}
                for (layer, parent), (n, s) in sorted(self.edges.items())
            ],
        }

    # -------------------------------------------------------------- wrapping
    def span(self, func: Callable[..., Any], layer: Any, counter: str) -> Callable[..., Any]:
        """``func`` wrapped in a span of ``layer``.

        ``layer`` is a layer name, or a callable mapping the call's first
        argument to one (``Event.fire`` resolves its callback's owner).  A
        direct re-entry -- a ``super()`` chain or a nested call of the same
        counter -- stays inside the open span.
        """
        tracer, stack, clock = self, self.stack, self.clock
        counts, totals, edges = self.counts, self.total_s, self.edges
        resolve = layer if callable(layer) else None

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][1] == counter:
                return func(*args, **kwargs)
            name = resolve(args[0]) if resolve is not None else layer
            start = clock()
            parent = stack[-1][0] if stack else UNATTRIBUTED
            tracer.acc[parent] += start - tracer.last
            tracer.last = start
            stack.append((name, counter, start))
            try:
                return func(*args, **kwargs)
            finally:
                now = clock()
                stack.pop()
                tracer.acc[name] += now - tracer.last
                tracer.last = now
                counts[counter] += 1
                totals[counter] += now - start
                edge = edges[(name, parent)]
                edge[0] += 1
                edge[1] += now - start

        return wrapper

    def patch(self, owner: Any, name: str, layer: str, counter: str) -> None:
        """Wrap ``owner.name`` (a class attribute or module function)."""
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(self.span(raw.__func__, layer, counter))
        else:
            new = self.span(raw, layer, counter)
        setattr(owner, name, new)


def span_cost(calls: int = 50_000) -> Tuple[float, float]:
    """Seconds one span adds to its own self time and to its parent's.

    Measured on a throwaway tracer: a wrapped no-op called ``calls`` times
    from inside a wrapped loop, against the same loop unwrapped.
    """

    def leaf() -> None:
        pass

    def loop(fn: Callable[[], None]) -> None:
        for _ in range(calls):
            fn()

    probe = Tracer(clock=time.perf_counter)
    traced_leaf = probe.span(leaf, "child", "child")
    traced_loop = probe.span(loop, "parent", "parent")
    start = time.perf_counter()
    loop(leaf)
    bare = time.perf_counter() - start
    traced_loop(traced_leaf)
    acc = probe.by_phase["setup"]
    return acc["child"] / calls, max(0.0, acc["parent"] - bare) / calls


def corrected_self(tracer: Tracer, phase: str, cost: Tuple[float, float]) -> Dict[str, float]:
    """Self seconds per layer in ``phase`` minus the estimated tracer cost."""
    inside, outside = cost
    out = tracer.phase_self(phase)
    for (layer, parent), (spans, _seconds) in tracer.edges.items():
        out[layer] = out.get(layer, 0.0) - inside * spans
        out[parent] = out.get(parent, 0.0) - outside * spans
    return {layer: max(0.0, seconds) for layer, seconds in out.items()}


def _own_methods(cls: type) -> List[str]:
    """Public plain methods ``cls`` itself defines."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, types.FunctionType)
    ]


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    todo = [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of ``repro``."""
    from repro.harness import runner as runner_mod
    from repro.harness import sweep as sweep_mod
    from repro.protocols.base import RoutingProtocol
    from repro.radio.mac import CsmaCaMac
    from repro.sim.engine import PeriodicTask, Simulator
    from repro.sim.events import Event
    from repro.sim.medium import WirelessMedium
    from repro.sim.network import Network
    from repro.sim.node import Node
    from repro.sim.packet import Packet, PacketView
    from repro.sim.statistics import StatsCollector
    from repro.store.store import ExperimentStore
    from repro.workloads.base import Workload

    patch = tracer.patch

    # Scheduler: the event loop itself and the bulk inserts (workloads
    # schedule whole traffic plans in advance; the MAC inserts per frame).
    patch(Simulator, "run", "engine", "engine.runs")
    for name in ("schedule_many", "schedule_at_many", "schedule_periodic_many"):
        patch(Simulator, name, "engine", "engine.bulk_inserts")

    # Event.fire is charged to the layer that owns the callback, resolved
    # once per callback function.
    cache: Dict[Any, str] = {}
    periodic_fire = PeriodicTask._fire

    def layer_of(callback: Any) -> str:
        func = getattr(callback, "__func__", callback)
        if func is periodic_fire:
            return layer_of(callback.__self__._callback)
        if isinstance(func, functools.partial):
            return layer_of(func.func)
        if isinstance(func, types.FunctionType):
            layer = cache.get(func)
            if layer is None:
                layer = cache[func] = layer_of_module(func.__module__)
            return layer
        return layer_of_module(getattr(func, "__module__", None))

    patch(Event, "fire", lambda event: layer_of(event.callback), "engine.fired")

    # Medium, node and packet.
    patch(WirelessMedium, "begin_transmission", "medium", "medium.frames")
    patch(WirelessMedium, "refresh_positions", "medium", "medium.refreshes")
    patch(Node, "deliver", "node", "node.deliveries")
    patch(Packet, "view", "node", "packet.views")
    patch(Packet, "copy", "node", "packet.copies")
    patch(PacketView, "copy", "node", "packet.copies")

    # MAC and routing protocols (every concrete override of handle_packet).
    patch(CsmaCaMac, "enqueue", "mac", "mac.enqueued")
    for cls in _subclasses(RoutingProtocol):
        if "handle_packet" in vars(cls):
            patch(cls, "handle_packet", "protocol", "protocol.packets")

    # Mobility models: every class under repro.mobility defining step().
    for module_name in (
        "repro.mobility.highway",
        "repro.mobility.graph_walk",
        "repro.mobility.manhattan",
        "repro.mobility.random_waypoint",
        "repro.mobility.fcd_trace",
    ):
        module = importlib.import_module(module_name)
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module_name
                and "step" in vars(cls)
            ):
                patch(cls, "step", "mobility", "mobility.steps")

    # Radio models: propagation, reception and interference.  The medium's
    # per-receiver interference sum is one radio span, so the propagation
    # calls inside it (one per interferer) run unwrapped; wrapping each of
    # them doubled the traced run time of the storm.
    patch(WirelessMedium, "_interference_at", "radio", "radio.calls")
    for module_name in (
        "repro.radio.propagation",
        "repro.radio.reception",
        "repro.radio.interference",
    ):
        module = importlib.import_module(module_name)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module_name:
                for name in _own_methods(cls):
                    patch(cls, name, "radio", "radio.calls")

    # Statistics collector: every public method.
    for name in _own_methods(StatsCollector):
        patch(StatsCollector, name, "stats", "stats.calls")

    # Workloads: build() and the per-node receive handlers they install.
    for cls in _subclasses(Workload):
        if "build" in vars(cls):
            patch(cls, "build", "workload", "workload.builds")
        if "_make_receiver" in vars(cls):
            raw = vars(cls)["_make_receiver"]
            make = raw.__func__ if isinstance(raw, staticmethod) else raw
            span = tracer.span

            def make_receiver(*args: Any, _make: Any = make, **kwargs: Any) -> Any:
                return span(_make(*args, **kwargs), "workload", "workload.receives")

            setattr(
                cls,
                "_make_receiver",
                staticmethod(make_receiver) if isinstance(raw, staticmethod) else make_receiver,
            )

    # Harness, sweep and store.
    patch(runner_mod.ExperimentRunner, "build", "harness", "harness.builds")
    patch(runner_mod.ExperimentRunner, "run", "harness", "harness.runs")
    patch(Network, "attach_protocols", "harness", "harness.attaches")
    patch(sweep_mod, "sweep_replications", "sweep", "sweep.calls")
    patch(ExperimentStore, "append", "store", "store.appends")
