"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public (and a few hot private) functions
of each simulator layer where their callers bound them, keeps one
aggregate per function (calls, total seconds, self seconds) plus a few
work counters, and records spans only at coarse boundaries (workload,
policy run, engine stage, cell).  Nothing is written while the tracer
runs; :meth:`LayerTracer.simulator_metrics` and
:meth:`LayerTracer.parent_metrics` fold it into the per-layer
metrics at the end.

Hot functions get aggregates, not spans, and the hottest leaves
(``SharedCache.insert`` and its eviction step, ``Simulator.at``,
``Event.cancel``) are only counted: ``insert`` runs hundreds of
thousands of times per scenario pass, so a span or two clock reads per
call would measure the tracer instead of the simulator.  Their time
stays in the self time of the timed caller, ``integrate_duration``,
which is the same layer.

Self time is a wrapped call's duration minus the time of the wrapped
calls nested inside it, so every host second inside a traced pass is
claimed by exactly one function: the event loop's own share is what
``Simulator.run_until`` keeps after its handlers' wrapped callees are
subtracted.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.aql import AqlScheduler
from repro.core.vtrs import VTRS
from repro.exec import ResultCache, RunDir
from repro.fleet import AqlAware
from repro.guest.barrier import SpinBarrier
from repro.guest.os import GuestOS
from repro.guest.phases import Compute
from repro.guest.semaphore import Semaphore
from repro.guest.spinlock import SpinLock
from repro.guest.thread import GuestThread
from repro.hardware.cache import SharedCache
from repro.hypervisor import machine as machine_module
from repro.hypervisor.credit import CreditScheduler
from repro.hypervisor.machine import Machine
from repro.sim.engine import Event, Simulator

_clock = time.perf_counter

#: (owner, attribute, layer) for every timed function.  Module-level
#: functions are patched in the module that imported them, because
#: that binding is the one the hot path calls.
TIMED: tuple[tuple[Any, str, str], ...] = (
    (Simulator, "run_until", "sim"),
    (machine_module, "integrate_duration", "hardware.cache"),
    (machine_module, "estimate_duration_ns", "hardware.cache"),
    (SharedCache, "evict_actor", "hardware.cache"),
    (CreditScheduler, "priority_for", "hypervisor.credit"),
    (CreditScheduler, "boost_eligible", "hypervisor.credit"),
    (CreditScheduler, "select_pcpu", "hypervisor.credit"),
    (CreditScheduler, "enqueue", "hypervisor.credit"),
    (CreditScheduler, "pick_next", "hypervisor.credit"),
    (CreditScheduler, "burn", "hypervisor.credit"),
    (CreditScheduler, "on_tick", "hypervisor.credit"),
    (CreditScheduler, "on_accounting", "hypervisor.credit"),
    (Machine, "wake_vcpu", "hypervisor"),
    (Machine, "apply_pool_plan", "hypervisor"),
    (GuestThread, "advance_phase", "guest"),
    (GuestOS, "maybe_rotate", "guest"),
    (GuestOS, "pick", "guest"),
    (GuestOS, "note_run", "guest"),
    (GuestOS, "thread_blocked", "guest"),
    (GuestOS, "thread_ready", "guest"),
    (GuestOS, "preempt_to", "guest"),
    (GuestOS, "has_runnable", "guest"),
    (SpinLock, "try_acquire", "guest"),
    (SpinLock, "release", "guest"),
    (SpinBarrier, "arrive", "guest"),
    (Semaphore, "try_acquire", "guest"),
    (Semaphore, "release", "guest"),
    (VTRS, "sample_all", "core.vtrs"),
    (AqlScheduler, "decide", "core.decide"),
)

#: parent-side exec/fleet functions timed on the parallel fleet pass
#: (the engine runs them in the parent, so the wrappers see them;
#: wrappers inside forked workers would not report back)
PARENT_TIMED: tuple[tuple[Any, str, str], ...] = (
    (ResultCache, "put", "exec"),
    (RunDir, "record_cell", "exec"),
    (AqlAware, "place", "fleet"),
    (AqlAware, "rebalance", "fleet"),
)


#: work counters kept beside the per-function call counts
COUNTERS = (
    "sim.events",
    "sim.scheduled",
    "sim.cancelled",
    "cache.inserts",
    "cache.evicting_inserts",
    "cache.evictions",
    "cache.victim_visits",
    "guest.compute_phases_done",
    "guest.rotations",
)


@dataclass
class Aggregate:
    """One wrapped function: calls, inclusive and exclusive seconds."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Span:
    """A coarse boundary: name, start, end, and the enclosing span."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class LayerTracer:
    """Install wrappers, aggregate, and fold into per-layer metrics."""

    #: time the parent-side exec/fleet functions instead of the
    #: simulator layers
    parent: bool = False
    aggregates: dict[str, Aggregate] = field(default_factory=dict)
    counters: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COUNTERS, 0)
    )
    spans: list[Span] = field(default_factory=list)
    #: the shared result cache whose puts count as ``cache_put``; puts
    #: into any other store are the run directory's checkpoint writes
    shared_cache: Any = None
    _stack: list[float] = field(default_factory=list, init=False, repr=False)
    _open: list[int] = field(default_factory=list, init=False, repr=False)
    _saved: list[tuple[Any, str, Any]] = field(
        default_factory=list, init=False, repr=False
    )

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, _clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def add_span(self, name: str, start: float, end: float, parent: int) -> int:
        """A span measured elsewhere (engine events), added afterwards."""
        self.spans.append(Span(name, start, end, parent))
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index].end = _clock()
        self._open.remove(index)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(
        self,
        name: str,
        layer: str,
        fn: Callable[..., Any],
        hook: Optional[Callable[..., Any]] = None,
    ) -> Any:
        agg = self.aggregates.setdefault(name, Aggregate(layer))
        stack = self._stack
        call = fn if hook is None else functools.partial(hook, fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = _clock()
            try:
                return call(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                nested = stack.pop()
                agg.calls += 1
                agg.total_s += elapsed
                agg.self_s += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _hooks(self) -> dict[str, Callable[..., Any]]:
        """Timed functions whose counters need their arguments or result."""
        counters = self.counters

        def run_until(fn: Callable[..., Any], sim: Simulator, end: int) -> None:
            before = sim.events_fired
            try:
                fn(sim, end)
            finally:
                counters["sim.events"] += sim.events_fired - before

        def advance(fn: Callable[..., Any], thread: GuestThread) -> Any:
            if isinstance(thread.phase, Compute):
                counters["guest.compute_phases_done"] += 1
            return fn(thread)

        def rotate(fn: Callable[..., Any], guest: GuestOS, vcpu: Any) -> Any:
            before = vcpu.current_thread
            thread = fn(guest, vcpu)
            if thread is not None and thread is not before:
                counters["guest.rotations"] += 1
            return thread

        def put(fn: Callable[..., Any], cache: ResultCache, *rest: Any) -> Any:
            # the shared cache's put is the engine's cache write; a put
            # into any other store is the run directory's checkpoint
            start = _clock()
            try:
                return fn(cache, *rest)
            finally:
                key = (
                    "exec.cache_put"
                    if cache is self.shared_cache
                    else "exec.checkpoint_put"
                )
                agg = self.aggregates.setdefault(key, Aggregate("exec"))
                agg.calls += 1
                agg.total_s += _clock() - start

        return {
            "Simulator.run_until": run_until,
            "GuestThread.advance_phase": advance,
            "GuestOS.maybe_rotate": rotate,
            "ResultCache.put": put,
        }

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _install_counters(self) -> None:
        """Count-only wrappers for the hottest leaves (no clock reads).

        Their time stays in the timed caller's self time, which is the
        same layer: fills and evictions run inside ``integrate_duration``.
        """
        counters = self.counters
        insert = SharedCache.insert
        evict = SharedCache._evict_from_others
        at = Simulator.at
        cancel = Event.cancel

        def counted_insert(cache: SharedCache, *args: Any) -> None:
            before = counters["cache.evictions"]
            insert(cache, *args)
            counters["cache.inserts"] += 1
            if counters["cache.evictions"] != before:
                counters["cache.evicting_inserts"] += 1

        def counted_evict(cache: SharedCache, actor: Any, amount: float) -> float:
            occupancy = cache._occupancy
            counters["cache.evictions"] += 1
            counters["cache.victim_visits"] += len(occupancy) - (actor in occupancy)
            return evict(cache, actor, amount)

        def counted_at(sim: Simulator, *args: Any) -> Event:
            counters["sim.scheduled"] += 1
            return at(sim, *args)

        def counted_cancel(event: Event) -> None:
            counters["sim.cancelled"] += 1
            cancel(event)

        self._patch(SharedCache, "insert", counted_insert)
        self._patch(SharedCache, "_evict_from_others", counted_evict)
        self._patch(Simulator, "at", counted_at)
        self._patch(Event, "cancel", counted_cancel)

    def install(self) -> "LayerTracer":
        hooks = self._hooks()
        functions = PARENT_TIMED if self.parent else TIMED
        for owner, attr, layer in functions:
            name = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
            self._patch(
                owner,
                attr,
                self._timed(name, layer, owner.__dict__[attr], hooks.get(name)),
            )
        if not self.parent:
            self._install_counters()
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def layer_self_s(self, prefix: str) -> float:
        return sum(
            agg.self_s
            for agg in self.aggregates.values()
            if agg.layer == prefix or agg.layer.startswith(prefix + ".")
        )

    def layer_calls(self, prefix: str) -> int:
        return sum(
            agg.calls
            for agg in self.aggregates.values()
            if agg.layer == prefix or agg.layer.startswith(prefix + ".")
        )

    def calls(self, name: str) -> int:
        agg = self.aggregates.get(name)
        return agg.calls if agg is not None else 0

    def self_s(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg.self_s if agg is not None else 0.0

    def total_s(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg.total_s if agg is not None else 0.0

    def counts(self) -> dict[str, int]:
        """Every deterministic count: wrapped calls plus work counters."""
        doc = {
            f"calls.{name}": agg.calls
            for name, agg in sorted(self.aggregates.items())
        }
        doc.update(sorted(self.counters.items()))
        return doc

    def simulator_metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the simulator layers (sim..core)."""
        counter = self.counters.__getitem__
        cache_self = self.layer_self_s("hardware.cache")
        phases = counter("guest.compute_phases_done")
        arms = self.calls("estimate_duration_ns")
        return {
            "hardware.cache.integrate_calls": self.calls("integrate_duration"),
            "hardware.cache.integrate_self_s": self.self_s("integrate_duration"),
            "hardware.cache.inserts": counter("cache.inserts"),
            "hardware.cache.evicting_inserts": counter("cache.evicting_inserts"),
            "hardware.cache.victim_visits": counter("cache.victim_visits"),
            "hardware.cache.share": (
                cache_self / traced_wall_s if traced_wall_s > 0 else 0.0
            ),
            "hardware.cache.arms_per_phase": arms / phases if phases else 0.0,
            "sim.events": counter("sim.events"),
            "sim.scheduled": counter("sim.scheduled"),
            "sim.cancelled": counter("sim.cancelled"),
            "sim.run_until_self_s": self.self_s("Simulator.run_until"),
            "hypervisor.credit_calls": self.layer_calls("hypervisor.credit"),
            "hypervisor.credit_s": self.layer_self_s("hypervisor.credit"),
            "hypervisor.wakes": self.calls("Machine.wake_vcpu"),
            "hypervisor.plan_applies": self.calls("Machine.apply_pool_plan"),
            "guest.phase_advances": self.calls("GuestThread.advance_phase"),
            "guest.rotations": counter("guest.rotations"),
            "guest.self_s": self.layer_self_s("guest"),
            "core.vtrs_samples": self.calls("VTRS.sample_all"),
            "core.vtrs_s": self.self_s("VTRS.sample_all"),
            "core.decides": self.calls("AqlScheduler.decide"),
            "core.decide_s": self.self_s("AqlScheduler.decide"),
        }

    def parent_metrics(self) -> dict[str, float]:
        """Parent-side exec/fleet timings of the parallel fleet pass."""
        return {
            "exec.journal_s": self.total_s("RunDir.record_cell")
            + self.total_s("exec.checkpoint_put"),
            "exec.cache_put_s": self.total_s("exec.cache_put"),
            "fleet.place_s": self.total_s("AqlAware.place"),
            "fleet.rebalance_s": self.total_s("AqlAware.rebalance"),
        }


__all__ = ["Aggregate", "LayerTracer", "PARENT_TIMED", "Span", "TIMED"]
