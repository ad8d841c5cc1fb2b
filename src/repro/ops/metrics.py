"""The /metrics exposition: the engine's run state as Prometheus text.

:func:`engine_registry` renders a :class:`~repro.exec.state.RunState`
(plus worker liveness) into a fresh telemetry registry, which ``/metrics``
exposes through the existing
:func:`repro.telemetry.exposition.prometheus_text` as ``repro_engine_*``
series.  These are *engine* metrics about the
host-side run, separate from the virtual-clock telemetry inside cells;
a series appears once the stream has produced its first sample.
Rendering reads the state and never steers the engine (pinned by
``tests/test_ops_plane.py::TestObserverEffect``).
"""

from __future__ import annotations

from typing import Optional

from repro.exec.events import CELL_OUTCOMES, PHASE_ORDER
from repro.exec.queue import WorkerHealth
from repro.exec.state import CELL_SECONDS_BUCKETS, RunState
from repro.telemetry.registry import TelemetryRegistry

#: phase name -> ordinal for the engine_phase gauge (0=plan … 3=fold)
PHASE_INDEX = {phase: index for index, phase in enumerate(PHASE_ORDER)}

#: ``# HELP`` text per instrument
HELP = {
    "engine_events": "Engine events observed, by kind.",
    "engine_phase": "Current engine phase (0=plan 1=probe 2=execute "
                    "3=fold).",
    "engine_cells_planned": "Cells planned across all sweeps so far.",
    "engine_queue_depth": "Cells handed to the work queue but not yet "
                          "finished.",
    "engine_cells": "Cells finished, by outcome (ran/hit/resumed).",
    "engine_stage_cells": "Cells finished per stage, by outcome.",
    "engine_cells_done": "Cells finished across all sweeps so far.",
    "engine_cells_cached": "Cells satisfied without executing (cache "
                           "hits + resumed replays).",
    "engine_cell_seconds": "Wall-clock seconds per executed cell.",
    "engine_cell_utime_seconds": "Cumulative user-mode CPU seconds "
                                 "across executed cells.",
    "engine_cell_stime_seconds": "Cumulative kernel-mode CPU seconds "
                                 "across executed cells.",
    "engine_cell_max_rss_kb": "Largest peak RSS reported by any "
                              "executed cell (KiB).",
    "engine_checkpointed": "Cells durably journalled to the run "
                           "directory.",
    "engine_fold_lag": "Finished cells not yet journalled.",
    "engine_interrupts": "Sweeps stopped early, by reason.",
    "engine_sweeps": "Sweeps folded to completion.",
    "engine_workers_live": "Pool workers currently believed alive.",
    "engine_workers_dead": "Pool workers that exited abnormally.",
    "engine_worker_last_beat_age_seconds": "Seconds since the most "
                                           "recent worker heartbeat "
                                           "(-1 before the first beat).",
}


def engine_registry(
    state: RunState, health: Optional[WorkerHealth] = None
) -> TelemetryRegistry:
    """The engine instruments for ``state`` (plus worker liveness)."""
    registry = TelemetryRegistry()

    def counter(name: str, value: float, **labels: object) -> None:
        registry.counter(name, help=HELP[name], **labels).inc(value)

    def gauge(name: str, value: float) -> None:
        registry.gauge(name, help=HELP[name]).set(float(value))

    for kind, count in state.events.items():
        counter("engine_events", count, kind=kind)
    if state.phase:
        gauge("engine_phase", PHASE_INDEX.get(state.phase, -1))
        gauge("engine_cells_planned", state.planned)
    if state.scheduled:
        gauge("engine_queue_depth", max(0, state.scheduled - state.ran))
    for outcome in CELL_OUTCOMES:
        if getattr(state, outcome):
            counter("engine_cells", getattr(state, outcome), outcome=outcome)
        for stage, tally in state.stages.items():
            if stage and tally[outcome]:
                counter(
                    "engine_stage_cells", tally[outcome],
                    stage=stage, outcome=outcome,
                )
    if state.done:
        gauge("engine_cells_done", state.done)
    if state.hit + state.resumed:
        gauge("engine_cells_cached", state.hit + state.resumed)
    if state.ran:
        histogram = registry.histogram(
            "engine_cell_seconds", bounds=CELL_SECONDS_BUCKETS,
            help=HELP["engine_cell_seconds"],
        )
        # the state already holds the bucketed observations
        histogram.bucket_counts = list(state.seconds_buckets)
        histogram.count = state.ran
        histogram.value = float(state.ran)
        histogram.sum = state.ran_seconds
        counter("engine_cell_utime_seconds", state.utime_s)
        counter("engine_cell_stime_seconds", state.stime_s)
        gauge("engine_cell_max_rss_kb", state.max_rss_kb)
    if state.checkpointed:
        gauge("engine_checkpointed", state.checkpointed)
        gauge("engine_fold_lag", state.checkpoint_lag)
    for reason, count in state.interrupts.items():
        counter("engine_interrupts", count, reason=reason)
    if state.sweeps_finished:
        counter("engine_sweeps", state.sweeps_finished)
    if health is not None:
        snapshot = health.snapshot()
        gauge("engine_workers_live", snapshot["live"])
        gauge("engine_workers_dead", snapshot["dead"])
        gauge("engine_worker_last_beat_age_seconds", health.last_beat_age())
    return registry


__all__ = [
    "HELP",
    "PHASE_INDEX",
    "engine_registry",
]
