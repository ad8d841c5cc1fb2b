"""The run state: one pure fold of the engine event stream.

``state = fold(state, event)`` is the only reducer over the typed
events of :mod:`repro.exec.events`.  It returns a new frozen
:class:`RunState` and reads no clock: the wall stamps ``/status``
shows are passed in by the engine.  Every view of a run renders this
one state — the ``/status`` document, ``<run-dir>/status.json``
(:class:`StatusWriter`), the flight-recorder metadata, ``/metrics``
(:mod:`repro.ops.metrics`) and the experiments CLI's ``[engine]``
lines — and a dead run's ``events.jsonl`` folds offline
(:func:`fold_records`) to the state the live engine held.  The engine
swaps each new state in with one assignment, so a reader on another
thread sees whole states only, and it never reads the state back
(pinned by ``tests/test_ops_plane.py::TestObserverEffect``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Union

from repro.exec.events import (
    CellFinished,
    CellScheduled,
    CheckpointWritten,
    Event,
    Finished,
    Interrupted,
    PhaseStarted,
    event_from_json,
)
from repro.exec.progress import EtaTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.engine import Engine

#: bumped when the /status document shape changes incompatibly
STATUS_SCHEMA = 1

#: wall-seconds bucket bounds for per-cell durations (engine cells run
#: milliseconds to minutes — unlike the ns-scale simulation defaults)
CELL_SECONDS_BUCKETS = (0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


#: one stage's tallies before its first event: cells planned, cells
#: finished, and finished cells by outcome
_NEW_STAGE: Mapping[str, int] = {
    "cells": 0, "done": 0, "ran": 0, "hit": 0, "resumed": 0,
}


@dataclass(frozen=True)
class RunState:
    """Everything the event stream says about a run."""

    phase: str = ""
    stage: str = ""
    stages: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    #: events seen, by kind
    events: Mapping[str, int] = field(default_factory=dict)
    planned: int = 0
    scheduled: int = 0
    ran: int = 0
    hit: int = 0
    resumed: int = 0
    #: cumulative journalled cells, from the last ``CheckpointWritten``
    #: or, before this run's first one, the cells resumed from the journal
    checkpointed: int = 0
    #: finished cells not yet journalled, as of that count
    checkpoint_lag: int = 0
    sweeps_finished: int = 0
    #: reason of the current sweep's interruption (cleared by a new plan)
    interrupted: Optional[str] = None
    #: interruptions over the whole stream, by reason
    interrupts: Mapping[str, int] = field(default_factory=dict)
    #: executed cells: total wall seconds, their CELL_SECONDS_BUCKETS
    #: histogram (last slot: above every bound), CPU and peak RSS
    ran_seconds: float = 0.0
    seconds_buckets: tuple[int, ...] = (0,) * (len(CELL_SECONDS_BUCKETS) + 1)
    utime_s: float = 0.0
    stime_s: float = 0.0
    max_rss_kb: float = 0.0
    #: host wall stamps of the first and latest event (None offline)
    started_unix: Optional[float] = None
    updated_unix: Optional[float] = None

    @property
    def done(self) -> int:
        return self.ran + self.hit + self.resumed


def _bump(counts: Mapping[str, int], key: str) -> dict[str, int]:
    return {**counts, key: counts.get(key, 0) + 1}


def fold(
    state: RunState, event: Event, now: Optional[float] = None
) -> RunState:
    """The state after ``event``; ``now`` is the caller's wall stamp."""
    changes: dict[str, Any] = {"events": _bump(state.events, event.kind)}
    if now is not None:
        changes["updated_unix"] = now
        if state.started_unix is None:
            changes["started_unix"] = now
    if isinstance(event, PhaseStarted):
        changes.update(phase=event.phase, stage=event.stage)
        if event.phase == "plan":
            tally = state.stages.get(event.stage, _NEW_STAGE)
            changes.update(
                stages={
                    **state.stages,
                    event.stage: {
                        **tally, "cells": tally["cells"] + event.cells
                    },
                },
                planned=state.planned + event.cells,
                interrupted=None,
            )
    elif isinstance(event, CellScheduled):
        changes["scheduled"] = state.scheduled + 1
    elif isinstance(event, CellFinished):
        outcome = event.outcome
        tally = state.stages.get(event.stage, _NEW_STAGE)
        changes["stages"] = {
            **state.stages,
            event.stage: {
                **tally,
                "done": tally["done"] + 1,
                outcome: tally[outcome] + 1,
            },
        }
        changes[outcome] = getattr(state, outcome) + 1
        if outcome == "ran":
            seconds = max(0.0, event.seconds)
            buckets = list(state.seconds_buckets)
            buckets[bisect_left(CELL_SECONDS_BUCKETS, seconds)] += 1
            changes.update(
                ran_seconds=state.ran_seconds + seconds,
                seconds_buckets=tuple(buckets),
                utime_s=state.utime_s + event.utime_s,
                stime_s=state.stime_s + event.stime_s,
                max_rss_kb=max(state.max_rss_kb, event.max_rss_kb),
            )
        elif outcome == "resumed" and state.resumed >= state.checkpointed:
            # an earlier run journalled every resumed cell, and
            # CheckpointWritten.completed counts them: before this run's
            # first checkpoint the journal holds at least these cells
            checkpointed = state.resumed + 1
            changes.update(
                checkpointed=checkpointed,
                checkpoint_lag=max(0, state.done + 1 - checkpointed),
            )
    elif isinstance(event, CheckpointWritten):
        changes.update(
            checkpointed=event.completed,
            checkpoint_lag=max(0, state.done - event.completed),
        )
    elif isinstance(event, Interrupted):
        changes.update(
            interrupted=event.reason,
            interrupts=_bump(state.interrupts, event.reason),
        )
    elif isinstance(event, Finished):
        changes["sweeps_finished"] = state.sweeps_finished + 1
    return dataclasses.replace(state, **changes)


def fold_records(records: Iterable[Mapping[str, Any]]) -> RunState:
    """Fold an event log's JSON records (``read_event_log``) offline."""
    state = RunState()
    for record in records:
        state = fold(state, event_from_json(record))
    return state


def status_document(
    state: RunState, engine: Optional["Engine"] = None
) -> dict[str, Any]:
    """The /status JSON object (also status.json's content).

    ``engine`` adds what the stream does not carry: the whole-run cell
    hint, whether a run directory journals (fold lag is vacuously zero
    without one), and the ``run`` and ``workers`` blocks.
    """
    hint = engine.cells_hint if engine is not None else None
    expected = max(state.planned, hint or 0)
    journalling = engine is not None and engine.run_dir is not None
    elapsed: Optional[float] = None
    if state.started_unix is not None and state.updated_unix is not None:
        elapsed = max(0.0, state.updated_unix - state.started_unix)
    doc: dict[str, Any] = {
        "schema": STATUS_SCHEMA,
        "phase": state.phase,
        "stage": state.stage,
        "stages": {
            name: dict(tally)
            for name, tally in sorted(state.stages.items())
        },
        "cells": {
            "planned": state.planned,
            "expected": expected,
            "done": state.done,
            "ran": state.ran,
            "hit": state.hit,
            "resumed": state.resumed,
            "scheduled": state.scheduled,
            "checkpointed": state.checkpointed,
            "queue_depth": max(0, state.scheduled - state.ran),
            "fold_lag": (
                max(0, state.done - state.checkpointed) if journalling else 0
            ),
        },
        "eta_seconds": EtaTracker(state.ran, state.ran_seconds).estimate(
            expected - state.done
        ),
        "elapsed_seconds": elapsed,
        "interrupted": state.interrupted,
        "sweeps_finished": state.sweeps_finished,
        "updated_unix": state.updated_unix,
    }
    if engine is not None:
        run_dir = engine.run_dir
        doc["run"] = {
            "jobs": engine.jobs,
            "run_id": run_dir.run_id if run_dir else None,
            "run_root": str(engine.run_root) if engine.run_root else None,
            "plan": engine.plan_fingerprint,
            "resumed_at_open": engine.resumed_at_open,
        }
        doc["workers"] = engine.worker_health.snapshot()
    return doc


class EngineStatus:
    """``engine.status``: the engine's current state as /status."""

    __slots__ = ("engine",)

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine

    def document(self) -> dict[str, Any]:
        return status_document(self.engine.state, self.engine)


class StatusWriter:
    """Sink: rewrite ``status.json`` atomically at run milestones.

    Writes on every ``CheckpointWritten`` (the durable progress beat)
    plus phase boundaries and terminal events — not on every cell, so
    cache-hit storms don't turn into fsync storms.  The write is
    tmp-then-:func:`os.replace`, so a reader never observes a torn
    document and a SIGKILL mid-write strands at most one
    ``status.json.tmp`` (removed on the next attach).
    """

    #: event kinds that trigger a rewrite
    TRIGGERS = (PhaseStarted, CheckpointWritten, Interrupted, Finished)

    def __init__(self, path: Union[str, Path], status: EngineStatus) -> None:
        self.path = Path(path)
        self.status = status
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        # a previous crash may have stranded the temp file
        try:
            self._tmp.unlink()
        except OSError:
            pass

    def __call__(self, event: Event) -> None:
        if isinstance(event, self.TRIGGERS):
            self.write()

    def write(self) -> None:
        text = json.dumps(self.status.document(), indent=2, sort_keys=True)
        self._tmp.write_text(text + "\n", encoding="utf-8")
        os.replace(self._tmp, self.path)

    def close(self) -> None:
        # final rewrite so status.json reflects the terminal state even
        # when the last event was not a trigger
        try:
            self.write()
        except OSError:  # pragma: no cover - run dir vanished
            pass


def read_status(path: Union[str, Path]) -> Optional[dict[str, Any]]:
    """Parse a ``status.json`` if present and well-formed."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


__all__ = [
    "CELL_SECONDS_BUCKETS",
    "EngineStatus",
    "RunState",
    "STATUS_SCHEMA",
    "StatusWriter",
    "fold",
    "fold_records",
    "read_status",
    "status_document",
]
