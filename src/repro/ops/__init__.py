"""``repro.ops`` — the read-only observation plane over the engine.

What a running (or dead) sweep exposes to an operator over HTTP or on
a crash lives here, strictly *above* :mod:`repro.exec`:
``repro.exec`` imports nothing from this package, and nothing here
steers execution.  The run state itself — the one fold of the event
stream, ``engine.status`` and ``<run-dir>/status.json`` — lives below,
in :mod:`repro.exec.state`; this package renders it and keeps the
recent events:

* :mod:`repro.ops.server` — the opt-in stdlib HTTP plane
  (``/metrics``, ``/status``, ``/events``), ``--serve`` or
  ``REPRO_SERVE``;
* :mod:`repro.ops.stream` — the fan-out sink, the event ring and
  drop-on-full subscriptions behind ``/events``;
* :mod:`repro.ops.metrics` — the run state as Prometheus text;
* :mod:`repro.ops.flightrec` — the flight recorder dumped on
  interrupts, SIGTERM/SIGUSR1 and unhandled exceptions;
* :mod:`repro.ops.profiles` — the slowest-cells tables;
* :mod:`repro.ops.cli` — ``python -m repro.ops attach RUN_DIR``.

With or without ``--serve``, a sweep folds to byte-identical results
(``tests/test_ops_plane.py::test_serve_preserves_fold_bytes``).
"""

from repro.ops.flightrec import FLIGHTREC_SCHEMA, FlightRecorder
from repro.ops.metrics import engine_registry
from repro.ops.profiles import read_journal, render_slowest, slowest_cells
from repro.ops.server import (
    DEFAULT_HOST,
    ENV_SERVE,
    OpsPlane,
    OpsServer,
    attach_ops,
    parse_serve_spec,
    resolve_serve_spec,
)
from repro.ops.stream import EventRing, FanOutSink, Subscription

__all__ = [
    "DEFAULT_HOST",
    "ENV_SERVE",
    "EventRing",
    "FLIGHTREC_SCHEMA",
    "FanOutSink",
    "FlightRecorder",
    "OpsPlane",
    "OpsServer",
    "Subscription",
    "attach_ops",
    "engine_registry",
    "parse_serve_spec",
    "read_journal",
    "render_slowest",
    "resolve_serve_spec",
    "slowest_cells",
]
