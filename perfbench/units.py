"""The benchmark's workloads, driven through the simulator's public API.

A *unit* is the smallest piece of work whose simulated outputs the
benchmark checks against a recorded digest:

* ``s5_mixed`` — Table 4 S5 (16 vCPUs on 4 pCPUs) under ``XenCredit``
  and then under ``AqlPolicy``: two cells, serial, no exec engine;
* ``fleet_weekday`` — the 32-host ``weekday`` story with the
  ``aql_aware`` placer through ``SweepRunner(jobs=2)`` into a fresh
  cache and run directory: one cell per populated host per epoch.

A scenario unit's ``run_unit(..., idle=f)`` calls ``f`` between its two
policy runs, where no simulator work is in flight; the benchmark samples
host speed there (``speed.py``).

The benchmark seed selects one of :data:`SIM_SEEDS` simulator seeds, the
set whose digests ``reference.json`` records; the program only ever
receives the built scenario or fleet and that simulator seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.baselines import AqlPolicy, Policy, XenCredit
from repro.exec import (
    CellFinished,
    Event,
    Finished,
    PhaseStarted,
    ResultCache,
    SweepRunner,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import AppPlacement, Scenario
from repro.fleet import (
    MODE_PRIOR,
    STORIES,
    FleetSimulation,
    FleetSpec,
    make_placer,
)
from repro.sim.units import MS

#: simulator seeds with a recorded reference digest per workload
SIM_SEEDS = 32

#: scenario cells: warm-up long enough for vTRS to type every vCPU
#: (4 periods of 30 ms) and AQL to apply its pools, then measure
WARMUP_NS = 250 * MS
MEASURE_NS = 250 * MS

S5 = Scenario(
    "S5",
    (
        AppPlacement("specweb2009", 4),
        AppPlacement("facesim", 4),
        AppPlacement("bzip2", 4),
        AppPlacement("libquantum", 2),
        AppPlacement("hmmer", 2),
    ),
    pcpus=4,
)

#: the committed fleet bench's shape (32 hosts x 8 slots), three epochs
FLEET = FleetSpec(
    hosts=32,
    host_class="medium",
    vcpu_ratio=2,
    epochs=3,
    warmup_ns=80 * MS,
    epoch_ns=240 * MS,
    migration_lag_ns=40 * MS,
    migration_budget=8,
)
FLEET_JOBS = 2


def sim_seed(seed: int) -> int:
    return seed % SIM_SEEDS


def digest(payload: Any) -> str:
    """sha256 of canonical JSON; floats keep every bit via ``repr``."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Cell:
    """One cell as the benchmark saw it."""

    label: str
    wall_s: float
    #: ``time.perf_counter()`` when the cell ended, as this process saw it
    end: float = 0.0
    #: cells of one kind share a cost distribution: a policy, or a host-epoch
    kind: str = "host-epoch"


@dataclass
class UnitResult:
    """One unit: its digest, simulated seconds and host cost."""

    digest: str
    vsec: float
    wall_s: float
    cpu_s: float
    cells: list[Cell] = field(default_factory=list)
    #: (correct, total) vCPU type detections against the oracle types
    typed: tuple[int, int] = (0, 0)
    #: events the engine emitted, with their arrival time (fleet only)
    events: list[tuple[float, Event]] = field(default_factory=list)
    migrations: int = 0


class ScenarioWorkload:
    """Two policies over one scenario, serially, without the engine."""

    def __init__(
        self, name: str, scenario: Scenario, policies: tuple[Callable[[], Policy], ...]
    ) -> None:
        self.name = name
        self.scenario = scenario
        self.policies = policies

    def run_unit(
        self,
        seed: int,
        jobs: Optional[int] = None,
        on_cell: Optional[Callable[[str], Callable[[], None]]] = None,
        idle: Optional[Callable[[], None]] = None,
    ) -> UnitResult:
        del jobs  # always serial
        vsec = (WARMUP_NS + MEASURE_NS) / 1e9
        cells: list[Cell] = []
        payload: list[Any] = []
        correct = total = 0
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for index, make_policy in enumerate(self.policies):
            if index and idle is not None:
                idle()
            policy = make_policy()
            done = on_cell(policy.name) if on_cell is not None else None
            cell_start = time.perf_counter()
            run = run_scenario(
                self.scenario,
                policy,
                warmup_ns=WARMUP_NS,
                measure_ns=MEASURE_NS,
                seed=sim_seed(seed),
                keep_built=True,
            )
            cell_end = time.perf_counter()
            cells.append(Cell(policy.name, cell_end - cell_start, cell_end, policy.name))
            if done is not None:
                done()
            assert run.built is not None
            payload.append(
                {
                    "policy": run.policy,
                    "results": {
                        name: dataclasses.astuple(result)
                        for name, result in run.results.items()
                    },
                    "detected": {
                        str(vcpu_id): str(vtype)
                        for vcpu_id, vtype in run.detected_types.items()
                    },
                    "pool_layout": run.pool_layout,
                    "events": run.built.machine.sim.events_fired,
                }
            )
            oracle = run.built.ctx.oracle_types
            for vcpu_id, vtype in run.detected_types.items():
                total += 1
                correct += vtype == oracle.get(vcpu_id)
            run.built = None
        wall = time.perf_counter() - start
        return UnitResult(
            digest=digest(payload),
            vsec=vsec * len(cells),
            wall_s=wall,
            cpu_s=cpu_seconds() - cpu0,
            cells=cells,
            typed=(correct, total),
        )


class FleetWorkload:
    """The weekday fleet through the engine, into a fresh cache."""

    name = "fleet_weekday"
    jobs = FLEET_JOBS

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def run_unit(
        self,
        seed: int,
        jobs: Optional[int] = None,
        on_cell: Optional[Callable[[str], Callable[[], None]]] = None,
        shared_cache: Optional[Callable[[ResultCache], None]] = None,
        idle: Optional[Callable[[], None]] = None,
    ) -> UnitResult:
        del on_cell, idle  # cells run inside the engine
        jobs = self.jobs if jobs is None else jobs
        events: list[tuple[float, Event]] = []

        def sink(event: Event) -> None:
            events.append((time.perf_counter(), event))

        self.scratch.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.scratch))
        try:
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            cache = ResultCache(root=tmp / "cache") if jobs > 1 else None
            if cache is not None and shared_cache is not None:
                shared_cache(cache)
            runner = SweepRunner(
                jobs=jobs,
                cache=cache,
                run_root=tmp / "runs" if jobs > 1 else None,
                sinks=[sink],
            )
            sim = FleetSimulation(
                FLEET,
                STORIES["weekday"],
                make_placer("aql_aware"),
                seed=sim_seed(seed),
                runner=runner,
            )
            try:
                run = sim.run()
            finally:
                runner.engine.close()
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu0
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        vsec = (FLEET.warmup_ns + FLEET.epoch_ns) / 1e9
        cells = [
            Cell(event.label, event.seconds, stamp)
            for stamp, event in events
            if isinstance(event, CellFinished) and event.outcome == "ran"
        ]
        correct = total = 0
        for host_id in sorted(sim.residents):
            for name, spec in sorted(sim.residents[host_id].items()):
                if name in sim.detected:
                    total += 1
                    correct += sim.detected[name] == MODE_PRIOR[spec.mode]
        return UnitResult(
            digest=digest(dataclasses.asdict(run)),
            vsec=vsec * len(cells),
            wall_s=wall,
            cpu_s=cpu,
            cells=cells,
            typed=(correct, total),
            events=events,
            migrations=run.total_migrations,
        )


def stage_windows(
    events: list[tuple[float, Event]],
) -> list[tuple[float, float, list[tuple[float, float]]]]:
    """Per engine stage: execute start, end, and (arrival, seconds) per cell."""
    windows = []
    start = 0.0
    cells: list[tuple[float, float]] = []
    for stamp, event in events:
        if isinstance(event, PhaseStarted) and event.phase == "execute":
            start, cells = stamp, []
        elif isinstance(event, CellFinished) and event.outcome == "ran":
            cells.append((stamp, event.seconds))
        elif isinstance(event, Finished):
            windows.append((start, stamp, cells))
    return windows


def make_workloads(scratch: Path) -> dict[str, Any]:
    return {
        "s5_mixed": ScenarioWorkload("s5_mixed", S5, (XenCredit, AqlPolicy)),
        "fleet_weekday": FleetWorkload(scratch),
    }


__all__ = [
    "FLEET",
    "FleetWorkload",
    "S5",
    "SIM_SEEDS",
    "ScenarioWorkload",
    "UnitResult",
    "cpu_seconds",
    "digest",
    "make_workloads",
    "sim_seed",
    "stage_windows",
]
