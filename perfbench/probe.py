"""Set-up probe: one fresh process, timed up to the first simulated event.

    python3 perfbench/probe.py WORKLOAD SEED

Imports the simulator, builds the workload's first cell the way a
measured unit does (scenario and policy set-up; for the fleet also the
worker pool, the run directory and the initial placement) and stops at
the first ``Simulator.run_until`` call, which fires the first event.
Prints that moment as ``time.monotonic()`` seconds; the parent
subtracts the moment it spawned this process.  In the fleet the first
event fires in a forked worker, which raises :class:`FirstEvent`
through the engine's cell-error path back to this process.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class FirstEvent(Exception):
    """Raised by the first ``run_until`` call; carries its timestamp."""


def _stop(self: object, end_time: int) -> None:
    raise FirstEvent(time.monotonic())


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    from repro.sim.engine import Simulator

    from units import make_workloads

    Simulator.run_until = _stop  # type: ignore[method-assign]
    unit = make_workloads(ROOT / ".perfbench_out" / "probe")[workload]
    try:
        unit.run_unit(seed)
    except FirstEvent as first:
        print(repr(first.args[0]))
        return 0
    print("probe: the workload fired no event", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
