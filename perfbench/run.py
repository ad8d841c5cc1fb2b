"""The repository benchmark: end-to-end and per-layer simulator metrics.

    python3 perfbench/run.py --workload s5_mixed --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 3 --seconds 50
    python3 perfbench/run.py --record-reference
    python3 perfbench/run.py --write-manifest

``--trace 0`` repeats the workload's unit (see ``units.py``) until
``--seconds`` have passed, checks every unit's simulated outputs against
``reference.json``, spawns set-up probes, and prints the end-to-end
metrics, every timing scaled by the host slowdown measured around it
(``speed.py``).  ``--trace 1`` runs one untraced and three traced units (two at
the seed, one at the next seed) and prints the per-layer metrics, the
tracing overhead, and whether every deterministic count repeated.
``--all`` measures every workload from this one process and prints a
table.  The last stdout line of a workload run is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every cell matched its reference.  Run records (units, spans,
aggregates, the second seed's counts) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: set-up probes per run; setup_s is their median
SETUP_PROBES = 5

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which a metric may worsen before a change is rejected
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("vsec_per_wall_s", "vsec/s", "higher", 0.25),
    ("vsec_per_cpu_s", "vsec/cpu_s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cell_wall_s.p50", "s", "lower", 0.25),
    ("cell_wall_s.p90", "s", "lower", 0.25),
)

#: (name, unit, better); counts repeat exactly at one seed
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("hardware.cache.integrate_calls", "count", "lower"),
    ("hardware.cache.integrate_self_s", "s", "lower"),
    ("hardware.cache.inserts", "count", "lower"),
    ("hardware.cache.evicting_inserts", "count", "lower"),
    ("hardware.cache.victim_visits", "count", "lower"),
    ("hardware.cache.share", "ratio", "lower"),
    ("hardware.cache.arms_per_phase", "ratio", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.scheduled", "count", "lower"),
    ("sim.cancelled", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.run_until_self_s", "s", "lower"),
    ("hypervisor.credit_calls", "count", "lower"),
    ("hypervisor.credit_s", "s", "lower"),
    ("hypervisor.wakes", "count", "lower"),
    ("hypervisor.plan_applies", "count", "lower"),
    ("guest.phase_advances", "count", "lower"),
    ("guest.rotations", "count", "lower"),
    ("guest.self_s", "s", "lower"),
    ("core.vtrs_samples", "count", "lower"),
    ("core.vtrs_s", "s", "lower"),
    ("core.decides", "count", "lower"),
    ("core.decide_s", "s", "lower"),
    ("core.type_accuracy", "ratio", "higher"),
    ("exec.cells", "count", "lower"),
    ("exec.cell_cpu_s", "s", "lower"),
    ("exec.journal_s", "s", "lower"),
    ("exec.cache_put_s", "s", "lower"),
    ("exec.parallel_efficiency", "ratio", "higher"),
    ("fleet.place_s", "s", "lower"),
    ("fleet.rebalance_s", "s", "lower"),
    ("fleet.migrations", "count", "lower"),
    ("fleet.barrier_wait_s", "s", "lower"),
    ("fleet.straggler_ratio", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

WORKLOADS: tuple[tuple[str, str], ...] = (
    (
        "s5_mixed",
        "Table 4 S5 under Xen then AQL: all five vCPU types, libquantum "
        "churns the LLC so the eviction path is heaviest. Stresses "
        "hardware.cache and core; bypasses exec and fleet",
    ),
    (
        "fleet_weekday",
        "32-host weekday story, aql_aware placer, SweepRunner(jobs=2) into "
        "a fresh cache: the only workload through exec (pool, journal, "
        "cache) and fleet (placement, barrier)",
    ),
)

RUN_SECONDS = 50


def manifest() -> dict[str, Any]:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# statistics and host measurements
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    # inclusive: with a policy's dozen cells the exclusive method would
    # extrapolate to the largest one
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def spent(speed: Any) -> tuple[float, float]:
    """Wall and CPU seconds a speed log has spent sampling so far."""
    return (speed.spent_wall, speed.spent_cpu) if speed is not None else (0.0, 0.0)


def per_kind(cells: list[Any], seconds: list[float], statistic: Any) -> float:
    """``statistic`` of each kind's cell seconds, averaged over the kinds.

    A scenario unit runs one cell per policy and the policies' costs
    differ by up to 1.5x, so a quantile pooled over both falls in the
    gap between them and jumps with the few cells at its edges.
    """
    kinds: dict[str, list[float]] = {}
    for cell, value in zip(cells, seconds):
        kinds.setdefault(cell.kind, []).append(value)
    return statistics.fmean(statistic(values) for values in kinds.values())


def reset_peak_rss() -> None:
    """Restart this process's high-water RSS (Linux; best effort)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def own_peak_rss_kb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first event."""
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1]) - spawned


# ----------------------------------------------------------------------
# the runs
# ----------------------------------------------------------------------
class Ledger:
    """Cells attempted and failed, checked against the reference."""

    def __init__(self, workload: str, reference: dict[str, dict[str, str]]):
        self.expected = reference.get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, unit: Any, seed: int) -> bool:
        from units import sim_seed

        self.attempted += len(unit.cells)
        want = self.expected.get(str(sim_seed(seed)))
        if unit.digest == want:
            return True
        self.failed += len(unit.cells)
        self.notes.append(
            f"seed {seed}: digest {unit.digest[:12]} != reference "
            f"{(want or 'missing')[:12]}"
        )
        return False

    def crashed(self, cells: int) -> None:
        self.attempted += cells
        self.failed += cells
        self.notes.append(traceback.format_exc())


def measure(workload: str, seed: int, seconds: float, ledger: Ledger) -> dict:
    """Untraced units until ``seconds`` pass; end-to-end metrics.

    For the serial workloads host speed is sampled between units and
    between a unit's two policy runs (see ``speed.py``); every unit and
    cell time is divided by the slowdown over its own interval, with the
    sampling time taken out.  Set-up probes are scaled by start-up
    references on every workload.
    """
    from speed import STARTUP_REFERENCE_S, SpeedLog, startup_seconds
    from units import make_workloads

    unit_runner = make_workloads(OUT / "tmp")[workload]
    # the kernel measures the vCPU this process runs on, which is where a
    # serial workload runs; the fleet's cells run in pool workers that
    # did not slow with it, and scaling them only added noise
    speed = SpeedLog() if workload != "fleet_weekday" else None
    reset_peak_rss()
    units: list[Any] = []
    #: per unit: (start, end, wall seconds, CPU seconds) without sampling
    spans: list[tuple[float, float, float, float]] = []
    sample = speed.sample if speed is not None else None
    if sample is not None:
        sample()
    start = time.perf_counter()
    last = 0.0
    # no unit starts that the last one's duration says would end late
    while not units or time.perf_counter() - start + last < seconds:
        # unit k runs seed + k: a run spans several inputs, so its
        # medians depend less on one seed's mix
        unit_seed = seed + len(units)
        wall0, cpu0 = spent(speed)
        begin = time.perf_counter()
        try:
            unit = unit_runner.run_unit(unit_seed, idle=sample)
        except Exception:  # a crashing cell is a failed cell, then stop
            ledger.crashed(1)
            break
        wall1, cpu1 = spent(speed)
        spans.append(
            (begin, time.perf_counter(), unit.wall_s - wall1 + wall0, unit.cpu_s - cpu1 + cpu0)
        )
        last = time.perf_counter() - begin
        if sample is not None:
            sample()
        ledger.check(unit, unit_seed)
        units.append(unit)
    worker_rss = [
        event.max_rss_kb
        for unit in units
        for _, event in unit.events
        if getattr(event, "max_rss_kb", 0.0)
    ]
    peak_kb = max([own_peak_rss_kb(), *worker_rss])
    if not units:
        return {}
    # each probe is scaled by the start-up references on either side
    probes: list[float] = []
    references = [startup_seconds()]
    for _ in range(SETUP_PROBES):
        probes.append(setup_probe(workload, seed))
        references.append(startup_seconds())
    setups = [
        probe * STARTUP_REFERENCE_S * 2 / (before + after)
        for probe, before, after in zip(probes, references, references[1:])
    ]

    def slowdown(begin: float, end: float) -> float:
        return speed.slowdown(begin, end) if speed is not None else 1.0

    slowdowns = [slowdown(begin, end) for begin, end, _, _ in spans]
    wall_rates = [u.vsec * x / w for u, x, (_, _, w, _) in zip(units, slowdowns, spans)]
    cpu_rates = [u.vsec * x / c for u, x, (_, _, _, c) in zip(units, slowdowns, spans)]
    all_cells = [c for u in units for c in u.cells]
    cells = [c.wall_s / slowdown(c.end - c.wall_s, c.end) for c in all_cells]
    raw_cells = [c.wall_s for c in all_cells]
    return {
        "units": len(units),
        "samples": {
            "vsec_per_wall_s": quartiles(wall_rates),
            "vsec_per_cpu_s": quartiles(cpu_rates),
            "setup_s": quartiles(setups),
            "cell_wall_s": quartiles(cells),
            "slowdown": quartiles([v for _, v in speed.samples] if speed else [1.0]),
        },
        "cells": len(cells),
        "metrics": {
            "vsec_per_wall_s": statistics.median(wall_rates),
            "vsec_per_cpu_s": statistics.median(cpu_rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kb / 1024.0,
            "cell_wall_s.p50": per_kind(all_cells, cells, statistics.median),
            "cell_wall_s.p90": per_kind(all_cells, cells, p90),
        },
        "raw": {
            "vsec_per_wall_s": statistics.median(u.vsec / w for u, (_, _, w, _) in zip(units, spans)),
            "setup_s": statistics.median(probes),
            "cell_wall_s.p50": per_kind(all_cells, raw_cells, statistics.median),
            "cell_wall_s.p90": per_kind(all_cells, raw_cells, p90),
        },
        "cell_samples": [
            (c.kind, c.wall_s, scaled) for c, scaled in zip(all_cells, cells)
        ],
        "speed_samples": speed.samples if speed is not None else [],
        "sampling_s": spent(speed)[0],
        "failed_ratio": ledger.failed / max(1, ledger.attempted),
        "unit_walls": [w for _, _, w, _ in spans],
    }


def traced_unit(unit_runner: Any, seed: int, jobs: Optional[int] = None):
    """One unit under the simulator-layer tracer, with its spans."""
    from layers import LayerTracer
    from units import stage_windows

    tracer = LayerTracer()
    with tracer:
        top = tracer.begin(f"{unit_runner.name} seed={seed}")

        def on_cell(name: str):
            cell = tracer.begin(f"policy {name}")
            return lambda: tracer.end(cell)

        unit = unit_runner.run_unit(seed, jobs=jobs, on_cell=on_cell)
        tracer.end(top)
    # the serial fleet pass: one engine stage per epoch, cells inside
    for number, (begin, end, cells) in enumerate(stage_windows(unit.events)):
        stage = tracer.add_span(f"epoch {number}", begin, end, top)
        for stamp, seconds in cells:
            tracer.add_span("cell", stamp - seconds, stamp, stage)
    return unit, tracer


def _traced_in_child(conn: Any, unit_runner: Any, seed: int, jobs: Optional[int]) -> None:
    """Forked child: one traced unit, its result and counts sent back."""
    try:
        unit, tracer = traced_unit(unit_runner, seed, jobs)
        conn.send((unit, tracer.counts(), None))
    except Exception:
        conn.send((None, None, traceback.format_exc()))
    finally:
        conn.close()


def parallel_metrics(unit_runner: Any, seed: int, ledger: Ledger) -> tuple[dict, dict]:
    """exec and fleet metrics from one parallel fleet unit.

    Parent-side wrappers plus the engine's event stream: wrappers inside
    the forked pool workers would not report back.
    """
    from layers import LayerTracer
    from units import stage_windows

    parent = LayerTracer(parent=True)

    def keep(cache: Any) -> None:
        parent.shared_cache = cache

    with parent:
        par = unit_runner.run_unit(seed, shared_cache=keep)
    ledger.check(par, seed)
    windows = stage_windows(par.events)
    ran = [e for _, e in par.events if getattr(e, "kind", "") == "cell_finished"]
    busy = sum(e.seconds for e in ran)
    execute = sum(end - begin for begin, end, _ in windows)
    waits, ratios = [], []
    for _, _, cells in windows:
        # a worker idles from the moment the queue runs dry until the
        # barrier: the (n - jobs + 1)-th finish starts the wait
        finish = sorted(stamp for stamp, _ in cells)
        waits.append(finish[-1] - finish[max(0, len(finish) - unit_runner.jobs)])
        seconds = [s for _, s in cells]
        ratios.append(max(seconds) / statistics.median(seconds))
    metrics = parent.parent_metrics()
    metrics.update(
        {
            "exec.cells": len(ran),
            "exec.cell_cpu_s": sum(e.utime_s + e.stime_s for e in ran),
            "exec.parallel_efficiency": busy / (unit_runner.jobs * execute),
            "fleet.migrations": par.migrations,
            "fleet.barrier_wait_s": sum(waits),
            "fleet.straggler_ratio": statistics.median(ratios),
        }
    )
    return metrics, {"wall_s": par.wall_s, "aggregates": _aggs(parent)}


def trace(workload: str, seed: int, ledger: Ledger) -> tuple[dict, dict]:
    """Per-layer metrics: untraced, traced twice at ``seed``, once at ``seed+1``."""
    from units import make_workloads

    unit_runner = make_workloads(OUT / "tmp")[workload]
    fleet = workload == "fleet_weekday"
    jobs = 1 if fleet else None
    base = unit_runner.run_unit(seed, jobs=jobs)
    ledger.check(base, seed)
    first, tracer = traced_unit(unit_runner, seed, jobs)
    ledger.check(first, seed)
    # the two units whose counts alone matter run side by side: the
    # repeat at the seed in a forked child, the next seed here.  No
    # thread exists yet (the parallel fleet run comes last), so the
    # fork is safe.
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(
        target=_traced_in_child, args=(send, unit_runner, seed, jobs)
    )
    child.start()
    send.close()
    try:
        other, tracer_other = traced_unit(unit_runner, seed + 1, jobs)
        again, again_counts, error = receive.recv()
    finally:
        child.join()
    if error is not None:
        raise RuntimeError(f"traced repeat failed:\n{error}")
    ledger.check(other, seed + 1)
    ledger.check(again, seed)

    counts = tracer.counts()
    if again_counts != counts:
        ledger.failed += len(again.cells)
        ledger.notes.append("traced counts differ between two runs at one seed")
    other_counts = tracer_other.counts()
    if other_counts["sim.events"] == counts["sim.events"]:
        ledger.failed += len(other.cells)
        ledger.notes.append("sim.events did not change with the seed")

    metrics: dict[str, float] = {
        name: 0.0 for name, _, _ in PER_LAYER if name.startswith(("exec.", "fleet."))
    }
    record: dict[str, Any] = {}
    if fleet:
        parallel, record["parallel"] = parallel_metrics(unit_runner, seed, ledger)
        metrics.update(parallel)
        if metrics["exec.cells"] != len(first.cells):
            ledger.failed += len(first.cells)
            ledger.notes.append("parallel and serial runs ran different cells")
    metrics.update(tracer.simulator_metrics(first.wall_s))
    correct, total = first.typed
    metrics["core.type_accuracy"] = correct / total if total else 0.0
    events = counts["sim.events"]
    metrics["sim.ns_per_event"] = base.wall_s / events * 1e9 if events else 0.0
    metrics["trace.overhead_s"] = first.wall_s - base.wall_s
    metrics["trace.overhead_ratio"] = first.wall_s / base.wall_s - 1.0
    record.update(
        {
            "untraced_wall_s": base.wall_s,
            "traced_wall_s": first.wall_s,
            "counts": counts,
            "next_seed": {"seed": seed + 1, "counts": other_counts},
            "aggregates": _aggs(tracer),
            "spans": [vars(s) for s in tracer.spans],
        }
    )
    return metrics, record


def _aggs(tracer: Any) -> dict[str, Any]:
    return {name: vars(agg) for name, agg in sorted(tracer.aggregates.items())}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def result_line(ledger: Ledger, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": ledger.failed == 0 and ledger.attempted > 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
                if name in metrics
            },
        }
    )


def table(workload: str, seed: int, result: dict) -> str:
    rows = [f"{workload} (seed {seed}, {result['units']} units, {result['cells']} cells)"]
    units = {name: unit for name, unit, _, _ in END_TO_END}
    samples = result["samples"]
    for name, value in result["metrics"].items():
        line = f"  {name:<18} {value:>12.4f} {units[name]}"
        key = name.removesuffix(".p50")
        if key in samples:
            q1, _, q3 = samples[key]
            line += f"   q1 {q1:.4f}  q3 {q3:.4f}"
        rows.append(line)
    rows.append(f"  {'failed_ratio':<18} {result['failed_ratio']:>12.4f} ratio")
    q1, slowdown, q3 = samples["slowdown"]
    rows.append(
        f"  {'host slowdown':<18} {slowdown:>12.4f} x   q1 {q1:.4f}  q3 {q3:.4f}"
        f"   ({len(result['speed_samples'])} samples, {result['sampling_s']:.2f} s)"
    )
    return "\n".join(rows)


def record_reference() -> int:
    from units import SIM_SEEDS, make_workloads

    reference: dict[str, dict[str, str]] = {}
    for name, runner in make_workloads(OUT / "tmp").items():
        reference[name] = {}
        for seed in range(SIM_SEEDS):
            reference[name][str(seed)] = runner.run_unit(seed).digest
            print(f"{name} seed {seed}: {reference[name][str(seed)]}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [name for name, _ in WORKLOADS]
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true", help="every workload, one process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        text = json.dumps(manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_reference:
        return record_reference()
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")

    reference = json.loads((HERE / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    workloads = names if args.all else [args.workload]
    e2e_units = {name: unit for name, unit, _, _ in END_TO_END}
    layer_units = {name: unit for name, unit, _ in PER_LAYER}
    status = 0
    for workload in workloads:
        ledger = Ledger(workload, reference)
        record: dict[str, Any] = {"workload": workload, "seed": args.seed}
        if args.trace:
            try:
                metrics, record["trace"] = trace(workload, args.seed, ledger)
            except Exception:
                ledger.crashed(1)
                metrics = {}
            line = result_line(ledger, metrics, layer_units)
            for name, unit in layer_units.items():
                if name in metrics:
                    print(f"{workload} {name} {metrics[name]:.6g} {unit}", file=sys.stderr)
        else:
            result = measure(workload, args.seed, args.seconds, ledger)
            metrics = result.get("metrics", {})
            record["measure"] = result
            line = result_line(ledger, metrics, e2e_units)
            if metrics:
                print(
                    table(workload, args.seed, result),
                    file=sys.stdout if args.all else sys.stderr,
                )
        record["notes"] = ledger.notes
        for note in ledger.notes:
            print(f"{workload}: {note}", file=sys.stderr)
        out = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, default=repr) + "\n")
        if ledger.failed or not ledger.attempted or not metrics:
            status = 1
        if not args.all and ledger.attempted:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
