"""The run state: one fold of the event stream behind every view.

* ``/metrics`` renders the same series, values and ``# HELP``/``# TYPE``
  lines as the per-event metrics fold it replaced (the expected set
  below was recorded from that fold over the golden narration);
* folding a run directory's ``events.jsonl`` offline gives the state
  the live engine held, wall stamps aside — for finished runs (a
  Hypothesis property) and for SIGKILLed ones;
* an interrupted sweep reports the cells it really ran and journalled,
  and a resumed one counts its resumed cells as journalled;
* ``repro.exec`` runs a checkpointed sweep without loading the ops
  plane.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    Engine,
    Interrupted,
    PhaseStarted,
    ResultCache,
    fold,
    fold_records,
    read_event_log,
    read_status,
    status_document,
)
from repro.exec.checkpoint import CheckpointJournal
from repro.exec.queue import fork_available
from repro.ops import engine_registry
from repro.telemetry.exposition import prometheus_text

from tests.engine_cells import make_cells, make_interrupting_cells

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "golden" / "engine_events.jsonl"

#: the golden narration's /metrics text, line by line, as the retired
#: per-event fold (``EngineMetricsSink``) rendered it
GOLDEN_METRICS = {
    "# HELP repro_engine_cell_stime_seconds Cumulative kernel-mode CPU "
    "seconds across executed cells.",
    "# TYPE repro_engine_cell_stime_seconds counter",
    "repro_engine_cell_stime_seconds 0.0",
    "# HELP repro_engine_cell_utime_seconds Cumulative user-mode CPU "
    "seconds across executed cells.",
    "# TYPE repro_engine_cell_utime_seconds counter",
    "repro_engine_cell_utime_seconds 0.0",
    "# HELP repro_engine_cells Cells finished, by outcome "
    "(ran/hit/resumed).",
    "# TYPE repro_engine_cells counter",
    'repro_engine_cells{outcome="hit"} 2.0',
    'repro_engine_cells{outcome="ran"} 2.0',
    'repro_engine_cells{outcome="resumed"} 2.0',
    "# HELP repro_engine_events Engine events observed, by kind.",
    "# TYPE repro_engine_events counter",
    'repro_engine_events{kind="cell_finished"} 6.0',
    'repro_engine_events{kind="cell_scheduled"} 2.0',
    'repro_engine_events{kind="checkpoint_written"} 2.0',
    'repro_engine_events{kind="finished"} 3.0',
    'repro_engine_events{kind="phase_started"} 12.0',
    "# HELP repro_engine_stage_cells Cells finished per stage, by "
    "outcome.",
    "# TYPE repro_engine_stage_cells counter",
    'repro_engine_stage_cells{outcome="hit",stage="act3"} 2.0',
    'repro_engine_stage_cells{outcome="ran",stage="act1"} 2.0',
    'repro_engine_stage_cells{outcome="resumed",stage="act2"} 2.0',
    "# HELP repro_engine_sweeps Sweeps folded to completion.",
    "# TYPE repro_engine_sweeps counter",
    "repro_engine_sweeps 3.0",
    "# HELP repro_engine_cell_max_rss_kb Largest peak RSS reported by "
    "any executed cell (KiB).",
    "# TYPE repro_engine_cell_max_rss_kb gauge",
    "repro_engine_cell_max_rss_kb 0.0",
    "# HELP repro_engine_cells_cached Cells satisfied without executing "
    "(cache hits + resumed replays).",
    "# TYPE repro_engine_cells_cached gauge",
    "repro_engine_cells_cached 4.0",
    "# HELP repro_engine_cells_done Cells finished across all sweeps so "
    "far.",
    "# TYPE repro_engine_cells_done gauge",
    "repro_engine_cells_done 6.0",
    "# HELP repro_engine_cells_planned Cells planned across all sweeps "
    "so far.",
    "# TYPE repro_engine_cells_planned gauge",
    "repro_engine_cells_planned 6.0",
    "# HELP repro_engine_checkpointed Cells durably journalled to the "
    "run directory.",
    "# TYPE repro_engine_checkpointed gauge",
    "repro_engine_checkpointed 2.0",
    "# HELP repro_engine_fold_lag Finished cells not yet journalled.",
    "# TYPE repro_engine_fold_lag gauge",
    "repro_engine_fold_lag 0.0",
    "# HELP repro_engine_phase Current engine phase (0=plan 1=probe "
    "2=execute 3=fold).",
    "# TYPE repro_engine_phase gauge",
    "repro_engine_phase 3.0",
    "# HELP repro_engine_queue_depth Cells handed to the work queue but "
    "not yet finished.",
    "# TYPE repro_engine_queue_depth gauge",
    "repro_engine_queue_depth 0.0",
    "# HELP repro_engine_cell_seconds Wall-clock seconds per executed "
    "cell.",
    "# TYPE repro_engine_cell_seconds histogram",
    'repro_engine_cell_seconds_bucket{le="0.01"} 2',
    'repro_engine_cell_seconds_bucket{le="0.1"} 2',
    'repro_engine_cell_seconds_bucket{le="0.5"} 2',
    'repro_engine_cell_seconds_bucket{le="1.0"} 2',
    'repro_engine_cell_seconds_bucket{le="5.0"} 2',
    'repro_engine_cell_seconds_bucket{le="30.0"} 2',
    'repro_engine_cell_seconds_bucket{le="120.0"} 2',
    'repro_engine_cell_seconds_bucket{le="+Inf"} 2',
    "repro_engine_cell_seconds_sum 0.0",
    "repro_engine_cell_seconds_count 2",
}


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    for name in ("REPRO_ENGINE_KILL_AFTER", "REPRO_JOBS", "REPRO_SERVE",
                 "REPRO_RUN_DIR"):
        env.pop(name, None)
    return env


def _journal_cells(run_root: Path) -> int:
    [run_dir] = [p for p in run_root.iterdir() if p.is_dir()]
    journal = CheckpointJournal(run_dir / "journal.jsonl")
    return sum(1 for r in journal.load() if r.get("kind") == "cell")


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
class TestMetricsSeries:
    def test_golden_narration_renders_the_recorded_series(self):
        state = fold_records(read_event_log(GOLDEN))
        lines = prometheus_text(engine_registry(state)).splitlines()
        assert len(lines) == len(set(lines))
        assert set(lines) == GOLDEN_METRICS

    def test_an_interrupt_adds_its_series(self):
        state = fold_records(read_event_log(GOLDEN))
        for event in (
            PhaseStarted(seq=0, phase="plan", stage="act4", cells=1),
            Interrupted(seq=1, completed=2, total=1, stage="act4"),
        ):
            state = fold(state, event)
        lines = set(prometheus_text(engine_registry(state)).splitlines())
        added = {
            "# HELP repro_engine_interrupts Sweeps stopped early, by "
            "reason.",
            "# TYPE repro_engine_interrupts counter",
            'repro_engine_interrupts{reason="keyboard-interrupt"} 1.0',
            'repro_engine_events{kind="interrupted"} 1.0',
            'repro_engine_events{kind="phase_started"} 13.0',
            "repro_engine_cells_planned 7.0",
            "repro_engine_phase 0.0",
        }
        assert added <= lines
        assert lines - added == GOLDEN_METRICS - {
            'repro_engine_events{kind="phase_started"} 12.0',
            "repro_engine_cells_planned 6.0",
            "repro_engine_phase 3.0",
        }


# ----------------------------------------------------------------------
# offline fold ≡ live state
# ----------------------------------------------------------------------
def _without_stamps(state):
    return dataclasses.replace(state, started_unix=None, updated_unix=None)


JOBS = [1, 2] if fork_available() else [1]


class TestOfflineFold:
    @settings(max_examples=10, deadline=None)
    @given(
        cells=st.integers(min_value=1, max_value=6),
        warm=st.floats(min_value=0.0, max_value=1.0),
        stages=st.lists(
            st.sampled_from(["", "epoch 1/2", "epoch 2/2", 'odd "s"']),
            min_size=1, max_size=3,
        ),
        jobs=st.sampled_from(JOBS),
    )
    def test_run_dir_events_fold_to_the_live_state(
        self, tmp_path_factory, cells, warm, stages, jobs
    ):
        base = tmp_path_factory.mktemp("fold")
        cache = ResultCache(root=base / "cache")
        sweeps = [
            make_cells(cells, knuth=2654435761 + n)
            for n in range(len(stages))
        ]
        # a fraction of every sweep's cells is already in the cache
        warmed = int(cells * warm)
        if warmed:
            Engine(jobs=1, cache=cache).run(
                [cell for sweep in sweeps for cell in sweep[:warmed]]
            )
        engine = Engine(jobs=jobs, cache=cache, run_root=base / "runs")
        for sweep, stage in zip(sweeps, stages):
            engine.run(sweep, stage=stage)
        engine.close()
        live = engine.state
        offline = fold_records(read_event_log(engine.run_dir.events_path))
        assert offline == _without_stamps(live)
        assert live.started_unix is not None
        assert offline.ran == cells * len(stages) - warmed * len(stages)
        assert offline.hit == warmed * len(stages)
        # the rendered document agrees too, wall stamps aside
        document = engine.status.document()
        rendered = status_document(offline, engine)
        for stamp in ("updated_unix", "elapsed_seconds"):
            assert rendered.pop(stamp) is None
            document.pop(stamp)
        assert rendered == document

    @pytest.mark.parametrize("jobs", JOBS)
    def test_killed_run_folds_to_the_journal(self, tmp_path, jobs):
        run_root = tmp_path / "runs"
        env = _subprocess_env()
        env["REPRO_ENGINE_KILL_AFTER"] = "3"
        killed = subprocess.run(
            [sys.executable, "-m", "tests.engine_cells",
             "--run-root", str(run_root), "--cells", "6",
             "--jobs", str(jobs)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        [run_dir] = [p for p in run_root.iterdir() if p.is_dir()]
        state = fold_records(read_event_log(run_dir / "events.jsonl"))
        assert state.checkpointed == _journal_cells(run_root) == 3
        assert state.sweeps_finished == 0


# ----------------------------------------------------------------------
# resumed cells are journalled cells
# ----------------------------------------------------------------------
def test_a_resumed_run_counts_its_cells_as_checkpointed(tmp_path):
    run_root = tmp_path / "runs"
    for _ in range(2):
        engine = Engine(jobs=1, run_root=run_root)
        engine.run(make_cells(4))
        engine.close()
    assert engine.state.resumed == 4
    assert engine.state.events.get("checkpoint_written") is None
    status = read_status(engine.run_dir.path / "status.json")
    assert status["cells"]["checkpointed"] == 4 == _journal_cells(run_root)
    assert status["cells"]["fold_lag"] == 0
    metrics = prometheus_text(engine_registry(engine.state)).splitlines()
    assert "repro_engine_checkpointed 4.0" in metrics
    assert "repro_engine_fold_lag 0.0" in metrics
    # the run directory's log spans both runs and folds to the journal
    offline = fold_records(read_event_log(engine.run_dir.events_path))
    assert offline.checkpointed == 4


# ----------------------------------------------------------------------
# interrupted sweeps report what they did
# ----------------------------------------------------------------------
class TestInterruptedCount:
    def test_state_counts_the_cells_before_the_interrupt(self, tmp_path):
        engine = Engine(jobs=1, run_root=tmp_path / "runs")
        with pytest.raises(KeyboardInterrupt):
            engine.run(make_interrupting_cells(6, interrupt_at=3))
        engine.close()
        assert engine.state.ran == _journal_cells(tmp_path / "runs") == 3
        assert engine.state.interrupted == "keyboard-interrupt"

    def test_cli_interrupt_line(self, tmp_path):
        script = (
            "import sys\n"
            "from repro.experiments import __main__ as cli\n"
            "from tests.engine_cells import make_interrupting_cells\n"
            "def boom(fast, runner):\n"
            "    runner.run(make_interrupting_cells(6, interrupt_at=3))\n"
            "cli.EXPERIMENTS['boom'] = ('interrupting sweep', boom)\n"
            "sys.exit(cli.main(['boom', '--no-cache', '--quiet',\n"
            "                   '--run-dir', sys.argv[1]]))\n"
        )
        run_root = tmp_path / "runs"
        done = subprocess.run(
            [sys.executable, "-c", script, str(run_root)],
            cwd=REPO_ROOT, env=_subprocess_env(), capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 130, done.stderr
        assert "[engine] interrupted after 3 cell(s)" in done.stderr
        assert _journal_cells(run_root) == 3


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------
def test_checkpointed_sweep_does_not_load_the_ops_plane(tmp_path):
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.exec import Engine\n"
        "from tests.engine_cells import make_cells\n"
        "engine = Engine(jobs=1, run_root=sys.argv[1])\n"
        "engine.run(make_cells(3))\n"
        "engine.close()\n"
        "assert (engine.run_dir.path / 'status.json').exists()\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.split('.')[:2] == ['repro', 'ops']\n"
        "                or m == 'http.server')\n"
        "print(loaded)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "runs")],
        cwd=REPO_ROOT, env=_subprocess_env(), capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
