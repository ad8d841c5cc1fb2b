"""Pin the per-cell TTY progress lines byte for byte.

``ProgressPrinter`` writes one stderr line per finished cell.  These
tests drive real sweeps through :class:`~repro.exec.SweepRunner` and
compare the printer's output with literal bytes for every outcome
(``ran``, ``hit``, ``resumed``), with and without a stage label, and
with a cell count wide enough to pad the index.  The executed cells'
wall time comes from ``perf_counter``, which is replaced inside
:mod:`repro.exec.queue` by a fake that makes every cell take exactly
1.25 s, so the ``ran`` lines are deterministic too.
"""

from __future__ import annotations

import io
import types

import pytest

from repro.exec import ProgressPrinter, ResultCache, SweepRunner
from repro.exec import queue as exec_queue

from tests.engine_cells import make_cells


@pytest.fixture()
def fixed_cell_time(monkeypatch):
    """Every in-process cell measures exactly 1.25 wall seconds."""
    ticks = iter(float(n) * 1.25 for n in range(10_000))
    fake = types.SimpleNamespace(
        perf_counter=lambda: next(ticks), time=exec_queue.time.time
    )
    monkeypatch.setattr(exec_queue, "time", fake)


def _printed(**runner_kwargs):
    stream = io.StringIO()
    runner = SweepRunner(
        jobs=1, progress=ProgressPrinter(stream=stream), **runner_kwargs
    )
    return runner, stream


def test_ran_hit_resumed_lines(tmp_path, fixed_cell_time):
    cache_dir = tmp_path / "cache"
    run_root = tmp_path / "runs"

    runner, stream = _printed(
        cache=ResultCache(root=cache_dir), run_root=run_root
    )
    runner.run(make_cells(2))
    runner.engine.close()
    assert stream.getvalue() == (
        "[1/2] ran arith:0 (1.25s)\n"
        "[2/2] ran arith:1 (1.25s)\n"
    )

    runner, stream = _printed(cache=ResultCache(root=cache_dir))
    runner.run(make_cells(2), stage="warm")
    runner.engine.close()
    assert stream.getvalue() == (
        "[warm] [1/2] hit arith:0 (0.00s)\n"
        "[warm] [2/2] hit arith:1 (0.00s)\n"
    )

    runner, stream = _printed(run_root=run_root)
    runner.run(make_cells(2), stage="epoch 2/3")
    runner.engine.close()
    assert stream.getvalue() == (
        "[epoch 2/3] [1/2] resumed arith:0 (0.00s)\n"
        "[epoch 2/3] [2/2] resumed arith:1 (0.00s)\n"
    )


def test_index_is_padded_to_the_total_width(fixed_cell_time):
    runner, stream = _printed()
    runner.run(make_cells(10), stage="s")
    lines = stream.getvalue().splitlines(keepends=True)
    assert lines[0] == "[s] [ 1/10] ran arith:0 (1.25s)\n"
    assert lines[8] == "[s] [ 9/10] ran arith:8 (1.25s)\n"
    assert lines[9] == "[s] [10/10] ran arith:9 (1.25s)\n"
    assert len(lines) == 10


def test_quiet_runner_prints_nothing(capsys):
    SweepRunner(jobs=1).run(make_cells(2))
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out == ""
