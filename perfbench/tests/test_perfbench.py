"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

The exact-repeat test makes two traced passes of every workload (about
three minutes on two cores); select it away with ``-k "not repeat"``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import LAYERS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# work counters later changes may cite as counts; they must repeat exactly
REPEAT_COUNTERS = (
    "kkt.sweeps",
    "solvers.newton_steps",
    "fem.krylov_iters",
    "fem.solve_linear.calls",
    "kkt.splu.calls",
    "geometry.vertices",
    "fracnorm.pair_evals",
)


def test_self_times_and_unattributed_time_add_up_to_wall():
    # cli.main [0, 10] > solvers.solve_state [1, 6] > fem.solve_linear [2, 5] > fem.cg [3, 4],
    # and a failed kkt.splu [7, 8] under cli.main
    spans = [
        ["cli.main", 0.0, 10.0, -1, "r", False],
        ["solvers.solve_state", 1.0, 6.0, 0, "r", False],
        ["fem.solve_linear", 2.0, 5.0, 1, "r", False],
        ["fem.cg", 3.0, 4.0, 2, "r", False],
        ["kkt.splu", 7.0, 8.0, 0, "r", True],
    ]
    tracer = Tracer()
    tracer.spans.extend(spans)
    m = summarize(tracer, 12.0, 0)
    assert m["cli.self_s"] == 10.0 - 5.0 - 1.0
    assert m["solvers.self_s"] == 2.0
    assert m["fem.self_s"] == 3.0
    assert m["fem.solve_linear.busy_s"] == 3.0
    assert m["kkt.splu.busy_s"] == 1.0
    assert m["bench.unattributed_s"] == 2.0
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["bench.unattributed_s"] == 12.0


def test_refuses_to_run_outside_a_checkout():
    bare = run.ROOT / ".perfbench_run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fine-mesh", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def run_pass_in(run_dir: Path, workload: str) -> dict:
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    return run.run_pass(workload, 7, run_dir, trace=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_work_counters_repeat_exactly(workload):
    a, b = [run_pass_in(run.ROOT / ".perfbench_run" / f"selftest-{workload}-{i}", workload) for i in (1, 2)]
    assert a["correct"] and b["correct"], (a["problems"], b["problems"])
    counts = {k: (a["layers"][k], b["layers"][k]) for k in a["layers"] if run._unit(k) in ("count", "bytes")}
    assert all(x == y for x, y in counts.values()), counts
    assert set(REPEAT_COUNTERS) <= set(counts)
    assert any(a["layers"][k] for k in REPEAT_COUNTERS)
