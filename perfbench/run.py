"""Benchmark of mixedreg's paper experiments, end to end and per module.

Usage, from the repository root::

    python3 perfbench/run.py --workload c9-studies --seed 1 --seconds 10 --trace 0

Each pass of a workload runs in a fresh interpreter (``perfbench/worker.py``)
that calls ``mixedreg.cli.main(argv)`` for each of the workload's command
lines, one process at a time, with BLAS threads pinned to one.  Passes
repeat while another one is expected to end within ``--seconds`` (there
is always at least one); more interpreters are started, import the
package and exit until there are ``SETUP_SAMPLES`` set-up times.

``--workload all`` measures every workload with tracing and prints each
end-to-end and per-layer metric as ``<workload> <name> <value> <unit>``.

``--trace 0`` reports the end-to-end metrics: medians over passes of
``wall_s``, ``cpu_s``, ``peak_rss_mb``, the median ``setup_s``, and
``ok_ratio``, the share of attempted operations that did not fail.
``--trace 1`` adds one traced pass and reports the per-layer metrics of
``perfbench/spans.py``; ``bench.trace_overhead_s`` is its wall time minus
the median untraced one.  The last line of standard output is the JSON
result; the line before it holds the run's metadata.  Outputs of the last
run of each workload are kept under ``.perfbench_run/<workload>``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# fixed string hashing, so set and dict layouts repeat from pass to pass
HASH_SEED = {"PYTHONHASHSEED": "0"}
SETUP_SAMPLES = 5
# a run must end within 180 s; no single pass may take longer than this
PASS_TIMEOUT_S = 150.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not run a pass; no result is printed."""


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MIXEDREG_OUT"}
    env.update(THREAD_PINS)
    env.update(HASH_SEED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(workload: str, seed: int, run_dir: Path, *, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its result."""
    index = len(list(run_dir.glob("pass-*.json")))
    result_file = run_dir / f"pass-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--run-dir", str(run_dir), "--result", str(result_file)]
    if setup_only:
        cmd.append("--setup-only")
    with open(run_dir / "worker.log", "a") as log:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(), stdout=log,
                              stderr=subprocess.STDOUT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not result_file.exists():
        raise BenchError(f"worker exited with {proc.returncode}; see {run_dir / 'worker.log'}")
    return json.loads(result_file.read_text())


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the report holds both metric sets (per-layer only if traced)."""
    run_dir = ROOT / ".perfbench_run" / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    passes = []
    start = time.perf_counter()
    last = 0.0
    # another pass only if it should end within the measuring time
    while not passes or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        passes.append(run_pass(workload, seed, run_dir))
        last = time.perf_counter() - began
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(workload, seed, run_dir, setup_only=True)["setup_s"])
    traced = run_pass(workload, seed, run_dir, trace=True) if trace else None
    measured = passes + ([traced] if traced else [])

    attempted = sum(p["attempted"] for p in measured)
    failed = sum(p["failed"] for p in measured)
    end_to_end = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
    }
    per_layer = {}
    if traced:
        per_layer = {k: traced["layers"][k] for k in LAYER_METRICS}
        per_layer["bench.trace_overhead_s"] = traced["wall_s"] - end_to_end["wall_s"]

    first = passes[0]
    report = {
        "meta": {
            "workload": workload,
            "seed": seed,
            "passes": len(passes),
            "setup_samples": len(setups),
            "git_sha": git_sha(),
            "python": first["python"],
            "numpy": first["numpy"],
            "scipy": first["scipy"],
            "nproc": os.cpu_count(),
            "thread_pins": THREAD_PINS,
            "src_lines": src_lines(),
            "problems": sorted({p for r in measured for p in r["problems"]}),
        },
        "correct": all(r["correct"] for r in measured),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": _unit(k)} for k, v in per_layer.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(report, indent=2))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/mixedreg/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a mixedreg checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            for workload in WORKLOADS:
                report = run(workload, args.seed, args.seconds, True)
                for section in ("end_to_end", "per_layer"):
                    for name, m in report[section].items():
                        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
                print(f"{workload} correct={report['correct']} attempted={report['attempted']} "
                      f"failed={report['failed']} problems={report['meta']['problems']}")
            return 0
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("meta " + json.dumps(report["meta"]))
    metrics = report["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
