"""One pass of one workload, in a fresh interpreter.

Started by ``perfbench/run.py`` with the repository root as working
directory and ``src`` on ``PYTHONPATH``.  The pass imports the package,
prepares its output directories (set-up), runs every CLI call of the
workload in-process through ``mixedreg.cli.main`` (the timed part), then
checks the outputs and writes one JSON result file.  With ``--trace 1``
the timed part runs under :class:`spans.Tracer`.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _checks(out_dir: Path) -> list:
    path = out_dir / "summary.json"
    if not path.exists():
        return []
    return json.loads(path.read_text())["checks"]


def _compare_regularity(out_dir: Path, ref: dict) -> str:
    """Mismatch description, or '' when regularity.csv matches the reference."""
    with open(out_dir / "regularity.csv") as fh:
        rows = {f"{r['field']},{r['level']}": r for r in csv.DictReader(fh)}
    if set(rows) != set(ref["rows"]):
        return f"regularity.csv rows {sorted(rows)} differ from the reference rows"
    for key, expected in ref["rows"].items():
        row = rows[key]
        if abs(float(row["h"]) - expected["h"]) > ref["h_rtol"] * expected["h"]:
            return f"{key}: mesh size {row['h']} differs from {expected['h']}"
        for col in ("lip", "holder05", "holder09"):
            if abs(float(row[col]) - expected[col]) > ref["atol"]:
                return f"{key}: {col} {row[col]} differs from {expected[col]} by more than {ref['atol']}"
    return ""


def _compare_fracnorm(out_dir: Path, ref: dict) -> str:
    with open(out_dir / "fracnorm.csv") as fh:
        row = next(csv.DictReader(fh))
    got = float(row["seminorm"])
    if abs(got - ref["seminorm"]) > ref["rtol"] * abs(ref["seminorm"]):
        return f"seminorm {got!r} differs from the reference {ref['seminorm']!r}"
    return ""


COMPARE = {"regularity.csv": _compare_regularity, "fracnorm.csv": _compare_fracnorm}


def verify(call, rc, out_dir: Path, reference: dict):
    """Count the call's operations and collect violations of the correctness gate.

    Operations are the CLI call itself, each check in its summary.json,
    each KKT level solve of a refinement study and each reference
    comparison.  Returns (attempted, failed, problems).
    """
    ops = [rc == 0]
    problems = []
    if rc not in (0, 3):
        problems.append(f"{call.label}: exit code {rc!r}")
    checks = _checks(out_dir)
    ops += [c["passed"] for c in checks]
    if checks and rc != (0 if all(c["passed"] for c in checks) else 3):
        problems.append(f"{call.label}: exit code {rc} does not match its checks")
    passed = {c["name"]: c["passed"] for c in checks}
    problems += [f"{call.label}: check {name} did not pass" for name in call.required if not passed.get(name)]

    converged = True
    flags_path = out_dir / "regularity_flags.json"
    if call.argv[0] == "regularity" and flags_path.exists():
        flags = json.loads(flags_path.read_text())
        levels = flags["u"]["levels_converged"]
        ops += levels
        converged = all(levels)
        problems += [f"{call.label}: divergence flag of {f} did not trip" for f in call.diverging if not flags[f]["divergence"]]
    elif call.diverging:
        problems.append(f"{call.label}: no regularity_flags.json")

    if call.reference is not None:
        # only converged outputs are compared with a reference
        if rc is None or not converged or not (out_dir / call.reference).exists():
            problems.append(f"{call.label}: no converged {call.reference} to compare")
            ops.append(False)
        else:
            mismatch = COMPARE[call.reference](out_dir, reference[call.label])
            ops.append(not mismatch)
            if mismatch:
                problems.append(f"{call.label}: {mismatch}")
    return len(ops), ops.count(False), problems


def _cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _artifact_bytes(dirs) -> int:
    return sum(p.stat().st_size for d in dirs for p in d.iterdir() if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True, help="directory for this pass's outputs")
    parser.add_argument("--result", required=True, help="file the JSON result is written to")
    parser.add_argument("--t0", type=float, required=True, help="perf_counter reading taken before spawning")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    from mixedreg import cli
    from spans import LAYERS, Tracer, summarize
    from workloads import WORKLOADS

    calls = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    run_dir = Path(args.run_dir)
    out_dirs = [run_dir / call.label for call in calls]
    for d in out_dirs:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    argvs = [
        ["--out", str(d), "--seed", str(args.seed if call.seed is None else call.seed), *call.argv]
        for call, d in zip(calls, out_dirs)
    ]
    result = {
        "setup_s": time.perf_counter() - args.t0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    codes = []
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    for call, call_argv in zip(calls, argvs):
        if tracer is not None:
            tracer.run_id = f"{args.workload}/{call.label}"
        try:
            codes.append(cli.main(call_argv))
        except SystemExit as exc:
            codes.append(exc.code)
        except Exception:  # a crash is reported as a failed, incorrect call
            traceback.print_exc()
            codes.append(None)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()

    attempted = failed = 0
    problems = []
    for call, rc, d in zip(calls, codes, out_dirs):
        a, f, p = verify(call, rc, d, reference)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        exit_codes=codes,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )
    if tracer is not None:
        layers = summarize(tracer, wall, _artifact_bytes(out_dirs))
        attributed = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["bench.unattributed_s"]
        if abs(attributed - wall) > 1e-6 * max(wall, 1.0):
            problems.append(f"layer self times plus unattributed time {attributed} != traced wall {wall}")
        result["layers"] = layers
        with open(run_dir / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    for p in problems:
        print(f"correctness: {p}", file=sys.stderr)
    result["correct"] = not problems
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
