"""End-to-end runs of every CLI subcommand, in process."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import traced_peak
from mixedreg import cli, fem, fracnorm, geometry, kkt

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SCHEMA = json.loads((ROOT / "docs" / "summary.schema.json").read_text())


def run(argv, tmp_path, sub="out"):
    out = tmp_path / sub
    code = cli.main(["--out", str(out), *argv])
    summary = None
    path = out / "summary.json"
    if path.exists():
        summary = json.loads(path.read_text())
        jsonschema.validate(summary, SCHEMA)
        for name in summary["artifacts"]:
            assert (out / name).exists(), name
    return code, out, summary


def cfg(name):
    return str(CONFIGS / f"{name}.cfg")


def cfg_copy(tmp_path, name, **settings):
    """A copy of config ``name`` under tmp_path with each ``key = value`` line of ``settings`` replaced."""
    text = (CONFIGS / f"{name}.cfg").read_text()
    for key, value in settings.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    path = tmp_path / f"{name}_copy.cfg"
    path.write_text(text)
    return str(path)


def run_child(argv, tmp_path):
    """``python -m mixedreg`` with ``argv`` in a fresh interpreter, writing under tmp_path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mixedreg", "--out", str(tmp_path / "out"), *argv],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)


# ---------------------------------------------------------------------------
# one run per subcommand


def test_exponents(tmp_path, capsys):
    code, _, summary = run(["exponents", "--N", "2", "--p", "3", "--q", "3"], tmp_path)
    assert code == 0
    assert summary["all_passed"]
    stdout = capsys.readouterr().out
    assert "r=6, s=3, slack=0.5" in stdout


@pytest.mark.parametrize("p, q, message", [("inf", "2", "p=inf"), ("3", "inf", "q=inf"), ("nan", "3", "p=nan")])
def test_exponents_refuse_non_finite_values(tmp_path, capsys, p, q, message):
    code, _, summary = run(["exponents", "--p", p, "--q", q], tmp_path)
    assert code == 2
    assert summary is None
    assert capsys.readouterr().err == f"error: {message} is not finite\n"


def test_check_passes_on_compliant_config(tmp_path):
    code, out, summary = run(["check", "--config", cfg("quadratic_tracking")], tmp_path)
    assert code == 0
    assert summary["all_passed"]
    assert len(summary["checks"]) == 7
    text = (out / "assumptions.txt").read_text()
    assert "A5" in text


def test_check_fails_on_manufactured_config(tmp_path):
    # manufactured instance: constraints do not vanish at zero by design
    code, out, summary = run(["check", "--config", cfg("constant_kkt")], tmp_path)
    assert code == 2
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    assert failed == ["A5-constraints-vanish-at-zero"]


def test_check_reports_data_it_cannot_evaluate(tmp_path):
    # L = 1/y divides by zero at y = 0: A3 fails, the other six checks still run
    code, out, summary = run(["check", "--config", cfg_copy(tmp_path, "quadratic_tracking", L="1/y")], tmp_path)
    assert code == 2
    assert (out / "assumptions.txt").exists()
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["A3-cost-nonnegative"]
    assert failed[0]["detail"].startswith("not evaluable: division by zero")
    assert len(summary["checks"]) == 7


def test_check_of_a_vanishing_slope_fails_a6_without_warnings(tmp_path):
    # zeta1 = t^3 + 1e-300 t breaks the slope floor: A6 fails, and no numpy warning reaches stderr
    config = cfg_copy(tmp_path, "quadratic_tracking", zeta1="t^3 + 1e-300*t")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, summary = run(["check", "--config", config], tmp_path)
    assert code == 2
    assert [c["name"] for c in summary["checks"] if not c["passed"]] == ["A6-reparametrization"]


def test_solve_state(tmp_path):
    code, out, summary = run(
        ["solve-state", "--config", cfg("quadratic_tracking"), "--level", "3",
         "--u-expr", "1", "--v-expr", "x1"],
        tmp_path,
    )
    assert code == 0
    assert summary["artifacts"] == ["state.mf"]
    coords, values = fem.read_meshfield(str(out / "state.mf"))
    mesh = geometry.build_mesh("disk", 3)
    assert coords.shape == (mesh.n_vertices, 2)
    assert np.all(np.isfinite(values))
    # growth ratio (|y|_inf + |y|_H1) / (|u|_L2 + |v|_L2), positive for nonzero controls
    iterations, ratio = re.fullmatch(
        r"(\d+) iterations, growth ratio (\S+)", summary["checks"][0]["detail"]
    ).groups()
    assert int(iterations) >= 1 and np.isfinite(float(ratio)) and float(ratio) > 0.0

    # zero controls: y = 0 solves at once and the ratio is defined as 0
    _, _, summary = run(["solve-state", "--config", cfg("quadratic_tracking"), "--level", "3"],
                        tmp_path, "zero")
    assert summary["checks"][0]["detail"] == "0 iterations, growth ratio 0"


def test_gradient_check(tmp_path):
    code, out, summary = run(
        ["gradient-check", "--config", cfg("quadratic_tracking"), "--level", "2",
         "--directions", "3"],
        tmp_path,
    )
    assert code == 0
    check = summary["checks"][0]
    assert check["name"] == "gradient-matches-fd"
    assert check["measured"] <= 1e-5
    lines = (out / "gradient_check.csv").read_text().strip().split("\n")
    assert lines[0] == "direction,step,fd,analytic,rel_error"
    assert len(lines) == 1 + 3 * 4


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize("config", ["constant_kkt", "quadratic_tracking", "smooth_constrained", "jump_bound"])
def test_gradient_check_passes_on_every_config(tmp_path, config, level):
    # the reduced gradient is the Riesz representative of the reported cost in the lumped
    # inner products; read in the consistent ones, constant_kkt missed the bound by 1e-2
    code, _, summary = run(["gradient-check", "--config", cfg(config), "--level", str(level)], tmp_path)
    assert code == 0
    assert summary["checks"][0]["measured"] <= 1e-5


def test_gradient_check_factorises_per_base_not_per_probe(tmp_path, factorisations):
    code, _, summary = run(["gradient-check", "--config", cfg("quadratic_tracking"), "--level", "3"], tmp_path)
    assert code == 0 and summary["all_passed"]
    # 80 probe solves start at the base state with its factorised linearization:
    # the base solve (3 Newton steps) and that linearization, plus a second step
    # for each of the two solves per direction at the largest difference step.
    # Cold probes took 244.
    assert len(factorisations) <= 4 + 2 * 10
    assert {permc for _, permc in factorisations} == {"NATURAL"}


def test_gradient_check_solves_each_direction_as_one_block(tmp_path, factorisations, monkeypatch):
    shapes = []
    solve = fem.solve_linear
    monkeypatch.setattr(fem, "solve_linear", lambda op, rhs: shapes.append(rhs.shape) or solve(op, rhs))
    code, _, summary = run(["gradient-check", "--config", cfg("quadratic_tracking"), "--level", "5"], tmp_path)
    assert code == 0 and summary["all_passed"]
    # the base solve (a block of one, then its second Newton step) and the adjoint, then one
    # (n, 8) block per direction, whose probes all converge after the block's step: 13 calls
    # where one solve per probe made 83
    n = geometry.build_mesh("disk", 5).n_vertices
    assert shapes == [(n, 1), (n,), (n,)] + [(n, 8)] * 10
    assert len(factorisations) == 3


# tracemalloc peaks, each in a fresh interpreter, at the commit before the probe blocks:
# robinson --level 5 --targets 20, the call that sets probe-sweep's peak, 11,663,775 B;
# gradient-check --level 5 7,714,822 B, of which 1,162,863 B in its probe phase
ROBINSON_LEVEL5_PEAK = 11_663_775


def test_gradient_check_blocks_stay_below_the_robinson_peak(tmp_path):
    # a direction's probes are one block, whose cost pass sums over the vertices in (8, n)
    # tables (0.27 MB each at level 5); the call peaks at about 7.6 MB, below the workload's peak
    argv = ["--out", str(tmp_path), "gradient-check", "--config", cfg("quadratic_tracking"), "--level", "5"]
    assert traced_peak(lambda: cli.main(argv)) <= ROBINSON_LEVEL5_PEAK


@pytest.mark.parametrize("argv", [
    ["robinson", "--config", cfg("quadratic_tracking"), "--level", "2", "--targets", "3"],
    ["solve-kkt", "--config", cfg("constant_kkt"), "--level", "3", "--kkt-tol", "1e-8"],
    ["regularity", "--config", cfg("smooth_constrained"), "--levels", "3", "4", "--kkt-tol", "5e-3"],
], ids=lambda argv: argv[0])
def test_every_factorisation_uses_the_mesh_ordering(tmp_path, factorisations, argv):
    code, _, _ = run(argv, tmp_path)
    assert code == 0
    assert factorisations and {permc for _, permc in factorisations} == {"NATURAL"}


def test_solve_kkt(tmp_path):
    code, out, summary = run(
        ["solve-kkt", "--config", cfg("constant_kkt"), "--level", "3",
         "--kkt-tol", "1e-8", "--active-tol", "1e-5"],
        tmp_path,
    )
    assert code == 0
    by_name = {c["name"]: c for c in summary["checks"]}
    assert by_name["kkt-converged"]["passed"]
    assert by_name["kkt-converged"]["measured"] <= 1e-8
    assert by_name["projection-self-consistency"]["measured"] <= 1e-7

    history = (out / "kkt_history.csv").read_text().strip().split("\n")
    assert history[0] == "iter,obj,stat_u,stat_v,comp_u,comp_v,feas_u,feas_v"
    report = json.loads((out / "kkt_report.json").read_text())
    assert report["converged"] is True
    # the initial point and one row per Newton step
    assert 2 <= report["iterations"] <= 9
    assert len(history) == 1 + report["iterations"]

    for name in ("y", "u", "phi", "psi1", "v", "psi2"):
        coords, values = fem.read_meshfield(str(out / f"{name}.mf"))
        assert np.all(np.isfinite(values))


# SHA-256 of the artifacts of `solve-kkt --config configs/constant_kkt.cfg
# --level 3 --kkt-tol 1e-8`, written before the cold start moved out of
# solve_kkt into kkt.cold_start.  The objective goes through the boundary
# quadrature, whose BLAS kernel is picked for the CPU at run time (see C10),
# so these bytes hold on one machine.  Retaken with one BLAS thread when every
# LU began to eliminate in the mesh's nested-dissection order: the new pivot
# order moved the six fields by at most 3.6e-15 relative to their largest
# value, the objective by 4.6e-16 relative, and the round-off-level residual
# columns of kkt_history.csv by at most 9.3e-16 absolute.  Retaken again when
# the controls, the tracking and the cost moved to the lumped weights: the
# optimum is constant, where the vertex rule and the consistent mass agree,
# so the fields moved by at most 7.6e-15 relative (v not at all), the final
# objective not at all, the intermediate objectives of kkt_history.csv by at
# most 7.4e-8 relative and its residual columns by at most 1.9e-16 absolute.
# Retaken again when each Newton step became GMRES preconditioned by the LU of
# the Jacobian's diagonal block: the fields moved by at most 4.9e-15 relative
# to their largest value (v not at all), the objectives by at most 2.3e-15
# relative and the residual columns and entries by at most 1.3e-15 absolute.
SOLVE_KKT_DIGESTS = {
    "kkt_report.json": "717e8c4302ee26f6bb19b4af10cf40d9e7a8ade298ac88b1d0d8b287738e8c36",
    "kkt_history.csv": "8e0a701d9077f8fff28a0e7cab18feda996c1245e56c507cc82ee38d53b54246",
    "y.mf": "94479961951fbadf841a282a77a5adce6b0fbe68bd72a2aa828fe655ead89d0b",
    "u.mf": "9a583f23635b81c7a3f72c2227cf13b5fc62dc0377b8c28af5fc46fd17225930",
    "phi.mf": "99d1a7a7a6c307de700e269bfe8554090ed4dcc7fd566b35a0fb153005b788b6",
    "psi1.mf": "6b48f3861e8a5941b121daa94d8d9db5f989bf2cda5cfb906c24bb6d0369d7a3",
    "v.mf": "cf3f24d50d2f230e2420734863acc3c265641031620d1e2d17db5b1d1ab68de5",
    "psi2.mf": "b5acf51de029e792187c9b3176ff0ec89d138e100dfdc7cda347e5720f5c880a",
}


def test_solve_kkt_artifacts_are_pinned(tmp_path):
    # the cold start does the arithmetic solve_kkt did from controls, bit for bit
    code, out, _ = run(["solve-kkt", "--config", cfg("constant_kkt"), "--level", "3", "--kkt-tol", "1e-8"],
                       tmp_path)
    assert code == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SOLVE_KKT_DIGESTS}
    assert got == SOLVE_KKT_DIGESTS


# SHA-256 of assumptions.txt of `check --config configs/<config>.cfg` (level 3),
# written before check_assumptions ran its per-control assumptions over
# spec.controls: the loop reorders no arithmetic, so no detail or witness moves.
ASSUMPTIONS_DIGESTS = {
    "quadratic_tracking": "0ece3541f9d18a2a6eb29a2cfd2a47a844205895d1a173cd9fe590c144688f38",
    "constant_kkt": "2e74a4e223c076559742a42d326d54202e4676f2e988fd09e5cceb793e20e299",
    "smooth_constrained": "47ece1f449f7d0e2a2638be90367b331d2326c5b8e06f3263ff4abb933fad413",
    "jump_bound": "f4d0a26dd520414f50e12787c59db7502fb94c5dc1d20a74396e3732e606f86a",
}


@pytest.mark.parametrize("config", sorted(ASSUMPTIONS_DIGESTS))
def test_assumption_reports_are_pinned(tmp_path, config):
    _, out, _ = run(["check", "--config", cfg(config)], tmp_path)
    assert hashlib.sha256((out / "assumptions.txt").read_bytes()).hexdigest() == ASSUMPTIONS_DIGESTS[config]


# SHA-256 of regularity.csv and regularity_flags.json of `regularity --config
# <config> --levels 3 4 --max-iter 150 --kkt-tol 5e-3`, written while the
# Hoelder quotients still walked a flat pair index.  Levels 3 and 4 take every
# domain pair, and the quotients are maxima, so the order of the walk cannot
# move a byte.  Retaken with one BLAS thread when every LU began to eliminate
# in the mesh's nested-dissection order: the new pivot order moved
# regularity.csv by at most 1.2e-14 relative and the growth ratios of
# regularity_flags.json by at most 1.1e-14 relative; no flag changed.  Retaken
# again when the controls, the tracking and the cost moved to the lumped
# weights, a change of the discrete problem: regularity.csv moved by at most
# 2.2e-3 (smooth) and 1.4e-2 (jump) relative, the growth ratios by at most
# 1.6e-3 (smooth) and 6.3e-3 (jump) relative; no flag, Newton step count or
# convergence changed.  Retaken again when each Newton step became GMRES
# preconditioned by the LU of the Jacobian's diagonal block: regularity.csv
# moved by at most 1.2e-14 (smooth) and 9.1e-15 (jump) relative, the growth
# ratios by at most 1.5e-14 and 1.6e-14 relative; no flag, Newton step count
# or convergence changed, and the bytes are the same at one and two BLAS threads.
REGULARITY_DIGESTS = {
    "smooth_constrained": {
        "regularity.csv": "11c6e23a6f152f39031fad5c80b74d05a39752fcfa4d4881861e7209392eccbc",
        "regularity_flags.json": "a4874b245583d5790c0e94b789863649fcec07f002de59a83ba2456b8bd0313c",
    },
    "jump_bound": {
        "regularity.csv": "c1fabf82fee25a4af4dac729ca90d19042985e365155529b7634d98e16ed5532",
        "regularity_flags.json": "7574ea7c6af040fadb21ffc161d8b9dd9de168dc9e601b1ca6ae0dc4d74fc1f1",
    },
}


@pytest.mark.parametrize("config", sorted(REGULARITY_DIGESTS))
def test_regularity_artifacts_are_pinned(tmp_path, config):
    code, out, _ = run(["regularity", "--config", cfg(config), "--levels", "3", "4", "--max-iter", "150",
                        "--kkt-tol", "5e-3"], tmp_path)
    assert code == (0 if config == "smooth_constrained" else 3)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REGULARITY_DIGESTS[config]}
    assert got == REGULARITY_DIGESTS[config]


# SHA-256 of the CSV each boundary command writes, taken with one BLAS thread
# while frac-norm, chain-rule and product-rule still built the full disk or
# ellipse triangulation.  They now build only its boundary polygon, whose loop
# is the same bit for bit.  product_rule.csv moves with the BLAS thread count
# (see C10), so a child process pins one thread.  The k = 2 results also move
# with the number of fields one gagliardo call contracts in its BLAS product:
# the level-4 frac-norm, chain_rule.csv and product_rule.csv pins were retaken
# when each command handed all of its fields to one call, which moved ten
# values by at most 2.2e-16 relative.  The four k = 2 pins were retaken again
# when the adjacent-edge weights came from the edge vectors and the far field's
# Gauss weights moved into its BLAS product: the level-8 frac-norm moved by
# 1.2e-13 relative, the others by at most 4.3e-16; the k = 3 pin held.  A
# level-4 walk is one staircase block; the level-8 frac-norm pin walks 64
# full-width ones.
BOUNDARY_DIGESTS = {
    ("frac-norm", "--tau", "0.5", "--k", "2", "--level", "4", "--field", "x1"):
        ("fracnorm.csv", "5399f057c058bfb89db8393f0ff26fe7b68b92eeaa8956c94772a2dccf29212d"),
    ("frac-norm", "--tau", "0.5", "--k", "2", "--level", "8", "--field", "x1"):
        ("fracnorm.csv", "e1bffa6f722ab7d0432a6f81c5ae0d545e4f78b4e41b5468fc75005c2ee52cb1"),
    ("frac-norm", "--preset", "ellipse", "--tau", "0.3", "--k", "3", "--level", "3", "--field", "x1*x2"):
        ("fracnorm.csv", "e8cf5cc866fdea4d4ef296c925a4a921f2c7ee995477028881cc2c0a4af4b11e"),
    ("chain-rule", "--levels", "3", "4", "--samples", "3"):
        ("chain_rule.csv", "2311e3099aab2abe86e3adb871df7a6200c895e6581eebb0a05e503bc08f32af"),
    ("product-rule", "--levels", "3", "4", "--samples", "3"):
        ("product_rule.csv", "1a98356a5c1c00efa5dd3c1bd4b24abb22d98b9cf8e60cc895b8f78f2fc9d01b"),
}


def test_boundary_artifacts_are_pinned(tmp_path):
    runs = [["--out", str(tmp_path / str(i)), *argv] for i, argv in enumerate(BOUNDARY_DIGESTS)]
    child = "import json, sys\nfrom mixedreg import cli\nsys.exit(max(cli.main(a) for a in json.loads(sys.argv[1])))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(runs)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = {argv: (name, hashlib.sha256((tmp_path / str(i) / name).read_bytes()).hexdigest())
           for i, (argv, (name, _)) in enumerate(BOUNDARY_DIGESTS.items())}
    assert got == BOUNDARY_DIGESTS


REGULARITY_ARGV = ("regularity", "--config", cfg("smooth_constrained"), "--levels", "3", "4", "--max-iter", "150",
                   "--kkt-tol", "5e-3")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_pinned_artifacts_do_not_depend_on_the_cpu_count(tmp_path):
    # C10 across CPU counts: every boundary pin and the smooth study's pins hold in a child
    # confined to one CPU as on every CPU
    runs = [["--out", str(tmp_path / str(i)), *argv] for i, argv in enumerate([*BOUNDARY_DIGESTS, REGULARITY_ARGV])]
    child = (
        "import json, os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from mixedreg import cli\n"
        "sys.exit(max(cli.main(a) for a in json.loads(sys.argv[1])))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(runs)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = {argv: (name, hashlib.sha256((tmp_path / str(i) / name).read_bytes()).hexdigest())
           for i, (argv, (name, _)) in enumerate(BOUNDARY_DIGESTS.items())}
    assert got == BOUNDARY_DIGESTS
    study, pins = tmp_path / str(len(BOUNDARY_DIGESTS)), REGULARITY_DIGESTS["smooth_constrained"]
    assert {name: hashlib.sha256((study / name).read_bytes()).hexdigest() for name in pins} == pins


def test_fourier_fields_match_one_draw_at_a_time():
    # the modes tabulated once per mesh give each draw's field bit for bit as its own
    # per-mode sum, so the C8 pins cannot move through the tables
    mesh = geometry.boundary_fan("ellipse", 4)
    rng = np.random.default_rng(5)
    draws = [cli._fourier_coeffs(rng) for _ in range(4)]
    fields = cli._fourier_fields(mesh, draws, 3.0)
    t = mesh.boundary_params
    for (a, b), field in zip(draws, fields):
        vals = np.zeros_like(t)
        for m in range(1, len(a) + 1):
            vals += (a[m - 1] * np.cos(m * t) + b[m - 1] * np.sin(m * t)) / m
        assert np.array_equal(field.values, vals * (3.0 / float(np.max(np.abs(vals)))))
        assert np.array_equal(cli._fourier_fields(mesh, [(a, b)], 3.0)[0].values, field.values)


@pytest.mark.parametrize("argv", [
    ["frac-norm", "--tau", "0.5", "--k", "2", "--level", "4"],
    ["chain-rule", "--levels", "3", "4", "--samples", "2"],
    ["product-rule", "--preset", "ellipse", "--levels", "3", "4", "--samples", "2"],
], ids=lambda argv: argv[0])
def test_boundary_commands_build_no_interior(tmp_path, monkeypatch, argv):
    def refuse(what):
        def refused(*args):
            raise AssertionError(f"a boundary command {what}")

        return refused

    monkeypatch.setattr(geometry, "refine", refuse("refined a triangulation"))
    monkeypatch.setattr(fem, "_nested_dissection", refuse("ordered a mesh for its factorisations"))
    code, _, _ = run(argv, tmp_path)
    assert code == 0


def test_robinson(tmp_path):
    code, out, summary = run(
        ["robinson", "--config", cfg("quadratic_tracking"), "--level", "2",
         "--targets", "3"],
        tmp_path,
    )
    assert code == 0
    assert summary["checks"][0]["measured"] <= 1e-8
    lines = (out / "robinson.csv").read_text().strip().split("\n")
    assert lines[0] == "target,residual"
    assert len(lines) == 4


def test_frac_norm(tmp_path):
    code, out, summary = run(
        ["frac-norm", "--tau", "0.5", "--k", "2", "--level", "4", "--field", "x1"],
        tmp_path,
    )
    assert code == 0
    by_name = {c["name"]: c for c in summary["checks"]}
    # unit-circle trace of x1 at tau = 1/2, k = 2: continuum value 2 pi^2
    assert by_name["seminorm-finite"]["measured"] == pytest.approx(2.0 * np.pi**2, rel=3e-4)
    assert by_name["homogeneity-exact"]["passed"]
    assert by_name["norm-identity"]["passed"]


def test_chain_rule(tmp_path):
    code, out, summary = run(
        ["chain-rule", "--levels", "3", "4", "--samples", "3"], tmp_path
    )
    assert code == 0
    names = [c["name"] for c in summary["checks"]]
    assert names == ["ratios-finite", "ratio-stable-under-refinement"]
    assert summary["all_passed"]
    lines = (out / "chain_rule.csv").read_text().strip().split("\n")
    assert lines[0] == "level,sample,lhs,rhs,ratio"
    assert len(lines) == 1 + 2 * 3


def test_chain_rule_parses_its_expression_once(tmp_path, monkeypatch):
    parsed = []
    for module in (cli, fracnorm):
        parse = module.parse_expr
        monkeypatch.setattr(module, "parse_expr", lambda text, parse=parse: parsed.append(text) or parse(text))
    code, _, _ = run(["chain-rule", "--levels", "2", "3", "--samples", "2"], tmp_path)
    assert code == 0
    assert parsed == ["sin(t)"]


def test_product_rule(tmp_path):
    code, out, summary = run(
        ["product-rule", "--levels", "3", "4", "--samples", "3"], tmp_path
    )
    assert code == 0
    assert summary["all_passed"]
    lines = (out / "product_rule.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 3


def test_regularity(tmp_path):
    code, out, summary = run(
        ["regularity", "--config", cfg("smooth_constrained"), "--levels", "3", "4",
         "--damping", "0.3", "--kkt-tol", "5e-3", "--active-tol", "1e-3"],
        tmp_path,
    )
    assert code == 0
    assert len(summary["checks"]) == 6
    assert all(c["passed"] for c in summary["checks"])
    lines = (out / "regularity.csv").read_text().strip().split("\n")
    assert lines[0] == "field,level,h,lip,holder05,holder09"
    assert len(lines) == 1 + 6 * 2
    flags = json.loads((out / "regularity_flags.json").read_text())
    assert set(flags.keys()) == {"y", "u", "phi", "psi1", "v", "psi2"}
    assert flags["u"]["stabilization"] is True


def test_config_commands_run_on_the_ellipse(tmp_path):
    config = cfg_copy(tmp_path, "smooth_constrained", preset="ellipse")
    code, out, _ = run(["solve-state", "--config", config, "--level", "2"], tmp_path, "state")
    assert code == 0
    coords, _ = fem.read_meshfield(str(out / "state.mf"))
    boundary = coords[geometry.build_mesh("ellipse", 2).boundary_loop]
    assert np.max(np.abs((boundary[:, 0] / 1.5) ** 2 + boundary[:, 1] ** 2 - 1.0)) < 1e-12
    assert np.max(np.abs(coords[:, 0])) == 1.5

    code, out, _ = run(["regularity", "--config", config, "--levels", "2", "3", "--kkt-tol", "5e-3"],
                       tmp_path, "study")
    assert code in (cli.EXIT_OK, cli.EXIT_SOLVER)
    flags = json.loads((out / "regularity_flags.json").read_text())
    assert all(flag["levels_converged"] == [True, True] for flag in flags.values())
    rows = [line.split(",") for line in (out / "regularity.csv").read_text().split()[1:]]
    assert {(int(row[1]), float(row[2])) for row in rows} == {
        (level, geometry.build_mesh("ellipse", level).mesh_size()) for level in (2, 3)
    }


# ---------------------------------------------------------------------------
# failure paths


def test_nonpositive_tolerance_is_config_error(tmp_path, capsys):
    code, _, summary = run(
        ["solve-kkt", "--config", cfg("constant_kkt"), "--kkt-tol", "-1"], tmp_path
    )
    assert code == 2
    assert summary is None
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-kkt", "--config", cfg("constant_kkt"), "--level", "2", "--max-iter", "5",
          "--kkt-tol", "nan"], "--kkt-tol must be positive"),
        (["gradient-check", "--config", cfg("quadratic_tracking"), "--level", "2",
          "--directions", "2", "--tol", "nan"], "--tol must be positive"),
        (["chain-rule", "--levels", "2", "3", "--samples", "2", "--stability-rtol", "0"],
         "--stability-rtol must be positive"),
        (["product-rule", "--levels", "2", "3", "--samples", "2", "--stability-rtol", "-1"],
         "--stability-rtol must be positive"),
        (["product-rule", "--levels", "2", "3", "--samples", "2", "--k", "0"], "must be >= 1"),
        (["product-rule", "--levels", "2", "3", "--samples", "2", "--k2", "0"], "must be >= 1"),
        # an infinite tolerance would pass its check without testing anything
        (["gradient-check", "--config", cfg("quadratic_tracking"), "--level", "2",
          "--directions", "2", "--tol", "inf"], "--tol must be positive and finite"),
        (["chain-rule", "--levels", "3", "4", "--samples", "2", "--stability-rtol", "inf"],
         "--stability-rtol must be positive and finite"),
        (["robinson", "--config", cfg("quadratic_tracking"), "--level", "2", "--tol", "inf"],
         "--tol must be positive and finite"),
        (["solve-kkt", "--config", cfg("constant_kkt"), "--level", "2", "--kkt-tol", "inf"],
         "--kkt-tol must be positive and finite"),
    ],
)
def test_invalid_tolerance_or_exponent_is_config_error(tmp_path, capsys, argv, message):
    code, _, summary = run(argv, tmp_path)
    assert code == 2
    assert summary is None
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-kkt", "--config", cfg("quadratic_tracking"), "--level", "2",
          "--max-iter", "0"], "max_iter must be at least 1"),
        (["regularity", "--config", cfg("smooth_constrained"), "--levels", "2", "3",
          "--max-iter", "0"], "max_iter must be at least 1"),
        (["robinson", "--config", cfg("quadratic_tracking"), "--targets", "0"],
         "--targets must be at least 1"),
        (["gradient-check", "--config", cfg("quadratic_tracking"), "--directions", "0"],
         "--directions must be at least 1"),
        (["chain-rule", "--samples", "0"], "--samples must be at least 1"),
        (["product-rule", "--samples", "-1"], "--samples must be at least 1"),
        (["--seed", "-1", "exponents", "--p", "2", "--q", "2"], "--seed must be at least 0"),
        (["frac-norm", "--tau", "0.5", "--k", "2", "--level", "2", "--field", "y"], "field expression 'y'"),
        (["solve-state", "--config", cfg("quadratic_tracking"), "--level", "2", "--u-expr", "x1 + y"],
         "field expression 'x1 + y'"),
        (["solve-state", "--config", cfg("quadratic_tracking"), "--level", "2", "--v-expr", "t"],
         "field expression 't'"),
        (["chain-rule", "--levels", "5", "5", "--samples", "3"], "--levels must not repeat a level"),
        (["product-rule", "--levels", "3", "4", "3", "--samples", "3"], "--levels must not repeat a level"),
        (["chain-rule", "--amplitude", "0"], "--amplitude must be positive and finite"),
        (["product-rule", "--amplitude", "-1"], "--amplitude must be positive and finite"),
        (["regularity", "--config", cfg("smooth_constrained"), "--levels", "3", "5"],
         "levels must be consecutive"),
        (["regularity", "--config", cfg("smooth_constrained"), "--levels", "-1", "0"],
         "levels must be consecutive and non-negative"),
    ],
)
def test_empty_run_is_config_error(tmp_path, capsys, argv, message):
    # a run over zero sweeps or samples would pass every check vacuously; a
    # negative seed crashed in numpy, and a field in the value variable was read at y = 0;
    # a repeated level wrote its rows twice and dropped the refinement check; a zero
    # amplitude made every field zero, so every ratio read 0
    code, _, summary = run(argv, tmp_path)
    assert code == 2
    assert summary is None
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1


def test_one_level_study_is_config_error(tmp_path, capsys, monkeypatch):
    # one level has no refinement to compare, so the study refuses it before it builds a mesh,
    # rather than failing six stability checks against a growth ratio of 1.0
    monkeypatch.setattr(geometry, "build_mesh", lambda *args: pytest.fail("a one-level study built a mesh"))
    code, out, summary = run(["regularity", "--config", cfg("smooth_constrained"), "--levels", "2",
                              "--kkt-tol", "5e-3"], tmp_path)
    assert code == 2
    assert summary is None and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least two levels" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["chain-rule", "--levels", "2", "--samples", "1"],
                                  ["product-rule", "--levels", "3", "--samples", "1"]], ids=lambda a: a[0])
def test_one_level_sweep_is_config_error(tmp_path, capsys, monkeypatch, argv):
    # one level leaves the C8 refinement claim nothing to compare: the sweep is refused before
    # it builds a mesh or writes a file, rather than passing on ratios-finite alone
    monkeypatch.setattr(geometry, "boundary_fan", lambda *args: pytest.fail("a one-level sweep built a mesh"))
    code, out, summary = run(argv, tmp_path)
    assert code == 2
    assert summary is None and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least two levels" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["frac-norm", "--tau", "0.5", "--k", "2", "--level", "3", "--field", "1e200*x1"],
        ["frac-norm", "--tau", "0.5", "--k", "3", "--level", "3", "--field", "1e150*x1"],
        ["frac-norm", "--tau", "0.5", "--k", "2", "--level", "3", "--field", "1e160"],
    ],
)
def test_overflowing_field_fails_with_one_line(tmp_path, argv):
    # the Gagliardo sums or the L^k part overflow: the error line is all the user sees, no numpy warning
    proc = run_child(argv, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: Gagliardo accumulation is not finite\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            (["frac-norm", "--tau", "0.5", "--k", "2", "--level", "2", "--field", field], message)
            for field, message in (
                ("1e200*x1*1e200", "field values must be finite"),
                ("exp(1000*x1)", "field values must be finite"),
                ("(1e200*x1)^2", "non-finite power result in ((1e+200 * x1)^2)"),
                ("spow(1e200*x1,3)", "field values must be finite"),
            )
        ),
        (["chain-rule", "--levels", "2", "3", "--samples", "1", "--a", "exp(1000*t)"], "field values must be finite"),
        (
            ["solve-state", "--config", cfg("smooth_constrained"), "--level", "2", "--u-expr", "1e120"],
            "non-finite power result in (y^3)",
        ),
    ],
)
def test_overflowing_expression_fails_with_one_line(tmp_path, argv, message):
    # an expression value that overflows is refused by the finiteness check that follows it
    proc = run_child(argv, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("key, message", [
    ("a11", "ellipticity violated at quadrature point (0.990393, 0.0975452): min eigenvalue nan"),
    ("a0", "a0 is not finite at quadrature point (0.990393, 0.0975452): inf"),
], ids=["a11", "a0"])
def test_non_finite_coefficients_are_a_config_error(tmp_path, key, message):
    # an overflowing coefficient is refused where the operator is assembled, and `check`
    # fails A2 on it (the config passes every other check), both without numpy warnings
    config = cfg_copy(tmp_path, "quadratic_tracking", **{key: "1 + exp(1000*x1)"})
    proc = run_child(["solve-state", "--config", config, "--level", "2"], tmp_path)
    assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")
    proc = run_child(["check", "--config", config, "--level", "2"], tmp_path)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert [line.split(":")[0] for line in proc.stdout.splitlines() if line.startswith("[FAIL]")] == [
        "[FAIL] A2-ellipticity"]


def test_overflowing_tracking_cost_fails_with_one_line(tmp_path):
    # the adjoint load's norm, the bracket of the control inversion and the Newton residual's
    # norm all overflow on the way to the solver's refusal, which is all the user sees
    config = cfg_copy(tmp_path, "quadratic_tracking", L="1e158*(y - 2)^2 / 2")
    proc = run_child(["solve-kkt", "--config", config, "--level", "2"], tmp_path)
    assert proc.returncode == 3
    assert proc.stderr == "solver failure: the load norm is not finite (tolerance inf)\n"


def test_study_checks_its_last_level_before_solving(tmp_path, monkeypatch, capsys):
    # the finest mesh is built first, so a level past the cap stops the run before any solve
    monkeypatch.setattr(geometry, "MAX_LEVEL", 3)
    code, out, summary = run(
        ["regularity", "--config", cfg("smooth_constrained"), "--levels", "3", "4", "--kkt-tol", "5e-3"], tmp_path
    )
    assert code == 2
    assert summary is None and not (out / "regularity.csv").exists()
    assert "level must lie in [0, 3], got 4" in capsys.readouterr().err


def test_solve_kkt_damping_validation(tmp_path, capsys):
    # options of the former fixed-point solver are still checked, then ignored
    argv = ["solve-kkt", "--config", cfg("quadratic_tracking"), "--level", "2"]
    for damping in ("0", "-0.2", "1.5"):
        code, _, summary = run([*argv, "--damping", damping], tmp_path)
        assert code == 2 and summary is None
        err = capsys.readouterr().err
        assert "--damping must lie in (0, 1]" in err and err.count("\n") == 1
    code, _, _ = run([*argv, "--active-tol", "0"], tmp_path)
    assert code == 2
    assert "--active-tol must be positive" in capsys.readouterr().err

    code, out, _ = run([*argv, "--damping", "0.3", "--active-tol", "1e-3"], tmp_path, sub="set")
    err = capsys.readouterr().err
    assert code == 0
    assert err == "note: --damping and --active-tol ignored: semismooth Newton solves the KKT system\n"
    _, plain, _ = run(argv, tmp_path, sub="unset")
    assert capsys.readouterr().err == ""
    for name in ("kkt_report.json", "u.mf", "psi2.mf"):
        assert (out / name).read_bytes() == (plain / name).read_bytes()


def test_jump_study_converges_with_benchmark_options(tmp_path, capsys):
    # the jump half of C9 rests on converged levels: u and psi1 still diverge
    code, out, summary = run(
        ["regularity", "--config", cfg("jump_bound"), "--levels", "3", "4", "--damping", "0.3",
         "--max-iter", "150", "--kkt-tol", "5e-3", "--active-tol", "1e-3"],
        tmp_path,
    )
    assert code == 3
    flags = json.loads((out / "regularity_flags.json").read_text())
    for name, flag in flags.items():
        assert flag["levels_converged"] == [True, True], name
        # the cold first level, then the level started from its prolonged (y, phi)
        assert flag["levels_newton_steps"] == flags["u"]["levels_newton_steps"], name
        assert flag["levels_newton_steps"][1] <= 2, name
        assert flag["divergence"] == (name in ("u", "psi1")), name
    failed = {c["name"] for c in summary["checks"] if not c["passed"]}
    assert failed == {"lipschitz-stable-u", "lipschitz-stable-psi1"}


def test_non_finite_config_number_is_config_error(tmp_path, capsys):
    # lambda1 = inf once passed check and failed in the solver's inversion with exit 3
    text = (CONFIGS / "quadratic_tracking.cfg").read_text().replace("lambda1 = 1", "lambda1 = inf")
    path = tmp_path / "infinite.cfg"
    path.write_text(text)
    for argv in (["check"], ["solve-kkt", "--level", "2"]):
        code, _, summary = run([*argv, "--config", str(path)], tmp_path)
        assert code == 2
        assert summary is None
        assert "lambda1 must be finite" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path, capsys):
    code, _, summary = run(["check", "--config", "configs/nope.cfg"], tmp_path)
    assert code == 2
    assert summary is None
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[domain]\npreset = disk\npreset = ellipse\n", "preset = disk\n"],
                         ids=["duplicate-key", "no-section"])
def test_malformed_config_is_one_config_error_line(tmp_path, capsys, text):
    path = tmp_path / "malformed.cfg"
    path.write_text(text)
    code, _, summary = run(["check", "--config", str(path)], tmp_path)
    assert code == 2
    assert summary is None
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed config file {str(path)!r}: ")
    assert err.count("\n") == 1


def test_unknown_subcommand_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path / "x"), "nonsense"])
    assert exc.value.code == 2
    # argparse refuses an empty level list before main sees it
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path / "y"), "regularity", "--config", cfg("smooth_constrained"),
                  "--levels"])
    assert exc.value.code == 2
    assert "expected at least one argument" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv", [["solve-kkt", "--level", "2"], ["regularity", "--levels", "2", "3"]], ids=lambda a: a[0]
)
def test_zero_slope_at_an_active_bound_is_a_solver_failure(tmp_path, argv):
    # zero controls give y = 0, where g1 = -1.6 x1 vanishes at the vertices on x1 = 0: their
    # bound is b = 0, and zeta1'(b) = 3 b^2 vanishes there
    config = cfg_copy(tmp_path, "smooth_constrained", g1="y - 1.6*x1", zeta1="t^3", rho1="1")
    code, _, summary = run([argv[0], "--config", config, *argv[1:]], tmp_path)
    assert code == 3
    assert [(c["name"], c["passed"]) for c in summary["checks"]] == [("solver-completed", False)]
    assert summary["checks"][0]["detail"].startswith("InversionError: zeta'(b) = 0 ")


def test_nonconverged_solve_reports_and_exits_three(tmp_path):
    code, out, summary = run(
        ["solve-kkt", "--config", cfg("smooth_constrained"), "--level", "2",
         "--max-iter", "2"],
        tmp_path,
    )
    assert code == 3
    # the summary and all artifacts are still written for a failed run
    assert summary is not None and not summary["all_passed"]
    by_name = {c["name"]: c for c in summary["checks"]}
    assert not by_name["kkt-converged"]["passed"]
    assert (out / "kkt_history.csv").exists()
    assert (out / "u.mf").exists()


def test_internal_value_error_is_not_an_argument_error(tmp_path, monkeypatch):
    # a numpy shape or broadcast fault inside a solve is a bug: it propagates, not exit 2
    def fault(spec, pt):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(kkt, "_jacobian", fault)
    with pytest.raises(ValueError, match="broadcast"):
        run(["solve-kkt", "--config", cfg("constant_kkt"), "--level", "2"], tmp_path)


def test_field_expression_may_end_in_whitespace(tmp_path):
    # whitespace around a field expression is not part of it
    code, _, summary = run(["solve-state", "--config", cfg("quadratic_tracking"), "--level", "2",
                            "--u-expr", "1 ", "--v-expr", "\tx1\n"], tmp_path)
    assert code == 0 and summary["all_passed"]


# ---------------------------------------------------------------------------
# output directory and determinism


def test_env_var_does_not_redirect_output(tmp_path, monkeypatch):
    # the removed MIXEDREG_OUT once overrode even an explicit --out
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("MIXEDREG_OUT", str(env_dir))
    code = cli.main(["--out", str(tmp_path / "out"), "exponents", "--p", "3", "--q", "3"])
    assert code == 0
    assert (tmp_path / "out" / "summary.json").exists()
    assert not env_dir.exists()


def test_reruns_are_byte_identical(tmp_path):
    argv = ["gradient-check", "--config", cfg("quadratic_tracking"), "--level", "2",
            "--directions", "2"]
    _, out1, _ = run(argv, tmp_path, sub="r1")
    _, out2, _ = run(argv, tmp_path, sub="r2")
    for name in ("gradient_check.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_changes_sampling(tmp_path):
    # the C8 ratios are functions of the drawn fields; robinson's residuals no longer are,
    # since with a diagonal reaction coupling every target's residual is round-off
    argv = ["chain-rule", "--levels", "3", "4", "--samples", "2"]
    _, out1, _ = run(["--seed", "1", *argv], tmp_path, sub="s1")
    _, out2, _ = run(["--seed", "2", *argv], tmp_path, sub="s2")
    a = (out1 / "chain_rule.csv").read_text()
    b = (out2 / "chain_rule.csv").read_text()
    assert a != b
