"""Command-line front end and experiment orchestration.

Every subcommand writes its artifacts (CSV, JSON, MESHFIELD) into the
output directory plus a machine-readable ``summary.json`` listing named
pass/fail checks; the exit code is 0 only when every exercised check
passes.  Exit code 2 marks configuration or argument problems, 3 solver
failures or failed runtime checks.  All randomness flows from one seeded
generator (default seed 42); with one thread, repeated runs produce
byte-identical CSV files.

The environment variable ``MIXEDREG_OUT`` overrides the output
directory, taking precedence over ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fem, fracnorm, geometry, kkt, regularity, solvers
from .catalog import (
    ConfigError,
    InversionError,
    SpecError,
    check_assumptions,
    load_problem_config,
)
from .expressions import ParseError, parse_expr
from .fem import FEField, LinearSolveError
from .fracnorm import FracNormError
from .geometry import MeshError
from .solvers import NonlinearSolveError

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_CONFIG_ERRORS = (
    ConfigError,
    SpecError,
    ParseError,
    FracNormError,
    MeshError,
    fem.FieldError,
    fem.AssemblyError,
    ValueError,
)
_SOLVER_ERRORS = (NonlinearSolveError, LinearSolveError, InversionError)
# options of the former fixed-point solver: still accepted and checked, then ignored
_IGNORED_KKT_OPTIONS = ("damping", "active_tol")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _check(name: str, passed: bool, measured=None, threshold=None, detail: str = "") -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if measured is not None:
        entry["measured"] = _jsonable(float(measured) if not isinstance(measured, str) else measured)
    if threshold is not None:
        entry["threshold"] = threshold
    if detail:
        entry["detail"] = detail
    return entry


def _write_text(out_dir: Path, name: str, text: str) -> str:
    path = out_dir / name
    with open(path, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    return name


def _write_csv(out_dir: Path, name: str, header: str, rows) -> str:
    return _write_text(out_dir, name, "\n".join([header, *rows]))


def _nodal(mesh, role: str, expr_text: str) -> FEField:
    """The expression in x1, x2 at the nodes of a field of ``role``; the value variable is refused."""
    expr = parse_expr(expr_text)
    if expr.uses_value():
        raise ConfigError(f"field expression {expr_text!r} depends on the value variable; use x1 and x2 only")
    zero = (fem.domain_field if role == "domain" else fem.boundary_field)(mesh, 0.0)
    return FEField(mesh, role, fem.nodal(expr, zero))


def _fourier_coeffs(rng: np.random.Generator, modes: int = 6):
    return rng.standard_normal(modes), rng.standard_normal(modes)


def _fourier_field(mesh, coeffs, amplitude: float) -> FEField:
    """Band-limited field from one coefficient draw, comparable across levels."""
    a, b = coeffs
    t = mesh.boundary_params
    vals = np.zeros_like(t)
    for m in range(1, len(a) + 1):
        vals += (a[m - 1] * np.cos(m * t) + b[m - 1] * np.sin(m * t)) / m
    peak = float(np.max(np.abs(vals)))
    if peak > 0.0:
        vals = vals * (amplitude / peak)
    return FEField(mesh, "boundary", vals)


# ---------------------------------------------------------------- handlers


def _run_exponents(args, out_dir: Path, rng) -> tuple:
    table = solvers.exponents(args.N, args.p, args.q)
    print(f"r={table.r:g}, s={table.s:g}, slack={table.conjugacy_slack:g}")
    checks = [
        _check(
            "conjugacy-slack-positive",
            table.conjugacy_slack > 0.0,
            measured=table.conjugacy_slack,
            threshold=0.0,
            detail=f"r={table.r:g}, s={table.s:g}",
        )
    ]
    return checks, [], EXIT_SOLVER


def _run_check(args, out_dir: Path, rng) -> tuple:
    spec = load_problem_config(args.config)
    mesh = geometry.build_mesh(spec.preset, args.level)
    report = check_assumptions(spec, mesh)
    artifacts = [_write_text(out_dir, "assumptions.txt", str(report))]
    checks = [
        _check(c.name, c.passed, detail=c.detail) for c in report.checks
    ]
    return checks, artifacts, EXIT_CONFIG


def _run_solve_state(args, out_dir: Path, rng) -> tuple:
    spec = load_problem_config(args.config)
    mesh = geometry.build_mesh(spec.preset, args.level)
    u = _nodal(mesh, "domain", args.u_expr)
    v = _nodal(mesh, "boundary", args.v_expr)
    rep = solvers.solve_state(spec, u, v, newton_tol=args.newton_tol)
    y = rep.state
    fem.write_meshfield(y, str(out_dir / "state.mf"))
    # growth ratio (|y|_inf + |y|_H1) / (|u|_Lp + |v|_Lq)
    denom = fem.lp_norm(u, spec.p) + fem.lp_norm(v, spec.q)
    ratio = 0.0
    if denom > 0.0:
        gx, gy = fem.gradient_per_triangle(y)
        areas = mesh.triangle_areas()
        h1 = float(np.sqrt(fem.lp_norm(y, 2.0) ** 2 + np.sum(areas * (gx**2 + gy**2))))
        ratio = (float(np.max(np.abs(y.values))) + h1) / denom
    checks = [
        _check(
            "newton-converged",
            True,
            measured=rep.final_residual,
            detail=f"{rep.newton_iterations} iterations, growth ratio {ratio:.6g}",
        )
    ]
    return checks, ["state.mf"], EXIT_SOLVER


def _run_gradient_check(args, out_dir: Path, rng) -> tuple:
    spec = load_problem_config(args.config)
    mesh = geometry.build_mesh(spec.preset, args.level)
    n, nb = mesh.n_vertices, mesh.n_boundary
    u = FEField(mesh, "domain", 0.5 * rng.standard_normal(n))
    v = FEField(mesh, "boundary", 0.5 * rng.standard_normal(nb))
    # every perturbed solve starts from the base state and takes its first
    # Newton step with the base linearization, which the adjoint shares
    base = solvers.solve_state(spec, u, v)
    gu, gv = kkt.reduced_gradient(spec, u, v, base)
    M = fem.p1(mesh).mass
    Mb = fem.p1(mesh).boundary_mass
    steps = (1e-3, 1e-4, 1e-5, 1e-6)

    rows = []
    worst_best = 0.0
    for direction in range(args.directions):
        du = rng.standard_normal(n)
        dv = rng.standard_normal(nb)
        scale = max(np.max(np.abs(du)), np.max(np.abs(dv)))
        du, dv = du / scale, dv / scale
        analytic = float(gu.values @ M.matvec(du) + gv.values @ Mb.matvec(dv))
        best = np.inf
        for step in steps:
            up = FEField(mesh, "domain", u.values + step * du)
            um = FEField(mesh, "domain", u.values - step * du)
            vp = FEField(mesh, "boundary", v.values + step * dv)
            vm = FEField(mesh, "boundary", v.values - step * dv)
            yp = solvers.solve_state(spec, up, vp, initial=base).state
            ym = solvers.solve_state(spec, um, vm, initial=base).state
            fd = (kkt.objective(spec, yp, up, vp) - kkt.objective(spec, ym, um, vm)) / (2.0 * step)
            rel = abs(fd - analytic) / max(abs(analytic), 1e-14)
            best = min(best, rel)
            rows.append(f"{direction},{_fmt(step)},{_fmt(fd)},{_fmt(analytic)},{_fmt(rel)}")
        worst_best = max(worst_best, best)
    artifacts = [_write_csv(out_dir, "gradient_check.csv", "direction,step,fd,analytic,rel_error", rows)]
    checks = [
        _check(
            "gradient-matches-fd",
            worst_best <= args.tol,
            measured=worst_best,
            threshold=args.tol,
            detail=f"{args.directions} directions, best step per direction",
        )
    ]
    return checks, artifacts, EXIT_SOLVER


def _kkt_field_files(out_dir: Path, state: kkt.KKTState) -> list:
    names = []
    for name in regularity.STUDY_FIELDS:
        fname = f"{name}.mf"
        fem.write_meshfield(getattr(state, name), str(out_dir / fname))
        names.append(fname)
    return names


def _run_solve_kkt(args, out_dir: Path, rng) -> tuple:
    spec = load_problem_config(args.config)
    mesh = geometry.build_mesh(spec.preset, args.level)
    start = kkt.cold_start(spec, fem.domain_field(mesh, 0.0), fem.boundary_field(mesh, 0.0))
    state, report = kkt.solve_kkt(spec, start, max_iter=args.max_iter, kkt_tol=args.kkt_tol)
    artifacts = [
        _write_text(out_dir, "kkt_report.json", report.to_text()),
        _write_text(out_dir, "kkt_history.csv", report.history_csv()),
    ]
    artifacts += _kkt_field_files(out_dir, state)

    u_proj, v_proj = kkt.project_controls(spec, state.y, state.phi)
    proj_gap = max(
        float(np.max(np.abs(u_proj.values - state.u.values))),
        float(np.max(np.abs(v_proj.values - state.v.values))),
    )
    checks = [
        _check(
            "kkt-converged",
            report.converged,
            measured=report.max_residual,
            threshold=args.kkt_tol,
            detail=f"{report.iterations} iterations",
        ),
        _check(
            "projection-self-consistency",
            proj_gap <= 10.0 * args.kkt_tol,
            measured=proj_gap,
            threshold=10.0 * args.kkt_tol,
        ),
    ]
    return checks, artifacts, EXIT_SOLVER


def _run_robinson(args, out_dir: Path, rng) -> tuple:
    spec = load_problem_config(args.config)
    mesh = geometry.build_mesh(spec.preset, args.level)
    z = (fem.domain_field(mesh, 0.0), fem.boundary_field(mesh, 0.0))
    targets = [
        (
            FEField(mesh, "domain", rng.standard_normal(mesh.n_vertices)),
            FEField(mesh, "boundary", rng.standard_normal(mesh.n_boundary)),
        )
        for _ in range(args.targets)
    ]
    residuals = kkt.robinson_check(spec, z, targets)
    worst = float(np.max(residuals))
    rows = [f"{i},{_fmt(res)}" for i, res in enumerate(residuals)]
    artifacts = [_write_csv(out_dir, "robinson.csv", "target,residual", rows)]
    checks = [
        _check(
            "linearized-constraints-surjective",
            worst <= args.tol,
            measured=worst,
            threshold=args.tol,
            detail=f"{args.targets} random targets",
        )
    ]
    return checks, artifacts, EXIT_SOLVER


def _run_frac_norm(args, out_dir: Path, rng) -> tuple:
    mesh = geometry.boundary_fan(args.preset, args.level)
    v = _nodal(mesh, "boundary", args.field)
    rep = fracnorm.gagliardo(v, args.tau, args.k)
    rows = [
        f"{_fmt(rep.tau)},{_fmt(rep.k)},{rep.quadrature_level},{_fmt(rep.seminorm_I)},{_fmt(rep.full_norm)}"
    ]
    artifacts = [_write_csv(out_dir, "fracnorm.csv", fracnorm.FRACNORM_CSV_HEADER, rows)]

    doubled = fracnorm.gagliardo(FEField(mesh, "boundary", 2.0 * v.values), args.tau, args.k)
    target = 2.0**args.k * rep.seminorm_I
    homog = abs(doubled.seminorm_I - target) / max(abs(target), 1e-300)
    norm_gap = abs(rep.full_norm**args.k - (fem.lp_norm(v, args.k) ** args.k + rep.seminorm_I))
    norm_gap /= max(rep.full_norm**args.k, 1e-300)
    checks = [
        _check("seminorm-finite", math.isfinite(rep.seminorm_I), measured=rep.seminorm_I),
        _check("homogeneity-exact", homog <= 1e-12, measured=homog, threshold=1e-12),
        _check("norm-identity", norm_gap <= 1e-10, measured=norm_gap, threshold=1e-10),
    ]
    return checks, artifacts, EXIT_SOLVER


def _stability_checks(per_level_max: dict, rtol: float) -> list:
    checks = [
        _check(
            "ratios-finite",
            all(math.isfinite(m) for m in per_level_max.values()),
            measured=max(per_level_max.values()),
        )
    ]
    levels = sorted(per_level_max)
    if len(levels) >= 2:
        a, b = per_level_max[levels[-2]], per_level_max[levels[-1]]
        change = abs(b - a) / max(abs(a), 1e-14)
        checks.append(
            _check(
                "ratio-stable-under-refinement",
                change < rtol,
                measured=change,
                threshold=rtol,
                detail=f"levels {levels[-2]} to {levels[-1]}",
            )
        )
    return checks


def _c8_sweep(args, out_dir: Path, draws, measure, name: str) -> tuple:
    """Run ``measure(mesh, draw)`` -> (lhs, rhs, ratio) over every level and draw."""
    rows = []
    per_level_max = {}
    for level in args.levels:
        mesh = geometry.boundary_fan(args.preset, level)
        level_max = 0.0
        for i, draw in enumerate(draws):
            lhs, rhs, ratio = measure(mesh, draw)
            level_max = max(level_max, ratio)
            rows.append(f"{level},{i},{_fmt(lhs)},{_fmt(rhs)},{_fmt(ratio)}")
        per_level_max[level] = level_max
    artifacts = [_write_csv(out_dir, name, "level,sample,lhs,rhs,ratio", rows)]
    return _stability_checks(per_level_max, args.stability_rtol), artifacts, EXIT_SOLVER


def _run_chain_rule(args, out_dir: Path, rng) -> tuple:
    a = parse_expr(args.a)
    draws = [_fourier_coeffs(rng) for _ in range(args.samples)]

    def measure(mesh, coeffs):
        v = _fourier_field(mesh, coeffs, args.amplitude)
        return fracnorm.chain_rule_check(a, v, args.tau, args.k)

    return _c8_sweep(args, out_dir, draws, measure, "chain_rule.csv")


def _run_product_rule(args, out_dir: Path, rng) -> tuple:
    draws = [(_fourier_coeffs(rng), _fourier_coeffs(rng)) for _ in range(args.samples)]

    def measure(mesh, pair):
        v1, v2 = (_fourier_field(mesh, c, args.amplitude) for c in pair)
        return fracnorm.product_check(v1, v2, args.tau, args.tau1, args.tau2, args.k, args.k1, args.k2)

    return _c8_sweep(args, out_dir, draws, measure, "product_rule.csv")


def _run_regularity(args, out_dir: Path, rng) -> tuple:
    spec = load_problem_config(args.config)
    reports = regularity.refinement_study(spec, args.levels, max_iter=args.max_iter, kkt_tol=args.kkt_tol)
    rows = []
    for name in regularity.STUDY_FIELDS:
        rows.extend(reports[name].csv_rows())
    artifacts = [_write_csv(out_dir, "regularity.csv", regularity.REGULARITY_CSV_HEADER, rows)]

    flags = {
        name: {
            "stabilization": reports[name].stabilization,
            "growth_ratio": _jsonable(reports[name].growth_ratio),
            "divergence": reports[name].divergence_flag,
            "levels_converged": [r.solver_converged for r in reports[name].records],
            "levels_newton_steps": [r.newton_steps for r in reports[name].records],
        }
        for name in regularity.STUDY_FIELDS
    }
    artifacts.append(_write_text(out_dir, "regularity_flags.json", json.dumps(flags, indent=2)))

    checks = []
    for name in regularity.STUDY_FIELDS:
        rep = reports[name]
        checks.append(
            _check(
                f"lipschitz-stable-{name}",
                rep.stabilization,
                measured=rep.growth_ratio,
                detail="last two levels differ < 10% and all solves converged",
            )
        )
    return checks, artifacts, EXIT_SOLVER


_DISPATCH = {
    "exponents": _run_exponents,
    "check": _run_check,
    "solve-state": _run_solve_state,
    "gradient-check": _run_gradient_check,
    "solve-kkt": _run_solve_kkt,
    "robinson": _run_robinson,
    "frac-norm": _run_frac_norm,
    "chain-rule": _run_chain_rule,
    "product-rule": _run_product_rule,
    "regularity": _run_regularity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedreg",
        description="Mixed control-state constrained elliptic optimal control toolkit",
    )
    parser.add_argument("--out", default="out", help="output directory (MIXEDREG_OUT overrides)")
    parser.add_argument("--seed", type=int, default=42, help="seed for all sampling")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="problem config file")

    def add_kkt_options(p):
        p.add_argument("--max-iter", type=int, default=kkt.MAX_ITER, help="Newton step cap")
        p.add_argument("--kkt-tol", type=float, default=kkt.KKT_TOL)
        for name in _IGNORED_KKT_OPTIONS:
            p.add_argument(f"--{name.replace('_', '-')}", type=float, help="accepted and ignored")

    def add_c8_sweep(name: str, about: str, tau: float, k: float):
        p = sub.add_parser(name, help=about)
        p.add_argument("--preset", choices=tuple(geometry.PRESETS), default="disk")
        p.add_argument("--levels", type=int, nargs="+", default=[3, 4])
        p.add_argument("--tau", type=float, default=tau)
        p.add_argument("--k", type=float, default=k)
        p.add_argument("--samples", type=int, default=50)
        p.add_argument("--amplitude", type=float, default=5.0)
        p.add_argument("--stability-rtol", type=float, default=0.25)
        return p

    p = sub.add_parser("exponents", help="integrability exponent table")
    p.add_argument("--N", type=float, default=2.0)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)

    p = sub.add_parser("check", help="verify the standing assumptions of a config")
    add_config(p)
    p.add_argument("--level", type=int, default=3)

    p = sub.add_parser("solve-state", help="solve the state equation for given controls")
    add_config(p)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--u-expr", default="0", help="interior control as an expression in x1, x2")
    p.add_argument("--v-expr", default="0", help="boundary control as an expression in x1, x2")
    p.add_argument("--newton-tol", type=float, default=solvers.NEWTON_TOL)

    p = sub.add_parser("gradient-check", help="compare the adjoint gradient with differences")
    add_config(p)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--directions", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-5)

    p = sub.add_parser("solve-kkt", help="solve the optimality system by semismooth Newton")
    add_config(p)
    p.add_argument("--level", type=int, default=3)
    add_kkt_options(p)

    p = sub.add_parser("robinson", help="constructive surjectivity residuals")
    add_config(p)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--targets", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("frac-norm", help="fractional boundary norm of a field expression")
    p.add_argument("--preset", choices=tuple(geometry.PRESETS), default="disk")
    p.add_argument("--level", type=int, default=4)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--field", default="x1", help="expression in x1, x2")

    p = add_c8_sweep("chain-rule", "measured constants of the superposition bound", 1.0 / 3.0, 2.0)
    p.add_argument("--a", default="sin(t)", help="expression in x1, x2, t")

    p = add_c8_sweep("product-rule", "measured constants of the product bound", 0.25, 1.0)
    for name, default in (("--tau1", 0.5), ("--tau2", 0.5), ("--k1", 2.0), ("--k2", 2.0)):
        p.add_argument(name, type=float, default=default)

    p = sub.add_parser("regularity", help="refinement study of solution seminorms")
    add_config(p)
    p.add_argument("--levels", type=int, nargs="+", default=[3, 4, 5])
    add_kkt_options(p)

    return parser


def _summary_doc(args, checks: list, artifacts: list) -> dict:
    doc = {
        "subcommand": args.cmd,
        "config": getattr(args, "config", None),
        "levels": list(getattr(args, "levels", [])) or (
            [args.level] if hasattr(args, "level") else []
        ),
        "seed": args.seed,
        "checks": checks,
        "artifacts": artifacts,
        "all_passed": all(c["passed"] for c in checks),
    }
    return doc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(os.environ.get("MIXEDREG_OUT") or args.out)

    for name in ("kkt_tol", "active_tol", "newton_tol", "tol", "stability_rtol"):
        value = getattr(args, name, None)
        if value is not None and not 0.0 < value < math.inf:
            print(f"error: --{name.replace('_', '-')} must be positive and finite", file=sys.stderr)
            return EXIT_CONFIG
    damping = getattr(args, "damping", None)
    if damping is not None and not 0.0 < damping <= 1.0:
        print(f"error: --damping must lie in (0, 1], got {damping}", file=sys.stderr)
        return EXIT_CONFIG
    for name, least in (("targets", 1), ("directions", 1), ("samples", 1), ("seed", 0)):
        if getattr(args, name, least) < least:
            print(f"error: --{name} must be at least {least}", file=sys.stderr)
            return EXIT_CONFIG
    ignored = [f"--{n.replace('_', '-')}" for n in _IGNORED_KKT_OPTIONS if getattr(args, n, None) is not None]
    if ignored:
        print(f"note: {' and '.join(ignored)} ignored: semismooth Newton solves the KKT system", file=sys.stderr)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    handler = _DISPATCH[args.cmd]
    fail_code = EXIT_SOLVER
    try:
        checks, artifacts, fail_code = handler(args, out_dir, np.random.default_rng(args.seed))
    except _SOLVER_ERRORS as exc:
        checks = [_check("solver-completed", False, detail=f"{type(exc).__name__}: {exc}")]
        artifacts = []
        doc = _summary_doc(args, checks, artifacts)
        _write_text(out_dir, "summary.json", json.dumps(doc, indent=2))
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    doc = _summary_doc(args, checks, artifacts)
    _write_text(out_dir, "summary.json", json.dumps(doc, indent=2))
    for c in checks:
        mark = "ok  " if c["passed"] else "FAIL"
        extra = f" (measured {c['measured']})" if "measured" in c else ""
        if not c["passed"] and c.get("detail"):
            extra += f": {c['detail']}"
        print(f"[{mark}] {c['name']}{extra}")
    return EXIT_OK if doc["all_passed"] else fail_code
