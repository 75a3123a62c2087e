"""Acceptance suite: ten end-to-end criteria, one visible verdict each.

Each criterion prints ``Cn: PASS`` or ``Cn: FAIL`` with capture
suspended, so a full run always shows ten verdict lines, then asserts.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import zero_controls
from mixedreg import catalog, cli, fem, geometry, kkt, solvers

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


@pytest.fixture
def verdict(capsys):
    def _run(criterion: str, fn):
        try:
            fn()
        except BaseException:
            with capsys.disabled():
                print(f"{criterion}: FAIL", flush=True)
            raise
        with capsys.disabled():
            print(f"{criterion}: PASS", flush=True)

    return _run


def cfg(name):
    return str(CONFIGS / f"{name}.cfg")


# ---------------------------------------------------------------------------


def test_c1_exponent_table(verdict):
    """10^4 admissible triples match the straight-line oracle exactly."""

    def body():
        rng = np.random.default_rng(2024)
        triples = oracles.admissible_triples(rng, 10_000)
        t0 = time.perf_counter()
        for N, p, q in triples:
            table = solvers.exponents(N, p, q)
            r_ref, s_ref, slack_ref = oracles.exponents_reference(N, p, q)
            assert table.r == r_ref
            assert table.s == s_ref
            assert table.conjugacy_slack == slack_ref
            assert table.conjugacy_slack > 0.0
        assert time.perf_counter() - t0 < 1.0

    verdict("C1", body)


def test_c2_manufactured_state_convergence(disk, verdict):
    """Forced cubic instance: L2 and max orders >= 1.9 over levels 3 to 6."""

    def body():
        spec = catalog.ProblemSpec(
            preset="disk", p=2.0, q=2.0, lambda1=1.0, lambda2=1.0, mu1=1.0, mu2=1.0,
            a11="1", a12="0", a22="1", a0="1", f="y^3", L="y^2", ell="y^2",
            g1="y", g2="y", zeta1=("t", 1.0), zeta2=("t", 1.0),
        )
        y_fn, u_fn, v_fn = oracles.mms_disk_instance()
        l2, mx = [], []
        for level in (3, 4, 5, 6):
            m = disk(level)
            u = fem.domain_field(m, u_fn(m.vertices[:, 0], m.vertices[:, 1]))
            bx = m.vertices[m.boundary_loop]
            v = fem.boundary_field(m, v_fn(bx[:, 0], bx[:, 1]))
            rep = solvers.solve_state(spec, u, v)
            assert rep.newton_iterations <= 8
            err = rep.state.values - y_fn(m.vertices[:, 0], m.vertices[:, 1])
            l2.append(fem.lp_norm(fem.domain_field(m, err), 2.0))
            mx.append(float(np.max(np.abs(err))))
        for errs in (l2, mx):
            orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
            assert all(o >= 1.9 for o in orders), orders

    verdict("C2", body)


def test_c3_constant_instance_recovery(constant_solution, verdict):
    """Chained-bisection oracle to 1e-14; level-4 solve to 1e-7."""

    def body():
        ref = oracles.constant_kkt_reference()
        for name, exact in oracles.CONSTANT_KKT_EXACT.items():
            assert abs(ref[name] - exact) <= 1e-14, name

        spec, mesh, state, report = constant_solution
        assert report.converged
        for key, value in report.residuals.items():
            assert value <= 1e-7, key
        for name in ("y", "u", "phi", "psi1", "v", "psi2"):
            field = getattr(state, name)
            assert np.max(np.abs(field.values - ref[name])) <= 1e-7, name
        # both constraints are active everywhere at this optimum
        assert state.active_domain.all()
        assert state.active_boundary.all()

    verdict("C3", body)


def test_c4_adjoint_gradient(configs, disk, verdict):
    """Adjoint gradient vs central differences, 10 directions, rel <= 1e-5."""

    def body():
        spec = configs["quadratic_tracking"]
        m = disk(3)
        rng = np.random.default_rng(42)
        n, nb = m.n_vertices, m.n_boundary
        u = fem.FEField(m, "domain", 0.5 * rng.standard_normal(n))
        v = fem.FEField(m, "boundary", 0.5 * rng.standard_normal(nb))
        gu, gv = kkt.reduced_gradient(spec, u, v)
        # the gradient is the Riesz representative in the lumped inner products
        mw, mb = fem.p1(m).weights
        worst = 0.0
        for _ in range(10):
            du = rng.standard_normal(n)
            dv = rng.standard_normal(nb)
            scale = max(np.max(np.abs(du)), np.max(np.abs(dv)))
            du, dv = du / scale, dv / scale
            analytic = float(gu.values @ (mw * du) + gv.values @ (mb * dv))
            best = np.inf
            for step in (1e-3, 1e-4, 1e-5, 1e-6):
                up = fem.FEField(m, "domain", u.values + step * du)
                um = fem.FEField(m, "domain", u.values - step * du)
                vp = fem.FEField(m, "boundary", v.values + step * dv)
                vm = fem.FEField(m, "boundary", v.values - step * dv)
                yp = solvers.solve_state(spec, up, vp).state
                ym = solvers.solve_state(spec, um, vm).state
                fd = (
                    kkt.objective(spec, yp, up, vp) - kkt.objective(spec, ym, um, vm)
                ) / (2.0 * step)
                best = min(best, abs(fd - analytic) / max(abs(analytic), 1e-14))
            worst = max(worst, best)
        assert worst <= 1e-5, worst

    verdict("C4", body)


def test_c5_projection_self_consistency(constant_solution, quadratic_solution, smooth_solution, verdict):
    """Reprojecting converged controls moves them by <= 10 kkt_tol."""

    def body():
        for (spec, mesh, state, report), tol in (
            (constant_solution, 1e-7),
            (quadratic_solution, 1e-8),
            (smooth_solution, 5e-3),
        ):
            assert report.converged
            u, v = kkt.project_controls(spec, state.y, state.phi)
            gap = max(
                float(np.max(np.abs(u.values - state.u.values))),
                float(np.max(np.abs(v.values - state.v.values))),
            )
            assert gap <= 10.0 * tol, (spec.preset, gap, tol)

    verdict("C5", body)


def test_c6_constraint_surjectivity(configs, disk, verdict):
    """20 seeded targets reproduced through the linearized constraints."""

    def body():
        spec = configs["quadratic_tracking"]
        m = disk(3)
        z = zero_controls(m)
        rng = np.random.default_rng(42)
        targets = [
            (
                fem.FEField(m, "domain", rng.standard_normal(m.n_vertices)),
                fem.FEField(m, "boundary", rng.standard_normal(m.n_boundary)),
            )
            for _ in range(20)
        ]
        worst = float(np.max(kkt.robinson_check(spec, z, targets)))
        assert worst <= 1e-8, worst

    verdict("C6", body)


def test_c7_fractional_norm_quadrature(disk, verdict):
    """Graded-cell engine vs a 10^6-panel angular oracle, within 1%."""

    def body():
        from mixedreg.fracnorm import gagliardo

        m = disk(6)
        v = fem.boundary_field(m, np.cos(m.boundary_params))
        [rep] = gagliardo(v, tau=0.5, k=2.0)
        oracle = oracles.angular_cos_oracle(panels=10**6)
        assert abs(rep.seminorm_I - oracle) / oracle <= 0.01

        base = rep.seminorm_I
        for c in (2.0, -3.0, 0.5):
            [scaled] = gagliardo(fem.boundary_field(m, c * v.values), tau=0.5, k=2.0)
            assert abs(scaled.seminorm_I - c**2 * base) / (c**2 * base) <= 1e-12

    verdict("C7", body)


def test_c8_composition_bounds_stable(fourier_sweep, verdict):
    """50 seeded fields per bound: finite ratios, < 25% drift at 5 to 6."""

    def body():
        t0 = time.perf_counter()
        for bound in ("chain", "product"):
            ratios = fourier_sweep[bound]
            assert all(np.isfinite(r) for r in ratios.values()), bound
            drift = abs(ratios[6] - ratios[5]) / ratios[5]
            assert drift < 0.25, (bound, drift)
        # the sweep itself is precomputed; re-verification must stay cheap
        assert time.perf_counter() - t0 < 300.0

    verdict("C8", body)


def test_c9_regularity_flags(smooth_study, jump_study, verdict):
    """Smooth instance stabilizes all six fields; jump bound trips the flag."""

    def body():
        for name, report in smooth_study.items():
            assert report.stabilization, name
            assert not report.divergence_flag, name
        assert jump_study["u"].divergence_flag
        assert jump_study["psi1"].divergence_flag

    verdict("C9", body)


def test_c10_deterministic_artifacts(tmp_path, verdict):
    """Every subcommand, run twice with one seed: byte-identical artifacts."""

    def body():
        invocations = [
            ["exponents", "--p", "3", "--q", "3"],
            ["check", "--config", cfg("quadratic_tracking"), "--level", "2"],
            ["solve-state", "--config", cfg("quadratic_tracking"), "--level", "2",
             "--u-expr", "x1", "--v-expr", "x2"],
            ["gradient-check", "--config", cfg("quadratic_tracking"), "--level", "2",
             "--directions", "2"],
            ["solve-kkt", "--config", cfg("constant_kkt"), "--level", "2",
             "--kkt-tol", "1e-8", "--active-tol", "1e-5"],
            ["robinson", "--config", cfg("quadratic_tracking"), "--level", "2",
             "--targets", "2"],
            ["frac-norm", "--tau", "0.5", "--k", "2", "--level", "3"],
            ["chain-rule", "--levels", "2", "3", "--samples", "2"],
            ["product-rule", "--levels", "2", "3", "--samples", "2"],
            ["regularity", "--config", cfg("smooth_constrained"), "--levels", "2", "3",
             "--damping", "0.3", "--kkt-tol", "5e-3", "--active-tol", "1e-3"],
        ]
        for i, argv in enumerate(invocations):
            dirs = []
            for rep in ("a", "b"):
                out = tmp_path / f"{i}{rep}"
                cli.main(["--out", str(out), "--seed", "42", *argv])
                dirs.append(out)
            files_a = sorted(p.name for p in dirs[0].iterdir())
            files_b = sorted(p.name for p in dirs[1].iterdir())
            assert files_a == files_b and files_a, argv[0]
            for name in files_a:
                ba = (dirs[0] / name).read_bytes()
                bb = (dirs[1] / name).read_bytes()
                assert ba == bb, (argv[0], name)

    verdict("C10", body)
