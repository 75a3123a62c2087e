"""Objective, projection and multipliers, residuals, semismooth Newton solver."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import zero_controls
from mixedreg import catalog, fem, geometry, kkt, solvers
from mixedreg.fem import FieldError


def simple_spec(**overrides):
    base = dict(
        preset="disk", p=2.0, q=2.0, lambda1=1.0, lambda2=0.0, mu1=1.0, mu2=0.0,
        a11="1", a12="0", a22="1", a0="1", f="y", L="0", ell="0",
        g1="y - 1", g2="y - 1", zeta1=("t", 1.0), zeta2=("t", 1.0),
    )
    base.update(overrides)
    return catalog.ProblemSpec(**base)


def nonlinear_spec():
    """Curved reparametrizations, p-power costs and x-dependent caps."""
    return simple_spec(
        p=4.0, q=4.0, lambda2=1.0, mu2=1.0,
        g1="y - 1 + 0.5*x1", g2="0.5*y - x2",
        zeta1=("t + t^3", 1.0), zeta2=("3*t + t^3", 3.0),
    )


def mesh_area(mesh):
    return fem.lp_norm(fem.domain_field(mesh, 1.0), 2.0) ** 2


# ---------------------------------------------------------------------------
# objective and reduced gradient


def test_objective_pure_control_cost(disk):
    # quadratic plus p-power at u = 1 integrates to 2 per unit area
    m = disk(3)
    spec = simple_spec(lambda1=2.0, lambda2=2.0)
    y = fem.domain_field(m, 0.0)
    u = fem.domain_field(m, 1.0)
    v = fem.boundary_field(m, 0.0)
    val = kkt.objective(spec, y, u, v)
    assert val == pytest.approx(2.0 * mesh_area(m), abs=1e-13)


def test_objective_pure_tracking(disk):
    m = disk(3)
    spec = simple_spec(L="y^2")
    y = fem.domain_field(m, 1.0)
    u, v = zero_controls(m)
    assert kkt.objective(spec, y, u, v) == pytest.approx(mesh_area(m), abs=1e-13)


@pytest.mark.parametrize("level", [2, 4])
def test_objectives_of_a_block_equal_each_objective(disk, level):
    # p = 4 and q = 3 powers, coordinate-dependent tracking: each row's cost is the cost of a block of one
    m = disk(level)
    spec = simple_spec(p=4.0, q=3.0, lambda2=1.0, mu1=2.0, mu2=0.5,
                       L="(y - x1)^2 / 2 + 0.1*sin(3*y)", ell="(y - 1)^4 / 4")
    rng = np.random.default_rng(level)
    states = [fem.domain_field(m, rng.standard_normal(m.n_vertices)) for _ in range(5)]
    controls = [(fem.domain_field(m, rng.standard_normal(m.n_vertices)),
                 fem.boundary_field(m, rng.standard_normal(m.n_boundary))) for _ in range(5)]
    costs = kkt.objectives(spec, states, controls)
    assert costs.shape == (5,)
    assert costs.tolist() == [kkt.objective(spec, y, u, v) for y, (u, v) in zip(states, controls)]
    assert kkt.objectives(spec, states[::-1], controls[::-1]).tolist() == costs.tolist()[::-1]


def test_objectives_reject_unmatched_fields(disk):
    m, spec = disk(2), simple_spec()
    y = fem.domain_field(m, 0.0)
    u, v = zero_controls(m)
    with pytest.raises(FieldError, match="one \\(u, v\\) pair per state"):
        kkt.objectives(spec, [y, y], [(u, v)])
    with pytest.raises(FieldError, match="different meshes"):
        kkt.objectives(spec, [y, fem.domain_field(disk(3), 0.0)], [(u, v), zero_controls(disk(3))])


def test_reduced_gradient_zero_at_zero_data(disk):
    m = disk(2)
    spec = simple_spec()
    gu, gv = kkt.reduced_gradient(spec, *zero_controls(m))
    assert np.max(np.abs(gu.values)) == 0.0
    assert np.max(np.abs(gv.values)) == 0.0


def test_reduced_gradient_reuses_a_state_report(configs, disk):
    spec = configs["quadratic_tracking"]
    m = disk(3)
    rng = np.random.default_rng(5)
    u = fem.domain_field(m, rng.standard_normal(m.n_vertices))
    v = fem.boundary_field(m, rng.standard_normal(m.n_boundary))
    base = solvers.solve_state(spec, u, v)
    for cold, shared in zip(kkt.reduced_gradient(spec, u, v), kkt.reduced_gradient(spec, u, v, base)):
        assert np.array_equal(cold.values, shared.values)
    with pytest.raises(catalog.SpecError):
        kkt.reduced_gradient(simple_spec(), u, v, base)
    with pytest.raises(FieldError):
        kkt.reduced_gradient(spec, *zero_controls(disk(2)), base)


# ---------------------------------------------------------------------------
# constraints, multipliers, projection


def test_multipliers_vanish_off_active_set(disk):
    # y = 0, identity costs, bound 1: phi = -0.5 puts w = 0.5 below the bound
    m = disk(2)
    state = kkt._point(simple_spec(), fem.domain_field(m, 0.0), fem.domain_field(m, -0.5)).state()
    assert not state.active_domain.any() and not state.active_boundary.any()
    assert np.max(np.abs(state.psi1.values)) == 0.0
    assert np.max(np.abs(state.psi2.values)) == 0.0


def test_multiplier_arithmetic_on_active_set(disk):
    # w = 3 clamps to the bound 1, phi = -3, identity costs: psi = -((-3) + 1) / 1 = 2
    m = disk(2)
    phi = fem.domain_field(m, -3.0)
    state = kkt._point(simple_spec(), fem.domain_field(m, 0.0), phi).state()
    assert state.active_domain.all() and state.active_boundary.all()
    assert np.all(state.u.values == 1.0) and np.all(state.v.values == 1.0)
    assert np.max(np.abs(state.psi1.values - 2.0)) == 0.0
    assert np.max(np.abs(state.psi2.values - 2.0)) == 0.0
    # the multipliers zero the control stationarity identically
    stat = state.u.values + phi.values + state.psi1.values
    assert np.max(np.abs(stat)) == 0.0


def nodal_bounds(spec, mesh, y):
    """zeta_i^{-1}(-g_i(x, y)) at the vertices and on the boundary loop."""
    xy, loop = mesh.vertices, mesh.boundary_loop
    g1 = spec.g1(xy[:, 0], xy[:, 1], y.values)
    g2 = spec.g2(xy[loop, 0], xy[loop, 1], y.values[loop])
    return catalog.invert_monotone(spec.zeta1, -g1), catalog.invert_monotone(spec.zeta2, -g2)


def test_project_controls_cases(disk):
    m = disk(2)
    y = fem.domain_field(m, 0.0)

    spec0 = simple_spec(g1="y", g2="y")
    u, v = kkt.project_controls(spec0, y, fem.domain_field(m, 1.0))
    assert np.all(u.values == -1.0) and np.all(v.values == -1.0)

    spec1 = simple_spec()
    u, v = kkt.project_controls(spec1, y, fem.domain_field(m, -2.0))
    assert np.all(u.values == 1.0) and np.all(v.values == 1.0)

    u, v = kkt.project_controls(spec1, y, fem.domain_field(m, -1.0))
    assert np.all(u.values == 1.0) and np.all(v.values == 1.0)

    u, v = kkt.project_controls(spec1, y, fem.domain_field(m, 0.5))
    assert np.all(u.values == -0.5)


def test_projection_is_feasible(disk):
    m = disk(3)
    spec = simple_spec(lambda2=1.0, mu2=1.0, p=4.0, q=4.0)
    rng = np.random.default_rng(7)
    y = fem.domain_field(m, rng.uniform(-1, 1, m.n_vertices))
    phi = fem.domain_field(m, 3.0 * rng.standard_normal(m.n_vertices))
    u, v = kkt.project_controls(spec, y, phi)
    b1, b2 = nodal_bounds(spec, m, y)
    assert np.max(u.values - b1) <= 1e-12
    assert np.max(v.values - b2) <= 1e-12


LEVEL2_VERTICES = 81
random_state = arrays(np.float64, LEVEL2_VERTICES, elements=st.floats(-2.0, 2.0))
random_adjoint = arrays(np.float64, LEVEL2_VERTICES, elements=st.floats(-8.0, 8.0))
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def random_fields(disk, ys, phis):
    m = disk(2)
    assert m.n_vertices == LEVEL2_VERTICES
    return m, fem.domain_field(m, ys), fem.domain_field(m, phis)


@PROPERTY_SETTINGS
@given(random_state, random_adjoint)
def test_projection_is_exactly_feasible(disk, ys, phis):
    spec = nonlinear_spec()
    m, y, phi = random_fields(disk, ys, phis)
    for c, b in zip(kkt.project_controls(spec, y, phi), nodal_bounds(spec, m, y)):
        assert np.max(c.values - b) <= 0.0


@PROPERTY_SETTINGS
@given(random_state, random_adjoint)
def test_projection_keeps_feasible_minimizers(disk, ys, phis):
    spec = nonlinear_spec()
    m, y, phi = random_fields(disk, ys, phis)
    u, v = kkt.project_controls(spec, y, phi)
    w1 = catalog.invert_monotone(spec.controls[0].delta, -phi.values)
    w2 = catalog.invert_monotone(spec.controls[1].delta, -phi.values[m.boundary_loop])
    for c, w, b in zip((u, v), (w1, w2), nodal_bounds(spec, m, y)):
        free = w <= b
        scale = np.abs(w[free]) + np.abs(b[free])
        assert np.all(np.abs(c.values[free] - w[free]) <= 1e-12 * scale)


@PROPERTY_SETTINGS
@given(random_state, random_adjoint)
def test_multipliers_vanish_off_their_masks(disk, ys, phis):
    spec = nonlinear_spec()
    m, y, phi = random_fields(disk, ys, phis)
    state = kkt._point(spec, y, phi).state()
    assert np.all(state.psi1.values[~state.active_domain] == 0.0)
    assert np.all(state.psi2.values[~state.active_boundary] == 0.0)
    # the active nodes are exactly those the projection clamps to their bound
    w1 = catalog.invert_monotone(spec.controls[0].delta, -phi.values)
    w2 = catalog.invert_monotone(spec.controls[1].delta, -phi.values[m.boundary_loop])
    b1, b2 = nodal_bounds(spec, m, y)
    assert np.array_equal(state.active_domain, w1 > b1)
    assert np.array_equal(state.active_boundary, w2 > b2)


def test_project_requires_domain_adjoint(disk):
    # a boundary-role adjoint once indexed past its end instead of being rejected
    m = disk(1)
    y = fem.domain_field(m, 0.0)
    with pytest.raises(FieldError):
        kkt.project_controls(simple_spec(), y, fem.boundary_field(m, 0.0))
    with pytest.raises(FieldError):
        kkt.project_controls(simple_spec(), y, fem.domain_field(disk(2), 0.0))


def test_decreasing_reparametrization_rejected(disk):
    m = disk(1)
    spec = simple_spec(zeta1=("-t", 1.0))
    with pytest.raises(catalog.SpecError):
        kkt.project_controls(spec, fem.domain_field(m, 0.0), fem.domain_field(m, 0.0))


# ---------------------------------------------------------------------------
# residual evaluation


def exact_constant_point(spec, mesh):
    c = oracles.CONSTANT_KKT_EXACT
    return kkt._point(spec, fem.domain_field(mesh, c["y"]), fem.domain_field(mesh, c["phi"]))


def exact_report(spec, pt, shift_u=0.0):
    """The solver's residual report at pt, its interior control shifted by ``shift_u``."""
    m = pt.minimizers[0]
    shifted = dataclasses.replace(m, control=m.control + shift_u)
    return kkt._report(spec, dataclasses.replace(pt, minimizers=(shifted, pt.minimizers[1])), kkt.KKT_TOL)


def test_residual_zero_at_manufactured_constants(configs, disk):
    assert oracles.constant_kkt_reference() == pytest.approx(
        oracles.CONSTANT_KKT_EXACT, abs=1e-13
    )
    spec = configs["constant_kkt"]
    pt = exact_constant_point(spec, disk(3))
    state = pt.state()
    # both constraints are active everywhere: the projection recovers every field
    assert state.active_domain.all() and state.active_boundary.all()
    for name, value in oracles.CONSTANT_KKT_EXACT.items():
        assert np.max(np.abs(getattr(state, name).values - value)) <= 1e-9, name
    report = exact_report(spec, pt)
    assert report.max_residual <= 1e-9
    assert report.converged


def test_residual_detects_control_perturbation(configs, disk):
    spec = configs["constant_kkt"]
    pt = exact_constant_point(spec, disk(3))
    report = exact_report(spec, pt, 0.1)
    assert report.residuals["stationarity_u"] >= 0.099
    assert not report.converged


def test_residual_flags_spurious_multiplier(configs, disk):
    spec = configs["constant_kkt"]
    pt = exact_constant_point(spec, disk(2))
    report = exact_report(spec, pt, -0.5)
    assert report.residuals["complementarity_u"] > 1e-2


def test_state_validation(disk):
    m = disk(1)
    y = fem.domain_field(m, 0.0)
    v = fem.boundary_field(m, 0.0)
    ok = dict(
        y=y, phi=y, psi1=y, u=y, v=v, psi2=v,
        active_domain=np.zeros(m.n_vertices, dtype=bool),
        active_boundary=np.zeros(m.n_boundary, dtype=bool),
    )
    kkt.KKTState(**ok)
    with pytest.raises(FieldError):
        kkt.KKTState(**{**ok, "phi": v})
    with pytest.raises(FieldError):
        kkt.KKTState(**{**ok, "psi2": y})
    with pytest.raises(FieldError):
        kkt.KKTState(**{**ok, "active_domain": np.zeros(3, dtype=bool)})


# ---------------------------------------------------------------------------
# semismooth Newton solver


def test_solve_kkt_max_iter_validation(disk):
    m = disk(1)
    spec = simple_spec()
    start = kkt.cold_start(spec, *zero_controls(m))
    for n in (0, -3):
        with pytest.raises(catalog.SpecError, match="max_iter"):
            kkt.solve_kkt(spec, start, max_iter=n)


def test_solve_kkt_start_validation(configs, disk):
    spec = configs["smooth_constrained"]
    y, phi = kkt.cold_start(spec, *zero_controls(disk(2)))
    for start in ((fem.trace(y), phi), (y, fem.trace(phi)), (y, fem.domain_field(disk(1), 0.0))):
        with pytest.raises(FieldError):
            kkt.solve_kkt(spec, start)


def test_zero_data_converges_immediately(disk):
    m = disk(2)
    spec = simple_spec()
    state, report = kkt.solve_kkt(spec, kkt.cold_start(spec, *zero_controls(m)))
    assert report.converged
    assert report.iterations == 1
    assert np.max(np.abs(state.u.values)) == 0.0
    assert np.max(np.abs(state.v.values)) == 0.0


def test_quadratic_instance_matches_dense_oracle(quadratic_solution):
    spec, mesh, state, report = quadratic_solution
    assert report.converged
    assert report.max_residual <= 1e-8

    ref = oracles.quadratic_reference(mesh)
    assert np.max(np.abs(state.y.values - ref["y"])) <= 1e-8
    assert np.max(np.abs(state.phi.values - ref["phi"])) <= 1e-8
    assert np.max(np.abs(state.u.values - ref["u"])) <= 1e-8
    assert np.max(np.abs(state.v.values - ref["v"])) <= 1e-8

    # far-away caps stay inactive; optimum is the unconstrained fixed point
    assert not state.active_domain.any()
    assert not state.active_boundary.any()
    assert np.max(np.abs(state.u.values + state.phi.values)) <= 1e-8


def test_constant_instance_recovery(constant_solution):
    spec, mesh, state, report = constant_solution
    assert report.converged
    assert report.max_residual <= 1e-7
    c = oracles.CONSTANT_KKT_EXACT
    for name in ("y", "u", "phi", "psi1"):
        field = getattr(state, name)
        assert np.max(np.abs(field.values - c[name])) <= 1e-7, name
    for name in ("v", "psi2"):
        field = getattr(state, name)
        assert np.max(np.abs(field.values - c[name])) <= 1e-7, name
    # both constraints are active everywhere at the manufactured optimum
    assert state.active_domain.all()
    assert state.active_boundary.all()


def test_quadratic_tracking_reaches_exact_kkt_point(configs, disk):
    # a0 = 1, L_y(0) = -2 and ell_y(0) = -1 make y = u = v = 0, phi = -1,
    # psi1 = psi2 = 1 an exact discrete KKT point with every node active
    spec = configs["quadratic_tracking"]
    state, report = kkt.solve_kkt(spec, kkt.cold_start(spec, *zero_controls(disk(3))), kkt_tol=1e-10)
    assert report.converged
    for name, value in (("y", 0.0), ("u", 0.0), ("v", 0.0), ("phi", -1.0), ("psi1", 1.0), ("psi2", 1.0)):
        assert np.max(np.abs(getattr(state, name).values - value)) <= 1e-10, name
    assert state.active_domain.all() and state.active_boundary.all()


def test_history_rows_follow_newton_steps(configs, disk):
    # one row for the initial point, then one per step; the last row is the returned iterate
    spec = configs["constant_kkt"]
    _, report = kkt.solve_kkt(spec, kkt.cold_start(spec, *zero_controls(disk(2))), kkt_tol=1e-10)
    assert report.converged
    assert 2 <= report.iterations <= 9
    assert [int(row[0]) for row in report.history] == list(range(1, report.iterations + 1))
    assert report.history[-1][1] == report.objective


def test_unconverged_solve_is_flagged(configs, disk):
    # one step from zero cannot reach the constant optimum: best iterate, honest flag
    spec = configs["constant_kkt"]
    start = kkt.cold_start(spec, *zero_controls(disk(2)))
    _, report = kkt.solve_kkt(spec, start, max_iter=1, kkt_tol=1e-3)
    assert not report.converged
    assert report.iterations == 2


def test_singular_jacobian_is_flagged(configs, disk, monkeypatch):
    # a failed factorisation of the Newton Jacobian ends the solve, it does not raise
    m = disk(2)
    solve_linear = fem.solve_linear

    def singular_jacobian(op, rhs):
        if op.shape[0] == 2 * m.n_vertices:
            raise fem.LinearSolveError("sparse LU failed: singular", float("nan"))
        return solve_linear(op, rhs)

    spec = configs["smooth_constrained"]
    start = kkt.cold_start(spec, *zero_controls(m))
    monkeypatch.setattr(fem, "solve_linear", singular_jacobian)
    state, report = kkt.solve_kkt(spec, start, kkt_tol=1.0)
    assert not report.converged
    assert report.iterations == 1
    assert state.y.mesh is m


def test_stalled_line_search_is_flagged(configs, disk, monkeypatch):
    # an ascent direction for the Newton step alone: the line search stalls
    # at the start, which is returned unconverged rather than raised
    m = disk(3)
    solve_linear = fem.solve_linear

    def reversed_jacobian_step(op, rhs):
        step = solve_linear(op, rhs)
        return -step if op.shape[0] == 2 * m.n_vertices else step

    spec = configs["smooth_constrained"]
    start = kkt.cold_start(spec, *zero_controls(m))
    monkeypatch.setattr(fem, "solve_linear", reversed_jacobian_step)
    state, report = kkt.solve_kkt(spec, start, kkt_tol=1.0)
    assert not report.converged
    assert report.iterations == 1
    y0 = solvers.solve_state(spec, *zero_controls(m)).state
    assert np.array_equal(state.y.values, y0.values)
    assert np.array_equal(state.phi.values, start[1].values)


def test_overflowing_load_norm_fails_the_solve(configs, disk):
    # the tracking load's 2-norm overflows to inf, and |F|_2 <= tol * (1 + inf) would accept the start
    spec = dataclasses.replace(configs["quadratic_tracking"], L="1e158*(y - 2)^2 / 2")
    with np.errstate(over="ignore"):
        start = kkt.cold_start(spec, *zero_controls(disk(2)))
        with pytest.raises(solvers.NonlinearSolveError, match="load norm is not finite"):
            kkt.solve_kkt(spec, start)


@pytest.mark.parametrize("name", ["smooth_constrained", "jump_bound"])
def test_newton_steps_flat_across_levels(configs, disk, name):
    for level in (3, 4, 5, 6):
        start = kkt.cold_start(configs[name], *zero_controls(disk(level)))
        _, report = kkt.solve_kkt(configs[name], start, kkt_tol=1e-8)
        assert report.converged, level
        assert report.iterations - 1 <= 8, level


def test_one_linearized_matrix_per_sweep(configs, disk, monkeypatch):
    # each iterate assembles one linearized matrix, shared by its adjoint
    # defect and its Newton Jacobian; each Newton step is one solve_linear
    spec = configs["smooth_constrained"]
    counts = {"newton": 0, "solvers": 0, "kkt": 0, "solve": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def solve_state(*args, **kwargs):
        rep = solvers.solve_state(*args, **kwargs)
        counts["newton"] += rep.newton_iterations
        return rep

    monkeypatch.setattr(solvers, "linearized_matrix", counted("solvers", solvers.linearized_matrix))
    monkeypatch.setattr(kkt, "linearized_matrix", counted("kkt", kkt.linearized_matrix))
    monkeypatch.setattr(fem, "solve_linear", counted("solve", fem.solve_linear))
    monkeypatch.setattr(kkt, "solve_state", solve_state)
    # the cold start: the state solve of the controls, then one adjoint solve
    start = kkt.cold_start(spec, *zero_controls(disk(2)))
    assert counts == {"newton": counts["newton"], "solvers": counts["newton"], "kkt": 1,
                      "solve": counts["newton"] + 1}
    # from (y, phi) the solve makes no state solve
    counts.update(dict.fromkeys(counts, 0))
    _, report = kkt.solve_kkt(spec, start, kkt_tol=5e-3)
    assert report.converged
    assert counts == {"newton": 0, "solvers": 0, "kkt": report.iterations, "solve": report.iterations - 1}


def test_two_constraint_inversions_per_sweep(configs, disk, monkeypatch):
    # one bound per constraint half and iterate, shared by the controls, the
    # multipliers, the residuals and the Jacobian at that iterate; and one
    # unconstrained minimizer delta^{-1}(-phi) per half and iterate
    calls = []

    def counted(*args):
        calls.append(args)
        return catalog.invert_monotone(*args)

    spec = configs["smooth_constrained"]
    start = kkt.cold_start(spec, *zero_controls(disk(3)))
    monkeypatch.setattr(kkt, "invert_monotone", counted)
    _, report = kkt.solve_kkt(spec, start, kkt_tol=5e-3)
    assert report.converged
    maps = [args[0] for args in calls]
    assert sum(m is spec.zeta1 or m is spec.zeta2 for m in maps) == 2 * report.iterations
    assert sum(m is spec.controls[0].delta or m is spec.controls[1].delta for m in maps) == 2 * report.iterations
    assert len(maps) == 4 * report.iterations


# Newton solutions; the parent fixed point, run until its control update
# stalled near kkt_tol 1e-10, agreed to 3.2e-9 in every field.
GOLDEN_SOLVES = {
    "smooth_constrained": (dict(max_iter=80, kkt_tol=5e-3), 6, 62, 27, 6.481703511894995),
    "constant_kkt": (dict(kkt_tol=1e-8), 7, 81, 32, 304.68380885306175),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SOLVES))
def test_golden_level_two_solve(configs, disk, name):
    options, iterations, active_d, active_b, obj = GOLDEN_SOLVES[name]
    start = kkt.cold_start(configs[name], *zero_controls(disk(2)))
    state, report = kkt.solve_kkt(configs[name], start, **options)
    assert report.converged
    assert report.iterations == iterations
    assert int(state.active_domain.sum()) == active_d
    assert int(state.active_boundary.sum()) == active_b
    assert report.objective == pytest.approx(obj, rel=1e-12)
    assert report.max_residual <= 1e-10


def _reduced_residual(spec, mesh, z):
    n = mesh.n_vertices
    return kkt._point(spec, fem.domain_field(mesh, z[:n]), fem.domain_field(mesh, z[n:])).residual


def curved_spec():
    """Curved zeta, p-power costs and state-curved caps and tracking."""
    return simple_spec(
        p=4.0, q=4.0, lambda2=1.0, mu2=1.0, f="y^3 + y", L="(y - 1)^4 / 4", ell="y^4 / 4",
        g1="y + 0.3*y^3 - 0.5*x1", g2="0.5*y + 0.2*y^2 - x2",
        zeta1=("t + t^3", 1.0), zeta2=("3*t + t^3", 3.0),
    )


@pytest.mark.parametrize("name", ["smooth_constrained", "curved"])
def test_jacobian_matches_central_differences(configs, disk, name):
    spec = curved_spec() if name == "curved" else configs[name]
    m = disk(2)
    n = m.n_vertices
    rng = np.random.default_rng(1)
    for _ in range(100):
        y = fem.domain_field(m, rng.uniform(-1.0, 1.0, n))
        phi = fem.domain_field(m, rng.uniform(-4.0, 2.0, n))
        pt = kkt._point(spec, y, phi)
        gaps = [np.min(np.abs(mz.w - h.bound)) for h, mz in zip(pt.halves, pt.minimizers)]
        if min(gaps) >= 1e-3:
            break
    else:
        pytest.fail("no random point keeps every node 1e-3 from its kink")
    assert all(mz.active.any() and not mz.active.all() for mz in pt.minimizers)

    jac = kkt._jacobian(spec, pt).matrix.toarray()
    z = np.concatenate([y.values, phi.values])
    step = 1e-6
    fd = np.empty_like(jac)
    for k in range(2 * n):
        e = np.zeros(2 * n)
        e[k] = step
        fd[:, k] = (_reduced_residual(spec, m, z + e) - _reduced_residual(spec, m, z - e)) / (2 * step)
    assert np.max(np.abs(jac - fd)) <= 1e-7 * np.max(np.abs(jac))


@pytest.mark.parametrize("preset", sorted(geometry.PRESETS))
def test_jacobian_fills_less_under_the_mesh_ordering(configs, factorisations, preset):
    # the generalised Jacobian at the cold start of smooth_constrained, level 4
    spec = configs["smooth_constrained"]
    mesh = geometry.build_mesh(preset, 4)
    jac = kkt._jacobian(spec, kkt._point(spec, *kkt.cold_start(spec, *zero_controls(mesh))))
    colamd = fem.SparseOperator(jac.matrix)
    rhs = np.ones(jac.shape[0])
    for op in (jac, colamd):
        fem.solve_linear(op, rhs)
    assert [permc for _, permc in factorisations[-2:]] == ["NATURAL", "COLAMD"]
    assert jac._lu.L.nnz + jac._lu.U.nnz < colamd._lu.L.nnz + colamd._lu.U.nnz


def test_reprojection_consistency(quadratic_solution):
    spec, mesh, state, report = quadratic_solution
    u, v = kkt.project_controls(spec, state.y, state.phi)
    assert np.max(np.abs(u.values - state.u.values)) <= 1e-7
    assert np.max(np.abs(v.values - state.v.values)) <= 1e-7


# ---------------------------------------------------------------------------
# report formatting


def test_history_csv_format(quadratic_solution):
    _, _, _, report = quadratic_solution
    text = report.history_csv()
    lines = text.strip().split("\n")
    assert lines[0] == kkt.HISTORY_HEADER
    assert len(lines) == report.iterations + 1
    first = lines[1].split(",")
    assert len(first) == 8
    assert first[0] == "1"
    float(first[1])


def test_report_to_text(quadratic_solution):
    _, _, _, report = quadratic_solution
    doc = json.loads(report.to_text())
    assert doc["converged"] is True
    assert doc["r"] == 4.0 and doc["s"] == 4.0
    assert doc["conjugacy_slack"] == pytest.approx(0.5)
    for key in kkt._RESIDUAL_KEYS:
        assert key in doc


# ---------------------------------------------------------------------------
# constraint-system surjectivity check


def test_robinson_zero_targets(disk, quadratic_spec):
    m = disk(2)
    z = zero_controls(m)
    residuals = kkt.robinson_check(quadratic_spec, z, [zero_controls(m)])
    assert residuals.shape == (1,) and residuals[0] == 0.0


def test_robinson_constant_targets(disk, quadratic_spec):
    m = disk(2)
    z = zero_controls(m)
    z0 = (fem.domain_field(m, 1.0), fem.boundary_field(m, 1.0))
    assert kkt.robinson_check(quadratic_spec, z, [z0])[0] <= 1e-10


def test_robinson_random_targets(configs, disk):
    spec = configs["quadratic_tracking"]
    m = disk(3)
    z = zero_controls(m)
    rng = np.random.default_rng(11)
    targets = [
        (
            fem.domain_field(m, rng.standard_normal(m.n_vertices)),
            fem.boundary_field(m, rng.standard_normal(m.boundary_loop.shape[0])),
        )
        for _ in range(3)
    ]
    assert np.max(kkt.robinson_check(spec, z, targets)) <= 1e-8


def test_robinson_block_equals_single_targets(configs, disk):
    # one block of k targets, a zero target among them, matches k one-target calls
    spec = configs["quadratic_tracking"]
    m = disk(3)
    z = (fem.domain_field(m, 0.5), fem.boundary_field(m, -0.5))
    rng = np.random.default_rng(5)
    targets = [
        (
            fem.domain_field(m, rng.standard_normal(m.n_vertices)),
            fem.boundary_field(m, rng.standard_normal(m.n_boundary)),
        )
        for _ in range(4)
    ]
    targets.insert(2, zero_controls(m))
    block = kkt.robinson_check(spec, z, targets)
    single = np.array([kkt.robinson_check(spec, z, [t])[0] for t in targets])
    assert block.shape == (len(targets),)
    assert block[2] == 0.0
    assert np.all(np.abs(block - single) <= 1e-14)
    assert kkt.robinson_check(spec, z, []).shape == (0,)


def test_robinson_assembles_one_linearized_matrix(configs, disk, monkeypatch):
    # the linearization belongs to z: 5 targets share one state solve, one
    # linearized matrix A and two factorisations, of A + C and of A
    counts = {"state": 0, "newton": 0, "linearized": 0, "solve": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def solve_state(*args, **kwargs):
        rep = solvers.solve_state(*args, **kwargs)
        counts["state"] += 1
        counts["newton"] += rep.newton_iterations
        return rep

    monkeypatch.setattr(kkt, "solve_state", solve_state)
    monkeypatch.setattr(kkt, "linearized_matrix", counted("linearized", kkt.linearized_matrix))
    monkeypatch.setattr(fem, "solve_linear", counted("solve", fem.solve_linear))
    m = disk(3)
    z = (fem.domain_field(m, 0.5), fem.boundary_field(m, -0.5))
    targets = [(fem.domain_field(m, float(i)), fem.boundary_field(m, 1.0 - i)) for i in range(1, 6)]
    residuals = kkt.robinson_check(configs["quadratic_tracking"], z, targets)
    assert residuals.shape == (5,) and np.max(residuals) <= 1e-10
    assert counts["newton"] > 0
    # each Newton step is one solve_linear of its own
    assert (counts["state"], counts["linearized"], counts["solve"] - counts["newton"]) == (1, 1, 2)


def test_robinson_target_validation(disk, quadratic_spec):
    m = disk(1)
    z = zero_controls(m)
    with pytest.raises(FieldError):
        kkt.robinson_check(quadratic_spec, z, [(z[1], z[0])])
    with pytest.raises(FieldError):
        kkt.robinson_check(quadratic_spec, z, [z, zero_controls(disk(2))])
