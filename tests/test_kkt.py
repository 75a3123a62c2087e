"""Objective, multipliers, projection, residuals, fixed-point solver."""

import json

import numpy as np
import pytest

import oracles
from conftest import zero_controls
from mixedreg import catalog, fem, kkt, solvers
from mixedreg.fem import FieldError


def simple_spec(**overrides):
    base = dict(
        preset="disk", p=2.0, q=2.0, lambda1=1.0, lambda2=0.0, mu1=1.0, mu2=0.0,
        a11="1", a12="0", a22="1", a0="1", f="y", L="0", ell="0",
        g1="y - 1", g2="y - 1", zeta1=("t", 1.0), zeta2=("t", 1.0), N=2,
    )
    base.update(overrides)
    return catalog.ProblemSpec(**base)


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


def test_reduced_gradient_zero_at_zero_data(disk):
    m = disk(2)
    spec = simple_spec()
    gu, gv = kkt.reduced_gradient(spec, *zero_controls(m))
    assert np.max(np.abs(gu.values)) == 0.0
    assert np.max(np.abs(gv.values)) == 0.0


# ---------------------------------------------------------------------------
# constraints, multipliers, projection


def test_constraint_values_examples(disk):
    m = disk(2)
    spec = simple_spec()
    y = fem.domain_field(m, 0.0)

    u, v = zero_controls(m)
    G1, G2 = kkt.constraint_values(spec, y, u, v)
    assert np.all(G1.values == -1.0) and np.all(G2.values == -1.0)

    u = fem.domain_field(m, 1.0)
    G1, _ = kkt.constraint_values(spec, y, u, v)
    assert np.max(np.abs(G1.values)) == 0.0

    spec0 = simple_spec(g1="y")
    u = fem.domain_field(m, 0.25)
    G1, _ = kkt.constraint_values(spec0, y, u, v)
    assert np.all(G1.values == 0.25)


def test_multipliers_vanish_off_active_set(disk):
    m = disk(2)
    spec = simple_spec()
    y = fem.domain_field(m, 0.0)
    u, v = zero_controls(m)
    phi = fem.domain_field(m, -3.0)
    psi1, psi2, mask1, mask2 = kkt.multipliers_from_phi(spec, y, u, v, phi)
    assert not mask1.any() and not mask2.any()
    assert np.max(np.abs(psi1.values)) == 0.0
    assert np.max(np.abs(psi2.values)) == 0.0


def test_multiplier_arithmetic_on_active_set(disk):
    # u at the bound 1, phi = -3, identity costs: psi1 = -((-3) + 1) / 1 = 2
    m = disk(2)
    spec = simple_spec()
    y = fem.domain_field(m, 0.0)
    u = fem.domain_field(m, 1.0)
    v = fem.boundary_field(m, 1.0)
    phi = fem.domain_field(m, -3.0)
    psi1, psi2, mask1, mask2 = kkt.multipliers_from_phi(spec, y, u, v, phi)
    assert mask1.all() and mask2.all()
    assert np.max(np.abs(psi1.values - 2.0)) == 0.0
    assert np.max(np.abs(psi2.values - 2.0)) == 0.0
    # recovered multipliers zero the control stationarity identically
    stat = u.values + phi.values + psi1.values
    assert np.max(np.abs(stat)) == 0.0


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
    G1, G2 = kkt.constraint_values(spec, y, u, v)
    assert np.max(G1.values) <= 1e-12
    assert np.max(G2.values) <= 1e-12


def test_project_requires_domain_adjoint(disk):
    m = disk(1)
    with pytest.raises(FieldError):
        kkt.project_controls(simple_spec(), fem.domain_field(m, 0.0), fem.boundary_field(m, 0.0))


def test_decreasing_reparametrization_rejected(disk):
    m = disk(1)
    spec = simple_spec(zeta1=("-t", 1.0))
    with pytest.raises(catalog.SpecError):
        kkt.project_controls(spec, fem.domain_field(m, 0.0), fem.domain_field(m, 0.0))


# ---------------------------------------------------------------------------
# residual evaluation


def exact_constant_state(spec, mesh):
    c = oracles.CONSTANT_KKT_EXACT
    return kkt.KKTState(
        y=fem.domain_field(mesh, c["y"]),
        phi=fem.domain_field(mesh, c["phi"]),
        psi1=fem.domain_field(mesh, c["psi1"]),
        u=fem.domain_field(mesh, c["u"]),
        v=fem.boundary_field(mesh, c["v"]),
        psi2=fem.boundary_field(mesh, c["psi2"]),
        active_domain=np.ones(mesh.n_vertices, dtype=bool),
        active_boundary=np.ones(mesh.n_boundary, dtype=bool),
    )


def test_residual_zero_at_manufactured_constants(configs, disk):
    assert oracles.constant_kkt_reference() == pytest.approx(
        oracles.CONSTANT_KKT_EXACT, abs=1e-13
    )
    spec = configs["constant_kkt"]
    m = disk(3)
    report = kkt.kkt_residual(spec, exact_constant_state(spec, m))
    assert report.max_residual <= 1e-9
    assert report.converged


def test_residual_detects_control_perturbation(configs, disk):
    spec = configs["constant_kkt"]
    m = disk(3)
    state = exact_constant_state(spec, m)
    state.u.values += 0.1
    report = kkt.kkt_residual(spec, state)
    assert report.residuals["stationarity_u"] >= 0.099
    assert not report.converged


def test_residual_flags_spurious_multiplier(configs, disk):
    spec = configs["constant_kkt"]
    m = disk(2)
    state = exact_constant_state(spec, m)
    state.u.values -= 0.5
    report = kkt.kkt_residual(spec, state)
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
# fixed-point solver


def test_solve_kkt_damping_validation(disk):
    m = disk(1)
    for d in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            kkt.solve_kkt(simple_spec(), zero_controls(m), damping=d)


def test_zero_data_converges_immediately(disk):
    m = disk(2)
    state, report = kkt.solve_kkt(simple_spec(), zero_controls(m))
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


def test_low_damping_descends(configs, disk):
    m = disk(2)
    _, report = kkt.solve_kkt(
        configs["constant_kkt"], zero_controls(m), damping=0.1, max_iter=40, kkt_tol=1e-10
    )
    objs = [row[1] for row in report.history]
    assert len(objs) >= 10
    tail = objs[3:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_one_linearized_matrix_per_sweep(configs, disk, monkeypatch):
    # Newton assembles one matrix per step; each sweep adds one more, which
    # the adjoint solve and the adjoint residual share
    counts = {"newton": 0, "solvers": 0, "kkt": 0}

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
    monkeypatch.setattr(kkt, "solve_state", solve_state)
    _, report = kkt.solve_kkt(
        configs["smooth_constrained"], zero_controls(disk(2)), damping=0.3, max_iter=5, kkt_tol=5e-3
    )
    assert counts["kkt"] == report.iterations
    assert counts["solvers"] == counts["newton"]


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
    z0 = zero_controls(m)
    assert kkt.robinson_check(quadratic_spec, z, z0) == 0.0


def test_robinson_constant_targets(disk, quadratic_spec):
    m = disk(2)
    z = zero_controls(m)
    z0 = (fem.domain_field(m, 1.0), fem.boundary_field(m, 1.0))
    assert kkt.robinson_check(quadratic_spec, z, z0) <= 1e-10


def test_robinson_random_targets(configs, disk):
    spec = configs["quadratic_tracking"]
    m = disk(3)
    z = zero_controls(m)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(3):
        z0 = (
            fem.domain_field(m, rng.standard_normal(m.n_vertices)),
            fem.boundary_field(m, rng.standard_normal(m.boundary_loop.shape[0])),
        )
        worst = max(worst, kkt.robinson_check(spec, z, z0))
    assert worst <= 1e-8


def test_robinson_target_validation(disk, quadratic_spec):
    m = disk(1)
    z = zero_controls(m)
    with pytest.raises(FieldError):
        kkt.robinson_check(quadratic_spec, z, (z[1], z[0]))
