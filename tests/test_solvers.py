"""Exponent arithmetic, state solver, linearization, adjoint."""

import warnings

import numpy as np
import pytest

import oracles
from mixedreg import catalog, fem, geometry, solvers
from mixedreg.catalog import SpecError
from mixedreg.solvers import exponents


@pytest.fixture(scope="module")
def cubic_spec():
    return catalog.ProblemSpec(
        preset="disk", p=2.0, q=2.0, lambda1=1.0, lambda2=1.0, mu1=1.0, mu2=1.0,
        a11="1", a12="0", a22="1", a0="1", f="y^3", L="y^2", ell="y^2",
        g1="y", g2="y", zeta1=("t", 1.0), zeta2=("t", 1.0),
    )


@pytest.fixture(scope="module")
def linear_spec():
    return catalog.ProblemSpec(
        preset="disk", p=2.0, q=2.0, lambda1=1.0, lambda2=1.0, mu1=1.0, mu2=1.0,
        a11="1", a12="0", a22="1", a0="1", f="y", L="y^2", ell="y^2",
        g1="y", g2="y", zeta1=("t", 1.0), zeta2=("t", 1.0),
    )


# ---------------------------------------------------------------------------
# exponent table


def test_exponent_examples():
    t = exponents(2.0, 3.0, 3.0)
    assert (t.r, t.s) == (6.0, 3.0)
    assert t.conjugacy_slack == pytest.approx(0.5, abs=1e-15)

    t = exponents(3.0, 2.0, 4.0)
    assert (t.r, t.s) == (6.0, 2.0)
    assert t.conjugacy_slack == pytest.approx(1.0 / 3.0, abs=1e-15)

    t = exponents(2.0, 2.0, 2.0)
    assert (t.r, t.s) == (4.0, 4.0)
    assert t.conjugacy_slack == pytest.approx(0.5, abs=1e-15)


def test_exponent_rejects_inadmissible():
    with pytest.raises(SpecError):
        exponents(2.0, 1.5, 3.0)
    with pytest.raises(SpecError):
        exponents(4.0, 1.9, 3.0)
    with pytest.raises(SpecError):
        exponents(3.0, 3.0, 1.9)
    with pytest.raises(SpecError):
        exponents(1.0, 3.0, 3.0)


def test_exponent_matches_reference_sample():
    rng = np.random.default_rng(17)
    for N, p, q in oracles.admissible_triples(rng, 200):
        t = exponents(N, p, q)
        r_ref, s_ref, slack_ref = oracles.exponents_reference(N, p, q)
        assert t.r == r_ref and t.s == s_ref and t.conjugacy_slack == slack_ref


# ---------------------------------------------------------------------------
# nonlinear state solve


def test_constant_manufactured_state(linear_spec, disk):
    # a0 y + y = u with u = 2 has the constant solution y = 1
    m = disk(3)
    rep = solvers.solve_state(linear_spec, fem.domain_field(m, 2.0), fem.boundary_field(m, 0.0))
    assert np.max(np.abs(rep.state.values - 1.0)) < 1e-9
    assert rep.newton_iterations == 1


def test_linear_state_single_newton_step(disk, quadratic_spec):
    m = disk(3)
    rep = solvers.solve_state(quadratic_spec, fem.domain_field(m, 1.0), fem.boundary_field(m, 0.5))
    assert rep.newton_iterations == 1
    assert rep.final_residual < 1e-10


def test_state_report_fields(cubic_spec, disk):
    m = disk(3)
    rep = solvers.solve_state(cubic_spec, fem.domain_field(m, 1.0), fem.boundary_field(m, 0.0))
    assert rep.state.role == "domain"
    assert len(rep.residual_history) == rep.newton_iterations + 1
    assert rep.residual_history[-1] == rep.final_residual


def test_state_step_cap_raises_with_history(configs, disk, monkeypatch):
    monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 1)
    m = disk(3)
    u, v = fem.domain_field(m, 3.0), fem.boundary_field(m, 1.0)
    with pytest.raises(solvers.NonlinearSolveError, match="did not converge in 1 iterations") as err:
        solvers.solve_state(configs["quadratic_tracking"], u, v)
    history = err.value.residual_history
    assert len(history) == 2 and history[1] < history[0]


def test_state_line_search_stall_raises(configs, disk, monkeypatch):
    # an ascent direction: no step length gives the Armijo decrease
    solve = fem.solve_linear
    monkeypatch.setattr(fem, "solve_linear", lambda a, b: -solve(a, b))
    m = disk(3)
    u, v = fem.domain_field(m, 3.0), fem.boundary_field(m, 1.0)
    with pytest.raises(solvers.NonlinearSolveError, match="line search stalled after 30 halvings") as err:
        solvers.solve_state(configs["quadratic_tracking"], u, v)
    assert len(err.value.residual_history) == 1


def test_overflowing_load_norm_fails_the_solve(configs, disk):
    # |load|_2 overflows to inf and inf <= inf would accept the zero start with no step
    m = disk(2)
    u, v = fem.domain_field(m, 1e160), fem.boundary_field(m, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(solvers.NonlinearSolveError, match="load norm is not finite"):
            solvers.solve_state(configs["quadratic_tracking"], u, v)


def test_manufactured_solution_orders(cubic_spec, disk):
    """Cubic-reaction instance with exact state 1 + x1 x2; frozen errors."""
    y_fn, u_fn, v_fn = oracles.mms_disk_instance()
    expected_l2 = [2.240689e-03, 5.619751e-04]
    expected_max = [3.406351e-03, 8.564035e-04]
    for level, el2, emx in zip((3, 4), expected_l2, expected_max):
        m = disk(level)
        u = fem.domain_field(m, u_fn(m.vertices[:, 0], m.vertices[:, 1]))
        bx = m.vertices[m.boundary_loop]
        v = fem.boundary_field(m, v_fn(bx[:, 0], bx[:, 1]))
        rep = solvers.solve_state(cubic_spec, u, v)
        err = rep.state.values - y_fn(m.vertices[:, 0], m.vertices[:, 1])
        l2 = fem.lp_norm(fem.domain_field(m, err), 2.0)
        assert l2 == pytest.approx(el2, rel=1e-4)
        assert np.max(np.abs(err)) == pytest.approx(emx, rel=1e-4)
        assert rep.newton_iterations <= 8


def test_newton_tol_validation(cubic_spec, disk):
    m = disk(1)
    u = fem.domain_field(m, 0.0)
    v = fem.boundary_field(m, 0.0)
    for tol in (-1.0, 0.0, 1.5):
        with pytest.raises(SpecError):
            solvers.solve_state(cubic_spec, u, v, newton_tol=tol)


def test_warm_start_accepted(cubic_spec, disk):
    m = disk(3)
    u = fem.domain_field(m, 1.0)
    v = fem.boundary_field(m, 0.0)
    cold = solvers.solve_state(cubic_spec, u, v)
    warm = solvers.solve_state(cubic_spec, u, v, initial=cold)
    assert np.max(np.abs(warm.state.values - cold.state.values)) < 1e-9
    assert warm.newton_iterations <= cold.newton_iterations


def test_seed_report_must_match_mesh_and_spec(cubic_spec, linear_spec, disk):
    m = disk(2)
    u, v = fem.domain_field(m, 1.0), fem.boundary_field(m, 0.0)
    ellipse = geometry.build_mesh("ellipse", 2)
    assert ellipse.n_vertices == m.n_vertices
    foreign = [
        solvers.solve_state(cubic_spec, fem.domain_field(other, 1.0), fem.boundary_field(other, 0.0))
        for other in (ellipse, disk(3))
    ]
    for seed in foreign:
        with pytest.raises(fem.FieldError, match="another mesh"):
            solvers.solve_state(cubic_spec, u, v, initial=seed)
    with pytest.raises(SpecError, match="another problem spec"):
        solvers.solve_state(cubic_spec, u, v, initial=solvers.solve_state(linear_spec, u, v))


def test_seeded_solves_share_the_seed_factorisation(cubic_spec, disk, factorisations):
    m = disk(3)
    u, v = fem.domain_field(m, 1.0), fem.boundary_field(m, 0.0)
    base = solvers.solve_state(cubic_spec, u, v)
    nearby = [fem.domain_field(m, 1.0 + sign * 1e-6 * m.vertices[:, 0]) for sign in (1.0, -1.0)]
    cold = [solvers.solve_state(cubic_spec, near, v) for near in nearby]
    before = len(factorisations)
    for near, ref in zip(nearby, cold):
        warm = solvers.solve_state(cubic_spec, near, v, initial=base)
        assert warm.newton_iterations == 1
        assert np.max(np.abs(warm.state.values - ref.state.values)) < 1e-9
    # one step each with the seed's linearization, factorised by the first
    assert len(factorisations) == before + 1


def gradient_probes(mesh, rng):
    """Base controls and one direction's probes (u ± h du, v ± h dv) at the four steps h, drawn as gradient-check draws them."""
    n, nb = mesh.n_vertices, mesh.n_boundary
    u = fem.domain_field(mesh, 0.5 * rng.standard_normal(n))
    v = fem.boundary_field(mesh, 0.5 * rng.standard_normal(nb))
    du, dv = rng.standard_normal(n), rng.standard_normal(nb)
    scale = max(np.max(np.abs(du)), np.max(np.abs(dv)))
    du, dv = du / scale, dv / scale
    probes = [
        (fem.domain_field(mesh, u.values + h * du), fem.boundary_field(mesh, v.values + h * dv))
        for step in (1e-3, 1e-4, 1e-5, 1e-6) for h in (step, -step)
    ]
    return u, v, probes


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded"])
def test_block_solve_matches_pair_by_pair_solves(configs, disk, monkeypatch, seeded):
    spec, m = configs["quadratic_tracking"], disk(3)
    u, v, probes = gradient_probes(m, np.random.default_rng(42))
    base = solvers.solve_state(spec, u, v) if seeded else None
    single = [solvers.solve_state(spec, p, q, initial=base) for p, q in probes]
    shapes = []
    solve = fem.solve_linear
    monkeypatch.setattr(fem, "solve_linear", lambda op, rhs: shapes.append(rhs.shape) or solve(op, rhs))
    block = solvers.solve_states(spec, probes, initial=base)
    steps = [r.newton_iterations for r in block]
    assert steps == [r.newton_iterations for r in single]
    for b, s in zip(block, single):
        assert np.max(np.abs(b.state.values - s.state.values)) <= 1e-14 * np.max(np.abs(s.state.values))
    # every first step comes from one (n, 8) solve; each later step solves its own linearization
    assert shapes == [(m.n_vertices, 8)] + [(m.n_vertices,)] * sum(k - 1 for k in steps)
    if seeded:
        # the probes at h = 1e-3 take a second step
        assert steps == [2, 2, 1, 1, 1, 1, 1, 1]


def test_block_pairs_converged_at_the_start_take_no_step(configs, disk, monkeypatch):
    spec, m = configs["quadratic_tracking"], disk(3)
    u, v, probes = gradient_probes(m, np.random.default_rng(42))
    base = solvers.solve_state(spec, u, v)
    alone = solvers.solve_state(spec, *probes[2], initial=base)
    calls = []
    solve = fem.solve_linear
    monkeypatch.setattr(fem, "solve_linear", lambda op, rhs: calls.append(rhs.shape) or solve(op, rhs))
    # the seed solves its own controls: no step and no linear solve
    assert [r.newton_iterations for r in solvers.solve_states(spec, [(u, v)] * 2, initial=base)] == [0, 0]
    assert calls == []
    at_base, probe = solvers.solve_states(spec, [(u, v), probes[2]], initial=base)
    assert at_base.newton_iterations == 0
    assert np.array_equal(at_base.state.values, base.state.values)
    assert probe.newton_iterations == alone.newton_iterations == 1
    assert np.max(np.abs(probe.state.values - alone.state.values)) <= 1e-14 * np.max(np.abs(alone.state.values))
    # the block's first-step solve holds the one pair that needs a step
    assert calls == [(m.n_vertices, 1)]


def test_seeded_blocks_share_f_at_the_seed(configs, disk, monkeypatch):
    spec, m = configs["quadratic_tracking"], disk(3)
    u, v, probes = gradient_probes(m, np.random.default_rng(42))
    base, fresh = solvers.solve_state(spec, u, v), solvers.solve_state(spec, u, v)
    at_seed = []
    evaluate = solvers.semilinear_operator

    def counted(spec, y):
        at_seed.append(np.array_equal(y.values, base.state.values))
        return evaluate(spec, y)

    monkeypatch.setattr(solvers, "semilinear_operator", counted)
    blocks = [solvers.solve_states(spec, probes[i : i + 2], initial=base) for i in range(0, len(probes), 2)]
    # four seeded blocks evaluate F at the seed once, on the report, and solve as a report with nothing kept
    assert at_seed.count(True) == 1
    for i, block in zip(range(0, len(probes), 2), blocks):
        alone = solvers.solve_states(spec, probes[i : i + 2], initial=fresh)
        fresh.__dict__.pop("semilinear_operator")
        assert all(np.array_equal(a.state.values, b.state.values) for a, b in zip(block, alone))


def test_block_pairs_must_share_a_mesh(cubic_spec, disk):
    pairs = [(fem.domain_field(m, 1.0), fem.boundary_field(m, 0.0)) for m in (disk(2), disk(3))]
    with pytest.raises(fem.FieldError, match="different meshes"):
        solvers.solve_states(cubic_spec, pairs)


# ---------------------------------------------------------------------------
# linearized solve


@pytest.fixture(scope="module")
def linearization_setup(cubic_spec):
    m = geometry.build_mesh("disk", 3)
    rng = np.random.default_rng(21)
    u0 = fem.domain_field(m, rng.uniform(-1.0, 1.0, m.n_vertices))
    v0 = fem.boundary_field(m, rng.uniform(-1.0, 1.0, m.boundary_loop.shape[0]))
    du = fem.domain_field(m, rng.standard_normal(m.n_vertices))
    dv = fem.boundary_field(m, rng.standard_normal(m.boundary_loop.shape[0]))
    y0 = solvers.solve_state(cubic_spec, u0, v0, newton_tol=1e-13).state
    return m, u0, v0, du, dv, y0, rng


def linearized_direction(spec, y0, du, dv):
    """Directional derivative of the control-to-state map at y0, as nodal values."""
    load = fem.p1(y0.mesh).load(du.values, dv.values)
    return fem.solve_linear(solvers.linearized_matrix(spec, y0), load)


def adjoint_solution(spec, y, f, g):
    """Adjoint at y for nodal loads f in the domain and g on the boundary, as nodal values.

    The discrete operator is symmetric, so the adjoint solves with the linearized matrix.
    """
    return fem.solve_linear(solvers.linearized_matrix(spec, y), fem.p1(y.mesh).load(f, g))


def test_linearized_is_first_order_expansion(cubic_spec, linearization_setup):
    m, u0, v0, du, dv, y0, _ = linearization_setup
    w = linearized_direction(cubic_spec, y0, du, dv)
    remainders = []
    for t in (1e-2, 1e-3, 1e-4):
        ut = fem.domain_field(m, u0.values + t * du.values)
        vt = fem.boundary_field(m, v0.values + t * dv.values)
        yt = solvers.solve_state(cubic_spec, ut, vt, newton_tol=1e-13).state
        remainders.append(np.max(np.abs(yt.values - y0.values - t * w)) / t ** 2)
    # second-order remainder: q / t^2 stays put while t spans two decades
    base = remainders[0]
    assert all(0.5 * base < r < 2.0 * base for r in remainders)


def test_linearized_adjoint_duality(cubic_spec, linearization_setup):
    m, _, _, du, dv, y0, rng = linearization_setup
    w = linearized_direction(cubic_spec, y0, du, dv)
    rhs_d = fem.domain_field(m, rng.standard_normal(m.n_vertices))
    rhs_b = fem.boundary_field(m, rng.standard_normal(m.boundary_loop.shape[0]))
    phi = adjoint_solution(cubic_spec, y0, rhs_d.values, rhs_b.values)
    M = fem.p1(m).mass
    Mb = fem.p1(m).boundary_mass
    lhs = rhs_d.values @ (M @ w) + rhs_b.values @ (Mb @ w[m.boundary_loop])
    rhs = du.values @ (M @ phi) + dv.values @ (Mb @ phi[m.boundary_loop])
    assert lhs == pytest.approx(rhs, rel=1e-11)


# ---------------------------------------------------------------------------
# adjoint solve


def test_adjoint_constant_solution(linear_spec, disk):
    # (a0 + f') phi = 2 with a0 = f' = 1 gives phi = 1
    m = disk(3)
    y1 = fem.domain_field(m, 1.0)
    phi = adjoint_solution(linear_spec, y1, np.full(m.n_vertices, 2.0), np.zeros(m.n_boundary))
    assert np.max(np.abs(phi - 1.0)) < 1e-12


def test_adjoint_zero_rhs(linear_spec, disk):
    m = disk(2)
    y1 = fem.domain_field(m, 1.0)
    phi = adjoint_solution(linear_spec, y1, np.zeros(m.n_vertices), np.zeros(m.n_boundary))
    assert np.max(np.abs(phi)) == 0.0
