"""P1 assembly, norms, traces, transfer, and field IO."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import oracles
from mixedreg import FieldError, LinearSolveError, build_disk_mesh, gagliardo, lp_norm, prolong, refine
from mixedreg import fem
from mixedreg.fem import (
    AssemblyError,
    assemble_operator,
    boundary_field,
    domain_field,
    field_from_meshfield,
    read_meshfield,
    solve_linear,
    trace,
    write_meshfield,
)
from mixedreg.geometry import mesh_from_arrays


@pytest.fixture(scope="module")
def identity_spec(quadratic_spec):
    # unit diffusion, a0 = 1, no state dependence in the operator
    return quadratic_spec


def test_element_matrices_match_sympy():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = mesh_from_arrays(verts, np.array([[0, 1, 2]]))
    K, M, _ = oracles.dense_p1(m)
    assert np.max(np.abs(K - oracles.element_stiffness_sympy())) < 1e-15
    assert np.max(np.abs(M - oracles.element_mass_sympy())) < 1e-15
    # the classical reference element values
    expected_K = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.max(np.abs(K - expected_K)) < 1e-15


def test_assembled_matrices_match_dense_oracle(disk, identity_spec):
    rng = np.random.default_rng(3)
    for level in (1, 2):
        m = disk(level)
        rec = fem.p1(m)
        K_ref, M_ref, Mb_ref = oracles.dense_p1(m)
        T_ref = oracles.trace_matrix(m)
        K = assemble_operator(m, identity_spec, reaction=False).matrix.toarray()
        assert np.max(np.abs(K - K_ref)) < 1e-14
        assert np.max(np.abs(rec.mass.matrix.toarray() - M_ref)) < 1e-14
        assert np.max(np.abs(rec.boundary_mass.matrix.toarray() - Mb_ref)) < 1e-14
        assert np.array_equal(rec.trace_matrix.toarray(), T_ref)
        f, g = rng.standard_normal(m.n_vertices), rng.standard_normal(m.n_boundary)
        load_ref = M_ref @ f + T_ref.T @ (Mb_ref @ g)
        assert np.max(np.abs(rec.load(f, g) - load_ref)) < 1e-14


def test_record_is_shared_and_built_on_demand():
    m = build_disk_mesh(3)  # fresh: nothing has touched its record yet
    rec = fem.p1(m)
    assert fem.p1(m) is rec
    gagliardo(boundary_field(m, np.cos(m.boundary_params)), 0.5, 2.0)
    assert "boundary" in vars(rec)
    assert not {"interior", "mass", "boundary_mass", "trace_matrix"} & vars(rec).keys()
    assert rec._operator is None
    # the Gagliardo weights are boundary parts too, kept for the one beta used
    assert set(rec._far_field) == set(rec._adjacent) == {2.0}


def test_record_dies_with_its_mesh():
    # the record holds its mesh weakly: no cycle, so no collector is needed
    m = build_disk_mesh(3)
    rec = fem.p1(m)
    rec.mass  # interior parts as well as the boundary ones
    gagliardo(boundary_field(m, np.cos(m.boundary_params)), 0.5, 2.0)
    assert rec.mesh is m
    ref = weakref.ref(rec)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del m, rec
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_record_operator_follows_the_spec(disk, identity_spec):
    m = disk(2)
    rec = fem.p1(m)
    shifted = dataclasses.replace(identity_spec, a0="3")
    base = rec.operator(identity_spec).matrix.toarray()
    assert rec.operator(identity_spec) is rec.operator(identity_spec)
    # a0 enters only through the reaction term: the two operators differ by 2 M
    diff = rec.operator(shifted).matrix.toarray() - base
    assert np.max(np.abs(diff - 2.0 * rec.mass.matrix.toarray())) < 1e-14
    assert np.array_equal(rec.operator(identity_spec).matrix.toarray(), base)


def test_operator_includes_reaction(disk, identity_spec):
    m = disk(1)
    full = assemble_operator(m, identity_spec).matrix.toarray()
    stiff = assemble_operator(m, identity_spec, reaction=False).matrix.toarray()
    mass = fem.p1(m).mass.matrix.toarray()
    assert np.max(np.abs(full - stiff - mass)) < 1e-14


def test_stiffness_annihilates_constants(disk, identity_spec):
    m = disk(2)
    K = assemble_operator(m, identity_spec, reaction=False)
    r = K.matvec(np.ones(m.n_vertices))
    assert np.max(np.abs(r)) < 1e-13


def test_mass_totals(disk):
    m = disk(3)
    ones = np.ones(m.n_vertices)
    M = fem.p1(m).mass
    assert float(ones @ M.matvec(ones)) == pytest.approx(m.area(), rel=1e-13)
    nb = m.boundary_loop.shape[0]
    Mb = fem.p1(m).boundary_mass
    total = float(np.ones(nb) @ Mb.matvec(np.ones(nb)))
    assert total == pytest.approx(m.perimeter(), rel=1e-13)


def test_ellipticity_guard(disk):
    import mixedreg.catalog as catalog

    bad = catalog.ProblemSpec(
        preset="disk", p=2.0, q=2.0, lambda1=1.0, lambda2=1.0, mu1=1.0, mu2=1.0,
        a11="-1", a12="0", a22="1", a0="1", f="y", L="y^2", ell="y^2",
        g1="y", g2="y", zeta1=("t", 1.0), zeta2=("t", 1.0), N=2,
    )
    with pytest.raises(AssemblyError) as err:
        assemble_operator(disk(1), bad)
    assert "quadrature point" in str(err.value)


def test_trace_of_coordinate_is_cosine(disk):
    m = disk(3)
    tr = trace(domain_field(m, m.vertices[:, 0]))
    assert tr.role == "boundary"
    assert np.max(np.abs(tr.values - np.cos(m.boundary_params))) == 0.0


def test_trace_of_constant(disk):
    m = disk(2)
    tr = trace(domain_field(m, 4.25))
    assert np.all(tr.values == 4.25)


def test_lp_norm_constant_and_zero(disk):
    m = disk(3)
    c = domain_field(m, -2.0)
    assert lp_norm(c, 2.0) == pytest.approx(2.0 * np.sqrt(m.area()), rel=1e-13)
    assert lp_norm(domain_field(m, 0.0), 3.0) == 0.0
    b = boundary_field(m, 3.0)
    assert lp_norm(b, 2.0) == pytest.approx(3.0 * np.sqrt(m.perimeter()), rel=1e-13)


def test_lp_norm_coordinate_against_closed_form(disk):
    # ||x1||_L2 over the unit disk is sqrt(pi)/2
    exact = np.sqrt(np.pi) / 2.0
    vals = []
    for level in (5, 6):
        m = disk(level)
        vals.append(lp_norm(domain_field(m, m.vertices[:, 0]), 2.0))
    assert abs(vals[0] - exact) / exact < 2e-4
    assert abs(vals[1] - exact) / exact < 5e-5
    assert abs(vals[1] - exact) < abs(vals[0] - exact)


def test_lp_norm_requires_p_at_least_one(disk):
    with pytest.raises(FieldError):
        lp_norm(domain_field(disk(1), 1.0), 0.5)


def test_solve_linear_identityish(disk, identity_spec):
    m = disk(2)
    op = assemble_operator(m, identity_spec)
    target = np.ones(m.n_vertices)
    rhs = op.matvec(target)
    x = solve_linear(op, rhs, rtol=1e-13)
    assert np.max(np.abs(x - target)) < 1e-10
    assert np.all(solve_linear(op, np.zeros(m.n_vertices)) == 0.0)


def test_solve_linear_reports_exhaustion(disk, identity_spec):
    m = disk(1)
    op = assemble_operator(m, identity_spec)
    with pytest.raises(LinearSolveError) as err:
        solve_linear(op, np.ones(m.n_vertices), rtol=1e-30)
    assert "residual" in str(err.value)


def test_prolong_constant_exact(disk):
    m, fine = disk(2), disk(3)
    p = prolong(domain_field(m, 7.5), fine)
    assert np.all(p.values == 7.5)


def test_prolong_linear_interior_exact_boundary_second_order(disk):
    coarse, fine = disk(3), disk(4)
    lin = domain_field(coarse, coarse.vertices[:, 0] + 2.0 * coarse.vertices[:, 1])
    p = prolong(lin, fine)
    exact = fine.vertices[:, 0] + 2.0 * fine.vertices[:, 1]
    err = np.abs(p.values - exact)
    interior = np.setdiff1d(np.arange(fine.n_vertices), fine.boundary_loop)
    assert err[interior].max() < 1e-14
    # new boundary vertices sit on the arc, the parent average on the chord
    assert err.max() < 4e-3
    coarser = domain_field(disk(4), disk(4).vertices[:, 0])
    again = prolong(coarser, disk(5))
    assert np.abs(again.values - disk(5).vertices[:, 0]).max() < err.max() / 3.0


def test_prolong_boundary_field(disk):
    coarse, fine = disk(2), disk(3)
    v = boundary_field(coarse, np.sin(coarse.boundary_params))
    p = prolong(v, fine)
    assert p.role == "boundary"
    assert p.values.shape[0] == fine.boundary_loop.shape[0]
    # coarse nodes are preserved exactly
    assert np.max(np.abs(p.values[::2] - v.values)) < 1e-15


def test_prolong_rejects_wrong_mesh(disk):
    with pytest.raises(FieldError):
        prolong(domain_field(disk(2), 1.0), disk(4))


def test_field_validation(disk):
    m = disk(1)
    with pytest.raises(FieldError):
        domain_field(m, np.ones(3))
    with pytest.raises(FieldError):
        domain_field(m, np.full(m.n_vertices, np.nan))
    with pytest.raises(FieldError):
        trace(boundary_field(m, 0.0))


def test_meshfield_roundtrip(tmp_path, disk):
    m = disk(2)
    rng = np.random.default_rng(9)
    f = domain_field(m, rng.standard_normal(m.n_vertices))
    path = tmp_path / "field.mf"
    write_meshfield(f, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "MESHFIELD v1"
    assert int(lines[1]) == m.n_vertices
    coords, values = read_meshfield(str(path))
    assert np.array_equal(values, f.values)
    assert np.array_equal(coords, m.vertices)
    again = field_from_meshfield(m, "domain", str(path))
    assert np.array_equal(again.values, f.values)


def test_meshfield_mesh_mismatch(tmp_path, disk):
    f = boundary_field(disk(1), 1.0)
    path = tmp_path / "b.mf"
    write_meshfield(f, str(path))
    with pytest.raises(FieldError):
        field_from_meshfield(disk(2), "boundary", str(path))
