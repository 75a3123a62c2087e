"""P1 assembly, norms, traces, transfer, and field IO."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mixedreg import fem, solvers
from mixedreg.expressions import parse_expr
from mixedreg.fem import (
    AssemblyError,
    FieldError,
    LinearSolveError,
    assemble_operator,
    boundary_field,
    domain_field,
    lp_norm,
    prolong,
    read_meshfield,
    solve_linear,
    trace,
    write_meshfield,
)
from mixedreg.fracnorm import gagliardo
from mixedreg.geometry import PRESETS, boundary_fan, build_mesh, mesh_from_arrays, refine
from mixedreg.regularity import _pair_quotients


@pytest.fixture(scope="module")
def identity_spec(quadratic_spec):
    # unit diffusion, a0 = 1, no state dependence in the operator
    return quadratic_spec


@pytest.fixture(scope="module")
def stiffness_spec(identity_spec):
    # a0 = 0: the operator is the pure stiffness matrix
    return dataclasses.replace(identity_spec, a0="0")


def test_element_matrices_match_sympy():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = mesh_from_arrays(verts, np.array([[0, 1, 2]]))
    K, M, _ = oracles.dense_p1(m)
    assert np.max(np.abs(K - oracles.element_stiffness_sympy())) < 1e-15
    assert np.max(np.abs(M - oracles.element_mass_sympy())) < 1e-15
    # the classical reference element values
    expected_K = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.max(np.abs(K - expected_K)) < 1e-15


def test_assembled_matrices_match_dense_oracle(disk, stiffness_spec):
    rng = np.random.default_rng(3)
    for level in (1, 2):
        m = disk(level)
        rec = fem.p1(m)
        K_ref, M_ref, Mb_ref = oracles.dense_p1(m)
        T_ref = oracles.trace_matrix(m)
        K = assemble_operator(m, stiffness_spec).toarray()
        assert np.max(np.abs(K - K_ref)) < 1e-14
        assert np.max(np.abs(rec.mass.toarray() - M_ref)) < 1e-14
        assert np.max(np.abs(rec.boundary_mass.toarray() - Mb_ref)) < 1e-14
        assert np.max(np.abs(rec.vertex_boundary_mass.toarray() - T_ref.T @ Mb_ref @ T_ref)) < 1e-14
        f, g = rng.standard_normal(m.n_vertices), rng.standard_normal(m.n_boundary)
        load_ref = M_ref @ f + T_ref.T @ (Mb_ref @ g)
        assert np.max(np.abs(rec.load(f, g) - load_ref)) < 1e-14


def builder_id(value):
    """The builder-function name each preset's tests carry as their id, so a test keeps its name."""
    return f"build_{value}_mesh" if isinstance(value, str) else None


# variable, elliptic and anisotropic on both presets (x1 >= -1.5, so a11 >= 0.5 and |a12| <= 0.5)
ANISOTROPIC = {"a11": "2 + x1", "a12": "0.5*x2", "a22": "1 + x2^2", "a0": "1 + x1^2"}


@pytest.mark.parametrize("preset", sorted(PRESETS), ids=builder_id)
def test_anisotropic_operator_matches_dense_oracle(preset, identity_spec):
    spec = dataclasses.replace(identity_spec, **ANISOTROPIC)
    for level in (2, 3):
        m = build_mesh(preset, level)
        K_ref = oracles.dense_midpoint_operator(
            m, lambda x1, x2: 2.0 + x1, lambda x1, x2: 0.5 * x2, lambda x1, x2: 1.0 + x2 * x2,
            lambda x1, x2: 1.0 + x1 * x1,
        )
        K = assemble_operator(m, spec).toarray()
        assert np.max(np.abs(K - K_ref)) <= 1e-13 * np.max(np.abs(K_ref))


@pytest.mark.parametrize("preset", sorted(PRESETS), ids=builder_id)
def test_weighted_mass_matches_dense_oracle(preset):
    m = build_mesh(preset, 3)
    weight = np.random.default_rng(7).standard_normal(3 * m.triangles.shape[0])
    M_ref = oracles.dense_weighted_mass(m, weight)
    M = fem.assemble_weighted_mass(m, weight).toarray()
    assert np.max(np.abs(M - M_ref)) <= 1e-13 * np.max(np.abs(M_ref))


@pytest.mark.parametrize("preset, level", [("disk", 4), ("ellipse", 3)], ids=builder_id)
def test_gradient_of_an_affine_field_is_its_slope(preset, level):
    m = build_mesh(preset, level)
    rng = np.random.default_rng(level)
    for scale in (1e-3, 1.0, 1e4):
        a1, a2, b = scale * rng.standard_normal(3)
        gx, gy = (g @ (a1 * m.vertices[:, 0] + a2 * m.vertices[:, 1] + b) for g in fem.p1(m).gradient)
        assert gx.shape == gy.shape == (m.triangles.shape[0],)
        tol = 1e-12 * (abs(a1) + abs(a2) + abs(b))
        assert np.max(np.abs(gx - a1)) <= tol and np.max(np.abs(gy - a2)) <= tol


def test_record_is_shared_and_built_on_demand():
    m = build_mesh("disk", 3)  # fresh: nothing has touched its record yet
    rec = fem.p1(m)
    assert fem.p1(m) is rec
    gagliardo(boundary_field(m, np.cos(m.boundary_params)), tau=0.5, k=2.0)
    assert {"boundary", "edge_ends"} <= vars(rec).keys()
    interior = {"interior", "interior_interp", "interior_integral", "gradient", "ordering", "mass",
                "boundary_mass", "vertex_boundary_mass"}
    assert not interior & vars(rec).keys()
    assert rec._operator is None
    # the Gagliardo weights are built per call and not kept
    assert vars(rec).keys() == {"_mesh", "_spec", "_operator", "boundary", "edge_ends"}


# the formulas the quadrature maps replaced, kept as oracles: a gather and matmul
# for both interpolations, a scatter-add over the triangles for the basis integrals
_TRI_BASIS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_GAUSS_S = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_EDGE_BASIS = np.stack([1.0 - _GAUSS_S, _GAUSS_S], axis=1)


def _interp_by_gather(y):
    return (y.values[y.mesh.triangles] @ _TRI_BASIS.T).reshape(-1)


def _integrate_by_scatter(mesh, g):
    _, qw = fem.p1(mesh).interior
    contrib = (qw.reshape(-1, 3) * g)[:, :, None] * _TRI_BASIS
    rows = np.broadcast_to(mesh.triangles[:, None, :], contrib.shape)
    return np.bincount(rows.reshape(-1), weights=contrib.reshape(-1), minlength=mesh.n_vertices)


def _at_boundary_by_roll(v):
    return (np.stack([v.values, np.roll(v.values, -1)], axis=1) @ _EDGE_BASIS.T).reshape(-1)


@pytest.mark.parametrize("preset, level", [("disk", 3), ("disk", 5), ("ellipse", 4)], ids=builder_id)
def test_quadrature_maps_equal_the_gather_and_scatter_formulas(preset, level):
    m = build_mesh(preset, level)
    rec = fem.p1(m)
    rng = np.random.default_rng(level)
    tris = m.triangles.shape[0]
    for scale in (1e-3, 1.0, 1e5):
        y = domain_field(m, scale * rng.standard_normal(m.n_vertices))
        v = boundary_field(m, scale * rng.standard_normal(m.n_boundary))
        g = scale * rng.standard_normal((tris, 3))
        assert np.array_equal(rec.at_interior(y.values), _interp_by_gather(y))
        assert np.array_equal(rec.interior_integral @ g.reshape(-1), _integrate_by_scatter(m, g))
        assert np.array_equal(rec.at_boundary(v.values), _at_boundary_by_roll(v))
    # a broadcast constant, as a spatially constant nonlinearity gives it
    const = np.broadcast_to(2.5, (tris, 3))
    assert np.array_equal(rec.interior_integral @ const.reshape(-1), _integrate_by_scatter(m, const))


@pytest.mark.parametrize("preset", sorted(PRESETS), ids=builder_id)
def test_basis_integrals_of_one_sum_to_the_area(preset):
    m = build_mesh(preset, 4)
    p = m.vertices[m.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * np.sum(np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]))
    loads = fem.p1(m).interior_integral @ np.ones(3 * m.triangles.shape[0])
    assert loads.shape == (m.n_vertices,) and np.all(loads > 0.0)
    assert abs(np.sum(loads) - area) <= 1e-13 * area


def test_operator_sum_stays_canonical(disk, identity_spec):
    m = disk(3)
    rec = fem.p1(m)
    a = rec.operator(identity_spec)
    b = rec.reaction(np.linspace(0.0, 1.0, m.n_vertices), np.ones(m.n_boundary))
    total = a + b
    assert total.has_canonical_format
    # and checked here by hand: sorted, unique columns in every row
    assert all(np.all(np.diff(total.indices[lo:hi]) > 0) for lo, hi in zip(total.indptr[:-1], total.indptr[1:]))
    assert np.array_equal(total.toarray(), a.toarray() + b.toarray())


def test_record_dies_with_its_mesh():
    # the record holds its mesh weakly: no cycle, so no collector is needed
    m = build_mesh("disk", 3)
    rec = fem.p1(m)
    rec.mass  # interior parts as well as the boundary ones
    gagliardo(boundary_field(m, np.cos(m.boundary_params)), tau=0.5, k=2.0)
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
    base = rec.operator(identity_spec).toarray()
    assert rec.operator(identity_spec) is rec.operator(identity_spec)
    # a0 enters only through the reaction term: the two operators differ by 2 M
    diff = rec.operator(shifted).toarray() - base
    assert np.max(np.abs(diff - 2.0 * rec.mass.toarray())) < 1e-14
    assert np.array_equal(rec.operator(identity_spec).toarray(), base)


def test_operator_includes_reaction(disk, identity_spec, stiffness_spec):
    m = disk(1)
    full = assemble_operator(m, identity_spec).toarray()
    stiff = assemble_operator(m, stiffness_spec).toarray()
    mass = fem.p1(m).mass.toarray()
    assert np.max(np.abs(full - stiff - mass)) < 1e-14


def test_stiffness_annihilates_constants(disk, stiffness_spec):
    m = disk(2)
    K = assemble_operator(m, stiffness_spec)
    r = K @ np.ones(m.n_vertices)
    assert np.max(np.abs(r)) < 1e-13


def test_mass_totals(disk):
    m = disk(3)
    ones = np.ones(m.n_vertices)
    M = fem.p1(m).mass
    assert float(ones @ (M @ ones)) == pytest.approx(m.triangle_areas().sum(), rel=1e-13)
    nb = m.boundary_loop.shape[0]
    Mb = fem.p1(m).boundary_mass
    total = float(np.ones(nb) @ (Mb @ np.ones(nb)))
    assert total == pytest.approx(m.boundary_edge_lengths.sum(), rel=1e-13)


def test_ellipticity_guard(disk):
    import mixedreg.catalog as catalog

    bad = catalog.ProblemSpec(
        preset="disk", p=2.0, q=2.0, lambda1=1.0, lambda2=1.0, mu1=1.0, mu2=1.0,
        a11="-1", a12="0", a22="1", a0="1", f="y", L="y^2", ell="y^2",
        g1="y", g2="y", zeta1=("t", 1.0), zeta2=("t", 1.0),
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


@pytest.mark.parametrize("field", [domain_field, boundary_field])
def test_nodal_constant_expression_fills_every_node(disk, field):
    m = disk(2)
    f = field(m, 1.5)
    vals = fem.nodal(parse_expr("2.5"), f)
    assert vals.shape == f.values.shape and vals.dtype == float
    assert np.all(vals == 2.5)
    vals[0] = 0.0  # a new, writable array
    assert f.values[0] == 1.5


def test_lp_norm_constant_and_zero(disk):
    m = disk(3)
    c = domain_field(m, -2.0)
    assert lp_norm(c, 2.0) == pytest.approx(2.0 * np.sqrt(m.triangle_areas().sum()), rel=1e-13)
    assert lp_norm(domain_field(m, 0.0), 3.0) == 0.0
    b = boundary_field(m, 3.0)
    assert lp_norm(b, 2.0) == pytest.approx(3.0 * np.sqrt(m.boundary_edge_lengths.sum()), rel=1e-13)


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


def factorable(mesh, matrix):
    """``matrix`` as the operator ``solve_linear`` factorises, in the mesh ordering."""
    return fem.SparseOperator(matrix, fem.p1(mesh).ordering)


def test_solve_linear_identityish(disk, identity_spec):
    m = disk(2)
    op = factorable(m, assemble_operator(m, identity_spec))
    target = np.ones(m.n_vertices)
    rhs = op.matrix @ target
    x = solve_linear(op, rhs)
    assert np.max(np.abs(x - target)) < 1e-10
    assert np.all(solve_linear(op, np.zeros(m.n_vertices)) == 0.0)


def test_operator_is_factorised_once(disk, identity_spec, factorisations):
    m = disk(2)
    op = factorable(m, assemble_operator(m, identity_spec))
    rng = np.random.default_rng(3)
    for rhs in (rng.standard_normal(m.n_vertices), rng.standard_normal((m.n_vertices, 2))):
        x = solve_linear(op, rhs)
        assert np.max(np.abs(op.matrix @ x - rhs)) < 1e-10
    assert len(factorisations) == 1
    # an equal matrix in another operator has its own factorisation
    solve_linear(fem.SparseOperator(op.matrix.copy(), op.ordering), np.ones(m.n_vertices))
    assert len(factorisations) == 2


def test_stale_factorisation_fails_the_residual_check(disk, identity_spec):
    m = disk(2)
    op = factorable(m, assemble_operator(m, identity_spec))
    solve_linear(op, np.ones(m.n_vertices))
    op.matrix = 2.0 * op.matrix
    with pytest.raises(LinearSolveError) as err:
        solve_linear(op, np.ones(m.n_vertices))
    assert err.value.residual > fem.SOLVE_RTOL


def test_residual_check_holds_at_any_scale_of_the_load():
    # each column is measured against its largest entry, so a load whose 2-norm overflows is
    # held to the same relative residual as the load itself, and one whose 2-norm underflows
    # is solved, not taken for a zero column
    m = build_mesh("disk", 3)
    rec = fem.p1(m)
    op = fem.SparseOperator(rec.mass.copy(), rec.ordering)
    rhs = rec.mass @ np.ones(m.n_vertices)
    assert np.linalg.norm(1e-170 * rhs) == 0.0
    assert np.max(np.abs(1e170 * solve_linear(op, 1e-170 * rhs) - 1.0)) < 1e-12
    op.matrix.data *= 1.0 + 1e-8
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(1e160 * rhs))
    residuals = []
    for load in (rhs, 1e160 * rhs, np.column_stack([1e160 * rhs, rhs])):
        with pytest.raises(LinearSolveError) as err:
            solve_linear(op, load)
        residuals.append(err.value.residual)
    assert residuals == pytest.approx([1e-8] * 3, rel=1e-3)


def test_residual_check_refuses_a_nan_load(disk):
    # a column holding a NaN has a NaN largest entry: it is checked, and its NaN residual fails
    m = disk(2)
    op = factorable(m, fem.p1(m).mass)
    rhs = np.ones(m.n_vertices)
    rhs[5] = np.nan
    for load in (rhs, np.column_stack([np.ones(m.n_vertices), rhs])):
        with pytest.raises(LinearSolveError) as err:
            solve_linear(op, load)
        assert np.isnan(err.value.residual)


def test_solve_linear_rejects_singular_operator(disk, stiffness_spec):
    m = disk(1)
    # pure Neumann stiffness: constants span the kernel, and ones is not in the range
    neumann = factorable(m, assemble_operator(m, stiffness_spec))
    with pytest.raises(LinearSolveError) as err:
        solve_linear(neumann, np.ones(m.n_vertices))
    assert "residual" in str(err.value)
    assert err.value.residual > fem.SOLVE_RTOL
    # an exactly singular matrix fails in the factorisation itself
    with pytest.raises(LinearSolveError) as err:
        solve_linear(fem.SparseOperator(0.0 * neumann.matrix, neumann.ordering), np.ones(m.n_vertices))
    assert "singular" in str(err.value)


def robinson_operator(mesh, spec):
    """A + C as in the surjectivity check: a nodal reaction coupling with
    varying coefficients makes M diag(c1) + T^T M_b diag(c2) T nonsymmetric."""
    rec = fem.p1(mesh)
    xy = mesh.vertices
    c1 = 1.0 + 0.5 * np.sin(3.0 * xy[:, 0]) * xy[:, 1]
    c2 = 2.0 + np.cos(mesh.boundary_params)
    return factorable(mesh, rec.operator(spec) + rec.reaction(c1, c2))


def test_reaction_coupling_matches_its_load(disk):
    m = disk(3)
    rec = fem.p1(m)
    rng = np.random.default_rng(3)
    c1, c2 = rng.standard_normal(m.n_vertices), rng.standard_normal(m.n_boundary)
    w = rng.standard_normal(m.n_vertices)
    T = sp.csr_matrix(oracles.trace_matrix(m))
    C = rec.reaction(c1, c2)
    coupling = rec.mass @ sp.diags(c1) + T.T @ (rec.boundary_mass @ sp.diags(c2)) @ T
    assert abs(C - coupling).max() == 0.0
    expected = rec.load(c1 * w, c2 * w[m.boundary_loop])
    assert np.max(np.abs(C @ w - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("level", [2, 4, 5])
def test_reaction_with_zero_coefficients_stores_no_zeros(disk, level):
    # CSR + CSR drops the exact zeros that zero coefficients leave in either coupling
    m = disk(level)
    rec = fem.p1(m)
    rng = np.random.default_rng(level)
    c1 = np.where(rng.random(m.n_vertices) < 0.5, 0.0, rng.standard_normal(m.n_vertices))
    c2 = np.where(rng.random(m.n_boundary) < 0.5, 0.0, rng.standard_normal(m.n_boundary))
    C = rec.reaction(c1, c2)
    assert C.nnz > 0 and np.all(C.data != 0.0)
    T = sp.csr_matrix(oracles.trace_matrix(m))
    coupling = (rec.mass @ sp.diags(c1) + T.T @ (rec.boundary_mass @ sp.diags(c2)) @ T).tocsr()
    coupling.eliminate_zeros()
    coupling.sort_indices()
    assert np.array_equal(C.indptr, coupling.indptr) and np.array_equal(C.indices, coupling.indices)
    assert rec.reaction(np.zeros(m.n_vertices), np.zeros(m.n_boundary)).nnz == 0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 50),
    stair_rows=st.sampled_from([1, 2, 7, fem._STAIR_ROWS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_blocks_cover_each_pair_of_the_rows_once(n, stair_rows, seed):
    points = np.random.default_rng(seed).standard_normal((n, 2))
    visited, first = [], []

    def visit(block, d2, tables):
        visited.append(block.start)
        assert d2.shape == (block.stop - block.start, n - block.start)
        rows, cols = np.nonzero(np.triu(np.ones(d2.shape, dtype=bool), k=1))
        i, j = rows + block.start, cols + block.start
        np.testing.assert_allclose(d2[rows, cols], np.sum((points[i] - points[j]) ** 2, axis=1), rtol=1e-15)
        # one contiguous table of d2's shape per dtype of the work
        assert [(t.dtype, t.shape, t.flags.c_contiguous) for t in tables] == [
            (np.dtype(float), d2.shape, True), (np.dtype(bool), d2.shape, True)
        ]
        # every block is a view of the walk's tables, which the visit may overwrite
        if not first:
            first.extend([d2, *tables])
        assert all(np.shares_memory(table, now) for table, now in zip(first, [d2, *tables]))
        d2[...] = np.nan
        return block, list(zip(i.tolist(), j.tolist()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fem, "_STAIR_ROWS", stair_rows)
        results = fem.pair_blocks(points, visit, (float, bool))
    starts = list(range(0, n, stair_rows))
    # each block visited once, in order, the results in block order: consecutive blocks of at
    # most stair_rows rows, each against the points from its first row on
    assert visited == starts
    assert [block.start for block, _ in results] == starts
    assert [block.stop for block, _ in results] == starts[1:] + [n]
    assert all(0 < block.stop - block.start <= stair_rows for block, _ in results)
    # every unordered pair exactly once
    pairs = [pair for _, block_pairs in results for pair in block_pairs]
    assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]


@settings(max_examples=12, deadline=None)
@given(
    stair_rows=st.sampled_from([1, 2, 7, fem._STAIR_ROWS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_work_does_not_depend_on_the_block_height(stair_rows, seed):
    m = build_mesh("disk", 3)
    rng = np.random.default_rng(seed)
    h = m.mesh_size()
    exponents = [(1.0, 0.0), (0.5, h), (0.9, h)]
    quotients = {
        "domain": [domain_field(m, rng.standard_normal(m.n_vertices)) for _ in range(2)],
        "boundary": [boundary_field(m, rng.standard_normal(m.n_boundary)) for _ in range(2)],
    }
    seminorms = [boundary_field(m, rng.standard_normal(m.n_boundary)) for _ in range(2)]

    def pair_work():
        out = [_pair_quotients(fs, exponents) for fs in quotients.values()]
        return out + [[r.seminorm_I for r in gagliardo(*seminorms, tau=0.5, k=k)] for k in (1.0, 2.0, 3.0)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fem, "_STAIR_ROWS", stair_rows)
        walked = pair_work()
    # at any block height the maxima of the default height, bit for bit, and its sums to round-off
    default = pair_work()
    assert walked[:2] == default[:2]
    np.testing.assert_allclose(walked[2:], default[2:], rtol=1e-13)


# finite values from 1e-300 to 1e300 in magnitude, with subnormals and both zeros, and both infinities
WIDE_FLOATS = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, -1e300, np.inf, -np.inf]),
)
# one table for every example, as the walk reuses its tables for every block
DIFFERENCE_TABLE = np.empty(8 * 40)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), fields=st.integers(0, 3), n=st.integers(1, 40))
def test_difference_factors_write_the_pair_differences(data, fields, n):
    # fields = 0 is one coordinate (n,), otherwise a block of fields (F, n)
    shape = (fields, n) if fields else (n,)
    values = np.array(data.draw(st.lists(WIDE_FLOATS, min_size=n * max(fields, 1), max_size=n * max(fields, 1))))
    values = values.reshape(shape)
    r0 = data.draw(st.integers(0, n - 1))
    rows = slice(r0, data.draw(st.integers(r0 + 1, min(n, r0 + 8))))
    left, right = fem.difference_factors(values)
    table = DIFFERENCE_TABLE[: (rows.stop - r0) * (n - r0)].reshape(rows.stop - r0, n - r0)
    for f, v in enumerate(values.reshape(-1, n)):
        factors = (left[f], right[f]) if fields else (left, right)
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(factors[0][rows], factors[1][:, r0:], out=table)
            want = np.subtract.outer(v[rows], v[r0:])
        # equal by value (a zero difference may change its sign), NaN where inf - inf is
        assert np.array_equal(table, want, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(
    base=st.lists(
        st.one_of(st.floats(0.0, allow_infinity=True), st.sampled_from([0.0, 5e-324, 1e-310, np.inf])), min_size=1,
        max_size=50,
    ),
    exponent=st.sampled_from([-1.0, 0.5, -0.75]),
    in_place=st.booleans(),
)
def test_power_is_np_power_bit_for_bit(base, exponent, in_place):
    base = np.array(base)
    with np.errstate(divide="ignore", over="ignore"):
        want = np.power(base, exponent)
        got = fem.power(base, exponent, out=base if in_place else np.empty_like(base))
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_pair_blocks_over_the_gauss_points_hold_about_half_the_pairs():
    # the Gagliardo far field walks the 2 nb boundary Gauss points: at level 6 (1024 points)
    # the staircase's blocks hold at most 0.55 of the ordered pairs
    m = boundary_fan("disk", 6)
    qpts, _ = fem.p1(m).boundary
    npts = qpts.shape[0]
    assert npts == 1024
    assert sum(fem.pair_blocks(qpts, lambda block, d2, tables: d2.size)) <= 0.55 * npts**2


def test_solve_linear_nonsymmetric_robinson_operator(disk, identity_spec):
    m = disk(3)
    rec = fem.p1(m)
    op = robinson_operator(m, identity_spec)
    assert abs(op.matrix - op.matrix.T).max() > 1e-6
    rng = np.random.default_rng(11)
    rhs = rec.load(rng.standard_normal(m.n_vertices), rng.standard_normal(m.n_boundary))
    x = solve_linear(op, rhs)
    assert np.linalg.norm(rhs - op.matrix @ x) <= fem.SOLVE_RTOL * np.linalg.norm(rhs)


@settings(max_examples=25, deadline=None)
@given(
    level=st.sampled_from([2, 3]),
    k=st.integers(1, 6),
    zero=st.one_of(st.none(), st.integers(0, 5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_linear_block_equals_single_solves(disk, identity_spec, level, k, zero, seed):
    m = disk(level)
    op = robinson_operator(m, identity_spec)
    rhs = np.random.default_rng(seed).standard_normal((m.n_vertices, k))
    if zero is not None and zero < k:
        rhs[:, zero] = 0.0
    x = solve_linear(op, rhs)
    assert x.shape == rhs.shape
    for j in range(k):
        single = solve_linear(op, rhs[:, j])
        assert np.linalg.norm(x[:, j] - single) <= 1e-12 * np.linalg.norm(single)
    if zero is not None and zero < k:
        assert np.all(x[:, zero] == 0.0)


def test_solve_linear_block_reports_worst_column(disk, stiffness_spec):
    # pure Neumann stiffness: a column in the range solves, ones does not
    m = disk(1)
    neumann = factorable(m, assemble_operator(m, stiffness_spec))
    ones = np.ones(m.n_vertices)
    in_range = neumann.matrix @ np.random.default_rng(2).standard_normal(m.n_vertices)
    with pytest.raises(LinearSolveError) as err:
        solve_linear(neumann, np.column_stack([in_range, np.zeros_like(ones), ones]))
    with pytest.raises(LinearSolveError) as single:
        solve_linear(neumann, ones)
    assert err.value.residual == pytest.approx(single.value.residual, rel=1e-6)
    assert np.all(solve_linear(neumann, np.zeros((m.n_vertices, 3))) == 0.0)


def lu_fill(op, rhs):
    """Nonzeros of L + U in the factorisation ``solve_linear`` keeps on op."""
    solve_linear(op, rhs)
    return op._lu.L.nnz + op._lu.U.nnz


@settings(max_examples=20, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)), level=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_mesh_ordering_is_a_deterministic_permutation(identity_spec, preset, level, seed):
    m = build_mesh(preset, level)
    p = fem.p1(m).ordering
    assert p.dtype.kind == "i" and np.array_equal(np.sort(p), np.arange(m.n_vertices))
    # C10: a second build of the same mesh orders it the same way
    assert np.array_equal(fem.p1(build_mesh(preset, level)).ordering, p)
    # an operator built on the record carries it, and the solve agrees with SuperLU's COLAMD order
    op = robinson_operator(m, identity_spec)
    assert op.ordering is p
    rhs = np.random.default_rng(seed).standard_normal(m.n_vertices)
    x, colamd = solve_linear(op, rhs), spla.splu(op.matrix.tocsc()).solve(rhs)
    assert np.linalg.norm(x - colamd) <= 1e-12 * np.linalg.norm(colamd)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_mesh_ordering_fills_less_than_colamd(identity_spec, factorisations, preset):
    m = build_mesh(preset, 4)
    op = factorable(m, fem.p1(m).operator(identity_spec))
    rhs = np.ones(m.n_vertices)
    fill = lu_fill(op, rhs)
    colamd = spla.splu(op.matrix.tocsc())  # SuperLU's own COLAMD column order, the reference
    assert fill < colamd.L.nnz + colamd.U.nnz
    assert [permc for _, permc in factorisations] == ["NATURAL", "COLAMD"]


def test_block_operator_interleaves_the_blocks_per_node(disk, identity_spec):
    m = disk(2)
    rec = fem.p1(m)
    a = rec.operator(identity_spec)
    block = fem.block_operator([[a, rec.mass], [rec.mass, a]], rec.ordering)
    p, n = rec.ordering, m.n_vertices
    assert np.array_equal(block.ordering, np.stack([p, p + n], axis=1).ravel())


def test_every_operator_carries_an_ordering(disk):
    # an operator has no factorisation without an elimination order, so it cannot be built
    # without one, nor from anything but a square CSR matrix; a matrix that is only ever
    # multiplied, such as the boundary mass, stays a plain CSR matrix
    rec = fem.p1(disk(2))
    with pytest.raises(TypeError):
        fem.SparseOperator(rec.mass)
    with pytest.raises(AssemblyError, match="square CSR"):
        fem.SparseOperator(rec.mass.tocsc(), rec.ordering)
    assert sp.isspmatrix_csr(rec.boundary_mass) and rec.boundary_mass.has_canonical_format


def test_solve_state_level_seven_quadratic_tracking(configs, disk):
    # at level 7 the linearized matrix once pushed Jacobi-PCG's true residual
    # (1.7e-11) past the acceptance bound, and solve-state exited 3
    spec = configs["quadratic_tracking"]
    m = disk(7)
    u = domain_field(m, 1.0)
    v = boundary_field(m, m.vertices[m.boundary_loop, 0])
    # solve_state returns only once Newton has converged
    report = solvers.solve_state(spec, u, v)
    assert report.newton_iterations >= 1


def test_prolong_constant_exact(disk):
    fine = disk(3)
    p = prolong(domain_field(fine.coarser, 7.5), fine)
    assert np.all(p.values == 7.5)


def test_prolong_linear_interior_exact_boundary_second_order(disk):
    fine = disk(4)
    coarse = fine.coarser
    lin = domain_field(coarse, coarse.vertices[:, 0] + 2.0 * coarse.vertices[:, 1])
    p = prolong(lin, fine)
    exact = fine.vertices[:, 0] + 2.0 * fine.vertices[:, 1]
    err = np.abs(p.values - exact)
    interior = np.setdiff1d(np.arange(fine.n_vertices), fine.boundary_loop)
    assert err[interior].max() < 1e-14
    # new boundary vertices sit on the arc, the parent average on the chord
    assert err.max() < 4e-3
    finer = disk(5)
    again = prolong(domain_field(finer.coarser, finer.coarser.vertices[:, 0]), finer)
    assert np.abs(again.values - finer.vertices[:, 0]).max() < err.max() / 3.0


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(PRESETS)),
    st.integers(0, 4),
    st.tuples(*[st.floats(-10.0, 10.0)] * 3),
)
def test_prolong_exact_on_affine_fields(preset, level, abc):
    # exact wherever the fine vertex is its parents' midpoint: everywhere but
    # the new boundary vertices, which the presets put on the curve
    a, b, c = abc
    fine = build_mesh(preset, level + 1)
    coarse = fine.coarser
    affine = lambda m: a + b * m.vertices[:, 0] + c * m.vertices[:, 1]
    p = prolong(domain_field(coarse, affine(coarse)), fine)
    loop = fine.boundary_loop
    new_boundary = loop[loop >= coarse.n_vertices]
    on_chord = np.setdiff1d(np.arange(fine.n_vertices), new_boundary)
    tol = 1e-14 * (1.0 + abs(a) + abs(b) + abs(c)) * 4.0
    assert np.max(np.abs(p.values - affine(fine))[on_chord]) <= tol


def test_prolong_boundary_field(disk):
    fine = disk(3)
    coarse = fine.coarser
    v = boundary_field(coarse, np.sin(coarse.boundary_params))
    p = prolong(v, fine)
    assert p.role == "boundary"
    assert p.values.shape[0] == fine.boundary_loop.shape[0]
    # coarse nodes are preserved exactly
    assert np.max(np.abs(p.values[::2] - v.values)) < 1e-15


def _parent_means(f, fine):
    """One level of prolongation as a parent table: each fine vertex the mean of its two parents, a kept one of itself twice."""
    coarse = f.mesh
    kept = np.arange(coarse.n_vertices)
    parents = np.vstack([np.stack([kept, kept], axis=1), coarse.edges])
    full = f.values
    if f.role == "boundary":
        full = np.full(coarse.n_vertices, np.nan)
        full[coarse.boundary_loop] = f.values
        parents = parents[fine.boundary_loop]
    return 0.5 * (full[parents[:, 0]] + full[parents[:, 1]])


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_prolong_over_levels_is_the_one_level_prolongs_in_turn(preset):
    fine = build_mesh(preset, 5)
    middle, coarse = fine.coarser, fine.coarser.coarser
    rng = np.random.default_rng(3)
    for f in (domain_field(coarse, rng.standard_normal(coarse.n_vertices)),
              boundary_field(coarse, rng.standard_normal(coarse.n_boundary))):
        direct = prolong(f, fine)
        assert direct.mesh is fine and direct.role == f.role
        assert np.array_equal(prolong(f, middle).values, _parent_means(f, middle))
        assert np.array_equal(direct.values, prolong(prolong(f, middle), fine).values)
        # a field already on the target comes back unchanged
        assert np.array_equal(prolong(direct, fine).values, direct.values)


def test_prolong_rejects_wrong_mesh(disk):
    with pytest.raises(FieldError):
        prolong(domain_field(disk(2), 1.0), disk(4))
    # fields on meshes the target was not refined from, of its coarser mesh's vertex count or more
    target = refine(build_mesh("disk", 4))
    for source in (build_mesh("ellipse", 4), build_mesh("disk", 5)):
        for f in (domain_field(source, 1.0), boundary_field(source, 1.0)):
            with pytest.raises(FieldError, match="no refinement parentage from the field's mesh"):
                prolong(f, target)


def test_field_validation(disk):
    m = disk(1)
    with pytest.raises(FieldError):
        domain_field(m, np.ones(3))
    with pytest.raises(FieldError):
        domain_field(m, np.full(m.n_vertices, np.nan))
    with pytest.raises(FieldError):
        trace(boundary_field(m, 0.0))


def test_meshfield_text_matches_the_per_row_format(tmp_path, disk):
    # one format call over the whole table writes what formatting each row on its own wrote
    m = disk(4)
    rng = np.random.default_rng(13)
    values = rng.choice([-1.0, 1.0], m.n_vertices) * 10.0 ** rng.uniform(-300.0, 300.0, m.n_vertices)
    values[:6] = [0.0, -0.0, 5e-324, -5e-324, np.pi, 1e300]
    path = tmp_path / "field.mf"
    write_meshfield(domain_field(m, values), str(path))
    rows = "".join(f"{x:.17g} {y:.17g} {v:.17g}\n" for (x, y), v in zip(m.vertices, values))
    assert path.read_text() == f"MESHFIELD v1\n{m.n_vertices}\n{rows}"


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

    # the exact text, for a domain and a boundary field of a hand-built square
    square = mesh_from_arrays(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    )
    for field, text in (
        (
            domain_field(square, np.arange(5) / 3.0),
            "MESHFIELD v1\n5\n0 0 0\n1 0 0.33333333333333331\n1 1 0.66666666666666663\n"
            "0 1 1\n0.5 0.5 1.3333333333333333\n",
        ),
        (
            boundary_field(square, [0.1 + 0.2, -0.0, 1e-300, -2.5e16]),
            "MESHFIELD v1\n4\n0 0 0.30000000000000004\n1 0 -0\n1 1 1e-300\n0 1 -25000000000000000\n",
        ),
    ):
        write_meshfield(field, str(path))
        assert path.read_text() == text
        coords, values = read_meshfield(str(path))
        assert np.array_equal(coords, field.coords()) and np.array_equal(values, field.values)
