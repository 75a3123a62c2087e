"""P1 finite elements on triangulated domains with natural boundary data.

Interior integrals use the three-edge-midpoint rule (degree 2), boundary
integrals two-point Gauss per edge (degree 3).  Quadrature arrays are
flat: point 3 t + q is the midpoint of edge q of triangle t, point 2 e + g
Gauss point g of boundary edge e.  Composed nonlinear integrands are
always evaluated at quadrature points from interpolated nodal values;
nothing is mass-lumped.  Assembly is vectorized and deterministic.

The :class:`P1` record of a mesh (``p1(mesh)``) is the single owner of
everything assembled once per mesh: both quadratures, the mass matrices
M and M_b (and M_b on the vertex numbering), the elliptic operator of the
last problem spec, and the sparse maps that own every interior
integral: Q (3T, n) interpolates nodal values to the interior points,
W = Q^T diag(qw) (n, 3T) integrates values there against the basis, and
Gx, Gy (T, n) give the gradient on each triangle.  A load is W g, a
weighted mass W diag(w) Q, and the elliptic operator Gx^T (D11 Gx +
D12 Gy) + Gy^T (D12 Gx + D22 Gy) plus the a0-weighted mass, so every
Newton Jacobian uses exactly the quadrature of the residual it
differentiates.  Load vectors are always M f + T^T (M_b g), T the trace.

The record holds only a weak reference to its mesh, so a dropped mesh
frees its record at once.  All pair work (``fracnorm``'s far-field
weights over Gauss points, ``regularity``'s quotients over nodes) walks
the row blocks of ``pair_blocks`` over the upper triangle j > i, each
unordered pair once.

Sparse matrices are built only here.  Every linear system goes through
``solve_linear``: a sparse LU factorisation for a vector or a block of
columns, accepted only when every column's relative residual is within
``SOLVE_RTOL``.  The factorisation belongs to its :class:`SparseOperator`:
the first solve builds it, later solves with the same operator reuse it,
and it is freed with the operator; no other cache holds it.  Every
operator the record builds carries the record's ``ordering``, a nested
dissection of the mesh (A. George, SIAM J. Numer. Anal. 10, 1973), and is
factorised in that order with no column reordering of SuperLU's own; an
operator without one, such as the boundary mass, keeps SuperLU's COLAMD.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import Mesh

if TYPE_CHECKING:
    from .catalog import ProblemSpec

__all__ = [
    "FEField",
    "P1",
    "SparseOperator",
    "FieldError",
    "AssemblyError",
    "LinearSolveError",
    "domain_field",
    "boundary_field",
    "trace",
    "nodal",
    "p1",
    "pair_blocks",
    "lp_norm",
    "integrate_basis",
    "assemble_operator",
    "assemble_weighted_mass",
    "block_operator",
    "solve_linear",
    "prolong",
    "write_meshfield",
    "read_meshfield",
]

# relative residual a linear solve must reach to be accepted
SOLVE_RTOL = 1e-11
# rows per block of the pair staircase (``pair_blocks``): a far-field pass over the 2 nb
# Gauss points holds one block of at most _STAIR_ROWS x 2 nb weights at a time (2 MB at
# nb = 2048), and its blocks cover 1/2 + _STAIR_ROWS / (4 nb) of the ordered pairs
_STAIR_ROWS = 64
# largest part of the mesh that the nested dissection (``P1.ordering``) leaves unsplit
_DISSECTION_LEAF = 64

# P1 basis values at the three edge-midpoint quadrature nodes
_TRI_BASIS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
# and at the two Gauss nodes of a boundary edge
_GAUSS_S = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_EDGE_BASIS = np.stack([1.0 - _GAUSS_S, _GAUSS_S], axis=1)


class FieldError(ValueError):
    """Invalid finite element field construction or role mismatch."""


class AssemblyError(ValueError):
    """Coefficient data failed a pointwise admissibility check."""


class LinearSolveError(RuntimeError):
    """A linear system was singular or its solution missed the residual bound."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class FEField:
    """Nodal values over a mesh, either per vertex or per boundary vertex.

    Boundary fields are indexed in boundary-loop order.  Values must be
    finite; fields are treated as immutable value objects.
    """

    mesh: Mesh
    role: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.role not in ("domain", "boundary"):
            raise FieldError(f"role must be 'domain' or 'boundary', got {self.role!r}")
        self.values = np.asarray(self.values, dtype=float)
        expected = self.mesh.n_vertices if self.role == "domain" else self.mesh.n_boundary
        if self.values.shape != (expected,):
            raise FieldError(
                f"{self.role} field needs {expected} values, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise FieldError("field values must be finite")

    def coords(self) -> np.ndarray:
        if self.role == "domain":
            return self.mesh.vertices
        return self.mesh.vertices[self.mesh.boundary_loop]


def domain_field(mesh: Mesh, values) -> FEField:
    if np.isscalar(values):
        values = np.full(mesh.n_vertices, float(values))
    return FEField(mesh, "domain", values)


def boundary_field(mesh: Mesh, values) -> FEField:
    if np.isscalar(values):
        values = np.full(mesh.n_boundary, float(values))
    return FEField(mesh, "boundary", values)


def trace(field: FEField) -> FEField:
    """Restrict a domain field to the boundary loop."""
    if field.role != "domain":
        raise FieldError("trace expects a domain field")
    return FEField(field.mesh, "boundary", field.values[field.mesh.boundary_loop])


def nodal(fn, field: FEField) -> np.ndarray:
    """fn(x1, x2, value) at the nodes of ``field``: a new float array, one value per node."""
    xy = field.coords()
    vals = np.asarray(fn(xy[:, 0], xy[:, 1], field.values), dtype=float)
    return np.broadcast_to(vals, field.values.shape).copy()


class P1:
    """P1 discretization of one mesh, shared by every solve on it.

    Each part is built on first use, so boundary-only work never touches
    the interior, not even its maps ``interior_interp`` (Q),
    ``interior_integral`` (W), ``gradient`` (Gx, Gy) and its transpose,
    nor the vertex ``ordering`` of the factorisations; the boundary's map
    is ``edge_ends``.  Nor does it build the interior mesh: the boundary
    commands work on ``geometry.boundary_fan``.  ``operator`` keeps the
    matrix of the last spec it was asked for and reassembles when a
    different spec object comes.  The mesh is held weakly: the mesh owns
    the record.
    """

    def __init__(self, mesh: Mesh):
        self._mesh = weakref.ref(mesh)
        self._spec = None
        self._operator = None

    @property
    def mesh(self) -> Mesh:
        return self._mesh()

    @cached_property
    def interior(self):
        """Interior quadrature: the edge midpoints 3 t + q, points (3T, 2) and weights (3T,)."""
        return self.interior_interp @ self.mesh.vertices, np.repeat(self.mesh.triangle_areas() / 3.0, 3)

    @cached_property
    def interior_interp(self) -> sp.csr_matrix:
        """Q (3T, n): nodal values to the interior quadrature point 3 t + q, two halves per row."""
        q, i = np.nonzero(_TRI_BASIS)
        cols = self.mesh.triangles[:, i].reshape(-1)
        return sp.csr_matrix((np.resize(_TRI_BASIS[q, i], cols.size), cols, np.arange(0, cols.size + 1, 2)),
                             shape=(cols.size // 2, self.mesh.n_vertices))

    @cached_property
    def interior_integral(self) -> sp.csr_matrix:
        """W = Q^T diag(qw) (n, 3T): values g at the interior quadrature points to (g, phi_i)."""
        # rows list their points in increasing order and the halves are exact, so W @ g
        # adds the same products in the same order as a scatter-add over the triangles
        weights = self.interior_interp.T.tocsr()
        weights.data *= self.interior[1][weights.indices]
        return weights

    @cached_property
    def gradient(self):
        """(Gx, Gy), two (T, n) CSR maps: nodal values to the constant gradient on each triangle."""
        tris = self.mesh.triangles
        p = self.mesh.vertices[tris]
        # grad phi_i = perpendicular of the edge opposite vertex i / (2 area)
        opposite = np.roll(p, 1, axis=1) - np.roll(p, -1, axis=1)
        scale = 2.0 * self.mesh.triangle_areas()[:, None]
        return tuple(sp.csr_matrix((part.reshape(-1), tris.reshape(-1), np.arange(0, tris.size + 1, 3)),
                                   shape=(tris.shape[0], self.mesh.n_vertices))
                     for part in (-opposite[..., 1] / scale, opposite[..., 0] / scale))

    @cached_property
    def gradient_transpose(self):
        """(Gx^T, Gy^T), two (n, T) CSR maps: per-triangle values against each basis gradient."""
        return tuple(g.T.tocsr() for g in self.gradient)

    @cached_property
    def ordering(self) -> np.ndarray:
        """The nested-dissection order of the vertices, in which every operator here is factorised."""
        return _nested_dissection(self.mesh.vertices, self.mesh.edges)

    @cached_property
    def boundary(self):
        """Boundary quadrature: two Gauss points per edge, points (2 nb, 2) and weights (2 nb,)."""
        mesh = self.mesh
        a = mesh.vertices[mesh.boundary_edges[:, 0]]
        b = mesh.vertices[mesh.boundary_edges[:, 1]]
        qpts = a[:, None, :] + _GAUSS_S[None, :, None] * (b - a)[:, None, :]
        return qpts.reshape(-1, 2), np.repeat(mesh.boundary_edge_lengths / 2.0, 2)

    @cached_property
    def edge_ends(self) -> np.ndarray:
        """Loop positions (e, e + 1 mod nb) of the endpoints of boundary edge e, shape (nb, 2)."""
        e = np.arange(self.mesh.n_boundary)
        return np.stack([e, np.roll(e, -1)], axis=1)

    @cached_property
    def mass(self) -> SparseOperator:
        """Interior mass matrix M."""
        return assemble_weighted_mass(self.mesh, 1.0)

    @cached_property
    def boundary_mass(self) -> SparseOperator:
        """Boundary mass matrix M_b in boundary-loop order, tridiagonal up to the loop wraparound."""
        nb = self.mesh.n_boundary
        local = np.einsum("eq,qi,qj->eij", self.boundary[1].reshape(nb, 2), _EDGE_BASIS, _EDGE_BASIS)
        rows = np.repeat(self.edge_ends, 2, axis=1).reshape(-1)
        cols = np.tile(self.edge_ends, (1, 2)).reshape(-1)
        return SparseOperator(sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(nb, nb)).tocsr())

    @cached_property
    def vertex_boundary_mass(self) -> sp.csr_matrix:
        """M_b placed on the vertex numbering (n, n): entry (loop[a], loop[b]) is M_b[a, b], no other."""
        mb, loop, n = self.boundary_mass.matrix, self.mesh.boundary_loop, self.mesh.n_vertices
        return sp.csr_matrix((mb.data, (np.repeat(loop, np.diff(mb.indptr)), loop[mb.indices])), shape=(n, n))

    def operator(self, spec: ProblemSpec) -> SparseOperator:
        """Galerkin matrix of the elliptic operator of ``spec``."""
        if self._spec is not spec:
            self._operator = assemble_operator(self.mesh, spec)
            self._spec = spec
        return self._operator

    def load(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """M f + T^T (M_b g) for nodal densities f in the domain and g on the boundary."""
        out = self.mass.matvec(f)  # the loop vertices are distinct: T^T is a scatter without rounding
        out[self.mesh.boundary_loop] += self.boundary_mass.matvec(g)
        return out

    def reaction(self, c1: np.ndarray, c2: np.ndarray) -> SparseOperator:
        """M diag(c1) + T^T M_b diag(c2) T, c1 per vertex, c2 per boundary vertex in loop order."""
        interior, boundary = self.mass.matrix.copy(), self.vertex_boundary_mass.copy()
        on_loop = np.zeros(self.mesh.n_vertices)
        on_loop[self.mesh.boundary_loop] = c2
        interior.data *= c1[interior.indices]
        boundary.data *= on_loop[boundary.indices]
        total = interior + boundary
        total.eliminate_zeros()  # as a sparse product would, drop the zeros of zero coefficients
        return SparseOperator(total, self.ordering)


def _nested_dissection(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """A nested-dissection ordering of the graph of ``edges`` over ``points`` (n, 2).

    Each part of more than ``_DISSECTION_LEAF`` vertices splits at the median
    of one coordinate, x and y alternating by depth; the vertices of the
    lower half with an edge into the upper half form its separator, and the
    halves recurse.  The order lists each part's halves before its
    separator.  All parts of one depth split at once, so the work is a few
    sorts and edge passes per depth.  Returns p: position i holds vertex p[i].
    """
    n = points.shape[0]
    part = np.ones(n, dtype=np.int64)  # heap numbering: part k splits into 2 k and 2 k + 1
    depth = np.zeros(n, dtype=np.int64)
    tail, head = edges.T
    split = np.arange(n)  # the vertices of the parts still to split, all of depth ``level``
    level = 0
    while split.size:
        split = split[np.lexsort((points[split, level % 2], part[split]))]
        starts = np.flatnonzero(np.diff(part[split], prepend=0))
        counts = np.diff(starts, append=split.size)
        size = np.repeat(counts, counts)
        upper = np.zeros(n, dtype=bool)
        upper[split] = np.arange(split.size) - np.repeat(starts, counts) >= size // 2
        deeper = np.zeros(n, dtype=bool)  # the halves of the parts that split
        deeper[split[size > _DISSECTION_LEAF]] = True
        cross = deeper[tail] & deeper[head] & (upper[tail] != upper[head])
        deeper[np.where(upper[tail[cross]], head[cross], tail[cross])] = False
        split = np.flatnonzero(deeper)
        part[split] = 2 * part[split] + upper[split]
        level += 1
        depth[split] = level
    # post-order of the part tree: a part of depth d covers the leaf slots
    # [k - 2^d, k - 2^d + 1) * 2^(D - d) of the full tree of depth D; it sorts
    # by the end of that range, and after the deeper parts that share the end
    deepest = int(depth.max())
    key = (part - (1 << depth) + 1) << (deepest - depth)
    key *= deepest + 1
    key += deepest - depth
    return np.argsort(key, kind="stable")


def pair_blocks(points: np.ndarray):
    """Yield (block, d2) per ``_STAIR_ROWS``-row block [r0, r1) of ``points``, d2 new: |x_i - x_j|^2.

    d2 pairs the block's rows i of ``points`` (n, 2) with the points j = r0 ... n - 1; its
    entries j > i hold each pair i < j once, and the caller masks j <= i.
    """
    n = points.shape[0]
    for r0 in range(0, n, _STAIR_ROWS):
        block = slice(r0, min(r0 + _STAIR_ROWS, n))
        d2 = np.subtract.outer(points[block, 0], points[r0:, 0])
        d2 *= d2
        dy = np.subtract.outer(points[block, 1], points[r0:, 1])
        dy *= dy
        d2 += dy
        yield block, d2


def p1(mesh: Mesh) -> P1:
    """The P1 record of ``mesh``, created on first use and kept on the mesh."""
    if mesh.discretization is None:
        mesh.discretization = P1(mesh)
    return mesh.discretization


def interp_interior(field: FEField) -> np.ndarray:
    """Field values at the interior quadrature points, shape (3T,)."""
    if field.role != "domain":
        raise FieldError("interior interpolation expects a domain field")
    return p1(field.mesh).interior_interp @ field.values


def interp_boundary(field: FEField) -> np.ndarray:
    """Boundary-field values at the edge Gauss points, shape (2 nb,)."""
    if field.role != "boundary":
        raise FieldError("boundary interpolation expects a boundary field")
    return (field.values[p1(field.mesh).edge_ends] @ _EDGE_BASIS.T).reshape(-1)


@dataclass
class SparseOperator:
    """Square CSR matrix in canonical form (sorted, deduplicated indices).

    The operator owns the sparse LU of its matrix: ``solve_linear``
    builds it on the first solve and reuses it on every later one, and it
    lives exactly as long as the operator.  ``ordering`` is the order in
    which that factorisation eliminates the unknowns: the mesh ordering
    (``P1.ordering``) on every operator a P1 record builds, kept by ``+``,
    or None, and then SuperLU orders the columns by COLAMD.  Treat
    ``matrix`` as immutable; a factor left stale by an edit fails the
    residual check of ``solve_linear`` rather than returning a wrong
    solution.
    """

    matrix: sp.csr_matrix
    ordering: np.ndarray | None = field(default=None, repr=False, compare=False)
    _lu: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = self.matrix if sp.isspmatrix_csr(self.matrix) else sp.csr_matrix(self.matrix)
        m.sum_duplicates()  # sorts too; a no-op on a matrix flagged canonical
        if m.shape[0] != m.shape[1]:
            raise AssemblyError(f"operator must be square, got {m.shape}")
        self.matrix = m

    @property
    def shape(self):
        return self.matrix.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        total = self.matrix + other.matrix
        total.has_canonical_format = True  # scipy's CSR + CSR of canonical operands is canonical
        return SparseOperator(total, self.ordering)


def assemble_operator(mesh: Mesh, spec: ProblemSpec) -> SparseOperator:
    """Galerkin matrix of the elliptic operator with natural boundary data.

    Coefficients are evaluated at the interior quadrature points; the
    coefficient matrix must be uniformly elliptic there (checked, raising
    :class:`AssemblyError` with the first offending location).  The matrix
    is Gx^T (D11 Gx + D12 Gy) + Gy^T (D12 Gx + D22 Gy) plus the
    a0-weighted mass, Dij the diagonal of the per-triangle sums of qw aij.
    """
    rec = p1(mesh)
    qpts, qw = rec.interior
    x1, x2 = qpts[:, 0], qpts[:, 1]

    a11 = spec.a11(x1, x2, 0.0)
    a12 = spec.a12(x1, x2, 0.0)
    a22 = spec.a22(x1, x2, 0.0)
    eig_min = np.broadcast_to(0.5 * (a11 + a22 - np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2)), qw.shape)
    if np.min(eig_min) <= 0.0:
        k = int(np.argmin(eig_min))
        raise AssemblyError(
            f"ellipticity violated at quadrature point "
            f"({qpts[k, 0]:.6g}, {qpts[k, 1]:.6g}): "
            f"min eigenvalue {eig_min[k]:.3e}"
        )
    d11, d12, d22 = (sp.diags(np.sum((qw * a).reshape(-1, 3), axis=1)) for a in (a11, a12, a22))
    gx, gy = rec.gradient
    gxt, gyt = rec.gradient_transpose
    stiffness = gxt @ (d11 @ gx + d12 @ gy) + gyt @ (d12 @ gx + d22 @ gy)
    return SparseOperator(stiffness, rec.ordering) + assemble_weighted_mass(mesh, spec.a0(x1, x2, 0.0))


def assemble_weighted_mass(mesh: Mesh, weight_at_quad) -> SparseOperator:
    """Mass matrix (w phi_j, phi_i) of a weight w at the interior quadrature points (3T,): W diag(w) Q."""
    rec = p1(mesh)
    weighted = rec.interior_interp.copy()
    weighted.data *= np.repeat(np.broadcast_to(weight_at_quad, rec.interior[1].shape), 2)
    return SparseOperator(rec.interior_integral @ weighted, rec.ordering)


def block_operator(rows) -> SparseOperator:
    """The block matrix of square operators given row by row, e.g. [[A, B], [C, D]].

    Its ordering takes the blocks' unknowns node by node in the first block's
    ordering p: unknown p[0] of every block, then p[1] of every block, and
    so on; with no first ordering, it has none.
    """
    p = rows[0][0].ordering
    interleaved = None if p is None else (p[:, None] + p.size * np.arange(len(rows))).ravel()
    return SparseOperator(sp.bmat([[op.matrix for op in row] for row in rows], format="csr"), interleaved)


def lp_norm(field: FEField, p: float) -> float:
    """Integral p-norm of a P1 field, |.|^p interpolated at quadrature points."""
    if p < 1.0:
        raise FieldError(f"p-norm requires p >= 1, got {p}")
    if field.role == "domain":
        vals = interp_interior(field)
        _, qw = p1(field.mesh).interior
    else:
        vals = interp_boundary(field)
        _, qw = p1(field.mesh).boundary
    return float(np.sum(qw * np.abs(vals) ** p) ** (1.0 / p))


def gradient_per_triangle(field: FEField):
    """The constant P1 gradient on each triangle, as its components (gx, gy), each shape (T,)."""
    if field.role != "domain":
        raise FieldError("gradients are defined for domain fields")
    gx, gy = p1(field.mesh).gradient
    return gx @ field.values, gy @ field.values


def integrate_basis(mesh: Mesh, values_at_quad: np.ndarray) -> np.ndarray:
    """Load vector (g, phi_i) of a function g given at the interior quadrature points (3T,)."""
    return p1(mesh).interior_integral @ np.reshape(values_at_quad, -1)


def _permuted(matrix: sp.csr_matrix, p: np.ndarray) -> sp.csc_matrix:
    """P A P^T in CSC: entry (i, j) is A[p[i], p[j]], from one row gather and one conversion."""
    rows = matrix[p]
    q = np.empty(p.size, dtype=rows.indices.dtype)
    q[p] = np.arange(p.size)
    rows.indices = q[rows.indices]
    return rows.tocsc()


def solve_linear(op: SparseOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve op x = rhs by sparse LU factorisation, for an (n,) vector or an (n, k) block.

    The factorisation is built on the first solve with ``op`` and kept on
    it for later ones; one factorisation serves every column, and zero
    columns come back zero.  An operator with an ``ordering`` p is
    factorised as P A P^T with SuperLU's natural column order, so its LU
    eliminates the unknowns in the mesh's nested-dissection order; one
    without is factorised as it stands, its columns ordered by COLAMD.
    Raises :class:`LinearSolveError` when the factorisation finds the
    matrix singular, or when the relative residual of any column exceeds
    ``SOLVE_RTOL``, which is checked on every solve against ``op.matrix``;
    the error carries the worst column's residual.
    """
    rhs = np.asarray(rhs, dtype=float)
    columns = rhs.reshape(rhs.shape[0], -1)
    rhs_norms = np.linalg.norm(columns, axis=0)
    if not np.any(rhs_norms):
        return np.zeros_like(rhs)
    p = op.ordering
    try:
        if op._lu is None:
            a, permc = (op.matrix.tocsc(), "COLAMD") if p is None else (_permuted(op.matrix, p), "NATURAL")
            op._lu = spla.splu(a, permc_spec=permc)
        if p is None:
            x = op._lu.solve(rhs)
        else:
            x = np.empty_like(rhs)
            x[p] = op._lu.solve(rhs[p])
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse LU failed: {exc}", float("nan")) from exc
    defects = np.linalg.norm((rhs - op.matvec(x)).reshape(columns.shape), axis=0)
    residual = float(np.max(defects[rhs_norms > 0.0] / rhs_norms[rhs_norms > 0.0]))
    if not residual <= SOLVE_RTOL:
        raise LinearSolveError(
            f"sparse LU solution misses the residual bound {SOLVE_RTOL:.0e} "
            f"(relative residual {residual:.3e})",
            residual,
        )
    return x


def prolong(field: FEField, fine: Mesh) -> FEField:
    """Nodal interpolation of a field onto the uniform refinement of its mesh."""
    if fine.parents is None:
        raise FieldError("target mesh carries no refinement parentage")
    if fine.parents.shape[0] != fine.n_vertices:
        raise FieldError("parentage table does not match the fine mesh")
    if int(np.max(fine.parents)) >= field.mesh.n_vertices:
        raise FieldError("target mesh is not the immediate refinement of the field's mesh")
    if field.role == "domain":
        vals = field.values
        return FEField(fine, "domain", 0.5 * (vals[fine.parents[:, 0]] + vals[fine.parents[:, 1]]))
    # boundary fields: spread over coarse global indices, then average parents
    coarse = field.mesh
    full = np.full(coarse.n_vertices, np.nan)
    full[coarse.boundary_loop] = field.values
    loop = fine.boundary_loop
    p = fine.parents[loop]
    vals = 0.5 * (full[p[:, 0]] + full[p[:, 1]])
    if np.any(~np.isfinite(vals)):
        raise FieldError("fine boundary vertex with non-boundary parents")
    return FEField(fine, "boundary", vals)


def write_meshfield(field: FEField, path: str) -> None:
    """Write the portable three-column vertex format (17 significant digits)."""
    coords = field.coords()
    rows = "".join(f"{x:.17g} {y:.17g} {v:.17g}\n" for (x, y), v in zip(coords, field.values))
    with open(path, "w") as fh:
        fh.write(f"MESHFIELD v1\n{coords.shape[0]}\n{rows}")


def read_meshfield(path: str):
    """Read a MESHFIELD v1 file, returning (coords (n,2), values (n,)).

    Kept without a package caller: it is how the CLI's ``.mf`` artifacts are read back.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "MESHFIELD v1":
            raise FieldError(f"not a MESHFIELD v1 file: header {header!r}")
        try:
            count = int(fh.readline())
        except ValueError as exc:
            raise FieldError("malformed vertex count") from exc
        rows = np.loadtxt(fh, ndmin=2)
    if rows.shape != (count, 3):
        raise FieldError(f"expected {count} rows of 'x y value', got shape {rows.shape}")
    return rows[:, :2], rows[:, 2]
