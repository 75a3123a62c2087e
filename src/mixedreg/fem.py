"""P1 finite elements on triangulated domains with natural boundary data.

The state equation is Galerkin: its interior integrals use the
three-edge-midpoint rule (degree 2), and composed nonlinear integrands
are evaluated there from interpolated nodal values.  Boundary integrals
of fields use two-point Gauss per edge (degree 3).  Quadrature arrays
are flat: point 3 t + q is the midpoint of edge q of triangle t, point
2 e + g Gauss point g of boundary edge e.  Every control and tracking
integral is taken by the vertex rule instead, with the lumped weights
m (the row sums of the mass matrix, area / 3 per triangle corner) and
m_b (half the two boundary edges at a loop vertex), so a load is
m f + T^T (m_b g), T the trace, and the controls, their constraints and
the cost all live on the nodes.  Assembly is vectorized and deterministic.

The :class:`P1` record of a mesh (``p1(mesh)``) is the single owner of
everything assembled once per mesh: both quadratures, the lumped
``weights`` (m, m_b), the elliptic operator of the last problem spec,
and the sparse maps that own every interior integral: Q (3T, n)
interpolates nodal values to the interior points, W = Q^T diag(qw)
(n, 3T) integrates values there against the basis, and Gx, Gy (T, n)
give the gradient on each triangle.  A weighted mass is W diag(w) Q, and
the elliptic operator Gx^T (D11 Gx + D12 Gy) + Gy^T (D12 Gx + D22 Gy)
plus the a0-weighted mass, so every Newton Jacobian uses exactly the
quadrature of the residual it differentiates.

The record holds only a weak reference to its mesh, so a dropped mesh
frees its record at once, though a refined mesh keeps its ``coarser``
meshes and their records alive.  ``prolong`` interpolates a field up
that chain, over one or more levels.  All pair work (``fracnorm``'s
far-field weights over Gauss points, ``regularity``'s quotients over
nodes) maps a visit over the row blocks of ``pair_blocks``, whose upper
triangles j > i hold each unordered pair once.  The walk owns its memory
and layout: it runs on the caller's thread, allocates the squared
distances' table and the tables the visit asks for once, and returns the
visits' results in block order, so no visit depends on the block
height.  Every pair table takes its differences v_i - v_j from
the factors [v, 1] and [1, -v] of ``difference_factors``, one BLAS product
whose two terms are products by one, so its sum rounds once and the table
holds exactly the differences; and its powers from ``power``, which takes
the reciprocal or the square root where those give ``np.power``'s bits.

Sparse matrices are built only here, each in one form: canonical CSR,
which callers multiply and add with ``@`` and ``+``.  Every linear
system goes through ``solve_linear``, for a vector or a block of
columns, accepted only when every column's relative residual is within
``SOLVE_RTOL``.  Only a matrix that is solved becomes a
:class:`SparseOperator`, which carries the elimination order and owns
its sparse LU: the first solve builds it, later solves with the same
operator reuse it, and it is freed with the operator; no other cache
holds it.  The order is the record's ``ordering``, a nested dissection
of the mesh (A. George, SIAM J. Numer. Anal. 10, 1973), with no column
reordering of SuperLU's own.  A Newton Jacobian [[K, B], [C, K]] is a
:class:`BlockOperator` (``block_operator``): it keeps its blocks, and
``solve_linear`` solves it by GMRES, preconditioned by the block lower
triangle [[K, 0], [C, K]] through the one n x n LU of K (M. Benzi,
G. Golub & J. Liesen, Acta Numerica 14, 2005).
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
    "BlockOperator",
    "FieldError",
    "AssemblyError",
    "LinearSolveError",
    "domain_field",
    "boundary_field",
    "trace",
    "nodal",
    "p1",
    "pair_blocks",
    "difference_factors",
    "power",
    "lp_norm",
    "min_eigenvalue",
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
# most GMRES iterations a column of a ``BlockOperator`` solve may take, in one restart cycle
# unless an inner convergence misses the true residual; the Newton Jacobians of the shipped
# configs take at most 7, from a cold start at levels 3-7
_KRYLOV_ITERATIONS = 50
# rows per block of the pair staircase (``pair_blocks``): a walk over the 2 nb
# boundary Gauss points fills its blocks into one _STAIR_ROWS x 2 nb table (2 MB at
# nb = 2048), and the blocks cover 1/2 + _STAIR_ROWS / (4 nb) of the ordered pairs
_STAIR_ROWS = 64
# rows of a block whose |x_i - x_j|^2 the walk's scratch holds at a time (0.5 MB at nb = 2048), or
# more where they hold fewer than _SCRATCH_ENTRIES entries, so that a narrow block of a small walk
# takes its distances in few calls.  At 1,024 or more columns the scratch is 16 rows.  Twice as
# many entries (256 KiB) raised the peak RSS of a level 3-5 regularity study by 1.8 MB: glibc
# raises its mmap threshold to the largest block freed, so the study's later arrays of that size
# stayed on the heap
_SCRATCH_ROWS = 16
_SCRATCH_ENTRIES = 2**14
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
    """fn(x1, x2, value) at the nodes of ``field``, one value per node."""
    xy = field.coords()
    return fn(xy[:, 0], xy[:, 1], field.values)


class P1:
    """P1 discretization of one mesh, shared by every solve on it.

    Each part is built on first use, so boundary-only work never touches
    the interior, not even its maps ``interior_interp`` (Q),
    ``interior_integral`` (W) and ``gradient`` (Gx, Gy), nor the vertex
    ``ordering`` of the factorisations, nor the lumped ``weights``; the
    boundary's map is ``edge_ends``.  Nor does it build the interior mesh:
    the boundary commands work on ``geometry.boundary_fan``.  The
    controls enter through the weights alone: ``load`` integrates nodal
    densities by the vertex rule, and ``reaction`` is the diagonal
    matrix of the same rule.  ``operator`` keeps the matrix of the last
    spec it was asked for and reassembles when a different spec object
    comes.  ``at_interior`` and ``at_boundary`` take nodal values to the
    quadrature points, for one field or for a block of fields, one per
    row.  The mesh is held weakly: the mesh owns the record.
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
    def ordering(self) -> np.ndarray:
        """The nested-dissection order of the vertices, in which every factorisation eliminates them."""
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
    def weights(self):
        """Lumped weights (m, m_b): m (n,) the row sums of the mass matrix, m_b (nb,) per loop vertex."""
        mesh = self.mesh
        m = np.bincount(mesh.triangles.reshape(-1), np.repeat(mesh.triangle_areas() / 3.0, 3), mesh.n_vertices)
        half = mesh.boundary_edge_lengths / 2.0  # loop vertex e ends the edges e - 1 and e
        return m, half + np.roll(half, 1)

    def operator(self, spec: ProblemSpec) -> sp.csr_matrix:
        """Galerkin matrix of the elliptic operator of ``spec`` (canonical CSR)."""
        if self._spec is not spec:
            self._operator = assemble_operator(self.mesh, spec)
            self._spec = spec
        return self._operator

    def at_interior(self, values: np.ndarray) -> np.ndarray:
        """Nodal values (n,), or one field per row (k, n), at the interior quadrature points: (3T,) or (k, 3T).

        The rows of a block come back contiguous, so a sum along the last
        axis adds each row in the order of a single field.
        """
        q = self.interior_interp
        if values.ndim == 1:
            return q @ values
        out = np.empty((values.shape[0], q.shape[0]))
        for row, nodal in zip(out, values):
            row[...] = q @ nodal  # row by row: a (3T, k) product would need a transposed copy
        return out

    def at_boundary(self, values: np.ndarray) -> np.ndarray:
        """Boundary-loop values (nb,), or one field per row (k, nb), at the edge Gauss points: (2 nb,) or (k, 2 nb)."""
        return (np.take(values, self.edge_ends, axis=-1) @ _EDGE_BASIS.T).reshape(*values.shape[:-1], -1)

    def load(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """m f + T^T (m_b g) for nodal densities f (n,) and g (nb,) in loop order, or (n, k) and (nb, k) blocks."""
        m, mb = self.weights
        shape = (-1,) + (1,) * (f.ndim - 1)
        out = m.reshape(shape) * f
        out[self.mesh.boundary_loop] += mb.reshape(shape) * g  # the loop vertices are distinct
        return out

    def reaction(self, c1: np.ndarray, c2: np.ndarray) -> sp.csr_matrix:
        """diag(``load(c1, c2)``) in canonical CSR without stored zeros: the reaction coupling of c1 and c2."""
        return sp.diags(self.load(c1, c2), format="csr")


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


def pair_blocks(points: np.ndarray, visit, work=()) -> list:
    """Map ``visit`` over the ``_STAIR_ROWS``-row blocks [r0, r1) of ``points``; results in block order.

    A block's d2 pairs its rows i of ``points`` (n, 2) with the points j = r0 ... n - 1,
    d2 = |x_i - x_j|^2, the coordinate differences written from the walk's
    ``difference_factors``: its entries j > i hold each pair i < j once, its entries j < i
    repeat pairs of the block's own rows bit for bit, and the visit masks what it must of
    j <= i.  ``visit(block, d2, tables)`` takes the slice of rows, d2 and one table of d2's
    shape per dtype of ``work``.  The walk allocates d2's table and those of ``work`` once,
    sized by the first and largest block, and passes every block contiguous views of them,
    which the visit may overwrite but must not keep.
    """
    n = points.shape[0]
    left, right = difference_factors(points.T)
    height = min(_STAIR_ROWS, n)
    tables = [np.empty(height * n, dtype) for dtype in (float, *work)]
    chunk = min(max(_SCRATCH_ROWS, _SCRATCH_ENTRIES // max(n, 1)), height)
    scratch = np.empty(chunk * n)
    results = []
    for r0 in range(0, n, _STAIR_ROWS):
        block = slice(r0, min(r0 + _STAIR_ROWS, n))
        shape = (block.stop - r0, n - r0)
        d2, *views = (table[: shape[0] * shape[1]].reshape(shape) for table in tables)
        for s0 in range(0, shape[0], chunk):
            part = d2[s0 : s0 + chunk]
            dy = scratch[: part.size].reshape(part.shape)
            rows = slice(r0 + s0, r0 + s0 + part.shape[0])
            np.matmul(left[0, rows], right[0, :, r0:], out=part)
            part *= part
            np.matmul(left[1, rows], right[1, :, r0:], out=dy)
            dy *= dy
            part += dy
        results.append(visit(block, d2, views))
    return results


def difference_factors(values: np.ndarray):
    """Factors (left, right) = ([v, 1], [1, -v]) of the pair differences of ``values``.

    ``values`` is one coordinate (n,) or a block of fields (F, n); left has
    shape (..., n, 2) and right (..., 2, n), so that
    ``np.matmul(left[rows], right[:, j0:], out=table)`` writes v_i - v_j for
    the rows i and the columns j >= j0.  Both products are by one, so the
    BLAS sum rounds once and gives the difference bit for bit, whatever
    kernel or FMA it uses; only the sign of a zero difference can differ,
    which every caller squares or takes the absolute value of.
    """
    ones = np.ones_like(values)
    return np.stack([values, ones], axis=-1), np.stack([ones, -values], axis=-2)


def power(base: np.ndarray, exponent: float, out: np.ndarray) -> np.ndarray:
    """``np.power(base, exponent, out=out)``, by ``np.reciprocal`` at -1 and ``np.sqrt`` at 0.5.

    Those two give the same bits as ``np.power`` in about half its time.
    """
    if exponent == -1.0:
        return np.reciprocal(base, out=out)
    if exponent == 0.5:
        return np.sqrt(base, out=out)
    return np.power(base, exponent, out=out)


def p1(mesh: Mesh) -> P1:
    """The P1 record of ``mesh``, created on first use and kept on the mesh."""
    if mesh.discretization is None:
        mesh.discretization = P1(mesh)
    return mesh.discretization


@dataclass
class SparseOperator:
    """A square CSR matrix, made canonical (sorted, deduplicated indices), that ``solve_linear`` factorises.

    The operator owns the sparse LU of its matrix: ``solve_linear``
    builds it on the first solve and reuses it on every later one, and it
    lives exactly as long as the operator.  ``ordering`` is the order in
    which that factorisation eliminates the unknowns, always given: the
    mesh ordering (``P1.ordering``).  Treat ``matrix`` as immutable; a
    factor left stale by an edit fails the residual check of
    ``solve_linear`` rather than returning a wrong solution.
    """

    matrix: sp.csr_matrix
    ordering: np.ndarray = field(repr=False, compare=False)
    _lu: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = self.matrix
        if not sp.isspmatrix_csr(m) or m.shape[0] != m.shape[1]:
            raise AssemblyError(f"operator must be a square CSR matrix, got {m.format} {m.shape}")
        m.sum_duplicates()  # sorts too; a no-op on a canonical matrix


@dataclass
class BlockOperator:
    """The block matrix [[K, B], [C, K]] of square CSR blocks, whose two diagonal blocks are one matrix K.

    ``diagonal`` is the operator of K, and its LU, in the mesh ordering,
    is the only factorisation a solve builds: ``solve_linear`` runs GMRES
    on the assembled ``matrix``, preconditioned by the block lower
    triangle [[K, 0], [C, K]], two solves with that LU and one product
    with C.  The blocks are kept, and ``matrix`` assembles them on each
    access; treat them as immutable, like a ``SparseOperator``'s matrix.
    """

    diagonal: SparseOperator
    upper: sp.csr_matrix
    lower: sp.csr_matrix

    @property
    def matrix(self) -> sp.csr_matrix:
        """The assembled 2n x 2n matrix [[K, B], [C, K]] (CSR)."""
        k = self.diagonal.matrix
        return sp.bmat([[k, self.upper], [self.lower, k]], format="csr")


def min_eigenvalue(a11, a12, a22):
    """Smallest eigenvalue of the symmetric coefficient matrix [[a11, a12], [a12, a22]], elementwise."""
    return 0.5 * (a11 + a22 - np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2))


def assemble_operator(mesh: Mesh, spec: ProblemSpec) -> sp.csr_matrix:
    """Galerkin matrix (canonical CSR) of the elliptic operator with natural boundary data.

    Coefficients are evaluated at the interior quadrature points; the
    coefficient matrix must be uniformly elliptic there and a0 finite
    (checked, raising :class:`AssemblyError` with the first offending
    location; an overflow or a NaN fails, without numpy warnings).  The
    matrix is Gx^T (D11 Gx + D12 Gy) + Gy^T (D12 Gx + D22 Gy) plus the
    a0-weighted mass, Dij the diagonal of the per-triangle sums of qw aij.
    """
    rec = p1(mesh)
    qpts, qw = rec.interior
    x1, x2 = qpts[:, 0], qpts[:, 1]

    with np.errstate(over="ignore", invalid="ignore"):
        a11, a12, a22, a0 = (a(x1, x2, 0.0) for a in (spec.a11, spec.a12, spec.a22, spec.a0))
        eig_min = min_eigenvalue(a11, a12, a22)
    if not np.all(eig_min > 0.0):  # a NaN eigenvalue fails too, and argmin finds the first NaN
        k = int(np.argmin(eig_min))
        raise AssemblyError(
            f"ellipticity violated at quadrature point "
            f"({qpts[k, 0]:.6g}, {qpts[k, 1]:.6g}): "
            f"min eigenvalue {eig_min[k]:.3e}"
        )
    if not np.all(np.isfinite(a0)):
        k = int(np.argmin(np.isfinite(a0)))
        raise AssemblyError(f"a0 is not finite at quadrature point ({qpts[k, 0]:.6g}, {qpts[k, 1]:.6g}): {a0[k]}")
    d11, d12, d22 = (sp.diags(np.sum((qw * a).reshape(-1, 3), axis=1)) for a in (a11, a12, a22))
    gx, gy = rec.gradient
    stiffness = (gx.T @ (d11 @ gx + d12 @ gy) + gy.T @ (d12 @ gx + d22 @ gy)).tocsr()
    stiffness.sum_duplicates()
    return stiffness + assemble_weighted_mass(mesh, a0)  # canonical, as both terms are


def assemble_weighted_mass(mesh: Mesh, weight_at_quad) -> sp.csr_matrix:
    """Mass matrix (w phi_j, phi_i) (canonical CSR) of a weight w at the interior quadrature points (3T,): W diag(w) Q."""
    rec = p1(mesh)
    weighted = rec.interior_interp.copy()
    weighted.data *= np.repeat(np.broadcast_to(weight_at_quad, rec.interior[1].shape), 2)
    mass = rec.interior_integral @ weighted
    mass.sum_duplicates()  # sorts the product's columns
    return mass


def block_operator(diagonal: sp.csr_matrix, upper: sp.csr_matrix, lower: sp.csr_matrix,
                   ordering: np.ndarray) -> BlockOperator:
    """The operator of [[K, B], [C, K]]: K = ``diagonal`` in ``ordering`` (``P1.ordering``), B ``upper``, C ``lower``."""
    return BlockOperator(SparseOperator(diagonal, ordering), upper, lower)


def lp_norm(field: FEField, p: float) -> float:
    """Integral p-norm of a P1 field, |.|^p interpolated at quadrature points."""
    if p < 1.0:
        raise FieldError(f"p-norm requires p >= 1, got {p}")
    rec = p1(field.mesh)
    at_points, (_, qw) = (rec.at_interior, rec.interior) if field.role == "domain" else (rec.at_boundary, rec.boundary)
    vals = at_points(field.values)
    # a power that overflows gives the norm inf, which the caller sees
    with np.errstate(over="ignore"):
        return float(np.sum(qw * np.abs(vals) ** p) ** (1.0 / p))


def _permuted(matrix: sp.csr_matrix, p: np.ndarray) -> sp.csc_matrix:
    """P A P^T in CSC: entry (i, j) is A[p[i], p[j]], from one row gather and one conversion."""
    rows = matrix[p]
    q = np.empty(p.size, dtype=rows.indices.dtype)
    q[p] = np.arange(p.size)
    rows.indices = q[rows.indices]
    return rows.tocsc()


def _lu_solve(op: SparseOperator, rhs: np.ndarray) -> np.ndarray:
    """op^-1 rhs by the LU ``op`` keeps, built on first use from P A P^T, p the operator's ``ordering``.

    SuperLU keeps its natural column order, so the LU eliminates the
    unknowns in the mesh's nested-dissection order; the solution is
    un-permuted.  A singular matrix raises SuperLU's ``RuntimeError``.
    """
    p = op.ordering
    x = np.empty_like(rhs)
    if op._lu is None:
        op._lu = spla.splu(_permuted(op.matrix, p), permc_spec="NATURAL")
    x[p] = op._lu.solve(rhs[p])
    return x


def _block_solve(op: BlockOperator, matrix: sp.csr_matrix, columns: np.ndarray, scales: np.ndarray):
    """GMRES on ``matrix``, the assembled ``op``, for each nonzero column: (x, iterations per column).

    Each column is scaled by its largest entry and stops at ``SOLVE_RTOL``
    relative or after ``_KRYLOV_ITERATIONS`` iterations; ``solve_linear``'s
    residual check, not GMRES's exit code, decides.
    The preconditioner solves [[K, 0], [C, K]] z = r by block forward
    substitution with the LU of K.
    """
    n = op.diagonal.matrix.shape[0]

    def forward(r):
        z = np.empty_like(r)
        z[:n] = _lu_solve(op.diagonal, r[:n])
        z[n:] = _lu_solve(op.diagonal, r[n:] - op.lower @ z[:n])
        return z

    preconditioner = spla.LinearOperator(matrix.shape, matvec=forward, dtype=float)
    x = np.zeros_like(columns)
    iterations = np.zeros(columns.shape[1], dtype=int)
    for j in np.flatnonzero(scales):
        steps = []  # one residual norm per inner iteration
        # the "legacy" callback makes maxiter count inner iterations, over every restart cycle
        x[:, j], _ = spla.gmres(matrix, columns[:, j] / scales[j], rtol=SOLVE_RTOL, atol=0.0,
                                restart=_KRYLOV_ITERATIONS, maxiter=_KRYLOV_ITERATIONS, M=preconditioner,
                                callback=steps.append, callback_type="legacy")
        x[:, j] *= scales[j]
        iterations[j] = len(steps)
    return x, iterations


def solve_linear(op: SparseOperator | BlockOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve op x = rhs, for an (n,) vector or an (n, k) block; zero columns come back zero.

    A ``SparseOperator`` is solved by its sparse LU (``_lu_solve``), built
    on the first solve with ``op`` and kept on it for later ones; one
    factorisation serves every column.  A ``BlockOperator`` is solved
    column by column by preconditioned GMRES (``_block_solve``), whose
    only factorisation is the n x n LU of its diagonal block, kept on
    ``op.diagonal``.  Raises :class:`LinearSolveError` when an LU finds
    its matrix singular, or when the relative residual of any column
    exceeds ``SOLVE_RTOL``, which is checked on every solve against
    ``op.matrix``; the error carries the worst column's residual, and for
    a block solve its message names that column's GMRES iterations.
    """
    rhs = np.asarray(rhs, dtype=float)
    columns = rhs.reshape(rhs.shape[0], -1)
    scales = np.max(np.abs(columns), axis=0, initial=0.0)
    if not np.any(scales):
        return np.zeros_like(rhs)
    matrix = op.matrix
    iterations = None
    try:
        if isinstance(op, BlockOperator):
            x, iterations = _block_solve(op, matrix, columns, scales)
            x = x.reshape(rhs.shape)
        else:
            x = _lu_solve(op, rhs)
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse LU failed: {exc}", float("nan")) from exc
    defects = (rhs - matrix @ x).reshape(columns.shape)
    # each column against its largest entry s: |d / s| / |b / s| is the relative residual, and
    # its norms neither overflow for a finite b nor underflow to zero for a nonzero one
    residuals = np.full(scales.shape, -np.inf)
    for j in np.flatnonzero(scales):
        residuals[j] = np.linalg.norm(defects[:, j] / scales[j]) / np.linalg.norm(columns[:, j] / scales[j])
    worst = int(np.argmax(residuals))  # a NaN residual is the worst
    residual = float(residuals[worst])
    if not residual <= SOLVE_RTOL:
        method = "sparse LU" if iterations is None else f"GMRES, after {iterations[worst]} iterations,"
        raise LinearSolveError(
            f"{method} solution misses the residual bound {SOLVE_RTOL:.0e} "
            f"(relative residual {residual:.3e})",
            residual,
        )
    return x


def prolong(field: FEField, fine: Mesh) -> FEField:
    """Nodal interpolation of a field onto a mesh whose ``coarser`` chain reaches the field's mesh.

    Each level keeps the values and gives every new midpoint the mean of its edge's ends.
    """
    chain = [fine]
    while chain[-1] is not field.mesh:
        if chain[-1].coarser is None:
            raise FieldError("target mesh carries no refinement parentage from the field's mesh")
        chain.append(chain[-1].coarser)
    vals = field.values
    for mesh in reversed(chain[1:]):
        if field.role == "domain":
            vals = np.concatenate([vals, 0.5 * (vals[mesh.edges[:, 0]] + vals[mesh.edges[:, 1]])])
        else:
            vals = np.stack([vals, 0.5 * (vals + np.roll(vals, -1))], axis=1).reshape(-1)
    return FEField(fine, field.role, vals)


def write_meshfield(field: FEField, path: str) -> None:
    """Write the portable three-column vertex format (17 significant digits)."""
    rows = np.column_stack([field.coords(), field.values])
    text = ("%.17g %.17g %.17g\n" * rows.shape[0]) % tuple(rows.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f"MESHFIELD v1\n{rows.shape[0]}\n{text}")


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
