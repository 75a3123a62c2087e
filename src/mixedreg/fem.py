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
frees its record at once, though a refined mesh keeps its ``coarser``
meshes and their records alive.  ``prolong`` interpolates a field up
that chain, over one or more levels.  All pair work (``fracnorm``'s
far-field weights over Gauss points, ``regularity``'s quotients over
nodes) maps a visit over the row blocks of ``pair_blocks``, whose upper
triangles j > i hold each unordered pair once.  The walk owns its memory
and layout: the blocks are dealt to one lane per CPU the process may
use, each lane allocates the squared distances' table and the tables the
visit asks for once, and the visits' results come back in block order,
so the lane count moves no bit of any result and no visit depends on the
block height.  Every pair table takes its differences v_i - v_j from
the factors [v, 1] and [1, -v] of ``difference_factors``, one BLAS product
whose two terms are products by one, so its sum rounds once and the table
holds exactly the differences; and its powers from ``power``, which takes
the reciprocal or the square root where those give ``np.power``'s bits.

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

import contextvars
import os
import threading
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
    "difference_factors",
    "power",
    "lp_norm",
    "integrate_basis",
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
# rows per block of the pair staircase (``pair_blocks``): each lane of a walk over the 2 nb
# boundary Gauss points fills its blocks into one _STAIR_ROWS x 2 nb table (2 MB at
# nb = 2048), and the blocks cover 1/2 + _STAIR_ROWS / (4 nb) of the ordered pairs
_STAIR_ROWS = 64
# rows of a block whose |x_i - x_j|^2 one lane's scratch holds at a time (0.5 MB at nb = 2048), or
# more where they hold fewer than _SCRATCH_ENTRIES entries, so that a narrow block of a small walk
# takes its distances in few calls.  At 1,024 or more columns the scratch is 16 rows.  Twice as
# many entries (256 KiB) raised the peak RSS of a level 3-5 regularity study by 1.8 MB: glibc
# raises its mmap threshold to the largest block freed, so the study's later arrays of that size
# stayed on the heap
_SCRATCH_ROWS = 16
_SCRATCH_ENTRIES = 2**14
# a walk of at most this many blocks stays on the caller's thread.  Measured on a 2-CPU
# machine, a second lane slowed the walks of up to 8 blocks (the k = 2 far field over 512
# Gauss points by 40%, the quotients over 289 nodes by 35%); the k = 1 and k = 2 far fields
# of 16 blocks ran from 7% slower to 14% faster for 15-25% more CPU time; the quotients
# over 1,089 nodes (18 blocks) and the far fields of 32 blocks took 17-36% less wall time
_SERIAL_BLOCKS = 16
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
    ``interior_integral`` (W), ``gradient`` (Gx, Gy) and its transpose,
    nor the vertex ``ordering`` of the factorisations; the boundary's map
    is ``edge_ends``.  Nor does it build the interior mesh: the boundary
    commands work on ``geometry.boundary_fan``.  ``operator`` keeps the
    matrix of the last spec it was asked for and reassembles when a
    different spec object comes.  ``at_interior`` and ``at_boundary``
    take nodal values to the quadrature points, for one field or for a
    block of fields, one per row.  The mesh is held weakly: the mesh owns
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
        if values.ndim == 1:
            return (values[self.edge_ends] @ _EDGE_BASIS.T).reshape(-1)
        return (values[:, self.edge_ends] @ _EDGE_BASIS.T).reshape(len(values), -1)

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
        return SparseOperator(interior + boundary, self.ordering)


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


def _lane_count(blocks: int) -> int:
    """Lanes for a walk of ``blocks`` blocks: one per CPU this process may use, one for a small walk."""
    if blocks <= _SERIAL_BLOCKS:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def pair_blocks(points: np.ndarray, visit, work=()) -> list:
    """Map ``visit`` over the ``_STAIR_ROWS``-row blocks [r0, r1) of ``points``; results in block order.

    A block's d2 pairs its rows i of ``points`` (n, 2) with the points j = r0 ... n - 1,
    d2 = |x_i - x_j|^2, the coordinate differences written from the walk's
    ``difference_factors``: its entries j > i hold each pair i < j once, its entries j < i
    repeat pairs of the block's own rows bit for bit, and the visit masks what it must of
    j <= i.  ``visit(block, d2, tables)`` takes the slice of rows, d2 and one table of d2's
    shape per dtype of ``work``.  Of L lanes, lane t visits blocks t, t + L, ... in order;
    lane 0 runs on the caller's thread, the others on threads of their own, each under a
    copy of the caller's context, so the caller's ``np.errstate`` holds there.  Each lane
    allocates d2's table and those of ``work`` once, sized by its first and largest block,
    and passes contiguous views of them, which the visit may overwrite but must not keep.
    A visit may call numpy only.  Every thread is joined before the walk returns, and the
    first exception a lane raises is raised here, after the other lanes have stopped.
    """
    n = points.shape[0]
    left, right = difference_factors(points.T)
    starts = range(0, n, _STAIR_ROWS)
    lanes = max(1, min(_lane_count(len(starts)), len(starts)))
    results = [None] * len(starts)
    errors = []

    def walk(t: int) -> None:
        try:
            tables = None
            for b in range(t, len(starts), lanes):
                if errors:
                    return
                r0 = starts[b]
                block = slice(r0, min(r0 + _STAIR_ROWS, n))
                shape = (block.stop - r0, n - r0)
                if tables is None:
                    tables = [np.empty(shape[0] * shape[1], dtype) for dtype in (float, *work)]
                    chunk = min(max(_SCRATCH_ROWS, _SCRATCH_ENTRIES // shape[1]), shape[0])
                    scratch = np.empty(chunk * shape[1])
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
                results[b] = visit(block, d2, views)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(walk, t)) for t in range(1, lanes)]
    for thread in threads:
        thread.start()
    walk(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
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


def interp_interior(field: FEField) -> np.ndarray:
    """Field values at the interior quadrature points, shape (3T,)."""
    if field.role != "domain":
        raise FieldError("interior interpolation expects a domain field")
    return p1(field.mesh).at_interior(field.values)


def interp_boundary(field: FEField) -> np.ndarray:
    """Boundary-field values at the edge Gauss points, shape (2 nb,)."""
    if field.role != "boundary":
        raise FieldError("boundary interpolation expects a boundary field")
    return p1(field.mesh).at_boundary(field.values)


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


def min_eigenvalue(a11, a12, a22):
    """Smallest eigenvalue of the symmetric coefficient matrix [[a11, a12], [a12, a22]], elementwise."""
    return 0.5 * (a11 + a22 - np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2))


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
    eig_min = min_eigenvalue(a11, a12, a22)
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
    # a power that overflows gives the norm inf, which the caller sees
    with np.errstate(over="ignore"):
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
