"""P1 finite elements on triangulated domains with natural boundary data.

Interior integrals use the three-edge-midpoint rule (degree 2), boundary
integrals two-point Gauss per edge (degree 3).  Composed nonlinear
integrands are always evaluated at quadrature points from interpolated
nodal values; nothing is mass-lumped.  All assembly is vectorized and
deterministic for fixed inputs.

The :class:`P1` record of a mesh (``p1(mesh)``) is the single owner of
everything assembled once per mesh: both quadratures, the mass matrices
M and M_b, the boundary trace matrix T, the elliptic operator of the
last problem spec, and the field-free weights of the Gagliardo double
integral over the boundary (``far_field`` and ``adjacent``, per exponent
beta).  Other modules read these through it, and load vectors are always
M f + T^T (M_b g).

The record holds only a weak reference to its mesh, so a dropped mesh
frees its record at once.  Gagliardo weights are kept only while the
whole ordered pair table of the boundary Gauss points fits one chunk of
``FAR_FIELD_PAIRS`` pairs (nb <= 512, 8 MB per beta); larger meshes get
them built again, chunk by chunk, on every pass.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .catalog import ProblemSpec
from .geometry import Mesh

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
    "p1",
    "lp_norm",
    "integrate_basis",
    "assemble_operator",
    "assemble_weighted_mass",
    "assemble_boundary_weighted_mass",
    "solve_linear",
    "interior_quadrature",
    "boundary_quadrature",
    "prolong",
    "write_meshfield",
    "read_meshfield",
    "field_from_meshfield",
]

CG_RTOL = 1e-12
CG_ITER_FACTOR = 20
# ordered boundary Gauss-point pairs per far-field chunk
FAR_FIELD_PAIRS = 1 << 20
# graded levels of the singular boundary pair rules
DYADIC_LEVELS = 4

# P1 basis values at the three edge-midpoint quadrature nodes
_TRI_BASIS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
# and at the two Gauss nodes of a boundary edge
_GAUSS_S = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_EDGE_BASIS = np.stack([1.0 - _GAUSS_S, _GAUSS_S], axis=1)


def _corner_cells(levels: int = DYADIC_LEVELS):
    """Graded partition of the unit square toward the corner (1, 0)."""
    cells = []
    hot = (0.0, 0.0, 1.0)
    for _ in range(levels):
        s0, t0, size = hot
        h = 0.5 * size
        corner = (s0 + h, t0)
        for child in ((s0, t0), (s0 + h, t0), (s0, t0 + h), (s0 + h, t0 + h)):
            if child != corner:
                cells.append((child[0], child[1], h))
        hot = (corner[0], corner[1], h)
    cells.append(hot)
    return np.array(cells)


# adjacent-edge pairs: 4x4 Gauss on each graded cell, as (cells, 4) node and weight tables
_G4_X, _G4_WX = np.polynomial.legendre.leggauss(4)
_G4_NODES, _G4_W = 0.5 * (_G4_X + 1.0), 0.5 * _G4_WX  # on (0, 1)
_ADJ_CELLS = _corner_cells()
_ADJ_S = _ADJ_CELLS[:, :1] + _ADJ_CELLS[:, 2:] * _G4_NODES
_ADJ_T = _ADJ_CELLS[:, 1:2] + _ADJ_CELLS[:, 2:] * _G4_NODES
_ADJ_W = _ADJ_CELLS[:, 2:] * _G4_W


class FieldError(ValueError):
    """Invalid finite element field construction or role mismatch."""


class AssemblyError(ValueError):
    """Coefficient data failed a pointwise admissibility check."""


class LinearSolveError(RuntimeError):
    """Iterative solver exhausted its iteration cap."""

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


class P1:
    """P1 discretization of one mesh, shared by every solve on it.

    Each part is built on first use, so boundary-only work never touches
    the interior.  ``operator`` keeps the matrix of the last spec it was
    asked for and reassembles when a different spec object comes.  The
    Gagliardo weights are kept per beta while they fit one far-field
    chunk.  The mesh is held weakly: the mesh owns the record.
    """

    def __init__(self, mesh: Mesh):
        self._mesh = weakref.ref(mesh)
        self._spec = None
        self._operator = None
        self._far_field = {}
        self._adjacent = {}

    @property
    def mesh(self) -> Mesh:
        return self._mesh()

    @cached_property
    def interior(self):
        """Per-triangle P1 gradients and interior quadrature points and weights."""
        p = self.mesh.vertices[self.mesh.triangles]  # (T, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        # grad phi_i = perpendicular of the opposite edge / (2 area)
        e0 = p[:, 2] - p[:, 1]
        e1 = p[:, 0] - p[:, 2]
        e2 = p[:, 1] - p[:, 0]
        perp = np.stack([e0, e1, e2], axis=1)[:, :, ::-1] * np.array([-1.0, 1.0])
        grads = perp / (2.0 * area[:, None, None])
        qpts = np.einsum("qi,tic->tqc", _TRI_BASIS, p)  # (T, 3, 2)
        qw = np.repeat(area[:, None] / 3.0, 3, axis=1)  # (T, 3)
        return grads, qpts, qw

    @cached_property
    def boundary(self):
        """Boundary edge Gauss points and weights."""
        mesh = self.mesh
        a = mesh.vertices[mesh.boundary_edges[:, 0]]
        b = mesh.vertices[mesh.boundary_edges[:, 1]]
        qpts = a[:, None, :] + _GAUSS_S[None, :, None] * (b - a)[:, None, :]  # (B, 2, 2)
        qw = np.repeat(mesh.boundary_edge_lengths[:, None] / 2.0, 2, axis=1)  # (B, 2)
        return qpts, qw

    @cached_property
    def mass(self) -> SparseOperator:
        """Interior mass matrix M."""
        return assemble_weighted_mass(self.mesh, np.ones_like(self.interior[2]))

    @cached_property
    def boundary_mass(self) -> SparseOperator:
        """Boundary mass matrix M_b in boundary-loop order."""
        return assemble_boundary_weighted_mass(self.mesh, np.ones_like(self.boundary[1]))

    @cached_property
    def trace_matrix(self) -> sp.csr_matrix:
        """Trace matrix T (nb, n): a single 1.0 per row, at the loop vertex."""
        nb, n = self.mesh.n_boundary, self.mesh.n_vertices
        return sp.csr_matrix((np.ones(nb), (np.arange(nb), self.mesh.boundary_loop)), shape=(nb, n))

    def operator(self, spec: ProblemSpec) -> SparseOperator:
        """Galerkin matrix of the elliptic operator of ``spec``."""
        if self._spec is not spec:
            self._operator = assemble_operator(self.mesh, spec)
            self._spec = spec
        return self._operator

    def load(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """M f + T^T (M_b g) for nodal densities f in the domain and g on the boundary.

        T has one 1.0 per row, so the boundary part lands on the loop
        vertices without rounding.
        """
        return self.mass.matvec(f) + self.trace_matrix.T @ self.boundary_mass.matvec(g)

    @property
    def _keeps_pair_weights(self) -> bool:
        """Whether the whole ordered Gauss-point pair table fits one far-field chunk."""
        return (2 * self.mesh.n_boundary) ** 2 <= FAR_FIELD_PAIRS

    def far_field(self, beta: float):
        """Far-field weights w_i w_j / |x_i - x_j|^beta over the boundary Gauss points.

        Yields (rows, table) chunks that cover the ordered pairs: ``table``
        has shape (rows, 2 nb) and is zero on pairs from one edge or from
        adjacent edges.  A table that fits one chunk is kept per beta,
        read-only; larger ones are streamed in chunks of at most
        ``FAR_FIELD_PAIRS`` pairs and nothing is kept.
        """
        npts = 2 * self.mesh.n_boundary
        if self._keeps_pair_weights:
            if beta not in self._far_field:
                rows, table = self._far_field_chunk(beta, slice(0, npts))
                table.flags.writeable = False
                self._far_field[beta] = rows, table
            yield self._far_field[beta]
            return
        step = max(2, FAR_FIELD_PAIRS // npts)
        for start in range(0, npts, step):
            yield self._far_field_chunk(beta, slice(start, min(start + step, npts)))

    def _far_field_chunk(self, beta: float, rows: slice):
        qpts, qw = boundary_quadrature(self.mesh)
        npts = qw.shape[0]
        table = np.subtract.outer(qpts[rows, 0], qpts[:, 0])
        table *= table
        dy = np.subtract.outer(qpts[rows, 1], qpts[:, 1])
        dy *= dy
        table += dy
        del dy
        with np.errstate(divide="ignore"):
            np.power(table, -0.5 * beta, out=table)
        table *= qw[rows, None]
        table *= qw[None, :]
        # touching pairs: the Gauss points of the row's edge and of its two neighbours
        edge = np.arange(rows.start, rows.stop) // 2
        touching = (2 * edge[:, None] + np.arange(-2, 4)) % npts
        table[np.arange(edge.size)[:, None], touching] = 0.0
        return rows, table

    def adjacent(self, beta: float):
        """Weights of the graded-cell rule for pairs of adjacent boundary edges.

        Edge e runs from x(s) = a + s (b - a) and edge e + 1 from x'(t) =
        b + t (c - b); the cells grade toward the shared vertex (s, t) =
        (1, 0).  Returns (s, t, weights): the (cells, 4) node tables and
        the (nb, cells, 4, 4) weights |e| |e+1| w_s w_t / |x - x'|^beta.
        Kept per beta, read-only, under the same rule as ``far_field``.
        """
        weights = self._adjacent.get(beta)
        if weights is None:
            mesh = self.mesh
            a = mesh.vertices[mesh.boundary_loop]
            b = np.roll(a, -1, axis=0)
            c = np.roll(a, -2, axis=0)
            # (nb, cells, s node, t node, xy)
            x = a[:, None, None, None, :] + _ADJ_S[None, :, :, None, None] * (b - a)[:, None, None, None, :]
            xp = b[:, None, None, None, :] + _ADJ_T[None, :, None, :, None] * (c - b)[:, None, None, None, :]
            d2 = np.sum((x - xp) ** 2, axis=4)
            lens = mesh.boundary_edge_lengths
            weights = np.power(d2, -0.5 * beta)
            weights *= (lens * np.roll(lens, -1))[:, None, None, None]
            weights *= _ADJ_W[None, :, :, None] * _ADJ_W[None, :, None, :]
            if self._keeps_pair_weights:
                weights.flags.writeable = False
                self._adjacent[beta] = weights
        return _ADJ_S, _ADJ_T, weights


def p1(mesh: Mesh) -> P1:
    """The P1 record of ``mesh``, created on first use and kept on the mesh."""
    if mesh.discretization is None:
        mesh.discretization = P1(mesh)
    return mesh.discretization


def interior_quadrature(mesh: Mesh):
    """Flattened interior quadrature points and weights."""
    _, qpts, qw = p1(mesh).interior
    return qpts.reshape(-1, 2), qw.reshape(-1)


def boundary_quadrature(mesh: Mesh):
    """Flattened boundary quadrature points and weights."""
    qpts, qw = p1(mesh).boundary
    return qpts.reshape(-1, 2), qw.reshape(-1)


def interp_interior(field: FEField) -> np.ndarray:
    """Field values at the interior quadrature points, shape (T, 3)."""
    if field.role != "domain":
        raise FieldError("interior interpolation expects a domain field")
    return field.values[field.mesh.triangles] @ _TRI_BASIS.T


def interp_boundary(field: FEField) -> np.ndarray:
    """Boundary-field values at the edge Gauss points, shape (B, 2)."""
    if field.role != "boundary":
        raise FieldError("boundary interpolation expects a boundary field")
    vals = field.values
    nb = field.mesh.n_boundary
    pair = np.stack([vals, np.roll(vals, -1)], axis=1)  # edge endpoints in loop order
    assert pair.shape == (nb, 2)
    return pair @ _EDGE_BASIS.T


@dataclass
class SparseOperator:
    """Square CSR matrix in canonical form (sorted, deduplicated indices)."""

    matrix: sp.csr_matrix

    def __post_init__(self) -> None:
        m = sp.csr_matrix(self.matrix)
        m.sum_duplicates()
        m.sort_indices()
        if m.shape[0] != m.shape[1]:
            raise AssemblyError(f"operator must be square, got {m.shape}")
        self.matrix = m

    @property
    def shape(self):
        return self.matrix.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return SparseOperator(self.matrix + other.matrix)


def _scatter(mesh: Mesh, local: np.ndarray) -> sp.csr_matrix:
    """Accumulate (T, 3, 3) local blocks into a global sparse matrix."""
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    cols = np.tile(tris, (1, 3)).reshape(-1)
    n = mesh.n_vertices
    return sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()


def assemble_operator(
    mesh: Mesh, spec: ProblemSpec, *, diffusion: bool = True, reaction: bool = True
) -> SparseOperator:
    """Galerkin matrix of the elliptic operator with natural boundary data.

    Coefficients are evaluated at the interior quadrature points; the
    coefficient matrix must be uniformly elliptic there (checked, raising
    :class:`AssemblyError` with the first offending location).  The flags
    allow mass-only or stiffness-only test assemblies.
    """
    grads, qpts, qw = p1(mesh).interior
    x1, x2 = qpts[..., 0], qpts[..., 1]
    n = mesh.n_vertices
    local = np.zeros((mesh.triangles.shape[0], 3, 3))

    if diffusion:
        a11 = spec.a11(x1, x2, 0.0)
        a12 = spec.a12(x1, x2, 0.0)
        a22 = spec.a22(x1, x2, 0.0)
        eig_min = 0.5 * (a11 + a22 - np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2))
        if np.min(eig_min) <= 0.0:
            t, q = np.unravel_index(int(np.argmin(eig_min)), eig_min.shape)
            raise AssemblyError(
                f"ellipticity violated at quadrature point "
                f"({qpts[t, q, 0]:.6g}, {qpts[t, q, 1]:.6g}): "
                f"min eigenvalue {eig_min[t, q]:.3e}"
            )
        w11 = np.sum(qw * a11, axis=1)
        w12 = np.sum(qw * a12, axis=1)
        w22 = np.sum(qw * a22, axis=1)
        gx, gy = grads[..., 0], grads[..., 1]
        local += (
            w11[:, None, None] * gx[:, :, None] * gx[:, None, :]
            + w22[:, None, None] * gy[:, :, None] * gy[:, None, :]
            + w12[:, None, None] * (gx[:, :, None] * gy[:, None, :] + gy[:, :, None] * gx[:, None, :])
        )

    if reaction:
        a0 = spec.a0(x1, x2, 0.0)
        local += np.einsum("tq,qi,qj->tij", qw * a0, _TRI_BASIS, _TRI_BASIS)

    return SparseOperator(_scatter(mesh, local))


def assemble_weighted_mass(mesh: Mesh, weight_at_quad: np.ndarray) -> SparseOperator:
    """Mass matrix with a weight given at the interior quadrature points (T, 3)."""
    _, _, qw = p1(mesh).interior
    local = np.einsum("tq,qi,qj->tij", qw * weight_at_quad, _TRI_BASIS, _TRI_BASIS)
    return SparseOperator(_scatter(mesh, local))


def assemble_boundary_weighted_mass(mesh: Mesh, weight_at_quad: np.ndarray) -> SparseOperator:
    """Boundary mass with a weight at the edge Gauss points (B, 2).

    Indexed in boundary-loop order; tridiagonal up to the loop wraparound.
    """
    _, qw = p1(mesh).boundary
    nb = mesh.n_boundary
    local = np.einsum("eq,qi,qj->eij", qw * weight_at_quad, _EDGE_BASIS, _EDGE_BASIS)
    idx = np.stack([np.arange(nb), (np.arange(nb) + 1) % nb], axis=1)
    rows = np.repeat(idx, 2, axis=1).reshape(-1)
    cols = np.tile(idx, (1, 2)).reshape(-1)
    return SparseOperator(
        sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(nb, nb)).tocsr()
    )


def lp_norm(field: FEField, p: float) -> float:
    """Integral p-norm of a P1 field, |.|^p interpolated at quadrature points."""
    if p < 1.0:
        raise FieldError(f"p-norm requires p >= 1, got {p}")
    if field.role == "domain":
        vals = interp_interior(field)
        _, _, qw = p1(field.mesh).interior
    else:
        vals = interp_boundary(field)
        _, qw = p1(field.mesh).boundary
    return float(np.sum(qw * np.abs(vals) ** p) ** (1.0 / p))


def gradient_per_triangle(field: FEField) -> np.ndarray:
    """Constant P1 gradient on each triangle, shape (T, 2)."""
    if field.role != "domain":
        raise FieldError("gradients are defined for domain fields")
    grads, _, _ = p1(field.mesh).interior
    return np.einsum("ti,tic->tc", field.values[field.mesh.triangles], grads)


def integrate_basis(mesh: Mesh, values_at_quad: np.ndarray) -> np.ndarray:
    """Load vector (g, phi_i) of a function g given at the interior quadrature points (T, 3)."""
    _, _, qw = p1(mesh).interior
    contrib = (qw * values_at_quad)[:, :, None] * _TRI_BASIS  # (T, q, i)
    rows = np.broadcast_to(mesh.triangles[:, None, :], contrib.shape)
    return np.bincount(rows.reshape(-1), weights=contrib.reshape(-1), minlength=mesh.n_vertices)


def solve_linear(op: SparseOperator, rhs: np.ndarray, rtol: float = CG_RTOL) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients for SPD operators.

    Converges to relative residual ``rtol`` or raises
    :class:`LinearSolveError` carrying the final residual after the
    iteration cap of 20 n.
    """
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    n = rhs.shape[0]
    diag = op.diagonal()
    if np.any(diag <= 0.0):
        raise LinearSolveError("operator diagonal is not positive", float("nan"))
    precond = spla.LinearOperator((n, n), matvec=lambda x: x / diag)
    x, info = spla.cg(op.matrix, rhs, rtol=rtol, atol=0.0, maxiter=CG_ITER_FACTOR * n, M=precond)
    residual = float(np.linalg.norm(rhs - op.matvec(x)) / rhs_norm)
    if info != 0 or not residual <= rtol * 10.0:
        raise LinearSolveError(
            f"conjugate gradients exhausted {CG_ITER_FACTOR * n} iterations "
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
    with open(path, "w") as fh:
        fh.write("MESHFIELD v1\n")
        fh.write(f"{coords.shape[0]}\n")
        for (x, y), v in zip(coords, field.values):
            fh.write(f"{x:.17g} {y:.17g} {v:.17g}\n")


def read_meshfield(path: str):
    """Read a MESHFIELD v1 file, returning (coords (n,2), values (n,))."""
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


def field_from_meshfield(mesh: Mesh, role: str, path: str) -> FEField:
    """Bind a MESHFIELD file to a mesh, verifying vertex coordinates."""
    coords, values = read_meshfield(path)
    probe = FEField(mesh, role, np.zeros(mesh.n_vertices if role == "domain" else mesh.n_boundary))
    ref = probe.coords()
    if coords.shape != ref.shape or not np.allclose(coords, ref, atol=1e-12, rtol=0.0):
        raise FieldError("MESHFIELD vertices do not match the mesh")
    return FEField(mesh, role, values)
