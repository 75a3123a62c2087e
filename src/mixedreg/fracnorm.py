"""Gagliardo seminorms and fractional Sobolev norms on the boundary curve.

The double integral over the boundary splits into three pair classes:
edge pairs that do not touch (tensor 2x2 Gauss), identical edges (the
gap-variable reduction of the P1 integrand, with a dyadic 1-D rule
graded toward zero gap), and adjacent edges (graded tensor cells refined
toward the shared-vertex corner of the parameter square, four dyadic
levels).  This module owns every one of these pair rules: ``fem``
supplies the boundary quadrature, the Gauss-point values and the
``fem.pair_blocks`` staircase.  The weights of the first and last class
depend on the mesh and on beta = 1 + tau k only; they are built on every
call and never kept, so ``gagliardo`` takes every field of a pass at
once and builds the weights of its beta once for all of them.  The far
field's visit is a plain function of a block: the walk allocates its
tables, and the visit masks the near pairs from the block's own rows, so
it does not know the block height.  The integrand is
symmetric, so the far field walks the unordered Gauss-point pairs i < j
of the staircase, with the factor 2 in its weights.

The adjacent-edge rule subtracts no two nearby points.  On the edges
a -> b and b -> c, x(s) - x'(t) = (1 - s) e1 - t e2 with the edge
vectors e1 = a - b and e2 = c - b, so |x - x'|^2 is each vertex's Gram
row (|e1|^2, -2 e1.e2, |e2|^2) against the rule's three moments
((1-s)^2, (1-s) t, t^2): one (nb, 3) x (3, 208) product over the 208
nodes of its 13 cells.  Against the difference form evaluated in
extended precision these weights are within 1.4e-14 relative on a
2,048-edge loop; the difference form in float64 cancels near the shared
vertex and is off by up to 2e-11 there.  A field's differences follow
alike: f(s) - f(t) = (1 - s) d1 - t d2 with d1 = v_a - v_b and
d2 = v_c - v_b, so an offset field does not cancel either.

At k = 2 no pair-difference table is formed: |v_i - v_j|^2 expands, so
both weighted sums are quadratic forms in the field.  The far field
centres the Gauss-point values of every field and contracts each
staircase block with the columns w_j [c_1..c_F, c_1^2..c_F^2, 1] in one
BLAS product, the Gauss weights of the rows applied once after the walk;
the adjacent edges contract their weights with the three moments.  Other
k take the differences field by field: each far-field block's come from
the field's ``fem.difference_factors`` by one (rows, 2) x (2, cols)
product, exact as a subtraction, and a BLAS dot product reduces them
against the block's weights; the adjacent edges write each field's
differences by one (nb, 2) x (2, 208) product into one reused table.
Both weight tables raise their squared distances to -beta/2 through
``fem.power``, a reciprocal at beta = 2.  BLAS picks its kernels for the
CPU and the number of columns, so results are bit-reproducible on one
machine at a fixed BLAS thread count and batch, and their last bits can
differ between machines or batches; the far field's difference products are
exact on every kernel.

Distances are chordal, matching the polygonal boundary representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .expressions import parse_expr
from .fem import FEField

__all__ = [
    "FracNormError",
    "FracNormReport",
    "gagliardo",
    "chain_rule_check",
    "product_check",
]

# graded levels of the singular boundary pair rules
DYADIC_LEVELS = 4


class FracNormError(ValueError):
    """Invalid fractional-norm parameters or a non-integrable evaluation."""


def _gap_cells():
    """8-point Gauss nodes and weights per cell of the dyadic partition of (0,1) graded toward 0."""
    breaks = np.array([1.0] + [2.0 ** (-m) for m in range(1, DYADIC_LEVELS + 1)] + [0.0])
    hi, lo = breaks[:-1, None], breaks[1:, None]
    x, w = np.polynomial.legendre.leggauss(8)
    return lo + (hi - lo) * (0.5 * (x + 1.0)), (hi - lo) * (0.5 * w)


def _corner_cells():
    """Graded partition of the unit square toward the corner (1, 0), as rows (s0, t0, size)."""
    cells = []
    hot = (0.0, 0.0, 1.0)
    for _ in range(DYADIC_LEVELS):
        s0, t0, size = hot
        h = 0.5 * size
        corner = (s0 + h, t0)
        for child in ((s0, t0), (s0 + h, t0), (s0, t0 + h), (s0 + h, t0 + h)):
            if child != corner:
                cells.append((child[0], child[1], h))
        hot = (corner[0], corner[1], h)
    cells.append(hot)
    return np.array(cells)


_GAP_U, _GAP_W = _gap_cells()

# adjacent-edge pairs: 4x4 Gauss on each graded cell, as (cells, 4) node and weight tables
_G4_X, _G4_WX = np.polynomial.legendre.leggauss(4)
_G4_NODES, _G4_W = 0.5 * (_G4_X + 1.0), 0.5 * _G4_WX  # on (0, 1)
_ADJ_CELLS = _corner_cells()
_ADJ_S = _ADJ_CELLS[:, :1] + _ADJ_CELLS[:, 2:] * _G4_NODES
_ADJ_T = _ADJ_CELLS[:, 1:2] + _ADJ_CELLS[:, 2:] * _G4_NODES
_ADJ_W = _ADJ_CELLS[:, 2:] * _G4_W

# the rule's linear factors (1 - s, -t) and moments ((1 - s)^2, (1 - s) t, t^2) per (cell, s node,
# t node), as rows in the order of the flattened weights, and the product w_s w_t of the node weights
_ADJ_LINEAR = np.stack(np.broadcast_arrays(1.0 - _ADJ_S[:, :, None], -_ADJ_T[:, None, :])).reshape(2, -1)
_ADJ_MOMENTS = np.stack([_ADJ_LINEAR[0] ** 2, -_ADJ_LINEAR[0] * _ADJ_LINEAR[1], _ADJ_LINEAR[1] ** 2])
_ADJ_WW = (_ADJ_W[:, :, None] * _ADJ_W[:, None, :]).reshape(-1)


def _gap_integral(gamma: float) -> float:
    """Evaluate the gap-variable factor of the same-edge contribution.

    This is the integral over (0,1) of 2(1-u) u^gamma by the ``_gap_cells``
    rule, summed per cell and then over the cells in order.
    """
    return sum(np.sum(_GAP_W * 2.0 * (1.0 - _GAP_U) * _GAP_U**gamma, axis=1).tolist())


def _far_field(mesh, vq: np.ndarray, beta: float, k: float) -> np.ndarray:
    """Per field, the sum of the doubled far-field weights against |vq_i - vq_j|^k over the pairs i < j.

    ``vq`` holds one row of Gauss-point values per field.  Each block of
    the ``fem.pair_blocks`` staircase becomes the weights 1 / |x_i - x_j|^beta
    in place, times 2 w_i w_j at k != 2, zero for j <= i and for pairs from
    one edge or from adjacent edges.  Each block builds the mask of those
    pairs from its rows' Gauss-point indices, so every block height gives
    the same sums; at k != 2 the walk adds a difference table of the
    block's shape, which each field's ``fem.difference_factors`` fill.  At
    k = 2 each sum is a quadratic form in the values, centred first: with
    c = vq - mean(vq), row i of a block U adds c_i^2 sum_j U_ij + sum_j U_ij c_j^2 -
    2 c_i sum_j U_ij c_j, three sums that one product U w [c, c^2, 1] writes
    into row i of a table, which the walk's end scales by 2 w_i; the F
    fields share the ones column.
    Centring costs nothing for values within a factor 2 of their mean (the
    subtraction is exact) and keeps a large offset from cancelling in the
    expansion.  Other k add each block's dot products to the totals in
    block order.
    """
    qpts, qw = fem.p1(mesh).boundary
    nf = vq.shape[0]
    quadratic = k == 2.0
    if quadratic:
        c = vq - np.mean(vq, axis=1, keepdims=True)
        x = np.column_stack([*c, *(c * c), np.ones(c.shape[1])])
        x *= qw[:, None]
        p = np.zeros_like(x)
    else:
        left, right = fem.difference_factors(vq)

    def visit(rows, weights, tables):
        r0, n = rows.start, rows.stop - rows.start
        with np.errstate(divide="ignore"):
            fem.power(weights, -0.5 * beta, out=weights)
        if not quadratic:
            weights *= 2.0 * qw[rows, None]
            weights *= qw[None, r0:]
        # row i drops the columns j < 2 (i // 2) + 4: j <= i and the Gauss points of the row's
        # edge and of the next edge; those of the previous edge lie left of the diagonal
        cols = min(n + 3, weights.shape[1])
        weights[:, :cols][np.arange(r0, r0 + cols) < 2 * (np.arange(r0, rows.stop) // 2)[:, None] + 4] = 0.0
        # the first edge touches the last one across the start of the loop
        weights[: max(0, 2 - r0), -2:] = 0.0
        if quadratic:
            # no two blocks share a row of p
            np.matmul(weights, x[r0:], out=p[rows])
            return None
        (num,) = tables
        sums = np.empty(nf)
        for f in range(nf):
            np.matmul(left[f, rows], right[f, :, r0:], out=num)
            np.abs(num, out=num)
            if k != 1.0:
                num **= k
            sums[f] = np.vdot(num, weights)
        return sums

    blocks = fem.pair_blocks(qpts, visit, () if quadratic else (float,))
    if quadratic:
        p *= 2.0 * qw[:, None]
        p = p.T
        return np.sum(c * c * p[2 * nf] + p[nf : 2 * nf] - 2.0 * c * p[:nf], axis=1)
    totals = np.zeros(nf)
    for sums in blocks:
        totals += sums
    return totals


def _adjacent_weights(mesh, beta: float) -> np.ndarray:
    """Weights |e| |e+1| w_s w_t / |x - x'|^beta of the graded-cell rule, shape (nb, cells, 4, 4).

    Edge e runs from x(s) = a + s (b - a) and edge e + 1 from x'(t) = b +
    t (c - b), at the nodes ``_ADJ_S`` and ``_ADJ_T``; the cells grade
    toward the shared vertex (s, t) = (1, 0).  With the edge vectors
    e1 = a - b and e2 = c - b, x - x' = (1 - s) e1 - t e2, so |x - x'|^2 is
    the Gram row (|e1|^2, -2 e1.e2, |e2|^2) of each vertex against the
    rule's three moments: one (nb, 3) x (3, 208) product, which never
    subtracts two nearby points.
    """
    a = mesh.vertices[mesh.boundary_loop]
    b = np.roll(a, -1, axis=0)
    e1, e2 = a - b, np.roll(a, -2, axis=0) - b
    gram = np.stack([np.sum(e1 * e1, axis=1), -2.0 * np.sum(e1 * e2, axis=1), np.sum(e2 * e2, axis=1)], axis=1)
    weights = gram @ _ADJ_MOMENTS
    lens = mesh.boundary_edge_lengths
    fem.power(weights, -0.5 * beta, out=weights)
    weights *= (lens * np.roll(lens, -1))[:, None]
    weights *= _ADJ_WW
    return weights.reshape(a.shape[0], *_ADJ_S.shape, _G4_NODES.size)


def _adjacent(mesh, vals: np.ndarray, beta: float, k: float) -> np.ndarray:
    """Per field (row of ``vals``), the doubled sum of the graded-cell rule against |f_s - f_t|^k.

    On the adjacent edges e, e + 1, f_s - f_t = (1 - s) d1 - t d2 with
    d1 = v_e - v_{e+1} and d2 = v_{e+2} - v_{e+1}.  At k = 2 the square is
    d1^2 (1-s)^2 - 2 d1 d2 (1-s) t + d2^2 t^2, so each edge needs its
    weights' three moments only.  Other k write each field's differences
    into one reused (nb, 208) table by one (nb, 2) x (2, 208) product,
    and a BLAS dot product reduces it against the weights.
    """
    weights = _adjacent_weights(mesh, beta).reshape(mesh.n_boundary, -1)
    succ = np.roll(vals, -1, axis=1)
    d1, d2 = vals - succ, np.roll(vals, -2, axis=1) - succ
    if k == 2.0:
        a, b, c = (weights @ _ADJ_MOMENTS.T).T
        return 2.0 * np.sum(a * d1 * d1 - 2.0 * b * d1 * d2 + c * d2 * d2, axis=1)
    num = np.empty_like(weights)
    sums = np.empty(vals.shape[0])
    for f, d in enumerate(np.stack([d1, d2], axis=2)):
        np.matmul(d, _ADJ_LINEAR, out=num)
        np.abs(num, out=num)
        if k != 1.0:
            num **= k
        sums[f] = 2.0 * np.vdot(num, weights)
    return sums


@dataclass
class FracNormReport:
    """Seminorm and norm of one boundary field at one smoothness order."""

    tau: float
    k: float
    quadrature_level: int
    seminorm_I: float
    full_norm: float


def gagliardo(*fields: FEField, tau: float, k: float) -> list[FracNormReport]:
    """Gagliardo seminorms and fractional norms of boundary fields, one report per field.

    Every field must be a boundary field on one mesh; the weights of
    beta = 1 + tau k are built once for all of them.  Requires
    0 < tau < 1 and k >= 1.  P1 fields are Lipschitz along the polygon,
    so the double integral is finite on this whole range; a non-finite
    accumulation or L^k part (degenerate geometry, or values whose k-th
    powers overflow) raises :class:`FracNormError`.
    """
    if not fields:
        raise FracNormError("Gagliardo seminorm needs at least one boundary field")
    mesh = fields[0].mesh
    if any(v.role != "boundary" or v.mesh is not mesh for v in fields):
        raise FracNormError("Gagliardo seminorm is defined for boundary fields on one mesh")
    if not 0.0 < tau < 1.0:
        raise FracNormError(f"smoothness order tau must lie in (0, 1), got {tau}")
    if not k >= 1.0:
        raise FracNormError(f"integrability exponent k must be >= 1, got {k}")

    beta = 1.0 + tau * k
    lens = mesh.boundary_edge_lengths
    vals = np.stack([v.values for v in fields])
    rec = fem.p1(mesh)
    vq = rec.at_boundary(vals)

    # an overflow shows as a non-finite total or L^k part, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        # non-touching pairs i < j, 2x2 Gauss
        totals = _far_field(mesh, vq, beta, k)

        # same edge: the P1 integrand depends only on the parameter gap
        gap = _gap_integral(k - beta)
        totals += np.sum(np.abs(np.roll(vals, -1, axis=1) - vals) ** k * lens ** (2.0 - beta), axis=1) * gap

        # adjacent edges: graded cells toward the shared-vertex corner (s,t)=(1,0)
        totals += _adjacent(mesh, vals, beta, k)

        # the L^k part of each norm from the same Gauss-point values
        lk = np.sum(rec.boundary[1] * np.abs(vq) ** k, axis=1)

    if not (np.all(np.isfinite(totals)) and np.all(np.isfinite(lk))):
        raise FracNormError("Gagliardo accumulation is not finite")
    return [
        FracNormReport(
            tau=tau,
            k=k,
            quadrature_level=mesh.refinement_level,
            seminorm_I=float(total),
            full_norm=(float(part) + float(total)) ** (1.0 / k),
        )
        for part, total in zip(lk, totals)
    ]


def chain_rule_check(a, fields, tau: float, k: float) -> list:
    """Measured constants of the superposition bound, one per field.

    Composes ``a`` with each field nodally and compares its fractional
    norm against the constant-free bound: the field's fractional norm
    plus the L^k norm of a(., 0) plus one.  The fields share one mesh,
    and one ``gagliardo`` call measures the fields and their compositions.
    Returns one (lhs, rhs_bound_sans_C, ratio) per field; boundedness and
    refinement stability of the ratio are the testable content of the
    bound.
    """
    if isinstance(a, str):
        a = parse_expr(a)
    # FEField refuses the values an overflowing composition leaves
    with np.errstate(over="ignore"):
        composed = [FEField(v.mesh, "boundary", fem.nodal(a, v)) for v in fields]
    reports = gagliardo(*composed, *fields, tau=tau, k=k)
    mesh = fields[0].mesh
    zero = FEField(mesh, "boundary", np.zeros(mesh.n_boundary))
    with np.errstate(over="ignore"):
        at_zero = fem.lp_norm(FEField(mesh, "boundary", fem.nodal(a, zero)), k)
    checks = []
    for lhs, norm in zip(reports[: len(fields)], reports[len(fields) :]):
        rhs = norm.full_norm + at_zero + 1.0
        checks.append((lhs.full_norm, rhs, lhs.full_norm / rhs))
    return checks


def product_check(
    pairs,
    tau: float,
    tau1: float,
    tau2: float,
    k: float,
    k1: float,
    k2: float,
) -> list:
    """Measured constants of the pointwise-product bound, one per pair of factors.

    Requires k, k1, k2 >= 1, the exponent relations 1/k = 1/k1 + 1/k2 and
    0 < tau < min(tau1, tau2) exactly; returns one (lhs, rhs_sans_C,
    ratio) per pair (v1, v2), with lhs the fractional norm of the nodal
    product and rhs the product of the factors' fractional norms.  The
    factors are boundary fields on one mesh, and each distinct (tau, k)
    takes one ``gagliardo`` call over every field measured at it.
    """
    if any(v1.mesh is not v2.mesh or v1.role != "boundary" or v2.role != "boundary" for v1, v2 in pairs):
        raise FracNormError("factors must be boundary fields on one mesh")
    if not all(e >= 1.0 for e in (k, k1, k2)):
        raise FracNormError(f"integrability exponents must be >= 1, got k={k}, k1={k1}, k2={k2}")
    if abs(1.0 / k - 1.0 / k1 - 1.0 / k2) > 1e-12:
        raise FracNormError(
            f"integrability exponents must satisfy 1/k = 1/k1 + 1/k2, got k={k}, k1={k1}, k2={k2}"
        )
    if not 0.0 < tau < min(tau1, tau2):
        raise FracNormError(
            f"smoothness orders must satisfy 0 < tau < min(tau1, tau2), got {tau} vs ({tau1}, {tau2})"
        )
    wanted = [
        ((tau, k), [FEField(v1.mesh, "boundary", v1.values * v2.values) for v1, v2 in pairs]),
        ((tau1, k1), [v1 for v1, _ in pairs]),
        ((tau2, k2), [v2 for _, v2 in pairs]),
    ]
    batches = {}
    for order, fs in wanted:
        batches.setdefault(order, []).extend(fs)
    # each batch's reports come back in the order its fields went in
    reports = {order: iter(gagliardo(*fs, tau=order[0], k=order[1])) for order, fs in batches.items()}
    lhs, n1, n2 = ([next(reports[order]).full_norm for _ in pairs] for order, _ in wanted)
    checks = []
    for left, a, b in zip(lhs, n1, n2):
        right = a * b
        if right > 0.0:
            ratio = left / right
        else:
            ratio = 0.0 if left == 0.0 else float("inf")
        checks.append((left, right, ratio))
    return checks
