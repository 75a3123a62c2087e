"""Gagliardo seminorms and fractional Sobolev norms on the boundary curve.

The double integral over the boundary splits into three pair classes:
edge pairs that do not touch (tensor 2x2 Gauss), identical edges (the
gap-variable reduction of the P1 integrand, with a dyadic 1-D rule
graded toward zero gap), and adjacent edges (graded tensor cells refined
toward the shared-vertex corner of the parameter square, four dyadic
levels).  The weights of the first and last class depend on the mesh and
on beta = 1 + tau k only; they come from the mesh's :class:`fem.P1`
record (``far_field``, ``adjacent``), which keeps them for the few most
recent betas while the whole Gauss-point pair table fits one chunk of
``fem.FAR_FIELD_PAIRS`` pairs and streams them otherwise.  The integrand
is symmetric, so the far field walks the unordered Gauss-point pairs i < j
of the ``fem.pair_blocks`` staircase, with the factor 2 in its weights.  A
call does the field work only, in place.

At k = 2 no pair-difference table is formed: |v_i - v_j|^2 expands, so
both weighted sums are quadratic forms in the field.  The far field
centres the Gauss-point values and contracts each staircase block with
the three columns [c, c^2, 1] in one BLAS product; the adjacent edges
contract their weights with the three moments ((1-s)^2, (1-s) t, t^2)
of the graded-cell nodes.  Other k take the differences, and a BLAS dot
product reduces them against the weights.  BLAS picks its kernels for
the CPU, so results are bit-reproducible on one machine at a fixed BLAS
thread count, and their last bits can differ between machines.

Distances are chordal, matching the polygonal boundary representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .expressions import parse_expr
from .fem import DYADIC_LEVELS, FEField

__all__ = [
    "FracNormError",
    "FracNormReport",
    "gagliardo",
    "chain_rule_check",
    "product_check",
]

FRACNORM_CSV_HEADER = "tau,k,level,seminorm,norm"


class FracNormError(ValueError):
    """Invalid fractional-norm parameters or a non-integrable evaluation."""


def _gap_cells():
    """8-point Gauss nodes and weights per cell of the dyadic partition of (0,1) graded toward 0."""
    breaks = np.array([1.0] + [2.0 ** (-m) for m in range(1, DYADIC_LEVELS + 1)] + [0.0])
    hi, lo = breaks[:-1, None], breaks[1:, None]
    x, w = np.polynomial.legendre.leggauss(8)
    return lo + (hi - lo) * (0.5 * (x + 1.0)), (hi - lo) * (0.5 * w)


_GAP_U, _GAP_W = _gap_cells()


def _gap_integral(gamma: float) -> float:
    """Evaluate the gap-variable factor of the same-edge contribution.

    This is the integral over (0,1) of 2(1-u) u^gamma by the ``_gap_cells``
    rule, summed per cell and then over the cells in order.
    """
    return sum(np.sum(_GAP_W * 2.0 * (1.0 - _GAP_U) * _GAP_U**gamma, axis=1).tolist())


def _far_field(rec: fem.P1, vq: np.ndarray, beta: float, k: float) -> float:
    """Sum of the doubled far-field weights against |vq_i - vq_j|^k over the pairs i < j.

    At k = 2 the sum is a quadratic form in the values, centred first:
    with c = vq - mean(vq), row i of a staircase block U adds
    c_i^2 sum_j U_ij + sum_j U_ij c_j^2 - 2 c_i sum_j U_ij c_j, three
    sums that one product U [c, c^2, 1] writes into row i of a (2 nb, 3)
    table.  Centring costs nothing for values within a factor 2 of their
    mean (the subtraction is exact) and keeps a large offset from
    cancelling in the expansion.
    """
    if k == 2.0:
        c = vq - np.mean(vq)
        x = np.stack([c, c * c, np.ones_like(c)], axis=1)
        p = np.zeros_like(x)
        for rows, weights in rec.far_field(beta):
            np.matmul(weights, x[rows.start :], out=p[rows])
        return float(np.sum(c * c * p[:, 2] + p[:, 1] - 2.0 * c * p[:, 0]))
    total = 0.0
    for rows, weights in rec.far_field(beta):
        num = np.subtract.outer(vq[rows], vq[rows.start :])
        np.abs(num, out=num)
        if k != 1.0:
            num **= k
        total += float(np.vdot(num, weights))
    return total


@dataclass
class FracNormReport:
    """Seminorm and norm of one boundary field at one smoothness order."""

    tau: float
    k: float
    quadrature_level: int
    seminorm_I: float
    full_norm: float


def gagliardo(v: FEField, tau: float, k: float) -> FracNormReport:
    """Gagliardo seminorm and fractional norm of a boundary field.

    Requires 0 < tau < 1 and k >= 1.  P1 fields are Lipschitz along the
    polygon, so the double integral is finite on this whole range; a
    non-finite accumulation (only possible for degenerate geometry)
    raises :class:`FracNormError`.
    """
    if v.role != "boundary":
        raise FracNormError("Gagliardo seminorm is defined for boundary fields")
    if not 0.0 < tau < 1.0:
        raise FracNormError(f"smoothness order tau must lie in (0, 1), got {tau}")
    if not k >= 1.0:
        raise FracNormError(f"integrability exponent k must be >= 1, got {k}")

    mesh = v.mesh
    rec = fem.p1(mesh)
    beta = 1.0 + tau * k
    lens = mesh.boundary_edge_lengths
    vals = v.values
    succ = np.roll(vals, -1)

    # non-touching pairs i < j, 2x2 Gauss
    total = _far_field(rec, fem.interp_boundary(v), beta, k)

    # same edge: the P1 integrand depends only on the parameter gap
    gap = _gap_integral(k - beta)
    total += float(np.sum(np.abs(succ - vals) ** k * lens ** (2.0 - beta))) * gap

    # adjacent edges: graded cells toward the shared-vertex corner (s,t)=(1,0)
    s, t, moments, weights = rec.adjacent(beta)
    after = np.roll(vals, -2)
    if k == 2.0:
        # f_s - f_t = (1 - s) d1 - t d2 with d1 = v_e - v_{e+1}, d2 = v_{e+2} - v_{e+1}: the
        # square is d1^2 (1-s)^2 - 2 d1 d2 (1-s) t + d2^2 t^2, so each edge needs its weights'
        # three moments only
        d1, d2 = vals - succ, after - succ
        a, b, c = (weights.reshape(vals.size, -1) @ moments).T
        total += 2.0 * float(np.sum(a * d1 * d1 - 2.0 * b * d1 * d2 + c * d2 * d2))
    else:
        fs = vals[:, None, None] + s * (succ - vals)[:, None, None]
        ft = succ[:, None, None] + t * (after - succ)[:, None, None]
        num = np.subtract(fs[..., :, None], ft[..., None, :])
        np.abs(num, out=num)
        if k != 1.0:
            num **= k
        total += 2.0 * float(np.vdot(num, weights))

    if not np.isfinite(total):
        raise FracNormError("Gagliardo accumulation is not finite")
    lp_k = fem.lp_norm(v, k) ** k
    return FracNormReport(
        tau=tau,
        k=k,
        quadrature_level=mesh.refinement_level,
        seminorm_I=total,
        full_norm=(lp_k + total) ** (1.0 / k),
    )


def chain_rule_check(a, v: FEField, tau: float, k: float):
    """Measured constant of the superposition bound.

    Composes ``a`` with the field nodally and compares its fractional
    norm against the constant-free bound: the field's fractional norm
    plus the L^k norm of a(., 0) plus one.  Returns
    (lhs, rhs_bound_sans_C, ratio); boundedness and refinement stability
    of the ratio are the testable content of the bound.
    """
    if isinstance(a, str):
        a = parse_expr(a)
    composed = FEField(v.mesh, "boundary", fem.nodal(a, v))
    lhs = gagliardo(composed, tau, k).full_norm
    zero = FEField(v.mesh, "boundary", np.zeros_like(v.values))
    at_zero = FEField(v.mesh, "boundary", fem.nodal(a, zero))
    rhs = gagliardo(v, tau, k).full_norm + fem.lp_norm(at_zero, k) + 1.0
    return lhs, rhs, lhs / rhs


def product_check(
    v1: FEField,
    v2: FEField,
    tau: float,
    tau1: float,
    tau2: float,
    k: float,
    k1: float,
    k2: float,
):
    """Measured constant of the pointwise-product bound.

    Requires k, k1, k2 >= 1, the exponent relations 1/k = 1/k1 + 1/k2 and
    0 < tau < min(tau1, tau2) exactly; returns (lhs, rhs_sans_C, ratio)
    with lhs the fractional norm of the nodal product and rhs the product
    of the factors' fractional norms.
    """
    if v1.mesh is not v2.mesh or v1.role != "boundary" or v2.role != "boundary":
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
    product = FEField(v1.mesh, "boundary", v1.values * v2.values)
    lhs = gagliardo(product, tau, k).full_norm
    rhs = gagliardo(v1, tau1, k1).full_norm * gagliardo(v2, tau2, k2).full_norm
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else float("inf")
    return lhs, rhs, ratio
