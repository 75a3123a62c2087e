"""Gagliardo seminorms and fractional Sobolev norms on the boundary curve.

The double integral over the boundary splits into three pair classes:
edge pairs that do not touch (tensor 2x2 Gauss), identical edges (the
gap-variable reduction of the P1 integrand, with a dyadic 1-D rule
graded toward zero gap), and adjacent edges (graded tensor cells refined
toward the shared-vertex corner of the parameter square, four dyadic
levels).  The weights of the first and last class depend on the mesh and
on beta = 1 + tau k only; they come from the mesh's :class:`fem.P1`
record (``far_field``, ``adjacent``), which keeps them per beta while the
whole Gauss-point pair table fits one chunk of ``fem.FAR_FIELD_PAIRS``
pairs and streams them otherwise.  A call here does the field work
only.  All reductions run in a fixed order, so results are
bit-reproducible for identical inputs.

Distances are chordal, matching the polygonal boundary representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .expressions import Expr, parse_expr
from .fem import DYADIC_LEVELS, FEField

__all__ = [
    "FracNormError",
    "FracNormReport",
    "gagliardo",
    "chain_rule_check",
    "product_check",
    "holder_embedding_probe",
    "HOLDER_LADDER",
]

HOLDER_LADDER = (2.0, 4.0, 8.0, 16.0)
FRACNORM_CSV_HEADER = "tau,k,level,seminorm,norm"


class FracNormError(ValueError):
    """Invalid fractional-norm parameters or a non-integrable evaluation."""


def _unit_gauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_G8_NODES, _G8_W = _unit_gauss(8)


def _gap_integral(gamma: float) -> float:
    """Evaluate the gap-variable factor of the same-edge contribution.

    This is the integral over (0,1) of 2(1-u) u^gamma with a dyadic
    partition graded toward u = 0 and 8-point Gauss per cell.
    """
    breaks = [1.0] + [2.0 ** (-m) for m in range(1, DYADIC_LEVELS + 1)] + [0.0]
    total = 0.0
    for hi, lo in zip(breaks[:-1], breaks[1:]):
        u = lo + (hi - lo) * _G8_NODES
        w = (hi - lo) * _G8_W
        total += float(np.sum(w * 2.0 * (1.0 - u) * u**gamma))
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

    # ordered non-touching pairs, 2x2 Gauss: |v_i - v_j|^k against the record's weights
    vq = fem.interp_boundary(v).reshape(-1)
    total = 0.0
    for rows, weights in rec.far_field(beta):
        num = np.subtract.outer(vq[rows], vq)
        np.abs(num, out=num)
        num **= k
        num *= weights
        total += float(np.sum(num))

    # same edge: the P1 integrand depends only on the parameter gap
    gap = _gap_integral(k - beta)
    total += float(np.sum(np.abs(succ - vals) ** k * lens ** (2.0 - beta))) * gap

    # adjacent edges: graded cells toward the shared-vertex corner (s,t)=(1,0)
    s, t, weights = rec.adjacent(beta)
    after = np.roll(vals, -2)
    fs = vals[:, None, None] + s * (succ - vals)[:, None, None]
    ft = succ[:, None, None] + t * (after - succ)[:, None, None]
    num = np.abs(fs[..., :, None] - ft[..., None, :]) ** k
    total += 2.0 * float(np.sum(num * weights))

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


def _superpose(a: Expr, v: FEField) -> FEField:
    coords = v.coords()
    out = np.asarray(a(coords[:, 0], coords[:, 1], v.values), dtype=float)
    return FEField(v.mesh, "boundary", np.broadcast_to(out, v.values.shape).copy())


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
    composed = _superpose(a, v)
    lhs = gagliardo(composed, tau, k).full_norm
    zero = FEField(v.mesh, "boundary", np.zeros_like(v.values))
    at_zero = _superpose(a, zero)
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

    Requires the exponent relations 1/k = 1/k1 + 1/k2 and
    0 < tau < min(tau1, tau2) exactly; returns (lhs, rhs_sans_C, ratio)
    with lhs the fractional norm of the nodal product and rhs the product
    of the factors' fractional norms.
    """
    if v1.mesh is not v2.mesh or v1.role != "boundary" or v2.role != "boundary":
        raise FracNormError("factors must be boundary fields on one mesh")
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


def holder_embedding_probe(v: FEField, k: float) -> float:
    """Gagliardo seminorm at the Lipschitz-limit order tau = 1 - 1/k.

    Evaluated over the ladder k in {2, 4, 8, 16} by callers, this probes
    membership of the boundary field in every fractional space below the
    Lipschitz threshold: bounded ladders under refinement indicate a
    Lipschitz limit, growing ladders a genuinely rougher one.
    """
    if not k > 1.0:
        raise FracNormError(f"the probe needs k > 1 so that tau = 1 - 1/k is admissible, got {k}")
    return gagliardo(v, 1.0 - 1.0 / k, k).seminorm_I
