"""Optimality system for the mixed-constrained control problem.

This module carries the optimization core: the cost functional, the
adjoint-based reduced gradient, the constraint maps written through the
inverted reparametrizations, multiplier recovery on active sets, the
projection form of optimal controls, a residual-based optimality report,
a damped fixed-point solver, and a constructive surjectivity check for
the linearized constraints.

Only strictly increasing reparametrizations are supported end to end;
the three mirrored sign cases are rejected with a diagnostic rather than
silently producing a wrong projection.

Matrices and load vectors (M, M_b, the trace matrix T, M f + T^T M_b g)
are read from the mesh's :class:`fem.P1` record, their single owner; the
state operator and its linearization come from ``solvers``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .catalog import ProblemSpec, SpecError, delta_value, delta_inverse, invert_monotone
from .fem import FEField
from .solvers import (
    ExponentTable,
    exponents,
    linearized_matrix,
    semilinear_operator,
    solve_adjoint,
    solve_linearized,
    solve_state,
)

__all__ = [
    "KKTState",
    "KKTReport",
    "HISTORY_HEADER",
    "objective",
    "reduced_gradient",
    "constraint_values",
    "multipliers_from_phi",
    "project_controls",
    "kkt_residual",
    "solve_kkt",
    "robinson_check",
]

ACTIVE_TOL = 1e-8
KKT_TOL = 1e-7
CONTROL_CHANGE_TOL = 1e-9
HISTORY_HEADER = "iter,obj,stat_u,stat_v,comp_u,comp_v,feas_u,feas_v"

_RESIDUAL_KEYS = (
    "stationarity_u",
    "stationarity_v",
    "complementarity_u",
    "complementarity_v",
    "feasibility_u",
    "feasibility_v",
    "state_residual",
    "adjoint_residual",
)


@dataclass
class KKTState:
    """One snapshot of all primal and dual fields plus active-set masks."""

    y: FEField
    phi: FEField
    psi1: FEField
    u: FEField
    v: FEField
    psi2: FEField
    active_domain: np.ndarray
    active_boundary: np.ndarray

    def __post_init__(self) -> None:
        mesh = self.y.mesh
        for name in ("y", "phi", "psi1", "u"):
            f = getattr(self, name)
            if f.role != "domain" or f.mesh is not mesh:
                raise fem.FieldError(f"{name} must be a domain field on the common mesh")
        for name in ("v", "psi2"):
            f = getattr(self, name)
            if f.role != "boundary" or f.mesh is not mesh:
                raise fem.FieldError(f"{name} must be a boundary field on the common mesh")
        self.active_domain = np.asarray(self.active_domain, dtype=bool)
        self.active_boundary = np.asarray(self.active_boundary, dtype=bool)
        if self.active_domain.shape != (mesh.n_vertices,):
            raise fem.FieldError("active_domain mask has the wrong shape")
        if self.active_boundary.shape != (mesh.n_boundary,):
            raise fem.FieldError("active_boundary mask has the wrong shape")


@dataclass
class KKTReport:
    """Objective value and max-norm residuals of the optimality conditions."""

    objective: float
    residuals: dict
    exponent_table: ExponentTable
    iterations: int
    converged: bool
    history: list = field(default_factory=list)

    def __post_init__(self) -> None:
        missing = [k for k in _RESIDUAL_KEYS if k not in self.residuals]
        if missing:
            raise ValueError(f"residual dictionary is missing {missing}")

    @property
    def max_residual(self) -> float:
        return max(self.residuals[k] for k in _RESIDUAL_KEYS)

    def to_text(self) -> str:
        """Flat key-value document with all scalar report content."""
        doc = {"objective": self.objective}
        doc.update({k: self.residuals[k] for k in _RESIDUAL_KEYS})
        doc.update(
            {
                "iterations": self.iterations,
                "converged": self.converged,
                "r": self.exponent_table.r,
                "s": self.exponent_table.s,
                "conjugacy_slack": self.exponent_table.conjugacy_slack,
            }
        )
        return json.dumps(doc, indent=2)

    def history_csv(self) -> str:
        lines = [HISTORY_HEADER]
        for row in self.history:
            lines.append(f"{int(row[0])}," + ",".join(f"{x:.17g}" for x in row[1:]))
        return "\n".join(lines) + "\n"


def _require_increasing(spec: ProblemSpec) -> None:
    d1, d2 = spec.zeta1.direction, spec.zeta2.direction
    if d1 == "increasing" and d2 == "increasing":
        return
    raise SpecError(
        "only strictly increasing reparametrizations are supported by the "
        f"projection and fixed-point solver; got zeta1 {d1}, zeta2 {d2}. "
        "Decreasing variants flip the feasible cone and need mirrored "
        "formulas that are deliberately not implemented."
    )


def _check_state_fields(y: FEField, u: FEField, v: FEField):
    if y.role != "domain" or u.role != "domain" or v.role != "boundary":
        raise fem.FieldError("expected domain state, domain control, boundary control")
    if u.mesh is not y.mesh or v.mesh is not y.mesh:
        raise fem.FieldError("fields live on different meshes")
    return y.mesh


def _g1_nodal(spec: ProblemSpec, y: FEField) -> np.ndarray:
    xy = y.mesh.vertices
    return np.asarray(spec.g1(xy[:, 0], xy[:, 1], y.values), dtype=float)


def _g2_nodal(spec: ProblemSpec, y: FEField) -> np.ndarray:
    loop = y.mesh.boundary_loop
    xy = y.mesh.vertices[loop]
    return np.asarray(spec.g2(xy[:, 0], xy[:, 1], y.values[loop]), dtype=float)


def _bound_u(spec: ProblemSpec, y: FEField) -> np.ndarray:
    """Nodal control bound induced by the interior mixed constraint."""
    return invert_monotone(spec.zeta1, -_g1_nodal(spec, y))


def _bound_v(spec: ProblemSpec, y: FEField) -> np.ndarray:
    return invert_monotone(spec.zeta2, -_g2_nodal(spec, y))


def objective(spec: ProblemSpec, y: FEField, u: FEField, v: FEField) -> float:
    """Cost functional: tracking plus convex control costs, by quadrature."""
    mesh = _check_state_fields(y, u, v)
    xq, wq = fem.interior_quadrature(mesh)
    yq = fem.interp_interior(y).reshape(-1)
    uq = fem.interp_interior(u).reshape(-1)
    dom = (
        spec.L(xq[:, 0], xq[:, 1], yq)
        + 0.5 * spec.lambda1 * uq**2
        + (spec.lambda2 / spec.p) * np.abs(uq) ** spec.p
    )
    xb, wb = fem.boundary_quadrature(mesh)
    yb = fem.interp_boundary(fem.trace(y)).reshape(-1)
    vq = fem.interp_boundary(v).reshape(-1)
    bnd = (
        spec.ell(xb[:, 0], xb[:, 1], yb)
        + 0.5 * spec.mu1 * vq**2
        + (spec.mu2 / spec.q) * np.abs(vq) ** spec.q
    )
    return float(np.sum(wq * dom) + np.sum(wb * bnd))


def reduced_gradient(spec: ProblemSpec, u: FEField, v: FEField):
    """L2 Riesz representatives of the unconstrained cost gradient.

    Solves the state equation, then the adjoint problem driven by the
    tracking derivatives, and returns nodal fields
    (phi + slope of the interior control cost, trace(phi) + boundary
    analogue).
    """
    rep = solve_state(spec, u, v)
    y = rep.state
    mesh = y.mesh
    xy = mesh.vertices
    rhs_d = FEField(mesh, "domain", spec.L_y(xy[:, 0], xy[:, 1], y.values))
    loop = mesh.boundary_loop
    xb = xy[loop]
    rhs_b = FEField(mesh, "boundary", spec.ell_y(xb[:, 0], xb[:, 1], y.values[loop]))
    phi = solve_adjoint(spec, y, rhs_d, rhs_b)
    gu = FEField(mesh, "domain", phi.values + delta_value(1, spec, u.values))
    gv = FEField(mesh, "boundary", phi.values[loop] + delta_value(2, spec, v.values))
    return gu, gv


def constraint_values(spec: ProblemSpec, y: FEField, u: FEField, v: FEField):
    """Nodal constraint maps: control minus the state-dependent bound.

    For increasing reparametrizations, pointwise feasibility of the mixed
    constraints is equivalent to both returned fields being <= 0.
    """
    mesh = _check_state_fields(y, u, v)
    G1 = FEField(mesh, "domain", u.values - _bound_u(spec, y))
    G2 = FEField(mesh, "boundary", v.values - _bound_v(spec, y))
    return G1, G2


def _active_masks(spec: ProblemSpec, y: FEField, u: FEField, v: FEField, active_tol: float):
    g1v = _g1_nodal(spec, y)
    g2v = _g2_nodal(spec, y)
    res1 = np.asarray(spec.zeta1.value(u.values)) + g1v
    res2 = np.asarray(spec.zeta2.value(v.values)) + g2v
    tol1 = active_tol * max(1.0, float(np.max(np.abs(g1v))))
    tol2 = active_tol * max(1.0, float(np.max(np.abs(g2v))))
    return np.abs(res1) <= tol1, np.abs(res2) <= tol2


def multipliers_from_phi(
    spec: ProblemSpec,
    y: FEField,
    u: FEField,
    v: FEField,
    phi: FEField,
    active_tol: float = ACTIVE_TOL,
):
    """Recover inequality multipliers from the adjoint state.

    Active sets are detected from the constraint residual with a relative
    tolerance; on them the multiplier is minus the control-stationarity
    defect divided by the reparametrization slope, zero elsewhere.
    Returns (psi1, psi2, active_domain, active_boundary).
    """
    mesh = _check_state_fields(y, u, v)
    mask1, mask2 = _active_masks(spec, y, u, v, active_tol)

    psi1 = np.zeros(mesh.n_vertices)
    if np.any(mask1):
        b1 = _bound_u(spec, y)[mask1]
        slope1 = np.asarray(spec.zeta1.slope(u.values[mask1]))
        psi1[mask1] = -(phi.values[mask1] + delta_value(1, spec, b1)) / slope1

    psi2 = np.zeros(mesh.n_boundary)
    if np.any(mask2):
        b2 = _bound_v(spec, y)[mask2]
        slope2 = np.asarray(spec.zeta2.slope(v.values[mask2]))
        trace_phi = phi.values[mesh.boundary_loop][mask2]
        psi2[mask2] = -(trace_phi + delta_value(2, spec, b2)) / slope2

    return (
        FEField(mesh, "domain", psi1),
        FEField(mesh, "boundary", psi2),
        mask1,
        mask2,
    )


def project_controls(spec: ProblemSpec, y: FEField, phi: FEField):
    """Optimal controls as projections of the unconstrained minimizers.

    The unconstrained minimizer inverts the control cost slope at minus
    the adjoint; projecting its offset from the constraint bound onto the
    nonpositive half-line enforces feasibility exactly.
    """
    _require_increasing(spec)
    mesh = y.mesh
    if phi.role != "domain" or phi.mesh is not mesh:
        raise fem.FieldError("adjoint must be a domain field on the state's mesh")

    w1 = delta_inverse(1, spec, -phi.values)
    b1 = _bound_u(spec, y)
    u = np.minimum(w1 - b1, 0.0) + b1

    w2 = delta_inverse(2, spec, -phi.values[mesh.boundary_loop])
    b2 = _bound_v(spec, y)
    v = np.minimum(w2 - b2, 0.0) + b2

    return FEField(mesh, "domain", u), FEField(mesh, "boundary", v)


def _adjoint_rhs(spec: ProblemSpec, y: FEField, psi1: FEField, psi2: FEField):
    mesh = y.mesh
    xy = mesh.vertices
    rhs_d = spec.L_y(xy[:, 0], xy[:, 1], y.values) + spec.g1_y(
        xy[:, 0], xy[:, 1], y.values
    ) * psi1.values
    loop = mesh.boundary_loop
    xb = xy[loop]
    yb = y.values[loop]
    rhs_b = spec.ell_y(xb[:, 0], xb[:, 1], yb) + spec.g2_y(xb[:, 0], xb[:, 1], yb) * psi2.values
    return (
        FEField(mesh, "domain", np.broadcast_to(np.asarray(rhs_d, dtype=float), (mesh.n_vertices,)).copy()),
        FEField(mesh, "boundary", np.broadcast_to(np.asarray(rhs_b, dtype=float), (mesh.n_boundary,)).copy()),
    )


def kkt_residual(
    spec: ProblemSpec,
    state: KKTState,
    kkt_tol: float = KKT_TOL,
    active_tol: float = ACTIVE_TOL,
    linearized: fem.SparseOperator | None = None,
) -> KKTReport:
    """Max-norm residuals of every first-order optimality condition.

    Stationarity and complementarity are evaluated nodally, feasibility as
    the positive part of the constraint maps, and the state and adjoint
    residuals as the algebraic defects of their discrete systems.  The
    adjoint defect uses ``linearized`` when given, which must be
    ``linearized_matrix(spec, state.y)``.
    """
    y, u, v, phi, psi1, psi2 = state.y, state.u, state.v, state.phi, state.psi1, state.psi2
    mesh = _check_state_fields(y, u, v)
    loop = mesh.boundary_loop

    slope1 = np.asarray(spec.zeta1.slope(u.values))
    slope2 = np.asarray(spec.zeta2.slope(v.values))
    stat_u = delta_value(1, spec, u.values) + phi.values + slope1 * psi1.values
    stat_v = delta_value(2, spec, v.values) + phi.values[loop] + slope2 * psi2.values

    g1v = _g1_nodal(spec, y)
    g2v = _g2_nodal(spec, y)
    comp_u = psi1.values * (np.asarray(spec.zeta1.value(u.values)) + g1v)
    comp_v = psi2.values * (np.asarray(spec.zeta2.value(v.values)) + g2v)

    G1, G2 = constraint_values(spec, y, u, v)
    feas_u = max(0.0, float(np.max(G1.values)))
    feas_v = max(0.0, float(np.max(G2.values)))

    rec = fem.p1(mesh)
    state_defect = semilinear_operator(spec, y) - rec.load(u.values, v.values)

    rhs_d, rhs_b = _adjoint_rhs(spec, y, psi1, psi2)
    if linearized is None:
        linearized = linearized_matrix(spec, y)
    adj_defect = linearized.matvec(phi.values) - rec.load(rhs_d.values, rhs_b.values)

    residuals = {
        "stationarity_u": float(np.max(np.abs(stat_u))),
        "stationarity_v": float(np.max(np.abs(stat_v))),
        "complementarity_u": float(np.max(np.abs(comp_u))),
        "complementarity_v": float(np.max(np.abs(comp_v))),
        "feasibility_u": feas_u,
        "feasibility_v": feas_v,
        "state_residual": float(np.max(np.abs(state_defect))),
        "adjoint_residual": float(np.max(np.abs(adj_defect))),
    }
    table = exponents(float(spec.N), spec.p, spec.q)
    converged = all(residuals[k] <= kkt_tol for k in _RESIDUAL_KEYS)
    return KKTReport(
        objective=objective(spec, y, u, v),
        residuals=residuals,
        exponent_table=table,
        iterations=0,
        converged=converged,
    )


def solve_kkt(
    spec: ProblemSpec,
    initial,
    damping: float = 0.5,
    max_iter: int = 200,
    kkt_tol: float = KKT_TOL,
    active_tol: float = ACTIVE_TOL,
):
    """Damped fixed-point iteration on the full optimality system.

    Each sweep solves the state for the current controls, recovers
    multipliers with the previous adjoint, solves the adjoint, projects,
    and blends controls with the damping factor.  Stops when the control
    update stalls below 1e-9 or every residual is within ``kkt_tol``.
    Convergence is not guaranteed; the best iterate by maximal residual
    is returned with an honest flag.  Returns (KKTState, KKTReport).
    """
    _require_increasing(spec)
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    u, v = initial
    mesh = _check_state_fields(fem.domain_field(u.mesh, 0.0), u, v)

    phi = fem.domain_field(mesh, 0.0)
    history: list = []
    best = None
    iterations = 0

    for k in range(1, max_iter + 1):
        iterations = k
        y = solve_state(spec, u, v).state
        psi1, psi2, mask1, mask2 = multipliers_from_phi(spec, y, u, v, phi, active_tol)
        rhs_d, rhs_b = _adjoint_rhs(spec, y, psi1, psi2)
        # one linearized matrix per sweep, shared by the adjoint solve and its residual
        linearized = linearized_matrix(spec, y)
        phi = solve_adjoint(spec, y, rhs_d, rhs_b, linearized)

        snapshot = KKTState(y, phi, psi1, u, v, psi2, mask1, mask2)
        report = kkt_residual(spec, snapshot, kkt_tol, active_tol, linearized)
        history.append(
            (
                k,
                report.objective,
                report.residuals["stationarity_u"],
                report.residuals["stationarity_v"],
                report.residuals["complementarity_u"],
                report.residuals["complementarity_v"],
                report.residuals["feasibility_u"],
                report.residuals["feasibility_v"],
            )
        )
        if best is None or report.max_residual < best[1].max_residual:
            best = (snapshot, report)
        if report.converged:
            break

        u_proj, v_proj = project_controls(spec, y, phi)
        u_next = (1.0 - damping) * u.values + damping * u_proj.values
        v_next = (1.0 - damping) * v.values + damping * v_proj.values
        change = max(
            float(np.max(np.abs(u_next - u.values))),
            float(np.max(np.abs(v_next - v.values))),
        )
        u = FEField(mesh, "domain", u_next)
        v = FEField(mesh, "boundary", v_next)
        if change <= CONTROL_CHANGE_TOL:
            break

    state, report = best
    report.iterations = iterations
    report.history = history
    return state, report


def robinson_check(spec: ProblemSpec, z, z0) -> float:
    """Constructive surjectivity check of the linearized constraint maps.

    For targets (u0, v0), an auxiliary reaction-shifted solve produces a
    feasible-direction pair whose constraint linearization must reproduce
    the targets; returns the max-norm mismatch over both components.  The
    reaction shifts divide the constraint slopes by the reparametrization
    slopes at the bound, so the shifted problem is well posed whenever the
    combined sign condition holds (verified by ``check_assumptions``).
    """
    u, v = z
    u0, v0 = z0
    mesh = _check_state_fields(fem.domain_field(u.mesh, 0.0), u, v)
    if u0.role != "domain" or v0.role != "boundary" or u0.mesh is not mesh or v0.mesh is not mesh:
        raise fem.FieldError("targets must be a (domain, boundary) pair on the same mesh")

    y = solve_state(spec, u, v).state
    xy = mesh.vertices
    loop = mesh.boundary_loop

    c1 = np.asarray(spec.g1_y(xy[:, 0], xy[:, 1], y.values), dtype=float)
    c1 = np.broadcast_to(c1, (mesh.n_vertices,)) / np.asarray(spec.zeta1.slope(_bound_u(spec, y)))
    xb = xy[loop]
    c2 = np.asarray(spec.g2_y(xb[:, 0], xb[:, 1], y.values[loop]), dtype=float)
    c2 = np.broadcast_to(c2, (mesh.n_boundary,)) / np.asarray(spec.zeta2.slope(_bound_v(spec, y)))

    rec = fem.p1(mesh)
    M, Mb, T = rec.mass.matrix, rec.boundary_mass.matrix, rec.trace_matrix

    # nodal reaction coupling keeps the two discrete solves exactly composable
    A = linearized_matrix(spec, y).matrix
    C = M @ sp.diags(c1) + T.T @ (Mb @ sp.diags(c2)) @ T
    w = spla.splu(sp.csc_matrix(A + C)).solve(rec.load(u0.values, v0.values))

    u_dir = FEField(mesh, "domain", u0.values - c1 * w)
    v_dir = FEField(mesh, "boundary", v0.values - c2 * w[loop])

    wt = solve_linearized(spec, y, u_dir, v_dir).values
    lin1 = u_dir.values + c1 * wt
    lin2 = v_dir.values + c2 * wt[loop]

    return max(
        float(np.max(np.abs(lin1 - u0.values))),
        float(np.max(np.abs(lin2 - v0.values))),
    )
