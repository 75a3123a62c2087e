"""Optimality system for the mixed-constrained control problem.

This module carries the optimization core: the cost functional, the
adjoint-based reduced gradient, the projection form of optimal controls,
a semismooth Newton solver whose report measures every first-order
residual, and a constructive surjectivity check for the linearized
constraints.

The two mixed constraints share one form, zeta_i(c) + g_i(x, y) <= 0,
with c = u at every vertex (i = 1) and c = v on the boundary loop
(i = 2).  Four strictly increasing scalar maps enter, all
``catalog.MonotoneScalar``: the reparametrizations zeta_1, zeta_2 and the
control cost slopes delta_1, delta_2 (``spec.delta1``, ``spec.delta2``).
``_constraints(spec, y)`` evaluates both halves at a state y once: the
control's nodes and the state there (y or its trace), zeta_i, delta_i,
g_i and its y-derivative at those nodes (through ``fem.nodal``), and the
bound b = zeta_i^{-1}(-g_i).  Every formula below (the projection with
its active sets and multipliers, stationarity, complementarity and
feasibility, the adjoint load, the Newton derivatives, the surjectivity
shifts) is written once and applied to both halves.

The projection eliminates the controls: with w = delta_i^{-1}(-phi) at
each node, the control is min(w, b), the node is active where w > b, and
there the multiplier is -(delta_i(b) + phi) / zeta_i'(b), which raises
``InversionError`` where that slope is not positive.  Each half
thus makes two ``invert_monotone`` calls per iterate, for b and for w.
What remains is a nonsmooth system F(y, phi) = 0 of the state and
adjoint equations, which ``solve_kkt`` solves by semismooth Newton from
a given (y, phi): ``cold_start`` of some controls, or the optimum of a
coarser mesh prolonged.  Each step is one ``fem.solve_linear`` of the
2n x 2n generalised Jacobian taken on the current active sets,
globalised by the Armijo backtracking on |F|_2 of ``solvers.newton``,
the loop the state solve runs too.

Only strictly increasing reparametrizations are supported end to end;
the three mirrored sign cases are rejected with a diagnostic rather than
silently producing a wrong projection.

Load vectors M f + T^T M_b g and the reaction couplings of the Newton
Jacobian and of the surjectivity check come from the mesh's
:class:`fem.P1` record, the owner of every sparse matrix; the state
operator, its linearization and its second variation come from
``solvers``.  ``robinson_check`` solves all targets at one control as
one block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .catalog import InversionError, MonotoneScalar, ProblemSpec, SpecError, invert_monotone
from .fem import FEField, LinearSolveError
from .solvers import (
    NEWTON_TOL,
    ExponentTable,
    StateSolveReport,
    exponents,
    linearized_matrix,
    newton,
    second_variation_matrix,
    semilinear_operator,
    solve_state,
)

__all__ = [
    "KKTState",
    "KKTReport",
    "HISTORY_HEADER",
    "objective",
    "reduced_gradient",
    "project_controls",
    "cold_start",
    "solve_kkt",
    "robinson_check",
]

KKT_TOL = 1e-7
MAX_ITER = 200
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
    iterations: int  # history rows: the initial point plus one per Newton step
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
        f"projection and the Newton solver; got zeta1 {d1}, zeta2 {d2}. "
        "Decreasing variants flip the feasible cone and need mirrored "
        "formulas that are deliberately not implemented."
    )


def _check_state_fields(y: FEField, u: FEField, v: FEField):
    if y.role != "domain" or u.role != "domain" or v.role != "boundary":
        raise fem.FieldError("expected domain state, domain control, boundary control")
    if u.mesh is not y.mesh or v.mesh is not y.mesh:
        raise fem.FieldError("fields live on different meshes")
    return y.mesh


def _check_adjoint(y: FEField, phi: FEField) -> None:
    if phi.role != "domain" or phi.mesh is not y.mesh:
        raise fem.FieldError("adjoint must be a domain field on the state's mesh")


@dataclass(frozen=True)
class _Half:
    """One mixed constraint zeta(c) + g(x, y) <= 0 at the nodes of its control c."""

    y: FEField  # the state at the nodes of c: y itself or its trace
    nodes: slice | np.ndarray  # slice(None) (every vertex) or the boundary loop
    zeta: MonotoneScalar
    delta: MonotoneScalar  # the slope of the control cost of c
    g: np.ndarray
    g_y: np.ndarray
    bound: np.ndarray  # zeta^{-1}(-g); for increasing zeta the constraint is c <= bound


def _constraints(spec: ProblemSpec, y: FEField) -> tuple:
    """The (interior, boundary) constraint halves evaluated at the state y."""
    halves = []
    for at, nodes, zeta, delta, g, g_y in (
        (y, slice(None), spec.zeta1, spec.delta1, spec.g1, spec.g1_y),
        (fem.trace(y), y.mesh.boundary_loop, spec.zeta2, spec.delta2, spec.g2, spec.g2_y),
    ):
        gv = fem.nodal(g, at)
        bound = invert_monotone(zeta, -gv)
        halves.append(_Half(at, nodes, zeta, delta, gv, fem.nodal(g_y, at), bound))
    return tuple(halves)


def objective(spec: ProblemSpec, y: FEField, u: FEField, v: FEField) -> float:
    """Cost functional: tracking plus convex control costs, by quadrature."""
    mesh = _check_state_fields(y, u, v)
    xq, wq = fem.p1(mesh).interior
    yq = fem.interp_interior(y)
    uq = fem.interp_interior(u)
    dom = (
        spec.L(xq[:, 0], xq[:, 1], yq)
        + 0.5 * spec.lambda1 * uq**2
        + (spec.lambda2 / spec.p) * np.abs(uq) ** spec.p
    )
    xb, wb = fem.p1(mesh).boundary
    yb = fem.interp_boundary(fem.trace(y))
    vq = fem.interp_boundary(v)
    bnd = (
        spec.ell(xb[:, 0], xb[:, 1], yb)
        + 0.5 * spec.mu1 * vq**2
        + (spec.mu2 / spec.q) * np.abs(vq) ** spec.q
    )
    return float(np.sum(wq * dom) + np.sum(wb * bnd))


def _tracking_adjoint(spec: ProblemSpec, y: FEField, linearized: fem.SparseOperator):
    """Adjoint at y driven by the tracking derivatives alone; ``linearized`` is its (symmetric) matrix."""
    load = fem.p1(y.mesh).load(fem.nodal(spec.L_y, y), fem.nodal(spec.ell_y, fem.trace(y)))
    return FEField(y.mesh, "domain", fem.solve_linear(linearized, load))


def reduced_gradient(spec: ProblemSpec, u: FEField, v: FEField, state: StateSolveReport | None = None):
    """L2 Riesz representatives of the unconstrained cost gradient.

    Solves the state equation, then the adjoint problem driven by the
    tracking derivatives, and returns nodal fields
    (phi + slope of the interior control cost, trace(phi) + boundary
    analogue).  A caller that already holds the state solve of (u, v)
    passes it as ``state``; the adjoint then uses that report's
    linearization, and shares its factorisation.
    """
    if state is None:
        state = solve_state(spec, u, v)
    y = state.state
    state.check_solves(spec, _check_state_fields(y, u, v))
    phi = _tracking_adjoint(spec, y, state.linearization)
    loop = y.mesh.boundary_loop
    gu = FEField(y.mesh, "domain", phi.values + spec.delta1.value(u.values))
    gv = FEField(y.mesh, "boundary", phi.values[loop] + spec.delta2.value(v.values))
    return gu, gv


@dataclass(frozen=True)
class _Minimizer:
    """The control of one half as a function of the adjoint at its nodes."""

    phi: np.ndarray  # the adjoint at the half's nodes
    w: np.ndarray  # delta^{-1}(-phi), the unconstrained minimizer
    active: np.ndarray  # w > bound
    control: np.ndarray  # min(w, bound)
    psi: np.ndarray  # -(delta(bound) + phi) / zeta'(bound) where active, 0 elsewhere


def _minimize(h: _Half, phi: FEField) -> _Minimizer:
    at = phi.values[h.nodes]
    w = invert_monotone(h.delta, -at)
    active = w > h.bound
    psi = np.zeros(active.shape)
    b = h.bound[active]
    slope = np.broadcast_to(h.zeta.slope(b), b.shape)
    bad = np.flatnonzero(~(slope > 0.0))
    if bad.size:
        raise InversionError(
            f"zeta'(b) = {slope[bad[0]]:g} at an active bound b = {b[bad[0]]:g}: the multiplier needs it positive"
        )
    psi[active] = -(h.delta.value(b) + at[active]) / slope
    # the offset from the bound, projected on the nonpositive half-line: feasible exactly
    return _Minimizer(at, w, active, np.minimum(w - h.bound, 0.0) + h.bound, psi)


def project_controls(spec: ProblemSpec, y: FEField, phi: FEField):
    """Optimal controls as projections of the unconstrained minimizers.

    The unconstrained minimizer inverts the control cost slope at minus
    the adjoint; projecting its offset from the constraint bound onto the
    nonpositive half-line enforces feasibility exactly.
    """
    _require_increasing(spec)
    _check_adjoint(y, phi)
    return tuple(
        FEField(y.mesh, h.y.role, _minimize(h, phi).control) for h in _constraints(spec, y)
    )


def _adjoint_rhs(spec: ProblemSpec, halves, psis):
    """Adjoint loads: tracking derivative plus g_y * psi at each half's nodes."""
    return tuple(
        FEField(h.y.mesh, h.y.role, fem.nodal(tracking_y, h.y) + h.g_y * psi.values)
        for h, tracking_y, psi in zip(halves, (spec.L_y, spec.ell_y), psis)
    )


def _report(spec: ProblemSpec, state: KKTState, halves, state_defect, adjoint_defect, kkt_tol):
    """Max-norm residuals of every first-order optimality condition at state.

    Stationarity and complementarity are evaluated nodally, feasibility as
    the positive part of control minus bound, and the state and adjoint
    residuals are the given algebraic defects of their discrete systems.
    """
    phi = state.phi
    measured = {}
    for h, c, psi, side in zip(halves, (state.u, state.v), (state.psi1, state.psi2), "uv"):
        slope = np.asarray(h.zeta.slope(c.values))
        stat = h.delta.value(c.values) + phi.values[h.nodes] + slope * psi.values
        comp = psi.values * (np.asarray(h.zeta.value(c.values)) + h.g)
        measured[f"stationarity_{side}"] = float(np.max(np.abs(stat)))
        measured[f"complementarity_{side}"] = float(np.max(np.abs(comp)))
        measured[f"feasibility_{side}"] = max(0.0, float(np.max(c.values - h.bound)))
    measured["state_residual"] = float(np.max(np.abs(state_defect)))
    measured["adjoint_residual"] = float(np.max(np.abs(adjoint_defect)))

    residuals = {k: measured[k] for k in _RESIDUAL_KEYS}
    return KKTReport(
        objective=objective(spec, state.y, state.u, state.v),
        residuals=residuals,
        exponent_table=exponents(float(spec.N), spec.p, spec.q),
        iterations=0,
        converged=all(r <= kkt_tol for r in residuals.values()),
    )


@dataclass(frozen=True)
class _Point:
    """The reduced system F(y, phi) at one state and adjoint."""

    y: FEField
    phi: FEField
    halves: tuple
    minimizers: tuple
    linearized: fem.SparseOperator
    state_defect: np.ndarray
    adjoint_defect: np.ndarray
    load_norm: float  # |(M u + T^T M_b v, adjoint load)|_2

    @property
    def residual(self) -> np.ndarray:
        return np.concatenate([self.state_defect, self.adjoint_defect])

    def state(self) -> KKTState:
        mesh = self.y.mesh
        u, v = (FEField(mesh, h.y.role, m.control) for h, m in zip(self.halves, self.minimizers))
        psi1, psi2 = (FEField(mesh, h.y.role, m.psi) for h, m in zip(self.halves, self.minimizers))
        return KKTState(self.y, self.phi, psi1, u, v, psi2, *(m.active for m in self.minimizers))


def _point(spec: ProblemSpec, y: FEField, phi: FEField) -> _Point:
    """F(y, phi): the state and adjoint defects with the controls and multipliers eliminated."""
    halves = _constraints(spec, y)
    minimizers = tuple(_minimize(h, phi) for h in halves)
    rec = fem.p1(y.mesh)
    state_load = rec.load(*(m.control for m in minimizers))
    psis = (FEField(y.mesh, h.y.role, m.psi) for h, m in zip(halves, minimizers))
    adjoint_load = rec.load(*(f.values for f in _adjoint_rhs(spec, halves, psis)))
    linearized = linearized_matrix(spec, y)
    return _Point(
        y,
        phi,
        halves,
        minimizers,
        linearized,
        semilinear_operator(spec, y) - state_load,
        linearized.matvec(phi.values) - adjoint_load,
        float(np.linalg.norm(np.concatenate([state_load, adjoint_load]))),
    )


def _jacobian(spec: ProblemSpec, pt: _Point) -> fem.SparseOperator:
    """Generalised Jacobian of F at pt, taken on pt's active sets.

    Per node, with b the bound: db/dy = -g_y / zeta'(b); off the active
    set dc/dphi = -1 / delta'(w), on it dc/dy = db/dy, dpsi/dphi =
    -1 / zeta'(b) and dpsi/db = -delta'(b) / zeta'(b) + (delta(b) + phi)
    zeta''(b) / zeta'(b)^2.  Block (i, j) adds minus the nodal derivative
    of equation i's load in variable j as a reaction coupling
    M diag(c1) + T^T M_b diag(c2) T; the adjoint load also brings L_yy,
    ell_yy and g_yy psi, and the adjoint operator its second variation.
    """
    # per half: the nodal coefficients of the four blocks, in block order
    coefficients = []
    for h, m, tracking_yy, g_yy in zip(
        pt.halves, pt.minimizers, (spec.L_yy, spec.ell_yy), (spec.g1_yy, spec.g2_yy)
    ):
        b, on = h.bound, m.active
        zeta_slope = np.asarray(h.zeta.slope(b))
        db_dy = -h.g_y / zeta_slope
        dpsi_db = (
            -h.delta.slope(b)
            + (h.delta.value(b) + m.phi) * np.asarray(h.zeta.curvature(b)) / zeta_slope
        ) / zeta_slope
        second = fem.nodal(tracking_yy, h.y) + fem.nodal(g_yy, h.y) * m.psi
        coefficients.append(
            (
                np.where(on, -db_dy, 0.0),
                np.where(on, 0.0, 1.0 / h.delta.slope(m.w)),
                -(second + np.where(on, h.g_y * dpsi_db * db_dy, 0.0)),
                np.where(on, h.g_y / zeta_slope, 0.0),
            )
        )
    rec = fem.p1(pt.y.mesh)
    state_y, state_phi, adjoint_y, adjoint_phi = (rec.reaction(*pair) for pair in zip(*coefficients))
    return fem.block_operator(
        [
            [pt.linearized + state_y, state_phi],
            [second_variation_matrix(spec, pt.y, pt.phi) + adjoint_y, pt.linearized + adjoint_phi],
        ]
    )


def _history_row(spec: ProblemSpec, pt: _Point, kkt_tol: float):
    report = _report(spec, pt.state(), pt.halves, pt.state_defect, pt.adjoint_defect, kkt_tol)
    # the first six residuals: stationarity, complementarity, feasibility
    return report, (report.objective, *(report.residuals[r] for r in _RESIDUAL_KEYS[:6]))


def cold_start(spec: ProblemSpec, u: FEField, v: FEField):
    """The (y, phi) start of a solve from controls: the state of (u, v), then the tracking adjoint.

    The adjoint's factorisation is freed on return.
    """
    y = solve_state(spec, u, v).state
    return y, _tracking_adjoint(spec, y, linearized_matrix(spec, y))


def solve_kkt(
    spec: ProblemSpec,
    start,
    max_iter: int = MAX_ITER,
    kkt_tol: float = KKT_TOL,
):
    """Semismooth Newton on the optimality system reduced to (y, phi).

    ``start`` is the initial (y, phi), two domain fields on one mesh:
    ``cold_start`` of some controls, or the prolonged optimum of a coarser
    mesh.  Each step of ``solvers.newton`` solves the generalised Jacobian
    system once and backtracks on |F|_2 until the Armijo test holds.
    Newton iterates until |F|_2 <= NEWTON_TOL
    * (1 + the norm of both loads), however loose ``kkt_tol`` is, since
    the max-norm defects scale with the mesh and a loose stop would accept
    wrong active sets; the report then checks every residual against
    ``kkt_tol``.  A stalled line search, a singular Jacobian or
    ``max_iter`` steps end the solve at the last iterate, which has the
    smallest |F|_2, with ``converged`` False.  Returns (KKTState,
    KKTReport) with one history row for the initial point and one per step.
    """
    _require_increasing(spec)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    y, phi = start
    if y.role != "domain":
        raise fem.FieldError("the start state must be a domain field")
    _check_adjoint(y, phi)
    mesh = y.mesh
    n = mesh.n_vertices

    def evaluate(x: np.ndarray):
        pt = _point(spec, FEField(mesh, "domain", x[:n]), FEField(mesh, "domain", x[n:]))
        return pt, pt.residual

    def converged(pt: _Point, norm: float) -> bool:
        return norm <= NEWTON_TOL * (1.0 + pt.load_norm)

    history = []
    try:
        for pt, norm in newton(
            np.concatenate([y.values, phi.values]),
            evaluate,
            lambda pt, r: fem.solve_linear(_jacobian(spec, pt), -r),
            converged,
            max_iter,
        ):
            report, row = _history_row(spec, pt, kkt_tol)
            history.append((len(history) + 1, *row))
    except LinearSolveError:
        pass
    report.converged = converged(pt, norm) and report.converged
    report.iterations = len(history)
    report.history = history
    return pt.state(), report


def robinson_check(spec: ProblemSpec, z, targets) -> np.ndarray:
    """Constructive surjectivity check of the linearized constraint maps at z.

    For each (u0, v0) in ``targets``, an auxiliary reaction-shifted solve
    produces a feasible-direction pair whose constraint linearization must
    reproduce the target; returns the max-norm mismatches over both
    components, one per target.  The reaction shifts divide the constraint
    slopes by the reparametrization slopes at the bound, so the shifted
    problem is well posed whenever the combined sign condition holds
    (verified by ``check_assumptions``).  One state solve and one
    factorisation each of A + C and A serve all targets, as one block.
    """
    u, v = z
    mesh = _check_state_fields(fem.domain_field(u.mesh, 0.0), u, v)
    targets = list(targets)
    for u0, v0 in targets:
        if u0.role != "domain" or v0.role != "boundary" or u0.mesh is not mesh or v0.mesh is not mesh:
            raise fem.FieldError("targets must be (domain, boundary) pairs on the same mesh")
    if not targets:
        return np.zeros(0)

    y = solve_state(spec, u, v).state
    halves = _constraints(spec, y)
    shifts = [h.g_y / np.asarray(h.zeta.slope(h.bound)) for h in halves]
    rec = fem.p1(mesh)
    A = linearized_matrix(spec, y)

    # one column per target: an (n, k) interior and an (nb, k) boundary block
    blocks = [np.column_stack([pair[i].values for pair in targets]) for i in (0, 1)]
    # nodal reaction coupling keeps the two discrete solves exactly composable
    w = fem.solve_linear(A + rec.reaction(*shifts), rec.load(*blocks))
    directions = [t - c[:, None] * w[h.nodes] for h, t, c in zip(halves, blocks, shifts)]

    wt = fem.solve_linear(A, rec.load(*directions))
    mismatch = [
        np.max(np.abs(d + c[:, None] * wt[h.nodes] - t), axis=0)
        for h, t, c, d in zip(halves, blocks, shifts, directions)
    ]
    return np.max(mismatch, axis=0)
