"""Optimality system for the mixed-constrained control problem.

This module carries the optimization core: the cost functional, the
adjoint-based reduced gradient, the projection form of optimal controls,
a semismooth Newton solver whose report measures every first-order
residual, and a constructive surjectivity check for the linearized
constraints.

The two mixed constraints share one form, zeta_i(c) + g_i(x, y) <= 0,
with c = u at every vertex (i = 1) and c = v on the boundary loop
(i = 2).  The data of each control is one ``catalog.Control`` record of
``spec.controls``: its tracking integrand, its cost weights and exponent,
g_i and zeta_i.  Four strictly increasing scalar maps enter, all
``catalog.MonotoneScalar``: the reparametrizations zeta_i and the control
cost slopes delta_i, the records' ``delta``.  ``_constraints(spec, y)``
evaluates both halves at a state y once: the control's record, its nodes
and the state there (y or its trace), g_i and its y-derivative at those
nodes (through ``fem.nodal``), and the bound b = zeta_i^{-1}(-g_i).
Every formula below (the cost, the projection with its active sets and
multipliers, stationarity, complementarity and feasibility, the adjoint
load, the Newton derivatives, the surjectivity shifts) is written once
and applied to both records or halves.

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
one block, and ``objectives`` evaluates the cost of several states in
one pass, of which ``objective`` is the pass over one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .catalog import DIMENSION, Control, InversionError, ProblemSpec, SpecError, invert_monotone
from .fem import FEField, LinearSolveError
from .solvers import (
    ExponentTable,
    StateSolveReport,
    euclidean_norm,
    exponents,
    linearized_matrix,
    newton,
    newton_tolerance,
    second_variation_matrix,
    semilinear_operator,
    solve_state,
)

__all__ = [
    "KKTState",
    "KKTReport",
    "HISTORY_HEADER",
    "objective",
    "objectives",
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
    d1, d2 = (c.zeta.direction for c in spec.controls)
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

    data: Control  # the problem data of c: its cost, with slope delta, g and zeta
    y: FEField  # the state at the nodes of c: y itself or its trace
    nodes: slice | np.ndarray  # slice(None) (every vertex) or the boundary loop
    g: np.ndarray
    g_y: np.ndarray
    bound: np.ndarray  # zeta^{-1}(-g); for increasing zeta the constraint is c <= bound


def _constraints(spec: ProblemSpec, y: FEField) -> tuple:
    """The (interior, boundary) constraint halves evaluated at the state y."""
    halves = []
    for data, at, nodes in zip(spec.controls, (y, fem.trace(y)), (slice(None), y.mesh.boundary_loop)):
        gv = fem.nodal(data.g, at)
        bound = invert_monotone(data.zeta, -gv)
        halves.append(_Half(data, at, nodes, gv, fem.nodal(data.g.diff(), at), bound))
    return tuple(halves)


def objective(spec: ProblemSpec, y: FEField, u: FEField, v: FEField) -> float:
    """Cost functional: tracking plus convex control costs, by quadrature; ``objectives`` of one state."""
    return float(objectives(spec, [y], [(u, v)])[0])


def objectives(spec: ProblemSpec, states, controls) -> np.ndarray:
    """The cost of each state of ``states`` with its (u, v) pair of ``controls``, shape (k,).

    One pass of the cost formula over the block, one row per state: each
    row's quadrature sum runs along a contiguous last axis, in the order
    of a block of one, so a cost does not depend on the block it is in.
    """
    states, controls = list(states), list(controls)
    if len(states) != len(controls):
        raise fem.FieldError("expected one (u, v) pair per state")
    mesh = _check_state_fields(states[0], *controls[0])
    if any(_check_state_fields(y, u, v) is not mesh for y, (u, v) in zip(states, controls)):
        raise fem.FieldError("fields live on different meshes")
    rec = fem.p1(mesh)
    loop = mesh.boundary_loop

    def cost(c: Control, quadrature, at, ys, cs) -> np.ndarray:
        # one cost formula for both controls, track + linear/2 c^2 + power/exponent |c|^exponent,
        # formed in place; c is interpolated once for each of its two terms, so that next to the
        # sum a block holds one (k, points) table at a time
        x, w = quadrature
        term = c.track(x[:, 0], x[:, 1], at(np.stack(ys)))
        part = at(np.stack(cs))
        part **= 2
        part *= 0.5 * c.linear
        term += part
        del part
        part = at(np.stack(cs))
        np.abs(part, out=part)
        part **= c.exponent
        part *= c.power / c.exponent
        term += part
        term *= w
        return np.sum(term, axis=-1)

    dom, bnd = (
        cost(*args)
        for args in zip(spec.controls, (rec.interior, rec.boundary), (rec.at_interior, rec.at_boundary),
                        ([y.values for y in states], [y.values[loop] for y in states]),
                        ([u.values for u, _ in controls], [v.values for _, v in controls]))
    )
    return dom + bnd


def _tracking_adjoint(spec: ProblemSpec, y: FEField, linearized: fem.SparseOperator):
    """Adjoint at y driven by the tracking derivatives alone; ``linearized`` is its (symmetric) matrix."""
    at = (y, fem.trace(y))
    load = fem.p1(y.mesh).load(*(fem.nodal(c.track.diff(), a) for c, a in zip(spec.controls, at)))
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
    return tuple(
        FEField(y.mesh, c.role, phi.values[nodes] + data.delta.value(c.values))
        for data, c, nodes in zip(spec.controls, (u, v), (slice(None), y.mesh.boundary_loop))
    )


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
    w = invert_monotone(h.data.delta, -at)
    active = w > h.bound
    psi = np.zeros(active.shape)
    b = h.bound[active]
    slope = h.data.zeta.slope(b)
    bad = np.flatnonzero(~(slope > 0.0))
    if bad.size:
        raise InversionError(
            f"zeta'(b) = {slope[bad[0]]:g} at an active bound b = {b[bad[0]]:g}: the multiplier needs it positive"
        )
    psi[active] = -(h.data.delta.value(b) + at[active]) / slope
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


def _report(spec: ProblemSpec, pt: _Point, kkt_tol: float) -> KKTReport:
    """Max-norm residuals of every first-order optimality condition at the Newton point pt.

    Stationarity and complementarity are evaluated nodally at the point's
    controls and multipliers, feasibility as the positive part of control
    minus bound, and the state and adjoint residuals are the algebraic
    defects of their discrete systems.
    """
    measured = {}
    for h, m, side in zip(pt.halves, pt.minimizers, "uv"):
        zeta, c = h.data.zeta, m.control
        stat = h.data.delta.value(c) + m.phi + zeta.slope(c) * m.psi
        comp = m.psi * (zeta.value(c) + h.g)
        measured[f"stationarity_{side}"] = float(np.max(np.abs(stat)))
        measured[f"complementarity_{side}"] = float(np.max(np.abs(comp)))
        measured[f"feasibility_{side}"] = max(0.0, float(np.max(c - h.bound)))
    measured["state_residual"] = float(np.max(np.abs(pt.state_defect)))
    measured["adjoint_residual"] = float(np.max(np.abs(pt.adjoint_defect)))

    residuals = {k: measured[k] for k in _RESIDUAL_KEYS}
    u, v = (FEField(pt.y.mesh, h.y.role, m.control) for h, m in zip(pt.halves, pt.minimizers))
    return KKTReport(
        objective=objective(spec, pt.y, u, v),
        residuals=residuals,
        exponent_table=exponents(float(DIMENSION), spec.p, spec.q),
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
    # tracking derivative plus g_y * psi at each half's nodes
    adjoint_load = rec.load(
        *(fem.nodal(h.data.track.diff(), h.y) + h.g_y * m.psi for h, m in zip(halves, minimizers))
    )
    linearized = linearized_matrix(spec, y)
    return _Point(
        y,
        phi,
        halves,
        minimizers,
        linearized,
        semilinear_operator(spec, y) - state_load,
        linearized.matrix @ phi.values - adjoint_load,
        euclidean_norm(np.concatenate([state_load, adjoint_load])),
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
    for h, m in zip(pt.halves, pt.minimizers):
        b, on, zeta, delta = h.bound, m.active, h.data.zeta, h.data.delta
        zeta_slope = zeta.slope(b)
        db_dy = -h.g_y / zeta_slope
        dpsi_db = (-delta.slope(b) + (delta.value(b) + m.phi) * zeta.curvature(b) / zeta_slope) / zeta_slope
        second = fem.nodal(h.data.track.diff().diff(), h.y) + fem.nodal(h.data.g.diff().diff(), h.y) * m.psi
        coefficients.append(
            (
                np.where(on, -db_dy, 0.0),
                np.where(on, 0.0, 1.0 / delta.slope(m.w)),
                -(second + np.where(on, h.g_y * dpsi_db * db_dy, 0.0)),
                np.where(on, h.g_y / zeta_slope, 0.0),
            )
        )
    rec = fem.p1(pt.y.mesh)
    state_y, state_phi, adjoint_y, adjoint_phi = (rec.reaction(*pair) for pair in zip(*coefficients))
    return fem.block_operator(
        [
            [pt.linearized.matrix + state_y, state_phi],
            [second_variation_matrix(spec, pt.y, pt.phi) + adjoint_y, pt.linearized.matrix + adjoint_phi],
        ],
        rec.ordering,
    )


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
    Newton iterates until |F|_2 <= ``solvers.newton_tolerance`` of the
    norm of both loads, however loose ``kkt_tol`` is, since
    the max-norm defects scale with the mesh and a loose stop would accept
    wrong active sets; the report then checks every residual against
    ``kkt_tol``.  A stalled line search, a singular Jacobian or
    ``max_iter`` steps end the solve at the last iterate, which has the
    smallest |F|_2, with ``converged`` False; a load norm that overflows
    raises ``solvers.NonlinearSolveError``.  Returns (KKTState,
    KKTReport) with one history row for the initial point and one per step.
    """
    _require_increasing(spec)
    if max_iter < 1:
        raise SpecError(f"max_iter must be at least 1, got {max_iter}")
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
        return norm <= newton_tolerance(pt.load_norm)

    history = []
    try:
        for pt, norm in newton(
            np.concatenate([y.values, phi.values]),
            evaluate,
            lambda pt, r: fem.solve_linear(_jacobian(spec, pt), -r),
            converged,
            max_iter,
        ):
            report = _report(spec, pt, kkt_tol)
            # the first six residuals: stationarity, complementarity, feasibility
            residuals = (report.residuals[r] for r in _RESIDUAL_KEYS[:6])
            history.append((len(history) + 1, report.objective, *residuals))
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
    shifts = [h.g_y / h.data.zeta.slope(h.bound) for h in halves]
    rec = fem.p1(mesh)
    A = linearized_matrix(spec, y)

    # one column per target: an (n, k) interior and an (nb, k) boundary block
    blocks = [np.column_stack([pair[i].values for pair in targets]) for i in (0, 1)]
    # nodal reaction coupling keeps the two discrete solves exactly composable
    w = fem.solve_linear(fem.SparseOperator(A.matrix + rec.reaction(*shifts), rec.ordering), rec.load(*blocks))
    directions = [t - c[:, None] * w[h.nodes] for h, t, c in zip(halves, blocks, shifts)]

    wt = fem.solve_linear(A, rec.load(*directions))
    mismatch = [
        np.max(np.abs(d + c[:, None] * wt[h.nodes] - t), axis=0)
        for h, t, c, d in zip(halves, blocks, shifts, directions)
    ]
    return np.max(mismatch, axis=0)
