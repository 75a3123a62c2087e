"""State solves plus integrability bookkeeping.

The semilinear state equation is solved by ``newton``, the damped Newton
loop with Armijo backtracking on the residual norm that ``kkt.solve_kkt``
shares; the linearized state and adjoint problems share one symmetric
matrix, ``linearized_matrix``, with which ``kkt`` solves the adjoint, so
the discrete adjoint identity holds to solver tolerance.  A
:class:`StateSolveReport` keeps F at its state, and the linearization
there with that operator's sparse LU, for as long as the report lives;
solves seeded with the report share them.  ``solve_states`` solves
several control pairs from one start as a block: F at the start once,
the first Newton direction of every pair from one multi-column solve,
then each pair's own ``newton`` loop; ``solve_state`` is its block of
one.  The elliptic operator, mass matrices and load vectors come from
the mesh's :class:`fem.P1` record, their single owner; this module adds
the nonlinearity on top (``semilinear_operator``, ``linearized_matrix``
and its derivative ``second_variation_matrix``).  ``exponents`` evaluates
the integrability thresholds that the distributed and boundary control
exponents induce on the state and on the fixed-point argument, together
with their conjugacy slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fem
from .catalog import ProblemSpec, SpecError, exponent_violation
from .fem import FEField

__all__ = [
    "ExponentTable",
    "StateSolveReport",
    "NonlinearSolveError",
    "exponents",
    "newton",
    "newton_tolerance",
    "semilinear_operator",
    "linearized_matrix",
    "second_variation_matrix",
    "solve_state",
    "solve_states",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 30
ARMIJO_FACTOR = 1e-4


class NonlinearSolveError(RuntimeError):
    """Newton iteration failed; carries the residual history."""

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.residual_history = history


@dataclass
class ExponentTable:
    """Integrability exponents induced by the control exponents.

    ``r`` bounds the Lebesgue class in which states are controlled, ``s``
    the class of the fixed-point argument; ``conjugacy_slack`` is
    1 - 1/r - 1/s and is strictly positive on the admissible range.
    """

    N: float
    p: float
    q: float
    r: float
    s: float
    conjugacy_slack: float


def exponents(N: float, p: float, q: float) -> ExponentTable:
    """Evaluate the exponent table for dimension N and control exponents p, q.

    Requires p > N/2, q > N-1 and p, q >= 2.
    """
    if not N >= 2.0:
        raise SpecError(f"dimension must be >= 2, got {N}")
    violation = exponent_violation(N, p, q)
    if violation:
        raise SpecError(violation)

    boundary_r = N * q / (N - 1.0)
    if N / 2.0 < p < N:
        r = min(p * N / (N - p), boundary_r)
    else:
        r = boundary_r

    s_boundary = N * q / ((N - 1.0) * (q - 1.0))
    t = 1.0 - 1.0 / p - 1.0 / N
    if t > 0.0:
        s = min(1.0 / t, s_boundary)
    else:
        s = s_boundary

    slack = 1.0 - 1.0 / r - 1.0 / s
    return ExponentTable(N=N, p=p, q=q, r=r, s=s, conjugacy_slack=slack)


@dataclass
class StateSolveReport:
    """A converged state solve of ``spec``.

    ``linearization`` is ``linearized_matrix(spec, state)``, assembled on
    first use and kept, with its factorisation once solved, as long as
    the report is; ``semilinear_operator`` is ``semilinear_operator(spec,
    state)``, F at the state before the loads, kept the same way.
    """

    state: FEField
    newton_iterations: int
    final_residual: float
    spec: ProblemSpec = field(repr=False)
    residual_history: list = field(default_factory=list)

    @cached_property
    def linearization(self) -> fem.SparseOperator:
        return linearized_matrix(self.spec, self.state)

    @cached_property
    def semilinear_operator(self) -> np.ndarray:
        return semilinear_operator(self.spec, self.state)

    def check_solves(self, spec: ProblemSpec, mesh) -> None:
        """Raise unless this report is a solve of ``spec`` on ``mesh``."""
        if self.state.mesh is not mesh:
            raise fem.FieldError("the state report belongs to another mesh")
        if self.spec is not spec:
            raise SpecError("the state report solves another problem spec")


def _at_quadrature(fn, y: FEField) -> np.ndarray:
    """fn(x1, x2, y) at the interior quadrature points, shape (3T,)."""
    qpts, _ = fem.p1(y.mesh).interior
    return fn(qpts[:, 0], qpts[:, 1], fem.interp_interior(y))


def semilinear_operator(spec: ProblemSpec, y: FEField) -> np.ndarray:
    """Left-hand side of the discrete state equation: K y + (f(., y), phi_i)."""
    op = fem.p1(y.mesh).operator(spec)
    return op.matvec(y.values) + fem.integrate_basis(y.mesh, _at_quadrature(spec.f, y))


def linearized_matrix(spec: ProblemSpec, y: FEField) -> fem.SparseOperator:
    """Matrix of the state equation linearized at y: K + (f_y(., y) phi_j, phi_i)."""
    weight = _at_quadrature(spec.f.diff(), y)
    return fem.p1(y.mesh).operator(spec) + fem.assemble_weighted_mass(y.mesh, weight)


def second_variation_matrix(spec: ProblemSpec, y: FEField, phi: FEField) -> fem.SparseOperator:
    """The y-derivative of ``linearized_matrix(spec, y) @ phi``: (f_yy(., y) phi phi_j, phi_i).

    ``phi`` is a domain field; the derivative is the mass matrix weighted
    by f_yy(., y) phi at the interior quadrature points.
    """
    weight = _at_quadrature(spec.f.diff().diff(), y) * fem.interp_interior(phi)
    return fem.assemble_weighted_mass(y.mesh, weight)


def _check_pair(spec: ProblemSpec, u: FEField, v: FEField):
    if u.role != "domain" or v.role != "boundary":
        raise fem.FieldError("controls must be a (domain, boundary) pair")
    if u.mesh is not v.mesh:
        raise fem.FieldError("control fields live on different meshes")
    return u.mesh


def newton(x, evaluate, direction, converged, max_iter: int):
    """Damped Newton on F with an Armijo decrease test on |F|_2.

    ``evaluate(x)`` returns (point, F(x)), ``direction(point, F)`` the
    Newton step and ``converged(point, |F|_2)`` whether to stop.  Yields
    (point, |F|_2) at the start and after each accepted step; ends when
    converged, after ``max_iter`` steps, or when NEWTON_MAX_HALVINGS
    halvings of a step give no Armijo decrease.
    """
    point, r = evaluate(x)
    norm = float(np.linalg.norm(r))
    yield point, norm
    for _ in range(max_iter):
        if converged(point, norm):
            return
        delta = direction(point, r)
        t = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            x_try = x + t * delta
            trial, r_try = evaluate(x_try)
            norm_try = float(np.linalg.norm(r_try))
            if norm_try <= (1.0 - ARMIJO_FACTOR * t) * norm:
                break
            t *= 0.5
        else:
            return
        x, point, r, norm = x_try, trial, r_try, norm_try
        yield point, norm


def newton_tolerance(load_norm: float, newton_tol: float = NEWTON_TOL) -> float:
    """The residual bound newton_tol * (1 + load_norm) at which a Newton solve stops.

    An overflowing load norm would make every residual pass, so a
    non-finite bound raises :class:`NonlinearSolveError`.
    """
    tol = newton_tol * (1.0 + load_norm)
    if not np.isfinite(tol):
        raise NonlinearSolveError(f"the load norm is not finite (tolerance {tol:.3e})", [])
    return tol


def solve_states(
    spec: ProblemSpec,
    controls,
    initial: StateSolveReport | None = None,
    newton_tol: float = NEWTON_TOL,
) -> list:
    """Solve the semilinear state equation, natural boundary data, for each (u, v) of ``controls``.

    Every pair runs its own ``newton`` loop from one start: zero, or the
    state of ``initial``, the report of an earlier solve of the same spec
    on the same mesh.  A pair has converged when its residual drops below
    ``newton_tolerance`` of its load.  What the pairs share is done once for the
    block: F at the start, and the first Newton direction of every pair
    not converged there, from one ``fem.solve_linear`` call on the (n, k)
    block of their residuals with the linearization at the start.  A
    seeded block takes both from the report, F from its
    ``semilinear_operator`` and the linearization from its
    ``linearization``, whose factorisation every solve seeded with that
    report shares.  Any later step assembles the linearization at its
    own point.  Returns one report per pair, in order.
    """
    controls = list(controls)
    mesh = _check_pair(spec, *controls[0])
    if any(_check_pair(spec, u, v) is not mesh for u, v in controls):
        raise fem.FieldError("control pairs live on different meshes")
    if initial is not None:
        initial.check_solves(spec, mesh)
    if not 0.0 < newton_tol < 1.0:
        raise SpecError("newton_tol must lie in (0, 1)")
    loads = fem.p1(mesh).load(*(np.column_stack([pair[i].values for pair in controls]) for i in (0, 1)))
    with np.errstate(over="ignore"):
        tols = [newton_tolerance(float(np.linalg.norm(b)), newton_tol) for b in loads.T]
    if initial is None:
        y0 = np.zeros(mesh.n_vertices)
        at_y0 = semilinear_operator(spec, FEField(mesh, "domain", y0))
    else:
        y0, at_y0 = initial.state.values.copy(), initial.semilinear_operator
    residuals = at_y0[:, None] - loads
    moving = [j for j, tol in enumerate(tols) if not float(np.linalg.norm(residuals[:, j])) <= tol]
    first = {}
    if moving:
        at_start = linearized_matrix(spec, FEField(mesh, "domain", y0)) if initial is None else initial.linearization
        first = dict(zip(moving, fem.solve_linear(at_start, -residuals[:, moving]).T))
    return [
        _solve_pair(spec, mesh, y0, residuals[:, j], first.get(j), b, tol)
        for j, (b, tol) in enumerate(zip(loads.T, tols))
    ]


def solve_state(
    spec: ProblemSpec,
    u: FEField,
    v: FEField,
    initial: StateSolveReport | None = None,
    newton_tol: float = NEWTON_TOL,
) -> StateSolveReport:
    """Solve the semilinear state equation for one control pair: ``solve_states`` of a block of one."""
    return solve_states(spec, [(u, v)], initial, newton_tol)[0]


def _solve_pair(spec: ProblemSpec, mesh, y0: np.ndarray, r0: np.ndarray, step0, b: np.ndarray, tol: float):
    """``newton`` for the pair with load b from y0, where the block gave its residual r0 and first step step0."""

    def evaluate(yv: np.ndarray):
        if yv is y0:
            return yv, r0
        return yv, semilinear_operator(spec, FEField(mesh, "domain", yv)) - b

    def direction(yv: np.ndarray, r: np.ndarray) -> np.ndarray:
        if yv is y0:
            return step0
        return fem.solve_linear(linearized_matrix(spec, FEField(mesh, "domain", yv)), -r)

    history = []
    for y, rnorm in newton(y0, evaluate, direction, lambda _, norm: norm <= tol, NEWTON_MAX_ITER):
        history.append(rnorm)
    if not rnorm <= tol:
        if len(history) > NEWTON_MAX_ITER:
            message = (
                f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
                f"(residual {rnorm:.3e}, tolerance {tol:.3e})"
            )
        else:
            message = f"line search stalled after {NEWTON_MAX_HALVINGS} halvings (residual {rnorm:.3e})"
        raise NonlinearSolveError(message, history)
    return StateSolveReport(
        state=FEField(mesh, "domain", y),
        newton_iterations=len(history) - 1,
        final_residual=rnorm,
        spec=spec,
        residual_history=history,
    )
