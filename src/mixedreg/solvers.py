"""State and adjoint solves plus integrability bookkeeping.

The semilinear state equation is solved by damped Newton iterations with
an Armijo residual test; the linearized state and adjoint problems share
one symmetric matrix, so the discrete adjoint identity holds to solver
tolerance.  A :class:`StateSolveReport` keeps the linearization at its
state, and so that operator's sparse LU, for as long as the report
lives; solves seeded with the report share it.  The elliptic operator,
mass matrices and load vectors come from the mesh's :class:`fem.P1`
record, their single owner; this module adds the nonlinearity on top
(``semilinear_operator``, ``linearized_matrix`` and its derivative
``second_variation_matrix``).  ``exponents`` evaluates the integrability
thresholds that the distributed and boundary control exponents induce on
the state and on the fixed-point argument, together with their
conjugacy slack.
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
    "semilinear_operator",
    "linearized_matrix",
    "second_variation_matrix",
    "solve_state",
    "solve_adjoint",
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
    the report is.
    """

    state: FEField
    newton_iterations: int
    final_residual: float
    c_infinity_ratio: float
    spec: ProblemSpec = field(repr=False)
    residual_history: list = field(default_factory=list)

    @cached_property
    def linearization(self) -> fem.SparseOperator:
        return linearized_matrix(self.spec, self.state)

    def check_solves(self, spec: ProblemSpec, mesh) -> None:
        """Raise unless this report is a solve of ``spec`` on ``mesh``."""
        if self.state.mesh is not mesh:
            raise fem.FieldError("the state report belongs to another mesh")
        if self.spec is not spec:
            raise SpecError("the state report solves another problem spec")


def _at_quadrature(fn, y: FEField) -> np.ndarray:
    """fn(x1, x2, y) at the interior quadrature points, shape (T, 3)."""
    qpts, _ = fem.interior_quadrature(y.mesh)
    yq = fem.interp_interior(y)
    vals = fn(qpts[:, 0].reshape(yq.shape), qpts[:, 1].reshape(yq.shape), yq)
    return np.broadcast_to(vals, yq.shape)


def semilinear_operator(spec: ProblemSpec, y: FEField) -> np.ndarray:
    """Left-hand side of the discrete state equation: K y + (f(., y), phi_i)."""
    op = fem.p1(y.mesh).operator(spec)
    return op.matvec(y.values) + fem.integrate_basis(y.mesh, _at_quadrature(spec.f, y))


def linearized_matrix(spec: ProblemSpec, y: FEField) -> fem.SparseOperator:
    """Matrix of the state equation linearized at y: K + (f_y(., y) phi_j, phi_i)."""
    weight = _at_quadrature(spec.f_y, y)
    return fem.p1(y.mesh).operator(spec) + fem.assemble_weighted_mass(y.mesh, weight)


def second_variation_matrix(spec: ProblemSpec, y: FEField, phi: FEField) -> fem.SparseOperator:
    """The y-derivative of ``linearized_matrix(spec, y) @ phi``: (f_yy(., y) phi phi_j, phi_i).

    ``phi`` is a domain field; the derivative is the mass matrix weighted
    by f_yy(., y) phi at the interior quadrature points.
    """
    weight = _at_quadrature(spec.f_yy, y) * fem.interp_interior(phi)
    return fem.assemble_weighted_mass(y.mesh, weight)


def _check_pair(spec: ProblemSpec, u: FEField, v: FEField):
    if u.role != "domain" or v.role != "boundary":
        raise fem.FieldError("controls must be a (domain, boundary) pair")
    if u.mesh is not v.mesh:
        raise fem.FieldError("control fields live on different meshes")
    return u.mesh


def solve_state(
    spec: ProblemSpec,
    u: FEField,
    v: FEField,
    initial: StateSolveReport | None = None,
    newton_tol: float = NEWTON_TOL,
) -> StateSolveReport:
    """Solve the semilinear state equation with natural boundary data.

    Damped Newton with an Armijo decrease test on the residual norm;
    converged when the residual drops below newton_tol * (1 + |rhs|).
    Newton starts from zero, or from the state of ``initial``, the report
    of an earlier solve of the same spec on the same mesh; its first step
    then uses that report's ``linearization``, whose factorisation every
    solve seeded with the report shares.
    """
    mesh = _check_pair(spec, u, v)
    if initial is not None:
        initial.check_solves(spec, mesh)
    if not 0.0 < newton_tol < 1.0:
        raise SpecError("newton_tol must lie in (0, 1)")
    b = fem.p1(mesh).load(u.values, v.values)
    tol = newton_tol * (1.0 + float(np.linalg.norm(b)))

    y = np.zeros(mesh.n_vertices) if initial is None else initial.state.values.copy()

    def residual(yv: np.ndarray) -> np.ndarray:
        return semilinear_operator(spec, FEField(mesh, "domain", yv)) - b

    r = residual(y)
    rnorm = float(np.linalg.norm(r))
    history = [rnorm]
    iterations = 0
    while rnorm > tol:
        if iterations >= NEWTON_MAX_ITER:
            raise NonlinearSolveError(
                f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
                f"(residual {rnorm:.3e}, tolerance {tol:.3e})",
                history,
            )
        if iterations == 0 and initial is not None:
            delta = fem.solve_linear(initial.linearization, -r)
        else:
            delta = fem.solve_linear(linearized_matrix(spec, FEField(mesh, "domain", y)), -r)
        step = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            y_try = y + step * delta
            r_try = residual(y_try)
            rn_try = float(np.linalg.norm(r_try))
            if rn_try <= (1.0 - ARMIJO_FACTOR * step) * rnorm:
                break
            step *= 0.5
        else:
            raise NonlinearSolveError(
                f"line search stalled after {NEWTON_MAX_HALVINGS} halvings "
                f"(residual {rnorm:.3e})",
                history,
            )
        y, r, rnorm = y_try, r_try, rn_try
        history.append(rnorm)
        iterations += 1

    state = FEField(mesh, "domain", y)
    denom = fem.lp_norm(u, spec.p) + fem.lp_norm(v, spec.q)
    if denom > 0.0:
        grad = fem.gradient_per_triangle(state)
        areas = mesh.triangle_areas()
        h1 = float(np.sqrt(fem.lp_norm(state, 2.0) ** 2 + np.sum(areas * np.sum(grad**2, axis=1))))
        ratio = (float(np.max(np.abs(y))) + h1) / denom
    else:
        ratio = 0.0

    return StateSolveReport(
        state=state,
        newton_iterations=iterations,
        final_residual=rnorm,
        c_infinity_ratio=ratio,
        spec=spec,
        residual_history=history,
    )


def solve_adjoint(
    spec: ProblemSpec,
    y: FEField,
    rhs_domain: FEField,
    rhs_boundary: FEField,
    linearized: fem.SparseOperator | None = None,
) -> FEField:
    """Adjoint solve at y; the matrix equals the linearized-state matrix.

    With symmetric diffusion coefficients the discrete operator is its own
    transpose, so linearized and adjoint problems share assembly and the
    duality pairing is exact to solver tolerance.  A caller that already
    holds ``linearized_matrix(spec, y)`` passes it as ``linearized``.
    """
    mesh = y.mesh
    if rhs_domain.role != "domain" or rhs_boundary.role != "boundary":
        raise fem.FieldError("adjoint right-hand sides must be a (domain, boundary) pair")
    mat = linearized_matrix(spec, y) if linearized is None else linearized
    phi = fem.solve_linear(mat, fem.p1(mesh).load(rhs_domain.values, rhs_boundary.values))
    return FEField(mesh, "domain", phi)
