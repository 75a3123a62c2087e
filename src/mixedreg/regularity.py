"""Refinement-stability estimates for Lipschitz and Hoelder seminorms.

The continuous regularity statements about optimal solutions cannot be
verified at a fixed mesh; what can be tested is whether discrete
Lipschitz proxies stabilize under refinement.  :func:`refinement_study`
builds the finest mesh and solves the optimality system on its
refinement chain (``Mesh.coarser``) by nested iteration: the first
level's Newton starts from ``kkt.cold_start`` of zero controls, and
every later level's from the previous optimum's state and adjoint
prolonged onto the next mesh, which lies within O(h) of the new discrete
optimum, so it needs few Newton steps.  It records per field and level
the Lipschitz estimate, the Hoelder estimates at ``HOLDER_GAMMAS`` and
the solve's Newton steps; each report derives its stabilization and
divergence flags from those records, and a divergence flag needs every
level converged.  One streamed pass per role takes the quotients
|v_i - v_j| / |x_i - x_j|^gamma of every field and exponent over the
node pairs i < j, walking the ``fem.pair_blocks`` staircase with a
plain visit into tables that the walk allocates, and keeping nothing but
each block's maxima.  The differences come from each field's
``fem.difference_factors`` and the powers d^gamma from ``fem.power``, so
they equal a subtraction's values and ``np.power``'s bits.  The
pairs are every pair of the boundary loop; every vertex pair of a
domain, or above ``HOLDER_SUBSAMPLE`` vertices those of a fixed-seed
subsample of that size.  A domain field's Lipschitz estimate is its
largest triangle gradient; a boundary field's is its gamma = 1 quotient
over every pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem, geometry, kkt
from .catalog import ProblemSpec, SpecError
from .fem import FEField

__all__ = [
    "LevelRecord",
    "RegularityReport",
    "lipschitz_estimate",
    "refinement_study",
    "STUDY_FIELDS",
]

HOLDER_GAMMAS = (0.5, 0.9)
STABILIZATION_RTOL = 0.10
DIVERGENCE_RATIO = 1.5
# seminorms below this are zero: round-off of a constant field, |c| eps / h, stays far below it
SEMINORM_FLOOR = 1e-10
HOLDER_SUBSAMPLE = 2000
HOLDER_SEED = 7
STUDY_FIELDS = ("y", "u", "phi", "psi1", "v", "psi2")
REGULARITY_CSV_HEADER = "field,level,h,lip," + ",".join(
    "holder" + str(gamma).replace(".", "") for gamma in HOLDER_GAMMAS
)


def lipschitz_estimate(f: FEField) -> float:
    """Largest triangle gradient magnitude of a domain field."""
    gx, gy = fem.gradient_per_triangle(f)
    return float(np.max(np.sqrt(gx**2 + gy**2)))


def _pair_quotients(fields, exponents) -> list:
    """Max of |v_i - v_j| / |x_i - x_j|^gamma over the node pairs at least min_distance apart.

    ``fields`` share one mesh and role, and ``exponents`` lists
    (gamma, min_distance) pairs; the result holds one list per field with
    one maximum per exponent.  Pairs closer than min_distance measure
    interpolation noise, not field regularity.  Domain fields on meshes
    with more than ``HOLDER_SUBSAMPLE`` vertices are subsampled with a
    fixed-seed generator, so the estimate is deterministic.  Each
    ``fem.pair_blocks`` block fills one power table per exponent (by
    ``fem.power``), the last over its distances, one mask per distinct
    min_distance and, per field and exponent, one difference table that
    the field's ``fem.difference_factors`` write and that it divides in place:
    all tables the walk hands the visit, one per dtype of its ``work``.
    A block gives its maxima, and a maximum is exact in any order, and
    over any repeats of a pair.
    """
    pts, vals = fields[0].coords(), [f.values for f in fields]
    if fields[0].role == "domain" and pts.shape[0] > HOLDER_SUBSAMPLE:
        rng = np.random.default_rng(HOLDER_SEED)
        keep = np.sort(rng.choice(pts.shape[0], size=HOLDER_SUBSAMPLE, replace=False))
        pts, vals = pts[keep], [v[keep] for v in vals]
    cutoffs = list(dict.fromkeys(min_distance for _, min_distance in exponents))
    left, right = fem.difference_factors(np.stack(vals))

    def visit(block, d, tables):
        *powers, diff = tables[: len(exponents)]
        nearer = dict(zip(cutoffs, tables[len(exponents) :]))
        np.sqrt(d, out=d)
        # pairs j < i of the block's own rows repeat pairs i < j bit for bit, which leaves
        # the maxima as they are; j = i and pairs nearer than min_distance get an infinite
        # denominator: quotient 0
        np.fill_diagonal(d, np.inf)
        for cut, mask in nearer.items():
            np.less(d, cut, out=mask)
        # the last power overwrites the distances, which no later step reads
        powers.append(d)
        for p, (gamma, min_distance) in zip(powers, exponents):
            fem.power(d, gamma, out=p)
            np.copyto(p, np.inf, where=nearer[min_distance])
        maxima = []
        for lf, rf in zip(left, right):
            row = []
            for p in powers:
                np.matmul(lf[block], rf[:, block.start :], out=diff)
                np.abs(diff, out=diff)
                row.append(np.max(np.divide(diff, p, out=diff)))
            maxima.append(row)
        return maxima

    work = (float,) * len(exponents) + (bool,) * len(cutoffs)
    return np.max(fem.pair_blocks(pts, visit, work), axis=0, initial=0.0).tolist()


@dataclass
class LevelRecord:
    level: int
    h: float
    lipschitz: float
    holder: dict  # HOLDER_GAMMAS -> estimate
    solver_converged: bool
    newton_steps: int  # accepted Newton steps of the level's KKT solve


@dataclass
class RegularityReport:
    """Per-level seminorm estimates of one solution field, and the verdicts on its last two levels."""

    field_name: str
    records: list = field(default_factory=list)

    def _converged(self) -> bool:
        return all(r.solver_converged for r in self.records)

    @property
    def stabilization(self) -> bool:
        if len(self.records) < 2:
            return False
        prev, last = self.records[-2].lipschitz, self.records[-1].lipschitz
        change = abs(last - prev) / max(abs(prev), SEMINORM_FLOOR)
        return bool(change < STABILIZATION_RTOL) and self._converged()

    @property
    def growth_ratio(self) -> float:
        if len(self.records) < 2:
            return 1.0
        prev, last = self.records[-2].lipschitz, self.records[-1].lipschitz
        if prev > SEMINORM_FLOOR:
            return last / prev
        return 1.0 if last <= SEMINORM_FLOOR else float("inf")

    @property
    def divergence_flag(self) -> bool:
        # growth measured on unconverged iterates is no evidence of divergence
        return bool(self.growth_ratio > DIVERGENCE_RATIO) and self._converged()

    def csv_rows(self) -> list:
        return [
            f"{self.field_name},{r.level},{r.h:.17g},{r.lipschitz:.17g},"
            + ",".join(f"{r.holder[gamma]:.17g}" for gamma in HOLDER_GAMMAS)
            for r in self.records
        ]


def refinement_study(
    spec: ProblemSpec,
    levels,
    max_iter: int = kkt.MAX_ITER,
    kkt_tol: float = kkt.KKT_TOL,
) -> dict:
    """Solve the optimality system on nested meshes and track seminorms.

    ``levels`` must be consecutive non-negative integers.  The last level's
    mesh is ``geometry.build_mesh(spec.preset, levels[-1])``, each earlier
    level's the ``coarser`` of the one after.  The first level's solve
    starts from ``kkt.cold_start`` of zero controls, each later level's
    from the previous level's y and phi prolonged onto its mesh.
    A level where the solver does not converge is still recorded (marked
    in the per-level records) and its iterate starts the next level, so
    the study degrades honestly instead of stopping; no level falls back
    to a cold start.  Per level, one pass over the node pairs serves the
    domain fields and another the boundary fields.
    Returns a dict mapping field names to :class:`RegularityReport`.
    """
    levels = [int(l) for l in levels]
    if not levels:
        raise SpecError("level range is empty")
    if levels[0] < 0 or any(b - a != 1 for a, b in zip(levels[:-1], levels[1:])):
        raise SpecError(f"levels must be consecutive and non-negative for nested iteration, got {levels}")

    meshes = [geometry.build_mesh(spec.preset, levels[-1])]
    for _ in levels[1:]:
        meshes.insert(0, meshes[0].coarser)
    start = kkt.cold_start(spec, fem.domain_field(meshes[0], 0.0), fem.boundary_field(meshes[0], 0.0))

    reports = {name: RegularityReport(field_name=name) for name in STUDY_FIELDS}

    for level, mesh in zip(levels, meshes):
        if mesh is not meshes[0]:
            start = (fem.prolong(state.y, mesh), fem.prolong(state.phi, mesh))
        state, rep = kkt.solve_kkt(spec, start, max_iter=max_iter, kkt_tol=kkt_tol)
        h = mesh.mesh_size()
        holder = [(gamma, h) for gamma in HOLDER_GAMMAS]
        for role in ("domain", "boundary"):
            names = [name for name in STUDY_FIELDS if getattr(state, name).role == role]
            fields = [getattr(state, name) for name in names]
            # a boundary field's Lipschitz estimate is its gamma = 1 quotient over every pair
            lipschitz = [(1.0, 0.0)] if role == "boundary" else []
            for name, f, q in zip(names, fields, _pair_quotients(fields, lipschitz + holder)):
                reports[name].records.append(
                    LevelRecord(
                        level=level,
                        h=h,
                        lipschitz=q[0] if lipschitz else lipschitz_estimate(f),
                        holder=dict(zip(HOLDER_GAMMAS, q[len(lipschitz):])),
                        solver_converged=rep.converged,
                        newton_steps=rep.iterations - 1,
                    )
                )

    return reports
