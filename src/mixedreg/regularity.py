"""Refinement-stability estimates for Lipschitz and Hoelder seminorms.

The continuous regularity statements about optimal solutions cannot be
verified at a fixed mesh; what can be tested is whether discrete
Lipschitz proxies stabilize under refinement.  :func:`refinement_study`
solves the optimality system on consecutive nested meshes, warm-starting
each level from the prolonged controls, and records per field and level
the Lipschitz estimate and the Hoelder estimates at ``HOLDER_GAMMAS``,
together with stabilization and divergence flags; a divergence flag
needs every level converged.  The pairwise quotient
|v_i - v_j| / |x_i - x_j|^gamma has one owner, :class:`HolderPairs`,
which keeps a mesh's pairs and distances for every field and exponent;
the Lipschitz estimate of a boundary field is its gamma = 1 case over
every pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem, geometry, kkt
from .catalog import ProblemSpec
from .fem import FEField

__all__ = [
    "HolderPairs",
    "LevelRecord",
    "RegularityReport",
    "lipschitz_estimate",
    "holder_estimate",
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
HOLDER_CHUNK = 1 << 18
STUDY_FIELDS = ("y", "u", "phi", "psi1", "v", "psi2")
REGULARITY_CSV_HEADER = "field,level,h,lip,holder05,holder09"


class HolderPairs:
    """The node pairs of one mesh and field role, and their distances.

    Domain fields on meshes with more than ``max_points`` vertices are
    subsampled with a fixed-seed generator, so every table of a mesh
    holds the same pairs.  The distances raised to each gamma and the
    mask of pairs closer than each ``min_distance`` are kept, so every
    field of a mesh shares them.  A subsample of 2000 points makes 2 M
    pairs: indices are 32-bit and temporaries are formed
    ``HOLDER_CHUNK`` pairs at a time.
    """

    def __init__(self, mesh, role: str, max_points: int = HOLDER_SUBSAMPLE, seed: int = HOLDER_SEED):
        probe = fem.domain_field(mesh, 0.0) if role == "domain" else fem.boundary_field(mesh, 0.0)
        self.mesh, self.role = mesh, role
        pts = probe.coords()
        self.keep = None
        if role == "domain" and pts.shape[0] > max_points:
            rng = np.random.default_rng(seed)
            self.keep = np.sort(rng.choice(pts.shape[0], size=max_points, replace=False))
            pts = pts[self.keep]
        i, j = np.triu_indices(pts.shape[0], k=1)
        self.i, self.j = i.astype(np.int32), j.astype(np.int32)
        del i, j
        x, y = np.ascontiguousarray(pts.T)
        self.d = np.empty(self.i.size)
        for part in self._chunks():
            i, j = self.i[part], self.j[part]
            d2 = x[i] - x[j]
            d2 *= d2
            dy = y[i] - y[j]
            dy *= dy
            d2 += dy
            np.sqrt(d2, out=self.d[part])
        self._powers = {}
        self._near = {}

    def _chunks(self):
        return (slice(k, k + HOLDER_CHUNK) for k in range(0, self.i.size, HOLDER_CHUNK))

    def quotients(self, f: FEField, gammas, min_distance: float) -> list:
        """Max of |v_i - v_j| / |x_i - x_j|^gamma over the pairs at least min_distance apart.

        One maximum per gamma in ``gammas``; each chunk's differences
        |v_i - v_j| are formed once and divided by every power.
        """
        if f.mesh is not self.mesh or f.role != self.role:
            raise fem.FieldError(f"the pair table belongs to {self.role} fields of another mesh")
        for gamma in gammas:
            if gamma not in self._powers:
                self._powers[gamma] = self.d**gamma
        if min_distance not in self._near:
            self._near[min_distance] = self.d < min_distance
        near = self._near[min_distance]
        vals = f.values if self.keep is None else f.values[self.keep]
        best = [0.0] * len(gammas)
        for part in self._chunks():
            diff = vals[self.i[part]]
            diff -= vals[self.j[part]]
            np.abs(diff, out=diff)
            q = np.empty_like(diff)
            for k, gamma in enumerate(gammas):
                np.divide(diff, self._powers[gamma][part], out=q)
                # every quotient is >= 0, so zeroing the near pairs leaves the far maximum
                q[near[part]] = 0.0
                best[k] = max(best[k], float(np.max(q)))
        return best


def lipschitz_estimate(f: FEField, pairs: HolderPairs | None = None) -> float:
    """Largest first-order difference quotient the mesh can resolve.

    Domain fields: max triangle gradient magnitude.  Boundary fields:
    max over all boundary vertex pairs of |difference| / chordal distance,
    the gamma = 1 :func:`holder_estimate` with no pair skipped, over
    ``pairs`` when given.
    """
    if f.role == "domain":
        gx, gy = fem.gradient_per_triangle(f)
        return float(np.max(np.sqrt(gx**2 + gy**2)))
    return holder_estimate(f, 1.0, min_distance=0.0, pairs=pairs)


def holder_estimate(
    f: FEField,
    gamma: float,
    min_distance: float | None = None,
    max_points: int = HOLDER_SUBSAMPLE,
    seed: int = HOLDER_SEED,
    pairs: HolderPairs | None = None,
) -> float:
    """Max pairwise quotient |v_i - v_j| / |x_i - x_j|^gamma.

    Pairs closer than ``min_distance`` (default: the mesh size) are
    skipped; quotients below that scale measure interpolation noise, not
    field regularity.  Domain fields on large meshes are subsampled with
    a fixed-seed generator, so the estimate is deterministic.  A caller
    that evaluates several fields of one mesh passes their shared
    ``pairs`` table, which fixes the subsample in place of ``max_points``
    and ``seed``.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"Hoelder exponent must lie in (0, 1], got {gamma}")
    if min_distance is None:
        min_distance = f.mesh.mesh_size()
    if pairs is None:
        pairs = HolderPairs(f.mesh, f.role, max_points, seed)
    return pairs.quotients(f, (gamma,), min_distance)[0]


@dataclass
class LevelRecord:
    level: int
    h: float
    lipschitz: float
    holder: dict
    solver_converged: bool


@dataclass
class RegularityReport:
    """Per-level seminorm estimates of one solution field."""

    field_name: str
    records: list = field(default_factory=list)
    stabilization: bool = False
    growth_ratio: float = 1.0
    divergence_flag: bool = False

    def finalize(self) -> None:
        if len(self.records) < 2:
            return
        prev, last = self.records[-2].lipschitz, self.records[-1].lipschitz
        change = abs(last - prev) / max(abs(prev), SEMINORM_FLOOR)
        self.stabilization = bool(change < STABILIZATION_RTOL) and all(
            r.solver_converged for r in self.records
        )
        if prev > SEMINORM_FLOOR:
            self.growth_ratio = last / prev
        else:
            self.growth_ratio = 1.0 if last <= SEMINORM_FLOOR else float("inf")
        # growth measured on unconverged iterates is no evidence of divergence
        self.divergence_flag = bool(self.growth_ratio > DIVERGENCE_RATIO) and all(
            r.solver_converged for r in self.records
        )

    def csv_rows(self) -> list:
        rows = []
        for r in self.records:
            rows.append(
                f"{self.field_name},{r.level},{r.h:.17g},{r.lipschitz:.17g},"
                f"{r.holder[0.5]:.17g},{r.holder[0.9]:.17g}"
            )
        return rows


def refinement_study(
    spec: ProblemSpec,
    levels,
    max_iter: int = kkt.MAX_ITER,
    kkt_tol: float = kkt.KKT_TOL,
) -> dict:
    """Solve the optimality system on nested meshes and track seminorms.

    ``levels`` must be consecutive integers; each level's solve is
    warm-started by prolonging the previous controls.  A level where the
    solver does not converge is still recorded (marked in the per-level
    records) and its fields are used for the warm start, so the study
    degrades honestly instead of stopping.  Per level, the domain fields
    share one :class:`HolderPairs` table and the boundary fields another,
    and each field's Hoelder quotients at every gamma take one pass.
    Returns a dict mapping field names to :class:`RegularityReport`.
    """
    levels = [int(l) for l in levels]
    if not levels:
        raise ValueError("level range is empty")
    if any(b - a != 1 for a, b in zip(levels[:-1], levels[1:])):
        raise ValueError(f"levels must be consecutive for warm starting, got {levels}")

    build = geometry.build_disk_mesh if spec.preset == "disk" else geometry.build_ellipse_mesh
    mesh = build(levels[0])
    u0 = fem.domain_field(mesh, 0.0)
    v0 = fem.boundary_field(mesh, 0.0)

    reports = {name: RegularityReport(field_name=name) for name in STUDY_FIELDS}

    for idx, level in enumerate(levels):
        state, rep = kkt.solve_kkt(spec, (u0, v0), max_iter=max_iter, kkt_tol=kkt_tol)
        h = mesh.mesh_size()
        tables = {role: HolderPairs(mesh, role) for role in ("domain", "boundary")}
        for name in STUDY_FIELDS:
            f = getattr(state, name)
            pairs = tables[f.role]
            reports[name].records.append(
                LevelRecord(
                    level=level,
                    h=h,
                    lipschitz=lipschitz_estimate(f, pairs),
                    holder=dict(zip(HOLDER_GAMMAS, pairs.quotients(f, HOLDER_GAMMAS, h))),
                    solver_converged=rep.converged,
                )
            )
        if idx + 1 < len(levels):
            fine = geometry.refine(mesh)
            u0 = fem.prolong(state.u, fine)
            v0 = fem.prolong(state.v, fine)
            mesh = fine

    for report in reports.values():
        report.finalize()
    return reports
