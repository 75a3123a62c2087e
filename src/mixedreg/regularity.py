"""Refinement-stability estimates for Lipschitz and Hoelder seminorms.

The continuous regularity statements about optimal solutions cannot be
verified at a fixed mesh; what can be tested is whether discrete
Lipschitz proxies stabilize under refinement.  :func:`refinement_study`
solves the optimality system on a ladder of nested meshes, warm-starting
each level from the prolonged controls, and reports per-field seminorm
estimates together with stabilization and divergence flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem, geometry, kkt
from .catalog import ProblemSpec
from .fem import FEField
from .fracnorm import HOLDER_LADDER, holder_embedding_probe

__all__ = [
    "LevelRecord",
    "RegularityReport",
    "lipschitz_estimate",
    "holder_estimate",
    "second_difference_estimate",
    "refinement_study",
    "STUDY_FIELDS",
]

HOLDER_GAMMAS = (0.5, 0.9)
STABILIZATION_RTOL = 0.10
DIVERGENCE_RATIO = 1.5
HOLDER_SUBSAMPLE = 2000
HOLDER_SEED = 7
STUDY_FIELDS = ("y", "u", "phi", "psi1", "v", "psi2")
REGULARITY_CSV_HEADER = "field,level,h,lip,holder05,holder09"


def lipschitz_estimate(f: FEField) -> float:
    """Largest first-order difference quotient the mesh can resolve.

    Domain fields: max triangle gradient magnitude.  Boundary fields:
    max over all boundary vertex pairs of |difference| / chordal distance.
    """
    if f.role == "domain":
        grads = fem.gradient_per_triangle(f)
        return float(np.max(np.sqrt(np.sum(grads**2, axis=1))))
    pts = f.coords()
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    d = np.sqrt(np.sum((pts[iu] - pts[ju]) ** 2, axis=1))
    return float(np.max(np.abs(f.values[iu] - f.values[ju]) / d))


def holder_estimate(
    f: FEField,
    gamma: float,
    min_distance: float | None = None,
    max_points: int = HOLDER_SUBSAMPLE,
    seed: int = HOLDER_SEED,
) -> float:
    """Max pairwise quotient |v_i - v_j| / |x_i - x_j|^gamma.

    Pairs closer than ``min_distance`` (default: the mesh size) are
    skipped; quotients below that scale measure interpolation noise, not
    field regularity.  Domain fields on large meshes are subsampled with
    a fixed-seed generator, so the estimate is deterministic.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"Hoelder exponent must lie in (0, 1], got {gamma}")
    if min_distance is None:
        min_distance = f.mesh.mesh_size()
    pts = f.coords()
    vals = f.values
    if f.role == "domain" and pts.shape[0] > max_points:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(pts.shape[0], size=max_points, replace=False))
        pts, vals = pts[keep], vals[keep]
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    d = np.sqrt(np.sum((pts[iu] - pts[ju]) ** 2, axis=1))
    far = d >= min_distance
    if not np.any(far):
        return 0.0
    return float(np.max(np.abs(vals[iu][far] - vals[ju][far]) / d[far] ** gamma))


def second_difference_estimate(f: FEField) -> float:
    """Max centered second difference along the boundary loop, over h^2.

    A C^2 trace keeps this bounded under refinement; a gradient kink
    (the signature of a clipped control) makes it grow like 1/h, which
    separates merely-Lipschitz fields from continuously differentiable
    ones even while :func:`lipschitz_estimate` stabilizes for both.
    """
    if f.role != "boundary":
        raise fem.FieldError("second differences are defined along the boundary loop")
    vals = f.values
    lens = f.mesh.boundary_edge_lengths
    h_prev = np.roll(lens, 1)
    diff2 = np.abs(np.roll(vals, -1) * h_prev + np.roll(vals, 1) * lens - vals * (lens + h_prev))
    scale = 0.5 * lens * h_prev * (lens + h_prev)
    return float(np.max(diff2 / scale))


@dataclass
class LevelRecord:
    level: int
    h: float
    lipschitz: float
    holder: dict
    ladder: dict
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
        change = abs(last - prev) / max(abs(prev), 1e-14)
        self.stabilization = bool(change < STABILIZATION_RTOL) and all(
            r.solver_converged for r in self.records
        )
        if prev > 1e-14:
            self.growth_ratio = last / prev
        else:
            self.growth_ratio = 1.0 if last <= 1e-14 else float("inf")
        self.divergence_flag = bool(self.growth_ratio > DIVERGENCE_RATIO)

    def csv_rows(self) -> list:
        rows = []
        for r in self.records:
            rows.append(
                f"{self.field_name},{r.level},{r.h:.17g},{r.lipschitz:.17g},"
                f"{r.holder[0.5]:.17g},{r.holder[0.9]:.17g}"
            )
        return rows


def _study_fields(state: kkt.KKTState) -> dict:
    return {
        "y": state.y,
        "u": state.u,
        "phi": state.phi,
        "psi1": state.psi1,
        "v": state.v,
        "psi2": state.psi2,
    }


def _ladder(f: FEField) -> dict:
    bnd = f if f.role == "boundary" else fem.trace(f)
    return {kk: holder_embedding_probe(bnd, kk) for kk in HOLDER_LADDER}


def refinement_study(
    spec: ProblemSpec,
    levels,
    damping: float = 0.5,
    max_iter: int = 200,
    kkt_tol: float = kkt.KKT_TOL,
    active_tol: float = kkt.ACTIVE_TOL,
) -> dict:
    """Solve the optimality system on nested meshes and track seminorms.

    ``levels`` must be consecutive integers; each level's solve is
    warm-started by prolonging the previous controls.  A level where the
    fixed point does not converge is still recorded (marked in the
    per-level records) and its fields are used for the warm start, so the
    study degrades honestly instead of stopping.  Returns a dict mapping
    field names to :class:`RegularityReport`.
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
        state, rep = kkt.solve_kkt(
            spec, (u0, v0), damping=damping, max_iter=max_iter, kkt_tol=kkt_tol, active_tol=active_tol
        )
        h = mesh.mesh_size()
        fields = _study_fields(state)
        records = {
            name: LevelRecord(
                level=level,
                h=h,
                lipschitz=lipschitz_estimate(f),
                holder={g: holder_estimate(f, g) for g in HOLDER_GAMMAS},
                ladder={},
                solver_converged=rep.converged,
            )
            for name, f in fields.items()
        }
        # the ladder's Gagliardo weights stay on the mesh's record: build them
        # after the Hoelder estimates have freed their pair arrays
        for name, record in records.items():
            record.ladder = _ladder(fields[name])
            reports[name].records.append(record)
        if idx + 1 < len(levels):
            fine = geometry.refine(mesh)
            u0 = fem.prolong(state.u, fine)
            v0 = fem.prolong(state.v, fine)
            mesh = fine

    for report in reports.values():
        report.finalize()
    return reports
