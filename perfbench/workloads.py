"""The benchmark's workloads: the CLI calls each makes and what must hold.

Each workload is a list of ``mixedreg`` command lines, run in order by
``cli.main(argv)`` with ``--out`` and ``--seed`` prepended.  The seed
changes only ``c8-sweep`` (Fourier coefficient draws) and ``probe-sweep``
(the robinson targets); ``c9-studies`` and ``fine-mesh`` draw nothing at
random.  Why each workload exists, and which
layers it should and should not move, is in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

STUDY_FIELDS = ("y", "u", "phi", "psi1", "v", "psi2")
# the smooth study's KKT tolerance; its reference tolerance is tied to it
SMOOTH_KKT_TOL = 5e-3


@dataclass(frozen=True)
class Call:
    """One CLI call and the outcome the correctness gate requires of it."""

    label: str
    argv: tuple
    required: tuple = ()  # checks in summary.json that must pass
    diverging: tuple = ()  # fields whose divergence flag must trip
    reference: str | None = None  # artifact compared with reference.json
    seed: int | None = None  # fixed CLI seed in place of the benchmark's


WORKLOADS = {
    "c9-studies": (
        Call(
            "smooth",
            (
                "regularity", "--config", "configs/smooth_constrained.cfg", "--levels", "3", "4", "5",
                "--damping", "0.3", "--kkt-tol", str(SMOOTH_KKT_TOL), "--active-tol", "1e-3",
            ),
            required=tuple(f"lipschitz-stable-{f}" for f in STUDY_FIELDS),
            reference="regularity.csv",
        ),
        # known defect: both levels stop at the 150-sweep cap unconverged;
        # they and the study's checks count as failed operations
        Call(
            "jump",
            (
                "regularity", "--config", "configs/jump_bound.cfg", "--levels", "3", "4",
                "--damping", "0.3", "--max-iter", "150", "--kkt-tol", "5e-3", "--active-tol", "1e-3",
            ),
            diverging=("u",),
        ),
    ),
    "c8-sweep": (
        Call(
            "chain",
            ("chain-rule", "--levels", "5", "6", "--samples", "20"),
            required=("ratios-finite", "ratio-stable-under-refinement"),
        ),
        Call(
            "product",
            ("product-rule", "--levels", "5", "6", "--samples", "20"),
            required=("ratios-finite", "ratio-stable-under-refinement"),
        ),
    ),
    "probe-sweep": (
        # The random base point sets the Newton steps of all 81 solves: 2 or
        # 3 per solve, depending on the seed, so a seeded base point would
        # make the work differ by half between seeds.  It stays at the CLI's
        # default seed; the benchmark's seed draws the robinson targets.
        Call(
            "gradient",
            ("gradient-check", "--config", "configs/quadratic_tracking.cfg", "--level", "5"),
            required=("gradient-matches-fd",),
            seed=42,
        ),
        Call(
            "robinson",
            ("robinson", "--config", "configs/quadratic_tracking.cfg", "--level", "5", "--targets", "20"),
            required=("linearized-constraints-surjective",),
        ),
    ),
    "fine-mesh": (
        Call(
            "frac",
            ("frac-norm", "--tau", "0.5", "--k", "2", "--level", "8", "--field", "x1"),
            required=("seminorm-finite", "homogeneity-exact", "norm-identity"),
            reference="fracnorm.csv",
        ),
    ),
}
