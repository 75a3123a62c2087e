"""Shared fixtures.

Expensive solves (the level-4 constant-instance recovery, the two
refinement studies, the seeded Fourier sweeps) are session-scoped so the
module tests and the acceptance suite reuse one computation.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mixedreg import catalog, fem, geometry, kkt, regularity
from mixedreg.cli import _fourier_coeffs, _fourier_fields
from mixedreg.fracnorm import chain_rule_check, product_check

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def disk():
    cache = {}

    def get(level):
        if level not in cache:
            cache[level] = geometry.build_mesh("disk", level)
        return cache[level]

    return get


@pytest.fixture
def factorisations(monkeypatch):
    """(matrix, permc_spec) of each ``splu`` factorisation during the test, in call order."""
    seen = []
    splu = spla.splu

    def recorded(a, **options):
        seen.append((a, options.get("permc_spec", "COLAMD")))
        return splu(a, **options)

    monkeypatch.setattr(spla, "splu", recorded)
    return seen


@pytest.fixture(scope="session")
def configs():
    return {
        p.stem: catalog.load_problem_config(str(p)) for p in sorted(CONFIG_DIR.glob("*.cfg"))
    }


def zero_controls(mesh):
    return fem.domain_field(mesh, 0.0), fem.boundary_field(mesh, 0.0)


def traced_peak(run):
    """Peak bytes that tracemalloc traces while ``run()`` executes; numpy reports its array data to it."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def quadratic_spec():
    """Unconstrained linear-quadratic instance; exact optimum via dense solve."""
    return catalog.ProblemSpec(
        preset="disk",
        p=2.0,
        q=2.0,
        lambda1=1.0,
        lambda2=0.0,
        mu1=1.0,
        mu2=0.0,
        a11="1",
        a12="0",
        a22="1",
        a0="1",
        f="0",
        L="(y - 1)^2 / 2",
        ell="0",
        g1="y - 100",
        g2="y - 100",
        zeta1=("t", 1.0),
        zeta2=("t", 1.0),
        N=2,
    )


@pytest.fixture(scope="session")
def constant_solution(configs, disk):
    """Level-4 solve of the manufactured constant instance (C3/C5)."""
    spec = configs["constant_kkt"]
    mesh = disk(4)
    start = kkt.cold_start(spec, *zero_controls(mesh))
    state, report = kkt.solve_kkt(spec, start, max_iter=200, kkt_tol=1e-7)
    return spec, mesh, state, report


@pytest.fixture(scope="session")
def quadratic_solution(quadratic_spec, disk):
    """Level-2 solve of the linear-quadratic instance."""
    mesh = disk(2)
    start = kkt.cold_start(quadratic_spec, *zero_controls(mesh))
    state, report = kkt.solve_kkt(quadratic_spec, start, max_iter=400, kkt_tol=1e-8)
    return quadratic_spec, mesh, state, report


@pytest.fixture(scope="session")
def smooth_solution(configs, disk):
    """Level-3 solve of the partially active smooth instance."""
    spec = configs["smooth_constrained"]
    mesh = disk(3)
    start = kkt.cold_start(spec, *zero_controls(mesh))
    state, report = kkt.solve_kkt(spec, start, max_iter=200, kkt_tol=5e-3)
    return spec, mesh, state, report


@pytest.fixture(scope="session")
def fourier_sweep():
    """Seeded band-limited fields pushed through both composition checks.

    The Fourier coefficients are drawn once per field so every level
    evaluates the same function; refinement stability is meaningless for
    fields that change with the mesh.  Like the C8 commands, it builds
    only the boundary polygon of each level and measures all of a level's
    draws in one call.
    """
    levels = (3, 4, 5, 6)

    rng = np.random.default_rng(42)
    chain_draws = [_fourier_coeffs(rng) for _ in range(50)]
    chain_max = {}
    for level in levels:
        mesh = geometry.boundary_fan("disk", level)
        fields = _fourier_fields(mesh, chain_draws, 5.0)
        chain_max[level] = max(ratio for _, _, ratio in chain_rule_check("sin(t)", fields, 1.0 / 3.0, 2.0))

    rng = np.random.default_rng(43)
    prod_draws = [(_fourier_coeffs(rng), _fourier_coeffs(rng)) for _ in range(50)]
    prod_max = {}
    for level in levels:
        mesh = geometry.boundary_fan("disk", level)
        fields = _fourier_fields(mesh, [c for pair in prod_draws for c in pair], 2.0)
        pairs = list(zip(fields[::2], fields[1::2]))
        prod_max[level] = max(ratio for _, _, ratio in product_check(pairs, 0.25, 0.5, 0.5, 1.0, 2.0, 2.0))

    return {"chain": chain_max, "product": prod_max}


@pytest.fixture(scope="session")
def smooth_study(configs):
    """Refinement study on the smooth constrained instance (C9)."""
    return regularity.refinement_study(
        configs["smooth_constrained"], [3, 4, 5, 6], max_iter=200, kkt_tol=5e-3
    )


@pytest.fixture(scope="session")
def jump_study(configs):
    """Control experiment: interior cap jumps across x1 = 1/pi (C9)."""
    return regularity.refinement_study(configs["jump_bound"], [3, 4, 5], max_iter=150, kkt_tol=5e-3)
