"""Seminorm estimators and the refinement-stability study."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedreg import fem, regularity
from mixedreg.fem import FieldError
from mixedreg.regularity import (
    HOLDER_SEED,
    REGULARITY_CSV_HEADER,
    STUDY_FIELDS,
    HolderPairs,
    holder_estimate,
    lipschitz_estimate,
    refinement_study,
)


# ---------------------------------------------------------------------------
# pointwise estimators


def test_lipschitz_constant_field(disk):
    m = disk(3)
    assert lipschitz_estimate(fem.domain_field(m, 4.0)) <= 1e-12
    assert lipschitz_estimate(fem.boundary_field(m, 4.0)) == 0.0


def test_lipschitz_linear_field(disk):
    m = disk(4)
    f = fem.domain_field(m, m.vertices[:, 0])
    assert lipschitz_estimate(f) == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_kink_field(disk):
    # sector boundaries align with x1 = 0, so the P1 interpolant of |x1|
    # has unit slope on every triangle
    m = disk(4)
    f = fem.domain_field(m, np.abs(m.vertices[:, 0]))
    assert lipschitz_estimate(f) == pytest.approx(1.0, abs=1e-12)


def test_holder_linear_field(disk):
    m = disk(3)
    f = fem.domain_field(m, m.vertices[:, 0])
    # gamma = 1 recovers a chordal Lipschitz quotient; diameter pairs
    # realize the maximum for a linear field
    assert holder_estimate(f, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert holder_estimate(f, 0.5) == pytest.approx(2.0 ** 0.5, rel=1e-6)


def test_holder_validation(disk):
    f = fem.domain_field(disk(1), 1.0)
    for g in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            holder_estimate(f, g)


def test_holder_deterministic(disk):
    m = disk(6)
    rng = np.random.default_rng(0)
    f = fem.domain_field(m, rng.standard_normal(m.n_vertices))
    assert m.n_vertices > regularity.HOLDER_SUBSAMPLE
    a = holder_estimate(f, 0.5)
    b = holder_estimate(f, 0.5)
    assert a == b
    c = holder_estimate(f, 0.5, seed=123)
    assert np.isfinite(c) and c > 0.0


def per_call_holder(f, gamma, min_distance, max_points):
    """One pair table per quotient, as every estimate built it before tables were shared."""
    pts, vals = f.coords(), f.values
    if f.role == "domain" and pts.shape[0] > max_points:
        rng = np.random.default_rng(HOLDER_SEED)
        keep = np.sort(rng.choice(pts.shape[0], size=max_points, replace=False))
        pts, vals = pts[keep], vals[keep]
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    d = np.sqrt(np.sum((pts[iu] - pts[ju]) ** 2, axis=1))
    far = d >= min_distance
    if not np.any(far):
        return 0.0
    return float(np.max(np.abs(vals[iu][far] - vals[ju][far]) / d[far] ** gamma))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([40, regularity.HOLDER_SUBSAMPLE]), st.integers(0, 2**32 - 1))
def test_shared_pair_tables_match_per_call_estimates(disk, level, max_points, seed):
    m = disk(level)
    h = m.mesh_size()
    rng = np.random.default_rng(seed)
    tables = {role: HolderPairs(m, role, max_points=max_points) for role in ("domain", "boundary")}
    fields = [fem.domain_field(m, rng.standard_normal(m.n_vertices)) for _ in range(2)]
    fields += [fem.boundary_field(m, rng.standard_normal(m.n_boundary)) for _ in range(2)]
    # every field and exponent reads the same two tables, bit for bit as with its own,
    # and one pass over a field's pairs gives each exponent's own quotient
    gammas = (0.5, 0.9, 1.0)
    for f in fields:
        assert tables[f.role].quotients(f, gammas, h) == [per_call_holder(f, g, h, max_points) for g in gammas]
        for gamma in gammas:
            shared = holder_estimate(f, gamma, pairs=tables[f.role])
            assert shared == holder_estimate(f, gamma, max_points=max_points)
            assert shared == per_call_holder(f, gamma, h, max_points)
        if f.role == "boundary":
            assert lipschitz_estimate(f, tables["boundary"]) == per_call_holder(f, 1.0, 0.0, max_points)


def test_pair_table_rejects_foreign_fields(disk):
    pairs = HolderPairs(disk(2), "boundary")
    with pytest.raises(FieldError):
        holder_estimate(fem.domain_field(disk(2), 1.0), 0.5, pairs=pairs)
    with pytest.raises(FieldError):
        holder_estimate(fem.boundary_field(disk(3), 1.0), 0.5, pairs=pairs)


# ---------------------------------------------------------------------------
# refinement study


def test_study_level_validation(configs):
    with pytest.raises(ValueError):
        refinement_study(configs["constant_kkt"], [])
    with pytest.raises(ValueError):
        refinement_study(configs["constant_kkt"], [3, 5])


def test_study_constant_instance(configs):
    """Constant optimum: every seminorm is zero up to round-off.

    Both levels converge, so the verdicts rest on converged solves: the
    round-off seminorms (below 1e-12 here) read as stable, not diverging.
    """
    study = refinement_study(configs["constant_kkt"], [3, 4], max_iter=200, kkt_tol=1e-7)
    assert set(study.keys()) == set(STUDY_FIELDS)
    for name in ("y", "u", "v"):
        rec = study[name].records
        assert len(rec) == 2
        assert rec[0].lipschitz <= 2e-6, name
        assert rec[1].lipschitz <= 2e-6, name
    for name, report in study.items():
        assert all(r.solver_converged for r in report.records), name
        assert not report.divergence_flag, name
        assert report.stabilization, name


def record(level, lipschitz, converged=True):
    return regularity.LevelRecord(level, 2.0**-level, lipschitz, {0.5: 0.0, 0.9: 0.0}, converged)


def test_finalize_needs_converged_levels_for_divergence():
    # growth measured on an unconverged iterate is no evidence
    report = regularity.RegularityReport("u", [record(3, 9.0), record(4, 18.0, converged=False)])
    report.finalize()
    assert report.growth_ratio == 2.0
    assert not report.divergence_flag
    assert not report.stabilization

    report = regularity.RegularityReport("u", [record(3, 9.0), record(4, 18.0)])
    report.finalize()
    assert report.divergence_flag


def test_finalize_round_off_seminorms_are_zero():
    # a constant field's seminorms are eps-sized and grow like 1/h
    report = regularity.RegularityReport("y", [record(3, 6.4e-15), record(4, 1.9e-14)])
    report.finalize()
    assert report.growth_ratio == 1.0
    assert report.stabilization and not report.divergence_flag


def test_study_record_shape(smooth_study):
    for name, report in smooth_study.items():
        assert report.field_name == name
        assert [r.level for r in report.records] == [3, 4, 5, 6]
        for r in report.records:
            assert r.h > 0.0
            assert set(r.holder.keys()) == {0.5, 0.9}
            assert np.isfinite(r.lipschitz)
        hs = [r.h for r in report.records]
        assert all(a > b for a, b in zip(hs, hs[1:]))


def test_study_smooth_instance_stabilizes(smooth_study):
    for name, report in smooth_study.items():
        assert report.stabilization, name
        assert not report.divergence_flag, name
        assert report.growth_ratio < 1.5


def test_study_jump_instance_diverges(jump_study):
    assert jump_study["u"].divergence_flag
    assert jump_study["u"].growth_ratio == pytest.approx(2.0, rel=0.05)
    assert jump_study["psi1"].divergence_flag
    # the state stays regular even though the control cap jumps
    assert jump_study["y"].growth_ratio < 1.5


def test_study_csv_rows(smooth_study):
    assert REGULARITY_CSV_HEADER == "field,level,h,lip,holder05,holder09"
    rows = smooth_study["u"].csv_rows()
    assert len(rows) == 4
    cells = rows[0].split(",")
    assert cells[0] == "u" and cells[1] == "3"
    assert len(cells) == 6
    float(cells[3])
