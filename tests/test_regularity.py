"""Seminorm estimators and the refinement-stability study."""

import numpy as np
import pytest

from mixedreg import fem, regularity
from mixedreg.fem import FieldError
from mixedreg.regularity import (
    REGULARITY_CSV_HEADER,
    STUDY_FIELDS,
    holder_estimate,
    lipschitz_estimate,
    refinement_study,
    second_difference_estimate,
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


def test_second_difference_smooth_trace(disk):
    # x1^2 on the boundary has bounded curvature under refinement
    vals = []
    for lv in (4, 5, 6):
        m = disk(lv)
        f = fem.boundary_field(m, m.vertices[m.boundary_loop, 0] ** 2)
        vals.append(second_difference_estimate(f))
    assert vals[0] == pytest.approx(2.0, rel=0.05)
    assert max(vals) / min(vals) < 1.1


def test_second_difference_kink_grows(disk):
    # |x1| has a slope jump: the scaled second difference doubles per level
    expected = {3: 20.36, 4: 40.74, 5: 81.48}
    vals = {}
    for lv, e in expected.items():
        m = disk(lv)
        f = fem.boundary_field(m, np.abs(m.vertices[m.boundary_loop, 0]))
        vals[lv] = second_difference_estimate(f)
        assert vals[lv] == pytest.approx(e, rel=1e-2)
    assert vals[4] / vals[3] == pytest.approx(2.0, rel=0.02)
    assert vals[5] / vals[4] == pytest.approx(2.0, rel=0.02)


def test_second_difference_requires_boundary(disk):
    with pytest.raises(FieldError):
        second_difference_estimate(fem.domain_field(disk(1), 1.0))


# ---------------------------------------------------------------------------
# refinement study


def test_study_level_validation(configs):
    with pytest.raises(ValueError):
        refinement_study(configs["constant_kkt"], [])
    with pytest.raises(ValueError):
        refinement_study(configs["constant_kkt"], [3, 5])


def test_study_constant_instance(configs):
    """Constant optimum: primal seminorms are zero up to solver tolerance.

    The warm-started second level starts at the prolonged exact constants,
    so its first control update is below the stall tolerance and the
    solver reports non-convergence; the study must record that honestly.
    """
    study = refinement_study(
        configs["constant_kkt"], [3, 4], damping=0.5, max_iter=200,
        kkt_tol=1e-7, active_tol=1e-5,
    )
    assert set(study.keys()) == set(STUDY_FIELDS)
    for name in ("y", "u", "v"):
        rec = study[name].records
        assert len(rec) == 2
        assert rec[0].solver_converged
        assert rec[0].lipschitz <= 2e-6, name
        assert rec[1].lipschitz <= 2e-6, name
    assert not study["u"].records[1].solver_converged
    assert not study["u"].divergence_flag
    assert not study["u"].stabilization


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
