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
    _pair_quotients,
    lipschitz_estimate,
    refinement_study,
)


# ---------------------------------------------------------------------------
# pointwise estimators


def test_lipschitz_constant_field(disk):
    m = disk(3)
    assert lipschitz_estimate(fem.domain_field(m, 4.0)) <= 1e-12
    assert _pair_quotients([fem.boundary_field(m, 4.0)], [(1.0, 0.0)]) == [[0.0]]
    # a boundary field's Lipschitz estimate is its gamma = 1 pair quotient
    with pytest.raises(FieldError):
        lipschitz_estimate(fem.boundary_field(m, 4.0))


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
    h = m.mesh_size()
    f = fem.domain_field(m, m.vertices[:, 0])
    # gamma = 1 recovers a chordal Lipschitz quotient; diameter pairs
    # realize the maximum for a linear field
    [[lip, holder05]] = _pair_quotients([f], [(1.0, h), (0.5, h)])
    assert lip == pytest.approx(1.0, abs=1e-10)
    assert holder05 == pytest.approx(2.0 ** 0.5, rel=1e-6)


def test_holder_deterministic(disk):
    m = disk(6)
    h = m.mesh_size()
    rng = np.random.default_rng(0)
    f = fem.domain_field(m, rng.standard_normal(m.n_vertices))
    assert m.n_vertices > regularity.HOLDER_SUBSAMPLE
    a = _pair_quotients([f], [(0.5, h)])
    assert a == _pair_quotients([f], [(0.5, h)])
    assert np.isfinite(a[0][0]) and a[0][0] > 0.0


def per_call_holder(f, gamma, min_distance, max_points):
    """One quotient from a table of every pair at once, with no blocks and no shared work."""
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
@given(
    st.sampled_from([2, 3]),
    st.sampled_from([40, regularity.HOLDER_SUBSAMPLE]),
    st.sampled_from([97, 4096, regularity.HOLDER_CHUNK]),
    st.integers(0, 2**32 - 1),
)
def test_streamed_pass_matches_per_call_estimates(disk, level, subsample, chunk, seed):
    m = disk(level)
    h = m.mesh_size()
    rng = np.random.default_rng(seed)
    fields = {
        "domain": [fem.domain_field(m, rng.standard_normal(m.n_vertices)) for _ in range(2)],
        "boundary": [fem.boundary_field(m, rng.standard_normal(m.n_boundary)) for _ in range(2)],
    }
    # the boundary Lipschitz quotient and the Hoelder quotients the study reports
    exponents = [(1.0, 0.0), (0.5, h), (0.9, h), (1.0, h)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "HOLDER_SUBSAMPLE", subsample)
        mp.setattr(regularity, "HOLDER_CHUNK", chunk)
        streamed = {role: _pair_quotients(fs, exponents) for role, fs in fields.items()}
    # every field and exponent of one pass, in blocks that split rows, bit for bit as alone
    for role, fs in fields.items():
        expected = [[per_call_holder(f, g, near, subsample) for g, near in exponents] for f in fs]
        assert streamed[role] == expected


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
    assert report.growth_ratio == 2.0
    assert not report.divergence_flag
    assert not report.stabilization

    report = regularity.RegularityReport("u", [record(3, 9.0), record(4, 18.0)])
    assert report.divergence_flag


def test_finalize_round_off_seminorms_are_zero():
    # a constant field's seminorms are eps-sized and grow like 1/h
    report = regularity.RegularityReport("y", [record(3, 6.4e-15), record(4, 1.9e-14)])
    assert report.growth_ratio == 1.0
    assert report.stabilization and not report.divergence_flag


def test_verdicts_follow_the_records():
    # the verdicts read the records as they stand, with no step that freezes them
    report = regularity.RegularityReport("u", [record(3, 9.0)])
    assert report.growth_ratio == 1.0
    assert not report.stabilization and not report.divergence_flag
    report.records.append(record(4, 9.1))
    assert report.stabilization
    report.records.append(record(5, 18.0))
    assert report.growth_ratio == pytest.approx(18.0 / 9.1)
    assert report.divergence_flag and not report.stabilization


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


# lip, holder05 and holder09 of the smooth study, levels 3-6, as computed
# before the estimators were streamed; levels 5 and 6 read the domain
# subsample and every level reads the all-pairs boundary quotient
PINNED_SMOOTH_STUDY = {
    "y": (
        (0.4731430594563008, 0.2912228472116991, 0.37348586535473444),
        (0.49706755120866186, 0.2915175616575722, 0.3823861114603984),
        (0.5118239215113466, 0.291582125495991, 0.3844494698871872),
        (0.5197612413037063, 0.29144302873730216, 0.384381044217769),
    ),
    "u": (
        (0.6070136759509296, 0.6028823896148798, 0.5463472617348237),
        (0.6123811882609932, 0.6037659006392601, 0.5464080167075654),
        (0.6142488473572344, 0.6041612244274784, 0.5464601738490618),
        (0.6149605370794061, 0.6041405213737439, 0.5464410616352725),
    ),
    "phi": (
        (0.4383827261629887, 0.22263705396573485, 0.3312278714995701),
        (0.46086723856093764, 0.2218449611974945, 0.3497689261452684),
        (0.47700757953194567, 0.22155446987780392, 0.3517452767274031),
        (0.48583586482553426, 0.22152714004164753, 0.3508319172777153),
    ),
    "psi1": (
        (0.5049903792793802, 0.4226796394811269, 0.43066465575517304),
        (0.5138674249913605, 0.42244977915048065, 0.43111874520815274),
        (0.5186343463570672, 0.4227188341171745, 0.43074401879188506),
        (0.5211037061042413, 0.42258070584282026, 0.430992926378917),
    ),
    "v": (
        (0.3177872377094518, 0.4221435731267582, 0.33039984834049474),
        (0.3180062815043587, 0.4220399602951625, 0.33036134923582267),
        (0.31820026562589027, 0.42200696040314944, 0.3303562431384881),
        (0.3182399938100097, 0.4225755461295464, 0.33034875721786117),
    ),
    "psi2": (
        (0.24655891722280115, 0.30367212605717664, 0.2425584400465622),
        (0.24764569378867102, 0.3039782446532964, 0.24244017325482656),
        (0.24785956636409126, 0.3044801759993233, 0.24239907510775402),
        (0.2479039037659758, 0.3044786316357613, 0.24239044524749334),
    ),
}


def test_study_values_are_pinned(smooth_study):
    for name, rows in PINNED_SMOOTH_STUDY.items():
        got = [(r.lipschitz, r.holder[0.5], r.holder[0.9]) for r in smooth_study[name].records]
        np.testing.assert_allclose(got, rows, rtol=1e-12, atol=0.0, err_msg=name)
