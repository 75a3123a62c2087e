"""Seminorm estimators and the refinement-stability study."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak, zero_controls
from mixedreg import fem, geometry, kkt, regularity
from mixedreg.catalog import SpecError
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


def test_pair_quotients_reuse_their_tables(disk):
    # four subsampled domain fields at the study's exponents: every block of the walk fills
    # views of tables it allocated once, 3.79 MiB; tables of its own for each block take it
    # to 6.97 MiB
    m = disk(5)
    h = m.mesh_size()
    rng = np.random.default_rng(5)
    fields = [fem.domain_field(m, rng.standard_normal(m.n_vertices)) for _ in range(4)]
    assert traced_peak(lambda: _pair_quotients(fields, [(gamma, h) for gamma in regularity.HOLDER_GAMMAS])) < 5 * 2**20


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
    st.sampled_from([1, 7, fem._STAIR_ROWS]),
    st.integers(0, 2**32 - 1),
)
def test_streamed_pass_matches_per_call_estimates(disk, level, subsample, stair_rows, seed):
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
        mp.setattr(fem, "_STAIR_ROWS", stair_rows)
        streamed = {role: _pair_quotients(fs, exponents) for role, fs in fields.items()}
    # every field and exponent of one pass, in staircase blocks of any height, bit for bit as alone
    for role, fs in fields.items():
        expected = [[per_call_holder(f, g, near, subsample) for g, near in exponents] for f in fs]
        assert streamed[role] == expected


# ---------------------------------------------------------------------------
# refinement study


def test_study_level_validation(configs):
    with pytest.raises(SpecError, match="empty"):
        refinement_study(configs["constant_kkt"], [])
    with pytest.raises(SpecError, match="at least two levels"):
        refinement_study(configs["constant_kkt"], [3])
    with pytest.raises(SpecError, match="consecutive"):
        refinement_study(configs["constant_kkt"], [3, 5])
    with pytest.raises(SpecError, match="non-negative"):
        refinement_study(configs["constant_kkt"], [-1, 0])


def test_study_solves_on_the_chain_of_its_finest_mesh(configs, monkeypatch):
    # one mesh build, at the last level; every level's solve runs on a mesh of its coarser chain
    built, solved = [], []
    build, solve = geometry.build_mesh, kkt.solve_kkt
    monkeypatch.setattr(geometry, "build_mesh", lambda *args: built.append(build(*args)) or built[-1])
    monkeypatch.setattr(kkt, "solve_kkt", lambda spec, start, **kw: solved.append(start[0].mesh) or solve(spec, start, **kw))
    refinement_study(configs["smooth_constrained"], [2, 3, 4], max_iter=1, kkt_tol=5e-3)
    (finest,) = built
    assert finest.refinement_level == 4
    assert [id(m) for m in solved] == [id(finest.coarser.coarser), id(finest.coarser), id(finest)]


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
    return regularity.LevelRecord(level, 2.0**-level, lipschitz, {0.5: 0.0, 0.9: 0.0}, converged, 2)


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


@pytest.mark.parametrize("study", ["smooth_study", "jump_study"])
def test_nested_levels_take_at_most_two_newton_steps(request, study):
    # a start prolonged from the coarser optimum lies within O(h) of the new one
    for name, report in request.getfixturevalue(study).items():
        assert all(r.solver_converged for r in report.records), name
        assert all(r.newton_steps <= 2 for r in report.records[1:]), name


@pytest.mark.parametrize("name", ["smooth_constrained", "jump_bound"])
def test_nested_start_reaches_the_cold_start_optimum(configs, disk, name):
    spec = configs[name]
    coarse, _ = kkt.solve_kkt(spec, kkt.cold_start(spec, *zero_controls(disk(3))), kkt_tol=5e-3)
    for _ in (4, 5):
        mesh = geometry.refine(coarse.y.mesh)
        cold, cold_rep = kkt.solve_kkt(
            spec, kkt.cold_start(spec, fem.prolong(coarse.u, mesh), fem.prolong(coarse.v, mesh)), kkt_tol=5e-3
        )
        nested, nested_rep = kkt.solve_kkt(
            spec, (fem.prolong(coarse.y, mesh), fem.prolong(coarse.phi, mesh)), kkt_tol=5e-3
        )
        assert cold_rep.converged and nested_rep.converged
        for field_name in STUDY_FIELDS:
            a, b = getattr(cold, field_name).values, getattr(nested, field_name).values
            assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(a)), field_name
        assert np.array_equal(cold.active_domain, nested.active_domain)
        assert np.array_equal(cold.active_boundary, nested.active_boundary)
        coarse = nested


def test_unconverged_level_starts_the_next_one(configs, monkeypatch):
    # an unconverged level is recorded as such and its iterate starts the
    # next level; nothing falls back to a cold start
    calls = []
    cold_start = kkt.cold_start
    monkeypatch.setattr(kkt, "cold_start", lambda *args: calls.append(args) or cold_start(*args))
    study = refinement_study(configs["smooth_constrained"], [3, 4], max_iter=1, kkt_tol=5e-3)
    assert len(calls) == 1
    for name, report in study.items():
        assert [r.level for r in report.records] == [3, 4], name
        assert not report.records[0].solver_converged, name
        assert all(r.newton_steps <= 1 for r in report.records), name
        assert not report.divergence_flag, name
        assert not report.stabilization, name


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


# lip, holder05 and holder09 of the smooth study, levels 3-6, with each level
# after the first started from the prolonged (y, phi) of the level before;
# levels 5 and 6 read the domain subsample and every level reads the
# all-pairs boundary quotient.  Started from the prolonged controls instead,
# they differ by at most 6.6e-10 relative: Newton stops at another iterate
# within its residual tolerance of the same discrete optimum.
PINNED_SMOOTH_STUDY = {
    "y": (
        (0.4731430594563008, 0.2912228472116991, 0.37348586535473444),
        (0.49706755120866836, 0.29151756165763, 0.3823861114604018),
        (0.5118239216378071, 0.29158212540100925, 0.38444947003392027),
        (0.519761241519916, 0.2914430285444144, 0.38438104438498627),
    ),
    "u": (
        (0.6070136759509296, 0.6028823896148798, 0.5463472617348237),
        (0.6123811882609866, 0.6037659006392595, 0.5464080167075607),
        (0.6142488474250338, 0.6041612244200155, 0.5464601738648275),
        (0.6149605371311997, 0.6041405215410491, 0.5464410616647127),
    ),
    "phi": (
        (0.4383827261629887, 0.22263705396573485, 0.3312278714995701),
        (0.4608672385609268, 0.22184496119748698, 0.3497689261452535),
        (0.4770075795884492, 0.22155446974927956, 0.35174527673729306),
        (0.48583586484168706, 0.221527139899499, 0.35083191727034113),
    ),
    "psi1": (
        (0.5049903792793802, 0.4226796394811269, 0.43066465575517304),
        (0.5138674249913429, 0.4224497791504752, 0.4311187452081385),
        (0.5186343464326113, 0.42271883412570255, 0.4307440187970608),
        (0.5211037061950325, 0.4225807058435143, 0.4309929264083442),
    ),
    "v": (
        (0.3177872377094518, 0.4221435731267582, 0.33039984834049474),
        (0.3180062815043489, 0.42203996029515894, 0.33036134923581967),
        (0.3182002656498505, 0.4220069604487073, 0.3303562431751724),
        (0.31823999384806084, 0.4225755463957501, 0.3303487572419417),
    ),
    "psi2": (
        (0.24655891722280115, 0.30367212605717664, 0.2425584400465622),
        (0.24764569378866083, 0.30397824465329487, 0.24244017325481163),
        (0.24785956629376898, 0.30448017591080034, 0.24239907503715002),
        (0.24790390368460058, 0.3044786315504716, 0.24239044517018504),
    ),
}


def test_study_values_are_pinned(smooth_study):
    for name, rows in PINNED_SMOOTH_STUDY.items():
        got = [(r.lipschitz, r.holder[0.5], r.holder[0.9]) for r in smooth_study[name].records]
        np.testing.assert_allclose(got, rows, rtol=1e-12, atol=0.0, err_msg=name)
