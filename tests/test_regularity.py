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
# within its residual tolerance of the same discrete optimum.  Retaken when the
# controls, the tracking and the cost moved to the lumped weights, which moved
# the values by at most 2.2e-3 relative (phi's level-3 lip).
PINNED_SMOOTH_STUDY = {
    "y": (
        (0.4727024213804607, 0.2913572652355574, 0.3730667245909757),
        (0.49714121492124264, 0.29155038211356765, 0.3825050838441681),
        (0.5119423123402541, 0.2915904167931374, 0.3844011814545008),
        (0.5198510944341787, 0.2914455319268116, 0.38437207448486455),
    ),
    "u": (
        (0.6065972502659759, 0.6028253031699178, 0.5461078836851458),
        (0.6123235725416049, 0.6037521998321222, 0.5463476955393429),
        (0.61423213883066, 0.6041512457861093, 0.5464447172958355),
        (0.614956002526165, 0.6041395362272782, 0.5464371971803672),
    ),
    "phi": (
        (0.43743762661298546, 0.22255611644810935, 0.33056338307573613),
        (0.46060577954711296, 0.22182443724380657, 0.3495622359981214),
        (0.47691807061764163, 0.22155008933283224, 0.35169232526380984),
        (0.4858127852986367, 0.2215240032907305, 0.3508190056980552),
    ),
    "psi1": (
        (0.5045216968628381, 0.42262020861381955, 0.4304365469879528),
        (0.5137385435998538, 0.42242654148929554, 0.4310529553288739),
        (0.5185942422600205, 0.422714093842336, 0.4307329126516932),
        (0.5210926868739199, 0.4225794079049201, 0.4309885620846181),
    ),
    "v": (
        (0.3177330065087354, 0.42207905281292224, 0.33033028141445603),
        (0.3179980194228093, 0.42202176944620223, 0.33034149545558866),
        (0.31819868896497744, 0.42200204068009517, 0.3303511011565317),
        (0.31823960212480534, 0.4225730061824519, 0.330347460778248),
    ),
    "psi2": (
        (0.24661218361853599, 0.3037787305662551, 0.24263524741465078),
        (0.24765525512393022, 0.30399283706358665, 0.24246160203360845),
        (0.247861981056246, 0.3044856190856194, 0.24240454441210135),
        (0.24790451672493155, 0.3044798716418899, 0.2423918135073142),
    ),
}


def test_study_values_are_pinned(smooth_study):
    for name, rows in PINNED_SMOOTH_STUDY.items():
        got = [(r.lipschitz, r.holder[0.5], r.holder[0.9]) for r in smooth_study[name].records]
        np.testing.assert_allclose(got, rows, rtol=1e-12, atol=0.0, err_msg=name)
