"""Fractional boundary norms, composition bounds, Lipschitz-limit seminorms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import traced_peak
from mixedreg import cli, fem, fracnorm, geometry
from mixedreg.fracnorm import (
    FracNormError,
    chain_rule_check,
    gagliardo,
    product_check,
)

TWO_PI_SQ = 2.0 * np.pi**2


def cos_field(mesh):
    return fem.boundary_field(mesh, np.cos(mesh.boundary_params))


def random_field(mesh, seed):
    rng = np.random.default_rng(seed)
    return fem.boundary_field(mesh, rng.standard_normal(mesh.n_boundary))


# ---------------------------------------------------------------------------
# basic identities


def test_constant_field(disk):
    m = disk(3)
    [rep] = gagliardo(fem.boundary_field(m, 2.5), tau=0.5, k=2.0)
    assert rep.seminorm_I == 0.0
    perim = float(np.sum(m.boundary_edge_lengths))
    assert rep.full_norm == pytest.approx(2.5 * np.sqrt(perim), rel=1e-13)


def test_report_fields(disk):
    m = disk(3)
    [rep] = gagliardo(cos_field(m), tau=0.5, k=2.0)
    assert rep.tau == 0.5 and rep.k == 2.0
    assert rep.quadrature_level == 3
    assert rep.seminorm_I > 0.0
    assert rep.full_norm > rep.seminorm_I ** 0.5


def test_homogeneity(disk):
    m = disk(3)
    v = random_field(m, 9)
    [base] = gagliardo(v, tau=0.4, k=3.0)
    for c in (2.0, 3.0, -1.0, 0.5):
        [scaled] = gagliardo(fem.boundary_field(m, c * v.values), tau=0.4, k=3.0)
        assert scaled.seminorm_I == pytest.approx(abs(c) ** 3.0 * base.seminorm_I, rel=1e-12)
        assert scaled.full_norm == pytest.approx(abs(c) * base.full_norm, rel=1e-12)


def test_norm_identity(disk):
    m = disk(3)
    v = random_field(m, 12)
    [rep] = gagliardo(v, tau=0.3, k=2.0)
    lp = fem.lp_norm(v, 2.0)
    assert rep.full_norm**2 == pytest.approx(rep.seminorm_I + lp**2, rel=1e-13)


def test_rotation_invariance(disk):
    # relabeling the start vertex permutes pair contributions only
    m = disk(3)
    v = random_field(m, 3)
    base = gagliardo(v, tau=0.5, k=2.0)[0].seminorm_I
    rolled = gagliardo(fem.boundary_field(m, np.roll(v.values, 7)), tau=0.5, k=2.0)[0].seminorm_I
    assert rolled == pytest.approx(base, rel=1e-12)


def test_triangle_inequality(disk):
    m = disk(2)
    rng = np.random.default_rng(5)
    v1 = fem.boundary_field(m, rng.standard_normal(m.n_boundary))
    v2 = fem.boundary_field(m, rng.standard_normal(m.n_boundary))
    s = fem.boundary_field(m, v1.values + v2.values)
    g = lambda f: gagliardo(f, tau=0.5, k=2.0)[0].full_norm
    assert g(s) <= g(v1) + g(v2) + 1e-12


def test_validation():
    import mixedreg.geometry as geometry

    m = geometry.build_mesh("disk", 1)
    v = fem.boundary_field(m, 1.0)
    with pytest.raises(FracNormError):
        gagliardo(v, tau=0.0, k=2.0)
    with pytest.raises(FracNormError):
        gagliardo(v, tau=1.0, k=2.0)
    with pytest.raises(FracNormError):
        gagliardo(v, tau=0.5, k=0.5)
    with pytest.raises(FracNormError):
        gagliardo(fem.domain_field(m, 1.0), tau=0.5, k=2.0)
    # one call measures one or more boundary fields of one mesh
    with pytest.raises(FracNormError):
        gagliardo(tau=0.5, k=2.0)
    with pytest.raises(FracNormError):
        gagliardo(v, fem.domain_field(m, 1.0), tau=0.5, k=2.0)
    with pytest.raises(FracNormError):
        gagliardo(v, fem.boundary_field(geometry.build_mesh("disk", 1), 1.0), tau=0.5, k=2.0)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("k, amplitude", [(2.0, 1e200), (3.0, 1e150)])
def test_overflow_raises_without_warnings(monkeypatch, rows, k, amplitude):
    # the quadratic form and the powers overflow in every block; the error is the only signal
    monkeypatch.setattr(fem, "_STAIR_ROWS", rows)
    m = geometry.boundary_fan("disk", 3)
    v = fem.boundary_field(m, amplitude * m.vertices[m.boundary_loop, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FracNormError, match="not finite"):
            gagliardo(v, tau=0.5, k=k)


# ---------------------------------------------------------------------------
# quadrature accuracy


def test_cosine_approaches_continuum(disk):
    """Angular cosine at tau = 1/2, k = 2; closed-form limit 2 pi^2."""
    expected_rel = {4: 2.008e-4, 5: 5.020e-5, 6: 1.255e-5}
    for level, rel in expected_rel.items():
        semi = gagliardo(cos_field(disk(level)), tau=0.5, k=2.0)[0].seminorm_I
        measured = abs(semi - TWO_PI_SQ) / TWO_PI_SQ
        assert measured == pytest.approx(rel, rel=5e-3)


def test_cosine_oracle_matches_closed_form():
    val = oracles.angular_cos_oracle(panels=10**5)
    assert val == pytest.approx(TWO_PI_SQ, rel=1e-12)


def test_engine_matches_brute_quadrature(disk):
    # rough random field: panel quadrature converges to ~0.3% of the
    # graded-cell engine, inside the 1% design target
    m = disk(2)
    v = random_field(m, 5)
    semi = gagliardo(v, tau=0.5, k=2.0)[0].seminorm_I
    brute = oracles.brute_gagliardo(v, 0.5, 2.0, panels_per_edge=128)
    assert abs(semi - brute) / brute <= 1e-2


# ---------------------------------------------------------------------------
# composition bounds


def test_chain_rule_zero_mapping(disk):
    m = disk(2)
    v = random_field(m, 5)
    [(lhs, rhs, ratio)] = chain_rule_check("0", [v], 0.5, 2.0)
    assert lhs == 0.0 and ratio == 0.0
    assert rhs > 1.0


def test_chain_rule_linear_mapping(disk):
    # a(t) = 2t: lhs = 2 n(v), rhs = n(v) + 1, so the ratio sits below 2
    m = disk(2)
    v = random_field(m, 5)
    [(lhs, rhs, ratio)] = chain_rule_check("2*t", [v], 0.5, 2.0)
    n = gagliardo(v, tau=0.5, k=2.0)[0].full_norm
    assert lhs == pytest.approx(2.0 * n, rel=1e-12)
    assert ratio == pytest.approx(2.0 * n / (n + 1.0), rel=1e-12)
    assert ratio < 2.0


def test_chain_rule_stability_under_refinement(fourier_sweep):
    ratios = fourier_sweep["chain"]
    for level, r in ratios.items():
        assert np.isfinite(r) and 0.0 < r < 10.0, level
    drift = abs(ratios[6] - ratios[5]) / ratios[5]
    assert drift < 0.20


def test_product_zero_factor(disk):
    m = disk(2)
    v = random_field(m, 5)
    z = fem.boundary_field(m, 0.0)
    [(lhs, rhs, ratio)] = product_check([(z, v)], 0.25, 0.5, 0.5, 1.0, 2.0, 2.0)
    assert lhs == 0.0 and rhs == 0.0 and ratio == 0.0


def test_product_validation(disk):
    m = disk(1)
    v = fem.boundary_field(m, 1.0)
    with pytest.raises(FracNormError):
        product_check([(v, v)], 0.25, 0.5, 0.5, 1.0, 2.0, 3.0)
    with pytest.raises(FracNormError):
        product_check([(v, v)], 0.6, 0.5, 0.5, 1.0, 2.0, 2.0)
    with pytest.raises(FracNormError):
        product_check([(fem.domain_field(m, 1.0), v)], 0.25, 0.5, 0.5, 1.0, 2.0, 2.0)


@pytest.mark.parametrize("k, k1, k2", [(0.0, 2.0, 2.0), (1.0, 0.0, 2.0), (1.0, 2.0, 0.0), (0.5, 1.0, 1.0)])
def test_product_rejects_exponents_below_one(disk, k, k1, k2):
    v = fem.boundary_field(disk(1), 1.0)
    with pytest.raises(FracNormError, match="must be >= 1"):
        product_check([(v, v)], 0.25, 0.5, 0.5, k, k1, k2)


def test_product_stability_under_refinement(fourier_sweep):
    ratios = fourier_sweep["product"]
    for level, r in ratios.items():
        assert np.isfinite(r) and 0.0 < r < 10.0, level
    drift = abs(ratios[6] - ratios[5]) / ratios[5]
    assert drift < 0.20


# ---------------------------------------------------------------------------
# seminorm at the Lipschitz-limit order tau = 1 - 1/k: bounded under
# refinement for a Lipschitz trace, growing for a rougher one


def test_probe_constant_is_zero(disk):
    assert gagliardo(fem.boundary_field(disk(3), 2.5), tau=0.5, k=2.0)[0].seminorm_I == 0.0


def test_probe_ladder_smooth_field(disk):
    """Smooth trace: ladder values frozen, k-th roots decrease toward 1."""
    m = disk(5)
    v = cos_field(m)
    expected = {2.0: 19.7382, 4.0: 14.8037, 8.0: 10.7943, 16.0: 7.75241}
    roots = []
    for k, e in expected.items():
        val = gagliardo(v, tau=1.0 - 1.0 / k, k=k)[0].seminorm_I
        assert val == pytest.approx(e, rel=1e-4)
        roots.append(val ** (1.0 / k))
    assert all(a > b for a, b in zip(roots, roots[1:]))


def test_probe_smooth_field_stable_under_refinement(disk):
    vals = [gagliardo(cos_field(disk(lv)), tau=0.5, k=2.0)[0].seminorm_I for lv in (3, 4, 5, 6)]
    assert vals[0] == pytest.approx(19.72336, rel=1e-5)
    assert vals[-1] == pytest.approx(19.738961, rel=1e-5)
    assert abs(vals[-1] - vals[0]) / vals[0] < 1e-3


def test_probe_step_field_diverges_logarithmically(disk):
    """Jump trace: k = 2 probe grows by 2 jump^2 amp^2 ln 2 per level."""
    vals = []
    for lv in (4, 5, 6):
        m = disk(lv)
        v = fem.boundary_field(m, np.sign(np.cos(m.boundary_params)))
        vals.append(gagliardo(v, tau=0.5, k=2.0)[0].seminorm_I)
    incs = [b - a for a, b in zip(vals, vals[1:])]
    for inc in incs:
        assert inc == pytest.approx(oracles.STEP_LADDER_INCREMENT, rel=5e-3)


# ---------------------------------------------------------------------------
# Gagliardo weights, built on every pass


GOLDEN_PAIRS = ((1.0 / 3.0, 2.0), (0.25, 1.0), (0.5, 2.0), (0.75, 4.0))
# seminorm_I of fourier_probe for GOLDEN_PAIRS, computed by an earlier
# quadrature that built every weight inside each call.  Boundary-only work
# reads nothing of the interior, so these tests build the boundary fan.
GOLDEN_SEMINORMS = {
    3: (35.13348079453367, 35.444166764544626, 38.08534276692461, 90.46161453873229),
    5: (35.42549277735052, 35.60490135326795, 38.46530078413479, 92.85627364873683),
    6: (35.440394132923835, 35.61416971525984, 38.4848973728603, 92.98150472575001),
    7: (35.44412425540849, 35.61663981285865, 38.4898149488199, 93.01297349806501),
}


def fourier_probe(mesh):
    th = mesh.boundary_params
    return fem.boundary_field(mesh, np.cos(th) + 0.5 * np.sin(2 * th) - 0.3 * np.cos(5 * th) + 0.2)


@pytest.mark.parametrize("level", sorted(GOLDEN_SEMINORMS))
def test_golden_seminorms(level):
    m = geometry.boundary_fan("disk", level)
    v = fourier_probe(m)
    for (tau, k), expected in zip(GOLDEN_PAIRS, GOLDEN_SEMINORMS[level]):
        assert gagliardo(v, tau=tau, k=k)[0].seminorm_I == pytest.approx(expected, rel=1e-13, abs=0.0)


def count_far_field_builds(monkeypatch):
    """Record the beta of every far-field pass ``gagliardo`` makes."""
    built = []
    build = fracnorm._far_field

    def counted(mesh, vq, beta, k):
        built.append(beta)
        return build(mesh, vq, beta, k)

    monkeypatch.setattr(fracnorm, "_far_field", counted)
    return built


def count_pair_blocks(monkeypatch):
    """Count the staircase blocks that ``fem.pair_blocks`` visits."""
    walked = []
    walk = fem.pair_blocks

    def counted(points, visit, work=()):
        def counted_visit(block, d2, tables):
            walked.append(block)
            return visit(block, d2, tables)

        return walk(points, counted_visit, work)

    monkeypatch.setattr(fem, "pair_blocks", counted)
    return walked


def test_equal_beta_shares_one_table(monkeypatch):
    built = count_far_field_builds(monkeypatch)
    m = geometry.build_mesh("disk", 3)
    fields = [random_field(m, seed) for seed in (4, 5, 6)]
    gagliardo(*fields, tau=0.5, k=2.0)
    assert built == [2.0]


def test_product_check_builds_one_table_per_beta(monkeypatch):
    built = count_far_field_builds(monkeypatch)
    m = geometry.build_mesh("disk", 4)
    pairs = [(random_field(m, 2 * i + 1), random_field(m, 2 * i + 2)) for i in range(5)]
    product_check(pairs, 0.25, 0.5, 0.5, 1.0, 2.0, 2.0)
    assert sorted(built) == [1.25, 2.0]


def test_frac_norm_walks_the_staircase_once(monkeypatch, tmp_path):
    # level 8: 4096 Gauss points in 64-row blocks; the doubled field of the
    # homogeneity check rides along in the same pass
    walked = count_pair_blocks(monkeypatch)
    argv = ["--out", str(tmp_path), "frac-norm", "--tau", "0.5", "--k", "2", "--level", "8"]
    assert cli.main(argv) == 0
    assert len(walked) == 64


def test_streamed_mesh_keeps_no_weights(monkeypatch):
    walked = count_pair_blocks(monkeypatch)
    m = geometry.boundary_fan("disk", 7)  # nb = 1024: 2048 Gauss points, 32 blocks
    rec = fem.p1(m)
    fields = [cos_field(m), random_field(m, 3)]
    together = gagliardo(*fields, tau=0.5, k=2.0)
    assert len(walked) == 32
    # no weights stay on the record: a second pass builds them again
    assert vars(rec).keys() == {"_mesh", "_spec", "_operator", "boundary", "edge_ends"}
    assert [r.seminorm_I for r in together] == [r.seminorm_I for r in gagliardo(*fields, tau=0.5, k=2.0)]
    assert len(walked) == 64


def test_level_eight_pass_reuses_its_tables():
    # the staircase walk reuses one 2 MiB table and one 0.5 MiB scratch, and the adjacent-edge
    # rule builds its weights by one product into their own table: 3.63 MiB.  Fresh tables
    # per block take it to 5.72 MiB.  Allocation sizes are fixed by the mesh.
    m = geometry.boundary_fan("disk", 8)
    v = cos_field(m)
    doubled = fem.boundary_field(m, 2.0 * v.values)
    fem.p1(m).boundary  # the record's quadrature is built once per mesh, outside the pass
    assert traced_peak(lambda: gagliardo(v, doubled, tau=0.5, k=2.0)) < 4.5 * 2**20


def test_many_field_pass_reuses_its_adjacent_table():
    # 20 fields at k = 1 on 512 edges: the adjacent rule writes every field's differences
    # into one table the size of its weights (0.85 MB), 2.25 MiB in all.  The bound is the
    # 2,872,352 bytes that the same call peaked at when each field took its own f(s) and
    # f(t) tables and the weights summed one coordinate at a time
    m = geometry.boundary_fan("disk", 6)
    fields = [random_field(m, seed) for seed in range(20)]
    fem.p1(m).boundary
    assert traced_peak(lambda: gagliardo(*fields, tau=0.5, k=1.0)) < 2_872_352


@pytest.mark.parametrize("count", [1, 5])
def test_one_interpolation_per_call(monkeypatch, count):
    # the far field and every L^k part read the Gauss-point values of one at_boundary call
    calls = []
    at_boundary = fem.P1.at_boundary

    def counted(rec, values):
        calls.append(values.shape)
        return at_boundary(rec, values)

    monkeypatch.setattr(fem.P1, "at_boundary", counted)
    m = geometry.boundary_fan("disk", 4)
    fields = [random_field(m, seed) for seed in range(count)]
    for k in (1.0, 2.0, 3.5):
        gagliardo(*fields, tau=0.5, k=k)
    assert calls == [(count, m.n_boundary)] * 3


# ---------------------------------------------------------------------------
# properties over random boundary fields


@st.composite
def boundary_fields(draw, top=3):
    """A disk level from 2 to ``top`` and a rough field on it.

    The cosine keeps the field's spread of order ``amp``, so differences of
    nodal values never cancel down to rounding error.
    """
    level = draw(st.integers(2, top))
    nb = 8 * 2**level
    amp = draw(st.floats(0.5, 3.0))
    shift = draw(st.floats(0.0, 2.0 * np.pi))
    noise = draw(arrays(np.float64, nb, elements=st.floats(-0.4, 0.4)))
    return level, lambda th: amp * (np.cos(th + shift) + noise)


# k = 1 and k = 2 take their own branches of the quadrature, so draw them exactly too
orders = st.tuples(st.floats(0.05, 0.95), st.sampled_from([1.0, 2.0]) | st.floats(1.0, 6.0))
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@PROPERTY_SETTINGS
@given(boundary_fields(), orders)
def test_kept_weights_reproduce_a_fresh_mesh(field, tk):
    level, values = field
    tau, k = tk
    warm = geometry.build_mesh("disk", level)
    gagliardo(random_field(warm, 0), tau=tau, k=k)  # the mesh has served this beta
    fresh = geometry.build_mesh("disk", level)
    [a] = gagliardo(fem.boundary_field(warm, values(warm.boundary_params)), tau=tau, k=k)
    [b] = gagliardo(fem.boundary_field(fresh, values(fresh.boundary_params)), tau=tau, k=k)
    assert a.seminorm_I == b.seminorm_I and a.full_norm == b.full_norm


@PROPERTY_SETTINGS
@given(boundary_fields(), orders, st.floats(0.1, 10.0), st.booleans())
def test_seminorm_scales_with_power_k(field, tk, c, flip):
    level, values = field
    tau, k = tk
    c = -c if flip else c
    m = geometry.build_mesh("disk", level)
    vals = values(m.boundary_params)
    base = gagliardo(fem.boundary_field(m, vals), tau=tau, k=k)[0].seminorm_I
    scaled = gagliardo(fem.boundary_field(m, c * vals), tau=tau, k=k)[0].seminorm_I
    assert scaled == pytest.approx(abs(c) ** k * base, rel=1e-12)


@PROPERTY_SETTINGS
@given(boundary_fields(), orders, st.floats(-10.0, 10.0))
def test_seminorm_ignores_constants(field, tk, shift):
    level, values = field
    tau, k = tk
    m = geometry.build_mesh("disk", level)
    vals = values(m.boundary_params)
    base = gagliardo(fem.boundary_field(m, vals), tau=tau, k=k)[0].seminorm_I
    shifted = gagliardo(fem.boundary_field(m, vals + shift), tau=tau, k=k)[0].seminorm_I
    assert shifted == pytest.approx(base, rel=1e-12)


def one_call_per_field(fields, tau, k):
    """gagliardo over every field at once, checked against one call per field."""
    together = gagliardo(*fields, tau=tau, k=k)
    assert len(together) == len(fields)
    for v, rep in zip(fields, together):
        [alone] = gagliardo(v, tau=tau, k=k)
        assert rep.seminorm_I == pytest.approx(alone.seminorm_I, rel=1e-12, abs=0.0)
        assert rep.full_norm == pytest.approx(alone.full_norm, rel=1e-12, abs=0.0)


def batch(mesh, count, seed):
    """``count`` rough fields on ``mesh`` and, among them, the offset field 1e3 + cos."""
    th = mesh.boundary_params
    rng = np.random.default_rng(seed)
    fields = [
        fem.boundary_field(mesh, rng.uniform(0.5, 3.0) * (np.cos(th + rng.uniform(0.0, 2.0 * np.pi))
                                                         + rng.uniform(-0.4, 0.4, th.size)))
        for _ in range(count)
    ]
    fields.insert(seed % (count + 1), fem.boundary_field(mesh, 1e3 + np.cos(th)))
    return fields


@PROPERTY_SETTINGS
@given(st.integers(2, 5), st.integers(1, 4), st.floats(0.05, 0.95), st.sampled_from([1.0, 2.0, 3.5]),
       st.integers(0, 2**32 - 1))
def test_one_call_over_many_fields_equals_one_call_per_field(level, count, tau, k, seed):
    one_call_per_field(batch(geometry.boundary_fan("disk", level), count, seed), tau, k)


@pytest.mark.parametrize("k", [1.0, 2.0, 3.5])
def test_one_call_over_many_fields_at_level_seven(k):
    one_call_per_field(batch(geometry.boundary_fan("disk", 7), 3, 7), 0.5, k)


def ordered_far_field(v, tau, k):
    """The far-field sum over ordered pairs of Gauss points on edges that do not touch."""
    qpts, qw = fem.p1(v.mesh).boundary
    vq = fem.p1(v.mesh).at_boundary(v.values)
    nb = v.mesh.n_boundary
    gap = np.subtract.outer(np.arange(2 * nb) // 2, np.arange(2 * nb) // 2) % nb
    far = (gap > 1) & (gap < nb - 1)
    dist = np.where(far, np.linalg.norm(qpts[:, None, :] - qpts[None, :, :], axis=2), 1.0)
    terms = np.outer(qw, qw) * np.abs(np.subtract.outer(vq, vq)) ** k / dist ** (1.0 + tau * k)
    return float(np.sum(np.where(far, terms, 0.0)))


def without_far_field(mp):
    mp.setattr(fracnorm, "_far_field", lambda mesh, vq, beta, k: np.zeros(vq.shape[0]))


@PROPERTY_SETTINGS
@given(boundary_fields(top=4), orders)
def test_unordered_far_field_matches_the_ordered_sum(field, tk):
    level, values = field
    tau, k = tk
    m = geometry.build_mesh("disk", level)
    v = fem.boundary_field(m, values(m.boundary_params))
    total = gagliardo(v, tau=tau, k=k)[0].seminorm_I
    with pytest.MonkeyPatch.context() as mp:
        without_far_field(mp)
        near = gagliardo(v, tau=tau, k=k)[0].seminorm_I
    assert total - near == pytest.approx(ordered_far_field(v, tau, k), rel=1e-12)


# ---------------------------------------------------------------------------
# k = 2: the quadratic forms against the difference forms


@pytest.mark.parametrize("level", [6, 7])
def test_adjacent_moments_match_the_difference_form(level):
    # 512 and 1024 edges: the moment contraction against the difference form it expands
    m = geometry.boundary_fan("disk", level)
    v = fourier_probe(m)
    s, t = fracnorm._ADJ_S, fracnorm._ADJ_T
    weights = fracnorm._adjacent_weights(m, 2.0)
    vals = v.values
    succ, after = np.roll(vals, -1), np.roll(vals, -2)
    fs = vals[:, None, None] + s * (succ - vals)[:, None, None]
    ft = succ[:, None, None] + t * (after - succ)[:, None, None]
    expected = 2.0 * float(np.sum(weights * (fs[..., :, None] - ft[..., None, :]) ** 2))
    with pytest.MonkeyPatch.context() as mp:
        without_far_field(mp)
        near = gagliardo(v, tau=0.5, k=2.0)[0].seminorm_I
        mp.setattr(fracnorm, "_adjacent_weights", lambda mesh, beta: np.zeros_like(weights))
        same_edge = gagliardo(v, tau=0.5, k=2.0)[0].seminorm_I
    assert near - same_edge == pytest.approx(expected, rel=1e-13, abs=0.0)


EXTENDED = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is not extended precision")
ADJ_TABLES = (fracnorm._ADJ_S, fracnorm._ADJ_T, fracnorm._ADJ_W)


@EXTENDED
@pytest.mark.parametrize("level", [3, 6, 8])
@pytest.mark.parametrize("preset", ["disk", "ellipse"])
def test_adjacent_weights_match_the_broadcast_oracle(preset, level):
    # against the difference form x(s) - x'(t) in extended precision.  In float64 that form
    # cancels near the shared vertex and misses the bound at level 8 (by 90-400x), which
    # is why the package takes |x - x'|^2 from the edge vectors
    m = geometry.boundary_fan(preset, level)
    loop = m.vertices[m.boundary_loop]
    for tau, k in GOLDEN_PAIRS:
        beta = 1.0 + tau * k
        expected = oracles.adjacent_weights(loop, *ADJ_TABLES, beta)
        got = fracnorm._adjacent_weights(m, beta)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected) / expected) < 5e-14
        if level == 8:
            difference_form = oracles.adjacent_weights(loop, *ADJ_TABLES, beta, dtype=np.float64)
            assert np.max(np.abs(difference_form - expected) / expected) > 5e-14


@st.composite
def reflex_loops(draw):
    """A fan mesh around a star-shaped loop whose every other vertex sits at about half the radius.

    Each inner vertex lies inside the chord of its neighbours, so the loop
    has a reflex corner at every other vertex; the loop is scaled and moved
    away from the origin, and the fan's centre is the star's centre
    ``shift``.  Every angular step is below pi, so that centre sees each
    edge counterclockwise; the loop's mean can lie outside the star's
    kernel and give a fan triangle of negative area.
    """
    nb = draw(st.integers(8, 40))
    steps = draw(arrays(np.float64, nb, elements=st.floats(0.5, 1.5)))
    radii = draw(arrays(np.float64, nb, elements=st.floats(0.9, 1.1))) * np.where(np.arange(nb) % 2, 0.55, 1.0)
    scale = draw(st.floats(0.2, 5.0))
    shift = draw(arrays(np.float64, 2, elements=st.floats(-5.0, 5.0)))
    th = 2.0 * np.pi * np.cumsum(steps) / np.sum(steps)
    ring = scale * np.stack([radii * np.cos(th), radii * np.sin(th)], axis=1) + shift
    k = np.arange(nb)
    tris = np.stack([np.zeros_like(k), 1 + k, 1 + (k + 1) % nb], axis=1)
    return geometry.Mesh(vertices=np.vstack([shift, ring]), triangles=tris, boundary_loop=1 + k)


@EXTENDED
@PROPERTY_SETTINGS
@given(reflex_loops(), st.floats(0.05, 0.95), st.sampled_from([1.0, 3.0]) | st.floats(1.0, 6.0).filter(lambda k: k != 2.0),
       st.integers(0, 2**32 - 1))
def test_adjacent_rule_on_loops_with_reflex_corners(mesh, tau, k, seed):
    # the weights, and the k != 2 sum over fields that include two offset by 1e3: a form that
    # subtracted f(s) and f(t), or x(s) and x'(t), in float64 would miss these bounds
    beta = 1.0 + tau * k
    loop = mesh.vertices[mesh.boundary_loop]
    expected = oracles.adjacent_weights(loop, *ADJ_TABLES, beta)
    assert np.max(np.abs(fracnorm._adjacent_weights(mesh, beta) - expected) / expected) < 5e-14
    noise = np.random.default_rng(seed).standard_normal((3, mesh.n_boundary))
    vals = np.stack([noise[0], 1e3 + noise[1], 1e3 + 0.01 * noise[2]])
    want = oracles.adjacent_sum(loop, vals, *ADJ_TABLES, beta, k)
    assert np.max(np.abs(fracnorm._adjacent(mesh, vals, beta, k) - want) / want) < 2e-14


@pytest.mark.parametrize("level", [3, 5])
def test_offset_far_field_matches_the_ordered_sum(level, disk):
    # the offset dwarfs the field's spread: the quadratic form must not cancel it away
    m = disk(level)
    v = fem.boundary_field(m, 1e3 + np.cos(m.boundary_params))
    total = gagliardo(v, tau=0.5, k=2.0)[0].seminorm_I
    with pytest.MonkeyPatch.context() as mp:
        without_far_field(mp)
        near = gagliardo(v, tau=0.5, k=2.0)[0].seminorm_I
    assert total - near == pytest.approx(ordered_far_field(v, 0.5, 2.0), rel=1e-12, abs=0.0)
