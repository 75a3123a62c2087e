"""Function catalog: inversion, cost derivative, assumptions, config IO."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mixedreg import fem
from mixedreg.catalog import (
    VALUE_BOUND,
    ConfigError,
    MonotoneScalar,
    ProblemSpec,
    SpecError,
    check_assumptions,
    exponent_violation,
    invert_monotone,
    load_problem_config,
    save_problem_config,
)
from mixedreg.solvers import exponents


def base_spec(**overrides):
    kw = dict(
        preset="disk",
        p=2.0,
        q=2.0,
        lambda1=1.0,
        lambda2=1.0,
        mu1=1.0,
        mu2=1.0,
        a11="1",
        a12="0",
        a22="1",
        a0="1",
        f="y",
        L="y^2",
        ell="y^2",
        g1="y",
        g2="y",
        zeta1=("t", 1.0),
        zeta2=("t", 1.0),
    )
    kw.update(overrides)
    return ProblemSpec(**kw)


# ---------------------------------------------------------------------------
# monotone inversion


def test_invert_monotone_examples():
    cubic = MonotoneScalar("t + t^3", 1.0)
    assert invert_monotone(cubic, 2.0) == pytest.approx(1.0, abs=1e-13)
    assert invert_monotone(cubic, 10.0) == pytest.approx(2.0, abs=1e-13)
    ident = MonotoneScalar("t", 1.0)
    assert invert_monotone(ident, -3.7) == pytest.approx(-3.7, abs=1e-13)


def test_invert_monotone_roundtrip():
    cubic = MonotoneScalar("t + t^3", 1.0)
    rng = np.random.default_rng(3)
    ts = rng.uniform(-10.0, 10.0, 1000)
    back = invert_monotone(cubic, cubic.value(ts))
    assert np.max(np.abs(back - ts)) < 1e-10


def test_invert_monotone_lipschitz_bound():
    steep = MonotoneScalar("3*t + t^3", 3.0)
    rng = np.random.default_rng(4)
    a = rng.uniform(-20.0, 20.0, 500)
    b = rng.uniform(-20.0, 20.0, 500)
    ha = invert_monotone(steep, a)
    hb = invert_monotone(steep, b)
    assert np.all(np.abs(ha - hb) <= np.abs(a - b) / 3.0 + 1e-12)


def test_invert_monotone_raises_no_warning_when_newton_overshoots():
    # slope 1e-300 at t = 0: the first Newton candidates land near 1e300, far outside
    # the bracket, and a product of the two gaps to its ends would overflow
    flat = MonotoneScalar("t^3 + 1e-300*t", 1.0)
    targets = np.array([-1.0, -1e-3, 0.0, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = invert_monotone(flat, targets)
        assert invert_monotone(flat, 1.0) == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.abs(flat.value(t) - targets) <= 1e-13 * np.maximum(1.0, np.abs(targets)))


def test_invert_monotone_brackets_a_huge_target_without_warnings():
    # zeta(+-b) - target near 1e160 at both ends of the first bracket: their product overflows
    steep = MonotoneScalar("2*t", 1.0)
    targets = np.array([1e160, -1e160, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invert_monotone(steep, targets).tolist() == [5e159, -5e159, 1.5]


def test_invert_monotone_vectorized():
    cubic = MonotoneScalar("t + t^3", 1.0)
    targets = np.array([2.0, 10.0, 0.0, -2.0])
    out = invert_monotone(cubic, targets)
    assert out == pytest.approx([1.0, 2.0, 0.0, -1.0], abs=1e-13)


def test_decreasing_reparametrization_inverts():
    falling = MonotoneScalar("-2*t", 2.0)
    assert falling.direction == "decreasing"
    assert invert_monotone(falling, 5.0) == pytest.approx(-2.5, abs=1e-13)


# ---------------------------------------------------------------------------
# cost derivative Delta and its inverse


def test_delta_examples():
    quartic = base_spec(p=4.0, q=4.0)
    assert quartic.controls[0].delta.value(1.0) == pytest.approx(2.0, abs=1e-14)
    assert invert_monotone(quartic.controls[0].delta, 2.0) == pytest.approx(1.0, abs=1e-13)

    linear = base_spec(lambda1=2.0, lambda2=0.0)
    assert invert_monotone(linear.controls[0].delta, 5.0) == pytest.approx(2.5, abs=1e-13)

    cubic_cost = base_spec(p=3.0)
    # t + |t| t at t = 2 is 6
    assert cubic_cost.controls[0].delta.value(2.0) == pytest.approx(6.0, abs=1e-14)
    assert invert_monotone(cubic_cost.controls[0].delta, 6.0) == pytest.approx(2.0, abs=1e-13)


def test_delta_inverse_monotone_and_bounded():
    spec = base_spec(p=4.0)
    rng = np.random.default_rng(5)
    pairs = rng.uniform(-50.0, 50.0, (200, 2))
    lo = np.minimum(pairs[:, 0], pairs[:, 1]) - 1e-9
    hi = np.maximum(pairs[:, 0], pairs[:, 1]) + 1e-9
    ti = invert_monotone(spec.controls[0].delta, lo)
    tj = invert_monotone(spec.controls[0].delta, hi)
    assert np.all(tj >= ti)
    targets = rng.uniform(-100.0, 100.0, 200)
    t = invert_monotone(spec.controls[0].delta, targets)
    assert np.all(np.abs(t) <= np.abs(targets) / spec.lambda1 + 1e-12)


def test_delta_slope_positive():
    spec = base_spec(p=4.0)
    ts = np.linspace(-5.0, 5.0, 41)
    assert np.all(np.asarray(spec.controls[0].delta.slope(ts)) >= spec.lambda1)


def test_delta_roundtrip():
    spec = base_spec(p=3.5, q=4.0, lambda2=2.0)
    rng = np.random.default_rng(6)
    ts = rng.uniform(-8.0, 8.0, 300)
    back = invert_monotone(spec.controls[0].delta, spec.controls[0].delta.value(ts))
    assert np.max(np.abs(back - ts)) < 1e-10


_LINEAR = st.floats(1e-3, 1e3)
_POWER = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e3)
_COST_EXPONENT = st.sampled_from([2.0, 3.0, 4.0, 6.0]) | st.floats(2.0, 6.0)
_ARGUMENTS = st.lists(st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-50.0, 50.0), min_size=1, max_size=20)


@settings(max_examples=60, deadline=None)
@given(lam=st.tuples(_LINEAR, _POWER, _COST_EXPONENT), mu=st.tuples(_LINEAR, _POWER, _COST_EXPONENT),
       ts=_ARGUMENTS)
def test_delta_matches_the_closed_form(lam, mu, ts):
    spec = base_spec(lambda1=lam[0], lambda2=lam[1], p=lam[2], mu1=mu[0], mu2=mu[1], q=mu[2])
    ts = np.array(ts)
    for delta, (linear, power, exponent) in ((spec.controls[0].delta, lam), (spec.controls[1].delta, mu)):
        assert delta.rho == linear
        reference = np.array([oracles.delta_reference(linear, power, exponent, t) for t in ts])
        value, slope = np.asarray(delta.value(ts)), np.asarray(delta.slope(ts))
        assert value == pytest.approx(reference[:, 0], rel=1e-14, abs=0.0)
        assert slope == pytest.approx(reference[:, 1], rel=1e-14, abs=0.0)
        assert np.all(slope >= linear)
        # the slope floor turns the residual tolerance of the inversion into a bound on t
        back = invert_monotone(delta, value)
        assert np.all(np.abs(back - ts) <= 2e-13 * np.maximum(1.0, np.abs(value)) / linear)


def test_delta_at_a_subnormal_argument_matches_the_closed_form():
    # power |t|^(exponent-2) is applied before the product with t, which underflows once
    t = 2.2250738585e-313
    spec = base_spec(mu1=1.0, mu2=2.0, q=2.03125)
    value = float(np.asarray(spec.controls[1].delta.value(np.array([t])))[0])
    assert value == oracles.delta_reference(1.0, 2.0, 2.03125, t)[0]


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_exponents():
    with pytest.raises(SpecError):
        base_spec(p=1.5)
    with pytest.raises(SpecError):
        base_spec(q=0.9)


# the bounds N/2 and N-1 for N = 2..5, and 2, so that every boundary case is drawn
_EXPONENT = st.one_of(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0]), st.floats(0.5, 8.0))


@settings(max_examples=60, deadline=None)
@given(N=st.integers(2, 5), p=_EXPONENT, q=_EXPONENT)
def test_exponent_bounds_agree_across_callers(disk, N, p, q):
    """exponents applies exponent_violation's rule and message at every N; ProblemSpec and check A1 at N = 2."""
    try:
        exponents(N, p, q)
        table_error = None
    except SpecError as exc:
        table_error = str(exc)
    assert table_error == exponent_violation(N, p, q)
    try:
        base_spec(p=p, q=q)
        spec_error = None
    except SpecError as exc:
        spec_error = str(exc)
    assert spec_error == exponent_violation(2, p, q)
    spec = base_spec()  # positive weights; A1 then reads the exponents alone
    spec.p, spec.q = p, q
    a1 = check_assumptions(spec, disk(1)).checks[0]
    assert a1.name == "A1-exponents-weights"
    assert a1.passed == (spec_error is None)


def test_exponent_violation_refuses_non_finite_exponents():
    assert exponent_violation(2, np.inf, 3.0) == "p=inf is not finite"
    assert exponent_violation(2, 3.0, np.inf) == "q=inf is not finite"
    assert exponent_violation(2, np.nan, np.nan) == "p=nan is not finite"
    assert exponent_violation(2, 3.0, 3.0) is None


def test_spec_rejects_bad_weights():
    with pytest.raises(SpecError):
        base_spec(lambda1=0.0)
    with pytest.raises(SpecError):
        base_spec(mu2=-1.0)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["p", "q", "lambda1", "lambda2", "mu1", "mu2"])
def test_spec_rejects_non_finite_data(name, value):
    # p = inf once passed the exponent bounds, and lambda1 = inf failed only in the solver
    with pytest.raises(SpecError, match=f"{name} must be finite"):
        base_spec(**{name: value})


def test_spec_rejects_state_dependent_diffusion():
    with pytest.raises(SpecError):
        base_spec(a11="1 + y")


def test_spec_rejects_bad_zeta():
    with pytest.raises(SpecError):
        base_spec(zeta1=("x1 + t", 1.0))
    for rho in (-1.0, np.inf, np.nan):
        with pytest.raises(SpecError, match="slope floor"):
            base_spec(zeta1=("t", rho))
    with pytest.raises(SpecError):
        base_spec(zeta1=12)


def test_slope_keeps_the_derivative_tree(monkeypatch):
    zeta = MonotoneScalar("t + t^3", 1.0)
    first = zeta.slope(np.linspace(-2.0, 2.0, 5))
    # later slopes reuse the tree built at construction
    monkeypatch.setattr(type(zeta.expr), "_diff", lambda self: pytest.fail("diff rebuilt"))
    assert np.array_equal(zeta.slope(np.linspace(-2.0, 2.0, 5)), first)
    assert np.array_equal(first, 1.0 + 3.0 * np.linspace(-2.0, 2.0, 5) ** 2)


def test_spec_accepts_dict_zeta():
    s = base_spec(zeta1={"expr": "2*t", "rho": 2.0})
    assert s.zeta1.value(3.0) == 6.0


def test_unknown_preset_rejected():
    with pytest.raises(SpecError):
        base_spec(preset="square")


# ---------------------------------------------------------------------------
# assumption checks


def test_assumptions_all_pass_on_shipping_instance(configs, disk):
    rep = check_assumptions(configs["quadratic_tracking"], disk(3))
    assert all(c.passed for c in rep.checks)
    assert [c.name for c in rep.checks] == [
        "A1-exponents-weights",
        "A2-ellipticity",
        "A3-cost-nonnegative",
        "A4-nonlinearity",
        "A5-constraints-vanish-at-zero",
        "A6-reparametrization",
        "sign-condition",
    ]


def test_assumption_a5_direct_violation_with_witness(disk):
    rep = check_assumptions(base_spec(g1="y - 10"), disk(3))
    failed = [c for c in rep.checks if not c.passed]
    assert [c.name for c in failed] == ["A5-constraints-vanish-at-zero"]
    assert failed[0].witness is not None
    assert failed[0].witness["measured"] == pytest.approx(-10.0)


@pytest.mark.parametrize(
    "override, name, where, value, measured, which",
    [
        # a0 < 0 everywhere, the coefficient matrix is the identity
        ({"a0": "-1"}, "A2-ellipticity", "interior", 0.0, -1.0, "a0"),
        # a0 overflows to inf on the right of the disk: the witness is its first inf
        ({"a0": "1 + exp(1000*x1)"}, "A2-ellipticity", "interior", 0.0, np.inf, "a0"),
        # eigenvalues -1 and 1
        ({"a11": "-1"}, "A2-ellipticity", "interior", 0.0, -1.0, "ellipticity"),
        # ell < 0 everywhere, worst at the ends of the value grid
        ({"ell": "-1 - y^2"}, "A3-cost-nonnegative", "boundary", VALUE_BOUND, -1.0 - VALUE_BOUND**2, None),
        # f_y = 3 y^2 >= 0 holds, f(x, 0) = 1 does not
        ({"f": "y^3 + 1"}, "A4-nonlinearity", "interior", 0.0, 1.0, None),
        # both terms are -1 everywhere: the exact tie goes to u, in the interior
        ({"g1": "-2*y", "g2": "-y"}, "sign-condition", "interior", 0.0, -1.0, None),
    ],
    ids=["A2-a0", "A2-a0-overflow", "A2-ellipticity", "A3-ell", "A4-f-at-zero", "sign-tie"],
)
def test_failed_check_has_a_witness(disk, override, name, where, value, measured, which):
    mesh = disk(3)
    (check,) = [c for c in check_assumptions(base_spec(**override), mesh).checks if not c.passed]
    assert check.name == name
    points = {tuple(float(c) for c in np.round(x, 6)) for x in getattr(fem.p1(mesh), where)[0]}
    assert check.witness["x"] in points
    assert abs(check.witness["value"]) == value
    assert check.witness["measured"] == measured
    assert check.witness.get("which") == which


def test_robinson_sign_condition_passes_for_exponential_cap(disk):
    rep = check_assumptions(base_spec(f="y^3", g1="exp(y) - 1"), disk(3))
    assert all(c.passed for c in rep.checks)


def test_slope_floor_violation_detected(disk):
    rep = check_assumptions(base_spec(zeta1=("t - 2*t^3", 1.0)), disk(3))
    names = [c.name for c in rep.checks if not c.passed]
    assert "A6-reparametrization" in names
    a6 = [c for c in rep.checks if c.name == "A6-reparametrization"][0]
    assert a6.witness is not None


def test_manufactured_instances_fail_only_vanishing_caps(configs, disk):
    for name in ("constant_kkt", "smooth_constrained", "jump_bound"):
        rep = check_assumptions(configs[name], disk(3))
        assert [c.name for c in rep.checks if not c.passed] == ["A5-constraints-vanish-at-zero"], name


# ---------------------------------------------------------------------------
# config file round trip


def test_config_roundtrip(tmp_path, configs):
    spec = configs["smooth_constrained"]
    path = tmp_path / "copy.cfg"
    save_problem_config(spec, str(path))
    again = load_problem_config(str(path))
    ys = np.linspace(-2.0, 2.0, 9)
    assert np.allclose(spec.g1(0.3, -0.4, ys), again.g1(0.3, -0.4, ys), rtol=0, atol=0)
    assert np.allclose(
        spec.zeta1.value(ys), again.zeta1.value(ys), rtol=0, atol=0
    )
    assert again.p == spec.p and again.lambda2 == spec.lambda2


# SHA-256 of what save_problem_config writes for each shipped config, taken
# before one layout table came to drive both the config reader and the writer
SAVED_CONFIG_DIGESTS = {
    "quadratic_tracking": "e3485f7b2fbdf132b7ecfdb66372b58a80c17c74c542a322d784df388af421a0",
    "constant_kkt": "8fe82f22f024e2f96d62d0537720e9497232ac5f1f08c6fe1837ff26b06556dd",
    "smooth_constrained": "b52a4ff17e116089f53e47671e59d7c38bc5474368d7e27ecf259007ec8a0e0a",
    "jump_bound": "05dadb71c9291af14c877283e20aeefdfad1bcb52a0817d3620bd794f20ca9f5",
}


@pytest.mark.parametrize("name", sorted(SAVED_CONFIG_DIGESTS))
def test_saved_configs_are_pinned(tmp_path, configs, name):
    path = tmp_path / "saved.cfg"
    save_problem_config(configs[name], str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_CONFIG_DIGESTS[name]


EXPRESSION_FIELDS = ("a11", "a12", "a22", "a0", "f", "L", "ell", "g1", "g2")
# (x1, x2, y) over the bounding box of both presets, and t for the reparametrizations
ROUNDTRIP_GRID = tuple(
    a.ravel()
    for a in np.meshgrid(np.linspace(-1.5, 1.5, 7), np.linspace(-1.0, 1.0, 5), np.linspace(-2.0, 2.0, 9))
)
ROUNDTRIP_T = np.linspace(-3.0, 3.0, 13)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_roundtrip_is_exact(tmp_path_factory, configs, data):
    # numbers drawn, expressions mixed field by field from the shipped configs
    def shipped(name):
        return getattr(configs[data.draw(st.sampled_from(sorted(configs)))], name)

    spec = ProblemSpec(
        preset=data.draw(st.sampled_from(["disk", "ellipse"])),
        p=data.draw(st.floats(min_value=2.0, max_value=1e6)),
        q=data.draw(st.floats(min_value=2.0, max_value=1e6)),
        lambda1=data.draw(positive),
        lambda2=data.draw(nonnegative),
        mu1=data.draw(positive),
        mu2=data.draw(nonnegative),
        zeta1=(shipped("zeta1").expr, data.draw(positive)),
        zeta2=(shipped("zeta2").expr, data.draw(positive)),
        **{name: shipped(name) for name in EXPRESSION_FIELDS},
    )
    path = tmp_path_factory.getbasetemp() / "roundtrip.cfg"
    save_problem_config(spec, str(path))
    again = load_problem_config(str(path))
    for name in ("preset", "p", "q", "lambda1", "lambda2", "mu1", "mu2"):
        assert getattr(again, name) == getattr(spec, name), name
    for name in ("zeta1", "zeta2"):
        zeta, back = getattr(spec, name), getattr(again, name)
        assert back.rho == zeta.rho, name
        assert np.array_equal(back.value(ROUNDTRIP_T), zeta.value(ROUNDTRIP_T)), name
    for name in EXPRESSION_FIELDS:
        expr, back = getattr(spec, name), getattr(again, name)
        assert np.array_equal(back(*ROUNDTRIP_GRID), expr(*ROUNDTRIP_GRID)), name


def test_config_missing_section(tmp_path):
    p = tmp_path / "broken.cfg"
    p.write_text("[domain]\npreset = disk\ndimension = 2\n")
    with pytest.raises(ConfigError):
        load_problem_config(str(p))


@pytest.mark.parametrize("text, reason", [
    ("[domain]\npreset = disk\npreset = ellipse\n", "option 'preset' in section 'domain' already exists"),
    ("preset = disk\n", "no section headers"),
], ids=["duplicate-key", "no-section"])
def test_config_that_configparser_refuses(tmp_path, text, reason):
    p = tmp_path / "broken.cfg"
    p.write_text(text)
    with pytest.raises(ConfigError, match=f"malformed config file '{p}': .*{reason}"):
        load_problem_config(str(p))


def test_config_bad_number(tmp_path, configs):
    p = tmp_path / "bad.cfg"
    save_problem_config(configs["quadratic_tracking"], str(p))
    text = p.read_text().replace("p = 2", "p = banana", 1)
    p.write_text(text)
    with pytest.raises(ConfigError):
        load_problem_config(str(p))


@pytest.mark.parametrize("dimension, ok", [("2", True), ("2.0", True), ("2.5", False), ("3", False)])
def test_config_dimension_must_be_an_integer(tmp_path, configs, dimension, ok):
    # the meshes are planar: the one integer the key may state is 2
    p = tmp_path / "dim.cfg"
    save_problem_config(configs["quadratic_tracking"], str(p))
    p.write_text(p.read_text().replace("dimension = 2", f"dimension = {dimension}", 1))
    if ok:
        assert load_problem_config(str(p)).p == configs["quadratic_tracking"].p
    else:
        with pytest.raises(ConfigError, match=r"\[domain\] dimension"):
            load_problem_config(str(p))


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_problem_config("/nonexistent/nowhere.cfg")
