"""Expression parsing, evaluation, and derivative trees."""

import configparser
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from mixedreg import expressions
from mixedreg.catalog import CONFIG_NUMBERS
from mixedreg.expressions import ParseError, parse_expr
from mixedreg.expressions import Add, Const, Coord, Div, EvalError, Func, Mul, Pow, SPow, Sub, Value


def test_cubic_at_one():
    e = parse_expr("t + t^3")
    assert e(0.0, 0.0, 1.0) == 2.0


def test_signed_power_cube():
    # |t|^{p-2} t at p = 4 is the sign-preserving cube
    e = parse_expr("spow(t, 4)")
    assert e(0.0, 0.0, -2.0) == -8.0
    assert e(0.0, 0.0, 3.0) == 27.0


def test_constant_everywhere():
    e = parse_expr("1")
    assert e(0.3, -0.7, 123.0) == 1.0
    assert not e.uses_coords()
    assert not e.uses_value()


def test_coordinate_dependence_flags():
    assert parse_expr("x1 * y").uses_coords()
    assert parse_expr("x2 + 1").uses_coords()
    assert parse_expr("y^2").uses_value()
    assert not parse_expr("x1").uses_value()


def test_vectorized_evaluation_matches_scalar():
    e = parse_expr("sin(t) + exp(x1) * t^2")
    ts = np.linspace(-2.0, 2.0, 7)
    vec = e(0.5, 0.0, ts)
    one_by_one = np.array([e(0.5, 0.0, float(t)) for t in ts])
    assert np.max(np.abs(vec - one_by_one)) == 0.0


def test_division_by_zero_reports_node():
    e = parse_expr("1 / (t - 1)")
    with pytest.raises(EvalError) as err:
        e(0.0, 0.0, 1.0)
    assert "division by zero" in str(err.value)
    assert "y - 1" in str(err.value)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expr("t + + 3 *")
    with pytest.raises(ParseError):
        parse_expr("foo(t)")
    with pytest.raises(ParseError):
        parse_expr("")


Y, Y3 = Value(), Pow(Value(), 3.0)

ACCEPTED = {
    # every expression entry of the shipped configs
    "0": Const(0.0),
    "1": Const(1.0),
    "2": Const(2.0),
    "t": Y,
    "y^3": Y3,
    "(y - 14.620870040770589)^2 / 2": Div(Pow(Sub(Y, Const(14.620870040770589)), 2.0), Const(2.0)),
    "(y - 1.25)^2 / 2": Div(Pow(Sub(Y, Const(1.25)), 2.0), Const(2.0)),
    "(y - 2)^2 / 2": Div(Pow(Sub(Y, Const(2.0)), 2.0), Const(2.0)),
    "(y - 1)^2 / 2": Div(Pow(Sub(Y, Const(1.0)), 2.0), Const(2.0)),
    "y - 3.531200408935547": Sub(Y, Const(3.531200408935547)),
    "0.5*y - 0.375": Sub(Mul(Const(0.5), Y), Const(0.375)),
    "t + t^3": Add(Y, Y3),
    "3*t + t^3": Add(Mul(Const(3.0), Y), Y3),
    "5*t + t^3": Add(Mul(Const(5.0), Y), Y3),
    "y + 0.1*y^3": Add(Y, Mul(Const(0.1), Y3)),
    "y + 0.05*y^3": Add(Y, Mul(Const(0.05), Y3)),
    "y - 1.2 - 1.6*x1": Sub(Sub(Y, Const(1.2)), Mul(Const(1.6), Coord(1))),
    "y - 1.2 - 1.2*x2": Sub(Sub(Y, Const(1.2)), Mul(Const(1.2), Coord(2))),
    "y - 1.2 - 1.6*sign(x1 - 0.31830988618379069)":
        Sub(Sub(Y, Const(1.2)), Mul(Const(1.6), Func("sign", Sub(Coord(1), Const(0.31830988618379069))))),
    # the rest of the language: left-associative + - * /, unary signs, powers with a signed literal
    "1 - 2 + x1 / x2 / 3": Add(Sub(Const(1.0), Const(2.0)), Div(Div(Coord(1), Coord(2)), Const(3.0))),
    "-y^2": Sub(Const(0.0), Pow(Y, 2.0)),
    "+-x2": Sub(Const(0.0), Coord(2)),
    "2*-t": Mul(Const(2.0), Sub(Const(0.0), Y)),
    "y^-2 + y^+-0.5": Add(Pow(Y, -2.0), Pow(Y, -0.5)),
    "(y^2)^3": Pow(Pow(Y, 2.0), 3.0),
    ".5 + 1. + 1e3 * 2.5E-1 + 00.5": Add(Add(Add(Const(0.5), Const(1.0)), Mul(Const(1e3), Const(0.25))), Const(0.5)),
    "pi": Const(float(np.pi)),
    "abs(t) * cos(x1) + exp(sin(y))": Add(Mul(Func("abs", Y), Func("cos", Coord(1))), Func("exp", Func("sin", Y))),
    "spow(t, 4)": SPow(Y, 4.0),
    "spow(x1 * t, 2.5)": SPow(Mul(Coord(1), Y), 2.5),
    # surrounding whitespace and newlines, and a parenthesised literal exponent
    " y\n": Y,
    "y +\n\t1 ": Add(Y, Const(1.0)),
    "y^(2)": Pow(Y, 2.0),
}

REJECTED = [
    "y**2", "0x1", "1_0", "1j", "True", "y # c", "y[0]", "x1.real", "a if b else c", "sin(t, 1)",
    "spow(t)", "foo(t)", "y^x1", "y^2^3",
    "007", "sin(t,)", "spow(t, 1)", "sin", "sin(*t)", "y // 2", "not y", "(y", "1 2", "y,", "+".join(["y"] * 2000),
]


@pytest.mark.parametrize("text", ACCEPTED)
def test_accepted_texts_give_their_trees(text):
    assert parse_expr(text) == ACCEPTED[text]


def test_every_config_expression_is_in_the_table():
    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg")):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path)
        for section in parser.sections():
            for key, text in parser[section].items():
                if key not in CONFIG_NUMBERS | {"preset", "dimension"}:
                    assert text in ACCEPTED, (path.name, key)


@pytest.mark.parametrize("text", REJECTED, ids=lambda t: t[:12])
def test_rejected_texts_raise_parse_error(text):
    with pytest.raises(ParseError):
        parse_expr(text)


def test_characters_outside_the_alphabet_are_named():
    with pytest.raises(ParseError, match="unexpected character '#' at position 2"):
        parse_expr("y # c")


@pytest.mark.parametrize("text", ["1if", "1if y else t", "1or y", "0x1for"])
def test_parsing_emits_no_warning(text):
    # Python's tokenizer warns about a literal run into a keyword
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError):
            parse_expr(text)
    assert caught == []


def test_sign_values_and_derivative():
    e = parse_expr("sign(t)")
    assert e(0.0, 0.0, -3.0) == -1.0
    assert e(0.0, 0.0, 0.0) == 0.0
    assert e(0.0, 0.0, 2.0) == 1.0
    assert e.diff()(0.0, 0.0, 5.0) == 0.0


def test_signed_power_derivative():
    # d/dt |t|^{alpha-2} t = (alpha-1)|t|^{alpha-2}
    e = parse_expr("spow(t, 4)")
    assert e.diff()(0.0, 0.0, -2.0) == 12.0
    e3 = parse_expr("spow(t, 3)")
    assert e3.diff()(0.0, 0.0, -2.0) == pytest.approx(4.0, rel=1e-15)


def test_derivatives_match_finite_differences():
    exprs = [
        "t + t^3",
        "sin(t) * cos(t)",
        "exp(t) / (2 + t^2)",
        "abs(t)^3",
        "spow(t, 2.5)",
        "x1 * t^2 + x2 * sin(t)",
        "(t - 1)^4 + 2*t",
    ]
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3.0, 3.0, 40)
    pts = pts[np.abs(pts) > 1e-2]
    h = 1e-6
    for text in exprs:
        e = parse_expr(text)
        d = e.diff()
        for t in pts:
            fd = (e(0.4, -0.2, t + h) - e(0.4, -0.2, t - h)) / (2.0 * h)
            exact = d(0.4, -0.2, float(t))
            scale = max(1.0, abs(exact))
            assert abs(fd - exact) / scale < 1e-6, (text, t)


def test_fractional_power():
    e = parse_expr("t^0.5")
    assert e(0.0, 0.0, 4.0) == 2.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, expressions._MAX_INT_POWER),
    base=st.lists(
        st.one_of(
            st.floats(-1e30, 1e30),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160]),
            st.floats(-1e-100, 1e-100),
        ),
        min_size=1,
        max_size=16,
    ),
)
def test_integral_powers_match_numpy(n, base):
    b = np.array(base)
    e = float(n)
    with np.errstate(under="ignore"):
        got = [Pow(Value(), e)(0.0, 0.0, b), SPow(Value(), e + 2.0)(0.0, 0.0, b)]
        want = [np.power(b, e), np.power(np.abs(b), e) * b]
    for g, w in zip(got, want):
        if n <= 2:
            assert np.array_equal(g, w)
        else:
            # at most 3 roundings in the power, 1 ulp in np.power and one more rounding
            # each in spow's product with u: below 8 ulp of the result (4 seen)
            assert np.all(np.abs(g - w) <= 8.0 * np.spacing(np.abs(w))), (n, b, g, w)


@pytest.mark.parametrize("text, power_of", [
    ("(y - 1)^2", lambda x1, y: y - 1.0),
    ("(y - 1)^3", lambda x1, y: y - 1.0),
    ("(2*y)^4", lambda x1, y: 2.0 * y),
    ("(x1 + y)^2", lambda x1, y: x1 + y),
    ("(x1 + 1)^4 * y", None),
    ("y^2 + y^4", None),
])
def test_powers_of_computed_tables_leave_the_operands_alone(text, power_of):
    rng = np.random.default_rng(7)
    x1, y = rng.standard_normal(50), rng.standard_normal((3, 50))
    x1_before, y_before = x1.copy(), y.copy()
    got = parse_expr(text)(x1, 0.0, y)
    assert np.array_equal(x1, x1_before) and np.array_equal(y, y_before)
    if power_of is not None:
        # squaring in place rounds as the products it replaces
        b = power_of(x1, y)
        e = int(text.rsplit("^", 1)[1])
        want = {2: b * b, 3: (b * b) * b, 4: (b * b) * (b * b)}[e]
        assert np.array_equal(got, want)


def test_a_power_of_a_computed_table_takes_no_second_table():
    y = np.random.default_rng(8).standard_normal((8, 20_000))
    expr = parse_expr("(y - 2)^4")
    # the table y - 2, squared twice in place, and the finiteness mask of the result
    assert traced_peak(lambda: expr(0.0, 0.0, y)) < 1.5 * y.nbytes


def test_power_checks_hold_on_every_path():
    with np.errstate(over="ignore"), pytest.raises(EvalError, match="non-finite"):
        parse_expr("y^3")(0.0, 0.0, 1e200)
    with np.errstate(over="ignore"), pytest.raises(EvalError, match="non-finite"):
        parse_expr("y^7")(0.0, 0.0, 1e200)  # above the cap: np.power
    with pytest.raises(EvalError, match="fractional"):
        parse_expr("y^0.5")(0.0, 0.0, -1.0)


def test_integral_powers_do_not_call_np_power(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.power called for an integral exponent")

    monkeypatch.setattr(expressions.np, "power", refuse)
    y = np.linspace(-2.0, 2.0, 9)
    e = parse_expr("y^3 + spow(y, 4)")
    assert np.array_equal(e(0.0, 0.0, y), y * y * y + np.abs(y) * np.abs(y) * y)
    e.diff()(0.0, 0.0, y)  # y^2, y^1 and |y|^2 in the derivative tree


def test_derivative_is_with_respect_to_value_variable():
    e = parse_expr("y^2 + x1")
    assert e.diff()(3.0, 0.0, 2.0) == 4.0


def test_derivative_is_kept_on_the_node(monkeypatch):
    e = parse_expr("sin(y) * y^3")
    assert e.diff() is e.diff()
    assert e.diff().diff() is e.diff().diff()
    rule = Mul._diff
    calls = []
    monkeypatch.setattr(Mul, "_diff", lambda self: calls.append(self) or rule(self))
    fresh = parse_expr("x1 * y")
    assert fresh.diff() is fresh.diff()
    assert calls == [fresh]


def test_value_takes_the_broadcast_shape_of_all_three_arguments():
    # a constant once took the shape of x1 and the value variable, not of x2
    assert parse_expr("1")(0.0, np.zeros(3), 0.0).shape == (3,)
    assert parse_expr("x1 + 1")(np.zeros((2, 1)), 0.0, np.zeros(4)).shape == (2, 4)
    assert type(parse_expr("y + 1")(0.0, 0.0, 1.0)) is np.float64
    # a bare leaf hands back a new array, not its operand
    v = np.zeros(3)
    out = parse_expr("y")(0.0, 0.0, v)
    assert not np.shares_memory(out, v)
    out[0] = 1.0
    assert v[0] == 0.0


def test_constant_zero_denominator_raises_on_empty_input():
    # leaves are not broadcast, so a constant denominator is checked as the one value it has
    with pytest.raises(EvalError, match="division by zero"):
        parse_expr("1 / (2 - 2)")(0.0, 0.0, np.zeros(0))


# ---------------------------------------------------------------------------
# random expression trees

_VARIABLES = st.sampled_from([Coord(1), Coord(2), Value()])
_LEAVES = st.one_of(st.floats(-2.0, 2.0).map(Const), _VARIABLES)


def _trees(smooth: bool, leaves=_LEAVES):
    """Trees of every node type; ``smooth`` keeps the ones differentiable everywhere."""

    def extend(sub):
        pair = st.tuples(sub, sub)
        nodes = [
            pair.map(lambda ab: Add(*ab)),
            pair.map(lambda ab: Sub(*ab)),
            pair.map(lambda ab: Mul(*ab)),
            st.builds(Pow, sub, st.sampled_from([0.0, 1.0, 2.0, 3.0])),
            st.builds(Func, st.sampled_from(["sin", "cos", "exp"]), sub),
            st.builds(SPow, sub, st.sampled_from([2.0, 4.0])),
        ]
        if not smooth:
            nodes += [
                st.builds(SPow, sub, st.floats(2.0, 5.0)),
                pair.map(lambda ab: Div(*ab)),
                st.builds(Pow, sub, st.floats(-3.0, 3.0)),
                st.builds(Func, st.sampled_from(["abs", "sign"]), sub),
            ]
        return st.one_of(nodes)

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(e=_trees(smooth=False, leaves=st.one_of(st.floats(0.0, 1e6).map(Const), _VARIABLES)))
def test_printed_trees_parse_back(e):
    # a negative constant prints as (-c), which parses back as 0 - c
    assert parse_expr(str(e)) == e


@settings(max_examples=200, deadline=None)
@given(e=_trees(smooth=False))
def test_variable_use_matches_the_printed_tree(e):
    text = str(e)
    assert e.uses_value() == bool(re.search(r"\by\b", text)), text
    assert e.uses_coords() == bool(re.search(r"\bx[12]\b", text)), text


@settings(max_examples=200, deadline=None)
@given(e=_trees(smooth=True), x=st.tuples(*[st.floats(-1.5, 1.5)] * 3))
def test_derivative_of_smooth_trees_matches_central_differences(e, x):
    x1, x2, t = x
    h = 1e-5
    with np.errstate(all="ignore"):
        try:
            f = [float(e(x1, x2, t + s)) for s in (-h, 0.0, h)]
            exact = float(e.diff()(x1, x2, t))
        except EvalError:
            f, exact = [np.inf], np.inf
    assume(np.all(np.isfinite(f)) and np.isfinite(exact))
    assume(max(abs(v) for v in f) < 1e3 and abs(exact) < 1e3)
    fd = (f[2] - f[0]) / (2.0 * h)
    assert abs(fd - exact) <= 1e-5 * (1.0 + abs(exact) + abs(f[1])), str(e)
