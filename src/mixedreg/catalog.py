"""Problem data: coefficient expressions, monotone reparametrizations, checks.

A :class:`ProblemSpec` bundles everything that defines one control problem:
elliptic coefficients, cost integrands, the state nonlinearity, constraint
functions and the strictly monotone scalar maps of the projection formula
u = min(delta_1^{-1}(-phi), zeta_1^{-1}(-g_1(x, y))) and its boundary twin
with delta_2 and zeta_2.  All four are :class:`MonotoneScalar` maps,
inverted by the one :func:`invert_monotone`.  The reparametrizations
zeta_1, zeta_2 are problem data; the control cost slopes
delta_1(t) = lambda1 t + lambda2 |t|^(p-2) t and
delta_2(t) = mu1 t + mu2 |t|^(q-2) t are derived by the :class:`Control`
records of ``spec.controls``, one per control with its cost and its
constraint, so that code written once serves u and v alike.  Finiteness
of the numbers and the structural exponent bounds are enforced at
construction; all semantic assumptions (monotonicity floors, sign
conditions, vanishing at zero) are verified by :func:`check_assumptions`,
which reports witnesses instead of refusing to build the object, so that
deliberately broken instances can be constructed and diagnosed.  Each
assumption on a control is written once and run over ``spec.controls``,
u on the interior and v on the boundary samples; a failed check's witness
is the sample where the worse control is worst, u on an exact tie, and a
check whose data cannot be evaluated fails as "not evaluable" while the
others still run.  ``CONFIG_LAYOUT`` lists the sections and keys of the
config file once, for its reader and its writer.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import fem, geometry
from .expressions import Add, Const, EvalError, Expr, Mul, ParseError, SPow, Value, parse_expr

__all__ = [
    "MonotoneScalar",
    "Control",
    "ProblemSpec",
    "AssumptionCheck",
    "AssumptionReport",
    "SpecError",
    "ConfigError",
    "InversionError",
    "invert_monotone",
    "exponent_violation",
    "check_assumptions",
    "load_problem_config",
    "save_problem_config",
]

INVERT_TOL = 1e-13
MAX_BRACKET_DOUBLINGS = 200
# the space dimension N of every problem: the meshes are planar
DIMENSION = 2
# the value grid of check_assumptions
VALUE_BOUND = 10.0
VALUE_COUNT = 33
# the names the assumption details give the tracking integrand, constraint
# function and reparametrization of u and of v, in the order of ProblemSpec.controls
CONTROL_NAMES = (("L", "g1", "zeta1"), ("ell", "g2", "zeta2"))
# the config file: its sections in file order, each with its keys in file order.
# A key names the ProblemSpec field of the same name, except the domain's
# dimension, which may only state DIMENSION, and each rho, the slope floor of its zeta.
CONFIG_LAYOUT = (
    ("domain", ("preset", "dimension")),
    ("exponents", ("p", "q")),
    ("cost", ("lambda1", "lambda2", "mu1", "mu2", "L", "ell")),
    ("pde", ("a11", "a12", "a22", "a0", "f")),
    ("constraints", ("g1", "zeta1", "rho1", "g2", "zeta2", "rho2")),
)
# the keys whose entries are real numbers; the preset is a name, the dimension
# the number DIMENSION and every other entry an expression
CONFIG_NUMBERS = frozenset({"p", "q", "lambda1", "lambda2", "mu1", "mu2", "rho1", "rho2"})


class SpecError(ValueError):
    """Structurally invalid :class:`ProblemSpec`."""


class ConfigError(ValueError):
    """Config file does not describe a valid problem."""


class InversionError(RuntimeError):
    """Monotone inversion failed to bracket or converge, or the projection met a slope that is not positive."""


@dataclass
class MonotoneScalar:
    """Scalar map t -> expr(t) with slope floor ``rho``: some zeta_i or delta_i.

    ``direction`` is detected from the derivative at zero (falling back to
    the sign at t=1).  Nothing semantic is enforced here; violations of
    the monotonicity assumptions surface in :func:`check_assumptions` or
    as :class:`InversionError` during inversion.
    """

    expr: Expr
    rho: float
    direction: str = field(init=False)

    def __post_init__(self) -> None:
        if isinstance(self.expr, str):
            self.expr = parse_expr(self.expr)
        if self.expr.uses_coords():
            raise SpecError("reparametrization must depend on t only")
        if not (self.rho > 0.0 and np.isfinite(self.rho)):
            raise SpecError(f"slope floor rho must be positive and finite, got {self.rho}")
        d0 = float(self.slope(0.0))
        s = d0 if d0 != 0.0 else float(self.expr(0.0, 0.0, 1.0))
        self.direction = "increasing" if s > 0.0 else "decreasing"

    def value(self, t):
        return self.expr(0.0, 0.0, t)

    def slope(self, t):
        return self.expr.diff()(0.0, 0.0, t)

    def curvature(self, t):
        return self.expr.diff().diff()(0.0, 0.0, t)


def invert_monotone(zeta: MonotoneScalar, target):
    """Invert a monotone scalar map: returns t with zeta(t) = target.

    Accepts scalar or array targets; residual tolerance is
    ``INVERT_TOL * max(1, |target|)`` componentwise.  Under the slope floor
    the solution satisfies |t| <= |target| / rho.  Bracketed Newton with a
    bisection fallback: the bracket [-b, b] starts at that analytic bound
    and is doubled geometrically when zeta fails to straddle the target
    there (which signals a violated slope floor).
    """
    target = np.asarray(target, dtype=float)
    scalar_in = target.ndim == 0
    tgt = np.atleast_1d(target).astype(float)

    b = np.maximum(np.abs(tgt) / zeta.rho, 1e-8) * (1.0 + 1e-12)
    for _ in range(MAX_BRACKET_DOUBLINGS + 1):
        flo = zeta.value(-b) - tgt
        fhi = zeta.value(b) - tgt
        ok = flo * fhi <= 0.0
        if np.all(ok):
            break
        b = np.where(ok, b, 2.0 * b)
    else:
        raise InversionError(
            "invert_monotone: no sign change within the grown bracket; slope floor violated"
        )

    # orient so F(lo) <= 0 <= F(hi)
    sigma = np.where(fhi >= flo, 1.0, -1.0)
    lo, hi = -b, b.copy()
    flo_s = sigma * flo
    swap = flo_s > 0.0
    lo[swap], hi[swap] = hi[swap], lo[swap]

    tol = INVERT_TOL * np.maximum(1.0, np.abs(tgt))
    x = 0.5 * (lo + hi)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(300):
        fx = zeta.value(x) - tgt
        done |= np.abs(fx) <= tol
        if np.all(done):
            break
        fxs = sigma * fx
        lo = np.where(~done & (fxs < 0.0), x, lo)
        hi = np.where(~done & (fxs >= 0.0), x, hi)
        d = zeta.slope(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = x - fx / d
        mid = 0.5 * (lo + hi)
        # strictly between lo and hi, by comparisons: a product of the two gaps can overflow
        inside = (cand != x) & (np.minimum(lo, hi) < cand) & (cand < np.maximum(lo, hi))
        x = np.where(done, x, np.where(inside, cand, mid))
    else:
        raise InversionError("invert_monotone: inversion did not reach tolerance")

    return float(x[0]) if scalar_in else x.reshape(target.shape)


def exponent_violation(N, p, q) -> str | None:
    """The first violated bound of p > N/2, p >= 2 and q > N-1, q >= 2, or None.

    The message formats N as the caller passes it.
    """
    if not (p > N / 2.0 and p >= 2.0):
        return f"p={p} violates p > N/2 and p >= 2 for N={N}"
    if not (q > N - 1.0 and q >= 2.0):
        return f"q={q} violates q > N-1 and q >= 2 for N={N}"
    return None


def _as_expr(obj) -> Expr:
    return parse_expr(obj) if isinstance(obj, str) else obj


@dataclass(frozen=True)
class Control:
    """The data of one control c: the distributed u or the boundary v.

    Its cost integrand is track(x, y) + linear/2 c^2 + power/exponent |c|^exponent,
    ``track`` being L for u and ell for v, and its mixed constraint is
    zeta(c) + g(x, y) <= 0.
    """

    track: Expr
    linear: float
    power: float
    exponent: float
    g: Expr
    zeta: MonotoneScalar

    @cached_property
    def delta(self) -> MonotoneScalar:
        """The cost slope t -> linear t + power |t|^(exponent-2) t, with slope floor ``linear``.

        The signed power keeps the derivative (exponent-1) |t|^(exponent-2)
        finite at t = 0 for every exponent >= 2.
        """
        return MonotoneScalar(
            Add(Mul(Const(self.linear), Value()), SPow(Value(), self.exponent, self.power)), self.linear
        )


@dataclass
class ProblemSpec:
    """Complete data of one mixed-constrained control problem.

    Expression fields take either parsed trees or expression strings.
    Non-finite exponents or cost weights, the exponent bounds (p > N/2,
    q > N-1, p, q >= 2, N = ``DIMENSION``) and the signs of the cost
    weights are hard construction errors; everything else is diagnosable via
    :func:`check_assumptions`.  ``controls`` groups the fields of each
    control into one :class:`Control` record, which derives its cost slope.
    """

    preset: str
    p: float
    q: float
    lambda1: float
    lambda2: float
    mu1: float
    mu2: float
    a11: Expr
    a12: Expr
    a22: Expr
    a0: Expr
    f: Expr
    L: Expr
    ell: Expr
    g1: Expr
    g2: Expr
    zeta1: MonotoneScalar
    zeta2: MonotoneScalar

    def __post_init__(self) -> None:
        if self.preset not in geometry.PRESETS:
            raise SpecError(f"unknown mesh preset {self.preset!r}")
        for name in ("a11", "a12", "a22", "a0", "f", "L", "ell", "g1", "g2"):
            setattr(self, name, _as_expr(getattr(self, name)))
        for name in ("p", "q", "lambda1", "lambda2", "mu1", "mu2"):
            if not np.isfinite(getattr(self, name)):
                raise SpecError(f"{name} must be finite, got {getattr(self, name)}")
        violation = exponent_violation(DIMENSION, self.p, self.q)
        if violation:
            raise SpecError(violation)
        if not (self.lambda1 > 0.0 and self.mu1 > 0.0):
            raise SpecError("quadratic cost weights lambda1, mu1 must be positive")
        if self.lambda2 < 0.0 or self.mu2 < 0.0:
            raise SpecError("higher-order cost weights must be nonnegative")
        for name in ("zeta1", "zeta2"):
            z = getattr(self, name)
            if isinstance(z, dict):
                z = MonotoneScalar(**z)
            elif isinstance(z, (tuple, list)):
                z = MonotoneScalar(*z)
            if not isinstance(z, MonotoneScalar):
                raise SpecError(f"{name} must be a MonotoneScalar (or expr/rho pair)")
            setattr(self, name, z)
        for name in ("a11", "a12", "a22", "a0"):
            if getattr(self, name).uses_value():
                raise SpecError(f"coefficient {name} must not depend on y")

    @cached_property
    def controls(self) -> tuple[Control, Control]:
        """The records of the interior control u and the boundary control v, in that order."""
        return (
            Control(self.L, self.lambda1, self.lambda2, self.p, self.g1, self.zeta1),
            Control(self.ell, self.mu1, self.mu2, self.q, self.g2, self.zeta2),
        )


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    detail: str
    witness: dict | None = None


@dataclass
class AssumptionReport:
    checks: list

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            line = f"[{mark}] {c.name}: {c.detail}"
            if c.witness:
                line += f"  witness={c.witness}"
            lines.append(line)
        return "\n".join(lines)


def _halton(n: int, base: int = 2) -> np.ndarray:
    """Deterministic van der Corput sequence in (0, 1)."""
    out = np.zeros(n)
    for i in range(n):
        f, r, k = 1.0, 0.0, i + 1
        while k > 0:
            f /= base
            r += f * (k % base)
            k //= base
        out[i] = r
    return out


def _value_grid(m: float, count: int) -> np.ndarray:
    core = -m + 2.0 * m * _halton(count)
    return np.concatenate([[0.0, -m, m, -1.0, 1.0], core])


def _witness(samples, by_magnitude: bool = False) -> dict:
    """The sample where the worst of ``samples`` is worst, as ``x``, ``value`` and ``measured``.

    ``samples`` holds one (points, values, measured) triple per control,
    ``measured`` of shape (len(points), len(values)).  The worst sample has
    the lowest measured value, or the largest magnitude when
    ``by_magnitude``; an exact tie goes to the first control and, within
    it, to the first sample.
    """
    scores = [-np.abs(m) if by_magnitude else m for _, _, m in samples]
    k = min(range(len(samples)), key=lambda k: np.min(scores[k]))
    points, values, measured = samples[k]
    i, j = np.unravel_index(int(np.argmin(scores[k])), measured.shape)
    return {"x": tuple(float(c) for c in np.round(points[i], 6)), "value": float(values[j]),
            "measured": float(measured[i, j])}


def check_assumptions(spec: ProblemSpec, mesh) -> AssumptionReport:
    """Sample-based verification of the standing assumptions.

    Spatial samples are the interior and boundary quadrature points of
    ``mesh``; the value variable runs over a deterministic low-discrepancy
    grid in [-VALUE_BOUND, VALUE_BOUND], VALUE_COUNT points plus 0, +-1
    and the ends.  A1 reads the weights and A3 (nonnegative tracking
    integrand), A5 (g vanishes at y = 0), A6 and the sign condition run
    once per record of ``spec.controls``: u at the interior quadrature
    points, v at the boundary Gauss points, with the field names of
    ``CONTROL_NAMES``.  A failed check's witness is its worst sample as
    ``x``, ``value`` and ``measured`` (A2 adds ``which``: ``ellipticity``
    or ``a0``; A6 names the ``which`` zeta and its smallest slope
    instead); a per-control check takes it from the worse control, u on
    an exact tie.  A check whose data cannot be evaluated on the samples
    (an :class:`EvalError` or :class:`InversionError`) fails with a
    "not evaluable" detail, and the other checks still run.
    """
    rec = fem.p1(mesh)
    ts, zero = _value_grid(VALUE_BOUND, VALUE_COUNT), np.zeros(1)
    xq = rec.interior[0]
    track_names, g_names, zeta_names = zip(*CONTROL_NAMES)

    def on(expr: Expr, xs: np.ndarray, values: np.ndarray = ts) -> np.ndarray:
        return expr(xs[:, None, 0], xs[:, None, 1], values[None, :])

    def each(measure, values: np.ndarray = ts) -> list:
        """(points, values, measure(c, points)) of u on the interior and of v on the boundary."""
        return [(xs, values, measure(c, xs)) for c, xs in zip(spec.controls, (xq, rec.boundary[0]))]

    @cache
    def f_y() -> np.ndarray:  # A4's grid, which the sign condition reuses
        return on(spec.f.diff(), xq)

    def a1():
        weights = [w for c in spec.controls for w in (c.linear, c.power)]
        ok = bool(exponent_violation(DIMENSION, spec.p, spec.q) is None and min(weights) > 0.0)
        detail = (f"p={spec.p}, q={spec.q}, N={DIMENSION}, weights ({', '.join(map(str, weights))}) "
                  f"all positive: {ok}")
        return ok, detail, None

    def a2():
        a11, a12, a22, a0 = (on(a, xq, zero) for a in (spec.a11, spec.a12, spec.a22, spec.a0))
        eig = fem.min_eigenvalue(a11, a12, a22)
        ok_ell, ok_a0 = bool(np.min(eig) > 0.0), bool(np.min(a0) >= 0.0 and np.max(a0) > 0.0)
        detail = f"min eigenvalue {np.min(eig):.3e}, a0 in [{np.min(a0):.3e}, {np.max(a0):.3e}]"
        if ok_ell and ok_a0:
            return True, detail, None
        which, measured = ("a0", a0) if ok_ell else ("ellipticity", eig)
        return False, detail, {"which": which, **_witness([(xq, zero, measured)])}

    def a3():
        tracks = each(lambda c, xs: on(c.track, xs))
        ok = all(np.min(m) >= -1e-12 for _, _, m in tracks)
        detail = ", ".join(f"min {name} = {np.min(m):.3e}" for name, (_, _, m) in zip(track_names, tracks))
        return ok, detail, None if ok else _witness(tracks)

    def a4():
        f0, fy = on(spec.f, xq, zero), f_y()
        ok_f0, ok_fy = bool(np.max(np.abs(f0)) <= 1e-12), bool(np.min(fy) >= -1e-12)
        detail = f"max |f(x,0)| = {np.max(np.abs(f0)):.3e}, min f_y = {np.min(fy):.3e}"
        if not ok_fy:
            return False, detail, _witness([(xq, ts, fy)])
        return ok_f0, detail, None if ok_f0 else _witness([(xq, zero, f0)], by_magnitude=True)

    def a5():
        at_zero = each(lambda c, xs: on(c.g, xs, zero), zero)
        ok = all(np.max(np.abs(m)) <= 1e-12 for _, _, m in at_zero)
        detail = ", ".join(f"max |{name}(x,0)| = {np.max(np.abs(m)):.3e}"
                           for name, (_, _, m) in zip(g_names, at_zero))
        return ok, detail, None if ok else _witness(at_zero, by_magnitude=True)

    def a6():  # zeta fixes zero and keeps its slope floor
        details, witness = [], None
        for c, name in zip(spec.controls, zeta_names):
            z0 = float(c.zeta.value(0.0))
            slopes = c.zeta.slope(ts)
            floor = float(np.min(np.abs(slopes)))
            same_sign = bool(np.all(slopes > 0.0) or np.all(slopes < 0.0))
            if witness is None and not (abs(z0) <= 1e-12 and floor >= c.zeta.rho - 1e-12 and same_sign):
                k = int(np.argmin(np.abs(slopes)))
                witness = {"which": name, "value": float(ts[k]), "measured": float(slopes[k])}
            details.append(f"{name}(0)={z0:.1e}, min|slope|={floor:.3e} (rho={c.zeta.rho}), "
                           f"{c.zeta.direction}{'' if same_sign else ', sign flips'}")
        return witness is None, "; ".join(details), witness

    def sign_condition():  # makes the feasible-direction solve elliptic
        terms = each(lambda c, xs: on(c.g.diff(), xs) / c.zeta.slope(invert_monotone(c.zeta, -on(c.g, xs))))
        terms[0] = (xq, ts, f_y() + terms[0][2])  # f_y acts in the interior, on u's term
        ok = all(np.min(m) >= -1e-10 for _, _, m in terms)
        detail = ", ".join(f"min {place} term = {np.min(m):.3e}"
                           for place, (_, _, m) in zip(("interior", "boundary"), terms))
        return ok, detail, None if ok else _witness(terms)

    checks = []
    for name, measure in (
        ("A1-exponents-weights", a1),
        ("A2-ellipticity", a2),
        ("A3-cost-nonnegative", a3),
        ("A4-nonlinearity", a4),
        ("A5-constraints-vanish-at-zero", a5),
        ("A6-reparametrization", a6),
        ("sign-condition", sign_condition),
    ):
        try:
            checks.append(AssumptionCheck(name, *measure()))
        except (InversionError, EvalError) as exc:
            checks.append(AssumptionCheck(name, False, f"not evaluable: {exc}"))
    return AssumptionReport(checks)


def load_problem_config(path: str) -> ProblemSpec:
    """Parse a sectioned key-value config file into a ProblemSpec.

    Reads the keys of ``CONFIG_LAYOUT``.  Raises :class:`ConfigError` with
    the offending section/key for missing entries, malformed numbers, or
    expressions outside the grammar.
    """
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    for section, _ in CONFIG_LAYOUT:
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")
    values = {key: _config_value(parser, section, key) for section, keys in CONFIG_LAYOUT for key in keys}
    try:
        del values["dimension"]
        return ProblemSpec(
            zeta1=MonotoneScalar(values.pop("zeta1"), values.pop("rho1")),
            zeta2=MonotoneScalar(values.pop("zeta2"), values.pop("rho2")),
            **values,
        )
    except SpecError as exc:
        raise ConfigError(str(exc)) from exc


def _config_value(parser: configparser.ConfigParser, section: str, key: str):
    """The entry ``key`` of ``section``: the preset's name, the dimension
    (``DIMENSION`` when absent, and no other), a number or an expression."""
    if not parser.has_option(section, key):
        if key == "dimension":
            return DIMENSION
        raise ConfigError(f"missing [{section}] {key}")
    raw = parser.get(section, key)
    if key == "preset":
        return raw.strip()
    if key != "dimension" and key not in CONFIG_NUMBERS:
        try:
            return parse_expr(raw)
        except ParseError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
    try:
        number = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc
    if key == "dimension" and number != DIMENSION:
        raise ConfigError(f"[{section}] {key}: the meshes are {DIMENSION}-D, got {raw.strip()!r}")
    return number


def save_problem_config(spec: ProblemSpec, path: str) -> None:
    """Serialize a ProblemSpec back to the sectioned config format of ``CONFIG_LAYOUT``.

    Kept without a package caller: it is the write half of the config round trip.
    """
    values = dict(vars(spec), dimension=DIMENSION, zeta1=spec.zeta1.expr, rho1=spec.zeta1.rho,
                  zeta2=spec.zeta2.expr, rho2=spec.zeta2.rho)
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in CONFIG_LAYOUT:
        parser[section] = {key: repr(values[key]) if key in CONFIG_NUMBERS else str(values[key])
                           for key in keys}
    with open(path, "w") as fh:
        parser.write(fh)
