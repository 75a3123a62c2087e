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
deliberately broken instances can be constructed and diagnosed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from functools import cached_property

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
# the value grid of check_assumptions
VALUE_BOUND = 10.0
VALUE_COUNT = 33


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
        inside = np.isfinite(cand) & (cand != x) & ((cand - lo) * (cand - hi) < 0.0)
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
    q > N-1, p, q >= 2) and the signs of the cost weights are hard
    construction errors; everything else is diagnosable via
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
    N: int = 2

    def __post_init__(self) -> None:
        if self.preset not in geometry.PRESETS:
            raise SpecError(f"unknown mesh preset {self.preset!r}")
        if self.N < 2:
            raise SpecError("dimension must be >= 2")
        for name in ("a11", "a12", "a22", "a0", "f", "L", "ell", "g1", "g2"):
            setattr(self, name, _as_expr(getattr(self, name)))
        for name in ("p", "q", "lambda1", "lambda2", "mu1", "mu2"):
            if not np.isfinite(getattr(self, name)):
                raise SpecError(f"{name} must be finite, got {getattr(self, name)}")
        violation = exponent_violation(self.N, self.p, self.q)
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

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

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


def check_assumptions(spec: ProblemSpec, mesh) -> AssumptionReport:
    """Sample-based verification of the standing assumptions.

    Spatial samples are the interior and boundary quadrature points of
    ``mesh``; the value variable runs over a deterministic low-discrepancy
    grid in [-VALUE_BOUND, VALUE_BOUND], VALUE_COUNT points plus 0, +-1
    and the ends.
    """
    xq, _ = fem.p1(mesh).interior
    xb, _ = fem.p1(mesh).boundary
    tgrid = _value_grid(VALUE_BOUND, VALUE_COUNT)

    checks: list[AssumptionCheck] = []

    def witness_at(values: np.ndarray, xs: np.ndarray, ts: np.ndarray) -> dict:
        k = int(np.argmin(values))
        i, j = np.unravel_index(k, (xs.shape[0], ts.shape[0]))
        return {
            "x": tuple(float(c) for c in np.round(xs[i], 6)),
            "value": float(ts[j]),
            "measured": float(values.flat[k]),
        }

    def worst_at_zero(values: np.ndarray, xs: np.ndarray) -> dict:
        k = int(np.argmax(np.abs(values)))
        return {"x": tuple(float(c) for c in np.round(xs[k], 6)), "value": 0.0, "measured": float(values[k])}

    # A1: exponent and weight ranges
    ok_a1 = (
        exponent_violation(spec.N, spec.p, spec.q) is None
        and min(spec.lambda1, spec.lambda2, spec.mu1, spec.mu2) > 0.0
    )
    checks.append(
        AssumptionCheck(
            "A1-exponents-weights",
            bool(ok_a1),
            f"p={spec.p}, q={spec.q}, N={spec.N}, weights "
            f"({spec.lambda1}, {spec.lambda2}, {spec.mu1}, {spec.mu2}) all positive: {ok_a1}",
        )
    )

    # A2: uniform ellipticity and a0 sign (a_ij symmetric by construction)
    x1, x2 = xq[:, 0], xq[:, 1]
    a11 = spec.a11(x1, x2, 0.0)
    a12 = spec.a12(x1, x2, 0.0)
    a22 = spec.a22(x1, x2, 0.0)
    eig_min = 0.5 * (a11 + a22 - np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2))
    a0v = spec.a0(x1, x2, 0.0)
    ok_ell = bool(np.min(eig_min) > 0.0)
    ok_a0 = bool(np.min(a0v) >= 0.0 and np.max(a0v) > 0.0)
    wit = None if ok_ell and ok_a0 else {"x": tuple(float(c) for c in np.round(xq[int(np.argmin(eig_min if not ok_ell else a0v))], 6))}
    checks.append(
        AssumptionCheck(
            "A2-ellipticity",
            ok_ell and ok_a0,
            f"min eigenvalue {np.min(eig_min):.3e}, a0 in [{np.min(a0v):.3e}, {np.max(a0v):.3e}]",
            wit,
        )
    )

    def grid_eval(expr: Expr, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return expr(xs[:, None, 0], xs[:, None, 1], ts[None, :])

    # A3: nonnegative integrands
    Lv = grid_eval(spec.L, xq, tgrid)
    ellv = grid_eval(spec.ell, xb, tgrid)
    ok_L = bool(np.min(Lv) >= -1e-12)
    ok_ell_int = bool(np.min(ellv) >= -1e-12)
    checks.append(
        AssumptionCheck(
            "A3-cost-nonnegative",
            ok_L and ok_ell_int,
            f"min L = {np.min(Lv):.3e}, min ell = {np.min(ellv):.3e}",
            None if ok_L and ok_ell_int else (
                witness_at(Lv, xq, tgrid) if np.min(Lv) <= np.min(ellv) else witness_at(ellv, xb, tgrid)
            ),
        )
    )

    # A4: f(x, 0) = 0 and monotone nonlinearity
    f0 = spec.f(xq[:, 0], xq[:, 1], 0.0)
    fy = grid_eval(spec.f.diff(), xq, tgrid)
    ok_f0 = bool(np.max(np.abs(f0)) <= 1e-12)
    ok_fy = bool(np.min(fy) >= -1e-12)
    checks.append(
        AssumptionCheck(
            "A4-nonlinearity",
            ok_f0 and ok_fy,
            f"max |f(x,0)| = {np.max(np.abs(f0)):.3e}, min f_y = {np.min(fy):.3e}",
            witness_at(fy, xq, tgrid) if not ok_fy else (None if ok_f0 else worst_at_zero(f0, xq)),
        )
    )

    # A5: constraint functions vanish at y = 0
    g10 = spec.g1(xq[:, 0], xq[:, 1], 0.0)
    g20 = spec.g2(xb[:, 0], xb[:, 1], 0.0)
    ok_g = bool(np.max(np.abs(g10)) <= 1e-12 and np.max(np.abs(g20)) <= 1e-12)
    if ok_g:
        wit_g = None
    elif np.max(np.abs(g10)) >= np.max(np.abs(g20)):
        wit_g = worst_at_zero(g10, xq)
    else:
        wit_g = worst_at_zero(g20, xb)
    checks.append(
        AssumptionCheck(
            "A5-constraints-vanish-at-zero",
            ok_g,
            f"max |g1(x,0)| = {np.max(np.abs(g10)):.3e}, max |g2(x,0)| = {np.max(np.abs(g20)):.3e}",
            wit_g,
        )
    )

    # A6: reparametrizations fix zero and respect the slope floor
    a6_details = []
    ok_a6 = True
    wit_a6 = None
    for name, zeta in (("zeta1", spec.zeta1), ("zeta2", spec.zeta2)):
        z0 = float(zeta.value(0.0))
        slopes = zeta.slope(tgrid)
        floor = float(np.min(np.abs(slopes)))
        same_sign = bool(np.all(slopes > 0.0) or np.all(slopes < 0.0))
        good = abs(z0) <= 1e-12 and floor >= zeta.rho - 1e-12 and same_sign
        if not good and wit_a6 is None:
            k = int(np.argmin(np.abs(slopes)))
            wit_a6 = {"which": name, "value": float(tgrid[k]), "measured": float(slopes[k])}
        ok_a6 = ok_a6 and good
        a6_details.append(f"{name}(0)={z0:.1e}, min|slope|={floor:.3e} (rho={zeta.rho}), "
                          f"{zeta.direction}{'' if same_sign else ', sign flips'}")
    checks.append(AssumptionCheck("A6-reparametrization", ok_a6, "; ".join(a6_details), wit_a6))

    # combined sign condition that makes the feasible-direction solve elliptic
    try:
        g1v = grid_eval(spec.g1, xq, tgrid)
        h1 = invert_monotone(spec.zeta1, -g1v)
        f_y, g1_y = (grid_eval(e.diff(), xq, tgrid) for e in (spec.f, spec.g1))
        term1 = f_y + g1_y / spec.zeta1.slope(h1)
        g2v = grid_eval(spec.g2, xb, tgrid)
        h2 = invert_monotone(spec.zeta2, -g2v)
        term2 = grid_eval(spec.g2.diff(), xb, tgrid) / spec.zeta2.slope(h2)
        ok_sign = bool(np.min(term1) >= -1e-10 and np.min(term2) >= -1e-10)
        detail = f"min interior term = {np.min(term1):.3e}, min boundary term = {np.min(term2):.3e}"
        wit = None if ok_sign else (
            witness_at(term1, xq, tgrid) if np.min(term1) < np.min(term2) else witness_at(term2, xb, tgrid)
        )
        checks.append(AssumptionCheck("sign-condition", ok_sign, detail, wit))
    except (InversionError, EvalError) as exc:
        checks.append(AssumptionCheck("sign-condition", False, f"not evaluable: {exc}"))

    return AssumptionReport(checks)


def load_problem_config(path: str) -> ProblemSpec:
    """Parse a sectioned key-value config file into a ProblemSpec.

    Raises :class:`ConfigError` with the offending section/key for missing
    entries, malformed numbers, or expressions outside the grammar.
    """
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    def need(section: str, key: str) -> str:
        if not parser.has_option(section, key):
            raise ConfigError(f"missing [{section}] {key}")
        return parser.get(section, key)

    def number(section: str, key: str, default=None) -> float:
        if default is not None and not parser.has_option(section, key):
            return default
        raw = need(section, key)
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc

    def expr(section: str, key: str) -> Expr:
        raw = need(section, key)
        try:
            return parse_expr(raw)
        except ParseError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    for section in ("domain", "exponents", "cost", "pde", "constraints"):
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    try:
        zeta1 = MonotoneScalar(expr("constraints", "zeta1"), number("constraints", "rho1"))
        zeta2 = MonotoneScalar(expr("constraints", "zeta2"), number("constraints", "rho2"))
        dimension = number("domain", "dimension", default=2.0)
        if not dimension.is_integer():
            raise ConfigError(f"[domain] dimension: not an integer: {dimension!r}")
        return ProblemSpec(
            preset=need("domain", "preset").strip(),
            N=int(dimension),
            p=number("exponents", "p"),
            q=number("exponents", "q"),
            lambda1=number("cost", "lambda1"),
            lambda2=number("cost", "lambda2"),
            mu1=number("cost", "mu1"),
            mu2=number("cost", "mu2"),
            L=expr("cost", "L"),
            ell=expr("cost", "ell"),
            a11=expr("pde", "a11"),
            a12=expr("pde", "a12"),
            a22=expr("pde", "a22"),
            a0=expr("pde", "a0"),
            f=expr("pde", "f"),
            g1=expr("constraints", "g1"),
            g2=expr("constraints", "g2"),
            zeta1=zeta1,
            zeta2=zeta2,
        )
    except SpecError as exc:
        raise ConfigError(str(exc)) from exc


def save_problem_config(spec: ProblemSpec, path: str) -> None:
    """Serialize a ProblemSpec back to the sectioned config format.

    Kept without a package caller: it is the write half of the config round trip.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser["domain"] = {"preset": spec.preset, "dimension": str(spec.N)}
    parser["exponents"] = {"p": repr(spec.p), "q": repr(spec.q)}
    parser["cost"] = {
        "lambda1": repr(spec.lambda1),
        "lambda2": repr(spec.lambda2),
        "mu1": repr(spec.mu1),
        "mu2": repr(spec.mu2),
        "L": str(spec.L),
        "ell": str(spec.ell),
    }
    parser["pde"] = {
        "a11": str(spec.a11),
        "a12": str(spec.a12),
        "a22": str(spec.a22),
        "a0": str(spec.a0),
        "f": str(spec.f),
    }
    parser["constraints"] = {
        "g1": str(spec.g1),
        "zeta1": str(spec.zeta1.expr),
        "rho1": repr(spec.zeta1.rho),
        "g2": str(spec.g2),
        "zeta2": str(spec.zeta2.expr),
        "rho2": repr(spec.zeta2.rho),
    }
    with open(path, "w") as fh:
        parser.write(fh)
