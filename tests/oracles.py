"""Independent reference computations backing the test suite.

Everything in this module is deliberately primitive: scalar bisection,
dense numpy linear algebra, sympy integrals, brute-force quadrature, and
scipy's general-purpose SLSQP on a densely assembled discrete problem.
None of it calls back into the package's assembly, inversion, or solver
code, so agreement between the two sides is evidence rather than
tautology.
"""

import configparser

import numpy as np

__all__ = [
    "bisect",
    "delta_reference",
    "exponents_reference",
    "admissible_triples",
    "constant_kkt_reference",
    "CONSTANT_KKT_EXACT",
    "edge_numbering",
    "dense_p1",
    "dense_midpoint_operator",
    "dense_weighted_mass",
    "lumped_weights",
    "trace_matrix",
    "quadratic_reference",
    "discrete_problem_reference",
    "element_stiffness_sympy",
    "element_mass_sympy",
    "mms_disk_instance",
    "angular_cos_oracle",
    "brute_gagliardo",
    "adjacent_weights",
    "adjacent_sum",
    "STEP_LADDER_INCREMENT",
]


def bisect(f, lo, hi, tol=1e-15, max_iter=200):
    """Root of f on [lo, hi] by plain bisection; endpoints must straddle."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm <= 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def delta_reference(linear, power, exponent, t):
    """(value, slope) of the control cost slope linear t + power |t|^(exponent-2) t at the float t."""
    magnitude = abs(t) ** (exponent - 2.0)
    return linear * t + power * magnitude * t, linear + (exponent - 1.0) * power * magnitude


# ---------------------------------------------------------------------------
# exponent arithmetic


def exponents_reference(N, p, q):
    """Straight-line re-derivation of the (r, s, slack) table."""
    boundary_r = N * q / (N - 1.0)
    if N / 2.0 < p < N:
        r = min(p * N / (N - p), boundary_r)
    else:
        r = boundary_r
    t = 1.0 - 1.0 / p - 1.0 / N
    s_boundary = N * q / ((N - 1.0) * (q - 1.0))
    if t > 0.0:
        s = min(1.0 / t, s_boundary)
    else:
        s = s_boundary
    return r, s, 1.0 - 1.0 / r - 1.0 / s


def admissible_triples(rng, count):
    """Random (N, p, q) satisfying p > N/2, q > N-1, p, q >= 2."""
    out = []
    while len(out) < count:
        N = float(rng.integers(2, 6))
        p = float(rng.uniform(2.0, 12.0))
        q = float(rng.uniform(2.0, 12.0))
        if p > N / 2.0 and q > N - 1.0:
            out.append((N, p, q))
    return out


# ---------------------------------------------------------------------------
# constant-coefficient KKT instance
#
# The instance data below restate configs/constant_kkt.cfg as plain
# closed forms.  The optimal sextuple is found one scalar root at a time:
# a constant optimal state forces zero Neumann flux, hence v = 0; the
# active boundary constraint then pins y; the state equation pins u; the
# boundary adjoint pins psi2, the boundary multiplier relation pins phi,
# and the interior multiplier relation pins psi1.  Every root is solved
# by bisection to ~1e-15 and cross-checked against the remaining
# optimality identities.

CONSTANT_KKT_EXACT = {
    "y": 0.75,
    "u": 75.0 / 64.0,
    "v": 0.0,
    "phi": -5.0,
    "psi1": 581645.0 / 1342144.0,
    "psi2": 1.0,
}


def constant_kkt_reference():
    g1 = lambda y: y - 3.531200408935547
    g2 = lambda y: 0.5 * y - 0.375
    zeta1 = lambda t: t + t ** 3
    dzeta1 = lambda t: 1.0 + 3.0 * t ** 2
    zeta2 = lambda t: 5.0 * t + t ** 3
    dzeta2 = lambda t: 5.0 + 3.0 * t ** 2
    f = lambda y: y ** 3
    df = lambda y: 3.0 * y ** 2
    a0 = 1.0
    Ly = lambda y: y - 14.620870040770589
    elly = lambda y: y - 1.25
    delta1 = lambda t: t + abs(t) ** 2 * t   # lambda1 = lambda2 = 1, p = 4
    delta2 = lambda t: t + abs(t) ** 2 * t   # mu1 = mu2 = 1, q = 4

    vbar = 0.0                               # constant state has zero flux
    ybar = bisect(lambda y: zeta2(vbar) + g2(y), -10.0, 10.0)
    ubar = bisect(lambda u: a0 * ybar + f(ybar) - u, -10.0, 10.0)
    ubar_c = bisect(lambda u: zeta1(u) + g1(ybar), -10.0, 10.0)
    psi2 = bisect(lambda s: elly(ybar) + 0.5 * s, -10.0, 10.0)
    phibar = bisect(lambda t: delta2(vbar) + t + dzeta2(vbar) * psi2, -20.0, 20.0)
    psi1 = bisect(lambda s: delta1(ubar) + phibar + dzeta1(ubar) * s, -10.0, 10.0)

    # cross-checks: both u determinations coincide and the interior
    # adjoint identity closes with the tracking target
    assert abs(ubar - ubar_c) < 1e-12
    assert abs((a0 + df(ybar)) * phibar - (Ly(ybar) + 1.0 * psi1)) < 1e-12
    return {"y": ybar, "u": ubar, "v": vbar, "phi": phibar, "psi1": psi1, "psi2": psi2}


# ---------------------------------------------------------------------------
# mesh edge numbering


def edge_numbering(triangles):
    """First-appearance numbering of the undirected edges, one side at a time.

    Sides are read triangle by triangle as (a, b), (b, c), (c, a); a side
    whose vertex pair has not been seen opens a new edge, stored as that
    side traverses it.  Returns the edges, shape (E, 2), and the edge
    number of every side, shape (T, 3).
    """
    number = {}
    edges = []
    side_edges = []
    for a, b, c in np.asarray(triangles).tolist():
        row = []
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            if key not in number:
                number[key] = len(edges)
                edges.append((u, v))
            row.append(number[key])
        side_edges.append(row)
    return np.array(edges, dtype=np.int64).reshape(-1, 2), np.array(side_edges, dtype=np.int64).reshape(-1, 3)


# ---------------------------------------------------------------------------
# dense P1 assembly and the linear-quadratic optimality system


def dense_p1(mesh):
    """Dense stiffness, mass, and boundary-mass matrices from scratch.

    Gradients come from inverting the affine vertex matrix per triangle;
    the mass block is the exact P1 formula area/12 * (1 + I); the
    boundary mass is len/6 * [[2, 1], [1, 2]] per edge in boundary-loop
    ordering.
    """
    n = mesh.vertices.shape[0]
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for tri in mesh.triangles:
        pts = mesh.vertices[tri]
        A = np.column_stack([pts, np.ones(3)])
        area = 0.5 * abs(np.linalg.det(A))
        C = np.linalg.inv(A)
        grads = C[:2, :]
        K[np.ix_(tri, tri)] += area * grads.T @ grads
        M[np.ix_(tri, tri)] += area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    loop = np.asarray(mesh.boundary_loop)
    nb = loop.shape[0]
    Mb = np.zeros((nb, nb))
    for i in range(nb):
        j = (i + 1) % nb
        length = float(np.linalg.norm(mesh.vertices[loop[j]] - mesh.vertices[loop[i]]))
        Mb[np.ix_([i, j], [i, j])] += length / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return K, M, Mb


# each triangle's edges as local vertex pairs, in the order of its quadrature points
MIDPOINT_EDGES = ((0, 1), (1, 2), (2, 0))


def _midpoint_rule(mesh):
    """Per triangle and edge midpoint: (t, q, vertex indices, area, (2, 3) gradients, point, basis values)."""
    for t, tri in enumerate(mesh.triangles):
        pts = mesh.vertices[tri]
        A = np.column_stack([pts, np.ones(3)])
        area = 0.5 * abs(np.linalg.det(A))
        grads = np.linalg.inv(A)[:2, :]
        for q, (i, j) in enumerate(MIDPOINT_EDGES):
            phi = np.zeros(3)
            phi[[i, j]] = 0.5
            yield t, q, tri, area, grads, 0.5 * (pts[i] + pts[j]), phi


def dense_midpoint_operator(mesh, a11, a12, a22, a0):
    """Dense Galerkin matrix of -div(A grad y) + a0 y under the edge-midpoint rule.

    The coefficients are plain callables of (x1, x2), evaluated one point at
    a time at the three edge midpoints of each triangle, each point
    weighing a third of the triangle's area.
    """
    n = mesh.vertices.shape[0]
    K = np.zeros((n, n))
    for _, _, tri, area, grads, (x1, x2), phi in _midpoint_rule(mesh):
        coeff = np.array([[a11(x1, x2), a12(x1, x2)], [a12(x1, x2), a22(x1, x2)]])
        local = grads.T @ coeff @ grads + a0(x1, x2) * np.outer(phi, phi)
        K[np.ix_(tri, tri)] += area / 3.0 * local
    return K


def dense_weighted_mass(mesh, weight):
    """Dense mass matrix of a weight given at the edge midpoints: weight[3 t + q] at edge q of triangle t."""
    n = mesh.vertices.shape[0]
    M = np.zeros((n, n))
    for t, q, tri, area, _, _, phi in _midpoint_rule(mesh):
        M[np.ix_(tri, tri)] += area / 3.0 * weight[3 * t + q] * np.outer(phi, phi)
    return M


def lumped_weights(mesh):
    """The vertex-rule weights (m, m_b): the row sums of the dense mass and boundary mass of ``dense_p1``."""
    _, M, Mb = dense_p1(mesh)
    return M.sum(axis=1), Mb.sum(axis=1)


def trace_matrix(mesh):
    loop = np.asarray(mesh.boundary_loop)
    T = np.zeros((loop.shape[0], mesh.vertices.shape[0]))
    T[np.arange(loop.shape[0]), loop] = 1.0
    return T


def quadratic_reference(mesh, a0=1.0, y_target=1.0):
    """Exact optimum of the unconstrained linear-quadratic instance.

    Instance: linear state equation (f = 0), quadratic control costs with
    unit weights, domain tracking of ``y_target`` and no boundary cost,
    caps far out of reach.  The controls and the tracking enter through the
    lumped weights D = diag(m), Db = diag(m_b) of ``lumped_weights``.  The
    first-order system is then linear and the dense block solve is exact up
    to dense-LU roundoff:

        [A , D + T' Db T] [y  ]   [0         ]
        [-D, A          ] [phi] = [-target * m]

    with A = K + a0 M and the controls read off as u = -phi, v = -phi|G.
    """
    K, M, _ = dense_p1(mesh)
    m, mb = lumped_weights(mesh)
    T = trace_matrix(mesh)
    A = K + a0 * M
    B = np.diag(m) + T.T @ np.diag(mb) @ T
    n = M.shape[0]
    Z = np.block([[A, B], [-np.diag(m), A]])
    rhs = np.concatenate([np.zeros(n), -y_target * m])
    sol = np.linalg.solve(Z, rhs)
    y, phi = sol[:n], sol[n:]
    return {"y": y, "phi": phi, "u": -phi, "v": -(T @ phi)}


# ---------------------------------------------------------------------------
# element integrals via sympy


def element_stiffness_sympy():
    """Stiffness of the unit right triangle ((0,0),(1,0),(0,1)) by symbolic integration."""
    import sympy as sp

    x, y = sp.symbols("x y")
    basis = [1 - x - y, x, y]
    rows = []
    for bi in basis:
        row = []
        for bj in basis:
            integrand = sp.diff(bi, x) * sp.diff(bj, x) + sp.diff(bi, y) * sp.diff(bj, y)
            row.append(sp.integrate(sp.integrate(integrand, (y, 0, 1 - x)), (x, 0, 1)))
        rows.append(row)
    return np.array(rows, dtype=float)


def element_mass_sympy():
    import sympy as sp

    x, y = sp.symbols("x y")
    basis = [1 - x - y, x, y]
    rows = []
    for bi in basis:
        row = []
        for bj in basis:
            row.append(sp.integrate(sp.integrate(bi * bj, (y, 0, 1 - x)), (x, 0, 1)))
        rows.append(row)
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# manufactured smooth state y* = 1 + x1 x2 on the disk


def mms_disk_instance():
    """Nodal-callable (y*, u*, v*) for the cubic-reaction disk instance.

    Forcing and flux are derived symbolically from y* = 1 + x1 x2 under
    -div(grad y) + y + y^3 = u with unit outward normal (x1, x2) on the
    circle, then lambdified.  The harmonic part of y* drops the Laplacian
    so u* = y* + y*^3; the flux is v* = 2 x1 x2.
    """
    import sympy as sp

    x1, x2 = sp.symbols("x1 x2")
    ystar = 1 + x1 * x2
    lap = sp.diff(ystar, x1, 2) + sp.diff(ystar, x2, 2)
    ustar = sp.expand(-lap + ystar + ystar ** 3)
    flux = sp.expand(x1 * sp.diff(ystar, x1) + x2 * sp.diff(ystar, x2))
    assert sp.simplify(flux - 2 * x1 * x2) == 0
    y_fn = sp.lambdify((x1, x2), ystar, "numpy")
    u_fn = sp.lambdify((x1, x2), ustar, "numpy")
    v_fn = sp.lambdify((x1, x2), flux, "numpy")
    return y_fn, u_fn, v_fn


# ---------------------------------------------------------------------------
# fractional seminorm oracles


def angular_cos_oracle(panels=10 ** 6, theta_points=256):
    """Continuum double integral of the cos-trace seminorm at tau=1/2, k=2.

    On the unit circle, I = int_0^{2pi} d(delta) [ int (cos t - cos(t+delta))^2 dt ]
    / (2 sin(delta/2))^2 with the chord metric.  The inner integral is a
    trigonometric polynomial, integrated exactly by a uniform grid; the
    outer integral uses ``panels`` midpoint panels.  The analytic value
    is 2 pi^2.
    """
    theta = (np.arange(theta_points) + 0.5) * (2.0 * np.pi / theta_points)
    cos_t = np.cos(theta)
    total = 0.0
    width = 2.0 * np.pi / panels
    chunk = 20000
    for start in range(0, panels, chunk):
        idx = np.arange(start, min(start + chunk, panels))
        delta = (idx + 0.5) * width
        inner = 2.0 * np.pi * np.mean(
            (cos_t[None, :] - np.cos(theta[None, :] + delta[:, None])) ** 2, axis=1
        )
        total += float(np.sum(inner / (4.0 * np.sin(delta / 2.0) ** 2))) * width
    return total


def brute_gagliardo(field, tau, k, panels_per_edge=128):
    """Midpoint-panel double integral of the Gagliardo seminorm on the loop.

    The boundary polyline is cut into ``panels_per_edge`` straight panels
    per edge; the P1 interpolant is evaluated at panel midpoints and all
    ordered midpoint pairs are accumulated with the Euclidean chord
    distance.  Coincident panels use the integrand's diagonal limit
    (slope^k when k - 1 - tau k == 0, zero when the exponent is
    positive).
    """
    mesh = field.mesh
    loop = np.asarray(mesh.boundary_loop)
    verts = mesh.vertices[loop]
    nxt = np.roll(np.arange(loop.shape[0]), -1)
    pts = []
    vals = []
    wts = []
    slopes = []
    s = (np.arange(panels_per_edge) + 0.5) / panels_per_edge
    for i in range(loop.shape[0]):
        a, b = verts[i], verts[nxt[i]]
        va, vb = field.values[i], field.values[nxt[i]]
        length = float(np.linalg.norm(b - a))
        pts.append(a[None, :] + s[:, None] * (b - a)[None, :])
        vals.append(va + s * (vb - va))
        wts.append(np.full(panels_per_edge, length / panels_per_edge))
        slopes.append(np.full(panels_per_edge, abs(vb - va) / length))
    pts = np.concatenate(pts)
    vals = np.concatenate(vals)
    wts = np.concatenate(wts)
    slopes = np.concatenate(slopes)

    expo = 1.0 + tau * k
    diag_power = k - 1.0 - tau * k
    total = 0.0
    m = pts.shape[0]
    for i in range(m):
        d = np.linalg.norm(pts - pts[i], axis=1)
        num = np.abs(vals - vals[i]) ** k
        with np.errstate(divide="ignore", invalid="ignore"):
            cell = num / d ** expo
        if diag_power > 0.0:
            cell[i] = 0.0
        else:
            cell[i] = slopes[i] ** k
        total += float(np.sum(cell * wts) * wts[i])
    return total


def adjacent_weights(loop_vertices, s, t, w, beta, dtype=np.longdouble):
    """Adjacent-edge weights |e| |e+1| w_s w_t / |x - x'|^beta by one (nb, cells, 4, 4, xy) broadcast.

    Edge e runs from x(s) = a + s (b - a) and edge e + 1 from x'(t) = b +
    t (c - b), for consecutive vertices a, b, c of the closed loop
    ``loop_vertices`` (nb, 2); ``s``, ``t`` and ``w`` are the (cells, 4)
    node and weight tables of the graded cells.  The squared distance sums
    the trailing xy axis of the difference table x - x', which cancels near
    the shared vertex; in ``np.longdouble`` (the default ``dtype``) the
    cancellation costs about 1e-16 relative on x86-64, where float64 loses
    up to 1e-11 on a 2,048-edge loop.
    """
    a, s, t, w = (np.asarray(arr, dtype=dtype) for arr in (loop_vertices, s, t, w))
    b = np.roll(a, -1, axis=0)
    c = np.roll(a, -2, axis=0)
    x = a[:, None, None, None, :] + s[None, :, :, None, None] * (b - a)[:, None, None, None, :]
    xp = b[:, None, None, None, :] + t[None, :, None, :, None] * (c - b)[:, None, None, None, :]
    d2 = np.sum((x - xp) ** 2, axis=4)
    lens = np.sqrt(np.sum((b - a) ** 2, axis=1))
    weights = np.power(d2, -0.5 * dtype(beta))
    weights *= (lens * np.roll(lens, -1))[:, None, None, None]
    weights *= w[None, :, :, None] * w[None, :, None, :]
    return weights


def adjacent_sum(loop_vertices, values, s, t, w, beta, k):
    """2 sum over the graded cells of every vertex of the weights against |f(s) - f(t)|^k, per field.

    ``values`` (F, nb) holds one field per row at the loop vertices; f runs
    linearly along each edge as x does in ``adjacent_weights``.  Evaluated
    in ``np.longdouble``, each field shifted by its first value first:
    the shift is exact there and keeps a large offset from cancelling in
    f(s) - f(t).
    """
    weights = adjacent_weights(loop_vertices, s, t, w, beta)
    s, t = np.asarray(s, dtype=np.longdouble), np.asarray(t, dtype=np.longdouble)
    sums = []
    for v in np.asarray(values, dtype=np.longdouble):
        v0 = v - v[0]
        v1, v2 = np.roll(v0, -1), np.roll(v0, -2)
        fs = v0[:, None, None] + s * (v1 - v0)[:, None, None]
        ft = v1[:, None, None] + t * (v2 - v1)[:, None, None]
        sums.append(2 * np.sum(weights * np.abs(fs[..., :, None] - ft[..., None, :]) ** np.longdouble(k)))
    return np.array(sums)


# per-level growth of the k=2 embedding probe for a sign(x1) trace: two
# jumps of height 2, and each refinement halves the closest panel
# distance to the jump, adding n_jumps * |jump|^k * 2 ln 2.
STEP_LADDER_INCREMENT = 2 * 2.0 ** 2 * 2.0 * np.log(2.0)


# ---------------------------------------------------------------------------
# the discrete mixed-constrained problem, by a general-purpose NLP solver


def _config_functions(path):
    """The problem data of a config file as numpy callables, read with configparser and sympy.

    Returns a dict: the diffusion coefficients and a0 as functions of (x1, x2), f and f_y of
    (x1, x2, y), and per control (interior, boundary) its tracking integrand and its
    y-derivative, g and g_y of (x1, x2, y), zeta and zeta' of t, and its cost weights
    (linear, power, exponent).
    """
    import sympy

    parser = configparser.ConfigParser()
    parser.read(path)
    data = {key: value for section in parser.sections() for key, value in parser.items(section)}
    x1, x2, y, t = sympy.symbols("x1 x2 y t")
    variables = (x1, x2, y)

    def expr(key):
        return sympy.sympify(data[key].replace("^", "**"), locals={"pi": sympy.pi, "sign": sympy.sign})

    def fn(e, args=variables):
        lam = sympy.lambdify(args, e, "numpy")
        return lambda *a: np.broadcast_to(np.asarray(lam(*a), dtype=float), np.broadcast(*a).shape) * 1.0

    out = {key: fn(expr(key), (x1, x2)) for key in ("a11", "a12", "a22", "a0")}
    out["f"], out["f_y"] = fn(expr("f")), fn(sympy.diff(expr("f"), y))
    p = float(data["p"])
    q = float(data["q"])
    out["controls"] = []
    # configparser lowercases its keys, so the tracking integrand L reads as l
    for track, g, zeta, linear, power, exponent in (("l", "g1", "zeta1", "lambda1", "lambda2", p),
                                                     ("ell", "g2", "zeta2", "mu1", "mu2", q)):
        out["controls"].append({
            "track": fn(expr(track)), "track_y": fn(sympy.diff(expr(track), y)),
            "g": fn(expr(g)), "g_y": fn(sympy.diff(expr(g), y)),
            "zeta": fn(expr(zeta), (t,)), "zeta_t": fn(sympy.diff(expr(zeta), t), (t,)),
            "linear": float(data[linear]), "power": float(data[power]), "exponent": exponent,
        })
    return out


def _midpoint_interpolation(mesh):
    """Dense (3T, n) map of nodal values to the edge midpoints, and the points' weights area / 3."""
    rows, weights = [], []
    n = mesh.vertices.shape[0]
    for _, _, tri, area, _, _, phi in _midpoint_rule(mesh):
        row = np.zeros(n)
        row[tri] = phi
        rows.append(row)
        weights.append(area / 3.0)
    return np.array(rows), np.array(weights)


def discrete_problem_reference(mesh, config_path, ftol=1e-13):
    """The minimizer of the discrete problem of a config on ``mesh``, by SLSQP with analytic gradients.

    The unknowns are z = (y, u, v), y and u per vertex and v per loop
    vertex.  The cost is the vertex rule with the weights of
    ``lumped_weights``: sum m (L(x, y) + linear/2 u^2 + power/p |u|^p) plus
    the boundary analogue with m_b; the state equation
    A y + Q^T (w f(x, Q y)) = m u + T^T (m_b v) is an equality constraint,
    A the dense midpoint Galerkin operator with a0 and Q, w the midpoint
    interpolation and weights; and zeta_i(c) + g_i(x, y) <= 0 at the nodes
    of each control are inequality constraints.  SLSQP starts from
    y = u = v = 1, which is no shipped config's optimum, and stops when an
    iteration lowers the cost by less than ``ftol``.  Returns dict(y, u, v,
    objective, result) with the optimizer's result.
    """
    from scipy.optimize import minimize

    data = _config_functions(config_path)
    n = mesh.vertices.shape[0]
    loop = np.asarray(mesh.boundary_loop)
    nb = loop.size
    m, mb = lumped_weights(mesh)
    T = trace_matrix(mesh)
    A = dense_midpoint_operator(mesh, data["a11"], data["a12"], data["a22"], data["a0"])
    Q, w = _midpoint_interpolation(mesh)
    xq = Q @ mesh.vertices
    nodes = (np.arange(n), loop)
    xs = [mesh.vertices[k] for k in nodes]
    weights = (m, mb)

    def split(z):
        return z[:n], z[n:2 * n], z[2 * n:]

    def cost(z):
        y, u, v = split(z)
        total = 0.0
        for c, x, wt, yc, cc in zip(data["controls"], xs, weights, (y, y[loop]), (u, v)):
            total += wt @ (c["track"](x[:, 0], x[:, 1], yc) + 0.5 * c["linear"] * cc ** 2
                           + c["power"] / c["exponent"] * np.abs(cc) ** c["exponent"])
        return total

    def cost_gradient(z):
        y, u, v = split(z)
        grad = np.zeros_like(z)
        for k, (c, x, wt, yc, cc) in enumerate(zip(data["controls"], xs, weights, (y, y[loop]), (u, v))):
            grad[nodes[k]] += wt * c["track_y"](x[:, 0], x[:, 1], yc)
            slope = c["linear"] * cc + c["power"] * np.abs(cc) ** (c["exponent"] - 2.0) * cc
            grad[(slice(n, 2 * n), slice(2 * n, None))[k]] = wt * slope
        return grad

    def state(z):
        y, u, v = split(z)
        yq = Q @ y
        return A @ y + Q.T @ (w * data["f"](xq[:, 0], xq[:, 1], yq)) - m * u - T.T @ (mb * v)

    def state_jacobian(z):
        yq = Q @ split(z)[0]
        dy = A + Q.T @ ((w * data["f_y"](xq[:, 0], xq[:, 1], yq))[:, None] * Q)
        return np.hstack([dy, -np.diag(m), -T.T @ np.diag(mb)])

    def caps(z):
        y, u, v = split(z)
        return -np.concatenate([c["zeta"](cc) + c["g"](x[:, 0], x[:, 1], yc)
                                for c, x, yc, cc in zip(data["controls"], xs, (y, y[loop]), (u, v))])

    def caps_jacobian(z):
        y, u, v = split(z)
        jac = np.zeros((n + nb, 2 * n + nb))
        (c1, c2), (x1, x2) = data["controls"], xs
        jac[np.arange(n), np.arange(n)] = -c1["g_y"](x1[:, 0], x1[:, 1], y)
        jac[np.arange(n), n + np.arange(n)] = -c1["zeta_t"](u)
        jac[n + np.arange(nb), loop] = -c2["g_y"](x2[:, 0], x2[:, 1], y[loop])
        jac[n + np.arange(nb), 2 * n + np.arange(nb)] = -c2["zeta_t"](v)
        return jac

    result = minimize(
        cost, np.ones(2 * n + nb), jac=cost_gradient, method="SLSQP",
        constraints=[{"type": "eq", "fun": state, "jac": state_jacobian},
                     {"type": "ineq", "fun": caps, "jac": caps_jacobian}],
        options={"ftol": ftol, "maxiter": 500},
    )
    y, u, v = split(result.x)
    return {"y": y, "u": u, "v": v, "objective": result.fun, "result": result}
