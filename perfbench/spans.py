"""In-memory spans around mixedreg's public functions, for the traced pass.

The tracer patches every public function of each package module at every
binding other modules call it through (``kkt`` imports ``solve_state`` and
``invert_monotone`` by name, ``regularity`` imports
``holder_embedding_probe``), plus ``Expr.__call__`` and the
``scipy.sparse.linalg`` ``cg``/``splu`` attributes that ``fem`` and ``kkt``
look up at call time.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, run_id, failed]``; spans stay in a
list until the pass ends.  A span's self time is its duration minus the
durations of its direct children; the package is serial, so children never
overlap.  Work counters are recorded by hooks at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = (
    "geometry",
    "fem",
    "solvers",
    "kkt",
    "catalog",
    "expressions",
    "fracnorm",
    "regularity",
    "cli",
)

ESTIMATORS = (
    "regularity.lipschitz_estimate",
    "regularity.holder_estimate",
    "regularity.second_difference_estimate",
)

# metrics every traced pass reports, in BENCHMARK.json order
LAYER_METRICS = (
    "geometry.build.calls",
    "geometry.build.busy_s",
    "geometry.vertices",
    "geometry.self_s",
    "fem.solve_linear.calls",
    "fem.solve_linear.busy_s",
    "fem.solve_linear.failed",
    "fem.krylov_iters",
    "fem.distinct_operator_ratio",
    "fem.assemble.calls",
    "fem.assemble.busy_s",
    "fem.prolong.busy_s",
    "fem.self_s",
    "solvers.solve_state.calls",
    "solvers.solve_state.self_s",
    "solvers.solve_state.failed",
    "solvers.newton_steps",
    "solvers.solve_adjoint.calls",
    "solvers.solve_linearized.calls",
    "solvers.busy_s",
    "solvers.self_s",
    "kkt.solve_kkt.calls",
    "kkt.solve_kkt.self_s",
    "kkt.sweeps",
    "kkt.converged_ratio",
    "kkt.kkt_residual.busy_s",
    "kkt.robinson_check.calls",
    "kkt.splu.calls",
    "kkt.splu.busy_s",
    "kkt.self_s",
    "catalog.invert_monotone.calls",
    "catalog.invert_monotone.busy_s",
    "catalog.self_s",
    "expressions.eval.calls",
    "expressions.eval.busy_s",
    "expressions.self_s",
    "fracnorm.gagliardo.calls",
    "fracnorm.gagliardo.busy_s",
    "fracnorm.pair_evals",
    "fracnorm.bytes_computed",
    "fracnorm.self_s",
    "regularity.estimators.calls",
    "regularity.estimators.busy_s",
    "regularity.holder_pairs",
    "regularity.self_s",
    "cli.self_s",
    "cli.artifact_bytes",
    "bench.unattributed_s",
    "bench.traced_wall_s",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans and work counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.operators: set = set()  # fingerprints of the matrices solve_linear saw
        self.run_id = ""
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; hooks run outside the span's clock."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # ------------------------------------------------------------ patching

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Patch the package, ``Expr.__call__`` and scipy's ``cg``/``splu``."""
        import scipy.sparse.linalg as spla

        package = importlib.import_module("mixedreg")
        modules = {layer: importlib.import_module(f"mixedreg.{layer}") for layer in LAYERS}
        bindings = [package, *modules.values()]
        hooks = self._hooks(modules["regularity"].HOLDER_SUBSAMPLE)
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, *hooks.get(name, (None, None)))
                for target in bindings:
                    for bound, value in list(vars(target).items()):
                        if value is fn:
                            self._set(target, bound, wrapped)

        expr_cls = modules["expressions"].Expr
        self._set(expr_cls, "__call__", self.wrap("expressions.eval", expr_cls.__call__))

        cg = spla.cg
        counts = self.counts

        def counted_cg(A, b, *args, callback=None, **kwargs):
            def step(xk):
                counts["fem.krylov_iters"] += 1
                if callback is not None:
                    callback(xk)

            return cg(A, b, *args, callback=step, **kwargs)

        self._set(spla, "cg", self.wrap("fem.cg", counted_cg))
        self._set(spla, "splu", self.wrap("kkt.splu", spla.splu))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _hooks(self, holder_subsample: int) -> dict:
        import numpy as np

        counts = self.counts

        def operator_seen(args, kwargs):
            # content fingerprint; position weights make equal matrices, and
            # in practice only those, give equal sums
            m = args[0].matrix
            w = np.arange(1.0, m.nnz + 1.0)
            self.operators.add((m.shape, m.nnz, float(m.data @ w), float(m.indices @ w)))

        def newton(args, kwargs, out):
            counts["solvers.newton_steps"] += out.newton_iterations

        def sweeps(args, kwargs, out):
            counts["kkt.sweeps"] += out[1].iterations
            counts["kkt.converged"] += int(out[1].converged)

        def mesh_built(args, kwargs, out):
            # meshes built inside another geometry call are counted by that call
            if not any(self.spans[i][0].startswith("geometry.") for i in self._stack):
                counts["geometry.vertices"] += out.n_vertices

        def pairs(args, kwargs):
            # ordered quadrature-point pairs of the far-field pass: 2 Gauss points per edge
            npts = 2 * args[0].mesh.n_boundary
            counts["fracnorm.pair_evals"] += npts * npts

        def holder_pairs(args, kwargs):
            f = args[0]
            n = f.values.shape[0]
            if f.role == "domain":
                n = min(n, kwargs.get("max_points", args[3] if len(args) > 3 else holder_subsample))
            counts["regularity.holder_pairs"] += n * (n - 1) // 2

        geometry = (None, mesh_built)
        return {
            "fem.solve_linear": (operator_seen, None),
            "solvers.solve_state": (None, newton),
            "kkt.solve_kkt": (None, sweeps),
            "geometry.build_disk_mesh": geometry,
            "geometry.build_ellipse_mesh": geometry,
            "geometry.refine": geometry,
            "geometry.mesh_from_arrays": geometry,
            "fracnorm.gagliardo": (pairs, None),
            "regularity.holder_estimate": (holder_pairs, None),
        }


def summarize(tracer: Tracer, wall: float, artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced pass whose CLI calls took ``wall`` seconds."""
    spans, counts = tracer.spans, tracer.counts
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    self_s = dur[:]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_s[s[3]] -= dur[i]

    def named(*wanted):
        return [i for i, nm in enumerate(names) if nm in wanted]

    def in_layer(layer):
        return {nm for nm in names if layer_of(nm) == layer}

    def outer(*wanted):
        """Spans named ``wanted`` with no ancestor of those names."""
        found = []
        for i in named(*wanted):
            p = spans[i][3]
            while p >= 0 and names[p] not in wanted:
                p = spans[p][3]
            if p < 0:
                found.append(i)
        return found

    def busy(*wanted):
        """Wall time covered by spans named ``wanted``, nested ones counted once."""
        return sum(dur[i] for i in outer(*wanted))

    def own(*wanted):
        return sum(self_s[i] for i in named(*wanted))

    def failed(name):
        return sum(1 for i in named(name) if spans[i][5])

    geometry = in_layer("geometry")
    assemble = {nm for nm in in_layer("fem") if nm.startswith("fem.assemble_")}
    solves = len(named("fem.solve_linear"))
    kkt_calls = len(named("kkt.solve_kkt"))
    pair_evals = counts["fracnorm.pair_evals"]
    m = {
        "geometry.build.calls": len(outer(*geometry)),
        "geometry.build.busy_s": busy(*geometry),
        "geometry.vertices": counts["geometry.vertices"],
        "fem.solve_linear.calls": solves,
        "fem.solve_linear.busy_s": busy("fem.solve_linear"),
        "fem.solve_linear.failed": failed("fem.solve_linear"),
        "fem.krylov_iters": counts["fem.krylov_iters"],
        "fem.distinct_operator_ratio": len(tracer.operators) / solves if solves else 0.0,
        "fem.assemble.calls": len(outer(*assemble)),
        "fem.assemble.busy_s": busy(*assemble),
        "fem.prolong.busy_s": busy("fem.prolong"),
        "solvers.solve_state.calls": len(named("solvers.solve_state")),
        "solvers.solve_state.self_s": own("solvers.solve_state"),
        "solvers.solve_state.failed": failed("solvers.solve_state"),
        "solvers.newton_steps": counts["solvers.newton_steps"],
        "solvers.solve_adjoint.calls": len(named("solvers.solve_adjoint")),
        "solvers.solve_linearized.calls": len(named("solvers.solve_linearized")),
        "solvers.busy_s": busy(*in_layer("solvers")),
        "kkt.solve_kkt.calls": kkt_calls,
        "kkt.solve_kkt.self_s": own("kkt.solve_kkt"),
        "kkt.sweeps": counts["kkt.sweeps"],
        "kkt.converged_ratio": counts["kkt.converged"] / kkt_calls if kkt_calls else 0.0,
        "kkt.kkt_residual.busy_s": busy("kkt.kkt_residual"),
        "kkt.robinson_check.calls": len(named("kkt.robinson_check")),
        "kkt.splu.calls": len(named("kkt.splu")),
        "kkt.splu.busy_s": busy("kkt.splu"),
        "catalog.invert_monotone.calls": len(named("catalog.invert_monotone")),
        "catalog.invert_monotone.busy_s": busy("catalog.invert_monotone"),
        "expressions.eval.calls": len(named("expressions.eval")),
        "expressions.eval.busy_s": busy("expressions.eval"),
        "fracnorm.gagliardo.calls": len(named("fracnorm.gagliardo")),
        "fracnorm.gagliardo.busy_s": busy("fracnorm.gagliardo"),
        "fracnorm.pair_evals": pair_evals,
        # computed, not measured: one float64 integrand value per pair
        "fracnorm.bytes_computed": 8 * pair_evals,
        "regularity.estimators.calls": len(named(*ESTIMATORS)),
        "regularity.estimators.busy_s": busy(*ESTIMATORS),
        "regularity.holder_pairs": counts["regularity.holder_pairs"],
        "cli.artifact_bytes": artifact_bytes,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own(*in_layer(layer))
    m["bench.unattributed_s"] = wall - sum(d for s, d in zip(spans, dur) if s[3] < 0)
    m["bench.traced_wall_s"] = wall
    return m
