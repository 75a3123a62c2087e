"""Module boundaries inside the package, checked by scanning its source.

A private name (leading underscore) belongs to the module that defines
it: another module that needs it gets a public function instead.  No
module reaches into an object's ``__dict__``; derived data lives in
declared attributes.  Sparse matrices and linear solves belong to
``fem``: no other module imports ``scipy.sparse`` or any part of it, and
``splu`` is named at one site, the factorisation ``fem.solve_linear``
keeps on its operator, so no second path can bypass the reuse.  Likewise
``coo_matrix`` is named at one site, the boundary mass: every interior
matrix comes from the sparse maps of the ``fem.P1`` record.  The
backtracking constants ``ARMIJO_FACTOR`` and ``NEWTON_MAX_HALVINGS`` are
named only in ``solvers``, whose ``newton`` is the one damped-Newton
loop, and the inversion constants ``INVERT_TOL`` and
``MAX_BRACKET_DOUBLINGS`` only where ``catalog`` defines them and inside
its ``invert_monotone``, the one bracketed inversion of every monotone
scalar map.  Every public function, and every public method of a public
class, has a caller in the package, or a recorded reason to be kept
without one, and every module-level UPPER_CASE constant is read by
package code, so no knob outlives the code it tuned (a test that
monkeypatches a constant does not read it).  Every import
sits at module level, so the import graph is the one the module headers
show.  Which domains exist is decided in ``geometry`` alone, by its
``PRESETS`` table: no other module compares with a preset name or lists
preset names in a literal, so a new domain needs no dispatch elsewhere.
The Gagliardo quadrature belongs to ``fracnorm``: ``leggauss`` and
``DYADIC_LEVELS`` are named in no other module, so ``fem`` supplies the
boundary quadrature and the pair staircase but no Gagliardo pair rule.
The pair walk's layout belongs to ``fem`` as well: ``_STAIR_ROWS`` is
named, and ``nonlocal`` written, in no other module, so each visit of
``fem.pair_blocks`` is a plain function of one block and no caller
knows the block height.  The package runs on its caller's thread: no
module imports ``threading``, ``contextvars``, ``concurrent`` or
``multiprocessing``, and none names the walk's former ``_lane_count``.
The elimination order of the factorisations belongs to ``fem`` too: the
nested dissection is built at one site, ``P1.ordering``, once per mesh,
and ``splu`` is called at one site, which passes ``permc_spec="NATURAL"``
as a literal, so no caller picks an ordering and no operator falls back
on SuperLU's own.  A ``fem.SparseOperator``, the pairing of a matrix with
that order, is built only where ``solve_linear`` factorises the matrix:
in ``fem.block_operator``, ``solvers.linearized_matrix`` and
``kkt.robinson_check``; every other assembly returns a plain canonical
CSR matrix.
The per-control fields of a ``ProblemSpec`` (``L``, ``ell``, ``g1``,
``g2``, ``zeta1``, ``zeta2``, ``lambda1``, ``lambda2``, ``mu1``, ``mu2``)
are read in ``catalog`` alone: every other module reads a control's data
from its ``catalog.Control`` record in ``spec.controls``, so no formula
is written out once for u and again for v.  Inside ``catalog`` they are
read only by ``ProblemSpec``, which builds the records, and by the config
reader and writer; ``check_assumptions`` loops over the records too.  The
smallest eigenvalue of the coefficient matrix is written once, in
``fem.min_eigenvalue``, which both the assembly and check A2 call.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from mixedreg import fem, geometry, solvers

SRC = Path(__file__).resolve().parent.parent / "src" / "mixedreg"
SPARSE = "scipy.sparse"
CONCURRENCY = {"threading", "contextvars", "concurrent", "multiprocessing"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_sparse(name):
    return name == SPARSE or name.startswith(SPARSE + ".")


def _imports_sparse(node):
    if isinstance(node, ast.Import):
        return any(_is_sparse(a.name) for a in node.names)
    module = node.module or ""
    return _is_sparse(module) or (module == "scipy" and any(a.name == "sparse" for a in node.names))


def _imports_concurrency(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in CONCURRENCY for a in node.names)
    return node.level == 0 and (node.module or "").split(".")[0] in CONCURRENCY


def violations(source, module):
    """Layering breaches in the source of package module ``module``, one line of text each."""
    tree = ast.parse(source)
    modules = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and module != "fem" and _imports_sparse(node):
            found.append(f"line {node.lineno}: imports {SPARSE} outside fem")
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _imports_concurrency(node):
            found.append(f"line {node.lineno}: imports a concurrency module")
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module == "mixedreg"
                                                 or (node.module or "").startswith("mixedreg.")):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports private {alias.name}")
                if node.module in (None, "mixedreg"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mixedreg.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in modules and _private(node.attr):
                found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
            if node.attr == "__dict__":
                found.append(f"line {node.lineno}: uses __dict__")
        elif isinstance(node, ast.Name) and node.id == "__dict__":
            found.append(f"line {node.lineno}: uses __dict__")
    found += [f"line {line}: names _lane_count" for line in name_sites(source, {"_lane_count"})]
    return found


def test_scanner_flags_each_rule():
    sample = (
        "from . import fem\n"
        "from .solvers import _operator, solve_state\n"
        "import mixedreg.geometry as geo\n"
        "basis = fem._TRI_BASIS\n"
        "geo._edge_table(t, n)\n"
        "mesh.__dict__.setdefault('k', {})\n"
        "fem.p1(mesh).interior\n"
        "import scipy.sparse.linalg as spla\n"
        "from scipy.sparse import linalg\n"
        "from scipy.sparse.linalg import splu\n"
        "import scipy.sparse as sp\n"
        "from scipy import sparse\n"
        "import scipy.optimize\n"
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import multiprocessing.pool, os\n"
        "from contextvars import copy_context\n"
        "lanes = fem._lane_count(blocks)\n"
        "# threading and _lane_count in a comment\n"
        "from .threading_notes import plan\n"
    )
    assert sorted(int(v.split(":")[0][5:]) for v in violations(sample, "kkt")) == [
        2, 4, 5, 6, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 18
    ]
    # fem owns the sparse matrices and the linear solves, but no thread either
    assert sorted(int(v.split(":")[0][5:]) for v in violations(sample, "fem")) == [
        2, 4, 5, 6, 14, 15, 16, 17, 18, 18
    ]


def name_sites(source, names):
    """Lines of ``source`` that name one of ``names``: attribute reads, bare names and imports."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in names:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            lines += [node.lineno for a in node.names if a.name.split(".")[-1] in names]
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_respects_layering(path):
    assert violations(path.read_text(), path.stem) == []


def test_one_factorisation_site():
    sample = (
        "x = spla.splu(a)\n"
        "from scipy.sparse.linalg import splu\n"
        "lu = splu\n"
        "# splu in a comment\n"
        "'splu in a string'\n"
    )
    assert name_sites(sample, {"splu"}) == [1, 2, 3]
    sites = {path.name: name_sites(path.read_text(), {"splu"}) for path in sorted(SRC.glob("*.py"))}
    assert [(name, len(lines)) for name, lines in sites.items() if lines] == [("fem.py", 1)]


def _enclosing(source, kind, name):
    """(first line, last line) of the ``kind`` node called ``name`` in ``source``."""
    node = next(node for node in ast.walk(ast.parse(source)) if isinstance(node, kind) and node.name == name)
    return node.lineno, node.end_lineno


def test_one_scatter_assembly_site():
    # interior matrices come from the P1 record's sparse maps; only the boundary mass scatters
    sites = {path.name: name_sites(path.read_text(), {"coo_matrix"}) for path in sorted(SRC.glob("*.py"))}
    assert [(name, len(lines)) for name, lines in sites.items() if lines] == [("fem.py", 1)]
    (line,) = sites["fem.py"]
    first, last = _enclosing((SRC / "fem.py").read_text(), ast.FunctionDef, "boundary_mass")
    assert first <= line <= last


def test_two_edge_table_sites():
    # each mesh sorts its sides once, when it is built; refine reads the kept table
    sites = {path.name: name_sites(path.read_text(), {"_edge_table"}) for path in sorted(SRC.glob("*.py"))}
    assert [(name, len(lines)) for name, lines in sites.items() if lines] == [("geometry.py", 2)]
    source = (SRC / "geometry.py").read_text()
    construction, walk = sites["geometry.py"]
    first, last = _enclosing(source, ast.ClassDef, "Mesh")
    assert first <= construction <= last
    first, last = _enclosing(source, ast.FunctionDef, "mesh_from_arrays")
    assert first <= walk <= last


def test_one_refinement_site():
    # the nested meshes come from one refinement chain: build_mesh refines, every other module
    # walks ``Mesh.coarser``, and no parentage table is kept beside it
    sites = {path.name: name_sites(path.read_text(), {"refine"}) for path in sorted(SRC.glob("*.py"))}
    assert [(name, len(lines)) for name, lines in sites.items() if lines] == [("geometry.py", 1)]
    first, last = _enclosing((SRC / "geometry.py").read_text(), ast.FunctionDef, "build_mesh")
    assert first <= sites["geometry.py"][0] <= last
    assert [path.name for path in sorted(SRC.glob("*.py")) if name_sites(path.read_text(), {"parents"})] == []


def function_imports(source):
    """Lines of ``source`` where a function body imports something."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [sub.lineno for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))]
    return sorted(set(lines))


def test_no_function_body_imports():
    sample = (
        "import numpy as np\n"
        "def f():\n"
        "    from . import fem\n"
        "    def g():\n"
        "        import math\n"
        "class C:\n"
        "    def m(self):\n"
        "        import json\n"
        "if TYPE_CHECKING:\n"
        "    from .catalog import ProblemSpec\n"
    )
    assert function_imports(sample) == [3, 5, 8]
    sites = {path.name: function_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in sites.items() if lines} == {}


BACKTRACKING = {"ARMIJO_FACTOR", "NEWTON_MAX_HALVINGS"}


def test_one_backtracking_site():
    sample = (
        "from .solvers import ARMIJO_FACTOR, NEWTON_TOL\n"
        "t = solvers.NEWTON_MAX_HALVINGS\n"
        "ok = NEWTON_TOL\n"
        "# ARMIJO_FACTOR in a comment\n"
        "c = ARMIJO_FACTOR * t\n"
    )
    assert name_sites(sample, BACKTRACKING) == [1, 2, 5]
    sites = {path.name: name_sites(path.read_text(), BACKTRACKING) for path in sorted(SRC.glob("*.py"))}
    assert [name for name, lines in sites.items() if lines] == ["solvers.py"]


INVERSION = {"INVERT_TOL", "MAX_BRACKET_DOUBLINGS"}


def test_one_inversion_site():
    # zeta_i and delta_i are all MonotoneScalars, inverted by one bracketed Newton
    sites = {path.name: name_sites(path.read_text(), INVERSION) for path in sorted(SRC.glob("*.py"))}
    assert [name for name, lines in sites.items() if lines] == ["catalog.py"]
    source = (SRC / "catalog.py").read_text()
    definitions = [stmt.lineno for stmt in ast.parse(source).body if isinstance(stmt, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id in INVERSION for t in stmt.targets)]
    assert len(definitions) == len(INVERSION)
    first, last = _enclosing(source, ast.FunctionDef, "invert_monotone")
    assert [line for line in sites["catalog.py"] if not first <= line <= last] == definitions


# public functions kept without a package caller, and why
KEPT = {
    "fem.read_meshfield": "reads back the MESHFIELD artifacts the CLI writes",
    "geometry.mesh_from_arrays": "builds hand-made meshes from raw arrays",
    "catalog.save_problem_config": "the write half of the config round trip",
}


def _names(node):
    """Every name node reads or binds, as ast.Name ids and ast.Attribute attrs."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _name_counts(node):
    """How often ``node`` reads or binds each name, as ast.Name ids and ast.Attribute attrs."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def _public_defs(tree):
    """(qualified name, def) of each top-level public def and each public method of a top-level public class."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            yield from ((f"{stmt.name}.{sub.name}", sub) for sub in stmt.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))


def uncalled_public_functions(sources):
    """``module.name`` of each public def of ``_public_defs`` in ``sources`` (module -> text)
    that no code of any module names outside the def's own body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    counts = sum((_name_counts(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}.{name}" for module, tree in trees.items() for name, node in _public_defs(tree)
                  if counts[node.name] == _name_counts(node)[node.name])


def test_public_functions_have_a_package_caller():
    sample = {
        "a": "def called():\n    pass\n\ndef recursive():\n    return recursive()\n\n"
             "def _helper():\n    called()\n    C().used\n",
        "b": "from . import a\nx = a.read\n\ndef read():\n    pass\n\nclass C:\n"
             "    def method(self):\n        pass\n\n    @property\n    def used(self):\n        return 1\n\n"
             "    def __str__(self):\n        return ''\n\nclass _D:\n    def hidden(self):\n        pass\n",
    }
    assert uncalled_public_functions(sample) == ["a.recursive", "b.C.method"]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    uncalled = uncalled_public_functions(sources)
    assert uncalled == sorted(KEPT), "no package caller: " + ", ".join(uncalled)


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unread_constants(sources):
    """``module.NAME`` of each module-level UPPER_CASE constant in ``sources`` (module -> text)
    that no code of any module reads: a load of the bare name or of an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    defined = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            defined |= {(module, node.id) for target in targets if target is not None
                        for node in ast.walk(target)
                        if isinstance(node, ast.Name) and CONSTANT.fullmatch(node.id)}
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_every_constant_is_read():
    sample = {
        "a": "KNOB = 3\nUSED, _HIDDEN = 1, 2\nLEFT: int = 4\nlower = 5\n\ndef f():\n    LOCAL = 6\n"
             "    return USED + LOCAL\n",
        "b": "from . import a\nfrom .a import KNOB\nx = a._HIDDEN\nSTORED = 0\nSTORED = 1\n",
    }
    assert unread_constants(sample) == ["a.KNOB", "a.LEFT", "b.STORED"]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []


PRESET_NAMES = {"disk", "ellipse"}


def preset_decisions(source):
    """Lines of ``source`` that decide on domain presets by name.

    A comparison with a preset name on either side, or a tuple, list or
    set literal that holds one; a keyword default such as
    ``default="disk"`` names a preset without deciding among them.
    """
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            operands = node.elts
        else:
            continue
        if any(isinstance(op, ast.Constant) and isinstance(op.value, str) and op.value in PRESET_NAMES
               for op in operands):
            lines.add(node.lineno)
    return sorted(lines)


def test_one_owner_of_the_domain_presets():
    sample = (
        'build = disk_mesh if preset == "disk" else ellipse_mesh\n'
        'known = spec.preset in ("disk", "ellipse")\n'
        'p.add_argument("--preset", choices=["disk", "ellipse"], default="disk")\n'
        'p.add_argument("--preset", choices=tuple(geometry.PRESETS), default="disk")\n'
        'names = {"ellipse"}\n'
        'flip = "ellipse" != preset\n'
        'label = "disk"\n'
        'kind = preset == "square"\n'
    )
    assert preset_decisions(sample) == [1, 2, 3, 5, 6]
    sites = {path.name: preset_decisions(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in sites.items() if lines and name != "geometry.py"} == {}


GAGLIARDO_RULE = {"leggauss", "DYADIC_LEVELS"}


def test_one_owner_of_the_gagliardo_rule():
    sample = (
        "_X, _W = np.polynomial.legendre.leggauss(4)\n"
        "from numpy.polynomial.legendre import leggauss\n"
        "from .fracnorm import DYADIC_LEVELS\n"
        "# leggauss in a comment\n"
        "levels = DYADIC_LEVELS\n"
    )
    assert name_sites(sample, GAGLIARDO_RULE) == [1, 2, 3, 5]
    sites = {path.name: name_sites(path.read_text(), GAGLIARDO_RULE) for path in sorted(SRC.glob("*.py"))}
    assert [name for name, lines in sites.items() if lines] == ["fracnorm.py"]


WALK_LAYOUT = {"_STAIR_ROWS"}


def walk_layout_sites(source):
    """Lines of ``source`` that name one of ``WALK_LAYOUT`` or hold a ``nonlocal`` statement."""
    nonlocals = [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Nonlocal)]
    return sorted(name_sites(source, WALK_LAYOUT) + nonlocals)


def test_one_owner_of_the_pair_walk_layout():
    sample = (
        "rows = fem._STAIR_ROWS\n"
        "def walk():\n"
        "    def visit(block, d2):\n"
        "        nonlocal table\n"
        "# nonlocal and _STAIR_ROWS in a comment\n"
        "height = min(_STAIR_ROWS, n)\n"
    )
    assert walk_layout_sites(sample) == [1, 4, 6]
    sites = {path.name: walk_layout_sites(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [name for name, lines in sites.items() if lines] == ["fem.py"]


def keyword_sites(source, names):
    """Lines of ``source`` that pass a keyword argument named in ``names``."""
    return sorted(node.value.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.keyword) and node.arg in names)


def keyword_literals(source, name):
    """The values passed as keyword ``name`` in ``source``, in walk order; None for a non-literal."""
    return [node.value.value if isinstance(node.value, ast.Constant) else None
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.keyword) and node.arg == name]


def test_one_owner_of_the_ordering():
    sample = (
        "p = fem._nested_dissection(mesh.vertices, mesh.edges)\n"
        "lu = spla.splu(a, permc_spec='NATURAL')\n"
        "# _nested_dissection in a comment, permc_spec= too\n"
        "options = dict(permc_spec='MMD_AT_PLUS_A')\n"
    )
    assert name_sites(sample, {"_nested_dissection"}) == [1]
    assert keyword_sites(sample, {"permc_spec"}) == [2, 4]
    assert keyword_literals(sample, "permc_spec") == ["NATURAL", "MMD_AT_PLUS_A"]
    assert keyword_literals("spla.splu(a, permc_spec=permc)\n", "permc_spec") == [None]
    builds = {path.name: name_sites(path.read_text(), {"_nested_dissection"}) for path in sorted(SRC.glob("*.py"))}
    orders = {path.name: keyword_sites(path.read_text(), {"permc_spec"}) for path in sorted(SRC.glob("*.py"))}
    assert [(name, len(lines)) for name, lines in builds.items() if lines] == [("fem.py", 1)]
    assert [(name, len(lines)) for name, lines in orders.items() if lines] == [("fem.py", 1)]
    (line,) = builds["fem.py"]
    first, last = _enclosing((SRC / "fem.py").read_text(), ast.FunctionDef, "ordering")
    assert first <= line <= last
    # the one factorisation: one splu call, on the line that passes NATURAL
    factorisations = {path.name: name_sites(path.read_text(), {"splu"}) for path in sorted(SRC.glob("*.py"))}
    assert [(name, lines) for name, lines in factorisations.items() if lines] == [("fem.py", orders["fem.py"])]
    assert keyword_literals((SRC / "fem.py").read_text(), "permc_spec") == ["NATURAL"]


FACTORISATION_SITES = [("fem", "block_operator"), ("kkt", "robinson_check"), ("solvers", "linearized_matrix")]


def operator_sites(source):
    """(top-level statement's name, line) of each call of ``SparseOperator`` in ``source``."""
    return [(getattr(stmt, "name", None), node.lineno) for stmt in ast.parse(source).body for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and "SparseOperator" in (getattr(node.func, "id", None),
                                                                   getattr(node.func, "attr", None))]


def test_operators_are_built_only_where_factorised():
    sample = (
        "op = fem.SparseOperator(a, p)\n"
        "def f() -> fem.SparseOperator:\n"
        "    return SparseOperator(m, p)\n"
        "class C:\n"
        "    def g(self, x: SparseOperator):\n"
        "        return fem.SparseOperator(x.matrix, p)\n"
        "# SparseOperator(m, p) in a comment\n"
    )
    assert operator_sites(sample) == [(None, 1), ("f", 3), ("C", 6)]
    sites = sorted((path.stem, name) for path in SRC.glob("*.py") for name, _ in operator_sites(path.read_text()))
    assert sites == FACTORISATION_SITES


def test_assemblies_return_canonical_csr(configs):
    # a matrix that is only multiplied or summed is plain CSR, sorted and deduplicated
    spec = configs["smooth_constrained"]
    mesh = geometry.build_mesh(spec.preset, 2)
    rec = fem.p1(mesh)
    y = fem.domain_field(mesh, np.cos(3.0 * mesh.vertices[:, 0]))
    matrices = {
        "mass": rec.mass,
        "operator": rec.operator(spec),
        "reaction": rec.reaction(np.linspace(-1.0, 1.0, mesh.n_vertices), np.linspace(0.0, 1.0, mesh.n_boundary)),
        "weighted mass": fem.assemble_weighted_mass(mesh, np.linspace(0.0, 1.0, rec.interior[1].size)),
        "second variation": solvers.second_variation_matrix(spec, y, y),
    }
    assert {name: (sp.isspmatrix_csr(m), m.has_canonical_format) for name, m in matrices.items()} == {
        name: (True, True) for name in matrices
    }


PER_CONTROL = {"L", "ell", "g1", "g2", "zeta1", "zeta2", "lambda1", "lambda2", "mu1", "mu2"}


def attribute_reads(source, names):
    """Lines of ``source`` that read an attribute named in ``names``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in names and isinstance(node.ctx, ast.Load))


def test_one_owner_of_the_per_control_fields():
    sample = (
        "dom = spec.L(x1, x2, y)\n"
        "spec.zeta1 = zeta\n"
        "w = h.data.zeta\n"
        "L = 2.0 * lambda1\n"
        "# spec.mu1 in a comment\n"
        "cost = 0.5 * spec.mu1 * v**2\n"
    )
    assert attribute_reads(sample, PER_CONTROL) == [1, 6]
    sites = {path.name: attribute_reads(path.read_text(), PER_CONTROL) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in sites.items() if lines and name != "catalog.py"} == {}
    # inside catalog: the ProblemSpec that builds the records, and the config reader and writer
    source = (SRC / "catalog.py").read_text()
    owners = [_enclosing(source, ast.ClassDef, "ProblemSpec")] + [
        _enclosing(source, ast.FunctionDef, name) for name in ("load_problem_config", "save_problem_config")
    ]
    assert sites["catalog.py"]
    assert [line for line in sites["catalog.py"] if not any(first <= line <= last for first, last in owners)] == []


def eigenvalue_sites(source):
    """Lines of ``source`` that take a square root of an expression in a11, a12 and a22."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and "sqrt" in _names(node.func)
                  and {"a11", "a12", "a22"} <= _names(node))


def test_one_ellipticity_formula():
    sample = (
        "eig = 0.5 * (a11 + a22 - np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2))\n"
        "r = sqrt((spec.a11 - spec.a22) ** 2 + 4 * spec.a12 ** 2)\n"
        "s = np.sqrt(a11 * a22)\n"
        "# np.sqrt((a11 - a22) ** 2 + 4.0 * a12**2) in a comment\n"
    )
    assert eigenvalue_sites(sample) == [1, 2]
    sites = {path.name: eigenvalue_sites(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [(name, len(lines)) for name, lines in sites.items() if lines] == [("fem.py", 1)]
    (line,) = sites["fem.py"]
    first, last = _enclosing((SRC / "fem.py").read_text(), ast.FunctionDef, "min_eigenvalue")
    assert first <= line <= last


def pair_difference_sites(source):
    """Lines of ``source`` that name ``subtract.outer``, and lines that call ``np.power``."""
    outer, power = [], []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "outer" and isinstance(node.value, ast.Attribute)
                and node.value.attr == "subtract"):
            outer.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "power"
              and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")):
            power.append(node.lineno)
    return sorted(outer), sorted(power)


def test_one_pair_difference_rule():
    # pair tables take their differences from fem.difference_factors, and their powers through
    # fem.power, whose shortcuts give np.power's bits; expressions keeps its own np.power
    sample = (
        "np.subtract.outer(v[rows], v[r0:], out=num)\n"
        "d = numpy.subtract.outer(a, b)\n"
        "np.power(weights, -0.5 * beta, out=weights)\n"
        "fem.power(weights, -0.5 * beta, out=weights)\n"
        "# np.subtract.outer and np.power( in a comment\n"
        "w = numpy.power(d, gamma)\n"
    )
    assert pair_difference_sites(sample) == ([1, 2], [3, 6])
    sites = {name: pair_difference_sites((SRC / f"{name}.py").read_text()) for name in ("fem", "fracnorm", "regularity")}
    assert [path.name for path in sorted(SRC.glob("*.py")) if pair_difference_sites(path.read_text())[0]] == []
    first, last = _enclosing((SRC / "fem.py").read_text(), ast.FunctionDef, "power")
    assert {name: [line for line in power if not first <= line <= last] for name, (_, power) in sites.items()} == {
        "fem": [], "fracnorm": [], "regularity": []
    }
    assert sites["fem"][1]
