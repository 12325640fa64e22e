"""Every name a package module imports or defines is used, and each command loads only its modules.

No package module calls np.allclose or np.isclose: their default
relative tolerance would widen any absolute bound.  No module but
subshift.py reads a private attribute of a subshift.  One function,
the fixed-point gate, constructs NotFixedPoint.

The package root imports nothing to re-export: its 54 names resolve on
first use through one table of the names each module exports, and a
name in that table counts as used by the definition check.  Each command
imports only the modules it runs: setup and `invariant` load errors,
io, subshift and invariant; `fixpoint` adds transfer (and measures for
the dual functional); `verify` and `sample` add measures, transfer and
pathspace; `ergodicity` adds measures, transfer and extremality.  No
command loads `concurrent.futures`: the sampler starts plain threads.
Nor does any load `dataclasses`: the result types are plain slotted
records, so no module generates code when it is imported.
scipy is imported only inside the two fallbacks of the chain solver:
its strong components for a closed-class search past
`invariant.SEARCH_ROUNDS` rounds, and its sparse LU when an iteration
gives up, at any size, so the commands that never meet such a chain do
not load it.  No module calls numpy's `linalg`; `scipy.sparse.linalg`
appears only in that LU fallback, and no module multiplies arrays with
BLAS: each `@` has a `Chain` on its left.  Nor do the
setup and the `invariant`, `verify`, `sample` and `ergodicity` commands
load `numpy.ma`, which costs every run the time of its import.  The
tests' exact chain oracle imports no package code.
"""

import ast
import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftpath

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shiftpath"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a.b import c, d as e\nc()\n") == [
        "os (line 1)",
        "e (line 2)",
    ]


def test_package_modules_import_nothing_unused():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def unreferenced_names(sources, exports=None):
    """Module-level functions, classes and assignments that no code names outside their definition.

    sources maps module names to source text, and exports maps module
    names to the names the package exports from them, as the package's
    export table does.  A reference is a loaded name, an attribute or a
    `from ... import` of the name, anywhere in any module except inside
    the definition itself, or the name's entry under its own module in
    exports; dunder names are exempt.
    """
    exports = exports or {}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                found = [node.id]
            elif isinstance(node, ast.Attribute):
                found = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                found = [alias.name for alias in node.names]
            else:
                continue
            for name in found:
                references.setdefault(name, []).append((module, node.lineno))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            dead.extend(
                f"{module}.{name}" for name in names
                if not (name.startswith("__") and name.endswith("__"))
                and name not in exports.get(module, ())
                and not any(m != module or line not in inside
                            for m, line in references.get(name, ()))
            )
    return dead


def test_unreferenced_names_are_found():
    sources = {
        "a": "__all__ = []\nX = 1\nY, Z = 2, 3\ndef f():\n    return f()\nclass C:\n    pass\n",
        "b": "from .a import C\nimport a\na.Y\n",
    }
    assert unreferenced_names(sources) == ["a.X", "a.Z", "a.f"]


def test_exported_names_count_as_referenced():
    """An export table entry is a reference only under the module that defines the name."""
    sources = {"a": "X = 1\nY = 2\nZ = 3\n", "b": "W = 4\n"}
    exports = {"a": ("X",), "b": ("Y",)}
    assert unreferenced_names(sources, exports) == ["a.Y", "a.Z", "b.W"]


def test_package_defines_nothing_unreferenced():
    """Every module-level name of the package is used in it, or is in the package's export table."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_names(sources, shiftpath._EXPORTS) == []


# the names that no package module and no demo uses, each exported for a reason of its own
SERVE_NO_COMMAND = [
    # the paper's measure for a normalized weight
    "invariant.markov_measure_for_weight",
    # the per-function oracle of weight_pushforward_defect, and a bench trace target
    "transfer.check_weight_pushforward",
]


def test_every_other_export_serves_a_command_or_a_demo():
    """Without the export table, the package modules and the demos leave only SERVE_NO_COMMAND unused."""
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    for path in sorted((PACKAGE.parents[1] / "demos").glob("*.py")):
        sources[f"demos.{path.stem}"] = path.read_text(encoding="utf-8")
    assert unreferenced_names(sources) == SERVE_NO_COMMAND


def trace_targets(source):
    """The (module, attribute path) pairs of the TARGETS tuple of a tracer script, by AST alone."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no TARGETS assignment")


def test_every_trace_target_resolves():
    """Each function and method the benchmark's tracer wraps is still where it looks for it.

    The tracer reads a method from its class's own `__dict__` and a
    function from its module; a renamed or moved target would go
    untraced without an error.
    """
    source = (PACKAGE.parents[1] / "bench" / "trace_child.py").read_text(encoding="utf-8")
    targets = trace_targets(source)
    assert len(targets) >= 30
    missing = []
    for module, path in targets:
        owner = importlib.import_module(f"shiftpath.{module}")
        *cls, attr = path.split(".")
        scope = vars(getattr(owner, cls[0])) if cls else vars(owner)
        if not callable(scope.get(attr)):
            missing.append(f"{module}.{path}")
    assert missing == []


def module_level_imports(source):
    """Absolute modules imported by the statements that run on import, i.e. outside any def."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_imports_skip_function_bodies():
    source = (
        "import numpy as np\nfrom .invariant import Chain\n"
        "if True:\n    from scipy import sparse\n"
        "class C:\n    import scipy.linalg\n"
        "def f():\n    from scipy.sparse import csgraph\n"
    )
    assert module_level_imports(source) == ["numpy", "scipy", "scipy.linalg"]


def test_no_package_module_imports_scipy_at_module_level():
    found = {
        path.name: [name for name in module_level_imports(path.read_text(encoding="utf-8"))
                    if name.split(".")[0] == "scipy"]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def scipy_importers(source):
    """Names of the functions whose bodies import scipy."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(name.split(".")[0] == "scipy" for name in imported_modules(node))
    }


def imported_modules(tree):
    """Absolute modules imported anywhere under an AST node."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
    return found


def test_scipy_importers_are_found():
    source = (
        "from scipy import sparse\n"
        "def f():\n    from scipy.sparse import csgraph\n"
        "def g():\n    import numpy\n"
        "def h():\n    if True:\n        import scipy.linalg\n"
    )
    assert scipy_importers(source) == {"f", "h"}


def test_only_the_two_leaf_kernels_import_scipy():
    """Only the two fallbacks import scipy.

    The closed-class search imports it past its round budget, the LU
    solve whenever an iteration gives up.
    """
    source = (PACKAGE / "invariant.py").read_text(encoding="utf-8")
    assert scipy_importers(source) == {"_components", "_lu_solve"}


def test_the_exact_chain_oracle_imports_no_package_code():
    """Not shiftpath, and not conftest, which imports it."""
    source = Path(__file__).with_name("exact_chain.py").read_text(encoding="utf-8")
    assert set(imported_modules(ast.parse(source))) <= {"fractions", "itertools", "numpy"}


def relative_closeness_calls(source):
    """Calls of `allclose` or `isclose`, whose default rtol=1e-5 hides in any bound, by line.

    Both `np.allclose(...)` and a bare `allclose(...)` imported from numpy count.
    """
    calls = [
        (node.lineno, getattr(node.func, "attr", getattr(node.func, "id", None)))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
    ]
    return [f"{name} (line {line})" for line, name in sorted(calls) if name in ("allclose", "isclose")]


def test_relative_closeness_calls_are_found():
    source = (
        "import numpy as np\nfrom numpy import allclose\n"
        "np.allclose(a, b, atol=0)\nx = numpy.isclose(a, b)\nnp.abs(a)\nallclose(a, b)\n"
    )
    assert relative_closeness_calls(source) == [
        "allclose (line 3)", "isclose (line 4)", "allclose (line 6)",
    ]


def test_package_states_its_bounds_as_absolute_ones():
    """No module compares with np.allclose or np.isclose: each bound is an absolute one."""
    found = {
        path.name: relative_closeness_calls(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: calls for name, calls in found.items() if calls} == {}


# the names that hold an `invariant.Chain` where the package multiplies with `@`
CHAIN_OPERANDS = {"chain", "op", "step"}

# numpy's products, each of which may hand its work to BLAS
BLAS_PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "multi_dot"}


def linear_algebra_uses(source):
    """Where a module reaches for BLAS or LAPACK, by function: `linalg`, numpy's products, and `@`.

    An attribute `linalg`, as in `np.linalg`, is listed as "linalg", and
    an import from a `linalg` module by that module's name.  Each `@`
    whose left operand is a name in CHAIN_OPERANDS is a `Chain` product,
    a bincount, and is not listed; any other `@` is.
    """
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and (node.attr == "linalg" or node.attr in BLAS_PRODUCTS):
            found.add((function, node.attr))
        elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "").split("."):
            found.add((function, node.module))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            left = node.left if isinstance(node, ast.BinOp) else node.target
            if not (isinstance(left, ast.Name) and left.id in CHAIN_OPERANDS):
                found.add((function, "@"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_linear_algebra_uses_are_found():
    source = (
        "import numpy as np\n"
        "def f(a, chain, x):\n    return a @ x + chain @ x\n"
        "def g(a):\n    a @= a\n    return np.linalg.solve(a, a)\n"
        "def h(a):\n    from scipy.sparse.linalg import splu\n    return np.dot(a, a)\n"
        "def k(chain, x):\n    return chain @ x\n"
    )
    assert linear_algebra_uses(source) == {
        ("f", "@"), ("g", "@"), ("g", "linalg"), ("h", "scipy.sparse.linalg"), ("h", "dot"),
    }


def test_only_the_lu_fallback_reaches_for_blas_or_lapack():
    """No module calls numpy's `linalg` or multiplies arrays with BLAS; scipy's sparse LU is the one solve.

    Every fixed vector is iterated with `Chain` products, and every sum
    is a numpy reduction in a fixed order, so the bytes a command writes
    do not depend on the BLAS thread count.  Only `invariant._lu_solve`
    imports `scipy.sparse.linalg`, whose sparse LU gives the same bits
    at any thread count too.
    """
    found = {
        path.name: linear_algebra_uses(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: uses for name, uses in found.items() if uses} == {
        "invariant.py": {("_lu_solve", "scipy.sparse.linalg")},
    }


def private_shift_reads(source):
    """Reads of a private attribute, `shift._x` or `obj.shift._x`, of a subshift, by line."""
    return [
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and "shift" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))
    ]


def test_private_shift_reads_are_found():
    source = (
        "def f(rho, shift):\n    return rho.shift._columns(3), shift._last[1]\n"
        "self._cache\nshift.__class__\nshift.words(2)\nself.shift.k\n"
    )
    assert private_shift_reads(source) == ["_columns (line 2)", "_last (line 2)"]


def test_only_subshift_reads_the_word_tables():
    """The tables' private arrays and walkers are read in subshift.py alone."""
    found = {
        path.name: private_shift_reads(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "subshift.py"
    }
    assert {name: reads for name, reads in found.items() if reads} == {}


def unraised_errors(errors_source, sources):
    """Exception classes of errors_source that no `raise` in sources names, nor a subclass of.

    sources maps module names to source text.  A class counts as raised
    when a `raise` names it, called or bare, or when it is a base,
    directly or further up, of a class that is.
    """
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    }
    live = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                live.add(getattr(exc, "attr", getattr(exc, "id", None)))
    todo = list(live)
    while todo:
        for base in bases.get(todo.pop(), ()):
            if base not in live:
                live.add(base)
                todo.append(base)
    return [name for name in bases if name not in live]


def test_unraised_errors_are_found():
    errors_source = (
        "class Base(Exception):\n    pass\n"
        "class Mid(Base):\n    pass\n"
        "class Leaf(Mid, ValueError):\n    pass\n"
        "class Named(Base):\n    pass\n"
        "class Dead(Base):\n    pass\n"
        "class AlsoDead(Exception):\n    pass\n"
    )
    sources = {
        "a": "from .errors import Leaf\ndef f():\n    raise Leaf('x') from None\n",
        "b": "from . import errors\ndef g():\n    raise errors.Named\n"
             "def h(exc):\n    Dead\n    raise\n",
    }
    assert unraised_errors(errors_source, sources) == ["Dead", "AlsoDead"]


def constructing_functions(sources, name):
    """The functions of sources that call or raise `name`, as sorted "module.qualname" strings.

    Code outside any function counts under the module's name.
    """
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            target = child.func if isinstance(child, ast.Call) else getattr(child, "exc", None)
            if getattr(target, "attr", getattr(target, "id", None)) == name:
                found.add(where)
            visit(child, where)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return sorted(found)


def test_constructing_functions_are_found():
    sources = {
        "a": "from .errors import E\ndef f():\n    def g():\n        raise E(1)\n    return g\n",
        "b": "from . import errors\nclass C:\n    def m(self):\n        return errors.E(2)\n"
             "def h():\n    raise E\ndef unrelated():\n    E\n    F(E)\n",
    }
    assert constructing_functions(sources, "E") == ["a.f.g", "b.C.m", "b.h"]


def test_not_fixed_point_is_raised_by_one_gate():
    """The fixed-point pre-check of every object built on a base lives in one function."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert constructing_functions(sources, "NotFixedPoint") == ["measures.require_fixed_point"]


def test_every_error_type_is_raised():
    """Each exception class in errors.py is raised somewhere in the package, or is a base of one that is."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unraised_errors(sources["errors"], sources) == []


SMALL = {
    "k": 2,
    "matrix": [[1, 1], [1, 1]],
    "V": {"depth": 1, "values": {"1": 1.5, "2": 0.5}},
    "mu0": "auto",
    "filter": {"depth": 1, "values": {"1": [1.1180339887498949, 0.5], "2": 0.7071067811865476}},
}

# the constant weight of depth 3, so that `ergodicity --depth 1` conditions at depth 2
BLOCK = {
    "k": 4,
    "matrix": [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
    "V": {"depth": 3, "values": {
        "".join(word): 1.0 for block in ("12", "34") for word in itertools.product(block, repeat=3)
    }},
    "mu0": "auto",
}


def run_probe(probe, *args):
    """Run a probe script in a fresh interpreter that imports this package; its printed JSON."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    return json.loads(result.stdout)


# prints [exit code, scipy modules loaded] after each step
SCIPY_PROBE = """
import json, sys
import shiftpath.cli
steps = json.loads(sys.argv[1])
seen = [[None, [m for m in sys.modules if m.split(".")[0] == "scipy"]]]
for argv in steps:
    code = shiftpath.cli.main(argv)
    seen.append([code, [m for m in sys.modules if m.split(".")[0] == "scipy"]])
print(json.dumps(seen))
"""


# solves five chains and prints each result and the scipy modules then loaded: the closed
# classes of a star, whose 2048 outer states each step half to themselves and half to state
# 0, which steps to itself alone; the star's absorption into state 0, iterated on 2048 live
# transient states; the absorption of a star of 3 outer states when each keeps 1 - 2**-20 of
# its mass, whose bounds close too slowly, so one LU solves it; the same on the 2048-state
# star; and the closed classes of a 100-state path, whose colour search needs 101 rounds
CHAIN_PROBE = """
import json, sys
import numpy as np
from shiftpath.invariant import Chain, absorption, closed_classes

def scipy_loaded():
    return [m for m in ("scipy.sparse.csgraph", "scipy.sparse.linalg") if m in sys.modules]

def star(n, stay):
    others = np.arange(1, n)
    return Chain(np.r_[0, np.arange(1, 2 * n, 2)], np.r_[0, np.column_stack([others, 0 * others]).ravel()],
                 np.r_[1.0, np.tile([stay, 1.0 - stay], n - 1)])

classes = closed_classes(star(2049, 0.5))
seen = [[c.tolist() for c in classes], scipy_loaded()]
held = absorption(star(2049, 0.5), classes, np.ones((1, 1)))[:, 0]
seen += [sorted(set(held.tolist())), scipy_loaded()]
for n in (4, 2049):
    held = absorption(star(n, 1.0 - 2.0**-20), classes, np.ones((1, 1)))[:, 0]
    seen += [sorted(set(held.tolist())), scipy_loaded()]
path = Chain(np.minimum(np.arange(101), 99), np.arange(1, 100), np.ones(99))
seen += [[c.tolist() for c in closed_classes(path)], scipy_loaded()]
print(json.dumps(seen))
"""


def test_a_fallback_loads_scipy_sparse_linalg_and_no_command_here_loads_scipy(tmp_path):
    """No command here loads scipy; a fallback LU loads scipy.sparse.linalg, even on 3 states.

    BLOCK4's walks on 256, 1024 and 2048 words settle inside the colour
    search's budget and have no transient word, so even `ergodicity
    --depth 10` loads no scipy.  An absorption on 2048 live states is
    iterated and loads none either; `scipy.sparse.linalg` loads when the
    iteration gives up and one LU runs, already on 3 live states, and
    `scipy.sparse.csgraph` only for a closed-class search past
    SEARCH_ROUNDS rounds.
    """
    small, block = tmp_path / "small.json", tmp_path / "block.json"
    small.write_text(json.dumps(SMALL))
    block.write_text(json.dumps(BLOCK))
    out = str(tmp_path)
    ergodicity = ["ergodicity", "--config", str(block), "--out", out, "--depth"]
    steps = [
        ["invariant", "--config", str(small), "--depth", "3", "--out", out],
        ["verify", "--config", str(small), "--depth", "3", "--steps", "2", "--out", out],
        ["sample", "--config", str(small), "--depth", "2", "--steps", "3", "--samples", "200",
         "--seed", "5", "--out", out],
        # below the conditioning depth: the null space of the fibre differences
        ergodicity + ["1"],
        # walks on the 256, 1024 and 2048 words of lengths 7, 9 and 10
        ergodicity + ["7"],
        ergodicity + ["9"],
        ergodicity + ["10"],
    ]
    seen = run_probe(SCIPY_PROBE, json.dumps(steps))
    assert [code for code, _ in seen] == [None, 0, 0, 0, 6, 6, 6, 6]
    assert [loaded for _, loaded in seen] == [[]] * 8

    assert run_probe(CHAIN_PROBE) == [
        [[0]], [], [1.0], [], [1.0], ["scipy.sparse.linalg"], [1.0], ["scipy.sparse.linalg"],
        [[99]], ["scipy.sparse.csgraph", "scipy.sparse.linalg"],
    ]


# the closed classes of the prepend walk on the 177147 words of length 11 of the full
# 3-shift, with positive masses and with a tenth of them zero; prints [state count, class
# counts, scipy modules loaded, whether scipy's strong components give the same classes,
# whether they loaded]
FULL3_WALK_PROBE = """
import json, sys
import numpy as np
from shiftpath import build_subshift, invariant
from shiftpath.invariant import closed_classes
from shiftpath.subshift import prepend_walk
shift = build_subshift([[1, 1, 1]] * 3)
rng = np.random.default_rng(0)
masses = rng.random(shift.word_count(12))
walks = [prepend_walk(shift, 11, masses), prepend_walk(shift, 11, masses * (rng.random(len(masses)) >= 0.1))]
searched = [[c.tolist() for c in closed_classes(walk)] for walk in walks]
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
invariant.SEARCH_ROUNDS = -1
same = searched == [[c.tolist() for c in closed_classes(walk)] for walk in walks]
print(json.dumps([walks[0].shape[0], [len(c) for c in searched], loaded, same,
                  "scipy.sparse.csgraph" in sys.modules]))
"""


def test_the_full_3_shift_walk_at_depth_11_settles_inside_the_round_budget():
    """The colour search alone finds the classes of 177147 words, the same as csgraph's; no scipy loads."""
    assert run_probe(FULL3_WALK_PROBE) == [177147, [1, 163], [], True, True]


# searches back along a 2048-state path from its last state; prints [states reached,
# scipy modules and numpy.ma loaded]
REACHING_PROBE = """
import json, sys
import numpy as np
from shiftpath.invariant import Chain, _reaching
n = 2048
chain = Chain(np.minimum(np.arange(n + 1), n - 1), np.arange(1, n), np.ones(n - 1))
reached = _reaching(chain, np.arange(n) == n - 1)
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.ma"]
print(json.dumps([int(reached.sum()), loaded]))
"""


def test_reachability_above_the_dense_cut_loads_no_scipy():
    """`_reaching` is one numpy search at every size; neither scipy nor numpy.ma loads for it."""
    assert run_probe(REACHING_PROBE) == [2048, []]


# does the set-up of every command (import the CLI, build the subshift and the weight of
# the config), runs the commands, and prints [exit code, watched modules loaded] after each
LOADED_PROBE = """
import json, sys
import shiftpath.cli
from shiftpath.io import build_subshift_from_config, build_weight_from_config, load_config
cfg = load_config(sys.argv[1])
build_weight_from_config(build_subshift_from_config(cfg), cfg)
watched = json.loads(sys.argv[3])
seen = [[None, [m for m in watched if m in sys.modules]]]
for argv in json.loads(sys.argv[2]):
    code = shiftpath.cli.main(argv)
    seen.append([code, [m for m in watched if m in sys.modules]])
print(json.dumps(seen))
"""


def test_setup_and_small_commands_do_not_load_numpy_ma(tmp_path):
    small, block = tmp_path / "small.json", tmp_path / "block.json"
    small.write_text(json.dumps(SMALL))
    block.write_text(json.dumps(BLOCK))
    out = str(tmp_path)
    ergodicity = ["ergodicity", "--config", str(block), "--out", out, "--depth"]
    steps = [
        ["invariant", "--config", str(small), "--depth", "3", "--out", out],
        ["verify", "--config", str(small), "--depth", "3", "--steps", "2", "--out", out],
        ["sample", "--config", str(small), "--depth", "2", "--steps", "3", "--samples", "200",
         "--seed", "5", "--out", out],
        # below the conditioning depth, through the fibres, and at depth 9, without them
        ergodicity + ["1"],
        ergodicity + ["9"],
    ]
    seen = run_probe(LOADED_PROBE, str(small), json.dumps(steps), json.dumps(["numpy.ma"]))
    assert seen == [[None, []], [0, []], [0, []], [0, []], [6, []], [6, []]]


COMMAND_MODULES = [
    "shiftpath.measures", "shiftpath.transfer", "shiftpath.pathspace", "shiftpath.extremality",
    "concurrent.futures", "_hashlib", "dataclasses",
]


def test_each_command_loads_only_its_modules(tmp_path):
    """Set-up and `invariant` load none of the command modules, and each later command adds its own.

    `fixpoint` loads measures for the dual functional's RawMeasure, and
    no command loads `concurrent.futures` or `dataclasses`.  `ergodicity` runs in
    a second interpreter, since the first has loaded pathspace by then.
    The config hash uses the interpreter's own SHA-256, so no command but
    `sample` maps OpenSSL (`_hashlib`): numpy.random imports `secrets`,
    which imports hashlib.
    """
    small = tmp_path / "small.json"
    small.write_text(json.dumps(SMALL))
    out = str(tmp_path)
    config = ["--config", str(small), "--out", out]
    steps = [
        ["invariant", *config, "--depth", "3"],
        ["fixpoint", *config],
        ["verify", *config, "--depth", "3", "--steps", "2"],
        ["sample", *config, "--depth", "2", "--steps", "3", "--samples", "200", "--seed", "5"],
    ]
    watched = json.dumps(COMMAND_MODULES)
    measures, transfer, pathspace, extremality, _, openssl, _ = COMMAND_MODULES
    assert run_probe(LOADED_PROBE, str(small), json.dumps(steps), watched) == [
        [None, []],
        [0, []],
        [0, [measures, transfer]],
        [0, [measures, transfer, pathspace]],
        # numpy.random -> secrets -> hashlib loads OpenSSL
        [0, [measures, transfer, pathspace, openssl]],
    ]
    steps = [["ergodicity", *config, "--depth", "2"]]
    assert run_probe(LOADED_PROBE, str(small), json.dumps(steps), watched) == [
        [None, []],
        [0, [measures, transfer, extremality]],
    ]


# the names the package exports
EXPORTED = [
    "ConfigError", "CylinderFunction", "Decomposition", "DegenerateH", "DensityMeasure",
    "DepthDowngrade", "DepthTooShallow", "EmpiricalReport", "ErgodicityReport", "FilterMismatch",
    "FixedFunctionResult", "InadmissibleWord", "MarkovMeasure", "MartingaleCoordinates",
    "NegativeWeight", "NonBinaryEntry", "NotFixedPoint",
    "NotSubNormalized", "PathMeasure", "RawMeasure", "SampleBatch",
    "ShiftPathError", "Subshift", "TableTooLarge", "TooFewSamples",
    "ZeroColumn", "ZeroMassConditioning", "apply_transfer", "build_path_measure",
    "build_subshift", "check_consistency", "check_fixed_point", "check_isometry",
    "check_quasi_invariance", "check_weight_pushforward",
    "decompose", "decompose_report", "empirical_check",
    "fixed_density_measure", "iterate_fixed_function", "left_fixed_functional",
    "markov_measure_for_weight", "martingale_coordinates", "masses_along_orbit",
    "project_once", "relative_ergodicity_dimension",
    "sample_paths", "strongly_invariant_measure", "transfer_matrix", "transform_measure",
    "verify_strong_invariance", "weight_product", "weight_pushforward_defect", "word_string",
]


def test_package_exports_are_the_objects_their_modules_define():
    assert shiftpath.__all__ == EXPORTED and len(EXPORTED) == 54
    for name in EXPORTED:
        value = getattr(shiftpath, name)
        assert value.__module__.startswith("shiftpath.") and value.__name__ == name
        assert value is getattr(importlib.import_module(value.__module__), name)
    assert set(EXPORTED) <= set(dir(shiftpath))
    namespace = {}
    exec("from shiftpath import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(shiftpath, name) for name in EXPORTED}
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        shiftpath.no_such_name  # noqa: B018


# prints the package's submodules loaded after `import shiftpath`, then after reading one export
PACKAGE_PROBE = """
import json, sys
import shiftpath
loaded = lambda: sorted(m for m in sys.modules if m.startswith("shiftpath."))
seen = [loaded()]
shiftpath.Subshift
seen.append(loaded())
print(json.dumps(seen))
"""


def test_package_import_loads_no_submodule():
    assert run_probe(PACKAGE_PROBE) == [
        [], ["shiftpath.errors", "shiftpath.invariant", "shiftpath.subshift"]
    ]
