"""Source layout checks: every import of the package sits at module level,
every module-level name is read somewhere in the package (a public one
may instead be exported by the package's __init__ or named by the benchmark),
every public module-level function has a caller in the package, the
acceptance suite or the benchmark, or a listed reason to exist,
every public method or property of a package class is read as an attribute
somewhere in the package, its tests or the benchmark (and is listed when an
ndarray, a numpy Generator or a str has an attribute of its name),
no module imports another module's private name unless a list gives it a
reason, every function cache has a fixed size, no call of np.unique loads numpy.ma,
per-cube power averages and minima are read in one function, only the
lattice module converts between coordinates and cells, only the families
module builds the engine's box sets, the harness compares no verify tag and
the CLI compares with "structural" once, and every
`module.name`, `Class.attr` and bare `name` that README.md quotes exists."""

import ast
import importlib
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bifrac.harness import TAGS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bifrac"


def _imports_in_functions(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield fn.name, node.lineno


def test_no_import_inside_a_function():
    found = [
        f"{path.name}:{line} in {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _imports_in_functions(path)
    ]
    assert found == []


def _definitions(tree: ast.Module):
    """Module-level functions, classes and constants but dunders, with their nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node


def _reads(node: ast.AST) -> set[str]:
    """Names loaded, and attributes read, anywhere under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _kept_public_names(init: ast.Module) -> set[str]:
    """Names the package's __init__ imports from its modules, and every word
    of the benchmark's sources (perfbench reads and hooks package names)."""
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = "\n".join(path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py")))
    return exported | set(re.findall(r"\w+", bench))


def test_every_private_module_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    kept = _kept_public_names(trees["__init__.py"])
    nodes = [(node, _reads(node)) for tree in trees.values() for node in tree.body]
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, definition in _definitions(tree)
        if name.startswith("_") or name not in kept
        # reads inside the name's own definition (a recursive call) do not count
        if not any(name in reads for node, reads in nodes if node is not definition)
    ]
    assert unread == []


def _sources(root: Path = ROOT) -> tuple[dict[str, str], str, list[str]]:
    """The readers that the caller, method and parameter checks count, under
    root: the package's modules by name, the acceptance suite, and the
    benchmark's .py sources.  The other tests do not count: a member that
    only they read is not kept for them."""
    package = {path.stem: path.read_text(encoding="utf-8") for path in sorted((root / "src" / "bifrac").glob("*.py"))}
    acceptance = (root / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    bench = [path.read_text(encoding="utf-8") for path in sorted((root / "perfbench").glob("*.py"))]
    return package, acceptance, bench


# Public module-level functions that nothing in the package, the acceptance
# suite or the benchmark calls, each with the reason it stays.
_UNCALLED_KEPT = {
    "sparse_bound": "the one-pair public form of the paper's sparse operator, "
    "and the reference the local-part tests compare against",
    "multi_frac_int_at": "the point oracle of multi_frac_int",
}


def _uncalled_functions(package: dict[str, str], acceptance: str, bench: list[str], kept=_UNCALLED_KEPT) -> list[str]:
    """`module: name` of each public module-level function of the package
    that no module but __init__ reads outside the function's own definition,
    that the acceptance suite does not read, that no benchmark source reads
    as an attribute (a name in a string does not count), and that `kept`
    does not list.  `package` maps module names to their source."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    nodes = [(node, _reads(node)) for module, tree in trees.items() if module != "__init__" for node in tree.body]
    bench_reads = {n.attr for source in bench for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)}
    called = _reads(ast.parse(acceptance)) | bench_reads | set(kept)
    return [
        f"{module}: {fn.name}"
        for module, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_")
        if fn.name not in called
        # reads inside the function's own definition (a recursive call) do not count
        if not any(fn.name in reads for node, reads in nodes if node is not fn)
    ]


def test_every_public_function_has_a_caller():
    package, acceptance, bench = _sources()
    assert _uncalled_functions(package, acceptance, bench) == []
    # and every listed name is a function that would fail without its entry
    unlisted = _uncalled_functions(package, acceptance, bench, kept={})
    assert sorted(entry.split(": ")[1] for entry in unlisted) == sorted(_UNCALLED_KEPT)


_FN = "def f():\n    return 1\n"


@pytest.mark.parametrize(
    "package, acceptance, bench, uncalled",
    [
        ({"m": _FN}, "", [], ["m: f"]),
        ({"m": "def f():\n    return f()\n"}, "", [], ["m: f"]),  # reads only itself
        ({"m": _FN, "n": "from m import f\nx = f()\n"}, "", [], []),
        ({"m": _FN, "__init__": "from .m import f\n__all__ = [f]\n"}, "", [], ["m: f"]),
        ({"m": _FN}, "from bifrac import f\n\ndef test_c():\n    assert f() == 1\n", [], []),
        ({"m": _FN}, "", ["x = B.f()\n"], []),
        # a span name in a string, or a bare name, in the benchmark does not count
        ({"m": _FN}, "", ['f = 1\nspan("m.f")\n'], ["m: f"]),
        ({"m": "def sparse_bound():\n    pass\n"}, "", [], []),
        ({"m": "def _f():\n    pass\n\nclass F:\n    pass\n"}, "", [], []),
    ],
    ids=["uncalled", "recursive", "package", "init-only", "acceptance", "bench", "bench-string", "listed", "private-or-class"],
)
def test_the_caller_check_flags_uncalled_functions(package, acceptance, bench, uncalled):
    assert _uncalled_functions(package, acceptance, bench) == uncalled


# Public methods and properties whose names np.ndarray, np.random.Generator or
# str have too: a read such as `arr.size` or `rng.uniform` may be either, so
# the read count cannot show that the package's one is read.  Each is listed
# here, so that a new one fails the check until a reviewer has seen it.
_SHARED_METHOD_NAMES = {"CubeFamily.size", "SplitMix64.uniform", "GridSpec.shape"}
_FOREIGN_ATTRIBUTES = set(dir(np.ndarray)) | set(dir(np.random.Generator)) | set(dir(str))

# Public methods and properties that nothing in the package, the acceptance
# suite or the benchmark reads, each with the reason it stays.
_UNREAD_KEPT: dict[str, str] = {}


def _unread_methods(package: dict[str, str], acceptance: str, bench: list[str], kept=_UNREAD_KEPT) -> list[str]:
    """`module: Class.name` of each public method or property (a def in a
    class body) of the package's classes that `kept` does not list and that
    neither the package outside the def itself, nor the acceptance suite, nor
    a benchmark source reads as an attribute; or whose name an attribute of
    _FOREIGN_ATTRIBUTES shares and _SHARED_METHOD_NAMES does not list.

    The check matches by name, not by the type that the reader holds: a
    read of another object's attribute of the same name (`args.weight` for a
    `KernelTable.weight`) keeps a method, so a deletion still needs a reader
    who follows the types."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    every = list(trees.values()) + [ast.parse(source) for source in [acceptance, *bench]]
    reads = Counter(node.attr for tree in every for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return [
        f"{module}: {cls.name}.{fn.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_")
        if f"{cls.name}.{fn.name}" not in kept
        # reads inside the def itself (a recursive call) do not count
        if reads[fn.name] == sum(isinstance(n, ast.Attribute) and n.attr == fn.name for n in ast.walk(fn))
        or fn.name in _FOREIGN_ATTRIBUTES and f"{cls.name}.{fn.name}" not in _SHARED_METHOD_NAMES
    ]


def test_every_public_method_is_read():
    package, acceptance, bench = _sources()
    assert _unread_methods(package, acceptance, bench) == []
    # and every listed method would fail without its entry
    unlisted = _unread_methods(package, acceptance, bench, kept={})
    assert sorted(entry.split(": ")[1] for entry in unlisted) == sorted(_UNREAD_KEPT)


_CLASS = "class A:\n    def h(self):\n        return 1\n\n    @property\n    def g(self):\n        return self.g\n"


@pytest.mark.parametrize(
    "package, acceptance, bench, unread",
    [
        ({"m": _CLASS + "x = A().h() + A().g\n"}, "", [], []),
        ({"m": _CLASS}, "from m import A\nA().h()\nA().g\n", [], []),
        ({"m": _CLASS}, "", ["from m import A\nA().h()\nA().g\n"], []),
        # g reads only itself; h is read only as a bare name
        ({"m": _CLASS + "h = 1\n"}, "", [], ["m: A.h", "m: A.g"]),
        ({"m": _CLASS + "x = A().h()\n"}, "", [], ["m: A.g"]),
        ({"m": "class B:\n    def _h(self):\n        pass\n\n    def __len__(self):\n        return 0\n"}, "", [], []),
        ({"m": _CLASS + "x = A().h()\n", "n": "def g():\n    return 2\n"}, "", [], ["m: A.g"]),
        # a name numpy's Generator shares: read only as rng.choice, or listed
        ({"m": "class SplitMix64:\n    def choice(self):\n        pass\n"}, "", ["rng.choice(3)\n"], ["m: SplitMix64.choice"]),
        ({"m": "class SplitMix64:\n    def uniform(self):\n        pass\n"}, "", ["rng.uniform()\n"], []),
    ],
    ids=[
        "package", "acceptance", "bench", "unread", "self-read", "private-or-dunder", "function-name", "shared",
        "shared-listed",
    ],
)
def test_the_method_check_flags_unread_methods(package, acceptance, bench, unread):
    assert _unread_methods(package, acceptance, bench) == unread


def _tree(root: Path, files: dict[str, str]) -> Path:
    """A repository layout under root holding files (relative path -> source), empty readers besides."""
    for name, source in {"tests/test_acceptance.py": "", "perfbench/run.py": "", **files}.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(source, encoding="utf-8")
    return root


@pytest.mark.parametrize(
    "reader, unread",
    [("tests/test_m.py", ["m: A.h", "m: A.g"]), ("tests/test_acceptance.py", []), ("perfbench/workloads.py", [])],
    ids=["a-test", "acceptance", "bench"],
)
def test_a_method_that_only_a_test_reads_is_flagged(tmp_path, reader, unread):
    root = _tree(tmp_path, {"src/bifrac/m.py": _CLASS, reader: "from bifrac.m import A\nA().h()\nA().g\n"})
    assert _unread_methods(*_sources(root)) == unread


# The private names that a package module imports from another, per
# (importer, source), with the reason each is shared below the public API.
_PRIVATE_IMPORTS_KEPT = {
    ("cli", "harness"): (("_grid_fn",), "sweep builds its beta power weights with the corpus weight builder"),
    ("harness", "lattice"): (("_cell_slices",), "the local-domination check reads the cells of the root cube"),
    ("families", "lattice"): (
        ("_cell_slices", "_read_only", "_scalar_pow"),
        "the root block takes the one-cube alignment check; a family's arrays are read-only as the engine's "
        "are; side powers equal scalar `**` bit for bit",
    ),
    ("harness", "operators"): (
        ("_check_same_spec", "_finite", "_local_weights", "_offset_sum"),
        "the structural checks sum the local part of the kernel split on stacks of items",
    ),
    ("harness", "sparse"): (
        ("_root_m3q", "_sparse_sums"),
        "the concentration guard reads m_3Q over a root's dyadic tree, and the structural checks "
        "sum the sparse bound on stacks of items",
    ),
    ("morrey", "weights"): (("_cube_values", "_top"), "every Morrey norm is the max of one per-cube value"),
    ("operators", "lattice"): (("_scalar_pow",), "roots and side powers equal scalar `**` bit for bit"),
    ("sparse", "operators"): (
        ("_check_same_spec", "_finite", "_m3q"),
        "the dyadic tree reads m_3Q as the weighted bilinear maximal operator does, with its spec and "
        "float-range checks",
    ),
}


def _unlisted_private_imports(package: dict[str, str], kept=_PRIVATE_IMPORTS_KEPT) -> list[str]:
    """`importer: source._name` of each private name that a package module
    imports from another module of the package and `kept` does not list."""
    listed = {(importer, source, name) for (importer, source), (names, _) in kept.items() for name in names}
    found = []
    for importer, text in package.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("bifrac.")):
                source = (node.module or "").rsplit(".", 1)[-1]
                found += [
                    f"{importer}: {source}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                    if (importer, source, alias.name) not in listed
                ]
    return found


def test_no_module_imports_a_private_name_of_another_unlisted():
    package, _, _ = _sources()
    assert _unlisted_private_imports(package) == []
    # and every listed name would fail without its entry
    listed = sorted(f"{i}: {s}.{n}" for (i, s), (names, _) in _PRIVATE_IMPORTS_KEPT.items() for n in names)
    assert sorted(_unlisted_private_imports(package, kept={})) == listed


@pytest.mark.parametrize(
    "package, unlisted",
    [
        ({"a": "def _f():\n    pass\n", "b": "from .a import _f\n"}, ["b: a._f"]),
        ({"a": "def _f():\n    pass\n", "b": "from bifrac.a import _f, g\n"}, ["b: a._f"]),
        ({"a": "def f():\n    pass\n", "b": "from .a import f\nfrom __future__ import annotations\n"}, []),
        ({"lattice": "def _scalar_pow():\n    pass\n", "operators": "from .lattice import _scalar_pow\n"}, []),
        ({"lattice": "", "operators": "from .lattice import _scalar_pow, _nearest\n"}, ["operators: lattice._nearest"]),
    ],
    ids=["relative", "absolute", "public", "listed", "listed-and-not"],
)
def test_the_private_import_check_flags_unlisted_imports(package, unlisted):
    assert _unlisted_private_imports(package) == unlisted


# Optional parameters of public functions and methods that no call in the
# package, the acceptance suite or the benchmark passes, each with the reason
# it stays.
_UNPASSED_KEPT = {
    "cube_location_worst_ratio(dim)": "the 2D one-third-trick rows of ROADMAP item 10: "
    "verify_structural runs the 1D check, and the 2D one awaits its report row",
}


def _unpassed_parameters(package: dict[str, str], acceptance: str, bench: list[str], kept=_UNPASSED_KEPT) -> list[str]:
    """`module: name(param)` (`module: Class.name(param)` for a method) of each
    optional parameter (one with a default) of a public module-level
    function or a public method of the package that `kept` does not list and
    that no call passes: no call of a function or attribute of that name in
    the package outside the def itself, in the acceptance suite or in a
    benchmark source passes it by keyword or by position.  A method's first
    parameter (self, cls) is not counted for its position, unless it is a
    staticmethod; a call with a `*` argument passes every positional
    parameter, and one with a `**` argument every parameter.  Like the
    method check, this one matches by name, not by type."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    readers = [ast.parse(source) for source in [acceptance, *bench]]

    def calls(tree):
        return [n for n in ast.walk(tree) if isinstance(n, ast.Call)]

    def callee(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None

    defs = [(module, None, fn) for module, tree in trees.items() for fn in tree.body]
    classes = [(module, cls) for module, tree in trees.items() for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    defs += [(module, cls.name, fn) for module, cls in classes for fn in cls.body]
    package_calls = [c for tree in trees.values() for c in calls(tree)]
    reader_calls = [c for tree in readers for c in calls(tree)]
    found = []
    for module, owner, fn in defs:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        positional = fn.args.posonlyargs + fn.args.args
        skip = 1 if owner is not None and not static else 0
        optional = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= len(positional) - len(fn.args.defaults)]
        optional += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        inside = {id(c) for c in calls(fn)}
        sites = [c for c in package_calls if id(c) not in inside] + reader_calls
        sites = [c for c in sites if callee(c) == fn.name]
        qual = fn.name if owner is None else f"{owner}.{fn.name}"
        for index, name in optional:
            passed = any(
                any(k.arg in (name, None) for k in c.keywords)
                or index is not None
                and (index < len(c.args) or any(isinstance(a, ast.Starred) for a in c.args))
                for c in sites
            )
            if not passed and f"{qual}({name})" not in kept:
                found.append(f"{module}: {qual}({name})")
    return found


def test_every_optional_parameter_is_passed():
    package, acceptance, bench = _sources()
    assert _unpassed_parameters(package, acceptance, bench) == []
    # and every listed parameter would fail without its entry
    unlisted = _unpassed_parameters(package, acceptance, bench, kept={})
    assert sorted(entry.split(": ")[1] for entry in unlisted) == sorted(_UNPASSED_KEPT)


_OPT = "def f(a, b=1, *, c=2):\n    return a + b + c\n"
_METHOD = "class A:\n    def h(self, a, b=1):\n        return self.h(a, b=b)\n"


@pytest.mark.parametrize(
    "package, acceptance, bench, unpassed",
    [
        ({"m": _OPT}, "", [], ["m: f(b)", "m: f(c)"]),
        ({"m": _OPT + "x = f(1)\n"}, "", [], ["m: f(b)", "m: f(c)"]),
        ({"m": _OPT + "x = f(1, 2)\n"}, "", [], ["m: f(c)"]),
        ({"m": _OPT + "x = f(1, c=3)\n"}, "", [], ["m: f(b)"]),
        ({"m": _OPT}, "from bifrac import f\nf(1, b=2, c=3)\n", [], []),
        ({"m": _OPT}, "", ["x = B.f(1, 2, c=3)\n"], []),
        ({"m": _OPT + "x = f(*args)\ny = f(1, **kw)\n"}, "", [], []),
        # a method: self is not a position, and a call inside its own def does not count
        ({"m": _METHOD + "x = A().h(1)\n"}, "", [], ["m: A.h(b)"]),
        ({"m": _METHOD + "x = A().h(1, 2)\n"}, "", [], []),
        ({"m": "def cube_location_worst_ratio(seed, samples, dim=1):\n    pass\n"}, "", [], []),
        ({"m": "def _f(a=1):\n    pass\n\nclass B:\n    def __init__(self, a=1):\n        pass\n"}, "", [], []),
    ],
    ids=[
        "unpassed", "default-only", "positional", "keyword", "acceptance", "bench", "star", "method",
        "method-positional", "listed", "private-or-dunder",
    ],
)
def test_the_parameter_check_flags_unpassed_parameters(package, acceptance, bench, unpassed):
    assert _unpassed_parameters(package, acceptance, bench) == unpassed


def _unbounded_caches(source: str) -> list[int]:
    """Lines of functools.cache or lru_cache uses without an integer maxsize:
    `cache`, a bare `lru_cache`, or a call whose maxsize is missing or not an
    int (None grows without bound).  Both functools.X and imported names count."""
    tree = ast.parse(source)
    # the local names of functools.cache and functools.lru_cache
    local = {
        alias.asname or alias.name: f"functools.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }

    def which(node) -> str | None:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            return f"functools.{node.attr}"
        return local.get(node.id) if isinstance(node, ast.Name) else None

    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and which(node.func) == "functools.lru_cache":
            size = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and type(size.value) is int:
                bounded.add(id(node.func))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and which(node) in ("functools.cache", "functools.lru_cache")
        if id(node) not in bounded
    )


def test_every_cache_is_bounded():
    # a cache that grows with distinct inputs grows a long run's memory
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _unbounded_caches(path.read_text(encoding="utf-8"))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(x): pass\n", []),
        ("import functools\n@functools.lru_cache(8)\ndef f(x): pass\n", []),
        ("from functools import cached_property\nclass A:\n    @cached_property\n    def f(self): pass\n", []),
        ("from functools import lru_cache\n@lru_cache\ndef f(x): pass\n", [2]),
        ("from functools import lru_cache\n@lru_cache()\ndef f(x): pass\n", [2]),
        ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass\n", [2]),
        ("from functools import lru_cache as memo\n\ndef f(x): pass\n\ng = memo(None)(f)\n", [5]),
        ("import functools\n@functools.cache\ndef f(x): pass\n", [2]),
        ("from functools import cache\n@cache\ndef f(x): pass\n", [2]),
    ],
)
def test_the_cache_check_flags_unbounded_caches(source, lines):
    assert _unbounded_caches(source) == lines


def _cube_reads_outside(source: str, reader: str = "_cube_values") -> list[str]:
    """`function:line` of each call of _family_power_averages, or of a
    `.touch.minima`, made outside the function named reader (`<module>` for a
    call at module level): every weight constant and Morrey norm takes its
    per-cube values from that one function."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                touch = name == "minima" and isinstance(f.value, ast.Attribute) and f.value.attr == "touch"
                if (name == "_family_power_averages" or touch) and fn != reader:
                    found.append(f"{fn}:{child.lineno}")
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_per_cube_averages_and_minima_are_read_in_one_function():
    found = [
        f"{path.name}:{site}"
        for path in sorted(SRC.glob("*.py"))
        for site in _cube_reads_outside(path.read_text(encoding="utf-8"))
    ]
    assert found == []


_READER = "def _cube_values(family, factors):\n    a = _family_power_averages(w, 2.0, family)\n    m = family.touch.minima(w)\n"


@pytest.mark.parametrize(
    "source, sites",
    [
        (_READER, []),
        (_READER + "def ap_constant(w, family):\n    return _family_power_averages(w, 1.0, family)\n", ["ap_constant:5"]),
        (_READER + "def f(fam):\n    return fam.touch.minima(w.samples)\n", ["f:5"]),
        (_READER + "def f(fam):\n    return weights._family_power_averages(w, 1.0, fam)\n", ["f:5"]),
        (_READER + "def f(fam):\n    def g():\n        return fam.touch.minima(w)\n    return g\n", ["g:6"]),
        (_READER + "vals = _family_power_averages(w, 1.0, fam)\n", ["<module>:4"]),
        (_READER + "def f(fam):\n    return fam.boxes.minima(w), fam.touch.maxima(w)\n", []),
    ],
)
def test_the_cube_read_check_flags_a_second_call_site(source, sites):
    assert _cube_reads_outside(source) == sites


def _coordinate_maps(source: str) -> list[int]:
    """Lines of a sum or difference with a `.half_width`: the lattice map
    x -> (x + L) / h or i -> -L + i h spelled out, which GridSpec keeps."""

    def is_half_width(node) -> bool:
        node = node.operand if isinstance(node, ast.UnaryOp) else node
        return isinstance(node, ast.Attribute) and node.attr == "half_width"

    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
        if is_half_width(node.left) or is_half_width(node.right)
    )


def test_only_the_lattice_converts_between_coordinates_and_cells():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "lattice.py"
        for line in _coordinate_maps(path.read_text(encoding="utf-8"))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("t = (x + spec.half_width) / spec.h\n", [1]),
        ("x = -spec.half_width + i * spec.h\n", [1]),
        ("i = round((x + self.spec.half_width) / h)\nx = i * h - spec.half_width\n", [1, 2]),
        ("x = spec.edge(i)\nt = spec.to_cells(x)\ni = spec.edge_index(x)\n", []),
        ("q = Cube((0.0,), spec.half_width)\nhi = 0.5 * spec.half_width * 2.0 - 0.5\n", []),
    ],
)
def test_the_coordinate_map_check_flags_a_spelled_out_map(source, lines):
    assert _coordinate_maps(source) == lines


def _cell_box_builds(module: str, source: str) -> list[str]:
    """`module:function:line` of each call of CellBoxes(...) or
    CellBoxes.tripled(...) (`lattice.CellBoxes` too) outside the families
    module, but for the engine's own containment plan, CellBoxes._sides: a
    set of cubes that the engine reads is a CubeFamily, so one builder, with
    its caches, holds every cube set's boxes."""
    found = []

    def is_cell_boxes(node) -> bool:
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        return name == "CellBoxes"

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                tripled = isinstance(f, ast.Attribute) and f.attr == "tripled" and is_cell_boxes(f.value)
                if (is_cell_boxes(f) or tripled) and module != "families" and (module, fn) != ("lattice", "_sides"):
                    found.append(f"{module}:{fn}:{child.lineno}")
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_families_build_engine_box_sets():
    package, _, _ = _sources()
    assert [site for module, source in package.items() for site in _cell_box_builds(module, source)] == []


_ENGINE = "class CellBoxes:\n    @classmethod\n    def tripled(cls, s, lo, w):\n        return cls(s, lo, lo + w)\n"


@pytest.mark.parametrize(
    "module, source, sites",
    [
        ("families", "b = CellBoxes(s, lo, hi)\nw = CellBoxes.tripled(s, lo, width)\n", []),
        ("lattice", _ENGINE + "\n    def _sides(self):\n        return CellBoxes(s, lo, hi)\n", []),
        ("lattice", _ENGINE + "\n    def grow(self):\n        return CellBoxes(s, lo, hi)\n", ["lattice:grow:7"]),
        ("operators", "def _plan(spec):\n    return CellBoxes.tripled(spec.shape, lo, width)\n", ["operators:_plan:2"]),
        ("sparse", "w = lattice.CellBoxes(s, lo, hi)\n", ["sparse:<module>:1"]),
        ("weights", "def f(fam):\n    return fam.boxes.sums(w), fam.windows3.lo, boxes.tripled(s, lo, w)\n", []),
    ],
    ids=["families", "engine-plan", "engine-other", "operators-tripled", "qualified", "reads-only"],
)
def test_the_box_set_check_flags_a_build_outside_the_families(module, source, sites):
    assert _cell_box_builds(module, source) == sites


def _comparisons(source: str, constants, names=()) -> list[int]:
    """Lines of each comparison with an operand that is a string among
    `constants` (alone or in a tuple, list or set literal) or a name or
    attribute among `names`."""

    def matches(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(matches(elt) for elt in node.elts)
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str) and node.value in constants
        return isinstance(node, ast.Name) and node.id in names or isinstance(node, ast.Attribute) and node.attr in names

    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare) and any(map(matches, (node.left, *node.comparators)))
    )


def test_the_verify_tags_are_compared_in_one_place_each():
    """The harness compares no inequality tag: each tag's keys, relations,
    catalog and evaluator are fields of its record in harness.TAG_RULES,
    found by a lookup.  The CLI compares its tag with "structural" once."""
    assert _comparisons((SRC / "harness.py").read_text(encoding="utf-8"), set(TAGS), {"tag"}) == []
    assert len(_comparisons((SRC / "cli.py").read_text(encoding="utf-8"), {"structural"})) == 1


@pytest.mark.parametrize(
    "source, constants, names, lines",
    [
        ('if tag == "T1.1":\n    pass\nelif tag in ("T4.1", "T4.2"):\n    pass\n', TAGS, {"tag"}, [1, 3]),
        ('ok = profile.tag != other\n', TAGS, {"tag"}, [1]),
        ('ok = "C5.3" in [x, y]\n', TAGS, {"tag"}, [1]),
        ('rule = TAG_RULES.get(tag)\nif rule is None:\n    pass\n', TAGS, {"tag"}, []),
        ('TAG_RULES = {"T1.1": 1, "C5.3": 2}\nif mode in ("weighted", "small-exponent"):\n    pass\n', TAGS, {"tag"}, []),
        ('if tag == "structural":\n    pass\nx = {"tag": "structural"}\nif "structural" != tag:\n    pass\n', {"structural"}, (), [1, 4]),
    ],
    ids=["tag-tests", "attribute", "constant-in-list", "lookup", "table-and-modes", "structural"],
)
def test_the_tag_check_flags_comparisons(source, constants, names, lines):
    assert _comparisons(source, set(constants), names) == lines


def _stale_module_names(text: str) -> list[str]:
    """The backticked `module.name` spans of text, for a module of the
    package, whose name the module does not have; and the `Class.attr` spans,
    for a class of the package, whose attribute (or dataclass field) the
    class does not have."""
    modules = [path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__")]
    owners = {m: importlib.import_module(f"bifrac.{m}") for m in modules}
    owners |= {
        name: obj
        for module in list(owners.values())
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    }
    quoted = sorted({(m, name) for m, name in re.findall(r"`(\w+)\.(\w+)", text) if m in owners})
    return [
        f"{m}.{name}"
        for m, name in quoted
        if not hasattr(owners[m], name) and name not in getattr(owners[m], "__dataclass_fields__", {})
    ]


# backticked bare names of README.md that no package source holds: notation,
# a JSON literal, a config key the README says is refused and a pyproject.toml key
_README_NON_PACKAGE_NAMES = {"A_p", "Infinity", "family_caps", "pythonpath"}


def _stale_bare_names(text: str) -> list[str]:
    """The backticked bare identifiers of text (`name`, no dot) that occur as
    a word in no module of the package, but for _README_NON_PACKAGE_NAMES."""
    words = {w for path in SRC.glob("*.py") for w in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    quoted = set(re.findall(r"`([A-Za-z_]\w*)`", text))
    return sorted(quoted - words - _README_NON_PACKAGE_NAMES)


def test_every_module_name_the_readme_quotes_exists():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _stale_module_names(readme) == []
    assert _stale_bare_names(readme) == []


def test_the_readme_check_flags_a_deleted_name():
    text = "`lattice.overlap_integrals`, `families.subcube_family`, `np.sum` and `lattice._scalar_pow`"
    assert _stale_module_names(text) == ["lattice.overlap_integrals"]
    # class attributes: a cached property, a dataclass field, a method and a deleted property
    text = "`CellBoxes.blocks`, `KernelTable.weights`, `GridSpec.cell_of_point`, `T1.1` and `CellBoxes.groups`"
    assert _stale_module_names(text) == ["CellBoxes.groups"]
    # bare names: a deleted method, a class, a constant, a CLI flag word and a listed exception
    text = "`aligned_plan`, `CellBoxes`, `RH_PROBE_CAP`, `seed`, `A_p`, `T1.1` and `lattice.aligned_plan`"
    assert _stale_bare_names(text) == ["aligned_plan"]


_UNIQUE_FLAGS = {"return_index", "return_inverse", "return_counts"}
# set routines that call a bare np.unique on their inputs
_SET_ROUTINES = {"intersect1d", "setdiff1d", "setxor1d", "union1d"}


def _bare_unique_calls(source: str) -> list[int]:
    """Lines of `np.unique(...)` calls that pass none of return_index,
    return_inverse and return_counts as True, and of np set routines."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        if isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        if node.func.attr in _SET_ROUTINES
        or node.func.attr == "unique"
        and not any(k.arg in _UNIQUE_FLAGS and isinstance(k.value, ast.Constant) and k.value.value is True for k in node.keywords)
    )


def test_every_np_unique_asks_for_indices_or_counts():
    """numpy 2.x's np.unique without return_index, return_inverse or
    return_counts asks np.ma.is_masked whether the array is masked, which
    imports numpy.ma (about 15 ms) on the first such call in a process; so
    do np.intersect1d and the other set routines, which call it.  Sorted
    distinct small integers come from np.flatnonzero(np.bincount(x)), a
    duplicate test from a sort and a comparison of neighbours, and a
    membership test from np.isin(..., kind="table")."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _bare_unique_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("np.unique(x)\n", [1]),
        ("np.unique(x, axis=0)\n", [1]),
        ("np.unique(x, return_counts=False)\n", [1]),
        ("np.unique(x, return_index=True)\n", []),
        ("np.unique(x, axis=0, return_inverse=True)\n", []),
        ("np.unique(x, return_counts=True)\n", []),
        ("y = x.unique()\n", []),
        ("np.intersect1d(a, b)\n", [1]),
        ("np.isin(a, b, kind='table')\n", []),
    ],
)
def test_the_unique_check_flags_bare_calls(source, lines):
    assert _bare_unique_calls(source) == lines


_COLD_RUN = """
import sys
import numpy as np
from bifrac import Cube, DyadicGrid, GridFunction, GridSpec, cz_decompose, multi_frac_int
from bifrac.families import default_family, nested_pairs
from bifrac.harness import CORPUS_KINDS, check_sparse_invariants, corpus
from bifrac.operators import kernel_table

nested_pairs(default_family(GridSpec(1, 4.0, 128)))
nested_pairs(default_family(GridSpec(2, 2.0, 16)))
kernel_table(GridSpec(2, 2.0, 32), 0.7)
for kind in CORPUS_KINDS:
    corpus(7, kind, GridSpec(1, 4.0, 64))
spec = GridSpec(2, 2.0, 16)
cells = np.ones(spec.shape)
cells[9, 10] = 1e4
f = GridFunction(spec, cells)
multi_frac_int(f, f, 1.3)
fam = cz_decompose(f, f, 2.0, 2.0, Cube((0.0, 0.0), 1.0), DyadicGrid((0.0, 0.0)))
check_sparse_invariants(fam)  # its overlap test runs on every level; bounds may fail here
print("numpy.ma" in sys.modules)
"""


def test_a_cold_start_never_imports_numpy_ma():
    # a fresh interpreter: the test process itself may have loaded numpy.ma
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", _COLD_RUN], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]
    assert time.perf_counter() - start < 2.0
