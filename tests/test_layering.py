"""The package's import layering, read from the source with ast.

The primary routes form one chain, and a module may only import modules
below it.  The mod-p oracle in bar.py stands apart: it takes nothing from
the primary routes but the scalars, and only the CLI and the package root
reach it, so its cross-check shares no linear algebra with what it checks.
Nothing is floating point, the oracle's mod-p reduction included, no module
uses numpy, and only scalars.py takes Fractions from the standard library.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qci_hochschild"
CHAIN = ("scalars", "linalg", "algebra", "resolution", "cohomology", "yoneda", "cli")
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def source(name):
    return (PACKAGE / f"{name}.py").read_text()


def walk(name):
    """Every node of module `name`'s syntax tree."""
    return ast.walk(ast.parse(source(name)))


def imported_modules(name):
    """Package modules that module `name` imports, anywhere in its body."""
    out = set()
    for node in walk(name):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "qci_hochschild":
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                out.add(parts[0])
            else:  # from . import x: x is a module or a name of the package root
                out.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qci_hochschild":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
    return out


def outside_imports(name):
    """Top-level names of what module `name` imports from outside the package."""
    out = set()
    for node in walk(name):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
    return out - {"qci_hochschild"}


def float_names(text):
    """Names, attributes, imported names and strings in the source `text` such
    as float, float64, numpy or np."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        for word in (
            getattr(node, "id", None),  # Name
            getattr(node, "attr", None),  # Attribute
            getattr(node, "name", None),  # alias of an import
            node.value if isinstance(node, ast.Constant) else None,  # a dtype string
        ):
            if isinstance(word, str) and re.fullmatch(r"float\d*|numpy|np", word):
                out.add(word)
    return out


def test_every_module_is_placed():
    assert set(MODULES) == set(CHAIN) | {"bar", "__init__"}


@pytest.mark.parametrize("name", CHAIN)
def test_chain_imports_only_downward(name):
    below = set(CHAIN[: CHAIN.index(name)])
    upward = {m for m in imported_modules(name) if m in CHAIN and m not in below}
    assert not upward, f"{name} imports {sorted(upward)} from its own level or above"


def test_oracle_imports_only_scalars():
    assert imported_modules("bar") <= {"scalars"}


def test_only_cli_and_root_import_the_oracle():
    importers = {name for name in MODULES if "bar" in imported_modules(name)}
    assert importers <= {"cli", "__init__"}
    assert "cli" in importers


def test_import_reader_sees_function_level_imports():
    # resolution imports c_sequence inside beta_element, not at module level
    assert "scalars" in imported_modules("resolution")
    assert "__init__" in imported_modules("cli")


def test_only_scalars_imports_fractions():
    assert {name for name in MODULES if "fractions" in outside_imports(name)} == {"scalars"}


@pytest.mark.parametrize("name", MODULES)
def test_no_floating_point_outside_the_oracle(name):
    # the oracle too reduces exactly, on Python ints mod p
    names = float_names(source(name))
    assert not names, f"{name} names {sorted(names)}"


def test_float_reader_sees_planted_float64():
    planted = "import numpy as np\nv = np.zeros(3, dtype=np.float64)\nw = v.astype('float32')\n"
    assert float_names(planted) == {"numpy", "np", "float64", "float32"}


def attribute_names(name):
    """Every attribute name that module `name` reads or writes, as in `obj.attr`."""
    return {node.attr for node in walk(name) if isinstance(node, ast.Attribute)}


def test_only_the_algebra_touches_the_context_memo():
    # every per-context build goes through QuantumCompleteIntersection.cached
    assert {name for name in MODULES if "_cache" in attribute_names(name)} == {"algebra"}


def matrix_constructor_calls(text):
    """Line numbers of direct SparseMatrix(...) calls in the source `text`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SparseMatrix"
    ]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "linalg"])
def test_only_linalg_calls_the_matrix_constructor(name):
    # every other module assembles its k-linear matrices through SparseMatrix.tiled
    assert not matrix_constructor_calls(source(name)), name


def test_constructor_reader_sees_planted_calls():
    planted = (
        "m = SparseMatrix(2, 2, {}, F)\n"
        "n = linalg.SparseMatrix(1, 1, {}, F)\n"
        "t = SparseMatrix.tiled(2, 2, [], F)\n"
    )
    assert matrix_constructor_calls(planted) == [1, 2]


def inverse_calls(tree):
    """Number of .inverse() calls anywhere under the syntax tree `tree`."""
    return sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "inverse"
    )


def test_linalg_eliminates_in_one_place():
    # one reduction: only _eliminate inverts a pivot, and neither it nor
    # _rref takes a mode beyond the rows and the columns
    tree = ast.parse(source("linalg"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert inverse_calls(tree) == inverse_calls(functions["_eliminate"]) > 0
    for name, params in (("_rref", ["rows", "ncols"]), ("_eliminate", ["rows", "cols"])):
        args = functions[name].args
        assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == params, name
        assert args.vararg is None and args.kwarg is None, name


def test_inverse_reader_sees_planted_calls():
    planted = "def f(x):\n    return x.inverse()\n\nclass C:\n    g = lambda self, y: 1 / y.inverse()\n"
    assert inverse_calls(ast.parse(planted)) == 2
