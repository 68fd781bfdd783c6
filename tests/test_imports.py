"""The package's import graph: no import inside a function, and the
module-level imports between ``rivote`` modules form a DAG; the CLI scans
attention sets only through ``election.attention_set``; and the package
holds one perfect-observation winner rule, with no Downsian kernel.

All four are read from the sources with ``ast``; imports under
``if TYPE_CHECKING:`` only annotate and are exempt.
"""
import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rivote"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _type_checking(node) -> bool:
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def _imports(node, in_function=False):
    """(import node, whether a function encloses it) under ``node``."""
    for child in ast.iter_child_nodes(node):
        if _type_checking(child):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, in_function
        nested = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _imports(child, nested)


def _targets(node) -> set[str]:
    """The package modules an import statement loads (``__init__`` for a
    name of the package itself, such as ``__version__``)."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.level:  # from .x import y, or from . import x
        names = ([f"rivote.{node.module}"] if node.module
                 else [f"rivote.{a.name}" for a in node.names])
    else:
        names = [node.module]
    parts = [name.split(".") for name in names if name.split(".")[0] == "rivote"]
    return {p[1] if len(p) > 1 and p[1] in MODULES else "__init__" for p in parts}


def test_no_import_inside_a_function():
    nested = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
              for node, in_function in _imports(tree) if in_function]
    assert nested == []


def test_module_imports_form_a_dag():
    graph = {name: set().union(*(_targets(node) for node, nested in _imports(tree)
                                 if not nested))
             for name, tree in MODULES.items()}
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert set(order) == set(MODULES)
    assert "election" not in graph["news"]


def test_cli_builds_no_attention_scan():
    # no frontier name and no game row's scan: the scenario picks the scan
    cli = list(ast.walk(MODULES["cli"]))
    names = {n.id for n in cli if isinstance(n, ast.Name)}
    names |= {n.name for n in cli if isinstance(n, ast.alias)}
    attributes = {n.attr for n in cli if isinstance(n, ast.Attribute)}
    assert not [x for x in names | attributes if x.startswith("attention_frontier")]
    assert "scan" not in attributes


def test_no_downsian_kernel():
    # the scenario's groups decide W; a voter at t = 0 lives only in the test oracles
    found = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree)
             for field in ("name", "id", "attr")  # defs and aliases, names, attributes
             if str(getattr(node, field, "")).lower().startswith("downsian")]
    assert found == []
