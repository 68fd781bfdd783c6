"""The package's import graph: no import inside a function, and the
module-level imports between ``rivote`` modules form a DAG; the CLI scans
attention sets only through ``election.attention_set``; the package holds
one perfect-observation winner rule, with no Downsian kernel, one belief
builder per game and one voter rule per game row; the solver has one solve
path, one corner call and one attentiveness threshold, the solver and the
news rules define no closures, and the IC kernel holds the increasing-map
rule; one gate builds every game row and refuses policies off beta's grid,
and the CLI reads no private name; the library calls no second
attentiveness name and records hold no callable; a scenario caches its game
in one private slot that leaves its identity alone; one rule checks that
probabilities sum to 1 and one helper records a loader section's refusal;
and every name README's code spans use is defined.

All but the cache slot are read from the sources with ``ast``; imports under
``if TYPE_CHECKING:`` only annotate and are exempt.
"""
import ast
import builtins
import collections.abc
import dataclasses
import graphlib
import inspect
import re
import typing
from pathlib import Path

import rivote
from rivote import election
from rivote.presets import figure2_scenario
from rivote.scenario_io import scenario_from_dict

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
    assert "election" not in graph["extensions"]


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


ROOT = PACKAGE.parents[1]
SOURCES = [ast.parse(path.read_text()) for path in
           sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))]
SNAKE = re.compile(r"_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+")


def _definitions() -> tuple[set[str], set[str]]:
    """(every name the package and the bench define, the names defined only as
    properties): defs, classes, assignments, attributes, arguments, imports,
    string constants that spell a dotted name, and Python's builtins."""
    names, callables, properties = set(dir(builtins)), set(), set()
    for node in (n for tree in SOURCES for n in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            decorators = {ast.unparse(d).rsplit(".")[-1] for d in node.decorator_list}
            wrapped = decorators & {"property", "cached_property"}
            (properties if wrapped else callables).add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                names.update(node.value.split("."))
    return names, properties - callables


def _readme_spans() -> list[str]:
    """README's inline code spans, outside the fenced blocks."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.M | re.S)
    return re.findall(r"`([^`]+)`", text)


def test_readme_names_are_defined():
    # every name a span calls or names bare is in the package or the bench,
    # and no span calls a property; B is the frontier curve b = B(a)
    names, properties = _definitions()
    names.add("B")
    missing, called_properties = [], []
    for span in _readme_spans():
        called = re.findall(r"([A-Za-z_]\w*)\(", span)
        bare = span.split(".") if re.fullmatch(r"[A-Za-z_][\w.]*", span) else []
        used = called + [name for name in bare if SNAKE.fullmatch(name)]
        missing += [f"`{span}`: {name}" for name in used if name not in names]
        called_properties += [f"`{span}`: {name}()" for name in called if name in properties]
    assert missing == []
    assert called_properties == []


def test_one_belief_builder_per_game():
    # each game's batch over voter types is its builder; game_belief is its one-type case
    assert "belief" not in election.GameRow._fields
    removed = {"on_path_belief", "news_belief", "commitment_belief"}
    assert not removed & set().union(*_names().values())
    assert not [name for name in removed if hasattr(rivote, name)]
    assert rivote.game_belief is election.game_belief


def _names() -> dict[str, set]:
    """Every name each module defines, assigns, reads or imports."""
    return {stem: {name for node in ast.walk(tree) for name in (
        getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None))}
        for stem, tree in MODULES.items()}


def _by_function(node, name=None):
    """(innermost enclosing function's name, node) for every node under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
        yield inner, child
        yield from _by_function(child, inner)


def test_one_voter_rule_per_game():
    # each game row holds one array rule, which the one batch over voter types
    # and the attention-set scan both read; core holds the one chunk rule
    assert election.GameRow._fields == ("w_of", "eta", "arrays")
    names = _names()
    removed = {"IC_CHUNK_FLOATS", "profile_beliefs", "signal_beliefs", "_commitment_beliefs"}
    assert not removed & set().union(*names.values())
    assert [stem for stem, found in names.items() if "CHUNK_FLOATS" in found] == ["core"]


def test_one_implementation_called_directly():
    # the solver's FOC and the news rules are module-level functions, not
    # closures; limited commitment's increasing-map rule is the kernel's own
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    nested = [f"{stem}.py:{inner.lineno}" for stem in ("solver", "news")
              for outer in ast.walk(MODULES[stem]) if isinstance(outer, functions)
              for inner in ast.walk(outer) if inner is not outer and isinstance(inner, functions)]
    assert nested == []
    assert [stem for stem, found in _names().items() if "follows" in found] == []
    assert list(inspect.signature(election.ICKernel.search).parameters) == [
        "self", "max_prefixes"]


def test_one_solve_path():
    # solve_attention is the one-row case of solve_groups, which alone builds
    # solutions: every solve takes the same corner tests and bisection
    callers = {f"{stem}.{fn}" for stem, tree in MODULES.items() for fn, node in _by_function(tree)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "_solution"}
    assert callers == {"solver.solve_groups"}
    (solve,) = [fn for fn in MODULES["solver"].body
                if isinstance(fn, ast.FunctionDef) and fn.name == "solve_attention"]
    body = [node for node in solve.body if not (isinstance(node, ast.Expr)
                                                 and isinstance(node.value, ast.Constant))]
    assert len(body) == 1 and isinstance(body[0], ast.Return)
    calls = [ast.unparse(node.func) for node in ast.walk(body[0]) if isinstance(node, ast.Call)]
    assert calls == ["solve_groups"]


def test_one_corner_call_and_one_attentiveness_threshold():
    # solve_groups decides both corners in one log_mean_exp call, not through
    # attentive; the threshold on a log moment, -EXACT, is written once, in
    # the predicate that attentive and solve_groups share
    calls = collections.defaultdict(list)
    for fn, node in _by_function(MODULES["solver"]):
        if isinstance(node, ast.Call):
            calls[fn].append(ast.unparse(node.func))
    assert calls["solve_groups"].count("log_mean_exp") == 1
    assert "attentive" not in calls["solve_groups"]
    assert [fn for fn, node in _by_function(MODULES["solver"])
            if ast.unparse(node) == "-EXACT"] == ["_attends"]
    assert "_attends" in calls["attentive"] and "_attends" in calls["solve_groups"]


def test_one_attentiveness_rule_and_records_are_plain_data():
    # the library judges attention by solver.attentive alone: its second name,
    # attention_membership, is only defined and exported; a record holds data,
    # not a belief builder
    holders = {stem: sum(name == "attention_membership" for node in ast.walk(tree)
                         for name in (getattr(node, "name", None), getattr(node, "id", None),
                                      getattr(node, "attr", None)))
               for stem, tree in MODULES.items()}
    assert {stem: n for stem, n in holders.items() if n} == {"solver": 1, "__init__": 1}
    hints = typing.get_type_hints(election.EquilibriumRecord)
    assert not [name for name, hint in hints.items()
                if typing.get_origin(hint) is collections.abc.Callable]
    record = election.enumerate_equilibria(scenario_from_dict(figure2_scenario()))[0]
    assert not [f.name for f in dataclasses.fields(record) if callable(getattr(record, f.name))]


def test_one_gate_builds_every_game_row():
    # _admitted_game alone builds a GameRow, for a scenario and an assignment
    # alike; the CLI reaches the game through public calls only
    def builds(tree) -> int:
        return sum(isinstance(node, ast.Call) and ast.unparse(node.func).endswith("GameRow")
                   for node in ast.walk(tree))

    (gate,) = [fn for fn in ast.walk(MODULES["election"])
               if isinstance(fn, ast.FunctionDef) and fn.name == "_admitted_game"]
    assert builds(gate) and sum(map(builds, MODULES.values())) == builds(gate)
    private = [f"{node.module}.{a.name}" for node in ast.walk(MODULES["cli"])
               if isinstance(node, ast.ImportFrom) and _targets(node)
               for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]
    assert private == []
    removed = {"_game", "_require_own_types", "_require_increasing"}
    assert not removed & set().union(*_names().values())
    # the gate refuses a policy off beta's grid for every reader; check_ic has no check of its own
    grid_checks = {fn for fn, node in _by_function(MODULES["election"])
                   if isinstance(node, ast.Call) and ast.unparse(node.func) == "_require_on_grid"}
    assert grid_checks == {"assignment_for", "_admitted_game"}
    assert not [node for fn, node in _by_function(MODULES["election"]) if fn == "check_ic"
                and isinstance(node, ast.Call) and ast.unparse(node.func) == "assignment_for"]


def test_one_cache_slot_per_scenario():
    # admission adds one private key to the frozen scenario's __dict__, which
    # its ==, hash and repr never read; the commitment rule reads the
    # scenario's own types
    scenario = scenario_from_dict(figure2_scenario())
    fields = {f.name for f in dataclasses.fields(scenario)}
    before = (repr(scenario), hash(scenario))
    records = election.enumerate_equilibria(scenario)
    election.check_ic(scenario, records[0].assignment)
    election.attention_set(scenario, [0.01], [0.2, 0.4], 0.0)
    extra = set(vars(scenario)) - fields
    assert set(vars(scenario)) >= fields and len(extra) == 1 and extra.pop().startswith("_")
    assert (repr(scenario), hash(scenario)) == before
    copy = dataclasses.replace(scenario)
    assert copy == scenario and hash(copy) == hash(scenario) and repr(copy) == repr(scenario)


def test_one_probability_rule():
    # a sum compared with 1 within EXACT: core's rule for every distribution,
    # and news' zero-accepting rule for signal rows, which reports row by row
    sites = {f"{stem}.{fn}" for stem, tree in MODULES.items() for fn, node in _by_function(tree)
             if isinstance(node, ast.Compare) and "EXACT" in (text := ast.unparse(node))
             and re.search(r"\bsum\(", text)}
    assert sites == {"core.probability_floats", "news._row_faults"}


def test_loader_records_refusals_through_one_helper():
    # each section's constructor goes through _made; the final Scenario build
    # and the issues section's wider handler are the others
    tries = [(fn, node) for fn, node in _by_function(MODULES["scenario_io"])
             if isinstance(node, ast.Try) and any(
                 h.type is not None and ast.unparse(h.type) == "ValidationError"
                 for h in node.handlers)]
    assert [fn for fn, _ in tries] == ["_made", "scenario_from_dict"]
    (final,) = [node for fn, node in tries if fn == "scenario_from_dict"]
    assert ast.unparse(final.body[0].value.func) == "Scenario"
