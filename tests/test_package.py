"""The package surface: what ``pressim`` exports, and what it imports."""

import ast
from pathlib import Path

import pressim

SRC = Path(pressim.__file__).parent
TESTS = Path(__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in pressim.__all__ if not hasattr(pressim, name)]
    assert missing == []


def test_no_library_module_imports_from_the_tests():
    # the tests import their helpers as top-level modules: ``from reference import ...``
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    offending = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offending += [
                f"{path.name}: {name}" for name in names
                if name.partition(".")[0] in test_modules
            ]
    assert offending == []


def test_every_public_definition_is_used_in_the_library():
    """A public top-level function or class that only the tests call
    belongs in the tests."""
    definitions, uses = [], {}  # uses: top-level statement -> the names it reads
    for path in sorted(SRC.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.name, statement))
            uses[statement] = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
    unused = [
        f"{module}: {d.name}" for module, d in definitions
        if not d.name.startswith("_")
        and d.name not in pressim.__all__
        and not any(d.name in names for s, names in uses.items() if s is not d)
    ]
    assert unused == []


# The tick loop and the pressure reads reach queues and service credits
# through references resolved once, never through a string-keyed dict.
RESOLVED_READERS = {
    "sim.py": {"_spawn", "_advance_transit", "_discharge"},
    "pressure.py": {"_movement_scores", "reward"},
}


def test_hot_paths_read_no_queue_or_credit_dict():
    found, offending = set(), []
    for module, names in RESOLVED_READERS.items():
        for fn in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                found.add(fn.name)
                offending += [
                    f"{module}:{node.lineno} {fn.name} reads .{node.attr}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and node.attr in {"queues", "_credit"}
                ]
    assert found == set().union(*RESOLVED_READERS.values())
    assert offending == []


def _sim_functions() -> list[ast.FunctionDef]:
    return [n for n in ast.walk(ast.parse((SRC / "sim.py").read_text()))
            if isinstance(n, ast.FunctionDef)]


# The step phases reach each vehicle through the queue or transit deque that
# holds its record. The vehicle table is for the reports and the digest: a
# spawn stores each new vehicle in it, and no step phase reads it.
TABLE_FREE_PHASES = {"_advance_transit", "_poll", "_discharge"}


def test_step_phases_read_no_vehicle_table():
    phases = {f.name: f for f in _sim_functions() if f.name in {*TABLE_FREE_PHASES, "_spawn"}}
    assert set(phases) == {*TABLE_FREE_PHASES, "_spawn"}

    def uses(fn: ast.FunctionDef) -> list[ast.Attribute]:
        return [n for n in ast.walk(fn) if isinstance(n, ast.Attribute) and n.attr == "vehicles"]

    offending = [f"{name}:{n.lineno} reads .vehicles"
                 for name in sorted(TABLE_FREE_PHASES) for n in uses(phases[name])]
    assert offending == []
    stores = [n.value for n in ast.walk(phases["_spawn"])
              if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
              and isinstance(n.value, ast.Attribute) and n.value.attr == "vehicles"]
    assert len(stores) == 1
    assert uses(phases["_spawn"]) == stores  # AST nodes compare by identity


def test_one_tick_loop_body():
    """``step`` and ``run`` share one tick-loop body: a single function in
    ``sim.py`` reaches ``_discharge``."""
    callers = [f.name for f in _sim_functions() if any(
        isinstance(n, ast.Attribute) and n.attr == "_discharge" for n in ast.walk(f))]
    assert len(callers) == 1, callers


def test_discharge_counts_credit_exactly():
    """``_discharge`` keeps service credit in whole units: it holds no float
    literal and reads no tolerance."""
    (fn,) = [f for f in _sim_functions() if f.name == "_discharge"]
    floats = [n.value for n in ast.walk(fn)
              if isinstance(n, ast.Constant) and isinstance(n.value, float)]
    assert floats == []
    assert [n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == "_EPS"] == []
