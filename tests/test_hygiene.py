"""Source hygiene of the package, checked with the standard library's ``ast``.

Every imported name is read somewhere: ``__init__.py`` is skipped because
its imports are the public re-exports, and ``from __future__`` imports
bind no name.  Branches on the base type stay bounded, the circle
evaluation path takes its exponentials from ``fourier.turns_exp`` alone,
every numpy tolerance comparison states its relative tolerance, every
``take`` into an ``out`` array passes mode ``"clip"``, only ``fourier``
tells uint64 phases from points, only ``dynamics`` knows the digit
window, and only ``_seeding`` makes random generators.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vmstat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import outside ``__future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported_names(tree).items() if name not in read
    )
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"


#: classes an ``isinstance`` test names when it branches on the base
BASE_TYPES = {"CircleBase", "MarkovBase", "FourierPoly", "StateFunction", "CircleSystem", "MarkovSystem"}
#: most such tests ``src/vmstat`` may hold outside ``fourier.py``; the per-base
#: operations live on CircleBase and MarkovBase, so a new branch needs a reason
MAX_BASE_BRANCHES = 11


def _base_branches(tree: ast.Module) -> list[int]:
    """Line of every ``isinstance(x, T)`` call whose T names one of BASE_TYPES."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            if named & BASE_TYPES:
                out.append(node.lineno)
    return out


def test_base_branches_bounded():
    found = [
        f"{path.name}:{line}"
        for path in MODULES
        if path.name != "fourier.py"
        for line in _base_branches(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert len(found) <= MAX_BASE_BRANCHES, (
        f"{len(found)} isinstance tests on base types, at most {MAX_BASE_BRANCHES}: "
        + ", ".join(found)
    )


#: functions on the circle evaluation path, as (module, qualified name)
EVALUATION_PATH = [("fourier.py", "FourierPoly.evaluate"), ("dynamics.py", "contract")]


def _function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    nodes = [tree]
    for name in qualname.split("."):
        (node,) = [n for parent in nodes for n in parent.body
                   if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
        nodes = [node]
    return nodes[0]


@pytest.mark.parametrize("module, qualname", EVALUATION_PATH, ids=[q for _, q in EVALUATION_PATH])
def test_evaluation_path_takes_no_numpy_exp(module, qualname):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    calls = [
        node.lineno
        for node in ast.walk(_function(tree, qualname))
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Attribute) and node.func.attr == "exp"
             or isinstance(node.func, ast.Name) and node.func.id == "exp")
    ]
    assert not calls, f"{module}: {qualname} calls exp on lines {calls}; use fourier.turns_exp"


#: numpy comparisons whose default rtol=1e-5 would widen an absolute tolerance
TOLERANCE_CALLS = {"allclose", "isclose"}


def test_numpy_tolerance_calls_pass_rtol():
    missing = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr in TOLERANCE_CALLS
        and isinstance(node.func.value, ast.Name) and node.func.value.id in {"np", "numpy"}
        and "rtol" not in {kw.arg for kw in node.keywords}
    ]
    assert not missing, f"np.allclose/np.isclose without an explicit rtol: {', '.join(missing)}"


def _take_argument(call: ast.Call, name: str):
    """The value passed as out or mode to np.take(a, indices, axis, out, mode) or a.take(indices, axis, out, mode)."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    is_function = isinstance(call.func.value, ast.Name) and call.func.value.id in {"np", "numpy"}
    index = {"out": 2, "mode": 3}[name] + is_function
    return call.args[index] if len(call.args) > index else ast.Constant(None)


def _takes_into_out_unclipped(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "take"):
        return False
    out, mode = _take_argument(node, "out"), _take_argument(node, "mode")
    writes_out = not (isinstance(out, ast.Constant) and out.value is None)
    return writes_out and not (isinstance(mode, ast.Constant) and mode.value == "clip")


def test_take_into_out_clips():
    # mode "raise", the default, checks the indices into a buffer and copies
    # that into out; "clip" writes out directly (docs/constants.md)
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _takes_into_out_unclipped(node)
    ]
    assert not found, f"take into out without mode='clip': {', '.join(found)}"


def _is_np_uint64(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "uint64"
            and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"})


def _mentions_dtype(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "dtype"
               or isinstance(n, ast.Constant) and n.value == "dtype" for n in ast.walk(node))


def test_only_fourier_tells_phases_from_points():
    # a circle trajectory holds uint64 phases on every m; FourierPoly.evaluate
    # alone asks whether it was given phases or points
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Compare) and _mentions_dtype(node)
        and any(_is_np_uint64(n) for n in [node.left, *node.comparators])
    ]
    assert [f.split(":")[0] for f in found] == ["fourier.py"], found


def _names(tree: ast.Module) -> list[tuple[str, int]]:
    """Every identifier, argument, keyword, attribute and definition name, with its line."""
    out = []
    for node in ast.walk(tree):
        for field in ("id", "arg", "attr", "name"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                out.append((value, getattr(node, "lineno", 0)))
    return out


def test_window_lives_in_dynamics_alone():
    found = {
        path.name: [line for name, line in _names(ast.parse(path.read_text(), filename=str(path)))
                    if name == "window"]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    elsewhere = {name: lines for name, lines in found.items() if lines and name != "dynamics.py"}
    assert not elsewhere, f"window outside dynamics.py: {elsewhere}"
    assert found["dynamics.py"]


#: constructors of numpy random generators, bit generators and seed sequences
RNG_MAKERS = {"default_rng", "Generator", "Philox", "SeedSequence"}


def _rng_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every call to a bare or dotted name in RNG_MAKERS."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in RNG_MAKERS:
                out.append((name, node.lineno))
    return out


def test_only_seeding_makes_random_generators():
    # every draw comes from _seeding.stream, keyed by derive_seed, so the
    # raw words dynamics reads are the replica's and no stream is unkeyed
    found = {
        path.name: _rng_calls(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    elsewhere = {name: calls for name, calls in found.items() if calls and name != "_seeding.py"}
    assert not elsewhere, f"random generators made outside _seeding.py: {elsewhere}"
    assert {name for name, _ in found["_seeding.py"]} == {"Generator", "Philox"}
