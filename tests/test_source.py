"""Static checks on the package source, by `ast`: no lint tool is needed."""

import ast
import re
from pathlib import Path

import pytest

import skewtor

MODULES = sorted(p for p in Path(skewtor.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_module_level_import_is_read(path):
    tree = _tree(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in imported.items() if name not in read}
    assert not unused, f"{path.name}: imported and never read: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_global_is_rebound_from_a_function(path):
    # work is computed once by functools.cache or cached_property, never by a
    # module global that a function reassigns
    statements = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Global)]
    assert not statements, f"{path.name}: global statement on lines {statements}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_calls_numpy_einsum(path):
    # every contraction runs through the compiled plans of `Tensor.einsum`,
    # whose products are `int_matmul`
    tree = _tree(path)
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "einsum"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    imports = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "numpy" and any(a.name == "einsum" for a in node.names)]
    assert not calls + imports, f"{path.name}: numpy einsum on lines {calls + imports}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_literal_einsum_spec_has_an_output(path):
    # `Tensor.einsum` reads letters, commas and one `->`: no caller writes
    # numpy's implicit mode or its `...`
    specs = [node.args[0] for node in ast.walk(_tree(path)) if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Attribute) and node.func.attr == "einsum"
                  or isinstance(node.func, ast.Name) and node.func.id in ("ein", "einsum"))
             and node.args and isinstance(node.args[0], ast.Constant)]
    other = [(s.lineno, s.value) for s in specs
             if not re.fullmatch(r"[a-zA-Z,]*->[a-zA-Z]*", s.value)]
    assert not other, f"{path.name}: einsum specs not of letters, commas and one '->': {other}"


def _word_size(node):
    """Whether an expression node is 2^62 or 2^63 written out: 2 ** k, 1 << k or the integer."""
    if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant) \
            and isinstance(node.right, ast.Constant):
        base, power = node.left.value, node.right.value
        return (isinstance(node.op, ast.Pow) and base == 2 or
                isinstance(node.op, ast.LShift) and base == 1) and power in (62, 63)
    return (isinstance(node, ast.Constant) and type(node.value) is int
            and node.value in (2 ** 62, 2 ** 63))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "forms.py"],
                         ids=lambda p: p.stem)
def test_no_word_size_literal_outside_forms(path):
    # whether numerators fit int64 is decided by the exact arrays of `forms`
    # alone, from the bounds they carry; no other module states the word size
    lines = [node.lineno for node in ast.walk(_tree(path)) if _word_size(node)]
    assert not lines, f"{path.name}: word-size literal on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_int_matmul_call_states_both_bounds(path):
    # `int_matmul(a, b, a_bound, b_bound)` never reads a bound from its operands
    calls = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Name) and node.func.id == "int_matmul"
                  or isinstance(node.func, ast.Attribute) and node.func.attr == "int_matmul")
             and len(node.args) + len(node.keywords) < 4]
    assert not calls, f"{path.name}: int_matmul without both bounds on lines {calls}"


ROOT = Path(__file__).resolve().parent.parent
TEST_FILES = sorted([*ROOT.glob("tests/test_*.py"), *ROOT.glob("bench/tests/test_*.py")])


def _decorator_names(function):
    calls = (d.func if isinstance(d, ast.Call) else d for d in function.decorator_list)
    return {d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None) for d in calls}


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.stem)
def test_every_given_carries_a_seed(path):
    # a Hypothesis test draws the same examples on every run: an unseeded one
    # can pass here and fail on the next run with no change to the code
    unseeded = [node.name for node in ast.walk(_tree(path)) if isinstance(node, ast.FunctionDef)
                and "given" in _decorator_names(node) and "seed" not in _decorator_names(node)]
    assert not unseeded, f"{path.name}: @given without @seed: {unseeded}"
