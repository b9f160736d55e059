"""The package root binds its public names lazily (PEP 562): the first read
of one registers every layer in ``sys.modules`` and executes only the layer
that defines it. Only ``hv`` imports numpy."""

import ast
import json
from pathlib import Path

import pytest

import qcontext

from conftest import SRC_DIR, run_probe

LAYERS = ("bloch", "dilation", "hv", "ks", "povm")


def fresh_modules(code: str) -> list[str]:
    """The qcontext submodules loaded after running ``code`` in a fresh
    interpreter."""
    probe = run_probe(
        f"import sys; {code}; import json; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qcontext.'))))"
    )
    return json.loads(probe.stdout)


def test_names_are_their_layers_objects():
    layers = [getattr(qcontext, layer) for layer in LAYERS]
    for name in qcontext.__all__:
        found = {id(getattr(layer, name)) for layer in layers if hasattr(layer, name)}
        assert found == {id(getattr(qcontext, name))}, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from qcontext import *", namespace)
    for name in qcontext.__all__:
        assert namespace[name] is getattr(qcontext, name)


def test_dir_lists_every_public_name():
    assert set(qcontext.__all__) <= set(dir(qcontext))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcontext.no_such_name
    assert not hasattr(qcontext, "cli_main")
    # Deleted: the colorability verdict carries the parity rule.
    with pytest.raises(AttributeError, match="parity_obstruction"):
        qcontext.parity_obstruction


def test_import_alone_loads_no_layer():
    assert fresh_modules("import qcontext") == []


@pytest.mark.parametrize("access", ["qcontext.ATOL", "qcontext.parse_hypergraph",
                                    "from qcontext import nakamura_family", "qcontext.ks"])
def test_first_access_loads_every_layer(access):
    # perfbench/tracer.py reads sys.modules["qcontext.<layer>"] for all five
    # layers at install time, and its vars() walk executes those still
    # registered lazily; so the first read must register every layer.
    code = f"import qcontext; {access}" if access.startswith("qcontext.") else access
    loaded = fresh_modules(code)
    assert set(loaded) >= {f"qcontext.{layer}" for layer in LAYERS}


def test_first_access_executes_only_the_owning_layer():
    # type() reads no attribute, so it does not trigger a lazy layer's load.
    # Building the families loads no json, so the probe imports it last.
    probe = run_probe(
        "import sys, types, qcontext; qcontext.cabello_family(); qcontext.nakamura_family(); "
        f"executed = {{layer: type(sys.modules['qcontext.' + layer]) is types.ModuleType "
        f"for layer in {LAYERS!r}}}; json_loaded = 'json' in sys.modules; "
        "import json; print(json.dumps([executed, json_loaded]))"
    )
    assert probe.stderr == ""
    assert json.loads(probe.stdout) == [
        {"bloch": True, "dilation": False, "hv": False, "ks": False, "povm": True},
        False,
    ]


def test_vars_executes_a_registered_layer():
    # What perfbench/tracer.py does at install time: vars() on each layer
    # runs the lazy ones and exposes every name the root maps to them.
    probe = run_probe(
        "import json, sys, types, qcontext; qcontext.cabello_family(); "
        "out = {}\n"
        f"for layer in {LAYERS!r}:\n"
        "    module = sys.modules['qcontext.' + layer]\n"
        "    exports = set(qcontext._LAYER_NAMES[layer])\n"
        "    out[layer] = [exports <= set(vars(module)), type(module) is types.ModuleType]\n"
        "print(json.dumps(out))"
    )
    assert probe.stderr == ""
    assert json.loads(probe.stdout) == {layer: [True, True] for layer in LAYERS}


def _top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_name_map_lists_what_each_layer_defines():
    # Parsed, not imported: a misfiled or vanished name fails here without
    # executing any layer.
    assert sorted(qcontext._LAYER_NAMES) == sorted(LAYERS)
    public = set(qcontext.__all__)
    for layer, names in qcontext._LAYER_NAMES.items():
        defined = _top_level_names(SRC_DIR / "qcontext" / f"{layer}.py")
        assert set(names) == defined & public, layer
    assert len(qcontext.__all__) == sum(map(len, qcontext._LAYER_NAMES.values()))
    # ks defines no separate parity function; its verdict carries the rule.
    assert qcontext._LAYER_NAMES["ks"] == (
        "ColorabilityVerdict", "ContextHypergraph", "ParityObstruction",
        "enumerate_assignments", "parse_hypergraph",
    )


def _imports_numpy(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_hv_imports_numpy():
    sources = sorted((SRC_DIR / "qcontext").glob("*.py"))
    assert [path.name for path in sources if _imports_numpy(path)] == ["hv.py"]


def _is_name(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _int_rule_tests(path: Path) -> list[str]:
    """The enclosing function of each ``isinstance(..., bool)`` test and each
    ``... is int`` or ``... is not int`` comparison in the file."""
    tree = ast.parse(path.read_text())
    # ast.walk visits an outer function before its inner ones, so the
    # innermost function owns each node.
    owner = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            owner.update(dict.fromkeys(ast.walk(function), function.name))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_name(node.func, "isinstance"):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(_is_name(kind, "bool") for kind in kinds):
                found.append(owner.get(node, "<module>"))
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            if any(_is_name(side, "int") for side in [node.left, *node.comparators]):
                found.append(owner.get(node, "<module>"))
    return found


def test_only_tables_tests_for_bool_or_exact_int():
    # tables.check_int is the one rule for an integer argument. A JSON number
    # may be a float, so povm._is_finite_number keeps its own bool test.
    offences = {
        (path.name, function)
        for path in sorted((SRC_DIR / "qcontext").glob("*.py"))
        if path.name != "tables.py"
        for function in _int_rule_tests(path)
    }
    assert offences == {("povm.py", "_is_finite_number")}
    # The rule itself is found where it lives.
    assert _int_rule_tests(SRC_DIR / "qcontext" / "tables.py") == ["check_int"]
