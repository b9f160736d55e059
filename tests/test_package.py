"""The package root binds its public names lazily (PEP 562), and only ``hv``
imports numpy."""

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


def test_import_alone_loads_no_layer():
    assert fresh_modules("import qcontext") == []


@pytest.mark.parametrize("access", ["qcontext.ATOL", "qcontext.parse_hypergraph",
                                    "from qcontext import nakamura_family", "qcontext.ks"])
def test_first_access_loads_every_layer(access):
    # perfbench/tracer.py wraps each layer's functions at install time, so it
    # needs all five loaded and the root's names already bound.
    code = f"import qcontext; {access}" if access.startswith("qcontext.") else access
    loaded = fresh_modules(code)
    assert set(loaded) >= {f"qcontext.{layer}" for layer in LAYERS}


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
