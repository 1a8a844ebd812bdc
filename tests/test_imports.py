"""What importing the package and running a command loads.

The package namespace resolves its names lazily, and each CLI command imports
only the modules it calls, so a process started for one question does not
pay for the rest of the package.  The subprocess tests start a fresh
interpreter, because this one has long since imported everything.
"""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spindecay
from spindecay.core import SpinSystem
from spindecay.graphs import cycle, dumps

SRC = str(Path(spindecay.__file__).resolve().parent.parent)


def _python(code: str, *argv: str):
    """Run `code` in a fresh interpreter that imports spindecay from SRC."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = "sorted(m for m in sys.modules if m == 'spindecay' or m.startswith('spindecay.'))"


def test_a_bare_import_loads_no_submodule():
    loaded = _python(f"import json, sys; import spindecay; print(json.dumps({_LOADED}))")
    assert loaded == ["spindecay"]


def test_every_exported_name_is_its_home_modules_object():
    for module, names in spindecay._EXPORTS.items():
        home = importlib.import_module("spindecay." + module)
        for name in names:
            assert getattr(spindecay, name) is getattr(home, name), name
    assert sorted(spindecay.__all__) == sorted(spindecay._HOME)
    assert len(spindecay.__all__) == len(set(spindecay.__all__))


def test_no_module_imports_a_private_name_of_a_sibling():
    # an underscore name is its module's own; a sibling that needs it needs
    # a public interface instead
    found = []
    for path in sorted(Path(spindecay.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("spindecay")):
                found += [f"{path.name}: {alias.name} from {node.module or '.'}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from spindecay import *", namespace)
    assert set(spindecay.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(spindecay, name) for name in spindecay.__all__)


def test_dir_lists_every_exported_name():
    listed = dir(spindecay)
    assert set(spindecay.__all__) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


@pytest.mark.parametrize("name", ["no_such_name", "main", "random_regular", "_HOME_"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(spindecay, name)
    assert not hasattr(spindecay, name)


# the last output names the slow stdlib modules the command itself loaded,
# beyond any that the interpreter's start-up (site, .pth files) brought in
_RUN = f"""
import contextlib, io, json, sys
started = set(sys.modules)
from spindecay.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
slow = {{"dataclasses", "inspect"}} & (set(sys.modules) - started)
print(json.dumps([code, {_LOADED}, sorted(slow)]))
"""

_BASE = ["spindecay", "spindecay.cli", "spindecay.core", "spindecay.errors"]
_ESTIMATOR = ["spindecay.estimator", "spindecay.graphs", "spindecay.oracle", "spindecay.saw",
              "spindecay.uniqueness"]
_SYSTEM = ["--beta", "0", "--gamma", "1", "--lambda", "1"]


@pytest.mark.parametrize("argv, extra", [
    (["classify", *_SYSTEM], []),
    (["uniqueness", *_SYSTEM, "--delta", "3"], ["spindecay.uniqueness"]),
    (["thresholds", "--kind", "hardcore", "--gamma", "1", "--delta", "3"],
     ["spindecay.uniqueness"]),
    (["exact", "--graph", "{graph}", "--vertex", "0"], ["spindecay.graphs", "spindecay.oracle"]),
    (["marginal", "--graph", "{graph}", "--vertex", "0"], _ESTIMATOR),
    (["partition", "--graph", "{graph}"], _ESTIMATOR),
    (["decay", "--graph", "{graph}", "--vertex", "0", "--t-max", "3"], _ESTIMATOR),
    (["saw-dump", "--graph", "{graph}", "--vertex", "0"], ["spindecay.graphs", "spindecay.saw"]),
])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, extra):
    graph = tmp_path / "c4.json"
    graph.write_text(dumps(cycle(4), system=SpinSystem(0.0, 1.0, 1.0)))
    code, loaded, slow = _python(_RUN, *(a.format(graph=graph) for a in argv))
    assert code == 0
    assert loaded == sorted(_BASE + extra)
    # records are NamedTuples and SpinSystem a slotted class: no command pays
    # for dataclasses, whose import pulls in inspect
    assert slow == []
