"""Every name a package module imports at module level is used or exported,
and no module keeps a memo that outlives a call.

A stdlib-`ast` scan of each module under src/normord but `__init__.py`
(which imports to re-export): a name bound by a module-level import must
be read somewhere in the module or listed in its `__all__`.
"""

import ast
import importlib
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "normord"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by a module-level import that the module neither reads nor exports."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


def test_the_scan_finds_an_unused_import():
    source = ("import os.path\nfrom functools import partial, reduce\n"
              "from math import lcm as least\n__all__ = ['reduce']\n"
              "def f(x: os.PathLike):\n    return least(x, 2)\n")
    assert unused_imports(source) == ["partial"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_process_global_memo(module):
    # a result must not depend on what the process computed before: no
    # functools cache and no lock guarding a table grown across calls
    names = vars(importlib.import_module(f"normord.{module[:-3]}"))
    lock = type(threading.Lock())
    assert "threading" not in names
    assert [name for name, value in names.items()
            if hasattr(value, "cache_info") or isinstance(value, lock)] == []
