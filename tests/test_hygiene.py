"""Source hygiene: every module uses what it imports, caches only through
``functools.lru_cache``, and the CLI's import stays lean.

``__init__.py`` is exempt from the unused-import check: its imports are the
package's re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hartreelab

MODULES = sorted(p for p in Path(hartreelab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    """{bound name: line} for every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_dict_caches(path):
    # a module-level dict that the module writes into is a hand-rolled cache:
    # unbounded and uncountable, where an lru_cache on the builder is neither
    tree = ast.parse(path.read_text(), filename=str(path))
    dicts = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            dicts.update(t.id for t in targets if isinstance(t, ast.Name))
    written = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            written.add(getattr(node.value, "id", None))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("setdefault", "update"):
            written.add(getattr(node.func.value, "id", None))
    caches = sorted(dicts & written)
    assert not caches, f"{path.name} caches in module-level dicts: {', '.join(caches)}"


def test_cli_import_skips_heavy_scipy_subpackages():
    # the module set, not a time: scipy.signal (and the scipy.stats it pulls
    # in) are heavy imports that no command uses
    probe = ("import sys, hartreelab.cli; "
             "print(' '.join(m for m in ('scipy.signal', 'scipy.stats') "
             "if m in sys.modules))")
    src = str(Path(hartreelab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == ""
