"""Source hygiene: every module uses what it imports, caches only through
``functools.lru_cache``, imports scipy only for the kernel oracle, the CLI
loads only what a command runs (no argparse, and the kernel oracle only
for ``kernel``), and the lazy package resolves every exported name, each
with a caller unless it is listed.
"""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hartreelab

MODULES = sorted(Path(hartreelab.__file__).parent.glob("*.py"))


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


def _scipy_imports(node, owner=None):
    """(enclosing function, line) of every scipy import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = []
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            yield owner, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from _scipy_imports(child, inner)


def test_scipy_serves_only_the_kernel_oracle():
    # the Gauss-Jacobi rules and the QUADPACK reference cross-check the
    # angular kernel; every other path runs on numpy alone
    oracle = {("kernel.py", "_build_rule"), ("kernel.py", "_kernel_quad")}
    found = {(path.name, owner, line) for path in MODULES
             for owner, line in _scipy_imports(ast.parse(path.read_text()))}
    stray = sorted(f"{name}:{line} ({owner or 'module level'})"
                   for name, owner, line in found if (name, owner) not in oracle)
    assert not stray, f"scipy imported outside the kernel oracle: {', '.join(stray)}"
    assert {(name, owner) for name, owner, _ in found} == oracle


_PROBE = """
import contextlib, io, json, sys
import hartreelab.cli
at_import = [m for m in sys.modules if m in ("argparse", "gettext")
             or m == "scipy" or m.startswith("scipy.")]
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [hartreelab.cli.main(argv) for argv in (
        ["constants"],
        ["bubble-check", "--per-decade", "16", "--tolerance", "1"],
        ["hls-check", "--per-decade", "16"])]
print(json.dumps({"at_import": at_import, "codes": codes,
                  "by_main": sorted(set(sys.modules) - before)}))
"""


def test_cli_import_skips_heavy_scipy_subpackages():
    # the module set, not a time: importing the CLI loads numpy, and neither
    # scipy nor argparse and its gettext, and the paper's two checks and the
    # constants then import nothing at all, so no lazy import of the
    # package lands inside a timed run
    doc = _probe(_PROBE)
    assert doc["codes"] == [0, 0, 0]
    assert doc["at_import"] == []
    assert doc["by_main"] == []


_SOLVER_PROBE = """
import contextlib, io, json, sys
import hartreelab.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [hartreelab.cli.main(argv) for argv in (
        ["delaunay", "--nodes", "128"],
        ["moving-spheres", "--field", "bubble", "--x-offset", "0.3"],
        ["asymptotics"])]
print(json.dumps({"codes": codes, "scipy": [m for m in sys.modules
                                             if m == "scipy" or m.startswith("scipy.")]}))
"""

# the set-up and one job of the benchmark's warm library process
_BRANCH_PROBE = """
import json, sys
import numpy as np
from hartreelab import (Field, ProblemParams, TestSetSpec, asymptotics_report,
                        critical_radius, default_radii, dispersion_root,
                        equality_fit, find_delaunay, kernel_table, make_bubble,
                        make_singular_power, nonlinearity_for)
P = ProblemParams(3, 2.0)
nl, kt = nonlinearity_for(P), kernel_table(P)
u_c, l_0 = dispersion_root(P, nl, kt)
ok = [find_delaunay(P, nl, 0.5 * u_c, 1.05 * l_0, 30, kt=kt, n_nodes=N).converged
      for N in (512, 1024)]
mu = critical_radius(make_singular_power(P), np.array([0.5, 0.0, 0.0]),
                     TestSetSpec(seed=3), alpha=P.alpha)
ok.append(abs(mu - 0.5) <= 1e-3)
center = np.array([0.3, -0.1, 0.2])
cloud = center + np.random.Generator(np.random.Philox(4)).normal(size=(400, 3)) * 1.5
ok.append(equality_fit(make_bubble(P, center=center, mu=2.2), cloud).note == "bubble")
bub = make_bubble(P)
u = Field(n=3, fn=lambda pts: (1.0 + np.linalg.norm(pts, axis=1)) * bub(pts))
rep = asymptotics_report(u, default_radii(1e-3, 2.0), P, center=np.zeros(3))
ok.append(not rep.fits[0].rejected)
print(json.dumps({"ok": ok, "scipy": [m for m in sys.modules
                                       if m == "scipy" or m.startswith("scipy.")]}))
"""


_PROFILE_PROBE = """
import json, sys
import numpy as np
from hartreelab import CylinderProfile
t = 0.1 * np.arange(-100, 100)
profiles = (CylinderProfile(t, 0.7 + 0.1 * np.cos(np.pi * t / 10.0), periodic=True),
            CylinderProfile(t, np.exp(-t * t)))
values = [float(U(np.array([0.05, 3.33]))[1]) for U in profiles]
print(json.dumps({"values": values, "scipy": [m for m in sys.modules
                                               if m == "scipy" or m.startswith("scipy.")]}))
"""


def _probe(script):
    src = str(Path(hartreelab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env)
    return json.loads(out.stdout)


_MODULE_PROBE = """
import contextlib, io, json, sys
import hartreelab.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [hartreelab.cli.main(argv) for argv in ARGVS]
print(json.dumps({"codes": codes, "loaded": sorted(m for m in sys.modules
                                                    if m.startswith("hartreelab."))}))
"""


@pytest.mark.parametrize("argvs, present, absent", [
    ([["kernel", "--points", "11", "--pairs", "10"]], "hartreelab.kernel",
     "hartreelab.cylinder"),
    ([["constants"], ["bubble-check", "--per-decade", "16", "--tolerance", "1"],
      ["hls-check", "--per-decade", "16"], ["delaunay", "--nodes", "128"],
      ["moving-spheres", "--field", "bubble", "--x-offset", "0.3"], ["asymptotics"]],
     "hartreelab.cylinder", "hartreelab.kernel"),
], ids=["kernel", "the-other-six"])
def test_only_the_kernel_command_loads_the_kernel_oracle(argvs, present, absent):
    # the module set, not a time: the quadratures of the kernel are the
    # kernel command's alone, and it samples Khat without the cylinder solver
    doc = _probe(_MODULE_PROBE.replace("ARGVS", json.dumps(argvs)))
    assert doc["codes"] == [0] * len(argvs)
    assert present in doc["loaded"] and absent not in doc["loaded"]


def test_solver_commands_load_no_scipy():
    # the Delaunay solver, the moving spheres with their bubble fit, and the
    # asymptotic scans run on numpy alone
    doc = _probe(_SOLVER_PROBE)
    assert doc["codes"] == [0, 0, 0]
    assert doc["scipy"] == []


def test_library_solvers_load_no_scipy():
    # not just the set-up: the first solves load nothing that set-up skipped
    doc = _probe(_BRANCH_PROBE)
    assert all(doc["ok"])
    assert doc["scipy"] == []


def test_cylinder_profiles_evaluate_off_node_without_scipy():
    # a profile between its nodes is its trigonometric interpolant, by numpy
    doc = _probe(_PROFILE_PROBE)
    assert doc["values"] == pytest.approx([0.7 + 0.1 * math.cos(0.333 * math.pi),
                                           math.exp(-3.33 ** 2)], abs=1e-6)
    assert doc["scipy"] == []


# ============================================================
# the lazy package
# ============================================================


def test_lazy_table_covers_exactly_all():
    names = [name for names in hartreelab._EXPORTS.values() for name in names]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(hartreelab.__all__)


def test_lazy_names_resolve_to_their_home_objects():
    for module, names in hartreelab._EXPORTS.items():
        home = importlib.import_module(f"hartreelab.{module}")
        for name in names:
            assert getattr(hartreelab, name) is getattr(home, name), name
    assert set(hartreelab.__all__) <= set(dir(hartreelab))
    with pytest.raises(AttributeError):
        hartreelab.no_such_name


# exported names no command or library path calls, each kept for a reason
_UNCALLED = {
    "kelvin_transform": "the paper's Kelvin transform",
    "blowup_rescale": "the paper's blow-up frame",
    "to_cylinder": "the paper's log-cylindrical reduction",
    "spherical_average": "the paper's spherical mean",
    "upper_bound_scan": "the paper's upper-bound predicate",
    "symmetry_ratio": "the paper's symmetry predicate",
    "fd_laplacian": "the reference the tests compare closed forms against",
    "bubble_image": "the reference the tests compare Kelvin images against",
}


def _referenced(tree, skip):
    """Names and attributes read anywhere in tree outside a definition named skip."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        found |= _referenced(node, skip)
    return found


def test_every_export_has_a_caller():
    # an export only the tests reach is surface to maintain for nothing: it
    # needs a caller in src/ besides its own body, or one in perfbench/
    perfbench = Path(hartreelab.__file__).parents[2] / "perfbench"
    benched = set().union(*(_referenced(ast.parse(p.read_text()), None)
                            for p in perfbench.rglob("*.py")))
    trees = [ast.parse(path.read_text()) for path in MODULES]
    uncalled = sorted(name for name in hartreelab.__all__ if name not in benched
                      and not any(name in _referenced(tree, name) for tree in trees))
    assert uncalled == sorted(_UNCALLED)


def _defaulted(fn):
    """The names of fn's parameters that have a default."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    names = positional[len(positional) - len(fn.args.defaults):]
    return names + [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if d is not None]


def test_every_keyword_has_a_caller():
    # a default that no call outside its own function overrides is a
    # constant with a settable name: every one needs a caller in src/ or
    # perfbench/, by keyword or by position
    perfbench = Path(hartreelab.__file__).parents[2] / "perfbench"
    trees = [ast.parse(p.read_text()) for p in MODULES + sorted(perfbench.rglob("*.py"))]
    exported = set(hartreelab.__all__) - set(_UNCALLED)
    defs = {node.name: node for tree in trees[:len(MODULES)] for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in exported}
    own = {name: {id(node) for node in ast.walk(fn)} for name, fn in defs.items()}
    passed = set()
    for call in (node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name not in defs or id(call) in own[name]:
            continue
        fn = defs[name]
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        passed.update((name, p) for p in positional[:len(call.args)])
        passed.update((name, kw.arg) for kw in call.keywords)
    unset = sorted(f"{name}.{p}" for name, fn in defs.items() for p in _defaulted(fn)
                   if (name, p) not in passed)
    assert unset == []


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hartreelab import *", namespace)
    assert set(hartreelab.__all__) <= set(namespace)
