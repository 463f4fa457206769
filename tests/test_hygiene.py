"""Source hygiene: every module-level import of the package is used, no
function re-imports a module that its file already imports at the top, and
every top-level function and class of the package, and every method of its
classes but the dunders, is named in the package or the benchmark
(``perfbench/``) outside its own definition: code that only tests call is
dead, and so is a private helper that its callers outlived.

The repository has no lint step; this test is its guard against imports
and definitions that outlive the code that needed them.  Lazy imports of
modules the file does not import at the top (numpy) stay allowed: they keep
start-up cheap.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latheights"
MODULES = sorted(SRC.glob("*.py"))
CORPUS = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))
UNCALLED = {
    # kept with no caller for the exact channel signs in any degree (ROADMAP item 3)
    ("algreal", "compare_exact"),
    # the paper's heights H_P and H_S, stated as library API: the counts
    # decide them without forming them (integer sums, ``s_height_le``)
    ("funcfield", "DivisorLattice.p_height"),
    ("sunits", "SUnitContext.s_height"),
}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name "a"
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def _import_keys(node):
    """Modules an import statement reads: "numpy", ".quat", ".linalg"."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    dots = "." * node.level
    if node.module is None:  # "from . import linalg" reads the submodule
        return {dots + alias.name for alias in node.names}
    return {dots + node.module}


def _redundant_local_imports(path):
    tree = ast.parse(path.read_text())
    top = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            top |= _import_keys(node)
    nested = [
        node
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    return sorted({(n.lineno, key) for n in nested for key in _import_keys(n) & top})


def _definitions(tree):
    """(label, node) for each top-level function and class, and for each
    method of a top-level class, public or private but not a dunder,
    labelled "Class.method"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield "%s.%s" % (node.name, item.name), item


def _unreferenced_definitions(path, corpus):
    """Top-level functions and classes of path, and non-dunder methods of
    its classes, whose name occurs in no file of corpus except in their own
    definition.  A plain text match, so names used only in strings (the
    perfbench tracer's targets) count as used, and a method counts as used
    wherever any attribute or function of its name is."""
    lines = path.read_text().splitlines()
    others = [p.read_text() for p in corpus if p != path]
    out = []
    for label, node in _definitions(ast.parse("\n".join(lines))):
        pattern = re.compile(r"\b%s\b" % re.escape(node.name))
        own = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno:])
        if not any(pattern.search(text) for text in [own] + others):
            out.append((node.lineno, label))
    return out


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_redundant_local_imports(path):
    assert _redundant_local_imports(path) == []


def test_redundant_local_import_detected(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import math\nfrom . import linalg\nfrom .quat import a\n\n"
        "def f():\n    import math\n    import numpy\n    from .quat import b\n"
        "    from . import linalg\n    from .reals import c\n"
    )
    assert _redundant_local_imports(src) == [(6, "math"), (8, ".quat"), (9, ".linalg")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_definition_is_referenced(path):
    found = _unreferenced_definitions(path, CORPUS)
    assert [name for _, name in found if (path.stem, name) not in UNCALLED] == []


def test_unreferenced_definition_detected(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "class Used:\n    pass\n\n\nclass Orphan:\n    pass\n\n\n"
        "def helper():\n    return Used()\n\n\ndef stale(rows):\n    return rows\n\n\n"
        "def traced():\n    pass\n\n\ndef recursive(n):\n    return recursive(n - 1)\n\n\n"
        "class Box:\n    def __init__(self):\n        self.v = 0\n\n"
        "    def get(self):\n        return self._private()\n\n"
        "    def dead(self):\n        return self.dead()\n\n"
        "    def _private(self):\n        return self.v\n\n"
        "    def _left_behind(self, c):\n        return c\n\n"
        "    def __repr__(self):\n        return 'Box'\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from m import helper\nTARGETS = ['m.traced']\nBox().get()\n")
    assert _unreferenced_definitions(mod, [mod, user]) == [
        (5, "Orphan"), (13, "stale"), (21, "recursive"), (32, "Box.dead"),
        (38, "Box._left_behind")]


def _mpmath_readers(path):
    """The top-level definitions of path that read a name bound by an
    import from mpmath, and "<module>" for such a read outside them."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names
                      if a.name.split(".")[0] == "mpmath"}
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "mpmath"):
            names |= {a.asname or a.name for a in node.names}
    return {getattr(node, "name", "<module>") for node in tree.body
            if not isinstance(node, (ast.Import, ast.ImportFrom))
            and any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))}


# reals owns every enclosure; the one other place that makes intervals is
# nf's Horner evaluation of a ball, and no other module (algreal included)
# reads mpmath
MPMATH_READERS = {"nf": {"_eval_at"}}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "reals"],
                         ids=lambda p: p.stem)
def test_only_reals_and_nf_horner_build_intervals(path):
    assert _mpmath_readers(path) == MPMATH_READERS.get(path.stem, set())


def test_verify_cnt_lem_loads_no_mpmath():
    """The counting-lemma suite is exact end to end: run in a fresh
    interpreter, it never imports mpmath, which only balls and intervals
    need (``reals._mp``, ``nf._eval_at``)."""
    code = ("import contextlib, io, sys\n"
            "from latheights import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', 'cnt-lem', '--seed', '42']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["[]"]


def test_mpmath_reader_detected(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "import math\nimport mpmath.libmp as lm\nfrom mpmath import iv as ivx\n\n"
        "def f():\n    return ivx.mpf(1)\n\n\ndef g():\n    return math.pi\n\n\n"
        "class C:\n    def h(self):\n        return lm.fzero\n\n\nX = ivx.pi\n"
    )
    assert _mpmath_readers(mod) == {"f", "C", "<module>"}


def _readers(path, name):
    """The top-level definitions of path, other than name's own, that read
    name, as a plain name or an attribute, and "<module>" for such a read
    outside them."""
    tree = ast.parse(path.read_text())
    return {getattr(node, "name", "<module>") for node in tree.body
            if getattr(node, "name", None) != name
            and not isinstance(node, (ast.Import, ast.ImportFrom))
            and any(isinstance(n, ast.Name) and n.id == name
                    or isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))}


def test_float_screen_is_the_one_slab_walk():
    """Every exact walk is the line kernel ``line_runs``; the slab walk
    ``_box_slabs`` serves only the float screen of the ball lattices."""
    readers = {(path.stem, reader) for path in MODULES for reader in _readers(path, "_box_slabs")}
    assert readers == {("lattice", "_enumerate_generic")}


def test_reader_detected(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from .lattice import walk\n\n\ndef walk(n):\n    return walk(n - 1)\n\n\n"
        "def f():\n    return walk(1)\n\n\ndef g():\n    return lattice.walk\n\n\n"
        "class C:\n    def h(self):\n        return [walk]\n\n\nX = walk\n"
    )
    assert _readers(mod, "walk") == {"f", "g", "C", "<module>"}


def _tracer_groups():
    """GROUPS of perfbench/tracer.py, loaded from its file (the benchmark
    directory is not a package on the test path)."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GROUPS


def test_every_tracer_target_resolves():
    """The benchmark's tracer rebinds these names; a renamed or removed one
    would otherwise show only when the traced benchmark runs."""
    missing = []
    for group, targets in _tracer_groups().items():
        for modname, attr in targets:
            owner = importlib.import_module("latheights." + modname)
            if "." in attr:  # a method, rebound on its class
                clsname, meth = attr.split(".")
                owner = getattr(owner, clsname, None)
                attr = meth
                found = owner is not None and attr in vars(owner)
            else:
                found = callable(getattr(owner, attr, None))
            if not found:
                missing.append((group, modname, attr))
    assert missing == []
