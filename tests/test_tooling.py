"""The repository's own tooling: the test suite's configuration, checked by running
pytest on a temporary test, a check for dead imports in `src/benfold`, the
tests and `bench`, one for definitions `src/benfold` never reads: private
ones, and public ones it does not export either, and one that `src/benfold`
imports no third-party package but its declared runtime dependencies."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benfold import _EXPORTS

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    # every warning is an error here; hypothesis's failure report once
    # raised a DeprecationWarning from mypy_extensions inside pytest's
    # report hook, so pytest stopped with INTERNALERROR (exit 3) and never
    # showed the failure or ran the rest of the suite
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "\n"
        "@settings(max_examples=5, database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n"
    )
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_fails.py::test_fails" in proc.stdout


def _dead_imports(path):
    # (line, name) of each name an import binds that the module never reads;
    # an import block under a comment saying it re-exports is exempt
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if node.lineno > 1 and "re-export" in lines[node.lineno - 2] and lines[node.lineno - 2].lstrip().startswith("#"):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                dead.append((node.lineno, name))
    return dead


def test_no_module_imports_a_name_it_never_reads():
    # there is no linter here; each dead import in src costs every cold command its compile and load
    paths = [path for folder in ("src/benfold", "tests", "bench") for path in sorted((ROOT / folder).glob("*.py"))]
    found = {str(path.relative_to(ROOT)): dead for path in paths if (dead := _dead_imports(path))}
    assert found == {}


def test_the_dead_import_check_sees_one(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import math\nimport os.path\nfrom sys import argv as args\n\n# re-exported\nfrom io import BytesIO\n\nprint(os.sep)\n")
    assert _dead_imports(module) == [(1, "math"), (3, "args")]


def _dead_definitions(paths, exported=()):
    # (file name, line, name) of each module-level def, class or constant
    # that no module among paths reads, by name, attribute or import, save
    # public names in exported
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for d in defined:
                if not d.startswith("__") and d not in read and (d.startswith("_") or d not in exported):
                    dead.append((name, node.lineno, d))
    return dead


def test_no_private_definition_in_src_goes_unread():
    # a helper whose last caller is deleted goes with it, and so does a
    # public name that is neither exported nor read
    assert _dead_definitions(sorted((ROOT / "src/benfold").glob("*.py")), _EXPORTS) == []


def test_the_dead_definition_check_sees_one(tmp_path):
    (tmp_path / "a.py").write_text("def _gone():\n    pass\n\n\n_USED = 1\n_UNUSED: int = 2\nclass _Lost:\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from a import _USED\n\n\ndef _self_only():\n    return _USED\n\n\ndef shown():\n    pass\n\n\nLOST = 3\n"
    )
    found = _dead_definitions(sorted(tmp_path.glob("*.py")), {"shown"})
    assert found == [
        ("a.py", 1, "_gone"),
        ("a.py", 6, "_UNUSED"),
        ("a.py", 7, "_Lost"),
        ("b.py", 4, "_self_only"),
        ("b.py", 12, "LOST"),
    ]


def _third_party_imports(paths):
    # top-level package names of every absolute import in paths, at module
    # level or inside a function, save the standard library's
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_src_imports_only_its_runtime_dependencies():
    # numpy is the one runtime dependency: a lazy import of anything else
    # would fail only on the path that reaches it
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in dependencies}
    assert declared == {"numpy"}
    assert _third_party_imports(sorted((ROOT / "src/benfold").glob("*.py"))) == declared


def test_the_third_party_import_check_sees_one(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import math\nfrom numpy import ndarray\nfrom . import sibling\n\n\ndef quad():\n    import scipy.integrate\n"
    )
    assert _third_party_imports([tmp_path / "mod.py"]) == {"numpy", "scipy"}
