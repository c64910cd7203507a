"""Import hygiene: every module-level import in ``src/aerotrace`` is used by its
module, every name ``src/aerotrace`` defines is used outside tests, no command
loads scipy, and every name the benchmark's tracer wraps still exists."""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from aerotrace.fseq import write_fseq
from aerotrace.series import format_csv_series

from conftest import make_series

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "aerotrace"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom typing import Iterable as It, Sequence\n"
              "def f(xs: It) -> float:\n    return os.path.sep\n")
    assert unused_imports(source) == ["line 2: math", "line 4: Sequence"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def _loaded_names(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function, class and
    constant, and of each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def unreferenced_definitions(modules: dict[str, str], users: list[str],
                             extra_refs: list[str]) -> list[str]:
    """``module:name`` of each definition in ``modules`` whose name is loaded
    nowhere outside its own definition: not in ``modules``, not in the
    ``users`` sources, and not in ``extra_refs``."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    refs = Counter(extra_refs)
    for tree in [*trees.values(), *map(ast.parse, users)]:
        refs.update(_loaded_names(tree))
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rpartition(".")[2]
            if name != "__version__" and refs[name] == Counter(_loaded_names(node))[name]:
                unused.append(f"{module}:{qualname}")
    return unused


def test_unreferenced_detector_flags_only_dead_names():
    lib = ("__version__ = '1'\nLIMIT = 3\nDEAD = 4\nSELF = SELF_BASE = 1\n"
           "def used():\n    return LIMIT\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "class Box:\n    def __len__(self):\n        return 0\n"
           "    def kept(self):\n        return self.helper()\n"
           "    def helper(self):\n        return Box\n"
           "    def traced(self):\n        pass\n"
           "    def dead(self):\n        self.dead = 1\n")
    user = ("from lib import Box, used\nused()\nBox().kept()\nSELF_BASE\n"
            "DEAD = 5\nBox().dead = 2\n")
    assert unreferenced_definitions({"lib": lib}, [user], ["Box", "traced"]) == [
        "lib:DEAD", "lib:SELF", "lib:recursive", "lib:Box.dead"]


def test_no_test_only_definitions():
    # A name only tests use is dead weight in the package; move it into the
    # tests or delete it. The tracer's ``module:attr`` targets count as uses.
    extra = [part for target, _, _ in _load_tracer().LAYERS
             for part in target.partition(":")[2].split(".")]
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    users = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced_definitions(modules, users, extra) == []


def test_commands_load_no_scipy(tmp_path):
    # Importing scipy cost every command more start-up time than its work.
    # One fresh interpreter runs `count` and `analyze calibrate`, so a lazy
    # import inside either command shows up as well.
    frames = np.zeros((40, 16, 24), dtype=np.uint8)
    for t in range(20, 40):
        frames[t, 6:10, t - 18:t - 14] = 200
    write_fseq(tmp_path / "scene.fseq", frames, fps=10)
    for name, offset in (("ref.csv", 10), ("test.csv", 11)):
        series = make_series([offset + i % 7 for i in range(120)], step_s=60)
        (tmp_path / name).write_text(format_csv_series(series, "timestamp,value"))
    code = ("import sys\n"
            "from aerotrace import cli\n"
            "d = sys.argv[1]\n"
            "rcs = [cli.main(['count', '--in', f'{d}/scene.fseq', '--line', '12,0,12,16',\n"
            "                 '--min-area', '4', '--out', f'{d}/count.csv']),\n"
            "       cli.main(['analyze', 'calibrate', '--ref', f'{d}/ref.csv',\n"
            "                 '--test', f'{d}/test.csv', '--out', f'{d}/report.txt'])]\n"
            "print(rcs, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "count.csv").read_text().endswith("\n1970-01-01T00:00:00Z,0,1,1\n")
    assert "n_points=" in (tmp_path / "report.txt").read_text()


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps each ``module:attr`` of its LAYERS table; a
    # refactor that deletes or moves one of them breaks the traced benchmark.
    tracer = _load_tracer()
    missing = []
    for target, _, _ in tracer.LAYERS:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        found = vars(owner) if isinstance(owner, type) else dir(owner)
        if attr not in found:
            missing.append(target)
    assert tracer.LAYERS
    assert missing == []
