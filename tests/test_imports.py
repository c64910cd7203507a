"""Import hygiene: every module-level import in ``src/aerotrace`` is used by its
module, importing the CLI leaves ``scipy.optimize`` unloaded, and every name the
benchmark's tracer wraps still exists."""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize adds 12-18% to the peak RSS of a `count` run.
    code = "import sys, aerotrace.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps each ``module:attr`` of its LAYERS table; a
    # refactor that deletes or moves one of them breaks the traced benchmark.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
