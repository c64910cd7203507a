"""Every exception ``src/aerotrace`` raises by name is an ``AerotraceError``."""
import ast
import builtins
import importlib
from pathlib import Path

import pytest

from aerotrace.errors import AerotraceError, DataError

SRC = Path(__file__).resolve().parent.parent / "src" / "aerotrace"


def foreign_raises(source: str, namespace: dict) -> list[str]:
    """``raise Name(...)`` statements whose ``Name`` is not an ``AerotraceError``."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)):
            name = node.exc.func.id
            cls = namespace.get(name, getattr(builtins, name, None))
            if not (isinstance(cls, type) and issubclass(cls, AerotraceError)):
                bad.append(f"line {node.lineno}: {name}")
    return bad


def test_detector_flags_only_foreign_errors():
    source = ("def f(x):\n"
              "    if x:\n        raise DataError('bad')\n"
              "    try:\n        g()\n    except OSError as exc:\n        raise exc\n"
              "    raise ValueError('no') from None\n")
    assert foreign_raises(source, {"DataError": DataError}) == ["line 8: ValueError"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_raised_errors_are_package_errors(path):
    module = importlib.import_module("aerotrace" if path.stem == "__init__"
                                     else f"aerotrace.{path.stem}")
    assert foreign_raises(path.read_text(), vars(module)) == []
