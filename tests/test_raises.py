"""Every exception ``src/aerotrace`` raises by name is an ``AerotraceError``, and
its only ``AerotraceError`` subclasses are the CLI's outcomes and the ones some
``except`` clause tells apart."""
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


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def uncaught_error_classes(modules: dict[str, str]) -> list[str]:
    """``module:Class`` of each ``AerotraceError`` subclass defined in ``modules``
    that is neither ``DataError`` nor ``BackendError`` and that no ``except``
    clause in ``modules`` names."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    bases: dict[str, set[str]] = {}
    caught: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = set().union(*map(_names, node.bases))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _names(node.type)

    def is_error(name: str) -> bool:
        return name == "AerotraceError" or any(map(is_error, bases.get(name, ())))

    return [f"{module}:{node.name}" for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and is_error(node.name)
            and node.name not in {"AerotraceError", "DataError", "BackendError", *caught}]


def test_uncaught_detector_flags_only_dead_subclasses():
    lib = ("class AerotraceError(Exception):\n    pass\n"
           "class DataError(AerotraceError):\n    pass\n"
           "class BackendError(AerotraceError):\n    pass\n"
           "class Retry(errors.BackendError):\n    pass\n"
           "class Dead(DataError):\n    pass\n"
           "class Deeper(Dead):\n    pass\n"
           "class Dotted(errors.DataError):\n    pass\n"
           "class Local(AerotraceError):\n    pass\n"
           "class Unrelated(ValueError):\n    pass\n"
           "try:\n    pass\nexcept Local:\n    pass\n")
    user = ("try:\n    g()\nexcept (lib.Retry, OSError):\n    pass\n"
            "except Unrelated:\n    raise Dead('x')\n")
    assert uncaught_error_classes({"lib": lib, "user": user}) == [
        "lib:Dead", "lib:Deeper", "lib:Dotted"]


def test_error_subclasses_are_caught_by_name():
    # One class per CLI outcome; a subclass only where src/ tells it apart.
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert uncaught_error_classes(modules) == []
