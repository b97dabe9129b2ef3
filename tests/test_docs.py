"""The docs name only things that exist.

Every backticked `<module>.<name>` in the README and in the package's
docstrings, for each module the benchmark traces, must be an attribute
of `acceldse.<module>` (dotted paths followed) or a config key.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from acceldse.config import KEYS

ROOT = Path(__file__).resolve().parent.parent


def _traced_modules() -> tuple[str, ...]:
    """`MODULES` of perfbench/workloads.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    [value] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["MODULES"]]
    return ast.literal_eval(value)


REFERENCE = re.compile(
    rf"`((?:{'|'.join(_traced_modules())})\.[A-Za-z_][\w.]*)`")


def _docstrings(path: Path) -> str:
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return "\n".join(
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, nodes))


SOURCES = {"README.md": (ROOT / "README.md").read_text(),
           **{f"src/acceldse/{path.name}": _docstrings(path)
              for path in sorted((ROOT / "src" / "acceldse").glob("*.py"))}}
REFERENCES = sorted({(source, ref) for source, text in SOURCES.items()
                     for ref in REFERENCE.findall(text)})


def _resolves(ref: str) -> bool:
    if ref in KEYS:
        return True
    module, *path = ref.split(".")
    obj = importlib.import_module(f"acceldse.{module}")
    for name in path:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_and_docstrings_both_name_modules():
    assert {source == "README.md" for source, _ in REFERENCES} == {True, False}


@pytest.mark.parametrize("source,ref", REFERENCES,
                         ids=[f"{s}:{r}" for s, r in REFERENCES])
def test_doc_reference_exists(source, ref):
    assert _resolves(ref), f"{source} names `{ref}`, which does not exist"
