"""The docs name only things that exist.

In the README and in the package's docstrings, every backticked
`<module>.<name>`, for each module of the package, must be an
attribute of `acceldse.<module>` (dotted paths followed) or a config
key; every backticked CamelCase name an attribute of some `acceldse`
module or a builtin; every backticked `hw.<path>` a config key or an
attribute path of `load_hardware({})`; and every backticked
`model.<name>` a config key.
"""

import ast
import builtins
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import acceldse
from acceldse.cli import main
from acceldse.config import KEYS, load_hardware

ROOT = Path(__file__).resolve().parent.parent
MODULES = [info.name for info in pkgutil.iter_modules(acceldse.__path__)]
PACKAGE = [importlib.import_module(f"acceldse.{name}") for name in MODULES]
HW = load_hardware({})
# the README's example of a misspelt key, which config rejects
MISSPELT = {("README.md", "hw.corez")}

REFERENCE = re.compile(
    rf"`((?:{'|'.join(MODULES)}|hw|model)\.[A-Za-z_][\w.]*"
    r"|[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`")


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
                     for ref in REFERENCE.findall(text)} - MISSPELT)


def _resolves(ref: str) -> bool:
    if ref in KEYS:
        return True
    head, *path = ref.split(".")
    if not path:  # a CamelCase name
        return any(hasattr(module, head) for module in (builtins, *PACKAGE))
    if head == "model":  # names a key, or nothing
        return False
    obj = HW if head == "hw" else importlib.import_module(f"acceldse.{head}")
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


def _keys(value):
    """Every key of a JSON value, at any depth."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)


def test_readme_lists_every_key_of_the_json_record(capsys):
    assert main(["simulate", "--config", str(ROOT / "configs" / "baseline.conf"),
                 "--decode-mode", "mean", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    readme = SOURCES["README.md"]
    start = readme.index("`simulate --format json` prints one record")
    listed = set(re.findall(r"`(\w+)`",
                            readme[start:readme.index("`--format csv`", start)]))
    assert set(_keys(record)) - listed == set()
