"""Every countreg module parses as the oldest Python that pyproject declares.

CI runs one Python, newer than the floor, so syntax the floor lacks
(``except*`` and PEP 695 generics, say) would pass CI and break an install
on the floor.  ``ast.parse`` with ``feature_version`` set to the floor
refuses such syntax.  It checks syntax only, not the standard library calls
a module makes.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "countreg").glob("*.py"))


def declared_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


def test_the_parse_refuses_syntax_newer_than_the_floor():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=declared_floor())


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=declared_floor())
