"""The values that README.md states for the package's constants are the
values the code has.

README states a ceiling or threshold as ``NAME`` = value, with the module
named or not, or as "capped at N (``module.NAME``...".  Each statement is
read from the text and compared with the module-level constant it names.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import quadnorm

README = Path(__file__).resolve().parent.parent / "README.md"

STATED = [
    "MAX_CONDUCTOR",
    "MAX_TABLE_CONDUCTOR",
    "MAX_TABLE_DEGREE",
    "KRONECKER_MAX_CONDUCTOR",
    "MAX_QMAX",
    "MAX_WORKERS",
    "MAX_RADICAND",
]


def _statements(text: str) -> list[tuple[str | None, str, int]]:
    """(module or None, name, value) for each value README states."""
    found = []
    for module, name, value in re.findall(
        r"`(?:(\w+)\.)?([A-Z][A-Z0-9_]*)`\s+=\s+(\d+(?:[ ^]\d+)*)", text
    ):
        base, _, exponent = value.replace(" ", "").partition("^")
        found.append((module or None, name, int(base) ** int(exponent or 1)))
    for value, module, name in re.findall(
        r"capped\s+at\s+(\d+)\s+\(`(\w+)\.([A-Z][A-Z0-9_]*)`", text
    ):
        found.append((module, name, int(value)))
    return found


def _defining_modules(name: str) -> list[str]:
    modules = []
    for info in pkgutil.iter_modules(quadnorm.__path__):
        module = importlib.import_module(f"quadnorm.{info.name}")
        if name in vars(module):
            modules.append(info.name)
    return modules


def test_readme_states_the_constants():
    names = {name for _, name, _ in _statements(README.read_text())}
    assert set(STATED) <= names, set(STATED) - names


def test_stated_values_are_the_code_values():
    for module, name, value in _statements(README.read_text()):
        modules = [module] if module else _defining_modules(name)
        assert modules, f"README states {name}, which no module defines"
        for m in modules:
            code = vars(importlib.import_module(f"quadnorm.{m}"))[name]
            assert code == value, f"README states {m}.{name} = {value}, the code {code}"
