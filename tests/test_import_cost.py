"""Importing oplex adds little to numpy's import: its records generate no
code at import, and the stdlib modules that only report writers and error
paths use are loaded where they are used. The package root imports
nothing, so each module has to import on its own."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import oplex

SRC = str(Path(oplex.__file__).resolve().parents[1])
MODULES = sorted(p.stem for p in Path(oplex.__file__).parent.glob("*.py") if p.stem != "__init__")

# Run in a fresh interpreter, so that no module an earlier test imported is
# already loaded. Prints the modules the import adds after numpy's and every
# dataclass defined under oplex.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy
before = set(sys.modules)
import oplex.harness, oplex.verify
added = sorted(set(sys.modules) - before)
import dataclasses
records = sorted(
    f"{name}.{attr}"
    for name, module in list(sys.modules.items())
    if name == "oplex" or name.startswith("oplex.")
    for attr, obj in vars(module).items()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == name
)
print(repr((added, records)))
"""

# Prints the modules that importing sys.argv[2] adds to a fresh interpreter.
IMPORT_ALONE = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
importlib.import_module(sys.argv[2])
print(repr(sorted(set(sys.modules) - before)))
"""


def probe(script, *args):
    done = subprocess.run(
        [sys.executable, "-c", script, SRC, *args], capture_output=True, text=True, check=True
    )
    return ast.literal_eval(done.stdout)


def test_import_adds_no_report_module_and_one_dataclass():
    added, records = probe(PROBE)
    assert {"hashlib", "json", "csv"} & set(added) == set()
    assert records == ["oplex.netcore.GeneratorSpec"]


def test_root_import_adds_only_the_package():
    assert probe(IMPORT_ALONE, "oplex") == ["oplex"]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    assert f"oplex.{module}" in probe(IMPORT_ALONE, f"oplex.{module}")
