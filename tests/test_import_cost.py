"""Importing oplex adds little to numpy's import: its records generate no
code at import, and the stdlib modules that only report writers and error
paths use are loaded where they are used."""

import ast
import subprocess
import sys
from pathlib import Path

import oplex

# Run in a fresh interpreter, so that no module an earlier test imported is
# already loaded. Prints the modules the import adds after numpy's and every
# dataclass defined under oplex.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy
before = set(sys.modules)
import oplex, oplex.verify
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


def test_import_adds_no_report_module_and_one_dataclass():
    src = str(Path(oplex.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", PROBE, src], capture_output=True, text=True, check=True
    )
    added, records = ast.literal_eval(done.stdout)
    assert {"hashlib", "json", "csv"} & set(added) == set()
    assert records == ["oplex.netcore.GeneratorSpec"]
