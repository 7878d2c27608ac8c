import json
import runpy
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
SELECT = Path(__file__).parent.parent / "scripts" / "select_dataset_subset.py"


@pytest.mark.parametrize(
    "ks, reached",
    [
        # The k = 1 cycle of the contact layers is SIA with 4 transient
        # nodes, so not primitive, and no removal keeps it primitive.
        (["1", "2"], False),
        # Layer A and both cycles are primitive and layer B is not: the goal
        # holds before any node is removed.
        (["2", "3"], True),
    ],
)
def test_select_dataset_subset_reports_its_goal(tmp_path, monkeypatch, capsys, ks, reached):
    main = runpy.run_path(str(SELECT))["main"]
    out = tmp_path / "extract"
    layers = ["--layer-a", str(DATA / "contact_layer_a.txt")]
    layers += ["--layer-b", str(DATA / "contact_layer_b.txt")]
    argv = [SELECT.name, *layers, "--n", "8", "--ks", *ks, "--min-size", "4", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert main() == (0 if reached else 1)
    report = json.loads(Path(f"{out}_report.json").read_text())
    assert json.loads(capsys.readouterr().out) == report
    profile = report["final_profile"]
    assert report["goal_reached"] is reached
    assert profile["a_primitive"] and not profile["b_primitive"]
    assert profile["cycles_primitive"] is reached
    assert report["removed_nodes"] == [] and report["final_size"] == 8
