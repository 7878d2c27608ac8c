"""Golden reports: what the console commands and scripts write at CI's arguments.

    PYTHONPATH=src python tests/record_golden.py

writes them to tests/golden/, one file per report:

- `oplex verify` for each suite;
- `oplex analyze --dump` on the contact layers (n = 8, x0 seed 3): switching
  at k = 0, 1 and 2, merged at alpha = 0.5;
- the switching and merged sweep scripts' reports;
- a single-layer sweep on the primitive ring circulant(12, [1, 2]) (x0 seed
  3, opinions recorded), so its decay law is armed;
- the selection script's extract and report at `--ks 2 3`.

tests/test_golden.py regenerates them in a temporary directory and compares.
Re-record only for an intended change of output, and say so with it.
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SCRIPTS = TESTS.parent / "scripts"
LAYER_A = str(TESTS / "data" / "contact_layer_a.txt")
LAYER_B = str(TESTS / "data" / "contact_layer_b.txt")
SINGLE_SWEEP = {
    "model": {"kind": "single"},
    "layers": [{"kind": "circulant", "n": 12, "offsets": [1, 2]}],
    "x0": {"kind": "uniform", "seed": 3},
    "record_opinions": True,
}
ANALYZE = ["analyze", "--layer1", LAYER_A, "--layer2", LAYER_B, "--n", "8", "--x0", "3", "--dump"]


def _cli(argv: list[str]) -> str:
    from oplex.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def _script(name: str, argv: list[str]) -> None:
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main()
    finally:
        sys.argv = saved


def record(out: Path) -> None:
    """Write every golden report under out."""
    from oplex.harness import run_experiment

    out.mkdir(parents=True, exist_ok=True)
    for suite in ("examples", "bounds", "perturbation"):
        (out / f"verify_{suite}.txt").write_text(_cli(["verify", "--suite", suite]))
    for k in ("0", "1", "2"):
        report = _cli([*ANALYZE, "--mode", "switching", "--k", k])
        (out / f"analyze_switching_k{k}.json").write_text(report)
    report = _cli([*ANALYZE, "--mode", "merged", "--alpha", "0.5"])
    (out / "analyze_merged_alpha0.5.json").write_text(report)
    sweep = ["--n", "20", "--degree1", "4", "--degree2", "6", "--ks", "0", "1", "2"]
    _script("run_switching_sweep.py", [*sweep, "--out", str(out / "switching_sweep")])
    sweep = ["--n", "40", "--alphas", "0.25", "0.5", "0.75"]
    _script("run_merged_sweep.py", [*sweep, "--out", str(out / "merged_sweep")])
    run_experiment(SINGLE_SWEEP, out / "single_sweep")
    select = ["--layer-a", LAYER_A, "--layer-b", LAYER_B, "--n", "8", "--ks", "2", "3", "--min-size", "4"]
    _script("select_dataset_subset.py", [*select, "--out", str(out / "select_k23")])


if __name__ == "__main__":
    record(GOLDEN)
