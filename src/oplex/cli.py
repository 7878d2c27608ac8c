"""Command-line lab: simulate (config sweeps), analyze (one model), verify (suites)."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .harness import ConfigError, parse_x0, run_experiment
from .merged import analyze as analyze_merged
from .merged import MergedModel
from .netcore import EdgeListError, parse_edge_list
from .switching import analyze as analyze_switching
from .switching import SwitchingModel
from .verify import SUITES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oplex", description="Two-layer multiplex opinion dynamics lab"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a config-driven experiment sweep")
    p_sim.add_argument("--config", required=True, help="JSON experiment config")
    p_sim.add_argument("--out", required=True, help="output directory for CSV/JSON reports")

    p_an = sub.add_parser("analyze", help="analyze one merged or switching model")
    p_an.add_argument("--layer1", required=True, help="edge-list file for layer 1")
    p_an.add_argument("--layer2", required=True, help="edge-list file for layer 2")
    p_an.add_argument("--mode", required=True, choices=["merged", "switching"])
    p_an.add_argument("--alpha", type=float, help="blend weight for merged mode")
    p_an.add_argument("--k", type=int, help="steps on layer 1 per cycle for switching mode")
    p_an.add_argument("--n", type=int, help="node count (default: inferred from files)")
    p_an.add_argument(
        "--indexing", default="0-based", choices=["0-based", "1-based"]
    )
    p_an.add_argument(
        "--x0", default="0", help="initial opinions: integer seed or path to a value file"
    )
    p_an.add_argument(
        "--dump", action="store_true", help="include matrices (row-major) in the report"
    )

    p_ver = sub.add_parser("verify", help="run a regression suite")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES))

    args = parser.parse_args(argv)
    commands = {"simulate": _cmd_simulate, "analyze": _cmd_analyze, "verify": _cmd_verify}
    # Each command returns its exit code and its report, and the report is
    # printed here: a reader that closes the pipe early leaves the code as is.
    code, report = commands[args.command](args)
    try:
        print(report, end="", flush=True)
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at interpreter exit does not
        # hit the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _cmd_simulate(args) -> tuple[int, str]:
    try:
        try:
            raw = json.loads(Path(args.config).read_text())
        except RecursionError:  # json.loads recurses once per nesting level
            raise ConfigError("<root>: nested too deep for the JSON decoder") from None
        result = run_experiment(raw, args.out)
    except (ConfigError, EdgeListError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"simulate: bad input: {exc}", file=sys.stderr)
        return 2, ""
    return (0 if result.all_passed else 1), _json(result.summary)


def _x0(arg: str, n: int) -> np.ndarray:
    """--x0 read as a config's x0: an integer is a uniform seed, anything else
    names a file of explicit values."""
    try:
        try:
            raw = {"kind": "uniform", "seed": int(arg)}
        except ValueError:
            raw = {"kind": "explicit", "values": [float(v) for v in Path(arg).read_text().split()]}
        return parse_x0(raw).vector(n)
    except ValueError as exc:
        raise ValueError(f"--x0 {arg}: {exc}") from None


def _cmd_analyze(args) -> tuple[int, str]:
    merged = args.mode == "merged"
    # The mode's one parameter: the blend weight alpha, or k steps on layer 1.
    name, value = ("alpha", args.alpha) if merged else ("k", args.k)
    if value is None:
        print(f"analyze: {args.mode} mode requires --{name}", file=sys.stderr)
        return 2, ""
    base = 1 if args.indexing == "1-based" else 0
    # Bad files, x0, alpha or k, and isolated nodes all surface as exit 2 here.
    try:
        edges = [parse_edge_list(args.layer1), parse_edge_list(args.layer2)]
        n = args.n
        if n is None:
            n = max(int(labels.max(initial=0)) for e in edges for labels in (e.i, e.j)) + 1 - base
        layer1, layer2 = (e.layer(n, base) for e in edges)
        x0 = _x0(args.x0, n)
        model = (MergedModel if merged else SwitchingModel)(layer1, layer2, value)
    except (OSError, ValueError) as exc:
        print(f"analyze: bad input: {exc}", file=sys.stderr)
        return 2, ""

    outcome = (analyze_merged if merged else analyze_switching)(model, x0)
    report: dict = {"mode": args.mode, "n": n, name: value}
    if merged:
        dump = {"transition": model.transition}
    else:
        report.update(status=outcome.status, transient=outcome.transient)
        if outcome.status != "consensus":
            report.update(period=outcome.period, closed_classes=outcome.closed_classes)
        dump = {"cycle": model, "layer1_transition": model.a, "layer2_transition": model.b}
    if args.dump:
        report.update((key, matrix.entries.tolist()) for key, matrix in dump.items())
    checks = outcome.checks()
    report.update(outcome.fields(), checks=checks)
    return (0 if all(checks.values()) else 1), _json(report)


def _cmd_verify(args) -> tuple[int, str]:
    results = SUITES[args.suite]()
    failed = 0
    lines = []
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail else ""
        lines.append(f"[{status}] {check.name}{detail}\n")
        failed += 0 if check.passed else 1
    lines.append(f"{len(results) - failed}/{len(results)} checks passed\n")
    return (0 if failed == 0 else 1), "".join(lines)


if __name__ == "__main__":
    sys.exit(main())
