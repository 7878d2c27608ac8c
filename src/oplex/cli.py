"""Command-line lab: simulate (config sweeps), analyze (one model), verify (suites)."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .harness import ConfigError, load_config, run_experiment
from .merged import analyze as analyze_merged
from .merged import MergedModel
from .netcore import EdgeListError, load_edge_list, parse_edge_list
from .stochastic import check_opinions
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
        result = run_experiment(load_config(args.config), args.out)
    except (ConfigError, EdgeListError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"simulate: bad input: {exc}", file=sys.stderr)
        return 2, ""
    return (0 if result.all_passed else 1), _json(result.summary)


def _infer_n(paths: list[str], indexing: str) -> int:
    top = 0
    for path in paths:
        for _, i, j, _ in parse_edge_list(path):
            top = max(top, i, j)
    return top + (0 if indexing == "1-based" else 1)


def _load_x0(arg: str, n: int) -> np.ndarray:
    try:
        seed = int(arg)
    except ValueError:
        try:
            return np.array([float(v) for v in Path(arg).read_text().split()])
        except ValueError as exc:
            raise ValueError(f"{arg}: {exc}") from exc
    return np.random.default_rng(seed).random(n)


def _cmd_analyze(args) -> tuple[int, str]:
    if args.mode == "merged" and args.alpha is None:
        print("analyze: merged mode requires --alpha", file=sys.stderr)
        return 2, ""
    if args.mode == "switching" and args.k is None:
        print("analyze: switching mode requires --k", file=sys.stderr)
        return 2, ""
    # Bad files, x0, alpha or k, and isolated nodes all surface as exit 2 here.
    try:
        n = args.n if args.n is not None else _infer_n([args.layer1, args.layer2], args.indexing)
        layer1 = load_edge_list(args.layer1, n, args.indexing)
        layer2 = load_edge_list(args.layer2, n, args.indexing)
        x0 = check_opinions(_load_x0(args.x0, n), n)
        if args.mode == "merged":
            model = MergedModel(layer1, layer2, args.alpha)
        else:
            model = SwitchingModel(layer1, layer2, args.k)
    except (OSError, ValueError) as exc:
        print(f"analyze: bad input: {exc}", file=sys.stderr)
        return 2, ""

    report: dict = {"mode": args.mode, "n": n}
    if args.mode == "merged":
        outcome = analyze_merged(model, x0)
        bounds = outcome.bounds
        report["alpha"] = args.alpha
        report["slem"] = bounds.slem_c
        report["slem_lower_bound"] = bounds.lower_bound
        report["slem_upper_bound"] = bounds.upper_bound
        report["degrees_matched"] = bounds.degrees_matched
        report["interval"] = outcome.interval
        if args.dump:
            report["transition"] = model.transition.entries.tolist()
    else:
        outcome = analyze_switching(model, x0)
        report["k"] = args.k
        report["status"] = outcome.status
        report["slem_cycle"] = outcome.slem_cycle
        report["rho_star"] = outcome.rho_star
        if outcome.status != "consensus":
            report["period"] = outcome.period
            report["closed_classes"] = outcome.closed_classes
        report["transient"] = outcome.transient
        if args.dump:
            report["cycle"] = model.entries.tolist()
            report["layer1_transition"] = model.a.entries.tolist()
            report["layer2_transition"] = model.b.entries.tolist()
    checks = outcome.checks()
    report.update(consensus=outcome.value, note=outcome.note, checks=checks)
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
