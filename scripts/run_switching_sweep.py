#!/usr/bin/env python3
"""Switching-period sweep on regular random graphs.

Layer 1 is 6-regular, layer 2 is 8-regular, N=100. For each k the harness
records the cycle SLEM against the product-rate bound rho_star and the
per-cycle empirical rate.
"""

import argparse
import json

from oplex.harness import run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/switching_sweep")
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--degree1", type=int, default=6)
    parser.add_argument("--degree2", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--ks", type=int, nargs="+", default=[0, 1, 2, 3, 4, 5])
    args = parser.parse_args()

    config = {
        "model": {"kind": "switching", "ks": args.ks},
        "layers": [
            {"kind": "k-regular", "n": args.n, "k": args.degree1, "seed": args.seed},
            {"kind": "k-regular", "n": args.n, "k": args.degree2, "seed": args.seed + 1},
        ],
        "x0": {"kind": "uniform", "seed": args.seed + 2},
        "t_max": 200000,
        "tol": 1e-12,
        "outputs": ["sweep", "trajectories", "summary"],
    }
    result = run_experiment(config, args.out)
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    print(f"reports written to {args.out}")
    return 0 if result.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
