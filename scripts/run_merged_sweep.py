#!/usr/bin/env python3
"""Merged-layer alpha sweep on synthetic networks.

Layer 1 is a preferential-attachment graph (hubs), layer 2 an equal-density
random graph, both on N=100 with mean degree ~10. The five highest-degree
hub nodes start at opinion 0, everyone else uniform in [0,1]. Writes the
sweep CSV, trajectory CSVs, and the JSON summary (consensus vs alpha, SLEM
vs alpha with both bounds, empirical vs theoretical rates).
"""

import argparse
import json

import numpy as np

from oplex.harness import run_experiment
from oplex.netcore import GeneratorSpec, generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/merged_sweep")
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--mean-degree", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--hubs", type=int, default=5)
    parser.add_argument(
        "--alphas", type=float, nargs="+", default=[round(0.1 * i, 1) for i in range(11)]
    )
    args = parser.parse_args()

    m = args.mean_degree // 2
    ba_spec = GeneratorSpec(kind="barabasi-albert", n=args.n, m=m, seed=args.seed)
    er_spec = GeneratorSpec(
        kind="erdos-renyi", n=args.n, p=args.mean_degree / (args.n - 1), seed=args.seed + 1
    )
    hub_layer = generate(ba_spec)
    hubs = [int(i) for i in np.argsort(hub_layer.degrees)[-args.hubs :]]

    config = {
        "model": {"kind": "merged", "alphas": args.alphas},
        "layers": [ba_spec.to_dict(), er_spec.to_dict()],
        "x0": {
            "kind": "uniform-with-overrides",
            "seed": args.seed + 2,
            "nodes": hubs,
            "value": 0.0,
        },
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
