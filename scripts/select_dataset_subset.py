#!/usr/bin/env python3
"""Greedy node selection for a two-layer dataset extract.

Starting from a full two-layer edge-list dataset (layer A unweighted ties,
layer B contact classes 1..4), greedily remove nodes until layer B's
transition matrix stops being primitive while layer A and the switching
cycles B A^k (for the given k values) stay primitive. This is a documented
reconstruction of how such an extract can be chosen; the greedy step removes
the valid candidate that pushes layer B's SLEM highest (toward periodicity
or reducibility).

Writes the re-indexed extract as <out>_a.txt / <out>_b.txt plus a JSON
report of the removal order and the final primitivity profile.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from oplex.netcore import Csr, LayerGraph, load_two_layer_dataset
from oplex.spectral import slem_reversible
from oplex.stochastic import is_primitive, transition_matrix
from oplex.switching import SwitchingModel


def subgraph(layer: LayerGraph, keep: np.ndarray) -> LayerGraph:
    """The layer on the nodes keep, renumbered 0..len(keep)-1 in that order."""
    w = layer.csr
    renumber = np.full(layer.n, -1)
    renumber[keep] = np.arange(keep.shape[0])
    rows, cols = renumber[w.rows], renumber[w.indices]
    inside = (rows >= 0) & (cols >= 0)
    return LayerGraph(Csr.from_entries(keep.shape[0], rows[inside], cols[inside], w.data[inside]))


def profile(layer_a: LayerGraph, layer_b: LayerGraph, ks) -> dict | None:
    """Primitivity profile, or None if some node has zero degree somewhere."""
    if (layer_a.degrees <= 0).any() or (layer_b.degrees <= 0).any():
        return None
    return {
        "a_primitive": is_primitive(transition_matrix(layer_a)),
        "b_primitive": is_primitive(transition_matrix(layer_b)),
        "cycles_primitive": all(is_primitive(SwitchingModel(layer_a, layer_b, k)) for k in ks),
        "b_slem": slem_reversible(layer_b).slem,
    }


def goal_reached(p: dict | None) -> bool:
    """Layer B not primitive, while layer A and every cycle B A^k are."""
    return bool(p) and not p["b_primitive"] and p["a_primitive"] and p["cycles_primitive"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layer-a", required=True)
    parser.add_argument("--layer-b", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--indexing", default="0-based", choices=["0-based", "1-based"])
    parser.add_argument("--ks", type=int, nargs="+", default=[3, 5])
    parser.add_argument("--min-size", type=int, default=8)
    parser.add_argument("--out", default="out/extract")
    args = parser.parse_args()

    layer_a, layer_b = load_two_layer_dataset(
        args.layer_a, args.layer_b, args.n, args.indexing
    )
    keep = np.arange(args.n)
    removed: list[int] = []

    while True:
        current = profile(subgraph(layer_a, keep), subgraph(layer_b, keep), args.ks)
        if current is None:
            raise SystemExit("dataset has zero-degree nodes; clean it first")
        if goal_reached(current):
            break
        if keep.shape[0] <= args.min_size:
            break
        best = None
        for idx in range(keep.shape[0]):
            trial = np.delete(keep, idx)
            trial_profile = profile(subgraph(layer_a, trial), subgraph(layer_b, trial), args.ks)
            if trial_profile is None:
                continue
            if not (trial_profile["a_primitive"] and trial_profile["cycles_primitive"]):
                continue
            if best is None or trial_profile["b_slem"] > best[1]["b_slem"]:
                best = (idx, trial_profile)
        if best is None:
            break  # no valid removal left
        removed.append(int(keep[best[0]]))
        keep = np.delete(keep, best[0])
        if not best[1]["b_primitive"]:
            break  # goal reached by this removal

    sub_a, sub_b = subgraph(layer_a, keep), subgraph(layer_b, keep)
    final = profile(sub_a, sub_b, args.ks)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for suffix, layer in (("a", sub_a), ("b", sub_b)):
        w = layer.csr
        edges = zip(w.rows.tolist(), w.indices.tolist(), w.data.tolist())
        lines = [f"{i} {j} {weight:g}" for i, j, weight in edges if i < j]
        Path(f"{out}_{suffix}.txt").write_text("\n".join(lines) + "\n")
    report = {
        "kept_nodes": [int(v) for v in keep],
        "removed_nodes": removed,
        "final_size": int(keep.shape[0]),
        "goal_reached": goal_reached(final),
        "final_profile": final,
        "ks": args.ks,
    }
    Path(f"{out}_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0 if report["goal_reached"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
