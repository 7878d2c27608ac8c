"""The four benchmark workloads: seeded inputs, program calls, and checks.

Every workload is closed-loop with one client: the next program call starts
when the previous one has returned. A call goes through the public API only
(`oplex.harness.run_experiment` or `oplex.verify.run_*_suite`), looked up on
its module at call time so that the traced run can patch it.

Correctness is judged per operation. An operation is one grid point of a
sweep or one random instance of a verify suite. It fails if its call raised,
if an armed assertion failed, if its values disagree with a reference, or if
the call's report differs from the first call's. Two references are used:
values recorded from the seed commit (`reference.json`, for the seeds listed
there) and an oracle computed here with plain numpy from the same inputs
(for every seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("merged-hubs-n1000", "switching-contact-n600", "single-ring-n300", "verify-small")

# Absolute tolerance for slem and consensus against either reference.
VALUE_TOL = 1e-9

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Input sizes: "full" is what the benchmark measures, "tiny" is for the
# self-check. Everything else about a workload is the same at both sizes.
SIZES = {
    "merged-hubs-n1000": {"full": {"n": 1000, "p": 0.01}, "tiny": {"n": 60, "p": 0.15}},
    "switching-contact-n600": {"full": {"n": 600}, "tiny": {"n": 40}},
    "single-ring-n300": {"full": {"n": 300}, "tiny": {"n": 40}},
    "verify-small": {
        "full": {"n_instances": 200, "n_pairs": 100},
        "tiny": {"n_instances": 8, "n_pairs": 4},
    },
}

MERGED_ALPHAS = [0.25, 0.5, 0.75]
MERGED_HUBS = [0, 1, 2, 3, 4, 5]  # the Barabasi-Albert seed clique
SWITCHING_KS = [1, 2, 4]


@dataclass
class Instance:
    """One workload's inputs for one seed, ready to call.

    `call()` runs the program once; `collect(output)`, right after it, keeps
    what the gate needs. After the timed loop, `check(records)` returns the
    number of failed operations of each call (0..ops_per_call) and appends
    the reasons to `messages`. `probe` is the argument list of the
    fresh-process set-up probe.
    """

    ops_per_call: int
    call: Callable[[], Any]
    collect: Callable[[Any], Any]
    check: Callable[[list], list[int]]
    probe: list[str]
    instances: int = 0
    report_bytes: Callable[[], int] = lambda: 0
    messages: list[str] = field(default_factory=list)


def derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def recorded_reference(workload: str, size: str, seed: int) -> list | None:
    table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    return table.get(workload, {}).get(size, {}).get(str(seed))


def make_instance(workload: str, seed: int, size: str, workdir: Path) -> Instance:
    params = SIZES[workload][size]
    if workload == "verify-small":
        return _verify_instance(seed, size, **params)
    if workload == "merged-hubs-n1000":
        config, oracle = _merged_inputs(seed, **params)
    elif workload == "switching-contact-n600":
        config, oracle = _switching_inputs(seed, workdir, **params)
    else:
        config, oracle = _ring_inputs(seed, **params)
    return _sweep_instance(config, oracle, workdir, recorded_reference(workload, size, seed))


# ---------------------------------------------------------------------------
# Sweeps through run_experiment.


def sweep_rows(result) -> list[list]:
    """Per grid point: slem, consensus, converged, assertions_pass."""
    return [
        [
            float(r["slem"]),
            None if r["consensus"] is None else float(r["consensus"]),
            bool(r["converged"]),
            bool(r["assertions_pass"]),
        ]
        for r in result.rows
    ]


def _sweep_instance(config: dict, oracle, workdir: Path, recorded: list | None) -> Instance:
    from oplex import harness

    out_dir = workdir / "report"
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    grid = config["model"].get("alphas") or config["model"].get("ks") or [0]

    def call():
        return harness.run_experiment(config, out_dir)

    def collect(result):
        return sweep_rows(result), (out_dir / "summary.json").read_bytes()

    def check(records: list) -> list[int]:
        expected = oracle()
        first_summary = next((r[1] for r in records if r is not None), None)
        failed = []
        for call_index, record in enumerate(records):
            if record is None:  # the call raised
                failed.append(len(grid))
                continue
            rows, summary = record
            if summary != first_summary:
                instance.messages.append(f"call {call_index}: summary.json differs from call 0")
                failed.append(len(grid))
                continue
            if len(rows) != len(grid):
                instance.messages.append(f"call {call_index}: {len(rows)} grid points, expected {len(grid)}")
                failed.append(len(grid))
                continue
            bad = 0
            for i, row in enumerate(rows):
                problems = _row_problems(row, expected[i], "oracle")
                if recorded is not None:
                    problems += _row_problems(row, recorded[i], "seed-commit reference")
                if problems:
                    instance.messages.append(f"call {call_index} point {i}: " + "; ".join(problems))
                    bad += 1
            failed.append(bad)
        return failed

    def report_bytes() -> int:
        return sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.exists() else 0

    instance = Instance(
        ops_per_call=len(grid),
        call=call,
        collect=collect,
        check=check,
        probe=["config", str(config_path)],
        report_bytes=report_bytes,
    )
    return instance


def _row_problems(row: list, ref: list, source: str) -> list[str]:
    problems = []
    for name, got, want in zip(("slem", "consensus"), row[:2], ref[:2]):
        if got is None or want is None:
            if got is not want:
                problems.append(f"{name} {got} vs {source} {want}")
        elif not abs(got - want) <= VALUE_TOL:
            problems.append(f"{name} {got!r} vs {source} {want!r}")
    for name, got, want in zip(("converged", "assertions_pass"), row[2:], ref[2:]):
        if got != want:
            problems.append(f"{name} {got} vs {source} {want}")
    return problems


def _merged_inputs(seed: int, n: int, p: float):
    """BA(m=5) + ER(p) with the BA hubs pinned to 0 in x0.

    The degree sequences differ, so the program takes the general eigensolver
    path for the merged SLEM; the merged chain mixes fast, so the simulation
    is short. The oracle uses the symmetric similarity D^-1/2 W D^-1/2.
    """
    s_ba, s_er, s_x0 = derived_seeds(seed, 3)
    config = {
        "model": {"kind": "merged", "alphas": MERGED_ALPHAS},
        "layers": [
            {"kind": "barabasi-albert", "n": n, "m": 5, "seed": s_ba},
            {"kind": "erdos-renyi", "n": n, "p": p, "seed": s_er},
        ],
        "x0": {"kind": "uniform-with-overrides", "seed": s_x0, "nodes": MERGED_HUBS, "value": 0.0},
    }

    def oracle():
        from oplex.harness import build_layers, parse_config

        layer1, layer2 = build_layers(parse_config(config))
        x0 = np.random.default_rng(s_x0).random(n)
        x0[MERGED_HUBS] = 0.0
        rows = []
        for alpha in MERGED_ALPHAS:
            w = alpha * layer1.weights + (1.0 - alpha) * layer2.weights
            d = w.sum(axis=1)
            s = w / np.sqrt(np.outer(d, d))
            slem = np.sort(np.abs(np.linalg.eigvalsh(s)))[-2]
            rows.append([float(slem), float(d @ x0 / d.sum()), True, True])
        return rows

    return config, oracle


def ring_with_chords(rng: np.random.Generator, n: int, chords: int) -> list[tuple[int, int]]:
    """Edges of the ring 0-1-...-(n-1)-0 plus `chords` distinct random chords.

    The ring backbone is what guarantees that no node is isolated; it is a
    property of the workload family, not a filter on drawn graphs.
    """
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    target = len(edges) + chords
    while len(edges) < target:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def _switching_inputs(seed: int, workdir: Path, n: int):
    """A two-layer contact dataset written from the seed, swept over k.

    Layer A is unweighted, layer B has contact classes in {1..4}; both are a
    ring plus n random chords, so degrees differ between nodes and layers,
    and the chords make both layers mix fast whatever the seed.
    The oracle solves for the cycle's left fixed vector by least squares.
    """
    s_graph, s_x0 = derived_seeds(seed, 2)
    rng = np.random.default_rng(s_graph)
    edges_a = ring_with_chords(rng, n, n)
    edges_b = ring_with_chords(rng, n, n)
    weights_b = [int(w) for w in rng.integers(1, 5, size=len(edges_b))]
    path_a, path_b = workdir / "layer_a.txt", workdir / "layer_b.txt"
    path_a.write_text("".join(f"{i} {j} 1\n" for i, j in edges_a))
    path_b.write_text("".join(f"{i} {j} {w}\n" for (i, j), w in zip(edges_b, weights_b)))
    config = {
        "model": {"kind": "switching", "ks": SWITCHING_KS},
        "layers": {"kind": "two-layer-dataset", "path_a": str(path_a), "path_b": str(path_b), "n": n},
        "x0": {"kind": "uniform", "seed": s_x0},
    }

    def oracle():
        wa = np.zeros((n, n))
        wb = np.zeros((n, n))
        for i, j in edges_a:
            wa[i, j] = wa[j, i] = 1.0
        for (i, j), w in zip(edges_b, weights_b):
            wb[i, j] = wb[j, i] = float(w)
        a = wa / wa.sum(axis=1, keepdims=True)
        b = wb / wb.sum(axis=1, keepdims=True)
        x0 = np.random.default_rng(s_x0).random(n)
        rows = []
        for k in SWITCHING_KS:
            cycle = b @ np.linalg.matrix_power(a, k)
            slem = np.sort(np.abs(np.linalg.eigvals(cycle)))[-2]
            # Left fixed vector: pi (cycle - I) = 0 with sum(pi) = 1.
            system = np.vstack([cycle.T - np.eye(n), np.ones((1, n))])
            rhs = np.zeros(n + 1)
            rhs[-1] = 1.0
            pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
            rows.append([float(slem), float(pi @ x0), True, True])
        return rows

    return config, oracle


def _ring_inputs(seed: int, n: int):
    """The slow-mixing ring circulant(1, 2) with trajectory output on.

    The ring itself is fixed. x0 is an opinion wave around the ring, with
    phase and noise from the seed: 0.5 + 0.3 cos(2 pi i/n + phase) + U(-0.1,
    0.1). The wave is the slowest mode, so its fixed amplitude, not the
    seed, sets how many steps the simulation takes. The spectrum is known in
    closed form: (cos(2 pi j/n) + cos(4 pi j/n)) / 2, j = 0..n-1.
    """
    rng = np.random.default_rng(derived_seeds(seed, 1)[0])
    phase = rng.uniform(0.0, 2.0 * np.pi)
    x0 = 0.5 + 0.3 * np.cos(2.0 * np.pi * np.arange(n) / n + phase) + rng.uniform(-0.1, 0.1, n)
    config = {
        "model": {"kind": "single"},
        "layers": [{"kind": "circulant", "n": n, "offsets": [1, 2], "weight": 1.0}],
        "x0": {"kind": "explicit", "values": x0.tolist()},
        "outputs": ["sweep", "trajectories", "summary"],
    }

    def oracle():
        j = np.arange(1, n)
        eig = (np.cos(2 * np.pi * j / n) + np.cos(4 * np.pi * j / n)) / 2.0
        return [[float(np.abs(eig).max()), float(x0.mean()), True, True]]

    return config, oracle


# ---------------------------------------------------------------------------
# Verify suites.


def verify_results(output) -> list[list]:
    """(name, passed) of every check of both suites, bounds suite first."""
    bounds, perturbation = output
    return [[c.name, bool(c.passed)] for c in bounds + perturbation]


def _verify_instance(seed: int, size: str, n_instances: int, n_pairs: int) -> Instance:
    """run_bounds_suite plus run_perturbation_suite on seeded random instances.

    The suites report per check, not per instance, so a failed check counts
    every instance of its suite as failed.
    """
    from oplex import verify

    s_bounds, s_pert = derived_seeds(seed, 2)
    recorded = recorded_reference("verify-small", size, seed)

    def call():
        return (
            verify.run_bounds_suite(n_instances=n_instances, seed=s_bounds),
            verify.run_perturbation_suite(n_pairs=n_pairs, seed=s_pert),
        )

    def collect(output):
        bounds, perturbation = output
        return [[c.name, c.passed, c.detail] for c in bounds], [
            [c.name, c.passed, c.detail] for c in perturbation
        ]

    def check(records: list) -> list[int]:
        first = next((r for r in records if r is not None), None)
        failed = []
        for call_index, record in enumerate(records):
            if record is None:  # the call raised
                failed.append(n_instances + n_pairs)
                continue
            bad = 0
            for checks, count in zip(record, (n_instances, n_pairs)):
                wrong = [c for c in checks if not c[1]]
                if wrong:
                    instance.messages.append(
                        f"call {call_index}: " + "; ".join(f"{c[0]}: {c[2]}" for c in wrong)
                    )
                    bad += count
            if not bad and record != first:
                instance.messages.append(f"call {call_index}: suite results differ from call 0")
                bad = n_instances + n_pairs
            names = [[c[0], c[1]] for c in record[0] + record[1]]
            if not bad and recorded is not None and names != recorded:
                instance.messages.append(f"call {call_index}: checks differ from the seed-commit reference")
                bad = n_instances + n_pairs
            failed.append(bad)
        return failed

    instance = Instance(
        ops_per_call=n_instances + n_pairs,
        call=call,
        collect=collect,
        check=check,
        probe=["verify"],
        instances=n_instances + n_pairs,
    )
    return instance
