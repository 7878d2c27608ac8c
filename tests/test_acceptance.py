"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion. Criteria 5 and 8 carry wall-clock budgets (60 s and 120 s).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from oplex.fixtures import (
    complementary_cycles_pair,
    misaligned_degree_pair,
    oscillating_pair,
    triangle_pair,
)
from oplex.harness import run_experiment
from oplex.merged import merge, slem_bounds
from oplex.netcore import GeneratorSpec, generate
from oplex.spectral import slem_reversible
from oplex.stochastic import stationary_from_degrees, stationary_general
from oplex.switching import analyze, switching_model
from oplex.verify import (
    OSCILLATING_CYCLE,
    OSCILLATING_EVEN_LIMIT,
    OSCILLATING_ODD_LIMIT,
    period_limits,
    run_bounds_suite,
    run_perturbation_suite,
)

DATA = Path(__file__).parent / "data"


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}")
    assert ok, f"acceptance {criterion}: {detail}"


def test_criterion_1_oscillating_product_and_limits():
    start = time.perf_counter()
    model = switching_model(*oscillating_pair(), k=1)
    cycle_err = np.abs(model.entries - OSCILLATING_CYCLE).max()
    outcome = analyze(model, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    even_err = odd_err = np.inf
    if outcome.period == 2:
        even, odd = period_limits(model.entries, outcome.period)
        even_err = np.abs(even - OSCILLATING_EVEN_LIMIT).max()
        odd_err = np.abs(odd - OSCILLATING_ODD_LIMIT).max()
    elapsed = time.perf_counter() - start
    ok = (
        cycle_err <= 1e-12
        and outcome.status == "oscillation"
        and even_err <= 1e-9
        and odd_err <= 1e-9
        and elapsed < 1.0
    )
    _report(
        "1 (oscillating product)",
        ok,
        f"cycle err {cycle_err:.1e}, limits err {max(even_err, odd_err):.1e}, "
        f"status {outcome.status}, {elapsed:.2f}s",
    )


def test_criterion_2_misaligned_slem_values():
    layer1, layer2 = misaligned_degree_pair()
    slem_c = slem_bounds(merge(layer1, layer2, 0.5)).slem_c
    rho_a = slem_reversible(layer1).slem
    rho_b = slem_reversible(layer2).slem
    ok = (
        abs(slem_c - 0.6928) <= 1e-3
        and abs(rho_a - 0.6839) <= 1e-3
        and abs(rho_b - 0.5338) <= 1e-3
        and slem_c > max(rho_a, rho_b)
    )
    _report(
        "2 (misaligned degrees)",
        ok,
        f"rho2(C)={slem_c:.4f} > max(rho2(A)={rho_a:.4f}, rho2(B)={rho_b:.4f})",
    )


def test_criterion_3_complete_graph_merge():
    layer1, layer2 = complementary_cycles_pair()
    model = merge(layer1, layer2, 0.5)
    expected = (np.ones((5, 5)) - np.eye(5)) / 4
    matrix_err = np.abs(model.transition.entries - expected).max()
    report = slem_bounds(model)
    ring_slem = abs(np.cos(4 * np.pi / 5))
    slem_err = abs(report.slem_c - 0.25)
    layer_err = max(
        abs(slem_reversible(layer1).slem - ring_slem),
        abs(slem_reversible(layer2).slem - ring_slem),
    )
    ok = (
        matrix_err <= 1e-12
        and slem_err <= 1e-10
        and report.lower_bound == 0.25
        and layer_err <= 1e-10
    )
    _report(
        "3 (complete-graph merge)",
        ok,
        f"matrix err {matrix_err:.1e}, slem err {slem_err:.1e}, "
        f"layer slem err {layer_err:.1e}",
    )


def test_criterion_4_non_interpolating_stationary():
    layer1, layer2 = triangle_pair()
    pi_a = stationary_from_degrees(layer1).pi
    pi_b = stationary_from_degrees(layer2).pi
    pi_cycle = stationary_general(switching_model(layer1, layer2, 1).formed()).pi
    err = max(
        np.abs(pi_a - [1 / 3, 1 / 3, 1 / 3]).max(),
        np.abs(pi_b - [3 / 8, 3 / 8, 1 / 4]).max(),
        np.abs(pi_cycle - [3 / 10, 3 / 10, 2 / 5]).max(),
    )
    outside = all(
        p < min(a, b) or p > max(a, b) for p, a, b in zip(pi_cycle, pi_a, pi_b)
    )
    ok = err <= 1e-10 and outside
    _report(
        "4 (non-interpolating pi)",
        ok,
        f"max pi err {err:.1e}, componentwise outside: {outside}",
    )


def test_criterion_5_bounds_property_suite():
    start = time.perf_counter()
    results = run_bounds_suite(n_instances=200)
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.passed]
    ok = not failures and elapsed < 60.0
    _report(
        "5 (random-instance bounds, 200 cases)",
        ok,
        f"{len(results) - len(failures)}/{len(results)} checks, {elapsed:.1f}s"
        + (f"; first failure {failures[0].name}: {failures[0].detail}" if failures else ""),
    )


def test_criterion_6_stationary_shift_exactness():
    results = {r.name: r for r in run_perturbation_suite(n_pairs=100)}
    identity = results["perturbation/shift-identity"]
    two_state = results["perturbation/two-state-shift"]
    ok = identity.passed and two_state.passed
    _report("6 (exact stationary shift)", ok, identity.detail)


def test_criterion_7_stability_scalings():
    results = {r.name: r for r in run_perturbation_suite()}
    names = [
        "perturbation/alpha-linear",
        "perturbation/merged-edge-linear",
        "perturbation/k-geometric",
        "perturbation/switching-edge-linear",
    ]
    failures = [n for n in names if not results[n].passed]
    _report(
        "7 (stability scalings)",
        not failures,
        "; ".join(f"{n.split('/')[1]}: {results[n].detail}" for n in names),
    )


def _hub_nodes(spec: GeneratorSpec, count: int) -> list[int]:
    layer = generate(spec)
    return [int(i) for i in np.argsort(layer.degrees)[-count:]]


def test_criterion_8_synthetic_sweeps(tmp_path):
    start = time.perf_counter()
    ba_spec = GeneratorSpec(kind="barabasi-albert", n=100, m=5, seed=101)
    merged_config = {
        "model": {"kind": "merged", "alphas": [round(0.1 * i, 1) for i in range(11)]},
        "layers": [
            ba_spec.to_dict(),
            {"kind": "erdos-renyi", "n": 100, "p": 10 / 99, "seed": 202},
        ],
        "x0": {
            "kind": "uniform-with-overrides",
            "seed": 303,
            "nodes": _hub_nodes(ba_spec, 5),
            "value": 0.0,
        },
        "t_max": 100000,
        "tol": 1e-12,
        "outputs": ["sweep", "summary"],
    }
    merged_result = run_experiment(merged_config, tmp_path / "merged")

    switching_config = {
        "model": {"kind": "switching", "ks": [0, 1, 2, 3, 4, 5]},
        "layers": [
            {"kind": "k-regular", "n": 100, "k": 6, "seed": 11},
            {"kind": "k-regular", "n": 100, "k": 8, "seed": 22},
        ],
        "x0": {"kind": "uniform", "seed": 404},
        "t_max": 100000,
        "tol": 1e-12,
        "outputs": ["sweep", "summary"],
    }
    switching_result = run_experiment(switching_config, tmp_path / "switching")
    elapsed = time.perf_counter() - start

    merged_ok = merged_result.all_passed
    in_interval = all(
        row["interval_lo"] - 1e-10 <= row["consensus"] <= row["interval_hi"] + 1e-10
        for row in merged_result.rows
    )
    merged_rates = all(
        row["empirical_rate"] is None or row["empirical_rate"] <= row["slem"] + 1e-6
        for row in merged_result.rows
    )
    switching_ok = switching_result.all_passed
    under_rho_star = all(
        row["slem"] <= row["bound_upper"] + 1e-9 for row in switching_result.rows
    )
    switching_rates = all(
        row["empirical_rate"] is None or row["empirical_rate"] <= row["slem"] + 1e-6
        for row in switching_result.rows
    )
    ok = (
        merged_ok
        and in_interval
        and merged_rates
        and switching_ok
        and under_rho_star
        and switching_rates
        and elapsed < 120.0
    )
    _report(
        "8 (synthetic sweeps)",
        ok,
        f"interval: {in_interval}, merged rates: {merged_rates}, rho*: {under_rho_star}, "
        f"switching rates: {switching_rates}, {elapsed:.1f}s",
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    config = {
        "model": {"kind": "switching", "ks": [1, 3]},
        "layers": {
            "kind": "two-layer-dataset",
            "path_a": str(DATA / "contact_layer_a.txt"),
            "path_b": str(DATA / "contact_layer_b.txt"),
            "n": 8,
            "indexing": "0-based",
        },
        "x0": {"kind": "uniform", "seed": 77},
        "t_max": 5000,
        "tol": 1e-12,
        "outputs": ["sweep", "trajectories", "summary"],
        "record_opinions": True,
    }
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    identical = names_a == names_b and all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names_a
    )
    _report("9 (deterministic reruns)", identical, f"{len(names_a)} files compared")
