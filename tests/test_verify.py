import re

import numpy as np
import pytest

import oplex.verify as verify
from oplex import merged
from oplex.merged import MergedBoundsReport, MergedOutcome
from oplex.simlab import DecayCheck, DecayCheckResult
from oplex.spectral import slem_reversible


def _with_check(cls, name):
    """cls.checks with the check name forced to fail."""
    checks = cls.checks
    return lambda self: {**checks(self), name: False}


# For each bounds check: what is patched to make it fail, and how its
# detail starts. The degree-matched check fails in two ways.
FORCED_FAILURES = {
    "consensus-interval": (
        MergedOutcome, "checks", _with_check(MergedOutcome, "consensus-in-interval"),
        "bounds/consensus-interval", "instance 0: consensus ",
    ),
    "slem-lower": (
        MergedOutcome, "checks", _with_check(MergedOutcome, "slem-lower-bound"),
        "bounds/slem-lower", "instance 0: slem ",
    ),
    "upper-above": (
        MergedBoundsReport, "checks", _with_check(MergedBoundsReport, "slem-upper-bound"),
        "bounds/slem-upper-degree-matched", "instance 0: matched slem ",
    ),
    "upper-unmatched": (
        merged, "degrees_matched", lambda layer1, layer2: False,
        "bounds/slem-upper-degree-matched", "instance 0: constructed pair not degree-matched",
    ),
    "product-rate": (
        verify, "product_rate_checks", lambda slem, star: {"slem-under-rho-star": False},
        "bounds/product-rate", "instance 0: k=0 slem ",
    ),
    "geometric-decay": (
        DecayCheck, "result", lambda self: DecayCheckResult(False, -1.0),
        "bounds/geometric-decay", "instance 0: decay margin -1.0",
    ),
}  # fmt: skip


class TestBoundsSuiteDetails:
    @pytest.mark.parametrize("case", FORCED_FAILURES)
    def test_each_check_keeps_its_own_failure(self, monkeypatch, case):
        target, attr, replacement, name, detail = FORCED_FAILURES[case]
        monkeypatch.setattr(target, attr, replacement)
        results = {r.name: r for r in verify.run_bounds_suite(n_instances=3)}
        failed = results.pop(name)
        assert not failed.passed
        assert failed.detail.startswith(detail)
        assert len(results) == 4
        for result in results.values():
            assert result.passed
            assert result.detail == ""


def reachable(adjacency: np.ndarray) -> np.ndarray:
    """reach[i, j]: j is reachable from i in at most n - 1 steps."""
    n = adjacency.shape[0]
    reach = np.eye(n, dtype=bool)
    for _ in range(n - 1):
        reach = reach | (reach.astype(int) @ adjacency.astype(int) > 0)
    return reach


class TestGenerators:
    SEEDS = range(40)
    SIZES = range(4, 21)

    def test_random_layer_family(self):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            for n in self.SIZES:
                for dyadic in (False, True):
                    w = verify.random_layer(rng, n, dyadic=dyadic).weights
                    adjacency = w > 0
                    assert reachable(adjacency).all(), (seed, n)
                    assert np.trace(np.linalg.matrix_power(adjacency.astype(int), 3)) > 0
                    edges = int(np.triu(adjacency).sum())
                    assert n - 1 <= edges <= (n - 1) + max(1, n // 2) + 3, (seed, n, edges)
                    weights = w[adjacency]
                    if dyadic:
                        assert np.all(weights * 8 == np.round(weights * 8))
                        assert weights.min() >= 0.5 and weights.max() <= 4.0
                    else:
                        assert weights.min() >= 0.5 and weights.max() < 2.0

    def test_degree_matched_pair_family(self):
        eps = 1.0 / 8.0
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            for n in self.SIZES:
                layer1, layer2 = verify.degree_matched_pair(rng, n)
                assert np.array_equal(layer1.degrees, layer2.degrees), (seed, n)
                w1, w2 = layer1.weights, layer2.weights
                assert w2.min() >= 0.0
                # each landed shift moves 8 entries (4 edges, both directions) by eps
                assert np.abs(w2 - w1).sum() <= 8 * eps * n, (seed, n)

    def test_layer_slem_is_at_least_one_over_n_minus_one(self):
        # tr P = 0 on a loop-free layer, so the n - 1 eigenvalues other than
        # 1 sum to -1: the SLEM is at least 1/(n-1) and never 0, which the
        # decay checks rely on. Checked on the bounds suite's own draws.
        for idx in range(200):
            rng = np.random.default_rng(verify.BOUNDS_SUITE_SEED + idx)
            n = int(rng.integers(4, 21))
            for layer in (verify.random_layer(rng, n), verify.random_layer(rng, n)):
                assert slem_reversible(layer).slem >= 1 / (n - 1) - 1e-12, (idx, n)

    def test_random_layer_needs_three_nodes(self):
        rng = np.random.default_rng(0)
        assert verify.random_layer(rng, 3).n == 3
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match="n >= 3"):
                verify.random_layer(rng, n)

    def test_degree_matched_pair_needs_four_nodes(self):
        rng = np.random.default_rng(0)
        assert verify.degree_matched_pair(rng, 4)[1].n == 4
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match="n >= 4"):
                verify.degree_matched_pair(rng, n)


class TestExamplesSuite:
    def test_induced_pair_checks_pass(self):
        results = {r.name: r for r in verify.run_examples_suite()}
        for name in (
            "induced/merged-primitive",
            "induced/switching-no-consensus",
            "induced/switching-consensus",
        ):
            assert results[name].passed, results[name].detail

    def test_switching_consensus_pins_each_k(self, monkeypatch):
        # The shifted paths alternate between pi = e_0 and (0.2, 0.4, 0.4)
        # with the parity of k; pinning one of them at every k must fail.
        monkeypatch.setattr(verify, "SHIFTED_PATHS_CONSENSUS", [(0, (0.2, 0.4, 0.4))] * 5)
        results = {r.name: r for r in verify.run_examples_suite()}
        assert not results["induced/switching-consensus"].passed


# run_perturbation_suite() as recorded when its four families still ran
# through drivers in merged.py and switching.py. Other BLAS builds may move
# the last bits, so numbers match to a relative 1e-9; the shift identity's
# worst gap is a rounding residue and is only held under 1e-9.
PERTURBATION_RECORD = [
    ("perturbation/shift-identity", True, "worst gap 2.95e-16"),
    ("perturbation/two-state-shift", True, ""),
    ("perturbation/two-state-ratio", True, "0.5555555555555559"),
    ("perturbation/alpha-linear", True, "slope 0.9793"),
    ("perturbation/merged-edge-linear", True, "slope 1.0007147774010403"),
    ("perturbation/k-geometric", True, "ratio 0.49417537713023424 vs rho2(A) 0.5000000000000002"),
    ("perturbation/switching-edge-linear", True, "slope 1.000118963143152"),
]
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?")


class TestPerturbationSuite:
    def test_matches_the_record(self):
        results = verify.run_perturbation_suite()
        assert [(r.name, r.passed) for r in results] == [
            (name, passed) for name, passed, _ in PERTURBATION_RECORD
        ]
        for result, (name, _, detail) in zip(results, PERTURBATION_RECORD):
            assert NUMBER.split(result.detail) == NUMBER.split(detail), name
            got = [float(x) for x in NUMBER.findall(result.detail)]
            if name == "perturbation/shift-identity":
                assert got[0] <= 1e-9
                continue
            want = [float(x) for x in NUMBER.findall(detail)]
            assert got == pytest.approx(want, rel=1e-9), name
