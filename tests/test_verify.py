import numpy as np
import pytest

import oplex.verify as verify
from oplex.merged import MergedOutcome
from oplex.spectral import slem_reversible


class TestBoundsSuiteDetails:
    def test_each_check_keeps_its_own_failure(self, monkeypatch):
        checks = MergedOutcome.checks
        monkeypatch.setattr(
            MergedOutcome,
            "checks",
            lambda self: {**checks(self), "consensus-in-interval": False},
        )
        results = {r.name: r for r in verify.run_bounds_suite(n_instances=3)}
        interval = results.pop("bounds/consensus-interval")
        assert not interval.passed
        assert interval.detail.startswith("instance 0: consensus ")
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
        for name in ("induced/merged-primitive", "induced/switching-no-consensus"):
            assert results[name].passed, results[name].detail
