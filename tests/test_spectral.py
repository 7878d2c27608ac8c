import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplex.fixtures import (
    complementary_cycles_pair,
    misaligned_degree_pair,
    oscillating_pair,
    triangle_pair,
)
from oplex import spectral
from oplex.merged import analyze as analyze_merged
from oplex.merged import MergedModel
from oplex.netcore import Csr, GeneratorSpec, IsolatedNodeError, LayerGraph, build_layer, generate
from oplex.spectral import (
    _EIG_TOL,
    _KRYLOV_MIN_N,
    _KRYLOV_NEAR_ONE,
    _KRYLOV_TOL,
    SLEM_SLACK,
    _last_components,
    _lanczos_excess,
    _outer_ritz,
    _slem_arnoldi,
    _slem_lanczos,
    eig_moduli_nonsymmetric,
    slem_reversible,
    symmetrize,
)
from oplex.stochastic import TransitionMatrix, transition_matrix
from oplex.switching import SwitchingModel
from oplex.switching import analyze as analyze_switching
from oplex.verify import random_layer


def moduli_symmetric(layer):
    """Eigenvalue moduli of the layer's symmetrization, sorted descending."""
    return np.sort(np.abs(np.linalg.eigvalsh(symmetrize(layer))))[::-1]


def moduli_general(m: TransitionMatrix):
    """Eigenvalue moduli of a general stochastic matrix, sorted descending."""
    return np.sort(np.abs(np.linalg.eigvals(m.entries)))[::-1]


def rayleigh(s, v):
    """v'Sv / v'v."""
    return float(v @ s @ v) / float(v @ v)


class TestSymmetrize:
    def test_regular_triangle_is_its_own_transition(self):
        layer1, _ = triangle_pair()
        s = symmetrize(layer1)
        assert np.array_equal(s, transition_matrix(layer1).entries)

    def test_exactly_symmetric(self):
        layer = random_layer(np.random.default_rng(3), 9)
        s = symmetrize(layer)
        assert np.array_equal(s, s.T)

    def test_spectrum_matches_transition_matrix(self):
        # char-poly roots of B frozen by hand: trace 0, det 2/9, minor sum -7/9
        _, layer2 = triangle_pair()
        s = symmetrize(layer2)
        eigs = np.sort(np.linalg.eigvalsh(s))
        assert np.abs(eigs - [-2 / 3, -1 / 3, 1.0]).max() <= 1e-12

    def test_rejects_isolated_node(self):
        layer = build_layer(3, [(0, 1, 1)])
        with pytest.raises(ValueError, match="isolated"):
            symmetrize(layer)


class TestSlemReversible:
    def test_five_cycle_cosine_spectrum(self):
        layer1, _ = complementary_cycles_pair()
        summary = slem_reversible(layer1)
        assert summary.method == "symmetric"
        assert summary.slem == pytest.approx(abs(np.cos(4 * np.pi / 5)), abs=1e-12)
        expected = sorted(
            (abs(np.cos(2 * k * np.pi / 5)) for k in range(5)), reverse=True
        )
        assert np.abs(moduli_symmetric(layer1) - expected).max() <= 1e-12

    def test_complete_graph_slem(self):
        n = 5
        layer = build_layer(
            n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
        )
        assert slem_reversible(layer).slem == pytest.approx(0.25, abs=1e-12)

    def test_single_edge_is_periodic(self):
        layer = build_layer(2, [(0, 1, 1)])
        summary = slem_reversible(layer)
        assert summary.slem == 1.0
        assert np.allclose(moduli_symmetric(layer), [1.0, 1.0])

    def test_summary_cached_on_the_layer(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        layer, _ = complementary_cycles_pair()
        first = slem_reversible(layer)
        assert slem_reversible(layer) is first
        assert len(calls) == 1
        # an equal layer is another object, with a cache of its own
        copy = LayerGraph(layer.csr)
        assert np.array_equal(copy.weights, layer.weights)
        fresh = slem_reversible(copy)
        assert fresh is not first and fresh == first
        assert len(calls) == 2


class TestNonsymmetric:
    def test_triangle_cycle_moduli(self):
        layer1, layer2 = triangle_pair()
        cycle = TransitionMatrix.from_entries(
            transition_matrix(layer2).entries @ transition_matrix(layer1).entries
        )
        summary = eig_moduli_nonsymmetric(cycle)
        assert summary.method == "nonsymmetric"
        assert np.abs(moduli_general(cycle) - [1.0, 1 / 3, 1 / 6]).max() <= 1e-12
        assert summary.slem == pytest.approx(1 / 3, abs=1e-12)

    def test_misaligned_merged_slem(self):
        layer1, layer2 = misaligned_degree_pair()
        model = MergedModel(layer1, layer2, 0.5)
        summary = eig_moduli_nonsymmetric(model.transition)
        assert summary.slem == pytest.approx(0.6928, abs=1e-3)

    def test_permutation_all_moduli_one(self):
        perm = TransitionMatrix.from_entries(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        summary = eig_moduli_nonsymmetric(perm)
        assert np.allclose(moduli_general(perm), 1.0)
        assert summary.slem == 1.0

    def test_similarity_with_symmetric_path(self):
        for seed in range(5):
            layer = random_layer(np.random.default_rng(seed), 11)
            sym = moduli_symmetric(layer)
            gen = moduli_general(transition_matrix(layer))
            assert np.abs(sym - gen).max() <= 1e-8
            assert slem_reversible(layer).slem == pytest.approx(
                eig_moduli_nonsymmetric(transition_matrix(layer)).slem, abs=1e-8
            )

    def test_trace_identity_zero_diagonal(self):
        # complex pairs contribute twice their real part, so the sum of real
        # parts equals the (zero) trace
        for seed in range(5):
            layer = random_layer(np.random.default_rng(100 + seed), 10)
            m = transition_matrix(layer)
            eigenvalues = np.linalg.eigvals(m.entries)
            assert abs(eigenvalues.real.sum()) <= 1e-8

    def test_primitive_has_slem_below_one(self):
        layer = random_layer(np.random.default_rng(5), 8)
        assert slem_reversible(layer).slem < 1.0


class TestExactSlemOne:
    """Where the support classification rules out consensus the SLEM is exactly 1."""

    @pytest.mark.parametrize("n", [4, 8, 50, _KRYLOV_MIN_N + 100])
    def test_even_rings(self, n):
        ring = generate(GeneratorSpec(kind="circulant", n=n, offsets=(1,)))
        assert slem_reversible(ring).slem == 1.0
        assert eig_moduli_nonsymmetric(transition_matrix(ring)).slem == 1.0

    def test_disconnected_layer(self):
        two_triangles = generate(GeneratorSpec(kind="circulant", n=6, offsets=(2,)))
        assert slem_reversible(two_triangles).slem == 1.0

    def test_cycles_that_are_not_sia(self):
        oscillating = SwitchingModel(*oscillating_pair(), k=1)
        ring = build_layer(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        matching = build_layer(4, [(0, 2, 1), (1, 3, 1)])
        two_classes = SwitchingModel(ring, matching, k=0)
        assert eig_moduli_nonsymmetric(oscillating).slem == 1.0
        assert eig_moduli_nonsymmetric(two_classes).slem == 1.0

    def test_layer_handed_back_by_lanczos_takes_no_dense_solve(self, monkeypatch):
        # Lanczos hands bipartite rings back near modulus 1; the
        # classification, not a dense solve on S, settles their SLEM, and
        # that of their blend, bipartite too.
        def refuse(layer):
            raise AssertionError("dense S built")

        monkeypatch.setattr(spectral, "symmetrize", refuse)
        n = _KRYLOV_MIN_N + 100
        rings = [generate(GeneratorSpec(kind="circulant", n=n, offsets=o)) for o in ((1,), (3,))]
        summary = slem_reversible(rings[0])
        assert summary.slem == 1.0 and summary.method == "lanczos"
        outcome = analyze_merged(MergedModel(*rings, 0.5), np.linspace(0.0, 1.0, n))
        assert outcome.bounds.slem_c == 1.0 and outcome.note == "merged transition not primitive"

    def test_primitive_layer_near_one_keeps_its_value(self):
        # Two triangles joined by a bridge of weight 1e-12: primitive, with
        # a SLEM within SLEM_SLACK of 1 but below it.
        edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1), (2, 3, 1e-12)]
        slem = slem_reversible(build_layer(6, edges)).slem
        assert 1.0 - SLEM_SLACK < slem < 1.0


class TestSlemSlack:
    """Every check that reads SLEM_SLACK fails on a SLEM 1e-7 past its bound
    and passes at the slack's edge, so the slack cannot widen unseen."""

    @staticmethod
    def checked(check, past):
        """The named check on a real model whose SLEM is moved past its
        bound by past, on the side that breaks it."""
        rings = [generate(GeneratorSpec(kind="circulant", n=9, offsets=(o,))) for o in (1, 2)]
        x0 = np.linspace(0.0, 1.0, 9)
        if check == "slem-under-rho-star":
            outcome = analyze_switching(SwitchingModel(*rings, 2), x0)
            moved = outcome._replace(slem_cycle=outcome.rho_star + past)
        else:
            bounds = analyze_merged(MergedModel(*rings, 0.5), x0).bounds
            assert bounds.degrees_matched
            if check == "slem-lower-bound":
                moved = bounds._replace(slem_c=bounds.lower_bound - past)
            else:
                moved = bounds._replace(slem_c=bounds.upper_bound + past)
        return moved.checks()[check]

    @pytest.mark.parametrize("check", ["slem-lower-bound", "slem-upper-bound", "slem-under-rho-star"])
    def test_fails_past_the_slack_and_passes_at_its_edge(self, check):
        assert self.checked(check, 0.0) is True
        assert self.checked(check, SLEM_SLACK) is True
        assert self.checked(check, 1e-7) is False


class TestRayleigh:
    def test_eigenvector_recovers_eigenvalue(self):
        _, layer2 = triangle_pair()
        s = symmetrize(layer2)
        values, vectors = np.linalg.eigh(s)
        for idx in range(3):
            assert rayleigh(s, vectors[:, idx]) == pytest.approx(values[idx])

    def test_sqrt_degree_vector_gives_one(self):
        layer = random_layer(np.random.default_rng(11), 7)
        s = symmetrize(layer)
        v = np.sqrt(layer.degrees)
        assert rayleigh(s, v) == pytest.approx(1.0, abs=1e-12)

    def test_random_vectors_stay_in_spectrum_range(self):
        _, layer2 = triangle_pair()
        s = symmetrize(layer2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rayleigh(s, rng.normal(size=3))
            assert -2 / 3 - 1e-12 <= q <= 1.0 + 1e-12

    def test_courant_fischer_second_eigenvalue(self):
        # random unit vectors orthogonal to the top eigenvector never beat
        # lambda_2 of the merged symmetrization on degree-matched pairs
        from oplex.verify import degree_matched_pair

        rng = np.random.default_rng(42)
        layer1, layer2 = degree_matched_pair(rng, 10)
        model = MergedModel(layer1, layer2, 0.4)
        s_c = symmetrize(model.merged_layer)
        lambda2 = np.sort(np.linalg.eigvalsh(s_c))[-2]
        top = np.sqrt(model.merged_layer.degrees)
        top = top / np.linalg.norm(top)
        worst = -np.inf
        for _ in range(200):
            v = rng.normal(size=10)
            v -= (v @ top) * top
            worst = max(worst, rayleigh(s_c, v))
        assert worst <= lambda2 + 1e-9


def dense_slem(layer):
    """Second largest eigenvalue modulus from the full symmetric spectrum."""
    return min(float(moduli_symmetric(layer)[1]), 1.0)


def denser_layer(rng, n, density, ring=()):
    """random_layer, or the ring circulant with offsets ring if any, plus
    each other pair joined with probability density."""
    if ring:
        w = generate(GeneratorSpec(kind="circulant", n=n, offsets=ring)).weights
    else:
        w = random_layer(rng, n).weights
    extra = np.triu(rng.random((n, n)) < density, 1) & (w == 0)
    w[extra] = rng.uniform(0.5, 2.0, size=int(extra.sum()))
    return LayerGraph.from_weights(np.triu(w) + np.triu(w, 1).T)


def hubs_and_random(n, seed):
    """Barabasi-Albert(5) blended with Erdos-Renyi of mean degree 10 at alpha 0.5."""
    ba = generate(GeneratorSpec(kind="barabasi-albert", n=n, m=5, seed=seed))
    er = generate(GeneratorSpec(kind="erdos-renyi", n=n, p=10.0 / n, seed=seed + 1))
    return MergedModel(ba, er, 0.5).merged_layer


def ring_plus_chords_model(n, k, seed):
    """Switching model on two layers, each the ring circulant(1) plus n
    random chords; layer 2's edges carry integer weights 1..4."""
    rng = np.random.default_rng(seed)
    layers = []
    for weighted in (False, True):
        w = generate(GeneratorSpec(kind="circulant", n=n, offsets=(1,))).weights
        i, j = rng.integers(0, n, size=(2, n))
        keep = i != j
        w[i[keep], j[keep]] = w[j[keep], i[keep]] = 1.0
        if weighted:
            classes = np.triu(rng.integers(1, 5, size=(n, n)))
            w *= classes + np.triu(classes, 1).T
        layers.append(LayerGraph.from_weights(w))
    return SwitchingModel(*layers, k)


def ring_plus_chords_cycle(n, k, seed):
    """B A^k of ring_plus_chords_model, formed."""
    return TransitionMatrix.from_entries(ring_plus_chords_model(n, k, seed).entries)


def dense_cycle_slem(m):
    """Second largest eigenvalue modulus from eigvals on the full matrix."""
    return min(float(moduli_general(m)[1]), 1.0)


# Layers on which Lanczos restarts several times; the circulant's spectrum is
# doubly degenerate (lambda_j = lambda_(n-j)) at both ends, SLEM 0.852.
RESTART_LAYERS = {
    "barabasi-albert": GeneratorSpec(kind="barabasi-albert", n=600, m=3, seed=4),
    "erdos-renyi": GeneratorSpec(kind="erdos-renyi", n=600, p=0.02, seed=5),
    "k-regular": GeneratorSpec(kind="k-regular", n=800, k=3, seed=6),
    "circulant": GeneratorSpec(kind="circulant", n=601, offsets=(120, 129, 144, 245)),
}


class TestKrylov:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(8, 120),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
        alpha=st.sampled_from([None, 0.1, 0.5, 0.9]),
        ring=st.booleans(),
    )
    def test_matches_dense_spectrum(self, n, seed, density, alpha, ring):
        # single layers (alpha None) and merged pairs, called below the
        # crossover; slow-mixing rings exercise the hand-back to eigvalsh
        rng = np.random.default_rng(seed)
        layer = denser_layer(rng, n, density, (1, 2) if ring else ())
        if alpha is not None:
            layer = MergedModel(layer, denser_layer(rng, n, density), alpha).merged_layer
        slem = _slem_lanczos(layer)
        dense = dense_slem(layer)
        if slem is None:
            # the dense solver takes over only on a spectrum near modulus 1
            assert dense >= _KRYLOV_NEAR_ONE
        else:
            assert abs(slem - dense) <= 1e-12

    def test_merged_hubs_take_lanczos(self):
        layer = hubs_and_random(1000, 11)
        summary = slem_reversible(layer)
        assert summary.method == "lanczos"
        assert abs(summary.slem - dense_slem(layer)) <= 1e-12

    @pytest.mark.parametrize(
        "kind, alpha",
        [(kind, None) for kind in RESTART_LAYERS] + [("blend", alpha) for alpha in (0.25, 0.5, 0.75)],
        ids=list(RESTART_LAYERS) + ["blend-0.25", "blend-0.5", "blend-0.75"],
    )
    def test_restarted_lanczos_matches_eigvalsh(self, kind, alpha):
        # layers past the crossover whose SLEMs take several restarts of the
        # 40-vector basis, and blends of the first two
        if kind == "blend":
            ba, er = (generate(RESTART_LAYERS[k]) for k in ("barabasi-albert", "erdos-renyi"))
            layer = MergedModel(ba, er, alpha).merged_layer
        else:
            layer = generate(RESTART_LAYERS[kind])
        assert layer.n >= _KRYLOV_MIN_N
        slem = _slem_lanczos(layer)
        dense = dense_slem(layer)
        assert dense < _KRYLOV_NEAR_ONE
        assert slem is not None and abs(slem - dense) <= 1e-12

    def test_restarted_lanczos_memory_is_bounded(self):
        # The 8-regular layer on 2 10^4 nodes has a crowded spectrum edge (the
        # Kesten-McKay edge 2 sqrt(7) / 8 = 0.6614). Without restarts Lanczos
        # spent its 300 steps on a 302-row basis (53 MB traced) and handed the
        # layer to a dense solve of 3.2 GB; restarted, its 42-row basis
        # resolves it at about 14 MB traced.
        layer = generate(GeneratorSpec(kind="k-regular", n=20000, k=8, seed=5))
        tracemalloc.start()
        try:
            slem = _slem_lanczos(layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slem is not None and 0.6 < slem < 2 * np.sqrt(7) / 8
        assert peak < 20 * 2**20

    def test_lanczos_out_of_steps_falls_back_to_dense(self, monkeypatch):
        # 20 operator applications are too few for this layer, whose
        # spectrum is not near modulus 1: Lanczos spends its budget before
        # its basis is full, and eigvalsh takes over.
        full = slem_reversible(hubs_and_random(600, 11))
        assert full.method == "lanczos" and full.slem < _KRYLOV_NEAR_ONE
        monkeypatch.setattr(spectral, "_LANCZOS_BUDGET", 20)
        layer = hubs_and_random(600, 11)
        assert _slem_lanczos(layer) is None
        summary = slem_reversible(layer)
        assert summary.method == "symmetric"
        assert summary.slem == pytest.approx(full.slem, abs=1e-12)

    def test_slow_ring_falls_back_to_dense(self):
        ring = generate(GeneratorSpec(kind="circulant", n=1000, offsets=(1, 2)))
        assert _slem_lanczos(ring) is None
        summary = slem_reversible(ring)
        assert summary.method == "symmetric"
        j = np.arange(1, 1000)
        closed_form = np.abs(np.cos(2 * np.pi * j / 1000) + np.cos(4 * np.pi * j / 1000)).max() / 2
        assert summary.slem == pytest.approx(closed_form, abs=1e-12)

    def test_disconnected_union_has_slem_one(self):
        half = _KRYLOV_MIN_N // 2 + 1
        parts = [generate(GeneratorSpec(kind="barabasi-albert", n=half, m=5, seed=s)) for s in (1, 2)]
        w = np.zeros((2 * half, 2 * half))
        w[:half, :half] = parts[0].weights
        w[half:, half:] = parts[1].weights
        assert slem_reversible(LayerGraph.from_weights(w)).slem == pytest.approx(1.0, abs=1e-12)

    def test_even_ring_has_slem_one(self):
        n = 2 * _KRYLOV_MIN_N
        ring = generate(GeneratorSpec(kind="circulant", n=n, offsets=(1,)))
        assert slem_reversible(ring).slem == pytest.approx(1.0, abs=1e-12)

    def test_isolated_node_raises(self):
        n = _KRYLOV_MIN_N
        layer = build_layer(n, [(i, i + 1, 1.0) for i in range(n - 2)])
        with pytest.raises(IsolatedNodeError, match=f"node {n - 1} is isolated"):
            _slem_lanczos(layer)
        with pytest.raises(IsolatedNodeError):
            slem_reversible(layer)

    def test_reruns_are_bit_identical(self):
        layer = hubs_and_random(_KRYLOV_MIN_N, 5)
        copy = LayerGraph.from_weights(layer.weights.copy())
        first, second, third = (slem_reversible(x) for x in (layer, layer, copy))
        assert first.method == "lanczos"
        assert first == second == third
        cycle = ring_plus_chords_cycle(_KRYLOV_MIN_N, 1, 5)
        copy = TransitionMatrix(Csr.from_dense(cycle.entries))
        first, second, third = (eig_moduli_nonsymmetric(x) for x in (cycle, cycle, copy))
        assert first.method == "arnoldi"
        assert first == second == third

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(8, 120),
        k=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
        rings=st.tuples(*[st.sampled_from([(), (1,), (1, 2)])] * 2),
    )
    def test_arnoldi_matches_dense_eigvals(self, n, k, seed, density, rings):
        # switching cycles, applied factor by factor (matrix_free forced, as
        # these are below the crossover); even rings give periodic or
        # reducible cycles, slow rings the hand-back to eigvals
        rng = np.random.default_rng(seed)
        layer1, layer2 = (denser_layer(rng, n, density, ring) for ring in rings)
        cycle = SwitchingModel(layer1, layer2, k)
        with mock.patch.object(SwitchingModel, "matrix_free", True):
            slem = _slem_arnoldi(cycle)
        dense = dense_cycle_slem(cycle)
        if slem is None:
            assert dense >= _KRYLOV_NEAR_ONE
        else:
            assert abs(slem - dense) <= 1e-11

    def test_rings_with_double_eigenvalues(self):
        # a circulant spectrum is doubly degenerate, so the Krylov space turns
        # nearly invariant after about n/2 steps; one Gram-Schmidt pass loses
        # orthogonality there and ends in a spurious hand-back to the dense solver
        for n in range(8, 40):
            for offsets in ((1, 2), (1, 2, 3)):
                ring = generate(GeneratorSpec(kind="circulant", n=n, offsets=offsets))
                j = np.arange(1, n)
                spectrum = sum(np.cos(2 * np.pi * o * j / n) for o in offsets) / len(offsets)
                closed_form = np.abs(spectrum).max()
                for slem in (_slem_lanczos(ring), _slem_arnoldi(transition_matrix(ring))):
                    assert slem == pytest.approx(closed_form, abs=1e-11)

    # Operator applications the restarted Lanczos takes on the five solves
    # of test_hubs_and_blends_stop_on_the_eigenvalue_error when it stops
    # only at residual < _KRYLOV_TOL (_EIG_TOL set to 0): 160, 160, 136, 136
    # and 136, each a full first basis and then whole restarts.
    RESIDUAL_RULE_APPLICATIONS = 728
    # The same five solves under the eigenvalue error rule: 136, 112, 112,
    # 112 and 112.
    EIGENVALUE_RULE_APPLICATIONS = 584

    def test_hubs_and_blends_stop_on_the_eigenvalue_error(self, monkeypatch):
        # the shape of the merged-hubs sweep: BA(1000, 5), ER(1000, 0.01) and
        # their blends, whose outer gaps (about 2e-3 to 1e-2) let the
        # eigenvalue error rule stop well before the residual reaches 1e-12
        applications = []
        lanczos = spectral._restarted_lanczos

        def counted(apply, u):
            def counted_apply(x):
                applications.append(1)
                return apply(x)

            return lanczos(counted_apply, u)

        monkeypatch.setattr(spectral, "_restarted_lanczos", counted)
        ba = generate(GeneratorSpec(kind="barabasi-albert", n=1000, m=5, seed=1))
        er = generate(GeneratorSpec(kind="erdos-renyi", n=1000, p=0.01, seed=2))
        layers = [ba, er] + [MergedModel(ba, er, alpha).merged_layer for alpha in (0.25, 0.5, 0.75)]
        for layer in layers:
            assert abs(_slem_lanczos(layer) - dense_slem(layer)) <= 1e-12
        assert len(applications) == self.EIGENVALUE_RULE_APPLICATIONS
        assert self.EIGENVALUE_RULE_APPLICATIONS < self.RESIDUAL_RULE_APPLICATIONS

    def test_ring_plus_chords_cycle_takes_arnoldi(self):
        cycle = ring_plus_chords_cycle(600, 2, 3)
        summary = eig_moduli_nonsymmetric(cycle)
        assert summary.method == "arnoldi"
        assert abs(summary.slem - dense_cycle_slem(cycle)) <= 1e-11

    def test_cycle_of_even_rings_has_slem_one(self):
        # both layers bipartite on the same classes: B A keeps each class
        n = 2 * _KRYLOV_MIN_N
        layer1 = generate(GeneratorSpec(kind="circulant", n=n, offsets=(1,)))
        layer2 = generate(GeneratorSpec(kind="circulant", n=n, offsets=(1, 3)))
        cycle = SwitchingModel(layer1, layer2, 1)
        assert cycle.matrix_free
        assert eig_moduli_nonsymmetric(cycle).slem == pytest.approx(1.0, abs=1e-12)

    def test_arnoldi_rejects_non_stochastic(self):
        cycle = ring_plus_chords_cycle(_KRYLOV_MIN_N, 1, 4)
        bad = TransitionMatrix(Csr.from_dense(cycle.entries * (1 + 1e-9)))
        with pytest.raises(RuntimeError, match="not stochastic"):
            eig_moduli_nonsymmetric(bad)

    @pytest.mark.parametrize(
        "model",
        [{"kind": "merged", "alphas": [0.5]}, {"kind": "switching", "ks": [1, 2]}],
        ids=["merged", "switching"],
    )
    def test_no_scipy_import(self, model):
        # scipy.sparse.linalg alone adds about 24 MB of resident memory; the
        # Krylov paths are plain numpy and no sweep may load scipy.
        script = f"""
import sys
from oplex.harness import run_experiment
config = {{
    "model": {model!r},
    "layers": [
        {{"kind": "barabasi-albert", "n": {_KRYLOV_MIN_N}, "m": 5, "seed": 1}},
        {{"kind": "erdos-renyi", "n": {_KRYLOV_MIN_N}, "p": 0.02, "seed": 2}},
    ],
    "x0": {{"kind": "uniform", "seed": 3}},
}}
result = run_experiment(config)
assert all(row["slem"] > 0 for row in result.rows)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestLanczosStopRule:
    def test_wide_gap_accepts_at_the_eigenvalue_error(self):
        theta = np.array([-0.2, 0.1, 0.5, 0.9])
        gap = 0.4 - 1e-3  # top value less the next one, less its residual
        target = np.sqrt(_EIG_TOL * gap)
        for top_residual, accepted in ((0.9 * target, True), (1.1 * target, False)):
            residuals = np.array([0.0, 0.0, 1e-3, top_residual])
            excess = _lanczos_excess(theta, residuals)
            assert (excess < 1.0) == accepted
            assert excess == pytest.approx(top_residual / target)

    @pytest.mark.parametrize(
        "theta, next_residual",
        [([-0.5, -0.5, 0.2, 0.9], 0.0), ([-0.5, -0.4999, 0.2, 0.9], 1e-3), ([0.3], 0.0)],
        ids=["double-extreme", "negative-gap", "single-ritz-value"],
    )
    def test_no_positive_gap_falls_back_to_the_residual_rule(self, theta, next_residual):
        theta = np.array(theta)
        for low_residual, accepted in ((0.9 * _KRYLOV_TOL, True), (1.1 * _KRYLOV_TOL, False)):
            residuals = np.zeros(theta.shape)
            residuals[0] = low_residual
            if theta.shape[0] > 1:
                residuals[1] = next_residual
            excess = _lanczos_excess(theta, residuals)
            assert (excess < 1.0) == accepted
            assert excess == pytest.approx(low_residual / _KRYLOV_TOL)

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.lists(st.floats(-1, 1), min_size=1, max_size=12),
        residuals=st.lists(st.floats(0, 1e-3), min_size=12, max_size=12),
    )
    def test_never_later_than_the_residual_rule(self, theta, residuals):
        # the residual rule stays as an alternative: whatever the gaps, an
        # outer residual below _KRYLOV_TOL at both ends is accepted
        theta = np.sort(np.array(theta))
        residuals = np.array(residuals[: theta.shape[0]])
        outer = max(residuals[0], residuals[-1])
        assert _lanczos_excess(theta, residuals) <= outer / _KRYLOV_TOL


def gaps_to_the_rest(theta, values):
    """Distance from each of values to the nearest other entry of theta."""
    distance = np.abs(np.asarray(values)[:, None] - theta)
    distance[distance == distance.min(axis=1, keepdims=True)] = np.inf
    return distance.min(axis=1, initial=np.inf)


def krylov_projection(a, j, rng):
    """The j x j Hessenberg H of j Arnoldi steps on the dense a from a random
    start, reorthogonalized twice; tridiagonal to rounding for a symmetric a."""
    n = a.shape[0]
    basis = np.zeros((j + 1, n))
    basis[0] = rng.standard_normal(n)
    basis[0] /= np.linalg.norm(basis[0])
    h = np.zeros((j + 1, j))
    for k in range(j):
        r = a @ basis[k]
        for _ in range(2):
            c = basis[: k + 1] @ r
            r -= c @ basis[: k + 1]
            h[: k + 1, k] += c
        h[k + 1, k] = np.linalg.norm(r)
        basis[k + 1] = r / h[k + 1, k]
    return h[:j]


def with_eigenpair(rng, s, theta, symmetric):
    """A j x j unreduced tridiagonal (symmetric) or upper Hessenberg matrix
    with the real eigenpair (theta, s): random off-diagonal entries scaled
    so each row stays of order 1, then the diagonal solved from h s = theta s."""
    j = s.shape[0]
    h = np.zeros((j, j))
    for k in range(1, j):
        h[k, k - 1] = rng.uniform(0.5, 1.0) * abs(s[k] / s[k - 1])
        if symmetric:
            h[k - 1, k] = h[k, k - 1]
    if not symmetric:
        h += np.triu(rng.uniform(-1, 1, (j, j)), 1)
    off_diagonal = h @ s - np.diag(h) * s
    h[np.diag_indices(j)] = theta - off_diagonal / s
    return h


class TestRitzLastComponents:
    """_last_components against the eigenvector matrices it replaces.

    Arnoldi's H is upper Hessenberg; on a symmetric operator (a cycle of a
    regular layer alone, say) it is a symmetric tridiagonal to rounding.
    The symmetric cases hand the recurrence such a tridiagonal and read
    both ends of its spectrum against eigh.
    """

    @staticmethod
    def check(h, symmetric):
        # eigh and eig hold each component only to rounding relative to the
        # whole vector: 1e-10 relative where it is above 1e-5, 1e-13 absolute
        # below (a converged Ritz vector)
        theta, vectors = np.linalg.eigh(h) if symmetric else np.linalg.eig(h)
        j = theta.shape[0]
        if symmetric:
            outer = np.arange(j) if j <= 4 else np.array([0, 1, j - 2, j - 1])
        else:
            outer = np.array([np.argmax(np.abs(theta))])
        last = _last_components(h, theta[outer], gaps_to_the_rest(theta, theta[outer]))
        assert last is not None
        expected = np.abs(vectors[-1, outer])
        held = expected > 1e-5
        np.testing.assert_allclose(last[held], expected[held], rtol=1e-10, atol=0)
        np.testing.assert_allclose(last, expected, rtol=0, atol=1e-13)
        return theta[outer]

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 8])
    def test_random_tridiagonal(self, j):
        rng = np.random.default_rng(j)
        for _ in range(5):
            sub = rng.uniform(0.5, 1.0, j - 1)
            self.check(np.diag(rng.uniform(-1, 1, j)) + np.diag(sub, -1) + np.diag(sub, 1), symmetric=True)

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 8])
    def test_random_hessenberg(self, j):
        rng = np.random.default_rng(j)
        for _ in range(5):
            h = np.triu(rng.uniform(-1, 1, (j, j)), -1)
            h[np.arange(1, j), np.arange(j - 1)] = rng.uniform(0.5, 1.0, j - 1)
            self.check(h, symmetric=False)

    @pytest.mark.parametrize("j", [16, 40, 130])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["lanczos", "arnoldi"])
    def test_krylov_projections(self, j, symmetric):
        # H of j Krylov steps on a random operator on 300 nodes: a symmetric
        # one with its spectrum spread over [-1, 1], whose H is taken as the
        # exact symmetric tridiagonal of its diagonal and subdiagonal, or a
        # general one with its spectrum filling the unit disc
        rng = np.random.default_rng(j)
        a = rng.standard_normal((300, 300)) / np.sqrt(300)
        if symmetric:
            q = np.linalg.qr(a)[0]
            a = (q * rng.uniform(-1, 1, 300)) @ q.T
        h = krylov_projection(a, j, rng)
        if symmetric:
            h = np.tril(h) + np.tril(h, -1).T
        self.check(h, symmetric)

    def test_complex_conjugate_outer_pair(self):
        # 0.9 times a rotation by 2 pi / 7 beside a spectrum inside the disc
        # of radius 0.5, in a random basis: the outer Ritz pair is complex
        rng = np.random.default_rng(3)
        c, s = np.cos(2 * np.pi / 7), np.sin(2 * np.pi / 7)
        d = np.zeros((60, 60))
        d[:2, :2] = 0.9 * np.array([[c, -s], [s, c]])
        d[2:, 2:] = 0.5 * rng.standard_normal((58, 58)) / np.sqrt(58)
        q = np.linalg.qr(rng.standard_normal((60, 60)))[0]
        h = krylov_projection(q @ d @ q.T, 10, rng)
        outer = self.check(h, symmetric=False)
        assert abs(outer[0].imag) > 0.1
        theta = np.linalg.eigvals(h)
        pair = np.array([outer[0], np.conj(outer[0])])
        last = _last_components(h, pair, gaps_to_the_rest(theta, pair))
        assert last[1] == pytest.approx(last[0], rel=1e-10, abs=0)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["tridiagonal", "hessenberg"])
    @pytest.mark.parametrize("s_j", [1e-13, 1e-40, 1e-150, 1e-250])
    def test_converged_ritz_vector(self, symmetric, s_j):
        # A Ritz vector that has converged has a tiny last component, and its
        # recurrence grows by 1 / s_j from the bottom up: past 1e-100 it is
        # rescaled on the way. eigh and eig hold that component only to
        # rounding relative to the whole vector, so it is checked against the
        # exact eigenpair the matrix is built around.
        rng = np.random.default_rng(7)
        j, theta = 40, 0.95
        s = s_j ** (np.arange(j) / (j - 1)) * rng.uniform(0.5, 1.0, j)
        s[-1] = s_j
        h = with_eigenpair(rng, s, theta, symmetric)
        values = np.linalg.eigvalsh(h) if symmetric else np.linalg.eigvals(h).real
        found = values[[np.argmin(np.abs(values - theta))]]
        assert found[0] == pytest.approx(theta, abs=1e-12)
        last = _last_components(h, found, gaps_to_the_rest(values, found))
        assert last is not None
        assert last[0] == pytest.approx(s_j / np.linalg.norm(s), rel=1e-10, abs=0)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["tridiagonal", "hessenberg"])
    def test_vector_the_start_does_not_reach_falls_back_to_eigh(self, symmetric):
        # A diagonal falling from 0.9 to -1 down the matrix, with couplings a
        # tenth of its steps: the eigenvector of the lowest eigenvalue, which
        # is also the one of largest modulus, lives at the bottom with a first
        # component near 1e-40. The recurrence cannot find it from there and
        # says so; the check then takes the eigenvector matrix of eig, which
        # agrees with eigh's (symmetric) and with eig's own (hessenberg).
        rng = np.random.default_rng(1)
        j = 40
        sub = rng.uniform(0.002, 0.01, j - 1)
        h = np.diag(np.linspace(0.9, -1.0, j)) + np.diag(sub, -1) + np.diag(sub, 1)
        theta, vectors = np.linalg.eigh(h) if symmetric else np.linalg.eig(h)
        low = np.argmax(np.abs(theta))
        assert abs(vectors[0, low]) < 1e-30 and theta[low] == theta.min()
        assert _last_components(h, theta[[low]], gaps_to_the_rest(theta, theta[[low]])) is None
        outer, residual = _outer_ritz(h, 0.5)
        assert outer == pytest.approx(theta[low], rel=0, abs=1e-14)
        assert residual == pytest.approx(0.5 * abs(vectors[-1, low]), rel=1e-10, abs=1e-16)
