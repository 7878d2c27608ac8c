import inspect
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_spectral import ring_plus_chords_model

from oplex import spectral, switching
from oplex.fixtures import induced_pair, oscillating_pair, sia_pair, triangle_pair
from oplex.netcore import (
    GeneratorSpec,
    IsolatedNodeError,
    LayerGraph,
    build_layer,
    generate,
    load_two_layer_dataset,
)
from oplex.perturb import fit_shift_family
from oplex.spectral import _KRYLOV_MIN_N, eig_moduli_nonsymmetric, slem_reversible
from oplex.stochastic import (
    SupportClasses,
    TransitionMatrix,
    consensus_value,
    is_primitive,
    product_classes,
    stationary_from_degrees,
    stationary_general,
    transition_matrix,
)
from oplex.switching import SwitchingModel, analyze, rho_star
from oplex.verify import (
    INDUCED_PERIODS,
    consensus_deviations,
    period_limits,
    random_layer,
    reweight_edge,
)

DATA = Path(__file__).parent / "data"
X0_TRIANGLE = np.array([1.0, 0.0, 0.0])
X0_FIVE = np.array([1.0, 0.0, 0.0, 0.0, 0.0])

TRIANGLE_CYCLE = np.array(
    [[1 / 2, 1 / 6, 1 / 3], [1 / 6, 1 / 2, 1 / 3], [1 / 4, 1 / 4, 1 / 2]]
)


class TestConstructor:
    def test_takes_only_its_definition(self):
        layer1, layer2 = triangle_pair()
        assert list(inspect.signature(SwitchingModel).parameters) == ["layer1", "layer2", "k"]
        model = SwitchingModel(layer1, layer2, 2)
        assert (model.layer1, model.layer2, model.k) == (layer1, layer2, 2)
        # A and B are the layers' own cached transition matrices.
        assert model.a is transition_matrix(layer1)
        assert model.b is transition_matrix(layer2)

    def test_rejects_mismatched_sizes(self):
        layer1, _ = triangle_pair()
        other = build_layer(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="^layers have different node counts: 3 vs 2$"):
            SwitchingModel(layer1, other, 1)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="^steps per cycle k must be >= 0, got -1$"):
            SwitchingModel(*triangle_pair(), -1)

    @pytest.mark.parametrize("isolated_in", [1, 2])
    def test_rejects_node_isolated_in_a_layer(self, isolated_in):
        layers = [build_layer(3, [(0, 1, 1), (1, 2, 1)]), build_layer(3, [(0, 1, 1)])]
        if isolated_in == 1:
            layers.reverse()
        with pytest.raises(IsolatedNodeError, match=r"^node 2 is isolated \(zero weighted degree\)$"):
            SwitchingModel(*layers, 1)


class TestSchedule:
    def test_k1_alternates(self):
        model = SwitchingModel(*triangle_pair(), k=1)
        assert model.schedule == (model.a, model.b)

    def test_k0_always_layer2(self):
        model = SwitchingModel(*triangle_pair(), k=0)
        assert model.schedule == (model.b,)

    def test_k3_boundary(self):
        model = SwitchingModel(*triangle_pair(), k=3)
        assert model.schedule == (model.a, model.a, model.a, model.b)


class TestCycleMatrix:
    def test_triangle_pair_k1(self):
        model = SwitchingModel(*triangle_pair(), k=1)
        assert np.abs(model.entries - TRIANGLE_CYCLE).max() <= 1e-15

    def test_k0_is_layer2_matrix(self):
        layer1, layer2 = triangle_pair()
        model = SwitchingModel(layer1, layer2, k=0)
        assert np.abs(
            model.entries - transition_matrix(layer2).entries
        ).max() <= 1e-15

    def test_oscillating_pair_first_row(self):
        model = SwitchingModel(*oscillating_pair(), k=1)
        assert np.array_equal(model.entries[0], [0, 0, 0, 1, 0])

    def test_cycle_is_product(self):
        layer1, layer2 = triangle_pair()
        model = SwitchingModel(layer1, layer2, k=3)
        a = transition_matrix(layer1).entries
        b = transition_matrix(layer2).entries
        assert np.abs(model.entries - b @ np.linalg.matrix_power(a, 3)).max() <= 1e-12


class TestAnalyze:
    def test_oscillating_pair_period_two(self):
        model = SwitchingModel(*oscillating_pair(), k=1)
        outcome = analyze(model, X0_FIVE)
        assert outcome.status == "oscillation"
        assert outcome.period == 2 and outcome.closed_classes == 1
        limits = period_limits(model.entries, outcome.period)
        assert np.abs(limits[0] - limits[1]).max() > 0.5
        assert outcome.slem_cycle == pytest.approx(1.0, abs=1e-10)

    def test_sia_pair_consensus(self):
        # B A is reducible (nodes 1 and 3 are transient) yet reaches consensus.
        model = SwitchingModel(*sia_pair(), k=1)
        outcome = analyze(model, np.array([0.1, 0.9, 0.3, 0.7]))
        assert outcome.status == "consensus"
        assert outcome.value == pytest.approx(0.2, abs=1e-12)
        assert np.abs(outcome.pi.pi - [1 / 2, 0, 1 / 2, 0]).max() <= 1e-12
        assert outcome.slem_cycle == pytest.approx(0.583, abs=1e-3)

    def test_two_closed_classes_disagree(self):
        # k = 0 with layer 2 the matching {0-2, 1-3}: B is two swaps.
        layer1 = generate(GeneratorSpec(kind="circulant", n=4, offsets=(1,)))
        layer2 = LayerGraph.from_weights(np.eye(4)[[2, 3, 0, 1]])
        outcome = analyze(SwitchingModel(layer1, layer2, 0), np.array([0.0, 0.2, 0.6, 1.0]))
        assert outcome.status == "disagreement"
        assert outcome.closed_classes == 2 and outcome.period is None
        assert outcome.value is None

    def test_period_limits_follow_the_residues(self):
        # A 3-cycle permutation: Q^(3m + r) = Q^r for every m.
        q = np.eye(3)[[1, 2, 0]]
        limits = period_limits(q, 3)
        assert len(limits) == 3
        for r, limit in enumerate(limits):
            assert np.array_equal(limit, np.linalg.matrix_power(q, r))

    def test_triangle_pair_consensus(self):
        model = SwitchingModel(*triangle_pair(), k=1)
        outcome = analyze(model, X0_TRIANGLE)
        assert outcome.status == "consensus"
        assert outcome.value == pytest.approx(3 / 10, abs=1e-12)
        assert np.abs(outcome.pi.pi - [3 / 10, 3 / 10, 2 / 5]).max() <= 1e-12

    def test_same_layer_any_k_matches_single_layer(self):
        layer1, _ = triangle_pair()
        single = consensus_value(stationary_from_degrees(layer1), X0_TRIANGLE)
        for k in (0, 1, 3):
            outcome = analyze(SwitchingModel(layer1, layer1, k), X0_TRIANGLE)
            assert outcome.status == "consensus"
            assert outcome.value == pytest.approx(single, abs=1e-12)


@st.composite
def unweighted_pair(draw):
    """Two Bernoulli(1/2) layers on 3..7 nodes, isolated nodes tied to their successor."""
    n = draw(st.integers(min_value=3, max_value=7))
    layers = []
    for _ in range(2):
        upper = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        w = np.zeros((n, n))
        w[np.triu_indices(n, k=1)] = upper
        w += w.T
        for i in np.flatnonzero(w.sum(axis=1) == 0):
            j = (i + 1) % n
            w[i, j] = w[j, i] = 1.0
        layers.append(LayerGraph.from_weights(w))
    return layers[0], layers[1], draw(st.integers(min_value=0, max_value=4))


def _brute_force_limit(q: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Q^t at t = 420 * 2^12, the period of the sequence Q^(t + r), and its closed classes.

    420 is a multiple of every period up to 7. The number of closed classes
    is the rank of the average of Q^(t + r) over one period.
    """
    limit = np.linalg.matrix_power(q, 420)
    for _ in range(12):
        limit = limit @ limit
    powers = [limit]
    for _ in range(420):
        powers.append(powers[-1] @ q)
        if np.abs(powers[-1] - limit).max() <= 1e-9:
            break
    period = len(powers) - 1
    classes = np.linalg.matrix_rank(np.mean(powers[:-1], axis=0), tol=1e-8)
    return limit, period, int(classes)


@given(unweighted_pair())
@settings(max_examples=200, deadline=None)
def test_analyze_matches_brute_force_limit(pair):
    layer1, layer2, k = pair
    model = SwitchingModel(layer1, layer2, k)
    x0 = np.linspace(0.0, 1.0, layer1.n)
    outcome = analyze(model, x0)
    limit, period, classes = _brute_force_limit(model.entries)
    assert outcome.closed_classes == classes
    if classes > 1:
        assert outcome.status == "disagreement" and outcome.period is None
    elif period > 1:
        assert outcome.status == "oscillation" and outcome.period == period
    else:
        assert outcome.status == "consensus" and outcome.period == 1
        assert np.abs(limit @ x0 - outcome.value).max() <= 1e-9
        assert np.abs(limit - outcome.pi.pi).max() <= 1e-9


@st.composite
def shaped_pair(draw):
    """Two layers on 2..8 nodes with weights 1..4, and k in 0..4. Each layer
    is random, bipartite (edges only between even and odd nodes) or split
    (no edge between the two halves), so cycles come out periodic and
    reducible as well as primitive; an isolated node is tied to a neighbor
    in index order."""
    n = draw(st.integers(min_value=2, max_value=8))
    i, j = np.triu_indices(n, k=1)
    allowed = {
        "random": np.ones(i.shape, dtype=bool),
        "bipartite": (j - i) % 2 == 1,
        "split": (i < n // 2) == (j < n // 2),
    }
    layers = []
    for _ in range(2):
        shape = draw(st.sampled_from(sorted(allowed)))
        weights = draw(st.lists(st.integers(0, 4), min_size=i.shape[0], max_size=i.shape[0]))
        w = np.zeros((n, n))
        w[i, j] = np.where(allowed[shape], weights, 0)
        w += w.T
        for v in np.flatnonzero(w.sum(axis=1) == 0):
            u = v + 1 if v + 1 < n else v - 1
            w[u, v] = w[v, u] = 1.0
        layers.append(LayerGraph.from_weights(w))
    return layers[0], layers[1], draw(st.integers(min_value=0, max_value=4))


@given(shaped_pair())
@settings(max_examples=300, deadline=None)
def test_matrix_free_verdict_matches_the_formed_cycle(pair):
    # The matrix-free path, forced at any n, against the support of B A^k formed.
    layer1, layer2, k = pair
    model = SwitchingModel(layer1, layer2, k)
    x0 = np.linspace(0.0, 1.0, model.n)
    with mock.patch.object(SwitchingModel, "matrix_free", True):
        outcome = analyze(model, x0)
    formed = TransitionMatrix.from_entries(model.entries)
    classes = formed.classes()
    assert outcome.period == (classes.periods[0] if len(classes.periods) == 1 else None)
    assert outcome.closed_classes == len(classes.periods)
    assert outcome.transient == classes.transient
    assert (outcome.status == "consensus") == classes.converges
    if classes.converges:
        assert np.abs(outcome.pi.pi - stationary_general(formed).pi).max() <= 1e-12
    # Without consensus the SLEM is exactly 1, on either path.
    for verdict in (outcome, analyze(SwitchingModel(layer1, layer2, k), x0)):
        assert verdict.status == "consensus" or verdict.slem_cycle == 1.0


def test_phase_order_decides_the_transient_nodes():
    # A is the path 0-1-2, B the triangle. In B A node 1 is absorbing and
    # 0 and 2 are transient; A B keeps {0, 2} closed and only 1 is transient.
    path = build_layer(3, [(0, 1, 1), (1, 2, 1)])
    triangle = build_layer(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    model = SwitchingModel(path, triangle, 1)
    assert product_classes((model.b, model.a)) == SupportClasses(periods=(1,), transient=2)
    assert product_classes((model.a, model.b)) == SupportClasses(periods=(1,), transient=1)
    with mock.patch.object(SwitchingModel, "matrix_free", True):
        outcome = analyze(model, np.array([0.1, 0.6, 0.9]))
    assert outcome.transient == 2 and outcome.value == pytest.approx(0.6, abs=1e-12)


class TestMatrixFreeCycle:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_agrees_with_the_formed_cycle(self, k):
        model = ring_plus_chords_model(600, k, 3)
        assert model.matrix_free
        x0 = np.random.default_rng(k).random(model.n)
        outcome = analyze(model, x0)
        formed = TransitionMatrix.from_entries(model.entries)
        pi = stationary_general(formed).pi
        assert outcome.status == "consensus" and outcome.transient == 0
        assert np.abs(outcome.pi.pi - pi).max() <= 1e-12
        assert outcome.value == pytest.approx(pi @ x0, abs=1e-12)
        assert abs(outcome.slem_cycle - eig_moduli_nonsymmetric(formed).slem) <= 1e-10

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_verdict_does_not_depend_on_forming_the_cycle_first(self, k):
        # Reading entries forms Q; the SLEM must still be taken factor by
        # factor, to the same bits as on a model never formed before analyze.
        x0 = np.random.default_rng(k).random(600)
        untouched = analyze(ring_plus_chords_model(600, k, 3), x0)
        model = ring_plus_chords_model(600, k, 3)
        model.entries
        outcome = analyze(model, x0)
        assert outcome.slem_cycle == untouched.slem_cycle
        assert outcome.value == untouched.value

    def test_slow_mixing_pi_hands_back_to_the_dense_solve(self, monkeypatch):
        # B A on two rings of the same pattern, the second with weights 1..4,
        # mixes so slowly that the power iteration spends its step budget.
        n = _KRYLOV_MIN_N
        ring = generate(GeneratorSpec(kind="circulant", n=n, offsets=(1, 2)))
        weights = np.random.default_rng(0).integers(1, 5, size=ring.csr.nnz // 2)
        tails = np.concatenate([np.arange(n), np.arange(n)])
        heads = np.concatenate([(np.arange(n) + 1) % n, (np.arange(n) + 2) % n])
        model = SwitchingModel(ring, LayerGraph.from_edges(n, tails, heads, weights), 1)
        assert model.matrix_free
        power, solved, formations = [], [], []
        iterate, solve = switching._stationary_matrix_free, switching.stationary_general
        matrix_power = np.linalg.matrix_power
        monkeypatch.setattr(
            switching, "_stationary_matrix_free", lambda m: power.append(iterate(m)) or power[-1]
        )
        monkeypatch.setattr(switching, "stationary_general", lambda m: solved.append(m) or solve(m))
        monkeypatch.setattr(
            np.linalg, "matrix_power", lambda a, k: formations.append(k) or matrix_power(a, k)
        )
        outcome = analyze(model, np.linspace(0.0, 1.0, model.n))
        # B A^k is formed once, for the solve and the SLEM alike, and the
        # SLEM is taken on the formed cycle, not factor by factor.
        assert power == [None] and solved == [model] and formations == [1]
        assert outcome.slem_cycle == eig_moduli_nonsymmetric(model.formed()).slem
        # Q is formed now, yet the model still applies it factor by factor.
        x = np.linspace(0.0, 1.0, model.n)
        by_factor = model.b.matvec_kernel()(model.a.matvec_kernel()(x))
        assert np.array_equal(model.matvec_kernel()(x), by_factor)
        formed = TransitionMatrix.from_entries(model.b.entries @ model.a.entries)
        assert np.abs(outcome.pi.pi - stationary_general(formed).pi).max() <= 1e-12
        assert abs(outcome.slem_cycle - eig_moduli_nonsymmetric(formed).slem) <= 1e-10

    def test_large_k_forms_the_cycle(self, monkeypatch):
        # 64 products by A cost more than _MATRIX_FREE_MAX_COST dense
        # products, 32 do not. At 64 no lifted graph is built: the model
        # reads its classes off the formed cycle.
        assert ring_plus_chords_model(_KRYLOV_MIN_N, 32, 3).matrix_free
        model = ring_plus_chords_model(_KRYLOV_MIN_N, 64, 3)
        assert not model.matrix_free

        def lifted(factors):
            raise AssertionError("lifted graph built")

        monkeypatch.setattr(switching, "product_classes", lifted)
        outcome = analyze(model, np.linspace(0.0, 1.0, model.n))
        assert outcome.status == "consensus"
        assert model.classes() == model.formed().classes()
        assert model.classes() == SupportClasses(periods=(1,), transient=0)


class TestMatrixQuestionsTakeTheModel:
    """is_primitive, classes() and stationary_general ask a switching
    model about its cycle just as they ask a matrix."""

    @pytest.mark.parametrize(
        "pair, primitive", [(oscillating_pair, False), (sia_pair, False), (triangle_pair, True)]
    )
    def test_is_primitive(self, pair, primitive):
        # sia_pair's cycle reaches consensus but keeps transient nodes.
        assert is_primitive(SwitchingModel(*pair(), k=1)) is primitive

    def test_is_primitive_on_the_contact_cycle(self):
        layers = load_two_layer_dataset(DATA / "contact_layer_a.txt", DATA / "contact_layer_b.txt", 8)
        assert is_primitive(SwitchingModel(*layers, k=2))

    def test_matrix_free_cycle_is_never_formed(self, monkeypatch):
        def refuse(model):
            raise AssertionError("cycle formed")

        monkeypatch.setattr(SwitchingModel, "formed", refuse)
        n = _KRYLOV_MIN_N + 100
        rings = [generate(GeneratorSpec(kind="circulant", n=n, offsets=o)) for o in ((1,), (3,))]
        model = SwitchingModel(*rings, 1)
        assert model.matrix_free
        assert not is_primitive(model)
        assert model._formed is None

    def test_support_classes(self):
        # Classified on the time-expanded graph as on the formed cycle.
        model = SwitchingModel(*sia_pair(), k=1)
        formed = TransitionMatrix.from_entries(model.entries).classes()
        with mock.patch.object(SwitchingModel, "matrix_free", True):
            assert model.classes() == formed

    def test_stationary_general(self):
        model = SwitchingModel(*triangle_pair(), k=1)
        assert np.array_equal(stationary_general(model).pi, stationary_general(model.formed()).pi)


class TestNoConsensusRunsNoSolver:
    """A cycle that is not SIA has SLEM exactly 1 by its classification
    alone: no eigensolver runs on it, and a matrix-free one is never formed."""

    @pytest.fixture(autouse=True)
    def no_dense_solve(self, monkeypatch):
        def refuse(m):
            raise AssertionError("dense eigensolver called")

        monkeypatch.setattr(spectral, "_slem_dense", refuse)

    def test_oscillating_pair(self):
        model = SwitchingModel(*oscillating_pair(), k=1)
        outcome = analyze(model, np.linspace(0.0, 1.0, model.n))
        assert outcome.status == "oscillation" and outcome.period == 2
        assert outcome.slem_cycle == 1.0

    @pytest.mark.parametrize("k", range(len(INDUCED_PERIODS)))
    def test_induced_pair(self, k):
        model = SwitchingModel(*induced_pair(), k)
        outcome = analyze(model, np.linspace(0.0, 1.0, model.n))
        status = "oscillation" if INDUCED_PERIODS[k] == (2,) else "disagreement"
        assert outcome.status == status and outcome.slem_cycle == 1.0

    @pytest.mark.parametrize("k, status", [(1, "disagreement"), (2, "oscillation")])
    def test_matrix_free_bipartite_rings(self, monkeypatch, k, status):
        # Both rings are bipartite on the same classes: B A keeps each one
        # (two closed classes), B A^2 swaps them (period 2).
        def refuse(model):
            raise AssertionError("cycle formed")

        monkeypatch.setattr(SwitchingModel, "formed", refuse)
        n = _KRYLOV_MIN_N + 100
        rings = [generate(GeneratorSpec(kind="circulant", n=n, offsets=o)) for o in ((1,), (3,))]
        model = SwitchingModel(*rings, k)
        assert model.matrix_free
        outcome = analyze(model, np.linspace(0.0, 1.0, n))
        assert outcome.status == status and outcome.slem_cycle == 1.0


class TestRhoStar:
    def test_triangle_pair_k1(self):
        model = SwitchingModel(*triangle_pair(), k=1)
        # rho2(B)=2/3, rho2(A)=1/2, max d1/d2 = 1/2, max d2/d1 = 3
        assert rho_star(model) == pytest.approx(0.5, abs=1e-12)
        assert eig_moduli_nonsymmetric(model).slem <= rho_star(model)

    def test_identical_regular_layers(self):
        layer = generate(GeneratorSpec(kind="k-regular", n=30, k=4, seed=3))
        rho_a = slem_reversible(layer).slem
        for k in (0, 1, 2):
            model = SwitchingModel(layer, layer, k)
            assert rho_star(model) == pytest.approx(rho_a ** (k + 1), abs=1e-12)

    def test_k0_same_degrees_gives_layer2_slem(self):
        layer1 = generate(GeneratorSpec(kind="k-regular", n=20, k=4, seed=1))
        layer2 = generate(GeneratorSpec(kind="k-regular", n=20, k=4, seed=2))
        model = SwitchingModel(layer1, layer2, 0)
        assert rho_star(model) == pytest.approx(
            slem_reversible(layer2).slem, abs=1e-12
        )

    def test_bound_holds_on_random_pairs(self):
        for seed in range(10):
            rng = np.random.default_rng(3000 + seed)
            n = int(rng.integers(4, 12))
            layer1, layer2 = random_layer(rng, n), random_layer(rng, n)
            for k in range(4):
                model = SwitchingModel(layer1, layer2, k)
                slem = eig_moduli_nonsymmetric(model).slem
                assert slem <= rho_star(model) + 1e-9


class TestSpectralProperties:
    def test_power_spectrum_identity(self):
        layer1, _ = triangle_pair()
        a = transition_matrix(layer1)
        rho = slem_reversible(layer1).slem
        for k in range(1, 7):
            power = TransitionMatrix.from_entries(np.linalg.matrix_power(a.entries, k))
            powered = eig_moduli_nonsymmetric(power).slem
            assert powered == pytest.approx(rho**k, abs=1e-8)

    def test_cycle_decay_envelope(self):
        # ||Q^n - 1 pi'||_max <= 4 c rho^n with c fitted at n = 1
        model = SwitchingModel(*triangle_pair(), k=1)
        pi = stationary_general(model.formed()).pi
        limit = np.outer(np.ones(3), pi)
        rho = eig_moduli_nonsymmetric(model).slem
        q = model.entries
        c = np.abs(q - limit).max() / rho
        power = q.copy()
        # additive slack covers rounding accumulated over 50 matrix products
        for n in range(1, 51):
            assert np.abs(power - limit).max() <= 4 * c * rho**n + 1e-13
            power = power @ q

    def test_interleaving_contraction(self):
        model = SwitchingModel(*triangle_pair(), k=3)
        pi = stationary_general(model.formed()).pi
        limit = np.outer(np.ones(3), pi)
        a = model.a.entries
        for n in (1, 2, 5):
            residual = np.linalg.matrix_power(model.entries, n) - limit
            base = np.abs(residual).max()
            for r in range(1, model.k + 1):
                mixed = np.linalg.matrix_power(a, r) @ residual
                assert np.abs(mixed).max() <= base + 1e-12

    def test_non_interpolation_regression(self):
        layer1, layer2 = triangle_pair()
        pi_a = stationary_from_degrees(layer1).pi
        pi_b = stationary_from_degrees(layer2).pi
        pi_cycle = stationary_general(SwitchingModel(layer1, layer2, 1).formed()).pi
        for p, a, b in zip(pi_cycle, pi_a, pi_b):
            assert p < min(a, b) or p > max(a, b)


def layer1_deviations(layer1, models, x0):
    """|x_sk - x_1| for each switching model's consensus, NaN where none."""
    x1 = consensus_value(stationary_from_degrees(layer1), x0)
    return consensus_deviations([analyze(model, x0) for model in models], x1)


class TestKStability:
    @staticmethod
    def deviations(layer1, layer2, ks, x0=X0_TRIANGLE):
        return layer1_deviations(layer1, [SwitchingModel(layer1, layer2, k) for k in ks], x0)

    def test_identical_layers_zero(self):
        layer1, _ = triangle_pair()
        assert np.nanmax(self.deviations(layer1, layer1, range(1, 6))) <= 1e-13

    def test_triangle_pair_geometric_decay(self):
        layer1, layer2 = triangle_pair()
        ks = np.arange(1, 9)
        deviations = self.deviations(layer1, layer2, ks)
        assert not np.isnan(deviations).any()
        ratio = np.exp(np.polyfit(ks, np.log(deviations), 1)[0])
        assert ratio <= 1.05 * slem_reversible(layer1).slem
        assert ratio == pytest.approx(0.5, abs=0.05)

    def test_constant_opinions_zero(self):
        layer1, layer2 = triangle_pair()
        assert np.nanmax(self.deviations(layer1, layer2, range(1, 6), np.full(3, 0.4))) <= 1e-13

    def test_non_primitive_cycle_excluded(self):
        layer1, layer2 = oscillating_pair()
        deviations = self.deviations(layer1, layer2, [1, 2], X0_FIVE)
        assert np.isnan(deviations[0])  # k=1 cycle oscillates


class TestSwitchingPerturbation:
    """The switching consensus against layer 1's when layer 2 is each
    perturbed layer of a family, fitted by fit_shift_family."""

    @staticmethod
    def fit(layer1, family, k, x0=X0_TRIANGLE):
        a = transition_matrix(layer1).entries
        e_norms = [float(np.abs(a - transition_matrix(b).entries).max()) for b in family]
        models = [SwitchingModel(layer1, b, k) for b in family]
        return fit_shift_family(e_norms, layer1_deviations(layer1, models, x0))

    def test_identical_layer_zero(self):
        layer1, _ = triangle_pair()
        fit = self.fit(layer1, [layer1], 2)
        assert fit.passed
        assert fit.deviations.max() <= 1e-15

    def test_shrinking_family_proportional(self):
        layer1, _ = triangle_pair()
        family = [reweight_edge(layer1, 0, 1, 1 + eps) for eps in (1e-2, 1e-3, 1e-4)]
        fit = self.fit(layer1, family, 2)
        assert fit.armed and fit.passed
        assert abs(fit.slope - 1.0) <= 0.1

    def test_constant_opinions_zero_for_any_perturbation(self):
        layer1, _ = triangle_pair()
        family = [reweight_edge(layer1, 0, 1, 1.5)]
        fit = self.fit(layer1, family, 1, np.full(3, 0.8))
        assert fit.passed
        assert fit.deviations.max() <= 1e-14

    def test_rejects_non_primitive_layer1(self):
        # The bipartite path squared has two closed classes: no consensus,
        # so the family has no deviation and its fit never arms.
        path = build_layer(3, [(0, 1, 1), (1, 2, 1)])
        fit = self.fit(path, [path], 1)
        assert np.isnan(fit.deviations).all()
        assert not fit.armed

    def test_rejects_non_primitive_cycle_of_primitive_layers(self):
        # Both layers are primitive; their k=1 cycle has period 2.
        layer1, layer2 = oscillating_pair()
        fit = self.fit(layer1, [layer2], 1, X0_FIVE)
        assert np.isnan(fit.deviations).all()
        assert not fit.armed
