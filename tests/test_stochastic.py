import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplex.fixtures import oscillating_pair, triangle_pair
from oplex.netcore import GeneratorSpec, LayerGraph, build_layer, generate
from oplex.simlab import _error_norms
from oplex.stochastic import (
    NotPrimitiveError,
    StationaryDistribution,
    SupportClasses,
    TransitionMatrix,
    check_opinions,
    consensus_value,
    is_primitive,
    stationary_from_degrees,
    stationary_general,
    transition_matrix,
)


class TestTransitionMatrix:
    def test_weighted_triangle_rows(self):
        _, layer2 = triangle_pair()
        b = transition_matrix(layer2)
        expected = np.array(
            [[0, 2 / 3, 1 / 3], [2 / 3, 0, 1 / 3], [1 / 2, 1 / 2, 0]]
        )
        assert np.abs(b.entries - expected).max() <= 1e-15

    def test_equal_weight_triangle(self):
        layer1, _ = triangle_pair()
        a = transition_matrix(layer1)
        expected = (np.ones((3, 3)) - np.eye(3)) / 2
        assert np.array_equal(a.entries, expected)

    def test_degree_one_node_row(self):
        layer1, _ = oscillating_pair()
        a = transition_matrix(layer1)
        assert np.array_equal(a.entries[2], [1, 0, 0, 0, 0])

    def test_rejects_isolated_node(self):
        layer = build_layer(3, [(0, 1, 1)])
        with pytest.raises(ValueError, match="node 2"):
            transition_matrix(layer)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="^row 0 sums to 0.9, more than"):
            TransitionMatrix.from_entries([[0.5, 0.4], [0.5, 0.5]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TransitionMatrix.from_entries([[1.1, -0.1], [0.5, 0.5]])

    def test_rejects_non_square_entries(self):
        with pytest.raises(ValueError, match=r"^transition matrix must be square, got shape \(2, 3\)$"):
            TransitionMatrix.from_entries(np.full((2, 3), 1 / 3))

    @pytest.mark.parametrize(
        "pi, message",
        [
            ([1.5, -0.5], "^stationary distribution entries must be nonnegative$"),
            ([0.5, 0.4], "^stationary distribution sums to 0.9, not 1$"),
        ],
        ids=["negative-entry", "sum-not-one"],
    )
    def test_stationary_distribution_rejects(self, pi, message):
        with pytest.raises(ValueError, match=message):
            StationaryDistribution(np.array(pi))

    def test_classes_cache_is_no_constructor_argument(self):
        csr = transition_matrix(triangle_pair()[0]).csr
        with pytest.raises(TypeError):
            TransitionMatrix(csr, SupportClasses((1,), 0))

    def test_entries_do_not_alias_the_input(self):
        raw = np.array([[0.25, 0.75], [0.5, 0.5]])
        m = TransitionMatrix.from_entries(raw)
        raw[0, 0] = 9.0
        assert np.array_equal(m.entries, [[0.25, 0.75], [0.5, 0.5]])


def _brute_force_witness(support: np.ndarray) -> int | None:
    n = support.shape[0]
    power = support.copy()
    wielandt_bound = (n - 1) ** 2 + 1
    for exponent in range(1, wielandt_bound + 1):
        if power.all():
            return exponent
        power = (power.astype(float) @ support.astype(float)) > 0
    return None


@st.composite
def random_transition(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    # every row needs at least one positive entry
    rows = []
    for i in range(n):
        row = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if not any(row):
            row[draw(st.integers(min_value=0, max_value=n - 1))] = True
        rows.append(row)
    support = np.array(rows, dtype=bool)
    entries = support / support.sum(axis=1, keepdims=True)
    return TransitionMatrix.from_entries(entries)


@given(random_transition())
@settings(max_examples=150, deadline=None)
def test_primitivity_matches_brute_force(m):
    assert is_primitive(m) == (_brute_force_witness(m.entries > 0) is not None)


def _brute_force_classes(support: np.ndarray) -> tuple[list[int], int]:
    """Closed-class periods (sorted) and transient count from the transitive closure."""
    n = support.shape[0]
    step = support.astype(int)
    reach = np.eye(n, dtype=int)
    for _ in range(n):
        reach = ((reach + reach @ step) > 0).astype(int)
    periods = []
    closed = 0
    for i in range(n):
        own = (reach[i] > 0) & (reach[:, i] > 0)
        if int(np.flatnonzero(own)[0]) != i or (reach[i] > 0).sum() != own.sum():
            continue  # not the class's first node, or the class is not closed
        returns = []
        power = step.copy()
        for t in range(1, n * n + n + 1):
            if power[i, i]:
                returns.append(t)
            power = (power @ step > 0).astype(int)
        periods.append(int(np.gcd.reduce(returns)))
        closed += int(own.sum())
    return sorted(periods), n - closed


@given(random_transition())
@settings(max_examples=300, deadline=None)
def test_support_classes_match_brute_force(m):
    classes = m.classes()
    assert (sorted(classes.periods), classes.transient) == _brute_force_classes(m.entries > 0)


class TestSupportClasses:
    def test_absorbing_path(self):
        # 0 -> 1 -> ... -> 5, node 5 absorbing: one aperiodic class, 5 transient.
        entries = np.eye(6, k=1)
        entries[5, 5] = 1.0
        m = TransitionMatrix.from_entries(entries)
        assert m.classes() == SupportClasses(periods=(1,), transient=5)
        assert m.classes().converges and not is_primitive(m)

    def test_classes_of_different_periods_and_a_transient_node(self):
        # {0, 1} swaps (period 2), {2} absorbs, node 3 feeds both.
        m = TransitionMatrix.from_entries(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0.5, 0, 0.5, 0]]
        )
        classes = m.classes()
        assert sorted(classes.periods) == [1, 2] and classes.transient == 1
        assert not classes.converges

    def test_disjoint_rings_are_two_closed_classes(self):
        w = np.zeros((7, 7))
        for i, j in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]:
            w[i, j] = w[j, i] = 1.0
        classes = transition_matrix(LayerGraph.from_weights(w)).classes()
        assert classes == SupportClasses(periods=(1, 2), transient=0)

    def test_stationary_vector_of_sia_matrix_is_zero_on_transient_nodes(self):
        m = TransitionMatrix.from_entries(
            [[0.5, 0.5, 0, 0], [0.5, 0, 0.5, 0], [0, 0, 0.25, 0.75], [0, 0, 1, 0]]
        )
        assert m.classes() == SupportClasses(periods=(1,), transient=2)
        pi = stationary_general(m).pi
        assert np.abs(pi - [0, 0, 4 / 7, 3 / 7]).max() <= 1e-12


class TestPrimitivity:
    def test_oscillating_layers_primitive_witness_at_most_4(self):
        layer1, layer2 = oscillating_pair()
        for layer in (layer1, layer2):
            assert is_primitive(transition_matrix(layer))

    def test_permutation_not_primitive(self):
        flip = TransitionMatrix.from_entries([[0, 1], [1, 0]])
        assert not is_primitive(flip)

    def test_oscillating_cycle_not_primitive(self):
        layer1, layer2 = oscillating_pair()
        cycle = TransitionMatrix.from_entries(
            transition_matrix(layer2).entries @ transition_matrix(layer1).entries
        )
        assert not is_primitive(cycle)

    def test_odd_ring_primitive_even_ring_not(self):
        odd = generate(GeneratorSpec(kind="circulant", n=2001, offsets=(1,)))
        even = generate(GeneratorSpec(kind="circulant", n=2000, offsets=(1,)))
        assert is_primitive(transition_matrix(odd))
        assert not is_primitive(transition_matrix(even))

    def test_disjoint_union_not_primitive(self):
        triangle = (np.ones((3, 3)) - np.eye(3)) / 2
        w = np.zeros((6, 6))
        w[:3, :3] = w[3:, 3:] = triangle
        assert not is_primitive(transition_matrix(LayerGraph.from_weights(w)))

    def test_report_is_cached(self):
        layer1, _ = triangle_pair()
        m = transition_matrix(layer1)
        assert is_primitive(m) is is_primitive(m)

    def test_verdict_computed_once_per_matrix(self, monkeypatch):
        import oplex.stochastic as stochastic

        calls = []
        bfs = stochastic._bfs_levels
        monkeypatch.setattr(
            stochastic, "_bfs_levels", lambda adj, u: calls.append(1) or bfs(adj, u)
        )
        m = transition_matrix(triangle_pair()[0])
        assert is_primitive(m) and is_primitive(m)
        assert len(calls) == 1  # symmetric support: one search, made once


class TestStationary:
    def test_degree_formula_weighted_triangle(self):
        _, layer2 = triangle_pair()
        pi = stationary_from_degrees(layer2)
        assert np.abs(pi.pi - [3 / 8, 3 / 8, 1 / 4]).max() <= 1e-15

    def test_degree_formula_uniform_triangle(self):
        layer1, _ = triangle_pair()
        assert np.abs(stationary_from_degrees(layer1).pi - 1 / 3).max() <= 1e-15

    def test_single_edge(self):
        layer = build_layer(2, [(0, 1, 3)])
        assert np.allclose(stationary_from_degrees(layer).pi, [0.5, 0.5])

    def test_general_solver_on_product(self):
        layer1, layer2 = triangle_pair()
        cycle = TransitionMatrix.from_entries(
            transition_matrix(layer2).entries @ transition_matrix(layer1).entries
        )
        pi = stationary_general(cycle)
        assert np.abs(pi.pi - [3 / 10, 3 / 10, 2 / 5]).max() <= 1e-12
        assert (pi.pi > 0).all()  # primitive source: strictly positive weights

    def test_doubly_stochastic_gives_uniform(self):
        m = TransitionMatrix.from_entries(
            [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
        )
        assert np.abs(stationary_general(m).pi - 1 / 3).max() <= 1e-12

    def test_general_solver_matches_nullspace_oracle(self):
        rng = np.random.default_rng(7)
        entries = rng.random((8, 8)) + 0.05
        m = TransitionMatrix.from_entries(entries / entries.sum(axis=1, keepdims=True))
        pi = stationary_general(m)
        # oracle: null space of (M' - I) with the sum-to-one constraint appended
        a = np.vstack([m.entries.T - np.eye(8), np.ones(8)])
        b = np.zeros(9)
        b[-1] = 1.0
        oracle, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.abs(pi.pi - oracle).max() <= 1e-10

    def test_rejects_non_primitive(self):
        flip = TransitionMatrix.from_entries([[0, 1], [1, 0]])
        with pytest.raises(NotPrimitiveError):
            stationary_general(flip)

    def test_residual_bound(self):
        layer1, layer2 = triangle_pair()
        cycle = TransitionMatrix.from_entries(
            transition_matrix(layer2).entries @ transition_matrix(layer1).entries
        )
        pi = stationary_general(cycle)
        assert np.abs(pi.pi @ cycle.entries - pi.pi).max() <= 1e-12

    def test_degree_formula_agrees_with_general_solver(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            w = np.zeros((n, n))
            for v in range(1, n):
                u = int(rng.integers(0, v))
                w[u, v] = w[v, u] = rng.uniform(0.5, 2.0)
            tri = rng.choice(n, size=3, replace=False)
            for i, j in ((0, 1), (0, 2), (1, 2)):
                a, b = int(tri[i]), int(tri[j])
                if w[a, b] == 0:
                    w[a, b] = w[b, a] = rng.uniform(0.5, 2.0)
            layer = build_layer(
                n, [(i, j, w[i, j]) for i in range(n) for j in range(i + 1, n) if w[i, j]]
            )
            by_degrees = stationary_from_degrees(layer)
            by_solver = stationary_general(transition_matrix(layer))
            assert np.abs(by_degrees.pi - by_solver.pi).max() <= 1e-10


def pi_norm(v, pi):
    """The pi-norm of v as simulate's error series takes it (target 0)."""
    return float(_error_norms(np.array([v]), 0.0, pi.pi)[0][0])


def max_norm(v):
    """The max norm of v as simulate's error series takes it (target 0)."""
    return float(_error_norms(np.array([v]), 0.0, np.ones(len(v)))[1][0])


class TestNormsAndConsensus:
    def test_ones_vector_has_unit_pi_norm(self):
        pi = StationaryDistribution(pi=np.array([3 / 8, 3 / 8, 1 / 4]))
        assert pi_norm(np.ones(3), pi) == pytest.approx(1.0)

    def test_hand_value(self):
        pi = StationaryDistribution(pi=np.array([3 / 8, 3 / 8, 1 / 4]))
        assert pi_norm(np.array([1.0, -1.0, 0.0]), pi) == pytest.approx(np.sqrt(0.75))

    def test_zero_vector(self):
        pi = StationaryDistribution(pi=np.array([0.5, 0.5]))
        assert pi_norm(np.zeros(2), pi) == 0.0
        assert max_norm(np.zeros(2)) == 0.0

    def test_consensus_uniform(self):
        pi = StationaryDistribution(pi=np.full(3, 1 / 3))
        assert consensus_value(pi, np.array([1.0, 0, 0])) == pytest.approx(1 / 3)

    def test_consensus_weighted(self):
        pi = StationaryDistribution(pi=np.array([3 / 8, 3 / 8, 1 / 4]))
        assert consensus_value(pi, np.array([1.0, 0, 0])) == pytest.approx(3 / 8)

    def test_consensus_of_constant_is_constant(self):
        pi = StationaryDistribution(pi=np.array([0.7, 0.2, 0.1]))
        assert consensus_value(pi, np.full(3, 0.42)) == pytest.approx(0.42)

    def test_consensus_rejects_out_of_range(self):
        pi = StationaryDistribution(pi=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="outside"):
            consensus_value(pi, np.array([1.5, 0.0]))

    def test_check_opinions_rejects_nan(self):
        # NaN fails both x < 0 and x > 1, so only an inside test catches it.
        with pytest.raises(ValueError, match=r"x0\[1\] = .*nan.* outside \[0, 1\]"):
            check_opinions(np.array([0.5, np.nan, 0.2]))

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=10),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_consensus_in_opinion_range(self, x0, seed):
        x = np.array(x0)
        raw = np.random.default_rng(seed).random(x.shape[0]) + 0.01
        pi = StationaryDistribution(pi=raw / raw.sum())
        value = consensus_value(pi, x)
        assert x.min() - 1e-12 <= value <= x.max() + 1e-12


def _dense_bfs_levels(adjacency: np.ndarray, source: int) -> np.ndarray:
    level = np.full(adjacency.shape[0], -1)
    level[source] = 0
    frontier = np.array([source], dtype=np.intp)
    depth = 0
    while frontier.size:
        depth += 1
        reached = np.logical_or.reduce(adjacency[frontier])
        reached &= level < 0
        frontier = np.flatnonzero(reached)
        level[frontier] = depth
    return level


def dense_support_classes(entries: np.ndarray) -> SupportClasses:
    """The classification by breadth-first search on the dense support, the
    same search as TransitionMatrix.classes() makes on the stored pattern."""
    n = entries.shape[0]
    support = entries > 0.0
    symmetric = np.array_equal(support, support.T)
    marked = np.zeros(n, dtype=bool)
    periods: list[int] = []
    closed = 0
    u = 0
    while not marked.all():
        level = _dense_bfs_levels(support, u)
        forward = level >= 0
        backward = forward if symmetric else _dense_bfs_levels(support.T, u) >= 0
        if (forward & ~backward).any():
            u = int(np.argmax(np.where(backward, -1, level)))
            continue
        members = np.flatnonzero(forward)
        rows, cols = np.divmod(np.flatnonzero(support[members]), n)
        periods.append(int(np.gcd.reduce(level[members[rows]] + 1 - level[cols])))
        closed += members.size
        marked |= backward
        u = int(np.argmin(marked))
    return SupportClasses(periods=tuple(periods), transient=n - closed)


@st.composite
def structured_transition(draw):
    """Nonsymmetric supports on 2..12 nodes, many reducible or periodic.

    Nodes get a group each; an edge i -> j is allowed when j's group follows
    i's (groups in a cycle: periodic), when it is no earlier (groups in a
    chain: reducible), or always.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    shape = draw(st.sampled_from(["cycle", "chain", "any"]))
    groups = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    count = int(groups.max()) + 1
    if shape == "cycle":
        allowed = (groups[None, :] - groups[:, None]) % count == 1 % count
    elif shape == "chain":
        allowed = groups[None, :] >= groups[:, None]
    else:
        allowed = np.ones((n, n), dtype=bool)
    drawn = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    support = allowed & drawn.reshape(n, n)
    for i in np.flatnonzero(~support.any(axis=1)):
        # a row with no edge gets one where the shape allows, else a self-loop
        options = np.flatnonzero(allowed[i])
        support[i, options[0] if options.size else i] = True
    return TransitionMatrix.from_entries(support / support.sum(axis=1, keepdims=True))


@given(structured_transition())
@settings(max_examples=300, deadline=None)
def test_support_classes_match_the_dense_search(m):
    assert m.classes() == dense_support_classes(m.entries)
