import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplex.fixtures import oscillating_pair, triangle_pair
from oplex.merged import analyze as analyze_merged
from oplex.merged import MergedModel
from oplex.netcore import GeneratorSpec, LayerGraph, generate
from oplex.simlab import decay_check, fit_rate, simulate
from oplex.spectral import eig_moduli_nonsymmetric
from oplex.stochastic import (
    StationaryDistribution,
    TransitionMatrix,
    check_opinions,
    consensus_value,
    stationary_from_degrees,
    transition_matrix,
)
from oplex.switching import SwitchingModel, analyze

X0 = np.array([1.0, 0.0, 0.0])


def triangle_setup():
    layer1, _ = triangle_pair()
    matrix = transition_matrix(layer1)
    return matrix, stationary_from_degrees(layer1)


class TestSimulate:
    def test_constant_opinions_already_fixed(self):
        matrix, pi = triangle_setup()
        x0 = np.full(3, 0.5)
        traj = simulate((matrix,), x0, pi=pi)
        assert traj.converged
        assert traj.steps == 1
        assert np.array_equal(traj.final_state, x0)
        assert traj.errors_max.max() <= 1e-15

    def test_merged_triangle_hits_closed_form(self):
        layer1, layer2 = triangle_pair()
        model = MergedModel(layer1, layer2, 0.5)
        outcome = analyze_merged(model, X0)
        traj = simulate((model.transition,), X0, pi=outcome.pi)
        assert traj.converged
        assert outcome.value == pytest.approx(4 / 11, abs=1e-14)
        assert np.abs(traj.final_state - 4 / 11).max() <= 1e-8

    def test_oscillating_switching_never_converges(self):
        model = SwitchingModel(*oscillating_pair(), k=1)
        x0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        traj = simulate(model.schedule, x0, t_max=2000)
        assert not traj.converged
        assert traj.steps == 2000
        assert analyze(model, x0).status == "oscillation"

    def test_switching_consensus_trajectory(self):
        layer1, layer2 = triangle_pair()
        model = SwitchingModel(layer1, layer2, 1)
        outcome = analyze(model, X0)
        traj = simulate(model.schedule, X0, pi=outcome.pi)
        assert traj.converged
        assert np.abs(traj.final_state - 3 / 10).max() <= 1e-9

    def test_switching_period_composes_to_cycle(self):
        model = SwitchingModel(*triangle_pair(), k=3)
        traj = simulate(model.schedule, X0, t_max=4)
        assert np.abs(traj.final_state - model.entries @ X0).max() <= 1e-14

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError, match="at least one matrix"):
            simulate((), X0)

    def test_rejects_t_max_below_one(self):
        matrix, _ = triangle_setup()
        with pytest.raises(ValueError, match="^t_max must be at least 1$"):
            simulate((matrix,), X0, t_max=0)

    def test_rejects_pi_of_the_wrong_length(self):
        matrix, _ = triangle_setup()
        pi = StationaryDistribution(np.full(4, 0.25))
        with pytest.raises(ValueError, match=r"^vector length \(3,\) does not match pi length \(4,\)$"):
            simulate((matrix,), X0, pi=pi)

    def test_final_state_kept_without_recording(self):
        matrix, pi = triangle_setup()
        traj = simulate((matrix,), X0, pi=pi, record_states=False)
        assert traj.states is None
        assert np.abs(traj.final_state - 1 / 3).max() <= 1e-9

    @pytest.mark.parametrize("tol", [0.0, float("inf"), float("nan")])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        matrix, _ = triangle_setup()
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            simulate((matrix,), X0, tol=tol)

    def test_rejects_bad_x0(self):
        matrix, pi = triangle_setup()
        with pytest.raises(ValueError, match="outside"):
            simulate((matrix,), np.array([2.0, 0.0, 0.0]))

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=3, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_convex_closure(self, seed, n):
        rng = np.random.default_rng(seed)
        entries = rng.random((n, n)) + 0.01
        from oplex.stochastic import TransitionMatrix

        matrix = TransitionMatrix.from_entries(
            entries / entries.sum(axis=1, keepdims=True)
        )
        x0 = rng.random(n)
        traj = simulate((matrix,), x0, t_max=200)
        assert traj.states.min() >= x0.min() - 1e-12
        assert traj.states.max() <= x0.max() + 1e-12


def stepwise_simulate(schedule, x0, t_max, tol, pi, record_states):
    """One step at a time, both norms per step: the reference for simulate.

    Each step is one call of the matrix's matvec kernel, the one simulate
    calls, so the states are bit-for-bit those of the same products.
    """
    period = len(schedule)
    kernels = [m.csr.matvec_kernel() for m in schedule]
    x = check_opinions(x0).copy()
    target = consensus_value(pi, x0) if pi is not None else None

    def norms(v):
        e = v - target
        return float(np.sqrt(np.sum(e * e * pi.pi))), float(np.abs(e).max())

    states = [x.copy()]
    errors = [norms(x)] if target is not None else None
    converged = False
    quiet_run = 0
    steps = 0
    for t in range(1, t_max + 1):
        nxt = kernels[(t - 1) % period](x)
        steps = t
        states.append(nxt)
        if target is not None:
            errors.append(norms(nxt))
        quiet_run = quiet_run + 1 if np.abs(nxt - x).max() < tol else 0
        x = nxt
        if quiet_run >= period:
            converged = True
            break
    return dict(
        states=np.array(states) if record_states else None,
        final_state=x,
        errors_pi=None if errors is None else np.array([e[0] for e in errors]),
        errors_max=None if errors is None else np.array([e[1] for e in errors]),
        converged=converged,
        steps=steps,
    )


def random_schedule(rng, n, period):
    """Lazy random walks with some zero entries, so mixing speeds vary."""
    schedule = []
    for _ in range(period):
        entries = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        entries[np.arange(n), rng.integers(0, n, n)] += 0.05
        laziness = 1.0 - 10.0 ** rng.uniform(-2.0, 0.0)
        entries = laziness * np.eye(n) + (1 - laziness) * entries / entries.sum(axis=1, keepdims=True)
        schedule.append(TransitionMatrix.from_entries(entries))
    return tuple(schedule)


def assert_matches_stepwise(schedule, x0, t_max, tol, pi, record_states):
    traj = simulate(schedule, x0, t_max=t_max, tol=tol, pi=pi, record_states=record_states)
    ref = stepwise_simulate(schedule, x0, t_max, tol, pi, record_states)
    assert traj.steps == ref["steps"]
    assert traj.converged == ref["converged"]
    assert np.array_equal(traj.final_state, ref["final_state"])
    for name in ("states", "errors_pi", "errors_max"):
        got, want = getattr(traj, name), ref[name]
        assert (got is None) == (want is None), name
        if want is not None:
            assert np.array_equal(got, want), name
    return traj


def ring_with_chords(n, starts, span):
    """The ring 0-1-...-(n-1)-0 plus the chords {i, i + span} for i in starts."""
    i = np.concatenate([np.arange(n), np.asarray(starts)])
    j = np.concatenate([(np.arange(n) + 1) % n, (np.asarray(starts) + span) % n])
    return LayerGraph.from_edges(n, i, j, np.ones(i.shape))


def assert_matches_stepwise_on_sparse(matrices, period):
    """Two sparse matrices, the first period - 1 times and then the second.
    The block cap is 109 steps at n = 300, so at period 200 every block is
    shorter than a period. The uniform pi only weights the error norms."""
    n = matrices[0].n
    schedule = (matrices[0],) * (period - 1) + (matrices[1],)
    assert all(m.csr.matvec_cost() < n * n for m in schedule)
    x0 = np.random.default_rng(period).random(n)
    pi = StationaryDistribution(np.full(n, 1.0 / n))
    traj = assert_matches_stepwise(schedule, x0, 3000, 1e-6, pi, True)
    assert traj.steps > 100


class TestBlockedStepping:
    """simulate steps in blocks; every result must equal plain stepping bit for bit.

    Blocks hold period, period, 2 period, 4 period, ... steps at these sizes,
    so the "edge" runs pick tol to make the stall rule fire at or just past
    step period * 2**j: stops on a block edge, and for period >= 2 quiet
    runs that straddle one.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=12),
        period=st.integers(min_value=1, max_value=4),
        t_max=st.integers(min_value=1, max_value=700),
        stop=st.one_of(
            st.tuples(st.integers(0, 7), st.integers(0, 3)),
            st.floats(min_value=2.0, max_value=16.0),
        ),
        with_target=st.booleans(),
        record_states=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_stepwise_reference(
        self, seed, n, period, t_max, stop, with_target, record_states
    ):
        rng = np.random.default_rng(seed)
        schedule = random_schedule(rng, n, period)
        x0 = rng.random(n)
        weights = rng.random(n) + 0.1
        pi = StationaryDistribution(weights / weights.sum()) if with_target else None
        if isinstance(stop, tuple):
            # Steps last - period + 1 .. last are all quiet under this tol,
            # so the stall rule fires at step last or before it.
            j, offset = stop
            last = period * 2**j + min(offset, period - 1)
            states = stepwise_simulate(schedule, x0, last, 1e-300, None, True)["states"]
            diffs = np.abs(np.diff(states, axis=0)).max(axis=1)
            tol = float(diffs[-period:].max()) * (1 + 1e-9) or 1e-300
        else:
            tol = 10.0**-stop
        assert_matches_stepwise(schedule, x0, t_max, tol, pi, record_states)

    @pytest.mark.parametrize("n, t_max, converged", [(300, 2000, True), (600, 200, False)])
    def test_matches_stepwise_at_the_block_cap(self, n, t_max, converged):
        # At these sizes blocks stop growing after a few steps, at a size set
        # by n, not by the number of steps taken.
        rng = np.random.default_rng(n)
        ring = np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1) + np.eye(n)
        matrix = TransitionMatrix.from_entries(ring / 3)
        pi = StationaryDistribution(np.full(n, 1.0 / n))
        x0 = rng.random(n)
        traj = assert_matches_stepwise((matrix,), x0, t_max, 1e-4, pi, True)
        assert traj.converged == converged
        assert traj.steps > 100


    @pytest.mark.parametrize("period", [1, 3, 200])
    def test_matches_stepwise_on_sparse_rings(self, period):
        # Rings of 300 nodes lie above the dense/CSR crossover, and every
        # row holds 4 entries, so every step here is a slab product.
        n = 300
        rings = [
            transition_matrix(generate(GeneratorSpec(kind="circulant", n=n, offsets=offsets)))
            for offsets in ((1, 2), (1, 3))
        ]
        assert all(set(np.diff(m.csr.indptr)) == {4} for m in rings)
        assert_matches_stepwise_on_sparse(rings, period)

    @pytest.mark.parametrize("period", [1, 3, 200])
    def test_matches_stepwise_on_irregular_sparse_layers(self, period):
        # A 300-ring plus 10 chords: rows of 2 and 3 entries, so every step
        # here is a reduceat product.
        n = 300
        layers = [
            ring_with_chords(n, range(0, 150, 15), 150),
            ring_with_chords(n, range(0, 300, 30), 100),
        ]
        matrices = [transition_matrix(layer) for layer in layers]
        assert all(set(np.diff(m.csr.indptr)) == {2, 3} for m in matrices)
        assert_matches_stepwise_on_sparse(matrices, period)

    def test_memory_bounded_when_the_period_exceeds_the_cap(self):
        # A period of 3001 steps on 1000-node rings: the buffer holds one
        # capped block (32 steps of 1000 opinions, 256 kB), not a period.
        rings = [
            generate(GeneratorSpec(kind="circulant", n=1000, offsets=offsets))
            for offsets in ((1, 2), (1, 3))
        ]
        schedule = SwitchingModel(*rings, k=3000).schedule
        x0 = np.random.default_rng(0).random(1000)
        tracemalloc.start()
        try:
            traj = simulate(schedule, x0, t_max=6000, record_states=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.steps == 6000
        assert peak < 4 * 2**20


class TestDecayCheck:
    def test_triangle_passes_at_true_rate(self):
        matrix, pi = triangle_setup()
        traj = simulate((matrix,), X0, pi=pi)
        result = decay_check(traj, 0.5)
        assert result.passed
        assert result.margin >= 0.0

    def test_constant_opinions_pass_vacuously(self):
        matrix, pi = triangle_setup()
        traj = simulate((matrix,), np.full(3, 0.3), pi=pi)
        assert decay_check(traj, 0.5).passed

    def test_eigenvector_start_fails_below_true_rate(self):
        # x0 = 0.5 + eps * (1, -1, 0) decays exactly at rate 1/2
        matrix, pi = triangle_setup()
        x0 = 0.5 + 0.25 * np.array([1.0, -1.0, 0.0])
        traj = simulate((matrix,), x0, pi=pi)
        assert decay_check(traj, 0.5).passed
        negative = decay_check(traj, 0.4)
        assert not negative.passed
        assert negative.margin < 0.0

    def test_requires_target(self):
        matrix, _ = triangle_setup()
        traj = simulate((matrix,), X0)
        with pytest.raises(ValueError, match="consensus target"):
            decay_check(traj, 0.5)

    def test_rejects_rho_of_one(self):
        matrix, pi = triangle_setup()
        traj = simulate((matrix,), X0, pi=pi)
        with pytest.raises(ValueError, match=r"^rho must lie in \(0, 1\), got 1.0$"):
            decay_check(traj, 1.0)


class TestFitRate:
    def test_exact_geometric_series(self):
        series = 0.3 ** np.arange(20)
        assert fit_rate(series) == pytest.approx(0.3, abs=1e-10)

    def test_triangle_trajectory_rate_below_slem(self):
        matrix, pi = triangle_setup()
        traj = simulate((matrix,), X0, pi=pi)
        rate = fit_rate(traj.errors_pi, floor=1e-13)
        assert rate <= 0.5 + 1e-6

    def test_switching_per_cycle_rate_below_cycle_slem(self):
        layer1, layer2 = triangle_pair()
        model = SwitchingModel(layer1, layer2, 1)
        outcome = analyze(model, X0)
        traj = simulate(model.schedule, X0, pi=outcome.pi)
        per_cycle = traj.errors_max[::2]
        rate = fit_rate(per_cycle[2:], floor=1e-13)
        slem = eig_moduli_nonsymmetric(model).slem
        assert rate <= slem + 1e-6

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="at least 5"):
            fit_rate([1.0, 0.5, 0.25])

    def test_rejects_nonpositive_series(self):
        with pytest.raises(ValueError, match="at least 5"):
            fit_rate([0.0] * 10)
