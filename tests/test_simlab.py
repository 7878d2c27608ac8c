import tracemalloc
from itertools import accumulate, cycle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplex import simlab
from oplex.fixtures import oscillating_pair, triangle_pair
from oplex.merged import analyze as analyze_merged
from oplex.merged import MergedModel
from oplex.netcore import GeneratorSpec, LayerGraph, generate
from oplex.simlab import DecayCheck, RateFit, simulate
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


class Collector:
    """A simulate reader that keeps copies of what it is handed, the rows
    unless told not to: the test side's record of the states and both error
    norms."""

    def __init__(self, rows=True):
        self.keep_rows = rows
        self.starts, self.rows, self.errors = [], [], []

    def __call__(self, start, rows, errors_pi, errors_max):
        self.starts.append(start)
        self.rows.append(rows.copy() if self.keep_rows else rows.shape[0])
        self.errors.append(None if errors_pi is None else (errors_pi.copy(), errors_max.copy()))

    @property
    def states(self):
        return np.concatenate(self.rows)

    @property
    def errors_pi(self):
        return None if self.errors[0] is None else np.concatenate([e[0] for e in self.errors])

    @property
    def errors_max(self):
        return None if self.errors[0] is None else np.concatenate([e[1] for e in self.errors])


def collect(runs, x0, **kwargs):
    """simulate with a Collector; the trajectory and the collector."""
    seen = Collector()
    return simulate(runs, x0, readers=[seen], **kwargs), seen


def feed(reader, errors_pi, errors_max=None, sizes=(64, 64, 128, 109)):
    """Hand a whole series to a reader as simulate does: x(0) alone, then
    blocks whose lengths cycle through sizes. The rows are not read."""
    errors_max = errors_pi if errors_max is None else errors_max
    reader(0, None, errors_pi[:1], errors_max[:1])
    start = 1
    for size in cycle(sizes):
        if start >= len(errors_pi):
            return reader
        reader(start, None, errors_pi[start : start + size], errors_max[start : start + size])
        start += size


def fit_series(series, sizes=(64, 64, 128, 109), **kwargs):
    """RateFit's rate of a whole series fed in blocks, skipping nothing
    unless told to."""
    series = np.asarray(series, dtype=float)
    return feed(RateFit(**{"skip": 0, **kwargs}), series, sizes=sizes).rate()


def triangle_setup():
    layer1, _ = triangle_pair()
    matrix = transition_matrix(layer1)
    return matrix, stationary_from_degrees(layer1)


class TestSimulate:
    def test_constant_opinions_already_fixed(self):
        matrix, pi = triangle_setup()
        x0 = np.full(3, 0.5)
        traj, seen = collect([(matrix, 1)], x0, pi=pi)
        assert traj.converged
        assert traj.steps == 1
        assert np.array_equal(traj.final_state, x0)
        assert seen.errors_max.max() <= 1e-15

    def test_merged_triangle_hits_closed_form(self):
        layer1, layer2 = triangle_pair()
        model = MergedModel(layer1, layer2, 0.5)
        outcome = analyze_merged(model, X0)
        traj = simulate([(model.transition, 1)], X0, pi=outcome.pi)
        assert traj.converged
        assert outcome.value == pytest.approx(4 / 11, abs=1e-14)
        assert np.abs(traj.final_state - 4 / 11).max() <= 1e-8

    def test_oscillating_switching_never_converges(self):
        model = SwitchingModel(*oscillating_pair(), k=1)
        x0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        traj = simulate(model.matrix_runs, x0, t_max=2000)
        assert not traj.converged
        assert traj.steps == 2000
        assert analyze(model, x0).status == "oscillation"

    def test_switching_consensus_trajectory(self):
        layer1, layer2 = triangle_pair()
        model = SwitchingModel(layer1, layer2, 1)
        outcome = analyze(model, X0)
        traj = simulate(model.matrix_runs, X0, pi=outcome.pi)
        assert traj.converged
        assert np.abs(traj.final_state - 3 / 10).max() <= 1e-9

    def test_switching_period_composes_to_cycle(self):
        model = SwitchingModel(*triangle_pair(), k=3)
        traj = simulate(model.matrix_runs, X0, t_max=4)
        assert np.abs(traj.final_state - model.entries @ X0).max() <= 1e-14

    def test_rejects_empty_schedule(self):
        matrix, _ = triangle_setup()
        for runs in ((), [(matrix, 0)]):
            with pytest.raises(ValueError, match="at least one matrix"):
                simulate(runs, X0)

    def test_rejects_a_negative_repeat_count(self):
        a, b = (transition_matrix(layer) for layer in triangle_pair())
        with pytest.raises(ValueError, match="^run 0 has repeat count -1; repeats must be >= 0$"):
            simulate([(a, -1), (b, 3)], X0, t_max=5)

    def test_rejects_t_max_below_one(self):
        matrix, _ = triangle_setup()
        with pytest.raises(ValueError, match="^t_max must be at least 1$"):
            simulate([(matrix, 1)], X0, t_max=0)

    def test_rejects_pi_of_the_wrong_length(self):
        matrix, _ = triangle_setup()
        pi = StationaryDistribution(np.full(4, 0.25))
        with pytest.raises(ValueError, match=r"^vector length \(3,\) does not match pi length \(4,\)$"):
            simulate([(matrix, 1)], X0, pi=pi)

    def test_final_state_kept_without_recording(self):
        matrix, pi = triangle_setup()
        traj = simulate([(matrix, 1)], X0, pi=pi)
        assert traj.states is None
        assert traj._fields == ("final_state", "pi", "converged", "steps")
        assert np.abs(traj.final_state - 1 / 3).max() <= 1e-9

    @pytest.mark.parametrize("tol", [0.0, float("inf"), float("nan")])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        matrix, _ = triangle_setup()
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            simulate([(matrix, 1)], X0, tol=tol)

    def test_rejects_bad_x0(self):
        matrix, pi = triangle_setup()
        with pytest.raises(ValueError, match="outside"):
            simulate([(matrix, 1)], np.array([2.0, 0.0, 0.0]))

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
        _, seen = collect([(matrix, 1)], x0, t_max=200)
        assert seen.states.min() >= x0.min() - 1e-12
        assert seen.states.max() <= x0.max() + 1e-12


def stepwise_simulate(runs, x0, t_max, tol, pi):
    """One step at a time, both norms per step: the reference for simulate.

    The runs are spelled out into one matrix per step of the period. Each
    step is one call of the matrix's matvec kernel, the one simulate calls,
    so the states are bit-for-bit those of the same products.
    """
    schedule = [m for m, r in runs for _ in range(r)]
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
        states=np.array(states),
        final_state=x,
        errors_pi=None if errors is None else np.array([e[0] for e in errors]),
        errors_max=None if errors is None else np.array([e[1] for e in errors]),
        converged=converged,
        steps=steps,
    )


def random_runs(rng, n, period):
    """One period of the given length as runs of lazy_walk matrices. The
    repeats are a random split of the period, with one run of zero repeats
    put in among them."""
    cuts = np.sort(rng.choice(np.arange(1, period), size=rng.integers(0, period), replace=False))
    repeats = np.diff(np.concatenate([[0], cuts, [period]])).tolist()
    repeats.insert(rng.integers(0, len(repeats) + 1), 0)
    return [(lazy_walk(rng, n), r) for r in repeats]


def lazy_walk(rng, n):
    """A lazy random walk on n nodes with some zero entries and a random
    laziness, so mixing speeds vary."""
    entries = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    entries[np.arange(n), rng.integers(0, n, n)] += 0.05
    laziness = 1.0 - 10.0 ** rng.uniform(-2.0, 0.0)
    entries = laziness * np.eye(n) + (1 - laziness) * entries / entries.sum(axis=1, keepdims=True)
    return TransitionMatrix.from_entries(entries)


def assert_matches_stepwise(runs, x0, t_max, tol, pi, read=True):
    """simulate against stepwise_simulate, bit for bit: the stop step, the
    final state and, through a Collector when read, every state and both
    error norms, with each block's start step."""
    seen = Collector()
    traj = simulate(runs, x0, t_max=t_max, tol=tol, pi=pi, readers=[seen] if read else [])
    ref = stepwise_simulate(runs, x0, t_max, tol, pi)
    assert traj.steps == ref["steps"]
    assert traj.converged == ref["converged"]
    assert np.array_equal(traj.final_state, ref["final_state"])
    if read:
        assert seen.starts == list(accumulate([0] + [len(r) for r in seen.rows[:-1]]))
        for name in ("states", "errors_pi", "errors_max"):
            got, want = getattr(seen, name), ref[name]
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
    """Two sparse matrices, the first period - 1 times and then the second;
    at period 1 the first is a run of zero repeats. The block cap is 109
    steps at n = 300, so at period 200 every block is shorter than a
    period. The uniform pi only weights the error norms."""
    n = matrices[0].n
    runs = [(matrices[0], period - 1), (matrices[1], 1)]
    assert all(m.csr.matvec_cost() < n * n for m in matrices)
    x0 = np.random.default_rng(period).random(n)
    pi = StationaryDistribution(np.full(n, 1.0 / n))
    traj = assert_matches_stepwise(runs, x0, 3000, 1e-6, pi)
    assert traj.steps > 100


class TestBlockedStepping:
    """simulate steps in blocks; every result must equal plain stepping bit for bit.

    Blocks hold b, b, 2 b, 4 b, ... steps with b = max(period, 64) at these
    sizes, so the "edge" runs pick tol to make the stall rule fire at or
    just past step b * 2**j: stops on a block edge, and for period >= 2
    quiet runs that straddle one.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=12),
        period=st.integers(min_value=1, max_value=4),
        t_max=st.integers(min_value=1, max_value=700),
        stop=st.one_of(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.floats(min_value=2.0, max_value=16.0),
        ),
        with_target=st.booleans(),
        read=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_stepwise_reference(self, seed, n, period, t_max, stop, with_target, read):
        rng = np.random.default_rng(seed)
        runs = random_runs(rng, n, period)
        x0 = rng.random(n)
        weights = rng.random(n) + 0.1
        pi = StationaryDistribution(weights / weights.sum()) if with_target else None
        if isinstance(stop, tuple):
            # Steps last - period + 1 .. last are all quiet under this tol,
            # so the stall rule fires at step last or before it.
            j, offset = stop
            last = max(period, 64) * 2**j + min(offset, period - 1)
            states = stepwise_simulate(runs, x0, last, 1e-300, None)["states"]
            diffs = np.abs(np.diff(states, axis=0)).max(axis=1)
            tol = float(diffs[-period:].max()) * (1 + 1e-9) or 1e-300
        else:
            tol = 10.0**-stop
        assert_matches_stepwise(runs, x0, t_max, tol, pi, read)

    @pytest.mark.parametrize("repeats", [(30, 0, 20), (40, 50)])
    def test_matches_stepwise_when_runs_end_inside_a_block(self, repeats):
        # Period 50: the first block of 64 steps holds run ends at steps 30
        # and 50, and its edge at 64 cuts the run of steps 51-80. Period 90:
        # the first block is one period, with a run end at step 40 inside it.
        rng = np.random.default_rng(sum(repeats))
        runs = [(lazy_walk(rng, 12), r) for r in repeats]
        x0 = rng.random(12)
        pi = StationaryDistribution(np.full(12, 1.0 / 12))
        traj = assert_matches_stepwise(runs, x0, 500, 1e-300, pi)
        assert traj.steps == 500

    def test_matches_stepwise_on_a_switching_schedule_at_k_0(self):
        # At k = 0 the schedule's first run has zero repeats: every step
        # applies layer 2 alone (layer 1, offsets 1 and 3 on 30 nodes, is
        # bipartite and would never converge).
        rings = [
            generate(GeneratorSpec(kind="circulant", n=30, offsets=offsets))
            for offsets in ((1, 3), (1, 2))
        ]
        runs = SwitchingModel(*rings, k=0).matrix_runs
        assert [r for _, r in runs] == [0, 1]
        x0 = np.random.default_rng(0).random(30)
        pi = StationaryDistribution(np.full(30, 1.0 / 30))
        traj = assert_matches_stepwise(runs, x0, 5000, 1e-12, pi)
        assert traj.converged and traj.steps > 64

    def test_short_run_takes_three_blocks(self, monkeypatch):
        # 195 steps at n = 12 fill blocks of 64, 64 and 67 steps; the error
        # norms are taken once for x(0) and once per block, each reader is
        # handed x(0) and then each block once, and the one run fills each
        # block with one kernel (one islice of its rows).
        norms, spans = [], []
        error_norms, islice = simlab._error_norms, simlab.islice
        monkeypatch.setattr(simlab, "_error_norms", lambda *a: norms.append(1) or error_norms(*a))
        monkeypatch.setattr(simlab, "islice", lambda *a: spans.append(a[1]) or islice(*a))
        rng = np.random.default_rng(12)
        pi = StationaryDistribution(np.full(12, 1.0 / 12))
        seen = [Collector(), Collector()]
        traj = simulate([(lazy_walk(rng, 12), 1)], rng.random(12), 195, 1e-300, pi, seen)
        assert traj.steps == 195
        assert len(norms) == 1 + 3
        assert spans == [64, 64, 67]
        for reader in seen:
            assert reader.starts == [0, 1, 65, 129]
            assert [len(rows) for rows in reader.rows] == [1, 64, 64, 67]

    @pytest.mark.parametrize("n, t_max, converged", [(300, 2000, True), (600, 200, False)])
    def test_matches_stepwise_at_the_block_cap(self, n, t_max, converged):
        # At these sizes blocks stop growing after a few steps, at a size set
        # by n, not by the number of steps taken.
        rng = np.random.default_rng(n)
        ring = np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1) + np.eye(n)
        matrix = TransitionMatrix.from_entries(ring / 3)
        pi = StationaryDistribution(np.full(n, 1.0 / n))
        x0 = rng.random(n)
        traj = assert_matches_stepwise([(matrix, 1)], x0, t_max, 1e-4, pi)
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
        # A period of k + 1 steps on 1000-node rings: the buffer holds one
        # capped block (32 steps of 1000 opinions, 256 kB), not a period,
        # and the period is held as two runs, not as k + 1 matrices.
        rings = [
            generate(GeneratorSpec(kind="circulant", n=1000, offsets=offsets))
            for offsets in ((1, 2), (1, 3))
        ]
        x0 = np.random.default_rng(0).random(1000)
        for k in (3000, 4 * 10**6):
            runs = SwitchingModel(*rings, k=k).matrix_runs
            tracemalloc.start()
            try:
                traj = simulate(runs, x0, t_max=6000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert traj.steps == 6000
            assert peak < 4 * 2**20, k


class TestDecayCheck:
    def test_triangle_passes_at_true_rate(self):
        matrix, pi = triangle_setup()
        law = DecayCheck(0.5, pi)
        simulate([(matrix, 1)], X0, pi=pi, readers=[law])
        result = law.result()
        assert result.passed
        assert result.margin >= 0.0

    def test_constant_opinions_pass_vacuously(self):
        matrix, pi = triangle_setup()
        law = DecayCheck(0.5, pi)
        simulate([(matrix, 1)], np.full(3, 0.3), pi=pi, readers=[law])
        assert law.result().passed

    def test_eigenvector_start_fails_below_true_rate(self):
        # x0 = 0.5 + eps * (1, -1, 0) decays exactly at rate 1/2
        matrix, pi = triangle_setup()
        x0 = 0.5 + 0.25 * np.array([1.0, -1.0, 0.0])
        laws = [DecayCheck(0.5, pi), DecayCheck(0.4, pi)]
        simulate([(matrix, 1)], x0, pi=pi, readers=laws)
        assert laws[0].result().passed
        negative = laws[1].result()
        assert not negative.passed
        assert negative.margin < 0.0

    def test_requires_target(self):
        matrix, pi = triangle_setup()
        with pytest.raises(ValueError, match="consensus target"):
            simulate([(matrix, 1)], X0, readers=[DecayCheck(0.5, pi)])

    def test_rejects_rho_of_one(self):
        _, pi = triangle_setup()
        with pytest.raises(ValueError, match=r"^rho must lie in \(0, 1\), got 1.0$"):
            DecayCheck(1.0, pi)


class TestFitRate:
    def test_exact_geometric_series(self):
        series = 0.3 ** np.arange(20)
        assert fit_series(series) == pytest.approx(0.3, abs=1e-10)

    def test_triangle_trajectory_rate_below_slem(self):
        matrix, pi = triangle_setup()
        fit = RateFit(skip=0)
        simulate([(matrix, 1)], X0, pi=pi, readers=[fit])
        assert fit.rate() <= 0.5 + 1e-6

    def test_switching_per_cycle_rate_below_cycle_slem(self):
        layer1, layer2 = triangle_pair()
        model = SwitchingModel(layer1, layer2, 1)
        outcome = analyze(model, X0)
        fit = RateFit(norm="max", stride=2, skip=2)
        simulate(model.matrix_runs, X0, pi=outcome.pi, readers=[fit])
        slem = eig_moduli_nonsymmetric(model).slem
        assert fit.rate() <= slem + 1e-6

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="at least 5"):
            fit_series([1.0, 0.5, 0.25])

    def test_rejects_nonpositive_series(self):
        with pytest.raises(ValueError, match="at least 5"):
            fit_series([0.0] * 10)

    def test_stride_past_the_int64_range(self):
        # At k = 10^30 the period's only step on the stride is t = 0, in the
        # first block; later blocks start far below the stride.
        series = 0.5 ** np.arange(300)
        for skip in (0, 2):
            fit = feed(RateFit(stride=10**30 + 1, skip=skip), series)
            with pytest.raises(ValueError, match="at least 5"):
                fit.rate()
            assert fit.count == 1 - skip // 2


def polyfit_rate(errors):
    """The rate as np.polyfit fits it on whole-series arrays: the reference."""
    series = np.asarray(errors, dtype=float)
    index = np.arange(series.shape[0])
    keep = series > simlab.FIT_FLOOR
    return float(np.exp(np.polyfit(index[keep], np.log(series[keep]), 1)[0]))


def whole_series_margin(errors_pi, errors_max, pi, rho):
    """DecayCheck's margin from bounds built over the whole series: the reference."""
    t = np.arange(errors_pi.shape[0])
    bound_pi = rho**t * errors_pi[0]
    bound_max = bound_pi / np.sqrt(float(pi.pi.min()))
    slack_pi = bound_pi + 1e-12 - errors_pi
    slack_max = bound_max + 1e-12 - errors_max
    return float(min(slack_pi.min(), slack_max.min()))


def noisy_series(steps, rate=0.9995, seed=0):
    """errors_pi = rate^t times noise in (0.5, 1], and errors_max 1.5 times
    that; on a uniform pi over 4 nodes the decay law holds at rho = rate."""
    rng = np.random.default_rng(seed)
    errors_pi = rate ** np.arange(steps + 1) * (1.0 - 0.5 * rng.random(steps + 1))
    errors_pi[0] = 1.0
    return errors_pi, 1.5 * errors_pi


UNIFORM4 = StationaryDistribution(np.full(4, 0.25))
CHUNK = simlab._BLOCK_CELLS
CHUNK_LENGTHS = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]
# Block lengths for feed: the lengths simulate starts with, its cap at
# n = 300, a block of _BLOCK_CELLS entries (its cap at n = 1) and a prime.
SIZES = (64, 64, 128, 109, CHUNK, 7)


class TestChunkedAgreement:
    """RateFit and DecayCheck read the series block by block; they must
    give the whole-series results on every cut."""

    def assert_fit_agrees(self, rate, series):
        assert rate == pytest.approx(polyfit_rate(series), rel=1e-12, abs=0)

    def test_fit_on_the_slow_ring(self):
        # The slow-mixing ring circulant(300, [1, 2]) from an opinion wave:
        # about 34,500 steps in 317 blocks of 109.
        n = 300
        layer = generate(GeneratorSpec(kind="circulant", n=n, offsets=(1, 2)))
        rng = np.random.default_rng(1)
        x0 = 0.5 + 0.3 * np.cos(2 * np.pi * np.arange(n) / n + 1.0) + rng.uniform(-0.1, 0.1, n)
        fit, seen = RateFit(), Collector(rows=False)
        pi = stationary_from_degrees(layer)
        traj = simulate([(transition_matrix(layer), 1)], x0, pi=pi, readers=[fit, seen])
        assert traj.converged and traj.steps > CHUNK and len(seen.starts) > 300
        self.assert_fit_agrees(fit.rate(), seen.errors_pi[5:])

    def test_fit_on_a_strided_switching_subsample(self):
        rings = [
            generate(GeneratorSpec(kind="circulant", n=100, offsets=offsets))
            for offsets in ((1, 2), (1, 3))
        ]
        k = 2
        model = SwitchingModel(*rings, k)
        x0 = np.random.default_rng(2).random(100)
        fit, seen = RateFit(norm="max", stride=k + 1, skip=2), Collector(rows=False)
        simulate(model.matrix_runs, x0, pi=analyze(model, x0).pi, readers=[fit, seen])
        assert any(start % (k + 1) for start in seen.starts)
        self.assert_fit_agrees(fit.rate(), seen.errors_max[:: k + 1][2:])

    @pytest.mark.parametrize("length", CHUNK_LENGTHS)
    def test_fit_at_chunk_edges_with_floor_entries(self, length):
        rng = np.random.default_rng(length)
        series = 0.9995 ** np.arange(length) * np.exp(0.3 * rng.standard_normal(length))
        series[::7] = simlab.FIT_FLOOR
        series[::11] = simlab.FIT_FLOOR / 2
        series[::13] = 0.0
        self.assert_fit_agrees(fit_series(series, SIZES), series)
        # The same series on the stride 3: steps 3 j carry entry j.
        self.assert_fit_agrees(fit_series(np.repeat(series, 3), SIZES, stride=3), series)

    @pytest.mark.parametrize("batch", [1, 10])
    @pytest.mark.parametrize("size", range(1, 8))
    @pytest.mark.parametrize(
        "kwargs, cut",
        [
            ({}, lambda pi, mx: pi[5:]),
            ({"norm": "max", "stride": 3, "skip": 2}, lambda pi, mx: mx[::3][2:]),
        ],
        ids=["skip-5", "stride-3-skip-2"],
    )
    def test_fit_cuts_at_block_edges(self, monkeypatch, batch, size, kwargs, cut):
        # Blocks of 1..7 entries after x(0), read one at a time or in
        # batches of 10 or more steps, put a read's edge before, at and
        # after the skip, at every phase of the stride, and at or inside the
        # read where the errors fall below FIT_FLOOR: from t = 43 on in the
        # pi norm, and from t = 39 on the max norm's stride.
        monkeypatch.setattr(RateFit, "_BATCH", batch)
        rng = np.random.default_rng(size)
        errors_pi = 0.5 ** np.arange(60) * (1.0 - 0.5 * rng.random(60))
        errors_max = 0.45 ** np.arange(60) * (1.0 - 0.5 * rng.random(60))
        fit = feed(RateFit(**kwargs), errors_pi, errors_max, sizes=(size,))
        self.assert_fit_agrees(fit.rate(), cut(errors_pi, errors_max))

    @pytest.mark.parametrize("length", CHUNK_LENGTHS)
    def test_decay_margin_is_bit_for_bit(self, length):
        errors_pi, errors_max = noisy_series(length - 1)
        for rho, passed in ((0.9995, True), (0.999, False)):
            result = feed(DecayCheck(rho, UNIFORM4), errors_pi, errors_max, SIZES).result()
            assert result.margin == whole_series_margin(errors_pi, errors_max, UNIFORM4, rho)
            assert result.passed is passed


class TestLongSeriesMemory:
    # A 10^6-step series takes 8 MB per norm. Whole-series arrays (a mask, an
    # index, the logs, the bounds) peaked at 70 MB for the fit and 38 MB for
    # the decay law. Read block by block, the largest block simulate hands
    # over (_BLOCK_CELLS entries, at n = 1) sets the peak.
    @pytest.mark.parametrize(
        "reader",
        [lambda: RateFit(), lambda: DecayCheck(0.9995, UNIFORM4)],
        ids=["fit_rate", "decay_check"],
    )
    def test_no_array_as_long_as_the_series(self, reader):
        errors_pi, errors_max = noisy_series(10**6)
        tracemalloc.start()
        try:
            feed(reader(), errors_pi, errors_max, sizes=(CHUNK,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
