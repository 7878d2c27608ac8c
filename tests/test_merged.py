import numpy as np
import pytest

from oplex.fixtures import (
    complementary_cycles_pair,
    misaligned_degree_pair,
    triangle_pair,
)
from oplex.merged import MergedOutcome, analyze, merge, slem_bounds
from oplex.netcore import GeneratorSpec, build_layer, generate
from oplex.spectral import eig_moduli_nonsymmetric
from oplex.perturb import fit_shift_family
from oplex.stochastic import consensus_value, stationary_from_degrees, transition_matrix
from oplex.verify import consensus_deviations, degree_matched_pair, random_layer, reweight_edge

X0_TRIANGLE = np.array([1.0, 0.0, 0.0])


class TestMerge:
    def test_complementary_cycles_give_complete_graph(self):
        layer1, layer2 = complementary_cycles_pair()
        model = merge(layer1, layer2, 0.5)
        expected = (np.ones((5, 5)) - np.eye(5)) / 4
        assert np.abs(model.transition.entries - expected).max() <= 1e-12

    def test_alpha_one_degenerates_to_layer1(self):
        layer1, layer2 = triangle_pair()
        model = merge(layer1, layer2, 1.0)
        assert np.abs(
            model.transition.entries - transition_matrix(layer1).entries
        ).max() <= 1e-15

    def test_identical_layers_any_alpha(self):
        layer1, _ = triangle_pair()
        model = merge(layer1, layer1, 0.37)
        assert np.abs(
            model.transition.entries - transition_matrix(layer1).entries
        ).max() <= 1e-15

    def test_merged_weights_are_blend(self):
        layer1, layer2 = triangle_pair()
        model = merge(layer1, layer2, 0.3)
        expected = 0.3 * layer1.weights + 0.7 * layer2.weights
        assert np.abs(model.merged_layer.weights - expected).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_endpoint_classifies_like_its_layer(self, alpha):
        # Layer 1, an even ring, is periodic; layer 2 adds the chords that
        # make it aperiodic. At an endpoint the other layer's edges weigh 0
        # and must not enter the merged support.
        ring = generate(GeneratorSpec(kind="circulant", n=6, offsets=(1,)))
        chorded = generate(GeneratorSpec(kind="circulant", n=6, offsets=(1, 2)))
        layers = (ring, chorded) if alpha == 1.0 else (chorded, ring)
        model = merge(*layers, alpha)
        assert not (model.merged_layer.csr.data == 0).any()
        assert np.array_equal(model.merged_layer.csr.indices, ring.csr.indices)
        assert model.transition.classes() == transition_matrix(ring).classes()
        assert model.transition.classes().periods == (2,)

    def test_blend_equals_the_dense_blend(self):
        rng = np.random.default_rng(8)
        layer1, layer2 = random_layer(rng, 9), random_layer(rng, 9)
        for alpha in (0.0, 0.3, 0.5, 1.0):
            blend = alpha * layer1.weights + (1.0 - alpha) * layer2.weights
            assert np.array_equal(merge(layer1, layer2, alpha).merged_layer.weights, blend)

    def test_rejects_mismatched_sizes(self):
        layer1, _ = triangle_pair()
        other = build_layer(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="node counts"):
            merge(layer1, other, 0.5)

    def test_rejects_alpha_outside_range(self):
        layer1, layer2 = triangle_pair()
        with pytest.raises(ValueError, match="alpha"):
            merge(layer1, layer2, 1.5)

    def test_rejects_node_isolated_in_both(self):
        a = build_layer(3, [(0, 1, 1)])
        b = build_layer(3, [(0, 1, 2)])
        with pytest.raises(ValueError, match="isolated in the merged"):
            merge(a, b, 0.5)

    def test_node_isolated_in_one_layer_is_fine(self):
        a = build_layer(3, [(0, 1, 1)])
        b = build_layer(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        model = merge(a, b, 0.5)
        assert (model.merged_layer.degrees > 0).all()


class TestPrimitivityGuarantee:
    """One primitive layer at interior alpha makes C primitive: the armed
    check primitivity-guarantee, which passes iff C is primitive."""

    def test_two_odd_cycles_guaranteed(self):
        layer1, layer2 = complementary_cycles_pair()
        outcome = analyze(merge(layer1, layer2, 0.5), np.zeros(5))
        assert outcome.guaranteed
        assert outcome.checks()["primitivity-guarantee"] is True

    def test_one_primitive_layer_suffices(self):
        primitive_layer = build_layer(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        periodic_layer = build_layer(3, [(0, 1, 1), (1, 2, 1)])
        outcome = analyze(merge(primitive_layer, periodic_layer, 0.3), X0_TRIANGLE)
        assert outcome.checks()["primitivity-guarantee"] is True
        assert outcome.interval is None  # the path layer has no consensus of its own
        assert "consensus-in-interval" not in outcome.checks()

    def test_shared_single_edge_not_guaranteed(self):
        a = build_layer(2, [(0, 1, 1)])
        b = build_layer(2, [(0, 1, 2)])
        outcome = analyze(merge(a, b, 0.5), np.array([1.0, 0.0]))
        assert not outcome.guaranteed
        assert "primitivity-guarantee" not in outcome.checks()
        assert outcome.pi is None and outcome.value is None
        assert outcome.note == "merged transition not primitive"

    def test_endpoint_alpha_not_guaranteed_by_condition(self):
        layer1, layer2 = complementary_cycles_pair()
        outcome = analyze(merge(layer1, layer2, 1.0), np.zeros(5))
        assert not outcome.guaranteed  # condition needs interior alpha
        assert "primitivity-guarantee" not in outcome.checks()
        assert outcome.pi is not None  # though C = A happens to be primitive

    def test_guarantee_fails_without_consensus(self):
        layer1, layer2 = complementary_cycles_pair()
        outcome = analyze(merge(layer1, layer2, 0.5), np.zeros(5))
        broken = MergedOutcome(
            bounds=outcome.bounds, pi=None, value=None, interval=outcome.interval, guaranteed=True
        )
        assert broken.checks()["primitivity-guarantee"] is False
        assert "consensus-in-interval" not in broken.checks()


class TestMergedOutcome:
    def test_triangle_pair_verdict(self):
        layer1, layer2 = triangle_pair()
        model = merge(layer1, layer2, 0.5)
        outcome = analyze(model, X0_TRIANGLE)
        assert outcome.value == pytest.approx(4 / 11, abs=1e-14)
        assert outcome.interval == pytest.approx((1 / 3, 3 / 8), abs=1e-14)
        assert outcome.bounds == slem_bounds(model)
        assert outcome.note == ""
        assert outcome.checks() == {
            **slem_bounds(model).checks(),
            "consensus-in-interval": True,
            "primitivity-guarantee": True,
        }

    def test_interval_check_fails_outside(self):
        layer1, layer2 = triangle_pair()
        outcome = analyze(merge(layer1, layer2, 0.5), X0_TRIANGLE)
        lo, hi = outcome.interval
        for value, inside in ((lo - 1e-9, False), (lo - 1e-11, True), (hi + 1e-9, False)):
            moved = MergedOutcome(
                outcome.bounds, outcome.pi, value, outcome.interval, outcome.guaranteed
            )
            assert moved.checks()["consensus-in-interval"] is inside

    def test_node_isolated_in_one_layer_arms_no_interval(self):
        a = build_layer(3, [(0, 1, 1)])
        b = build_layer(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        outcome = analyze(merge(a, b, 0.5), X0_TRIANGLE)
        assert outcome.interval is None
        assert outcome.checks()["primitivity-guarantee"] is True

    def test_rejects_opinions_outside_unit_interval(self):
        layer1, layer2 = triangle_pair()
        with pytest.raises(ValueError, match="outside"):
            analyze(merge(layer1, layer2, 0.5), np.array([1.5, 0.0, 0.0]))


class TestMergedConsensus:
    def test_triangle_pair_closed_form(self):
        layer1, layer2 = triangle_pair()
        value = analyze(merge(layer1, layer2, 0.5), X0_TRIANGLE).value
        assert value == pytest.approx(4 / 11, abs=1e-14)

    def test_matches_fixpoint_iteration_oracle(self):
        layer1, layer2 = triangle_pair()
        model = merge(layer1, layer2, 0.5)
        x = X0_TRIANGLE.copy()
        for _ in range(10_000):
            nxt = model.transition.entries @ x
            if np.abs(nxt - x).max() < 1e-14:
                x = nxt
                break
            x = nxt
        assert analyze(model, X0_TRIANGLE).value == pytest.approx(x[0], abs=1e-10)

    def test_constant_opinions_stay_put(self):
        layer1, layer2 = triangle_pair()
        value = analyze(merge(layer1, layer2, 0.25), np.full(3, 0.6)).value
        assert value == pytest.approx(0.6)

    def test_identical_layers_give_single_layer_consensus(self):
        layer1, _ = triangle_pair()
        single = consensus_value(stationary_from_degrees(layer1), X0_TRIANGLE)
        merged = analyze(merge(layer1, layer1, 0.7), X0_TRIANGLE).value
        assert merged == pytest.approx(single, abs=1e-15)

    def test_equals_convex_combination_of_layer_consensuses(self):
        layer1, layer2 = triangle_pair()
        alpha = 0.3
        x1 = consensus_value(stationary_from_degrees(layer1), X0_TRIANGLE)
        x2 = consensus_value(stationary_from_degrees(layer2), X0_TRIANGLE)
        e1, e2 = layer1.total_edge_weight, layer2.total_edge_weight
        expected = (alpha * e1 * x1 + (1 - alpha) * e2 * x2) / (
            alpha * e1 + (1 - alpha) * e2
        )
        value = analyze(merge(layer1, layer2, alpha), X0_TRIANGLE).value
        assert value == pytest.approx(expected, abs=1e-14)

    def test_rejects_non_primitive_merged_matrix(self):
        a = build_layer(2, [(0, 1, 1)])
        assert analyze(merge(a, a, 0.5), np.array([1.0, 0.0])).value is None
        # alpha = 0 leaves only the bipartite path: no value there
        tri = build_layer(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        path = build_layer(3, [(0, 1, 1), (1, 2, 1)])
        assert analyze(merge(tri, path, 0.5), X0_TRIANGLE).value is not None
        assert analyze(merge(tri, path, 0.0), X0_TRIANGLE).value is None

    def test_matches_simulated_fixpoint_on_random_instances(self):
        for seed in range(8):
            rng = np.random.default_rng(500 + seed)
            n = int(rng.integers(4, 31))
            model = merge(
                random_layer(rng, n), random_layer(rng, n), rng.uniform(0.1, 0.9)
            )
            x = rng.random(n)
            value = analyze(model, x).value
            for _ in range(100_000):
                nxt = model.transition.entries @ x
                if np.abs(nxt - x).max() < 1e-13:
                    x = nxt
                    break
                x = nxt
            assert np.abs(x - value).max() <= 1e-8


class TestConsensusInterval:
    def test_triangle_pair_interval(self):
        layer1, layer2 = triangle_pair()
        outcome = analyze(merge(layer1, layer2, 0.5), X0_TRIANGLE)
        lo, hi = outcome.interval
        assert lo == pytest.approx(1 / 3, abs=1e-14)
        assert hi == pytest.approx(3 / 8, abs=1e-14)
        assert lo <= outcome.value <= hi

    def test_identical_layers_degenerate_interval(self):
        layer1, _ = triangle_pair()
        lo, hi = analyze(merge(layer1, layer1, 0.5), X0_TRIANGLE).interval
        assert lo == pytest.approx(hi)

    def test_indicator_of_heavier_node_raises_endpoint(self):
        layer1, layer2 = triangle_pair()
        # node 0 carries more stationary weight in layer 2 (3/8 vs 1/3)
        lo, hi = analyze(merge(layer1, layer2, 0.5), X0_TRIANGLE).interval
        assert hi == pytest.approx(
            consensus_value(stationary_from_degrees(layer2), X0_TRIANGLE)
        )

    def test_none_when_first_layer_periodic(self):
        path = build_layer(3, [(0, 1, 1), (1, 2, 1)])  # bipartite, periodic
        tri = build_layer(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert analyze(merge(path, tri, 0.5), X0_TRIANGLE).interval is None

    def test_none_when_second_layer_periodic(self):
        tri = build_layer(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        path = build_layer(3, [(0, 1, 1), (1, 2, 1)])  # bipartite, periodic
        assert analyze(merge(tri, path, 0.5), X0_TRIANGLE).interval is None

    def test_convexity_on_random_instances(self):
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(4, 16))
            layer1 = random_layer(rng, n)
            layer2 = random_layer(rng, n)
            alpha = float(rng.uniform(0.05, 0.95))
            x0 = rng.random(n)
            model = merge(layer1, layer2, alpha)
            outcome = analyze(model, x0)
            lo, hi = outcome.interval
            value = outcome.value
            assert lo - 1e-10 <= value <= hi + 1e-10


class TestSlemBounds:
    def test_lower_bound_attained_by_complete_graph(self):
        layer1, layer2 = complementary_cycles_pair()
        report = slem_bounds(merge(layer1, layer2, 0.5))
        assert report.slem_c == pytest.approx(report.lower_bound, abs=1e-10)
        assert report.degrees_matched

    def test_misaligned_pair_violates_upper_bound(self):
        layer1, layer2 = misaligned_degree_pair()
        report = slem_bounds(merge(layer1, layer2, 0.5))
        assert not report.degrees_matched
        assert report.slem_c > report.upper_bound
        assert report.slem_c == pytest.approx(0.6928, abs=1e-3)
        assert report.upper_bound == pytest.approx(0.6839, abs=1e-3)

    def test_misaligned_slem_matches_general_solver(self):
        # C = D^-1 W_m is similar to a symmetric matrix even when the layer
        # degrees clash, so the symmetric path must agree with eigvals on C.
        layer1, layer2 = misaligned_degree_pair()
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            model = merge(layer1, layer2, alpha)
            general = eig_moduli_nonsymmetric(model.transition).slem
            assert slem_bounds(model).slem_c == pytest.approx(general, abs=1e-12)
        report = slem_bounds(merge(layer1, layer2, 0.5))
        assert report.slem_c == pytest.approx(0.692752599154890, abs=1e-12)

    def test_identical_regular_layers(self):
        layer = generate(GeneratorSpec(kind="k-regular", n=40, k=6, seed=5))
        report = slem_bounds(merge(layer, layer, 0.5))
        assert report.degrees_matched
        assert report.slem_c <= report.upper_bound + 1e-9

    def test_degree_matched_collapse_to_matrix_blend(self):
        rng = np.random.default_rng(8)
        layer1, layer2 = degree_matched_pair(rng, 9)
        alpha = 0.35
        model = merge(layer1, layer2, alpha)
        blend = alpha * transition_matrix(layer1).entries + (
            1 - alpha
        ) * transition_matrix(layer2).entries
        assert np.abs(model.transition.entries - blend).max() <= 1e-12

    def test_universal_lower_bound_random(self):
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            n = int(rng.integers(4, 15))
            model = merge(random_layer(rng, n), random_layer(rng, n), rng.uniform(0.1, 0.9))
            report = slem_bounds(model)
            assert report.slem_c >= report.lower_bound - 1e-9

    def test_layer_with_isolated_node_leaves_upper_bound_unarmed(self):
        sparse = build_layer(3, [(0, 1, 1)])
        full = build_layer(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        report = slem_bounds(merge(sparse, full, 0.5))
        assert not report.degrees_matched
        assert report.upper_bound is None
        assert report.slem_c >= report.lower_bound - 1e-9

    def test_layer_eigensolver_failure_surfaces(self, monkeypatch):
        import oplex.merged as merged

        layer1, layer2 = triangle_pair()
        model = merge(layer1, layer2, 0.5)
        solve = merged.slem_reversible

        def fail(layer):
            if layer is model.merged_layer:
                return solve(layer)
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(merged, "slem_reversible", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            slem_bounds(model)


def layer1_deviations(layer1, models, x0=X0_TRIANGLE):
    """|x_m - x_1| for each merged model's consensus x_m, layer 1's x_1."""
    x1 = consensus_value(stationary_from_degrees(layer1), x0)
    return consensus_deviations([analyze(model, x0) for model in models], x1)


class TestAlphaStability:
    def test_identical_layers_zero_deviation(self):
        layer1, _ = triangle_pair()
        deviations = layer1_deviations(layer1, [merge(layer1, layer1, a) for a in (0.2, 0.5, 0.9)])
        assert deviations.max() <= 1e-15

    def test_alpha_one_endpoint_zero(self):
        layer1, layer2 = triangle_pair()
        assert layer1_deviations(layer1, [merge(layer1, layer2, 1.0)])[0] <= 1e-15

    def test_triangle_family_matches_closed_form(self):
        layer1, layer2 = triangle_pair()
        alphas = np.array([0.9, 0.99, 0.999])
        deviations = layer1_deviations(layer1, [merge(layer1, layer2, a) for a in alphas])
        e1, e2 = layer1.total_edge_weight, layer2.total_edge_weight
        x1, x2 = 1 / 3, 3 / 8
        for alpha, dev in zip(alphas, deviations):
            expected = (1 - alpha) * e2 * abs(x2 - x1) / (
                alpha * e1 + (1 - alpha) * e2
            )
            assert dev == pytest.approx(expected, abs=1e-14)
        # under |E2| / min(|E1|, |E2|) |x2 - x1| (1 - alpha)
        assert (deviations <= e2 / min(e1, e2) * abs(x2 - x1) * (1 - alphas) + 1e-12).all()
        ratios = deviations / (1.0 - alphas)
        assert ratios.max() / ratios.min() < 1.2  # approximately constant


class TestMergedPerturbation:
    """The merged consensus against layer 1's when layer 2 is a perturbed
    copy of layer 1, fitted by fit_shift_family."""

    @staticmethod
    def fit(layer1, family, x0=X0_TRIANGLE):
        a = transition_matrix(layer1).entries
        e_norms = [float(np.abs(a - transition_matrix(b).entries).max()) for b in family]
        models = [merge(layer1, b, 0.5) for b in family]
        return fit_shift_family(e_norms, layer1_deviations(layer1, models, x0))

    def test_identical_layer_gives_zero(self):
        layer1, _ = triangle_pair()
        fit = self.fit(layer1, [layer1])
        assert fit.passed
        assert fit.deviations.max() <= 1e-15

    def test_shrinking_edge_reweight_family(self):
        layer1, _ = triangle_pair()
        family = [reweight_edge(layer1, 0, 1, 1 + eps) for eps in (1e-2, 1e-3, 1e-4)]
        fit = self.fit(layer1, family)
        assert fit.armed
        assert fit.passed
        assert abs(fit.slope - 1.0) <= 0.1

    def test_disjoint_support_is_report_only(self):
        layer1, layer2 = complementary_cycles_pair()
        fit = self.fit(layer1, [layer2], np.array([1, 0, 0, 0, 0.0]))
        assert not fit.armed
        assert fit.passed  # nothing armed, nothing failed
        assert fit.e_norms[0] > 0.4
