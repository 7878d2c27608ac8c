from types import SimpleNamespace

import numpy as np
import pytest

from oplex import perturb
from oplex.perturb import fit_shift_family, stationary_shift
from oplex.stochastic import TransitionMatrix, stationary_general


def two_state(a: float, b: float) -> TransitionMatrix:
    return TransitionMatrix.from_entries([[1 - a, a], [b, 1 - b]])


def random_primitive(rng, n):
    m = rng.random((n, n)) + 0.1
    return TransitionMatrix.from_entries(m / m.sum(axis=1, keepdims=True))


def shift_through_inverse(p: TransitionMatrix, p_tilde: TransitionMatrix) -> np.ndarray:
    """pi~ E Z with Z = (I - P + 1 pi')^-1 formed by a dense inverse."""
    pi = stationary_general(p).pi
    z = np.linalg.inv(np.eye(p.n) - p.entries + np.outer(np.ones(p.n), pi))
    return stationary_general(p_tilde).pi @ (p_tilde.entries - p.entries) @ z


class TestFundamentalMatrix:
    """Z = (I - P + 1 pi')^-1 enters only through delta_predicted = pi~ E Z:
    chains with a known Z give a known shift."""

    def test_rank_one_chain_gives_identity(self):
        # P = 1 pi' has Z = I, so the predicted shift is pi~ E itself.
        pi = np.array([0.3, 0.5, 0.2])
        p = TransitionMatrix.from_entries(np.outer(np.ones(3), pi))
        p_tilde = TransitionMatrix.from_entries(
            [[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.1, 0.6, 0.3]]
        )
        report = stationary_shift(p, p_tilde)
        pi_e = stationary_general(p_tilde).pi @ (p_tilde.entries - p.entries)
        assert np.abs(report.delta_predicted - pi_e).max() <= 1e-12

    def test_uniform_two_state_gives_identity(self):
        p, p_tilde = two_state(0.5, 0.5), two_state(0.3, 0.6)
        report = stationary_shift(p, p_tilde)
        pi_e = stationary_general(p_tilde).pi @ (p_tilde.entries - p.entries)
        assert np.abs(report.delta_predicted - pi_e).max() <= 1e-12

    def test_two_state_adjugate_oracle(self):
        a, b = 0.4, 0.5
        p, p_tilde = two_state(a, b), two_state(0.3, 0.7)
        pi = np.array([b, a]) / (a + b)
        system = np.eye(2) - p.entries + np.outer(np.ones(2), pi)
        det = system[0, 0] * system[1, 1] - system[0, 1] * system[1, 0]
        oracle = (
            np.array([[system[1, 1], -system[0, 1]], [-system[1, 0], system[0, 0]]])
            / det
        )
        pi_tilde = np.array([0.7, 0.3]) / (0.3 + 0.7)
        expected = pi_tilde @ (p_tilde.entries - p.entries) @ oracle
        report = stationary_shift(p, p_tilde)
        assert np.abs(report.delta_predicted - expected).max() <= 1e-13

    def test_inverse_residual(self):
        # The solve against the dense inverse it replaces, on random pairs.
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            p, p_tilde = random_primitive(rng, n), random_primitive(rng, n)
            report = stationary_shift(p, p_tilde)
            gap = np.abs(report.delta_predicted - shift_through_inverse(p, p_tilde)).max()
            assert gap <= 1e-12

    def test_singular_system_is_a_value_error(self, monkeypatch):
        # A pi summing to 0 puts the ones vector in the kernel of I - P + 1 pi'.
        monkeypatch.setattr(
            perturb, "stationary_general", lambda m: SimpleNamespace(pi=np.array([1.0, -1.0]))
        )
        p = two_state(0.5, 0.5)
        with pytest.raises(ValueError, match="singular"):
            stationary_shift(p, p)


class TestStationaryShift:
    def test_no_perturbation_no_shift(self):
        p = two_state(0.4, 0.5)
        report = stationary_shift(p, p)
        assert np.abs(report.delta_predicted).max() <= 1e-13
        assert np.abs(report.delta_actual).max() <= 1e-13
        assert report.max_norm_e == 0.0

    def test_two_state_closed_form(self):
        report = stationary_shift(two_state(0.5, 0.5), two_state(0.4, 0.5))
        expected = np.array([1 / 18, -1 / 18])
        assert np.abs(report.delta_actual - expected).max() <= 1e-12
        assert np.abs(report.delta_predicted - expected).max() <= 1e-12

    def test_identity_exact_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_primitive(rng, 6)
            bump = 0.1 * rng.random((6, 6))
            p_tilde = TransitionMatrix.from_entries(
                (p.entries + bump) / (p.entries + bump).sum(axis=1, keepdims=True)
            )
            report = stationary_shift(p, p_tilde)
            assert np.abs(report.delta_predicted - report.delta_actual).max() <= 1e-9

    def test_predicted_shift_sums_to_zero(self):
        rng = np.random.default_rng(7)
        p = random_primitive(rng, 5)
        p_tilde = random_primitive(rng, 5)
        report = stationary_shift(p, p_tilde)
        assert abs(report.delta_predicted.sum()) <= 1e-10

    def test_rejects_non_primitive(self):
        from oplex.stochastic import NotPrimitiveError

        flip = TransitionMatrix.from_entries([[0, 1], [1, 0]])
        with pytest.raises(NotPrimitiveError):
            stationary_shift(flip, two_state(0.4, 0.5))


class TestShiftBoundCheck:
    """The ratio ||pi~ - pi||_max / ||P~ - P||_max, read off the report as
    the perturbation suite's two-state check reads it."""

    @staticmethod
    def ratio(p: TransitionMatrix, p_tilde: TransitionMatrix) -> float:
        report = stationary_shift(p, p_tilde)
        return float(np.abs(report.delta_actual).max()) / report.max_norm_e

    def test_two_state_ratio(self):
        assert self.ratio(two_state(0.5, 0.5), two_state(0.4, 0.5)) == pytest.approx(
            5 / 9, abs=1e-9
        )

    def test_shrinking_family_ratio_converges(self):
        p = two_state(0.5, 0.5)
        e0 = np.array([[1.0, -1.0], [0.0, 0.0]])
        ratios = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            p_tilde = TransitionMatrix.from_entries(p.entries + eps * e0)
            ratios.append(self.ratio(p, p_tilde))
        spread = max(ratios) - min(ratios)
        assert spread <= 0.1 * max(ratios)


class TestFitShiftFamily:
    def test_perfectly_linear_family(self):
        e = np.array([1e-2, 1e-3, 1e-4])
        fit = fit_shift_family(e, 3.0 * e)
        assert fit.armed and fit.passed
        assert fit.slope == pytest.approx(1.0, abs=1e-9)
        assert fit.constant == pytest.approx(3.0, rel=1e-6)

    def test_rejects_misaligned_inputs(self):
        with pytest.raises(ValueError, match="^perturbation sizes and deviations must align$"):
            fit_shift_family([1e-2, 1e-3], [1e-2, 1e-3, 1e-4])

    def test_zero_family_trivially_passes(self):
        fit = fit_shift_family([1e-2, 1e-3], [0.0, 0.0])
        assert fit.passed and not fit.armed

    def test_large_perturbations_not_armed(self):
        fit = fit_shift_family([0.5, 0.3], [0.1, 0.06])
        assert not fit.armed and fit.passed

    def test_narrow_span_not_armed(self):
        fit = fit_shift_family([1e-3, 2e-3], [1e-3, 2e-3])
        assert not fit.armed

    def test_quadratic_family_fails_slope(self):
        e = np.array([1e-2, 1e-3, 1e-4])
        fit = fit_shift_family(e, e**2)
        assert fit.armed and not fit.passed
