"""Exact stationary-distribution response to transition-matrix perturbations.

For stochastic P and P~ with unique stationary vectors pi and pi~, the shift
satisfies pi~ - pi = pi~ E Z with E = P~ - P and Z = (I - P + 1 pi')^-1
(Kemeny & Snell, Finite Markov Chains, 1960): from pi~'(I - P) = pi~'E and
(I - P)Z = I - 1 pi', multiplying the first equation by Z gives pi~' - pi'
on the left. Only the row pi~ E Z is read, so it comes from one transposed
solve, (I - P + 1 pi')' delta = (pi~ E)', and Z is never formed. The
identity is exact at any perturbation size (replacing pi~ by pi in the
product is only a first-order approximation), which lets tests pin the
predicted and recomputed shifts against each other at tight tolerance.
The shrinking-family fit below arms the perturbation suite's two edge
families (verify.run_perturbation_suite).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .stochastic import TransitionMatrix, stationary_general

_SHIFT_RESIDUAL_TOL = 1e-10
_ZERO_FAMILY_TOL = 1e-13
_FIT_SLACK = 2.0
_SLOPE_TOL = 0.1
_REGIME_MAX = 0.1
_SPAN_MIN = 10.0


class PerturbationReport(NamedTuple):
    delta_predicted: np.ndarray
    delta_actual: np.ndarray
    max_norm_e: float


def stationary_shift(p: TransitionMatrix, p_tilde: TransitionMatrix) -> PerturbationReport:
    """Shift predicted by the exact identity next to the recomputed shift.

    delta_predicted is pi~ E Z, solved from (I - P + 1 pi')' delta = (pi~ E)'
    and checked by its residual; delta_actual is the difference of the two
    independently solved stationary vectors. They agree to solver precision.
    stationary_general has already checked both vectors' residuals.
    """
    pi = stationary_general(p)
    pi_tilde = stationary_general(p_tilde)
    entries = p.entries
    e = p_tilde.entries - entries
    system = np.eye(p.n) - entries + np.outer(np.ones(p.n), pi.pi)
    rhs = pi_tilde.pi @ e
    try:
        delta = np.linalg.solve(system.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("I - P + 1 pi' is singular; P has no unique stationary vector") from exc
    residual = np.abs(delta @ system - rhs).max()
    if residual > _SHIFT_RESIDUAL_TOL:
        raise ValueError(f"shift solve residual {residual:.3e} exceeds {_SHIFT_RESIDUAL_TOL}")
    return PerturbationReport(
        delta_predicted=delta,
        delta_actual=pi_tilde.pi - pi.pi,
        max_norm_e=float(np.abs(e).max()),
    )


class ShiftFamilyFit(NamedTuple):
    """Log-log fit of consensus (or pi) shifts against perturbation sizes.

    armed is False outside the small-perturbation regime (sizes too large or
    not spanning a decade), in which case the family is report-only. When
    armed, passed requires slope within _SLOPE_TOL of 1 and every deviation
    under _FIT_SLACK times the fitted proportionality constant.
    """

    e_norms: np.ndarray
    deviations: np.ndarray
    slope: float | None
    constant: float | None
    armed: bool
    passed: bool


def fit_shift_family(
    e_norms: Sequence[float],
    deviations: Sequence[float],
) -> ShiftFamilyFit:
    e = np.asarray(e_norms, dtype=float)
    d = np.asarray(deviations, dtype=float)
    if e.shape != d.shape:
        raise ValueError("perturbation sizes and deviations must align")
    if (d < _ZERO_FAMILY_TOL).all():
        # No measurable response at all (e.g. constant opinions): trivially stable.
        return ShiftFamilyFit(e, d, slope=None, constant=None, armed=False, passed=True)
    armed = (
        e.shape[0] >= 2
        and (e > 0).all()
        and float(e.max()) < _REGIME_MAX
        and float(e.max()) / float(e.min()) >= _SPAN_MIN
        and (d > 0).all()
    )
    if not armed:
        return ShiftFamilyFit(e, d, slope=None, constant=None, armed=False, passed=True)
    slope, intercept = np.polyfit(np.log(e), np.log(d), 1)
    constant = float(np.exp(intercept))
    proportional = float(np.sum(d * e) / np.sum(e * e))
    within = bool((d <= _FIT_SLACK * proportional * e + 1e-15).all())
    passed = bool(abs(slope - 1.0) <= _SLOPE_TOL) and within
    return ShiftFamilyFit(
        e, d, slope=float(slope), constant=constant, armed=True, passed=passed
    )
