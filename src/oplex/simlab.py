"""Trajectory simulation and error-series analysis.

simulate() iterates x(t+1) = M(t+1) x(t) over a periodic schedule of
matrices and records the error against a predicted consensus in both the
pi-weighted and max norms. decay_check() pins those series against the
geometric bound rho^t (pi-norm) and its max-norm corollary with the
explicit constant 1/sqrt(pi_min). fit_rate() recovers the empirical
geometric rate of a positive error series by least squares on the logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stochastic import (
    StationaryDistribution,
    TransitionMatrix,
    check_opinions,
    max_norm,
    pi_norm,
)

DEFAULT_TOL = 1e-12
DEFAULT_T_MAX = 10**6

@dataclass(frozen=True)
class OpinionTrajectory:
    """Last opinion state and error series against a target.

    states has shape (steps+1, n) and is kept only when recorded; the last
    state is kept always. errors_pi / errors_max are None when no consensus
    target was supplied (non-convergent runs).
    """

    states: np.ndarray | None
    final_state: np.ndarray
    errors_pi: np.ndarray | None
    errors_max: np.ndarray | None
    consensus_target: float | None
    pi: np.ndarray | None
    converged: bool
    steps: int


def simulate(
    schedule: Sequence[TransitionMatrix],
    x0: np.ndarray,
    t_max: int = DEFAULT_T_MAX,
    tol: float = DEFAULT_TOL,
    target: float | None = None,
    pi: StationaryDistribution | None = None,
    record_states: bool = True,
) -> OpinionTrajectory:
    """Run the dynamics until t_max or until the update stalls.

    schedule holds the matrices of one period: step t applies
    schedule[(t - 1) % len(schedule)]. Stops once the successive-difference
    max norm stays below tol for one full period. When target (a predicted
    consensus value) and pi are given, both error norms are recorded at
    every step. The full state history is kept only with record_states.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not schedule:
        raise ValueError("schedule must hold at least one matrix")
    period = len(schedule)
    entries = [m.entries for m in schedule]
    x = check_opinions(x0).copy()
    track_errors = target is not None
    if track_errors and pi is None:
        raise ValueError("recording error norms requires the stationary distribution pi")

    states = [x.copy()] if record_states else None
    errors_pi: list[float] | None = [] if track_errors else None
    errors_max: list[float] | None = [] if track_errors else None

    def record_error(vec: np.ndarray) -> None:
        e = vec - target
        errors_pi.append(pi_norm(e, pi))
        errors_max.append(max_norm(e))

    if track_errors:
        record_error(x)
    converged = False
    quiet_run = 0
    steps = 0
    for t in range(1, t_max + 1):
        nxt = entries[(t - 1) % period] @ x
        steps = t
        if record_states:
            states.append(nxt)
        if track_errors:
            record_error(nxt)
        if np.abs(nxt - x).max() < tol:
            quiet_run += 1
        else:
            quiet_run = 0
        x = nxt
        if quiet_run >= period:
            converged = True
            break
    return OpinionTrajectory(
        states=np.array(states) if record_states else None,
        final_state=x,
        errors_pi=np.array(errors_pi) if track_errors else None,
        errors_max=np.array(errors_max) if track_errors else None,
        consensus_target=target,
        pi=None if pi is None else pi.pi,
        converged=converged,
        steps=steps,
    )


@dataclass(frozen=True)
class DecayCheckResult:
    passed: bool
    margin: float


def decay_check(trajectory: OpinionTrajectory, rho: float) -> DecayCheckResult:
    """Verify geometric error decay for a single reversible layer.

    pi-norm: ||e(t)||_pi <= rho^t ||e(0)||_pi. Max norm: ||e(t)||_max <=
    rho^t ||e(0)||_pi / sqrt(pi_min). Both with 1e-12 additive slack;
    margin is the smallest slack observed (negative means failure).
    """
    if trajectory.consensus_target is None or trajectory.errors_pi is None:
        raise ValueError("decay check requires a trajectory with a consensus target")
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    t = np.arange(trajectory.errors_pi.shape[0])
    e0_pi = trajectory.errors_pi[0]
    bound_pi = rho**t * e0_pi
    pi_min = float(trajectory.pi.min())
    bound_max = bound_pi / np.sqrt(pi_min)
    slack_pi = bound_pi + 1e-12 - trajectory.errors_pi
    slack_max = bound_max + 1e-12 - trajectory.errors_max
    margin = float(min(slack_pi.min(), slack_max.min()))
    return DecayCheckResult(passed=bool(margin >= 0.0), margin=margin)


def fit_rate(errors: Sequence[float], floor: float = 0.0) -> float:
    """Least-squares geometric rate of a decaying error series.

    Fits log e(t) against t over the entries above floor. Requires at least
    5 usable entries. Drop transients before calling; for per-cycle rates
    pass the series subsampled at cycle boundaries.
    """
    series = np.asarray(errors, dtype=float)
    index = np.arange(series.shape[0])
    keep = series > max(floor, 0.0)
    if keep.sum() < 5:
        raise ValueError("rate fit needs at least 5 strictly positive error entries")
    slope = np.polyfit(index[keep], np.log(series[keep]), 1)[0]
    return float(np.exp(slope))
