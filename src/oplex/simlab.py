"""Trajectory simulation and error-series analysis.

simulate() iterates x(t+1) = M(t+1) x(t) over a periodic schedule of
matrices, given as runs of a matrix and its repeat count, and records the
error against the consensus pi . x(0) in both the pi-weighted and max
norms. Each matvec is a call of the matrix's
Csr.matvec_kernel, one of three kernels: a dense product where that is
cheaper (small or dense matrices), else whole-slab adds where every row
holds the same number of entries, 2 to 8 (circulant and k-regular
layers), else np.add.reduceat over the stored entries; the last two give
the same floats. It steps in blocks: a block of
matvecs goes into a buffer allocated once, at the block cap, and the stall
test and both error norms are then taken on the whole block at once. A
block is filled one run at a time: the run the block starts in is found
once, and each run's kernel is looked up once and applied to the steps
left in it or in the block, so a single run is one kernel for the whole
block. A block may end inside a period, so the buffer is bounded whatever
the period is. The matvecs are the same ones in the same order as one
step at a time, and the run is cut at exactly the step where the stall
rule fires, so every result is bit-for-bit that of plain stepping. The
only extra work is the matvecs of the last block past that step: at most
max(steps taken, _BLOCK_MIN, period) and at most one capped block, a few
ms whatever n is.
decay_check() pins the error series against the geometric bound rho^t
(pi-norm) and its max-norm corollary with the explicit constant
1/sqrt(pi_min). fit_rate() recovers the empirical geometric rate of a
positive error series by least squares on the logs, as a centered two-pass
slope. Both read the series _BLOCK_CELLS entries at a time, so once a run
is simulated the memory they use does not grow with its length; only the
error series itself does, two floats per step.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from itertools import accumulate, islice
from typing import NamedTuple, Sequence

import numpy as np

from .stochastic import StationaryDistribution, TransitionMatrix, check_opinions

DEFAULT_TOL = 1e-12
DEFAULT_T_MAX = 10**6
# fit_rate ignores errors at or below this: near round-off, log e(t) stops
# falling geometrically and would bend the fitted line.
FIT_FLOOR = 1e-13
# Steps computed past the stop step are wasted. A block is at most as long
# as a period, _BLOCK_MIN steps or the run so far, whichever is longest (so
# runs past _BLOCK_MIN steps waste at most what they use), costs at most
# _BLOCK_WORK dense multiply-adds as Csr.matvec_cost counts them (a few ms at
# one BLAS thread) and buffers at most _BLOCK_CELLS opinions (256 kB; with
# the block's temporaries a few times that, well inside the cache). The
# bound holds for any period: a block may end inside one. Each block pays a
# fixed cost of some 20 numpy calls for the stall test and the error norms,
# about 24 us on tiny n; _BLOCK_MIN spreads it over at least 64 steps.
_BLOCK_WORK = 2**22
_BLOCK_CELLS = 2**15
_BLOCK_MIN = 64


class OpinionTrajectory(NamedTuple):
    """Last opinion state and error series against the consensus pi . x(0).

    states has shape (steps+1, n) and is kept only when recorded; the last
    state is kept always. errors_pi / errors_max are None when no pi was
    supplied (non-convergent runs).
    """

    states: np.ndarray | None
    final_state: np.ndarray
    errors_pi: np.ndarray | None
    errors_max: np.ndarray | None
    pi: np.ndarray | None
    converged: bool
    steps: int


def simulate(
    runs: Sequence[tuple[TransitionMatrix, int]],
    x0: np.ndarray,
    t_max: int = DEFAULT_T_MAX,
    tol: float = DEFAULT_TOL,
    pi: StationaryDistribution | None = None,
    record_states: bool = True,
) -> OpinionTrajectory:
    """Run the dynamics until t_max or until the update stalls.

    runs holds one period as (matrix, repeats) pairs in the order they act;
    runs of zero repeats are dropped, and a negative repeat count raises
    ValueError naming its run. The period is the repeats' sum, and
    step t applies the matrix of the run that phase (t - 1) mod period falls
    in, so nothing grows with a run's length. Stops once the
    successive-difference max norm stays below tol for one full period.
    When pi is given, both error norms against the consensus pi . x0 are
    recorded at every step. The full state history is kept only with
    record_states.

    Steps run in blocks of max(period, _BLOCK_MIN, steps taken) steps, up
    to the cap that _BLOCK_WORK and _BLOCK_CELLS set: a short run takes
    blocks of 64, 64, 128, ... steps. Each block finds the run it starts in
    through the runs' cumulative ends, then applies each run's kernel to
    the steps left in that run or in the block, one kernel lookup per run.
    The stop step and every recorded value are those of stepping one at a
    time; only the matvecs past the stop step in the last block are extra
    work, at most max(steps taken, _BLOCK_MIN, period) and at most one
    capped block.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if not 0 < tol <= sys.float_info.max:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    for index, (_, r) in enumerate(runs):
        if r < 0:
            raise ValueError(f"run {index} has repeat count {r}; repeats must be >= 0")
    runs = [(m, r) for m, r in runs if r > 0]
    if not runs:
        raise ValueError("schedule must hold at least one matrix")
    ends = list(accumulate(r for _, r in runs))
    period = ends[-1]
    kernels = [m.csr.matvec_kernel() for m, _ in runs]
    x = check_opinions(x0)
    track_errors = pi is not None
    if track_errors:
        if pi.pi.shape != x.shape:
            raise ValueError(f"vector length {x.shape} does not match pi length {pi.pi.shape}")
        target = float(np.dot(pi.pi, x))  # as consensus_value computes it

    n = x.shape[0]
    work = max(m.csr.matvec_cost() for m, _ in runs)
    cap = max(1, min(_BLOCK_WORK // max(work, 1), _BLOCK_CELLS // max(n, 1)))
    buf = np.empty((cap + 1, n))
    buf[0] = x
    states = [buf[:1].copy()] if record_states else None
    errors = [_error_norms(buf[:1], target, pi.pi)] if track_errors else None
    converged = False
    quiet_run = 0
    steps = 0
    while steps < t_max:
        block = min(max(period, steps, _BLOCK_MIN), cap, t_max - steps)
        # Fill the block one run at a time: the kernel of run r acts on the
        # steps left in it, or in the block if fewer; one run fills it all.
        rows = iter(buf[1 : block + 1])
        prev = buf[0]
        done = 0
        while done < block:
            phase = (steps + done) % period
            r = bisect_right(ends, phase)
            take = block - done if len(runs) == 1 else min(block - done, ends[r] - phase)
            kernel = kernels[r]
            for row in islice(rows, take):
                kernel(prev, out=row)
                prev = row
            done += take
        change = buf[1 : block + 1] - buf[:block]
        quiet = np.abs(change, out=change).max(axis=1) < tol
        # Length of the quiet run ending at each step of the block, counting
        # the quiet_run steps carried in from the blocks before.
        index = np.arange(block)
        run = index - np.maximum.accumulate(np.where(quiet, -1 - quiet_run, index))
        stops = np.flatnonzero(run >= period)
        used = int(stops[0]) + 1 if stops.size else block
        if record_states:
            states.append(buf[1 : used + 1].copy())
        if track_errors:
            errors.append(_error_norms(buf[1 : used + 1], target, pi.pi))
        steps += used
        if stops.size:
            converged = True
            break
        quiet_run = int(run[-1])
        buf[0] = buf[used]
    return OpinionTrajectory(
        states=np.concatenate(states) if record_states else None,
        final_state=buf[used].copy(),
        errors_pi=np.concatenate([e[0] for e in errors]) if track_errors else None,
        errors_max=np.concatenate([e[1] for e in errors]) if track_errors else None,
        pi=None if pi is None else pi.pi,
        converged=converged,
        steps=steps,
    )


def _error_norms(
    states: np.ndarray, target: float, pi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row pi-norm (sum_i e_i^2 pi_i)^(1/2) and max norm of e = states - target."""
    e = states - target
    err_max = np.abs(e).max(axis=1)
    e *= e
    e *= pi
    return np.sqrt(e.sum(axis=1)), err_max


class DecayCheckResult(NamedTuple):
    passed: bool
    margin: float


def decay_check(trajectory: OpinionTrajectory, rho: float) -> DecayCheckResult:
    """Verify geometric error decay for a single reversible layer.

    pi-norm: ||e(t)||_pi <= rho^t ||e(0)||_pi. Max norm: ||e(t)||_max <=
    rho^t ||e(0)||_pi / sqrt(pi_min). Both with 1e-12 additive slack;
    margin is the smallest slack observed (negative means failure). The
    bounds are built _BLOCK_CELLS steps at a time, so the work memory does
    not grow with the series.
    """
    errors_pi, errors_max = trajectory.errors_pi, trajectory.errors_max
    if errors_pi is None:
        raise ValueError("decay check requires a trajectory with a consensus target")
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    e0_pi = errors_pi[0]
    root_pi_min = np.sqrt(float(trajectory.pi.min()))
    margin = np.inf
    for start in range(0, errors_pi.shape[0], _BLOCK_CELLS):
        chunk = errors_pi[start : start + _BLOCK_CELLS]
        bound_pi = rho ** np.arange(start, start + chunk.shape[0]) * e0_pi
        slack_pi = bound_pi + 1e-12 - chunk
        slack_max = bound_pi / root_pi_min + 1e-12 - errors_max[start : start + _BLOCK_CELLS]
        margin = min(margin, slack_pi.min(), slack_max.min())
    margin = float(margin)
    return DecayCheckResult(passed=bool(margin >= 0.0), margin=margin)


def fit_rate(errors: Sequence[float]) -> float:
    """Least-squares geometric rate of a decaying error series.

    Fits log e(t) against t over the entries above FIT_FLOOR. Requires at
    least 5 usable entries. Drop transients before calling; for per-cycle rates
    pass the series subsampled at cycle boundaries. The slope is the centered
    sum of (t - mean t)(log e - mean log e) over that of (t - mean t)^2, with
    the means taken in a first pass (Chan, Golub & LeVeque 1983); both passes
    read the series _BLOCK_CELLS entries at a time and build nothing longer.
    """
    series = np.asarray(errors, dtype=float)

    def kept():
        for start in range(0, series.shape[0], _BLOCK_CELLS):
            chunk = series[start : start + _BLOCK_CELLS]
            keep = chunk > FIT_FLOOR
            yield np.flatnonzero(keep) + start, np.log(chunk[keep])

    count = sum_t = sum_y = 0
    for t, y in kept():
        count += t.shape[0]
        sum_t += int(t.sum())
        sum_y += y.sum()
    if count < 5:
        raise ValueError("rate fit needs at least 5 strictly positive error entries")
    mean_t, mean_y = sum_t / count, sum_y / count
    sxy = sxx = 0.0
    for t, y in kept():
        dt = t - mean_t
        sxy += dt @ (y - mean_y)
        sxx += dt @ dt
    return float(np.exp(sxy / sxx))
