"""Trajectory simulation and the readers of its error series.

simulate() iterates x(t+1) = M(t+1) x(t) over a periodic schedule of
matrices, given as runs of a matrix and its repeat count, and takes the
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
No series is kept: each block's states (views of the buffer) and its two
error norms go to the caller's readers as the block is made, and only the
last state is returned, so a run's memory is one block buffer whatever its
length. Two readers live here, each reading the errors of a few blocks
at once (at least 1024 steps, 16 kB). DecayCheck pins the errors against
the geometric bound rho^t (pi-norm) and its max-norm corollary with the
explicit constant 1/sqrt(pi_min). RateFit recovers the empirical geometric
rate of the positive errors by least squares on the logs, merging each
batch's centered sums into the running ones.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from itertools import accumulate, islice
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .stochastic import StationaryDistribution, TransitionMatrix, check_opinions

DEFAULT_TOL = 1e-12
DEFAULT_T_MAX = 10**6
# RateFit ignores errors at or below this: near round-off, log e(t) stops
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
    """How a run ended: its last opinion state, step count and convergence.

    The states and errors along the way went to simulate's readers and are
    not kept.
    """

    final_state: np.ndarray
    converged: bool
    steps: int

    @property
    def states(self) -> None:
        """No state history is kept, so this is always None; it stays for
        tools that read the state history's size."""
        return None


def simulate(
    runs: Sequence[tuple[TransitionMatrix, int]],
    x0: np.ndarray,
    t_max: int = DEFAULT_T_MAX,
    tol: float = DEFAULT_TOL,
    pi: StationaryDistribution | None = None,
    readers: Sequence[Callable[..., None]] = (),
) -> OpinionTrajectory:
    """Run the dynamics until t_max or until the update stalls.

    runs holds one period as (matrix, repeats) pairs in the order they act;
    runs of zero repeats are dropped, and a negative repeat count raises
    ValueError naming its run. The period is the repeats' sum, and
    step t applies the matrix of the run that phase (t - 1) mod period falls
    in, so nothing grows with a run's length. Stops once the
    successive-difference max norm stays below tol for one full period.
    Each reader is called as reader(start, rows, errors_pi, errors_max),
    first for x(0) and then for each block as it is made: rows holds
    x(start), x(start + 1), ... and the errors are their two norms against
    the consensus pi . x0, None when no pi is given. rows is a view of the
    block buffer, valid only during the call; the error arrays are new and
    may be kept. Nothing else of the run is kept.

    Steps run in blocks of max(period, _BLOCK_MIN, steps taken) steps, up
    to the cap that _BLOCK_WORK and _BLOCK_CELLS set: a short run takes
    blocks of 64, 64, 128, ... steps. Each block finds the run it starts in
    through the runs' cumulative ends, then applies each run's kernel to
    the steps left in that run or in the block, one kernel lookup per run.
    The stop step and every value handed to the readers are those of
    stepping one at a time; only the matvecs past the stop step in the last
    block are extra work, at most max(steps taken, _BLOCK_MIN, period) and
    at most one capped block.
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

    def hand(start: int, rows: np.ndarray) -> None:
        errors = _error_norms(rows, target, pi.pi) if track_errors else (None, None)
        for read in readers:
            read(start, rows, *errors)

    hand(0, buf[:1])
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
        hand(steps + 1, buf[1 : used + 1])
        steps += used
        if stops.size:
            converged = True
            break
        quiet_run = int(run[-1])
        buf[0] = buf[used]
    return OpinionTrajectory(
        final_state=buf[used].copy(),
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


class _ErrorReader:
    """Base of the simulate readers of the error norms alone.

    Reading a block costs some ten numpy calls whatever its length, and a
    block may be short (109 steps at n = 300), so the blocks' norms are
    gathered until they span _BATCH steps and each batch is handed to
    _read(start, errors_pi, errors_max) at once; _flush() reads what is
    left. A batch holds two floats a step, 16 kB.
    """

    _BATCH = 2**10

    def __init__(self) -> None:
        self._start = 0
        self._parts: list[tuple[np.ndarray, np.ndarray]] = []

    def __call__(self, start, rows, errors_pi, errors_max) -> None:
        if errors_pi is None:
            raise ValueError(f"{type(self).__name__} requires a trajectory with a consensus target")
        if not self._parts:
            self._start = start
        self._parts.append((errors_pi, errors_max))
        if start + errors_pi.shape[0] - self._start >= self._BATCH:
            self._flush()

    def _flush(self) -> None:
        if self._parts:
            errors_pi, errors_max = (np.concatenate(norm) for norm in zip(*self._parts))
            self._parts = []
            self._read(self._start, errors_pi, errors_max)


class DecayCheck(_ErrorReader):
    """Geometric error decay for a single reversible layer, as a simulate reader.

    pi-norm: ||e(t)||_pi <= rho^t ||e(0)||_pi. Max norm: ||e(t)||_max <=
    rho^t ||e(0)||_pi / sqrt(pi_min). Both with 1e-12 additive slack; the
    margin of result() is the smallest slack observed (negative means
    failure). Each batch's bounds are built on its global steps t.
    """

    def __init__(self, rho: float, pi: StationaryDistribution) -> None:
        if not (0.0 < rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {rho}")
        super().__init__()
        self.rho = rho
        self.root_pi_min = np.sqrt(float(pi.pi.min()))
        self.e0_pi = None
        self.margin = np.inf

    def _read(self, start, errors_pi, errors_max) -> None:
        if start == 0:
            self.e0_pi = errors_pi[0]
        bound_pi = self.rho ** np.arange(start, start + errors_pi.shape[0]) * self.e0_pi
        slack_pi = bound_pi + 1e-12 - errors_pi
        slack_max = bound_pi / self.root_pi_min + 1e-12 - errors_max
        self.margin = min(self.margin, slack_pi.min(), slack_max.min())

    def result(self) -> DecayCheckResult:
        self._flush()
        margin = float(self.margin)
        return DecayCheckResult(passed=bool(margin >= 0.0), margin=margin)


class RateFit(_ErrorReader):
    """Least-squares geometric rate of a decaying error series, as a simulate reader.

    Reads one norm ("pi" or "max") at the steps t that are multiples of
    stride, as the series e(j) at j = t / stride, and drops its first skip
    entries: the transient. For per-cycle rates pass the period as stride.
    rate() fits log e(j) against j over the entries above FIT_FLOOR and
    needs at least 5 of them. Each batch's sums of (j - mean j)(log e -
    mean log e) and (j - mean j)^2, centered on its own means, are merged
    into the running ones (Chan, Golub & LeVeque 1983), so nothing grows
    with the series; the slope is their ratio.
    """

    def __init__(self, norm: str = "pi", stride: int = 1, skip: int = 5) -> None:
        self.norm = ("pi", "max").index(norm)
        self.stride, self.skip = stride, skip
        super().__init__()
        self.count = 0
        self.mean_j = self.mean_y = self.sjy = self.sjj = 0.0

    def _read(self, start, errors_pi, errors_max) -> None:
        series = (errors_pi, errors_max)[self.norm]
        # The batch's first entry on the stride, and its index j in the
        # series; Python ints, since a stride may pass the int64 range.
        first = -start % self.stride
        j0 = (start + first) // self.stride
        if j0 < self.skip:
            first += (self.skip - j0) * self.stride
            j0 = self.skip
        if first >= series.shape[0]:
            return
        picked = series[first :: self.stride]
        keep = picked > FIT_FLOOR
        # Entry i of picked is j0 + i; the centered sums do not see the j0.
        i = np.flatnonzero(keep)
        m = i.shape[0]
        if not m:
            return
        y = np.log(picked[keep])
        mean_i, mean_y = i.sum() / m, y.sum() / m
        di = i - mean_i
        y -= mean_y
        count = self.count + m
        delta_j, delta_y = j0 - self.skip + mean_i - self.mean_j, mean_y - self.mean_y
        weight = self.count * m / count
        self.sjy += di @ y + delta_j * delta_y * weight
        self.sjj += di @ di + delta_j * delta_j * weight
        self.mean_j += delta_j * m / count
        self.mean_y += delta_y * m / count
        self.count = count

    def rate(self) -> float:
        self._flush()
        if self.count < 5:
            raise ValueError("rate fit needs at least 5 strictly positive error entries")
        return float(np.exp(self.sjy / self.sjj))
