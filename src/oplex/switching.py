"""Switching two-layer model: k steps on layer 1, one step on layer 2.

One full round of the periodic schedule composes to the cycle matrix
Q = B A^k. Consensus exists iff Q is SIA: its support has one closed class
and that class is aperiodic; nodes outside it may remain, and end up
holding the consensus value without weighing in it. This is not inherited
from the factors: two individually primitive layers can interleave into a
periodic product (period-2 oscillation), and a non-primitive layer B can be
repaired by enough mixing through A. Per cycle the error contracts by
rho2(B A^k), itself bounded by rho_star = rho2(B) rho2(A)^k times the two
degree-ratio alignment factors.

The period is written once, as SwitchingModel.schedule: runs of a layer
and its repeat count, ((layer 1, k), (layer 2, 1)), in the order they act.
Every reader folds over the runs and none expands them into k + 1 steps,
so only the matrix-free lifted search grows with k.

Q is applied factor by factor and never formed where that is cheaper: from
_KRYLOV_MIN_N nodes on, while k products by A and one by B cost at most
_MATRIX_FREE_MAX_COST dense products. Its support is then classified on
the time-expanded graph (stochastic.product_classes), its stationary vector
comes from a left power iteration on the layers' weights and its SLEM from
Arnoldi on the composed product. Smaller cycles and longer ones are formed
once (SwitchingModel.formed), as are those whose power iteration gives up;
their SLEM is then taken on the formed Q as well. A cycle that is not SIA
has SLEM exactly 1 and takes no solver.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from .netcore import LayerGraph, is_integer
from .spectral import _KRYLOV_MIN_N, SLEM_SLACK, eig_moduli_nonsymmetric, slem_reversible
from .stochastic import (
    _STATIONARY_RESIDUAL_TOL,
    StationaryDistribution,
    SupportClasses,
    TransitionMatrix,
    check_opinions,
    consensus_value,
    product_classes,
    stationary_general,
    transition_matrix,
)

# The matrix-free path costs (k + 1) products per Krylov or power step and a
# lifted search whose levels grow with k; the formed one about log2(k) dense
# matrix products plus a dense solve. Timing analyze both ways on pairs of
# rings with n random chords, at n = 500, 600 and 1000 on one BLAS thread,
# puts the break-even where k cost(A) + cost(B) is about 14 to 15 dense
# products at each n (BENCH_14.json, "crossover"); the bound stays below.
_MATRIX_FREE_MAX_COST = 12
# Cycles without a new least residual after which the power iteration for pi
# takes its best iterate as the rounding floor.
_STATIONARY_WINDOW = 8
# Cycles the power iteration for pi may take before the dense solve takes over.
_STATIONARY_MAX_CYCLES = 300


class SwitchingModel:
    """The two layers, their transition matrices A and B, and k: k steps on
    layer 1, then one on layer 2. k = 0 is pure layer-2 dynamics.

    schedule holds one period as (layer, repeats) runs in the order they
    act. It holds layers, not matrices, since pi and rho_star read the
    layers' weights, degrees and SLEMs; matrix_runs puts each layer's
    transition_matrix, cached on the layer and so the same object as a or
    b, in its place.

    It answers for the cycle Q = B A^k as a TransitionMatrix does, factor
    by factor where matrix_free, else off formed(). _classes and _formed
    cache them.
    """

    def __init__(self, layer1: LayerGraph, layer2: LayerGraph, k: int) -> None:
        if layer1.n != layer2.n:
            raise ValueError(f"layers have different node counts: {layer1.n} vs {layer2.n}")
        if not is_integer(k):
            raise ValueError(f"steps per cycle k must be an integer, got {k!r}")
        if k < 0:
            raise ValueError(f"steps per cycle k must be >= 0, got {k}")
        self.layer1 = layer1
        self.layer2 = layer2
        self.a = transition_matrix(layer1)
        self.b = transition_matrix(layer2)
        self.k = k
        self.n = layer1.n
        self.schedule = ((layer1, k), (layer2, 1))
        self._classes: SupportClasses | None = None
        self._formed: TransitionMatrix | None = None

    @property
    def matrix_runs(self) -> list[tuple[TransitionMatrix, int]]:
        """schedule with each layer's transition matrix in its place."""
        return [(transition_matrix(layer), r) for layer, r in self.schedule]

    @property
    def matrix_free(self) -> bool:
        """Whether Q is applied factor by factor rather than formed: from
        _KRYLOV_MIN_N nodes on, where one period's products, r for a run of
        r repeats, cost at most _MATRIX_FREE_MAX_COST dense products
        (Csr.matvec_cost counts them)."""
        n = self.n
        cost = sum(r * m.csr.matvec_cost() for m, r in self.matrix_runs)
        return n >= _KRYLOV_MIN_N and cost <= _MATRIX_FREE_MAX_COST * n * n

    def formed(self) -> TransitionMatrix:
        """Q = B A^k, one _stochastic_power per run, the one place it is
        formed; cached."""
        if self._formed is None:
            powers = [_stochastic_power(m.entries, r) for m, r in self.matrix_runs[::-1]]
            self._formed = TransitionMatrix.from_entries(reduce(np.matmul, powers))
        return self._formed

    @property
    def entries(self) -> np.ndarray:
        return self.formed().entries

    def matvec_kernel(self) -> Callable[..., np.ndarray]:
        """x -> Q x: B (A (... A x)), one product per step of the period in
        the order of the runs, where matrix_free, else by formed(). Which one
        never depends on whether Q has been formed, so neither do the floats
        it gives."""
        if not self.matrix_free:
            return self.formed().matvec_kernel()
        runs = [(m.matvec_kernel(), r) for m, r in self.matrix_runs]

        def apply(x):
            for kernel, r in runs:
                for _ in range(r):
                    x = kernel(x)
            return x

        return apply

    def classes(self) -> SupportClasses:
        """Q's closed classes, cached on the model: off formed()'s support, or
        where matrix_free on the time-expanded graph of the runs reversed,
        (B, A, ..., A).

        B comes first because the row index of B A^k walks through B first;
        the phases taken the other way round classify A^k B, whose
        transient nodes differ.
        """
        if self._classes is None:
            runs = self.matrix_runs[::-1]
            self._classes = product_classes(runs) if self.matrix_free else self.formed().classes()
        return self._classes


def _stochastic_power(m: np.ndarray, r: int) -> np.ndarray:
    """m^r for a row-stochastic m by square-and-multiply, the rows of each
    product renormalized. Without that, as in np.linalg.matrix_power, the
    row sums drift by about r eps and fail TransitionMatrix's 1e-12 check
    (on the contact layers from r = 10^5 on). m itself is taken as it is,
    so m^0 = I and m^1 = m keep their bits."""
    power, square = None, m
    while r:
        if r & 1:
            power = square if power is None else _rows_to_one(power @ square)
        r >>= 1
        if r:
            square = _rows_to_one(square @ square)
    return np.eye(len(m)) if power is None else power


def _rows_to_one(p: np.ndarray) -> np.ndarray:
    p /= p.sum(axis=1, keepdims=True)
    return p


def _stationary_matrix_free(model: SwitchingModel) -> StationaryDistribution | None:
    """pi of Q by left power iteration y <- y Q from the uniform vector, Q
    never formed: y B A ... A, the runs reversed.

    A layer's y D^-1 W is (W (y / d))' since W is symmetric, so each left
    product by a factor is one product by the layer's weights. The residual
    is max |y Q - y|. Once it has passed the check of stationary_general and
    then failed to fall, the iteration is settled; it runs on until
    _STATIONARY_WINDOW cycles in a row bring no new least residual, and
    returns the iterate of least residual. A cycle with complex subdominant
    eigenvalues has a residual that falls in a zigzag, so its first uptick
    can come well before rounding. None if the iteration has not settled
    within _STATIONARY_MAX_CYCLES cycles, for the dense solve to take over.
    """
    runs = [(layer.csr.matvec_kernel(), layer.degrees, r) for layer, r in reversed(model.schedule)]
    y = np.full(model.n, 1.0 / model.n)
    least, best, stale, settled = np.inf, y, 0, False
    for _ in range(_STATIONARY_MAX_CYCLES):
        z = y
        for apply, degrees, r in runs:
            for _ in range(r):
                z = apply(z / degrees)
        residual = np.abs(z - y).max()
        if residual < least:
            least, best, stale = residual, y, 0
        elif least <= _STATIONARY_RESIDUAL_TOL:
            stale, settled = stale + 1, True
            if stale == _STATIONARY_WINDOW:
                break
        y = z / z.sum()
    return StationaryDistribution(pi=best) if settled else None


class SwitchingOutcome(NamedTuple):
    """Where the switching dynamics goes, read off the cycle's closed classes.

    period is that of the cycle's one closed class, None if it has several;
    transient counts the nodes in no closed class. On consensus (period 1)
    pi and value are set.

    rho_star >= slem_cycle - 1e-9 whenever both layers are reversible and
    primitive; it can exceed 1, in which case the bound is vacuous but the
    empirical per-cycle rate is still meaningful.
    """

    pi: StationaryDistribution | None
    value: float | None
    period: int | None
    closed_classes: int
    transient: int
    slem_cycle: float
    rho_star: float

    @property
    def status(self) -> str:
        """consensus (period 1), oscillation (period d >= 2) or disagreement."""
        if self.period == 1:
            return "consensus"
        return "disagreement" if self.period is None else "oscillation"

    @property
    def note(self) -> str:
        """Why there is no consensus; empty when there is one."""
        if self.period is None:
            return f"cycle has {self.closed_classes} closed classes"
        return "" if self.period == 1 else f"cycle oscillates with period {self.period}"

    def fields(self) -> dict:
        """The verdict's values under the sweep's column names, as both the
        sweep row and `oplex analyze` print them: rho_star is the upper
        bound, armed always."""
        rate = dict(slem=self.slem_cycle, bound_upper=self.rho_star, bound_armed=True)
        return rate | dict(consensus=self.value, note=self.note)

    def checks(self) -> dict[str, bool]:
        return product_rate_checks(self.slem_cycle, self.rho_star)


def product_rate_checks(slem_cycle: float, star: float) -> dict[str, bool]:
    """The cycle SLEM stays under the proved rate bound rho_star."""
    return {"slem-under-rho-star": bool(slem_cycle <= star + SLEM_SLACK)}


def rho_star(model: SwitchingModel) -> float:
    """rho2(B) * rho2(A)^k * max_i(d1_i/d2_i) * max_i(d2_i/d1_i), the SLEM
    product taken over the runs as rho2(layer)^r.

    The degree factor is the same for any scaling of either layer's
    degrees. Where a ratio overflows (one layer of subnormal weights, say),
    it is taken on each layer's degrees over their largest.
    """
    d1, d2 = model.layer1.degrees, model.layer2.degrees
    # A SLEM, in [0, 1], to any power past 2^64 is 0 or 1, as it is at 2^64.
    # Python turns an int exponent into a float, which overflows past about
    # 1.8e308, so r is capped there.
    rate = np.prod([slem_reversible(layer).slem ** min(r, 2**64) for layer, r in model.schedule])
    with np.errstate(over="ignore"):
        up, down = (d1 / d2).max(), (d2 / d1).max()
        if not np.isfinite(up * down):
            d1, d2 = d1 / d1.max(), d2 / d2.max()
            up, down = (d1 / d2).max(), (d2 / d1).max()
    return float(rate * up * down)


def analyze(model: SwitchingModel, x0: np.ndarray) -> SwitchingOutcome:
    """Decide consensus, oscillation or disagreement exactly, from the cycle's support.

    Consensus lands on pi . x0, pi from the power iteration where matrix_free
    and from the dense solve on Q otherwise or where it gives up; the SLEM
    is taken on formed() wherever pi came from the dense solve, which has
    formed Q already. Without consensus Q's SLEM is exactly 1, and no
    solver runs.
    """
    x = check_opinions(x0, model.n)
    classes = model.classes()
    period = classes.periods[0] if len(classes.periods) == 1 else None
    pi, slem = None, 1.0
    if period == 1:
        pi = _stationary_matrix_free(model) if model.matrix_free else None
        cycle = model
        if pi is None:
            pi, cycle = stationary_general(model), model.formed()
        slem = eig_moduli_nonsymmetric(cycle).slem
    return SwitchingOutcome(
        pi=pi,
        value=None if pi is None else consensus_value(pi, x),
        period=period,
        closed_classes=len(classes.periods),
        transient=classes.transient,
        slem_cycle=slem,
        rho_star=rho_star(model),
    )
