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

from typing import Callable, NamedTuple

import numpy as np

from .netcore import LayerGraph
from .spectral import (
    _KRYLOV_MAX_STEPS,
    _KRYLOV_MIN_N,
    SLEM_SLACK,
    eig_moduli_nonsymmetric,
    slem_reversible,
)
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


class SwitchingModel:
    """The two layers, their transition matrices A and B, and k: k steps on
    layer 1, then one on layer 2. k = 0 is pure layer-2 dynamics.

    It answers for the cycle Q = B A^k as a TransitionMatrix does, factor
    by factor where matrix_free, else off formed(). _classes and _formed
    cache them.
    """

    def __init__(self, layer1: LayerGraph, layer2: LayerGraph, k: int) -> None:
        if layer1.n != layer2.n:
            raise ValueError(f"layers have different node counts: {layer1.n} vs {layer2.n}")
        if k < 0:
            raise ValueError(f"steps per cycle k must be >= 0, got {k}")
        self.layer1 = layer1
        self.layer2 = layer2
        self.a = transition_matrix(layer1)
        self.b = transition_matrix(layer2)
        self.k = k
        self._classes: SupportClasses | None = None
        self._formed: TransitionMatrix | None = None

    @property
    def n(self) -> int:
        return self.a.n

    @property
    def schedule(self) -> tuple[TransitionMatrix, ...]:
        """One period: k steps on A, then one on B; built on each use, for a
        simulation and, reversed, for classes()."""
        return (self.a,) * self.k + (self.b,)

    @property
    def matrix_free(self) -> bool:
        """Whether Q is applied factor by factor rather than formed: from
        _KRYLOV_MIN_N nodes on, where k products by A and one by B cost at
        most _MATRIX_FREE_MAX_COST dense products (Csr.matvec_cost counts
        both)."""
        n = self.n
        cost = self.k * self.a.csr.matvec_cost() + self.b.csr.matvec_cost()
        return n >= _KRYLOV_MIN_N and cost <= _MATRIX_FREE_MAX_COST * n * n

    def formed(self) -> TransitionMatrix:
        """Q = B A^k by matrix_power, the one place it is formed; cached."""
        if self._formed is None:
            q = self.b.entries @ np.linalg.matrix_power(self.a.entries, self.k)
            self._formed = TransitionMatrix.from_entries(q)
        return self._formed

    @property
    def entries(self) -> np.ndarray:
        return self.formed().entries

    def matvec_kernel(self) -> Callable[..., np.ndarray]:
        """x -> Q x: B (A (... A x)), one product per factor, where
        matrix_free, else by formed(). Which one never depends on whether
        Q has been formed, so neither do the floats it gives."""
        if not self.matrix_free:
            return self.formed().matvec_kernel()
        apply_a, apply_b = self.a.matvec_kernel(), self.b.matvec_kernel()

        def apply(x, out=None):
            for _ in range(self.k):
                x = apply_a(x)
            return apply_b(x, out=out)

        return apply

    def classes(self) -> SupportClasses:
        """Q's closed classes, cached on the model: off formed()'s support, or
        where matrix_free on the time-expanded graph of (B, A, ..., A).

        B comes first because the row index of B A^k walks through B first;
        the phases taken the other way round classify A^k B, whose
        transient nodes differ.
        """
        if self._classes is None:
            q = product_classes(self.schedule[::-1]) if self.matrix_free else self.formed().classes()
            self._classes = q
        return self._classes


def _stationary_matrix_free(model: SwitchingModel) -> StationaryDistribution | None:
    """pi of Q by left power iteration y <- y Q from the uniform vector, Q
    never formed.

    A layer's y D^-1 W is (W (y / d))' since W is symmetric, so each left
    product by a factor is one product by the layer's weights. The iterate
    is taken once the residual max |y Q - y| has passed the check of
    stationary_general and stopped falling, at rounding. None if
    _KRYLOV_MAX_STEPS cycles end first, for the dense solve to take over.
    """
    apply_a, apply_b = model.layer1.csr.matvec_kernel(), model.layer2.csr.matvec_kernel()
    d_a, d_b = model.layer1.degrees, model.layer2.degrees
    y = np.full(model.n, 1.0 / model.n)
    least, best = np.inf, y
    for _ in range(_KRYLOV_MAX_STEPS):
        z = apply_b(y / d_b)
        for _ in range(model.k):
            z = apply_a(z / d_a)
        residual = np.abs(z - y).max()
        if residual >= least and least <= _STATIONARY_RESIDUAL_TOL:
            return StationaryDistribution(pi=best)
        if residual < least:
            least, best = residual, y
        y = z / z.sum()
    return None


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

    def checks(self) -> dict[str, bool]:
        return product_rate_checks(self.slem_cycle, self.rho_star)


def product_rate_checks(slem_cycle: float, star: float) -> dict[str, bool]:
    """The cycle SLEM stays under the proved rate bound rho_star."""
    return {"slem-under-rho-star": bool(slem_cycle <= star + SLEM_SLACK)}


def rho_star(model: SwitchingModel) -> float:
    """rho2(B) * rho2(A)^k * max_i(d1_i/d2_i) * max_i(d2_i/d1_i)."""
    d1, d2 = model.layer1.degrees, model.layer2.degrees
    rho_a = slem_reversible(model.layer1).slem
    rho_b = slem_reversible(model.layer2).slem
    return float(rho_b * rho_a**model.k * (d1 / d2).max() * (d2 / d1).max())


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
