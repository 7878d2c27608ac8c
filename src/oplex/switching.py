"""Switching two-layer model: k steps on layer 1, one step on layer 2.

One full round of the periodic schedule composes to the cycle matrix B A^k.
Consensus exists iff that product is SIA: its support has one closed class
and that class is aperiodic; nodes outside it may remain, and end up
holding the consensus value without weighing in it. This is not inherited
from the factors: two individually primitive layers can interleave into a
periodic product (period-2 oscillation), and a non-primitive layer B can be
repaired by enough mixing through A. Per cycle the error contracts by
rho2(B A^k), itself bounded by rho_star = rho2(B) rho2(A)^k times the two
degree-ratio alignment factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .netcore import LayerGraph
from .perturb import ShiftFamilyFit, fit_shift_family
from .spectral import SLEM_SLACK, eig_moduli_nonsymmetric, slem_reversible
from .stochastic import (
    NotPrimitiveError,
    StationaryDistribution,
    TransitionMatrix,
    check_opinions,
    consensus_value,
    layer_consensus,
    stationary_general,
    support_classes,
    transition_matrix,
)

_K_RATIO_SLACK = 1.05


@dataclass(frozen=True)
class SwitchingModel:
    layer1: LayerGraph
    layer2: LayerGraph
    a: TransitionMatrix
    b: TransitionMatrix
    k: int
    cycle: TransitionMatrix

    @property
    def schedule(self) -> tuple[TransitionMatrix, ...]:
        """One period: k steps on A, then one on B; built on each use, as
        only a simulation reads it."""
        return (self.a,) * self.k + (self.b,)


def switching_model(layer1: LayerGraph, layer2: LayerGraph, k: int) -> SwitchingModel:
    """Layers, their matrices A and B, and the cycle B A^k; k = 0 is pure layer-2 dynamics."""
    if layer1.n != layer2.n:
        raise ValueError(f"layers have different node counts: {layer1.n} vs {layer2.n}")
    if k < 0:
        raise ValueError(f"steps per cycle k must be >= 0, got {k}")
    a = transition_matrix(layer1)
    b = transition_matrix(layer2)
    cycle = TransitionMatrix.from_entries(b.entries @ np.linalg.matrix_power(a.entries, k))
    return SwitchingModel(layer1=layer1, layer2=layer2, a=a, b=b, k=k, cycle=cycle)


@dataclass(frozen=True)
class SwitchingOutcome:
    """Where the switching dynamics goes, read off the cycle's closed classes.

    period is that of the cycle's one closed class, None if it has several.
    On consensus (period 1) pi and value are set.

    rho_star >= slem_cycle - 1e-9 whenever both layers are reversible and
    primitive; it can exceed 1, in which case the bound is vacuous but the
    empirical per-cycle rate is still meaningful.
    """

    pi: StationaryDistribution | None
    value: float | None
    period: int | None
    closed_classes: int
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

    Consensus lands on pi . x0 with pi the cycle's stationary distribution.
    """
    x = check_opinions(x0, model.layer1.n)
    classes = support_classes(model.cycle)
    period = classes.periods[0] if len(classes.periods) == 1 else None
    pi = stationary_general(model.cycle) if period == 1 else None
    return SwitchingOutcome(
        pi=pi,
        value=None if pi is None else consensus_value(pi, x),
        period=period,
        closed_classes=len(classes.periods),
        slem_cycle=eig_moduli_nonsymmetric(model.cycle).slem,
        rho_star=rho_star(model),
    )


@dataclass(frozen=True)
class KStabilityResult:
    """Deviations |x_sk(inf) - x_1(inf)| across a k grid.

    Entries for cycles that reach no consensus (not SIA) are NaN and excluded
    from the fit. fitted_ratio is the geometric ratio of the deviation
    envelope and must stay within 5% above rho2(A) for the sweep to pass.
    """

    ks: np.ndarray
    deviations: np.ndarray
    converged: np.ndarray
    fitted_ratio: float | None
    envelope_constant: float | None
    rho2_a: float
    passed: bool


def k_stability_sweep(
    layer1: LayerGraph,
    layer2: LayerGraph,
    ks: Sequence[int],
    x0: np.ndarray,
) -> KStabilityResult:
    """How fast the switching consensus approaches layer 1's as k grows."""
    x1 = layer_consensus(layer1, x0, "layer1")
    rho_a = slem_reversible(layer1).slem
    grid = np.asarray(list(ks), dtype=int)
    deviations = np.full(grid.shape, np.nan)
    converged = np.zeros(grid.shape, dtype=bool)
    for idx, k in enumerate(grid):
        value = analyze(switching_model(layer1, layer2, int(k)), x0).value
        if value is not None:
            deviations[idx] = abs(value - x1)
            converged[idx] = True
    usable = converged & (deviations > 1e-13)
    if usable.sum() >= 2:
        slope, intercept = np.polyfit(grid[usable], np.log(deviations[usable]), 1)
        fitted_ratio = float(np.exp(slope))
        envelope = float(np.max(deviations[usable] / rho_a ** grid[usable]))
        passed = fitted_ratio <= rho_a * _K_RATIO_SLACK
    else:
        # All deviations at the numerical floor (e.g. identical layers).
        fitted_ratio = None
        envelope = None
        passed = True
    return KStabilityResult(
        ks=grid,
        deviations=deviations,
        converged=converged,
        fitted_ratio=fitted_ratio,
        envelope_constant=envelope,
        rho2_a=rho_a,
        passed=passed,
    )


def switching_perturbation_check(
    layer1: LayerGraph,
    family: Sequence[LayerGraph],
    k: int,
    x0: np.ndarray,
) -> ShiftFamilyFit:
    """Switching-consensus response when layer 2 is each perturbed layer of family."""
    x1 = layer_consensus(layer1, x0, "layer1")
    e_norms = []
    deviations = []
    for b_layer in family:
        model = switching_model(layer1, b_layer, k)
        value = analyze(model, x0).value
        if value is None:
            raise NotPrimitiveError(f"cycle matrix for k={k} reaches no consensus (not SIA)")
        e_norms.append(float(np.abs(model.a.entries - model.b.entries).max()))
        deviations.append(abs(value - x1))
    return fit_shift_family(e_norms, deviations)
