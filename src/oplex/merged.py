"""Merged two-layer model: dynamics on the blended weights.

The merged layer has weights alpha*W1 + (1-alpha)*W2, so its transition
matrix C averages over the union neighborhood with blended influence. One
primitive layer already makes C primitive for interior alpha; the merged
consensus is a convex combination of the layer consensuses weighted by
alpha|E1| and (1-alpha)|E2|; and the SLEM of C obeys a universal 1/(N-1)
lower bound plus, when the two degree sequences coincide, an upper bound by
the slower layer. analyze puts the verdict on one model together, with
these claims as its armed checks. It is the one source of the merged
consensus and the layer-consensus interval: the sweep, `oplex analyze`, the
bounds suite and the perturbation suite's alpha and edge families all read
it. MergedOutcome.fields() names its values once, as the sweep's columns
and the `oplex analyze` keys.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .netcore import Csr, IsolatedNodeError, LayerGraph, require_no_isolated
from .spectral import SLEM_SLACK, slem_reversible
from .stochastic import (
    StationaryDistribution,
    check_opinions,
    consensus_value,
    is_primitive,
    stationary_from_degrees,
    transition_matrix,
)

_DEGREE_MATCH_RTOL = 1e-9
_INTERVAL_SLACK = 1e-10


class MergedModel:
    """Two layers on a shared node set blended at weight alpha in [0, 1].

    merged_layer has the weights alpha W1 + (1 - alpha) W2 and transition
    its matrix C; the endpoints degenerate to the single layers. Rejects
    nodes isolated in the blended graph (no averaging neighborhood).
    """

    def __init__(self, layer1: LayerGraph, layer2: LayerGraph, alpha: float) -> None:
        if layer1.n != layer2.n:
            raise ValueError(f"layers have different node counts: {layer1.n} vs {layer2.n}")
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.layer1 = layer1
        self.layer2 = layer2
        self.merged_layer = LayerGraph(_blend(layer1.csr, layer2.csr, alpha))
        require_no_isolated(self.merged_layer, "in the merged graph")
        self.transition = transition_matrix(self.merged_layer)


def _blend(w1: Csr, w2: Csr, alpha: float) -> Csr:
    """alpha w1 + (1 - alpha) w2 on the union of the two patterns.

    An entry of both is the sum of its two terms, as on dense arrays; an
    entry of one is its one term, which equals that term plus 0. Entries
    that come out 0 (alpha at 0 or 1) are not stored, so the blend's
    pattern is its support.
    """
    rows = np.concatenate([w1.rows, w2.rows])
    cols = np.concatenate([w1.indices, w2.indices])
    terms = np.concatenate([alpha * w1.data, (1.0 - alpha) * w2.data])
    return Csr.from_entries(w1.n, rows, cols, terms)


class MergedBoundsReport(NamedTuple):
    """SLEM of C with the universal lower and conditional upper bound.

    upper_bound is max of the layer SLEMs and is only a proved bound when
    degrees_matched. It is None where a node is isolated in one layer: that
    layer has no SLEM, and the degree sequences cannot match.
    """

    slem_c: float
    lower_bound: float
    upper_bound: float | None
    degrees_matched: bool

    def fields(self) -> dict:
        """The SLEM and its bounds under the sweep's column names; the upper
        bound is armed where the degrees match."""
        return dict(
            slem=self.slem_c,
            bound_lower=self.lower_bound,
            bound_upper=self.upper_bound,
            bound_armed=self.degrees_matched,
        )

    def checks(self) -> dict[str, bool]:
        """Armed SLEM bounds: the lower always, the upper only for matched degrees."""
        out = {"slem-lower-bound": bool(self.slem_c >= self.lower_bound - SLEM_SLACK)}
        if self.degrees_matched:
            out["slem-upper-bound"] = bool(self.slem_c <= self.upper_bound + SLEM_SLACK)
        return out


def degrees_matched(layer1: LayerGraph, layer2: LayerGraph) -> bool:
    d1, d2 = layer1.degrees, layer2.degrees
    scale = np.maximum(np.abs(d1), np.abs(d2))
    return bool((np.abs(d1 - d2) <= _DEGREE_MATCH_RTOL * np.maximum(scale, 1e-300)).all())


def slem_bounds(model: MergedModel) -> MergedBoundsReport:
    """SLEM of C, 1/(N-1) lower bound, and the degree-matched upper bound.

    C = D^-1 W_m with W_m symmetric, so C is similar to D^-1/2 W_m D^-1/2
    whatever the layer degrees: its spectrum always comes from the symmetric
    solver. The layer SLEMs are cached on the layers across a sweep.
    """
    slem_c = slem_reversible(model.merged_layer).slem
    try:
        upper = max(slem_reversible(model.layer1).slem, slem_reversible(model.layer2).slem)
    except IsolatedNodeError:
        upper = None
    return MergedBoundsReport(
        slem_c=slem_c,
        lower_bound=1.0 / (model.merged_layer.n - 1),
        upper_bound=upper,
        degrees_matched=degrees_matched(model.layer1, model.layer2),
    )


class MergedOutcome(NamedTuple):
    """Where the merged dynamics goes, with the model's armed checks.

    pi and value are set iff C is primitive; interval, the [min, max] of the
    two layer consensuses, iff both layers are. guaranteed says the
    sufficient condition holds: 0 < alpha < 1 and some layer is primitive.
    """

    bounds: MergedBoundsReport
    pi: StationaryDistribution | None
    value: float | None
    interval: tuple[float, float] | None
    guaranteed: bool

    @property
    def note(self) -> str:
        return "" if self.pi is not None else "merged transition not primitive"

    def fields(self) -> dict:
        """The verdict's values under the sweep's column names, as both the
        sweep row and `oplex analyze` print them."""
        lo, hi = self.interval or (None, None)
        verdict = dict(consensus=self.value, interval_lo=lo, interval_hi=hi, note=self.note)
        return self.bounds.fields() | verdict

    def checks(self) -> dict[str, bool]:
        """The SLEM bounds, the consensus inside the interval where both are
        set, and C primitive where the sufficient condition holds."""
        out = self.bounds.checks()
        if self.value is not None and self.interval is not None:
            lo, hi = self.interval
            out["consensus-in-interval"] = bool(
                lo - _INTERVAL_SLACK <= self.value <= hi + _INTERVAL_SLACK
            )
        if self.guaranteed:
            out["primitivity-guarantee"] = self.pi is not None
        return out


def _layer_primitive(layer: LayerGraph) -> bool:
    try:
        return is_primitive(transition_matrix(layer))
    except IsolatedNodeError:
        return False  # an isolated node has no averaging neighborhood


def analyze(model: MergedModel, x0: np.ndarray) -> MergedOutcome:
    """The merged verdict: SLEM bounds, consensus pi . x0, the layer-consensus
    interval and the primitivity guarantee.

    pi comes from the blended degrees, which stays defined when a node is
    isolated in one layer only; pi . x0 equals the convex combination of the
    layer consensuses weighted by alpha|E1| and (1-alpha)|E2|.
    """
    x = check_opinions(x0, model.merged_layer.n)
    layers = (model.layer1, model.layer2)
    primitive = [_layer_primitive(layer) for layer in layers]
    pi = stationary_from_degrees(model.merged_layer) if is_primitive(model.transition) else None
    interval = None
    if all(primitive):
        ends = [consensus_value(stationary_from_degrees(layer), x) for layer in layers]
        interval = (min(ends), max(ends))
    return MergedOutcome(
        bounds=slem_bounds(model),
        pi=pi,
        value=None if pi is None else consensus_value(pi, x),
        interval=interval,
        guaranteed=0.0 < model.alpha < 1.0 and any(primitive),
    )
