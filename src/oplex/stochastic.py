"""Row-stochastic transition matrices and their stationary structure.

The averaging dynamics x(t+1) = M x(t) is driven by matrices whose rows are
convex weights. For a matrix read off an undirected layer, row i is the
layer's weight row i divided by the weighted degree d_i, the stationary
distribution is pi_i = d_i / (2|E|), and consensus lands on pi . x(0).
Matrices arising as products (switching cycles) keep none of that structure
and get generic solvers instead: a dense solve on the formed product, or,
for a product held as its factors, a classification on the time-expanded
graph (product_classes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .netcore import Csr, LayerGraph, require_no_isolated

if TYPE_CHECKING:
    from .switching import SwitchingModel

_ROW_SUM_TOL = 1e-12
_STATIONARY_RESIDUAL_TOL = 1e-12


class NotPrimitiveError(ValueError):
    """An operation requiring a primitive matrix got a non-primitive one."""


class TransitionMatrix:
    """N x N row-stochastic matrix, stored once as a Csr.

    from_entries checks a dense array and renormalizes it; a row sum off by
    more than 1e-12 signals an upstream bug and is rejected rather than
    rescaled. transition_matrix reads a layer. Every matrix question reads
    only n, entries (dense, built on each use), matvec_kernel() and classes()
    (the support classification, cached in _classes), so a switching model,
    which offers the same four for its cycle, is asked them as a matrix is.
    """

    def __init__(self, csr: Csr) -> None:
        self.csr = csr
        self._classes: SupportClasses | None = None

    @property
    def n(self) -> int:
        return self.csr.n

    @property
    def entries(self) -> np.ndarray:
        return self.csr.dense()

    def matvec_kernel(self) -> Callable[..., np.ndarray]:
        return self.csr.matvec_kernel()

    def classes(self) -> SupportClasses:
        """Closed classes by breadth-first search on the stored pattern; cached."""
        if self._classes is None:
            periods, closed = _closed_classes(self.csr)
            self._classes = SupportClasses(tuple(periods), self.n - int(closed.sum()))
        return self._classes

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "TransitionMatrix":
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {m.shape}")
        if (m < 0).any():
            raise ValueError("transition matrix entries must be nonnegative")
        sums = m.sum(axis=1)
        off = np.abs(sums - 1.0)
        if off.max(initial=0.0) > _ROW_SUM_TOL:
            bad = int(off.argmax())
            raise ValueError(
                f"row {bad} sums to {float(sums[bad])!r}, more than {_ROW_SUM_TOL} away from 1"
            )
        return cls(Csr.from_dense(m / sums[:, None]))


class StationaryDistribution:
    """Probability vector over nodes; the weights behind the consensus value."""

    def __init__(self, pi: np.ndarray) -> None:
        if (pi < 0).any():
            raise ValueError("stationary distribution entries must be nonnegative")
        if abs(pi.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValueError(f"stationary distribution sums to {float(pi.sum())!r}, not 1")
        self.pi = pi

    @property
    def n(self) -> int:
        return self.pi.shape[0]


def transition_matrix(layer: LayerGraph) -> TransitionMatrix:
    """Degree-normalize a layer: entry (i, j) is w_ij / d_i, on the layer's pattern.

    Built on first use and cached on the layer, with its support classes:
    a sweep builds its models from the same two layers at every grid point.
    """
    if layer._transition is None:
        require_no_isolated(layer)
        w = layer.csr
        layer._transition = TransitionMatrix(w.with_data(w.data / layer.degrees[w.rows]))
    return layer._transition


def _bfs_levels(support: Csr, source: int, backward: bool = False) -> np.ndarray:
    """Breadth-first distance from source along the edges i -> j of the
    stored entries (i, j), or against them; -1 where unreached.

    Each level is one pass over the stored entries: those whose tail is in
    the frontier reach their head.
    """
    tails, heads = (support.indices, support.rows) if backward else (support.rows, support.indices)
    level = np.full(support.n, -1)
    level[source] = 0
    frontier = level == 0
    depth = 0
    while True:
        depth += 1
        reached = np.zeros(support.n, dtype=bool)
        reached[heads[frontier[tails]]] = True
        frontier = reached & (level < 0)
        if not frontier.any():
            return level
        level[frontier] = depth


class SupportClasses(NamedTuple):
    """Closed classes of the support graph (edge i -> j iff m_ij > 0).

    periods has one entry per closed class, in the order found; transient
    counts the nodes in none. M^t converges to 1 pi' iff there is one closed
    class and it is aperiodic: M is SIA (Wolfowitz 1963; Seneta, Non-negative
    Matrices and Markov Chains, ch. 4), and pi is zero on transient nodes.
    """

    periods: tuple[int, ...]
    transient: int

    @property
    def converges(self) -> bool:
        """One closed class, of period 1: the averaging reaches consensus."""
        return self.periods == (1,)


def _closed_classes(support: Csr) -> tuple[list[int], np.ndarray]:
    """Periods of the closed classes of the stored pattern, in the order
    found, and the mask of the nodes that lie in one.

    Search from u forward (F) and backward (B). If F lies inside B, F is a
    closed class; its period is the gcd over its edges (a, b) of
    L[a] + 1 - L[b], with L the BFS levels. Otherwise move u to the deepest
    node of F outside B, whose F is strictly smaller. Every node of B
    reaches the class found; restart from a node that reaches none found so
    far. A primitive matrix costs two searches from node 0, one when the
    support is symmetric (layer matrices and C), where B = F.
    """
    symmetric = support.transpose_positions() is not None
    marked = np.zeros(support.n, dtype=bool)  # nodes that reach a closed class found so far
    closed = np.zeros(support.n, dtype=bool)
    periods: list[int] = []
    u = 0
    while not marked.all():
        level = _bfs_levels(support, u)
        forward = level >= 0
        backward = forward if symmetric else _bfs_levels(support, u, backward=True) >= 0
        if (forward & ~backward).any():
            u = int(np.argmax(np.where(backward, -1, level)))
            continue
        inside = forward[support.rows]  # the class's edges: it is closed
        rows, cols = support.rows[inside], support.indices[inside]
        periods.append(int(np.gcd.reduce(level[rows] + 1 - level[cols])))
        closed |= forward
        marked |= backward
        u = int(np.argmin(marked))
    return periods, closed


def product_classes(factors: Sequence[TransitionMatrix]) -> SupportClasses:
    """Closed classes of the product Q = F_0 F_1 ... F_(m-1), never formed.

    Q has an entry (i, j) iff a walk i -> j takes one step along the
    pattern of each factor in turn, so Q's support is read off the
    time-expanded graph on the nodes (v, p), p = 0..m-1: (i, p) -> (j, p+1
    mod m) for each entry (i, j) of F_p. Its closed classes are those of Q,
    one each, with periods m times Q's, since every cycle passes through
    every phase; Q's transient nodes are the phase-0 nodes outside all of
    them. The search costs O(m nnz) per level and needs no product support.
    """
    n, m = factors[0].n, len(factors)
    parts = [f.csr for f in factors]
    starts = np.cumsum([0] + [c.nnz for c in parts])
    lifted = Csr(
        np.concatenate([c.indptr[:-1] + s for c, s in zip(parts, starts)] + [starts[-1:]]),
        np.concatenate([c.indices + (p + 1) % m * n for p, c in enumerate(parts)]),
        np.concatenate([c.data for c in parts]),
        np.concatenate([c.rows + p * n for p, c in enumerate(parts)]),
    )
    periods, closed = _closed_classes(lifted)
    return SupportClasses(
        periods=tuple(d // m for d in periods), transient=n - int(closed[:n].sum())
    )


def is_primitive(m: TransitionMatrix | SwitchingModel) -> bool:
    """Primitive iff the support is one aperiodic closed class with no transient node."""
    classes = m.classes()
    return classes.converges and classes.transient == 0


def stationary_from_degrees(layer: LayerGraph) -> StationaryDistribution:
    """Stationary distribution of an undirected layer: pi_i = d_i / (2|E|)."""
    require_no_isolated(layer)
    return StationaryDistribution(pi=layer.degrees / (2.0 * layer.total_edge_weight))


def stationary_general(m: TransitionMatrix | SwitchingModel) -> StationaryDistribution:
    """Left fixed vector of an SIA matrix, normalized to sum 1.

    Dense linear solve of pi (M - I) = 0 with one equation replaced by
    sum(pi) = 1, then a residual check. The fixed vector is unique, so the
    solve is exact. Intended for nonreversible products where the degree
    formula does not apply, such as a switching model's cycle; rejects
    input that is not SIA.
    """
    if not m.classes().converges:
        raise NotPrimitiveError("matrix reaches no consensus (not SIA)")
    p = m.entries
    n = m.n
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    v = np.linalg.solve(a, b)
    v = v / v.sum()
    residual = np.abs(v @ p - v).max()
    if residual > _STATIONARY_RESIDUAL_TOL:
        raise RuntimeError(
            f"stationary solve residual {residual:.3e} exceeds {_STATIONARY_RESIDUAL_TOL}"
        )
    return StationaryDistribution(pi=np.abs(v))


def check_opinions(x0: np.ndarray, n: int | None = None) -> np.ndarray:
    """Validate an opinion vector: entries must lie in [0, 1]."""
    x = np.asarray(x0, dtype=float)
    if n is not None and x.shape != (n,):
        raise ValueError(f"opinion vector has shape {x.shape}, expected ({n},)")
    inside = (x >= 0) & (x <= 1)  # False for NaN too
    if not inside.all():
        bad = int(np.argmin(inside))
        raise ValueError(f"opinion x0[{bad}] = {float(x[bad])!r} outside [0, 1]")
    return x


def consensus_value(pi: StationaryDistribution, x0: np.ndarray) -> float:
    """Consensus opinion pi . x(0); always inside [min x0, max x0]."""
    x = check_opinions(x0, pi.n)
    return float(np.dot(pi.pi, x))
