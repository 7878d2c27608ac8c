"""Weighted network layers sharing a common node set.

A layer is an undirected, loop-free, nonnegatively weighted graph stored
densely. Layers are the raw material for the averaging dynamics: every
transition matrix downstream is a degree normalization of a layer, and the
two-layer models combine layers by weight blending or by time switching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .spectral import SpectralSummary


class EdgeListError(ValueError):
    """Malformed edge-list input, with file/line context in the message."""


class IsolatedNodeError(ValueError):
    """A node has zero weighted degree, so it has no neighbors to average over."""


def is_integer(value: object) -> bool:
    """An integer value; bools are not counted as integers."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """A number; bools are not counted as numbers."""
    return isinstance(value, float) or is_integer(value)


@dataclass(frozen=True)
class LayerGraph:
    """One undirected weighted layer on nodes 0..n-1, given by its weights.

    weights is symmetric with zero diagonal. n, degrees (the row sums) and
    total_edge_weight (half their sum) are derived from it at construction.
    _spectrum caches the layer's SpectralSummary (see spectral.layer_spectrum).
    """

    weights: np.ndarray
    n: int = field(init=False)
    degrees: np.ndarray = field(init=False)
    total_edge_weight: float = field(init=False)
    _spectrum: SpectralSummary | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        with np.errstate(over="ignore"):  # an overflow is rejected below
            degrees = w.sum(axis=1)
            total = 0.5 * float(degrees.sum())
        if not (np.isfinite(degrees).all() and np.isfinite(total)):
            raise ValueError("weighted degrees and their total must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weight matrix must be exactly symmetric")
        if np.diagonal(w).any():
            raise ValueError("self-loops are not allowed (nonzero diagonal)")
        if (w < 0).any():
            raise ValueError("edge weights must be nonnegative")
        object.__setattr__(self, "n", w.shape[0])
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "total_edge_weight", total)

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> "LayerGraph":
        return cls(weights=np.array(weights, dtype=float))


def require_no_isolated(layer: LayerGraph, where: str = "(zero weighted degree)") -> None:
    """Raise IsolatedNodeError naming the first node of zero weighted degree."""
    if (layer.degrees <= 0).any():
        node = int(np.argmin(layer.degrees))
        raise IsolatedNodeError(f"node {node} is isolated {where}")


def build_layer(n: int, edges: Iterable[tuple[int, int, float]]) -> LayerGraph:
    """Assemble a layer from an explicit edge list.

    Each entry (i, j, w) with w > 0 sets both (i, j) and (j, i). Self-loops,
    duplicate unordered pairs, and non-finite or non-positive weights are
    rejected.
    """
    if n <= 0:
        raise ValueError("node count must be positive")
    w = np.zeros((n, n), dtype=float)
    seen: set[tuple[int, int]] = set()
    for i, j, weight in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) has a node index outside 0..{n - 1}")
        if i == j:
            raise ValueError(f"self-loop on node {i} is not allowed")
        if not np.isfinite(weight):
            raise ValueError(f"edge ({i}, {j}) has non-finite weight {weight}")
        if weight <= 0:
            raise ValueError(f"edge ({i}, {j}) has non-positive weight {weight}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add(key)
        w[i, j] = w[j, i] = float(weight)
    return LayerGraph.from_weights(w)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one seeded random (or deterministic) layer generator.

    kind is one of "erdos-renyi" (edge probability p), "barabasi-albert"
    (attachment count m), "k-regular" (degree k), "circulant" (offsets and a
    shared edge weight).
    """

    kind: str
    n: int
    seed: int = 0
    p: float | None = None
    m: int | None = None
    k: int | None = None
    offsets: tuple[int, ...] | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("n", "seed", "m", "k"):
            value = getattr(self, name)
            if not is_integer(value) and not (value is None and name in ("m", "k")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("p", "weight"):
            value = getattr(self, name)
            if not is_number(value) and not (value is None and name == "p"):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.offsets is not None and not all(is_integer(o) for o in self.offsets):
            raise ValueError(f"offsets must be integers, got {list(self.offsets)!r}")
        if self.n <= 0:
            raise ValueError("node count must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.kind == "erdos-renyi":
            if self.p is None or not (0 < self.p <= 1):
                raise ValueError("erdos-renyi requires edge probability 0 < p <= 1")
        elif self.kind == "barabasi-albert":
            if self.m is None or not (1 <= self.m < self.n):
                raise ValueError("barabasi-albert requires 1 <= m < n")
        elif self.kind == "k-regular":
            if self.k is None or not (0 < self.k < self.n):
                raise ValueError("k-regular requires 0 < k < n")
            if (self.k * self.n) % 2 != 0:
                raise ValueError(f"k-regular infeasible: k*n = {self.k * self.n} is odd")
        elif self.kind == "circulant":
            if not self.offsets:
                raise ValueError("circulant requires a nonempty offset set")
            if any(o % self.n == 0 for o in self.offsets):
                raise ValueError("circulant offsets must be nonzero mod n")
            if self.weight <= 0:
                raise ValueError("circulant edge weight must be positive")
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        known = {"kind", "n", "seed", "p", "m", "k", "offsets", "weight"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown generator fields {sorted(extra)}")
        d = dict(d)
        if "offsets" in d and d["offsets"] is not None:
            d["offsets"] = tuple(d["offsets"])
        return cls(**d)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "seed": self.seed}
        for name in ("p", "m", "k"):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        if self.offsets is not None:
            out["offsets"] = list(self.offsets)
            out["weight"] = self.weight
        return out


def generate(spec: GeneratorSpec) -> LayerGraph:
    """Generate a layer from a spec, deterministically for a fixed seed.

    Connectivity is not guaranteed for the random kinds; callers that need
    convergence must check primitivity downstream.
    """
    if spec.kind == "erdos-renyi":
        return _erdos_renyi(spec.n, spec.p, spec.seed)
    if spec.kind == "barabasi-albert":
        return _barabasi_albert(spec.n, spec.m, spec.seed)
    if spec.kind == "k-regular":
        import networkx as nx  # only this generator needs it, and it is slow to import

        g = nx.random_regular_graph(spec.k, spec.n, seed=spec.seed)
        w = nx.to_numpy_array(g, nodelist=range(spec.n))
        return LayerGraph.from_weights(w)
    if spec.kind == "circulant":
        return _circulant(spec.n, spec.offsets, spec.weight)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


def _erdos_renyi(n: int, p: float, seed: int) -> LayerGraph:
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n), dtype=float)
    iu = np.triu_indices(n, k=1)
    mask = rng.random(iu[0].shape[0]) < p
    w[iu[0][mask], iu[1][mask]] = 1.0
    w += w.T
    return LayerGraph.from_weights(w)


def _barabasi_albert(n: int, m: int, seed: int) -> LayerGraph:
    # Seed graph is a clique on m+1 nodes; each later node attaches m edges
    # drawn proportionally to current degree, without replacement.
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n), dtype=float)
    clique = min(m + 1, n)
    for i in range(clique):
        for j in range(i + 1, clique):
            w[i, j] = w[j, i] = 1.0
    deg = w.sum(axis=1)
    for v in range(clique, n):
        probs = deg[:v] / deg[:v].sum()
        targets = rng.choice(v, size=m, replace=False, p=probs)
        for t in targets:
            w[v, t] = w[t, v] = 1.0
            deg[t] += 1.0
        deg[v] = float(m)
    return LayerGraph.from_weights(w)


def _circulant(n: int, offsets: Sequence[int], weight: float) -> LayerGraph:
    w = np.zeros((n, n), dtype=float)
    for i in range(n):
        for o in offsets:
            j = (i + o) % n
            w[i, j] = w[j, i] = weight
    return LayerGraph.from_weights(w)


def parse_edge_list(path: str | Path) -> Iterator[tuple[int, int, int, float]]:
    """Yield (line number, i, j, w) for each edge line of an "i j w" text file.

    Node labels are returned as written. Lines starting with '#' and blank
    lines are skipped; a malformed line raises EdgeListError naming it.
    """
    path = Path(path)
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise EdgeListError(f"{path}:{lineno}: expected 'i j w', got {line!r}")
            try:
                edge = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise EdgeListError(f"{path}:{lineno}: {exc}") from exc
            yield (lineno, *edge)


def load_edge_list(
    path: str | Path,
    n: int,
    indexing: str = "0-based",
    allowed_weights: Sequence[float] | None = None,
) -> LayerGraph:
    """Read one layer from a whitespace-separated "i j w" text file.

    The lines are read by parse_edge_list. With 1-based indexing, node
    labels 1..n map to 0..n-1. If allowed_weights is given, any weight
    outside that set is rejected, naming the offending line.
    """
    if indexing not in ("0-based", "1-based"):
        raise ValueError(f"indexing must be '0-based' or '1-based', got {indexing!r}")
    shift = 1 if indexing == "1-based" else 0
    path = Path(path)
    edges: list[tuple[int, int, float]] = []
    for lineno, i, j, weight in parse_edge_list(path):
        i, j = i - shift, j - shift
        if not (0 <= i < n and 0 <= j < n):
            raise EdgeListError(
                f"{path}:{lineno}: node index out of range for n={n} ({indexing})"
            )
        if allowed_weights is not None and weight not in allowed_weights:
            raise EdgeListError(
                f"{path}:{lineno}: weight {weight!r} not in allowed set "
                f"{sorted(allowed_weights)}"
            )
        edges.append((i, j, weight))
    try:
        return build_layer(n, edges)
    except ValueError as exc:
        raise EdgeListError(f"{path}: {exc}") from exc


def load_two_layer_dataset(
    path_a: str | Path,
    path_b: str | Path,
    n: int,
    indexing: str = "0-based",
) -> tuple[LayerGraph, LayerGraph]:
    """Load the two-layer contact dataset convention onto a shared node set.

    Layer A is an unweighted relation (all weights 1). Layer B carries
    contact-duration classes encoded as weights in {1, 2, 3, 4}.
    """
    layer_a = load_edge_list(path_a, n, indexing, allowed_weights=(1.0,))
    layer_b = load_edge_list(path_b, n, indexing, allowed_weights=(1.0, 2.0, 3.0, 4.0))
    return layer_a, layer_b
