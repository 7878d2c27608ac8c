"""Weighted network layers sharing a common node set.

A layer is an undirected, loop-free, nonnegatively weighted graph, stored
once in compressed sparse row form (Csr): a social layer has O(n) edges, and
every kernel downstream reads its nonzeros rather than an n x n array.
Layers are the raw material for the averaging dynamics: every transition
matrix downstream is a degree normalization of a layer, and the two-layer
models combine layers by weight blending or by time switching.
"""

from __future__ import annotations

import io
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .spectral import SpectralSummary
    from .stochastic import TransitionMatrix


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


# The most nodes a layer may have. A layer's Csr takes n + 1 row offsets and
# keys its entries i n + j in int64, which overflows past about 3e9 nodes;
# the cap stays far below that, and far above the 4000 nodes of the largest
# run in this repository.
MAX_NODES = 10**6
# The most work units a generator spec may ask for (GeneratorSpec names the
# unit of each kind): one per node pair is about 65000 nodes.
_MAX_GENERATOR_WORK = 2**31


def check_node_count(n: int) -> None:
    """Reject a node count below 1 or above MAX_NODES, naming it."""
    if n <= 0:
        raise ValueError("node count must be positive")
    if n > MAX_NODES:
        raise ValueError(f"node count {n} exceeds the cap of {MAX_NODES} nodes")


# One CSR product costs about as much as this many dense multiply-adds per
# stored entry, per row and per call (np.add.reduceat against np.dot, one
# BLAS thread; see Csr.matvec_cost). Row-regular patterns are charged
# reduceat's cost too, though their slab kernel takes about half its time:
# the cost places the dense/CSR crossover, simulate's block cap and
# SwitchingModel.matrix_free, and a cost that moved them would change
# which products run and so the floats every report holds.
_CSR_ENTRY_COST = 10
_CSR_ROW_COST = 50
_CSR_CALL_COST = 10_000
# Rows of 2 to this many entries, all of one length, are summed by
# whole-slab adds; reduceat sums longer rows pairwise (see _slab_kernel).
_SLAB_MAX_ROW = 8


class Csr(NamedTuple):
    """A square matrix in compressed sparse row form (Saad, Iterative Methods
    for Sparse Linear Systems, 2003, section 3.4).

    Row i holds its entries at positions indptr[i]:indptr[i + 1] of indices
    (their columns, strictly ascending) and data (their values). No zero is
    stored, so the pattern is the support of the matrix. rows holds the row
    of each entry; every kernel here reads it, and every constructor has it
    at hand.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rows: np.ndarray

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def nnz(self) -> int:
        return self.data.shape[0]

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "Csr":
        """From a square array; its nonzeros are the entries."""
        rows, cols = np.nonzero(a)
        return cls(np.searchsorted(rows, np.arange(a.shape[0] + 1)), cols, a[rows, cols], rows)

    @classmethod
    def from_keys(cls, n: int, keys: np.ndarray, vals: np.ndarray) -> "Csr":
        """From nonzero entries keyed i n + j, keys strictly ascending."""
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        rows = keys // n
        return cls(indptr, keys - rows * n, vals, rows)

    @classmethod
    def from_entries(
        cls, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> "Csr":
        """From (row, col, value) triples in any order. The values of a
        repeated (row, col) are summed; zeros are dropped."""
        keys = rows * n + cols
        order = np.argsort(keys)
        keys = keys[order]
        new = np.ones(keys.shape, dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        first = np.flatnonzero(new)
        sums = np.add.reduceat(vals[order], first)
        keep = sums != 0
        return cls.from_keys(n, keys[first][keep], sums[keep])

    def keys(self) -> np.ndarray:
        """i n + j for each stored (i, j): strictly ascending."""
        return self.rows * self.n + self.indices

    def with_data(self, data: np.ndarray) -> "Csr":
        """The same pattern holding data, less the entries where data is 0."""
        keep = data != 0
        if keep.all():
            return Csr(self.indptr, self.indices, data, self.rows)
        return Csr.from_keys(self.n, self.keys()[keep], data[keep])

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows, self.indices] = self.data
        return out

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.data, minlength=self.n)

    def transpose_positions(self) -> np.ndarray | None:
        """For each stored (i, j), the position of the stored (j, i).

        None if some (j, i) is not stored, i.e. the pattern is not symmetric.
        """
        counts = self.indptr[1:] - self.indptr[:-1]
        if not (np.bincount(self.indices, minlength=self.n) == counts).all():
            return None  # some column holds more entries than its row
        # Sorted, the mirrored keys j n + i are the keys themselves iff the
        # pattern is symmetric; then the q-th of them, the mirror of entry
        # order[q], is key q, and mirroring is an involution.
        mirrored = self.indices * self.n + self.rows
        order = np.argsort(mirrored)
        return order if (mirrored[order] == self.keys()).all() else None

    def matvec_cost(self) -> int:
        """Cost of one product by matvec_kernel, in dense multiply-adds."""
        csr_cost = _CSR_ENTRY_COST * self.nnz + _CSR_ROW_COST * self.n + _CSR_CALL_COST
        return min(self.n * self.n, csr_cost)

    def matvec_kernel(self) -> Callable[..., np.ndarray]:
        """The product x -> A x, as a function of x and an optional out array.

        One of three kernels, the first that applies:
        - np.dot on a dense copy held by the kernel, where matvec_cost says
          a dense product is cheaper;
        - the slab kernel (_slab_kernel), where every row holds the same
          number of entries, 2 to _SLAB_MAX_ROW: circulant and k-regular
          layers, their transition matrices and their S;
        - one np.add.reduceat over the stored entries.
        The last two need every row to hold an entry and give the same
        floats bit for bit. Without out, a call returns a new array.
        """
        if self.matvec_cost() == self.n * self.n:
            return partial(np.dot, self.dense())
        counts = np.diff(self.indptr)
        if not counts.all():
            raise ValueError("the CSR product needs an entry in every row")
        data, indices = self.data, self.indices
        c = int(counts[0])
        if 1 < c <= _SLAB_MAX_ROW and (counts == c).all():
            return _slab_kernel(indices.reshape(-1, c).T, data.reshape(-1, c).T)
        starts = self.indptr[:-1]
        return lambda x, out=None: np.add.reduceat(data * x[indices], starts, out=out)


def _slab_kernel(indices: np.ndarray, data: np.ndarray) -> Callable[..., np.ndarray]:
    """x -> A x for c entries in every row, 1 < c <= _SLAB_MAX_ROW, given
    their columns and values as c x n slabs: slab j holds entry j of each row.

    For a row of c < 9 products p_0 .. p_(c-1), np.add.reduceat computes
    p_0 + (((-0.0 + p_1) + p_2) + ...): the first product plus a sequential
    sum of the rest (longer rows sum the rest pairwise). -0.0 + p_1 is p_1,
    so adding whole slabs of products in that order gives reduceat's floats
    bit for bit, signed zeros included. That order is numpy's internal one,
    checked on numpy 2.4.6; TestSlabKernel checks it on the numpy installed.
    The products go into a scratch array held by the kernel; a result never
    does, since callers chain x = apply(x).
    """
    cols, vals = np.ascontiguousarray(indices), np.ascontiguousarray(data)
    products = np.empty(vals.shape)
    first, total, *rest = products

    def apply(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        np.multiply(vals, x[cols], out=products)
        for p in rest:
            np.add(total, p, out=total)
        return np.add(first, total, out=out)

    return apply


class LayerGraph:
    """One undirected weighted layer on nodes 0..n-1, given by its weights W.

    csr holds W, symmetric with zero diagonal. n, degrees (the row sums) and
    total_edge_weight (half their sum) are derived from it at construction;
    weights is W as a dense array, built on each use and never stored.
    _transition and _spectrum cache the layer's transition matrix and
    SpectralSummary (see stochastic.transition_matrix and
    spectral.slem_reversible).
    """

    def __init__(self, csr: Csr) -> None:
        degrees = csr.row_sums()
        with np.errstate(over="ignore"):  # an overflow is rejected below
            total = 0.5 * float(degrees.sum())
        if not math.isfinite(total):  # also when some degree is not finite
            raise ValueError("weighted degrees and their total must be finite")
        mirror = csr.transpose_positions()
        if mirror is None or not np.array_equal(csr.data[mirror], csr.data):
            raise ValueError("weight matrix must be exactly symmetric")
        if (csr.indices == csr.rows).any():
            raise ValueError("self-loops are not allowed (nonzero diagonal)")
        if (csr.data < 0).any():
            raise ValueError("edge weights must be nonnegative")
        self.csr = csr
        self.n = csr.n
        self.degrees = degrees
        self.total_edge_weight = total
        self._transition: TransitionMatrix | None = None
        self._spectrum: SpectralSummary | None = None

    @property
    def weights(self) -> np.ndarray:
        return self.csr.dense()

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> "LayerGraph":
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        return cls(Csr.from_dense(w))

    @classmethod
    def from_edges(
        cls, n: int, i: Sequence[int], j: Sequence[int], w: Sequence[float]
    ) -> "LayerGraph":
        """The layer with weight w[e] on edge {i[e], j[e]}.

        A ValueError names the first edge that breaks a rule of first_bad_edge.
        """
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        w = np.asarray(w, dtype=float)
        fault = first_bad_edge(n, i, j, w)
        if fault is not None:
            raise ValueError(fault[1])
        return _checked_edges_layer(n, i, j, w)


def _checked_edges_layer(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> LayerGraph:
    """The layer with weight w[e] on edge {i[e], j[e]}, for edges that
    first_bad_edge has passed already."""
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    return LayerGraph(Csr.from_entries(n, rows, cols, np.concatenate([w, w])))


def first_bad_edge(
    n: int,
    i: np.ndarray,
    j: np.ndarray,
    w: np.ndarray,
    base: int = 0,
    allowed: Sequence[float] | None = None,
) -> tuple[int, str] | None:
    """The first edge, in input order, that a layer on n nodes cannot hold,
    with the message of the rule it breaks; None if there is none.

    Edge e joins the nodes labelled i[e] and j[e], where node 0 is labelled
    base, and weighs w[e]. Its labels must name two distinct nodes, its
    weight must be finite and positive (and in allowed, if given), and no
    earlier edge may join the same two nodes. A node count below 1 or above
    MAX_NODES raises ValueError.
    """
    check_node_count(n)
    top = base + n - 1
    # An edge repeats an earlier one iff it is not the first with its key.
    # Keys are unique among the edges of in-range labels; a key shared with,
    # or wrapped by, an out-of-range label is harmless, since that edge is
    # bad itself and its twin comes after it or is bad.
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    keys = lo * n + hi
    repeat = np.ones(keys.shape, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    rules = [
        ((lo < base) | (hi > top), "edge ({a}, {b}) has a node index outside {base}..{top}"),
        (i == j, "self-loop on node {a} is not allowed"),
        (~np.isfinite(w), "edge ({a}, {b}) has non-finite weight {x}"),
        (~(w > 0), "edge ({a}, {b}) has non-positive weight {x}"),
        (repeat, "duplicate edge ({a}, {b})"),
    ]
    if allowed is not None:
        rules.insert(4, (~np.isin(w, allowed), "weight {x!r} not in allowed set {allowed}"))
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if not bad.any():
        return None
    e = int(np.argmax(bad))
    message = next(text for mask, text in rules if mask[e])
    labels = dict(a=int(i[e]), b=int(j[e]), x=float(w[e]), base=base, top=top)
    return e, message.format(allowed=sorted(allowed or ()), **labels)


def require_no_isolated(layer: LayerGraph, where: str = "(zero weighted degree)") -> None:
    """Raise IsolatedNodeError naming the first node of zero weighted degree."""
    if (layer.degrees <= 0).any():
        node = int(np.argmin(layer.degrees))
        raise IsolatedNodeError(f"node {node} is isolated {where}")


def build_layer(n: int, edges: Iterable[tuple[int, int, float]]) -> LayerGraph:
    """Assemble a layer from (i, j, w) triples, under the rules of
    LayerGraph.from_edges."""
    i, j, w = list(zip(*edges)) or ([], [], [])
    return LayerGraph.from_edges(n, i, j, w)


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
        check_node_count(self.n)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        pairs = self.n * (self.n - 1) // 2
        if self.kind == "erdos-renyi":
            if self.p is None or not (0 < self.p <= 1):
                raise ValueError("erdos-renyi requires edge probability 0 < p <= 1")
            self._check_work(pairs, "draws one uniform per node pair")
        elif self.kind == "barabasi-albert":
            if self.m is None or not (1 <= self.m < self.n):
                raise ValueError("barabasi-albert requires 1 <= m < n")
            self._check_work(pairs, "sums the degrees of the nodes so far once per node")
        elif self.kind == "k-regular":
            if self.k is None or not (0 < self.k < self.n):
                raise ValueError("k-regular requires 0 < k < n")
            if (self.k * self.n) % 2 != 0:
                raise ValueError(f"k-regular infeasible: k*n = {self.k * self.n} is odd")
            if 2 * self.k > self.n - 1:
                self._check_work(pairs, f"at k = {self.k} masks every node pair")
            else:
                self._check_work(self.n * self.k, f"at k = {self.k} pairs k stubs per node")
        elif self.kind == "circulant":
            if not self.offsets:
                raise ValueError("circulant requires a nonempty offset set")
            if any(o % self.n == 0 for o in self.offsets):
                raise ValueError("circulant offsets must be nonzero mod n")
            if self.weight <= 0:
                raise ValueError("circulant edge weight must be positive")
            distances = {min(o % self.n, -o % self.n) for o in self.offsets}
            self._check_work(self.n * len(distances), "lists n edges per distinct offset")
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def _check_work(self, units: int, per: str) -> None:
        """Reject a spec whose generator would do more than _MAX_GENERATOR_WORK
        units of work, before anything is allocated."""
        if units > _MAX_GENERATOR_WORK:
            raise ValueError(
                f"{self.kind} on {self.n} nodes {per}, {units} in all, "
                f"more than the cap of {_MAX_GENERATOR_WORK}"
            )

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
        return _k_regular(spec.n, spec.k, spec.seed)
    if spec.kind == "circulant":
        return _circulant(spec.n, spec.offsets, spec.weight)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


# Uniforms drawn per Generator.random call by _erdos_renyi. Consecutive
# calls continue one stream, so together they draw what one call would.
_DRAW_CHUNK = 2**18


def _erdos_renyi(n: int, p: float, seed: int) -> LayerGraph:
    # One uniform per pair i < j, in row-major order of the upper triangle;
    # the pair is an edge iff its uniform is below p. The uniforms are drawn
    # a block of rows at a time, about _DRAW_CHUNK of them, so the triangle
    # is never held whole.
    rng = np.random.default_rng(seed)
    # first[i]: index of pair (i, i + 1) among the pairs; first[n - 1]: their count
    first = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    hits = []
    i = 0
    while i < n - 1:
        stop = int(np.searchsorted(first, first[i] + _DRAW_CHUNK, side="right")) - 1
        stop = min(max(stop, i + 1), n - 1)
        hits.append(first[i] + np.flatnonzero(rng.random(first[stop] - first[i]) < p))
        i = stop
    hit = np.concatenate(hits) if hits else np.zeros(0, dtype=np.intp)
    rows = np.searchsorted(first, hit, side="right") - 1
    cols = rows + 1 + (hit - first[rows])
    return LayerGraph.from_edges(n, rows, cols, np.ones(hit.shape[0]))


def _choice_without_replacement(rng: np.random.Generator, p: np.ndarray, m: int) -> list[int]:
    """rng.choice(len(p), m, replace=False, p=p) as a list, bit for bit.

    The loop Generator.choice runs, without its checks on p, which must be
    a probability vector with at least m positive entries: uniforms for the
    entries still missing, the found entries' probabilities zeroed, inverse
    CDF, first occurrences kept in draw order, until m are found. p is
    overwritten.
    """
    found: list[int] = []
    while len(found) < m:
        x = rng.random(m - len(found))
        p[found] = 0.0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        for t in cdf.searchsorted(x, side="right").tolist():
            if t not in found:
                found.append(t)
    return found


def _barabasi_albert(n: int, m: int, seed: int) -> LayerGraph:
    # Seed graph is a clique on m+1 nodes; each later node attaches m edges
    # drawn proportionally to current degree, without replacement.
    rng = np.random.default_rng(seed)
    clique = min(m + 1, n)
    pairs = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    deg = np.zeros(n)
    deg[:clique] = clique - 1
    for v in range(clique, n):
        targets = _choice_without_replacement(rng, deg[:v] / deg[:v].sum(), m)
        pairs.extend((v, t) for t in targets)
        deg[targets] += 1.0
        deg[v] = float(m)
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return LayerGraph.from_edges(n, ends[:, 0], ends[:, 1], np.ones(len(ends)))


def _k_regular(n: int, k: int, seed: int) -> LayerGraph:
    # The pairing's restarts explode as k nears n, so past k = (n - 1) / 2
    # the layer is the complement of the (n - 1 - k)-regular graph drawn from
    # the same seed, which is k-regular.
    dense = 2 * k > n - 1
    drawn = _random_regular_pairs(n, n - 1 - k if dense else k, seed)
    pairs = np.array(list(drawn), dtype=np.intp).reshape(-1, 2)
    if dense:
        keep = np.triu(np.ones((n, n), dtype=bool), 1)
        keep[pairs[:, 0], pairs[:, 1]] = False
        pairs = np.argwhere(keep)
    return LayerGraph.from_edges(n, pairs[:, 0], pairs[:, 1], np.ones(len(pairs)))


def _random_regular_pairs(n: int, k: int, seed: int) -> set[tuple[int, int]]:
    """The edges (i, j), i < j, of a random k-regular graph on n nodes.

    The pairing algorithm of Steger and Wormald (Combin. Probab. Comput. 8,
    1999) as networkx 3 writes it in random_regular_graph, drawing from
    random.Random(seed) as networkx does for an integer seed, so a seed gives
    networkx's graph. Each round shuffles the stubs (k per node) and pairs
    them in order; a pair that is a loop or an existing edge returns its
    stubs to the pool for the next round. When no two pooled nodes can be
    joined, the draw starts over, continuing the stream.
    """
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * k
    while stubs:
        pool: Counter[int] = Counter()  # returned stubs, in first-return order
        rng.shuffle(stubs)
        ends = iter(stubs)
        for s1, s2 in zip(ends, ends):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                pool.update((s1, s2))
        if pool and not _can_join(edges, pool):
            edges, stubs = set(), list(range(n)) * k
        else:
            stubs = list(pool.elements())
    return edges


def _can_join(edges: set[tuple[int, int]], pool: Counter[int]) -> bool:
    # networkx's suitability test, verbatim. The swap rebinds the outer loop
    # variable, so the pairs tried are not all pairs of pooled nodes; a test
    # over all pairs now and then gives another verdict, and another graph.
    for s1 in pool:
        for s2 in pool:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _circulant(n: int, offsets: Sequence[int], weight: float) -> LayerGraph:
    # Offsets o and n - o give the same edges {i, i + o}: each edge set is
    # taken once, by its distance d <= n / 2. At d = n / 2 the partner of
    # i + d is i again, so only the first half of the nodes lead.
    nodes = np.arange(n)
    tails, heads = [], []
    for d in sorted({min(o % n, -o % n) for o in offsets}):
        lead = nodes[: n // 2] if 2 * d == n else nodes
        tails.append(lead)
        heads.append((lead + d) % n)
    i, j = np.concatenate(tails), np.concatenate(heads)
    return LayerGraph.from_edges(n, i, j, np.full(i.shape, float(weight)))


class EdgeList(NamedTuple):
    """The edge lines of an "i j w" text file, as parse_edge_list reads them:
    for each, in file order, its line number, its two node labels as written
    and its weight."""

    path: Path
    lines: np.ndarray
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def layer(self, n: int, base: int = 0, allowed: Sequence[float] | None = None) -> LayerGraph:
        """The layer on n nodes that these edges make, node 0 labelled base.

        The first edge that breaks a rule of first_bad_edge, or whose weight
        is outside allowed if given, raises EdgeListError naming its line and
        its labels as written.
        """
        fault = first_bad_edge(n, self.i, self.j, self.w, base, allowed)
        if fault is not None:
            raise EdgeListError(f"{self.path}:{self.lines[fault[0]]}: {fault[1]}")
        return _checked_edges_layer(n, self.i - base, self.j - base, self.w)


def parse_edge_list(path: str | Path) -> EdgeList:
    """Read the edge lines of an "i j w" text file in one pass.

    The file must be UTF-8 throughout: its first byte that is not raises
    EdgeListError naming its line, before any other fault. Lines end as in
    text mode ('\n', '\r\n' or '\r'); lines starting with '#' and blank lines
    are skipped; a malformed line, or a label that does not fit in 64 bits,
    raises EdgeListError naming it.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        raise EdgeListError(
            f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None
    edges = []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise EdgeListError(f"{path}:{lineno}: expected 'i j w', got {line!r}")
        try:
            edge = lineno, int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise EdgeListError(f"{path}:{lineno}: {exc}") from exc
        if max(abs(edge[1]), abs(edge[2])) >= 2**63:
            raise EdgeListError(f"{path}:{lineno}: node label does not fit in 64 bits")
        edges.append(edge)
    lines, i, j, w = zip(*edges) if edges else ((), (), (), ())
    lines, i, j = (np.array(c, dtype=np.intp) for c in (lines, i, j))
    return EdgeList(path, lines, i, j, np.array(w, dtype=float))


def load_edge_list(
    path: str | Path,
    n: int,
    indexing: str = "0-based",
    allowed_weights: Sequence[float] | None = None,
) -> LayerGraph:
    """Read one layer from a whitespace-separated "i j w" text file, by
    parse_edge_list and EdgeList.layer. With 1-based indexing, node labels
    1..n map to 0..n-1."""
    if indexing not in ("0-based", "1-based"):
        raise ValueError(f"indexing must be '0-based' or '1-based', got {indexing!r}")
    return parse_edge_list(path).layer(n, 1 if indexing == "1-based" else 0, allowed_weights)


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
