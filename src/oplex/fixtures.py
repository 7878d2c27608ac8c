"""Small hand-built layer pairs exhibiting the model's edge behaviors.

These fixtures back the regression suite and the CLI's verify command:
a pair whose switching cycle oscillates although both layers mix on their
own, a pair whose reducible cycle still reaches consensus, a pair with
misaligned degrees whose merged SLEM beats both layer SLEMs, two sparse
cycles that merge into the complete graph, a triangle pair whose cycle
stationary distribution interpolates neither layer's, a pair of
non-primitive rings whose merge is primitive although switching never
reaches consensus, and two pairs of non-primitive paths whose switching
reaches consensus.
"""

from __future__ import annotations

from .netcore import GeneratorSpec, LayerGraph, build_layer, generate


def oscillating_pair() -> tuple[LayerGraph, LayerGraph]:
    """5-node pair: A and B are primitive but the k=1 cycle has period 2."""
    layer1 = build_layer(
        5,
        [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 3, 1), (3, 4, 1)],
    )
    layer2 = build_layer(
        5,
        [(0, 4, 1), (1, 2, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1)],
    )
    return layer1, layer2


def sia_pair() -> tuple[LayerGraph, LayerGraph]:
    """4-ring and a triangle with a pendant: the k=1 cycle is SIA, not primitive.

    B A has the closed class {0, 2}, of period 1, and transient nodes 1 and 3.
    """
    layer1 = build_layer(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    layer2 = build_layer(4, [(0, 1, 1), (0, 3, 1), (1, 3, 1), (2, 3, 1)])
    return layer1, layer2


def misaligned_degree_pair() -> tuple[LayerGraph, LayerGraph]:
    """6-node pair with clashing degree sequences; merging slows mixing."""
    rows1 = [
        [0, 50, 1, 1, 2, 40],
        [50, 0, 3, 1, 50, 50],
        [1, 3, 0, 40, 40, 2],
        [1, 1, 40, 0, 40, 3],
        [2, 50, 40, 40, 0, 1],
        [40, 50, 2, 3, 1, 0],
    ]
    rows2 = [
        [0, 1, 3, 1, 1, 1],
        [1, 0, 1, 2, 1, 3],
        [3, 1, 0, 50, 40, 3],
        [1, 2, 50, 0, 50, 2],
        [1, 1, 40, 50, 0, 1],
        [1, 3, 3, 2, 1, 0],
    ]
    return LayerGraph.from_weights(rows1), LayerGraph.from_weights(rows2)


def complementary_cycles_pair() -> tuple[LayerGraph, LayerGraph]:
    """Two 5-cycles (nearest and next-nearest neighbors) merging into K5."""
    layer1 = generate(GeneratorSpec(kind="circulant", n=5, offsets=(1, 4), weight=0.5))
    layer2 = generate(GeneratorSpec(kind="circulant", n=5, offsets=(2, 3), weight=0.5))
    return layer1, layer2


def triangle_pair() -> tuple[LayerGraph, LayerGraph]:
    """Uniform triangle and a 2-1-1 weighted triangle on 3 nodes."""
    layer1 = build_layer(3, [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)])
    layer2 = build_layer(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)])
    return layer1, layer2


def induced_pair() -> tuple[LayerGraph, LayerGraph]:
    """6-ring and two disjoint triangles: neither layer is primitive.

    The ring circulant(6, [1]) is bipartite (period 2) and circulant(6, [2])
    splits into the triangles {0, 2, 4} and {1, 3, 5}. Merging them gives a
    connected graph with triangles, hence primitive C, while every cycle
    B A^k keeps the parity classes apart: two closed classes at even k,
    one class of period 2 at odd k.
    """
    layer1 = generate(GeneratorSpec(kind="circulant", n=6, offsets=(1,)))
    layer2 = generate(GeneratorSpec(kind="circulant", n=6, offsets=(2,)))
    return layer1, layer2


def crossed_paths_pair() -> tuple[LayerGraph, LayerGraph]:
    """Paths 3-0-1-2 and 2-0-1-3: switching induces consensus.

    Neither path is primitive: both are bipartite. At k = 0 the cycle is B
    alone, of period 2. From k = 1 on, B A^k has one aperiodic closed class
    holding every node, with pi = (1/3, 1/3, 1/6, 1/6); at k = 1 its SLEM is
    1/2.
    """
    layer1 = build_layer(4, [(3, 0, 1), (0, 1, 1), (1, 2, 1)])
    layer2 = build_layer(4, [(2, 0, 1), (0, 1, 1), (1, 3, 1)])
    return layer1, layer2


def shifted_paths_pair() -> tuple[LayerGraph, LayerGraph]:
    """Paths 1-0-2 and 0-1-2: switching induces consensus at every k >= 1.

    Neither path is primitive, and at k = 0 the cycle B has period 2. At odd
    k the one closed class of B A^k is node 0 alone, so pi = e_0 and nodes 1
    and 2 are transient; at even k >= 2 it holds every node, with
    pi = (0.2, 0.4, 0.4).
    """
    layer1 = build_layer(3, [(1, 0, 1), (0, 2, 1)])
    layer2 = build_layer(3, [(0, 1, 1), (1, 2, 1)])
    return layer1, layer2
