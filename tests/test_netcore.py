import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oplex.netcore import (
    Csr,
    EdgeListError,
    MAX_NODES,
    GeneratorSpec,
    LayerGraph,
    _choice_without_replacement,
    build_layer,
    generate,
    load_edge_list,
    load_two_layer_dataset,
)
from oplex.spectral import _symmetrized
from oplex.stochastic import transition_matrix

DATA = Path(__file__).parent / "data"


class TestBuildLayer:
    def test_weighted_triangle_degrees(self):
        layer = build_layer(3, [(0, 1, 2), (0, 2, 1), (1, 2, 1)])
        assert np.allclose(layer.degrees, [3, 3, 2])
        assert layer.total_edge_weight == pytest.approx(4.0)

    def test_single_edge(self):
        layer = build_layer(2, [(0, 1, 5)])
        assert np.allclose(layer.degrees, [5, 5])
        assert layer.total_edge_weight == pytest.approx(5.0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_layer(3, [(0, 0, 1)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_layer(3, [(0, 1, 1), (1, 0, 2)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="non-positive"):
            build_layer(3, [(0, 1, 0.0)])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="outside"):
            build_layer(3, [(0, 3, 1)])

    @pytest.mark.parametrize("weight", [float("inf"), float("nan")])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match=r"edge \(1, 2\) has non-finite weight"):
            build_layer(3, [(0, 1, 1), (1, 2, weight)])

    def test_rejects_overflowing_degrees(self):
        with pytest.raises(ValueError, match="finite"):
            LayerGraph.from_weights(np.full((3, 3), 1e308) - np.diag(np.full(3, 1e308)))


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return n, [(i, j, w) for (i, j), w in zip(chosen, weights)]


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_layer_invariants(case):
    n, edges = case
    layer = build_layer(n, edges)
    assert np.array_equal(layer.weights, layer.weights.T)
    assert not np.diagonal(layer.weights).any()
    assert np.abs(layer.degrees - layer.weights.sum(axis=1)).max() <= 1e-12
    total = 0.5 * layer.degrees.sum()
    assert abs(layer.total_edge_weight - total) <= 1e-12 * max(1.0, total)


class TestGenerators:
    def test_circulant_matches_ring(self):
        layer = generate(GeneratorSpec(kind="circulant", n=5, offsets=(1, 4), weight=0.5))
        expected = np.zeros((5, 5))
        for i in range(5):
            expected[i, (i + 1) % 5] = 0.5
            expected[i, (i - 1) % 5] = 0.5
        assert np.array_equal(layer.weights, expected)

    def test_k_regular_degrees(self):
        # A perfect matching (k = 1), the complete graph (k = n - 1), odd n,
        # and both sides of the complement rule k > (n - 1) / 2. Without that
        # rule the pairing restarts for minutes at n = 100, k = 90.
        start = time.perf_counter()
        for n, k in [(100, 6), (10, 1), (10, 9), (9, 2), (9, 4), (9, 6), (100, 90)]:
            spec = GeneratorSpec(kind="k-regular", n=n, k=k, seed=42)
            layer = generate(spec)
            assert (layer.degrees == k).all(), (n, k)
            assert (layer.csr.data == 1.0).all(), (n, k)
            assert not (layer.csr.rows == layer.csr.indices).any(), (n, k)
            assert np.array_equal(generate(spec).weights, layer.weights), (n, k)
        assert time.perf_counter() - start < 1.0

    def test_k_regular_reproducible(self):
        spec = GeneratorSpec(kind="k-regular", n=60, k=8, seed=13)
        assert np.array_equal(generate(spec).weights, generate(spec).weights)

    def test_k_regular_infeasible(self):
        with pytest.raises(ValueError, match="odd"):
            GeneratorSpec(kind="k-regular", n=5, k=3)

    def test_erdos_renyi_reproducible_and_mean_degree(self):
        spec = GeneratorSpec(kind="erdos-renyi", n=100, p=10 / 99, seed=123)
        layer1 = generate(spec)
        layer2 = generate(spec)
        assert np.array_equal(layer1.weights, layer2.weights)
        assert abs(layer1.degrees.mean() - 10.0) < 1.5

    def test_barabasi_albert_structure(self):
        spec = GeneratorSpec(kind="barabasi-albert", n=50, m=3, seed=9)
        layer = generate(spec)
        again = generate(spec)
        assert np.array_equal(layer.weights, again.weights)
        # each attached node brings m new edges; the seed clique has m+1 nodes
        assert layer.total_edge_weight == pytest.approx(3 * 4 / 2 + 3 * (50 - 4))
        assert layer.degrees.min() >= 3

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.integers(1, 50).map(float), st.floats(1e-3, 1e3)),
            min_size=2,
            max_size=40,
        ),
        m=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_choice_without_replacement_is_generators_draw(self, weights, m, seed):
        # the Barabasi-Albert draw against Generator.choice itself: the same
        # picks in the same order, and the stream left in the same state
        w = np.array(weights)
        assume(np.count_nonzero(w) >= m)
        p = w / w.sum()
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = numpys.choice(p.shape[0], size=m, replace=False, p=p).tolist()
        assert _choice_without_replacement(ours, p.copy(), m) == expected
        assert ours.random() == numpys.random()

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="erdos-renyi", n=10, p=0.0)
        with pytest.raises(ValueError):
            GeneratorSpec(kind="barabasi-albert", n=10, m=10)
        with pytest.raises(ValueError):
            GeneratorSpec(kind="circulant", n=5, offsets=(5,))
        with pytest.raises(ValueError):
            GeneratorSpec(kind="mystery", n=5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "erdos-renyi", "n": 10.5, "p": 0.5}, "n must be an integer"),
            ({"kind": "barabasi-albert", "n": 10, "m": 2.5}, "m must be an integer"),
            ({"kind": "k-regular", "n": 10, "k": True}, "k must be an integer"),
            ({"kind": "erdos-renyi", "n": 10, "p": 0.5, "seed": "x"}, "seed must be an integer"),
            ({"kind": "erdos-renyi", "n": 10, "p": 0.5, "seed": -3}, "seed must be >= 0"),
            ({"kind": "circulant", "n": 5, "offsets": [1.5]}, "offsets must be integers"),
            ({"kind": "circulant", "n": 5, "offsets": [1], "weight": float("inf")}, "finite"),
            ({"kind": "k-regular", "n": 10, "k": 2, "p": float("nan")}, "p must be finite"),
            # and fields of the right type but out of range, or unknown
            ({"kind": "k-regular", "n": 6, "k": 6}, "^k-regular requires 0 < k < n$"),
            ({"kind": "circulant", "n": 5, "offsets": []}, "^circulant requires a nonempty offset set$"),
            (
                {"kind": "circulant", "n": 5, "offsets": [1], "weight": 0.0},
                "^circulant edge weight must be positive$",
            ),
            (
                {"kind": "circulant", "n": 5, "offsets": [1], "degree": 2},
                r"^unknown generator fields \['degree'\]$",
            ),
            ({"kind": "circulant", "n": 0, "offsets": [1]}, "^node count must be positive$"),
        ],
        ids=[
            "float-n",
            "float-m",
            "bool-k",
            "string-seed",
            "negative-seed",
            "float-offset",
            "infinite-weight",
            "nan-p",
            "k-at-n",
            "no-offsets",
            "zero-weight",
            "unknown-field",
            "no-nodes",
        ],
    )
    def test_non_integer_or_negative_fields_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            GeneratorSpec.from_dict(fields)

    def test_node_count_cap(self):
        # Rejected at construction, before any array is sized by n.
        GeneratorSpec(kind="circulant", n=MAX_NODES, offsets=(1,))
        with pytest.raises(ValueError, match=f"node count {MAX_NODES + 1} exceeds"):
            GeneratorSpec(kind="circulant", n=MAX_NODES + 1, offsets=(1,))
        with pytest.raises(ValueError, match="node count 100000000 exceeds"):
            GeneratorSpec(kind="erdos-renyi", n=10**8, p=0.5, seed=1)
        with pytest.raises(ValueError, match="node count 99999999999 exceeds"):
            build_layer(99999999999, [(0, 1, 1.0)])

    def test_erdos_renyi_draw_cap(self):
        # 70000 nodes are under the node cap but have 2449965000 pairs, one
        # uniform each; 65536 nodes have 2147450880, just under 2^31.
        GeneratorSpec(kind="erdos-renyi", n=65536, p=0.5)
        with pytest.raises(ValueError, match="erdos-renyi on 70000 nodes .* 2449965000"):
            GeneratorSpec(kind="erdos-renyi", n=70000, p=0.5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"kind": "k-regular", "n": 10**6, "k": 999998},
                "k-regular on 1000000 nodes at k = 999998 masks every node pair, 499999500000",
            ),
            (
                {"kind": "barabasi-albert", "n": 10**6, "m": 5},
                "barabasi-albert on 1000000 nodes .* 499999500000",
            ),
            (
                {"kind": "circulant", "n": 10**6, "offsets": list(range(1, 5000))},
                "circulant on 1000000 nodes .* 4999000000",
            ),
        ],
        ids=["k-regular-complement", "barabasi-albert", "circulant"],
    )
    def test_generator_work_cap(self, fields, message):
        # Each spec is within the node cap but asks for more than 2^31 units
        # of work (the n x n complement mask alone would take 931 GiB); it is
        # refused at construction, and nothing is generated.
        with pytest.raises(ValueError, match=message):
            GeneratorSpec.from_dict(fields)

    def test_generator_work_cap_counts_what_each_kind_does(self):
        # Under the cap: 2000 stubs per node; 65536 nodes' degree sums; and
        # offsets 1 and n - 1, one distance, so n edges once.
        GeneratorSpec(kind="k-regular", n=10**6, k=2000)
        GeneratorSpec(kind="barabasi-albert", n=65536, m=5)
        GeneratorSpec(kind="circulant", n=10**6, offsets=(1, 10**6 - 1) * 3000)
        with pytest.raises(ValueError, match="pairs k stubs per node, 2148000000"):
            GeneratorSpec(kind="k-regular", n=10**6, k=2148)
        with pytest.raises(ValueError, match="barabasi-albert on 65537 nodes"):
            GeneratorSpec(kind="barabasi-albert", n=65537, m=5)

    def test_spec_dict_round_trip(self):
        spec = GeneratorSpec(kind="circulant", n=5, offsets=(2, 3), weight=0.5)
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec


class TestEdgeListLoading:
    def test_single_unit_edge(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("0 1 1\n")
        layer = load_edge_list(f, n=2)
        assert layer.weights[0, 1] == 1.0

    def test_one_based_indexing(self):
        layer = load_edge_list(DATA / "one_based_layer.txt", n=2, indexing="1-based")
        assert layer.weights[0, 1] == 3.0

    def test_unknown_indexing_rejected(self):
        with pytest.raises(ValueError, match="^indexing must be '0-based' or '1-based', got '2-based'$"):
            load_edge_list(DATA / "one_based_layer.txt", n=2, indexing="2-based")

    def test_comments_and_blank_lines(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("# header\n\n0 1 2\n")
        assert load_edge_list(f, n=2).weights[0, 1] == 2.0

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("0 1 1\n0 2\n")
        with pytest.raises(EdgeListError, match=r":2"):
            load_edge_list(f, n=3)

    def test_out_of_range_reports_number(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("0 9 1\n")
        with pytest.raises(EdgeListError, match=r":1"):
            load_edge_list(f, n=3)

    def test_weight_outside_declared_set(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("0 1 7\n")
        with pytest.raises(EdgeListError, match="allowed set"):
            load_edge_list(f, n=2, allowed_weights=(1.0, 2.0))

    def test_two_layer_dataset_contract(self):
        layer_a, layer_b = load_two_layer_dataset(
            DATA / "contact_layer_a.txt", DATA / "contact_layer_b.txt", n=8
        )
        assert layer_a.n == layer_b.n == 8
        assert set(np.unique(layer_a.weights)) <= {0.0, 1.0}
        assert set(np.unique(layer_b.weights)) <= {0.0, 1.0, 2.0, 3.0, 4.0}

    def test_two_layer_dataset_rejects_bad_a_weight(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 1 2\n")
        b.write_text("0 1 1\n")
        with pytest.raises(EdgeListError, match="allowed set"):
            load_two_layer_dataset(a, b, n=2)


def edge_list_digest(layer: LayerGraph) -> str:
    """SHA-256 of the layer's sorted (i, j, w) edge list, i < j, weights by repr."""
    w = layer.weights
    rows, cols = np.nonzero(np.triu(w))
    text = "".join(f"{i} {j} {w[i, j]!r}\n" for i, j in zip(rows.tolist(), cols.tolist()))
    return hashlib.sha256(text.encode()).hexdigest()


def write_seeded_dataset(tmp_path: Path, seed: int, n: int = 60) -> tuple[Path, Path]:
    """A two-layer contact dataset: random pairs, B's weights drawn from 1..4."""
    rng = np.random.default_rng(seed)
    paths = []
    for name, top in (("a", 1), ("b", 4)):
        pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(3 * n, 2)).tolist()}
        lines = [f"{i} {j} {int(rng.integers(1, top + 1))}\n" for i, j in sorted(pairs) if i != j]
        path = tmp_path / f"layer_{name}_{seed}.txt"
        path.write_text("".join(lines))
        paths.append(path)
    return paths[0], paths[1]


# Edge-list digests recorded from the dense generators. The experiment
# references downstream are keyed on these graphs, so every generator and
# the loader must keep drawing exactly them.
PINNED_GENERATORS = {
    "er-1000-s1": (
        dict(kind="erdos-renyi", n=1000, p=0.01, seed=1),
        "72f055714f6824518ac53e95cc6d27dad22f774683fd6627d8e8127ce1b6661f",
    ),
    "er-1000-s2": (
        dict(kind="erdos-renyi", n=1000, p=0.01, seed=2),
        "3bdf53fab851df12538b52613c5e126ec98894aed847d7da79d3423584e6d907",
    ),
    "ba-1000-s1": (
        dict(kind="barabasi-albert", n=1000, m=5, seed=1),
        "9d00f5717c991241ec441933d58fd31584a21d70a540dd670faae319039398cd",
    ),
    "ba-1000-s2": (
        dict(kind="barabasi-albert", n=1000, m=5, seed=2),
        "8fc477542260a9af6113ab2aaf1e7e6797635101c43776a7b3d11f48e8efc6fb",
    ),
    # m close to n: most nodes redraw some targets, so these pin the
    # duplicate-retry path of the without-replacement draw
    "ba-12-m6-s1": (
        dict(kind="barabasi-albert", n=12, m=6, seed=1),
        "9c32c9e2cb132fb1f1252658d9de823b740756faf016f44d099379a3b0d2a81f",
    ),
    "ba-12-m6-s2": (
        dict(kind="barabasi-albert", n=12, m=6, seed=2),
        "9cf140b4991df6f7b1959f6b8c28eba9feb1a034a7aaefb70605c62f404c60e0",
    ),
    "ba-20-m10-s1": (
        dict(kind="barabasi-albert", n=20, m=10, seed=1),
        "3405a255c56afb3a066b264203cec9c302bf8cb94d66e8af8b712bd7aa05e1a4",
    ),
    "ba-20-m10-s2": (
        dict(kind="barabasi-albert", n=20, m=10, seed=2),
        "347f2415aba6c4e647804b94cfcad86c4bed32b74513270f8a08838db920bdae",
    ),
    "ba-30-m5-s1": (
        dict(kind="barabasi-albert", n=30, m=5, seed=1),
        "df95da726badad6a79bc40357c4c5ea4c0e6b5b7700ba8cecf070cba017e3a0b",
    ),
    "ba-30-m5-s2": (
        dict(kind="barabasi-albert", n=30, m=5, seed=2),
        "1b569e5d080dbb8017c8584489a87921ad18deb700342557ed942df24aa93f32",
    ),
    "circulant-1000": (
        dict(kind="circulant", n=1000, offsets=[1, 2], weight=1.0),
        "5f987885b40301cf2e250010493a28391fdb9369c86a26d55fc834cae19c2748",
    ),
    "circulant-7": (
        dict(kind="circulant", n=7, offsets=[1, 3, 4, -2], weight=0.5),
        "64656f734a4d51d82c70534ac9b31f823a6164eae9d316922691a2c20bdf7c90",
    ),
    "circulant-8-half": (
        dict(kind="circulant", n=8, offsets=[4, 2, 6, 12], weight=2.5),
        "c11dac28dd4414f242c3544865483269152ccb4344d62d7be3b819b8f4416dbb",
    ),
    "k-regular-200-s1": (
        dict(kind="k-regular", n=200, k=6, seed=1),
        "8d945f77f4ed769db8681b50008610f1b0f5e18f27712b869390c3d0abef2a78",
    ),
    "k-regular-200-s2": (
        dict(kind="k-regular", n=200, k=6, seed=2),
        "981de6de905da1ec1a67dc8adf910c26820abfb9f2c3db71700fa82761755ba3",
    ),
}
PINNED_DATASETS = {
    "contact": [
        "83e2cb78c7dd69470ee8f24883f803f94a30ab74c57d5b2cd160310c5784d9d2",
        "f6de2d9e5172af8b5fa3e2b9fd07bc09337e937f954e313a197f885b866d65ec",
    ],
    "seed-1": [
        "6e8496bd8646230f493f2ba6e2dabcbfd3e3f8903133b5819c5024a7c7341b53",
        "6968f2f61bcdd58b4dd11f0517c67cf878d6aa908c2838978821b932aeb5e7c4",
    ],
    "seed-2": [
        "0c4a89f8c9176d01fafa7b32f9f6c4bbfbc8c2d2c91c277327588749795233ff",
        "b32c2563fd5d410265e99d5186d6e7427af6b9da1762168dbec99d5f4b6b43f4",
    ],
}


class TestPinnedGenerators:
    @pytest.mark.parametrize("name", sorted(PINNED_GENERATORS))
    def test_generator_draws_the_pinned_graph(self, name):
        fields, digest = PINNED_GENERATORS[name]
        assert edge_list_digest(generate(GeneratorSpec.from_dict(fields))) == digest

    @pytest.mark.parametrize("name", sorted(PINNED_DATASETS))
    def test_loader_reads_the_pinned_graph(self, name, tmp_path):
        if name == "contact":
            paths, n = (DATA / "contact_layer_a.txt", DATA / "contact_layer_b.txt"), 8
        else:
            paths, n = write_seeded_dataset(tmp_path, int(name[-1])), 60
        layers = load_two_layer_dataset(*paths, n=n)
        assert [edge_list_digest(layer) for layer in layers] == PINNED_DATASETS[name]


@st.composite
def symmetric_weights(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    upper = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1e300)),
            min_size=n * n,
            max_size=n * n,
        )
    )
    w = np.triu(np.array(upper).reshape(n, n), k=1)
    return w + w.T


@given(symmetric_weights())
@settings(max_examples=100, deadline=None)
def test_from_weights_round_trips(w):
    assert np.array_equal(LayerGraph.from_weights(w).weights, w)


class TestLayerChecks:
    @pytest.mark.parametrize(
        "w, message",
        [
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], "exactly symmetric"),
            ([[0, 1, 2], [1, 0, 1], [2.5, 1, 0]], "exactly symmetric"),
            ([[1, 1, 0], [1, 0, 1], [0, 1, 0]], "self-loops"),
            ([[0, -1, 2], [-1, 0, 1], [2, 1, 0]], "nonnegative"),
            ([[0, 1], [1, 0], [0, 0]], "square"),
        ],
        ids=["pattern", "values", "diagonal", "negative", "shape"],
    )
    def test_rejects(self, w, message):
        with pytest.raises(ValueError, match=message):
            LayerGraph.from_weights(np.array(w, dtype=float))


@st.composite
def square_arrays(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    cells = draw(
        st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]), min_size=n * n, max_size=n * n)
    )
    return np.array(cells).reshape(n, n)


@given(square_arrays())
@settings(max_examples=150, deadline=None)
def test_csr_round_trip_and_mirror(a):
    csr = Csr.from_dense(a)
    assert np.array_equal(csr.dense(), a)
    assert not (csr.data == 0).any()
    assert (np.diff(csr.keys()) > 0).all()
    mirror = csr.transpose_positions()
    if (a != 0).tolist() == (a.T != 0).tolist():
        assert np.array_equal(csr.rows[mirror], csr.indices)
        assert np.array_equal(csr.indices[mirror], csr.rows)
    else:
        assert mirror is None


@pytest.mark.parametrize(
    "spec, dense, tol",
    [
        (dict(kind="circulant", n=12, offsets=(1,)), True, 1e-12),
        (dict(kind="circulant", n=300, offsets=(1, 2)), False, 2e-12),
        (dict(kind="circulant", n=300, offsets=tuple(range(1, 150))), True, 149e-12),
        (dict(kind="barabasi-albert", n=300, m=3, seed=1), False, 1e-12),
    ],
    ids=["small", "sparse", "full", "irregular"],
)
def test_both_product_kernels_match_the_dense_product(spec, dense, tol):
    # "sparse" is row-regular and takes the slab kernel, "irregular" reduceat.
    # A circulant's bound is 1e-12 per offset.
    csr = generate(GeneratorSpec(**spec)).csr
    n = csr.n
    assert (csr.matvec_cost() == n * n) == dense
    x = np.random.default_rng(n).random(n)
    expected = csr.dense() @ x
    apply = csr.matvec_kernel()
    out = np.empty(n)
    assert apply(x, out=out) is out
    assert np.abs(out - expected).max() <= tol
    assert np.abs(apply(x) - expected).max() <= tol


def reduceat_product(csr, x):
    return np.add.reduceat(csr.data * x[csr.indices], csr.indptr[:-1])


def bits(v):
    return v.view(np.uint64)


def signed_vector(rng, n):
    """Signed entries over 30 decades, with +0.0 and -0.0 among them, so
    that sums taken in another order round differently."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-15, 15, n)
    x[rng.choice(n, n // 5, replace=False)] = 0.0
    x[rng.choice(n, n // 5, replace=False)] = -0.0
    return x


def row_regular_matrices(spec):
    """A layer's weights, its transition matrix and its S, then its pattern
    holding signed values over 20 decades."""
    layer = generate(GeneratorSpec(**spec))
    w = layer.csr
    rng = np.random.default_rng(w.nnz)
    signed = rng.standard_normal(w.nnz) * 10.0 ** rng.integers(-10, 10, w.nnz)
    return [w, transition_matrix(layer).csr, _symmetrized(layer), w.with_data(signed)]


ROW_REGULAR = {
    "circulant-1": dict(kind="circulant", n=300, offsets=(1,)),
    "circulant-2": dict(kind="circulant", n=300, offsets=(1, 2)),
    "circulant-3": dict(kind="circulant", n=300, offsets=(1, 5, 40)),
    "circulant-4": dict(kind="circulant", n=300, offsets=(1, 2, 3, 4)),
    "k-regular-3": dict(kind="k-regular", n=300, k=3, seed=4),
    "k-regular-5": dict(kind="k-regular", n=300, k=5, seed=5),
}


class TestSlabKernel:
    """Row-regular patterns of 2 to 8 entries a row take the slab kernel,
    which must give np.add.reduceat's floats bit for bit."""

    @pytest.mark.parametrize("spec", ROW_REGULAR.values(), ids=ROW_REGULAR.keys())
    def test_matches_reduceat_bit_for_bit(self, spec):
        rng = np.random.default_rng(7)
        for csr in row_regular_matrices(spec):
            counts = np.diff(csr.indptr)
            assert 2 <= counts.min() == counts.max() <= 8 and csr.matvec_cost() < csr.n**2
            apply = csr.matvec_kernel()
            for _ in range(5):
                x = signed_vector(rng, csr.n)
                assert np.array_equal(bits(apply(x)), bits(reduceat_product(csr, x)))

    @pytest.mark.parametrize("spec", ROW_REGULAR.values(), ids=ROW_REGULAR.keys())
    def test_returns_out_or_a_new_array(self, spec):
        csr = generate(GeneratorSpec(**spec)).csr
        apply = csr.matvec_kernel()
        x = signed_vector(np.random.default_rng(8), csr.n)
        out = np.empty(csr.n)
        assert apply(x, out=out) is out
        first = apply(x)
        kept = first.copy()
        second = apply(-x)
        assert not np.shares_memory(first, second)
        assert np.array_equal(bits(first), bits(kept))
        assert np.array_equal(bits(out), bits(kept))

    @pytest.mark.parametrize("spec", ROW_REGULAR.values(), ids=ROW_REGULAR.keys())
    def test_chained_products_match_chained_reduceat(self, spec):
        # x = apply(x) feeds each result back in, as the switching apply does.
        csr = transition_matrix(generate(GeneratorSpec(**spec))).csr
        apply = csr.matvec_kernel()
        x = y = signed_vector(np.random.default_rng(9), csr.n)
        for _ in range(50):
            x = apply(x)
            y = reduceat_product(csr, y)
        assert np.array_equal(bits(x), bits(y))

    @pytest.mark.parametrize(
        "spec",
        [
            dict(kind="circulant", n=300, offsets=(150,)),
            dict(kind="circulant", n=300, offsets=(1, 2, 3, 4, 150)),
            dict(kind="k-regular", n=300, k=9, seed=6),
            dict(kind="barabasi-albert", n=300, m=3, seed=1),
        ],
        ids=["circulant-1", "circulant-9", "k-regular-9", "irregular"],
    )
    def test_other_rows_keep_reduceat(self, spec):
        # One entry a row needs no sum. From 9 entries on, reduceat sums a
        # row's tail pairwise, which the sequential slab order does not
        # reproduce: the kernel must match reduceat on inputs where that
        # order would not.
        layer = generate(GeneratorSpec(**spec))
        rng = np.random.default_rng(10)
        for csr in (layer.csr, transition_matrix(layer).csr, _symmetrized(layer)):
            apply = csr.matvec_kernel()
            x = signed_vector(rng, csr.n)
            assert np.array_equal(bits(apply(x)), bits(reduceat_product(csr, x)))
            counts = np.diff(csr.indptr)
            if counts.min() == counts.max() == 9:
                p = (csr.data * x[csr.indices]).reshape(csr.n, 9)
                tail = p[:, 1].copy()
                for j in range(2, 9):
                    tail += p[:, j]
                assert not np.array_equal(bits(p[:, 0] + tail), bits(apply(x)))
