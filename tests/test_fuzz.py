"""Property tests over the text inputs: edge-list files, sweep configs and
`--x0` files.

Each edge-list file, text with now and then any bytes, either loads into
the layer that a plain-Python reading of the same lines builds, or raises
EdgeListError naming the line that the reference rejects. Each config dict
either parses or raises ConfigError. An `--x0` file is accepted exactly
where a config's explicit x0 of the same numbers is. On all such inputs `oplex analyze` and `oplex simulate` exit 0,
1 or 2 and print no traceback. The examples are derandomized, so a run is
repeatable.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oplex.cli import main
from oplex.harness import ConfigError, parse_config, resolve_x0
from oplex.netcore import EdgeListError, load_edge_list

DATA = Path(__file__).parent / "data"
CONTACT_B = [
    tuple(int(v) for v in line.split())
    for line in (DATA / "contact_layer_b.txt").read_text().splitlines()
    if line.strip() and not line.startswith("#")
]

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def mostly(valid, broken, odds: int = 19):
    """valid, or broken once in odds + 1 draws."""
    # Not r == 0: the generator favours bounds, and a shrink then makes the
    # value valid.
    return st.integers(0, odds).flatmap(lambda r: broken if r == 1 else valid)


# Broken tokens sit beside valid ones: off-by-one and far labels, labels
# past 64 bits, non-finite, zero, negative and subnormal weights.
LABELS = mostly(
    st.integers(0, 7),
    st.sampled_from([-1, 8, 9, "2" + "0" * 19, "-" + "9" * 19, "1_0", "x", "1.0"]),
    odds=9,
)
WEIGHTS = mostly(
    st.sampled_from(["1", "2", "3", "4", "0.5"]),
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e400", "1e-320", "w"]),
    odds=9,
)
EDGE_LINE = st.builds(lambda i, j, w: f"{i} {j} {w}", LABELS, LABELS, WEIGHTS)
OTHER_LINE = st.sampled_from(["", "   ", "# comment", "#0 0 1", "1 2", "1 2 1 1", "\t0\t1\t1"])
# A line of an edge-list file: mostly an edge or another text line, now and
# then any bytes; mostly ended by "\n", now and then by another line end that
# text mode reads, or by none.
LINE = st.tuples(
    mostly(mostly(EDGE_LINE, OTHER_LINE, odds=4).map(str.encode), st.binary(max_size=6)),
    mostly(st.just(b"\n"), st.sampled_from([b"\r\n", b"\r", b""]), odds=9),
)
FILE = st.lists(LINE, max_size=12).map(lambda lines: b"".join(a + b for a, b in lines))
ALLOWED = st.sampled_from([None, (1.0,), (1.0, 2.0, 3.0, 4.0)])


def reference_layer(data: bytes, n: int, base: int, allowed) -> np.ndarray | int:
    """The weight matrix that the file's lines describe, read one line at a
    time; else the number of the line that holds its first byte that is not
    UTF-8, or else of the first line that cannot be read, or else of the
    first edge line that breaks a rule."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return len(re.findall(rb"\r\n|\r|\n", data[: exc.start])) + 1
    edges = []
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            return lineno
        try:
            a, b, x = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            return lineno
        if max(abs(a), abs(b)) >= 2**63:
            return lineno  # a label must fit in 64 bits
        edges.append((lineno, a - base, b - base, x))
    weights = np.zeros((n, n))
    for lineno, a, b, x in edges:
        if not (0 <= a < n and 0 <= b < n) or a == b or weights[a, b] != 0:
            return lineno
        if not (math.isfinite(x) and x > 0) or (allowed is not None and x not in allowed):
            return lineno
        weights[a, b] = weights[b, a] = x
    return weights


@given(
    data=st.one_of(FILE, st.binary()),
    n=st.integers(1, 9),
    indexing=st.sampled_from(["0-based", "1-based"]),
    allowed=ALLOWED,
)
@FUZZ
def test_edge_list_loads_as_the_reference_reads_it(data, n, indexing, allowed):
    expected = reference_layer(data, n, 1 if indexing == "1-based" else 0, allowed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layer.txt"
        path.write_bytes(data)
        if isinstance(expected, int):
            with pytest.raises(EdgeListError, match=f"^{re.escape(str(path))}:{expected}: "):
                load_edge_list(path, n, indexing, allowed)
        else:
            layer = load_edge_list(path, n, indexing, allowed)
            assert np.array_equal(layer.weights, expected)


# Config values: each mostly valid and small, now and then of a wrong type,
# out of range or unknown.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([-1, 0, 10**30, 1.5, math.nan, math.inf, "x", [], {}, [1], {"a": 1}]),
)
SIZE = mostly(st.integers(3, 8), st.one_of(st.sampled_from([0, -3, 10**7, 10**400]), JUNK))


def grid(values):
    return st.lists(mostly(values, JUNK), min_size=1, max_size=3)


def of_kind(kind, optional=None, **fields):
    """A JSON object of the given kind with the given fields drawn."""
    return st.fixed_dictionaries({"kind": st.just(kind), **fields}, optional=optional)


MODEL = mostly(
    st.one_of(
        of_kind("merged", alphas=grid(st.sampled_from([0, 0.5]))),
        of_kind("switching", ks=grid(st.integers(0, 4))),
        of_kind("single"),
    ),
    st.one_of(
        st.fixed_dictionaries({"kind": JUNK}), JUNK, st.just({"kind": "merged", "alphas": []})
    ),
)


def generator(n):
    """A generator spec on n nodes, its parameters now and then broken."""
    seed = {"seed": mostly(st.integers(0, 3), JUNK)}
    p = mostly(st.sampled_from([0.5, 1.0]), JUNK)
    m_or_k = mostly(st.integers(1, 4), JUNK)
    offsets = mostly(st.lists(st.integers(-3, 8), min_size=1, max_size=3), JUNK)
    weight = {"weight": mostly(st.sampled_from([1.0, 0.5, 1e-320]), JUNK)}
    known = st.one_of(
        of_kind("erdos-renyi", seed, n=n, p=p),
        of_kind("barabasi-albert", seed, n=n, m=m_or_k),
        of_kind("k-regular", seed, n=n, k=m_or_k),
        of_kind("circulant", weight, n=n, offsets=offsets),
    )
    unknown = st.fixed_dictionaries({"kind": mostly(st.just("ring"), JUNK), "n": n, "colour": JUNK})
    return mostly(known, unknown)


CONTACT = [str(DATA / "contact_layer_a.txt"), str(DATA / "contact_layer_b.txt")]
DATASET = of_kind(
    "two-layer-dataset",
    {"indexing": mostly(st.sampled_from(["0-based", "1-based"]), JUNK)},
    path_a=mostly(st.just(CONTACT[0]), st.just(str(DATA / "none.txt"))),
    path_b=st.sampled_from(CONTACT[::-1]),
    n=mostly(st.integers(7, 9), SIZE),
)
X0 = mostly(
    st.one_of(
        of_kind("uniform", seed=mostly(st.integers(0, 3), JUNK)),
        of_kind("explicit", values=st.lists(mostly(st.floats(0, 1), JUNK), min_size=1)),
        of_kind(
            "uniform-with-overrides",
            seed=st.integers(0, 3),
            nodes=st.lists(mostly(st.integers(-1, 8), JUNK), max_size=3),
            value=mostly(st.sampled_from([0.0, 1.0]), JUNK),
        ),
    ),
    JUNK,
)


@st.composite
def configs(draw):
    """A sweep config whose layers mostly fit its model and share one n."""
    model = draw(MODEL)
    count = 1 if isinstance(model, dict) and model.get("kind") == "single" else 2
    n = draw(SIZE)
    specs = st.lists(mostly(generator(st.just(n)), generator(SIZE)), min_size=count, max_size=count)
    config = {
        "model": model,
        "layers": draw(mostly(specs if count == 1 else mostly(specs, DATASET, odds=2), JUNK)),
        "x0": draw(X0),
        # No huge t_max: a cycle that never converges would run all of it.
        "t_max": draw(mostly(st.sampled_from([1, 40]), st.sampled_from([0, -1, 1.5, "40", None]))),
    }
    outputs = st.lists(st.sampled_from(["sweep", "trajectories", "summary"]), min_size=1)
    optional = {
        "tol": mostly(st.sampled_from([1e-9, 1e-300]), JUNK),
        "outputs": mostly(outputs, JUNK),
        "record_opinions": mostly(st.booleans(), JUNK),
    }
    for name, values in optional.items():
        if draw(st.booleans()):
            config[name] = draw(values)
    return config


CONFIG = configs()


@given(config=st.one_of(CONFIG, JUNK))
@FUZZ
def test_config_parses_or_raises_config_error(config):
    try:
        parse_config(config)
    except ConfigError:
        pass


def run_cli(argv: list[str]) -> int:
    """main's exit code, with no exception and no traceback on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


@given(config=CONFIG)
@settings(FUZZ, max_examples=40)
def test_simulate_exits_0_1_or_2(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = ["simulate", "--config", str(path), "--out", str(Path(tmp) / "out")]
        assert run_cli(argv) in (0, 1, 2)


@given(
    extra=st.lists(LINE, max_size=3).map(lambda lines: [a + b for a, b in lines]),
    at=st.integers(0, 8),
    n_args=st.sampled_from([[], ["--n", "8"], ["--n", "9"]]),
    indexing=st.sampled_from(["0-based", "1-based"]),
    mode=st.sampled_from([["merged", "--alpha", "0.5"], ["switching", "--k", "1"]]),
)
@settings(FUZZ, max_examples=40)
def test_analyze_exits_0_1_or_2(extra, at, n_args, indexing, mode):
    # Layer 1 is the ring on the 8 nodes of layer 2 with the lines of extra
    # inserted, so a run reads both good and bad input.
    base = 1 if indexing == "1-based" else 0
    ring = [f"{i + base} {(i + 1) % 8 + base} 1\n".encode() for i in range(8)]
    with tempfile.TemporaryDirectory() as tmp:
        layer1 = Path(tmp) / "layer1.txt"
        layer1.write_bytes(b"".join(ring[:at] + extra + ring[at:]))
        layer2 = Path(tmp) / "layer2.txt"
        layer2.write_text("".join(f"{i + base} {j + base} {w}\n" for i, j, w in CONTACT_B))
        argv = ["analyze", "--layer1", str(layer1), "--layer2", str(layer2)]
        argv += ["--indexing", indexing, "--mode", *mode, *n_args]
        assert run_cli(argv) in (0, 1, 2)


# x0 file tokens: mostly numbers in [0, 1], now and then out of range,
# non-finite, not a number, or any text.
X0_TOKEN = mostly(
    st.one_of(st.sampled_from(["0", "1", ".5", "1e-3", "0_5"]), st.floats(0, 1).map(repr)),
    st.one_of(
        st.sampled_from(["-0.1", "-0.0", "1.5", "nan", "inf", "1e400", "1e-320", "half", "0x1"]),
        st.text(max_size=4),
    ),
)


def joined(min_size, max_size):
    """min_size to max_size tokens, between whitespace of one kind."""
    tokens = st.lists(X0_TOKEN, min_size=min_size, max_size=max_size)
    return st.builds(lambda t, sep: sep.join(t), tokens, st.sampled_from([" ", "\n", "\t", " \r\n"]))


# Mostly one token per node of the contact layers, now and then any count
# or any text.
X0_TEXT = mostly(joined(8, 8), st.one_of(joined(0, 9), st.text()), odds=2)


def reference_x0_accepted(text: str) -> bool:
    """Whether a config takes the numbers the text reads as for 8 nodes."""
    try:
        values = [float(token) for token in text.split()]
    except ValueError:
        return False
    config = {
        "model": {"kind": "merged", "alphas": [0.5]},
        "layers": {"kind": "two-layer-dataset", "path_a": CONTACT[0], "path_b": CONTACT[1], "n": 8},
        "x0": {"kind": "explicit", "values": values},
    }
    try:
        resolve_x0(parse_config(config), 8)
    except ConfigError:
        return False
    return True


@given(text=X0_TEXT)
@FUZZ
def test_x0_file_is_read_as_a_config_reads_its_numbers(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x0.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["analyze", "--layer1", CONTACT[0], "--layer2", CONTACT[1], "--n", "8"]
        code = run_cli(argv + ["--mode", "merged", "--alpha", "0.5", "--x0", str(path)])
    assert code in (0, 1, 2)
    assert (code != 2) == reference_x0_accepted(text)
