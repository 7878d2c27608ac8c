"""Config-driven experiment runner: sweeps, CSV reports, JSON summary.

A config declares the model (single layer, merged over an alpha grid, or
switching over a k grid), how to obtain the two layers (generators or a
two-layer dataset), the initial opinions, and stopping parameters. Each
grid point takes its model's verdict (bounds, predicted consensus, note
and armed checks) from merged.analyze or switching.analyze, the same one
`oplex analyze` reports, then simulates a trajectory and arms the checks
on it; grid points that reach no consensus, or where a node is isolated,
are recorded with a note, not fatal. All output is deterministic for a
fixed config (17-significant-digit floats, no timestamps), so reruns are
byte-identical.
"""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .merged import analyze as analyze_merged
from .merged import MergedModel
from .netcore import (
    GeneratorSpec,
    IsolatedNodeError,
    LayerGraph,
    check_node_count,
    generate,
    is_integer,
    is_number,
    load_two_layer_dataset,
)
from .simlab import DEFAULT_T_MAX, DEFAULT_TOL, OpinionTrajectory, decay_check, fit_rate, simulate
from .spectral import slem_reversible
from .stochastic import (
    StationaryDistribution,
    TransitionMatrix,
    consensus_value,
    is_primitive,
    stationary_from_degrees,
    transition_matrix,
)
from .switching import analyze as analyze_switching
from .switching import SwitchingModel

SWEEP_COLUMNS = [
    "grid_kind",
    "grid_value",
    "slem",
    "bound_lower",
    "bound_upper",
    "bound_armed",
    "consensus",
    "interval_lo",
    "interval_hi",
    "empirical_rate",
    "converged",
    "assertions_pass",
    "note",
]

_RATE_SLACK = 1e-6
_AGREEMENT_TOL = 1e-7
_FIT_FLOOR = 1e-13
_WRITE_FIELDS = 2**14


class ConfigError(ValueError):
    """Invalid experiment config; message carries the offending field path."""


class XZeroSpec(NamedTuple):
    kind: str  # uniform | explicit | uniform-with-overrides
    seed: int | None = None
    values: tuple[float, ...] | None = None
    nodes: tuple[int, ...] | None = None
    value: float | None = None


class DatasetSpec(NamedTuple):
    path_a: str
    path_b: str
    n: int
    indexing: str = "0-based"


class ExperimentConfig(NamedTuple):
    model_kind: str  # single | merged | switching
    alphas: tuple[float, ...] | None
    ks: tuple[int, ...] | None
    layer_specs: tuple[GeneratorSpec, ...] | None
    dataset: DatasetSpec | None
    x0: XZeroSpec
    t_max: int
    tol: float
    outputs: tuple[str, ...]
    record_opinions: bool
    raw: dict


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        _fail("<root>", "config must be a JSON object")
    model = raw.get("model")
    if not isinstance(model, dict) or "kind" not in model:
        _fail("model", "must be an object with a 'kind' field")
    kind = model["kind"]
    alphas = ks = None
    if kind == "merged":
        grid = model.get("alphas")
        if not isinstance(grid, list) or not grid:
            _fail("model.alphas", "must be a nonempty list")
        for i, a in enumerate(grid):
            if not is_number(a) or not (0 <= a <= 1):
                _fail(f"model.alphas[{i}]", "must be a number in [0, 1]")
        alphas = tuple(float(a) for a in grid)
    elif kind == "switching":
        grid = model.get("ks")
        if not isinstance(grid, list) or not grid:
            _fail("model.ks", "must be a nonempty list")
        for i, k in enumerate(grid):
            if not is_integer(k) or k < 0:
                _fail(f"model.ks[{i}]", "must be an integer >= 0")
        ks = tuple(int(k) for k in grid)
    elif kind != "single":
        _fail("model.kind", f"unknown model kind {kind!r}")

    layers = raw.get("layers")
    layer_specs = dataset = None
    if isinstance(layers, list):
        expected = 1 if kind == "single" else 2
        if len(layers) != expected:
            _fail("layers", f"{kind} model needs exactly {expected} layer spec(s)")
        specs = []
        for i, entry in enumerate(layers):
            try:
                specs.append(GeneratorSpec.from_dict(entry))
            except (TypeError, ValueError) as exc:
                _fail(f"layers[{i}]", str(exc))
        if len({spec.n for spec in specs}) > 1:
            _fail("layers", "both layers must have the same node count n")
        layer_specs = tuple(specs)
    elif isinstance(layers, dict) and layers.get("kind") == "two-layer-dataset":
        if kind == "single":
            _fail("layers", "dataset input provides two layers; model is single")
        for need in ("path_a", "path_b", "n"):
            if need not in layers:
                _fail(f"layers.{need}", "required for two-layer-dataset")
        if not is_integer(layers["n"]) or layers["n"] < 1:
            _fail("layers.n", "must be an integer >= 1")
        try:
            check_node_count(layers["n"])
        except ValueError as exc:
            _fail("layers.n", str(exc))
        indexing = layers.get("indexing", "0-based")
        if indexing not in ("0-based", "1-based"):
            _fail("layers.indexing", "must be '0-based' or '1-based'")
        dataset = DatasetSpec(
            path_a=str(layers["path_a"]),
            path_b=str(layers["path_b"]),
            n=int(layers["n"]),
            indexing=indexing,
        )
    else:
        _fail("layers", "must be a list of generator specs or a two-layer-dataset object")

    x0_raw = raw.get("x0")
    if not isinstance(x0_raw, dict) or "kind" not in x0_raw:
        _fail("x0", "must be an object with a 'kind' field")
    x0_kind = x0_raw["kind"]
    if x0_kind in ("uniform", "uniform-with-overrides"):
        seed = x0_raw.get("seed")
        if not is_integer(seed) or seed < 0:
            _fail("x0.seed", "uniform initial opinions require an integer seed >= 0")
    if x0_kind == "uniform":
        x0 = XZeroSpec(kind="uniform", seed=seed)
    elif x0_kind == "explicit":
        values = x0_raw.get("values")
        if not isinstance(values, list) or not values:
            _fail("x0.values", "must be a nonempty list")
        for i, v in enumerate(values):
            if not is_number(v) or not (0 <= v <= 1):
                _fail(f"x0.values[{i}]", "must be a number in [0, 1]")
        x0 = XZeroSpec(kind="explicit", values=tuple(float(v) for v in values))
    elif x0_kind == "uniform-with-overrides":
        nodes = x0_raw.get("nodes")
        if not isinstance(nodes, list) or not all(is_integer(v) for v in nodes):
            _fail("x0.nodes", "must be a list of node indices")
        value = x0_raw.get("value")
        if not is_number(value) or not (0 <= value <= 1):
            _fail("x0.value", "override value must be a number in [0, 1]")
        x0 = XZeroSpec(
            kind="uniform-with-overrides",
            seed=seed,
            nodes=tuple(int(v) for v in nodes),
            value=float(value),
        )
    else:
        _fail("x0.kind", f"unknown initial-opinion kind {x0_kind!r}")

    t_max = raw.get("t_max", DEFAULT_T_MAX)
    if not is_integer(t_max) or t_max < 1:
        _fail("t_max", "must be an integer >= 1")
    tol = raw.get("tol", DEFAULT_TOL)
    if not is_number(tol) or not 0 < tol <= sys.float_info.max:
        _fail("tol", "must be a positive finite number")
    outputs = raw.get("outputs", ["sweep", "trajectories", "summary"])
    if not isinstance(outputs, list) or not outputs:
        _fail("outputs", "must be a nonempty list")
    for i, o in enumerate(outputs):
        if o not in ("sweep", "trajectories", "summary"):
            _fail(f"outputs[{i}]", f"unknown report kind {o!r}")
    record_opinions = raw.get("record_opinions", False)
    if not isinstance(record_opinions, bool):
        _fail("record_opinions", "must be a boolean")

    return ExperimentConfig(
        model_kind=kind,
        alphas=alphas,
        ks=ks,
        layer_specs=layer_specs,
        dataset=dataset,
        x0=x0,
        t_max=int(t_max),
        tol=float(tol),
        outputs=tuple(outputs),
        record_opinions=record_opinions,
        raw=raw,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    import json

    with Path(path).open() as fh:
        return parse_config(json.load(fh))


def config_hash(raw: dict) -> str:
    import hashlib
    import json

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def build_layers(config: ExperimentConfig) -> list[LayerGraph]:
    if config.dataset is not None:
        d = config.dataset
        return list(load_two_layer_dataset(d.path_a, d.path_b, d.n, d.indexing))
    layers = []
    for i, spec in enumerate(config.layer_specs):
        try:
            layers.append(generate(spec))
        except ValueError as exc:  # e.g. weights whose degrees overflow
            raise ConfigError(f"layers[{i}]: {exc}") from exc
    return layers


def resolve_x0(config: ExperimentConfig, n: int) -> np.ndarray:
    spec = config.x0
    if spec.kind == "explicit":
        x = np.asarray(spec.values, dtype=float)
        if x.shape != (n,):
            raise ConfigError(f"x0.values: has length {x.shape[0]}, layers have n={n}")
        return x
    x = np.random.default_rng(spec.seed).random(n)
    if spec.kind == "uniform-with-overrides":
        for node in spec.nodes:
            if not (0 <= node < n):
                raise ConfigError(f"x0.nodes: index {node} out of range for n={n}")
            x[node] = spec.value
    return x


class GridPointResult(NamedTuple):
    row: dict
    assertions: dict[str, bool]
    trajectory: OpinionTrajectory | None


class ExperimentResult(NamedTuple):
    all_passed: bool
    summary: dict
    rows: list[dict]
    out_dir: Path | None


class _GridModel(NamedTuple):
    """What one model kind supplies for a grid point; _grid_point does the rest.

    columns fills the model's sweep columns (slem, bounds, consensus,
    interval, note) and assertions holds its own armed checks. The error
    series rate_errors(trajectory), transients already dropped, is fitted to
    a rate that must stay under rate_bound. decay_rho arms the decay law.
    """

    columns: dict
    assertions: dict[str, bool]
    schedule: tuple[TransitionMatrix, ...]
    pi: StationaryDistribution | None
    rate_bound: float
    rate_errors: Callable[[OpinionTrajectory], np.ndarray] = lambda traj: traj.errors_pi[5:]
    decay_rho: float | None = None


def _merged_model(layers, alpha, x0) -> _GridModel:
    model = MergedModel(layers[0], layers[1], alpha)
    outcome = analyze_merged(model, x0)
    bounds = outcome.bounds
    lo, hi = outcome.interval or (None, None)
    columns = dict(
        slem=bounds.slem_c,
        bound_lower=bounds.lower_bound,
        bound_upper=bounds.upper_bound,
        bound_armed=bounds.degrees_matched,
        consensus=outcome.value,
        interval_lo=lo,
        interval_hi=hi,
        note=outcome.note,
    )
    return _GridModel(
        columns, outcome.checks(), (model.transition,), pi=outcome.pi, rate_bound=bounds.slem_c
    )


def _switching_model(layers, k, x0) -> _GridModel:
    model = SwitchingModel(layers[0], layers[1], k)
    schedule = model.schedule
    outcome = analyze_switching(model, x0)
    columns = dict(
        slem=outcome.slem_cycle,
        bound_upper=outcome.rho_star,
        bound_armed=True,
        consensus=outcome.value,
        note=outcome.note,
    )
    return _GridModel(
        columns,
        outcome.checks(),
        schedule,
        pi=outcome.pi,
        # The proved per-cycle decay bound is rho_star; the cycle SLEM is the
        # asymptotic rate but a finite-window fit may land slightly above it.
        rate_bound=outcome.rho_star,
        rate_errors=lambda traj: traj.errors_max[:: len(schedule)][2:],
    )


def _single_model(layer, x0) -> _GridModel:
    matrix = transition_matrix(layer)
    slem = slem_reversible(layer).slem
    consensus = pi = decay_rho = None
    note = ""
    if is_primitive(matrix):
        pi = stationary_from_degrees(layer)
        consensus = consensus_value(pi, x0)
        decay_rho = slem if slem < 1.0 else None
    else:
        note = "layer transition not primitive"
    columns = dict(slem=slem, bound_armed=False, consensus=consensus, note=note)
    return _GridModel(columns, {}, (matrix,), pi=pi, rate_bound=slem, decay_rho=decay_rho)


def _grid_point(grid_kind, grid_value, build, x0, config) -> GridPointResult:
    """Build one grid point's model, simulate it, and check it.

    A node isolated where the model needs a neighborhood makes a degenerate
    grid point: its row carries the error as the note and arms no assertion.
    """
    row = dict.fromkeys(SWEEP_COLUMNS)
    row.update(grid_kind=grid_kind, grid_value=grid_value)
    try:
        point = build()
    except IsolatedNodeError as exc:
        row.update(converged=False, assertions_pass=True, note=str(exc))
        return GridPointResult(row=row, assertions={}, trajectory=None)
    row.update(point.columns)
    consensus = row["consensus"]
    trajectory = simulate(
        point.schedule,
        x0,
        t_max=config.t_max,
        tol=config.tol,
        pi=point.pi,
        record_states=config.record_opinions and "trajectories" in config.outputs,
    )
    assertions = point.assertions
    empirical = None
    if consensus is not None:
        try:
            empirical = fit_rate(point.rate_errors(trajectory), floor=_FIT_FLOOR)
        except ValueError:
            pass  # too few errors above the floor to fit a rate
    if trajectory.converged and empirical is not None:
        assertions["empirical-rate"] = bool(empirical <= point.rate_bound + _RATE_SLACK)
    if point.decay_rho is not None:
        assertions["decay-law"] = decay_check(trajectory, point.decay_rho).passed
    if trajectory.converged and consensus is not None:
        assertions["simulation-agrees"] = bool(
            np.abs(trajectory.final_state - consensus).max() <= _AGREEMENT_TOL
        )
    row.update(
        empirical_rate=empirical,
        converged=trajectory.converged,
        assertions_pass=all(assertions.values()),
    )
    return GridPointResult(row=row, assertions=assertions, trajectory=trajectory)


def run_experiment(
    config: ExperimentConfig | dict, out_dir: str | Path | None = None
) -> ExperimentResult:
    if isinstance(config, dict):
        config = parse_config(config)
    # A report directory that cannot be made fails before any work is done.
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    layers = build_layers(config)
    n = layers[0].n
    x0 = resolve_x0(config, n)

    if config.model_kind == "merged":
        grid = [("alpha", a, partial(_merged_model, layers, a, x0)) for a in config.alphas]
    elif config.model_kind == "switching":
        grid = [("k", k, partial(_switching_model, layers, k, x0)) for k in config.ks]
    else:
        grid = [("single", 0, partial(_single_model, layers[0], x0))]
    points = [_grid_point(kind, value, build, x0, config) for kind, value, build in grid]

    all_passed = all(all(p.assertions.values()) for p in points)
    summary = {
        "config_hash": config_hash(config.raw),
        "model": config.model_kind,
        "n": n,
        "seeds": _collect_seeds(config),
        "grid": [
            {
                "grid_kind": p.row["grid_kind"],
                "grid_value": p.row["grid_value"],
                "converged": bool(p.row["converged"]),
                "note": p.row["note"],
                "assertions": {k: bool(v) for k, v in sorted(p.assertions.items())},
            }
            for p in points
        ],
        "all_passed": bool(all_passed),
    }

    if out_path is not None:
        if "sweep" in config.outputs:
            _write_sweep_csv(_unlinked(out_path / "sweep.csv"), points)
        if "trajectories" in config.outputs:
            for p in points:
                if p.trajectory is not None:
                    name = f"trajectory_{p.row['grid_kind']}_{p.row['grid_value']}.csv"
                    _write_trajectory_csv(_unlinked(out_path / name), p.trajectory, n)
        if "summary" in config.outputs:
            import json

            _unlinked(out_path / "summary.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
    return ExperimentResult(
        all_passed=all_passed, summary=summary, rows=[p.row for p in points], out_dir=out_path
    )


def _unlinked(path: Path) -> Path:
    """Remove a report left by an earlier run, so the write makes a new file.

    Truncating a file that holds data makes some file systems (ext4) flush
    it on close; a new file is written without that wait.
    """
    path.unlink(missing_ok=True)
    return path


def _collect_seeds(config: ExperimentConfig) -> dict:
    seeds: dict[str, Any] = {}
    if config.layer_specs is not None:
        for i, spec in enumerate(config.layer_specs):
            seeds[f"layer{i + 1}"] = spec.seed
    if config.x0.seed is not None:
        seeds["x0"] = config.x0.seed
    return seeds


def _write_trajectory_csv(path: Path, trajectory: OpinionTrajectory, n: int) -> None:
    """Write t, err_pi, err_max and, when recorded, x_0..x_{n-1} per step.

    The bytes are those of csv.writer on the _fmt of each value: no field
    needs quoting, so a row is one %-format of row_fmt. Rows go out in
    chunks of about _WRITE_FIELDS values, each chunk formatted by one %
    and written at once, so the text held at once stays small.
    """
    header = "t,err_pi,err_max"
    row_fmt = "%d"
    columns = []
    if trajectory.errors_pi is not None:
        row_fmt += ",%.17g,%.17g"
        columns += [trajectory.errors_pi[:, None], trajectory.errors_max[:, None]]
    else:
        row_fmt += ",,"
    if trajectory.states is not None:
        header += "".join(f",x_{i}" for i in range(n))
        row_fmt += ",%.17g" * n
        columns.append(trajectory.states)
    row_fmt += "\n"
    with path.open("w", newline="\n") as fh:
        fh.write(header + "\n")
        if not columns:
            return
        rows = trajectory.steps + 1
        chunk = max(1, _WRITE_FIELDS // (1 + sum(c.shape[1] for c in columns)))
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            # t rides along as a float column; %d prints its integer value.
            t = np.arange(start, stop, dtype=float)[:, None]
            values = np.hstack([t] + [c[start:stop] for c in columns])
            fh.write((row_fmt * (stop - start)) % tuple(values.ravel().tolist()))


def _write_sweep_csv(path: Path, points: Sequence[GridPointResult]) -> None:
    import csv

    rows = [SWEEP_COLUMNS]
    for p in points:
        rows.append([_fmt(p.row[c]) for c in SWEEP_COLUMNS])
    with path.open("w", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
