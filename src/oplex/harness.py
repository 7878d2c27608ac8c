"""Config-driven experiment runner: sweeps, CSV reports, JSON summary.

A config declares the model (single layer, merged over an alpha grid, or
switching over a k grid), how to obtain the two layers (generators or a
two-layer dataset), the initial opinions, and stopping parameters. Each
grid point takes its model's verdict (bounds, predicted consensus, note
and armed checks) from its outcome: merged.analyze_layer for a single
layer, merged.analyze or switching.analyze, the last two the same ones
`oplex analyze` reports under the same names (the outcome's fields()).
It then simulates a trajectory, arms the checks on it and writes its
trajectory file, so one grid point's trajectory is held at a time; grid
points that reach no consensus, or where a node is isolated, are recorded
with a note, not fatal. All output is deterministic for a fixed config
(17-significant-digit floats, no timestamps), so reruns are byte-identical.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .merged import analyze as analyze_merged
from .merged import LayerOutcome, MergedModel, MergedOutcome, analyze_layer
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
from .stochastic import TransitionMatrix, transition_matrix
from .switching import analyze as analyze_switching
from .switching import SwitchingModel, SwitchingOutcome

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
_WRITE_FIELDS = 2**14


class ConfigError(ValueError):
    """Invalid experiment config; message carries the offending field path."""


class XZeroSpec(NamedTuple):
    kind: str  # uniform | explicit | uniform-with-overrides
    seed: int | None = None
    values: tuple[float, ...] | None = None
    nodes: tuple[int, ...] | None = None
    value: float | None = None

    def vector(self, n: int) -> np.ndarray:
        """The initial opinions on n nodes; ConfigError where they do not fit n."""
        if self.kind == "explicit":
            x = np.asarray(self.values, dtype=float)
            if x.shape != (n,):
                raise ConfigError(f"x0.values: has length {x.shape[0]}, layers have n={n}")
            return x
        x = np.random.default_rng(self.seed).random(n)
        if self.kind == "uniform-with-overrides":
            for node in self.nodes:
                if not (0 <= node < n):
                    raise ConfigError(f"x0.nodes: index {node} out of range for n={n}")
                x[node] = self.value
        return x


class DatasetSpec(NamedTuple):
    path_a: str
    path_b: str
    n: int
    indexing: str = "0-based"


class ExperimentConfig(NamedTuple):
    model_kind: str  # single | merged | switching
    grid: tuple  # alphas, ks, or (0,) for a single layer
    layer_specs: tuple[GeneratorSpec, ...] | None
    dataset: DatasetSpec | None
    x0: XZeroSpec
    t_max: int
    tol: float
    outputs: tuple[str, ...]
    record_opinions: bool


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        _fail("<root>", "config must be a JSON object")
    model = raw.get("model")
    if not isinstance(model, dict) or "kind" not in model:
        _fail("model", "must be an object with a 'kind' field")
    kind = model["kind"]
    if not isinstance(kind, str) or kind not in _GRIDS:
        _fail("model.kind", f"unknown model kind {kind!r}")
    grid = (0,)
    if kind != "single":
        field = "alphas" if kind == "merged" else "ks"
        values = model.get(field)
        if not isinstance(values, list) or not values:
            _fail(f"model.{field}", "must be a nonempty list")
        for i, v in enumerate(values):
            if kind == "merged" and not (is_number(v) and 0 <= v <= 1):
                _fail(f"model.alphas[{i}]", "must be a number in [0, 1]")
            if kind == "switching" and not (is_integer(v) and v >= 0):
                _fail(f"model.ks[{i}]", "must be an integer >= 0")
        grid = tuple(float(v) if kind == "merged" else int(v) for v in values)
        # Each grid point writes its trajectory file under its value, so a
        # repeat (0 and 0.0 included) would overwrite an earlier point's.
        first = {}
        for i, v in enumerate(grid):
            if first.setdefault(v, i) != i:
                _fail(f"model.{field}[{i}]", f"repeats model.{field}[{first[v]}] ({v})")

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

    x0 = parse_x0(raw.get("x0"))
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
        grid=grid,
        layer_specs=layer_specs,
        dataset=dataset,
        x0=x0,
        t_max=int(t_max),
        tol=float(tol),
        outputs=tuple(outputs),
        record_opinions=record_opinions,
    )


def parse_x0(raw: object) -> XZeroSpec:
    """A config's x0 section, checked; ConfigError names the field at fault."""
    if not isinstance(raw, dict) or "kind" not in raw:
        _fail("x0", "must be an object with a 'kind' field")
    kind = raw["kind"]
    if kind in ("uniform", "uniform-with-overrides"):
        seed = raw.get("seed")
        if not is_integer(seed) or seed < 0:
            _fail("x0.seed", "uniform initial opinions require an integer seed >= 0")
    if kind == "uniform":
        return XZeroSpec(kind="uniform", seed=seed)
    if kind == "explicit":
        values = raw.get("values")
        if not isinstance(values, list) or not values:
            _fail("x0.values", "must be a nonempty list")
        for i, v in enumerate(values):
            if not is_number(v) or not (0 <= v <= 1):
                _fail(f"x0.values[{i}]", "must be a number in [0, 1]")
        return XZeroSpec(kind="explicit", values=tuple(float(v) for v in values))
    if kind == "uniform-with-overrides":
        nodes = raw.get("nodes")
        if not isinstance(nodes, list) or not all(is_integer(v) for v in nodes):
            _fail("x0.nodes", "must be a list of node indices")
        value = raw.get("value")
        if not is_number(value) or not (0 <= value <= 1):
            _fail("x0.value", "override value must be a number in [0, 1]")
        return XZeroSpec(
            kind="uniform-with-overrides",
            seed=seed,
            nodes=tuple(int(v) for v in nodes),
            value=float(value),
        )
    _fail("x0.kind", f"unknown initial-opinion kind {kind!r}")


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
    return config.x0.vector(n)


class GridPointResult(NamedTuple):
    row: dict
    assertions: dict[str, bool]


class ExperimentResult(NamedTuple):
    all_passed: bool
    summary: dict
    rows: list[dict]


class _GridModel(NamedTuple):
    """What one model kind supplies for a grid point; _grid_point does the rest.

    outcome is the model's verdict: its fields() fill the model's sweep
    columns (slem, bounds, consensus, interval, note), its checks() are the
    model's own armed checks, and its pi, if set, is the consensus the
    simulation measures its errors against. The error series
    rate_errors(trajectory), transients already dropped, is fitted to a rate
    that must stay under rate_bound. decay_rho arms the decay law.
    """

    outcome: LayerOutcome | MergedOutcome | SwitchingOutcome
    runs: list[tuple[TransitionMatrix, int]]
    rate_bound: float
    rate_errors: Callable[[OpinionTrajectory], np.ndarray] = lambda traj: traj.errors_pi[5:]
    decay_rho: float | None = None


def _merged_model(layers, alpha, x0) -> _GridModel:
    model = MergedModel(layers[0], layers[1], alpha)
    outcome = analyze_merged(model, x0)
    return _GridModel(outcome, [(model.transition, 1)], outcome.bounds.slem_c)


def _switching_model(layers, k, x0) -> _GridModel:
    model = SwitchingModel(layers[0], layers[1], k)
    outcome = analyze_switching(model, x0)
    return _GridModel(
        outcome,
        model.matrix_runs,
        # The proved per-cycle decay bound is rho_star; the cycle SLEM is the
        # asymptotic rate but a finite-window fit may land slightly above it.
        rate_bound=outcome.rho_star,
        rate_errors=lambda traj: traj.errors_max[:: k + 1][2:],
    )


def _single_model(layers, _, x0) -> _GridModel:
    outcome = analyze_layer(layers[0], x0)
    slem = outcome.slem
    decay_rho = slem if outcome.pi is not None and slem < 1.0 else None
    return _GridModel(outcome, [(transition_matrix(layers[0]), 1)], slem, decay_rho=decay_rho)


# Each model kind's grid_kind column and the builder of its grid points.
_GRIDS = {
    "single": ("single", _single_model),
    "merged": ("alpha", _merged_model),
    "switching": ("k", _switching_model),
}


def _grid_point(grid_kind, grid_value, build, layers, x0, config, traj_dir) -> GridPointResult:
    """Build one grid point's model by build(layers, grid_value, x0),
    simulate it, and check it.

    A node isolated where the model needs a neighborhood makes a degenerate
    grid point: its row carries the error as the note and arms no assertion.
    The trajectory file goes to traj_dir, if given, as soon as the
    point is checked, so no trajectory outlives its grid point.
    """
    row = dict.fromkeys(SWEEP_COLUMNS)
    row.update(grid_kind=grid_kind, grid_value=grid_value)
    try:
        point = build(layers, grid_value, x0)
    except IsolatedNodeError as exc:
        row.update(converged=False, assertions_pass=True, note=str(exc))
        return GridPointResult(row=row, assertions={})
    outcome = point.outcome
    row.update(outcome.fields())
    consensus = outcome.value
    trajectory = simulate(
        point.runs,
        x0,
        t_max=config.t_max,
        tol=config.tol,
        pi=outcome.pi,
        record_states=config.record_opinions and traj_dir is not None,
    )
    assertions = outcome.checks()
    empirical = None
    if consensus is not None:
        try:
            empirical = fit_rate(point.rate_errors(trajectory))
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
    if traj_dir is not None:
        name = f"trajectory_{grid_kind}_{grid_value}.csv"
        _write_trajectory_csv(_unlinked(traj_dir / name), trajectory, x0.shape[0])
    return GridPointResult(row=row, assertions=assertions)


def run_experiment(raw: dict, out_dir: str | Path | None = None) -> ExperimentResult:
    """Run the sweep that the JSON object raw declares, writing its reports
    to out_dir if given."""
    config = parse_config(raw)
    # A report directory that cannot be made fails before any work is done.
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    layers = build_layers(config)
    n = layers[0].n
    x0 = resolve_x0(config, n)

    grid_kind, build = _GRIDS[config.model_kind]
    traj_dir = out_path if "trajectories" in config.outputs else None
    points = [_grid_point(grid_kind, v, build, layers, x0, config, traj_dir) for v in config.grid]

    all_passed = all(all(p.assertions.values()) for p in points)
    summary = {
        "config_hash": config_hash(raw),
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
        if "summary" in config.outputs:
            import json

            _unlinked(out_path / "summary.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
    return ExperimentResult(all_passed=all_passed, summary=summary, rows=[p.row for p in points])


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
