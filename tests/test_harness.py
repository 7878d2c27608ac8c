import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oplex import harness
from oplex.harness import (
    ConfigError,
    _fmt,
    _write_trajectory_csv,
    build_layers,
    config_hash,
    parse_config,
    resolve_x0,
    run_experiment,
)
from oplex.merged import analyze_layer
from oplex.simlab import OpinionTrajectory
from oplex.spectral import _KRYLOV_MIN_N

DATA = Path(__file__).parent / "data"


def merged_config(**overrides):
    raw = {
        "model": {"kind": "merged", "alphas": [0.0, 0.5, 1.0]},
        "layers": [
            {"kind": "circulant", "n": 5, "offsets": [1, 4], "weight": 0.5},
            {"kind": "circulant", "n": 5, "offsets": [2, 3], "weight": 0.5},
        ],
        "x0": {"kind": "uniform", "seed": 1},
        "t_max": 10000,
        "tol": 1e-12,
        "outputs": ["sweep", "trajectories", "summary"],
    }
    raw.update(overrides)
    return raw


def dataset_config(model):
    return {
        "model": model,
        "layers": {
            "kind": "two-layer-dataset",
            "path_a": str(DATA / "contact_layer_a.txt"),
            "path_b": str(DATA / "contact_layer_b.txt"),
            "n": 8,
            "indexing": "0-based",
        },
        "x0": {"kind": "uniform", "seed": 5},
        "t_max": 5000,
        "tol": 1e-12,
        "outputs": ["sweep", "summary"],
    }


class TestConfigValidation:
    def test_valid_config_parses(self):
        config = parse_config(merged_config())
        assert config.model_kind == "merged"
        assert config.grid == (0.0, 0.5, 1.0)

    def test_missing_model_reports_path(self):
        with pytest.raises(ConfigError, match="^model:"):
            parse_config({"layers": [], "x0": {}})

    def test_bad_alpha_reports_indexed_path(self):
        raw = merged_config(model={"kind": "merged", "alphas": [0.5, 3.0]})
        with pytest.raises(ConfigError, match=r"model\.alphas\[1\]"):
            parse_config(raw)

    def test_empty_grid_rejected(self):
        raw = merged_config(model={"kind": "switching", "ks": []})
        with pytest.raises(ConfigError, match=r"model\.ks"):
            parse_config(raw)

    def test_bad_generator_reports_layer_index(self):
        raw = merged_config(
            layers=[
                {"kind": "erdos-renyi", "n": 5, "p": 2.0},
                {"kind": "circulant", "n": 5, "offsets": [1], "weight": 1.0},
            ]
        )
        with pytest.raises(ConfigError, match=r"layers\[0\]"):
            parse_config(raw)

    def test_bad_tol_rejected(self):
        with pytest.raises(ConfigError, match="tol"):
            parse_config(merged_config(tol=0.0))

    def test_bad_t_max_rejected(self):
        with pytest.raises(ConfigError, match="t_max"):
            parse_config(merged_config(t_max=0))

    def test_unknown_output_kind_rejected(self):
        with pytest.raises(ConfigError, match=r"outputs\[0\]"):
            parse_config(merged_config(outputs=["plots"]))

    def test_unknown_x0_kind_rejected(self):
        with pytest.raises(ConfigError, match=r"x0\.kind"):
            parse_config(merged_config(x0={"kind": "gaussian", "seed": 1}))

    def test_non_integer_dataset_n_rejected(self):
        raw = dataset_config({"kind": "merged", "alphas": [0.5]})
        raw["layers"]["n"] = "eight"
        with pytest.raises(ConfigError, match=r"layers\.n"):
            parse_config(raw)

    def test_layers_with_different_n_rejected(self):
        raw = merged_config(
            layers=[
                {"kind": "circulant", "n": 5, "offsets": [1], "weight": 1.0},
                {"kind": "circulant", "n": 6, "offsets": [1], "weight": 1.0},
            ]
        )
        with pytest.raises(ConfigError, match="^layers:"):
            parse_config(raw)

    def test_single_model_needs_one_layer(self):
        raw = merged_config(model={"kind": "single"})
        with pytest.raises(ConfigError, match="exactly 1"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "model, message",
        [
            pytest.param(
                {"kind": "merged", "alphas": [0.5, 0.5, 0.50]},
                r"^model\.alphas\[1\]: repeats model\.alphas\[0\] \(0\.5\)$",
                id="alphas",
            ),
            pytest.param(
                {"kind": "merged", "alphas": [0.25, 0, 0.0]},
                r"^model\.alphas\[2\]: repeats model\.alphas\[1\] \(0\.0\)$",
                id="alphas-int-and-float",
            ),
            pytest.param(
                {"kind": "switching", "ks": [1, 2, 1]},
                r"^model\.ks\[2\]: repeats model\.ks\[0\] \(1\)$",
                id="ks",
            ),
        ],
    )
    def test_repeated_grid_value_rejected(self, model, message):
        # Each grid point writes its trajectory file under its grid value, so
        # a repeat would overwrite the file of the point before it.
        with pytest.raises(ConfigError, match=message):
            parse_config(merged_config(model=model))

    @pytest.mark.parametrize(
        "raw, path",
        [
            pytest.param(
                merged_config(model={"kind": "merged", "alphas": [0.5, True]}),
                r"model\.alphas\[1\]",
                id="alphas",
            ),
            pytest.param(
                merged_config(model={"kind": "switching", "ks": [True]}),
                r"model\.ks\[0\]",
                id="ks",
            ),
            pytest.param(
                merged_config(x0={"kind": "uniform", "seed": True}), r"x0\.seed", id="x0-seed"
            ),
            pytest.param(
                merged_config(x0={"kind": "explicit", "values": [0.1, True, 0.3, 0.4, 0.5]}),
                r"x0\.values\[1\]",
                id="x0-values",
            ),
            pytest.param(
                merged_config(
                    x0={"kind": "uniform-with-overrides", "seed": 1, "nodes": [True], "value": 0.0}
                ),
                r"x0\.nodes",
                id="x0-nodes",
            ),
            pytest.param(
                merged_config(
                    x0={"kind": "uniform-with-overrides", "seed": 1, "nodes": [0], "value": False}
                ),
                r"x0\.value",
                id="x0-value",
            ),
            pytest.param(
                merged_config(
                    layers=[
                        {"kind": "erdos-renyi", "n": 5, "p": True},
                        {"kind": "circulant", "n": 5, "offsets": [1], "weight": 1.0},
                    ]
                ),
                r"^layers\[0\]: p must be a number",
                id="generator-p",
            ),
            pytest.param(
                merged_config(
                    layers=[
                        {"kind": "circulant", "n": 5, "offsets": [1, 4], "weight": 0.5},
                        {"kind": "circulant", "n": 5, "offsets": [2, 3], "weight": True},
                    ]
                ),
                r"^layers\[1\]: weight must be a number",
                id="generator-weight",
            ),
            pytest.param(merged_config(t_max=True), "^t_max", id="t_max"),
            pytest.param(merged_config(tol=True), "^tol", id="tol"),
            pytest.param(
                dict(
                    dataset_config({"kind": "merged", "alphas": [0.5]}),
                    layers=dict(dataset_config(None)["layers"], n=True),
                ),
                r"layers\.n",
                id="dataset-n",
            ),
        ],
    )
    def test_json_boolean_is_not_a_number(self, raw, path):
        with pytest.raises(ConfigError, match=path):
            parse_config(raw)

    @pytest.mark.parametrize(
        "raw, path",
        [
            pytest.param([merged_config()], "^<root>:", id="root-not-object"),
            pytest.param(merged_config(model={"kind": "blended"}), r"^model\.kind:", id="model-kind"),
            pytest.param(dataset_config({"kind": "single"}), "^layers: dataset", id="dataset-single"),
            pytest.param(
                dict(
                    dataset_config({"kind": "merged", "alphas": [0.5]}),
                    layers={"kind": "two-layer-dataset", "path_a": "a.txt", "n": 8},
                ),
                r"^layers\.path_b:",
                id="dataset-field",
            ),
            pytest.param(
                dict(
                    dataset_config({"kind": "merged", "alphas": [0.5]}),
                    layers=dict(dataset_config(None)["layers"], indexing="2-based"),
                ),
                r"^layers\.indexing:",
                id="dataset-indexing",
            ),
            pytest.param(merged_config(layers="a.txt"), "^layers: must be a list", id="layers-type"),
            pytest.param(merged_config(x0=[0.5] * 5), "^x0:", id="x0-not-object"),
            pytest.param(
                merged_config(x0={"kind": "explicit", "values": []}), r"^x0\.values:", id="x0-values"
            ),
            pytest.param(merged_config(outputs=[]), "^outputs:", id="outputs-empty"),
            pytest.param(
                merged_config(record_opinions="yes"), "^record_opinions:", id="record-opinions"
            ),
            pytest.param(
                merged_config(
                    x0={"kind": "uniform-with-overrides", "seed": 1, "nodes": [0, 5], "value": 0.0}
                ),
                r"^x0\.nodes: index 5 out of range for n=5",
                id="x0-override-node",
            ),
        ],
    )
    def test_rejection_names_the_field(self, raw, path):
        # The override node is checked against n once the layers are known.
        with pytest.raises(ConfigError, match=path):
            resolve_x0(parse_config(raw), 5)


class TestX0Resolution:
    def test_uniform_deterministic(self):
        config = parse_config(merged_config())
        assert np.array_equal(resolve_x0(config, 5), resolve_x0(config, 5))

    def test_explicit_values(self):
        raw = merged_config(x0={"kind": "explicit", "values": [0.1, 0.2, 0.3, 0.4, 0.5]})
        x0 = resolve_x0(parse_config(raw), 5)
        assert np.array_equal(x0, [0.1, 0.2, 0.3, 0.4, 0.5])

    def test_explicit_wrong_length(self):
        raw = merged_config(x0={"kind": "explicit", "values": [0.1, 0.2]})
        with pytest.raises(ConfigError, match="length"):
            resolve_x0(parse_config(raw), 5)

    def test_overrides_applied(self):
        raw = merged_config(
            x0={"kind": "uniform-with-overrides", "seed": 1, "nodes": [0, 2], "value": 0.0}
        )
        x0 = resolve_x0(parse_config(raw), 5)
        assert x0[0] == 0.0 and x0[2] == 0.0
        assert (x0[[1, 3, 4]] > 0).all()


class TestRunExperiment:
    def test_merged_sweep_passes_and_writes_reports(self, tmp_path):
        result = run_experiment(merged_config(), tmp_path)
        assert result.all_passed
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "trajectory_alpha_0.5.csv").exists()
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4  # header + three grid points
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_passed"] is True
        assert summary["config_hash"] == config_hash(merged_config())

    def test_interval_endpoints_constant_across_alphas(self, tmp_path):
        result = run_experiment(merged_config(), tmp_path)
        los = {row["interval_lo"] for row in result.rows}
        assert len(los) == 1

    def test_dataset_merged_endpoint_not_primitive(self, tmp_path):
        config = dataset_config({"kind": "merged", "alphas": [0.0, 0.5, 1.0]})
        result = run_experiment(config, tmp_path)
        by_alpha = {row["grid_value"]: row for row in result.rows}
        assert by_alpha[0.0]["note"] == "merged transition not primitive"
        assert by_alpha[0.0]["consensus"] is None
        assert by_alpha[0.5]["converged"]
        assert by_alpha[1.0]["converged"]
        # a failed grid point is recorded, not fatal, and arms no assertion
        assert result.all_passed

    def test_dataset_switching_consensus_for_positive_k(self, tmp_path):
        config = dataset_config({"kind": "switching", "ks": [0, 3, 5]})
        result = run_experiment(config, tmp_path)
        by_k = {row["grid_value"]: row for row in result.rows}
        assert not by_k[0]["converged"]  # bipartite contact layer oscillates
        assert by_k[3]["converged"] and by_k[5]["converged"]
        assert result.all_passed

    def test_dataset_switching_reducible_cycle_reaches_consensus(self, tmp_path):
        # At k = 1 the cycle has the closed class {0, 2, 4, 6} and four
        # transient nodes: not primitive, yet it reaches consensus.
        config = dataset_config({"kind": "switching", "ks": [0, 1, 3]})
        result = run_experiment(config, tmp_path)
        by_k = {row["grid_value"]: row for row in result.rows}
        assert by_k[1]["consensus"] is not None and by_k[1]["note"] == ""
        assert by_k[1]["converged"]
        k1_checks = result.summary["grid"][1]["assertions"]
        assert k1_checks["simulation-agrees"] is True
        assert by_k[0]["consensus"] is None
        assert by_k[0]["note"] == "cycle oscillates with period 2"
        assert result.all_passed

    def test_isolated_node_gives_noted_row(self, tmp_path):
        # Layer B leaves nodes 3 and 4 isolated: merged alpha = 0 and every
        # switching k have no averaging neighborhood there; alpha = 0.5 does.
        (tmp_path / "a.txt").write_text("0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 0 1\n")
        (tmp_path / "b.txt").write_text("0 1 1\n1 2 2\n0 2 3\n")
        layers = {
            "kind": "two-layer-dataset",
            "path_a": str(tmp_path / "a.txt"),
            "path_b": str(tmp_path / "b.txt"),
            "n": 5,
        }
        merged = merged_config(model={"kind": "merged", "alphas": [0.0, 0.5]}, layers=layers)
        result = run_experiment(merged, tmp_path / "merged")
        noted, mixed = result.rows
        assert "isolated" in noted["note"]
        assert noted["consensus"] is None and not noted["converged"]
        assert result.summary["grid"][0]["assertions"] == {}
        assert mixed["converged"] and mixed["note"] == ""
        assert result.all_passed
        sweep = (tmp_path / "merged" / "sweep.csv").read_text().splitlines()
        assert sweep[1] == "alpha,0,,,,,,,,,false,true,node 3 is isolated in the merged graph"

        switching = merged_config(model={"kind": "switching", "ks": [1, 2]}, layers=layers)
        result = run_experiment(switching, tmp_path / "switching")
        assert all("isolated" in row["note"] for row in result.rows)
        assert not any(row["converged"] for row in result.rows)
        assert result.all_passed

        # A single layer with an isolated node (node 2 of this ER layer) has
        # no verdict either: a noted row, and no trajectory is simulated.
        single = {
            "model": {"kind": "single"},
            "layers": [{"kind": "erdos-renyi", "n": 50, "p": 0.03, "seed": 1}],
            "x0": {"kind": "uniform", "seed": 3},
        }
        result = run_experiment(single, tmp_path / "single")
        assert result.summary["grid"][0]["assertions"] == {}
        assert result.all_passed
        sweep = (tmp_path / "single" / "sweep.csv").read_text().splitlines()
        assert sweep[1] == "single,0,,,,,,,,,false,true,node 2 is isolated (zero weighted degree)"
        assert not list((tmp_path / "single").glob("trajectory_*"))

    def test_single_layer_model(self, tmp_path):
        raw = {
            "model": {"kind": "single"},
            "layers": [{"kind": "k-regular", "n": 20, "k": 4, "seed": 2}],
            "x0": {"kind": "uniform", "seed": 9},
            "t_max": 10000,
            "tol": 1e-12,
            "outputs": ["sweep", "summary"],
        }
        result = run_experiment(raw, tmp_path)
        assert result.all_passed
        row = result.rows[0]
        assert row["grid_kind"] == "single"
        assert row["consensus"] is not None

    def test_single_layer_not_primitive(self):
        # The even ring is bipartite: no consensus, so only the simulation
        # runs and no check is armed.
        raw = {
            "model": {"kind": "single"},
            "layers": [{"kind": "circulant", "n": 8, "offsets": [1]}],
            "x0": {"kind": "uniform", "seed": 9},
            "t_max": 2000,
        }
        result = run_experiment(raw)
        row = result.rows[0]
        assert row["note"] == "layer transition not primitive"
        assert row["consensus"] is None
        assert result.summary["grid"][0]["assertions"] == {}
        assert result.all_passed

    @pytest.mark.parametrize(
        "spec, primitive",
        [
            pytest.param({"kind": "circulant", "n": 12, "offsets": [1, 2]}, True, id="primitive"),
            pytest.param({"kind": "circulant", "n": 8, "offsets": [1]}, False, id="bipartite"),
        ],
    )
    def test_single_row_reads_the_layer_outcome(self, spec, primitive):
        raw = {"model": {"kind": "single"}, "layers": [spec], "x0": {"kind": "uniform", "seed": 3}}
        result = run_experiment(raw)
        layer = build_layers(parse_config(raw))[0]
        fields = analyze_layer(layer, resolve_x0(parse_config(raw), layer.n)).fields()
        row = result.rows[0]
        assert {key: row[key] for key in fields} == fields
        assert (row["consensus"] is not None) is primitive

    def test_constant_opinions_arm_no_rate(self, tmp_path):
        # Every node starts at 0.5: the errors are 0 from the first step, so
        # no rate can be fitted, and the rate check is not armed.
        x0 = {"kind": "explicit", "values": [0.5] * 5}
        result = run_experiment(merged_config(model={"kind": "merged", "alphas": [0.5]}, x0=x0), tmp_path)
        row = result.rows[0]
        assert row["converged"] and row["consensus"] == pytest.approx(0.5)
        assert row["empirical_rate"] is None
        assert "empirical-rate" not in result.summary["grid"][0]["assertions"]
        assert result.summary["grid"][0]["assertions"]["simulation-agrees"] is True
        assert result.all_passed
        sweep = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        assert sweep[0]["empirical_rate"] == ""

    def test_outputs_can_be_restricted(self, tmp_path):
        config = merged_config(outputs=["summary"])
        run_experiment(config, tmp_path)
        assert not (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "summary.json").exists()

    @staticmethod
    def count_eigensolver_calls(monkeypatch, n):
        # Only dense solves of an n x n operator count: the Krylov Ritz
        # checks call the same solvers on their small projected matrices.
        calls = {"eigvalsh": 0, "eigvals": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls[_name] += np.shape(a) == (n, n)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_merged_sweep_uses_symmetric_solver_only(self, monkeypatch):
        # Clashing degree sequences: C still takes the symmetric path, and
        # each layer spectrum is solved once for the whole alpha grid.
        calls = self.count_eigensolver_calls(monkeypatch, 30)
        raw = merged_config(
            model={"kind": "merged", "alphas": [0.25, 0.5, 0.75]},
            layers=[
                {"kind": "barabasi-albert", "n": 30, "m": 2, "seed": 3},
                {"kind": "erdos-renyi", "n": 30, "p": 0.3, "seed": 4},
            ],
        )
        result = run_experiment(raw)
        assert result.all_passed
        assert calls == {"eigvalsh": 5, "eigvals": 0}

    def test_switching_sweep_uses_krylov_solvers_only(self, monkeypatch):
        # From the Krylov crossover on, the cycles take Arnoldi and the two
        # layer spectra Lanczos: no dense eigensolve anywhere in the sweep.
        calls = self.count_eigensolver_calls(monkeypatch, _KRYLOV_MIN_N)
        raw = merged_config(
            model={"kind": "switching", "ks": [1, 2, 4]},
            layers=[
                {"kind": "barabasi-albert", "n": _KRYLOV_MIN_N, "m": 5, "seed": 3},
                {"kind": "erdos-renyi", "n": _KRYLOV_MIN_N, "p": 0.02, "seed": 4},
            ],
        )
        result = run_experiment(raw)
        assert result.all_passed
        assert all(row["consensus"] is not None for row in result.rows)
        assert calls == {"eigvalsh": 0, "eigvals": 0}

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        run_experiment(merged_config(), out1)
        run_experiment(merged_config(), out2)
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rerun_writes_new_files_instead_of_truncating(self, tmp_path):
        run_experiment(merged_config(), tmp_path)
        names = ["sweep.csv", "summary.json", "trajectory_alpha_0.5.csv"]
        first = {name: (tmp_path / name).read_bytes() for name in names}
        for name in names:
            (tmp_path / f"{name}.link").hardlink_to(tmp_path / name)
        run_experiment(merged_config(), tmp_path)
        for name in names:
            link, new = tmp_path / f"{name}.link", tmp_path / name
            assert not link.samefile(new)  # a truncated file would keep its inode
            assert link.read_bytes() == first[name] == new.read_bytes()

    def test_record_opinions_adds_state_columns(self, tmp_path):
        config = merged_config(record_opinions=True)
        run_experiment(config, tmp_path)
        header = (tmp_path / "trajectory_alpha_0.5.csv").read_text().splitlines()[0]
        assert "x_0" in header and "x_4" in header

    def test_recorded_states_are_released_as_each_point_ends(self, tmp_path, monkeypatch):
        # Three grid points of 2300 to 3200 steps of 100 opinions. A point's
        # states are held twice while simulate joins its blocks; each point
        # must be written and released before the next one runs. Holding
        # every trajectory to the end of the sweep peaked at 3.9 times the
        # largest point's states, writing each as it ends at 2.3 times. The
        # writer is stubbed: under tracemalloc, formatting the 800,000 values
        # takes seconds, and its chunks do not move the peak.
        written = []

        def record(path, traj, n):
            written.append(traj.states.nbytes)

        monkeypatch.setattr(harness, "_write_trajectory_csv", record)
        config = {
            "model": {"kind": "merged", "alphas": [0.25, 0.5, 0.75]},
            "layers": [
                {"kind": "circulant", "n": 100, "offsets": [1, 2]},
                {"kind": "circulant", "n": 100, "offsets": [1, 3]},
            ],
            "x0": {"kind": "uniform", "seed": 1},
            "record_opinions": True,
        }
        run_experiment(config)  # so lazy imports and caches stay out of the peak
        tracemalloc.start()
        try:
            result = run_experiment(config, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.all_passed
        assert len(written) == 3
        assert peak < 3 * max(written)


def csv_module_trajectory(path, traj, n):
    """The trajectory file as csv.writer writes the _fmt rows: the reference."""
    header = ["t", "err_pi", "err_max"]
    if traj.states is not None:
        header += [f"x_{i}" for i in range(n)]
    rows = [header]
    if traj.errors_pi is not None or traj.states is not None:
        for t in range(traj.steps + 1):
            row = [str(t)]
            if traj.errors_pi is not None:
                row += [_fmt(traj.errors_pi[t]), _fmt(traj.errors_max[t])]
            else:
                row += ["", ""]
            if traj.states is not None:
                row += [_fmt(v) for v in traj.states[t]]
            rows.append(row)
    with path.open("w", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


class TestTrajectoryWriter:
    @pytest.mark.parametrize(
        "errors, states",
        [(True, False), (False, True), (True, True), (False, False)],
        ids=["errors", "states-no-target", "errors-and-states", "header-only"],
    )
    @pytest.mark.parametrize("write_fields", [10, 2**14])
    def test_matches_csv_writer(self, tmp_path, monkeypatch, errors, states, write_fields):
        monkeypatch.setattr(harness, "_WRITE_FIELDS", write_fields)
        rng = np.random.default_rng(4)
        n, steps = 4, 57
        values = rng.random((steps + 1, n)) * 10.0 ** rng.integers(-300, 3, (steps + 1, n))
        values[:3, 0] = [0.0, 1.0, 1 / 3]
        errors_pi = np.abs(values[:, 1]) if errors else None
        errors_max = np.abs(values[:, 2]) if errors else None
        traj = OpinionTrajectory(
            states=values if states else None,
            final_state=values[-1],
            errors_pi=errors_pi,
            errors_max=errors_max,
            pi=None,
            converged=True,
            steps=steps,
        )
        _write_trajectory_csv(tmp_path / "bulk.csv", traj, n)
        csv_module_trajectory(tmp_path / "csv.csv", traj, n)
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        a = {"b": 1, "a": {"y": 2, "x": 3}}
        b = {"a": {"x": 3, "y": 2}, "b": 1}
        assert config_hash(a) == config_hash(b)

    def test_different_configs_differ(self):
        assert config_hash(merged_config()) != config_hash(merged_config(t_max=9999))


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "merged", "alphas": [0.25, 0.5]},
        {"kind": "single"},
        {"kind": "switching", "ks": [0, 1]},
    ],
    ids=["merged", "single", "switching"],
)
def test_large_sweeps_hold_no_dense_layer(model, monkeypatch):
    # From the Krylov crossover on, a sweep whose spectra need no dense
    # hand-back reads every layer and operator from its CSR only. The
    # switching ks are those whose cycle B A^k is applied factor by factor
    # (SwitchingModel.matrix_free), never formed.
    from oplex.netcore import Csr

    sizes = []
    dense = Csr.dense
    monkeypatch.setattr(Csr, "dense", lambda self: sizes.append(self.n) or dense(self))
    n = _KRYLOV_MIN_N
    layers = [
        {"kind": "barabasi-albert", "n": n, "m": 5, "seed": 1},
        {"kind": "erdos-renyi", "n": n, "p": 0.02, "seed": 2},
    ]
    config = {
        "model": model,
        "layers": layers[: 1 if model["kind"] == "single" else 2],
        "x0": {"kind": "uniform", "seed": 3},
    }
    result = run_experiment(config)
    assert all(row["slem"] < 1 for row in result.rows)
    assert result.all_passed
    assert sizes == []
