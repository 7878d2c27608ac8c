import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oplex import cli, harness, netcore
from oplex.cli import main
from oplex.harness import parse_config, resolve_x0, run_experiment
from oplex.merged import MergedBoundsReport, MergedModel
from oplex.merged import analyze as analyze_merged
from oplex.netcore import GeneratorSpec, generate, load_two_layer_dataset, parse_edge_list

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


SMALL_MERGED = {
    "model": {"kind": "merged", "alphas": [0.25, 0.75]},
    "layers": [
        {"kind": "circulant", "n": 5, "offsets": [1, 4], "weight": 0.5},
        {"kind": "circulant", "n": 5, "offsets": [2, 3], "weight": 0.5},
    ],
    "x0": {"kind": "uniform", "seed": 4},
    "t_max": 10000,
    "tol": 1e-12,
    "outputs": ["sweep", "summary"],
}


def assert_bad_input(capsys, argv):
    """Exit 2 with a one-line message, never a traceback."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


class TestSimulateCommand:
    def test_generator_past_its_work_cap_exits_two(self, tmp_path, capsys):
        # Within the node cap, but the complement mask of this k-regular
        # layer alone would take 931 GiB.
        raw = {
            "model": {"kind": "single"},
            "layers": [{"kind": "k-regular", "n": 10**6, "k": 999998}],
            "x0": {"kind": "uniform", "seed": 1},
        }
        argv = ["simulate", "--config", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "out")]
        err = assert_bad_input(capsys, argv)
        assert "layers[0]: k-regular on 1000000 nodes" in err

    def test_successful_run_exits_zero(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_MERGED)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["all_passed"] is True
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_out_naming_a_file_exits_two_before_simulating(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran before the report directory was made")

        monkeypatch.setattr(harness, "simulate", refuse)
        raw = {
            "model": {"kind": "single"},
            "layers": [{"kind": "circulant", "n": 300, "offsets": [1, 2]}],
            "x0": {"kind": "uniform", "seed": 1},
        }
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["simulate", "--config", str(write_config(tmp_path, raw)), "--out", str(taken)]
        assert "File exists" in assert_bad_input(capsys, argv)

    def test_config_error_exits_two(self, tmp_path, capsys):
        bad = dict(SMALL_MERGED, model={"kind": "merged", "alphas": []})
        config = write_config(tmp_path, bad)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "model.alphas" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "weight", [float("inf"), float("nan"), 1e308], ids=["inf", "nan", "degree-overflow"]
    )
    def test_non_finite_weight_exits_two(self, tmp_path, capsys, weight):
        layer = {"kind": "circulant", "n": 5, "offsets": [1, 4], "weight": weight}
        config = write_config(tmp_path, dict(SMALL_MERGED, layers=[layer, layer]))
        err = assert_bad_input(
            capsys, ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert "layers[0]" in err and "finite" in err

    @pytest.mark.parametrize(
        "tol", [float("inf"), float("nan"), 10**400], ids=["inf", "nan", "float-overflow"]
    )
    def test_non_finite_tol_exits_two(self, tmp_path, capsys, tol):
        config = write_config(tmp_path, dict(SMALL_MERGED, tol=tol))
        err = assert_bad_input(
            capsys, ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert "tol: must be a positive finite number" in err

    def test_explicit_x0_of_wrong_length_exits_two(self, tmp_path, capsys):
        raw = dict(SMALL_MERGED, x0={"kind": "explicit", "values": [0.1, 0.2, 0.3]})
        config = write_config(tmp_path, raw)
        err = assert_bad_input(
            capsys, ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert "x0.values" in err

    @pytest.mark.parametrize(
        "x0, path",
        [
            ({"kind": "explicit", "values": [0.1, 1.5, 0.3, 0.4, 0.5]}, "x0.values[1]"),
            ({"kind": "uniform-with-overrides", "seed": 1, "nodes": [0], "value": -0.5}, "x0.value"),
        ],
    )
    def test_x0_outside_unit_interval_exits_two(self, tmp_path, capsys, x0, path):
        config = write_config(tmp_path, dict(SMALL_MERGED, x0=x0))
        err = assert_bad_input(
            capsys, ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert path in err

    @pytest.mark.parametrize(
        "overrides, path",
        [
            pytest.param(
                {"layers": [{"kind": "erdos-renyi", "n": 10.5, "p": 0.5}] * 2},
                "layers[0]",
                id="float-n",
            ),
            pytest.param(
                {"layers": [{"kind": "barabasi-albert", "n": 10, "m": 2.5}] * 2},
                "layers[0]",
                id="float-m",
            ),
            pytest.param(
                {"layers": [{"kind": "erdos-renyi", "n": 10, "p": 0.5, "seed": "x"}] * 2},
                "layers[0]",
                id="string-seed",
            ),
            pytest.param(
                {"layers": [{"kind": "erdos-renyi", "n": 10, "p": 0.5, "seed": -3}] * 2},
                "layers[0]",
                id="negative-seed",
            ),
            pytest.param({"x0": {"kind": "uniform", "seed": -1}}, "x0.seed", id="negative-x0-seed"),
            pytest.param(
                {"layers": [{"kind": "erdos-renyi", "n": 10, "p": True}] * 2},
                "layers[0]: p must be a number",
                id="boolean-p",
            ),
        ],
    )
    def test_mistyped_spec_or_seed_exits_two(self, tmp_path, capsys, overrides, path):
        config = write_config(tmp_path, dict(SMALL_MERGED, **overrides))
        err = assert_bad_input(
            capsys, ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert path in err

    def test_undecodable_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff\xfe not utf-8")
        assert_bad_input(capsys, ["simulate", "--config", str(config), "--out", str(tmp_path)])

    def test_deeply_nested_config_exits_two(self, tmp_path, capsys):
        # json.loads recurses once per nesting level, so this raises
        # RecursionError in the decoder: bad input, not a crash.
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000)
        err = assert_bad_input(capsys, ["simulate", "--config", str(config), "--out", str(tmp_path)])
        assert err == "simulate: bad input: <root>: nested too deep for the JSON decoder\n"

    def test_config_nested_too_deep_to_hash_exits_two_before_any_work(self, tmp_path):
        # A valid config with an extra key nested 988 lists deep: under
        # `python -m` on Python 3.10 and 3.11 json.loads decodes it, but
        # config_hash's json.dumps, two calls deeper, recurses past the
        # limit. That used to end in a traceback (exit 1) after the whole
        # sweep; it must be bad input found before any work. (Python 3.12
        # counts C recursion apart and decodes and encodes it: exit 0.)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**SMALL_MERGED, "note": None}).replace("null", "[" * 988 + "]" * 988)
        )
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run(
            [sys.executable, "-m", "oplex.cli", *argv], capture_output=True, text=True, env=env
        )
        assert "Traceback" not in run.stderr
        assert run.returncode in (0, 2)
        if run.returncode == 2:
            expected = "simulate: bad input: <root>: nested too deep for the JSON encoder\n"
            assert run.stderr == expected
            assert not out.exists()

    def test_missing_dataset_file_exits_two(self, tmp_path, capsys):
        raw = dict(
            SMALL_MERGED,
            layers={
                "kind": "two-layer-dataset",
                "path_a": str(tmp_path / "missing_a.txt"),
                "path_b": str(DATA / "contact_layer_b.txt"),
                "n": 8,
            },
        )
        config = write_config(tmp_path, raw)
        err = assert_bad_input(
            capsys, ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert "missing_a.txt" in err

    def test_huge_dataset_node_count_exits_two(self, tmp_path, capsys):
        raw = dict(
            SMALL_MERGED,
            layers={
                "kind": "two-layer-dataset",
                "path_a": str(DATA / "contact_layer_a.txt"),
                "path_b": str(DATA / "contact_layer_b.txt"),
                "n": 99999999999,
            },
        )
        config = write_config(tmp_path, raw)
        err = assert_bad_input(
            capsys, ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert "layers.n: node count 99999999999 exceeds" in err

    def test_subnormal_layer_weights_run_cleanly(self, tmp_path, capsys):
        # Layer 2's degrees are about 4e-320, so 1/sqrt(d_i d_j) overflows to
        # inf while w_ij / sqrt(d_i) / sqrt(d_j) is 0.25 in floating point.
        raw = dict(
            SMALL_MERGED,
            model={"kind": "merged", "alphas": [0.5]},
            layers=[
                {"kind": "circulant", "n": 10, "offsets": [1, 2], "weight": 1.0},
                {"kind": "circulant", "n": 10, "offsets": [1, 3], "weight": 1e-320},
            ],
        )
        config = write_config(tmp_path, raw)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert code == 0
        assert json.loads(captured.out)["all_passed"] is True

    def test_huge_k_runs_without_a_traceback(self, tmp_path, capsys):
        # The switching period is held as two runs, never as its k + 1 steps
        # one by one, and rho_star never turns k into a float: either ended
        # in an OverflowError traceback.
        raw = {
            "model": {"kind": "switching", "ks": [10**30, 10**400]},
            "layers": {
                "kind": "two-layer-dataset",
                "path_a": str(DATA / "contact_layer_a.txt"),
                "path_b": str(DATA / "contact_layer_b.txt"),
                "n": 8,
            },
            "x0": {"kind": "uniform", "seed": 4},
            "t_max": 50,
            "outputs": ["sweep", "summary"],
        }
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(write_config(tmp_path, raw)), "--out", str(out)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert code in (0, 1)
        assert (out / "sweep.csv").exists() and (out / "summary.json").exists()

    def test_failed_merged_check_exits_one(self, tmp_path, capsys, monkeypatch):
        # The sweep and `oplex analyze` read the same check definition.
        monkeypatch.setattr(MergedBoundsReport, "checks", lambda self: {"slem-lower-bound": False})
        assert not run_experiment(SMALL_MERGED).all_passed
        config = write_config(tmp_path, SMALL_MERGED)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        code = main(
            [
                "analyze",
                "--layer1", str(DATA / "contact_layer_a.txt"),
                "--layer2", str(DATA / "contact_layer_b.txt"),
                "--mode", "merged",
                "--alpha", "0.5",
                "--x0", "3",
            ]
        )
        assert code == 1


class TestAnalyzeCommand:
    def test_merged_mode(self, capsys):
        code = main(
            [
                "analyze",
                "--layer1", str(DATA / "contact_layer_a.txt"),
                "--layer2", str(DATA / "contact_layer_b.txt"),
                "--mode", "merged",
                "--alpha", "0.5",
                "--n", "8",
                "--x0", "3",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "merged"
        assert report["slem"] >= report["bound_lower"]
        assert report["consensus"] is not None

    def test_switching_mode_with_dump(self, capsys):
        code = main(
            [
                "analyze",
                "--layer1", str(DATA / "contact_layer_a.txt"),
                "--layer2", str(DATA / "contact_layer_b.txt"),
                "--mode", "switching",
                "--k", "3",
                "--n", "8",
                "--x0", "3",
                "--dump",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "consensus"
        assert report["slem"] <= report["bound_upper"] + 1e-9
        assert report["bound_armed"] is True
        cycle = np.array(report["cycle"])
        assert cycle.shape == (8, 8)
        assert np.abs(cycle.sum(axis=1) - 1).max() <= 1e-12

    @pytest.mark.parametrize("k", [10**5, 10**12, 10**30, pytest.param(10**400, id="1e400")])
    def test_switching_huge_k_exits_zero(self, capsys, k):
        # B A^k stays stochastic to rounding at any k: without renormalized
        # squaring its row sums drifted past the 1e-12 check from k = 10^5 on.
        code = main(["analyze", *CONTACT_ARGS, "--mode", "switching", "--k", str(k)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert code == 0
        assert json.loads(captured.out)["checks"] == {"slem-under-rho-star": True}

    def test_switching_k0_reports_oscillation(self, capsys):
        code = main(
            [
                "analyze",
                "--layer1", str(DATA / "contact_layer_a.txt"),
                "--layer2", str(DATA / "contact_layer_b.txt"),
                "--mode", "switching",
                "--k", "0",
                "--n", "8",
                "--x0", "3",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "oscillation"
        assert report["consensus"] is None
        assert report["period"] == 2 and report["closed_classes"] == 1

    def test_switching_two_closed_classes_report_disagreement(self, tmp_path, capsys):
        ring = tmp_path / "ring.txt"
        ring.write_text("0 1 1\n1 2 1\n2 3 1\n3 0 1\n")
        matching = tmp_path / "matching.txt"
        matching.write_text("0 2 1\n1 3 1\n")
        code = main(
            [
                "analyze",
                "--layer1", str(ring),
                "--layer2", str(matching),
                "--mode", "switching",
                "--k", "0",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "disagreement" and report["consensus"] is None
        assert report["period"] is None and report["closed_classes"] == 2

    def test_switching_k1_reducible_cycle_reaches_consensus(self, capsys):
        # B A has one aperiodic closed class, {0, 2, 4, 6}; the odd nodes are transient.
        code = main(
            [
                "analyze",
                "--layer1", str(DATA / "contact_layer_a.txt"),
                "--layer2", str(DATA / "contact_layer_b.txt"),
                "--mode", "switching",
                "--k", "1",
                "--n", "8",
                "--x0", "3",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "consensus"
        assert 0.0 <= report["consensus"] <= 1.0
        assert "period" not in report and "closed_classes" not in report
        assert report["transient"] == 4

    def test_x0_from_file(self, tmp_path, capsys):
        x0_file = tmp_path / "x0.txt"
        x0_file.write_text("\n".join(["0.5"] * 8))
        code = main(
            [
                "analyze",
                "--layer1", str(DATA / "contact_layer_a.txt"),
                "--layer2", str(DATA / "contact_layer_b.txt"),
                "--mode", "merged",
                "--alpha", "0.5",
                "--n", "8",
                "--x0", str(x0_file),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["consensus"] == pytest.approx(0.5)

    def test_x0_file_of_the_wrong_length_exits_two(self, tmp_path, capsys):
        x0_file = tmp_path / "x0.txt"
        x0_file.write_text("\n".join(["0.5"] * 7))
        argv = [
            "analyze",
            "--layer1", str(DATA / "contact_layer_a.txt"),
            "--layer2", str(DATA / "contact_layer_b.txt"),
            "--mode", "merged",
            "--alpha", "0.5",
            "--n", "8",
            "--x0", str(x0_file),
        ]
        err = assert_bad_input(capsys, argv)
        assert f"--x0 {x0_file}: x0.values: has length 7, layers have n=8" in err

    def test_merged_mode_dumps_the_model_transition(self, capsys):
        argv = ["analyze", *CONTACT_ARGS, "--mode", "merged", "--alpha", "0.5", "--dump"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        layers = load_two_layer_dataset(DATA / "contact_layer_a.txt", DATA / "contact_layer_b.txt", n=8)
        assert np.array_equal(report["transition"], MergedModel(*layers, 0.5).transition.entries)

    def test_missing_mode_parameter_exits_two(self, capsys):
        for mode, needed in (("merged", "--alpha"), ("switching", "--k")):
            code = main(
                [
                    "analyze",
                    "--layer1", str(DATA / "contact_layer_a.txt"),
                    "--layer2", str(DATA / "contact_layer_b.txt"),
                    "--mode", mode,
                ]
            )
            assert code == 2
            assert f"{mode} mode requires {needed}" in capsys.readouterr().err

    def test_infers_n_from_files(self, capsys):
        code = main(
            [
                "analyze",
                "--layer1", str(DATA / "contact_layer_a.txt"),
                "--layer2", str(DATA / "contact_layer_b.txt"),
                "--mode", "merged",
                "--alpha", "0.5",
                "--x0", "3",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n"] == 8


    def test_one_parse_per_edge_file(self, capsys, monkeypatch):
        # Inferring n reads the labels of the parse that builds the layers;
        # it used to parse each file a second time.
        paths = [str(DATA / "contact_layer_a.txt"), str(DATA / "contact_layer_b.txt")]
        parsed = []

        def counting(path):
            parsed.append(str(path))
            return parse_edge_list(path)

        monkeypatch.setattr(netcore, "parse_edge_list", counting)
        monkeypatch.setattr(cli, "parse_edge_list", counting)
        argv = ["analyze", "--layer1", paths[0], "--layer2", paths[1], "--mode", "switching"]
        reports = []
        for n_args in ([], ["--n", "8"]):
            parsed.clear()
            assert main(argv + ["--k", "1", "--x0", "3"] + n_args) == 0
            reports.append(capsys.readouterr().out)
            assert parsed == paths
        assert reports[0] == reports[1]

    def test_seed_x0_is_the_config_uniform_x0(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(
            cli, "analyze_merged", lambda model, x0: seen.append(x0) or analyze_merged(model, x0)
        )
        assert main(["analyze", *CONTACT_ARGS, "--mode", "merged", "--alpha", "0.5"]) == 0
        config = parse_config(dict(SMALL_MERGED, x0={"kind": "uniform", "seed": 3}))
        assert np.array_equal(seen[0], resolve_x0(config, 8))

    def test_huge_node_count_exits_two(self, tmp_path, capsys):
        # Both the given n and an n inferred from a file's labels reach the cap.
        labels = tmp_path / "labels.txt"
        labels.write_text("0 99999999998 1\n")
        for layer1, n_args in (
            (DATA / "contact_layer_a.txt", ["--n", "99999999999"]),
            (labels, []),
        ):
            argv = [
                "analyze",
                "--layer1", str(layer1),
                "--layer2", str(DATA / "contact_layer_b.txt"),
                "--mode", "switching",
                "--k", "3",
            ]
            err = assert_bad_input(capsys, argv + n_args)
            assert "node count 99999999999 exceeds" in err

    @pytest.mark.parametrize("n_args", [[], ["--n", "8"]])
    def test_malformed_edge_list_exits_two(self, tmp_path, capsys, n_args):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 1\n1 x 1\n")
        argv = [
            "analyze",
            "--layer1", str(bad),
            "--layer2", str(DATA / "contact_layer_b.txt"),
            "--mode", "merged",
            "--alpha", "0.5",
        ]
        assert_bad_input(capsys, argv + n_args)


    def test_short_line_reads_the_same_with_and_without_n(self, tmp_path, capsys):
        # Inferring n parses the files with the loader's own line parser.
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 1\n7\n")
        argv = [
            "analyze",
            "--layer1", str(bad),
            "--layer2", str(DATA / "contact_layer_b.txt"),
            "--mode", "merged",
            "--alpha", "0.5",
        ]
        inferred = assert_bad_input(capsys, argv)
        given = assert_bad_input(capsys, argv + ["--n", "8"])
        assert inferred == given
        assert f"{bad}:2: expected 'i j w', got '7'" in given

    def test_x0_file_with_non_number_names_the_file(self, tmp_path, capsys):
        x0_file = tmp_path / "x0.txt"
        x0_file.write_text("0.5 half 0.5")
        argv = [
            "analyze",
            "--layer1", str(DATA / "contact_layer_a.txt"),
            "--layer2", str(DATA / "contact_layer_b.txt"),
            "--mode", "merged",
            "--alpha", "0.5",
            "--n", "8",
            "--x0", str(x0_file),
        ]
        err = assert_bad_input(capsys, argv)
        assert f"{x0_file}: could not convert string to float: 'half'" in err

    def test_x0_file_with_nan_exits_two(self, tmp_path, capsys):
        x0_file = tmp_path / "x0.txt"
        x0_file.write_text("nan 0.5 0.5 0.5 0.5 0.5 0.5 0.5")
        argv = [
            "analyze",
            "--layer1", str(DATA / "contact_layer_a.txt"),
            "--layer2", str(DATA / "contact_layer_b.txt"),
            "--mode", "merged",
            "--alpha", "0.5",
            "--n", "8",
            "--x0", str(x0_file),
        ]
        err = assert_bad_input(capsys, argv)
        assert f"--x0 {x0_file}: x0.values[0]: must be a number in [0, 1]" in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("line", ["2 0 inf", "1 2 nan"])
    def test_non_finite_weight_exits_two(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"0 1 1\n{line}\n")
        argv = [
            "analyze",
            "--layer1", str(bad),
            "--layer2", str(DATA / "contact_layer_b.txt"),
            "--mode", "switching",
            "--k", "1",
            "--n", "8",
        ]
        err = assert_bad_input(capsys, argv)
        assert f"edge ({line[0]}, {line[2]}) has non-finite weight" in err


    def test_one_based_self_loop_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 1\n3 3 1\n")
        argv = [
            "analyze",
            "--layer1", str(bad),
            "--layer2", str(bad),
            "--mode", "merged",
            "--alpha", "0.5",
            "--indexing", "1-based",
        ]
        err = assert_bad_input(capsys, argv)
        assert f"{bad}:2: self-loop on node 3 is not allowed" in err

    def test_non_utf8_byte_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1 1\n\xff 2 1\n")
        argv = [
            "analyze",
            "--layer1", str(bad),
            "--layer2", str(DATA / "contact_layer_b.txt"),
            "--mode", "merged",
            "--alpha", "0.5",
            "--n", "8",
        ]
        err = assert_bad_input(capsys, argv)
        assert f"{bad}:2: byte 0xff is not UTF-8 (invalid start byte)" in err


class TestVerifyCommand:
    def test_examples_suite_passes(self, capsys):
        code = main(["verify", "--suite", "examples"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_perturbation_suite_passes(self, capsys):
        code = main(["verify", "--suite", "perturbation"])
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out


# Checks the sweep arms on the simulated trajectory, on top of the model's own.
SIMULATION_CHECKS = {"empirical-rate", "simulation-agrees", "decay-law"}
# Sweep columns of the grid point or the simulated trajectory, not of the verdict.
SWEEP_ONLY_COLUMNS = {"grid_kind", "grid_value", "empirical_rate", "converged", "assertions_pass"}


def write_edge_list(path, layer):
    w = layer.weights
    rows, cols = np.nonzero(np.triu(w))
    path.write_text("".join(f"{i} {j} {float(w[i, j])!r}\n" for i, j in zip(rows, cols)))
    return str(path)


class TestSweepAndAnalyzeAgree:
    """A sweep row and `oplex analyze` on the same model read one verdict:
    the same check names and outcomes, and every verdict column of the row
    under the same key and value in the report."""

    def assert_agree(self, capsys, path_a, path_b, n, model, mode_args):
        config = {
            "model": model,
            "layers": {"kind": "two-layer-dataset", "path_a": path_a, "path_b": path_b, "n": n},
            "x0": {"kind": "uniform", "seed": 3},
            "t_max": 10000,
        }
        result = run_experiment(config)
        point = result.summary["grid"][0]
        code = main(
            ["analyze", "--layer1", path_a, "--layer2", path_b, "--n", str(n), "--x0", "3"]
            + mode_args
        )
        report = json.loads(capsys.readouterr().out)
        model_checks = {
            name: passed
            for name, passed in point["assertions"].items()
            if name not in SIMULATION_CHECKS
        }
        assert report["checks"] == model_checks
        row = result.rows[0]
        shared = row.keys() & report.keys()
        assert shared >= {"slem", "bound_upper", "bound_armed", "consensus", "note"}
        assert {c: report[c] for c in shared} == {c: row[c] for c in shared}
        # A verdict column analyze does not print is unset for this model.
        assert all(row[c] is None for c in row.keys() - shared - SWEEP_ONLY_COLUMNS)
        assert point["note"] == row["note"]
        assert code == (0 if all(model_checks.values()) else 1)
        return report

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_merged_contact_layers(self, capsys, alpha):
        # Layer A is primitive and layer B bipartite: the guarantee is armed
        # at interior alpha, the interval never.
        report = self.assert_agree(
            capsys,
            str(DATA / "contact_layer_a.txt"),
            str(DATA / "contact_layer_b.txt"),
            8,
            {"kind": "merged", "alphas": [alpha]},
            ["--mode", "merged", "--alpha", str(alpha)],
        )
        assert ("primitivity-guarantee" in report["checks"]) == (alpha == 0.5)
        assert "consensus-in-interval" not in report["checks"]
        assert report["interval_lo"] is None and report["interval_hi"] is None
        assert (report["note"] == "merged transition not primitive") == (alpha == 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_merged_generated_primitive_pair(self, tmp_path, capsys, alpha):
        layer_a = generate(GeneratorSpec(kind="erdos-renyi", n=12, p=0.5, seed=5))
        layer_b = generate(GeneratorSpec(kind="barabasi-albert", n=12, m=3, seed=6))
        report = self.assert_agree(
            capsys,
            write_edge_list(tmp_path / "a.txt", layer_a),
            write_edge_list(tmp_path / "b.txt", layer_b),
            12,
            {"kind": "merged", "alphas": [alpha]},
            ["--mode", "merged", "--alpha", str(alpha)],
        )
        assert report["checks"]["consensus-in-interval"] is True
        assert ("primitivity-guarantee" in report["checks"]) == (alpha == 0.3)
        assert report["interval_lo"] <= report["consensus"] <= report["interval_hi"]

    @pytest.mark.parametrize("k", [0, 1])
    def test_switching_contact_layers(self, capsys, k):
        report = self.assert_agree(
            capsys,
            str(DATA / "contact_layer_a.txt"),
            str(DATA / "contact_layer_b.txt"),
            8,
            {"kind": "switching", "ks": [k]},
            ["--mode", "switching", "--k", str(k)],
        )
        assert report["checks"] == {"slem-under-rho-star": True}
        assert report["note"] == ("cycle oscillates with period 2" if k == 0 else "")

    def test_merged_isolated_node_in_one_layer(self, tmp_path, capsys):
        # Layer 2 has no SLEM, so the upper bound is unset: empty in the
        # sweep, null in the report.
        ring, triangle = TestIsolatedNodeInOneLayer.write_layers(tmp_path)
        report = self.assert_agree(
            capsys,
            ring,
            triangle,
            5,
            {"kind": "merged", "alphas": [0.5]},
            ["--mode", "merged", "--alpha", "0.5"],
        )
        assert report["bound_upper"] is None and report["bound_armed"] is False


CONTACT_ARGS = [
    "--layer1", str(DATA / "contact_layer_a.txt"),
    "--layer2", str(DATA / "contact_layer_b.txt"),
    "--n", "8",
    "--x0", "3",
]


def run_into_closed_pipe(argv, prelude=""):
    """Run `oplex argv` with stdout on a pipe whose read end is already closed."""
    script = prelude + "import sys\nfrom oplex.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-c", script, *argv], stdout=write_end, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write_end)


class TestClosedPipe:
    """A reader that closes the pipe early sees no traceback, and the exit
    code stays the verdict's."""

    def test_analyze_dump(self):
        out = run_into_closed_pipe(["analyze", *CONTACT_ARGS, "--mode", "switching", "--k", "1", "--dump"])
        assert out.returncode == 0
        assert out.stderr == ""

    def test_failed_check_still_exits_one(self):
        prelude = (
            "from oplex.merged import MergedBoundsReport\n"
            "MergedBoundsReport.checks = lambda self: {'slem-lower-bound': False}\n"
        )
        argv = ["analyze", *CONTACT_ARGS, "--mode", "merged", "--alpha", "0.5", "--dump"]
        out = run_into_closed_pipe(argv, prelude)
        assert out.returncode == 1
        assert out.stderr == ""

    def test_simulate_and_verify(self, tmp_path):
        config = write_config(tmp_path, SMALL_MERGED)
        for argv in (
            ["simulate", "--config", str(config), "--out", str(tmp_path / "out")],
            ["verify", "--suite", "examples"],
        ):
            out = run_into_closed_pipe(argv)
            assert out.returncode == 0
            assert out.stderr == ""


class TestExactSlemOne:
    def test_huge_k_on_a_bipartite_layer(self, tmp_path):
        # The 4-ring A is bipartite, so rho2(A) is exactly 1 and rho_star =
        # rho2(B) for every k; B = K4 makes the cycle mix at rate 1/3. A
        # rounded rho2(A) would drift under the cycle SLEM as it is raised
        # to the power k. The period is held as two runs, so memory does not
        # grow with k; spelled out as k + 1 matrices it took hundreds of MB.
        ring = tmp_path / "ring.txt"
        ring.write_text("0 1 1\n1 2 1\n2 3 1\n3 0 1\n")
        complete = tmp_path / "k4.txt"
        complete.write_text("0 1 1\n1 2 1\n2 3 1\n3 0 1\n0 2 1\n1 3 1\n")
        script = (
            "import resource, sys\n"
            "from oplex.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        argv = ["analyze", "--layer1", str(ring), "--layer2", str(complete)]
        out = subprocess.run(
            [sys.executable, "-c", script, *argv, "--mode", "switching", "--k", "20000000"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert report["checks"] == {"slem-under-rho-star": True}
        assert report["bound_upper"] == pytest.approx(1 / 3, abs=1e-15)
        peak_mb = int(out.stderr.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
        assert peak_mb < 100


def reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


class TestIsolatedNodeInOneLayer:
    """Layer 1 is the 5-ring, layer 2 a triangle on nodes 0-2, so nodes 3
    and 4 are isolated in layer 2, which then has no SLEM. The merged upper
    bound is unset: null in the report, empty in the sweep, never NaN."""

    @staticmethod
    def write_layers(tmp_path):
        ring = tmp_path / "ring.txt"
        ring.write_text("0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 0 1\n")
        triangle = tmp_path / "triangle.txt"
        triangle.write_text("0 1 1\n1 2 1\n2 0 1\n")
        return str(ring), str(triangle)

    def test_analyze_prints_strict_json(self, tmp_path, capsys):
        ring, triangle = self.write_layers(tmp_path)
        argv = ["analyze", "--layer1", ring, "--layer2", triangle]
        code = main(argv + ["--mode", "merged", "--alpha", "0.5", "--n", "5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert report["bound_upper"] is None
        assert report["bound_armed"] is False

    def test_sweep_leaves_bound_upper_empty(self, tmp_path):
        ring, triangle = self.write_layers(tmp_path)
        config = {
            "model": {"kind": "merged", "alphas": [0.5]},
            "layers": {"kind": "two-layer-dataset", "path_a": ring, "path_b": triangle, "n": 5},
            "x0": {"kind": "uniform", "seed": 3},
            "outputs": ["sweep"],
        }
        run_experiment(config, tmp_path / "out")
        text = (tmp_path / "out" / "sweep.csv").read_text()
        assert "nan" not in text.lower()
        header, row = text.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["bound_upper"] == ""
