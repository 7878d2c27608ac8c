"""oplex benchmark: one workload, one seed, a fixed measuring window.

    python3 oplexbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout; the program is imported from its
`src/` directory and from nowhere else. The workload's inputs are made from
`--seed`. Calls to the program are repeated back to back (closed loop, one
client) until `--seconds` have passed, then every output is checked.

With `--trace 0` the last line of standard output is the end-to-end result:
`run_s` (median time of one program call), `setup_s` (median over fresh
processes of importing oplex plus the public set-up calls) and `peak_rss_mb`
(peak resident memory of this process). `run_s` and `setup_s` are scaled to
a reference host speed by a calibration kernel timed between measurements
(see `Calibration`); the raw wall-clock medians are in the line before.
With `--trace 1`, calls alternate between untraced and traced, and the
result holds the per-layer metrics of the traced calls (medians per call),
the traced and untraced `run_s`, and the share of traced wall time that the
layer spans account for. The spans are written to
`.oplexbench/spans-<workload>-seed<seed>.jsonl`.

The line before the result describes the run: environment (nproc, Python,
numpy, OpenBLAS, BLAS threads), sample counts, failed operations with their
base, and the reasons for any failure. The BLAS thread count is fixed at 1,
which is below nproc on any machine and keeps kernel timings steady.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".oplexbench"

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_WARMUPS = 1
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60
CALIBRATION_STEPS = 2000
# Time of Calibration() at the reference speed: a 2-vCPU Xeon VM, 1 BLAS thread.
CALIBRATION_REFERENCE_S = 0.040
# The layer spans must cover at least this share of a traced call's wall
# time; the rest is wrapper cost outside the outermost span.
MIN_ACCOUNTED = 0.98


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


class Calibration:
    """Times a fixed numpy kernel that does not touch oplex.

    The speed of a shared host can drift by 10-30% within minutes, in much
    the same way for every single-threaded CPU-bound task. The kernel is
    timed before the first and after every measured call or set-up probe;
    each measured time is divided by the mean of the two kernel times next
    to it and multiplied by CALIBRATION_REFERENCE_S. The result is in
    seconds at the reference host speed, and most of the drift cancels.
    Each kernel step mixes what the program spends its time on: a 300x300
    matrix-vector product, small-array numpy calls and interpreter work.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        big, small = rng.random((300, 300)), rng.random((20, 20))
        self._big = big / big.sum(axis=1, keepdims=True)
        self._small = small / small.sum(axis=1, keepdims=True)
        self._x, self._y = rng.random(300), rng.random(20)
        self._abs = np.abs

    def __call__(self) -> float:
        big, small, x, y, abs_ = self._big, self._small, self._x, self._y, self._abs
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_STEPS):
            x = big @ x
            y = small @ y
            float(abs_(y - 0.5).max())
        return time.perf_counter() - t0


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """Times at the reference host speed; kernels[i], kernels[i + 1] bracket times[i]."""
    return [
        t * CALIBRATION_REFERENCE_S / (0.5 * (before + after))
        for t, before, after in zip(times, kernels, kernels[1:])
    ]


def setup_times(probe: list[str], calibration: Calibration) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_REPEATS fresh processes, after SETUP_WARMUPS unmeasured ones.

    Returns the raw times and the kernel times that bracket them.
    """

    def one_probe() -> float:
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *probe],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        return float(done.stdout.split()[-1])

    for _ in range(SETUP_WARMUPS):
        one_probe()
    times, kernels = [], [calibration()]
    for _ in range(SETUP_REPEATS):
        times.append(one_probe())
        kernels.append(calibration())
    return times, kernels


def measure(instance, seconds: float, tracer, calibration: Calibration):
    """Call the program until `seconds` have passed.

    Returns the collected outputs (None for a call that raised), each
    call's wall time, whether it was traced, and the kernel times that
    bracket the calls. With a tracer, calls alternate untraced/traced and
    there is at least one of each.
    """
    records, times, is_traced, kernels = [], [], [], [calibration()]
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(records) % 2 == 1
        context = tracer.traced() if use_trace else contextlib.nullcontext()
        try:
            with context:
                t0 = time.perf_counter()
                try:
                    output = instance.call()
                finally:
                    elapsed = time.perf_counter() - t0
            records.append(instance.collect(output))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            records.append(None)
        kernels.append(calibration())
        times.append(elapsed)
        is_traced.append(use_trace)
        if time.perf_counter() - start >= seconds and (tracer is None or any(is_traced)):
            return records, times, is_traced, kernels


def layer_metrics(s: dict, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced call from its span summary."""
    from spans import LAYERS

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s.get(f"{layer}.self", 0.0)
        m[f"{layer}.errors"] = s.get(f"{layer}.errors", 0.0)
    fn = {
        "netcore.generate_s": "netcore.generate.incl",
        "netcore.load_s": "netcore.load_two_layer_dataset.incl",
        "stochastic.is_primitive_s": "stochastic.is_primitive.self",
        "stochastic.is_primitive_calls": "stochastic.is_primitive.calls",
        "stochastic.stationary_general_s": "stochastic.stationary_general.self",
        "stochastic.transition_matrix_s": "stochastic.transition_matrix.self",
        "spectral.eig_general_s": "spectral.eig_moduli_nonsymmetric.self",
        "spectral.eig_general_calls": "spectral.eig_moduli_nonsymmetric.calls",
        "spectral.eig_general_n3": "spectral.eig_moduli_nonsymmetric.n3",
        "spectral.eigh_s": "spectral.slem_reversible.incl",
        "spectral.eigh_calls": "spectral.slem_reversible.calls",
        "merged.merge_s": "merged.merge.self",
        "merged.slem_bounds_self_s": "merged.slem_bounds.self",
        "switching.cycle_s": "switching.switching_model.self",
        "switching.analyze_self_s": "switching.analyze.self",
        "simlab.simulate_s": "simlab.simulate.self",
        "simlab.steps": "simlab.simulate.steps",
        "perturb.stationary_shift_s": "perturb.stationary_shift.self",
        "perturb.fundamental_matrix_s": "perturb.fundamental_matrix.self",
    }
    for name, key in fn.items():
        m[name] = s.get(key, 0.0)
    m["simlab.steps_per_s"] = m["simlab.steps"] / m["simlab.simulate_s"] if m["simlab.simulate_s"] else 0.0
    m["simlab.states_mb"] = s.get("simlab.simulate.states_bytes", 0.0) / 1e6
    m["trace.accounted_frac"] = s.get("top", 0.0) / wall
    return m


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def run(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict]:
    import spans
    import workloads

    instance = workloads.make_instance(args.workload, args.seed, args.size, workdir)
    calibration = Calibration()
    setup, setup_kernels = ([], []) if args.trace else setup_times(instance.probe, calibration)
    tracer = spans.Tracer() if args.trace else None
    records, times, is_traced, kernels = measure(instance, args.seconds, tracer, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    failed = sum(instance.check(records))
    attempted = len(records) * instance.ops_per_call
    problems = list(instance.messages)
    untraced = [t for t, tr in zip(times, is_traced) if not tr]
    traced = [t for t, tr in zip(times, is_traced) if tr]
    if args.trace:
        per_call = [
            layer_metrics(spans.summarize(call), wall) for call, wall in zip(tracer.calls, traced)
        ]
        values = {k: statistics.median(c[k] for c in per_call) for k in per_call[0]}
        values["harness.report_bytes"] = instance.report_bytes()
        values["verify.instances"] = instance.instances
        values["trace.traced_run_s"] = statistics.median(traced)
        values["trace.untraced_run_s"] = statistics.median(untraced)
        low = min(c["trace.accounted_frac"] for c in per_call)
        if not MIN_ACCOUNTED <= low <= 1.0:
            problems.append(f"layer spans account for {low:.4f} of a traced call's wall time")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.dump(tracer.calls, spans_path)
    else:
        values = {
            "run_s": statistics.median(scaled(times, kernels)),
            "setup_s": statistics.median(scaled(setup, setup_kernels)),
            "peak_rss_mb": peak_rss_mb,
        }
        spans_path = None
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    describe = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "environment": environment(),
        "wall_s": {"run": _spread(untraced), "traced_run": _spread(traced), "setup": _spread(setup)},
        "calibration_s": _spread(kernels + setup_kernels),
        "failed_frac": failed / attempted,
        "failed_base": attempted,
        "problems": problems[:20],
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    return describe, result


def _spread(values: list[float]) -> dict | None:
    if not values:
        return None
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "samples": len(values)}


def main(argv: list[str]) -> int:
    if not (SRC / "oplex" / "__init__.py").is_file():
        print(f"oplexbench: no oplex package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Before numpy is first imported, so that OpenBLAS starts with this many threads.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import oplex

    if not Path(oplex.__file__).resolve().is_relative_to(SRC):
        print(f"oplexbench: imported oplex from {oplex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        describe, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(describe))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
