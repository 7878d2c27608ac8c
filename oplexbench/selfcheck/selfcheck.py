"""Fast self-check of the benchmark: every workload once, at a tiny size.

    python3 oplexbench/selfcheck/selfcheck.py

Run from the root of a source checkout. For each workload, with tracing off
and on, runs `run.py --size tiny --seconds 1` and asserts that it exits 0,
that its last line is the result object with exactly the keys correct,
attempted, failed and metrics, that it is correct with no failed operation
(failed_frac = 0 over attempted >= 1), and that the metrics are exactly the
ones BENCHMARK.json names for that mode, each with its declared unit.

It also copies BENCHMARK.json and the benchmark's files into an empty
directory, where the runner has no program to measure, and asserts that it
exits non-zero there without printing a result. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
TIMEOUT_S = 180


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "oplexbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    done = run_bench(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"
    )
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        describe = json.loads(done.stdout.strip().splitlines()[-2])
        problems.append(f"{where}: not correct: {describe.get('problems')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    if result.get("failed") != 0:
        problems.append(f"{where}: failed {result.get('failed')!r} of {result.get('attempted')!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        problems.append(f"{where}: metrics missing {missing}, extra {extra}, wrong unit {units}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} value {m.get('value')!r}")
    return problems


def check_without_program() -> list[str]:
    bare = ROOT / ".oplexbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, "--workload", "verify-small", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without the program: exit code {done.returncode}, stdout {done.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_workload(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_without_program()
    print(f"without the program: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
