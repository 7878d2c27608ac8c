"""Record the program's outputs on the benchmark inputs as the reference.

    python3 oplexbench/record_reference.py [SEED_COUNT]

Writes `oplexbench/reference.json`: for each workload, size ("full" and
"tiny") and seed 0..SEED_COUNT-1 (default 32), the values the correctness
gate compares. For a sweep these are slem, consensus, converged and
assertions_pass per grid point; for the verify suites, the name and outcome
of each check. Run it only on a commit whose outputs are known to be right:
the benchmark then holds every later commit to them, for those seeds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(argv: list[str]) -> None:
    seed_count = int(argv[0]) if argv else 32
    for var in run.BLAS_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.SRC))
    import workloads

    table: dict = {}
    workdir = run.OUT / "record"
    for workload in workloads.WORKLOADS:
        for size in ("full", "tiny"):
            for seed in range(seed_count):
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                instance = workloads.make_instance(workload, seed, size, workdir)
                output = instance.call()
                if workload == "verify-small":
                    values = workloads.verify_results(output)
                else:
                    values = workloads.sweep_rows(output)
                table.setdefault(workload, {}).setdefault(size, {})[str(seed)] = values
            print(workload, size, "done", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
