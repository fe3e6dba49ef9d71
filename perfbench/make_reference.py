#!/usr/bin/env python3
"""Regenerate ``reference.json``: the outputs the benchmark checks
against and the work each workload does.

::

    python3 perfbench/make_reference.py

Run it only at a commit whose results are known good; every later run
of ``run.py`` compares against what it records.  For each batch
workload and scale it runs the workload's exact command line once in a
fresh interpreter (so in-process caches start empty, as in a timed
run) and records

* ``files`` — digests of the outputs ``run.py`` judges (the report's
  tables and manifest, the smoke corpus tier, the strided table);
* ``design_points``, ``nnz``, ``cycles`` — engine result rows, the
  nonzeros (or strided elements) they model and the cycles they
  simulate or estimate, summed over every ``SweepExecutor.run`` call.
  The throughput metrics divide these by the measured wall time.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench


def measure_one(workload: str, scale: str, out_path: str) -> int:
    """In a fresh interpreter: run the workload, capture engine rows."""
    from repro.__main__ import main
    from repro.engine import executor as executor_module
    from repro.sparse.suite import get_matrix

    rows: list[dict] = []
    original_run = executor_module.SweepExecutor.run

    def capture(self, points):
        result = original_run(self, points)
        rows.extend(result)
        return result

    executor_module.SweepExecutor.run = capture
    with tempfile.TemporaryDirectory(dir=bench.SCRATCH) as tmp:
        work = Path(tmp)
        argv = bench.cli_args(workload, scale, work)[1:]
        stdout_path = work / "stdout.txt"
        with open(stdout_path, "w") as out:
            saved, sys.stdout = sys.stdout, out
            try:
                code = main(argv)
            finally:
                sys.stdout = saved
        if code != 0:
            return code
        files = bench.produced_digests(workload, work, str(stdout_path))

    nnz = cycles = 0
    for row in rows:
        if "count" in row:
            nnz += int(row["count"])
        else:
            nnz += get_matrix(row["matrix"], row["max_nnz"]).nnz
        cycles += int(row["cycles"] if "cycles" in row else row["runtime_cycles"])
    record = {
        "files": files,
        "design_points": len(rows),
        "nnz": nnz,
        "cycles": cycles,
    }
    Path(out_path).write_text(json.dumps(record))
    return 0


def main() -> int:
    reference: dict = {"workloads": {}}
    bench.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.SCRATCH) as tmp:
        for workload in bench.BATCH_ARGV:
            for scale in ("full", "smoke"):
                out = Path(tmp) / f"{workload}-{scale}.json"
                env = bench.child_env(Path(tmp) / f"{workload}-{scale}")
                subprocess.run(
                    [sys.executable, __file__, "--one", workload, scale, str(out)],
                    cwd=bench.ROOT, env=env, check=True,
                )
                record = json.loads(out.read_text())
                reference["workloads"].setdefault(workload, {})[scale] = record
                print(f"{workload} {scale}: {record['design_points']} points, "
                      f"{record['nnz']} nnz, {record['cycles']} cycles")
    # The committed tier is the cycle-corpus reference; its digests
    # are read from results/cycle/ at run time, not frozen here.
    del reference["workloads"]["cycle-corpus"]["full"]["files"]
    (bench.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        sys.exit(measure_one(*sys.argv[2:5]))
    sys.exit(main())
