"""Start-up loads only what a command runs.

Fast-model work must not import the cycle model (the ``sim`` kernel,
the cycle-level ``mem`` models, the adapter components), the process
pool or corpus ingest.  Each case runs in a fresh interpreter and
reports which of those modules its ``sys.modules`` holds afterwards.
The packages that load names on first use must still resolve every
name in their ``__all__``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules no fast-model sweep needs.
NOT_FOR_FAST_WORK = (
    "repro.sim.clock",
    "repro.sim.batched",
    "repro.mem.dram",
    "repro.mem.reorder",
    "repro.axipack.adapter",
    "repro.axipack.coalescer",
    "repro.sparse.corpus",
    "concurrent.futures.process",
    "multiprocessing",
)

CLI_SWEEP = """
from repro.__main__ import main
assert main(["sweep", "pwtk", "MLPnc,MLP64", "--nnz", "4000", "--workers", "1"]) == 0
"""

STRIDED_SWEEP = """
from repro.__main__ import main
assert main([
    "sweep", "linear", "s64,s4096", "--backend", "strided",
    "--nnz", "2000", "--workers", "1",
]) == 0
"""

SERVED_SWEEP = """
from repro.engine import SweepExecutor
from repro.serve import JobManager
manager = JobManager(executor=SweepExecutor(workers=1))
request = {"matrices": ["pwtk"], "variants": ["MLPnc", "MLP64"], "max_nnz": 4000}
assert manager.submit(request)["source"] == "computed"
"""


def loaded_after(script: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after ``script``."""
    probe = f"{script}\nimport json, sys\nprint(json.dumps(sorted(set(sys.modules) & {set(modules)!r})))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_fast_cli_sweep_loads_no_cycle_model():
    assert loaded_after(CLI_SWEEP, (*NOT_FOR_FAST_WORK, "repro.serve.jobs")) == []


def test_fast_strided_sweep_loads_no_cycle_model():
    assert loaded_after(STRIDED_SWEEP, NOT_FOR_FAST_WORK) == []


def test_fast_served_sweep_loads_no_cycle_model():
    assert loaded_after(SERVED_SWEEP, NOT_FOR_FAST_WORK) == []


@pytest.mark.parametrize(
    "package", ["repro.axipack", "repro.mem", "repro.sim", "repro.serve"]
)
def test_every_public_name_resolves(package):
    """The names a package loads on first use are still its names."""
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
