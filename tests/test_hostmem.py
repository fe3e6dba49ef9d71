"""Entry points keep freed NumPy temporaries in the process.

Each case runs in a fresh interpreter, so the allocator starts from
glibc's defaults, and counts the minor faults of a probe: 200 rounds
that each allocate and free two 64k-element int64 temporaries (512 KiB
each).  Under the defaults every round page-faults both in again
(about 220 minor faults); once the policy is set, a round takes about
one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import hostmem

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    hostmem._glibc_mallopt() is None, reason="needs glibc's mallopt"
)

PROBE = """
import json, resource
import numpy as np
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    a = np.arange(65536, dtype=np.int64)
    b = a * 3
    del a, b
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults / 200))
"""


def faults_per_round(setup: str) -> float:
    """Minor faults per probe round in a fresh interpreter after ``setup``."""
    out = subprocess.run(
        [sys.executable, "-c", f"{setup}\n{PROBE}"], capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_helper_keeps_freed_temporaries():
    setup = "from repro import hostmem\nassert hostmem.retain_freed_memory()"
    assert faults_per_round(setup) < 5


def test_cli_main_applies_the_policy():
    setup = (
        "import contextlib, io\n"
        "from repro.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main([]) == 2\n"
    )
    assert faults_per_round(setup) < 5


def test_pool_worker_initializer_applies_the_policy():
    setup = (
        "from repro import obs\n"
        "from repro.engine.executor import _init_worker\n"
        "_init_worker(obs.worker_config())\n"
    )
    assert faults_per_round(setup) < 5


def test_importing_repro_changes_no_allocator_setting():
    """Only entry points set the policy: a process that imports every
    ``repro`` module, the CLI's last, keeps glibc's defaults."""
    setup = (
        "import importlib, pkgutil, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "import repro.__main__\n"
    )
    assert faults_per_round(setup) > 50


def test_a_rejected_threshold_is_reported_and_the_other_still_set(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append(param)
        return 0 if param == hostmem.M_MMAP_THRESHOLD else 1

    monkeypatch.setattr(hostmem, "_glibc_mallopt", lambda: mallopt)
    assert hostmem.retain_freed_memory() is False
    assert calls == [hostmem.M_MMAP_THRESHOLD, hostmem.M_TRIM_THRESHOLD]


def test_other_c_libraries_are_left_alone(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: None)
    assert hostmem._glibc_mallopt() is None
    assert hostmem.retain_freed_memory() is False
