"""One fresh interpreter of a benchmark run.

``run.py`` starts this script once per repetition so that every timed
run pays what a command-line user pays: interpreter start, imports and
empty in-process caches.  Timestamps are ``time.monotonic()``, which is
the parent's clock too, so the parent measures set-up from the moment
it spawned the process.  The outcome is written as JSON to RESULT.

Modes::

    child.py setup RESULT                 # import the CLI, then exit
    child.py cli RESULT [--layers] -- ARGV...
                                          # python -m repro ARGV...
    child.py mix RESULT MIX STORE [--layers]
                                          # the serve mix, in process
    child.py check-mix RESULT MIX RESPONSES STORE
                                          # served rows vs serial engine

``--layers`` installs the per-layer wrappers (:mod:`layers`) and the
program's own tracing into ``RESULT.trace.ndjson``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(result_path: str, payload: dict) -> None:
    tmp = f"{result_path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, result_path)


def _layers(enabled: bool, result_path: str):
    if not enabled:
        return None, None
    import layers

    return layers.install(), f"{result_path}.trace.ndjson"


def run_cli(result_path: str, argv: list[str], with_layers: bool) -> int:
    from repro.__main__ import main

    clock, trace_path = _layers(with_layers, result_path)
    if trace_path:
        argv = [*argv, "--trace", trace_path]
    ready = time.monotonic()
    try:
        code = main(argv)
    except SystemExit as exc:  # serve exits through SystemExit on SIGTERM
        code = exc.code if isinstance(exc.code, int) else 1
    done = time.monotonic()
    payload = {"t_ready": ready, "t_done": done, "rc": code, "rss_mb": _peak_rss_mb()}
    if clock is not None:
        import layers

        payload["layers"] = layers.snapshot(clock, trace_path)
    _write(result_path, payload)
    return code


def run_mix(result_path: str, mix_path: str, store: str, with_layers: bool) -> int:
    """Drive the seeded serve mix through an in-process ``JobManager``
    (one client, mix order) — the engine side of ``serve-mix``."""
    from repro import obs
    from repro.engine import SweepExecutor
    from repro.serve import JobManager

    mix = json.loads(Path(mix_path).read_text())
    clock, trace_path = _layers(with_layers, result_path)
    manager = JobManager(executor=SweepExecutor(1), store_dir=store, cache_size=256)
    ready = time.monotonic()
    with obs.tracing(trace_path, root="bench.serve_mix"):
        for item in mix:
            manager.submit(item["payload"])
    done = time.monotonic()
    manager.close()
    payload = {
        "t_ready": ready,
        "t_done": done,
        "rc": 0,
        "rss_mb": _peak_rss_mb(),
        "jobs": dict(manager.stats),
    }
    if clock is not None:
        import layers

        payload["layers"] = layers.snapshot(clock, trace_path)
    _write(result_path, payload)
    return 0


def _canonical_rows(rows: list[dict]) -> list[str]:
    from repro.serve.protocol import json_default

    return sorted(json.dumps(row, sort_keys=True, default=json_default) for row in rows)


def check_mix(result_path: str, mix_path: str, responses_path: str, store: str) -> int:
    """Every served answer, repeats included, against the reference for
    its job key: a serial ``SweepExecutor.run`` of the same points for
    sweeps, the store table for experiments."""
    from repro.engine import SweepExecutor
    from repro.report.store import ResultStore
    from repro.serve.protocol import ExperimentRequest, canonicalize

    mix = json.loads(Path(mix_path).read_text())
    responses = json.loads(Path(responses_path).read_text())
    executor = SweepExecutor(1)
    expected_by_key: dict = {}
    mismatches = []
    for item, response in zip(mix, responses):
        request = canonicalize(item["payload"])
        key = json.dumps(request.job_key)
        if key not in expected_by_key:
            if isinstance(request, ExperimentRequest):
                rows = ResultStore(store).read_table(request.name)
            else:
                rows = executor.run(request.points())
            expected_by_key[key] = _canonical_rows(rows)
        if response.get("error") or _canonical_rows(response["rows"]) != expected_by_key[key]:
            mismatches.append(item["index"])
    _write(result_path, {"checked": len(responses), "mismatches": mismatches})
    return 0


def main(argv: list[str]) -> int:
    mode, result_path, *rest = argv
    if mode == "setup":
        import repro.__main__  # noqa: F401  (the CLI's import cost)

        _write(result_path, {"t_ready": time.monotonic(), "rc": 0})
        return 0
    if mode == "cli":
        split = rest.index("--")
        return run_cli(result_path, rest[split + 1:], "--layers" in rest[:split])
    if mode == "mix":
        mix_path, store, *flags = rest
        return run_mix(result_path, mix_path, store, "--layers" in flags)
    if mode == "check-mix":
        return check_mix(result_path, *rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
