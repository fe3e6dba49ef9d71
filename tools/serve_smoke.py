#!/usr/bin/env python3
"""CI smoke test for the sweep service, driven through ServeClient.

Starts ``python -m repro serve`` on an ephemeral port, then exercises
the full client/server cache ladder with :class:`repro.serve.client.
ServeClient`: the first quick-scale sweep computes on the server, a
repeated ``submit`` is answered from the client's job-key memo with no
round trip, and forcing the round trip (``reuse=False``) hits the
server's response cache.  ``/metrics`` must carry every ``/stats``
counter of the job layers and the engine with the same value.
Finally sends SIGTERM and requires a clean exit (code 0).  This covers the pieces the in-process tests cannot:
the real subprocess lifecycle, the bound socket, and the signal
handler — plus the shipped client against a real server.

Usage (from the repo root)::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402 - path bootstrap above

STARTUP_TIMEOUT_S = 30
SHUTDOWN_TIMEOUT_S = 10
SWEEP = {
    "matrices": "msc01440,pwtk",
    "variants": "MLPnc,MLP64",
    "max_nnz": 12_000,
}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = server.stdout.readline()
        match = re.search(r"serving on http://[\w.]+:(\d+)", line)
        if not match:
            raise AssertionError(f"no bind line from server, got {line!r}")
        client = ServeClient(f"http://127.0.0.1:{int(match.group(1))}")
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while not client.healthy():
            if time.monotonic() > deadline:
                raise AssertionError("server never became healthy")
            time.sleep(0.2)

        # Stream the first sweep: events in protocol order, computed.
        events = list(client.stream(SWEEP))
        assert events[0]["event"] == "accepted", events
        assert events[-1]["event"] == "done", events
        assert events[-1]["source"] == "computed", events[-1]
        assert events[-1]["row_count"] == 4, events[-1]
        rows = [r for e in events if e["event"] == "rows" for r in e["rows"]]

        # Collected submit hits the server cache (stream() bypasses the
        # client memo), the repeat is answered from the memo without a
        # round trip, and reuse=False forces the wire again.
        computed = client.submit(SWEEP)
        memoized = client.submit(SWEEP)
        wired = client.submit(SWEEP, reuse=False)
        assert computed["source"] == "cache", computed["source"]
        assert memoized["source"] == "client", memoized["source"]
        assert wired["source"] == "cache", wired["source"]
        for result in (computed, memoized, wired):
            assert sorted(result["rows"], key=str) == sorted(rows, key=str)
        stats = client.stats()
        assert stats["jobs"]["response_hits"] >= 2, stats["jobs"]
        assert "trace" in stats and "metrics" in stats, sorted(stats)

        # The Prometheus exposition must carry at least one counter
        # from each layer: the serve front end and the engine that
        # computed the first sweep behind it.
        exposition = client.metrics()
        for needle in (
            "# TYPE repro_serve_requests_total counter",
            "repro_serve_requests_total ",
            "repro_serve_response_hits_total ",
            "repro_engine_groups_total ",
            "# TYPE repro_serve_request_seconds histogram",
            "repro_engine_workers 1",
        ):
            assert needle in exposition, f"{needle!r} missing from /metrics"

        # One counter truth: /metrics reads the stat dicts /stats shows.
        counters = [f"repro_serve_{k}_total {v}" for k, v in stats["jobs"].items()]
        for key, value in stats["engine"].items():
            layer = "" if key.startswith("corpus_") else "engine_"
            counters.append(f"repro_{layer}{key}_total {value}")
        lines = exposition.splitlines()
        missing = [counter for counter in counters if counter not in lines]
        assert not missing, f"/stats counters missing from /metrics: {missing}"

        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=SHUTDOWN_TIMEOUT_S)
        assert code == 0, f"server exited {code}; stderr: {server.stderr.read()}"
        print(
            f"serve smoke OK: computed -> client memo -> server cache "
            f"({len(rows)} rows), /metrics exposed, clean SIGTERM exit"
        )
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


if __name__ == "__main__":
    raise SystemExit(main())
