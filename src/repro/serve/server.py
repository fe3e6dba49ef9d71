"""The long-lived sweep service: HTTP and stdin/JSON-lines front ends.

Both front ends speak the same NDJSON event stream over one
:class:`~repro.serve.jobs.JobManager`:

* **HTTP** (``python -m repro serve``) — a
  :class:`http.server.ThreadingHTTPServer`.  ``POST /sweep`` and
  ``POST /experiment`` take a JSON request body (the ``cmd`` field
  defaults from the path) and answer with one JSON object per line:
  ``accepted`` → ``rows`` chunks (streamed as matrix groups complete)
  → ``done``.  ``GET /healthz`` and ``GET /stats`` are JSON probes.
  The response is written incrementally and the connection closed to
  delimit it (HTTP/1.0 semantics), so a curl reader sees rows as they
  are computed.
* **stdio** (``python -m repro serve --stdio``) — one JSON request
  per stdin line, the same events on stdout; ``{"cmd": "shutdown"}``
  ends the loop.  This is the deterministic harness the tests drive.

Errors in either front end become ``{"event": "error", ...}``
responses (HTTP status 400 for malformed requests, 413 for a body over
:data:`MAX_BODY_BYTES`, 500 for computation failures); the server
survives them.  An exception outside the
:class:`~repro.errors.ReproError` taxonomy ends only its own request:
its event names the exception class, and its traceback goes to the
server log.
"""

from __future__ import annotations

import json
import signal
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import ReproError, ServeError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .jobs import JobManager
from .protocol import json_default


#: Largest request body the HTTP front end reads.  A longer
#: ``Content-Length`` is answered 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20

#: What ``json.loads`` raises on a malformed line: ``JSONDecodeError``
#: (a ``ValueError``), or ``RecursionError`` on deeply nested brackets.
_BAD_JSON = (ValueError, RecursionError)


def _dumps(event: dict) -> bytes:
    return (json.dumps(event, default=json_default) + "\n").encode()


def _error_event(exc: Exception) -> dict:
    """The ``error`` event of a failed request: a ``ReproError``'s
    message, or only the class of any other exception."""
    if isinstance(exc, ReproError):
        return {"event": "error", "error": str(exc)}
    return {"event": "error", "error": f"internal error: {type(exc).__name__}"}


class ReproRequestHandler(BaseHTTPRequestHandler):
    """One NDJSON-streaming handler per connection (threaded server)."""

    server_version = "repro-serve"
    # HTTP/1.0 + connection close delimits the streamed body; no
    # chunked framing needed and curl still renders lines as they come.
    protocol_version = "HTTP/1.0"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            sys.stderr.write(
                f"{self.address_string()} - {format % args}\n"
            )

    def _respond_json(self, status: int, payload: dict) -> None:
        body = _dumps(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._respond_json(200, {"ok": True})
        elif self.path == "/stats":
            self._respond_json(200, service_stats(self.manager))
        elif self.path == "/metrics":
            body = render_metrics(self.manager).encode()
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._respond_json(404, {"event": "error", "error": f"no route {self.path}"})

    def do_POST(self) -> None:
        if self.path not in ("/sweep", "/experiment", "/corpus", "/job"):
            self._respond_json(404, {"event": "error", "error": f"no route {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._respond_json(
                400,
                {"event": "error", "error": "Content-Length must be an integer >= 0"},
            )
            return
        if length > MAX_BODY_BYTES:
            self._respond_json(
                413,
                {
                    "event": "error",
                    "error": f"request body is over {MAX_BODY_BYTES} bytes",
                },
            )
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except _BAD_JSON:
            self._respond_json(400, {"event": "error", "error": "body must be JSON"})
            return
        if isinstance(payload, dict) and self.path != "/job":
            payload.setdefault("cmd", self.path[1:])
        try:
            events = self.manager.stream(payload)
            first = next(events)
        except ServeError as exc:
            self._respond_json(400, {"event": "error", "error": str(exc)})
            return
        except Exception as exc:
            self._respond_json(500, _error_event(exc))
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            self.wfile.write(_dumps(first))
            self.wfile.flush()
            for event in events:
                self.wfile.write(_dumps(event))
                self.wfile.flush()
        except Exception as exc:
            # Headers are gone; the error becomes the stream's last event.
            self.wfile.write(_dumps(_error_event(exc)))


class ReproServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`JobManager`."""

    daemon_threads = True

    def __init__(self, address, manager: JobManager, verbose: bool = False):
        super().__init__(address, ReproRequestHandler)
        self.manager = manager
        self.verbose = verbose


def _refresh(manager: JobManager) -> None:
    """Bring the default registry up to date at scrape time.

    The stat dicts are the only counters.  Each key becomes one counter
    series: ``repro_serve_<key>_total`` for the job layers,
    ``repro_<key>_total`` for the corpus tallies folded into the
    executor, and ``repro_engine_<key>_total`` for every other executor
    key.  Each dict is copied once, since ``add_stats`` can add a key
    while a scrape runs.
    """
    registry = obs_metrics.get_registry()
    for key, value in dict(manager.stats).items():
        registry.set_counter(
            f"repro_serve_{key}_total", value, help="serve layer counters"
        )
    for key, value in dict(manager.executor.stats).items():
        layer = "" if key.startswith("corpus_") else "engine_"
        registry.set_counter(
            f"repro_{layer}{key}_total", value, help="engine sweep counters"
        )
    registry.set_gauge(
        "repro_engine_workers",
        manager.executor.workers,
        help="engine worker processes",
    )
    registry.set_gauge(
        "repro_serve_response_cache_entries",
        len(manager._responses),
        help="response cache entries",
    )
    tracer = obs_trace.get_tracer()
    if tracer is not None:
        registry.set_gauge(
            "repro_trace_spans_total",
            tracer.spans_written,
            help="spans written to the trace sink",
        )


def render_metrics(manager: JobManager) -> str:
    """The ``GET /metrics`` body: Prometheus text exposition of the
    default registry, brought up to date first."""
    _refresh(manager)
    return obs_metrics.get_registry().render()


def service_stats(manager: JobManager) -> dict:
    """The ``/stats`` payload: job layers + engine totals, plus the
    active trace id (if the server runs under ``--trace``) and a
    JSON snapshot of the metrics registry."""
    _refresh(manager)
    return {
        "jobs": dict(manager.stats),
        "engine": dict(manager.executor.stats),
        "engine_last": dict(manager.executor.last_stats),
        "workers": manager.executor.workers,
        "response_cache_size": manager.cache_size,
        "trace": obs_trace.current_trace_id(),
        "metrics": obs_metrics.get_registry().snapshot(),
    }


def serve_stdio(manager: JobManager, inp=None, out=None) -> int:
    """JSON-lines loop: one request per line, NDJSON events out.

    Returns the number of requests served.  ``{"cmd": "shutdown"}``
    (or EOF) ends the loop after a ``bye`` event.
    """
    inp = sys.stdin if inp is None else inp
    out = sys.stdout if out is None else out

    def emit(event: dict) -> None:
        out.write(_dumps(event).decode())
        out.flush()

    served = 0
    for line in inp:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except _BAD_JSON as exc:
            emit({"event": "error", "error": f"bad JSON: {exc}"})
            continue
        if isinstance(payload, dict) and payload.get("cmd") == "shutdown":
            emit({"event": "bye", "served": served})
            break
        try:
            for event in manager.stream(payload):
                emit(event)
            served += 1
        except Exception as exc:
            emit(_error_event(exc))
    return served


def serve_http(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8787,
    stream=None,
    verbose: bool = False,
) -> int:
    """Run the HTTP front end until SIGTERM/SIGINT; returns 0 on a
    clean shutdown.

    Prints ``serving on http://HOST:PORT`` once bound (``--port 0``
    binds an ephemeral port and this line is how callers learn it).
    """
    stream = sys.stdout if stream is None else stream
    server = ReproServer((host, port), manager, verbose=verbose)

    def _terminate(signum, frame):
        # serve_forever() is blocked in its poll loop on this same
        # thread; raising unwinds it so the finally below runs and the
        # process exits 0 — calling server.shutdown() here would
        # deadlock (it joins the loop the handler interrupted).
        raise SystemExit(0)

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        bound_host, bound_port = server.server_address[:2]
        print(f"serving on http://{bound_host}:{bound_port}", file=stream)
        stream.flush()
        server.serve_forever(poll_interval=0.1)
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        manager.close()
    return 0
