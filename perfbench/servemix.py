"""The seeded ``serve-mix`` traffic and its closed-loop HTTP client.

A mix is a list of request payloads in send order.  Every round of the
workload replays the same mix against a fresh server, so the class
counts are fixed by construction:

* ``cold``  — first sweep of a (matrix, scale) pair: matrix synthesis,
  SELL conversion and stream analysis, then the model;
* ``warm``  — a new variant set on a pair already touched: the engine's
  warm ``AnalysisCache`` answers the shared work, the model reruns;
* ``hit``   — a repeat of an earlier job: the response cache answers;
* ``store`` — a quick-scale experiment the committed store answers.

A request's class is the server's answering layer (``source``) plus
whether the mix touches its (matrix, scale) pair for the first time.
Repeats and warm requests reference jobs at least ``gap`` positions
back, so with two clients the job they depend on has almost always
finished; a repeat that still finds it running is answered by
single-flight coalescing and counted as class ``coalesced``.

Where the counts come from (:data:`FULL`):

* ``cold`` — one per matrix of the 20-matrix paper suite at the
  default 60k-nonzero scale: every (matrix, scale) pair is first
  touched exactly once.
* ``store`` — one per experiment with a matrix grid in the committed
  quick-scale store (``fig3``, ``fig4``, ``fig5a``, ``fig5b``,
  ``fig6b``; ``table1`` and ``fig6a`` take no grid).
* ``warm`` (2 per matrix) and ``hit`` (140 repeats) have no measured
  basis: no traffic log of the service exists.  They are a synthetic
  mix, chosen so that repeats are the most common request (about 70%
  of a round's requests) while computed sweeps still take most of the
  clients' busy time.  Each class's sample count and its measured
  share of the clients' busy time are in every ``serve-mix`` record,
  so a reader sees what ``wall_s`` and ``jobs_per_s`` are made of.

The client uses only the standard library, so its own cost does not
change with the program under test.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time

#: Variants a mix draws its sets from: the coalescing adapter variants.
VARIANTS = ("MLP8", "MLP16", "MLP32", "MLP64", "MLP128", "MLP256", "SEQ256")

#: Experiments with a matrix grid that the committed quick-scale store
#: answers.
EXPERIMENTS = ("fig3", "fig4", "fig5a", "fig5b", "fig6b")

#: The measured mix; the module docstring gives the basis of each count.
FULL = {
    "matrices": (
        "af_shell10", "adaptive", "BenElechi1", "bone010", "circuit5M_dc",
        "HPCG", "nlpkkt120", "pwtk", "Dubcova1", "exdata_1", "F1", "fv1",
        "G3_circuit", "hood", "msc01440", "msc10848", "Na5", "nasa4704",
        "s2rmq4m1", "thermal2",
    ),
    "scale": 60_000,
    "warm_per_matrix": 2,
    "hits": 140,
    "gap": 24,
}
SMOKE = {
    "matrices": ("pwtk", "msc01440", "nasa4704"),
    "scale": 12_000,
    "warm_per_matrix": 1,
    "hits": 12,
    "gap": 4,
}


def build_mix(seed: int, spec: dict) -> list[dict]:
    """The seeded request sequence; each item is ``{"index", "payload",
    "touch"}`` with ``touch`` = ``first`` on a pair's first sweep."""
    rng = random.Random(seed)
    matrices = list(spec["matrices"])
    rng.shuffle(matrices)
    variant_sets = {
        name: rng.sample(
            list(itertools.combinations(VARIANTS, 2)), 1 + spec["warm_per_matrix"]
        )
        for name in matrices
    }
    pending_warm = {name: variant_sets[name][1:] for name in matrices}
    cold_queue = list(matrices)
    experiments = list(EXPERIMENTS)
    rng.shuffle(experiments)
    hits_left = spec["hits"]

    gap = spec["gap"]
    mix: list[dict] = []
    first_at: dict[str, int] = {}
    issued: list[tuple[int, dict]] = []  # (position, payload) of each job

    def emit(payload: dict, touch: str, repeat: bool = False) -> None:
        if not repeat:
            issued.append((len(mix), payload))
        mix.append({"index": len(mix), "payload": payload, "touch": touch})

    while cold_queue or experiments or hits_left or any(pending_warm.values()):
        now = len(mix)
        ready_warm = [
            name for name, sets in pending_warm.items()
            if sets and name in first_at and now - first_at[name] >= gap
        ]
        repeatable = [payload for at, payload in issued if now - at >= gap]
        weights = {
            "cold": len(cold_queue),
            "warm": sum(len(pending_warm[name]) for name in ready_warm),
            "store": len(experiments),
            "hit": hits_left if repeatable else 0,
        }
        kinds = [kind for kind, weight in weights.items() if weight]
        if not kinds:
            # Only warm requests remain and none is old enough yet: pad
            # with an extra repeat of the oldest job.
            emit(issued[0][1], "again", repeat=True)
            continue
        kind = rng.choices(kinds, [weights[kind] for kind in kinds])[0]
        if kind == "cold":
            name = cold_queue.pop(0)
            first_at[name] = now
            emit(_sweep(name, variant_sets[name][0], spec["scale"]), "first")
        elif kind == "warm":
            name = rng.choice(ready_warm)
            emit(_sweep(name, pending_warm[name].pop(0), spec["scale"]), "again")
        elif kind == "store":
            emit({"cmd": "experiment", "name": experiments.pop(0), "quick": True}, "none")
        else:
            hits_left -= 1
            emit(rng.choice(repeatable), "again", repeat=True)
    return mix


def _sweep(matrix: str, variants, scale: int) -> dict:
    return {
        "cmd": "sweep",
        "matrices": [matrix],
        "variants": list(variants),
        "max_nnz": scale,
    }


def classify(source: str, touch: str) -> str:
    if source == "computed":
        return "cold" if touch == "first" else "warm"
    if source == "cache":
        return "hit"
    return source


def _post(port: int, payload: dict, timeout: float) -> dict:
    body = json.dumps(payload).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", f"/{payload['cmd']}", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        data = response.read()
        status = response.status
    finally:
        conn.close()
    events = [json.loads(line) for line in data.splitlines() if line.strip()]
    rows: list[dict] = []
    source = "error"
    error = None if status == 200 else f"HTTP {status}"
    for event in events:
        if event.get("event") == "rows":
            rows.extend(event["rows"])
        elif event.get("event") == "done":
            source = event["source"]
        elif event.get("event") == "error":
            error = event.get("error", "error event")
    return {"source": source, "rows": rows, "error": error}


def get_json(port: int, path: str, timeout: float = 10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise OSError(f"GET {path}: HTTP {response.status}")
    finally:
        conn.close()
    return data.decode() if path == "/metrics" else json.loads(data)


def drive(
    port: int, mix: list[dict], clients: int, timeout: float
) -> tuple[list[dict], float, float]:
    """Closed loop: ``clients`` connections each send the next request
    of the mix once their previous one has completed.  Returns one
    outcome per mix item (latency in ms, class, rows) and the
    ``time.monotonic()`` of the first send and the last completion."""
    outcomes: list[dict | None] = [None] * len(mix)
    cursor = [0]
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(mix):
                return
            item = mix[index]
            start = time.perf_counter()
            try:
                reply = _post(port, item["payload"], timeout)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                reply = {"source": "error", "rows": [], "error": repr(exc)}
            latency = (time.perf_counter() - start) * 1000.0
            reply["latency_ms"] = latency
            reply["class"] = classify(reply["source"], item["touch"])
            reply["index"] = index
            outcomes[index] = reply

    threads = [threading.Thread(target=client) for _ in range(clients)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, start, time.monotonic()
