#!/usr/bin/env python3
"""The repository benchmark: four fixed workloads, timed end to end.

::

    python3 perfbench/run.py --workload report-full --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each one exists):

``report-full``    ``report run`` at default scale (60k nnz, 20-matrix
                   suite, fast model) into a scratch store
``cycle-corpus``   ``corpus run --quick --offline --model cycle``: the
                   committed ``results/cycle/`` tier
``cycle-strided``  a cycle-model ``sweep --backend strided`` over
                   row-crossing strides (DRAM-latency-bound)
``serve-mix``      ``serve --workers 1`` over HTTP, driven by a seeded
                   closed loop of two client connections

Every batch repetition is a fresh interpreter running the CLI with
``--workers 1`` and its own scratch store, matrix cache and
``REPRO_CORPUS_CACHE``, so it pays what a command-line user pays.
Repetitions run until the run is as close to ``--seconds`` as whole
repetitions allow (at least two); each reported value is the median
over the run's repetitions.  Every ``serve-mix`` round starts a fresh
server and replays the same seeded mix.  All scratch state lives under
``.perfbench/`` in the checkout and is removed at exit.

Times are host-speed-normalised (:mod:`hostspeed`): the run pins
itself and everything it starts to one CPU, a sampler on that CPU
traces the core's speed, and each timing is scaled to a host whose
probe loop takes ``hostspeed.REFERENCE_S``.  Throughputs divide by
the normalised times.  The record keeps the raw times and the
factors beside them.

Every output is checked: ``report-full`` and ``cycle-strided`` against
the digests in ``reference.json`` (regenerate with
``make_reference.py``; the report manifest is compared without the
keys the program marks volatile), ``cycle-corpus`` byte for byte
against the committed ``results/cycle/`` tier, and ``serve-mix``
against a serial ``SweepExecutor.run`` of the same points.  A mismatch,
a failed request or a nonzero exit counts in ``failed``; the result
line is printed either way, with ``correct`` false and 0 for any metric
a failure left without a sample.

``--trace 1`` makes a separate run that reports the per-layer metrics:
one traced repetition with the program's own tracing and the wrappers
of ``layers.py``, plus untraced repetitions for the tracing overhead
and, on the cycle workloads, one under ``REPRO_SIM_ENGINE=step``.

The last stdout line is the result object; the line before it is the
provenance record (versions, seed, run count, and min/quartiles/median
of every metric).  ``--scale smoke`` shrinks every workload for the
self-tests in ``test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed
import servemix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SCRATCH = ROOT / ".perfbench"
# The output checks reuse the program's own manifest identity.
sys.path.insert(0, str(ROOT / "src"))

#: A run must end well inside the 180 s limit.
DEADLINE_S = 165.0
MIN_REPS = 2
MIN_SETUPS = 9

CYCLE_TIER = ROOT / "results" / "cycle"
CYCLE_TIER_FILES = ("corpus_adapter.csv", "corpus_rollup.csv", "corpus_manifest.json")

COMPONENTS = (
    "adapter", "arbiter", "coal", "dram", "elem_gen", "idx_fetch",
    "idx_split", "packer", "reorder", "stride_gen", "strided_unit",
)

#: CLI argument vectors per workload and scale; ``{store}``/``{cache}``
#: become per-repetition scratch directories.
BATCH_ARGV = {
    "report-full": {
        "full": ["report", "run", "--workers", "1", "--store", "{store}"],
        "smoke": ["report", "run", "--quick", "--workers", "1", "--store", "{store}"],
    },
    "cycle-corpus": {
        "full": [
            "corpus", "run", "--quick", "--offline", "--model", "cycle",
            "--workers", "1", "--store", "{store}", "--cache", "{cache}",
        ],
        "smoke": [
            "corpus", "run", "--quick", "--offline", "--model", "cycle",
            "--workers", "1", "--store", "{store}", "--cache", "{cache}",
            "--variants", "MLP64,SEQ256", "--nnz", "2000",
        ],
    },
    "cycle-strided": {
        "full": [
            "sweep", "linear", "s4096,s8192,s16384", "--backend", "strided",
            "--model", "cycle", "--nnz", "6000", "--workers", "1",
        ],
        "smoke": [
            "sweep", "linear", "s4096,s8192", "--backend", "strided",
            "--model", "cycle", "--nnz", "1000", "--workers", "1",
        ],
    },
}
WORKLOADS = (*BATCH_ARGV, "serve-mix")
CYCLE_WORKLOADS = ("cycle-corpus", "cycle-strided")


class Run:
    """Bookkeeping of one benchmark invocation."""

    def __init__(self, args, work: Path, probe: hostspeed.SpeedProbe) -> None:
        self.args = args
        self.work = work
        self.probe = probe
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def fail(self, message: str) -> None:
        self.failures.append(message)


# -- child processes -----------------------------------------------------------


def child_env(work: Path, **extra: str) -> dict:
    """The parent environment minus every ``REPRO_*`` knob, plus a
    private corpus cache: runs never share or leak state.  BLAS runs
    one thread, so a run uses one core however many the host leaves
    idle (the program's own ``--workers 1``)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CORPUS_CACHE"] = str(work / "corpus_cache")
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env.update(extra)
    return env


def timed(run: Run, record: dict, name: str, start: float, end: float) -> None:
    """Store the interval ``[start, end]`` as ``<name>`` (normalised),
    ``<name>_raw`` and ``<name>_factor``."""
    factor = run.probe.factor(start, end)
    record[f"{name}_raw"] = end - start
    record[f"{name}_factor"] = factor
    record[name] = (end - start) * factor


def spawn(run: Run, work: Path, mode: str, args: list[str], env_extra=None) -> dict:
    """Run ``child.py`` in a fresh interpreter; returns its result
    record plus ``setup_s``/``wall_s`` measured on the shared
    monotonic clock (see :func:`timed`) and the child's ``exit``
    status."""
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / f"{mode}.json"
    command = [sys.executable, str(CHILD), mode, str(result_path), *args]
    with open(work / f"{mode}.out", "w") as out:
        started = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(work, **(env_extra or {})),
            stdout=out, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=max(1.0, run.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
    record: dict = {}
    if code == 0 and result_path.is_file():
        record = json.loads(result_path.read_text())
        if "t_ready" in record:
            timed(run, record, "setup_s", started, record["t_ready"])
        if "t_done" in record:
            timed(run, record, "wall_s", record["t_ready"], record["t_done"])
    record["exit"] = code
    record["out"] = str(work / f"{mode}.out")
    return record


def cli_args(workload: str, scale: str, work: Path, layers: bool = False) -> list[str]:
    argv = [
        part.format(store=work / "store", cache=work / "cache")
        for part in BATCH_ARGV[workload][scale]
    ]
    return (["--layers"] if layers else []) + ["--", *argv]


# -- correctness -----------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def manifest_digest(path: Path) -> str:
    """Digest of a report manifest's identity: the manifest minus the
    keys ``report check`` also ignores (fan-out settings and cache
    totals), which change without any table changing."""
    from repro.report.store import manifest_identity

    identity = manifest_identity(json.loads(path.read_text()))
    return hashlib.sha256(json.dumps(identity, sort_keys=True).encode()).hexdigest()


def produced_digests(workload: str, work: Path, stdout_path: str) -> dict:
    """Digests of the outputs a batch repetition is judged on."""
    if workload == "report-full":
        store = work / "store"
        digests = {path.name: sha256(path) for path in sorted(store.glob("*.csv"))}
        if (store / "manifest.json").is_file():
            digests["manifest.json"] = manifest_digest(store / "manifest.json")
        return digests
    if workload == "cycle-corpus":
        return {
            name: sha256(work / "store" / name)
            for name in CYCLE_TIER_FILES
            if (work / "store" / name).is_file()
        }
    return {"table": hashlib.sha256(strided_table(stdout_path).encode()).hexdigest()}


def strided_table(stdout_path: str) -> str:
    """The sweep's result table (everything before the engine line)."""
    text = Path(stdout_path).read_text()
    return text.split("\nengine:", 1)[0]


def expected_digests(workload: str, scale: str, reference: dict) -> dict:
    if workload == "cycle-corpus" and scale == "full":
        return {name: sha256(CYCLE_TIER / name) for name in CYCLE_TIER_FILES}
    return reference["workloads"][workload][scale]["files"]


def mismatches(produced: dict, expected: dict) -> list[str]:
    """Names of outputs that are missing, extra, or differ."""
    names = sorted(set(produced) | set(expected))
    return [name for name in names if produced.get(name) != expected.get(name)]


def check_outputs(run: Run, label: str, work: Path, record: dict, expected: dict) -> None:
    """Record a failure if a completed repetition's outputs are
    unreadable or differ from the reference."""
    try:
        bad = mismatches(produced_digests(run.args.workload, work, record["out"]), expected)
    except (OSError, ValueError) as exc:
        bad = [f"unreadable: {exc}"]
    if bad:
        run.fail(f"{label}: outputs differ from reference: {bad}")


# -- statistics ------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {
        "n": len(ordered), "min": ordered[0], "q1": q1,
        "median": statistics.median(ordered), "q3": q3, "max": ordered[-1],
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at
    least ten samples beyond it; the median when there are too few."""
    ordered = sorted(values)
    if len(ordered) <= 20:
        return statistics.median(ordered), 50.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


# -- batch workloads ---------------------------------------------------------------


def another_rep(run: Run, reps: int, seconds: float) -> bool:
    """Whether one more repetition brings the run nearer to ``seconds``
    (judged by the mean repetition so far) and fits the deadline."""
    elapsed = time.monotonic() - run.started
    per_rep = elapsed / reps
    if reps >= MIN_REPS and elapsed + per_rep / 2 > seconds:
        return False
    return per_rep < run.remaining()


def run_batch(run: Run, reference: dict) -> tuple[dict, dict]:
    """Timed repetitions; returns (metric samples, extra record)."""
    workload, scale = run.args.workload, run.args.scale
    work_ref = reference["workloads"][workload][scale]
    samples = new_samples()
    expected = expected_digests(workload, scale, reference)
    reps = 0
    while run.remaining() > 0:
        rep_dir = run.work / f"rep{reps}"
        record = spawn(run, rep_dir, "cli", cli_args(workload, scale, rep_dir))
        reps += 1
        run.attempted += 1
        if record["exit"] != 0:
            run.fail(f"rep {reps}: exit {record['exit']} (see {record['out']})")
        else:
            check_outputs(run, f"rep {reps}", rep_dir, record, expected)
            wall = record["wall_s"]
            add_timings(samples, record)
            samples["jobs_per_s"].append(work_ref["design_points"] / wall)
            samples["nnz_per_s"].append(work_ref["nnz"] / wall)
            samples["sim_cycles_per_s"].append(work_ref["cycles"] / wall)
            samples["peak_rss_mb"].append(record["rss_mb"])
        shutil.rmtree(rep_dir, ignore_errors=True)
        if not another_rep(run, reps, run.args.seconds):
            break
    while samples["setup_s"] and len(samples["setup_s"]) < MIN_SETUPS and run.remaining() > 10:
        record = spawn(run, run.work / "setup", "setup", [])
        if record["exit"] == 0:
            add_timings(samples, record)
    return samples, {"repetitions": reps}


#: End-to-end metrics every workload reports.
END_TO_END = (
    "setup_s", "wall_s", "jobs_per_s", "nnz_per_s", "sim_cycles_per_s", "peak_rss_mb",
)


def new_samples() -> dict[str, list[float]]:
    """Sample lists of the end-to-end metrics, plus the raw times and
    host-speed factors behind ``setup_s`` and ``wall_s``."""
    names = [*END_TO_END]
    for name in ("setup_s", "wall_s"):
        names += [f"{name}_raw", f"{name}_factor"]
    return {name: [] for name in names}


def add_timings(samples: dict, record: dict) -> None:
    for name in ("setup_s", "wall_s"):
        for suffix in ("", "_raw", "_factor"):
            if name + suffix in record:
                samples[name + suffix].append(record[name + suffix])


def trace_batch(run: Run, reference: dict) -> tuple[dict, dict]:
    """Per-layer run: untraced, traced and (cycle workloads) step."""
    workload, scale = run.args.workload, run.args.scale
    expected = expected_digests(workload, scale, reference)
    outcomes = {}
    plan = [("untraced", False, None), ("traced", True, None)]
    if workload in CYCLE_WORKLOADS:
        plan.append(("step", False, {"REPRO_SIM_ENGINE": "step"}))
    for label, layers, env in plan:
        rep_dir = run.work / label
        record = spawn(run, rep_dir, "cli", cli_args(workload, scale, rep_dir, layers), env)
        run.attempted += 1
        if record["exit"] != 0:
            run.fail(f"{label}: exit {record['exit']} (see {record['out']})")
            continue
        check_outputs(run, label, rep_dir, record, expected)
        outcomes[label] = record
    snap = outcomes["traced"]["layers"] if "traced" in outcomes else None
    walls = {label: record["wall_s"] for label, record in outcomes.items()}
    metrics = layer_metrics(snap) if snap else {}
    # A metric whose repetitions failed is left out (it reads 0).
    if "traced" in walls and "untraced" in walls:
        metrics["obs.trace_overhead"] = walls["traced"] / walls["untraced"] - 1.0
    if "step" in walls and "untraced" in walls:
        metrics["sim.batched_vs_step"] = walls["step"] / walls["untraced"]
    if snap and snap["cycles"] and "untraced" in walls:
        # Host time per simulated cycle without the wrappers' overhead.
        metrics["sim.host_us_per_cycle"] = 1e6 * walls["untraced"] / snap["cycles"]
    extra = {
        "walls_s": walls,
        "reference_cycles": reference["workloads"][workload][scale]["cycles"],
        "components": sorted(snap["bins"]) if snap else [],
        "layer_calls": snap["calls"] if snap else {},
    }
    return metrics, extra


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(snap: dict) -> dict:
    """Per-layer values from a traced child's :func:`layers.snapshot`.

    Times are self time: the wrapped call minus the wrapped calls nested
    inside it.  ``engine.run_s``, ``corpus.run_s`` and ``sim.run_s`` are
    inclusive; ``engine.self_s``/``corpus.self_s`` are their self time.
    ``sim.<c>.busy_s`` is host time in component ``c``'s ``tick``,
    ``advance`` and ``bulk_tick``; the ``*_cycles`` values are the
    program's exact profiler bins.
    """
    self_s, total_s, calls = snap["self_s"], snap["total_s"], snap["calls"]
    engine, bins, cycles = snap["engine"], snap["bins"], snap["cycles"]
    metrics = {
        "sparse.get_matrix_s": self_s.get("sparse.get_matrix", 0.0),
        "sparse.to_sell_s": self_s.get("sparse.to_sell", 0.0),
        "sparse.to_sell_calls": calls.get("sparse.to_sell", 0),
        "sparse.ingest_s": self_s.get("sparse.ingest", 0.0),
        "axipack.fast_stream_s": self_s.get("axipack.fast_stream", 0.0),
        "axipack.coalesce_s": self_s.get("axipack.coalesce", 0.0),
        "axipack.analyze_s": self_s.get("axipack.analyze", 0.0),
        "mem.timeline_s": self_s.get("mem.timeline", 0.0),
        "mem.timeline_calls": calls.get("mem.timeline", 0),
        "vpc.baseline_s": self_s.get("vpc.baseline", 0.0),
        "vpc.pack_s": self_s.get("vpc.pack", 0.0),
        "sim.run_s": total_s.get("sim.run", 0.0),
        "sim.cycles": cycles,
        "engine.run_s": total_s.get("engine.run", 0.0),
        "engine.self_s": self_s.get("engine.run", 0.0),
        "engine.shard_s": self_s.get("engine.shard", 0.0),
        "engine.merge_s": self_s.get("engine.merge", 0.0),
        "engine.stream_s": self_s.get("engine.stream", 0.0),
        "engine.analysis_s": self_s.get("engine.analysis", 0.0),
        "engine.tasks": engine.get("tasks", 0),
        "engine.groups": engine.get("groups", 0),
        "engine.cache_evictions": engine.get("cache_evictions", 0),
        "corpus.run_s": total_s.get("corpus.run", 0.0),
        "corpus.self_s": self_s.get("corpus.run", 0.0),
        "corpus.groups_computed": engine.get("corpus_computed", 0),
        "corpus.groups_failed": engine.get("corpus_failed", 0),
        "report.write_s": self_s.get("report.write", 0.0),
        "report.render_s": self_s.get("report.render", 0.0),
    }
    lookups = engine.get("cache_hits", 0) + engine.get("cache_misses", 0)
    metrics["engine.cache_hit_ratio"] = engine.get("cache_hits", 0) / lookups if lookups else 0.0
    for name in ("fig3", "fig4", "fig5a", "fig5b", "fig6b"):
        metrics[f"report.{name}_s"] = self_s.get(f"report.{name}", 0.0)
    canon = calls.get("serve.canonicalize", 0)
    metrics["serve.canonicalize_us"] = (
        1e6 * total_s.get("serve.canonicalize", 0.0) / canon if canon else 0.0
    )
    skipped = elapsed = 0
    for component in COMPONENTS:
        actions = bins.get(component, {})
        for action in ("tick", "advance", "bulk"):
            metrics[f"sim.{component}.{action}_cycles"] = actions.get(action, 0)
        metrics[f"sim.{component}.busy_s"] = self_s.get(f"sim.{component}", 0.0)
    for actions in bins.values():
        skipped += actions.get("advance", 0) + actions.get("bulk", 0)
        elapsed += sum(actions.values())
    metrics["sim.skip_ratio"] = skipped / elapsed if elapsed else 0.0
    return metrics


# -- serve-mix ---------------------------------------------------------------------


def serve_round(run: Run, tag: str, store: Path, mix: list[dict], scrape: bool) -> dict:
    """One fresh ``serve`` process driven through the whole mix."""
    work = run.work / tag
    work.mkdir(parents=True)
    result_path = work / "cli.json"
    command = [
        sys.executable, str(CHILD), "cli", str(result_path), "--",
        "serve", "--port", "0", "--workers", "1", "--store", str(store),
        "--cache", "256",
    ]
    outcome: dict = {"outcomes": [], "exit": None}
    with open(work / "stderr.txt", "w") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(work), stdout=subprocess.PIPE,
            stderr=err, text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(1.0, run.remaining()))
            line = proc.stdout.readline() if ready else ""
            if not line.startswith("serving on "):
                raise OSError(f"server did not start: {line!r}")
            port = int(line.strip().rsplit(":", 1)[1])
            if servemix.get_json(port, "/healthz") != {"ok": True}:
                raise OSError("/healthz did not answer ok")
            timed(run, outcome, "setup_s", started, time.monotonic())
            outcome["outcomes"], first_send, last_reply = servemix.drive(
                port, mix, clients=2, timeout=max(1.0, run.remaining())
            )
            timed(run, outcome, "wall_s", first_send, last_reply)
            if scrape:
                outcome["stats"] = servemix.get_json(port, "/stats")
                outcome["metrics_text"] = servemix.get_json(port, "/metrics")
        except OSError as exc:
            run.fail(f"{tag}: {exc}")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    outcome["exit"] = proc.returncode
    if proc.returncode != 0:
        run.fail(f"{tag}: server exited {proc.returncode}")
    if result_path.is_file():
        outcome["rss_mb"] = json.loads(result_path.read_text())["rss_mb"]
    return outcome


def serve_setup(run: Run) -> tuple[Path, list[dict], Path]:
    store = run.work / "store"
    shutil.copytree(ROOT / "results" / "store", store)
    spec = servemix.FULL if run.args.scale == "full" else servemix.SMOKE
    mix = servemix.build_mix(run.args.seed, spec)
    mix_path = run.work / "mix.json"
    mix_path.write_text(json.dumps(mix))
    return store, mix, mix_path


def serve_rounds(run: Run, store: Path, mix: list[dict], seconds: float, scrape: bool) -> list[dict]:
    rounds: list[dict] = []
    while run.remaining() > 0:
        rounds.append(serve_round(run, f"round{len(rounds)}", store, mix, scrape))
        run.attempted += len(mix)
        if "wall_s" not in rounds[-1] or not another_rep(run, len(rounds), seconds):
            break
    return rounds


def check_rounds(run: Run, store: Path, mix: list[dict], mix_path: Path, rounds: list[dict]) -> None:
    """Outside the timed region: round 0 against the serial engine (in
    a fresh interpreter), every later round against round 0."""
    done = [r for r in rounds if len(r["outcomes"]) == len(mix)]
    for r in rounds:
        for reply in r["outcomes"]:
            if reply and reply["error"]:
                run.fail(f"request {reply['index']}: {reply['error']}")
    if not done:
        return
    first = done[0]["outcomes"]
    responses = run.work / "responses.json"
    responses.write_text(json.dumps(first))
    record = spawn(run, run.work / "check", "check-mix", [str(mix_path), str(responses), str(store)])
    if record["exit"] != 0:
        run.fail(f"serial check failed to run (see {record['out']})")
        return
    for index in record["mismatches"]:
        run.fail(f"request {index}: rows differ from the serial engine")
    baseline = [_rows_digest(reply) for reply in first]
    for number, r in enumerate(done[1:], start=1):
        for reply, digest in zip(r["outcomes"], baseline):
            if _rows_digest(reply) != digest:
                run.fail(f"round {number} request {reply['index']}: rows differ from round 0")


def _rows_digest(reply: dict) -> str:
    rows = sorted(json.dumps(row, sort_keys=True) for row in reply["rows"])
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def round_samples(rounds: list[dict]) -> dict[str, list[float]]:
    samples = new_samples()
    for r in rounds:
        if "wall_s" not in r:
            continue
        wall = r["wall_s"]
        computed = [o for o in r["outcomes"] if o["source"] == "computed"]
        add_timings(samples, r)
        samples["jobs_per_s"].append(len(r["outcomes"]) / wall)
        samples["nnz_per_s"].append(sum(row["count"] for o in computed for row in o["rows"]) / wall)
        samples["sim_cycles_per_s"].append(
            sum(row["cycles"] for o in computed for row in o["rows"]) / wall
        )
        if "rss_mb" in r:
            samples["peak_rss_mb"].append(r["rss_mb"])
    return samples


def class_latencies(rounds: list[dict]) -> dict:
    """Client-side latency per request class, pooled over rounds.
    ``share`` is the class's part of the clients' busy time (the sum of
    all latencies), i.e. how much of ``wall_s`` it accounts for."""
    by_class: dict[str, list[float]] = {}
    for r in rounds:
        for reply in r["outcomes"]:
            if reply and not reply["error"]:
                by_class.setdefault(reply["class"], []).append(reply["latency_ms"])
    busy = sum(sum(values) for values in by_class.values())
    classes = {}
    for name, values in sorted(by_class.items()):
        value, percentile = tail(values)
        classes[name] = {
            "n": len(values), "p50_ms": statistics.median(values),
            "tail_ms": value, "tail_pct": percentile,
            "mean_ms": statistics.fmean(values), "share": sum(values) / busy,
        }
    return classes


def run_serve(run: Run) -> tuple[dict, dict]:
    store, mix, mix_path = serve_setup(run)
    rounds = serve_rounds(run, store, mix, run.args.seconds, scrape=False)
    check_rounds(run, store, mix, mix_path, rounds)
    extra = {"rounds": len(rounds), "requests_per_round": len(mix),
             "classes": class_latencies(rounds)}
    return round_samples(rounds), extra


_HISTOGRAM = re.compile(
    r'^repro_serve_request_seconds_(sum|count)\{source="([a-z]+)"\} (\S+)$'
)


def server_latency_ms(metrics_text: str) -> dict:
    """Mean server-side latency per answering layer from ``/metrics``."""
    parts: dict = {}
    for line in metrics_text.splitlines():
        match = _HISTOGRAM.match(line)
        if match:
            kind, source, value = match.groups()
            parts.setdefault(source, {})[kind] = float(value)
    return {
        source: 1000.0 * values["sum"] / values["count"]
        for source, values in parts.items()
        if values.get("count")
    }


def trace_serve(run: Run) -> tuple[dict, dict]:
    store, mix, mix_path = serve_setup(run)
    rounds = serve_rounds(run, store, mix, run.args.seconds / 2, scrape=True)
    check_rounds(run, store, mix, mix_path, rounds)
    walls = {}
    metrics: dict = {}
    calls: dict = {}
    for label, flags in (("untraced", []), ("traced", ["--layers"])):
        record = spawn(run, run.work / label, "mix", [str(mix_path), str(store), *flags])
        run.attempted += len(mix)
        if record["exit"] != 0:
            run.fail(f"in-process {label} mix: exit {record['exit']} (see {record['out']})")
            continue
        walls[label] = record["wall_s"]
        if label == "traced":
            metrics = layer_metrics(record["layers"])
            calls = record["layers"]["calls"]
    # A metric whose run failed is left out (it reads 0).
    if len(walls) == 2:
        metrics["obs.trace_overhead"] = walls["traced"] / walls["untraced"] - 1.0
    last = next((r for r in reversed(rounds) if "stats" in r), None)
    server_ms: dict = {}
    if last is None:
        run.fail("no serve round completed")
    else:
        jobs = last["stats"]["jobs"]
        for key in ("requests", "response_hits", "store_hits", "coalesced", "computed", "errors"):
            metrics[f"serve.{key}"] = jobs[key]
        if jobs["requests"]:
            metrics["serve.hit_ratio"] = jobs["response_hits"] / jobs["requests"]
        server_ms = server_latency_ms(last["metrics_text"])
        for source in ("computed", "cache", "store"):
            metrics[f"serve.server_ms.{source}"] = server_ms.get(source, 0.0)
    classes = class_latencies(rounds)
    for name in ("cold", "warm", "hit"):
        entry = classes.get(name, {})
        metrics[f"serve.{name}_p50_ms"] = entry.get("p50_ms", 0.0)
        metrics[f"serve.{name}_tail_ms"] = entry.get("tail_ms", 0.0)
        metrics[f"serve.{name}_n"] = entry.get("n", 0)
    metrics["serve.transport_ms"] = (
        classes["hit"]["mean_ms"] - server_ms.get("cache", 0.0) if "hit" in classes else 0.0
    )
    extra = {"rounds": len(rounds), "classes": classes, "walls_s": walls,
             "layer_calls": calls}
    return metrics, extra


# -- output ------------------------------------------------------------------------


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "src_digest": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    work = SCRATCH / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    origin = provenance()
    cpu = hostspeed.pin_cpu()
    try:
        with hostspeed.SpeedProbe(work / "hostspeed.txt") as probe:
            run = Run(args, work, probe)
            reference = load_reference()
            if args.workload == "serve-mix":
                result, extra = (trace_serve if args.trace else run_serve)(run)
            else:
                result, extra = (trace_batch if args.trace else run_batch)(run, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer"] if args.trace else declared["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}
    if args.trace:
        # A layer the workload never enters reads 0; ``layer_calls``
        # in the record shows which wrappers fired.
        values = {name: result.get(name, 0) for name in units}
        stats = None
    else:
        # Failed repetitions give no samples; a metric without any
        # reads 0 (and the run is not correct).  ``stats`` also covers
        # the raw times and host-speed factors.
        stats = {name: summary(values) for name, values in result.items() if values}
        values = {name: stats[name]["median"] if name in stats else 0 for name in units}
        if not stats and not run.failures:
            run.fail("no repetition completed")
    record = {
        "workload": args.workload,
        "why": next(
            w["why"] for w in declared["workloads"] if w["name"] == args.workload
        ),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "provenance": {**origin, "cpu": cpu},
        "stats": stats,
        **extra,
        "failures": run.failures[:20],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": max(1, run.attempted),
        "failed": len(run.failures),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
