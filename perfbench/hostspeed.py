"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed moves
under it: on the 2-vCPU VM it was written on, a fixed pure-Python loop
ran 1.5-1.8x slower in episodes of a few seconds that came and went
for minutes, with CPU time tracking wall time (the core itself slows;
no time is stolen).  A raw wall time then measures the neighbours as
much as the program: 30 s medians of the same code differed by more
than a third between runs minutes apart.

The benchmark therefore pins itself, and with it every process it
starts, to one CPU (:func:`pin_cpu`), and :class:`SpeedProbe` runs a
sampler on that CPU beside them: every ``PERIOD_S`` it wakes, times a
fixed loop of ``PROBE_ITERATIONS`` (about half a millisecond) and
appends ``<monotonic start> <seconds>`` to a file.  A woken sampler
preempts the busy program at once, so the samples trace the core's
speed through every interval the benchmark times.
:meth:`SpeedProbe.factor` turns the samples of an interval into
``REFERENCE_S / mean loop time``; a timing multiplied by it is the
time on a host whose probe loop takes ``REFERENCE_S`` seconds, which
is about this VM's fast state.  Per repetition, normalised times
correlate 0.95-0.98 with the samples and spread a third as much as raw
ones on that VM.

The sampler costs the program about 2.5% of its core, the same on
every commit.  It depends on nothing under ``src/``, so a change to
the program never changes the yardstick.

::

    python3 hostspeed.py OUT     # the sampler (started by SpeedProbe)
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Sampling period and loop size of the sampler.
PERIOD_S = 0.02
PROBE_ITERATIONS = 4000
#: Loop time of the reference host that normalised timings refer to.
REFERENCE_S = 0.0005
#: A sample longer than this multiple of its interval's median was
#: preempted mid-loop; it is left out of the mean.
OUTLIER = 3.0
#: An interval with fewer samples borrows the nearest ones.
MIN_SAMPLES = 3


def pin_cpu() -> int:
    """Pin this process (and so every process it starts afterwards) to
    the highest-numbered CPU it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe_loop(iterations: int) -> int:
    total = 0
    table: dict = {}
    for i in range(iterations):
        total += i * i % 7
        table[i & 1023] = total
    return total


class SpeedProbe:
    """The sampler process and the factors derived from its samples."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.samples: list[tuple[float, float]] = []
        self._offset = 0
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        self.path.write_text("")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 10.0
        while not self._read() and time.monotonic() < deadline:
            time.sleep(PERIOD_S)
        if not self.samples:
            self.__exit__(None, None, None)
            raise OSError("the host-speed sampler produced no samples")
        return self

    def __exit__(self, *exc) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def _read(self) -> list:
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        complete = data[: data.rfind(b"\n") + 1]
        self._offset += len(complete)
        for line in complete.decode().splitlines():
            start, seconds = line.split()
            self.samples.append((float(start), float(seconds)))
        return self.samples

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean loop time in ``[start, end]``
        (monotonic clock), preempted samples left out."""
        self._read()
        window = [s for t, s in self.samples if start <= t <= end]
        if len(window) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            window = [s for _, s in nearest[:MIN_SAMPLES]]
        limit = OUTLIER * statistics.median(window)
        return REFERENCE_S / statistics.fmean(s for s in window if s <= limit)


def sample(out_path: str) -> None:
    try:
        # Real-time priority: no thread of the program preempts a loop
        # half-way (the benchmark's own client threads share the CPU).
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except OSError:
        pass  # not permitted: OUTLIER drops the loops preempted longest
    with open(out_path, "a", buffering=1) as out:
        while True:
            time.sleep(PERIOD_S)
            start = time.monotonic()
            probe_loop(PROBE_ITERATIONS)
            out.write(f"{start:.6f} {time.monotonic() - start:.7f}\n")


if __name__ == "__main__":
    sample(sys.argv[1])
