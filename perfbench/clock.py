"""Operation timing normalised by the CPU speed sampled during the work.

On the shared 2-core hosts this benchmark was built on, the speed of a
fixed pure-Python loop drifts by up to +-30% within seconds, in the CPU
time of the process as much as in wall time.  Raw durations of one and the
same pass therefore spread more than any useful regression bound.  So
while a Clock is open, a timer signal runs probe(), a short fixed loop of
dict and integer work, every SAMPLE_EVERY_S seconds, also in the middle of
an operation (the handler runs between bytecodes of the main thread).  An
operation's time excludes the probes that ran inside it, and its
normalised time is

    raw seconds * REF_PROBE_S / (mean duration of the probes from the
                                 last one before it to the first after it),

that is, seconds at the speed the probe has when it takes REF_PROBE_S.
Both the raw and the normalised times are reported; the end-to-end metrics
use the normalised ones.  run.py pins the benchmark and its children to
one CPU so that the probes run where the work runs.  When the work runs in
a child process, a probe during it would share the CPU with the child and
measure that sharing instead of the speed; Clock(inside=False) probes
between operations only.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_PROBE_S = 0.0012
SAMPLE_EVERY_S = 0.05


def probe() -> float:
    """Duration of the calibration loop, in seconds."""
    t0 = perf_counter()
    d: dict = {}
    x = 0
    for i in range(6000):
        k = i & 255
        d[k] = d.get(k, 0) + i * 7
        x ^= (i * 2654435761) & 0xFFFF
    return perf_counter() - t0


def normalise(raw_s: float, before: float, after: float) -> float:
    """Normalise one duration measured between two probes."""
    return raw_s * REF_PROBE_S / ((before + after) / 2)


class Clock:
    """Times operations inside `with Clock() as clock:`; read raw and norm
    (seconds per operation) and samples after the block."""

    def __init__(self, inside: bool = True):
        self.inside = inside
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self.raw: list[float] = []
        self.norm: list[float] = []
        self._in_probes = 0.0
        self._ops: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        self.samples.append((t0, probe()))
        self._in_probes += perf_counter() - t0

    def __enter__(self) -> "Clock":
        self._sample()
        if self.inside:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        starts = [s for s, _ in self.samples]
        for t0, t1, dt in self._ops:
            lo = max(bisect_right(starts, t0) - 1, 0)
            hi = bisect_left(starts, t1)
            window = [d for _, d in self.samples[lo:hi + 1]]
            self.raw.append(dt)
            self.norm.append(dt * REF_PROBE_S * len(window) / sum(window))

    def time(self, fn, *args, **kwargs):
        """Call fn and record its duration, probes inside it excluded."""
        inside = self._in_probes
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t1 = perf_counter()
        self._ops.append((t0, t1, (t1 - t0) - (self._in_probes - inside)))
        if not self.inside and t1 - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self._sample()
        return out
