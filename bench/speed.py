"""Host speed sampling for the benchmark's interpreters.

On a shared host the same op can take 1.0x or 1.7x its time depending on what
the neighbours run, switching every 0.3 to 1.5 s (measured on a 2-vCPU Xeon
virtual machine).  `Sampler` times a fixed burst of the package's kinds of
work every PERIOD_S during a span, on a daemon thread that the GIL
interleaves with the span's own work, and EDGE times right after it.  Nothing
runs before the span that could warm up what the span pays for.  `scale`
turns the burst times into the factor that gives the time the span would
take on a host where a burst takes NOMINAL_S; the bursts run during the span
are subtracted from its time first.
"""

from __future__ import annotations

import json
import threading
import time
from fractions import Fraction

NOMINAL_S = 0.001
PERIOD_S = 0.05
EDGE = 8  # bursts right after the span
_BIG_MODULUS = 7**1800 + 3


def burst() -> float:
    """Seconds taken by a fixed ~1 ms workload of the package's two kinds of
    work, which a busy neighbour slows by different factors: interpreted
    `Fraction` arithmetic with small containers, str and JSON, and
    arithmetic on 2000-bit integers.  Timing both together tracks the ops of
    every workload better than either alone."""
    start = time.perf_counter()
    for rep in range(3):
        acc, x = Fraction(0), rep + 1
        rows = []
        for k in range(1, 25):
            acc += Fraction(k, k * k + 1)
            x = (x * 104729 + k) ** 2 % (1 << 200)
            rows.append({"k": str(acc), "v": [Fraction(x, k) for _ in range(3)]})
        json.dumps([r["k"] for r in rows])
    x = 3**2000 + 12345
    for k in range(5):
        x = x * (x + k) % _BIG_MODULUS
    return time.perf_counter() - start


class Sampler:
    """Context manager timing bursts during and right after the `with` body."""

    def __init__(self):
        self.bursts: list[float] = []
        self.inside_s = 0.0  # burst time spent on the thread during the body
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            took = burst()
            self.bursts.append(took)
            self.inside_s += took

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.bursts += [burst() for _ in range(EDGE)]


def scale(bursts: list[float]) -> float:
    """NOMINAL_S over the mean burst time, ignoring bursts the OS interrupted."""
    cap = 3 * sorted(bursts)[len(bursts) // 2]
    kept = [b for b in bursts if b <= cap]
    return NOMINAL_S * len(kept) / sum(kept)
