"""Machine-speed reference for the end-to-end timings.

On a shared virtual machine the same computation can run at 0.6x to 1.2x
of its usual speed for stretches of seconds to minutes (measured on a 2-vCPU
KVM guest: a 0.23 s operation's 5-second window medians swung by +-30%).
Raw seconds then say as much about the neighbours as about homord.  So
timed calls are surrounded by readings of a short fixed loop, shaped like
homord's hot paths (tuple probes into a frozenset table, byte-string codes
as dict keys, set scans), and reported in reference seconds:

    reference seconds = raw seconds * REF_S / (mean loop time around the call)

Interleaved with a 0.2 s operation this cut the spread of 5-second medians
from 0.24 to 0.04 (IQR over median); across 10-seed benchmark runs it cut
the spread of wall_s from ~0.2-0.27 to ~0.06-0.13 for the mc, exact and
cli workloads and of setup_s from ~0.2-0.4 to ~0.1-0.19.

The loop is benchmark code, so a change to homord moves only the raw
seconds.  It uses the standard library only and runs with the garbage
collector paused, so the heap of the process around it does not leak in.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time

REF_S = 0.05  # seconds for one loop on a quiet 2-vCPU Xeon KVM guest
STALE_S = 1.0  # a loop reading older than this is taken again
LONG_S = 2.0  # after a call this long, the closing reading is a median of BURST loops
BURST = 5
UNSCALED_S = 15.0  # calls longer than this are reported in raw seconds

_N = 40
_EDGES = frozenset(
    (a, b) for a in range(_N) for b in range(_N) if a != b and (7 * a + 7 * b + a * b) % 3 == 0
)
_ADJ = [frozenset(b for x, b in _EDGES if x == a) for a in range(_N)]


def loop_seconds() -> float:
    """Run the fixed reference loop once and return its duration."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        codes: dict[bytes, int] = {}
        for pts in itertools.islice(itertools.permutations(range(_N), 3), 4500):
            hits = []
            for idx in itertools.product(range(3), repeat=2):
                if tuple(pts[i] for i in idx) in _EDGES:
                    hits.append(idx)
            code = ("k3|E=" + ";".join(",".join(map(str, h)) for h in hits)).encode()
            codes[code] = codes.get(code, 0) + 1
        for a, b in itertools.combinations(range(_N), 2):
            for w in range(_N):
                if w != a and w != b and a in _ADJ[w] and b not in _ADJ[w]:
                    break
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Times calls in reference seconds.

    A call's speed is the mean of a loop reading just before it and one just
    after it; a reading fresher than STALE_S is reused, so a run of short
    calls shares readings.  After a call longer than LONG_S the closing
    reading is the median of BURST loops, since one reading is noisy.  A
    call longer than UNSCALED_S already averages over many swings and
    readings at its ends describe it poorly (scaling the 25-40 s graph t=3
    chain this way doubled its spread across runs), so it stays raw.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._at = -float("inf")

    def reading(self) -> float:
        if time.perf_counter() - self._at >= STALE_S:
            self.readings.append(loop_seconds())
            self._at = time.perf_counter()
        return self.readings[-1]

    def time(self, fn):
        """Call fn(); return (result, raw seconds, reference seconds)."""
        before = self.reading()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        if raw > UNSCALED_S:
            return result, raw, raw
        if raw >= LONG_S:
            burst = [loop_seconds() for _ in range(BURST)]
            self.readings += burst
            self._at = time.perf_counter()
            after = statistics.median(burst)
        else:
            after = self.reading()
        return result, raw, raw * REF_S / ((before + after) / 2)
