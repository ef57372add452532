"""How fast the host's CPUs run while the benchmark measures, and the
correction that reports every time at reference speed.

On the shared reference host each CPU switches, for one to tens of
seconds at a time, between its normal speed and a contended one up to
~1.5x slower, and a slow stretch can outlast a whole run. The same code
then takes more *CPU* time, not only more wall time, so neither a
fastest-of-N nor a CPU-time figure removes it.

This file, run as a script (``python3 perfbench/speed.py OUT CPU``), is
the meter: every :data:`PERIOD_S` it runs a small fixed piece of
interpreter work (:func:`probe`: build a dict of short strings and sort
it) on ``CPU``, the one the measured process is pinned to, times it by
its own thread CPU time, and appends ``monotonic_time cost_s`` to
``OUT`` until it is terminated. :class:`SpeedMeter` starts and stops it, and
:meth:`SpeedMeter.speed` turns the probes taken during an interval into
the host's speed relative to the reference host. The benchmark reports
each time multiplied by that speed: what it would have taken on the
reference host at its normal speed.

The dict-and-sort probe was chosen over a plain integer loop because it
tracks ``run all`` better: over eight warm runs on the reference host,
dividing by the integer loop's cost cut the spread of the run time
(coefficient of variation) from 0.067 to 0.056, dividing by a
dict-and-sort probe's cost cut it to 0.031 (that probe used 3000 keys;
this one uses 800 to cost less).
"""

from __future__ import annotations

import bisect
import os
import signal
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

#: How often the meter probes.
PERIOD_S = 0.04
#: What :func:`probe` costs on the reference host (2-vCPU Xeon VM,
#: Python 3.11) at its normal speed; a speed of 1.0 means this cost.
REFERENCE_PROBE_S = 0.5e-3


def probe() -> float:
    """Thread CPU time of one fixed piece of dict, string and sort work."""
    start = time.thread_time()
    table = {}
    for i in range(800):
        table[str(i)] = [i, i * 7 % 801]
    sorted(table, key=lambda key: table[key][1])
    return time.thread_time() - start


class SpeedMeter:
    """The meter process, probing ``cpu``, with its log at ``path``.

    Use as a context manager around everything the run times.
    """

    def __init__(self, path: str, cpu: int) -> None:
        self.path = path
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "SpeedMeter":
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path, str(self.cpu)]
        )
        return self

    def __exit__(self, *_exc) -> None:
        if self.proc is not None:
            self.proc.terminate()
            self.proc.wait(timeout=10)
            self.proc = None

    def samples(self) -> List[Tuple[float, float]]:
        """Every probe logged so far: ``(monotonic_time, cost_s)``."""
        rows = []
        try:
            with open(self.path, encoding="ascii") as handle:
                for line in handle:
                    fields = line.split()
                    if len(fields) == 2:
                        rows.append((float(fields[0]), float(fields[1])))
        except FileNotFoundError:
            pass
        return rows

    def speed(self, start: float, end: float) -> float:
        """Mean host speed (reference = 1.0) over the probes in ``[start, end]``.

        Times are ``time.monotonic()``. A probe's speed is the reference
        cost over its cost, so ``time x speed`` is the time the reference
        host would have needed. An interval with no probe in it takes the
        two nearest to it.
        """
        return self.speeds_at([(start, end)])[0]

    def speeds_at(self, intervals: Sequence[Tuple[float, float]]) -> List[float]:
        """:meth:`speed` for many intervals, reading the log once."""
        rows = sorted(self.samples())
        if not rows:
            raise RuntimeError("the speed meter took no probes")
        times = [row[0] for row in rows]
        prefix = [0.0]
        for _at, cost in rows:
            prefix.append(prefix[-1] + REFERENCE_PROBE_S / cost)
        speeds = []
        for start, end in intervals:
            low, high = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
            if high == low:
                low = max(0, min(low - 1, len(rows) - 2))
                high = min(len(rows), low + 2)
            speeds.append((prefix[high] - prefix[low]) / (high - low))
        return speeds


def main() -> int:
    path, cpu = sys.argv[1], int(sys.argv[2])
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(0))
    os.sched_setaffinity(0, {cpu})
    with open(path, "w", encoding="ascii") as out:
        while True:
            cost = probe()
            out.write(f"{time.monotonic():.6f} {cost:.9f}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    sys.exit(main())
