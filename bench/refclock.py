"""Op times counted in runs of a fixed reference loop.

On a shared machine the CPU's own speed wanders: a fixed pure-Python loop
took from 0.24 to 0.39 s within one quarter-minute, in CPU time as much as
in wall time, and a whole run can be slower than the next.  Seconds of the
same work then spread too widely to compare two versions of the program.

While a `RefClock` runs, a timer signal interrupts the program every
`INTERVAL` seconds of wall time and times one call of `reference_loop`, a
fixed loop that lives in the benchmark, not in the library.  The handler
runs in the main thread between bytecodes, so it samples the speed the
program itself is getting.  A timed region's length in refs is its own
seconds, less the time spent in those interruptions, times the mean of
1 / (reference seconds) over the samples taken meanwhile: how many
reference loops the CPU would have run in the same time.  A program change
moves that count; a machine that slows down for a while does not.
"""

from __future__ import annotations

import signal
import time

# CSV-like lines of small integer cells and a table to look the cells up
# in: splitting, stripping and hashing short strings, as the library's
# readers and predictors do.  Each call takes the next REF_LINES lines.
REF_CELLS = {str(i): i for i in range(1000)}
REF_TEXT = [",".join(str((i * 7919 + j) % 1000) for j in range(12))
            for i in range(2000)]
REF_LINES = 150
INTERVAL = 0.02


def reference_loop(start: int) -> int:
    """About 0.4 ms of interpreter work at full speed on a 2020s x86 core."""
    s = 0
    for line in REF_TEXT[start:start + REF_LINES]:
        for cell in line.split(","):
            s += REF_CELLS[cell.strip()]
    return s


class RefClock:
    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.inv: list[float] = []  # 1 / seconds of each sampled loop
        self.spent = 0.0  # seconds spent inside the sampling handler
        self._previous = None
        self._start = 0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop(self._start)
        t1 = time.perf_counter()
        self._start = (self._start + REF_LINES) % (len(REF_TEXT) - REF_LINES)
        self.inv.append(1.0 / (t1 - t0))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple:
        return time.perf_counter(), self.spent, len(self.inv)

    def since(self, mark) -> tuple[float, list[float]]:
        """Seconds since `mark` outside the handler, and the samples
        taken meanwhile."""
        t0, spent0, n0 = mark
        seconds = time.perf_counter() - t0 - (self.spent - spent0)
        return seconds, self.inv[n0:]

    def refs(self, seconds: float, inv: list[float]) -> float:
        """`seconds` in reference loops, at the speed the samples `inv`
        show; a region too short to hold a sample uses the whole run's."""
        inv = inv or self.inv
        return seconds * sum(inv) / len(inv)
