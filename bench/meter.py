"""CPU time of the code under test, and the speed of the machine it ran at.

On a shared virtual machine the same work takes up to 1.8x longer in
one phase than in another, and the phases change over seconds to
minutes, so raw times of two runs minutes apart differ by more than
any bound a benchmark could hold.  The meter therefore keeps measuring
the machine while the library runs: every ``TICK_S`` of CPU time a
timer signal interrupts the main thread, which runs one fixed
calibration slice and times it.  The slice is the library's own kind
of inner loop (tests and closures over integer bit rows), since a busy
neighbour slows different kinds of work by different factors.  Over
any interval the meter knows the CPU time the library got, with the
slices taken out, and the rate at which the slices ran.  ``elapsed_ms`` turns the CPU time since
a mark into milliseconds at ``REFERENCE_SPEED``: the time the same work
takes on a machine that runs ``REFERENCE_SPEED`` slices per CPU second.
The rate is taken over the interval itself when it holds at least
``WINDOW`` slices, else over the last ``WINDOW`` slices, so that short
intervals are scaled by the speed of the moment they ran in.  Without
a running meter (the traced run) times are plain CPU times.

Timer signals are per process, so a process has one meter, ``METER``.
"""

from __future__ import annotations

import random
import signal
import time
from collections import deque
from dataclasses import dataclass

TICK_S = 0.005
WINDOW = 20
# Slices per CPU second, the median over passes on a 2-vCPU Intel Xeon
# virtual machine (Python 3.11); the unit of every scaled time.
REFERENCE_SPEED = 3400.0


@dataclass(frozen=True)
class Rows:
    """Bit rows of a relation, as the library keeps orders and contacts."""

    up: tuple


class Calibration:
    """The fixed work of one slice, about 0.3 ms: the library's kind of
    inner loop, on integer bit rows.  It allocates one list and no other
    container, so its speed depends neither on garbage collections nor
    on the allocator's state, both of which follow what the library
    keeps alive."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.small = Rows(tuple(rng.getrandbits(30) | 1 << k for k in range(30)))
        self.large = Rows(tuple(rng.getrandbits(128) | 1 << k for k in range(128)))

    def run(self) -> int:
        # a transitive closure over 30 one-digit rows
        rows = list(self.small.up)
        for k in range(len(rows)):
            bit, row = 1 << k, rows[k]
            for i in range(len(rows)):
                if rows[i] & bit:
                    rows[i] |= row
        total = sum(rows)
        # a pairwise symmetry test over 128-bit rows
        large = self.large
        for i in range(0, 128, 7):
            for j in range(0, 128, 7):
                total += bool(large.up[i] >> j & 1) != bool(large.up[j] >> i & 1)
        return total


@dataclass(frozen=True)
class Mark:
    """The meter's totals at one moment."""

    cpu_s: float
    slices: int
    slice_s: float


class Meter:
    """Library CPU time and calibration slices for this process."""

    def __init__(self) -> None:
        self.slices = 0
        self.slice_s = 0.0      # CPU time inside slices
        self.handler_s = 0.0    # CPU time inside the signal handler
        self.recent: deque = deque(maxlen=WINDOW)  # durations of the last slices
        self.calibration: Calibration | None = None

    def clock(self) -> float:
        """CPU seconds of this thread, less those the handler took.  A
        handler that runs between the two reads changes ``handler_s``;
        then read again."""
        while True:
            taken = self.handler_s
            now = time.thread_time()
            if taken == self.handler_s:
                return now - taken

    def _tick(self, signum, frame) -> None:
        entered = time.thread_time()
        self.calibration.run()
        done = time.thread_time()
        self.slices += 1
        self.slice_s += done - entered
        self.recent.append(done - entered)
        self.handler_s += time.thread_time() - entered

    def start(self) -> None:
        self.calibration = Calibration()
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def mark(self) -> Mark:
        return Mark(self.clock(), self.slices, self.slice_s)

    def speed_since(self, mark: Mark) -> float | None:
        """Slices per CPU second over the interval since ``mark``, or
        over the last ``WINDOW`` slices; None before the first slice."""
        slices = self.slices - mark.slices
        if slices >= WINDOW:
            return slices / (self.slice_s - mark.slice_s)
        if not self.recent:
            return None
        return len(self.recent) / sum(self.recent)

    def elapsed_ms(self, mark: Mark) -> float:
        """Milliseconds of library CPU time since ``mark``, at the
        reference speed while the meter runs."""
        cpu_s = self.clock() - mark.cpu_s
        speed = self.speed_since(mark)
        if speed is not None:
            cpu_s *= speed / REFERENCE_SPEED
        return 1000 * cpu_s


METER = Meter()
clock = METER.clock
mark = METER.mark
elapsed_ms = METER.elapsed_ms
