"""Time work in units of a calibration loop run between slices of it.

The shared virtual machines this benchmark runs on change speed by 15-50%
over seconds to minutes, so a wall-clock time read once varies by that much
from run to run.  :class:`RefClock` cuts the work into slices of about
``INTERVAL_S`` with a real-time interval timer.  At each cut it runs a fixed
calibration loop and times it: a few milliseconds of the kind of Python the
program runs -- small objects made and dropped, method calls, tuple-keyed
dictionary updates, frozensets.  (On a 2-CPU virtual machine whose raw times
spread by 14-27% between runs, this loop brought the spread of explore,
fuzz and compile times down to 1-4%; a pure arithmetic loop only to 6-11%.)  Each slice is then
counted twice: in seconds, and in *ref* -- its duration divided by the mean
duration of the two calibration loops around it.  A ref time is how many
calibration loops the work took at the speed the machine ran at just then;
it moves with the program's own speed and much less with the machine's.

Named accounts collect the slices that fall inside them, so one run can
report its whole measuring phase and, inside it, only its compiles.  The
calibration loops themselves are counted in no account.

The timer signal is handled in the main thread between bytecodes; it is set
with ``siginterrupt(False)`` so that system calls it lands in restart.
Workloads that run program threads (``saturate``) do not start the timer:
they time each run themselves and convert it with :meth:`RefClock.to_ref`.
A clock made with ``calibrating=False`` (traced runs) runs no calibration
loop at all and counts seconds only.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Dict, List

#: Seconds per ref where a figure must be given in seconds (``setup_s``):
#: about what the calibration loop takes on an unloaded 2-CPU virtual
#: machine of the kind the benchmark was tuned on.  A fixed conversion, so
#: the figure still moves only with the program's speed.
REF_SECONDS = 0.005
#: Slice length: the interval timer's period.
INTERVAL_S = 0.25
#: Iterations of the calibration loop (about 5 ms).
ITERATIONS = 5_000


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def key(self) -> tuple:
        return (self.a, self.b & 7)


#: Bounded (at most 301 x 8 keys), so the loop does the same work each time.
_COUNTS: Dict[tuple, int] = {}


def calibration_loop() -> int:
    counts = _COUNTS
    for i in range(ITERATIONS):
        item = _Item(i % 301, i)
        key = item.key()
        counts[key] = counts.get(key, 0) + 1
        frozenset([item.a, key])
    return len(counts)


class RefClock:
    """Seconds and calibration-loop units of named stretches of work."""

    def __init__(self, calibrating: bool = True) -> None:
        self.calibrating = calibrating
        #: account -> [seconds, ref]
        self.accounts: Dict[str, List[float]] = {}
        self._open: List[str] = []
        self._last_chunk = self.calibrate() if calibrating else 0.0
        self._mark = time.perf_counter()
        self._ticking = False
        self._splitting = False

    @staticmethod
    def calibrate() -> float:
        """Run the calibration loop once and return its duration."""
        start = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - start

    def split(self) -> None:
        """Close the current slice, calibrate, and open the next one."""
        self._splitting = True
        seconds = time.perf_counter() - self._mark
        ref = self.to_ref(seconds)
        for name in self._open:
            account = self.accounts[name]
            account[0] += seconds
            account[1] += ref
        self._mark = time.perf_counter()
        self._splitting = False

    def to_ref(self, seconds: float) -> float:
        """Convert *seconds* of work that ended just now to ref, calibrating
        once (for work timed by the program itself, without :meth:`split`)."""
        if not self.calibrating:
            return 0.0
        chunk = self.calibrate()
        ref = seconds / ((self._last_chunk + chunk) / 2)
        self._last_chunk = chunk
        return ref

    def _on_timer(self, signum, frame) -> None:
        if not self._splitting:  # a tick inside a split is dropped
            self.split()

    def start_timer(self) -> None:
        if not self.calibrating:
            return
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._ticking = True

    def stop_timer(self) -> None:
        if self._ticking:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._ticking = False

    @contextmanager
    def account(self, name: str):
        """Count the work done inside the block in account *name*."""
        self.split()
        self.accounts.setdefault(name, [0.0, 0.0])
        self._open.append(name)
        try:
            yield
        finally:
            self.split()
            self._open.remove(name)

    def seconds(self, name: str) -> float:
        return self.accounts[name][0]

    def ref(self, name: str) -> float:
        return self.accounts[name][1]
