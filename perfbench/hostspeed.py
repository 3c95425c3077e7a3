"""Host-speed calibration for the end-to-end times.

On a small shared host the CPU's speed moves with the neighbours' load:
by up to 2x within seconds, and for a minute or more at a time, so the
same code measured in two runs differs by more than any useful bound.
``scale()`` times a fixed pure-Python loop -- integer arithmetic and
dict stores, then fixed-size record decoding into small objects, method
calls and a list sort, the kinds of work the engine's interpreter time
is made of -- and returns the factor that turns a time measured right
after it into the time the same work takes on a host where the loop
takes ``REFERENCE_SECONDS``.  The runner calls it before every round of
operations and on both sides of every set-up.

The loop never calls the engine, so a change to the engine moves the
scaled times as it moves the raw ones.  What the scaling cannot tell
from a neighbour's load is CPU time the program itself spends while the
loop runs (a busy background thread in the client, or in the server,
which shares the client's CPU); the report's ``raw_ops_per_s`` and
``host_speed`` lines show what was scaled away.
"""

from __future__ import annotations

import gc
import struct
import time

# The loop's time (fastest of REPEATS) on the host the benchmark was
# built on, a 2-CPU KVM guest on a Xeon with Python 3.11: the tenth
# percentile of 275 calibrations over 15 seconds.  Only a constant: a
# change to it rescales every time the benchmark reports.
REFERENCE_SECONDS = 1.05e-3
REPEATS = 3  # the loop's fastest of this many runs is taken

_RECORD = struct.Struct("<iiii")
_PAGE = b"".join(_RECORD.pack(i, i * 3, i & 7, 99) for i in range(256))


class _Row:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def key(self) -> int:
        return self.a ^ self.b


def _loop() -> int:
    total, table = 0, {}
    for i in range(4000):
        total += i * i
        table[i & 255] = total
    kept, index = [], {}
    for _ in range(6):
        for offset in range(0, len(_PAGE), _RECORD.size):
            a, b, c, d = _RECORD.unpack_from(_PAGE, offset)
            row = _Row(a, b + c)
            index[row.key() & 127] = row
            if c & 1:
                kept.append((a, b, d))
    kept.sort()
    return len(kept) + len(index) + len(table)


def scale() -> float:
    """``REFERENCE_SECONDS`` over the loop's time now: multiply a time
    measured next by it.  The collector is paused while the loop runs,
    so a collection of the program's own heap is not counted as the
    host's slowness."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return REFERENCE_SECONDS / best
