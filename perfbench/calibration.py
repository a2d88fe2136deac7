"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a machine shared with other tenants, the speed of one core moves by up to
1.6x from one second to the next, and stays low for minutes at a time. Every
timed operation of the benchmark is bracketed by two samples of this loop,
and its time is scaled by theirs: the scaled time is what the operation
would take on a machine where the loop takes exactly REFERENCE_S.

The loop does the kind of work circio does (small integer sets, sorting,
tuple hashing, dict updates) and uses none of circio, so a change to circio
cannot move it. Only the standard library's `time` is imported here, so the
set-up child can load this module before its clock starts.
"""

import time

REFERENCE_S = 0.001
_REPEATS = 5


def _loop() -> int:
    seen: dict = {}
    for n in range(40, 60):
        for x in range(1, n, 3):
            key = tuple(sorted({(x * j) % n for j in range(1, 25)}))
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


def sample(repeats: int = _REPEATS) -> float:
    """Mean of `repeats` timings of the loop, in seconds.

    The mean, not the fastest: an operation runs at the machine's average
    speed around it, not at its best moment.
    """
    total = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        total += time.perf_counter() - start
    return total / repeats


def scaled(elapsed_s: float, loop_s: float) -> float:
    """elapsed_s as it would read on the reference machine."""
    return elapsed_s * REFERENCE_S / loop_s
