"""The references: fixed work that the gated metrics are measured against.

The host this benchmark was written on is a shared virtual machine whose
speed drops by 30-60% for periods of 5 to 40 seconds, often covering
whole runs.  Fixed work timed just before each operation slows down with
it, so the operation's latency divided by the reference's time is steady
where the latency in milliseconds is not.  There are two references:

- the loop (:func:`reference_seconds`) mixes the kinds of work the
  program does in-process: integer arithmetic, allocation of small
  containers, ``compile()`` (as the native tier and imports do) and
  Python calls;
- a bare interpreter start (:func:`interpreter_start_seconds`), for work
  that starts a process: process creation slows down with the host the
  way a cold start does, which an in-process loop does not.

Both are benchmark code, so no change to the program can speed them up.
Set-up time is reported in seconds of that host: a set-up's time divided
by its reference's, times the reference's time there (``*_NOMINAL_S``,
the medians measured on it: 2 vCPUs, Python 3.11).
"""

from __future__ import annotations

import gc
import subprocess
import sys
from time import perf_counter

LOOP_NOMINAL_S = 0.001
START_NOMINAL_S = 0.040

_SOURCE = "\n".join(
    f"def f{i}(x):\n    return [x + {i}, {{'k': x}}, (x, {i})]"
    for i in range(12))


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def interpreter_start_seconds() -> float:
    """Wall-clock seconds of one ``python -c pass``."""
    started = perf_counter()
    # With its output captured, subprocess.run waits on the pipes and
    # returns as the child exits; a bare wait with a timeout polls with
    # growing sleeps, rounding the time up by tens of ms.
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   capture_output=True, timeout=120)
    return perf_counter() - started


def reference_seconds() -> float:
    """Wall-clock seconds of one pass of the reference loop.

    The cyclic collector is off while it runs: otherwise a collection it
    happened to trigger would scan the program's heap and make the unit
    depend on how much memory the program holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        total = 0
        for i in range(4000):
            total += i * i % 7
        table = {}
        for i in range(800):
            table[i % 97] = [i, str(i), (i, i)]
        compile(_SOURCE, "<reference>", "exec")
        _fib(16)
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()
