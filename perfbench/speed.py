"""Machine-speed reference, to keep timings comparable on a shared machine.

On a shared 2-vCPU Xeon (2.1 GHz) virtual machine, the same CPU-bound code
ran up to ~2x slower for stretches of seconds to tens of minutes (other
tenants; the slowdown also shows in the process's own CPU time). Raw wall
times of two runs minutes apart then differed by more than any change worth
measuring. So the benchmark times ``reference_s``, a fixed workload of the
kind chunkcheck's hot paths do (regex word splitting, set algebra, string
split and join, dict counting), right before and after each timed interval,
and rescales the interval to the reference speed:

    adjusted = fixed + (wall - fixed) * NOMINAL_S / reference

``fixed`` is time that does not depend on CPU speed: on
remote-latency, the time during which the stand-in server was sleeping out
its service delay for at least one request; elsewhere 0. Everything else in
the interval is CPU work. ``NOMINAL_S`` is the reference's time on an
undisturbed core of that machine, so adjusted times read as that core's.
"""

from __future__ import annotations

import re
import time

NOMINAL_S = 0.009

_WORD = re.compile(r"[a-z0-9']+")
_TEXT = " ".join(f"Kalo{i % 97} mira{i % 13} te{i % 31}." for i in range(1200))


def reference_s() -> float:
    t0 = time.perf_counter()
    for _ in range(8):
        words = frozenset(_WORD.findall(_TEXT.lower()))
        counts: dict[str, int] = {}
        for w in _TEXT.split():
            counts[w] = counts.get(w, 0) + 1
        "\n".join(sorted(words & counts.keys()))
    return time.perf_counter() - t0


def adjusted(wall: float, fixed: float, reference: float) -> float:
    """``wall`` with all but its ``fixed`` part (at most ``wall``) rescaled
    from the measured reference speed to ``NOMINAL_S``."""
    fixed = min(fixed, wall)
    return fixed + (wall - fixed) * NOMINAL_S / reference
