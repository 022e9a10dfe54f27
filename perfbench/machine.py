"""CPU time the hypervisor steals from a shared virtual machine.

On a shared host the hypervisor takes CPU time away outright, and
``/proc/stat`` counts it as ``steal``.  A single-threaded run cannot
execute meanwhile, so the benchmark's timings subtract it.
"""

from __future__ import annotations

import os


def stolen_s() -> float:
    """CPU seconds the hypervisor has taken from this machine so far
    (the ``steal`` column of ``/proc/stat``; zero on bare metal)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
