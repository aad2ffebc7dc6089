"""Host-side process accounting read from ``/proc`` and ``getrusage``.

``psutil`` is not a dependency, so CPU time of other processes (farm
workers, the serve daemon) comes straight from ``/proc/<pid>/stat``.
"""

from __future__ import annotations

import os
import resource
from typing import Iterable

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_s(pid: int, children: bool = False) -> float:
    """User + system CPU of ``pid`` (plus its reaped children if asked)."""
    with open(f"/proc/{pid}/stat") as fh:
        # The command name may hold spaces; fields resume after ')'.
        fields = fh.read().rpartition(")")[2].split()
    utime, stime, cutime, cstime = (int(v) for v in fields[11:15])
    ticks = utime + stime + (cutime + cstime if children else 0)
    return ticks / _TICK


def cpu_s_sum(pids: Iterable[int]) -> float:
    return sum(cpu_s(pid) for pid in pids)


def hwm_mb() -> float:
    """Peak resident set of this process's own address space.

    ``getrusage`` would not do: Linux carries the spawning parent's
    peak into its child's ``ru_maxrss`` across fork and exec, so a
    probe started by a large process would report the parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def children_peak_rss_mb() -> float:
    """Largest resident set of any reaped descendant of this process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
