"""Host-speed reference that the benchmark's timings are scaled by.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU x86
VM the same compile took anywhere from 1.0x to 1.7x its fastest time within
six minutes, and twice as long in one hour as two hours before, so raw wall
times of two sets of runs of the same code disagree by more than any useful
regression bound.

A fixed reference kernel, timed right before and right after every timed
region, tracks that drift. The kernel is a breadth-first search over a
200 x 200 grid with tuple vertices, dict parents and a deque: the operations
the compiler's router and SAT layers spend their time in, over a working
set (a few MB) larger than a core's L2 cache, so that it slows when other
tenants crowd the shared cache as the compiler does. It is part of the
benchmark, so a change to the compiler never changes it. On that VM,
scaling each compile by the mean of the kernel's times around it cut the
spread of 30 s window medians of one instance's compile time from
0.10-0.18 to 0.05-0.07 of their mean; a small kernel that fits in L2 did
not follow the SAT instances.

A scaled time reads as "seconds on a host where the kernel takes
REFERENCE_S"; the raw wall times are reported next to it.
"""
from __future__ import annotations

import time
from collections import deque

# Nominal kernel time, about the kernel's median on a 2-vCPU x86 VM
# (Python 3.11). Only fixes the scale of the scaled times.
REFERENCE_S = 0.05

GRID = 200


def _kernel(n: int = GRID) -> int:
    blocked = {(x, y) for x in range(1, n - 1, 4) for y in range(n - 2)}
    parent = {(0, 0): None}
    queue = deque([(0, 0)])
    while queue:
        v = queue.popleft()
        x, y = v
        for w in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= w[0] < n and 0 <= w[1] < n and w not in parent and w not in blocked:
                parent[w] = v
                queue.append(w)
    return len(parent)


def kernel_seconds() -> float:
    """The reference kernel's time, now."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """Factor from wall time to time on the reference host, from the kernel
    times right before and right after the timed region."""
    return REFERENCE_S / ((before + after) / 2)
