"""Facts about the host and the code that go with every result.

The spin calibration tells how much of the host two busy processes
really get: each runs a pure-Python loop alone, then two run at once,
and each pair member's iteration count is divided by the solo count.
A ratio near 1.0 means two real cores; near 0.5 means they share one.

`warm_up` exists because on the development host (a 2-vCPU VM) a new
process runs at about half speed until it has used roughly 3.5 s of
CPU, and a forked child starts in its parent's state. Burning that CPU
first puts the benchmark and the socket workers it forks in the steady
state before anything is timed.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import subprocess
import time
from pathlib import Path

SPIN_SECONDS = 0.25
WARM_UP_CPU_SECONDS = 4.0


def warm_up(cpu_seconds: float = WARM_UP_CPU_SECONDS):
    """Spin until this process has used cpu_seconds of CPU time."""
    while time.process_time() < cpu_seconds:
        pass


def _spin(barrier, seconds, out):
    barrier.wait()
    clock = time.perf_counter
    t0 = clock()
    n = 0
    while clock() - t0 < seconds:
        n += 1
    out.put(n)


def _spin_group(ctx, n_procs, seconds):
    barrier = ctx.Barrier(n_procs)
    out = ctx.Queue()
    procs = [ctx.Process(target=_spin, args=(barrier, seconds, out))
             for _ in range(n_procs)]
    for p in procs:
        p.start()
    try:
        counts = [out.get(timeout=60) for _ in procs]
    finally:
        for p in procs:
            p.join(timeout=10)
            if p.is_alive():
                p.terminate()
                p.join(timeout=10)
    return counts


def spin_calibration(seconds: float = SPIN_SECONDS) -> dict:
    # forked, not spawned: a fresh interpreter would be measured in its
    # slow start (see the module docstring); call before any thread starts
    ctx = multiprocessing.get_context("fork")
    solo = _spin_group(ctx, 1, seconds)[0]
    pair = _spin_group(ctx, 2, seconds)
    return {"solo_iterations": solo,
            "pair_speed_ratios": sorted(p / solo for p in pair)}


def git_sha(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_lines(package: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(package.glob("*.py")))


def collect(root: Path) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "spin": spin_calibration(),
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_mrflow_lines": source_lines(root / "src" / "mrflow"),
    }
