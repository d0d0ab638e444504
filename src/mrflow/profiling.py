"""Per-task timer regions and cross-task aggregation.

Regions nest: EULER sits inside SLOW_RHS and contains the MPI, PACKING,
and FDWENO intervals spent building one divergence. PACKING times
copying the owned fields into the ghost-extended array of each axis;
FDWENO times the pointwise fluxes and the reconstruction. TRANSIENT and
FIXED_STEP cover the two evolution phases; TOTAL spans setup plus both
phases. Nested scopes of different regions each accumulate the inner
interval, which is what makes containment identities like
euler >= mpi + packing + fdweno hold. Timing is always on: a component
built without a profile records into a fresh one that nobody reads.

Aggregation across tasks happens once, at run end, in a single
collective round carrying every region, so profiling never perturbs the
measured reduction counts mid-run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Region(str, Enum):
    SETUP = "setup"
    IO = "io"
    MPI = "mpi"
    PACKING = "packing"
    FDWENO = "fdweno"
    EULER = "euler"
    SLOW_RHS = "fslow"
    FAST_RHS = "ffast"
    FAST_JAC = "jfast"
    LIN_SETUP = "lsetup"
    LIN_SOLVE = "lsolve"
    TRANSIENT = "transient"
    FIXED_STEP = "fixed"
    TOTAL = "total"


REGIONS = tuple(Region)

# regions whose time is attributable to application callbacks rather
# than integrator infrastructure
_CALLBACK_REGIONS = (Region.SLOW_RHS, Region.FAST_RHS, Region.FAST_JAC,
                     Region.LIN_SETUP, Region.LIN_SOLVE)


class Profile:
    """Accumulated wall seconds per region for one task."""

    __slots__ = ("seconds",)

    def __init__(self):
        self.seconds = {r: 0.0 for r in REGIONS}

    @contextmanager
    def region(self, region: Region):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[region] += time.perf_counter() - t0

    def as_array(self):
        return np.array([self.seconds[r] for r in REGIONS])


@dataclass
class RegionStats:
    minimum: float
    mean: float
    maximum: float


@dataclass
class ProfileSummary:
    """Cross-task min/mean/max per region, plus run shape."""
    n_tasks: int
    n_slow_steps: int
    stats: dict

    def time_per_slow_step(self) -> float:
        if self.n_slow_steps == 0:
            return 0.0
        evolve = (self.stats[Region.TRANSIENT].mean
                  + self.stats[Region.FIXED_STEP].mean)
        return evolve / self.n_slow_steps


def aggregate(comm, profile: Profile, n_slow_steps: int) -> ProfileSummary:
    """Combine per-task region times in one collective round."""
    local = profile.as_array()
    if comm is None or comm.size == 1:
        table = local[None, :]
        n_tasks = 1
    else:
        table = comm.allgather(local)
        n_tasks = comm.size
    stats = {}
    for i, r in enumerate(REGIONS):
        col = table[:, i]
        stats[r] = RegionStats(float(col.min()), float(col.mean()),
                               float(col.max()))
    return ProfileSummary(n_tasks=n_tasks, n_slow_steps=n_slow_steps,
                          stats=stats)


def sundials_time(seconds) -> float:
    """Evolution time not attributable to application callbacks:
    (transient + fixed) - (fslow + ffast + jfast + lsetup + lsolve)."""
    evolve = seconds[Region.TRANSIENT] + seconds[Region.FIXED_STEP]
    callbacks = sum(seconds[r] for r in _CALLBACK_REGIONS)
    return evolve - callbacks


def parallel_efficiency(summary: ProfileSummary,
                        reference: ProfileSummary) -> float:
    """Weak-scaling efficiency: reference mean time-per-slow-step divided
    by this run's."""
    tps = summary.time_per_slow_step()
    if tps == 0.0:
        return 1.0
    return reference.time_per_slow_step() / tps
