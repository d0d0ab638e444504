"""Multirate time stepping: slow explicit stages, fast sub-IVPs between.

One slow step from t to t+h walks the padded stage sequence of the
outer table (abscissae extended with 1, weights appended as the final
row). Between consecutive stages the state is advanced by the fast
integrator over [t + c_{i-1} h, t + c_i h] under the tendency

    v' = f_fast(v) + r_i,
    r_i = (1/(c_i - c_{i-1})) * sum_j (A_{i,j} - A_{i-1,j}) * f_slow_j,

so the slow increments telescope to the outer table's update while the
fast physics runs at its own resolution. Stages with equal abscissae
collapse to a plain explicit update. The fast solver starts each stage
cold: fresh controller, fresh Jacobian cache.

Stage hooks (prepare/finalize around each fast interval) let the energy
bookkeeping reconcile the duplicated gas energy; see chemistry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ark import (ButcherTable, IntegrationStats, SolverError,
                  _weighted_sum, adaptive_evolve, fixed_evolve, sdirk4)
from .profiling import Region, null_profile

FAST_START_FRACTION = 0.01   # initial fast step = h_max / 100


class CouplingError(ValueError):
    pass


@dataclass
class FastSolve:
    """How to integrate the fast sub-IVPs."""
    table: ButcherTable = field(default_factory=sdirk4)
    mode: str = "adaptive"          # "adaptive" or "fixed"
    h_fixed: float = 0.0
    h_max: float = 0.0              # adaptive step cap; 0 = stage width
    rtol: float = 1e-5
    atol: float = 1e-9
    max_steps: int = 5000


class MRICoupling:
    """Padded stage view of an explicit outer table."""

    def __init__(self, slow_table: ButcherTable):
        s = slow_table.stages
        c = list(slow_table.c) + [1.0]
        if c[0] != 0.0:
            raise CouplingError("outer table must start at c = 0")
        if any(c[i + 1] < c[i] for i in range(s)):
            raise CouplingError("outer abscissae must be non-decreasing")
        rows = [tuple(slow_table.a[i]) for i in range(s)] + [tuple(slow_table.b)]
        self.table = slow_table
        self.c = tuple(c)
        self.rows = tuple(rows)
        self.n_intervals = s

    def delta_c(self, i: int) -> float:
        return self.c[i + 1] - self.c[i]

    def delta_a(self, i: int) -> tuple:
        return tuple(hi - lo for hi, lo in zip(self.rows[i + 1], self.rows[i]))


def mri_forcing(coupling: MRICoupling, i: int, slow_rhs, out):
    """Constant forcing for the i-th fast interval:
    out = (1/dc_i) * sum_j (A_{i+1,j} - A_{i,j}) f_slow_j."""
    dc = coupling.delta_c(i)
    if dc == 0.0:
        raise CouplingError("no fast interval between equal abscissae")
    _weighted_sum([d / dc for d in coupling.delta_a(i)], slow_rhs, out)
    return out


def mri_step(coupling: MRICoupling, slow_f, fast_f, t: float, h: float, y,
             fast: FastSolve, newton=None, hooks=None,
             fast_stats: IntegrationStats = None):
    """One slow step; returns the new state, y is untouched."""
    if fast_stats is None:
        fast_stats = IntegrationStats()
    z = y.copy()
    slow_rhs = [slow_f(t + coupling.c[0] * h, z)]
    forcing = y.clone_empty()
    for i in range(coupling.n_intervals):
        dc = coupling.delta_c(i)
        da = coupling.delta_a(i)
        if dc == 0.0:
            stage = y.clone_empty()
            _weighted_sum([1.0] + [h * d for d in da], [z] + slow_rhs, stage)
            z = stage
        else:
            mri_forcing(coupling, i, slow_rhs, forcing)

            def tendency(tt, vv, _r=forcing):
                out = fast_f(tt, vv)
                for dst, src in zip(out.arrays, _r.arrays):
                    dst += src
                return out

            if newton is not None:
                newton.reset()
            if hooks is not None:
                hooks.prepare(z, forcing)
            t_a = t + coupling.c[i] * h
            t_b = t + coupling.c[i + 1] * h
            try:
                if fast.mode == "fixed":
                    fixed_evolve(tendency, z, t_a, t_b, fast.h_fixed,
                                 fast.table, newton=newton, rtol=fast.rtol,
                                 atol=fast.atol, stats=fast_stats)
                else:
                    width = t_b - t_a
                    cap = min(width, fast.h_max) if fast.h_max > 0.0 else width
                    adaptive_evolve(tendency, z, t_a, t_b, fast.table,
                                    rtol=fast.rtol, atol=fast.atol,
                                    h0=FAST_START_FRACTION * cap, h_max=cap,
                                    newton=newton, max_steps=fast.max_steps,
                                    stats=fast_stats)
            except SolverError as exc:
                raise SolverError(
                    f"fast solve failed at slow stage {i + 1}: {exc}") from exc
            if hooks is not None:
                hooks.finalize(z, forcing, t_b - t_a)
        if i + 1 < coupling.n_intervals:
            slow_rhs.append(slow_f(t + coupling.c[i + 1] * h, z))
    return z


@dataclass
class EvolveResult:
    state: object
    n_slow_steps: int
    fast_stats: IntegrationStats


def evolve_two_phase(coupling: MRICoupling, slow_f, fast_f, y,
                     t0: float, t_split: float, tf: float, h_slow: float,
                     fast_transient: FastSolve, fast_fixed: FastSolve,
                     newton=None, hooks=None, profile=None) -> EvolveResult:
    """Transient phase with adaptive fast stepping, then a measured
    phase with fixed fast steps; each phase is timed in its own region."""
    profile = profile if profile is not None else null_profile()
    fast_stats = IntegrationStats()
    n_slow = 0
    phases = ((t0, t_split, fast_transient, Region.TRANSIENT),
              (t_split, tf, fast_fixed, Region.FIXED_STEP))
    for t_a, t_b, fast_cfg, region in phases:
        t = t_a
        tiny = 64.0 * np.finfo(np.float64).eps * max(abs(t_a), abs(t_b))
        while t_b - t > tiny:
            h_try = min(h_slow, t_b - t)
            with profile.region(region):
                y = mri_step(coupling, slow_f, fast_f, t, h_try, y,
                             fast_cfg, newton=newton, hooks=hooks,
                             fast_stats=fast_stats)
            t += h_try
            n_slow += 1
    return EvolveResult(y, n_slow, fast_stats)
