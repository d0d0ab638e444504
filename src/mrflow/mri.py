"""Multirate time stepping: slow explicit stages, fast sub-IVPs between.

One slow step from t to t+h walks the padded stage sequence of the
outer table (abscissae extended with 1, weights appended as the final
row). Between consecutive stages the state is advanced by the fast
integrator over [t + c_{i-1} h, t + c_i h] under the tendency

    v' = f_fast(v) + r_i,
    r_i = (1/(c_i - c_{i-1})) * sum_j (A_{i,j} - A_{i-1,j}) * f_slow_j,

so the slow increments telescope to the outer table's update while the
fast physics runs at its own resolution. Stages with equal abscissae
collapse to a plain explicit update. Each fast interval is one
ark.evolve call, fixed or adaptive as a FastSolve sets it, and starts
cold: fresh controller, fresh Jacobian cache.

The fast integrator advances the whole state, or what stage hooks hand
it: hooks.prepare(state, forcing, tau_a) returns a fast state and its
forcing, hooks.finalize(state, forcing, fast_state, d_tau) takes it back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ark import (ButcherTable, FastSolve, IntegrationStats, SolverError,
                  evolve)
from .euler import EosDomainError
from .newton import LinearSolveError
from .profiling import Profile, Region
from .vectors import fused_linear_combination


class CouplingError(ValueError):
    pass


class MRICoupling:
    """Padded stage view of an explicit outer table."""

    def __init__(self, slow_table: ButcherTable):
        s = slow_table.stages
        c = list(slow_table.c) + [1.0]
        if c[0] != 0.0:
            raise CouplingError("outer table must start at c = 0")
        if any(c[i + 1] < c[i] for i in range(s)):
            raise CouplingError("outer abscissae must be non-decreasing")
        if any(x != 0.0 for i, row in enumerate(slow_table.a) for x in row[i:]):
            raise CouplingError("outer table must be explicit")
        rows = [tuple(slow_table.a[i]) for i in range(s)] + [tuple(slow_table.b)]
        self.c = tuple(c)
        self.rows = tuple(rows)
        self.n_intervals = s

    def delta_c(self, i: int) -> float:
        return self.c[i + 1] - self.c[i]

    def delta_a(self, i: int) -> tuple:
        """Weights of the i + 1 slow stages evaluated before interval i."""
        return tuple(hi - lo for hi, lo in zip(self.rows[i + 1][:i + 1],
                                               self.rows[i]))


def mri_forcing(coupling: MRICoupling, i: int, slow_rhs, out):
    """Constant forcing for the i-th fast interval from slow_rhs[:i + 1]:
    out = (1/dc_i) * sum_{j<=i} (A_{i+1,j} - A_{i,j}) f_slow_j."""
    dc = coupling.delta_c(i)
    if dc == 0.0:
        raise CouplingError("no fast interval between equal abscissae")
    return fused_linear_combination([d / dc for d in coupling.delta_a(i)],
                                    slow_rhs[:i + 1], out)


def mri_step(coupling: MRICoupling, slow_f, fast_f, t: float, h: float, y,
             fast: FastSolve, newton=None, hooks=None,
             fast_stats: IntegrationStats = None):
    """One slow step; returns the new state, y is untouched. `fast`
    sets how each fast interval is integrated (see ark.FastSolve). A
    fast solve's SolverError or LinearSolveError is raised again, same
    type and attributes, naming the slow stage."""
    z = y.copy()
    slow_rhs = [slow_f(t + coupling.c[0] * h, z)]
    forcing = y.clone_empty()
    for i in range(coupling.n_intervals):
        dc = coupling.delta_c(i)
        da = coupling.delta_a(i)
        if dc == 0.0:
            z = fused_linear_combination([1.0] + [h * d for d in da],
                                         [z] + slow_rhs)
        else:
            mri_forcing(coupling, i, slow_rhs, forcing)
            t_a = t + coupling.c[i] * h
            t_b = t + coupling.c[i + 1] * h
            v, r = ((z, forcing) if hooks is None
                    else hooks.prepare(z, forcing, t_a))

            def tendency(tt, vv, _r=r):
                out = fast_f(tt, vv)
                for dst, src in zip(out.arrays, _r.arrays):
                    dst += src
                return out

            if newton is not None:
                newton.reset()
            try:
                evolve(tendency, v, t_a, t_b, fast, newton=newton,
                       stats=fast_stats)
            except (SolverError, LinearSolveError) as exc:
                raise _located(exc, "fast solve failed at slow stage"
                                    f" {i + 1}") from exc
            if hooks is not None:
                hooks.finalize(z, forcing, v, t_b - t_a)
        if i + 1 < coupling.n_intervals:
            slow_rhs.append(slow_f(t + coupling.c[i + 1] * h, z))
    return z


def _located(exc, where):
    """exc's type and attributes, with where before its message."""
    out = type(exc)(f"{where}: {exc}")
    vars(out).update(vars(exc))
    return out


@dataclass
class EvolveResult:
    state: object
    n_slow_steps: int
    fast_stats: IntegrationStats


def evolve_two_phase(coupling: MRICoupling, slow_f, fast_f, y,
                     t0: float, t_split: float, tf: float, h_slow: float,
                     fast: FastSolve, newton=None, hooks=None,
                     profile=None) -> EvolveResult:
    """Transient phase, then a measured phase; each phase is timed in
    its own region. The phases set the mode of `fast`: the transient
    steps adaptively, the measured phase in fixed steps of fast.h. A
    SolverError, LinearSolveError or EosDomainError is raised again,
    same type and attributes, naming the phase, the 1-based slow step
    and its t."""
    if not (np.isfinite(h_slow) and h_slow > 0.0):
        raise SolverError(
            f"slow step must be positive and finite, got {h_slow!r}")
    profile = profile if profile is not None else Profile()
    fast_stats = IntegrationStats()
    n_slow = 0
    phases = ((t0, t_split, replace(fast, mode="adaptive"), Region.TRANSIENT),
              (t_split, tf, replace(fast, mode="fixed"), Region.FIXED_STEP))
    for t_a, t_b, fast_cfg, region in phases:
        t = t_a
        tiny = 64.0 * np.finfo(np.float64).eps * max(abs(t_a), abs(t_b))
        while t_b - t > tiny:
            h_try = min(h_slow, t_b - t)
            try:
                with profile.region(region):
                    y = mri_step(coupling, slow_f, fast_f, t, h_try, y,
                                 fast_cfg, newton=newton, hooks=hooks,
                                 fast_stats=fast_stats)
            except (SolverError, LinearSolveError, EosDomainError) as exc:
                raise _located(exc, f"{region.value} phase, slow step"
                                    f" {n_slow + 1} at t={t!r}") from exc
            t += h_try
            n_slow += 1
    return EvolveResult(y, n_slow, fast_stats)
