"""Runge-Kutta tables, steppers, and the step driver.

Explicit tables handle the advection phases, the L-stable SDIRK table
handles the stiff reaction sub-systems. One stage loop, dirk_step, takes
both: a stage with a zero diagonal entry is one right-hand-side
evaluation, any other stage is a Newton solve, and erk_step is that loop
without a Newton engine. Stage values are built with the fused
linear-combination kernel so fused and unfused runs produce bitwise
identical states. Implicit stages recover their derivatives
algebraically from the Newton solution instead of paying an extra
right-hand-side evaluation. One driver, evolve, steps either table
type: in fixed steps, or adaptively under the integral controller, as
its FastSolve says.

A fused run (batched_reductions) with a Newton engine speculates that
each implicit stage converges at its first iteration. A window (an
adaptive attempt, or a fixed interval) keeps the stages' update norm
partials, and one round checks them, with the error estimate's in
adaptive mode. If one fails the k = 1 test (NaN if its solve raised),
t, y, the statistics and Newton cache go back to the window's start and
the rest of the call runs per iteration (IntegrationStats.fallbacks).
Either way the bits are those of the per-iteration path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .newton import DEFAULT_CONV_COEF, ConvergenceFailure
from .vectors import (error_weights, fused_linear_combination,
                      reduction_slots, wrms_finish, wrms_partials)

SAFETY = 0.99
MAX_GROWTH = 2.0
ERROR_BIAS = 2.0
NEWTON_SHRINK = 0.25
DEFAULT_MAX_STEPS = 5000
FAST_START_FRACTION = 0.01   # adaptive h0 = cap / 100


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class ButcherTable:
    name: str
    a: tuple
    b: tuple
    c: tuple
    order: int
    b_embedded: tuple = None
    embedded_order: int = None

    @property
    def stages(self) -> int:
        return len(self.b)


def bogacki_shampine_32() -> ButcherTable:
    """Bogacki & Shampine 3(2), the default explicit pair."""
    return ButcherTable(
        name="bogacki-shampine-32",
        a=((0.0, 0.0, 0.0, 0.0),
           (1 / 2, 0.0, 0.0, 0.0),
           (0.0, 3 / 4, 0.0, 0.0),
           (2 / 9, 1 / 3, 4 / 9, 0.0)),
        b=(2 / 9, 1 / 3, 4 / 9, 0.0),
        c=(0.0, 1 / 2, 3 / 4, 1.0),
        order=3,
        b_embedded=(7 / 24, 1 / 4, 1 / 3, 1 / 8),
        embedded_order=2,
    )


def classic_rk4() -> ButcherTable:
    return ButcherTable(
        name="classic-rk4",
        a=((0.0, 0.0, 0.0, 0.0),
           (1 / 2, 0.0, 0.0, 0.0),
           (0.0, 1 / 2, 0.0, 0.0),
           (0.0, 0.0, 1.0, 0.0)),
        b=(1 / 6, 1 / 3, 1 / 3, 1 / 6),
        c=(0.0, 1 / 2, 1 / 2, 1.0),
        order=4,
    )


def knoth_wolke_3() -> ButcherTable:
    """Three-stage third-order explicit table with ordered abscissae."""
    return ButcherTable(
        name="knoth-wolke-3",
        a=((0.0, 0.0, 0.0),
           (1 / 3, 0.0, 0.0),
           (-3 / 16, 15 / 16, 0.0)),
        b=(1 / 6, 3 / 10, 8 / 15),
        c=(0.0, 1 / 3, 3 / 4),
        order=3,
    )


def sdirk4() -> ButcherTable:
    """Five-stage L-stable SDIRK of order 4 with gamma = 1/4 and an
    embedded third-order error estimate (Hairer & Wanner's table)."""
    return ButcherTable(
        name="sdirk4",
        a=((1 / 4, 0.0, 0.0, 0.0, 0.0),
           (1 / 2, 1 / 4, 0.0, 0.0, 0.0),
           (17 / 50, -1 / 25, 1 / 4, 0.0, 0.0),
           (371 / 1360, -137 / 2720, 15 / 544, 1 / 4, 0.0),
           (25 / 24, -49 / 48, 125 / 16, -85 / 12, 1 / 4)),
        b=(25 / 24, -49 / 48, 125 / 16, -85 / 12, 1 / 4),
        c=(1 / 4, 3 / 4, 11 / 20, 1 / 2, 1.0),
        order=4,
        b_embedded=(59 / 48, -17 / 96, 225 / 32, -85 / 12, 0.0),
        embedded_order=3,
    )


def erk_step(f, t: float, h: float, y, table: ButcherTable, err_out=None):
    """One explicit step; y is untouched, the new state is returned.

    If err_out is given and the table has an embedding, the local error
    vector h*sum (b - b~)_i k_i is written there.
    """
    return dirk_step(f, None, t, h, y, table, None, err_out)


def dirk_step(f, newton, t: float, h: float, y, table: ButcherTable,
              weights, err_out=None, pending=None):
    """One diagonally implicit step; y is untouched, the new state
    y + h*sum b_i k_i is returned. newton and weights are read only by
    implicit stages; one without newton raises SolverError. If err_out
    is given and the table has an embedding, the local error
    h*sum (b_i - b~_i) k_i is written there. Each Newton solve gets
    pending (NewtonEngine.solve); one that raises appends NaNs instead.

    Stage derivatives come from k_i = (z_i - a_i)/(h*a_ii); the previous
    implicit stage value is the predictor for the next one.
    """
    ks = []
    z = None
    a_vec = y.clone_empty()
    for i in range(table.stages):
        fused_linear_combination([1.0] + [h * aij for aij in table.a[i][:i]],
                                 [y] + ks, a_vec)
        aii = table.a[i][i]
        if aii == 0.0:
            ks.append(f(t + table.c[i] * h, a_vec))
            continue
        if newton is None:
            raise SolverError(f"table {table.name} stage {i + 1} is implicit "
                              "and needs a Newton engine")
        if z is None:
            z = y.copy()
        try:
            newton.solve(f, t + table.c[i] * h, z, a_vec, h * aii, weights,
                         pending)
        except Exception:
            if pending is None:
                raise
            # peers still expect this task's partials; a real error
            # raises again when the window is redone
            pending += [np.nan] * reduction_slots(z)
        k = y.clone_empty()
        fused_linear_combination([1.0, -1.0], [z, a_vec], k)
        for arr in k.arrays:
            arr /= h * aii
        ks.append(k)
    out = y.clone_empty()
    fused_linear_combination([1.0] + [h * bi for bi in table.b], [y] + ks, out)
    if err_out is not None and table.b_embedded is not None:
        d = [h * (bi - bt) for bi, bt in zip(table.b, table.b_embedded)]
        fused_linear_combination(d, ks, err_out)
    return out


def next_step_size(h: float, error: float, embedded_order: int,
                   h_max: float) -> float:
    """Integral controller with pinned safety 0.99, bias 2, growth cap 2."""
    if error > 0.0:
        factor = min(MAX_GROWTH,
                     SAFETY * (1.0 / (ERROR_BIAS * error))
                     ** (1.0 / (embedded_order + 1)))
    else:
        factor = MAX_GROWTH
    return min(h * factor, h_max)


@dataclass
class IntegrationStats:
    steps: int = 0
    accepted: int = 0
    rejected: int = 0
    conv_failures: int = 0
    fallbacks: int = 0   # windows undone; the call then runs per iteration
    last_h: float = 0.0


@dataclass
class FastSolve:
    """How evolve integrates. Mode "fixed" steps by h; mode "adaptive"
    controls the error to rtol/atol, with steps capped at
    min(tf - t0, h) and DEFAULT_MAX_STEPS attempts a call."""
    table: ButcherTable
    mode: str = "adaptive"
    h: float = np.inf
    rtol: float = 1e-5
    atol: float = 1e-9

    def __post_init__(self):
        if self.mode not in ("adaptive", "fixed"):
            raise ValueError(f"unknown fast mode {self.mode!r}")


def evolve(f, y, t0: float, tf: float, fast: FastSolve, *, newton=None,
           stats: IntegrationStats = None, h0: float = None, step_log=None):
    """Advance y from t0 to tf with fast.table and return y; y then holds
    the last accepted step's arrays and its entry arrays stay unwritten.

    Fixed mode takes steps of fast.h, the last one truncated to hit tf,
    and a Newton convergence failure is fatal: there is no step size to
    cut. Adaptive mode starts at h0 (default FAST_START_FRACTION of the
    cap) and runs the integral controller; a Newton failure cuts h if
    the attempt evaluated its Jacobian, else retries h. It raises
    SolverError at the first non-finite error estimate, when the step
    size underflows, or when the call has made DEFAULT_MAX_STEPS
    attempts. step_log, if given, receives one (t, h, error, accepted)
    tuple per adaptive attempt. A speculative window that fails its
    k = 1 test is undone, and the call goes on per iteration.
    """
    if stats is None:
        stats = IntegrationStats()
    adaptive = fast.mode == "adaptive"
    if adaptive:
        if fast.table.b_embedded is None:
            raise SolverError(f"table {fast.table.name} has no error estimate")
        h_max = min(tf - t0, fast.h)
        h = min(FAST_START_FRACTION * h_max if h0 is None else h0, h_max)
        err = y.clone_empty()
    elif np.isfinite(fast.h) and fast.h > 0.0:
        h, err = fast.h, None
    else:
        raise SolverError(
            f"fixed step must be positive and finite, got {fast.h!r}")
    t = t0
    weights = y.clone_empty()
    tiny = 64.0 * np.finfo(np.float64).eps * max(abs(t0), abs(tf))
    base_steps = stats.steps   # the budget is per call, stats may be shared
    speculate = newton is not None and y.batched_reductions
    pending = None   # norm partials of the open speculative window
    while tf - t > tiny:
        if adaptive and stats.steps - base_steps >= DEFAULT_MAX_STEPS:
            raise SolverError(
                f"step budget of {DEFAULT_MAX_STEPS} exhausted at t={t!r}")
        if adaptive and h < tiny:
            raise SolverError(f"step size underflow at t={t!r}")
        h_try = min(h, tf - t)
        error_weights(y, fast.rtol, fast.atol, weights)
        jac_evals = newton.stats.jac_evals if newton is not None else 0
        if speculate and pending is None:
            pending = []
            saved = (t, replace(stats, fallbacks=stats.fallbacks + 1),
                     newton.checkpoint(), y.arrays)
        try:
            if newton is None:
                y_new = erk_step(f, t, h_try, y, fast.table, err_out=err)
            else:
                y_new = dirk_step(f, newton, t, h_try, y, fast.table, weights,
                                  err_out=err, pending=pending)
        except ConvergenceFailure as exc:
            stats.conv_failures += 1
            if not adaptive:
                raise SolverError(
                    f"Newton failed at t={t!r} with fixed step {h_try!r}:"
                    f" {exc}") from exc
            stats.steps += 1
            if newton.stats.jac_evals > jac_evals:   # a fresh J failed
                h = NEWTON_SHRINK * h_try
            # a stale Jacobian was already dropped; retry at the same size
            continue
        if adaptive or (pending and not tf - (t + h_try) > tiny):
            # close the window: its stage norms, then the error estimate
            norms = wrms_finish(y, (pending or []) + (
                wrms_partials(err, weights) if adaptive else []))
            pending = None
            if not all(n <= DEFAULT_CONV_COEF
                       for n in norms[:len(norms) - adaptive]):
                t, undo, cache, y.arrays = saved
                newton.restore(cache)
                vars(stats).update(vars(undo))
                speculate = False
                continue
        stats.steps += 1
        if adaptive:
            error = norms[-1]
            if not np.isfinite(error):
                raise SolverError(f"non-finite error estimate {error} at"
                                  f" t={t!r} with h={h_try!r}")
            h = next_step_size(h_try, error, fast.table.embedded_order, h_max)
            if step_log is not None:
                step_log.append((t, h_try, error, error <= 1.0))
            if error > 1.0:
                stats.rejected += 1
                continue
        stats.accepted += 1
        stats.last_h = h_try
        t += h_try
        y.arrays = y_new.arrays
    return y, stats


def fixed_evolve(f, y, t0: float, tf: float, h: float, table: ButcherTable, *,
                 newton=None, rtol: float = 1e-5, atol: float = 1e-9,
                 stats: IntegrationStats = None):
    """evolve in fixed steps of h."""
    return evolve(f, y, t0, tf, FastSolve(table, "fixed", h, rtol, atol),
                  newton=newton, stats=stats)
