"""Runge-Kutta tables, steppers, and the adaptive step driver.

Explicit tables handle the advection phases, the L-stable SDIRK table
handles the stiff reaction sub-systems. Stage values are built with the
fused linear-combination kernel so fused and unfused runs produce
bitwise identical states. The implicit stepper recovers stage
derivatives algebraically from the Newton solution instead of paying an
extra right-hand-side evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .newton import ConvergenceFailure
from .vectors import error_weights, fused_linear_combination, wrms_norm

SAFETY = 0.99
MAX_GROWTH = 2.0
ERROR_BIAS = 2.0
NEWTON_SHRINK = 0.25
DEFAULT_MAX_STEPS = 5000


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

    @property
    def implicit(self) -> bool:
        return any(self.a[i][i] != 0.0 for i in range(self.stages))


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


def _weighted_sum(coeffs, vecs, out):
    """out <- sum coeffs[i]*vecs[i], skipping zero coefficients."""
    cs = [c for c in coeffs if c != 0.0]
    vs = [v for c, v in zip(coeffs, vecs) if c != 0.0]
    if not cs:
        out.fill(0.0)
        return
    fused_linear_combination(cs, vs, out)


def erk_step(f, t: float, h: float, y, table: ButcherTable, err_out=None):
    """One explicit step; y is untouched, the new state is returned.

    If err_out is given and the table has an embedding, the local error
    vector h*sum (b - b~)_i k_i is written there.
    """
    ks = []
    stage = y.clone_empty()
    for i in range(table.stages):
        _weighted_sum([1.0] + [h * aij for aij in table.a[i][:i]], [y] + ks,
                      stage)
        ks.append(f(t + table.c[i] * h, stage))
    return _update(h, y, table, ks, err_out)


def dirk_step(f, newton, t: float, h: float, y, table: ButcherTable,
              weights, err_out=None):
    """One diagonally implicit step via the Newton engine.

    Stage derivatives come from k_i = (z_i - a_i)/(h*a_ii); the previous
    stage value is the predictor for the next one.
    """
    ks = []
    z = y.copy()
    a_vec = y.clone_empty()
    for i in range(table.stages):
        _weighted_sum([1.0] + [h * aij for aij in table.a[i][:i]], [y] + ks,
                      a_vec)
        aii = table.a[i][i]
        if aii == 0.0:
            ks.append(f(t + table.c[i] * h, a_vec))
            continue
        newton.solve(f, t + table.c[i] * h, z, a_vec, h * aii, weights)
        k = y.clone_empty()
        _weighted_sum([1.0, -1.0], [z, a_vec], k)
        for arr in k.arrays:
            arr /= h * aii
        ks.append(k)
    return _update(h, y, table, ks, err_out)


def _update(h: float, y, table: ButcherTable, ks, err_out):
    """The new state y + h*sum b_i k_i; also the local error
    h*sum (b_i - b~_i) k_i into err_out if given and the table has an
    embedding."""
    out = y.clone_empty()
    _weighted_sum([1.0] + [h * bi for bi in table.b], [y] + ks, out)
    if err_out is not None and table.b_embedded is not None:
        d = [h * (bi - bt) for bi, bt in zip(table.b, table.b_embedded)]
        _weighted_sum(d, ks, err_out)
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
    newton_iters: int = 0
    last_h: float = 0.0


def adaptive_evolve(f, y, t0: float, tf: float, table: ButcherTable, *,
                    rtol: float, atol: float, h0: float, h_max: float,
                    newton=None, max_steps: int = DEFAULT_MAX_STEPS,
                    stats: IntegrationStats = None, step_log=None):
    """Advance y from t0 to tf with error-controlled steps.

    y is updated in place and also returned. Raises SolverError when the
    attempt budget runs out or the step size underflows. step_log, if
    given, receives one (t, h, error, accepted) tuple per attempt.
    """
    if stats is None:
        stats = IntegrationStats()
    if table.b_embedded is None:
        raise SolverError(f"table {table.name} has no error estimate")
    t = t0
    h = min(h0, h_max)
    weights = y.clone_empty()
    err = y.clone_empty()
    tiny = 64.0 * np.finfo(np.float64).eps * max(abs(t0), abs(tf))
    base_iters = newton.stats.iterations if newton is not None else 0
    base_steps = stats.steps   # the budget is per call, stats may be shared
    try:
        while tf - t > tiny:
            if stats.steps - base_steps >= max_steps:
                raise SolverError(
                    f"step budget of {max_steps} exhausted at t={t!r}")
            if h < tiny:
                raise SolverError(f"step size underflow at t={t!r}")
            h_try = min(h, tf - t)
            stats.steps += 1
            error_weights(y, rtol, atol, weights)
            try:
                if newton is None:
                    y_new = erk_step(f, t, h_try, y, table, err_out=err)
                else:
                    y_new = dirk_step(f, newton, t, h_try, y, table, weights,
                                      err_out=err)
            except ConvergenceFailure as exc:
                stats.conv_failures += 1
                if exc.jac_was_fresh:
                    h = NEWTON_SHRINK * h_try
                # a stale Jacobian was already dropped; retry at the same size
                continue
            error = wrms_norm(err, weights)
            h_next = next_step_size(h_try, error, table.embedded_order, h_max)
            accepted = error <= 1.0
            if step_log is not None:
                step_log.append((t, h_try, error, accepted))
            if not accepted:
                stats.rejected += 1
                h = h_next
                continue
            stats.accepted += 1
            stats.last_h = h_try
            t += h_try
            for dst, src in zip(y.arrays, y_new.arrays):
                dst[:] = src
            h = h_next
    finally:
        if newton is not None:
            stats.newton_iters += newton.stats.iterations - base_iters
    return y, stats


def fixed_evolve(f, y, t0: float, tf: float, h: float, table: ButcherTable, *,
                 newton=None, rtol: float = 1e-5, atol: float = 1e-9,
                 stats: IntegrationStats = None):
    """Advance y with constant steps (the last one truncated to hit tf).

    A Newton convergence failure is fatal here: fixed mode has no step
    size to cut.
    """
    if stats is None:
        stats = IntegrationStats()
    t = t0
    weights = y.clone_empty()
    tiny = 64.0 * np.finfo(np.float64).eps * max(abs(t0), abs(tf))
    base_iters = newton.stats.iterations if newton is not None else 0
    try:
        while tf - t > tiny:
            h_try = min(h, tf - t)
            error_weights(y, rtol, atol, weights)
            try:
                if newton is None:
                    y_new = erk_step(f, t, h_try, y, table)
                else:
                    y_new = dirk_step(f, newton, t, h_try, y, table, weights)
            except ConvergenceFailure as exc:
                stats.conv_failures += 1
                raise SolverError(
                    f"Newton failed at t={t!r} with fixed step {h_try!r}"
                ) from exc
            stats.steps += 1
            stats.accepted += 1
            stats.last_h = h_try
            t += h_try
            for dst, src in zip(y.arrays, y_new.arrays):
                dst[:] = src
    finally:
        if newton is not None:
            stats.newton_iters += newton.stats.iterations - base_iters
    return y, stats
