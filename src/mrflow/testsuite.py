"""Verification helpers shared by the test suite and by users who want
to validate a build on their own problems.

Everything here is deliberately independent of the solver internals:
reference trajectories come from scipy, totals use compensated
summation, and convergence orders come from a least-squares fit, so
these routines stay meaningful as cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from .chemistry import IH, IH2
from .vectors import read_snapshot


def observed_order(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if np.any(errors <= 0.0) or np.any(hs <= 0.0):
        raise ValueError("order fit needs positive step sizes and errors")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def l1_error(a, b, cell_volume: float = 1.0) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.sum(np.abs(a - b))) * cell_volume


def fsum_total(array, weight: float = 1.0) -> float:
    """Compensated sum of every element times weight."""
    return math.fsum(np.asarray(array, dtype=np.float64).ravel()) * weight


def reference_ivp(f, y0, t_span, jac=None, stiff: bool = False,
                  rtol: float = 1e-12, atol: float = 1e-14) -> np.ndarray:
    """High-accuracy endpoint of y' = f(t, y) via scipy."""
    from scipy.integrate import solve_ivp
    method = "Radau" if stiff else "DOP853"
    kwargs = {} if jac is None else {"jac": jac}
    sol = solve_ivp(f, t_span, np.asarray(y0, dtype=np.float64),
                    method=method, rtol=rtol, atol=atol, **kwargs)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def linear_exact(matrix, y0, t: float) -> np.ndarray:
    """Exact solution of y' = M y at time t."""
    from scipy.linalg import expm
    return expm(np.asarray(matrix, dtype=np.float64) * t) @ np.asarray(y0)


class ConservationMonitor:
    """Tracks the global invariants of a gathered (task-0) state.

    totals() expects the field list from harness.gather_state: rho, the
    three momenta, e_t, and the chemistry block. The reaction network
    exchanges mass as 2H <-> H2 but its printed rate laws conserve
    H + 2*H2, so that is the combination monitored here.
    """

    def __init__(self, cell_volume: float):
        self.cell_volume = cell_volume

    def totals(self, fields) -> dict:
        rho, mx, my, mz, et, chem = fields
        v = self.cell_volume
        return {
            "mass": fsum_total(rho, v),
            "momentum_x": fsum_total(mx, v),
            "momentum_y": fsum_total(my, v),
            "momentum_z": fsum_total(mz, v),
            "energy": fsum_total(et, v),
            "hydrogen": (math.fsum(chem[..., IH].ravel())
                         + 2.0 * math.fsum(chem[..., IH2].ravel())) * v,
        }

    @staticmethod
    def relative_drift(before: dict, after: dict) -> dict:
        out = {}
        for key, ref in before.items():
            scale = abs(ref) if ref != 0.0 else 1.0
            out[key] = abs(after[key] - ref) / scale
        return out


def compare_snapshots(path_a: str, path_b: str) -> list:
    """Max absolute difference per stored array; shapes must agree."""
    arrays_a = read_snapshot(path_a)
    arrays_b = read_snapshot(path_b)
    if len(arrays_a) != len(arrays_b):
        raise ValueError(
            f"snapshot array counts differ: {len(arrays_a)} vs {len(arrays_b)}")
    diffs = []
    for i, (a, b) in enumerate(zip(arrays_a, arrays_b)):
        if a.shape != b.shape:
            raise ValueError(f"array {i} shapes differ: {a.shape} vs {b.shape}")
        diffs.append(float(np.max(np.abs(a - b))) if a.size else 0.0)
    return diffs
