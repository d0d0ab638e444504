"""Fused runs check Newton's convergence after the fact (ark.evolve).

Every case runs the same evolve twice on each task: unfused first, which
tests every iteration in its own round and is the oracle, then fused,
which speculates that each stage converges at its first iteration. A
fused run that falls back must end exactly as the oracle: the same
state bits, integration and Newton statistics, and error. The first
window that fails is undone and the rest of the call runs per iteration,
so each such run falls back exactly once.
"""

from dataclasses import asdict

import numpy as np
import pytest

from mrflow.ark import (FastSolve, IntegrationStats, classic_rk4, evolve,
                        sdirk4)
from mrflow.newton import NewtonEngine
from mrflow.transport import run_spmd, run_spmd_sockets
from mrflow.vectors import ManyVector, ReductionLedger

T_JUMP = 0.3      # the relaxation target drops from 1 to 0 here
T_END = 0.6
LAM = (40.0, 70.0)
BETA = 1.25       # the Jacobian overstates the stiffness: Newton contracts

# case: (fast mode, target jumps, fault in f)
CASES = {
    "adaptive-second-iteration": ("adaptive", True, None),
    "fixed-second-iteration": ("fixed", True, None),
    "adaptive-nan-update": ("adaptive", True, "nan"),
    "fixed-nan-update": ("fixed", True, "nan"),
    "adaptive-raise-on-speculated-input": ("adaptive", True, "raise"),
    "fixed-raise-on-speculated-input": ("fixed", True, "raise"),
    "adaptive-steady": ("adaptive", False, None),
    "fixed-steady": ("fixed", False, None),
}


def _run(comm, case, fused, seen):
    """One evolve of `case` on this task. Unfused, it records every input
    of f in seen; fused, a "raise" case's f raises on any other input,
    which only a stage after a non-converged one can produce."""
    mode, jump, fault = CASES[case]
    ledger = ReductionLedger()
    comm.ledger = ledger
    lam = np.multiply.outer(LAM, 1.0 + 0.25 * np.arange(3) + 0.5 * comm.rank)

    def f(t, v):
        y0, y1 = v.arrays[0]
        key = (t, y0.tobytes(), y1.tobytes())
        if not fused:
            seen.add(key)
        elif fault == "raise" and key not in seen:
            raise ValueError(f"speculated input at t={t!r}")
        target = 0.0 if jump and t >= T_JUMP else 1.0
        out = [-lam[0] * (y0 - target), -lam[1] * (y1 - y0)]
        if fault == "nan" and T_JUMP <= t < T_JUMP + 0.05:
            out[0] = out[0] * np.nan
        return ManyVector([np.stack(out)], v.global_length, v.comm,
                          v.batched_reductions)

    def jacobian(t, v):
        jac = np.zeros((2, 2, 3))
        jac[0, 0], jac[1, 0], jac[1, 1] = -lam[0], lam[1], -lam[1]
        return BETA * jac

    y = ManyVector([np.ones((2, 3))], 6 * comm.size, comm, fused)
    newton = NewtonEngine(jacobian, ("y0", "y1"))
    stats = IntegrationStats()
    fast = FastSolve(sdirk4(), mode, 0.05 if mode == "fixed" else 0.2,
                     rtol=1e-4, atol=1e-8)
    error = None
    try:
        evolve(f, y, 0.0, T_END, fast, newton=newton, stats=stats)
    except Exception as exc:  # noqa: BLE001 - compared with the oracle's
        error = (type(exc).__name__, str(exc))
    return {"y": [a.tobytes() for a in y.arrays], "stats": asdict(stats),
            "newton": asdict(newton.stats), "error": error,
            "rounds": ledger.global_reduction_count}


def _compare(comm, case):
    seen = set()
    return _run(comm, case, False, seen), _run(comm, case, True, seen)


@pytest.mark.parametrize("runner", [run_spmd, run_spmd_sockets])
@pytest.mark.parametrize("case", [c for c in CASES if "steady" not in c])
def test_fallback_ends_as_the_unfused_run(case, runner):
    for oracle, fused in runner(2, _compare, case):
        assert oracle["stats"].pop("fallbacks") == 0
        assert fused["stats"].pop("fallbacks") == 1
        for key in ("y", "stats", "newton", "error"):
            assert fused[key] == oracle[key], key
        # each case does what its name says on the per-iteration path
        if case == "adaptive-nan-update":
            # the NaN stage is never an attempt's first, but the Jacobian
            # it failed with is the attempt's own: every retry cuts h,
            # from 2e-3 at the start down to an underflow at the fault
            assert oracle["error"][0] == "SolverError"
            assert oracle["error"][1].startswith("step size underflow")
            assert oracle["stats"]["conv_failures"] > 0
            assert oracle["stats"]["last_h"] < 1e-9
        elif "nan" in case:
            assert oracle["error"][0] == "SolverError"
        else:
            assert oracle["error"] is None
            assert oracle["newton"]["iterations"] > 5 * oracle["stats"]["steps"]
        assert fused["rounds"] < oracle["rounds"]


@pytest.mark.parametrize("mode", ["adaptive", "fixed"])
def test_one_round_per_adaptive_attempt_and_per_fixed_interval(mode):
    # every stage converges at its first iteration: nothing falls back
    for oracle, fused in run_spmd(2, _compare, f"{mode}-steady"):
        assert fused["stats"]["fallbacks"] == 0
        attempts = fused["stats"]["steps"]
        assert attempts > 1
        assert fused["rounds"] == (attempts if mode == "adaptive" else 1)
        assert oracle["rounds"] > fused["rounds"]
        assert fused["y"] == oracle["y"]


def _explicit_fixed(comm):
    """A fused fixed evolve of an explicit table given a Newton engine:
    its windows keep no partials."""
    ledger = ReductionLedger()
    comm.ledger = ledger
    y = ManyVector([np.ones((2, 3))], 6 * comm.size, comm, True)
    newton = NewtonEngine(lambda t, v: np.zeros((2, 2, 3)), ("y0", "y1"))

    def f(t, v):
        return ManyVector([-np.asarray(LAM)[:, None] * v.arrays[0]],
                          v.global_length, v.comm, v.batched_reductions)

    stats = evolve(f, y, 0.0, T_END, FastSolve(classic_rk4(), "fixed", 0.05),
                   newton=newton)[1]
    return ledger.global_reduction_count, stats, newton.stats.iterations


def test_a_window_with_no_partials_makes_no_round():
    for rounds, stats, iterations in run_spmd(2, _explicit_fixed):
        assert stats.accepted == 12 and stats.fallbacks == 0
        assert iterations == 0
        assert rounds == 0
