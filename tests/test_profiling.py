"""Timer regions, cross-task aggregation, and the derived timing
quantities (integrator overhead, time per slow step, efficiency)."""

import time

import numpy as np
import pytest

from mrflow.profiling import (REGIONS, Profile, Region, aggregate,
                              parallel_efficiency, sundials_time)
from mrflow.transport import run_spmd
from mrflow.vectors import ReductionLedger


def test_region_inventory():
    assert len(REGIONS) == 14
    assert [r.value for r in REGIONS] == [
        "setup", "io", "mpi", "packing", "fdweno", "euler", "fslow",
        "ffast", "jfast", "lsetup", "lsolve", "transient", "fixed", "total"]


def test_scopes_accumulate():
    p = Profile()
    with p.region(Region.SETUP):
        time.sleep(0.01)
    with p.region(Region.SETUP):
        time.sleep(0.01)
    assert p.seconds[Region.SETUP] >= 0.018
    assert p.seconds[Region.IO] == 0.0


def test_nested_scopes_charge_both_regions():
    p = Profile()
    with p.region(Region.SLOW_RHS):
        with p.region(Region.EULER):
            time.sleep(0.02)
    assert p.seconds[Region.EULER] >= 0.018
    assert p.seconds[Region.SLOW_RHS] >= p.seconds[Region.EULER]


def test_scope_survives_exceptions():
    p = Profile()
    with pytest.raises(RuntimeError):
        with p.region(Region.TOTAL):
            time.sleep(0.01)
            raise RuntimeError("boom")
    assert p.seconds[Region.TOTAL] >= 0.009


def test_as_array_follows_region_order():
    p = Profile()
    p.seconds[Region.PACKING] += 3.0
    arr = p.as_array()
    assert arr.shape == (len(REGIONS),)
    assert arr[REGIONS.index(Region.PACKING)] == 3.0
    assert arr.sum() == 3.0


def test_aggregate_serial_collapses_to_local():
    p = Profile()
    p.seconds[Region.EULER] += 2.25
    s = aggregate(None, p, n_slow_steps=5)
    assert s.n_tasks == 1
    assert s.n_slow_steps == 5
    st = s.stats[Region.EULER]
    assert st.minimum == st.mean == st.maximum == 2.25


def _aggregate_worker(comm):
    ledger = ReductionLedger()
    comm.ledger = ledger
    p = Profile()
    p.seconds[Region.EULER] += float(comm.rank + 1)
    p.seconds[Region.TRANSIENT] += 1.0
    s = aggregate(comm, p, n_slow_steps=2)
    st = s.stats[Region.EULER]
    return (st.minimum, st.mean, st.maximum, s.n_tasks,
            ledger.global_reduction_count)


def test_aggregate_across_tasks_in_one_round():
    results = run_spmd(4, _aggregate_worker)
    for minimum, mean, maximum, n_tasks, rounds in results:
        assert (minimum, maximum) == (1.0, 4.0)
        assert mean == 2.5
        assert n_tasks == 4
        assert rounds == 1
    # every task sees the identical summary
    assert len(set(results)) == 1


def test_time_per_slow_step_and_efficiency():
    fast = Profile()
    fast.seconds[Region.TRANSIENT] += 0.2
    fast.seconds[Region.FIXED_STEP] += 0.4
    ref = aggregate(None, fast, n_slow_steps=4)      # 0.15 s/step
    slow = Profile()
    slow.seconds[Region.TRANSIENT] += 0.3
    slow.seconds[Region.FIXED_STEP] += 0.9
    run = aggregate(None, slow, n_slow_steps=4)      # 0.30 s/step
    assert ref.time_per_slow_step() == pytest.approx(0.15)
    assert run.time_per_slow_step() == pytest.approx(0.30)
    assert parallel_efficiency(run, ref) == pytest.approx(0.5)
    assert parallel_efficiency(ref, ref) == pytest.approx(1.0)


def test_time_per_slow_step_handles_empty_run():
    s = aggregate(None, Profile(), n_slow_steps=0)
    assert s.time_per_slow_step() == 0.0
    assert parallel_efficiency(s, s) == 1.0


def test_sundials_time_formula():
    p = Profile()
    p.seconds[Region.TRANSIENT] += 2.0
    p.seconds[Region.FIXED_STEP] += 1.0
    p.seconds[Region.SLOW_RHS] += 0.5
    p.seconds[Region.FAST_RHS] += 0.25
    p.seconds[Region.FAST_JAC] += 0.1
    p.seconds[Region.LIN_SETUP] += 0.05
    p.seconds[Region.LIN_SOLVE] += 0.05
    p.seconds[Region.SETUP] += 9.0   # outside the evolution phases: ignored
    assert sundials_time(p.seconds) == pytest.approx(3.0 - 0.95)


def _timed_sleep(seconds):
    t0 = time.perf_counter()
    time.sleep(seconds)
    return time.perf_counter() - t0


def test_sundials_time_against_injected_delays():
    # integrator overhead is what remains of the evolution phases after
    # subtracting callback time. time.sleep may oversleep by any amount,
    # so each sleep outside a callback is timed on its own: those intervals
    # lie inside the evolution regions and outside every callback region,
    # so their sum is an exact lower bound. The upper slack covers the
    # timer calls (and a preemption between them) and stays well under the
    # shortest callback, so a callback left out still fails.
    p = Profile()
    outside = 0.0
    with p.region(Region.TRANSIENT):
        outside += _timed_sleep(0.12)
        with p.region(Region.SLOW_RHS):
            time.sleep(0.06)
    with p.region(Region.FIXED_STEP):
        outside += _timed_sleep(0.06)
        with p.region(Region.FAST_RHS):
            time.sleep(0.03)
    got = sundials_time(p.seconds)
    assert outside <= got <= outside + 0.01
