"""The verification helpers themselves: order fits, reference solves,
conservation totals, and snapshot comparison."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mrflow
from mrflow.chemistry import IH, IH2, N_SPECIES
from mrflow.testsuite import (ConservationMonitor, compare_snapshots,
                              fsum_total, l1_error, linear_exact,
                              observed_order, reference_ivp)
from mrflow.vectors import write_snapshot


def test_observed_order_recovers_exact_power():
    hs = [0.1, 0.05, 0.025, 0.0125]
    errs = [2.0 * h ** 3 for h in hs]
    assert observed_order(hs, errs) == pytest.approx(3.0, abs=1e-12)


def test_observed_order_rejects_vanishing_errors():
    with pytest.raises(ValueError):
        observed_order([0.1, 0.05], [1e-3, 0.0])
    with pytest.raises(ValueError):
        observed_order([0.1, 0.0], [1e-3, 1e-4])


def test_l1_error_weights_by_cell_volume():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.0, 4.0, 3.0])
    assert l1_error(a, b, cell_volume=0.5) == pytest.approx(1.5)


def test_fsum_total_is_order_stable():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(10_001) * 1e8
    x[0] = 1e-8
    assert fsum_total(x) == math.fsum(x)
    assert fsum_total(np.ones(4), weight=0.25) == 1.0


def test_reference_ivp_matches_exponential():
    got = reference_ivp(lambda t, y: -y, [1.0], (0.0, 2.0))
    assert abs(got[0] - np.exp(-2.0)) <= 1e-10


def test_reference_ivp_stiff_path():
    # relaxation toward 1 with a sharp rate; Radau handles it
    got = reference_ivp(lambda t, y: -1e5 * (y - 1.0), [0.0], (0.0, 1.0),
                        jac=lambda t, y: [[-1e5]], stiff=True)
    assert abs(got[0] - 1.0) <= 1e-9


def test_reference_ivp_surfaces_failures():
    def blow_up(t, y):
        return y * y
    with pytest.raises(RuntimeError, match="reference integration failed"):
        reference_ivp(blow_up, [1.0], (0.0, 2.0))


def test_linear_exact_matches_series():
    m = [[0.0, -1.0], [1.0, 0.0]]
    got = linear_exact(m, [1.0, 0.0], 0.5)
    np.testing.assert_allclose(got, [np.cos(0.5), np.sin(0.5)], rtol=1e-12)


def _fields(shape=(3, 4, 2)):
    rng = np.random.default_rng(11)
    fields = [rng.uniform(0.5, 2.0, shape) for _ in range(5)]
    fields.append(rng.uniform(0.0, 0.1, shape + (N_SPECIES,)))
    return fields


def test_monitor_totals_hand_values():
    fields = [np.zeros((1, 1, 2)) for _ in range(5)]
    fields.append(np.zeros((1, 1, 2, N_SPECIES)))
    fields[0][...] = [3.0, 5.0]
    fields[1][...] = [1.0, -1.0]
    fields[4][...] = [2.0, 2.0]
    fields[5][..., IH] = [0.4, 0.2]
    fields[5][..., IH2] = [0.1, 0.3]
    mon = ConservationMonitor(cell_volume=0.5)
    t = mon.totals(fields)
    assert t["mass"] == 4.0
    assert t["momentum_x"] == 0.0
    assert t["energy"] == 2.0
    # H + 2 H2 with both cells weighted by volume
    assert t["hydrogen"] == pytest.approx(0.5 * (0.6 + 2.0 * 0.4), rel=1e-15)


def test_monitor_drift_is_relative():
    before = {"mass": 4.0, "momentum_x": 0.0}
    after = {"mass": 4.0 + 4e-13, "momentum_x": 1e-15}
    drift = ConservationMonitor.relative_drift(before, after)
    assert drift["mass"] == pytest.approx(1e-13, rel=1e-2)
    # zero baselines fall back to absolute differences
    assert drift["momentum_x"] == 1e-15
    assert all(v <= 1e-12 for v in drift.values())


def test_monitor_sees_injected_mass_loss():
    fields = _fields()
    mon = ConservationMonitor(cell_volume=1.0)
    before = mon.totals(fields)
    fields[0][1, 1, 1] *= 1.0 + 1e-9
    drift = mon.relative_drift(before, mon.totals(fields))
    assert drift["mass"] > 1e-12
    assert drift["energy"] == 0.0


def test_compare_snapshots_reports_max_abs_difference(tmp_path):
    a = [np.arange(6.0), np.ones((2, 3))]
    b = [np.arange(6.0), np.ones((2, 3))]
    b[1][1, 2] += 2.5
    pa, pb = str(tmp_path / "a.mv"), str(tmp_path / "b.mv")
    write_snapshot(pa, a)
    write_snapshot(pb, b)
    assert compare_snapshots(pa, pa) == [0.0, 0.0]
    assert compare_snapshots(pa, pb) == [0.0, 2.5]


def test_compare_snapshots_rejects_mismatched_layouts(tmp_path):
    pa, pb = str(tmp_path / "a.mv"), str(tmp_path / "b.mv")
    write_snapshot(pa, [np.ones(4)])
    write_snapshot(pb, [np.ones(4), np.ones(2)])
    with pytest.raises(ValueError, match="array counts differ"):
        compare_snapshots(pa, pb)
    pc = str(tmp_path / "c.mv")
    write_snapshot(pc, [np.ones(5)])
    with pytest.raises(ValueError, match="shapes differ"):
        compare_snapshots(pa, pc)


def test_every_module_imports_with_numpy_alone():
    # scipy is needed only when reference_ivp or linear_exact is called
    code = ("import importlib, pkgutil, sys\n"
            "sys.modules['scipy'] = None\n"
            "import mrflow\n"
            "for info in pkgutil.iter_modules(mrflow.__path__):\n"
            "    importlib.import_module('mrflow.' + info.name)\n")
    src = os.path.dirname(os.path.dirname(mrflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
