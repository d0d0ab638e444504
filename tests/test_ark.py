"""Butcher tables, the embedded-error steppers, the integral controller,
and the step driver, adaptive and fixed-step."""

import numpy as np
import pytest

from mrflow import ark
from mrflow.ark import (ERROR_BIAS, MAX_GROWTH, SAFETY, ButcherTable,
                        FastSolve, IntegrationStats, SolverError,
                        bogacki_shampine_32, classic_rk4, dirk_step, erk_step,
                        evolve, fixed_evolve, knoth_wolke_3, next_step_size,
                        sdirk4)
from mrflow.chemistry import N_SPECIES, SurrogateNetwork
from mrflow.testsuite import observed_order, reference_ivp
from mrflow.vectors import ManyVector

from cell_ode import (network_on_fields, one_cell, scalar_newton,
                      single_cell_ode)


# ---------------------------------------------------------------- tables

ALL_TABLES = [bogacki_shampine_32(), classic_rk4(), knoth_wolke_3(), sdirk4()]


@pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: t.name)
def test_table_structure(table):
    a = np.array(table.a)
    b = np.array(table.b)
    c = np.array(table.c)
    assert abs(b.sum() - 1.0) <= 1e-15
    np.testing.assert_allclose(a.sum(axis=1), c, atol=1e-15)
    if np.all(np.diag(a) == 0.0):
        assert np.all(np.triu(a) == 0.0)
    else:
        assert np.all(np.triu(a, 1) == 0.0)
    if table.b_embedded is not None:
        bt = np.array(table.b_embedded)
        assert abs(bt.sum() - 1.0) <= 1e-15
        assert not np.array_equal(b, bt)


def test_sdirk4_is_stiffly_accurate_with_quarter_diagonal():
    t = sdirk4()
    a = np.array(t.a)
    np.testing.assert_array_equal(np.diag(a), 0.25)
    np.testing.assert_array_equal(a[-1], t.b)


def _order_condition_residuals(a, b, c, order):
    """Residuals of the rooted-tree conditions through the given order."""
    res = [b.sum() - 1.0]
    if order >= 2:
        res.append(b @ c - 1 / 2)
    if order >= 3:
        res.append(b @ c**2 - 1 / 3)
        res.append(b @ a @ c - 1 / 6)
    if order >= 4:
        res.append(b @ c**3 - 1 / 4)
        res.append(b @ (c * (a @ c)) - 1 / 8)
        res.append(b @ a @ c**2 - 1 / 12)
        res.append(b @ a @ a @ c - 1 / 24)
    return np.array(res)


@pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: t.name)
def test_order_conditions(table):
    a = np.array(table.a)
    b = np.array(table.b)
    c = np.array(table.c)
    assert np.abs(_order_condition_residuals(a, b, c, table.order)).max() \
        <= 1e-14
    if table.b_embedded is None:
        return
    bt = np.array(table.b_embedded)
    assert np.abs(
        _order_condition_residuals(a, bt, c, table.embedded_order)).max() \
        <= 1e-14
    # the embedding is genuinely one order lower
    above = _order_condition_residuals(a, bt, c, table.embedded_order + 1)
    assert np.abs(above).max() > 1e-8


# ------------------------------------------------------------ erk steps

def _scalar_state(value):
    return ManyVector([np.array([float(value)])])


def _scalar_rhs(expr):
    def f(t, v):
        out = v.clone_empty()
        out.arrays[0][...] = expr(t, v.arrays[0])
        return out
    return f


def test_erk_step_zero_rhs_is_identity():
    table = bogacki_shampine_32()
    y = _scalar_state(1.75)
    err = y.clone_empty()
    out = erk_step(_scalar_rhs(lambda t, v: 0.0 * v), 0.0, 0.3, y, table,
                   err_out=err)
    assert out.arrays[0][0] == 1.75
    assert y.arrays[0][0] == 1.75
    assert err.arrays[0][0] == 0.0


@pytest.mark.parametrize("table", [bogacki_shampine_32(), classic_rk4(),
                                   knoth_wolke_3()], ids=lambda t: t.name)
def test_erk_quadrature_exactness(table):
    # v' = p t^(p-1) integrates t^p exactly for a table of order p
    p = table.order
    f = _scalar_rhs(lambda t, v: p * t ** (p - 1) + 0.0 * v)
    t0, h = 0.3, 0.7
    out = erk_step(f, t0, h, _scalar_state(2.0), table)
    exact = 2.0 + (t0 + h) ** p - t0 ** p
    assert abs(out.arrays[0][0] - exact) <= 1e-14


@pytest.mark.parametrize("table", [bogacki_shampine_32(), classic_rk4()],
                         ids=lambda t: t.name)
def test_erk_local_error_order(table):
    lam = -2.0
    f = _scalar_rhs(lambda t, v: lam * v)
    hs = [0.2 / 2 ** k for k in range(5)]
    errs = [abs(erk_step(f, 0.0, h, _scalar_state(1.0), table).arrays[0][0]
                - np.exp(lam * h)) for h in hs]
    slope = observed_order(hs, errs)
    assert abs(slope - (table.order + 1)) <= 0.4


def test_embedded_estimate_scales_at_embedded_order_plus_one():
    table = bogacki_shampine_32()
    f = _scalar_rhs(lambda t, v: -2.0 * t * v * v)
    hs = [0.1 / 2 ** k for k in range(5)]
    ests = []
    for h in hs:
        err = _scalar_state(0.0)
        erk_step(f, 0.4, h, _scalar_state(1.0), table, err_out=err)
        ests.append(abs(err.arrays[0][0]))
    slope = observed_order(hs, ests)
    assert abs(slope - (table.embedded_order + 1)) <= 0.4


def test_erk_embedded_error_hand_value():
    # one Bogacki-Shampine step of y' = lam*y from y = 1, z = h*lam:
    # h*sum (b_i - b~_i) k_i = -(z^3 + z^4) / 48
    lam, h = -2.0, 0.25
    z = h * lam
    err = _scalar_state(0.0)
    out = erk_step(_scalar_rhs(lambda t, v: lam * v), 0.0, h,
                   _scalar_state(1.0), bogacki_shampine_32(), err_out=err)
    assert out.arrays[0][0] == pytest.approx(1 + z + z * z / 2 + z ** 3 / 6,
                                             rel=1e-14)
    assert err.arrays[0][0] == pytest.approx(-(z ** 3 + z ** 4) / 48,
                                             rel=1e-12)


@pytest.mark.parametrize("table", [bogacki_shampine_32(), classic_rk4(),
                                   knoth_wolke_3()], ids=lambda t: t.name)
def test_erk_observed_order_matches_nominal(table):
    # y' = y cos t, y(0) = 1 has solution exp(sin t)
    f = _scalar_rhs(lambda t, v: v * np.cos(t))
    exact = np.exp(np.sin(2.0))
    errs, hs = [], []
    for k in range(5):
        h = 0.2 / 2 ** k
        y, _ = fixed_evolve(f, _scalar_state(1.0), 0.0, 2.0, h, table)
        hs.append(h)
        errs.append(abs(y.arrays[0][0] - exact))
    assert abs(observed_order(hs, errs) - table.order) <= 0.3


# ----------------------------------------------------------- dirk steps

def test_dirk_step_zero_rhs_is_identity():
    table = sdirk4()
    eng = scalar_newton(lambda t: 0.0)
    y = _scalar_state(3.0)
    w = y.clone_empty()
    for a in w.arrays:
        a.fill(1.0)
    err = y.clone_empty()
    out = dirk_step(_scalar_rhs(lambda t, c: 0.0 * c), eng, 0.0, 0.5, y,
                    table, w, err_out=err)
    assert out.arrays[0][0] == 3.0
    assert err.arrays[0][0] == 0.0


def test_implicit_stage_without_newton_names_table_and_stage():
    y = _scalar_state(1.0)
    with pytest.raises(SolverError, match="sdirk4 stage 1 is implicit"):
        erk_step(_scalar_rhs(lambda t, c: -c), 0.0, 0.1, y, sdirk4())


def test_dirk_embedded_error_hand_value():
    # sdirk4 on y' = lam*y in one cell: the stage derivatives solve
    # (I - z A) k = lam * 1 with z = h*lam, and the error estimate is
    # h*sum (b_i - b~_i) k_i
    lam, h = -2.0, 0.25
    table = sdirk4()
    eng = scalar_newton(lambda t: lam)
    y = _scalar_state(1.0)
    w = y.clone_empty().fill(1.0)
    err = y.clone_empty()
    dirk_step(_scalar_rhs(lambda t, c: lam * c), eng, 0.0, h, y, table, w,
              err_out=err)
    a = np.array(table.a)
    k = np.linalg.solve(np.eye(table.stages) - h * lam * a,
                        np.full(table.stages, lam))
    d = np.array(table.b) - np.array(table.b_embedded)
    assert err.arrays[0][0] == pytest.approx(h * d @ k, rel=1e-10)


def test_dirk_stiff_relaxation_is_stable():
    # v' = -1e6 (v - 1): explicit methods at h = 0.1 would explode
    lam = -1.0e6
    table = sdirk4()
    eng = scalar_newton(lambda t: lam)
    y = _scalar_state(0.0)
    y, stats = fixed_evolve(_scalar_rhs(lambda t, c: lam * (c - 1.0)), y,
                            0.0, 0.5, 0.1, table, newton=eng)
    assert stats.steps == 5
    assert abs(y.arrays[0][0] - 1.0) <= 1e-10


def test_dirk_observed_order_matches_nominal():
    table = sdirk4()
    f = _scalar_rhs(lambda t, c: c * np.cos(t))
    exact = np.exp(np.sin(2.0))
    errs, hs = [], []
    for k in range(4):
        h = 0.2 / 2 ** k
        eng = scalar_newton(np.cos)
        y, _ = fixed_evolve(f, _scalar_state(1.0), 0.0, 2.0, h, table,
                            newton=eng, rtol=1e-10, atol=1e-13)
        hs.append(h)
        errs.append(abs(y.arrays[0][0] - exact))
    assert abs(observed_order(hs, errs) - table.order) <= 0.3


# ------------------------------------------------------------ controller

def test_controller_growth_is_capped():
    # error well below 1 asks for ~8x growth; the cap wins
    assert next_step_size(1.0, 1e-4, 3, h_max=10.0) == 2.0


def test_controller_neutral_error_applies_safety():
    # error = 1/bias makes the bracket exactly 1
    assert next_step_size(1.0, 0.5, 3, h_max=10.0) == pytest.approx(SAFETY,
                                                                    rel=0.0)


def test_controller_shrinks_on_rejection():
    expect = SAFETY * (1.0 / (ERROR_BIAS * 4.0)) ** 0.25
    assert next_step_size(1.0, 4.0, 3, h_max=10.0) == pytest.approx(
        expect, rel=1e-15)
    assert expect < 0.6


def test_controller_error_one_shrinks_by_safety_over_root_bias():
    got = next_step_size(1.0, 1.0, 3, h_max=10.0)
    assert got == pytest.approx(SAFETY * 2.0 ** -0.25, rel=1e-15)


def test_controller_formula_plumbing():
    # error = safety^(p+1)/bias makes the growth factor exactly 1
    for p in (2, 3):
        error = SAFETY ** (p + 1) / ERROR_BIAS
        assert next_step_size(0.7, error, p, h_max=10.0) == pytest.approx(
            0.7, rel=1e-14)


def test_controller_zero_error_gives_max_growth():
    assert next_step_size(0.5, 0.0, 2, h_max=10.0) == 0.5 * MAX_GROWTH


def test_controller_clips_to_h_max():
    assert next_step_size(1.0, 0.0, 3, h_max=1.25) == 1.25
    assert next_step_size(2.0, 0.5, 3, h_max=0.5) == 0.5


# -------------------------------------------------------------- adaptive

def test_adaptive_zero_rhs_max_growth_cascade():
    f = _scalar_rhs(lambda t, v: 0.0 * v)
    log = []
    stats = IntegrationStats()
    y, _ = evolve(f, _scalar_state(4.0), 0.0, 1.0,
                  FastSolve(bogacki_shampine_32(), h=10.0, rtol=1e-6,
                            atol=1e-9),
                  h0=1e-3, stats=stats, step_log=log)
    assert y.arrays[0][0] == 4.0
    assert stats.rejected == 0
    assert stats.accepted == len(log)
    ts = [rec[0] for rec in log]
    hs = [rec[1] for rec in log]
    assert all(rec[2] == 0.0 and rec[3] for rec in log)
    for i in range(len(log) - 1):
        assert hs[i + 1] == min(2.0 * hs[i], 1.0 - ts[i + 1])
    assert ts[-1] + hs[-1] == pytest.approx(1.0, abs=1e-12)


def test_adaptive_short_interval_takes_single_truncated_step():
    f = _scalar_rhs(lambda t, v: 0.0 * v)
    stats = IntegrationStats()
    evolve(f, _scalar_state(1.0), 0.0, 0.25,
           FastSolve(bogacki_shampine_32(), h=10.0, rtol=1e-6, atol=1e-9),
           h0=1.0, stats=stats)
    assert stats.steps == stats.accepted == 1
    assert stats.last_h == 0.25


def test_adaptive_requires_an_embedded_table():
    with pytest.raises(SolverError, match="error estimate"):
        evolve(_scalar_rhs(lambda t, v: 0.0 * v), _scalar_state(1.0),
               0.0, 1.0, FastSolve(classic_rk4(), h=1.0, rtol=1e-6,
                                   atol=1e-9), h0=0.1)


def test_adaptive_step_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(ark, "DEFAULT_MAX_STEPS", 10)
    f = _scalar_rhs(lambda t, v: 0.0 * v)
    with pytest.raises(SolverError, match="budget of 10"):
        evolve(f, _scalar_state(1.0), 0.0, 1.0,
               FastSolve(bogacki_shampine_32(), h=1e-9, rtol=1e-6,
                         atol=1e-9), h0=1e-12)


def test_adaptive_non_finite_error_estimate_fails_at_once():
    log = []
    with pytest.raises(SolverError, match=r"non-finite error estimate nan at "
                                          r"t=0\.0 with h=0\.1"):
        evolve(_scalar_rhs(lambda t, v: np.nan * v),
               ManyVector([np.ones(4)]), 0.0, 1.0,
               FastSolve(bogacki_shampine_32(), h=1.0, rtol=1e-6,
                         atol=1e-9), h0=0.1, step_log=log)
    assert log == []


def test_adaptive_step_size_underflow_is_fatal():
    f = _scalar_rhs(lambda t, v: 0.0 * v)
    with pytest.raises(SolverError, match="underflow"):
        evolve(f, _scalar_state(1.0), 0.0, 1.0,
               FastSolve(bogacki_shampine_32(), h=1.0, rtol=1e-6,
                         atol=1e-9), h0=1e-15)


def _run_decay(step_log=None):
    stats = IntegrationStats()
    y, _ = evolve(_scalar_rhs(lambda t, v: -50.0 * v),
                  _scalar_state(1.0), 0.0, 0.2,
                  FastSolve(bogacki_shampine_32(), h=10.0, rtol=1e-6,
                            atol=1e-12),
                  h0=1.0, stats=stats, step_log=step_log)
    return y.arrays[0][0], stats


def test_adaptive_rejects_oversized_steps_then_recovers():
    log = []
    value, stats = _run_decay(log)
    assert stats.rejected >= 1
    assert abs(value - np.exp(-10.0)) <= 5e-3 * np.exp(-10.0)
    for i, (t, h, error, accepted) in enumerate(log[:-1]):
        assert log[i + 1][1] <= 2.0 * h * (1.0 + 1e-12)
        if not accepted:
            assert error > 1.0
            assert log[i + 1][1] < h
    assert sum(1 for rec in log if not rec[3]) == stats.rejected


def test_adaptive_step_sequence_is_deterministic():
    log_a, log_b = [], []
    value_a, _ = _run_decay(log_a)
    value_b, _ = _run_decay(log_b)
    assert value_a == value_b
    assert log_a == log_b


def test_adaptive_stiff_transient_saturates_at_h_max():
    lam = -1.0e4
    h_max = 0.01
    eng = scalar_newton(lambda t: lam)
    log = []
    y, stats = evolve(_scalar_rhs(lambda t, c: lam * (c - 1.0)),
                      _scalar_state(0.0), 0.0, 1.0,
                      FastSolve(sdirk4(), h=h_max, rtol=1e-6, atol=1e-12),
                      h0=1e-5, newton=eng, step_log=log)
    accepted_h = [h for _, h, _, ok in log if ok]
    assert min(accepted_h) < h_max / 100.0
    assert max(accepted_h) == h_max
    # once the transient is resolved the controller rides the cap
    assert all(h == h_max for h in accepted_h[-20:-1])
    assert abs(y.arrays[0][0] - 1.0) <= 1e-8


def test_adaptive_newton_failure_shrinks_and_retries():
    # a zero Jacobian turns Newton into fixed-point iteration, which
    # diverges at large h; the adaptive driver must cut h and push on
    lam = -100.0
    eng = scalar_newton(lambda t: 0.0)
    stats = IntegrationStats()
    y, _ = evolve(_scalar_rhs(lambda t, c: lam * c),
                  _scalar_state(1.0), 0.0, 0.05,
                  FastSolve(sdirk4(), h=1.0, rtol=1e-5, atol=1e-9),
                  h0=0.32, newton=eng, stats=stats)
    assert stats.conv_failures >= 2
    assert eng.stats.failures == stats.conv_failures
    got = y.arrays[0][0]
    assert abs(got - np.exp(lam * 0.05)) <= 1e-2 * np.exp(lam * 0.05)


# ------------------------------------------------------------ fixed mode

def test_fixed_zero_rhs_identity():
    y = _scalar_state(2.5)
    stats = IntegrationStats()
    fixed_evolve(_scalar_rhs(lambda t, v: 0.0 * v), y, 0.0, 1.0, 0.25,
                 classic_rk4(), stats=stats)
    assert y.arrays[0][0] == 2.5
    assert stats.steps == stats.accepted == 4
    assert stats.rejected == 0


def test_fixed_truncates_final_step():
    y = _scalar_state(0.0)
    stats = IntegrationStats()
    fixed_evolve(_scalar_rhs(lambda t, v: 1.0 + 0.0 * v), y, 0.0, 1.0, 0.3,
                 classic_rk4(), stats=stats)
    assert stats.steps == 4
    assert stats.last_h == pytest.approx(0.1, abs=1e-14)
    assert abs(y.arrays[0][0] - 1.0) <= 1e-14


@pytest.mark.parametrize("h", [0.0, -0.3, float("nan"), float("inf")])
def test_fixed_rejects_bad_step(h):
    with pytest.raises(SolverError, match="fixed step must be positive"):
        fixed_evolve(_scalar_rhs(lambda t, v: 1.0 + 0.0 * v), _scalar_state(0.0),
                     0.0, 1.0, h, classic_rk4())


def test_fixed_newton_failure_is_fatal():
    lam = -100.0
    eng = scalar_newton(lambda t: 0.0)
    stats = IntegrationStats()
    with pytest.raises(SolverError, match="fixed step"):
        fixed_evolve(_scalar_rhs(lambda t, c: lam * c), _scalar_state(1.0),
                     0.0, 1.0, 0.1, sdirk4(), newton=eng, stats=stats)
    assert stats.conv_failures == 1
    assert stats.steps == stats.accepted == 0
    assert eng.stats.failures == 1


def test_fixed_mode_has_no_step_budget_or_underflow_check(monkeypatch):
    # both guard the controller; fixed steps are sized by the caller
    monkeypatch.setattr(ark, "DEFAULT_MAX_STEPS", 2)
    f = _scalar_rhs(lambda t, v: 0.0 * v)
    # at t0 = 1e6 the step is below 64 ulp of t, where the adaptive
    # driver reports an underflow, and so is the half step left over
    for t0, h, steps in ((0.0, 0.25, 5), (1e6, 1e-8, 4)):
        stats = IntegrationStats()
        fixed_evolve(f, _scalar_state(1.0), t0, t0 + 4.5 * h, h,
                     classic_rk4(), stats=stats)
        assert stats.steps == stats.accepted == steps


# ------------------------------------------- surrogate network, adaptive

def test_adaptive_surrogate_network_meets_tolerances():
    net = SurrogateNetwork()
    rtol, atol = 1e-5, 1e-9

    # H, H2 and e_g at rho = 1; norms count all 15 fields, as in a run
    f, eng = network_on_fields(net, rho=1.0)
    y = one_cell((1.0, 0.0, 1.0), global_length=5 + N_SPECIES)
    log = []
    stats = IntegrationStats()
    evolve(f, y, 0.0, 0.1, FastSolve(sdirk4(), h=1e-2, rtol=rtol, atol=atol),
           h0=1e-6, newton=eng, stats=stats, step_log=log)

    fr, jr = single_cell_ode(net, rho=1.0)
    ref = reference_ivp(fr, [1.0, 0.0, 1.0], (0.0, 0.1), jac=jr, stiff=True)
    got = y.arrays[0][:, 0, 0, 0]
    w = 1.0 / (rtol * np.abs(ref) + atol)
    wrms = np.sqrt(np.mean(((got - ref) * w) ** 2))
    assert wrms <= 5.0

    assert eng.stats.iterations > 0
    hs = [h for _, h, _, _ in log]
    assert max(hs) <= 1e-2
    for i in range(len(hs) - 1):
        assert hs[i + 1] <= 2.0 * hs[i] * (1.0 + 1e-12)
