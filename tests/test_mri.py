"""Multirate stepping: the padded coupling view, forcing construction,
slow-limit equivalence, and the two-phase evolution driver."""

import numpy as np
import pytest

from mrflow import ark, mri
from mrflow.ark import (ButcherTable, IntegrationStats, SolverError,
                        bogacki_shampine_32, classic_rk4, erk_step,
                        fixed_evolve, knoth_wolke_3, sdirk4)
from mrflow.mri import (CouplingError, EvolveResult, FastSolve, MRICoupling,
                        evolve_two_phase, mri_forcing, mri_step)
from mrflow.euler import EosDomainError
from mrflow.newton import LinearSolveError, NewtonEngine
from mrflow.profiling import Profile, Region
from mrflow.testsuite import linear_exact, observed_order
from mrflow.vectors import ManyVector

from cell_ode import one_cell, scalar_newton


def _pair_state(a, b):
    return ManyVector([np.array([float(a)]), np.array([float(b)])])


def _zero_rhs(t, v):
    out = v.clone_empty()
    for arr in out.arrays:
        arr.fill(0.0)
    return out


# ---------------------------------------------------------------- coupling

def test_coupling_pads_the_outer_table():
    cpl = MRICoupling(knoth_wolke_3())
    assert cpl.c == (0.0, 1 / 3, 3 / 4, 1.0)
    assert cpl.n_intervals == 3
    assert cpl.rows[-1] == knoth_wolke_3().b
    assert cpl.delta_c(0) == 1 / 3
    assert cpl.delta_c(2) == 0.25
    np.testing.assert_allclose(cpl.delta_a(0), (1 / 3,), atol=0)
    np.testing.assert_allclose(cpl.delta_a(1), (-25 / 48, 15 / 16),
                               rtol=1e-15)
    np.testing.assert_allclose(cpl.delta_a(2), (17 / 48, -51 / 80, 8 / 15),
                               rtol=1e-15)


def test_coupling_rejects_nonzero_first_abscissa():
    bad = ButcherTable(name="bad", a=((0.0,),), b=(1.0,), c=(0.5,), order=1)
    with pytest.raises(CouplingError, match="c = 0"):
        MRICoupling(bad)


def test_coupling_rejects_decreasing_abscissae():
    bad = ButcherTable(name="bad",
                       a=((0.0, 0.0), (0.75, 0.0)),
                       b=(0.5, 0.5), c=(0.0, 0.75), order=1)
    # padding appends c = 1 so the table itself must not overshoot it
    cpl = MRICoupling(bad)
    assert cpl.c == (0.0, 0.75, 1.0)
    worse = ButcherTable(name="worse",
                         a=((0.0, 0.0), (1.25, 0.0)),
                         b=(0.5, 0.5), c=(0.0, 1.25), order=1)
    with pytest.raises(CouplingError, match="non-decreasing"):
        MRICoupling(worse)


def test_coupling_rejects_implicit_outer_table():
    trapezoid = ButcherTable(name="trapezoid",
                             a=((0.0, 0.0), (0.5, 0.5)),
                             b=(0.5, 0.5), c=(0.0, 1.0), order=2)
    with pytest.raises(CouplingError, match="explicit"):
        MRICoupling(trapezoid)


# ----------------------------------------------------------------- forcing

def test_forcing_matches_direct_formula():
    cpl = MRICoupling(knoth_wolke_3())
    rng = np.random.default_rng(21)
    vals = rng.standard_normal((3, 2))
    rhs = [_pair_state(*row) for row in vals]
    out = _pair_state(0.0, 0.0)
    for i in range(cpl.n_intervals):
        mri_forcing(cpl, i, rhs, out)
        expect = np.array(cpl.delta_a(i)) @ vals[:i + 1] / cpl.delta_c(i)
        got = np.array([out.arrays[0][0], out.arrays[1][0]])
        np.testing.assert_allclose(got, expect, rtol=1e-14)


def test_forcing_first_interval_is_the_first_slow_rhs():
    # delta_a(0)/delta_c(0) = (1, 0, 0) for a row-sum-consistent table
    cpl = MRICoupling(knoth_wolke_3())
    rhs = [_pair_state(0.7, -1.9), _pair_state(5.0, 5.0),
           _pair_state(2.0, 2.0)]
    out = _pair_state(0.0, 0.0)
    mri_forcing(cpl, 0, rhs, out)
    assert out.arrays[0][0] == 0.7
    assert out.arrays[1][0] == -1.9


def test_forcing_zero_width_interval_raises():
    repeated = ButcherTable(
        name="repeated",
        a=((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.25, 0.25, 0.0)),
        b=(1 / 6, 1 / 6, 2 / 3), c=(0.0, 0.5, 0.5), order=2)
    cpl = MRICoupling(repeated)
    rhs = [_pair_state(1.0, 1.0)] * 3
    with pytest.raises(CouplingError, match="equal abscissae"):
        mri_forcing(cpl, 1, rhs, _pair_state(0.0, 0.0))


# -------------------------------------------------------------- slow limit

def _rotation_rhs(t, v):
    out = v.clone_empty()
    out.arrays[0][...] = -v.arrays[1]
    out.arrays[1][...] = v.arrays[0]
    return out


def _ulp_distance(a, b):
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


def test_slow_limit_matches_standalone_erk():
    # with zero fast physics the constant forcing integrates exactly, so
    # one mri step telescopes to the outer explicit step
    table = knoth_wolke_3()
    cpl = MRICoupling(table)
    y = _pair_state(1.0, 0.25)
    fast = FastSolve(table=classic_rk4(), mode="fixed", h=1.0)
    got = mri_step(cpl, _rotation_rhs, _zero_rhs, 0.0, 0.2, y, fast)
    want = erk_step(_rotation_rhs, 0.0, 0.2, y, table)
    for g, w in zip(got.arrays, want.arrays):
        assert _ulp_distance(g[0], w[0]) <= 2.0
    # the input state is never mutated
    assert y.arrays[0][0] == 1.0 and y.arrays[1][0] == 0.25


def test_degenerate_stage_takes_explicit_update():
    repeated = ButcherTable(
        name="repeated",
        a=((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.25, 0.25, 0.0)),
        b=(1 / 6, 1 / 6, 2 / 3), c=(0.0, 0.5, 0.5), order=2)
    cpl = MRICoupling(repeated)
    hooks = _RecordingHooks()
    y = _pair_state(0.8, -0.3)
    fast = FastSolve(table=classic_rk4(), mode="fixed", h=1.0)
    got = mri_step(cpl, _rotation_rhs, _zero_rhs, 0.0, 0.1, y, fast,
                   hooks=hooks)
    # only the two nonzero-width intervals ran a fast solve
    assert [kind for kind, _ in hooks.calls] == ["prepare", "finalize",
                                                 "prepare", "finalize"]
    want = erk_step(_rotation_rhs, 0.0, 0.1, y, repeated)
    for g, w in zip(got.arrays, want.arrays):
        assert _ulp_distance(g[0], w[0]) <= 4.0


def test_pure_fast_solve_when_slow_rhs_vanishes():
    # zero slow tendency means zero forcing: the mri trajectory is the
    # plain fast integration, restarted (bitwise harmlessly) per stage
    midpoint = ButcherTable(name="midpoint",
                            a=((0.0, 0.0), (0.5, 0.0)),
                            b=(0.0, 1.0), c=(0.0, 0.5), order=2)
    cpl = MRICoupling(midpoint)

    def decay(t, v):
        out = v.clone_empty()
        out.arrays[0][...] = -1.3 * v.arrays[0]
        out.arrays[1][...] = 0.5 * v.arrays[1]
        return out

    y = _pair_state(2.0, 0.6)
    fast = FastSolve(table=classic_rk4(), mode="fixed", h=0.125)
    got = mri_step(cpl, _zero_rhs, decay, 0.0, 1.0, y, fast)
    want, _ = fixed_evolve(decay, y.copy(), 0.0, 1.0, 0.125, classic_rk4())
    for g, w in zip(got.arrays, want.arrays):
        assert g[0] == w[0]


# ------------------------------------------------------- hooks and newton

class _RecordingHooks:
    """Hands the fast solver the whole state, as mri_step does without
    hooks, and records the interval's start time and width."""

    def __init__(self):
        self.calls = []

    def prepare(self, state, forcing, t):
        self.calls.append(("prepare", t))
        return state, forcing

    def finalize(self, state, forcing, fast, d_tau):
        assert fast is state
        self.calls.append(("finalize", d_tau))


def test_hooks_bracket_each_fast_interval():
    cpl = MRICoupling(knoth_wolke_3())
    hooks = _RecordingHooks()
    fast = FastSolve(table=classic_rk4(), mode="fixed", h=1.0)
    t, h = 0.5, 0.3
    y = _pair_state(1.0, 0.0)
    got = mri_step(cpl, _rotation_rhs, _zero_rhs, t, h, y, fast, hooks=hooks)
    kinds = [kind for kind, _ in hooks.calls]
    assert kinds == ["prepare", "finalize"] * 3
    starts = [tau for kind, tau in hooks.calls if kind == "prepare"]
    assert starts == [t + c * h for c in cpl.c[:3]]
    taus = [tau for kind, tau in hooks.calls if kind == "finalize"]
    np.testing.assert_allclose(taus, [h / 3, h * 5 / 12, h / 4], rtol=1e-15)
    # whole-state hooks leave the step as it is without them
    plain = mri_step(cpl, _rotation_rhs, _zero_rhs, t, h, y, fast)
    for g, w in zip(got.arrays, plain.arrays):
        assert g[0] == w[0]


class _HalfHooks:
    """Lifts the first field out and moves the second by d_tau * r."""

    def prepare(self, state, forcing, t):
        return (ManyVector([state.arrays[0].copy()]),
                ManyVector([forcing.arrays[0]]))

    def finalize(self, state, forcing, fast, d_tau):
        state.arrays[0][...] = fast.arrays[0]
        state.arrays[1] += d_tau * forcing.arrays[1]


def test_hooks_choose_the_fast_state():
    # decay in the first field only: the hooks' one-field fast problem
    # matches the whole-state one to roundoff
    def decay(t, v):
        out = v.clone_empty()
        out.arrays[0][...] = -1.3 * v.arrays[0]
        if len(out.arrays) > 1:
            out.arrays[1][...] = 0.0
        return out

    cpl = MRICoupling(knoth_wolke_3())
    fast = FastSolve(table=classic_rk4(), mode="fixed", h=0.01)
    y = _pair_state(0.8, -0.3)
    got = mri_step(cpl, _rotation_rhs, decay, 0.0, 0.1, y, fast,
                   hooks=_HalfHooks())
    want = mri_step(cpl, _rotation_rhs, decay, 0.0, 0.1, y, fast)
    for g, w in zip(got.arrays, want.arrays):
        assert _ulp_distance(g[0], w[0]) <= 8.0


class _CountingEngine(NewtonEngine):
    reset_calls = 0

    def reset(self):
        self.reset_calls += 1
        super().reset()


def test_newton_engine_resets_for_every_fast_interval():
    lam = -5.0
    cpl = MRICoupling(knoth_wolke_3())
    eng = scalar_newton(lambda t: lam, engine=_CountingEngine)

    def fast_f(t, v):
        return ManyVector([lam * (v.arrays[0] - 1.0)])

    fast = FastSolve(table=sdirk4(), mode="fixed", h=1.0)
    mri_step(cpl, _zero_rhs, fast_f, 0.0, 0.2, one_cell([0.0]), fast,
             newton=eng)
    assert eng.reset_calls == 3


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
def test_implicit_fast_table_without_newton_names_the_stage(mode):
    fast = FastSolve(table=sdirk4(), mode=mode, h=0.01)
    with pytest.raises(SolverError,
                       match="slow stage 1.*sdirk4 stage 1 is implicit"):
        mri_step(MRICoupling(knoth_wolke_3()), _zero_rhs, _zero_rhs, 0.0,
                 0.1, _pair_state(1.0, 1.0), fast)


# ---------------------------------------------------------------- failure

def _flaky(t, v):
    if t > 0.34:   # inside the second fast interval of a step from 0 by 1
        raise SolverError("synthetic fault")
    return _zero_rhs(t, v)


def test_fast_failure_reports_the_slow_stage():
    cpl = MRICoupling(knoth_wolke_3())
    fast = FastSolve(table=bogacki_shampine_32(), mode="adaptive")
    with pytest.raises(SolverError, match="slow stage 2.*synthetic"):
        mri_step(cpl, _zero_rhs, _flaky, 0.0, 1.0, _pair_state(1.0, 1.0),
                 fast)


@pytest.mark.parametrize("t_split, phase", [(0.6, "transient"),
                                            (0.2, "fixed")])
def test_two_phase_failure_names_phase_and_slow_step(t_split, phase):
    # the step from 0.2 by 0.2 reaches t = 0.34 in its second fast interval
    fast = FastSolve(table=bogacki_shampine_32(), h=0.01)
    with pytest.raises(SolverError) as info:
        evolve_two_phase(MRICoupling(knoth_wolke_3()), _zero_rhs, _flaky,
                         _pair_state(1.0, 1.0), 0.0, t_split, 0.6, 0.2, fast)
    assert str(info.value) == (
        f"{phase} phase, slow step 2 at t=0.2: fast solve failed at slow"
        " stage 2: synthetic fault")
    assert "slow stage 2" in str(info.value.__cause__)


def _singular_in_cell_2(t, v):
    # I - hg*J is zero in cell 2 for hg = 2**-8, the fast steps of 2**-6
    jac = np.zeros((3, 3, 4))
    jac[range(3), range(3), 2] = 256.0
    return jac


@pytest.mark.parametrize("jacobian, message, where", [
    (lambda t, v: np.ones((4, 9)),
     "Jacobian has shape (4, 9), expected (3, 3, 4)", (None, None)),
    (_singular_in_cell_2,
     "singular Newton block in local cell 2: zero pivot for field H", (2, 0)),
])
def test_two_phase_names_a_linear_solve_failure_keeping_its_type(
        jacobian, message, where):
    eng = NewtonEngine(jacobian, ("H", "H2", "e_g"))
    y = ManyVector([np.ones((3, 4))])
    with pytest.raises(LinearSolveError) as info:
        evolve_two_phase(MRICoupling(knoth_wolke_3()), _zero_rhs, _zero_rhs,
                         y, 0.0, 0.0, 0.2, 0.2, FastSolve(sdirk4(), h=2**-6),
                         newton=eng)
    assert str(info.value) == ("fixed phase, slow step 1 at t=0.0: fast solve"
                               f" failed at slow stage 1: {message}")
    assert (info.value.cell, info.value.column) == where
    assert isinstance(info.value.__cause__, LinearSolveError)


def test_two_phase_names_an_eos_failure_keeping_its_attributes():
    def slow_f(t, v):
        if t >= 0.2:
            raise EosDomainError("nonpositive internal energy -1", (2,), -1.0)
        return _zero_rhs(t, v)

    with pytest.raises(EosDomainError) as info:
        evolve_two_phase(MRICoupling(knoth_wolke_3()), slow_f, _zero_rhs,
                         _pair_state(1.0, 1.0), 0.0, 0.2, 0.4, 0.2,
                         FastSolve(bogacki_shampine_32(), h=0.02))
    assert str(info.value) == ("fixed phase, slow step 2 at t=0.2:"
                               " nonpositive internal energy -1")
    assert (info.value.index, info.value.value) == ((2,), -1.0)


def test_fast_budget_exhaustion_reports_the_slow_stage(monkeypatch):
    monkeypatch.setattr(ark, "DEFAULT_MAX_STEPS", 1)
    cpl = MRICoupling(knoth_wolke_3())
    fast = FastSolve(table=bogacki_shampine_32(), mode="adaptive")
    with pytest.raises(SolverError, match="slow stage 1.*budget"):
        mri_step(cpl, _zero_rhs, _zero_rhs, 0.0, 1.0, _pair_state(1.0, 1.0),
                 fast)


def test_fast_step_cap_forces_more_steps():
    cpl = MRICoupling(knoth_wolke_3())
    y = _pair_state(1.0, 1.0)
    free = IntegrationStats()
    mri_step(cpl, _zero_rhs, _zero_rhs, 0.0, 1.0, y,
             FastSolve(table=bogacki_shampine_32(), mode="adaptive"),
             fast_stats=free)
    capped = IntegrationStats()
    got = mri_step(cpl, _zero_rhs, _zero_rhs, 0.0, 1.0, y,
                   FastSolve(table=bogacki_shampine_32(), mode="adaptive",
                             h=0.02),
                   fast_stats=capped)
    assert capped.steps > free.steps
    assert capped.last_h <= 0.02
    assert got.arrays[0][0] == 1.0


# ------------------------------------------------------------- two phases

def test_evolve_two_phase_counts_steps_and_times_regions():
    cpl = MRICoupling(knoth_wolke_3())
    profile = Profile()
    fast = FastSolve(table=bogacki_shampine_32(), h=0.025)
    res = evolve_two_phase(cpl, _rotation_rhs, _zero_rhs,
                           _pair_state(1.0, 0.0), 0.0, 0.2, 0.6, 0.1,
                           fast, profile=profile)
    assert isinstance(res, EvolveResult)
    assert res.n_slow_steps == 6
    assert res.fast_stats.steps > 0
    assert profile.seconds[Region.TRANSIENT] > 0.0
    assert profile.seconds[Region.FIXED_STEP] > 0.0
    # the full rotation by 0.6 radians, within outer truncation error
    np.testing.assert_allclose(
        [res.state.arrays[0][0], res.state.arrays[1][0]],
        [np.cos(0.6), np.sin(0.6)], rtol=1e-4)


def test_evolve_two_phase_sets_the_fast_mode_per_phase(monkeypatch):
    modes = []
    real = mri.mri_step

    def spy(*args, **kw):
        modes.append(args[6].mode)
        return real(*args, **kw)

    monkeypatch.setattr(mri, "mri_step", spy)
    fast = FastSolve(table=bogacki_shampine_32(), mode="fixed", h=0.025)
    evolve_two_phase(MRICoupling(knoth_wolke_3()), _zero_rhs, _zero_rhs,
                     _pair_state(1.0, 0.0), 0.0, 0.2, 0.6, 0.1, fast)
    assert modes == ["adaptive"] * 2 + ["fixed"] * 4
    assert fast.mode == "fixed"


def test_evolve_two_phase_budget_is_per_fast_interval(monkeypatch):
    # a shared stats object across thousands of fast solves must not trip
    # the per-call attempt budget
    monkeypatch.setattr(ark, "DEFAULT_MAX_STEPS", 40)
    cpl = MRICoupling(knoth_wolke_3())
    fast = FastSolve(table=bogacki_shampine_32(), h=0.01)
    res = evolve_two_phase(cpl, _zero_rhs, _zero_rhs, _pair_state(1.0, 1.0),
                           0.0, 0.5, 1.0, 0.01, fast)
    assert res.fast_stats.steps > 40


@pytest.mark.parametrize("h_slow", [0.0, -0.05, float("nan"), float("inf")])
def test_evolve_two_phase_rejects_bad_slow_step(h_slow):
    fast = FastSolve(table=classic_rk4(), h=0.025)
    with pytest.raises(SolverError, match="slow step"):
        evolve_two_phase(MRICoupling(knoth_wolke_3()), _zero_rhs, _zero_rhs,
                         _pair_state(1.0, 1.0), 0.0, 0.1, 0.2, h_slow, fast)


def test_fast_solve_rejects_unknown_mode():
    with pytest.raises(ValueError, match="'Fixed'"):
        FastSolve(table=classic_rk4(), mode="Fixed", h=0.01)


# ------------------------------------------------------------ order study

LAM_FAST = -100.0
LAM_SLOW = -1.0
COUPLE = 0.5


def _split_slow(t, v):
    out = v.clone_empty()
    out.arrays[0][...] = COUPLE * v.arrays[1]
    out.arrays[1][...] = COUPLE * v.arrays[0] + LAM_SLOW * v.arrays[1]
    return out


def _split_fast(t, v):
    out = v.clone_empty()
    out.arrays[0][...] = LAM_FAST * v.arrays[0]
    out.arrays[1][...] = 0.0 * v.arrays[1]
    return out


def test_mri_observed_order_is_third():
    cpl = MRICoupling(knoth_wolke_3())
    matrix = [[LAM_FAST, COUPLE], [COUPLE, LAM_SLOW]]
    tf = 0.5
    exact = linear_exact(matrix, [1.0, 1.0], tf)
    hs, errs = [], []
    for k in range(4):
        h = 0.025 / 2 ** k
        fast = FastSolve(table=bogacki_shampine_32(), mode="fixed",
                         h=h / 50.0)
        y = _pair_state(1.0, 1.0)
        t = 0.0
        while t < tf - 1e-12:
            y = mri_step(cpl, _split_slow, _split_fast, t, h, y, fast)
            t += h
        got = np.array([y.arrays[0][0], y.arrays[1][0]])
        hs.append(h)
        errs.append(np.abs(got - exact).max())
    assert 2.6 <= observed_order(hs, errs) <= 3.4
