"""Config parsing, the weak-scaling ladder, state assembly and gather,
profile CSV plumbing, the report pipeline, and the command line."""

import csv
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import mrflow
from mrflow import harness
from mrflow.ark import ButcherTable, SolverError, sdirk4
from mrflow.chemistry import (IEG, N_SPECIES, SurrogateNetwork, UnitSystem,
                              sync_gas_energy)
from mrflow.euler import EulerPipeline, GasConstants
from mrflow.harness import (CSV_COLUMNS, PLOT_FILTER_FRACTION, ConfigError,
                            RunConfig, _global_mean_eg, build_state,
                            emit_report, gather_state,
                            load_config, main, read_profile_csv,
                            scaling_plan, simulation_worker,
                            write_profile_csv)
from mrflow.mesh import Decomposition, UniformGrid
from mrflow.mri import FastSolve, MRICoupling, mri_step
from mrflow.newton import NewtonEngine
from mrflow.profiling import Profile, Region, aggregate
from mrflow.testsuite import ConservationMonitor
from mrflow.transport import run_spmd
from mrflow.vectors import read_snapshot

from cell_ode import (full_state_block, network_on_full_state,
                      store_full_state_block)

TINY_INI = """\
[grid]
nx = 8
ny = 8
nz = 8

[time]
t_final = 0.1
t_transient = 0.05
h_slow = 0.05
fast_ratio = 10

[physics]
n_clumps = 10
"""


def _tiny_cfg(**kw):
    base = RunConfig(shape=(8, 8, 8), t_final=0.1, t_transient=0.05,
                     h_slow=0.05, fast_ratio=10.0, n_clumps=10)
    return replace(base, **kw).validate()


# ------------------------------------------------------------------ config

def test_default_config_validates():
    cfg = RunConfig().validate()
    assert cfg.shape == (32, 32, 32)
    assert cfg.fast_ratio == 1000.0
    assert cfg.units.mass == 3.0e70


def test_load_config_reads_every_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("""\
[grid]
nx = 16
ny = 12
nz = 8
x0 = -1.0
x1 = 3.0
bc = periodic

[time]
t_final = 0.4
t_transient = 0.1
h_slow = 0.02
fast_ratio = 100
rtol = 1e-6
atol = 1e-10

[physics]
gamma = 1.4
k1 = 5.0
k2 = 7.0
q = 0.5
seed = 42
n_clumps = 3

[units]
mass = 1e30
length = 1e10
time = 1e5
""")
    cfg = load_config(str(path))
    assert cfg.shape == (16, 12, 8)
    assert cfg.bounds[0] == (-1.0, 3.0)
    assert cfg.bounds[1] == (0.0, 1.0)
    assert (cfg.t_final, cfg.t_transient, cfg.h_slow) == (0.4, 0.1, 0.02)
    assert (cfg.rtol, cfg.atol) == (1e-6, 1e-10)
    assert cfg.gamma == 1.4
    assert (cfg.k1, cfg.k2, cfg.q) == (5.0, 7.0, 0.5)
    assert (cfg.seed, cfg.n_clumps) == (42, 3)
    assert (cfg.units.mass, cfg.units.length, cfg.units.time) == \
        (1e30, 1e10, 1e5)


def test_load_config_missing_sections_keep_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    cfg = load_config(str(path))
    assert cfg == RunConfig()


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[grids]\nnx = 4\n")
    with pytest.raises(ConfigError, match=r"unknown config section"):
        load_config(str(path))


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\nnx = 4\nn_x = 4\n")
    with pytest.raises(ConfigError, match=r"unknown keys in \[grid\]: n_x"):
        load_config(str(path))


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[time]\nh_slow = banana\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(str(path))


def test_malformed_config_is_config_error(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[grid\nnx = 8\n")
    with pytest.raises(ConfigError, match="malformed config"):
        load_config(str(ini))
    assert main(["run", "--config", str(ini)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_non_finite_config_value(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI.replace("fast_ratio = 10", "fast_ratio = inf"))
    with pytest.raises(ConfigError, match=r"\[time\] fast_ratio must be finite"):
        load_config(str(ini))
    assert main(["run", "--config", str(ini), "--tasks", "1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.ini")


# the grid shape, bounds and bc are checked once, by the mesh layer
# (test_cli_rejects_bad_grid_as_config_error)
@pytest.mark.parametrize("field,value", [
    ("bounds", ((0.0, float("inf")), (0.0, 1.0), (0.0, 1.0))),
    ("t_final", float("inf")),
    ("q", float("nan")),
    ("t_transient", -0.05),
    ("h_slow", 0.0),
    ("t_transient", 0.3),       # exceeds t_final = 0.1
    ("fast_ratio", 0.5),
    ("gamma", 1.0),
    ("n_clumps", -1),
    ("seed", -1),
    ("fast_ratio", float("inf")),   # the fixed phase would step by 0
    ("h_slow", float("nan")),
    ("rtol", -1e-5),
    ("atol", 0.0),                  # the momenta start at exactly 0
    ("atol", -1e-9),
    ("units", UnitSystem(mass=0.0)),
    ("units", UnitSystem(time=-1.0)),
    ("k1", -100.0),
    ("k2", -1.0),
])
def test_validate_rejects_bad_fields(field, value):
    with pytest.raises(ConfigError):
        replace(_tiny_cfg(), **{field: value}).validate()


# -------------------------------------------------------------------- plan

@pytest.mark.parametrize("n", [1, 2, 4, 6, 8, 10, 12])
def test_scaling_plan_rows(n):
    row = scaling_plan(n)
    assert row.nodes == 2 * n ** 3
    assert row.tasks == 80 * n ** 3
    assert row.shape == (125 * n, 100 * n, 100 * n)
    assert row.unknowns == 18_750_000 * n ** 3
    assert row.h_slow == Fraction(1, 10 * n)
    assert row.h_fast == Fraction(1, 10_000 * n)
    assert row.t_final == Fraction(1, n)
    assert row.t_transient == min(Fraction(1, 10), Fraction(1, n))
    assert row.slow_steps == 10


def test_scaling_plan_largest_row_exactly():
    row = scaling_plan(12)
    assert row.unknowns == 32_400_000_000
    assert row.tasks == 138_240
    assert row.shape == (1500, 1200, 1200)


def test_scaling_plan_rejects_nonpositive_multiplier():
    with pytest.raises(ConfigError):
        scaling_plan(0)


def test_plan_prints_the_row_as_a_config(tmp_path, capsys):
    # shape, t_final, t_transient, h_slow, fast_ratio of each row
    rows = {1: ((125, 100, 100), 1.0, 0.1, 0.1, 1000.0),
            2: ((250, 200, 200), 0.5, 0.1, 0.05, 1000.0),
            3: ((375, 300, 300), 0.3333333333333333, 0.1,
                0.03333333333333333, 1000.0)}
    for n, want in rows.items():
        assert main(["plan", "--n", str(n)]) == 0
        ini = tmp_path / f"row{n}.ini"
        ini.write_text(capsys.readouterr().out)
        cfg = load_config(str(ini))
        assert (cfg.shape, cfg.t_final, cfg.t_transient, cfg.h_slow,
                cfg.fast_ratio) == want


# ------------------------------------------------------------------- state

def test_build_state_layout_and_determinism():
    cfg = _tiny_cfg()
    grid = UniformGrid(cfg.shape, cfg.bounds)
    decomp = Decomposition(grid, 1, 0, (cfg.bc,) * 6)
    a = build_state(cfg, None, decomp, 1, True)
    assert a.batched_reductions
    assert not build_state(cfg, None, decomp, 1, False).batched_reductions
    assert a.global_length == 512 * (5 + N_SPECIES)
    assert a.arrays[5].shape == (8, 8, 8, N_SPECIES)
    for m in a.arrays[1:4]:
        assert np.all(m == 0.0)
    assert np.all(a.arrays[0] > 0.0)
    assert all(np.all(np.isfinite(x)) for x in a.arrays)
    # total energy duplicates rho * e_g at rest in code units
    np.testing.assert_allclose(a.arrays[4],
                               a.arrays[0] * a.arrays[5][..., IEG],
                               rtol=1e-12)
    b = build_state(cfg, None, decomp, 1, True)
    for x, y in zip(a.arrays, b.arrays):
        np.testing.assert_array_equal(x, y)


def _gather_worker(comm, cfg):
    grid = UniformGrid(cfg.shape, cfg.bounds)
    decomp = Decomposition(grid, comm.size, comm.rank, (cfg.bc,) * 6)
    state = build_state(cfg, comm, decomp, comm.size, True)
    fields = gather_state(comm, decomp, state)
    return None if fields is None else [f.copy() for f in fields]


def test_gather_state_reassembles_global_fields():
    # n_clumps pinned in the config, so 4 tasks build the same physics
    cfg = _tiny_cfg()
    results = run_spmd(4, _gather_worker, cfg)
    assert results[1] is None and results[3] is None
    grid = UniformGrid(cfg.shape, cfg.bounds)
    serial = Decomposition(grid, 1, 0, (cfg.bc,) * 6)
    want = build_state(cfg, None, serial, 1, True)
    got = results[0]
    assert len(got) == 6
    for g, w in zip(got, want.arrays):
        np.testing.assert_array_equal(g, w)


def _eref_worker(comm, cfg):
    grid = UniformGrid(cfg.shape, cfg.bounds)
    decomp = Decomposition(grid, comm.size, comm.rank, (cfg.bc,) * 6)
    state = build_state(cfg, comm, decomp, comm.size, True)
    return _global_mean_eg(comm, decomp, state)


def test_global_mean_eg_is_layout_independent():
    # the reaction network anchors theta on this mean, so it has to come
    # out bitwise equal no matter how the grid is split
    cfg = _tiny_cfg()
    by_tasks = []
    for n in (1, 2, 8):
        values = run_spmd(n, _eref_worker, cfg)
        assert all(v == values[0] for v in values)
        by_tasks.append(values[0])
    assert by_tasks[0] > 0.0
    assert by_tasks[0] == by_tasks[1] == by_tasks[2]


# ------------------------------------------------------------- profile csv

def _summary(transient=0.5, fixed=1.5, extra=()):
    p = Profile()
    p.seconds[Region.TRANSIENT] += transient
    p.seconds[Region.FIXED_STEP] += fixed
    for r, s in extra:
        p.seconds[r] += s
    return aggregate(None, p, n_slow_steps=10)


def test_profile_csv_round_trip(tmp_path):
    path = str(tmp_path / "prof.csv")
    s = _summary(extra=[(Region.EULER, 0.125), (Region.MPI, 1.0e-7)])
    write_profile_csv(path, s, "fused")
    tasks, mode, regions = read_profile_csv(path)
    assert (tasks, mode) == (1, "fused")
    assert set(regions) == {r.value for r in Region}
    assert regions["euler"] == (0.125, 0.125, 0.125)
    assert regions["mpi"][1] == 1.0e-7   # %.17g round-trips float64
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert tuple(header) == CSV_COLUMNS


def test_read_profile_csv_rejects_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(ConfigError, match="empty profile csv"):
        read_profile_csv(str(path))


def _report_inputs(tmp_path, times):
    """A profile CSV per (tasks, mode) key of `times`, whose value is the
    evolution seconds; -> the paths."""
    inputs = []
    for (tasks, mode), secs in times.items():
        p = Profile()
        p.seconds[Region.TRANSIENT] += 0.25 * secs
        p.seconds[Region.FIXED_STEP] += 0.75 * secs
        s = aggregate(None, p, 10)
        s.n_tasks = tasks
        path = str(tmp_path / f"{mode}-{tasks}.csv")
        write_profile_csv(path, s, mode)
        inputs.append(path)
    return inputs


def test_emit_report_recomputes_efficiency(tmp_path):
    times = {(80, "fused"): 1.0, (80, "unfused"): 1.01,
             (640, "fused"): 1.25, (640, "unfused"): 1.11}
    inputs = _report_inputs(tmp_path, times)
    out = str(tmp_path / "scaling.csv")
    plot = str(tmp_path / "plot_scaling.py")
    effs = emit_report(inputs, out, plot)
    # reference is the smallest fused run; efficiencies are ratios of
    # mean evolution time
    assert effs[0] == (80, "fused", 1.0)
    assert effs[1] == (80, "unfused", pytest.approx(1.0 / 1.01))
    assert effs[2] == (640, "fused", pytest.approx(0.8))
    assert effs[3] == (640, "unfused", pytest.approx(1.0 / 1.11))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 14
    eff640 = {r["efficiency"] for r in rows
              if r["tasks"] == "640" and r["mode"] == "fused"}
    assert eff640 == {"%.17g" % 0.8}
    with open(plot) as fh:
        src = fh.read()
    assert f"CUTOFF = {PLOT_FILTER_FRACTION}" in src
    compile(src, plot, "exec")


# --------------------------------------------------------------------- cli

def test_cli_plan_prints_ladder_row(capsys):
    assert main(["plan", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "tasks=640" in out
    assert "mesh=250x200x200" in out
    assert "unknowns=150000000" in out
    assert "h_slow=1/20" in out
    assert "slow_steps=10" in out


def test_python_dash_m_mrflow_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(mrflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                          "mrflow", "plan", "--n", "1"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "n=1" in run.stdout


def test_cli_run_smoke(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI)
    csv_path = str(tmp_path / "prof.csv")
    snap_path = str(tmp_path / "final.mv")
    rc = main(["run", "--config", str(ini), "--tasks", "1",
               "--csv", csv_path, "--snapshot", snap_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tasks=1 slow_steps=2 mode=fused" in out
    assert "time_per_slow_step=" in out
    tasks, mode, regions = read_profile_csv(csv_path)
    assert (tasks, mode) == (1, "fused")
    assert regions["total"][1] > 0.0
    arrays = read_snapshot(snap_path)
    assert [a.size for a in arrays] == [512] * 5 + [512 * N_SPECIES]
    assert all(np.all(np.isfinite(a)) for a in arrays)


@pytest.mark.parametrize("config, tasks", [("seed11-reacting.ini", "1"),
                                           ("seed11-stiff-sockets.ini", "2")])
def test_seed11_runs_never_fall_back(config, tasks, capsys):
    # every stage converges at its first Newton iteration, so each fused
    # fast step or interval stands after its one round
    ini = os.path.join(os.path.dirname(__file__), "..", "examples", config)
    assert main(["run", "--config", ini, "--tasks", tasks]) == 0
    assert " conv_failures=0 fallbacks=0\n" in capsys.readouterr().out


def test_cli_run_rejects_bad_task_count(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI)
    assert main(["run", "--config", str(ini), "--tasks", "0"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("transport", ["threads", "sockets"])
def test_cli_run_passes_no_deadline(tmp_path, monkeypatch, transport):
    seen = []
    name = "run_spmd_sockets" if transport == "sockets" else "run_spmd"
    real = getattr(harness, name)

    def runner(*args, **kw):
        seen.append(kw)
        return real(*args, **kw)
    monkeypatch.setattr(harness, name, runner)
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI)
    assert main(["run", "--config", str(ini), "--transport", transport]) == 0
    assert seen == [{"timeout": None}]


@pytest.mark.parametrize("transport", ["threads", "sockets"])
def test_cli_thin_layout_is_config_error(tmp_path, capsys, transport):
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI.replace("= 8\n", "= 4\n"))
    assert main(["run", "--config", str(ini), "--tasks", "2",
                 "--transport", transport]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "thinner than the 3-cell halo" in err


def test_cli_rejects_dirichlet_as_config_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI.replace("nz = 8\n", "nz = 8\nbc = dirichlet\n"))
    assert main(["run", "--config", str(ini), "--tasks", "1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dirichlet" in err


@pytest.mark.parametrize("key,value,message", [
    ("nx", "0", "grid shape must be positive"),
    ("x1", "0.0", "degenerate bounds"),
    ("bc", "slippery", "unknown boundary condition 'slippery'"),
], ids=["nx-0", "x1-0.0", "bc-slippery"])
def test_cli_rejects_bad_grid_as_config_error(tmp_path, capsys, key, value,
                                              message):
    grid = {"nx": "8", "ny": "8", "nz": "8", key: value}
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI.replace(
        "nx = 8\nny = 8\nnz = 8\n",
        "".join(f"{k} = {v}\n" for k, v in grid.items())))
    assert main(["run", "--config", str(ini), "--tasks", "1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_cli_rejects_unknown_key(tmp_path, capsys):
    # zero rates switch the chemistry off, and output paths are flags only
    ini = tmp_path / "run.ini"
    for text, name in (
            ("[grid]\nnx = 8\nnn = 8\n", "[grid]: nn"),
            (TINY_INI + "reactions = false\n", "[physics]: reactions"),
            (TINY_INI + "\n[output]\ncsv = prof.csv\n", "section [output]")):
        ini.write_text(text)
        assert main(["run", "--config", str(ini), "--tasks", "1"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and name in err, text


def test_readme_example_config_loads(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = fh.read().split("```")[1::2]
    ini = [b for b in blocks if b.lstrip("\n").startswith("[grid]")]
    assert len(ini) == 1
    path = tmp_path / "readme.ini"
    path.write_text(ini[0])
    cfg = load_config(str(path))
    assert (cfg.shape, cfg.n_clumps) == ((32, 32, 32), 20)


def test_cli_report_prints_efficiencies(tmp_path, capsys):
    inputs = _report_inputs(tmp_path, {(80, "fused"): 1.0, (640, "fused"): 1.25})
    out, plot = str(tmp_path / "scaling.csv"), str(tmp_path / "plot.py")
    assert main(["report", "--inputs", *inputs, "--out", out, "--plot", plot]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "tasks=80 mode=fused efficiency=1.00",
        "tasks=640 mode=fused efficiency=0.80",
        f"wrote {out} and {plot}"]


def test_cli_solver_error_exits_3(tmp_path, monkeypatch, capsys):
    def runner(*args, **kw):
        raise SolverError("step size underflow")
    monkeypatch.setattr(harness, "run_spmd", runner)
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI)
    assert main(["run", "--config", str(ini)]) == 3
    assert capsys.readouterr().err == "mrflow: solver error: step size underflow\n"


def test_cli_fast_state_of_the_wrong_shape_exits_3(tmp_path, monkeypatch,
                                                   capsys):
    # an engine for two fields given the three-row block the hooks lift
    monkeypatch.setattr(SurrogateNetwork, "FIELDS", ("H", "H2"))
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI)
    assert main(["run", "--config", str(ini)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("mrflow: solver error: transient phase, slow step 1")
    assert err.endswith(": z has shape (3, 8, 8, 8), expected (2,) + cell"
                        " shape\n")


def test_cli_report_missing_input_is_io_error(tmp_path, capsys):
    assert main(["report", "--inputs", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out.csv"),
                 "--plot", str(tmp_path / "plot.py")]) == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "a,b\n1,2\n",
    ",".join(CSV_COLUMNS) + "\n1,total,x,1,1,1,fused\n",
    ",".join(CSV_COLUMNS) + "\n1,total,1,1,1,1,fused\n",
], ids=["missing-column", "bad-value", "no-evolve-rows"])
def test_cli_report_malformed_csv_is_config_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["report", "--inputs", str(bad),
                 "--out", str(tmp_path / "out.csv"),
                 "--plot", str(tmp_path / "plot.py")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(bad) in err


def _energy_drift(tmp_path, rates):
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI + "seed = 11\n" + rates)
    snap = str(tmp_path / "final.mv")
    assert main(["run", "--config", str(ini), "--snapshot", snap]) == 0
    cfg = _tiny_cfg(seed=11)
    grid = UniformGrid(cfg.shape, cfg.bounds)
    initial = build_state(cfg, None, Decomposition(grid, 1, 0, (cfg.bc,) * 6),
                          1, True).arrays
    final = [a.reshape(x.shape) for a, x in zip(read_snapshot(snap), initial)]
    monitor = ConservationMonitor(1.0)
    return monitor.relative_drift(monitor.totals(initial),
                                  monitor.totals(final))["energy"]


def test_cli_zero_rates_conserve_energy(tmp_path):
    # with zero rates the chemistry hands back e_t exactly as it got it
    assert _energy_drift(tmp_path, "k1 = 0\nk2 = 0\nq = 0\n") == 0.0
    assert _energy_drift(tmp_path, "") > 1e-12


# ------------------------------------------------------------- determinism

def _strip_timing(info):
    info = dict(info)
    info.pop("summary", None)
    return info


def test_simulation_repeats_are_identical():
    cfg = _tiny_cfg()
    first = run_spmd(2, simulation_worker, cfg, 2, True)
    second = run_spmd(2, simulation_worker, cfg, 2, True)
    for a, b in zip(first, second):
        assert _strip_timing(a) == _strip_timing(b)
    assert first[0]["fast_stats"]["steps"] > 0
    assert first[0]["newton_stats"]["iterations"] > 0


@pytest.mark.parametrize("given, size", [(1, 2), (2, 1)])
def test_worker_rejects_a_task_count_other_than_the_group_size(given, size):
    with pytest.raises(ConfigError, match=rf"n_tasks is {given} but the"
                                          rf" group has {size} tasks"):
        run_spmd(size, simulation_worker, _tiny_cfg(), given, True)


# ------------------------------------------- the fast problem, by reference

class _WholeStateBookkeeping:
    """The reference hooks: the fast solver gets all fifteen fields, as
    one block written back into the state at the end, and only the gas
    energy is reconciled around it."""

    def prepare(self, state, forcing, t):
        sync_gas_energy(state)
        self.eg_entry = state.arrays[5][..., IEG].copy()
        return full_state_block(state), full_state_block(forcing)

    def finalize(self, state, forcing, fast, d_tau):
        store_full_state_block(state, fast)
        r_eg = forcing.arrays[5][..., IEG]
        heating = state.arrays[5][..., IEG] - (self.eg_entry + d_tau * r_eg)
        state.arrays[4] += state.arrays[0] * heating
        sync_gas_energy(state)


def _whole_state_problem(network):
    f, jacobian, names = network_on_full_state(network)
    newton = NewtonEngine(jacobian, names)
    return f, newton, _WholeStateBookkeeping()


def _one_fast_interval(comm, cfg, mode, reduced):
    """One slow step of a one-stage outer table: a single fast interval
    over the whole step, from the run's initial state."""
    decomp = Decomposition(UniformGrid(cfg.shape, cfg.bounds), 1, comm.rank,
                           (cfg.bc,) * 6)
    state = build_state(cfg, comm, decomp, 1, True)
    pipeline = EulerPipeline(comm, decomp, GasConstants.from_gamma(cfg.gamma),
                             N_SPECIES)
    network = SurrogateNetwork(cfg.k1, cfg.k2, cfg.q,
                               _global_mean_eg(comm, decomp, state))
    fast_f, newton, hooks = (harness.reaction_problem(network, Profile())
                             if reduced else _whole_state_problem(network))
    euler1 = ButcherTable("euler-1", a=((0.0,),), b=(1.0,), c=(0.0,), order=1)
    fast = FastSolve(sdirk4(), mode, h=cfg.h_slow / cfg.fast_ratio,
                     rtol=cfg.rtol, atol=cfg.atol)
    out = mri_step(MRICoupling(euler1), pipeline, fast_f, 0.0, cfg.h_slow,
                   state, fast, newton=newton, hooks=hooks)
    fields = out.arrays[:5] + list(np.moveaxis(out.arrays[5], -1, 0))
    return fields, newton.stats.iterations


@pytest.mark.parametrize("mode", ["adaptive", "fixed"])
def test_fast_problem_matches_the_whole_state_solve(mode):
    cfg = _tiny_cfg(seed=11)
    want, want_iters = run_spmd(1, _one_fast_interval, cfg, mode, False)[0]
    got, iters = run_spmd(1, _one_fast_interval, cfg, mode, True)[0]
    assert iters == want_iters > 0
    worst = 0.0
    for a, b in zip(want, got):
        scale = np.abs(a) + 1e-9 * float(np.max(np.abs(a))) + 1e-300
        worst = max(worst, float(np.sqrt(np.mean(((a - b) / scale) ** 2))))
    assert worst <= 1e-12
