"""Config parsing, the weak-scaling ladder, state assembly and gather,
profile CSV plumbing, the report pipeline, and the command line."""

import csv
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mrflow.chemistry import IEG, N_SPECIES
from mrflow.harness import (CSV_COLUMNS, PLOT_FILTER_FRACTION, ConfigError,
                            RunConfig, _global_mean_eg, apply_plan,
                            build_state, emit_report, gather_state,
                            load_config, main, read_profile_csv,
                            scaling_plan, simulation_worker,
                            write_profile_csv)
from mrflow.mesh import Decomposition, UniformGrid
from mrflow.profiling import Profile, Region, aggregate
from mrflow.transport import run_spmd
from mrflow.vectors import read_snapshot

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
reactions = false
k1 = 5.0
k2 = 7.0
q = 0.5
seed = 42
n_clumps = 3

[units]
mass = 1e30
length = 1e10
time = 1e5

[output]
csv = prof.csv
snapshot = snap.bin
""")
    cfg = load_config(str(path))
    assert cfg.shape == (16, 12, 8)
    assert cfg.bounds[0] == (-1.0, 3.0)
    assert cfg.bounds[1] == (0.0, 1.0)
    assert (cfg.t_final, cfg.t_transient, cfg.h_slow) == (0.4, 0.1, 0.02)
    assert (cfg.rtol, cfg.atol) == (1e-6, 1e-10)
    assert cfg.gamma == 1.4
    assert cfg.reactions is False
    assert (cfg.k1, cfg.k2, cfg.q) == (5.0, 7.0, 0.5)
    assert (cfg.seed, cfg.n_clumps) == (42, 3)
    assert (cfg.units.mass, cfg.units.length, cfg.units.time) == \
        (1e30, 1e10, 1e5)
    assert (cfg.csv_path, cfg.snapshot_path) == ("prof.csv", "snap.bin")


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


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.ini")


@pytest.mark.parametrize("field,value", [
    ("shape", (0, 8, 8)),
    ("bounds", ((0.0, 0.0), (0.0, 1.0), (0.0, 1.0))),
    ("bc", "slippery"),
    ("bc", "dirichlet"),        # negated et in the ghosts fails the EOS
    ("h_slow", 0.0),
    ("t_transient", 0.3),       # exceeds t_final = 0.1
    ("fast_ratio", 0.5),
    ("gamma", 1.0),
    ("n_clumps", -1),
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


def test_apply_plan_overrides_mesh_and_stepping():
    cfg = apply_plan(_tiny_cfg(), scaling_plan(1))
    assert cfg.shape == (125, 100, 100)
    assert cfg.h_slow == 0.1
    assert cfg.t_final == 1.0
    assert cfg.t_transient == 0.1
    assert cfg.fast_ratio == 1000.0


# ------------------------------------------------------------------- state

def test_build_state_layout_and_determinism():
    cfg = _tiny_cfg()
    grid = UniformGrid(cfg.shape, cfg.bounds)
    decomp = Decomposition(grid, 1, 0, (cfg.bc,) * 6)
    a = build_state(cfg, None, decomp, 1, True)
    assert a.batched_reductions
    assert not build_state(cfg, None, decomp, 1, False).batched_reductions
    assert a.global_lengths == [512] * 5 + [512 * N_SPECIES]
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
    p.add(Region.TRANSIENT, transient)
    p.add(Region.FIXED_STEP, fixed)
    for r, s in extra:
        p.add(r, s)
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


def test_emit_report_recomputes_efficiency(tmp_path):
    times = {(80, "fused"): 1.0, (80, "unfused"): 1.01,
             (640, "fused"): 1.25, (640, "unfused"): 1.11}
    inputs = []
    for (tasks, mode), secs in times.items():
        p = Profile()
        p.add(Region.TRANSIENT, 0.25 * secs)
        p.add(Region.FIXED_STEP, 0.75 * secs)
        s = aggregate(None, p, 10)
        s.n_tasks = tasks
        path = str(tmp_path / f"{mode}-{tasks}.csv")
        write_profile_csv(path, s, mode)
        inputs.append(path)
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


def test_cli_run_rejects_bad_task_count(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI)
    assert main(["run", "--config", str(ini), "--tasks", "0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_dirichlet_as_config_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI.replace("nz = 8\n", "nz = 8\nbc = dirichlet\n"))
    assert main(["run", "--config", str(ini), "--tasks", "1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dirichlet" in err


def test_cli_rejects_unknown_key(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[grid]\nnx = 8\nnn = 8\n")
    assert main(["run", "--config", str(ini), "--tasks", "1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_report_missing_input_is_io_error(tmp_path, capsys):
    assert main(["report", "--inputs", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out.csv"),
                 "--plot", str(tmp_path / "plot.py")]) == 4
    assert "i/o error" in capsys.readouterr().err


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
