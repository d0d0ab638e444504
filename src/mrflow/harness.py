"""Run configuration, the simulation driver, and the command line.

`mrflow run` executes one multiphysics run across an SPMD worker group
(threads by default, socket-paired processes on request), `mrflow plan`
prints the weak-scaling ladder row for a given multiplier as the config
that runs it, and `mrflow report` merges per-run profile CSVs into one
table with efficiencies plus a standalone plotting script.

Exit codes: 0 success, 2 configuration problems, 3 solver or worker
failures, 4 output I/O failures.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

import numpy as np

from .ark import SolverError, knoth_wolke_3, sdirk4
from .chemistry import (EnergyBookkeeping, IEG, N_SPECIES, SurrogateNetwork,
                        UnitSystem, clump_table, density_field,
                        nondimensionalize, species_init, temperature_field)
from .euler import EosDomainError, EulerPipeline, GasConstants
from .mesh import Decomposition, MeshError, PERIODIC, UniformGrid
from .mri import FastSolve, MRICoupling, evolve_two_phase
from .newton import LinearSolveError, NewtonEngine
from .profiling import Profile, REGIONS, Region, aggregate
from .transport import TransportError, run_spmd, run_spmd_sockets
from .vectors import ManyVector, ReductionLedger, write_snapshot

DEFAULT_SEED = 8675309
CSV_COLUMNS = ("tasks", "region", "min", "mean", "max", "efficiency", "mode")
PLOT_FILTER_FRACTION = 0.005


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    shape: tuple = (32, 32, 32)
    bounds: tuple = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    bc: str = PERIODIC
    t_final: float = 0.2
    t_transient: float = 0.1
    h_slow: float = 0.1
    fast_ratio: float = 1000.0
    rtol: float = 1e-5
    atol: float = 1e-9
    gamma: float = 5.0 / 3.0
    k1: float = 1.0e2
    k2: float = 1.0e4
    q: float = 1.0e-2
    seed: int = DEFAULT_SEED
    n_clumps: int = 0            # 0 means 10 * n_tasks
    units: UnitSystem = field(default_factory=UnitSystem)
    csv_path: str = ""
    snapshot_path: str = ""

    def validate(self):
        for section, keys in _CONFIG_KEYS.items():
            for key, where in keys.items():
                value = functools.reduce(_part, where, self)
                if isinstance(value, float) and not np.isfinite(value):
                    raise ConfigError(f"[{section}] {key} must be finite, got {value}")
        if self.h_slow <= 0.0:
            raise ConfigError("h_slow must be positive")
        if not (self.rtol >= 0.0 and self.atol > 0.0):
            raise ConfigError("need rtol >= 0 and atol > 0")
        if min(asdict(self.units).values()) <= 0.0:
            raise ConfigError(f"units must be positive, got {self.units}")
        if min(self.k1, self.k2) < 0.0:
            raise ConfigError("rate constants k1 and k2 cannot be negative")
        if not 0.0 <= self.t_transient <= self.t_final:
            raise ConfigError("need 0 <= t_transient <= t_final")
        if self.fast_ratio < 1.0:
            raise ConfigError("fast_ratio must be at least 1")
        if self.gamma <= 1.0:
            raise ConfigError("gamma must exceed 1")
        if self.seed < 0:
            raise ConfigError("seed cannot be negative")
        if self.n_clumps < 0:
            raise ConfigError("n_clumps cannot be negative")
        return self


# "[section] key" -> where its value goes in RunConfig: a field name,
# then an index into a tuple field or a UnitSystem field name
_CONFIG_KEYS = {
    "grid": dict(nx=("shape", 0), ny=("shape", 1), nz=("shape", 2),
                 x0=("bounds", 0, 0), x1=("bounds", 0, 1), y0=("bounds", 1, 0),
                 y1=("bounds", 1, 1), z0=("bounds", 2, 0), z1=("bounds", 2, 1),
                 bc=("bc",)),
    "time": {k: (k,) for k in ("t_final", "t_transient", "h_slow",
                               "fast_ratio", "rtol", "atol")},
    "physics": {k: (k,) for k in ("gamma", "k1", "k2", "q", "seed",
                                  "n_clumps")},
    "units": {k: ("units", k) for k in ("mass", "length", "time")},
}


def _part(obj, step):
    return obj[step] if isinstance(obj, tuple) else getattr(obj, step)


def _with(obj, where, value):
    """Copy of obj (a dataclass or tuple) with the part at `where` set."""
    step, *rest = where
    if rest:
        value = _with(_part(obj, step), rest, value)
    if isinstance(obj, tuple):
        return obj[:step] + (value,) + obj[step + 1:]
    return replace(obj, **{step: value})


def load_config(path: str) -> RunConfig:
    """Read an INI file; each value takes the type of its default."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    cfg = RunConfig()
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        keys = _CONFIG_KEYS[section]
        extra = set(cp[section]) - set(keys)
        if extra:
            raise ConfigError(
                f"unknown keys in [{section}]: {', '.join(sorted(extra))}")
        for key, raw in cp[section].items():
            default = functools.reduce(_part, keys[key], cfg)
            try:
                value = type(default)(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value in config {path}: {exc}") from exc
            cfg = _with(cfg, keys[key], value)
    return cfg.validate()


# ---------------------------------------------------------------------------
# weak-scaling plan

@dataclass(frozen=True)
class PlanRow:
    n: int
    nodes: int
    tasks: int
    shape: tuple
    unknowns: int
    h_slow: Fraction
    h_fast: Fraction
    t_final: Fraction
    t_transient: Fraction
    slow_steps: int


def scaling_plan(n: int) -> PlanRow:
    """Ladder row for multiplier n: resources and mesh grow with n^3
    while work per task stays constant; exact rational step sizes."""
    if n < 1:
        raise ConfigError("plan multiplier must be at least 1")
    shape = (125 * n, 100 * n, 100 * n)
    h_slow = Fraction(1, 10) / n
    t_final = Fraction(1, n)
    return PlanRow(
        n=n,
        nodes=2 * n ** 3,
        tasks=80 * n ** 3,
        shape=shape,
        unknowns=(5 + N_SPECIES) * shape[0] * shape[1] * shape[2],
        h_slow=h_slow,
        h_fast=h_slow / 1000,
        t_final=t_final,
        t_transient=min(Fraction(1, 10), t_final),
        slow_steps=int(t_final / h_slow),
    )


# ---------------------------------------------------------------------------
# the SPMD worker

def build_state(cfg: RunConfig, comm, decomp, n_tasks: int,
                fused: bool) -> ManyVector:
    grid = decomp.grid
    n_clumps = cfg.n_clumps if cfg.n_clumps else 10 * n_tasks
    clumps = clump_table(cfg.seed, n_clumps, grid)
    rho_cgs = density_field(grid, decomp.extents, clumps)
    temp = temperature_field(grid, decomp.extents)
    chem_cgs = species_init(rho_cgs, temp, cfg.gamma)
    zeros = [np.zeros(decomp.local_shape) for _ in range(3)]
    et_cgs = rho_cgs * chem_cgs[..., IEG]
    rho, m, et, chem = nondimensionalize(cfg.units, rho_cgs, zeros,
                                         et_cgs, chem_cgs)
    return ManyVector([rho, m[0], m[1], m[2], et, chem],
                      global_length=grid.n_cells * (5 + N_SPECIES),
                      comm=comm, batched_reductions=fused)


def _gather_field(comm, decomp, a, tag):
    """Assemble one local block into the global field array on task 0
    (None elsewhere)."""
    grid = decomp.grid
    if comm.rank != 0:
        comm.send(0, tag, np.ascontiguousarray(a).tobytes())
        return None
    tail = a.shape[3:]
    g = np.zeros(grid.shape + tail)
    (x0, x1), (y0, y1), (z0, z1) = decomp.extents
    g[x0:x1, y0:y1, z0:z1] = a
    for r in range(1, comm.size):
        other = Decomposition(grid, comm.size, r, decomp.bcs)
        (x0, x1), (y0, y1), (z0, z1) = other.extents
        shape = other.local_shape + tail
        blk = np.frombuffer(comm.recv(r, tag),
                            dtype=np.float64).reshape(shape)
        g[x0:x1, y0:y1, z0:z1] = blk
    return g


def gather_state(comm, decomp, state) -> list:
    """Assemble global field arrays on task 0 (None elsewhere)."""
    out = [_gather_field(comm, decomp, a, f"gather:{i}")
           for i, a in enumerate(state.arrays)]
    return out if comm.rank == 0 else None


def _global_mean_eg(comm, decomp, state) -> float:
    """Mean gas energy, summed over the assembled global field rather
    than task-local partials.  Summing per-task partials leaves the
    result dependent on the task layout by an ulp or so, and the
    network's ignition transient amplifies that spread far beyond
    roundoff within a single slow step."""
    eg = _gather_field(comm, decomp, state.arrays[5][..., IEG], "eref")
    mean = float(np.sum(eg)) / decomp.grid.n_cells if comm.rank == 0 else 0.0
    return comm.allreduce([mean], "sum")[0]


def reaction_problem(network: SurrogateNetwork, profile: Profile):
    """(fast_f, newton, hooks) for mri_step: the network on the fields the
    hooks lift out, at the density they give."""
    hooks = EnergyBookkeeping()

    def fast_f(t, v):
        with profile.region(Region.FAST_RHS):
            return ManyVector([network.rhs(hooks.density(t), v.arrays[0])],
                              v.global_length, v.comm, v.batched_reductions)

    newton = NewtonEngine(
        lambda t, v: network.jacobian_values(hooks.density(t), v.arrays[0]),
        network.FIELDS, profile=profile)
    return fast_f, newton, hooks


def simulation_worker(comm, cfg: RunConfig, n_tasks: int, fused: bool):
    """Everything one task does for `mrflow run`. Returns a picklable
    result dict; task 0 additionally writes the requested outputs.
    n_tasks must be the group's size."""
    if n_tasks != comm.size:
        raise ConfigError(f"task {comm.rank}: n_tasks is {n_tasks} but the"
                          f" group has {comm.size} tasks")
    ledger = ReductionLedger()
    comm.ledger = ledger
    profile = Profile()
    with profile.region(Region.TOTAL):
        with profile.region(Region.SETUP):
            grid = UniformGrid(cfg.shape, cfg.bounds)
            decomp = Decomposition(grid, n_tasks, comm.rank, (cfg.bc,) * 6)
            state = build_state(cfg, comm, decomp, n_tasks, fused)
            gas = GasConstants.from_gamma(cfg.gamma)
            pipeline = EulerPipeline(comm, decomp, gas, N_SPECIES,
                                     profile=profile)
            e_ref = _global_mean_eg(comm, decomp, state)
            network = SurrogateNetwork(cfg.k1, cfg.k2, cfg.q, e_ref)

            fast_f, newton, hooks = reaction_problem(network, profile)
            coupling = MRICoupling(knoth_wolke_3())
            fast = FastSolve(sdirk4(), h=cfg.h_slow / cfg.fast_ratio,
                             rtol=cfg.rtol, atol=cfg.atol)
        result = evolve_two_phase(
            coupling, pipeline, fast_f, state, 0.0, cfg.t_transient,
            cfg.t_final, cfg.h_slow, fast, newton=newton, hooks=hooks,
            profile=profile)
        state = result.state
    if cfg.snapshot_path:
        with profile.region(Region.IO):
            fields = gather_state(comm, decomp, state)
            if comm.rank == 0:
                write_snapshot(cfg.snapshot_path,
                               [f.ravel() for f in fields])
    summary = aggregate(comm, profile, result.n_slow_steps)
    sums = comm.allreduce([float(np.sum(a)) for a in state.arrays], "sum")
    info = {
        "n_slow_steps": result.n_slow_steps,
        "fast_stats": asdict(result.fast_stats),
        "newton_stats": asdict(newton.stats),
        "reduction_rounds": ledger.global_reduction_count,
        "counters": comm.counters.snapshot(),
        "field_sums": [float(s) for s in sums],
    }
    if comm.rank == 0:
        info["summary"] = summary
        mode = "fused" if fused else "unfused"
        if cfg.csv_path:
            write_profile_csv(cfg.csv_path, summary, mode)
    return info


# ---------------------------------------------------------------------------
# profile CSV and the scaling report

def _fmt(x: float) -> str:
    return "%.17g" % x


def write_profile_csv(path: str, summary, mode: str):
    """One run's region table, with efficiency 1 (see emit_report)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in REGIONS:
            s = summary.stats[r]
            w.writerow([summary.n_tasks, r.value, _fmt(s.minimum),
                        _fmt(s.mean), _fmt(s.maximum), _fmt(1.0), mode])


def read_profile_csv(path: str):
    """-> (tasks, mode, {region name: (min, mean, max)})."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"empty profile csv {path}")
    try:
        tasks = int(rows[0]["tasks"])
        mode = rows[0]["mode"]
        regions = {r["region"]: (float(r["min"]), float(r["mean"]),
                                 float(r["max"])) for r in rows}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed profile csv {path}: {exc!r}") from exc
    missing = {Region.TRANSIENT.value, Region.FIXED_STEP.value} - set(regions)
    if missing:
        raise ConfigError(f"profile csv {path} has no {sorted(missing)} rows")
    return tasks, mode, regions


def _evolve_mean(regions: dict) -> float:
    return regions[Region.TRANSIENT.value][1] + regions[Region.FIXED_STEP.value][1]


def emit_report(inputs, out_csv: str, plot_path: str):
    """Merge per-run CSVs, recompute weak-scaling efficiencies against
    the smallest fused run, and emit a plotting script next to the data."""
    runs = sorted((read_profile_csv(p) for p in inputs),
                  key=lambda r: (r[0], r[1]))
    fused = [r for r in runs if r[1] == "fused"]
    reference = fused[0] if fused else runs[0]
    ref_time = _evolve_mean(reference[2])
    effs = []
    with open(out_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for tasks, mode, regions in runs:
            evolve = _evolve_mean(regions)
            eff = ref_time / evolve if evolve > 0.0 else 1.0
            effs.append((tasks, mode, eff))
            for name, (mn, mean, mx) in regions.items():
                w.writerow([tasks, name, _fmt(mn), _fmt(mean), _fmt(mx),
                            _fmt(eff), mode])
    with open(plot_path, "w") as fh:
        fh.write(_PLOT_SCRIPT.format(csv_name=os.path.basename(out_csv),
                                     cutoff=PLOT_FILTER_FRACTION))
    return effs


_PLOT_SCRIPT = '''\
#!/usr/bin/env python3
"""Plot region times and weak-scaling efficiency from {csv_name}.

Regions contributing less than {cutoff:.1%} of a run's total time are
dropped from the breakdown so the legend stays readable.
"""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

CUTOFF = {cutoff}

rows = list(csv.DictReader(open("{csv_name}")))
by_run = defaultdict(dict)
eff = {{}}
for r in rows:
    key = (int(r["tasks"]), r["mode"])
    by_run[key][r["region"]] = float(r["mean"])
    eff[key] = float(r["efficiency"])

fused = sorted(k for k in by_run if k[1] == "fused")
regions = []
for key in fused:
    total = by_run[key].get("total") or sum(by_run[key].values())
    for name, secs in by_run[key].items():
        if name != "total" and secs >= CUTOFF * total and name not in regions:
            regions.append(name)

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4.5))
xs = range(len(fused))
bottom = [0.0] * len(fused)
for name in regions:
    heights = [by_run[k].get(name, 0.0) for k in fused]
    ax1.bar(xs, heights, bottom=bottom, label=name)
    bottom = [b + h for b, h in zip(bottom, heights)]
ax1.set_xticks(list(xs), [str(k[0]) for k in fused])
ax1.set_xlabel("tasks")
ax1.set_ylabel("mean region seconds")
ax1.legend(fontsize=8)

for mode, marker in (("fused", "o"), ("unfused", "s")):
    pts = sorted((t, e) for (t, m), e in eff.items() if m == mode)
    if pts:
        ax2.plot([p[0] for p in pts], [p[1] for p in pts],
                 marker=marker, label=mode)
ax2.set_xscale("log")
ax2.set_ylim(0.0, 1.05)
ax2.set_xlabel("tasks")
ax2.set_ylabel("efficiency vs smallest fused run")
ax2.legend()
fig.tight_layout()
fig.savefig("scaling.png", dpi=150)
print("wrote scaling.png")
'''


# ---------------------------------------------------------------------------
# command line

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.csv:
        cfg = replace(cfg, csv_path=args.csv)
    if args.snapshot:
        cfg = replace(cfg, snapshot_path=args.snapshot)
    n_tasks = args.tasks
    # mesh rejects a bad grid, bc or layout before any worker starts
    Decomposition(UniformGrid(cfg.shape, cfg.bounds), n_tasks, 0, (cfg.bc,) * 6)
    runner = run_spmd_sockets if args.transport == "sockets" else run_spmd
    results = runner(n_tasks, simulation_worker, cfg, n_tasks,
                     not args.unfused, timeout=None)
    root = results[0]
    summary = root["summary"]
    print(f"tasks={n_tasks} slow_steps={root['n_slow_steps']} "
          f"mode={'unfused' if args.unfused else 'fused'}")
    print(f"time_per_slow_step={summary.time_per_slow_step():.6g}s "
          f"reduction_rounds={root['reduction_rounds']}")
    fs = root["fast_stats"]
    print(f"fast_steps={fs['steps']} accepted={fs['accepted']} "
          f"rejected={fs['rejected']} conv_failures={fs['conv_failures']} "
          f"fallbacks={fs['fallbacks']}")
    if cfg.csv_path:
        print(f"profile_csv={cfg.csv_path}")
    if cfg.snapshot_path:
        print(f"snapshot={cfg.snapshot_path}")
    return 0


def _cmd_plan(args) -> int:
    """The row as two comment lines, then as the config that runs it."""
    row = scaling_plan(args.n)
    nx, ny, nz = row.shape
    print(f"# n={row.n} nodes={row.nodes} tasks={row.tasks} "
          f"mesh={nx}x{ny}x{nz} unknowns={row.unknowns}")
    print(f"# h_slow={row.h_slow} h_fast={row.h_fast} t_final={row.t_final} "
          f"t_transient={row.t_transient} slow_steps={row.slow_steps}")
    print(f"[grid]\nnx = {nx}\nny = {ny}\nnz = {nz}\n[time]")
    for key in ("t_final", "t_transient", "h_slow"):
        print(f"{key} = {float(getattr(row, key))!r}")
    print(f"fast_ratio = {float(row.h_slow / row.h_fast)!r}")
    return 0


def _cmd_report(args) -> int:
    effs = emit_report(args.inputs, args.out, args.plot)
    for tasks, mode, eff in effs:
        print(f"tasks={tasks} mode={mode} efficiency={eff:.2f}")
    print(f"wrote {args.out} and {args.plot}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrflow",
        description="Multirate reactive-flow solver on block-decomposed grids")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("--config", required=True, help="INI config file")
    run_p.add_argument("--tasks", type=int, default=1,
                       help="worker count (default: 1)")
    run_p.add_argument("--unfused", action="store_true",
                       help="binary vector kernels and one reduction per slot")
    run_p.add_argument("--csv", default="", help="write profile CSV here")
    run_p.add_argument("--snapshot", default="", help="write final state here")
    run_p.add_argument("--transport", choices=("threads", "sockets"),
                       default="threads")
    run_p.set_defaults(func=_cmd_run)

    plan_p = sub.add_parser("plan", help="print a weak-scaling ladder row"
                            " as a run config")
    plan_p.add_argument("--n", type=int, required=True)
    plan_p.set_defaults(func=_cmd_plan)

    rep_p = sub.add_parser("report", help="merge run CSVs into one table")
    rep_p.add_argument("--inputs", nargs="+", required=True)
    rep_p.add_argument("--out", default="scaling.csv")
    rep_p.add_argument("--plot", default="plot_scaling.py")
    rep_p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MeshError) as exc:
        print(f"mrflow: config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, TransportError, LinearSolveError,
            EosDomainError) as exc:
        print(f"mrflow: solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"mrflow: i/o error: {exc}", file=sys.stderr)
        return 4
