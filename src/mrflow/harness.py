"""Run configuration, the simulation driver, and the command line.

`mrflow run` executes one multiphysics run across an SPMD worker group
(threads by default, socket-paired processes on request), `mrflow plan`
prints the weak-scaling ladder row for a given multiplier, and `mrflow
report` merges per-run profile CSVs into one table with efficiencies
plus a standalone plotting script.

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

from .ark import IntegrationStats, SolverError, sdirk4
from .ark import knoth_wolke_3
from .chemistry import (EnergyBookkeeping, IEG, N_SPECIES, SurrogateNetwork,
                        UnitSystem, clump_table, density_field,
                        nondimensionalize, species_init, temperature_field)
from .euler import EosDomainError, EulerPipeline, GasConstants
from .mesh import BC_KINDS, Decomposition, MeshError, PERIODIC, UniformGrid
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
    reactions: bool = True
    k1: float = 1.0e2
    k2: float = 1.0e4
    q: float = 1.0e-2
    seed: int = DEFAULT_SEED
    n_clumps: int = 0            # 0 means 10 * n_tasks
    units: UnitSystem = field(default_factory=UnitSystem)
    csv_path: str = ""
    snapshot_path: str = ""

    def validate(self):
        if any(n < 1 for n in self.shape):
            raise ConfigError(f"grid shape must be positive, got {self.shape}")
        if any(hi <= lo for lo, hi in self.bounds):
            raise ConfigError(f"empty domain bounds {self.bounds}")
        if self.bc not in BC_KINDS:
            raise ConfigError(f"unknown boundary kind {self.bc!r}")
        if self.h_slow <= 0.0:
            raise ConfigError("h_slow must be positive")
        if not 0.0 <= self.t_transient <= self.t_final:
            raise ConfigError("need 0 <= t_transient <= t_final")
        if self.fast_ratio < 1.0:
            raise ConfigError("fast_ratio must be at least 1")
        if self.gamma <= 1.0:
            raise ConfigError("gamma must exceed 1")
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
    "physics": {k: (k,) for k in ("gamma", "reactions", "k1", "k2", "q",
                                  "seed", "n_clumps")},
    "units": {k: ("units", k) for k in ("mass", "length", "time")},
    "output": {"csv": ("csv_path",), "snapshot": ("snapshot_path",)},
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
                value = (cp.getboolean(section, key)
                         if isinstance(default, bool) else type(default)(raw))
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


def apply_plan(cfg: RunConfig, row: PlanRow) -> RunConfig:
    return replace(cfg, shape=row.shape,
                   t_final=float(row.t_final),
                   t_transient=float(row.t_transient),
                   h_slow=float(row.h_slow),
                   fast_ratio=1000.0).validate()


# ---------------------------------------------------------------------------
# the SPMD worker

class ReactionRhs:
    """Fast right-hand side: the network over local cells, fluid rows zero."""

    def __init__(self, network: SurrogateNetwork, profile):
        self.network = network
        self.profile = profile

    def __call__(self, t, v):
        with self.profile.region(Region.FAST_RHS):
            out = v.clone_empty()
            out.fill(0.0)
            out.arrays[5][:] = self.network.rhs(v.arrays[0], v.arrays[5])
        return out


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
    n_cells = grid.n_cells
    return ManyVector(
        [rho, m[0], m[1], m[2], et, chem],
        global_lengths=[n_cells] * 5 + [n_cells * N_SPECIES],
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


def simulation_worker(comm, cfg: RunConfig, n_tasks: int, fused: bool):
    """Everything one task does for `mrflow run`. Returns a picklable
    result dict; task 0 additionally writes the requested outputs."""
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
            if cfg.reactions:
                network = SurrogateNetwork(cfg.k1, cfg.k2, cfg.q, e_ref)
            else:
                network = SurrogateNetwork(0.0, 0.0, 0.0, e_ref)
            fast_f = ReactionRhs(network, profile)
            newton = NewtonEngine(
                lambda t, v: network.jacobian_values(v.arrays[0], v.arrays[5]),
                network.PATTERN, nb=5 + N_SPECIES,
                n_cells=int(np.prod(decomp.local_shape)), profile=profile)
            hooks = EnergyBookkeeping()
            coupling = MRICoupling(knoth_wolke_3())
            h_fast = cfg.h_slow / cfg.fast_ratio
            fast_transient = FastSolve(sdirk4(), "adaptive", h_max=h_fast,
                                       rtol=cfg.rtol, atol=cfg.atol)
            fast_fixed = FastSolve(sdirk4(), "fixed", h_fixed=h_fast,
                                   rtol=cfg.rtol, atol=cfg.atol)
        result = evolve_two_phase(
            coupling, pipeline, fast_f, state, 0.0, cfg.t_transient,
            cfg.t_final, cfg.h_slow, fast_transient, fast_fixed,
            newton=newton, hooks=hooks, profile=profile)
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
        "rank": comm.rank,
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
    tasks = int(rows[0]["tasks"])
    mode = rows[0]["mode"]
    regions = {r["region"]: (float(r["min"]), float(r["mean"]), float(r["max"]))
               for r in rows}
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
    if args.plan is not None:
        cfg = apply_plan(cfg, scaling_plan(args.plan))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.csv:
        cfg = replace(cfg, csv_path=args.csv)
    if args.snapshot:
        cfg = replace(cfg, snapshot_path=args.snapshot)
    n_tasks = args.tasks
    if n_tasks is None:
        n_tasks = int(os.environ.get("MRFLOW_TASKS", "1"))
    if n_tasks < 1:
        raise ConfigError(f"task count must be positive, got {n_tasks}")
    runner = run_spmd_sockets if args.transport == "sockets" else run_spmd
    results = runner(n_tasks, simulation_worker, cfg, n_tasks,
                     not args.unfused)
    root = results[0]
    summary = root["summary"]
    print(f"tasks={n_tasks} slow_steps={root['n_slow_steps']} "
          f"mode={'unfused' if args.unfused else 'fused'}")
    print(f"time_per_slow_step={summary.time_per_slow_step():.6g}s "
          f"reduction_rounds={root['reduction_rounds']}")
    fs = root["fast_stats"]
    print(f"fast_steps={fs['steps']} accepted={fs['accepted']} "
          f"rejected={fs['rejected']} conv_failures={fs['conv_failures']}")
    if cfg.csv_path:
        print(f"profile_csv={cfg.csv_path}")
    if cfg.snapshot_path:
        print(f"snapshot={cfg.snapshot_path}")
    return 0


def _cmd_plan(args) -> int:
    row = scaling_plan(args.n)
    print(f"n={row.n} nodes={row.nodes} tasks={row.tasks} "
          f"mesh={row.shape[0]}x{row.shape[1]}x{row.shape[2]} "
          f"unknowns={row.unknowns}")
    print(f"h_slow={row.h_slow} h_fast={row.h_fast} t_final={row.t_final} "
          f"t_transient={row.t_transient} slow_steps={row.slow_steps}")
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
    run_p.add_argument("--tasks", type=int, default=None,
                       help="worker count (default: $MRFLOW_TASKS or 1)")
    run_p.add_argument("--unfused", action="store_true",
                       help="binary vector kernels and one reduction per slot")
    run_p.add_argument("--plan", type=int, default=None, metavar="N",
                       help="override grid/stepping from the scaling ladder")
    run_p.add_argument("--csv", default="", help="write profile CSV here")
    run_p.add_argument("--snapshot", default="", help="write final state here")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--transport", choices=("threads", "sockets"),
                       default="threads")
    run_p.set_defaults(func=_cmd_run)

    plan_p = sub.add_parser("plan", help="print a weak-scaling ladder row")
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


if __name__ == "__main__":
    sys.exit(main())
