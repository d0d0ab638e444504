"""The benchmark's workloads and the measurement of one run.

Every workload runs through mrflow's public API with a fixed
configuration; only the seed of the clumpy initial condition comes from
the command line. A run returns a `RunRecord`: its end-to-end timings,
its exact counts, the outcome of its correctness checks and, when the
layers were traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import resource
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from mrflow import (ark, chemistry, euler, harness, mesh, mri, profiling,
                    transport, vectors)
from mrflow.newton import NewtonStats
from mrflow.testsuite import ConservationMonitor

import spans as sp

EVOLVE = "clock.evolve"     # harness.evolve_two_phase, rank 0
STEP = "clock.step"         # one slow step, tagged with its fast-solve mode
HYDRO_CFL = 0.3
DRIFT_BOUND = 1e-12         # criterion 02
WRMS_BOUND = 1e-12          # criterion 10
SOCKET_TIMEOUT = 60.0       # a run takes seconds; the result must come in 180
MOMENTA = ("momentum_x", "momentum_y", "momentum_z")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                # RunConfig fields besides the seed
    n_tasks: int = 1
    sockets: bool = False
    hydro_steps: int = 0        # > 0: explicit flow only, this many steps
    drift_keys: tuple = ("mass",) + MOMENTA + ("hydrogen",)
    compare_one_task: bool = False

    def run_config(self, seed: int) -> harness.RunConfig:
        return harness.RunConfig(seed=seed, n_clumps=10,
                                 **self.config).validate()


# why each workload is here: perfbench/README.md
WORKLOADS = {
    w.name: w for w in (
        Workload("hydro", dict(shape=(32, 32, 32)), hydro_steps=3,
                 drift_keys=("mass",) + MOMENTA + ("energy", "hydrogen")),
        Workload("reacting", dict(shape=(16, 16, 16), h_slow=0.05,
                                  t_transient=0.1, t_final=0.2,
                                  fast_ratio=10.0)),
        Workload("stiff-sockets", dict(shape=(16, 8, 8), h_slow=0.05,
                                       t_transient=0.05, t_final=0.1,
                                       fast_ratio=100.0),
                 n_tasks=2, sockets=True, compare_one_task=True),
    )
}


@dataclass
class RunRecord:
    setup_s: float
    peak_rss_mb: float
    run_s: float = 0.0
    step_s: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)   # name -> (value, bound)
    layers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(value <= bound for value, bound in self.checks.values())


@dataclass
class Reference:
    """Untimed data computed once per invocation."""
    initial_totals: dict
    cell_volume: float
    one_task_fields: list = None


# ---------------------------------------------------------------------------
# hooks

# span names the per-layer metrics read; trace_layers must produce them all
LAYER_SPANS = {
    "solve": ("newton.NewtonEngine.solve",),
    "rhs": ("chemistry.SurrogateNetwork.rhs",),
    "jac": ("chemistry.SurrogateNetwork.jacobian_values",),
    "bookkeeping": ("chemistry.EnergyBookkeeping.prepare",
                    "chemistry.EnergyBookkeeping.finalize"),
    "euler": ("euler.EulerPipeline.__call__",),
    "halo_begin": ("mesh.HaloExchanger.begin",),
    "halo_finish": ("mesh.ExchangeHandle.finish",),
    "reduce": ("transport.Communicator.allreduce",
               "transport.Communicator.allgather"),
    "recv": ("transport.Communicator.recv",),
    "lincomb": ("vectors.fused_linear_combination",),
    "norm": ("vectors.wrms_norm", "vectors.error_weights"),
    "step": ("ark.dirk_step", "ark.erk_step"),
    "forcing": ("mri.mri_forcing",),
    "build_state": ("harness.build_state",),
}


@contextlib.contextmanager
def hooks(recorder: sp.Recorder, traced: bool):
    """Step clocks always; span wrappers on every layer when traced.

    The clocks sit outermost so a traced run's timings include the
    tracing cost, which is how the overhead is measured.
    """
    try:
        if traced:
            names = set(recorder.trace_layers())
            missing = [n for group in LAYER_SPANS.values() for n in group
                       if n not in names]
            if missing:
                raise RuntimeError(f"no public callable named {missing}")
        for fn, name, tag, keep in (
                (harness.evolve_two_phase, EVOLVE, None, True),
                (mri.mri_step, STEP, lambda args: args[6].mode, False),
                # hydro has no fast solver: each explicit step counts
                (ark.erk_step, STEP, lambda args: "fixed", False)):
            if not recorder.patch_everywhere(fn, recorder.wrap(fn, name, tag, keep)):
                raise RuntimeError(f"{name}: no binding to hook")
        yield
    finally:
        recorder.restore()


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _grid(cfg):
    return mesh.UniformGrid(cfg.shape, cfg.bounds)


def _decomp(cfg, n_tasks, rank):
    return mesh.Decomposition(_grid(cfg), n_tasks, rank, (cfg.bc,) * 6)


# ---------------------------------------------------------------------------
# rank bodies

def _multirate_rank(recorder, n_tasks, gather, comm, cfg):
    info = harness.simulation_worker(comm, cfg, n_tasks, True)
    spans, kept = recorder.take()
    fields = None
    if gather:
        fields = harness.gather_state(comm, _decomp(cfg, n_tasks, comm.rank),
                                      kept[EVOLVE].state)
    return dict(info=info, spans=spans, fields=fields, rss_mb=_maxrss_mb())


def _hydro_rank(recorder, n_steps, gather, comm, cfg):
    ledger = vectors.ReductionLedger()
    comm.ledger = ledger
    profile = profiling.Profile()
    decomp = _decomp(cfg, 1, comm.rank)
    grid = decomp.grid
    state = harness.build_state(cfg, comm, decomp, 1, True)
    gas = euler.GasConstants.from_gamma(cfg.gamma)
    pipeline = euler.EulerPipeline(comm, decomp, gas, chemistry.N_SPECIES,
                                   profile=profile)
    h = comm.allreduce([euler.cfl_time_step(gas, state, grid.spacing,
                                            cfl=HYDRO_CFL)], "min")[0]
    t_ready = time.perf_counter()
    state, stats = ark.fixed_evolve(pipeline, state, 0.0, n_steps * h, h,
                                    ark.knoth_wolke_3())
    t_done = time.perf_counter()
    summary = profiling.aggregate(comm, profile, stats.steps)
    info = dict(n_slow_steps=stats.steps, summary=summary,
                fast_stats=asdict(ark.IntegrationStats()),
                newton_stats=asdict(NewtonStats()),
                reduction_rounds=ledger.global_reduction_count,
                counters=comm.counters.snapshot(),
                t_ready=t_ready, t_done=t_done)
    spans, _ = recorder.take()
    fields = harness.gather_state(comm, decomp, state) if gather else None
    return dict(info=info, spans=spans, fields=fields, rss_mb=_maxrss_mb())


def _launch(workload, recorder, cfg, gather):
    """Run every rank; -> (time of the call, per-rank results)."""
    if workload.hydro_steps:
        steps = workload.hydro_steps if gather else 0
        body = functools.partial(_hydro_rank, recorder, steps, gather)
    else:
        body = functools.partial(_multirate_rank, recorder, workload.n_tasks,
                                 gather)
    t_call = time.perf_counter()
    if not workload.sockets:
        return t_call, transport.run_spmd(workload.n_tasks, body, cfg)
    try:
        return t_call, transport.run_spmd_sockets(
            workload.n_tasks, body, cfg, timeout=SOCKET_TIMEOUT)
    finally:
        # a worker that died hard is not reaped by the runner
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=10)


def _evolution(workload, rank0):
    """(start of the first slow step, end of the last) on rank 0."""
    if workload.hydro_steps:
        return rank0["info"]["t_ready"], rank0["info"]["t_done"]
    evolve = next(s for s in rank0["spans"] if s[sp.NAME] == EVOLVE)
    return evolve[sp.START], evolve[sp.END]


def _peak_rss(workload, ranks):
    children = sum(r["rss_mb"] for r in ranks) if workload.sockets else 0.0
    return _maxrss_mb() + children


# ---------------------------------------------------------------------------
# one run

def prepare(workload, cfg, recorder) -> Reference:
    """Initial invariants and, where asked, the 1-task final state."""
    decomp = _decomp(cfg, 1, 0)
    initial = harness.build_state(cfg, None, decomp, 1, True)
    volume = float(np.prod(decomp.grid.spacing))
    ref = Reference(ConservationMonitor(volume).totals(initial.arrays), volume)
    if workload.compare_one_task:
        with hooks(recorder, traced=False):
            ranks = transport.run_spmd(
                1, functools.partial(_multirate_rank, recorder, 1, True), cfg)
        ref.one_task_fields = ranks[0]["fields"]
    return ref


def setup_only(workload, cfg, recorder) -> RunRecord:
    """Set-up without evolution: start of the call to the first step."""
    if not workload.hydro_steps:
        cfg = replace(cfg, t_final=0.0, t_transient=0.0)
    with hooks(recorder, traced=False):
        t_call, ranks = _launch(workload, recorder, cfg, gather=False)
    return RunRecord(setup_s=_evolution(workload, ranks[0])[0] - t_call,
                     peak_rss_mb=_peak_rss(workload, ranks))


def full_run(workload, cfg, recorder, ref: Reference, traced: bool) -> RunRecord:
    with hooks(recorder, traced):
        t_call, ranks = _launch(workload, recorder, cfg, gather=True)
    rank0 = ranks[0]
    info = rank0["info"]
    spans0 = rank0["spans"]
    start, end = _evolution(workload, rank0)
    n_slow = info["n_slow_steps"]
    counters = [r["info"]["counters"] for r in ranks]
    rec = RunRecord(
        setup_s=start - t_call, peak_rss_mb=_peak_rss(workload, ranks),
        run_s=end - start,
        step_s=[s[sp.END] - s[sp.START] for s in spans0
                if s[sp.NAME] == STEP and s[sp.TAG] == "fixed"],
        counts={
            "newton.iters": info["newton_stats"]["iterations"],
            "ark.fast_steps": info["fast_stats"]["steps"],
            "transport.rounds_per_step": info["reduction_rounds"] / n_slow,
            "transport.msgs_per_step": sum(c[0] for c in counters) / n_slow,
            "transport.bytes_per_step": sum(c[2] for c in counters) / n_slow,
        })
    rec.checks = check(workload, rank0["fields"], ref)
    if traced:
        rec.layers = layer_metrics(workload, cfg, ranks, rec.counts)
    return rec


def check(workload, fields, ref: Reference) -> dict:
    """name -> (measured, bound); a run passes when every value is within."""
    finite = all(bool(np.all(np.isfinite(f))) for f in fields)
    out = {"nonfinite_fields": (0.0 if finite else 1.0, 0.0)}
    if not finite:
        return out
    totals = ConservationMonitor(ref.cell_volume).totals(fields)
    drift = ConservationMonitor.relative_drift(ref.initial_totals, totals)
    for key in workload.drift_keys:
        out[f"drift.{key}"] = (drift[key], DRIFT_BOUND)
    if ref.one_task_fields is not None:
        worst = 0.0
        for a, b in zip(ref.one_task_fields, fields):
            scale = np.abs(a) + 1e-9 * float(np.max(np.abs(a))) + 1e-300
            worst = max(worst, float(np.sqrt(np.mean(((a - b) / scale) ** 2))))
        out["wrms_gap_vs_1_task"] = (worst, WRMS_BOUND)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

def layer_metrics(workload, cfg, ranks, counts) -> dict:
    rank_spans = [r["spans"] for r in ranks]
    info = ranks[0]["info"]
    stats = info["summary"].stats
    newton = info["newton_stats"]
    fast = info["fast_stats"]
    cells = _grid(cfg).n_cells / workload.n_tasks
    region = profiling.Region

    def per_rank(reader, group):
        names = LAYER_SPANS[group]
        return sum(reader(s, names) for s in rank_spans) / len(rank_spans)

    def seconds(group):
        return per_rank(sp.inclusive_seconds, group)

    def calls(group):
        return sp.call_count(rank_spans[0], LAYER_SPANS[group])

    lsolve = stats[region.LIN_SOLVE].mean
    rhs_s, rhs_calls = seconds("euler"), calls("euler")
    m = {
        "newton.lsetup_s": stats[region.LIN_SETUP].mean,
        "newton.lsolve_s": lsolve,
        "newton.lsolve_ms_per_solve":
            1e3 * lsolve / newton["solves"] if newton["solves"] else 0.0,
        "newton.solve_self_s": per_rank(sp.self_seconds, "solve"),
        "newton.iters": newton["iterations"],
        "newton.factorizations": newton["factorizations"],
        "newton.failures": newton["failures"],
        "chemistry.rhs_s": seconds("rhs"),
        "chemistry.jac_s": seconds("jac"),
        "chemistry.bookkeeping_s": seconds("bookkeeping"),
        "euler.rhs_s": rhs_s,
        "euler.rhs_calls": rhs_calls,
        "euler.rhs_us_per_cell":
            1e6 * rhs_s / rhs_calls / cells if rhs_calls else 0.0,
        "euler.fdweno_s": stats[region.FDWENO].mean,
        "euler.packing_s": stats[region.PACKING].mean,
        "mesh.halo_begin_s": seconds("halo_begin"),
        "mesh.halo_finish_s": seconds("halo_finish"),
        "transport.rounds_per_step": counts["transport.rounds_per_step"],
        "transport.msgs_per_step": counts["transport.msgs_per_step"],
        "transport.bytes_per_step": counts["transport.bytes_per_step"],
        "transport.reduce_s": seconds("reduce"),
        "transport.recv_wait_s": seconds("recv"),
        "vectors.lincomb_s": seconds("lincomb"),
        "vectors.lincomb_calls": calls("lincomb"),
        "vectors.norm_s": seconds("norm"),
        "ark.fast_steps": fast["steps"],
        "ark.accept_ratio": fast["accepted"] / fast["steps"] if fast["steps"] else 0.0,
        "ark.conv_failures": fast["conv_failures"],
        "ark.step_self_s": per_rank(sp.self_seconds, "step"),
        # hydro never enters the multirate evolution, so it has no
        # infrastructure time to derive
        "mri.infra_s": 0.0 if workload.hydro_steps else profiling.sundials_time(
            {r: s.mean for r, s in stats.items()}),
        "mri.forcing_s": seconds("forcing"),
        "harness.build_state_s": seconds("build_state"),
    }
    self_s = [sp.layer_self_seconds(s) for s in rank_spans]
    for layer in sp.LAYERS:
        m[f"{layer}.self_s"] = sum(d[layer] for d in self_s) / len(self_s)
    return m
