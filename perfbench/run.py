#!/usr/bin/env python3
"""Benchmark of mrflow: run one workload, check it and print its metrics.

    python3 perfbench/run.py --workload {hydro,reacting,stiff-sockets} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; mrflow is imported from its
`src/`. With `--trace 0` the output holds the end-to-end metrics; with
`--trace 1` untraced and traced runs alternate and the output holds the
per-layer metrics and the tracing overhead. Before the result the run
prints one line per metric with its unit and a `record` line with host
facts, exact counts and checks. The last line of standard output is the
result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostfacts
import spans

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("hydro", "reacting", "stiff-sockets")
SETUP_REPEATS = 10


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms_per_solve", "ms"), ("_us_per_cell", "us"),
                         ("_mb", "MB"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def import_mrflow():
    """Import mrflow from this checkout's sources, never from elsewhere."""
    package = ROOT / "src" / "mrflow"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no mrflow sources under {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import mrflow
    if Path(mrflow.__file__).resolve().parent != package.resolve():
        raise ImportError(f"mrflow resolved to {mrflow.__file__}, not {package}")


class Session:
    """Runs of one workload, with failures counted as they happen."""

    def __init__(self, workload, seed: int):
        import workloads        # after import_mrflow()
        self.wl = workloads
        self.workload = workload
        self.cfg = workload.run_config(seed)
        self.recorder = spans.Recorder()
        self.reference = workloads.prepare(workload, self.cfg, self.recorder)
        self.attempted = 0
        self.failed = 0
        self.setups = []
        self.runs = {False: [], True: []}     # traced -> records

    def _attempt(self, fn, *args):
        self.attempted += 1
        try:
            rec = fn(self.workload, self.cfg, self.recorder, *args)
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        if not rec.ok:
            self.failed += 1
            print(f"perfbench: check failed: {rec.checks}", file=sys.stderr)
        return rec

    def setup_only(self):
        rec = self._attempt(self.wl.setup_only)
        if rec is not None:
            self.setups.append(rec)

    def full_run(self, traced: bool):
        rec = self._attempt(self.wl.full_run, self.reference, traced)
        if rec is not None:
            self.runs[traced].append(rec)

    def all_runs(self):
        return self.runs[False] + self.runs[True]


def measure(session: Session, seconds: float, traced: bool):
    deadline = time.perf_counter() + seconds
    if not traced:
        for _ in range(SETUP_REPEATS):
            session.setup_only()
    while True:
        session.full_run(False)
        if traced:
            session.full_run(True)
        if time.perf_counter() >= deadline:
            return


def end_to_end(session: Session) -> dict:
    runs = [r for r in session.runs[False] if r.ok]
    if not runs:
        return {}
    setups = [r.setup_s for r in session.setups + runs]
    steps = [s for r in runs for s in r.step_s]
    return {
        "setup_s": statistics.median(setups),
        "slow_step_s": statistics.median(steps),
        "run_s": statistics.median(r.run_s for r in runs),
        "peak_rss_mb": max(r.peak_rss_mb for r in runs),
    }


def per_layer(session: Session) -> dict:
    traced = [r for r in session.runs[True] if r.ok]
    untraced = [r for r in session.runs[False] if r.ok]
    if not traced or not untraced:
        return {}
    out = {name: statistics.median(r.layers[name] for r in traced)
           for name in traced[0].layers}
    out["trace.overhead_s"] = (statistics.median(r.run_s for r in traced)
                               - statistics.median(r.run_s for r in untraced))
    return out


def count_repeats(runs) -> dict:
    """count name -> True when every run of this invocation agrees."""
    if not runs:
        return {}
    return {name: len({r.counts[name] for r in runs}) == 1
            for name in runs[0].counts}


def worst_checks(runs) -> dict:
    out = {}
    for r in runs:
        for name, (value, bound) in r.checks.items():
            if name not in out or value > out[name][0]:
                out[name] = (value, bound)
    return {k: {"value": v, "bound": b} for k, (v, b) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_mrflow()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    hostfacts.warm_up()
    host = hostfacts.collect(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    session = Session(workload, args.seed)
    measure(session, args.seconds, bool(args.trace))

    runs = session.all_runs()
    metrics = per_layer(session) if args.trace else end_to_end(session)
    repeats = count_repeats(runs)
    for name, same in repeats.items():
        if not same:
            values = sorted({r.counts[name] for r in runs})
            print(f"perfbench: count {name} differs between runs: {values}",
                  file=sys.stderr)
    units = {name: unit_of(name) for name in metrics}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} runs={len(runs)}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host,
        "counts": runs[0].counts if runs else {},
        "counts_repeat": repeats, "checks": worst_checks(runs),
        "samples": {"setups": len(session.setups) + len(session.runs[False]),
                    "runs": len(runs),
                    "fixed_steps": sum(len(r.step_s) for r in session.runs[False])},
    }
    print("record " + json.dumps(record))
    correct = session.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
