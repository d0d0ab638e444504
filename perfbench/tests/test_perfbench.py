"""Self-test of the benchmark: each workload once at a tiny size.

Checks that every metric named in BENCHMARK.json is printed, and that
each per-layer metric is non-zero exactly where the prediction table in
perfbench/README.md says the layer runs. A span wrapper that misses a
`from`-import shows up here as a zero. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_mrflow()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# zero when nothing fails; the tracing overhead of a tiny run has either sign
MAY_BE_ZERO = {"newton.failures", "ark.conv_failures", "trace.overhead_s"}
# hydro never calls the fast solver or the multirate evolution
ZERO_ON_HYDRO = {n for n in PER_LAYER
                 if n.startswith(("newton.", "mri."))} | {
    "chemistry.rhs_s", "chemistry.jac_s", "chemistry.bookkeeping_s",
    "ark.fast_steps", "ark.accept_ratio"}


# every layer still runs at these sizes, in well under a second
TINY = {
    "hydro": dict(config=dict(shape=(8, 8, 8)), hydro_steps=1),
    "reacting": dict(config=dict(shape=(8, 8, 8), h_slow=0.05,
                                 t_transient=0.05, t_final=0.1,
                                 fast_ratio=2.0)),
    "stiff-sockets": dict(config=dict(shape=(8, 4, 4), h_slow=0.05,
                                      t_transient=0.05, t_final=0.1,
                                      fast_ratio=4.0)),
}


def _session(name):
    return run.Session(replace(workloads.WORKLOADS[name], **TINY[name]), seed=1)


def _units(metrics):
    return {n: run.unit_of(n) for n in metrics}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_and_checks(name):
    session = _session(name)
    run.measure(session, 1e-3, traced=False)
    metrics = run.end_to_end(session)
    assert session.failed == 0
    assert _units(metrics) == END_TO_END
    assert all(v > 0.0 for v in metrics.values()), metrics
    assert all(run.count_repeats(session.all_runs()).values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_layer_metric_where_predicted(name):
    session = _session(name)
    run.measure(session, 1e-3, traced=True)
    metrics = run.per_layer(session)
    assert session.failed == 0
    assert _units(metrics) == PER_LAYER
    zero = ZERO_ON_HYDRO if name == "hydro" else set()
    for metric, value in metrics.items():
        if metric in zero:
            assert value == 0, metric
        elif metric not in MAY_BE_ZERO:
            assert value > 0, metric


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hydro",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
