"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from flime import analysis, floquet, lindblad, solver  # noqa: E402


def _check_line(line, names_units):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == names_units
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    line, record, _ = run.run(name, seed=3, seconds=0.01, trace=0, small=True)
    _check_line(line, {n: u for n, u, _, _, _ in run.END_TO_END})
    assert line["metrics"]["wall_s"]["value"] > line["metrics"]["setup_s"]["value"] > 0
    assert record["ops_failed_frac"] == 0.0
    assert record["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric(name):
    originals = (solver.evolve, floquet.monodromy, analysis.FlimePropagator.cycle,
                 lindblad.integrate_adaptive)
    line, _, tracer = run.run(name, seed=3, seconds=0.01, trace=1, small=True)
    _check_line(line, {n: u for n, u, _, _ in tracing.PER_LAYER})
    m = {k: v["value"] for k, v in line["metrics"].items()}
    layers = sum(m[f"self.{layer}_s"] for layer in tracing._LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["hamiltonians.evals"] > 0 and m["floquet.grid_samples"] > 0
    assert m["solver.kept"] <= m["solver.candidates"]
    assert m["lindblad.steps"] > 0
    if name == "ness-spectrum":
        assert m["analysis.ness_periods"] > 0 and m["analysis.spectrum_mb"] > 0
    else:
        assert m["integrate.steps"] > 0 and m["analysis.ness_s"] == 0.0
    # the wrappers are gone once the run ends
    assert originals == (solver.evolve, floquet.monodromy, analysis.FlimePropagator.cycle,
                         lindblad.integrate_adaptive)
    assert len(tracer.spans()["start"]) > 0


def test_gate_counts_a_perturbed_state_as_failed():
    wl = workloads.Transient2LS(seed=5, small=True)
    gate = run.Gate(wl, wl.reference())
    outputs = wl.solve(wl.setup())
    assert gate.check(outputs) and gate.failed == 0
    perturbed = outputs[0].copy()
    perturbed[-1] = np.diag([0.5, 0.5])
    assert not gate.check([perturbed])
    assert (gate.attempted, gate.failed) == (2, 1)


def test_a_raising_pass_counts_every_system_as_failed():
    wl = workloads.SweepPulse(seed=5, small=True)
    gate = run.Gate(wl, [None] * len(wl.systems))
    wl.solve = lambda prepared: 1 / 0
    assert run._run_pass(wl, gate) is None
    assert (gate.attempted, gate.failed) == (2, 2)


def test_periodic_reference_matches_a_full_direct_run():
    wl = workloads.Transient2LS(seed=7, small=True)
    h, ch = wl._model()
    spec = lindblad.LiouvillianSpec(h, (ch,))
    rho0 = wl.systems[0].params["rho0"]
    times = wl._times(h)
    full = lindblad.evolve_direct(spec, rho0, times, tol=workloads.REF_TOL).states
    ref = workloads.periodic_reference(spec, rho0, times)
    assert np.max(workloads.trace_distances(ref, full)) < 1e-9


def test_same_seed_gives_same_inputs():
    a, b = workloads.Multilevel(11), workloads.Multilevel(11)
    for sa, sb in zip(a.systems, b.systems):
        assert np.array_equal(sa.params["static"], sb.params["static"])
        assert np.array_equal(sa.params["rho0"], sb.params["rho0"])
    assert not np.array_equal(workloads.Multilevel(12).systems[0].params["rho0"],
                              a.systems[0].params["rho0"])


def test_benchmark_json_matches_the_definitions():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == run.manifest()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "transient-2ls",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "perfbench:" in proc.stderr
    assert '"correct"' not in proc.stdout
