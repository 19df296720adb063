"""flime benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload transient-2ls --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

A run builds the workload's systems from the seed, computes the references
(untimed), measures one pass under tracemalloc (untimed, ``peak_mem_mb``),
then repeats timed passes in a closed loop (one solve at a time) for
``--seconds``.  Every pass is checked against the reference.  With
``--trace 1`` the timed loop alternates untraced and traced passes and the
per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, lands in ``perfbench/results/``.  See README.md.
"""

import os

# BLAS threads are pinned before numpy is imported: with threaded BLAS one
# competing process made the dense RHS four times slower on a 2-CPU host.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

END_TO_END = [
    ("wall_s", "s", "lower", 0.25, "system parameters to the final lab-frame result, one pass"),
    ("setup_s", "s", "lower", 0.25, "building H(t), compute_basis and build_terms, one pass"),
    ("peak_mem_mb", "MB", "lower", 0.1, "tracemalloc peak of one pass, in a separate untimed pass"),
]
MIN_PASSES = 3


def import_program():
    """Import flime from this checkout's ``src``; exit non-zero if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flime
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import flime from {src}: {exc}") from exc
    if Path(flime.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: flime imported from {flime.__file__}, not from {src}")
    return flime


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def manifest():
    """The contents of BENCHMARK.json, from the definitions in this package."""
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def _quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Gate:
    """Counts operations (one system solve each) and those that failed."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.errors = {s.label: [] for s in workload.systems}
        self.messages = []

    def check(self, outputs):
        """Check one pass's outputs; ``None`` means the pass raised."""
        systems = self.workload.systems
        self.attempted += len(systems)
        if outputs is None:
            self.failed += len(systems)
            return False
        ok = True
        for system, err in zip(systems, self.workload.errors(outputs, self.refs)):
            self.errors[system.label].append(err)
            if not (math.isfinite(err) and err <= system.tol):
                self.failed += 1
                ok = False
                self.messages.append(f"{system.label}: error {err:.3e} exceeds {system.tol:.0e}")
        return ok

    def max_err(self):
        errs = [e for v in self.errors.values() for e in v]
        return max(errs) if errs else math.inf


def _run_pass(workload, gate, wrap=None):
    """One timed pass; returns (wall_s, setup_s) and checks its outputs."""
    t0 = perf_counter()
    try:
        prepared = workload.setup(wrap) if wrap else workload.setup()
        t1 = perf_counter()
        outputs = workload.solve(prepared)
    except Exception as exc:  # a failed solve is counted, not fatal
        gate.messages.append(f"pass raised {type(exc).__name__}: {exc}")
        gate.check(None)
        return None
    t2 = perf_counter()
    gate.check(outputs)
    return t2 - t0, t1 - t0


def _memory_pass(workload, gate):
    tracemalloc.start()
    try:
        ok = _run_pass(workload, gate) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6 if ok else math.nan


def measure(workload, seconds):
    """End-to-end metrics of one untraced run."""
    t0 = perf_counter()
    gate = Gate(workload, workload.reference())
    reference_s = perf_counter() - t0
    peak_mb = _memory_pass(workload, gate)

    walls, setups = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(walls) < MIN_PASSES:
        timing = _run_pass(workload, gate)
        if timing is not None:
            walls.append(timing[0])
            setups.append(timing[1])
        elif perf_counter() >= deadline:
            break
    samples = {"wall_s": walls, "setup_s": setups}
    metrics = {name: statistics.median(samples[name]) if samples[name] else math.nan
               for name in samples}
    metrics["peak_mem_mb"] = peak_mb
    return gate, metrics, samples, {"reference_s": reference_s}


def measure_traced(workload, seconds):
    """Per-layer metrics of one traced run."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    with tracer.installed():
        with tracer.root("reference"):
            gate = Gate(workload, workload.reference())
        tracemalloc.start()
        try:
            with tracer.root("mem"):
                workload.setup(tracer.proxy)
        finally:
            tracemalloc.stop()

    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        timing = _run_pass(workload, gate)
        if timing is not None:
            untraced.append(timing[0])
        with tracer.installed(), tracer.root("pass"):
            timing = _run_pass(workload, gate, wrap=tracer.proxy)
        if timing is not None:
            traced.append(timing[0])
        if perf_counter() >= deadline:
            break
    samples = {"untraced_s": untraced, "traced_s": traced}
    metrics = layer_metrics(tracer, untraced) if untraced and traced else {}
    return gate, metrics, samples, tracer


def run(name, seed, seconds, trace, small=False):
    """Run one workload; returns the result line and the full record."""
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, small=small)
    if trace:
        gate, metrics, samples, tracer = measure_traced(workload, seconds)
        units = {n: u for n, u, _, _ in PER_LAYER}
        extra = {}
    else:
        gate, metrics, samples, extra = measure(workload, seconds)
        units = {n: u for n, u, _, _, _ in END_TO_END}
        tracer = None
    line = {
        "correct": gate.failed == 0 and bool(metrics) and all(math.isfinite(v) for v in metrics.values()),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": metrics.get(n, math.nan), "unit": u} for n, u in units.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "small": small,
        "environment": environment(), "result": line, "samples": samples,
        "quartiles": {k: _quartiles(v) for k, v in samples.items() if v},
        "max_err": gate.max_err(), "errors": gate.errors,
        "tolerances": {s.label: s.tol for s in workload.systems},
        "ops_failed_frac": gate.failed / max(gate.attempted, 1),
        "messages": gate.messages, **extra,
    }
    return line, record, tracer


def report(record):
    """Human-readable lines for one run."""
    env = record["environment"]
    result = record["result"]
    yield (f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
           f"trace={record['trace']}")
    yield (f"env python={env['python']} numpy={env['numpy']} blas={env['blas']} "
           f"threads=1 nproc={env['nproc']} affinity={env['affinity']} "
           f"loadavg={','.join(f'{x:.2f}' for x in env['loadavg'])}")
    for name, m in result["metrics"].items():
        q = record["quartiles"].get(name)
        n = len(record["samples"].get(name, []))
        spread = f"  (median of {n}; q1 {q[0]:.6g}, q3 {q[1]:.6g})" if q else ""
        yield f"{name:28s} {m['value']:.6g} {m['unit']}{spread}"
    yield f"{'max_err':28s} {record['max_err']:.3e}  (tolerances {record['tolerances']})"
    yield (f"{'ops_failed_frac':28s} {record['ops_failed_frac']:.6g}  "
           f"({result['failed']}/{result['attempted']} operations)")
    for message in record["messages"]:
        yield f"FAILED {message}"


def _json_safe(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def run_all(args):
    """Each workload in its own process, then one summary table."""
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            rows.append((name, None))
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nworkload         correct  failed/attempted  metrics")
    for name, line in rows:
        if line is None:
            print(f"{name:16s} ERROR")
            continue
        record = json.loads((RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        max_err = "n/a" if record["max_err"] is None else f"{record['max_err']:.3g}"
        metrics = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in line["metrics"].items())
        print(f"{name:16s} {str(line['correct']):8s} {line['failed']}/{line['attempted']:<15} {metrics}  "
              f"max_err={max_err}  ops_failed_frac={record['ops_failed_frac']:.3g}")
    return 0 if all(line is not None and line["correct"] for _, line in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json these definitions imply and exit")
    args = parser.parse_args(argv)

    import_program()
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    line, record, tracer = run(args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(_json_safe(record), indent=1))
    if tracer is not None:
        tracer.save(RESULTS / f"{args.workload}-spans.npz")
    for text in report(record):
        print(text)
    print(json.dumps(_json_safe(line)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
