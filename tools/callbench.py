"""Per-call timings of the hot calls of ``src/flime``.

For a fixed list of calls, prints the timeit minimum over ``--repeat``
rounds, in µs per call:

- the rate matrix's ``at`` (``solver._rate_matrix``) for one time and for
  16, 64 and 512 times, on the bichromatic 2LS of the spectrum pipeline
  (k_max 14) and on a random n = 4 and n = 8 single-harmonic system
  (complete sets, k_max 10);
- ``FloquetBasis.modes_at_many`` for 1, 17 and 2 048 times, on a pulse train
  (40 harmonics) with 1 024 grid samples;
- H(t) for 24 times, on the strong-drive 2LS, on that pulse train and on a
  sparse set of harmonics +-1 and +-7;
- ``PeriodicHamiltonian.on_grid`` with 1 024 samples and a random shift on
  that pulse train, the H path of the mode grid.

The systems are built from the public API.  Each side runs in its own
Python process with BLAS on one thread.  Run from the repository root::

    python tools/callbench.py [--repeat N] [--seconds S]
    python tools/callbench.py --against <git-ref>

With ``--against``, ``git archive <ref> src`` is unpacked in a temporary
directory and timed the same way, and both sides and the ratio now / ref
are printed.  Each side runs in two child processes, the sides
alternating, and each call keeps its minimum over both.
"""

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import timeit
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CLOSURES = 3
# Child processes per side, the sides alternating; each call keeps its
# minimum over all of them.
_PROCESSES = 2


def _random_matrix(rng, n, scale, hermitian):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if hermitian:
        return scale * 0.5 * (m + m.conj().T) / n ** 0.5
    return scale * m / abs(m).max() / n


def _random_system(seed, n):
    """A random single-harmonic Hamiltonian and collapse channel."""
    import numpy as np
    from flime import CollapseChannel, HarmonicTerm, PeriodicHamiltonian

    rng = np.random.default_rng(seed)
    omega = 2.0 * np.pi * rng.uniform(0.5, 1.5)
    drive = _random_matrix(rng, n, 0.35 * omega, False)
    h = PeriodicHamiltonian(omega, _random_matrix(rng, n, 0.6 * omega, True), (
        HarmonicTerm(drive, +1, 1.0), HarmonicTerm(drive.conj().T, -1, 1.0)))
    return h, CollapseChannel(_random_matrix(rng, n, 1.0, False), rng.uniform(0.05, 0.3))


def calls():
    """Name -> list of zero-argument callables that make the same call, for
    every listed call."""
    import numpy as np
    from flime import (CollapseChannel, HarmonicTerm, PeriodicHamiltonian, build_bichromatic,
                       build_driven_2ls_full, build_pulse_train, build_terms, compute_basis,
                       sigma_minus)
    from flime.solver import _rate_matrix

    rng = np.random.default_rng(1)
    out = {}
    sets = {"bichromatic": (build_bichromatic(10.0, -20.0, 20.0, 6.0),
                            CollapseChannel(sigma_minus, 1.0), 14),
            "random n=4": (*_random_system(4, 4), 10),
            "random n=8": (*_random_system(8, 8), 10)}
    for label, (h, channel, k_max) in sets.items():
        rates = build_terms(compute_basis(h), [channel], k_max=k_max,
                            secular_cutoff=np.inf, coeff_floor=0.0)
        # identical closures differ by up to 30 % with where their store
        # lands in memory, so each call is timed on a few of them
        ats = [_rate_matrix(rates) for _ in range(_CLOSURES)]
        t = float(rng.uniform(0.0, h.period))
        out[f"at {label} scalar"] = [lambda at=at, t=t: at(t) for at in ats]
        for count in (16, 64, 512):
            times = rng.uniform(0.0, h.period, count)
            out[f"at {label} {count}"] = [lambda at=at, times=times: at(times) for at in ats]
    pulse = build_pulse_train(0.3, 1.0, n_harmonics=40)
    basis = compute_basis(pulse, n_samples=1024)
    for count in (1, 17, 2048):
        times = rng.uniform(0.0, 3.0 * pulse.period, count)
        out[f"modes_at_many {count}"] = [lambda times=times: basis.modes_at_many(times)]
    drive = np.array([[0.3, 0.7 - 0.2j], [0.1j, -0.4]])
    sparse = PeriodicHamiltonian(2.3, np.diag([0.5, -0.5]).astype(complex), tuple(
        HarmonicTerm(m / k, s * k, 1.0) for k in (1, 7)
        for m, s in ((drive, 1), (drive.conj().T, -1))))
    for label, h in (("2ls", build_driven_2ls_full(2 * np.pi, 2 * np.pi, np.pi, np.pi)),
                     ("pulse train", pulse), ("sparse", sparse)):
        times = rng.uniform(0.0, h.period, 24)
        out[f"H {label} 24"] = [lambda h=h, times=times: h(times)]
    shift = float(rng.uniform(0.0, pulse.period / 1024))
    out["on_grid pulse train 1024"] = [lambda: pulse.on_grid(1024, shift)]
    return out


def measure(repeat, seconds):
    """Name -> timeit minimum in µs per call, in this process."""
    result = {}
    for name, fns in calls().items():
        best = []
        for fn in fns:
            fn()
            timer = timeit.Timer(fn)
            once = min(timer.repeat(repeat=3, number=1))
            number = max(1, int(seconds / max(once, 1e-7)))
            best.append(min(timer.repeat(repeat=repeat, number=number)) / number * 1e6)
        result[name] = min(best)
    return result


def _run_side(src, repeat, seconds):
    """Timings of the package under ``src``, in a child process."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in _THREAD_VARS})
    proc = subprocess.run([sys.executable, __file__, "--worker", "--repeat", str(repeat),
                           "--seconds", str(seconds)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _archive_src(ref, into):
    """Unpack ``git archive <ref> src`` into the directory ``into``."""
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", ref, "src"], cwd=_ROOT, stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(into, filter="data")
    return Path(into) / "src"


def _best(runs):
    """Elementwise minimum of several runs' timings."""
    return {name: min(run[name] for run in runs) for name in runs[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Per-call timings of the hot calls of src/flime.")
    parser.add_argument("--against", metavar="REF", help="also time src/ at this git ref")
    parser.add_argument("--repeat", type=int, default=7, help="timeit rounds (the minimum is kept)")
    parser.add_argument("--seconds", type=float, default=0.05, help="target length of one round")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.worker:
        print(json.dumps(measure(args.repeat, args.seconds)))
        return
    if args.against is None:
        now = _best([_run_side(_ROOT / "src", args.repeat, args.seconds)
                     for _ in range(_PROCESSES)])
        print(f"{'call':<28}{'µs':>10}")
        for name, value in now.items():
            print(f"{name:<28}{value:>10.2f}")
        return
    with tempfile.TemporaryDirectory() as tmp:
        src = {"ref": _archive_src(args.against, tmp), "now": _ROOT / "src"}
        runs = {"ref": [], "now": []}
        for _ in range(_PROCESSES):
            for side in runs:
                runs[side].append(_run_side(src[side], args.repeat, args.seconds))
    ref, now = _best(runs["ref"]), _best(runs["now"])
    print(f"{'call':<28}{'ref µs':>10}{'now µs':>10}{'ratio':>8}")
    for name, value in now.items():
        print(f"{name:<28}{ref[name]:>10.2f}{value:>10.2f}{value / ref[name]:>8.2f}")


if __name__ == "__main__":
    main()
