"""Command line interface: configuration ingestion, run orchestration,
benchmarking and result persistence.

Subcommands: evolve, ness, spectrum, bench, compare.  Runs are described by
a JSON config; any scalar can be overridden with ``--set dotted.path=value``.
Unknown config keys are errors, not warnings.  Exit codes: 0 success,
2 config error, 3 solver failure.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (FlimePropagator, ReferencePropagator, correlation_g1,
                       evolve_to_ness, spectrum)
from .hamiltonians import (DEFAULT_TIME_UNIT, TimeUnit, angular_frequency,
                           build_bichromatic, build_driven_2ls_full,
                           build_driven_2ls_rwa, build_pulse_train,
                           build_rotating_frame_2ls, lifetime_to_rate)
from .integrate import IntegrationError, OdeTol
from .lindblad import LiouvillianSpec, evolve_direct
from .floquet import compute_basis
from .qops import pure_state_density, sigma_minus, sigma_plus, sigma_x, sigma_y, sigma_z, trace_distance
from .solver import CollapseChannel, build_terms, evolve

__all__ = ["main", "ConfigError", "load_config"]


class ConfigError(ValueError):
    pass


_SYSTEM_KINDS = ("driven_2ls_rwa", "driven_2ls_full", "bichromatic", "pulse_train")
_SOLVERS = ("flime", "reference", "both")
_WINDOWS = ("hann", "rect")

_CHANNEL_OPERATORS = {
    "sigma_minus": sigma_minus,
    "sigma_plus": sigma_plus,
    "sigma_x": sigma_x,
    "sigma_z": sigma_z,
}

_OBSERVABLES = {
    "excited_population": lambda rho: rho[1, 1].real,
    "ground_population": lambda rho: rho[0, 0].real,
    "sigma_x": lambda rho: np.trace(sigma_x @ rho).real,
    "sigma_y": lambda rho: np.trace(sigma_y @ rho).real,
    "sigma_z": lambda rho: np.trace(sigma_z @ rho).real,
    "coherence_re": lambda rho: rho[0, 1].real,
    "coherence_im": lambda rho: rho[0, 1].imag,
    "purity": lambda rho: np.trace(rho @ rho).real,
    "trace": lambda rho: np.trace(rho).real,
}

_SYSTEM_KEYS = {
    "driven_2ls_rwa": {"kind", "omega0", "omega", "Omega"},
    "driven_2ls_full": {"kind", "omega0", "omega", "Omega", "Omega_tilde"},
    "bichromatic": {"kind", "delta_bar", "beat", "Omega1", "Omega2"},
    "pulse_train": {"kind", "delta", "period", "sigma", "n_harmonics", "pulse_area"},
}

_TOP_KEYS = {
    "system", "unit", "channels", "solver", "secular_cutoff", "k_max",
    "n_samples", "evolution", "tolerances", "outputs",
    "initial_state", "ness", "spectrum", "bench",
}


def _check_keys(section, allowed, where):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _is_real(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and bool(np.isfinite(value)))


def _is_integer(value):
    return _is_real(value) and value == int(value)


def _check_numbers(section, where, positive=(), integers=()):
    """Reject a given key of ``positive`` that is not a positive number, and
    one of ``integers``, pairs (key, least), that is not an integer >= least."""
    for key in positive:
        if key in section and not (_is_real(section[key]) and section[key] > 0):
            raise ConfigError(f"{where}.{key} must be a positive number, got {section[key]!r}")
    for key, least in integers:
        value = section.get(key, least)
        if not (_is_integer(value) and value >= least):
            raise ConfigError(f"{where}.{key} must be an integer >= {least}, got {value!r}")


def _number(value, unit, where):
    """A config number, optionally tagged: {"value": x, "unit": "GHz"}."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, dict):
        _check_keys(value, {"value", "unit", "lifetime"}, where)
        if "lifetime" in value:
            return lifetime_to_rate(float(value["lifetime"]), value.get("unit", "ns"), unit)
        return angular_frequency(float(value["value"]), value.get("unit", "rad/ns"), unit)
    raise ConfigError(f"{where} must be a number or a tagged value object")


def _complex_number(value, unit, where):
    if isinstance(value, list):
        if len(value) != 2:
            raise ConfigError(f"{where}: complex values are [re, im] pairs")
        return complex(value[0], value[1])
    return complex(_number(value, unit, where))


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def apply_overrides(config, overrides):
    """Apply --set dotted.path=value pairs; values parsed as JSON when possible."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return config


class RunConfig:
    """Validated run description."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        _check_keys(raw, _TOP_KEYS, "config")
        self.raw = raw

        unit_raw = raw.get("unit", {})
        _check_keys(unit_raw, {"label", "scale"}, "unit")
        self.unit = TimeUnit(unit_raw.get("label", DEFAULT_TIME_UNIT.label),
                             float(unit_raw.get("scale", DEFAULT_TIME_UNIT.scale)))

        system = raw.get("system")
        if not isinstance(system, dict) or "kind" not in system:
            raise ConfigError("config requires a 'system' object with a 'kind'")
        kind = system["kind"]
        if kind not in _SYSTEM_KINDS:
            raise ConfigError(f"invalid system kind {kind!r}; allowed: {list(_SYSTEM_KINDS)}")
        _check_keys(system, _SYSTEM_KEYS[kind], f"system ({kind})")
        self.system_kind = kind
        self.system_raw = system

        self.solver = raw.get("solver", "flime")
        if self.solver not in _SOLVERS:
            raise ConfigError(f"invalid solver {self.solver!r}; allowed: {list(_SOLVERS)}")

        cutoff = raw.get("secular_cutoff", 0.0)
        if cutoff == "inf":
            cutoff = np.inf
        if not isinstance(cutoff, (int, float)) or cutoff < 0:
            raise ConfigError("secular_cutoff must be a nonnegative number or \"inf\"")
        self.secular_cutoff = float(cutoff)

        default_samples = 1024 if kind == "pulse_train" else 256
        default_kmax = (int(system.get("n_harmonics", 40)) + 10
                        if kind == "pulse_train" else 20)
        n_samples = raw.get("n_samples", default_samples)
        if not (_is_integer(n_samples) and n_samples >= 2
                and int(n_samples) & (int(n_samples) - 1) == 0):
            raise ConfigError(f"n_samples must be a power of two >= 2, got {n_samples!r}")
        self.n_samples = int(n_samples)
        k_max = raw.get("k_max", default_kmax)
        if not (_is_integer(k_max) and 0 <= k_max < self.n_samples / 2):
            raise ConfigError(f"k_max must be an integer with 0 <= k_max < n_samples/2 = "
                              f"{self.n_samples // 2}, got {k_max!r}")
        self.k_max = int(k_max)

        tol_raw = raw.get("tolerances", {})
        _check_keys(tol_raw, {"rtol", "atol", "max_step"}, "tolerances")
        self.tol = OdeTol(rtol=float(tol_raw.get("rtol", 1e-8)),
                          atol=float(tol_raw.get("atol", 1e-10)),
                          max_step=(float(tol_raw["max_step"])
                                    if "max_step" in tol_raw else None))

        channels_raw = raw.get("channels", [])
        self.channel_specs = []
        for i, ch in enumerate(channels_raw):
            _check_keys(ch, {"operator", "rate"}, f"channels[{i}]")
            name = ch.get("operator")
            if name not in _CHANNEL_OPERATORS:
                raise ConfigError(
                    f"unknown channel operator {name!r}; allowed: {sorted(_CHANNEL_OPERATORS)}")
            self.channel_specs.append(
                (name, _number(ch.get("rate", 0.0), self.unit, f"channels[{i}].rate")))

        self.outputs = raw.get("outputs", ["excited_population"])
        for name in self.outputs:
            if name not in _OBSERVABLES:
                raise ConfigError(
                    f"unknown observable {name!r}; allowed: {sorted(_OBSERVABLES)}")

        evo = raw.get("evolution", {})
        _check_keys(evo, {"times", "n_periods", "samples_per_period"}, "evolution")
        _check_numbers(evo, "evolution", integers=(("n_periods", 1), ("samples_per_period", 1)))
        self.evolution = evo

        self.initial_state = raw.get("initial_state", "ground")
        if self.initial_state not in ("ground", "excited", "superposition"):
            raise ConfigError("initial_state must be 'ground', 'excited' or 'superposition'")

        ness = raw.get("ness", {})
        _check_keys(ness, {"conv_tol", "max_periods", "samples_per_period", "observable"},
                    "ness")
        _check_numbers(ness, "ness", positive=("conv_tol",),
                       integers=(("max_periods", 1), ("samples_per_period", 1)))
        self.ness = ness

        spec_raw = raw.get("spectrum", {})
        _check_keys(spec_raw, {"tau_max", "n_tau", "window", "n_freq", "resolution"},
                    "spectrum")
        _check_numbers(spec_raw, "spectrum", positive=("tau_max", "resolution"),
                       integers=(("n_tau", 2), ("n_freq", 1)))
        if spec_raw.get("window", "hann") not in _WINDOWS:
            raise ConfigError(
                f"spectrum.window must be one of {list(_WINDOWS)}, got {spec_raw['window']!r}")
        self.spectrum = spec_raw

        bench = raw.get("bench", {})
        _check_keys(bench, {"periods", "repeats", "samples_total"}, "bench")
        self.bench = bench

    def hamiltonian(self, rotating_frame=False):
        s = self.system_raw
        u = self.unit
        kind = self.system_kind
        if kind == "driven_2ls_rwa":
            omega0 = _number(s["omega0"], u, "system.omega0")
            omega = _number(s["omega"], u, "system.omega")
            rabi = _complex_number(s["Omega"], u, "system.Omega")
            if rotating_frame:
                return build_rotating_frame_2ls(omega - omega0, rabi, omega)
            return build_driven_2ls_rwa(omega0, omega, rabi)
        if kind == "driven_2ls_full":
            return build_driven_2ls_full(
                _number(s["omega0"], u, "system.omega0"),
                _number(s["omega"], u, "system.omega"),
                _complex_number(s["Omega"], u, "system.Omega"),
                _complex_number(s["Omega_tilde"], u, "system.Omega_tilde"))
        if kind == "bichromatic":
            return build_bichromatic(
                _number(s["delta_bar"], u, "system.delta_bar"),
                _number(s["beat"], u, "system.beat"),
                _complex_number(s["Omega1"], u, "system.Omega1"),
                _complex_number(s["Omega2"], u, "system.Omega2"))
        # period and sigma are times in the run's base unit, no tagging
        return build_pulse_train(
            _number(s["delta"], u, "system.delta"),
            float(s["period"]),
            sigma=float(s["sigma"]) if "sigma" in s else None,
            n_harmonics=int(s.get("n_harmonics", 40)),
            pulse_area=float(s.get("pulse_area", np.pi)))

    def channels(self):
        return tuple(CollapseChannel(_CHANNEL_OPERATORS[name], rate)
                     for name, rate in self.channel_specs)

    def rho0(self):
        if self.initial_state == "ground":
            return pure_state_density([1.0, 0.0])
        if self.initial_state == "excited":
            return pure_state_density([0.0, 1.0])
        return pure_state_density([1.0, 1.0])

    def times(self, period):
        evo = self.evolution
        if "times" in evo:
            return np.asarray(evo["times"], dtype=float)
        n_periods = int(evo.get("n_periods", 10))
        spp = int(evo.get("samples_per_period", 100))
        return np.linspace(0.0, n_periods * period, n_periods * spp + 1)


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) if isinstance(x, float) else x for x in row])


def _write_metadata(path, config, extra):
    meta = {"library_version": __version__, "config": config.raw}
    meta.update(extra)
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _observable_rows(times, states, names):
    funcs = [_OBSERVABLES[n] for n in names]
    for t, rho in zip(times, states):
        yield [float(t)] + [float(f(rho)) for f in funcs]


def _basis_metadata(basis):
    """Grid size and the two truncation checks of a Floquet basis."""
    return {"n_samples": basis.n_samples, "closure_defect": basis.closure_defect,
            "unitarity_defect": basis.unitarity_defect}


def _run_flime(config, hamiltonian, times):
    setup_start = time.perf_counter()
    basis = compute_basis(hamiltonian, n_samples=config.n_samples)
    rates = build_terms(basis, config.channels(), k_max=config.k_max,
                        secular_cutoff=config.secular_cutoff)
    setup_time = time.perf_counter() - setup_start
    result = evolve(rates, basis, config.rho0(), times, tol=config.tol)
    return result, setup_time, basis


def _run_reference(config, hamiltonian, times):
    setup_start = time.perf_counter()
    spec = LiouvillianSpec(hamiltonian, config.channels())
    setup_time = time.perf_counter() - setup_start
    result = evolve_direct(spec, config.rho0(), times, tol=config.tol)
    return result, setup_time, None


def cmd_evolve(config, outdir):
    hamiltonian = config.hamiltonian()
    times = config.times(hamiltonian.period)
    solvers = ["flime", "reference"] if config.solver == "both" else [config.solver]
    results = {}
    meta = {"results": {}}
    for name in solvers:
        runner = _run_flime if name == "flime" else _run_reference
        result, setup_time, basis = runner(config, hamiltonian, times)
        results[name] = result
        path = Path(outdir) / f"evolve_{name}.csv"
        _write_csv(path, ["time"] + list(config.outputs),
                   _observable_rows(result.times, result.states, config.outputs))
        meta["results"][name] = {
            "csv": path.name,
            "setup_time_s": setup_time,
            "diagnostics": result.diagnostics.as_dict(),
        }
        if basis is not None:
            meta["basis"] = _basis_metadata(basis)
        print(f"wrote {path}")
    if len(results) == 2:
        dist = max(trace_distance(a, b) for a, b in
                   zip(results["flime"].states, results["reference"].states))
        meta["agreement"] = {"max_trace_distance": dist}
        print(f"max trace distance between solvers: {dist:.3e}")
    _write_metadata(Path(outdir) / "metadata.json", config, meta)
    return 0


def cmd_ness(config, outdir):
    if config.solver == "both":
        raise ConfigError("ness requires solver 'flime' or 'reference'")
    hamiltonian = config.hamiltonian()
    observable_name = config.ness.get("observable", "excited_population")
    if observable_name not in ("excited_population", "ground_population",
                               "sigma_x", "sigma_y", "sigma_z"):
        raise ConfigError(f"unsupported ness observable {observable_name!r}")
    obs_matrix = {
        "excited_population": np.diag([0.0, 1.0]).astype(complex),
        "ground_population": np.diag([1.0, 0.0]).astype(complex),
        "sigma_x": np.asarray(sigma_x), "sigma_y": np.asarray(sigma_y),
        "sigma_z": np.asarray(sigma_z),
    }[observable_name]

    meta = {}
    if config.solver == "flime":
        basis = compute_basis(hamiltonian, n_samples=config.n_samples)
        rates = build_terms(basis, config.channels(), k_max=config.k_max,
                            secular_cutoff=config.secular_cutoff)
        propagator = FlimePropagator(rates, basis, tol=config.tol)
        meta["basis"] = _basis_metadata(basis)
    else:
        propagator = ReferencePropagator(LiouvillianSpec(hamiltonian, config.channels()),
                                         tol=config.tol)
    ness = evolve_to_ness(
        propagator, config.rho0(), obs_matrix,
        conv_tol=float(config.ness.get("conv_tol", 1e-8)),
        max_periods=int(config.ness.get("max_periods", 10000)),
        samples_per_period=int(config.ness.get("samples_per_period", 32)))

    path = Path(outdir) / "ness_cycle.csv"
    _write_csv(path, ["tau", observable_name],
               ([float(t), float(v)] for t, v in zip(ness.cycle_times, ness.cycle_profile)))
    print(f"wrote {path}")
    meta["ness"] = {
        "converged": ness.converged,
        "periods_to_converge": ness.periods_to_converge,
        "period_mean": ness.period_mean,
        "residual": ness.residual,
        "observable": observable_name,
    }
    _write_metadata(Path(outdir) / "metadata.json", config, meta)
    if not ness.converged:
        print("warning: NESS did not converge within max_periods", file=sys.stderr)
    return 0


def cmd_spectrum(config, outdir):
    if config.solver == "both":
        raise ConfigError("spectrum requires solver 'flime' or 'reference'")
    # The monochromatic RWA system is rotated to its drive frame so that the
    # detuning axis is centered on the drive; the bichromatic system is
    # already expressed in its mean-laser frame.
    rotating = config.system_kind == "driven_2ls_rwa"
    hamiltonian = config.hamiltonian(rotating_frame=rotating)
    channels = config.channels()
    spec = LiouvillianSpec(hamiltonian, channels)

    gamma = sum(rate for _, rate in config.channel_specs) or 1.0
    tau_max = float(config.spectrum.get("tau_max", 60.0 / gamma))
    n_tau = int(config.spectrum.get("n_tau", 2048))
    window = config.spectrum.get("window", "hann")
    taus = np.linspace(0.0, tau_max, n_tau)

    meta = {}
    if config.solver == "flime":
        basis = compute_basis(hamiltonian, n_samples=config.n_samples)
        rates = build_terms(basis, channels, k_max=config.k_max,
                            secular_cutoff=config.secular_cutoff)
        propagator = FlimePropagator(rates, basis, tol=config.tol)
        system = (rates, basis)
        meta["basis"] = _basis_metadata(basis)
    else:
        propagator = ReferencePropagator(spec, tol=config.tol)
        system = spec

    ness = evolve_to_ness(propagator, config.rho0(),
                          np.diag([0.0, 1.0]).astype(complex),
                          conv_tol=float(config.ness.get("conv_tol", 1e-9)),
                          max_periods=int(config.ness.get("max_periods", 20000)),
                          samples_per_period=int(config.ness.get("samples_per_period", 16)))
    g1 = correlation_g1(system, ness.cycle_states[0], sigma_minus, taus, tol=config.tol)

    detunings = None
    if "resolution" in config.spectrum:
        res = float(config.spectrum["resolution"])
        span = np.pi / (taus[1] - taus[0])
        m = int(span / res)
        detunings = np.arange(-m, m + 1) * res
    elif "n_freq" in config.spectrum:
        n_freq = int(config.spectrum["n_freq"])
        detunings = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(n_freq, d=taus[1] - taus[0]))
    result = spectrum(g1, taus, window=window, detunings=detunings)

    path = Path(outdir) / "spectrum.csv"
    _write_csv(path, ["detuning", "intensity"],
               ([float(d), float(i)] for d, i in zip(result.detunings, result.intensities)))
    print(f"wrote {path}")
    meta["spectrum"] = {
        "frame": "rotating" if rotating else "native",
        "tau_max": result.tau_max,
        "n_tau": result.n_tau,
        "window": result.window,
        "ness_periods": ness.periods_to_converge,
        "ness_converged": ness.converged,
    }
    _write_metadata(Path(outdir) / "metadata.json", config, meta)
    return 0


def cmd_bench(config, outdir):
    hamiltonian = config.hamiltonian()
    periods = config.bench.get("periods", [10, 100, 1000, 10000])
    repeats = int(config.bench.get("repeats", 3))
    if repeats < 3:
        raise ConfigError("bench.repeats must be at least 3")
    samples_total = int(config.bench.get("samples_total", 100))
    period = hamiltonian.period

    # one warm-up run per solver, excluded from all statistics
    warm_times = np.linspace(0.0, min(periods) * period, samples_total + 1)
    _run_flime(config, hamiltonian, warm_times)
    _run_reference(config, hamiltonian, warm_times)

    records = []
    for n_periods in periods:
        times = np.linspace(0.0, n_periods * period, samples_total + 1)
        timings = {}
        for name in ("flime", "reference"):
            runner = _run_flime if name == "flime" else _run_reference
            sol, tot = [], []
            for _ in range(repeats):
                start = time.perf_counter()
                result, _, _ = runner(config, hamiltonian, times)
                total = time.perf_counter() - start
                sol.append(result.diagnostics.solution_time_s)
                tot.append(total)
            timings[name] = (np.mean(sol), np.std(sol), np.mean(tot), np.std(tot))
        f_sol, f_sol_std, f_tot, f_tot_std = timings["flime"]
        r_sol, r_sol_std, r_tot, r_tot_std = timings["reference"]
        records.append([
            int(n_periods),
            float(f_sol), float(f_sol_std), float(r_sol), float(r_sol_std),
            float(f_tot), float(f_tot_std), float(r_tot), float(r_tot_std),
            float(r_sol / f_sol), float(r_tot / f_tot),
        ])
        print(f"n_periods={n_periods}: solution quotient {r_sol / f_sol:.2f}, "
              f"total quotient {r_tot / f_tot:.2f}")

    path = Path(outdir) / "bench.csv"
    _write_csv(path, [
        "n_periods",
        "flime_solution_mean_s", "flime_solution_std_s",
        "reference_solution_mean_s", "reference_solution_std_s",
        "flime_total_mean_s", "flime_total_std_s",
        "reference_total_mean_s", "reference_total_std_s",
        "solution_quotient", "total_quotient",
    ], records)
    print(f"wrote {path}")
    print("quotients are reference/flime means; they are hardware dependent "
          "and reported for information only")
    _write_metadata(Path(outdir) / "metadata.json", config, {
        "bench": {"repeats": repeats, "periods": list(periods),
                  "note": "solution time excludes setup; for both solvers it is the "
                          "one-period integration, the period jumps and the lab-frame "
                          "reconstruction, so the quotient measures the formulation, not "
                          "the period jump; total includes basis setup, term building "
                          "and output"}})
    return 0


def cmd_compare(config, outdir):
    config.solver = "both"
    return cmd_evolve(config, outdir)


_COMMANDS = {
    "evolve": cmd_evolve,
    "ness": cmd_ness,
    "spectrum": cmd_spectrum,
    "bench": cmd_bench,
    "compare": cmd_compare,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="flime",
        description="Floquet-Lindblad solver for periodically driven open quantum systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("evolve", "propagate a system and write observable time series"),
        ("ness", "evolve to the periodic steady state and write one cycle"),
        ("spectrum", "compute an emission spectrum from the steady state"),
        ("bench", "time the rate-matrix solver against the direct solver"),
        ("compare", "run both solvers and report their agreement"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config scalar (dotted path)")
        p.add_argument("--out", default=".", help="output directory")

    args = parser.parse_args(argv)
    try:
        raw = load_config(args.config)
        apply_overrides(raw, args.set)
        config = RunConfig(raw)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](config, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
