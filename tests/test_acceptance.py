"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines; the test names themselves carry the criterion numbers.
"""

import json
import time

import numpy as np
import pytest

from flime import (CollapseChannel, FlimePropagator, LiouvillianSpec, OdeTol,
                   ReferencePropagator, brillouin_fold,
                   build_bichromatic, build_driven_2ls_full,
                   build_driven_2ls_rwa, build_pulse_train,
                   build_rotating_frame_2ls, build_terms, compute_basis,
                   correlation_g1, evolve, evolve_direct,
                   evolve_to_ness, floquet_decompose, fold,
                   fourier_coefficients, monodromy, pure_state_density,
                   rwa_steady_state, sigma_minus, spectrum, trace_distance,
                   unfold)
from flime.cli import main as cli_main
from conftest import (assemble, random_density, random_single_harmonic_system,
                      rk4_schrodinger_states)
from oracles import dissipator_bruteforce

_EXC = np.diag([0.0, 1.0]).astype(complex)


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" | {detail}"
    print(line)


class _RecordingPropagator:
    """Wraps a period propagator and records conservation defects of every
    lab-frame state it produces."""

    def __init__(self, inner):
        self.inner = inner
        self.max_trace_defect = 0.0
        self.max_herm_defect = 0.0
        self.min_eigenvalue = np.inf

    @property
    def period(self):
        return self.inner.period

    def start(self, rho0):
        return self.inner.start(rho0)

    def cycle(self, state, taus):
        states, out = self.inner.cycle(state, taus)
        traces = np.einsum("tii->t", states)
        self.max_trace_defect = max(self.max_trace_defect,
                                    float(np.max(np.abs(traces - 1.0))))
        self.max_herm_defect = max(self.max_herm_defect,
                                   float(np.max(np.abs(states - states.conj().transpose(0, 2, 1)))))
        eigs = np.linalg.eigvalsh(0.5 * (states + states.conj().transpose(0, 2, 1)))
        self.min_eigenvalue = min(self.min_eigenvalue, float(np.min(eigs)))
        return states, out


def _conservation(states):
    traces = np.einsum("tii->t", states)
    herm = float(np.max(np.abs(states - states.conj().transpose(0, 2, 1))))
    eigs = np.linalg.eigvalsh(0.5 * (states + states.conj().transpose(0, 2, 1)))
    return float(np.max(np.abs(traces - 1.0))), herm, float(np.min(eigs))


@pytest.fixture(scope="module")
def weak_drive_run():
    """Criterion 1 system: counter-rotating drive at Omega/omega0 = 5e-5,
    decay rate desk-scaled so the steady state is reached well inside the
    5000-period budget."""
    start = time.perf_counter()
    omega0 = 2.0 * np.pi
    rabi = 5e-5 * omega0
    gamma = 40.0 * rabi
    h = build_driven_2ls_full(omega0, omega0, rabi, rabi)
    basis = compute_basis(h)
    rates = build_terms(basis, [CollapseChannel(sigma_minus, gamma)], k_max=6,
                        secular_cutoff=np.inf, coeff_floor=0.0)
    recorder = _RecordingPropagator(FlimePropagator(rates, basis))
    ness = evolve_to_ness(recorder, pure_state_density([1.0, 0.0]), _EXC,
                          conv_tol=1e-8, max_periods=5000, samples_per_period=8)
    return {
        "ness": ness,
        "rabi": rabi,
        "gamma": gamma,
        "recorder": recorder,
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def strong_drive_run():
    """Criterion 2 system: Omega/omega0 = 0.5 on resonance, decay rate
    scaled up so the attractor is reached quickly."""
    start = time.perf_counter()
    omega0 = 2.0 * np.pi
    h = build_driven_2ls_full(omega0, omega0, 0.5 * omega0, 0.5 * omega0)
    gamma = 0.25 * omega0
    basis = compute_basis(h)
    rates = build_terms(basis, [CollapseChannel(sigma_minus, gamma)], k_max=14,
                        secular_cutoff=np.inf, coeff_floor=0.0)
    conv_tol = 1e-7
    runs = []
    for psi in ([1.0, 0.0], [0.6, 0.8j]):
        recorder = _RecordingPropagator(
            FlimePropagator(rates, basis, tol=OdeTol(rtol=1e-9, atol=1e-12)))
        ness = evolve_to_ness(recorder, pure_state_density(psi), _EXC,
                              conv_tol=conv_tol, max_periods=400,
                              samples_per_period=32)
        runs.append((ness, recorder))
    return {"runs": runs, "conv_tol": conv_tol,
            "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def cross_solver_run():
    """Criterion 3: twenty random single-harmonic systems, both solvers."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    tol = OdeTol(rtol=1e-9, atol=1e-12)
    runs = []
    for i in range(20):
        n = 2 if i < 10 else 3
        h, channel = random_single_harmonic_system(rng, n)
        basis = compute_basis(h)
        rates = build_terms(basis, [channel], k_max=12,
                            secular_cutoff=np.inf, coeff_floor=0.0)
        rho0 = random_density(rng, n)
        times = np.linspace(0.0, 10.0 * h.period, 21)
        ours = evolve(rates, basis, rho0, times, tol=tol)
        ref = evolve_direct(LiouvillianSpec(h, (channel,)), rho0, times, tol=tol)
        dist = max(trace_distance(a, b) for a, b in zip(ours.states, ref.states))
        runs.append({"dist": dist, "flime_states": ours.states,
                     "reference_states": ref.states})
    return {"runs": runs, "elapsed": time.perf_counter() - start}


def test_criterion_01_weak_drive_rwa_agreement(weak_drive_run):
    ness = weak_drive_run["ness"]
    expected = rwa_steady_state(weak_drive_run["rabi"], 0.0, weak_drive_run["gamma"])
    rel_err = abs(ness.period_mean - expected) / expected
    elapsed = weak_drive_run["elapsed"]
    ok = (ness.converged and ness.periods_to_converge <= 5000
          and rel_err < 0.01 and elapsed < 60.0)
    _report(1, "weak-drive steady state matches the closed-form value",
            ok, f"rel_err={rel_err:.3%}, periods={ness.periods_to_converge}, "
                f"elapsed={elapsed:.1f}s")
    assert ness.converged and ness.periods_to_converge <= 5000
    assert rel_err < 0.01
    assert elapsed < 60.0


def test_criterion_02_strong_drive_ness_structure(strong_drive_run):
    (ness_a, _), (ness_b, _) = strong_drive_run["runs"]
    conv_tol = strong_drive_run["conv_tol"]
    elapsed = strong_drive_run["elapsed"]
    attractor_gap = float(np.max(np.abs(ness_a.cycle_profile - ness_b.cycle_profile)))
    profile = ness_a.cycle_profile
    swing = (profile.max() - profile.min()) / profile.mean()
    ok = (ness_a.converged and ness_b.converged
          and attractor_gap < 2.0 * conv_tol and swing > 0.10 and elapsed < 120.0)
    _report(2, "strong-drive attractor cycle oscillates within the period",
            ok, f"attractor_gap={attractor_gap:.2e}, swing={swing:.1%}, "
                f"elapsed={elapsed:.1f}s")
    assert ness_a.converged and ness_b.converged
    assert attractor_gap < 2.0 * conv_tol
    assert swing > 0.10
    assert elapsed < 120.0


def test_criterion_03_cross_solver_oracle(cross_solver_run):
    dists = [run["dist"] for run in cross_solver_run["runs"]]
    elapsed = cross_solver_run["elapsed"]
    worst = max(dists)
    ok = worst < 1e-5 and elapsed < 120.0
    _report(3, "rate-matrix solver agrees with the direct solver on 20 random systems",
            ok, f"worst_trace_distance={worst:.2e}, elapsed={elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 120.0


def test_criterion_04_rate_matrix_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(10):
        n = 2 if i < 6 else 3
        k_max = 5 if n == 2 else 3
        h, channel = random_single_harmonic_system(rng, n)
        basis = compute_basis(h)
        rates = build_terms(basis, [channel], k_max=k_max,
                            secular_cutoff=np.inf, coeff_floor=0.0)
        for t in rng.uniform(0.0, 3.0 * h.period, 11):
            rho = random_density(rng, n)
            via_matrix = fold(assemble(rates, t) @ unfold(rho))
            direct = dissipator_bruteforce(basis, [channel], rho, t, k_max=k_max)
            worst = max(worst, float(np.max(np.abs(via_matrix - direct))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    _report(4, "assembled rate matrix equals the tuple-sum dissipator",
            ok, f"worst_elementwise={worst:.2e}, elapsed={elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 30.0


def test_criterion_05_quasienergy_correctness():
    # undriven: energies fold into the first Brillouin zone
    omega0, omega = 1.3, 1.0
    h = build_driven_2ls_rwa(omega0, omega, 0.0)
    eps, _ = floquet_decompose(monodromy(h), omega)
    expected = np.sort([brillouin_fold(-omega0 / 2, omega),
                        brillouin_fold(omega0 / 2, omega)])
    err_fold = float(np.max(np.abs(np.sort(eps) - expected)))

    # resonant drive: dressed splitting equals the drive amplitude modulo omega
    omega0 = 2.0 * np.pi
    rabi = 0.37
    h = build_driven_2ls_rwa(omega0, omega0, rabi)
    eps, _ = floquet_decompose(monodromy(h), omega0)
    err_split = abs(abs(brillouin_fold(eps[1] - eps[0], omega0)) - rabi)

    ok = err_fold < 1e-10 and err_split < 1e-8
    _report(5, "quasienergies fold correctly and reproduce the dressed splitting",
            ok, f"fold_err={err_fold:.2e}, splitting_err={err_split:.2e}")
    assert err_fold < 1e-10
    assert err_split < 1e-8


def test_criterion_06_conservation_suite(weak_drive_run, strong_drive_run,
                                         cross_solver_run):
    worst_trace = 0.0
    worst_herm = 0.0
    worst_eig = np.inf
    recorders = [weak_drive_run["recorder"]]
    recorders += [rec for _, rec in strong_drive_run["runs"]]
    for rec in recorders:
        worst_trace = max(worst_trace, rec.max_trace_defect)
        worst_herm = max(worst_herm, rec.max_herm_defect)
        worst_eig = min(worst_eig, rec.min_eigenvalue)
    for run in cross_solver_run["runs"]:
        for states in (run["flime_states"], run["reference_states"]):
            tr, he, ev = _conservation(states)
            worst_trace = max(worst_trace, tr)
            worst_herm = max(worst_herm, he)
            worst_eig = min(worst_eig, ev)
    ok = worst_trace < 1e-8 and worst_herm < 1e-8 and worst_eig > -1e-7
    _report(6, "trace, Hermiticity and positivity preserved across criteria 1-3",
            ok, f"trace={worst_trace:.2e}, herm={worst_herm:.2e}, min_eig={worst_eig:.2e}")
    assert worst_trace < 1e-8
    assert worst_herm < 1e-8
    assert worst_eig > -1e-7


def test_criterion_07_secular_approximation_qualitative():
    start = time.perf_counter()
    lifetime = 2.0
    gamma = 1.0 / lifetime
    period = lifetime / 20.0
    h = build_pulse_train(0.0, period, sigma=period / 16.0, n_harmonics=40)
    basis = compute_basis(h, n_samples=1024)
    channel = CollapseChannel(sigma_minus, gamma)
    n_periods, spp = 30, 50
    times = np.linspace(0.0, n_periods * period, n_periods * spp + 1)
    rho0 = pure_state_density([1.0, 0.0])
    tol = OdeTol(rtol=1e-9, atol=1e-12)

    populations = {}
    for name, cutoff in (("secular", 0.0), ("full", np.inf)):
        rates = build_terms(basis, [channel], k_max=50, secular_cutoff=cutoff)
        result = evolve(rates, basis, rho0, times, tol=tol)
        populations[name] = result.expectation(_EXC).real

    # secular run: after each pulse the currently higher state relaxes toward
    # equal populations, whichever state it is
    p = populations["secular"]
    exc_decays = gnd_decays = 0
    for n in range(1, 16):
        seg = p[n * spp + 5:n * spp + 16]
        higher_is_excited = seg[0] > 0.5
        prof = seg if higher_is_excited else 1.0 - seg
        gap = prof[0] - 0.5
        decays = (gap > 0.02 and np.all(np.diff(prof) <= 1e-5)
                  and (prof[0] - prof[-1]) > 0.5 * gap)
        if decays and higher_is_excited:
            exc_decays += 1
        elif decays:
            gnd_decays += 1

    # full run: between every pair of pulses the excited population is
    # strictly decaying on the interval midsection
    p = populations["full"]
    violations = 0
    for n in range(1, n_periods - 1):
        seg = p[n * spp + 15:n * spp + 36]
        diffs = np.diff(seg)
        violations += int(np.any((seg[:-1] > 0.02) & (diffs >= 0.0)))

    elapsed = time.perf_counter() - start
    ok = exc_decays > 0 and gnd_decays > 0 and violations == 0 and elapsed < 120.0
    _report(7, "pulse train: secular equalizes the higher state, full cutoff decays the excited state",
            ok, f"higher-excited-decays={exc_decays}, higher-ground-decays={gnd_decays}, "
                f"full-run-violations={violations}, elapsed={elapsed:.1f}s")
    assert exc_decays > 0 and gnd_decays > 0
    assert violations == 0
    assert elapsed < 120.0


def test_criterion_08_mollow_sidebands():
    start = time.perf_counter()
    gamma, rabi = 1.0, 20.0
    tol = OdeTol(rtol=1e-10, atol=1e-13)

    # monochromatic resonant drive in its rotating frame
    h = build_rotating_frame_2ls(0.0, rabi, rabi)
    spec = LiouvillianSpec(h, (CollapseChannel(sigma_minus, gamma),))
    prop = ReferencePropagator(spec, tol=tol)
    ness = evolve_to_ness(prop, pure_state_density([1.0, 0.0]), _EXC,
                          conv_tol=1e-10, max_periods=300, samples_per_period=8)
    taus = np.linspace(0.0, 60.0 / gamma, 1201)
    g1 = correlation_g1(spec, ness.cycle_states[0], sigma_minus, taus, tol=tol)
    bin_width = gamma / 8.0
    det = np.arange(-1.5 * rabi, 1.5 * rabi + bin_width / 2, bin_width)
    mono = spectrum(g1, taus, detunings=det).intensities
    peaks = [det[i] for i in range(1, det.size - 1)
             if mono[i] > mono[i - 1] and mono[i] > mono[i + 1]
             and mono[i] > 0.02 * mono.max()]
    mono_err = max(min(abs(p - target) for p in peaks)
                   for target in (-rabi, 0.0, rabi))

    # second laser parked on the left sideband of the first
    rabi2 = 6.0
    h2 = build_bichromatic(rabi / 2.0, -rabi, rabi, rabi2)
    spec2 = LiouvillianSpec(h2, (CollapseChannel(sigma_minus, gamma),))
    prop2 = ReferencePropagator(spec2, tol=OdeTol(rtol=1e-9, atol=1e-12))
    ness2 = evolve_to_ness(prop2, pure_state_density([1.0, 0.0]), _EXC,
                           conv_tol=1e-8, max_periods=400, samples_per_period=16)
    taus2 = np.linspace(0.0, 60.0 / gamma, 1501)
    g1_2 = correlation_g1(spec2, ness2.cycle_states[0], sigma_minus, taus2,
                          tol=OdeTol(rtol=1e-9, atol=1e-12))
    det2 = np.arange(-45.0, 45.0001, bin_width / 2.0)
    bi = spectrum(g1_2, taus2, detunings=det2).intensities
    # sideband the second laser sits on, at -rabi/2 in the mean-laser frame
    region = (det2 > -rabi / 2.0 - 0.8 * rabi2) & (det2 < -rabi / 2.0 + 0.8 * rabi2)
    sub, dd = bi[region], det2[region]
    local_maxima = [dd[i] for i in range(1, sub.size - 1)
                    if sub[i] > sub[i - 1] and sub[i] > sub[i + 1]
                    and sub[i] > 0.05 * sub.max()]

    elapsed = time.perf_counter() - start
    ok = (mono_err <= bin_width and len(local_maxima) >= 2 and elapsed < 180.0)
    _report(8, "Mollow peaks at 0 and +-Omega, tuned second laser splits the sideband",
            ok, f"peak_err={mono_err:.3f} (bin={bin_width}), "
                f"sideband_maxima={len(local_maxima)}, elapsed={elapsed:.1f}s")
    assert mono_err <= bin_width
    assert len(local_maxima) >= 2
    assert elapsed < 180.0


def test_criterion_09_closed_system_limit():
    omega0 = 2.0 * np.pi
    systems = [
        ("strong drive", build_driven_2ls_full(omega0, omega0, 0.5 * omega0, 0.5 * omega0), 256, 14),
        ("two lasers", build_bichromatic(1.1, 3.0, 1.3, 0.7), 256, 14),
        ("pulse train", build_pulse_train(0.4, 0.1, sigma=0.1 / 16.0, n_harmonics=40), 1024, 50),
    ]
    worst = 0.0
    for name, h, n_samples, k_max in systems:
        basis = compute_basis(h, n_samples=n_samples)
        rates = build_terms(basis, [CollapseChannel(sigma_minus, 0.0)],
                            k_max=k_max, secular_cutoff=np.inf)
        psi0 = np.array([0.8, 0.6])
        times = np.linspace(0.0, 10.0 * h.period, 21)
        result = evolve(rates, basis, pure_state_density(psi0), times,
                        tol=OdeTol(rtol=1e-10, atol=1e-13))
        oracle = rk4_schrodinger_states(h, psi0, times)
        dist = max(trace_distance(a, b) for a, b in zip(result.states, oracle))
        worst = max(worst, dist)
    ok = worst < 1e-7
    _report(9, "zero-decay evolution matches direct coherent integration",
            ok, f"worst_trace_distance={worst:.2e}")
    assert worst < 1e-7


def test_criterion_10_lamb_shift_vanishes():
    # with a constant real half-rate coupling, the coherent correction
    # (1/2)(L0^dag S - S^dag L0) built from the decomposed operators is
    # identically zero; kept as a regression guard for that cancellation
    omega0 = 2.0 * np.pi
    gamma = 0.3
    h = build_driven_2ls_rwa(omega0, omega0, 0.8)
    basis = compute_basis(h)
    k_max = 5
    four = fourier_coefficients(basis, sigma_minus, k_max)
    eps = basis.quasienergies
    worst = 0.0
    for t in (0.0, 0.21, 0.75, 1.4):
        s_t = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                for k in range(-k_max, k_max + 1):
                    phase = np.exp(1j * (eps[a] - eps[b] + k * basis.omega) * t)
                    s_t[a, b] += four.coeffs[a, b, k + k_max] * phase
        l0_t = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                for k in range(-k_max, k_max + 1):
                    phase = np.exp(1j * (eps[a] - eps[b] + k * basis.omega) * t)
                    l0_t[a, b] += 0.5 * gamma * four.coeffs[a, b, k + k_max] * phase
        h_ls = 0.5 * (l0_t.conj().T @ s_t - s_t.conj().T @ l0_t)
        worst = max(worst, float(np.max(np.abs(h_ls))))
    ok = worst < 1e-14
    _report(10, "coherent correction vanishes for constant real coupling",
            ok, f"max_element={worst:.2e}")
    assert worst < 1e-14


def test_criterion_11_benchmark_methodology(tmp_path):
    start = time.perf_counter()
    config = {
        "system": {"kind": "driven_2ls_full", "omega0": 2 * np.pi,
                   "omega": 2 * np.pi, "Omega": np.pi, "Omega_tilde": np.pi},
        "channels": [{"operator": "sigma_minus", "rate": 0.5}],
        "solver": "both",
        "secular_cutoff": 0.0,
        "k_max": 10,
        "tolerances": {"rtol": 1e-5, "atol": 1e-8},
        "bench": {"periods": [10, 100, 1000, 10000], "repeats": 3,
                  "samples_total": 50},
    }
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    rc = cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    ok_structure = (
        len(rows) == 5
        and header[0] == "n_periods"
        and "flime_solution_mean_s" in header
        and "reference_solution_mean_s" in header
        and "solution_quotient" in header
        and "total_quotient" in header
    )
    quotients = []
    for row in rows[1:]:
        vals = dict(zip(header, row.split(",")))
        quotients.append(float(vals["solution_quotient"]))
        assert float(vals["flime_solution_std_s"]) >= 0.0
        assert float(vals["reference_solution_std_s"]) >= 0.0
    elapsed = time.perf_counter() - start
    # quotients are hardware dependent; reported, not asserted
    ok = ok_structure and all(q > 0 for q in quotients)
    _report(11, "benchmark harness emits the timing table with quotient columns",
            ok, f"quotients={['%.1f' % q for q in quotients]}, elapsed={elapsed:.1f}s")
    assert ok_structure
    assert all(q > 0 for q in quotients)
