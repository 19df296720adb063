"""Propagation by the one-period map against full-span stepping.

Both generators, the rate matrix and the direct lab-frame Lindbladian, are
propagated by the one-period map: one period is integrated and whole
periods are jumped.  The rate-matrix oracle integrates the Floquet-picture
supervector ODE over the whole time span with the same right-hand side,
then rotates to the lab frame with the Floquet state matrix at every output
time; the direct oracle (``oracles.direct_full_span``) steps the lab-frame
master equation over the whole span.
"""

import numpy as np
import pytest

import flime.analysis as analysis_mod
import flime.lindblad as lindblad_mod
import flime.solver as solver_mod
from flime import (CollapseChannel, FlimePropagator, LiouvillianSpec, OdeTol,
                   PeriodicHamiltonian, ReferencePropagator, build_bichromatic,
                   build_driven_2ls_full, build_driven_2ls_rwa, build_pulse_train,
                   build_terms, compute_basis, correlation_g1, evolve, evolve_direct,
                   pure_state_density, sigma_minus, unfold)
from flime.integrate import integrate_adaptive
from flime.lindblad import matrix_rhs
from flime.qops import trace_distance
from conftest import random_density, random_single_harmonic_system
from oracles import direct_full_span

TOL = OdeTol(rtol=1e-10, atol=1e-12)
ORACLE_TOL = OdeTol(rtol=1e-11, atol=1e-13)


def _oracle(rates, basis, rho0, times):
    """Lab-frame and Floquet-picture states from full-span stepping."""
    n = basis.dim
    v0 = unfold(basis.modes0.conj().T @ rho0 @ basis.modes0)
    gen = solver_mod._rate_generator(rates, basis)
    vecs, _ = integrate_adaptive(gen.rhs, 0.0, v0, times, rtol=ORACLE_TOL.rtol,
                                 atol=ORACLE_TOL.atol, max_step=gen.max_step)
    rho_f = vecs.reshape(-1, n, n).transpose(0, 2, 1)
    w = basis.modes_at_many(times) * np.exp(-1j * np.outer(times, basis.quasienergies))[:, None, :]
    return w @ rho_f @ w.conj().transpose(0, 2, 1), rho_f


def _system(name):
    """Hamiltonian, channel, initial state and a cutoff that drops some but
    not all oscillating terms."""
    if name == "2ls":
        h = build_driven_2ls_rwa(2 * np.pi, 2 * np.pi, 1.0)
        return h, CollapseChannel(sigma_minus, 0.3), pure_state_density([0.6, 0.8j]), 5.0
    rng = np.random.default_rng(31)
    h, channel = random_single_harmonic_system(rng, 3)
    return h, channel, random_density(rng, 3), 50.0


def _grid(name, period):
    rng = np.random.default_rng(5)
    if name == "uniform":
        return np.arange(50 * 4 + 1) * (period / 4)
    if name == "irregular":
        return np.sort(rng.uniform(0.0, 7.3 * period, 15))
    if name == "first-period":
        return np.concatenate(([0.0], np.sort(rng.uniform(0.0, period, 6))))
    # more distinct phases than Chebyshev nodes: interpolated, not stopped at
    if name == "dense":
        return np.sort(rng.uniform(0.0, 7.3 * period, 400))
    if name == "dense-first-period":
        return np.sort(rng.uniform(0.0, period, 200))
    return np.linspace(2.5 * period, 12.5 * period, 21)


@pytest.fixture(scope="module", params=["2ls", "n3"])
def system(request):
    h, channel, rho0, filtered_cutoff = _system(request.param)
    return h, compute_basis(h), channel, rho0, filtered_cutoff


@pytest.mark.parametrize("grid", ["uniform", "irregular", "first-period", "after-zero",
                                  "dense", "dense-first-period"])
@pytest.mark.parametrize("rate_set", ["complete", "filtered", "static"])
def test_matches_full_span_stepping(system, rate_set, grid):
    h, basis, channel, rho0, filtered_cutoff = system
    if rate_set == "complete":
        rates = build_terms(basis, [channel], k_max=5, secular_cutoff=np.inf, coeff_floor=0.0)
        assert rates.dropped_count == 0
    elif rate_set == "filtered":
        rates = build_terms(basis, [channel], k_max=5, secular_cutoff=filtered_cutoff)
        assert rates.kept_oscillating > 0 and rates.dropped_count > 0
    else:
        rates = build_terms(basis, [channel], k_max=5, secular_cutoff=0.0)
        assert rates.n_frequency_groups == 0
    times = _grid(grid, h.period)
    ours = evolve(rates, basis, rho0, times, tol=TOL, store_floquet=True)
    lab, rho_f = _oracle(rates, basis, rho0, times)
    assert max(trace_distance(a, b) for a, b in zip(ours.states, lab)) <= 1e-9
    # store_floquet still returns Floquet-picture (not rotated-frame) states
    assert np.max(np.abs(ours.floquet_states - rho_f)) <= 1e-9
    assert (ours.diagnostics.phase_nodes > 0) == grid.startswith("dense")


def test_phases_snap_to_the_grid():
    period = compute_basis(build_driven_2ls_rwa(2 * np.pi, 2 * np.pi, 1.0)).period
    times = np.arange(10_001) * (period / 10)
    # t mod T alone scatters by a few ulps around each of the ten phases
    assert np.unique(np.mod(times, period)).size > 10
    periods, phases, index = solver_mod._split_phases(times, period)
    assert phases.size == 10
    np.testing.assert_allclose(phases, np.arange(10) * (period / 10), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(periods, np.arange(10_001) // 10)
    np.testing.assert_array_equal(index, np.arange(10_001) % 10)


def test_long_run_costs_one_period_of_steps():
    omega = 2 * np.pi
    h = build_driven_2ls_full(omega, omega, np.pi, np.pi)
    basis = compute_basis(h)
    rates = build_terms(basis, [CollapseChannel(sigma_minus, 0.05)], k_max=14,
                        secular_cutoff=np.inf, coeff_floor=0.0)
    times = np.linspace(0.0, 1000 * h.period, 1001)
    res = evolve(rates, basis, pure_state_density([1.0, 0.0]), times,
                 tol=OdeTol(rtol=1e-8, atol=1e-10))
    # stepping every period took about 27 000 steps
    assert 0 < res.diagnostics.steps_accepted < 100
    assert res.diagnostics.max_trace_defect < 1e-10


def test_propagator_cycle_matches_evolve(system):
    h, basis, channel, rho0, _ = system
    rates = build_terms(basis, [channel], k_max=5, secular_cutoff=np.inf, coeff_floor=0.0)
    taus = np.arange(8) * (h.period / 8)
    prop = FlimePropagator(rates, basis, tol=TOL)
    state = prop.start(rho0)
    cycles = {}
    for n in range(38):
        cycles[n], state = prop.cycle(state, n, taus)
    checked = (0, 1, 37)
    times = np.concatenate([n * h.period + taus for n in checked])
    ref = evolve(rates, basis, rho0, times, tol=TOL).states.reshape(len(checked), taus.size, *rho0.shape)
    for k, n in enumerate(checked):
        assert max(trace_distance(a, b) for a, b in zip(cycles[n], ref[k])) <= 1e-9


def _bichromatic():
    """The bichromatic system of the ness-spectrum benchmark (T = 0.628)."""
    h = build_bichromatic(10.0, -20.0, 20.0, 6.0)
    basis = compute_basis(h)
    rates = build_terms(basis, [CollapseChannel(sigma_minus, 1.0)], k_max=14,
                        secular_cutoff=np.inf, coeff_floor=0.0)
    return rates, basis


def _exact_stops(monkeypatch):
    """Make every output phase a stop of the integrator."""
    monkeypatch.setattr(solver_mod, "_CHEB_NODES", 1 << 30)


def test_many_phases_take_few_steps(monkeypatch):
    rates, basis = _bichromatic()
    tol = OdeTol(rtol=1e-9, atol=1e-12)
    taus = np.linspace(0.0, 60.0, 2048)
    state = pure_state_density([0.6, 0.8j])
    v0 = unfold(basis.modes0.conj().T @ state @ basis.modes0)[:, None]
    gen = solver_mod._rate_generator(rates, basis)
    _, _, stats, (nodes, tail) = solver_mod._propagate(gen, v0, taus, tol)
    # stopping at each of the 2048 phases took at least 2048 steps
    assert stats.steps_accepted < 400
    assert nodes > 0 and tail <= tol.rtol
    g1 = correlation_g1((rates, basis), state, sigma_minus, taus, tol=tol)
    _exact_stops(monkeypatch)
    exact = correlation_g1((rates, basis), state, sigma_minus, taus, tol=tol)
    assert np.max(np.abs(g1 - exact)) <= 1e-9


def test_failed_tail_falls_back_to_exact_stops(monkeypatch):
    rates, basis = _bichromatic()
    tol = OdeTol(rtol=1e-13, atol=1e-15)
    # 101 stops: more than 65 nodes, fewer than the 129 of the next try
    taus = np.linspace(0.0, 6.0, 100)
    block = np.eye(4, dtype=complex)
    gen = solver_mod._rate_generator(rates, basis)
    lab, images, stats, (nodes, tail) = solver_mod._propagate(gen, block, taus, tol)
    assert (nodes, tail) == (0, 0.0)
    _exact_stops(monkeypatch)
    lab_exact, images_exact, stats_exact, _ = solver_mod._propagate(gen, block, taus, tol)
    np.testing.assert_array_equal(lab, lab_exact)
    np.testing.assert_array_equal(images, images_exact)
    # the counts include the rejected 65-node attempt
    assert stats.rhs_evals > stats_exact.rhs_evals


def _direct_system(name):
    """A lab-frame system and its initial state."""
    if name == "criterion-11":
        h = build_driven_2ls_full(2 * np.pi, 2 * np.pi, np.pi, np.pi)
        return LiouvillianSpec(h, (CollapseChannel(sigma_minus, 0.5),)), pure_state_density([0.6, 0.8j])
    if name == "n3":
        rng = np.random.default_rng(31)
        h, channel = random_single_harmonic_system(rng, 3)
        return LiouvillianSpec(h, (channel,)), random_density(rng, 3)
    if name == "pulse-train":
        h = build_pulse_train(0.3, 1.0, n_harmonics=40)
        return LiouvillianSpec(h, (CollapseChannel(sigma_minus, 0.05),)), pure_state_density([1.0, 0.0])
    h = PeriodicHamiltonian(2 * np.pi, 0.5 * np.array([[0.2, 0.9], [0.9, -0.2]], dtype=complex))
    return LiouvillianSpec(h, (CollapseChannel(sigma_minus, 0.3),)), pure_state_density([0.6, 0.8])


_DIRECT_SYSTEMS = ["criterion-11", "n3", "pulse-train", "static"]


def test_direct_block_rhs_matches_vector_calls():
    spec, _ = _direct_system("n3")
    rng = np.random.default_rng(7)
    rhs = matrix_rhs(spec)
    h = spec.hamiltonian
    s, rate = spec.channels[0].operator, spec.channels[0].rate
    sd, sds = s.conj().T, s.conj().T @ s
    block = np.stack([unfold(random_density(rng, 3)) for _ in range(4)], axis=1)
    for t in rng.uniform(0.0, 4.0, 3):
        # one column: the single-matrix formula, operation for operation
        rho = block[:, 0].reshape(3, 3).T
        hm = h(t)
        drho = -1j * (hm @ rho - rho @ hm)
        drho += rate * (s @ rho @ sd - 0.5 * (sds @ rho + rho @ sds))
        np.testing.assert_array_equal(rhs(t, block[:, :1].ravel()), drho.T.ravel())
        # several columns: each as its own call
        out = rhs(t, block.ravel()).reshape(9, 4)
        for c in range(4):
            np.testing.assert_array_equal(out[:, c], rhs(t, block[:, c]))


@pytest.mark.parametrize("grid", ["uniform", "irregular", "first-period", "dense"])
@pytest.mark.parametrize("name", _DIRECT_SYSTEMS)
def test_direct_solver_matches_full_span_stepping(name, grid):
    spec, rho0 = _direct_system(name)
    times = _grid(grid, spec.hamiltonian.period)
    ours = evolve_direct(spec, rho0, times, tol=ORACLE_TOL)
    ref = direct_full_span(spec, rho0, times, ORACLE_TOL)
    assert max(trace_distance(a, b) for a, b in zip(ours.states, ref)) <= 1e-9
    assert (ours.diagnostics.phase_nodes > 0) == (grid == "dense")


@pytest.mark.parametrize("n_taus", [8, 100])
@pytest.mark.parametrize("name", _DIRECT_SYSTEMS)
def test_reference_cycle_matches_full_span_stepping(name, n_taus):
    spec, rho0 = _direct_system(name)
    period = spec.hamiltonian.period
    # 100 taus take the Chebyshev path
    taus = np.arange(n_taus) * (period / n_taus)
    prop = ReferencePropagator(spec, tol=ORACLE_TOL)
    state = prop.start(rho0)
    cycles = {}
    for n in range(13):
        cycles[n], state = prop.cycle(state, n, taus)
    checked = (0, 1, 12)
    times = np.concatenate([n * period + taus for n in checked])
    ref = direct_full_span(spec, rho0, times, ORACLE_TOL).reshape(len(checked), n_taus, *rho0.shape)
    for k, n in enumerate(checked):
        assert max(trace_distance(a, b) for a, b in zip(cycles[n], ref[k])) <= 1e-9


def test_max_step_reaches_the_integrator(monkeypatch):
    spec, rho0 = _direct_system("criterion-11")
    basis = compute_basis(spec.hamiltonian)
    rates = build_terms(basis, spec.channels, k_max=5, secular_cutoff=np.inf, coeff_floor=0.0)
    tol = OdeTol(rtol=1e-9, atol=1e-12, max_step=0.05)
    taus = np.linspace(0.0, 3.0, 31)
    recorded = []

    def recording(*args, **kwargs):
        recorded.append(kwargs.get("max_step", np.inf))
        return integrate_adaptive(*args, **kwargs)

    for module in (solver_mod, analysis_mod, lindblad_mod):
        monkeypatch.setattr(module, "integrate_adaptive", recording)
    runs = {
        "direct g1": lambda: correlation_g1(spec, rho0, sigma_minus, taus, tol=tol),
        "rates g1": lambda: correlation_g1((rates, basis), rho0, sigma_minus, taus, tol=tol),
        "evolve_direct": lambda: evolve_direct(spec, rho0, taus, tol=tol),
        "reference cycle": lambda: ReferencePropagator(spec, tol).cycle(unfold(rho0), 0, taus[:4]),
    }
    for name, run in runs.items():
        recorded.clear()
        run()
        assert recorded and all(m == 0.05 * spec.hamiltonian.period for m in recorded), name
