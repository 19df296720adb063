"""Propagation by the one-period map against full-span stepping.

The oracle integrates the Floquet-picture supervector ODE over the whole
time span with the same right-hand side, then rotates to the lab frame with
the Floquet state matrix at every output time; the period map integrates one
period only and jumps whole periods.
"""

import numpy as np
import pytest

import flime.solver as solver_mod
from flime import (CollapseChannel, FlimePropagator, OdeTol, build_bichromatic,
                   build_driven_2ls_full, build_driven_2ls_rwa, build_terms,
                   compute_basis, correlation_g1, evolve, pure_state_density,
                   sigma_minus, unfold)
from flime.integrate import integrate_adaptive
from flime.qops import trace_distance
from conftest import random_density, random_single_harmonic_system

TOL = OdeTol(rtol=1e-10, atol=1e-12)
ORACLE_TOL = OdeTol(rtol=1e-11, atol=1e-13)


def _oracle(rates, basis, rho0, times):
    """Lab-frame and Floquet-picture states from full-span stepping."""
    n = basis.dim
    v0 = unfold(basis.modes0.conj().T @ rho0 @ basis.modes0)
    max_step = solver_mod._max_step_abs(ORACLE_TOL, basis.period, rates.deltas.size > 0)
    vecs, _ = integrate_adaptive(solver_mod._make_rhs(rates, basis), 0.0, v0, times,
                                 rtol=ORACLE_TOL.rtol, atol=ORACLE_TOL.atol, max_step=max_step)
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
    _, _, stats, (nodes, tail) = solver_mod._propagate(rates, basis, v0, taus, tol)
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
    lab, images, stats, (nodes, tail) = solver_mod._propagate(rates, basis, block, taus, tol)
    assert (nodes, tail) == (0, 0.0)
    _exact_stops(monkeypatch)
    lab_exact, images_exact, stats_exact, _ = solver_mod._propagate(rates, basis, block, taus, tol)
    np.testing.assert_array_equal(lab, lab_exact)
    np.testing.assert_array_equal(images, images_exact)
    # the counts include the rejected 65-node attempt
    assert stats.rhs_evals > stats_exact.rhs_evals
