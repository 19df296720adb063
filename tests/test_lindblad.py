import numpy as np
import pytest
import scipy.linalg

import flime.lindblad as lindblad_mod
from flime import (CollapseChannel, LiouvillianSpec, OdeTol, PeriodicHamiltonian,
                   build_driven_2ls_full, build_rotating_frame_2ls, build_terms,
                   compute_basis, evolve, evolve_direct, fold,
                   pure_state_density, sigma_minus, trace_distance, unfold)
from conftest import (random_density, random_single_harmonic_system,
                      rk4_schrodinger_states)
from oracles import liouvillian_at, matrix_rhs


class TestLiouvillian:
    def test_amplitude_damping_rate(self):
        h = PeriodicHamiltonian(1.0, np.zeros((2, 2)))
        gamma = 0.37
        spec = LiouvillianSpec(h, (CollapseChannel(sigma_minus, gamma),))
        rho = np.diag([0.0, 1.0]).astype(complex)
        drho = fold(liouvillian_at(spec, 0.0) @ unfold(rho))
        assert drho[1, 1].real == pytest.approx(-gamma)
        assert drho[0, 0].real == pytest.approx(gamma)

    def test_coherent_only_form(self, rng):
        h, _ = random_single_harmonic_system(rng, 3, with_channel=False)
        spec = LiouvillianSpec(h, ())
        t = 0.83
        hm = h(t)
        eye = np.eye(3)
        expected = -1j * (np.kron(eye, hm) - np.kron(hm.T, eye))
        assert np.max(np.abs(liouvillian_at(spec, t) - expected)) < 1e-14

    def test_action_matches_bruteforce_expression(self, rng):
        h, channel = random_single_harmonic_system(rng, 3)
        spec = LiouvillianSpec(h, (channel,))
        for t in rng.uniform(0.0, 5.0, 5):
            rho = random_density(rng, 3)
            hm = h(t)
            s, rate = channel.operator, channel.rate
            direct = (-1j * (hm @ rho - rho @ hm)
                      + rate * (s @ rho @ s.conj().T
                                - 0.5 * (s.conj().T @ s @ rho + rho @ s.conj().T @ s)))
            via = fold(liouvillian_at(spec, t) @ unfold(rho))
            assert np.max(np.abs(via - direct)) < 1e-13

    def test_trace_preservation_left_null_vector(self, rng):
        h, channel = random_single_harmonic_system(rng, 3)
        spec = LiouvillianSpec(h, (channel,))
        trace_vec = unfold(np.eye(3, dtype=complex)).conj()
        for t in [0.0, 0.61, 3.2]:
            assert np.max(np.abs(trace_vec @ liouvillian_at(spec, t))) < 1e-12

    def test_matrix_rhs_equals_liouvillian_action(self, rng):
        h, channel = random_single_harmonic_system(rng, 2)
        spec = LiouvillianSpec(h, (channel,))
        rhs = matrix_rhs(spec)
        for t in rng.uniform(0.0, 4.0, 5):
            v = unfold(random_density(rng, 2))
            assert np.max(np.abs(rhs(t, v) - liouvillian_at(spec, t) @ v)) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generator_matrix_matches_kronecker_oracle(self, rng, n):
        # one time, as the sequential side asks, and many, as the slices do
        h, channel = random_single_harmonic_system(rng, n)
        spec = LiouvillianSpec(h, (channel, CollapseChannel(np.eye(n), 0.0)))
        at = lindblad_mod._liouvillian(spec)
        times = rng.uniform(0.0, 4.0, 5)
        oracle = np.array([liouvillian_at(spec, t) for t in times])
        # the times are the trailing axes
        assert np.max(np.abs(np.moveaxis(at(times), -1, 0) - oracle)) < 1e-13
        for t, ref in zip(times, oracle):
            assert np.max(np.abs(at(float(t)) - ref)) < 1e-13

    def test_dimension_mismatch_rejected(self):
        h = PeriodicHamiltonian(1.0, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="does not match"):
            LiouvillianSpec(h, (CollapseChannel(np.eye(3), 0.1),))


class TestEvolveDirect:
    def test_damped_rabi_against_exponential_oracle(self):
        # static rotating-frame drive: the generator is constant, so the
        # matrix exponential is an independent closed-form propagator
        h = build_rotating_frame_2ls(0.2, 0.9, 2.0)
        spec = LiouvillianSpec(h, (CollapseChannel(sigma_minus, 0.3),))
        ell = liouvillian_at(spec, 0.0)
        rho0 = pure_state_density([1.0, 0.0])
        times = np.linspace(0.0, 20.0, 21)
        result = evolve_direct(spec, rho0, times, tol=OdeTol(rtol=1e-10, atol=1e-13))
        for t, state in zip(times, result.states):
            oracle = fold(scipy.linalg.expm(ell * t) @ unfold(rho0))
            assert trace_distance(state, oracle) < 1e-7

    def test_closed_system_matches_schrodinger(self, rng):
        h, _ = random_single_harmonic_system(rng, 2, with_channel=False)
        spec = LiouvillianSpec(h, ())
        psi0 = np.array([0.6, 0.8])
        times = np.linspace(0.0, 5 * h.period, 11)
        result = evolve_direct(spec, pure_state_density(psi0), times,
                               tol=OdeTol(rtol=1e-10, atol=1e-13))
        oracle = rk4_schrodinger_states(h, psi0, times)
        dist = max(trace_distance(a, b) for a, b in zip(result.states, oracle))
        assert dist < 1e-8

    def test_cross_solver_strong_drive_long_run(self):
        # drive at half the transition frequency, 100 periods
        omega0 = 2 * np.pi
        h = build_driven_2ls_full(omega0, omega0, 0.5 * omega0, 0.5 * omega0)
        channel = CollapseChannel(sigma_minus, 0.15)
        basis = compute_basis(h)
        rates = build_terms(basis, [channel], k_max=12,
                            secular_cutoff=np.inf, coeff_floor=0.0)
        rho0 = pure_state_density([1.0, 0.0])
        times = np.linspace(0.0, 100 * h.period, 41)
        tol = OdeTol(rtol=1e-9, atol=1e-12)
        ours = evolve(rates, basis, rho0, times, tol=tol)
        ref = evolve_direct(LiouvillianSpec(h, (channel,)), rho0, times, tol=tol)
        dist = max(trace_distance(a, b) for a, b in zip(ours.states, ref.states))
        assert dist < 1e-5

    def test_conservation(self, rng):
        h, channel = random_single_harmonic_system(rng, 3)
        spec = LiouvillianSpec(h, (channel,))
        times = np.linspace(0.0, 10 * h.period, 21)
        result = evolve_direct(spec, random_density(rng, 3), times)
        assert result.diagnostics.max_trace_defect < 1e-8
        assert result.diagnostics.max_hermiticity_defect < 1e-8

    def test_input_validation(self):
        h = PeriodicHamiltonian(1.0, np.zeros((2, 2)))
        spec = LiouvillianSpec(h, ())
        good = pure_state_density([1.0, 0.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            evolve_direct(spec, good, [1.0, 0.5])
        with pytest.raises(ValueError, match="nonnegative"):
            evolve_direct(spec, good, [-0.5, 0.5])
