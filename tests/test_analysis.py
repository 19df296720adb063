import tracemalloc

import numpy as np
import pytest

from flime import (CollapseChannel, FlimePropagator, LiouvillianSpec, OdeTol,
                   PeriodicHamiltonian, ReferencePropagator,
                   build_driven_2ls_full, build_rotating_frame_2ls, build_terms,
                   compute_basis, correlation_g1, evolve_to_ness,
                   pure_state_density, rwa_steady_state, sigma_minus, spectrum,
                   trace_distance)

_EXC = np.diag([0.0, 1.0]).astype(complex)


class TestRwaSteadyState:
    def test_saturation_limit(self):
        assert rwa_steady_state(1e6, 0.0, 1.0) == pytest.approx(0.5, abs=1e-6)

    def test_rabi_equals_gamma_on_resonance(self):
        assert rwa_steady_state(1.0, 0.0, 1.0) == pytest.approx(1.0 / 3.0)

    def test_rabi_equals_gamma_equals_detuning(self):
        assert rwa_steady_state(1.0, 1.0, 1.0) == pytest.approx(1.0 / 7.0)

    def test_undefined_for_all_zero(self):
        with pytest.raises(ValueError, match="undefined"):
            rwa_steady_state(0.0, 0.0, 0.0)

    def test_range(self, rng):
        for _ in range(50):
            val = rwa_steady_state(rng.uniform(0, 10), rng.uniform(-5, 5),
                                   rng.uniform(1e-3, 10))
            assert 0.0 <= val < 0.5


def _damped_static_propagator(gamma=0.8):
    h = PeriodicHamiltonian(2 * np.pi, 0.5 * np.diag([-1.0, 1.0]))
    spec = LiouvillianSpec(h, (CollapseChannel(sigma_minus, gamma),))
    return ReferencePropagator(spec)


class TestEvolveToNess:
    def test_static_decay_to_ground(self):
        prop = _damped_static_propagator(gamma=0.8)
        result = evolve_to_ness(prop, pure_state_density([0.0, 1.0]), _EXC,
                                conv_tol=1e-9, max_periods=100, samples_per_period=8)
        assert result.converged
        assert result.period_mean < 1e-7
        assert result.residual < 1e-9
        # convergence within roughly ten decay times
        assert result.periods_to_converge * prop.period < 10.0 / 0.8 * 4

    def test_max_periods_exhausted_flags_not_converged(self):
        prop = _damped_static_propagator(gamma=0.01)
        result = evolve_to_ness(prop, pure_state_density([0.0, 1.0]), _EXC,
                                conv_tol=1e-12, max_periods=5)
        assert not result.converged
        assert result.periods_to_converge == 5

    def test_attractor_is_initial_state_independent(self):
        omega0 = 2 * np.pi
        h = build_driven_2ls_full(omega0, omega0, 0.5 * omega0, 0.5 * omega0)
        spec = LiouvillianSpec(h, (CollapseChannel(sigma_minus, 0.25 * omega0),))
        conv_tol = 1e-7
        cycles = []
        for psi in ([1.0, 0.0], [0.6, 0.8j]):
            prop = ReferencePropagator(spec, tol=OdeTol(rtol=1e-10, atol=1e-13))
            res = evolve_to_ness(prop, pure_state_density(psi), _EXC,
                                 conv_tol=conv_tol, max_periods=300,
                                 samples_per_period=16)
            assert res.converged
            cycles.append(res.cycle_profile)
        assert np.max(np.abs(cycles[0] - cycles[1])) < 2 * conv_tol

    def test_flime_and_reference_propagators_agree(self):
        omega0 = 2 * np.pi
        h = build_driven_2ls_full(omega0, omega0, 0.4 * omega0, 0.4 * omega0)
        channel = CollapseChannel(sigma_minus, 0.2 * omega0)
        tol = OdeTol(rtol=1e-10, atol=1e-13)
        basis = compute_basis(h)
        rates = build_terms(basis, [channel], k_max=12,
                            secular_cutoff=np.inf, coeff_floor=0.0)
        rho0 = pure_state_density([1.0, 0.0])
        args = dict(conv_tol=1e-7, max_periods=300, samples_per_period=8)
        res_f = evolve_to_ness(FlimePropagator(rates, basis, tol=tol), rho0, _EXC, **args)
        res_r = evolve_to_ness(ReferencePropagator(LiouvillianSpec(h, (channel,)), tol=tol),
                               rho0, _EXC, **args)
        assert res_f.converged and res_r.converged
        assert np.max(np.abs(res_f.cycle_profile - res_r.cycle_profile)) < 5e-7

    def test_conv_tol_validation(self):
        prop = _damped_static_propagator()
        with pytest.raises(ValueError, match="conv_tol"):
            evolve_to_ness(prop, pure_state_density([1.0, 0.0]), _EXC, conv_tol=0.0)

    @pytest.mark.parametrize("key", ["max_periods", "samples_per_period"])
    def test_period_and_sample_counts_validated(self, key):
        prop = _damped_static_propagator()
        with pytest.raises(ValueError, match=key):
            evolve_to_ness(prop, pure_state_density([1.0, 0.0]), _EXC, **{key: 0})


class TestCorrelation:
    def test_free_decay_coherence(self):
        omega0, gamma = 5.0, 2.0
        h = PeriodicHamiltonian(2 * np.pi, 0.5 * np.diag([-omega0, omega0]))
        spec = LiouvillianSpec(h, (CollapseChannel(sigma_minus, gamma),))
        state = np.diag([0.4, 0.6]).astype(complex)
        taus = np.linspace(0.0, 3.0, 61)
        g1 = correlation_g1(spec, state, sigma_minus, taus,
                            tol=OdeTol(rtol=1e-11, atol=1e-14))
        expected = 0.6 * np.exp((-1j * omega0 - gamma / 2.0) * taus)
        assert np.max(np.abs(g1 - expected)) / 0.6 < 1e-3

    def test_tau_zero_is_excited_population(self):
        h = build_rotating_frame_2ls(0.0, 3.0, 3.0)
        spec = LiouvillianSpec(h, (CollapseChannel(sigma_minus, 1.0),))
        state = np.diag([0.7, 0.3]).astype(complex)
        g1 = correlation_g1(spec, state, sigma_minus, [0.0, 0.1])
        assert abs(g1[0] - 0.3) < 1e-10

    def test_contractivity(self):
        h = build_rotating_frame_2ls(0.5, 4.0, 4.0)
        spec = LiouvillianSpec(h, (CollapseChannel(sigma_minus, 1.0),))
        prop = ReferencePropagator(spec)
        ness = evolve_to_ness(prop, pure_state_density([1.0, 0.0]), _EXC,
                              conv_tol=1e-10, max_periods=300, samples_per_period=8)
        taus = np.linspace(0.0, 20.0, 201)
        g1 = correlation_g1(spec, ness.cycle_states[0], sigma_minus, taus)
        assert np.all(np.abs(g1) <= np.abs(g1[0]) + 1e-9)

    def test_flime_generator_variant_agrees(self):
        h = build_rotating_frame_2ls(0.0, 4.0, 4.0)
        channel = CollapseChannel(sigma_minus, 1.0)
        spec = LiouvillianSpec(h, (channel,))
        basis = compute_basis(h, n_samples=64)
        rates = build_terms(basis, [channel], k_max=6,
                            secular_cutoff=np.inf, coeff_floor=0.0)
        state = np.diag([0.55, 0.45]).astype(complex)
        taus = np.linspace(0.0, 10.0, 101)
        tol = OdeTol(rtol=1e-10, atol=1e-13)
        direct = correlation_g1(spec, state, sigma_minus, taus, tol=tol)
        via_rates = correlation_g1((rates, basis), state, sigma_minus, taus, tol=tol)
        assert np.max(np.abs(direct - via_rates)) < 1e-7

    def test_rejects_unknown_system(self):
        with pytest.raises(TypeError):
            correlation_g1(object(), np.eye(2) / 2, sigma_minus, [0.0, 1.0])


class TestSpectrum:
    def test_lorentzian_pair(self):
        gamma = 1.0
        taus = np.linspace(0.0, 60.0, 2001)
        g1 = np.exp(-gamma * taus / 2.0).astype(complex)
        det = np.linspace(-8.0, 8.0, 801)
        res = spectrum(g1, taus, window="rect", detunings=det)
        # peak at zero with half width gamma/2
        assert abs(det[np.argmax(res.intensities)]) < det[1] - det[0]
        half = np.interp(0.5 * res.intensities.max(),
                         res.intensities[det >= 0][::-1], det[det >= 0][::-1])
        assert abs(half - gamma / 2.0) < 0.05

    def test_mollow_sidebands(self):
        gamma, rabi = 1.0, 20.0
        h = build_rotating_frame_2ls(0.0, rabi, rabi)
        spec = LiouvillianSpec(h, (CollapseChannel(sigma_minus, gamma),))
        prop = ReferencePropagator(spec, tol=OdeTol(rtol=1e-10, atol=1e-13))
        ness = evolve_to_ness(prop, pure_state_density([1.0, 0.0]), _EXC,
                              conv_tol=1e-10, max_periods=300, samples_per_period=8)
        taus = np.linspace(0.0, 60.0, 1201)
        g1 = correlation_g1(spec, ness.cycle_states[0], sigma_minus, taus,
                            tol=OdeTol(rtol=1e-10, atol=1e-13))
        bin_width = gamma / 8.0
        det = np.arange(-1.5 * rabi, 1.5 * rabi + bin_width / 2, bin_width)
        res = spectrum(g1, taus, detunings=det)
        s = res.intensities
        peaks = [det[i] for i in range(1, det.size - 1)
                 if s[i] > s[i - 1] and s[i] > s[i + 1] and s[i] > 0.02 * s.max()]
        for target in (-rabi, 0.0, rabi):
            assert min(abs(p - target) for p in peaks) <= bin_width

    def test_symmetric_g1_gives_symmetric_spectrum(self):
        taus = np.linspace(0.0, 10.0, 401)
        g1 = np.exp(-taus) * np.cos(3.0 * taus)  # real
        det = np.linspace(-6.0, 6.0, 241)  # symmetric grid
        res = spectrum(g1.astype(complex), taus, detunings=det)
        assert np.max(np.abs(res.intensities - res.intensities[::-1])) < 1e-10

    def test_intensity_floor(self):
        gamma = 1.0
        taus = np.linspace(0.0, 60.0, 1501)
        g1 = 0.5 * np.exp((2.0j - gamma / 2.0) * taus)
        res = spectrum(g1, taus)
        assert np.all(res.intensities >= -1e-9 * res.intensities.max())

    def test_default_grid_spans_nyquist(self):
        taus = np.linspace(0.0, 10.0, 101)
        res = spectrum(np.exp(-taus).astype(complex), taus)
        dtau = taus[1] - taus[0]
        assert res.detunings.min() >= -np.pi / dtau - 1e-9
        assert res.detunings.max() <= np.pi / dtau
        assert res.n_tau == 101 and res.window == "hann"

    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            spectrum(np.zeros(3, dtype=complex), [0.0, 0.1, 0.3])

    def test_rejects_empty_detunings(self):
        with pytest.raises(ValueError, match="detunings"):
            spectrum(np.zeros(3, dtype=complex), [0.0, 0.1, 0.2], detunings=[])

    def test_rejects_nonuniform_detunings(self):
        with pytest.raises(ValueError, match="detunings"):
            spectrum(np.zeros(3, dtype=complex), [0.0, 0.1, 0.2],
                     detunings=[-1.0, 0.0, 1.5])

    def test_rejects_unknown_window(self):
        with pytest.raises(ValueError, match="window"):
            spectrum(np.zeros(3, dtype=complex), [0.0, 0.1, 0.2], window="hamming")


def _dense_spectrum(g1, taus, window, detunings):
    """The transform as a direct sum over a detunings x taus kernel."""
    w = (0.5 * (1.0 + np.cos(np.pi * (taus - taus[0]) / (taus[-1] - taus[0])))
         if window == "hann" else np.ones_like(taus))
    kernel = np.exp(1j * np.outer(detunings, taus))
    return (kernel @ (g1 * w)).real * (taus[1] - taus[0])


def _test_g1(taus):
    rng = np.random.default_rng(3)
    noise = 1e-3 * (rng.normal(size=taus.size) + 1j * rng.normal(size=taus.size))
    return (0.3 * np.exp((2.0j - 0.5) * taus) + 0.2 * np.exp((-20.0j - 0.7) * taus)
            + noise)


_TAUS = np.linspace(0.0, 60.0, 2048)


class TestSpectrumAgainstDenseSum:
    @pytest.mark.parametrize("taus, window, detunings", [
        pytest.param(_TAUS, "hann", None, id="default-grid-hann"),
        pytest.param(_TAUS, "rect", None, id="default-grid-rect"),
        pytest.param(1.3 + 0.05 * np.arange(1000), "hann", np.linspace(-10.0, 10.0, 333),
                     id="tau0-nonzero"),
        pytest.param(1.3 + 0.05 * np.arange(1000), "rect", np.linspace(-10.0, 10.0, 333),
                     id="tau0-nonzero-rect"),
        pytest.param(_TAUS, "hann", np.linspace(30.0, -30.0, 1001), id="descending"),
        pytest.param(_TAUS, "hann", np.array([2.0]), id="one-point"),
        pytest.param(np.linspace(0.0, 60.0, 1201), "hann",
                     np.arange(-30.0, 30.0 + 0.0625, 0.125), id="criterion-08-mollow"),
        pytest.param(np.linspace(0.0, 60.0, 1501), "hann",
                     np.arange(-45.0, 45.0001, 0.0625), id="criterion-08-bichromatic"),
    ])
    def test_agrees_with_dense_sum(self, taus, window, detunings):
        g1 = _test_g1(taus)
        res = spectrum(g1, taus, window=window, detunings=detunings)
        if detunings is not None:
            assert np.array_equal(res.detunings, detunings)
        dense = _dense_spectrum(g1, taus, window, res.detunings)
        scale = np.max(np.abs(dense))
        assert scale > 0.0
        assert np.max(np.abs(res.intensities - dense)) <= 1e-10 * scale

    def test_memory_stays_linear_in_grid(self):
        g1 = _test_g1(_TAUS)
        tracemalloc.start()
        try:
            spectrum(g1, _TAUS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense 8192 x 2048 kernel alone would be 268 MB
        assert peak < 10e6
