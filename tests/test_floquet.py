import tracemalloc

import numpy as np
import pytest

from flime import (OdeTol, PeriodicHamiltonian, brillouin_fold, build_pulse_train,
                   compute_basis, floquet, floquet_decompose, fourier_coefficients,
                   integrate_adaptive, mode_grid, monodromy, sigma_minus,
                   unitarity_defect)
from conftest import (random_single_harmonic_system, rk4_matrix_propagator,
                      rk4_matrix_samples)
from oracles import split_modes_at_many


def _eq29_system():
    from flime import build_driven_2ls_full
    omega0 = 2 * np.pi
    return build_driven_2ls_full(omega0, omega0, 0.5 * omega0, 0.5 * omega0)


def _system(name, rng):
    if name == "pulse-train":
        return build_pulse_train(0.3, 1.0, n_harmonics=40)
    if name == "strong-2ls":
        return _eq29_system()
    h, _ = random_single_harmonic_system(rng, 8, with_channel=False)
    return h


def _sequential_propagators(h, times):
    """U(t, 0) at increasing ``times`` from one pass over [0, times[-1]] with
    pointwise H(t) that stops at every time, at rtol 1e-13 (oracle for the
    batched monodromy and grid)."""
    n = h.dim

    def rhs(t, y):
        return (-1j * h(t) @ y.reshape(n, n)).ravel()

    out, _ = integrate_adaptive(rhs, 0.0, np.eye(n, dtype=complex).ravel(), times,
                                rtol=1e-13, atol=1e-15)
    return out.reshape(len(times), n, n)


def _record_integrations(monkeypatch):
    """Statistics of every integrate_adaptive call that floquet makes."""
    calls = []

    def recording(*args, **kwargs):
        out, stats = integrate_adaptive(*args, **kwargs)
        calls.append(stats)
        return out, stats

    monkeypatch.setattr(floquet, "integrate_adaptive", recording)
    return calls


class _CountingHamiltonian:
    """Counts pointwise H(t) calls and on_grid calls of a Hamiltonian."""

    def __init__(self, hamiltonian):
        self._hamiltonian = hamiltonian
        self.calls = 0
        self.grid_calls = 0

    def __call__(self, t):
        self.calls += 1
        return self._hamiltonian(t)

    def on_grid(self, n_samples, shift=0.0):
        self.grid_calls += 1
        return self._hamiltonian.on_grid(n_samples, shift)

    def __getattr__(self, name):
        return getattr(self._hamiltonian, name)


class TestBrillouinFold:
    def test_interval_is_half_open_on_the_left(self):
        assert brillouin_fold(0.5, 1.0) == pytest.approx(0.5)
        assert brillouin_fold(-0.5, 1.0) == pytest.approx(0.5)
        assert brillouin_fold(0.65, 1.0) == pytest.approx(-0.35)
        assert brillouin_fold(-0.65, 1.0) == pytest.approx(0.35)
        assert brillouin_fold(3.0, 2.0) == pytest.approx(1.0)

    def test_idempotent_and_periodic(self, rng):
        omega = 1.7
        for x in rng.uniform(-20, 20, 20):
            f = brillouin_fold(x, omega)
            assert -omega / 2 < f <= omega / 2
            assert brillouin_fold(f, omega) == pytest.approx(f)
            assert brillouin_fold(x + 3 * omega, omega) == pytest.approx(f)


class TestMonodromy:
    def test_zero_hamiltonian_gives_identity(self):
        h = PeriodicHamiltonian(2 * np.pi, np.zeros((2, 2)))
        assert np.max(np.abs(monodromy(h) - np.eye(2))) < 1e-12

    def test_static_hamiltonian_exact_exponential(self):
        omega0, omega = 1.3, 1.0
        h = PeriodicHamiltonian(omega, 0.5 * np.diag([-omega0, omega0]))
        t = h.period
        expected = np.diag([np.exp(1j * omega0 * t / 2), np.exp(-1j * omega0 * t / 2)])
        assert np.max(np.abs(monodromy(h) - expected)) < 1e-9

    def test_strong_drive_against_fixed_step_oracle(self):
        h = _eq29_system()
        u = monodromy(h)
        u_oracle = rk4_matrix_propagator(h, h.period, 4096)
        assert np.max(np.abs(u - u_oracle)) < 1e-8
        assert unitarity_defect(u) < 1e-9

    @pytest.mark.parametrize("system", ["strong-2ls", "pulse-train", "random-n8"])
    def test_batched_monodromy_matches_sequential_oracle(self, rng, system):
        h = _system(system, rng)
        oracle = _sequential_propagators(h, [h.period])[0]
        assert np.max(np.abs(monodromy(h) - oracle)) < 1e-10

    def test_strong_drive_takes_few_steps(self, monkeypatch):
        # the period's sub-intervals are stepped together, so the monodromy
        # costs a few steps of length T/24 instead of one pass over T
        calls = _record_integrations(monkeypatch)
        monodromy(_eq29_system())
        assert len(calls) == 1 and calls[0].steps_accepted < 40

    def test_monodromy_and_grid_use_independent_hamiltonian_paths(self):
        # closure_defect cross-checks two integrations: the monodromy with
        # pointwise H(t), the grid with the FFT path
        h = _CountingHamiltonian(_eq29_system())
        u = monodromy(h)
        assert h.calls > 0 and h.grid_calls == 0
        h.calls = 0
        eps, modes0 = floquet_decompose(u, h.omega)
        basis = mode_grid(h, eps, modes0)
        assert h.calls == 0 and h.grid_calls > 0
        assert basis.closure_defect < 1e-9


class TestDecompose:
    def test_identity_monodromy(self):
        eps, modes = floquet_decompose(np.eye(3, dtype=complex), 2.0)
        assert np.allclose(eps, 0.0)
        assert np.max(np.abs(modes.conj().T @ modes - np.eye(3))) < 1e-12

    def test_undriven_quasienergies_fold(self):
        omega0, omega = 1.3, 1.0
        h = PeriodicHamiltonian(omega, 0.5 * np.diag([-omega0, omega0]))
        eps, _ = floquet_decompose(monodromy(h), omega)
        expected = sorted([brillouin_fold(-omega0 / 2, omega), brillouin_fold(omega0 / 2, omega)])
        assert np.max(np.abs(np.sort(eps) - expected)) < 1e-10

    def test_resonant_rwa_dressed_splitting(self):
        # the dressed splitting equals the drive amplitude modulo omega
        # (sign depends on the branch labeling of the pair)
        from flime import build_driven_2ls_rwa
        omega0 = 2 * np.pi
        rabi = 0.31
        h = build_driven_2ls_rwa(omega0, omega0, rabi)
        eps, _ = floquet_decompose(monodromy(h), omega0)
        splitting = eps[1] - eps[0]
        assert abs(abs(brillouin_fold(splitting, omega0)) - rabi) < 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            floquet_decompose(np.diag([2.0, 1.0]).astype(complex), 1.0)

    def test_deterministic_output(self, rng):
        h, _ = random_single_harmonic_system(rng, 3, with_channel=False)
        u = monodromy(h)
        eps1, m1 = floquet_decompose(u, h.omega)
        eps2, m2 = floquet_decompose(u.copy(), h.omega)
        assert np.array_equal(eps1, eps2)
        assert np.array_equal(m1, m2)

    def test_modes_orthonormal_on_multilevel_systems(self, rng):
        # the n = 4 and n = 8 systems of the multilevel benchmark, drawn in
        # the same order from the same seed; the eigensolver's vectors were
        # orthonormal only to about 1e-11 there
        for n in (4, 8, 8):
            h, _ = random_single_harmonic_system(rng, n)
            _, modes0 = floquet_decompose(monodromy(h), h.omega)
            assert np.max(np.abs(modes0.conj().T @ modes0 - np.eye(n))) <= 1e-13

    def test_degenerate_quasienergies_keep_eigenvectors(self):
        # an exactly degenerate pair, for which the eigensolver returns a
        # far from orthogonal basis of the eigenspace
        v, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3))
                            + 1j * np.random.default_rng(6).normal(size=(3, 3)))
        omega = 2 * np.pi
        u = v @ np.diag(np.exp(1j * np.array([0.3, 0.3, -1.1]))) @ v.conj().T
        _, raw = np.linalg.eig(u)
        assert np.max(np.abs(raw.conj().T @ raw - np.eye(3))) > 1e-2
        eps, modes = floquet_decompose(u, omega)
        np.testing.assert_allclose(eps, [-0.3, -0.3, 1.1], rtol=0, atol=1e-12)
        assert np.max(np.abs(modes.conj().T @ modes - np.eye(3))) <= 1e-13
        period = 2 * np.pi / omega
        assert np.max(np.abs(u @ modes - modes * np.exp(-1j * eps * period))) <= 1e-10


class TestModeGrid:
    def test_static_modes_are_constant(self):
        # energies inside the first Brillouin zone, so no fold shift enters
        # the mode phases and the quasienergy phase cancels exactly
        h = PeriodicHamiltonian(2.0, 0.5 * np.diag([-0.6, 0.6]))
        basis = compute_basis(h, n_samples=64)
        dev = np.max(np.abs(basis.mode_grid - basis.modes0[None, :, :]))
        assert dev < 1e-10

    def test_refinement_agrees_at_shared_times(self):
        h = _eq29_system()
        eps, modes0 = floquet_decompose(monodromy(h), h.omega)
        coarse = mode_grid(h, eps, modes0, n_samples=256)
        fine = mode_grid(h, eps, modes0, n_samples=512)
        assert np.max(np.abs(fine.mode_grid[::2] - coarse.mode_grid)) < 1e-9

    def test_modes_orthonormal_everywhere(self):
        h = _eq29_system()
        basis = compute_basis(h)
        for phi in basis.mode_grid[::16]:
            assert np.max(np.abs(phi.conj().T @ phi - np.eye(2))) < 1e-9

    def test_completeness(self):
        h = _eq29_system()
        basis = compute_basis(h)
        for phi in basis.mode_grid[::16]:
            resolved = sum(np.outer(phi[:, b], phi[:, b].conj()) for b in range(2))
            assert np.max(np.abs(resolved - np.eye(2))) < 1e-10

    def test_periodic_closure(self):
        h = _eq29_system()
        basis = compute_basis(h)
        assert basis.closure_defect < 1e-9  # 10x the integration tolerance

    def test_propagator_samples_unitary(self):
        # the modes are U(t_j) modes0 times unimodular phases, so they are
        # unitary when the grid propagators and modes0 are
        h = _eq29_system()
        basis = compute_basis(h)
        per_matrix = [unitarity_defect(m) for m in basis.mode_grid]
        assert basis.unitarity_defect == pytest.approx(max(per_matrix), abs=1e-15)
        assert basis.unitarity_defect < 1e-9

    def test_basis_retains_no_propagator_grid(self):
        # the mode grid and its split Fourier table are each one grid of
        # n x n matrices; a kept (n_samples + 1, n, n) running product would
        # make a third
        h = build_pulse_train(0.3, 1.0, n_harmonics=40)
        compute_basis(h, n_samples=1024)  # warm any first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            basis = compute_basis(h, n_samples=1024)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2.5 * basis.mode_grid.nbytes

    @pytest.mark.parametrize("system, n_samples", [
        ("pulse-train", 1024), ("strong-2ls", 256), ("random-n8", 256)])
    def test_batched_grid_matches_sequential_oracle(self, rng, system, n_samples):
        h = _system(system, rng)
        basis = compute_basis(h, n_samples=n_samples)
        oracle = _sequential_propagators(h, basis.grid_times)
        phases = np.exp(1j * np.outer(basis.grid_times, basis.quasienergies))
        modes = np.einsum("tij,jb,tb->tib", oracle, basis.modes0, phases)
        assert np.max(np.abs(basis.mode_grid - modes)) < 1e-10
        assert basis.closure_defect < 1e-9

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("n_sub", [2, 24, 256, 1024])
    def test_blocked_running_product_matches_sequential_loop(self, rng, n_sub, n):
        factors, _ = np.linalg.qr(rng.normal(size=(n_sub, n, n))
                                  + 1j * rng.normal(size=(n_sub, n, n)))
        loop = np.empty_like(factors)
        loop[0] = factors[0]
        for j in range(1, n_sub):
            loop[j] = factors[j] @ loop[j - 1]
        blocked = factors.copy()
        floquet._prefix_products(blocked)
        assert np.max(np.abs(blocked - loop)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [24, 1024])
    def test_stacked_product_matches_matmul(self, rng, monkeypatch, count, n):
        # entry by entry for every n <= 3, whatever the stack length
        monkeypatch.setattr(floquet, "_ENTRYWISE_STACK", 0)
        a, b = rng.normal(size=(2, count, n, n)) + 1j * rng.normal(size=(2, count, n, n))
        assert np.max(np.abs(floquet._stacked_product(a, b) - a @ b)) <= 1e-13
        # one factor broadcast over a stack axis, as the carries are applied
        c = b[:count // 8, None]
        a = a.reshape(count // 8, 8, n, n)
        assert np.max(np.abs(floquet._stacked_product(a, c) - a @ c)) <= 1e-13

    def test_pulse_train_grid_takes_few_steps(self, monkeypatch):
        # the 1024 sub-intervals are stepped together, so the grid costs a
        # few steps of length T/1024 instead of one stop per grid point
        h = build_pulse_train(0.3, 1.0, n_harmonics=40)
        eps, modes0 = floquet_decompose(monodromy(h), h.omega)
        calls = _record_integrations(monkeypatch)
        mode_grid(h, eps, modes0, n_samples=1024)
        assert len(calls) == 1 and calls[0].steps_accepted <= 10

    def test_block_rhs_keeps_the_operator_not_the_product(self, rng, monkeypatch):
        # the block RHS of the monodromy and of the grid keeps the last
        # (s, H block); a call at a kept s with another block, at a new s and
        # back again must each equal a fresh evaluation
        h, _ = random_single_harmonic_system(rng, 3, with_channel=False)
        rhs_seen = []

        def capturing(rhs, *args, **kwargs):
            rhs_seen.append(rhs)
            return integrate_adaptive(rhs, *args, **kwargs)

        monkeypatch.setattr(floquet, "integrate_adaptive", capturing)
        compute_basis(h, n_samples=64)
        starts = np.arange(floquet._MONODROMY_SLICES) * (h.period / floquet._MONODROMY_SLICES)
        blocks = [(lambda s: h(starts + s), starts.size, h.period / starts.size),
                  (lambda s: h.on_grid(64, s), 64, h.period / 64)]
        for rhs, (h_block, count, end) in zip(rhs_seen, blocks):
            y1, y2 = rng.normal(size=(2, count, 9)) + 1j * rng.normal(size=(2, count, 9))
            # the integration ended at s = end, so the first call finds it kept
            for s, y in [(end, y1), (end, y2), (0.3 * end, y1), (end, y2)]:
                fresh = -1j * (h_block(s) @ y.reshape(count, 3, 3))
                assert np.max(np.abs(rhs(s, y) - fresh.reshape(count, 9))) <= 1e-12

    def test_rejects_non_power_of_two(self):
        h = _eq29_system()
        eps, modes0 = floquet_decompose(monodromy(h), h.omega)
        with pytest.raises(ValueError, match="power of two"):
            mode_grid(h, eps, modes0, n_samples=100)

    def test_interpolation_matches_grid_and_oracle(self, rng):
        h = _eq29_system()
        basis = compute_basis(h)
        # exact at grid points
        recon = basis.modes_at_many(basis.grid_times)
        assert np.max(np.abs(recon - basis.mode_grid)) < 1e-11
        # off grid, against an independent fixed-step propagator
        for t in rng.uniform(0, h.period, 3):
            u = rk4_matrix_propagator(h, t, 4096)
            expected = u @ basis.modes0 * np.exp(1j * basis.quasienergies * t)[None, :]
            assert np.max(np.abs(basis.modes_at_many([t])[0] - expected)) < 1e-8

    @pytest.mark.parametrize("n_samples", [64, 100, 1024])
    @pytest.mark.parametrize("n_times", [1, 10, 2048])
    def test_split_interpolation_matches_direct_table(self, rng, n_samples, n_times):
        n, omega = 3, 10.0
        grid = rng.normal(size=(n_samples, n, n)) + 1j * rng.normal(size=(n_samples, n, n))
        basis = floquet.FloquetBasis(
            omega=omega, quasienergies=np.zeros(n), modes0=np.eye(n, dtype=complex),
            grid_times=np.arange(n_samples) * (2 * np.pi / omega / n_samples), mode_grid=grid)
        times = rng.uniform(0.0, 60.0, n_times)
        coeffs = np.fft.fft(grid, axis=0) / n_samples
        freqs = np.fft.fftfreq(n_samples, d=1.0 / n_samples)
        table = np.exp(1j * omega * np.outer(np.mod(times, basis.period), freqs))
        direct = (table @ coeffs.reshape(n_samples, -1)).reshape(n_times, n, n)
        assert np.max(np.abs(basis.modes_at_many(times) - direct)) <= 1e-12
        if n_samples == 1024:
            # a physical basis, whose low harmonics carry the modes: the
            # running products stay as close to every phase by its own exp
            # as rounding allows
            pulse = compute_basis(build_pulse_train(0.3, 1.0, n_harmonics=40), n_samples=1024)
            ours = pulse.modes_at_many(times)
            ref = split_modes_at_many(pulse, times)
            assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_samples", [64, 1024])
    def test_constant_grid_interpolates_exactly(self, rng, n_samples):
        # the modes of an undriven system: only harmonic 0, whose coarse and
        # fine phases are the exact 1 that starts each running product
        const = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        basis = floquet.FloquetBasis(
            omega=10.0, quasienergies=np.zeros(3), modes0=np.eye(3, dtype=complex),
            grid_times=np.arange(n_samples) * (2 * np.pi / 10.0 / n_samples),
            mode_grid=np.tile(const, (n_samples, 1, 1)))
        times = rng.uniform(0.0, 60.0, 500)
        np.testing.assert_array_equal(basis.modes_at_many(times), np.tile(const, (500, 1, 1)))

    def test_floquet_state_matrix(self):
        # columns are modes carrying the quasienergy phase, so W(t) equals
        # the propagator applied to the t = 0 modes
        h = _eq29_system()
        basis = compute_basis(h)
        t = 0.4 * h.period
        u = rk4_matrix_propagator(h, t, 4096)
        w = basis.modes_at_many([t])[0] * np.exp(-1j * basis.quasienergies * t)
        assert np.max(np.abs(w - u @ basis.modes0)) < 1e-8


class TestFourierCoefficients:
    @pytest.mark.parametrize("n, n_samples", [(2, 1024), (4, 64)])
    def test_stacked_products_match_einsum(self, rng, n, n_samples):
        # the grid's matrix elements come from stacked products, entry by
        # entry at n = 2 and matmul at n = 4
        h, _ = random_single_harmonic_system(rng, n, with_channel=False)
        basis = compute_basis(h, n_samples=n_samples)
        modes = basis.mode_grid
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        elements = np.einsum("tia,ij,tjb->tab", modes.conj(), s, modes)
        spectrum = np.fft.fft(elements, axis=0) / n_samples
        expected = np.moveaxis(spectrum[np.arange(-5, 6) % n_samples], 0, -1)
        assert np.max(np.abs(fourier_coefficients(basis, s, 5).coeffs - expected)) <= 1e-13

    def test_static_system_single_harmonic(self):
        # static system with energies inside the first Brillouin zone:
        # modes are constant, so only the k = 0 coefficients survive
        h = PeriodicHamiltonian(2.0, 0.5 * np.diag([-0.6, 0.6]))
        basis = compute_basis(h, n_samples=64)
        four = fourier_coefficients(basis, sigma_minus, k_max=5)
        off_harmonics = np.delete(np.arange(11), 5)
        assert np.max(np.abs(four.coeffs[:, :, off_harmonics])) < 1e-12
        assert four.tail < 1e-12

    def test_hermitian_source_conjugation_symmetry(self, rng):
        h, _ = random_single_harmonic_system(rng, 3, with_channel=False)
        basis = compute_basis(h)
        s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s = s + s.conj().T
        four = fourier_coefficients(basis, s, k_max=8)
        for k in range(-8, 9):
            assert np.max(np.abs(four.coeffs[:, :, k + 8]
                                 - four.coeffs[:, :, -k + 8].conj().T)) < 1e-12

    def test_rwa_sidebands_confined_and_match_quadrature(self):
        # a single-harmonic drive produces single-sideband modes: each matrix
        # element of the lowering operator is a pure harmonic, and the
        # rotation frequencies eps_a - eps_b + k*omega of the nonzero
        # coefficients are the rotating-frame transition frequencies
        # -omega, -omega +- 2g (gauge invariant, unlike the k values
        # themselves, which shift with the quasienergy branch)
        from flime import build_driven_2ls_rwa
        omega0 = 2 * np.pi
        rabi = 0.4
        h = build_driven_2ls_rwa(omega0, omega0, rabi)
        basis = compute_basis(h)
        four = fourier_coefficients(basis, sigma_minus, k_max=6)

        nonzero = np.abs(four.coeffs) > 1e-10
        # one harmonic per matrix element, confined near the carrier
        assert np.all(nonzero.sum(axis=2) == 1)
        ks_used = [k for k in range(-6, 7) if nonzero[:, :, k + 6].any()]
        assert all(abs(k) <= 2 for k in ks_used)

        g = rabi / 2.0  # half the dressed splitting at resonance
        freqs = sorted(
            basis.quasienergies[a] - basis.quasienergies[b] + k * basis.omega
            for a in range(2) for b in range(2) for k in range(-6, 7)
            if nonzero[a, b, k + 6])
        expected = sorted([-omega0 - 2 * g, -omega0, -omega0, -omega0 + 2 * g])
        assert np.max(np.abs(np.array(freqs) - expected)) < 1e-8

        # dense quadrature oracle for every retained coefficient, from one
        # RK4 pass at dt = T/2048 sampled every 4th step
        n_t = 512
        ts = np.arange(n_t) / n_t * h.period
        us = rk4_matrix_samples(h, h.period, 2048, 2048 // n_t)[:n_t]
        phi = us @ basis.modes0 * np.exp(1j * np.outer(ts, basis.quasienergies))[:, None, :]
        elements = phi.conj().transpose(0, 2, 1) @ np.asarray(sigma_minus) @ phi
        for k in range(-2, 3):
            oracle = np.mean(elements * np.exp(-1j * k * basis.omega * ts)[:, None, None], axis=0)
            assert np.max(np.abs(four.coeffs[:, :, k + 6] - oracle)) < 1e-7

    def test_reconstruction_on_grid(self, rng):
        h, _ = random_single_harmonic_system(rng, 2, with_channel=False)
        basis = compute_basis(h)
        s = np.asarray(sigma_minus)
        four = fourier_coefficients(basis, s, k_max=20)
        js = [0, 31, 100]
        for j in js:
            phi = basis.mode_grid[j]
            target = phi.conj().T @ s @ phi
            phases = np.exp(1j * four.k_values * basis.omega * basis.grid_times[j])
            recon = four.coeffs @ phases
            assert np.max(np.abs(recon - target)) < 1e-9

    def test_reconstruction_error_decreases_with_samples(self):
        h = _eq29_system()
        eps, modes0 = floquet_decompose(monodromy(h), h.omega)
        # off-grid error of the full-bandwidth series, measured against a
        # fine reference grid
        reference = mode_grid(h, eps, modes0, n_samples=1024)
        ref_elements = np.einsum("tia,ij,tjb->tab", reference.mode_grid.conj(),
                                 np.asarray(sigma_minus), reference.mode_grid)
        errors = []
        for n_samples in (32, 64, 128):
            basis = mode_grid(h, eps, modes0, n_samples=n_samples)
            four = fourier_coefficients(basis, sigma_minus, k_max=n_samples // 2 - 1)
            phases = np.exp(1j * basis.omega * np.outer(reference.grid_times, four.k_values))
            recon = np.einsum("tk,abk->tab", phases, four.coeffs)
            errors.append(np.max(np.abs(recon - ref_elements)))
        assert errors[0] > errors[1] > errors[2]

    def test_k_max_validation(self):
        h = _eq29_system()
        basis = compute_basis(h, n_samples=64)
        with pytest.raises(ValueError, match="k_max"):
            fourier_coefficients(basis, sigma_minus, k_max=32)
