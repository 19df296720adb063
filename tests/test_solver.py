import tracemalloc

import numpy as np
import pytest

import flime.solver as solver_mod
from flime import (CollapseChannel, FloquetBasis, LiouvillianSpec, OdeTol,
                   build_driven_2ls_full, build_driven_2ls_rwa, build_terms,
                   compute_basis, evolve,
                   evolve_direct, fold, pure_state_density, sigma_minus,
                   trace_distance, unfold)
from conftest import (assemble, random_density, random_single_harmonic_system,
                      rk4_schrodinger_states, shift_gauge)
from oracles import (dissipator_bruteforce, enumerate_terms, factored_matrix, hermitian_basis,
                     full_harmonics, oscillating_terms, term_counts)


@pytest.fixture(scope="module")
def rwa_setup():
    omega0 = 2 * np.pi
    h = build_driven_2ls_rwa(omega0, omega0, 1.0)
    basis = compute_basis(h)
    channel = CollapseChannel(sigma_minus, 0.3)
    return h, basis, channel


@pytest.fixture(scope="module")
def multilevel_n8():
    """The random n = 8 system of the multilevel benchmark workload."""
    rng = np.random.default_rng(20240811)
    random_single_harmonic_system(rng, 4)
    h, channel = random_single_harmonic_system(rng, 8)
    return h, compute_basis(h), channel


class TestTermEnumeration:
    def test_delta_zero_for_identical_indices(self, rwa_setup):
        _, basis, channel = rwa_setup
        for term in enumerate_terms(basis, channel, k_max=3, coeff_floor=1e-12):
            if (term.alpha, term.beta, term.k) == (term.alpha2, term.beta2, term.k2):
                assert term.delta == 0.0

    def test_negligibility_definition(self, rwa_setup):
        _, basis, channel = rwa_setup
        from flime import fourier_coefficients
        four = fourier_coefficients(basis, channel.operator, 3)
        for term in enumerate_terms(basis, channel, k_max=3, coeff_floor=1e-12):
            prod = abs(four.coeffs[term.alpha, term.beta, term.k + 3]
                       * four.coeffs[term.alpha2, term.beta2, term.k2 + 3])
            assert term.negligibility == pytest.approx(abs(term.delta) / prod)

    def test_aggregate_matches_per_term_superops(self, rwa_setup):
        # the scatter-built static and oscillating parts must equal the sum
        # of per-term sandwich-superoperator contributions
        _, basis, channel = rwa_setup
        rates = build_terms(basis, [channel], k_max=3,
                            secular_cutoff=np.inf, coeff_floor=1e-12)
        t = 0.371
        from_terms = np.zeros((4, 4), dtype=complex)
        for term in enumerate_terms(basis, channel, k_max=3, coeff_floor=1e-12):
            from_terms += term.weight * np.exp(1j * term.delta * t) * term.superop(2)
        assert np.max(np.abs(assemble(rates, t) - from_terms)) < 1e-12

    @pytest.mark.parametrize("cutoff", [5.0, 30.0, np.inf])
    def test_filtered_store_matches_per_term_superops(self, cutoff):
        # the windowed pair screening keeps exactly the tuples that pass the
        # floor and the negligibility test
        h, channel = random_single_harmonic_system(np.random.default_rng(11), 3)
        basis = compute_basis(h)
        rates = build_terms(basis, [channel], k_max=3, secular_cutoff=cutoff)
        t = 0.53
        from_terms = np.zeros((9, 9), dtype=complex)
        kept = 0
        for term in enumerate_terms(basis, channel, k_max=3, coeff_floor=1e-12):
            if abs(term.delta) <= 1e-12 * basis.omega or term.negligibility <= cutoff:
                from_terms += term.weight * np.exp(1j * term.delta * t) * term.superop(3)
                kept += 1
        assert kept == rates.kept_static + rates.kept_oscillating
        assert np.max(np.abs(assemble(rates, t) - from_terms)) < 1e-12


class TestBuildTerms:
    def test_cutoff_zero_keeps_only_secular(self, rwa_setup):
        _, basis, channel = rwa_setup
        rates = build_terms(basis, [channel], k_max=5, secular_cutoff=0.0)
        assert rates.deltas.size == 0
        assert rates.kept_oscillating == 0
        assert rates.dropped_count > 0

    def test_secular_part_matches_term_restriction(self, rwa_setup):
        _, basis, channel = rwa_setup
        rates = build_terms(basis, [channel], k_max=5, secular_cutoff=0.0,
                            coeff_floor=1e-12)
        expected = np.zeros((4, 4), dtype=complex)
        for term in enumerate_terms(basis, channel, k_max=5, coeff_floor=1e-12):
            if term.delta == 0.0:
                expected += term.weight * term.superop(2)
        assert np.max(np.abs(rates.static_part - expected)) < 1e-12

    def test_infinite_cutoff_keeps_everything(self, rwa_setup):
        _, basis, channel = rwa_setup
        rates = build_terms(basis, [channel], k_max=5,
                            secular_cutoff=np.inf, coeff_floor=1e-10)
        assert rates.dropped_count == 0
        assert rates.kept_static + rates.kept_oscillating == rates.candidate_terms

    def test_kept_sets_monotone_in_cutoff(self, rwa_setup):
        _, basis, channel = rwa_setup
        cutoffs = [0.0, 1.0, 10.0, 100.0, np.inf]
        built = [build_terms(basis, [channel], k_max=5, secular_cutoff=c)
                 for c in cutoffs]
        counts = [r.kept_static + r.kept_oscillating for r in built]
        assert counts == sorted(counts)
        # frequency groups at a smaller cutoff appear at every larger cutoff
        for small, large in zip(built, built[1:]):
            for delta in small.deltas:
                assert np.min(np.abs(large.deltas - delta)) < 1e-9

    def test_gamma_zero_gives_null_generator(self, rwa_setup):
        _, basis, _ = rwa_setup
        channel = CollapseChannel(sigma_minus, 0.0)
        rates = build_terms(basis, [channel], k_max=5, secular_cutoff=np.inf)
        assert np.max(np.abs(rates.static_part)) == 0.0
        for _, sup in oscillating_terms(rates):
            assert np.max(np.abs(sup)) == 0.0

    def test_dimension_mismatch_rejected(self, rwa_setup):
        _, basis, _ = rwa_setup
        with pytest.raises(ValueError, match="does not match"):
            build_terms(basis, [CollapseChannel(np.eye(3), 0.1)])

    def test_multichannel_additivity(self, rwa_setup):
        _, basis, channel = rwa_setup
        other = CollapseChannel(np.asarray(sigma_minus).conj().T, 0.05)
        both = build_terms(basis, [channel, other], k_max=4, secular_cutoff=np.inf)
        first = build_terms(basis, [channel], k_max=4, secular_cutoff=np.inf)
        second = build_terms(basis, [other], k_max=4, secular_cutoff=np.inf)
        t = 0.2
        assert np.max(np.abs(assemble(both, t)
                             - assemble(first, t) - assemble(second, t))) < 1e-12

    def test_fourier_tail_falls_with_k_max(self):
        # strong-drive 2LS: the sigma^- tail is about 1e-4 at k_max 6 and at
        # rounding level from k_max 14 on
        h = build_driven_2ls_full(2 * np.pi, 2 * np.pi, np.pi, np.pi)
        basis = compute_basis(h)
        channel = CollapseChannel(sigma_minus, 0.05)
        built = [build_terms(basis, [channel], k_max=k, secular_cutoff=np.inf, coeff_floor=0.0)
                 for k in (6, 10, 14)]
        tails = [r.fourier_tail for r in built]
        assert tails == sorted(tails, reverse=True)
        assert tails[0] > 1e-5 and tails[-1] < 1e-11
        res = evolve(built[0], basis, pure_state_density([1.0, 0.0]), [0.0, h.period])
        assert res.diagnostics.fourier_tail == tails[0]


def _longitudinal_basis(omega, amplitude, n_samples=64):
    """Exact Floquet basis of H(t) = diag(-omega/4, omega/4)
    + amplitude cos(omega t) diag(1, -1): quasienergies -omega/4 and omega/4,
    which give gaps of exactly -+omega/2, and the diagonal modes
    exp(-+1j (amplitude/omega) sin(omega t)).  Amplitude 0 is the undriven 2LS."""
    period = 2.0 * np.pi / omega
    times = np.arange(n_samples) * (period / n_samples)
    phase = np.exp(-1j * amplitude / omega * np.sin(omega * times))
    modes = np.zeros((n_samples, 2, 2), dtype=complex)
    modes[:, 0, 0], modes[:, 1, 1] = phase, phase.conj()
    return FloquetBasis(omega=omega, quasienergies=np.array([-0.25, 0.25]) * omega,
                        modes0=np.eye(2, dtype=complex), grid_times=times, mode_grid=modes)


class TestHalfStore:
    @pytest.mark.parametrize("amplitude", [0.0, 0.8])
    def test_static_entries_at_first_harmonics(self, amplitude):
        # splitting omega/2: the entries ((0, 1), (1, 0)) of harmonic 1 and
        # their mirrors at -1 are secular; with the longitudinal drive they
        # carry weight, so static_part needs the mirror of m > 0 entries
        omega, k_max = 2.0, 4
        basis = _longitudinal_basis(omega, amplitude * omega)
        channel = CollapseChannel(np.array([[0.3, 1.0], [0.5j, -0.2]]), 0.2)
        rates = build_terms(basis, [channel], k_max=k_max, secular_cutoff=np.inf,
                            coeff_floor=0.0)
        assert rates.harmonics.shape == (2 * k_max + 1, 4, 4)
        full, freqs = full_harmonics(rates)
        secular = np.abs(freqs) <= 1e-12 * omega
        for m in (-1, 1):
            assert secular[2 * k_max + m].any()
            if amplitude:
                assert np.max(np.abs(full[2 * k_max + m][secular[2 * k_max + m]])) > 1e-2

        terms = list(enumerate_terms(basis, channel, k_max))
        expected = sum(term.weight * term.superop(2) for term in terms if term.delta == 0.0)
        assert np.max(np.abs(rates.static_part - expected)) < 1e-12
        *counts, deltas = term_counts(basis, channel, k_max, np.inf, 0.0)
        assert counts == [rates.candidate_terms, rates.kept_static, rates.kept_oscillating]
        assert np.allclose(rates.deltas, deltas, rtol=1e-13, atol=0.0)
        for t in [0.0, 0.37, 2.9]:
            from_terms = sum(term.weight * np.exp(1j * term.delta * t) * term.superop(2)
                             for term in terms)
            assert np.max(np.abs(assemble(rates, t) - from_terms)) < 1e-12

    @pytest.mark.parametrize("cutoff, floor", [(np.inf, 0.0), (5.0, 1e-12), (30.0, 1e-12),
                                               (np.inf, 1e-3)])
    def test_counts_and_deltas_match_tuple_oracle(self, cutoff, floor):
        # every count covers both orders of each pair, and the mirrored
        # frequency groups are those of all kept oscillating pairs
        h, channel = random_single_harmonic_system(np.random.default_rng(11), 3)
        basis = compute_basis(h)
        k_max = 3
        rates = build_terms(basis, [channel], k_max=k_max, secular_cutoff=cutoff,
                            coeff_floor=floor)
        assert rates.harmonics.shape == (2 * k_max + 1, 9, 9)
        candidates, static, oscillating, deltas = term_counts(basis, channel, k_max,
                                                              cutoff, floor)
        assert (rates.candidate_terms, rates.kept_static, rates.kept_oscillating,
                rates.dropped_count) == (candidates, static, oscillating,
                                         candidates - static - oscillating)
        assert rates.deltas.shape == deltas.shape and deltas.size > 0
        assert np.allclose(rates.deltas, deltas, rtol=1e-13, atol=0.0)

    def test_rate_rhs_keeps_the_operator_not_the_product(self, rwa_setup):
        # the rate RHS keeps the last (t, R(t)); a call at a kept t with
        # another block, at a new t and back again must each equal a fresh
        # evaluation (of the real-coordinate matrix the RHS multiplies)
        _, basis, channel = rwa_setup
        rates = build_terms(basis, [channel], k_max=4, secular_cutoff=np.inf, coeff_floor=0.0)
        rhs = solver_mod._make_rhs(solver_mod._rate_generator(rates, basis))
        rng = np.random.default_rng(3)
        v1, v2 = rng.normal(size=(2, 4, 3))
        for t, v in [(0.37, v1), (0.37, v2), (1.1, v1), (0.37, v2)]:
            fresh = solver_mod._rate_matrix(rates)(t)
            assert np.array_equal(rhs(t, v.ravel()), (fresh @ v).ravel())


class TestAssemble:
    def test_single_frequency_periodicity(self, rwa_setup):
        _, basis, channel = rwa_setup
        rates = build_terms(basis, [channel], k_max=5,
                            secular_cutoff=np.inf, coeff_floor=1e-12)
        deltas = np.abs(rates.deltas)
        delta = float(np.min(deltas[deltas > 0]))
        # compare at times where every other frequency group aligns too, by
        # construction of this system the groups are near-commensurate, so
        # use the generic identity R(t) = static + sum exp(i d t) M_d instead
        t = 0.37
        manual = rates.static_part.copy()
        for d, sup in oscillating_terms(rates):
            manual += np.exp(1j * d * t) * sup
        assert np.max(np.abs(assemble(rates, t) - manual)) < 1e-13
        assert delta > 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_bruteforce_oracle(self, rng, n):
        h, channel = random_single_harmonic_system(rng, n)
        basis = compute_basis(h)
        k_max = 5
        rates = build_terms(basis, [channel], k_max=k_max,
                            secular_cutoff=np.inf, coeff_floor=0.0)
        for t in rng.uniform(0.0, 3 * h.period, 11):
            r = assemble(rates, t)
            for _ in range(2):
                rho = random_density(rng, n)
                via_matrix = fold(r @ unfold(rho))
                direct = dissipator_bruteforce(basis, [channel], rho, t, k_max=k_max)
                assert np.max(np.abs(via_matrix - direct)) < 1e-10


class TestBruteforce:
    def test_zero_rate_vanishes(self, rwa_setup, rng):
        _, basis, _ = rwa_setup
        channel = CollapseChannel(sigma_minus, 0.0)
        rho = random_density(rng, 2)
        out = dissipator_bruteforce(basis, [channel], rho, 0.7, k_max=4)
        assert np.max(np.abs(out)) == 0.0

    def test_trace_free(self, rwa_setup, rng):
        _, basis, channel = rwa_setup
        for t in [0.0, 0.31, 2.7]:
            rho = random_density(rng, 2)
            out = dissipator_bruteforce(basis, [channel], rho, t, k_max=4)
            assert abs(np.trace(out)) < 1e-12

    def test_maximally_mixed_matches_assemble(self, rwa_setup):
        _, basis, channel = rwa_setup
        rates = build_terms(basis, [channel], k_max=4,
                            secular_cutoff=np.inf, coeff_floor=0.0)
        rho = np.eye(2, dtype=complex) / 2
        direct = dissipator_bruteforce(basis, [channel], rho, 0.0, k_max=4)
        assert np.max(np.abs(fold(assemble(rates, 0.0) @ unfold(rho)) - direct)) < 1e-12


class TestEvolve:
    def test_closed_system_matches_schrodinger(self, rwa_setup):
        h, basis, _ = rwa_setup
        rates = build_terms(basis, [], k_max=5)
        psi0 = np.array([1.0, 0.0])
        times = np.linspace(0.0, 10 * h.period, 21)
        result = evolve(rates, basis, pure_state_density(psi0), times,
                        tol=OdeTol(rtol=1e-10, atol=1e-12))
        oracle = rk4_schrodinger_states(h, psi0, times)
        dist = max(trace_distance(a, b) for a, b in zip(result.states, oracle))
        assert dist < 1e-7

    def test_closed_system_preserves_purity(self, rwa_setup):
        h, basis, _ = rwa_setup
        rates = build_terms(basis, [CollapseChannel(sigma_minus, 0.0)], k_max=5,
                            secular_cutoff=np.inf)
        times = np.linspace(0.0, 5 * h.period, 11)
        result = evolve(rates, basis, pure_state_density([0.6, 0.8]), times)
        purities = [np.trace(s @ s).real for s in result.states]
        assert np.max(np.abs(np.array(purities) - 1.0)) < 1e-8

    def test_amplitude_damping_analytic(self):
        # drive-free system: excited population decays at the bare rate and
        # the coherence at half of it, rotating at the transition frequency
        omega0, gamma = 0.8, 0.25
        from flime import PeriodicHamiltonian
        h = PeriodicHamiltonian(2.0, 0.5 * np.diag([-omega0, omega0]))
        basis = compute_basis(h, n_samples=64)
        rates = build_terms(basis, [CollapseChannel(sigma_minus, gamma)],
                            k_max=4, secular_cutoff=np.inf)
        rho0 = pure_state_density([np.sqrt(0.3), np.sqrt(0.7)])
        times = np.linspace(0.0, 12.0, 25)
        result = evolve(rates, basis, rho0, times, tol=OdeTol(rtol=1e-10, atol=1e-13))
        p_exc = np.array([s[1, 1].real for s in result.states])
        assert np.max(np.abs(p_exc - 0.7 * np.exp(-gamma * times))) < 1e-8
        coh = np.array([s[0, 1] for s in result.states])
        expected = rho0[0, 1] * np.exp((1j * omega0 - gamma / 2) * times)
        assert np.max(np.abs(coh - expected)) < 1e-8

    def test_agrees_with_direct_solver(self, rwa_setup):
        h, basis, channel = rwa_setup
        rates = build_terms(basis, [channel], k_max=10,
                            secular_cutoff=np.inf, coeff_floor=0.0)
        rho0 = pure_state_density([1.0, 0.0])
        times = np.linspace(0.0, 10 * h.period, 31)
        tol = OdeTol(rtol=1e-9, atol=1e-12)
        ours = evolve(rates, basis, rho0, times, tol=tol)
        ref = evolve_direct(LiouvillianSpec(h, [channel]), rho0, times, tol=tol)
        dist = max(trace_distance(a, b) for a, b in zip(ours.states, ref.states))
        assert dist < 1e-6
        assert ours.diagnostics.max_trace_defect < 1e-8
        assert ours.diagnostics.max_hermiticity_defect < 1e-8

    def test_harmonic_store_matches_factored_oracle(self, rwa_setup, monkeypatch):
        h, basis, channel = rwa_setup
        rho0 = pure_state_density([1.0, 0.0])
        times = np.linspace(0.0, 3 * h.period, 7)
        tol = OdeTol(rtol=1e-11, atol=1e-13)
        rates = build_terms(basis, [channel], k_max=6,
                            secular_cutoff=np.inf, coeff_floor=0.0)
        factored = factored_matrix(rates, basis)
        u = hermitian_basis(2)

        def oracle(t):
            # the factored R(t) in the solver's real coordinates
            return (u.conj().T @ factored(t) @ u).real

        at = solver_mod._rate_matrix(rates)
        ts = np.array([0.0, 0.37, 2.9])
        # one time, as the sequential side asks, and many, as the slices do
        for t in ts:
            assert np.max(np.abs(at(t) - oracle(t))) < 1e-14
        assert np.max(np.abs(at(ts) - oracle(ts))) < 1e-14
        r_store = evolve(rates, basis, rho0, times, tol=tol)
        monkeypatch.setattr(solver_mod, "_rate_matrix", lambda rates: oracle)
        r_oracle = evolve(rates, basis, rho0, times, tol=tol)
        dist = max(trace_distance(a, b) for a, b in zip(r_store.states, r_oracle.states))
        assert dist < 1e-11

    @pytest.mark.parametrize("cutoff", [np.inf, 10.0])
    def test_large_filtered_set_builds(self, multilevel_n8, cutoff):
        # floor 1e-12 makes both sets filtered; they once exceeded a dense
        # storage budget and raised
        h, basis, channel = multilevel_n8
        rates = build_terms(basis, [channel], k_max=10, secular_cutoff=cutoff,
                            coeff_floor=1e-12)
        assert rates.kept_oscillating > 0 and rates.candidate_terms < (64 * 21) ** 2
        rho0 = random_density(np.random.default_rng(8), 8)
        times = np.linspace(0.0, 2 * h.period, 9)
        tol = OdeTol(rtol=1e-9, atol=1e-12)
        ours = evolve(rates, basis, rho0, times, tol=tol)
        ref = evolve_direct(LiouvillianSpec(h, [channel]), rho0, times, tol=tol)
        dist = max(trace_distance(a, b) for a, b in zip(ours.states, ref.states))
        assert dist < (1e-6 if np.isinf(cutoff) else 0.2)

    @pytest.mark.parametrize("cutoff", [np.inf, 10.0])
    def test_build_memory_bounded(self, multilevel_n8, cutoff):
        # the M x M pair table (M = n^2 (2 k_max + 1) = 1344) peaked at
        # 384 MB complete and 84 MB at cutoff 10
        _, basis, channel = multilevel_n8
        tracemalloc.start()
        try:
            build_terms(basis, [channel], k_max=10, secular_cutoff=cutoff, coeff_floor=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_gauge_shift_invariance(self, rwa_setup):
        h, basis, channel = rwa_setup
        rho0 = pure_state_density([0.8, 0.6])
        times = np.linspace(0.0, 5 * h.period, 11)
        tol = OdeTol(rtol=1e-10, atol=1e-13)
        k_max = 8
        base = evolve(build_terms(basis, [channel], k_max=k_max,
                                  secular_cutoff=np.inf, coeff_floor=0.0),
                      basis, rho0, times, tol=tol)
        shifted_basis = shift_gauge(basis, index=0, n_shift=1)
        shifted = evolve(build_terms(shifted_basis, [channel], k_max=k_max,
                                     secular_cutoff=np.inf, coeff_floor=0.0),
                         shifted_basis, rho0, times, tol=tol)
        dist = max(trace_distance(a, b) for a, b in zip(base.states, shifted.states))
        assert dist < 1e-8

    def test_expectation_helper(self, rwa_setup):
        h, basis, channel = rwa_setup
        rates = build_terms(basis, [channel], k_max=5)
        times = np.linspace(0.0, h.period, 5)
        result = evolve(rates, basis, pure_state_density([0.0, 1.0]), times)
        pops = result.expectation(np.diag([0.0, 1.0]))
        manual = [s[1, 1] for s in result.states]
        assert np.allclose(pops, manual)

    def test_input_validation(self, rwa_setup):
        _, basis, channel = rwa_setup
        rates = build_terms(basis, [channel], k_max=4)
        good = pure_state_density([1.0, 0.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            evolve(rates, basis, good, [0.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(rates, basis, good, [-1.0, 1.0])
        with pytest.raises(ValueError, match="trace"):
            evolve(rates, basis, np.diag([0.8, 0.8]), [0.0, 1.0])


class TestHermiticityPairing:
    def test_rate_superoperator_preserves_hermiticity_pairing(self, rwa_setup, rng):
        # R(t) applied to a Hermitian matrix yields a Hermitian matrix for
        # every cutoff, because tuples are kept in conjugate pairs
        _, basis, channel = rwa_setup
        for cutoff in [0.0, 5.0, np.inf]:
            rates = build_terms(basis, [channel], k_max=5, secular_cutoff=cutoff)
            for t in [0.0, 0.41]:
                r = assemble(rates, t)
                rho = random_density(rng, 2)
                out = fold(r @ unfold(rho))
                assert np.max(np.abs(out - out.conj().T)) < 1e-12
