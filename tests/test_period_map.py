"""Propagation by the one-period map against full-span stepping.

Both generators, the rate matrix and the direct lab-frame Lindbladian, are
propagated by the one-period map: one period is integrated and whole
periods are jumped.  The rate-matrix oracle integrates the Floquet-picture
supervector ODE over the whole time span with the same right-hand side,
then rotates to the lab frame with the Floquet state matrix at every output
time; the direct oracle (``oracles.direct_full_span``) steps the lab-frame
master equation over the whole span.
"""

import dataclasses
from math import isqrt

import numpy as np
import pytest

import flime.analysis as analysis_mod
import flime.floquet as floquet_mod
import flime.lindblad as lindblad_mod
import flime.solver as solver_mod
from flime import (CollapseChannel, FlimePropagator, LiouvillianSpec, OdeTol,
                   PeriodicHamiltonian, ReferencePropagator, build_bichromatic,
                   build_driven_2ls_full, build_driven_2ls_rwa, build_pulse_train,
                   build_terms, compute_basis, correlation_g1, evolve, evolve_direct,
                   pure_state_density, sigma_minus, unfold)
from flime.integrate import integrate_adaptive
from flime.qops import hermiticity_defect, trace_distance
from conftest import random_density, random_single_harmonic_system
from oracles import (direct_full_span, full_harmonics, hermitian_basis, liouvillian_at,
                     matrix_rhs, sequential_powers, sequential_stops)

TOL = OdeTol(rtol=1e-10, atol=1e-12)
ORACLE_TOL = OdeTol(rtol=1e-11, atol=1e-13)


def _oracle(rates, basis, rho0, times):
    """Lab-frame states from full-span stepping of the real coordinates."""
    n = basis.dim
    u = hermitian_basis(n)
    v0 = (u.conj().T @ unfold(basis.modes0.conj().T @ rho0 @ basis.modes0)).real
    gen = solver_mod._rate_generator(rates, basis)
    vecs, _ = integrate_adaptive(solver_mod._make_rhs(gen), 0.0, v0, times, rtol=ORACLE_TOL.rtol,
                                 atol=ORACLE_TOL.atol, max_step=gen.max_step)
    rho_f = (vecs @ u.T).reshape(-1, n, n).transpose(0, 2, 1)
    w = basis.modes_at_many(times) * np.exp(-1j * np.outer(times, basis.quasienergies))[:, None, :]
    return w @ rho_f @ w.conj().transpose(0, 2, 1)


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
    ours = evolve(rates, basis, rho0, times, tol=TOL)
    lab = _oracle(rates, basis, rho0, times)
    assert max(trace_distance(a, b) for a, b in zip(ours.states, lab)) <= 1e-9
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
        cycles[n], state = prop.cycle(state, taus)
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
    gen = solver_mod._rate_generator(rates, basis)
    v0 = gen.start(state)[:, None]
    _, _, stats, (nodes, tail, _) = solver_mod._propagate(gen, v0, taus, tol)
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
    block = np.eye(4)
    gen = solver_mod._rate_generator(rates, basis)
    lab, images, stats, (nodes, tail, _) = solver_mod._propagate(gen, block, taus, tol)
    assert (nodes, tail) == (0, 0.0)
    _exact_stops(monkeypatch)
    lab_exact, images_exact, stats_exact, _ = solver_mod._propagate(gen, block, taus, tol)
    np.testing.assert_array_equal(lab, lab_exact)
    np.testing.assert_array_equal(images, images_exact)
    # the counts include the rejected 65-node attempt
    assert stats.rhs_evals > stats_exact.rhs_evals


def _generator(kind, name):
    """A rate-matrix or lab-frame generator of the 2LS or n = 3 system."""
    if kind == "rates":
        h, channel, _, _ = _system(name)
        basis = compute_basis(h)
        rates = build_terms(basis, [channel], k_max=5, secular_cutoff=np.inf, coeff_floor=0.0)
        return solver_mod._rate_generator(rates, basis)
    spec, _ = _direct_system("criterion-11" if name == "2ls" else name)
    return lindblad_mod._lab_generator(spec)


def _stops(name, period):
    rng = np.random.default_rng(9)
    if name == "uniform-phases":
        return np.arange(17) * (period / 16)
    if name == "chebyshev-65":
        return solver_mod._chebyshev_nodes(period, 65)
    if name == "period":
        return np.array([period])
    # more stops than nodes, each of them a stop: the exact-stop fallback
    if name == "exact-fallback":
        return np.sort(rng.uniform(0.0, period, 100))
    # the first period only: the block itself, not the identity
    return np.sort(rng.uniform(0.0, 0.8 * period, 7))


@pytest.mark.parametrize("stops", ["uniform-phases", "chebyshev-65", "period",
                                   "exact-fallback", "no-jump-block"])
@pytest.mark.parametrize("name", ["2ls", "n3"])
@pytest.mark.parametrize("kind", ["rates", "lab"])
def test_sliced_maps_match_sequential_integration(kind, name, stops, monkeypatch):
    gen = _generator(kind, name)
    nn = gen.dim ** 2
    tol = OdeTol(rtol=1e-9, atol=1e-12)
    points = _stops(stops, gen.period)
    if stops == "no-jump-block":
        rng = np.random.default_rng(2)
        y0 = np.stack([gen.start(random_density(rng, gen.dim)) for _ in range(3)], axis=1)
    else:
        y0 = np.eye(nn)
    if stops == "exact-fallback":
        _exact_stops(monkeypatch)
    flat, stats, nodes, _, slices = solver_mod._integrate_stops(gen, y0, points, tol)
    ours = flat.reshape(points.size, nn, -1)
    ref = sequential_stops(gen, y0, points, tol)
    assert nodes == 0 and stats.steps_accepted > 0
    # every stop bounds a slice, and no slice is longer than T/16
    assert slices >= max(points.size - 1, int(np.ceil(points[-1] / (gen.period / 16))))
    assert np.max(np.abs(ours - ref)) <= 1e-9


@pytest.mark.parametrize("fraction", [0.0, 0.03])
@pytest.mark.parametrize("kind", ["rates", "lab"])
def test_one_short_time_takes_at_most_one_slice(kind, fraction):
    gen = _generator(kind, "2ls")
    block = np.random.default_rng(3).normal(size=(4, 2))
    t = fraction * gen.period
    _, images, stats, (_, _, slices) = solver_mod._propagate(gen, block, [t], TOL)
    # the frame phase exp(-1j*gaps*t) of the supervectors, in coordinates
    u = hermitian_basis(2)
    ref = u.conj().T @ (np.exp(-1j * t * gen.gaps)[:, None]
                        * (u @ sequential_stops(gen, block, [t], TOL)[0]))
    assert np.max(np.abs(images[0] - ref)) <= 1e-10
    # time 0 is the block itself, with no step taken
    assert slices == (t > 0) and (stats.steps_accepted > 0) == (t > 0)


@pytest.mark.parametrize("kind", ["rates", "lab"])
def test_five_levels_step_the_period_sequentially(kind):
    rng = np.random.default_rng(31)
    h, channel = random_single_harmonic_system(rng, 5)
    if kind == "rates":
        basis = compute_basis(h)
        rates = build_terms(basis, [channel], k_max=5, secular_cutoff=np.inf, coeff_floor=0.0)
        gen = solver_mod._rate_generator(rates, basis)
    else:
        gen = lindblad_mod._lab_generator(LiouvillianSpec(h, (channel,)))
    tol = OdeTol(rtol=1e-9, atol=1e-12)
    points = np.arange(9) * (gen.period / 8)
    y0 = np.eye(25)
    flat, stats, _, _, slices = solver_mod._integrate_stops(gen, y0, points, tol)
    assert slices == 0 and stats.steps_accepted > 0
    np.testing.assert_array_equal(flat.reshape(9, 25, 25), sequential_stops(gen, y0, points, tol))
    times = np.linspace(0.0, 3 * gen.period, 13)
    res = evolve_direct(LiouvillianSpec(h, (channel,)), random_density(rng, 5), times, tol=tol)
    assert res.diagnostics.period_slices == 0


# 80-bit on x86-64 Linux; double with MSVC and on macOS arm64
_EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


@pytest.mark.parametrize("name", ["2ls", "n3", "n4", "n8"])
def test_period_powers_match_sequential_loop(name):
    if name in ("n4", "n8"):
        n = int(name[1])
        h, channel = random_single_harmonic_system(np.random.default_rng(31), n)
        gen = lindblad_mod._lab_generator(LiouvillianSpec(h, (channel,)))
        sparse = np.array([0, 7, 500, 5000]) if n == 4 else np.array([0, 7, 13, 20])
        columns = 1
    else:
        gen = _generator("lab", name)
        sparse, columns = np.array([0, 7, 10_000, 100_000]), 2
    nn = gen.dim ** 2
    tol = OdeTol(rtol=1e-9, atol=1e-12)
    flat, *_ = solver_mod._integrate_stops(gen, np.eye(nn), np.array([gen.period]), tol)
    pmap = flat.reshape(nn, nn)
    block = np.random.default_rng(4).normal(size=(nn, columns))
    dense = np.arange(sparse[-1] + 1)
    ours = solver_mod._period_powers(pmap, block, dense)
    np.testing.assert_array_equal(solver_mod._period_powers(pmap, block, sparse), ours[sparse])
    loop = sequential_powers(pmap, block, dense)
    scale = np.max(np.abs(loop))
    exact = sequential_powers(pmap.astype(np.longdouble), block.astype(np.longdouble), sparse)
    error = np.max(np.abs(ours[sparse] - exact)) / scale
    loop_error = np.max(np.abs(loop[sparse] - exact)) / scale
    if name == "n4":
        # 5 000 periods of a 16 x 16 map with one column: the baby steps ran
        assert not np.array_equal(ours, loop)
        assert np.max(np.abs(ours - loop)) <= 1e-12 * scale
    elif name == "n8":
        # 20 periods of a 64 x 64 map: the baby products would cost more
        # than the loop's, so the powers are that loop
        np.testing.assert_array_equal(ours, loop)
    if not _EXTENDED:
        pytest.skip("np.longdouble is double here, so the powers have no exact reference")
    # P^m in extended precision, rounded once: closer to the
    # extended-precision powers than the loop's roundings
    assert error <= min(2e-13, loop_error)
    if name == "2ls":
        assert np.max(np.abs(ours - loop)) <= 1e-12 * scale
    elif name == "n3":
        # the loop itself is about 3e-13 from the extended-precision powers
        assert loop_error > 1e-13


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
        cycles[n], state = prop.cycle(state, taus)
    checked = (0, 1, 12)
    times = np.concatenate([n * period + taus for n in checked])
    ref = direct_full_span(spec, rho0, times, ORACLE_TOL).reshape(len(checked), n_taus, *rho0.shape)
    for k, n in enumerate(checked):
        assert max(trace_distance(a, b) for a, b in zip(cycles[n], ref[k])) <= 1e-9


def test_max_step_reaches_the_integrator(monkeypatch):
    spec, rho0 = _direct_system("criterion-11")
    basis = compute_basis(spec.hamiltonian)
    rates = build_terms(basis, spec.channels, k_max=5, secular_cutoff=np.inf, coeff_floor=0.0)
    rng = np.random.default_rng(31)
    h5, channel5 = random_single_harmonic_system(rng, 5)
    spec5 = LiouvillianSpec(h5, (channel5,))
    tol = OdeTol(rtol=1e-9, atol=1e-12, max_step=0.05)
    taus = np.linspace(0.0, 3.0, 31)
    recorded = []
    spans = []

    def recording(*args, **kwargs):
        # a sequential integration in t: the step cap it was given
        recorded.append(("sequential", kwargs.get("max_step", np.inf)))
        return integrate_adaptive(*args, **kwargs)

    def recording_span(rhs, t0, y0, t_out, **kwargs):
        spans.append((t0, t_out[-1]))
        return integrate_adaptive(rhs, t0, y0, t_out, **kwargs)

    sub_propagators = solver_mod._sub_propagators

    def recording_slices(block_at, n, starts, lengths, tol, factor=1.0):
        # slices in s from 0 to their longest length: an s-step is at most
        # that, and slice j scales it by lengths[j] / lengths.max(), so a
        # step in t is at most the slice's length
        spans.clear()
        out = sub_propagators(block_at, n, starts, lengths, tol, factor)
        assert spans == [(0.0, lengths.max())]
        recorded.append(("sliced", lengths.max()))
        return out

    for module in (solver_mod, analysis_mod, lindblad_mod):
        monkeypatch.setattr(module, "integrate_adaptive", recording)
    monkeypatch.setattr(floquet_mod, "integrate_adaptive", recording_span)
    monkeypatch.setattr(solver_mod, "_sub_propagators", recording_slices)
    period = spec.hamiltonian.period
    runs = {
        "direct g1": (period, lambda: correlation_g1(spec, rho0, sigma_minus, taus, tol=tol)),
        "rates g1": (period, lambda: correlation_g1((rates, basis), rho0, sigma_minus, taus,
                                                    tol=tol)),
        "evolve_direct": (period, lambda: evolve_direct(spec, rho0, taus, tol=tol)),
        "reference cycle": (period, lambda: ReferencePropagator(spec, tol).cycle(
            ReferencePropagator(spec, tol).start(rho0), taus[:4])),
        # n = 5 steps the period sequentially
        "evolve_direct n=5": (h5.period, lambda: evolve_direct(
            spec5, random_density(rng, 5), taus, tol=tol)),
    }
    for name, (run_period, run) in runs.items():
        recorded.clear()
        run()
        cap = 0.05 * run_period
        kind = "sequential" if name.endswith("n=5") else "sliced"
        assert recorded and all(k == kind for k, _ in recorded), name
        if kind == "sequential":
            assert all(m == cap for _, m in recorded), name
        else:
            assert all(m <= cap * (1.0 + 1e-12) for _, m in recorded), name


def _complex_closure(kind, n, cutoff, k_max=5):
    """A real-coordinate generator, its complex closure t -> A(t) on
    supervectors and the rate set (None for the lab frame): the rate matrix
    summed from the full harmonic stack (``oracles.full_harmonics``), or the
    lab-frame Lindbladian from Kronecker products of H(t)
    (``oracles.liouvillian_at``)."""
    h, channel = random_single_harmonic_system(np.random.default_rng(31), n)
    if kind == "lab":
        spec = LiouvillianSpec(h, (channel,))

        def lab_closure(t):
            t = np.asarray(t, dtype=float)
            stack = [liouvillian_at(spec, x) for x in t.ravel()]
            return np.array(stack).reshape(t.shape + (n * n, n * n))

        return lindblad_mod._lab_generator(spec), lab_closure, None
    basis = compute_basis(h)
    rates = build_terms(basis, [channel], k_max=k_max, secular_cutoff=cutoff, coeff_floor=0.0)
    full, freqs = full_harmonics(rates)

    def closure(t):
        t = np.asarray(t, dtype=float)
        phases = np.exp(1j * np.multiply.outer(t, freqs))
        return np.sum(full * phases, axis=t.ndim)

    return solver_mod._rate_generator(rates, basis), closure, rates


_GENERATOR_KINDS = [("rates", np.inf), ("rates", 5.0), ("rates", 0.0), ("lab", None)]


def _half_store_oracle(harmonics, omega, gaps):
    """Re(U^dag 2C(t) U), with C(t) the half-store weighted by
    exp(1j*m*omega*t) (harmonic 0 by 1/2 more) and by the gap phases
    exp(1j*(gaps[p] - gaps[q])*t), summed in complex arithmetic with U
    from ``oracles.hermitian_basis``."""
    u = hermitian_basis(isqrt(harmonics.shape[1]))
    freqs = omega * np.arange(len(harmonics))

    def at(t):
        c = np.tensordot(np.exp(1j * freqs * t), harmonics, axes=1) - 0.5 * harmonics[0]
        phase = np.exp(1j * gaps * t)
        return (u.conj().T @ (2.0 * phase[:, None] * c * phase.conj()) @ u).real

    return at


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("kind, cutoff", _GENERATOR_KINDS,
                         ids=["complete", "filtered", "static", "lab"])
def test_generator_matrix_is_real_projection(kind, cutoff, n):
    # one time, as the sequential side asks, and an array, as the slices do;
    # at n = 2 and 4 the complete set keeps M = 40 harmonics
    gen, closure, rates = _complex_closure(kind, n, cutoff, k_max=20 if n in (2, 4) else 5)
    if kind == "rates" and np.isinf(cutoff) and n in (2, 4):
        assert len(rates.harmonics) == 41
    u = hermitian_basis(n)
    times = np.random.default_rng(8).uniform(0.0, 3.0 * gen.period, (2, 2))
    projected = u.conj().T @ closure(times) @ u
    # a Hermiticity-preserving generator is real in these coordinates
    assert np.max(np.abs(projected.imag)) <= 1e-13
    ours = gen.matrix(times)
    assert ours.dtype == np.float64 and ours.shape == projected.shape
    assert np.max(np.abs(ours - projected.real)) <= 1e-13
    half = None if rates is None else _half_store_oracle(rates.harmonics, rates.omega, rates.gaps)
    scalar = []
    for t, ref in zip(times.ravel(), projected.real.reshape(-1, n * n, n * n)):
        one = gen.matrix(float(t))
        assert one.dtype == np.float64 and np.max(np.abs(one - ref)) <= 1e-13
        if half is not None:
            assert np.max(np.abs(one - half(t))) <= 1e-13
        scalar.append(one)
    # the array's harmonic phases are powers of exp(1j*omega*t), a scalar
    # time's each its own exp
    scalar = np.reshape(scalar, ours.shape)
    assert np.max(np.abs(ours - scalar)) <= 1e-14 * np.max(np.abs(scalar))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_coordinates_round_trip_and_hermitian_is_real(n):
    rng = np.random.default_rng(6)
    v = rng.normal(size=(2, n * n, 3)) + 1j * rng.normal(size=(2, n * n, 3))
    r = solver_mod._coordinates(v)
    u = hermitian_basis(n)
    assert np.max(np.abs(r - u.conj().T @ v)) <= 1e-15
    assert np.max(np.abs(solver_mod._vectors(r) - v)) <= 1e-15
    rho = random_density(rng, n)
    r = solver_mod._coordinates(unfold(rho)[:, None])[:, 0]
    assert np.max(np.abs(r.imag)) <= 1e-16
    assert np.array_equal(solver_mod._start_coordinates(unfold(rho), rho), r.real)
    # the complex view of each pair is sqrt(2) rho[a, a'], a < a'
    pairs = r.real[n:].copy().view(complex)
    upper = rho.T[np.triu_indices(n, 1)]
    assert np.max(np.abs(pairs - np.sqrt(2.0) * upper)) <= 1e-15


@pytest.mark.parametrize("phases", [10, 100])
@pytest.mark.parametrize("kind", ["rates", "lab"])
def test_four_levels_take_the_sliced_side(kind, phases):
    # 10 phases are stops of the slices; 100 are more than the Chebyshev
    # nodes and are interpolated from them
    rng = np.random.default_rng(31)
    h, channel = random_single_harmonic_system(rng, 4)
    spec = LiouvillianSpec(h, (channel,))
    rho0 = random_density(rng, 4)
    times = np.arange(3 * phases + 1) * (h.period / phases)
    if kind == "rates":
        basis = compute_basis(h)
        rates = build_terms(basis, [channel], k_max=10, secular_cutoff=np.inf, coeff_floor=0.0)
        res = evolve(rates, basis, rho0, times, tol=ORACLE_TOL)
    else:
        res = evolve_direct(spec, rho0, times, tol=ORACLE_TOL)
    assert res.diagnostics.period_slices > 0
    assert (res.diagnostics.phase_nodes > 0) == (phases > solver_mod._CHEB_NODES)
    ref = direct_full_span(spec, rho0, times, ORACLE_TOL)
    assert max(trace_distance(a, b) for a, b in zip(res.states, ref)) <= 1e-9


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("kind", ["rates", "lab"])
def test_real_coordinates_match_complex_stepping(kind, n):
    # n = 2 and 4 take the sliced side, n = 8 the sequential one; the
    # oracle steps the complex supervectors over the whole span
    gen, closure, _ = _complex_closure(kind, n, np.inf)
    tol = OdeTol(rtol=1e-10, atol=1e-12)
    rho0 = random_density(np.random.default_rng(4), n)
    block = gen.start(rho0)[:, None]
    assert block.dtype == np.float64
    times = np.linspace(0.0, 2.5 * gen.period, 11)
    _, images, _, (_, _, slices) = solver_mod._propagate(gen, block, times, tol)
    assert images.dtype == np.float64 and (slices > 0) == (n <= 4)
    u = hermitian_basis(n)
    oracle = sequential_stops(dataclasses.replace(gen, matrix=closure), u @ block, times, tol)
    # into the rotated frame of the images
    oracle *= np.exp(-1j * np.outer(times, gen.gaps))[:, :, None]
    assert np.max(np.abs(u @ images - oracle)) <= 1e-9


@pytest.mark.parametrize("kind", ["rates", "lab"])
def test_evolved_states_are_hermitian(kind):
    h, channel, rho0, _ = _system("n3")
    times = np.linspace(0.0, 4.0 * h.period, 23)
    if kind == "rates":
        basis = compute_basis(h)
        rates = build_terms(basis, [channel], k_max=5, secular_cutoff=np.inf, coeff_floor=0.0)
        res = evolve(rates, basis, rho0, times, tol=TOL)
    else:
        res = evolve_direct(LiouvillianSpec(h, (channel,)), rho0, times, tol=TOL)
    assert hermiticity_defect(res.states) <= 1e-15
    assert res.diagnostics.max_hermiticity_defect <= 1e-15


@pytest.mark.parametrize("empty", [(1, 3, 4, 5), (2, 3, 4, 5, 6)])
def test_rate_matrix_skips_only_trailing_empty_harmonics(empty):
    # build_terms drops trailing empty harmonics, but the closure must not
    # rely on it: empty harmonics inside or at the end of a store add nothing
    h, channel = random_single_harmonic_system(np.random.default_rng(31), 3)
    basis = compute_basis(h)
    rates = build_terms(basis, [channel], k_max=3, secular_cutoff=np.inf, coeff_floor=0.0)
    store = rates.harmonics.copy()
    store[list(empty)] = 0.0
    sparse = dataclasses.replace(rates, harmonics=store)
    full, freqs = full_harmonics(sparse)
    u = hermitian_basis(3)
    at = solver_mod._rate_matrix(sparse)
    for t in (0.3, 1.7):
        ref = u.conj().T @ np.sum(full * np.exp(1j * freqs * t), axis=0) @ u
        assert np.max(np.abs(at(t) - ref.real)) <= 1e-13
