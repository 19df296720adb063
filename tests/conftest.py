"""Shared helpers: random-system generators and independent oracles.

Oracle integrators here are deliberately independent of the package's
adaptive stepper (fixed-step classical Runge-Kutta) so cross-checks do not
share failure modes with the code under test.
"""

import numpy as np
import pytest

from flime import CollapseChannel, FloquetBasis, HarmonicTerm, PeriodicHamiltonian
from flime.solver import _rate_matrix
from oracles import hermitian_basis


def assemble(rates, t):
    """The rate superoperator R(t) of a RateTermSet, from the solver's own
    closure, taken from its real coordinates back to supervectors: U A U^dag."""
    u = hermitian_basis(rates.dim)
    return u @ _rate_matrix(rates)(t) @ u.conj().T


def random_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (m + m.conj().T) / np.sqrt(n)


def random_complex_matrix(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * m / np.linalg.norm(m, 2)


def random_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_single_harmonic_system(rng, n, with_channel=True):
    """Random periodic Hamiltonian with one drive harmonic plus a channel."""
    omega = 2.0 * np.pi * rng.uniform(0.5, 1.5)
    static = random_hermitian(rng, n, scale=0.6 * omega)
    drive = random_complex_matrix(rng, n, scale=0.35 * omega)
    h = PeriodicHamiltonian(omega, static, (
        HarmonicTerm(drive, +1, 1.0),
        HarmonicTerm(drive.conj().T, -1, 1.0),
    ))
    if not with_channel:
        return h, None
    channel = CollapseChannel(random_complex_matrix(rng, n), rng.uniform(0.05, 0.3))
    return h, channel


def rk4_matrix_propagator(hamiltonian, t_end, n_steps, t_start=0.0):
    """Fixed-step RK4 for dU/dt = -1j H(t) U, U(t_start) = 1 (oracle)."""
    return rk4_matrix_samples(hamiltonian, t_end, n_steps, n_steps, t_start)[-1]


def _rk4_steps(hamiltonian, y, t_start, dt, n_steps):
    """Yield y after each of ``n_steps`` fixed RK4 steps of
    dy/dt = -1j H(t) y from ``t_start``; H is evaluated at every stage time
    in one call."""
    gen = -1j * hamiltonian(t_start + np.arange(2 * n_steps + 1) * (dt / 2))
    for j in range(0, 2 * n_steps, 2):
        k1 = gen[j] @ y
        k2 = gen[j + 1] @ (y + dt / 2 * k1)
        k3 = gen[j + 1] @ (y + dt / 2 * k2)
        k4 = gen[j + 2] @ (y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        yield y


def rk4_matrix_samples(hamiltonian, t_end, n_steps, every, t_start=0.0):
    """U(t_start + j * every * dt) for j = 0 .. n_steps // every from one
    fixed-step RK4 pass with dt = (t_end - t_start) / n_steps (oracle)."""
    u = np.eye(hamiltonian.dim, dtype=complex)
    dt = (t_end - t_start) / n_steps
    steps = _rk4_steps(hamiltonian, u, t_start, dt, n_steps)
    return np.array([u] + [u for step, u in enumerate(steps, 1) if step % every == 0])


def rk4_schrodinger_states(hamiltonian, psi0, times, steps_per_unit=8192):
    """Fixed-step RK4 pure-state evolution (oracle); returns density matrices."""
    psi = np.asarray(psi0, dtype=complex).copy()
    psi /= np.linalg.norm(psi)
    period = hamiltonian.period
    out = []
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            n_steps = max(1, int(np.ceil((t - t_prev) / period * steps_per_unit)))
            *_, psi = _rk4_steps(hamiltonian, psi, t_prev, (t - t_prev) / n_steps, n_steps)
        out.append(np.outer(psi, psi.conj()))
        t_prev = t
    return np.array(out)


def shift_gauge(basis, index, n_shift=1):
    """Shift one quasienergy by n_shift*omega, compensating the mode phase so
    the physical Floquet state is unchanged."""
    eps = basis.quasienergies.copy()
    eps[index] += n_shift * basis.omega
    grid = basis.mode_grid.copy()
    grid[:, :, index] *= np.exp(1j * n_shift * basis.omega * basis.grid_times)[:, None]
    return FloquetBasis(
        omega=basis.omega,
        quasienergies=eps,
        modes0=basis.modes0.copy(),
        grid_times=basis.grid_times.copy(),
        mode_grid=grid,
        closure_defect=basis.closure_defect,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
