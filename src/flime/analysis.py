"""Steady-state detection, period-averaged observables and emission spectra.

A nonequilibrium steady state (NESS) of a periodically driven dissipative
system is an oscillating attractor cycle, so convergence is judged on the
whole within-period profile of an observable rather than on point samples,
which would falsely converge at period-commensurate sampling times.

Emission spectra come from the one-sided Fourier transform of the two-time
coherence ``g1(tau) = <S+(t) S-(t+tau)> = Tr[S- L_tau(rho_ss S+)]``, where
the perturbed operator is propagated by the same master equation that
produced the steady state (quantum regression).  Spectra are measured in
the frame of the supplied Hamiltonian; use a rotating-frame system to
obtain detuning-axis spectra.
"""

from dataclasses import dataclass

import numpy as np

from .integrate import OdeTol, integrate_adaptive
from .lindblad import LiouvillianSpec, matrix_rhs
from .qops import unfold
from .solver import RateTermSet, _propagate

__all__ = [
    "NessResult",
    "SpectrumResult",
    "FlimePropagator",
    "ReferencePropagator",
    "rwa_steady_state",
    "evolve_to_ness",
    "correlation_g1",
    "spectrum",
]


def rwa_steady_state(rabi, detuning, gamma):
    """Steady-state excited population of the driven two-level system in the
    rotating wave approximation: rabi^2 / (4 detuning^2 + gamma^2 + 2 rabi^2).
    """
    if gamma < 0.0:
        raise ValueError("decay rate must be nonnegative")
    denom = 4.0 * detuning ** 2 + gamma ** 2 + 2.0 * abs(rabi) ** 2
    if denom == 0.0:
        raise ValueError("steady state undefined for rabi = detuning = gamma = 0")
    return abs(rabi) ** 2 / denom


class FlimePropagator:
    """Period-by-period propagation bound to a rate-term set and basis.

    The internal state is the rotated-frame supervector at a whole period
    (see ``solver._propagate``), in which the propagator is T-periodic.  The
    first call of :meth:`cycle` builds the lab-frame maps at ``taus`` and the
    one-period map P from one period of integration; each call then costs a
    few small matrix products.
    """

    def __init__(self, rates, basis, tol=None):
        self.rates = rates
        self.basis = basis
        self.tol = tol if tol is not None else OdeTol()
        self._taus = None

    @property
    def period(self):
        return self.basis.period

    def start(self, rho0):
        modes0 = self.basis.modes0
        return unfold(modes0.conj().T @ np.asarray(rho0, dtype=complex) @ modes0)

    def cycle(self, state, n, taus):
        """Propagate over period ``n``; returns lab states at n*T + taus and
        the internal state at (n+1)*T.  The maps do not depend on ``n``."""
        taus = np.asarray(taus, dtype=float)
        if self._taus is None or not np.array_equal(taus, self._taus):
            n2 = self.basis.dim ** 2
            lab, images, *_ = _propagate(self.rates, self.basis, np.eye(n2, dtype=complex),
                                         np.append(taus, self.period), self.tol)
            self._taus = taus.copy()
            self._lab_maps = lab[:-1]
            self._period_map = images[-1]
        return self._lab_maps @ state, self._period_map @ state


class ReferencePropagator:
    """Period-by-period propagation via the direct Lindblad generator."""

    def __init__(self, spec, tol=None):
        self.spec = spec
        self.tol = tol if tol is not None else OdeTol()
        self._rhs = matrix_rhs(spec)
        self._n = spec.dim
        self._max_step = (self.tol.max_step * spec.hamiltonian.period
                          if self.tol.max_step is not None else np.inf)
        self._h_prev = None

    @property
    def period(self):
        return self.spec.hamiltonian.period

    def start(self, rho0):
        return unfold(np.asarray(rho0, dtype=complex))

    def cycle(self, state, n, taus):
        t0 = n * self.period
        t_out = np.append(t0 + np.asarray(taus, dtype=float), t0 + self.period)
        vecs, stats = integrate_adaptive(
            self._rhs, t0, state, t_out,
            rtol=self.tol.rtol, atol=self.tol.atol,
            max_step=self._max_step, first_step=self._h_prev)
        self._h_prev = stats.last_step or None
        states = vecs[:-1].reshape(-1, self._n, self._n).transpose(0, 2, 1)
        return states, vecs[-1]


@dataclass(eq=False)
class NessResult:
    """Converged (or best-effort) steady-state cycle of one observable."""

    converged: bool
    periods_to_converge: int
    cycle_times: np.ndarray
    cycle_states: np.ndarray
    cycle_profile: np.ndarray
    period_mean: float
    residual: float


def evolve_to_ness(propagator, rho0, observable, conv_tol=1e-8,
                   max_periods=10000, samples_per_period=16):
    """Evolve period by period until the within-period observable profile
    stops changing.

    Convergence requires the maximum absolute profile difference between
    consecutive periods to stay below ``conv_tol`` for three consecutive
    periods.  When ``max_periods`` is exhausted the best-effort cycle is
    returned with ``converged=False``.
    """
    if conv_tol <= 0.0:
        raise ValueError("conv_tol must be positive")
    if max_periods < 1:
        raise ValueError("max_periods must be at least 1")
    if samples_per_period < 1:
        raise ValueError("samples_per_period must be at least 1")
    observable = np.asarray(observable, dtype=complex)
    period = propagator.period
    taus = np.arange(samples_per_period) * (period / samples_per_period)
    state = propagator.start(rho0)

    prev_profile = None
    streak = 0
    residual = np.inf
    states = None
    profile = None
    n = 0
    for n in range(max_periods):
        states, state = propagator.cycle(state, n, taus)
        profile = np.einsum("ij,tji->t", observable, states).real
        if prev_profile is not None:
            residual = float(np.max(np.abs(profile - prev_profile)))
            streak = streak + 1 if residual < conv_tol else 0
            if streak >= 3:
                break
        prev_profile = profile
    converged = streak >= 3
    return NessResult(
        converged=converged,
        periods_to_converge=n + 1,
        cycle_times=taus,
        cycle_states=states,
        cycle_profile=profile,
        period_mean=float(np.mean(profile)),
        residual=float(residual),
    )


def correlation_g1(system, ness_state, lower_op, tau_grid, tol=None):
    """First-order coherence g1(tau) = <S+(t) S-(t+tau)> at the steady state.

    The perturbed operator ``rho_ss @ S+`` is propagated by the same master
    equation that produced the steady state (quantum regression) and probed
    with ``S-``, so a free transition at frequency w0 rotates as
    ``exp(-1j*w0*tau)`` and the spectrum kernel ``exp(1j*dw*tau)`` places it
    at positive detuning.

    ``system`` selects the propagator: a :class:`LiouvillianSpec` for the
    direct generator (default choice for spectra) or a
    ``(RateTermSet, FloquetBasis)`` pair for the rate-matrix generator.  The
    latter integrates one period and jumps whole periods; when ``tau_grid``
    has many distinct phases tau mod T, they are Chebyshev-interpolated from
    exact samples at a few nodes, with the coefficient tail checked against
    ``tol`` (see ``solver._propagate``), so the integrator does not stop at
    every tau.  ``g1(0)`` equals the excited population of the steady state when
    ``lower_op`` is the lowering operator.
    """
    if tol is None:
        tol = OdeTol()
    tau_grid = np.asarray(tau_grid, dtype=float)
    lower_op = np.asarray(lower_op, dtype=complex)
    perturbed = np.asarray(ness_state, dtype=complex) @ lower_op.conj().T

    if isinstance(system, LiouvillianSpec):
        n = system.dim
        vecs, _ = integrate_adaptive(matrix_rhs(system), 0.0, unfold(perturbed), tau_grid,
                                     rtol=tol.rtol, atol=tol.atol)
        mats = vecs.reshape(-1, n, n).transpose(0, 2, 1)
    elif (isinstance(system, tuple) and len(system) == 2
          and isinstance(system[0], RateTermSet)):
        rates, basis = system
        modes0 = basis.modes0
        v0 = unfold(modes0.conj().T @ perturbed @ modes0)
        lab, *_ = _propagate(rates, basis, v0[:, None], tau_grid, tol)
        mats = lab[..., 0]
    else:
        raise TypeError("system must be a LiouvillianSpec or a (RateTermSet, FloquetBasis) pair")

    return np.einsum("ij,tji->t", lower_op, mats)


@dataclass(eq=False)
class SpectrumResult:
    """One-sided windowed Fourier transform of g1 on a detuning grid."""

    detunings: np.ndarray
    intensities: np.ndarray
    tau_max: float
    n_tau: int
    window: str


def _chirp_z(x, t0, dt, w0, dw, m):
    """sum_j x_j exp(1j*w_k*t_j) for w_k = w0 + k*dw (k < m), t_j = t0 + j*dt.

    Bluestein's chirp-z transform: with a = dw*dt/2, k*j = (k^2 + j^2 - (k-j)^2)/2
    turns the sum into a pre-chirp in j, a convolution with the chirp
    exp(-1j*a*l^2) over lags l = k - j, done by FFTs of a power-of-two length,
    and a post-chirp in k.  Squares are exact integers before scaling by a.
    """
    j = np.arange(x.size)
    k = np.arange(m)
    lags = np.arange(1 - x.size, m)
    a = 0.5 * dw * dt
    n_fft = 1 << (m + x.size - 2).bit_length()
    pre = np.zeros(n_fft, dtype=complex)
    pre[:x.size] = x * np.exp(1j * (w0 * dt * j + a * (j * j)))
    chirp = np.zeros(n_fft, dtype=complex)
    chirp[lags] = np.exp(-1j * a * (lags * lags))  # negative lags wrap to the end
    conv = np.fft.ifft(np.fft.fft(pre) * np.fft.fft(chirp))[:m]
    return conv * np.exp(1j * (t0 * (w0 + dw * k) + a * (k * k)))


def spectrum(g1, tau_grid, window="hann", detunings=None):
    """Emission spectrum S(dw) = Re sum_j g1(tau_j) w_j exp(1j*dw*tau_j) dtau.

    ``tau_grid`` and ``detunings`` must both be uniform (``detunings`` may
    descend or hold one point), so the sum is a chirp-z transform: for M
    detunings and J taus it costs O((M+J) log(M+J)) time and O(M+J) memory,
    with no M x J kernel.  The Hann window (default) suppresses truncation
    ringing that would mimic sidebands; "rect" disables apodization.
    Without an explicit ``detunings`` grid, a symmetric grid of 4x the tau
    resolution spanning (-pi/dtau, pi/dtau) is used.
    """
    g1 = np.asarray(g1, dtype=complex)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size < 2:
        raise ValueError("tau grid must contain at least two points")
    dtaus = np.diff(tau_grid)
    dtau = dtaus[0]
    if np.max(np.abs(dtaus - dtau)) > 1e-9 * dtau:
        raise ValueError("tau grid must be uniform")
    tau_max = float(tau_grid[-1] - tau_grid[0])

    if window == "hann":
        w = 0.5 * (1.0 + np.cos(np.pi * (tau_grid - tau_grid[0]) / tau_max))
    elif window == "rect":
        w = np.ones_like(tau_grid)
    else:
        raise ValueError(f"unknown window {window!r}; expected 'hann' or 'rect'")

    if detunings is None:
        n_freq = 4 * tau_grid.size
        detunings = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(n_freq, d=dtau))
    else:
        detunings = np.asarray(detunings, dtype=float)
        if detunings.ndim != 1 or detunings.size == 0:
            raise ValueError("detunings must be a non-empty 1-D grid")
    m = detunings.size
    dw = (detunings[-1] - detunings[0]) / max(m - 1, 1)
    if np.max(np.abs(np.diff(detunings) - dw), initial=0.0) > 1e-9 * abs(dw):
        raise ValueError("detunings must be uniform")

    intensities = _chirp_z(g1 * w, tau_grid[0], dtau, detunings[0], dw, m).real * dtau
    return SpectrumResult(
        detunings=detunings,
        intensities=intensities,
        tau_max=tau_max,
        n_tau=int(tau_grid.size),
        window=window,
    )
