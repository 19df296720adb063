"""Direct time-dependent Lindblad integration, used as oracle and baseline.

Propagates the lab-frame master equation

    d rho / dt = -1j [H(t), rho] + sum_c rate_c (S rho S^dag - (1/2){S^dag S, rho})

with the same adaptive integrator as the rate-matrix solver, so timing
comparisons between the two isolate the cost of the formulation.
"""

import time as _time
from dataclasses import dataclass

import numpy as np

from .integrate import OdeTol, integrate_adaptive
from .qops import check_density_matrix, hermiticity_defect, unfold
from .solver import Diagnostics, EvolutionResult

__all__ = ["LiouvillianSpec", "liouvillian_at", "matrix_rhs", "evolve_direct"]


@dataclass(frozen=True, eq=False)
class LiouvillianSpec:
    """A periodic Hamiltonian together with its collapse channels."""

    hamiltonian: object
    channels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        n = self.hamiltonian.dim
        for ch in self.channels:
            if ch.operator.shape != (n, n):
                raise ValueError(
                    f"channel operator shape {ch.operator.shape} does not match system dim {n}")

    @property
    def dim(self):
        return self.hamiltonian.dim


def _dissipator_superop(channels, n):
    eye = np.eye(n, dtype=complex)
    d = np.zeros((n * n, n * n), dtype=complex)
    for ch in channels:
        s = ch.operator
        sds = s.conj().T @ s
        d += ch.rate * (np.kron(s.conj(), s)
                        - 0.5 * np.kron(eye, sds)
                        - 0.5 * np.kron(sds.T, eye))
    return d


def liouvillian_at(spec, t):
    """Lindblad generator as a superoperator under the column-stacking layout."""
    n = spec.dim
    h = spec.hamiltonian(t)
    eye = np.eye(n, dtype=complex)
    coherent = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    return coherent + _dissipator_superop(spec.channels, n)


def matrix_rhs(spec):
    """Right-hand side v -> unfold(-1j[H(t), rho] + dissipator) in matrix form.

    Equivalent to multiplying by :func:`liouvillian_at` but cheaper per call.
    """
    n = spec.dim
    hamiltonian = spec.hamiltonian
    ops = [(ch.rate, ch.operator, ch.operator.conj().T, ch.operator.conj().T @ ch.operator)
           for ch in spec.channels if ch.rate > 0.0]

    def rhs(t, v):
        rho = v.reshape(n, n).T
        h = hamiltonian(t)
        drho = -1j * (h @ rho - rho @ h)
        for rate, s, sd, sds in ops:
            drho += rate * (s @ rho @ sd - 0.5 * (sds @ rho + rho @ sds))
        return drho.T.ravel()

    return rhs


def evolve_direct(spec, rho0, times, tol=None):
    """Integrate the lab-frame master equation, sampling exactly at ``times``.

    ``rho0`` is the state at t = 0.  Returns the same result type as the
    rate-matrix solver (term-count diagnostics are zero here).
    """
    t_start = _time.perf_counter()
    if tol is None:
        tol = OdeTol()
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("output times must be strictly increasing")
    if times[0] < 0.0:
        raise ValueError("output times must be nonnegative")
    rho0 = check_density_matrix(rho0)
    n = spec.dim
    if rho0.shape != (n, n):
        raise ValueError(f"state dim {rho0.shape[0]} does not match system dim {n}")

    rhs = matrix_rhs(spec)
    max_step = tol.max_step * spec.hamiltonian.period if tol.max_step is not None else np.inf
    t_solve = _time.perf_counter()
    vecs, stats = integrate_adaptive(rhs, 0.0, unfold(rho0), times,
                                     rtol=tol.rtol, atol=tol.atol, max_step=max_step)
    solution_time = _time.perf_counter() - t_solve

    states = vecs.reshape(-1, n, n).transpose(0, 2, 1)
    traces = np.einsum("tii->t", states)
    diag = Diagnostics(
        steps_accepted=stats.steps_accepted,
        steps_rejected=stats.steps_rejected,
        rhs_evals=stats.rhs_evals,
        solution_time_s=solution_time,
        max_trace_defect=float(np.max(np.abs(traces - 1.0))),
        max_hermiticity_defect=hermiticity_defect(states),
    )
    result = EvolutionResult(times=times, states=states, diagnostics=diag)
    diag.total_time_s = _time.perf_counter() - t_start
    return result
