"""Direct time-dependent Lindblad integration, used as oracle and baseline.

Propagates the lab-frame master equation

    d rho / dt = -1j [H(t), rho] + sum_c rate_c (S rho S^dag - (1/2){S^dag S, rho})

The lab-frame generator has the period T of H(t), so its propagator obeys
Phi(j*T + tau) = Phi(tau) Phi(T)^j, as the rate matrix's does in its
rotated frame.  Both generators run through the same one-period map
(``solver._propagate``) with the same adaptive integrator: one period is
integrated and whole periods are jumped, so timing comparisons between the
two solvers measure the formulation, not the period jump.
"""

from dataclasses import dataclass

import numpy as np

# integrate_adaptive is unused here but stays a module attribute:
# perfbench's tracer wraps lindblad.integrate_adaptive.
from .integrate import integrate_adaptive  # noqa: F401
from .qops import unfold
from .solver import _evolve, _Generator

__all__ = ["LiouvillianSpec", "matrix_rhs", "evolve_direct"]


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


def matrix_rhs(spec):
    """Right-hand side v -> unfold(-1j[H(t), rho] + dissipator) in matrix form.

    ``v`` is a flattened ``(n^2, B)`` block of supervectors (B = 1 for a
    single one), and every column is advanced by the same matrix products.
    """
    n = spec.dim
    hamiltonian = spec.hamiltonian
    ops = [(ch.rate, ch.operator, ch.operator.conj().T, ch.operator.conj().T @ ch.operator)
           for ch in spec.channels if ch.rate > 0.0]

    def rhs(t, v):
        rho = v.reshape(n, n, -1).T
        h = hamiltonian(t)
        drho = -1j * (h @ rho - rho @ h)
        for rate, s, sd, sds in ops:
            drho += rate * (s @ rho @ sd - 0.5 * (sds @ rho + rho @ sds))
        return drho.T.ravel()

    return rhs


def _lab_generator(spec):
    """The lab-frame Lindbladian as a T-periodic generator: its frame needs
    no rotation and its supervectors are the lab-frame states."""
    n = spec.dim
    return _Generator(rhs=matrix_rhs(spec), dim=n, gaps=np.zeros(n * n),
                      period=spec.hamiltonian.period, max_step=np.inf, start=unfold,
                      to_lab=lambda phases, index, rho: rho.transpose(0, 2, 1, 3))


def evolve_direct(spec, rho0, times, tol=None):
    """Integrate the lab-frame master equation to ``times``.

    ``rho0`` is the state at t = 0.  One period is integrated and later
    periods are reached by powers of the one-period map, exactly as in
    :func:`flime.solver.evolve`.  Returns the same result type as the
    rate-matrix solver (term-count diagnostics are zero here).
    """
    return _evolve(_lab_generator(spec), rho0, times, tol)
