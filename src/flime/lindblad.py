"""Direct time-dependent Lindblad integration, used as oracle and baseline.

Propagates the lab-frame master equation

    d rho / dt = -1j [H(t), rho] + sum_c rate_c (S rho S^dag - (1/2){S^dag S, rho})

The lab-frame generator has the period T of H(t), so its propagator obeys
Phi(j*T + tau) = Phi(tau) Phi(T)^j, as the rate matrix's does in its
rotated frame.  Both generators run through the same one-period map
(``solver._propagate``) with the same adaptive integrator: one period is
integrated and whole periods are jumped, so timing comparisons between the
two solvers measure the formulation, not the period jump.  Like the rate
matrix, the generator is formed as an n^2 x n^2 superoperator at an array of
times, so small systems step slices of the period side by side, and like it,
it is propagated in real coordinates (``solver._real_projector``).
"""

from dataclasses import dataclass

import numpy as np

# integrate_adaptive is unused here but stays a module attribute:
# perfbench's tracer wraps lindblad.integrate_adaptive.
from .integrate import integrate_adaptive  # noqa: F401
from .qops import unfold
from .solver import (_add_sides, _evolve, _Generator, _projection_weights, _real_projector,
                     _start_coordinates)

__all__ = ["LiouvillianSpec", "evolve_direct"]


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


def _liouvillian(spec):
    """Closure t -> L(t), the lab-frame Lindbladian as an n^2 x n^2
    superoperator in column stacking, shape (n^2, n^2) for a scalar t and
    (n^2, n^2, *t.shape) for an array of times: the times are the trailing
    axes, as ``solver._real_projector`` takes them.

    The dissipator is constant and formed once; each call adds the
    commutator -1j [H(t), .] of one ``hamiltonian(t)`` call, which takes
    arrays, to a copy of it (``solver._add_sides``).
    """
    n = spec.dim
    nn = n * n
    hamiltonian = spec.hamiltonian
    dissipator = np.zeros((nn, nn), dtype=complex)
    for ch in spec.channels:
        s = ch.operator
        sds = -0.5 * ch.rate * (s.conj().T @ s)
        dissipator += ch.rate * np.kron(s.conj(), s)
        _add_sides(dissipator[None], sds[None], sds[None])

    def at(t):
        h = hamiltonian(t)
        lead = h.shape[:-2]
        out = np.empty((nn, nn) + lead, dtype=complex)
        out[...] = dissipator.reshape((nn, nn) + (1,) * len(lead))
        h = h.reshape(-1, n, n)
        _add_sides(out.reshape(nn, nn, -1).transpose(2, 0, 1), -1j * h, 1j * h)
        return out

    return at


def _lab_generator(spec):
    """The lab-frame Lindbladian as a T-periodic generator, in real
    coordinates: its frame needs no rotation and its supervectors are the
    lab-frame states."""
    n = spec.dim
    liouvillian = _liouvillian(spec)
    project = _real_projector(n)
    weights = _projection_weights(n)

    def matrix(t):
        m = liouvillian(t)
        return project(m, weights.reshape(weights.shape + (1,) * (m.ndim - 2)))

    return _Generator(matrix=matrix, dim=n,
                      gaps=np.zeros(n * n), period=spec.hamiltonian.period, max_step=np.inf,
                      start=lambda rho: _start_coordinates(unfold(rho), rho),
                      to_lab=lambda phases, index, rho: rho.transpose(0, 2, 1, 3))


def evolve_direct(spec, rho0, times, tol=None):
    """Integrate the lab-frame master equation to ``times``.

    ``rho0`` is the state at t = 0.  One period is integrated and later
    periods are reached by powers of the one-period map, exactly as in
    :func:`flime.solver.evolve`.  Returns the same result type as the
    rate-matrix solver (term-count diagnostics are zero here).
    """
    return _evolve(_lab_generator(spec), rho0, times, tol)
