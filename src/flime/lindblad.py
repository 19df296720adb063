"""Direct time-dependent Lindblad integration, used as oracle and baseline.

Propagates the lab-frame master equation

    d rho / dt = -1j [H(t), rho] + sum_c rate_c (S rho S^dag - (1/2){S^dag S, rho})

The lab-frame generator has the period T of H(t), so its propagator obeys
Phi(j*T + tau) = Phi(tau) Phi(T)^j, as the rate matrix's does in its
rotated frame.  Both generators run through the same one-period map
(``solver._propagate``) with the same adaptive integrator: one period is
integrated and whole periods are jumped, so timing comparisons between the
two solvers measure the formulation, not the period jump.  Like the rate
matrix, the generator is stored once as a half-store of its harmonics
0 ... K, built from the Hamiltonian's own half-store
(``PeriodicHamiltonian.harmonics``), and evaluated by the same closure
(``solver._harmonic_matrix``), in real coordinates and at an array of
times, so small systems step slices of the period side by side.
"""

from dataclasses import dataclass

import numpy as np

# integrate_adaptive is unused here but stays a module attribute:
# perfbench's tracer wraps lindblad.integrate_adaptive.
from .integrate import integrate_adaptive  # noqa: F401
from .qops import unfold
from .solver import _add_sides, _evolve, _Generator, _harmonic_matrix, _start_coordinates

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


def _lab_generator(spec):
    """The lab-frame Lindbladian as a T-periodic generator, in real
    coordinates: its frame needs no rotation and its supervectors are the
    lab-frame states.

    It is stored once, as the rate matrix is, as a half-store of harmonics
    (see ``solver._harmonic_matrix``) read off the Hamiltonian's own
    half-store ``harmonics``: L_0 = -1j [H_0, .] plus the dissipators and
    L_k = -1j [H_k, .] for k = 1 ... K, n^2 x n^2 superoperators in column
    stacking.  H_{-k} = H_k^dag makes L_{-k} the mirror of L_k.  Without
    harmonics the generator is constant.
    """
    n = spec.dim
    hamiltonian = spec.hamiltonian
    coherent = hamiltonian.harmonics
    harmonics = np.zeros((coherent.shape[0], n * n, n * n), dtype=complex)
    for ch in spec.channels:
        s = ch.operator
        sds = -0.5 * ch.rate * (s.conj().T @ s)
        harmonics[0] += ch.rate * np.kron(s.conj(), s)
        _add_sides(harmonics[:1], sds[None], sds[None])
    _add_sides(harmonics, -1j * coherent, 1j * coherent)
    gaps = np.zeros(n * n)
    return _Generator(matrix=_harmonic_matrix(harmonics, hamiltonian.omega, gaps, len(coherent) == 1),
                      dim=n, gaps=gaps, period=hamiltonian.period, max_step=np.inf,
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
