"""Test oracles: independent, slow constructions of what the package computes.

The tuple-by-tuple oracles for the decomposed rate superoperator enumerate
every index pair ``(alpha, beta, k), (alpha', beta', k')`` of one channel
explicitly, so they are quadratic in the tuple count and meant for small
systems.  They share only ``fourier_coefficients`` with the harmonic store
that ``build_terms`` fills.  The Lindblad generator as an explicit
superoperator and full-span stepping check the direct solver, which
propagates by the one-period map.
"""

from dataclasses import dataclass

import numpy as np

from flime import fourier_coefficients, integrate_adaptive, sandwich_superop
from flime.lindblad import matrix_rhs
from flime.qops import unfold
from flime.solver import _SECULAR_REL_TOL, _frequencies


@dataclass(frozen=True, eq=False)
class RateTerm:
    """One index tuple of the decomposed dissipator."""

    alpha: int
    beta: int
    k: int
    alpha2: int
    beta2: int
    k2: int
    delta: float
    weight: complex
    negligibility: float

    def superop(self, dim):
        """The bracketed Lindblad sandwich A . A'^dag - (1/2){A'^dag A, .}
        as a superoperator (unit coefficients; ``weight`` not included)."""
        a = np.zeros((dim, dim), dtype=complex)
        a[self.alpha, self.beta] = 1.0
        a2 = np.zeros((dim, dim), dtype=complex)
        a2[self.alpha2, self.beta2] = 1.0
        eye = np.eye(dim, dtype=complex)
        a2d_a = a2.conj().T @ a
        return (sandwich_superop(a, a2.conj().T)
                - 0.5 * sandwich_superop(a2d_a, eye)
                - 0.5 * sandwich_superop(eye, a2d_a))


def _tuples(basis, channel, k_max):
    """Flattened (alpha, beta, k) indices, coefficients and rotation frequencies."""
    coeffs = fourier_coefficients(basis, channel.operator, k_max).coeffs
    n = basis.dim
    a_idx, b_idx, k_idx = (ix.ravel() for ix in np.indices((n, n, 2 * k_max + 1)))
    ks = k_idx - k_max
    eps = basis.quasienergies
    return a_idx, b_idx, ks, coeffs.reshape(-1), eps[a_idx] - eps[b_idx] + ks * basis.omega


def enumerate_terms(basis, channel, k_max, coeff_floor=0.0):
    """Yield every :class:`RateTerm` with coefficient product above the floor,
    without secular filtering."""
    a_idx, b_idx, ks, coeff, rot_freq = _tuples(basis, channel, k_max)
    absc = np.abs(coeff)
    m = coeff.size
    for i in range(m):
        for j in range(m):
            prod = absc[i] * absc[j]
            if prod < coeff_floor:
                continue
            delta = rot_freq[i] - rot_freq[j]
            yield RateTerm(
                alpha=int(a_idx[i]), beta=int(b_idx[i]), k=int(ks[i]),
                alpha2=int(a_idx[j]), beta2=int(b_idx[j]), k2=int(ks[j]),
                delta=float(delta),
                weight=channel.rate * coeff[i] * np.conj(coeff[j]),
                negligibility=float(abs(delta) / prod) if prod > 0 else np.inf,
            )


def dissipator_bruteforce(basis, channels, rho, t, k_max=20):
    """Direct tuple-by-tuple dissipator evaluation.

    Sums ``rate * (S1 rho S2^dag - (1/2){S2^dag S1, rho})`` over all index
    tuples with the time-dependent phases attached to the operators, with no
    filtering.
    """
    rho = np.asarray(rho, dtype=complex)
    n = basis.dim
    out = np.zeros((n, n), dtype=complex)
    for ch in channels:
        a_idx, b_idx, _, coeff, rot_freq = _tuples(basis, ch, k_max)
        ops = []
        for a, b, c, f in zip(a_idx, b_idx, coeff, rot_freq):
            if c == 0.0:
                continue
            op = np.zeros((n, n), dtype=complex)
            op[a, b] = c * np.exp(1j * f * t)
            ops.append(op)
        for s1 in ops:
            for s2 in ops:
                s2d = s2.conj().T
                s2d_s1 = s2d @ s1
                out += ch.rate * (s1 @ rho @ s2d - 0.5 * (s2d_s1 @ rho + rho @ s2d_s1))
    return out


def oscillating_terms(rates):
    """Yield ``(delta, superoperator)`` for each frequency group of a rate set:
    the oscillating harmonic-store entries whose frequency is nearest delta."""
    freqs = _frequencies(rates.omega, rates.k_max, rates.gaps)
    oscillating = np.abs(freqs) > _SECULAR_REL_TOL * rates.omega
    nearest = np.argmin(np.abs(freqs[..., None] - rates.deltas), axis=-1)
    for g, delta in enumerate(rates.deltas):
        yield float(delta), np.sum(rates.harmonics, axis=0, where=oscillating & (nearest == g))


def factored_rhs(rates, basis):
    """Floquet-picture RHS of a complete rate set from the single Lindblad
    operators S(t) = sum_k c_k exp(1j*(eps_a - eps_b + k*omega)*t) of each
    channel, on a flattened ``(n^2, B)`` block."""
    n = basis.dim
    eps = basis.quasienergies
    ks = np.arange(-rates.k_max, rates.k_max + 1)
    items = [(ch.rate, fourier_coefficients(basis, ch.operator, rates.k_max).coeffs)
             for ch in rates.channels]

    def rhs(t, v):
        rho = v.reshape(n, n, -1).transpose(2, 1, 0)
        kph = np.exp(1j * ks * basis.omega * t)
        eph = np.exp(1j * eps * t)
        out = np.zeros_like(rho)
        for rate, coeffs in items:
            s = (coeffs @ kph) * np.outer(eph, eph.conj())
            sds = s.conj().T @ s
            out += rate * (s @ rho @ s.conj().T - 0.5 * (sds @ rho + rho @ sds))
        return out.transpose(2, 1, 0).ravel()

    return rhs


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


def direct_full_span(spec, rho0, times, tol):
    """Lab-frame states from stepping the direct generator over the whole
    span, with the integrator stopping exactly at every one of ``times``."""
    n = spec.dim
    max_step = tol.max_step * spec.hamiltonian.period if tol.max_step is not None else np.inf
    vecs, _ = integrate_adaptive(matrix_rhs(spec), 0.0, unfold(rho0), times,
                                 rtol=tol.rtol, atol=tol.atol, max_step=max_step)
    return vecs.reshape(-1, n, n).transpose(0, 2, 1)
