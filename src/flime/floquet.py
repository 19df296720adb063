"""Floquet analysis of time-periodic Hamiltonians.

Computes the one-period propagator (monodromy matrix), quasienergies and
Floquet modes from its eigendecomposition, a uniform time grid of modes over
one period, and the Fourier coefficients of system operators expressed in
the Floquet mode basis.
"""

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .integrate import OdeTol, integrate_adaptive, _repeat_memo
from .qops import unitarity_defect

__all__ = [
    "FloquetBasis",
    "FourierOperator",
    "BASIS_TOL",
    "brillouin_fold",
    "monodromy",
    "floquet_decompose",
    "mode_grid",
    "compute_basis",
    "fourier_coefficients",
]

# Basis construction feeds every downstream quantity, so it defaults to a
# tighter tolerance than ordinary state propagation.
BASIS_TOL = OdeTol(rtol=1e-10, atol=1e-12)

_UNITARY_TOL = 1e-9
_REUNITARIZE_TOL = 1e-6
# Mode Fourier frequencies are split as f = _SPLIT * q + r, 0 <= r < _SPLIT, so
# that interpolating the modes takes few exponentials (see modes_at_many).
_SPLIT = 16
# Sub-intervals of the monodromy block.  Not a power of two, so the partition
# never coincides with a mode grid's and closure_defect always compares two
# different integrations.
_MONODROMY_SLICES = 24
# Stacks of n x n products with n <= _SMALL_N and at least
# _ENTRYWISE_STACK * n**3 matrices are formed entry by entry.  That costs
# n**3 NumPy calls of about 1 us whatever the stack length, where matmul
# costs about 0.25 us per matrix: at n = 2, 30 us against 240 us for 1024
# matrices but 12 us against 7 us for 24 (the monodromy's block).  At n >= 4
# the n**3 passes over the stack cost more than matmul at any length.
_SMALL_N = 3
_ENTRYWISE_STACK = 8


def brillouin_fold(value, omega):
    """Fold a frequency into the first Brillouin zone (-omega/2, omega/2]."""
    folded = value - omega * np.round(np.asarray(value, dtype=float) / omega)
    folded = np.where(folded <= -0.5 * omega, folded + omega, folded)
    return folded if np.ndim(value) else float(folded)


@dataclass(frozen=True, eq=False)
class FloquetBasis:
    """Quasienergies and Floquet modes on a one-period grid.

    Attributes
    ----------
    quasienergies : ndarray, shape (N,)
        Sorted quasienergies in (-omega/2, omega/2].
    modes0 : ndarray, shape (N, N)
        Columns are the orthonormal Floquet modes at t = 0.
    grid_times : ndarray, shape (n_samples,)
        Uniform samples of [0, T).
    mode_grid : ndarray, shape (n_samples, N, N)
        Mode matrices at each grid time (columns are modes).
    closure_defect : float
        max |phi(T) - phi(0)|, with phi(T) from the product of the grid's
        sub-interval propagators.
    """

    omega: float
    quasienergies: np.ndarray
    modes0: np.ndarray
    grid_times: np.ndarray
    mode_grid: np.ndarray
    closure_defect: float = 0.0
    _coarse_freqs: np.ndarray = field(init=False, repr=False)
    _split_coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_samples, n, _ = self.mode_grid.shape
        coeffs = np.fft.fft(self.mode_grid, axis=0) / n_samples
        freqs = np.rint(np.fft.fftfreq(n_samples, d=1.0 / n_samples)).astype(int)
        coarse, fine = np.divmod(freqs, _SPLIT)
        coarse, coarse_index = np.unique(coarse, return_inverse=True)
        split = np.zeros((coarse.size, _SPLIT, n * n), dtype=complex)
        split[coarse_index, fine] = coeffs.reshape(n_samples, n * n)
        object.__setattr__(self, "_coarse_freqs", _SPLIT * coarse)
        object.__setattr__(self, "_split_coeffs", split.reshape(coarse.size, -1))

    @property
    def dim(self):
        return self.modes0.shape[0]

    @property
    def period(self):
        return 2.0 * np.pi / self.omega

    @property
    def n_samples(self):
        return self.grid_times.size

    @property
    def unitarity_defect(self):
        """max |M^dag M - 1| over the mode matrices M of ``mode_grid``.

        They are U(t_j) ``modes0`` times unimodular phases, so this checks
        the grid propagators U(t_j) and the orthonormality of ``modes0``
        together.
        """
        return unitarity_defect(self.mode_grid)

    def modes_at_many(self, times):
        """Mode matrices at an array of times, shape (len(times), N, N).

        The Fourier coefficients are stored by f = 16 q + r, 0 <= r < 16, so
        sum_f exp(1j*omega*tau*f) c_f is a product with the coarse phases
        exp(1j*omega*tau*16 q) followed by a sum over the fine phases
        exp(1j*omega*tau*r): n_samples / 16 + 16 exponentials per time
        instead of n_samples, and no (times x n_samples) table.
        """
        times = np.asarray(times, dtype=float)
        wt = self.omega * np.mod(times, self.period)
        coarse = np.exp(1j * np.outer(wt, self._coarse_freqs))
        fine = np.exp(1j * np.outer(wt, np.arange(_SPLIT)))
        n = self.dim
        partial = (coarse @ self._split_coeffs).reshape(times.size, _SPLIT, n * n)
        return (fine[:, None, :] @ partial).reshape(times.size, n, n)


@dataclass(frozen=True, eq=False)
class FourierOperator:
    """Fourier coefficients of a system operator in the Floquet mode basis.

    ``coeffs[a, b, j]`` is the coefficient of ``exp(1j*k*omega*t)`` in
    ``<phi_a(t)|operator|phi_b(t)>`` for ``k = k_values[j]``.
    """

    omega: float
    k_max: int
    coeffs: np.ndarray

    @property
    def k_values(self):
        return np.arange(-self.k_max, self.k_max + 1)

    @property
    def tail(self):
        """Largest coefficient magnitude at |k| = k_max (truncation diagnostic)."""
        return float(max(np.max(np.abs(self.coeffs[:, :, 0])),
                         np.max(np.abs(self.coeffs[:, :, -1]))))


def _stacked_product(a, b):
    """``a @ b`` for a real or complex stack of n x n matrices ``a`` and
    ``b`` broadcast against it.

    For small n and long stacks each entry out[..., i, j] is summed over k
    into one output array, with one temporary the length of the stack;
    otherwise matmul.
    """
    n = a.shape[-1]
    if n > _SMALL_N or a.size // (n * n) < _ENTRYWISE_STACK * n**3:
        return a @ b
    dtype = np.result_type(a, b)
    out = np.empty(a.shape, dtype=dtype)
    term = np.empty(a.shape[:-2], dtype=dtype)
    for i in range(n):
        for j in range(n):
            entry = out[..., i, j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=entry)
            for k in range(1, n):
                np.multiply(a[..., i, k], b[..., k, j], out=term)
                entry += term
    return out


def _prefix_products(stack):
    """Replace a C-contiguous (M, n, n) stack V in place by its running
    products P_j = V_j ... V_1 V_0.

    Blocked in two levels: the M factors are split into blocks of length m,
    m the largest divisor of M not above sqrt(M); the prefix products within
    all blocks are formed side by side in m - 1 stacked products, then each
    block's last product is carried into the next block, one product per
    block, and one stacked product applies the carries.  Later factors
    multiply on the left, as in the sequential loop, in about 2 sqrt(M)
    Python-level products instead of M.
    """
    n_factors, n, _ = stack.shape
    if n_factors < 2:
        return
    m = max(d for d in range(1, isqrt(n_factors) + 1) if n_factors % d == 0)
    blocks = stack.reshape(n_factors // m, m, n, n)
    for i in range(1, m):
        blocks[:, i] = _stacked_product(blocks[:, i], blocks[:, i - 1])
    carries = np.empty((blocks.shape[0] - 1, n, n), dtype=blocks.dtype)
    carries[0] = blocks[0, -1]
    for b in range(1, carries.shape[0]):
        carries[b] = blocks[b, -1] @ carries[b - 1]
    blocks[1:] = _stacked_product(blocks[1:], carries[:, None])


def _sub_propagators(block_at, n, starts, lengths, tol, factor=1.0):
    """Propagators V_j = U(a_j + L_j, a_j) of dU/dt = factor A(t) U over
    the slices [a_j, a_j + L_j], a_j = ``starts[j]`` and L_j = ``lengths[j]``,
    shape (S, n, n), with the integrator statistics.

    The slices are integrated side by side as one (S, n*n) block, whose
    step error is the worst slice's, in a rescaled time s in [0, L_max],
    L_max the longest slice: dU_j/ds = r_j factor A(a_j + r_j s) U_j with
    r_j = L_j / L_max.  Equal slices have r_j = 1 and step in t itself, and
    a step of at most L_max in s is at most L_j in t.  ``block_at(ts)``
    gives A at the S times ``a_j + r_j s``, shape (S, n, n), and the RHS
    product A U_j goes entry by entry for n <= 3 and long blocks
    (:func:`_stacked_product`).  A stage at the previous stage's s reuses
    its A block (:func:`_repeat_memo`).  The propagators are real when A and
    ``factor`` are.
    """
    count = starts.size
    span = lengths.max()
    if np.all(lengths == span):
        # scalars: a per-slice array costs the basis build's long blocks
        # a few percent on every RHS call
        ratio, coef = 1.0, factor
    else:
        ratio = lengths / span
        coef = (factor * ratio)[:, None, None]
    block = _repeat_memo(lambda s: block_at(starts + ratio * s))

    def rhs(s, y):
        out = _stacked_product(block(s), y.reshape(count, n, n))
        out *= coef
        return out.reshape(count, n * n)

    y0 = np.tile(np.eye(n, dtype=np.result_type(factor, float)).ravel(), (count, 1))
    out, stats = integrate_adaptive(rhs, 0.0, y0, [span], rtol=tol.rtol, atol=tol.atol)
    return out[0].reshape(count, n, n), stats


def monodromy(hamiltonian, tol=BASIS_TOL):
    """One-period propagator U(T, 0) of a periodic Hamiltonian.

    Integrates dU/dt = -1j H(t) U over 24 sub-intervals [t_j, t_j + T/24]
    of the period, stepped side by side as one block
    (:func:`_sub_propagators`), with H(t_j + s) for all j from one pointwise
    call ``hamiltonian(t_j + s)`` on the array of times.  Only the full
    product of their propagators, U(T, 0) = V_23 ... V_1 V_0, is needed, so
    it is taken one factor at a time.  A unitarity defect in [1e-9, 1e-6] is
    repaired by polar decomposition; beyond that the integration is
    considered failed.
    """
    n = hamiltonian.dim
    width = hamiltonian.period / _MONODROMY_SLICES
    starts = np.arange(_MONODROMY_SLICES) * width
    factors, _ = _sub_propagators(hamiltonian, n, starts, np.full(_MONODROMY_SLICES, width),
                                  tol, factor=-1j)
    u = np.eye(n, dtype=complex)
    for v in factors:
        u = v @ u
    defect = unitarity_defect(u)
    if defect > _REUNITARIZE_TOL:
        raise ValueError(f"monodromy unitarity defect {defect:.3e} exceeds {_REUNITARIZE_TOL:.0e}")
    if defect > _UNITARY_TOL:
        w, _, vh = np.linalg.svd(u)
        u = w @ vh
    return u


def floquet_decompose(u_period, omega):
    """Quasienergies and t=0 Floquet modes from the monodromy matrix.

    Eigenphases are folded into (-omega/2, omega/2] and sorted.  The
    eigenvector matrix is replaced by its polar factor (one SVD), the
    nearest unitary matrix: an exactly unitary monodromy has orthonormal
    eigenvectors, so this removes only the eigensolver's loss of
    orthogonality, and within a degenerate cluster it orthonormalizes the
    returned basis of the eigenspace.  Each mode's largest-magnitude
    component is then made real positive so the output is deterministic.
    A mode that no longer satisfies the eigenvalue equation to 1e-8 marks a
    defective eigenbasis.
    """
    u_period = np.asarray(u_period, dtype=complex)
    defect = unitarity_defect(u_period)
    if defect > _UNITARY_TOL:
        raise ValueError(f"input is not unitary (defect {defect:.3e})")
    period = 2.0 * np.pi / omega
    evals, evecs = np.linalg.eig(u_period)
    if np.any(np.abs(np.abs(evals) - 1.0) > 1e-8):
        raise ValueError("monodromy eigenvalues are not on the unit circle")
    eps = brillouin_fold(-np.angle(evals) / period, omega)
    order = np.argsort(eps)
    eps = eps[order]
    w, _, vh = np.linalg.svd(evecs[:, order])
    modes = w @ vh
    n = eps.size
    anchor = np.argmax(np.abs(modes), axis=0)
    phases = modes[anchor, np.arange(n)]
    modes *= np.abs(phases) / phases

    residual = np.max(np.abs(u_period @ modes - modes * evals[order]))
    if residual > 1e-8:
        raise ValueError(f"defective eigenbasis, eigenvector residual {residual:.3e}")
    return eps, modes


def mode_grid(hamiltonian, quasienergies, modes0, n_samples=256, tol=BASIS_TOL):
    """Floquet modes on a uniform grid over one period.

    The ``n_samples`` (a power of two) sub-intervals [t_j, t_j + T/N] are
    integrated side by side as one (N, n*n) block, like :func:`monodromy`'s
    sub-intervals, but with H(t_j + s) for all j from one inverse FFT of the
    harmonic table (:meth:`PeriodicHamiltonian.on_grid`).  The running
    product U(t_{j+1}) = V_j U(t_j) of the sub-interval propagators gives the
    grid and a second U(T); it is blocked (:func:`_prefix_products`), about
    2 sqrt(N) NumPy calls instead of N sequential products, and the basis
    keeps only the modes it gives.  For n <= 3 the RHS, the running products
    and the modes U(t_j) modes0 of the long grid go entry by entry instead
    of through matmul (:func:`_stacked_product`).
    ``closure_defect`` compares that U(T) with ``modes0``, which come from
    :func:`monodromy`'s integration over a different partition (never a
    power of two) with the pointwise H(t), so it cross-checks two
    integrations.
    """
    if n_samples < 2 or (n_samples & (n_samples - 1)) != 0:
        raise ValueError("n_samples must be a power of two (and at least 2)")
    n = hamiltonian.dim
    period = hamiltonian.period
    width = period / n_samples
    times = np.arange(n_samples) * width
    # The slices are equal and the first starts at 0, so ts[0] is the offset
    # s of every slice.
    factors, _ = _sub_propagators(lambda ts: hamiltonian.on_grid(n_samples, ts[0]), n, times,
                                  np.full(n_samples, width), tol, factor=-1j)
    running = np.empty((n_samples + 1, n, n), dtype=complex)
    running[0] = np.eye(n)
    running[1:] = factors
    _prefix_products(running[1:])

    modes = _stacked_product(running[:-1], modes0)
    modes *= np.exp(1j * np.outer(times, quasienergies))[:, None, :]
    closing = (running[-1] @ modes0) * np.exp(1j * quasienergies * period)
    closure = float(np.max(np.abs(closing - modes0)))
    return FloquetBasis(
        omega=hamiltonian.omega,
        quasienergies=np.asarray(quasienergies, dtype=float),
        modes0=np.asarray(modes0, dtype=complex),
        grid_times=times,
        mode_grid=modes,
        closure_defect=closure,
    )


def compute_basis(hamiltonian, n_samples=256, tol=BASIS_TOL):
    """Monodromy, eigendecomposition and mode grid in one call."""
    u_period = monodromy(hamiltonian, tol=tol)
    eps, modes0 = floquet_decompose(u_period, hamiltonian.omega)
    return mode_grid(hamiltonian, eps, modes0, n_samples=n_samples, tol=tol)


def fourier_coefficients(basis, operator, k_max):
    """Fourier coefficients of ``<phi_a(t)|operator|phi_b(t)>`` over the grid.

    Discrete Fourier analysis on the mode grid; requires
    ``k_max < n_samples / 2``.  The elements phi(t)^dag operator phi(t) on
    the grid are two stacked products (:func:`_stacked_product`).
    """
    operator = np.asarray(operator, dtype=complex)
    if operator.shape != (basis.dim, basis.dim):
        raise ValueError(f"operator shape {operator.shape} does not match basis dim {basis.dim}")
    if not 0 <= k_max < basis.n_samples / 2:
        raise ValueError(f"k_max must satisfy 0 <= k_max < n_samples/2 = {basis.n_samples / 2}")
    grid = basis.mode_grid
    elements = _stacked_product(_stacked_product(grid.conj().transpose(0, 2, 1), operator), grid)
    spectrum = np.fft.fft(elements, axis=0) / basis.n_samples
    idx = [k % basis.n_samples for k in range(-k_max, k_max + 1)]
    coeffs = np.moveaxis(spectrum[idx], 0, -1)
    return FourierOperator(omega=basis.omega, k_max=int(k_max), coeffs=coeffs)
