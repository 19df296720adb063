"""Dense complex operator algebra for small open quantum systems.

Operators, density matrices, supervectors and superoperators are plain
``numpy`` arrays of ``complex128``.  The vectorization convention used
throughout the package is column stacking: matrix element ``(n, m)`` of a
density matrix lands at supervector index ``n + N*m``.
"""

import numpy as np

__all__ = [
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "sigma_minus",
    "sigma_plus",
    "pure_state_density",
    "unfold",
    "fold",
    "expect",
    "trace_distance",
    "hermiticity_defect",
    "unitarity_defect",
    "check_density_matrix",
]


def _frozen(mat):
    out = np.asarray(mat, dtype=complex)
    out.setflags(write=False)
    return out


# Two-level basis ordering: index 0 is the ground state, index 1 the excited
# state, so the bare Hamiltonian (omega0/2)*sigma_z has energies -/+ omega0/2.
sigma_x = _frozen([[0.0, 1.0], [1.0, 0.0]])
sigma_y = _frozen([[0.0, -1.0j], [1.0j, 0.0]])
sigma_z = _frozen([[-1.0, 0.0], [0.0, 1.0]])
sigma_minus = _frozen([[0.0, 1.0], [0.0, 0.0]])
sigma_plus = _frozen([[0.0, 0.0], [1.0, 0.0]])


def pure_state_density(psi):
    """Density matrix |psi><psi| of a (normalized on entry) state vector."""
    psi = np.asarray(psi, dtype=complex).ravel()
    norm2 = np.vdot(psi, psi).real
    if norm2 <= 0.0:
        raise ValueError("state vector has zero norm")
    return np.outer(psi, psi.conj()) / norm2


def unfold(rho):
    """Flatten a matrix into a supervector, element (n, m) -> index n + N*m."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return rho.flatten(order="F")


def fold(v):
    """Inverse of :func:`unfold`; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex).ravel()
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError(f"supervector length {v.size} is not a perfect square")
    return v.reshape((n, n), order="F").copy()


def expect(a, rho):
    """Expectation value Tr(a @ rho)."""
    a = np.asarray(a, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if a.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {rho.shape}")
    return complex(np.trace(a @ rho))


def trace_distance(a, b):
    """Half the sum of singular values of (a - b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return 0.5 * float(np.linalg.svd(a - b, compute_uv=False).sum())


def hermiticity_defect(m):
    """Largest elementwise deviation from Hermiticity, max |m - m^dag|, over
    a matrix or a stack of matrices (last two axes)."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2)))) if m.size else 0.0


def unitarity_defect(u):
    """max |u^dag u - 1| over a matrix or a stack of matrices (last two axes)."""
    u = np.asarray(u)
    return float(np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1]))))


# Largest Hermiticity defect of a matrix that is taken to be Hermitian.
HERM_TOL = 1e-12


def check_density_matrix(rho, trace_tol=1e-9, herm_tol=HERM_TOL):
    """Validate and return a density matrix as a complex array.

    Raises ``ValueError`` when the trace deviates from one by more than
    ``trace_tol`` or the Hermiticity defect exceeds ``herm_tol``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr} deviates from 1 beyond {trace_tol}")
    defect = hermiticity_defect(rho)
    if defect > herm_tol:
        raise ValueError(f"density matrix Hermiticity defect {defect} exceeds {herm_tol}")
    return rho
